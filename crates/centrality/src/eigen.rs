//! Leading eigenvalue and eigenvectors by power iteration (§3.4).
//!
//! The eigenvalue-based baseline (Chen et al., TKDD 2016) scores a
//! candidate edge `(i, j)` by `u(i) · v(j)`, where `u` and `v` are the left
//! and right eigenvectors of the (probability-weighted) adjacency matrix
//! associated with its largest eigenvalue `λ`. Power iteration converges
//! to those for non-negative matrices with a dominant eigenvalue, which
//! covers the graphs in this workspace.

use relmax_ugraph::{NodeId, ProbGraph};

/// Leading eigenvalue with left/right eigenvectors.
#[derive(Debug, Clone)]
pub struct EigenResult {
    /// Largest eigenvalue `λ` of the weighted adjacency matrix.
    pub lambda: f64,
    /// Left eigenvector `u` (L2-normalized, non-negative).
    pub left: Vec<f64>,
    /// Right eigenvector `v` (L2-normalized, non-negative).
    pub right: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|a| a * a).sum::<f64>().sqrt();
    if norm > 0.0 {
        for a in x.iter_mut() {
            *a /= norm;
        }
    }
    norm
}

fn matvec<G: ProbGraph>(g: &G, x: &[f64], transpose: bool, out: &mut [f64]) {
    out.fill(0.0);
    for v in 0..g.num_nodes() as u32 {
        let xv = x[v as usize];
        if xv == 0.0 {
            continue;
        }
        // out = A^T x for left iteration (transpose=false uses out-edges as
        // rows): (A x)[v] = sum over out-edges (v -> u) of p * x[u].
        if transpose {
            for a in g.out_arcs(NodeId(v)) {
                out[a.node.index()] += a.prob * xv;
            }
        } else {
            for a in g.out_arcs(NodeId(v)) {
                out[v as usize] += a.prob * x[a.node.index()];
            }
        }
    }
}

/// Power iteration for the leading eigenpair of the weighted adjacency
/// matrix `A[v][u] = p(v → u)`.
///
/// `max_iters` caps work; `tol` is the L2 change at which iteration stops.
/// Returns `lambda = 0` with uniform vectors for empty graphs.
pub fn leading_eigen<G: ProbGraph>(g: &G, max_iters: usize, tol: f64) -> EigenResult {
    let n = g.num_nodes();
    if n == 0 {
        return EigenResult {
            lambda: 0.0,
            left: vec![],
            right: vec![],
            iterations: 0,
        };
    }
    // Positive diagonal shift: power iteration on A + σI converges even on
    // bipartite graphs (whose spectrum is symmetric, ±λ) because the shift
    // breaks the |λ| tie while preserving eigenvectors. λ(A) = λ(A+σI) − σ.
    let shift = 1.0;
    let run = |transpose: bool| -> (Vec<f64>, f64, usize) {
        let mut x = vec![1.0 / (n as f64).sqrt(); n];
        let mut next = vec![0.0; n];
        let mut lambda = 0.0;
        let mut iters = 0;
        for it in 0..max_iters {
            iters = it + 1;
            matvec(g, &x, transpose, &mut next);
            for (nx, xv) in next.iter_mut().zip(&x) {
                *nx += shift * xv;
            }
            let norm = normalize(&mut next);
            lambda = (norm - shift).max(0.0);
            let diff: f64 = x
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            std::mem::swap(&mut x, &mut next);
            if diff < tol {
                break;
            }
        }
        (x, lambda, iters)
    };
    let (right, lambda_r, it_r) = run(false);
    let (left, _lambda_l, it_l) = run(true);
    EigenResult {
        lambda: lambda_r,
        left,
        right,
        iterations: it_r.max(it_l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn complete_graph_eigenvalue() {
        // Unweighted K4 (probabilities 1): lambda = n - 1 = 3.
        let mut g = UncertainGraph::new(4, false);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                g.add_edge(NodeId(u), NodeId(v), 1.0).unwrap();
            }
        }
        let e = leading_eigen(&g, 500, 1e-12);
        assert!((e.lambda - 3.0).abs() < 1e-6, "lambda={}", e.lambda);
        // Symmetric matrix: left == right (up to sign; both non-negative).
        for (l, r) in e.left.iter().zip(&e.right) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_star_eigenvalue() {
        // Star with k leaves and weight w: lambda = w * sqrt(k).
        let k = 4;
        let w = 0.5;
        let mut g = UncertainGraph::new(k + 1, false);
        for i in 1..=k as u32 {
            g.add_edge(NodeId(0), NodeId(i), w).unwrap();
        }
        let e = leading_eigen(&g, 2000, 1e-13);
        assert!(
            (e.lambda - w * (k as f64).sqrt()).abs() < 1e-5,
            "lambda={}",
            e.lambda
        );
        // Center has the largest eigenvector entry.
        assert!(e.right[0] > e.right[1]);
    }

    #[test]
    fn directed_cycle_has_unit_eigenvalue() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 1.0).unwrap();
        let e = leading_eigen(&g, 500, 1e-10);
        assert!((e.lambda - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = UncertainGraph::new(3, true);
        let e = leading_eigen(&g, 100, 1e-10);
        assert_eq!(e.lambda, 0.0);
        let g0 = UncertainGraph::new(0, true);
        assert_eq!(leading_eigen(&g0, 10, 1e-10).lambda, 0.0);
    }

    #[test]
    fn left_eigenvector_differs_on_asymmetric_graphs() {
        // Node 2 has high in-weight, node 0 high out-weight.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 0.3).unwrap();
        let e = leading_eigen(&g, 1000, 1e-12);
        assert!(e.lambda > 0.0);
        // Right eigenvector weights "reaches out", left weights "receives".
        assert!(e.right[0] > e.right[2] - 1.0); // sanity: finite values
        assert!(e.left.iter().all(|x| x.is_finite()));
    }
}
