//! Betweenness centrality via Brandes' algorithm (§3.3 baseline).
//!
//! Brandes (2001) computes exact betweenness in `O(nm)` for unweighted
//! graphs by accumulating *dependencies* along BFS DAGs. Exact computation
//! on large graphs is exactly the cost the paper complains about for this
//! baseline; for those, `pivots` subsamples source nodes (Brandes–Pich
//! style approximation) with the estimate rescaled accordingly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relmax_ugraph::{NodeId, ProbGraph};
use std::collections::VecDeque;

/// Betweenness centrality of every node over hop-count shortest paths.
///
/// `pivots = None` computes the exact Brandes score from all sources;
/// `pivots = Some((p, seed))` accumulates from `p` random sources and
/// rescales by `n / p`.
pub fn betweenness_centrality<G: ProbGraph>(g: &G, pivots: Option<(usize, u64)>) -> Vec<f64> {
    let n = g.num_nodes();
    let sources: Vec<NodeId> = match pivots {
        None => (0..n as u32).map(NodeId).collect(),
        Some((p, seed)) => {
            let mut all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            all.shuffle(&mut rng);
            all.truncate(p.min(n));
            all
        }
    };
    let scale = if sources.is_empty() {
        1.0
    } else {
        n as f64 / sources.len() as f64
    };
    let mut bc = vec![0.0f64; n];
    // Scratch buffers reused across sources.
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i32; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for &s in &sources {
        sigma.fill(0.0);
        dist.fill(-1);
        delta.fill(0.0);
        for p in preds.iter_mut() {
            p.clear();
        }
        order.clear();
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v.0);
            let dv = dist[v.index()];
            let sv = sigma[v.index()];
            for u in g.out_arcs(v).map(|a| a.node) {
                if dist[u.index()] < 0 {
                    dist[u.index()] = dv + 1;
                    queue.push_back(u);
                }
                if dist[u.index()] == dv + 1 {
                    sigma[u.index()] += sv;
                    preds[u.index()].push(v.0);
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        for &w in order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
            for &v in &preds[w as usize] {
                delta[v as usize] += sigma[v as usize] * coeff;
            }
            if w != s.0 {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    for b in &mut bc {
        *b *= scale;
    }
    // Undirected graphs count each path twice (once per endpoint ordering).
    if !g.is_directed() {
        for b in &mut bc {
            *b /= 2.0;
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn path_graph_middle_node_dominates() {
        // 0 - 1 - 2 - 3 - 4: node 2 lies on the most shortest paths.
        let mut g = UncertainGraph::new(5, false);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        let bc = betweenness_centrality(&g, None);
        // Exact undirected betweenness on P5: [0, 3, 4, 3, 0].
        assert!((bc[0]).abs() < 1e-9);
        assert!((bc[1] - 3.0).abs() < 1e-9);
        assert!((bc[2] - 4.0).abs() < 1e-9);
        assert!((bc[3] - 3.0).abs() < 1e-9);
        assert!((bc[4]).abs() < 1e-9);
    }

    #[test]
    fn star_center_carries_all_paths() {
        let mut g = UncertainGraph::new(5, false);
        for i in 1..5u32 {
            g.add_edge(NodeId(0), NodeId(i), 0.5).unwrap();
        }
        let bc = betweenness_centrality(&g, None);
        // Center: C(4,2) = 6 pairs routed through it.
        assert!((bc[0] - 6.0).abs() < 1e-9);
        for b in &bc[1..5] {
            assert!(b.abs() < 1e-9);
        }
    }

    #[test]
    fn directed_path_counts_one_direction() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let bc = betweenness_centrality(&g, None);
        assert!((bc[1] - 1.0).abs() < 1e-9); // only path 0->2 passes node 1
    }

    #[test]
    fn pivot_approximation_is_unbiased_on_full_sample() {
        let mut g = UncertainGraph::new(6, false);
        for i in 0..5u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        let exact = betweenness_centrality(&g, None);
        let approx = betweenness_centrality(&g, Some((6, 1)));
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_branches_split_dependency() {
        // Two equal-length routes: each mid node carries half the pair flow.
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let bc = betweenness_centrality(&g, None);
        assert!((bc[1] - 0.5).abs() < 1e-9);
        assert!((bc[2] - 0.5).abs() < 1e-9);
    }
}
