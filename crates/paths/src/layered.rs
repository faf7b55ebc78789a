//! Exact solver for the restricted problem (Problem 2, Algorithm 3).
//!
//! *Most reliable path improvement*: pick at most `k` candidate edges so
//! that the most reliable `s-t` path in the augmented graph has maximum
//! probability. Theorem 3 of the paper shows this is solvable in polynomial
//! time via a layered construction:
//!
//! - make `k + 1` copies (`layers`) of the weighted graph `w(e) = −log
//!   p(e)`; existing ("blue") edges stay within a layer;
//! - each candidate ("red") edge `(u, v)` becomes an arc from `u` in layer
//!   `i` to `v` in layer `i + 1` — crossing a layer *spends* one unit of
//!   budget;
//! - a shortest path from `s` in layer 0 to `t` in layer `i` is exactly the
//!   best `s-t` path using at most `i` red edges; minimizing over `i ≤ k`
//!   solves the problem, and the red arcs on the winning path are the edges
//!   to add.
//!
//! The paper phrases the construction over the complete graph (every
//! missing edge is a candidate); this implementation takes an explicit
//! candidate list so it can also run after search-space elimination, which
//! is how §5 uses it. Passing all missing pairs reproduces the paper's
//! setting verbatim.

use crate::dijkstra::neg_log;
use relmax_ugraph::{NodeId, ProbGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of [`improve_most_reliable_path`].
#[derive(Debug, Clone)]
pub struct MrpImprovement {
    /// Indices (into the candidate slice) of the chosen red edges, in path
    /// order. Empty when no addition improves the most reliable path.
    pub chosen: Vec<usize>,
    /// The winning path in the original node space.
    pub path_nodes: Vec<NodeId>,
    /// Probability of the most reliable path after adding `chosen`.
    pub prob: f64,
    /// Probability of the most reliable path in the unmodified graph
    /// (0 when `t` is unreachable from `s`).
    pub baseline_prob: f64,
}

const NO_RED: u32 = u32::MAX;

#[derive(PartialEq)]
struct Entry {
    weight: f64,
    vnode: u32,
}

impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .weight
            .partial_cmp(&self.weight)
            .expect("weights never NaN")
            .then_with(|| other.vnode.cmp(&self.vnode))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Solve Problem 2: maximize the probability of the most reliable `s-t`
/// path by adding at most `k` of the given candidate edges.
///
/// `candidates` are `(src, dst, prob)` triples; for undirected base graphs
/// each candidate is usable in both directions. Runtime is one Dijkstra
/// over `(k+1)·n` virtual nodes and `(k+1)·m + k·|candidates|` arcs, i.e.
/// polynomial as Theorem 3 requires.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_paths::improve_most_reliable_path;
///
/// // s -0.9-> a   and a candidate a -> t with zeta = 0.8.
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
/// let sol = improve_most_reliable_path(
///     &g, NodeId(0), NodeId(2), 1,
///     &[(NodeId(1), NodeId(2), 0.8)],
/// );
/// assert_eq!(sol.chosen, vec![0]);
/// assert!((sol.prob - 0.72).abs() < 1e-12);
/// assert_eq!(sol.baseline_prob, 0.0);
/// ```
pub fn improve_most_reliable_path<G: ProbGraph>(
    g: &G,
    s: NodeId,
    t: NodeId,
    k: usize,
    candidates: &[(NodeId, NodeId, f64)],
) -> MrpImprovement {
    let n = g.num_nodes();
    let layers = k + 1;
    let nv = layers * n;
    // Build the layered adjacency once: (target_vnode, weight, red_idx).
    let mut adj: Vec<Vec<(u32, f64, u32)>> = vec![Vec::new(); nv];
    for v in 0..n as u32 {
        for a in g.out_arcs(NodeId(v)) {
            if a.prob > 0.0 {
                let w = neg_log(a.prob);
                for layer in 0..layers {
                    let from = (layer * n) as u32 + v;
                    let to = (layer * n) as u32 + a.node.0;
                    adj[from as usize].push((to, w, NO_RED));
                }
            }
        }
    }
    for (j, &(u, v, p)) in candidates.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        let w = neg_log(p);
        for layer in 0..k {
            let from = (layer * n) as u32 + u.0;
            let to = ((layer + 1) * n) as u32 + v.0;
            adj[from as usize].push((to, w, j as u32));
            if !g.is_directed() {
                let from_rev = (layer * n) as u32 + v.0;
                let to_rev = ((layer + 1) * n) as u32 + u.0;
                adj[from_rev as usize].push((to_rev, w, j as u32));
            }
        }
    }
    // Dijkstra from s in layer 0.
    let mut dist = vec![f64::INFINITY; nv];
    let mut parent: Vec<Option<(u32, u32)>> = vec![None; nv];
    let mut done = vec![false; nv];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(Entry {
        weight: 0.0,
        vnode: s.0,
    });
    while let Some(Entry { weight, vnode }) = heap.pop() {
        if done[vnode as usize] {
            continue;
        }
        done[vnode as usize] = true;
        for &(to, w, red) in &adj[vnode as usize] {
            if done[to as usize] {
                continue;
            }
            let nw = weight + w;
            if nw < dist[to as usize] {
                dist[to as usize] = nw;
                parent[to as usize] = Some((vnode, red));
                heap.push(Entry {
                    weight: nw,
                    vnode: to,
                });
            }
        }
    }
    let baseline_prob = if dist[t.index()].is_finite() {
        (-dist[t.index()]).exp()
    } else {
        0.0
    };
    // Best t copy across all layers.
    let mut best_layer = 0usize;
    for layer in 1..layers {
        let d = dist[layer * n + t.index()];
        if d < dist[best_layer * n + t.index()] {
            best_layer = layer;
        }
    }
    let best_d = dist[best_layer * n + t.index()];
    if !best_d.is_finite() {
        return MrpImprovement {
            chosen: Vec::new(),
            path_nodes: Vec::new(),
            prob: 0.0,
            baseline_prob,
        };
    }
    // Reconstruct the winning path.
    let mut path_nodes = Vec::new();
    let mut chosen = Vec::new();
    let mut cur = (best_layer * n) as u32 + t.0;
    path_nodes.push(NodeId(cur % n as u32));
    while let Some((prev, red)) = parent[cur as usize] {
        if red != NO_RED {
            chosen.push(red as usize);
        }
        path_nodes.push(NodeId(prev % n as u32));
        cur = prev;
    }
    path_nodes.reverse();
    chosen.reverse();
    chosen.dedup();
    debug_assert!(chosen.len() <= k);
    MrpImprovement {
        chosen,
        path_nodes,
        prob: (-best_d).exp(),
        baseline_prob,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_reliable_path;
    use relmax_ugraph::{ExtraEdge, GraphView, UncertainGraph};

    /// Figure 3 of the paper: undirected edges A—B and A—t, both with
    /// probability `alpha`; candidates sA, sB, Bt with probability `zeta`.
    fn fig3(alpha: f64) -> (UncertainGraph, [(NodeId, NodeId, f64); 3]) {
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(a, b, alpha).unwrap();
        g.add_edge(a, t, alpha).unwrap();
        (g, [(s, a, 0.0), (s, b, 0.0), (b, t, 0.0)])
    }

    fn fig3_candidates(zeta: f64) -> [(NodeId, NodeId, f64); 3] {
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        [(s, a, zeta), (s, b, zeta), (b, t, zeta)]
    }

    #[test]
    fn fig3_k1_chooses_sa() {
        // Paper: "If budget k = 1, {sA} is always the optimal solution."
        for &(alpha, zeta) in &[(0.5, 0.7), (0.5, 0.3), (0.9, 0.7)] {
            let (g, _) = fig3(alpha);
            let cands = fig3_candidates(zeta);
            let sol = improve_most_reliable_path(&g, NodeId(0), NodeId(3), 1, &cands);
            assert_eq!(sol.chosen, vec![0], "alpha={alpha} zeta={zeta}");
            assert!((sol.prob - alpha * zeta).abs() < 1e-12);
            assert_eq!(sol.baseline_prob, 0.0);
        }
    }

    #[test]
    fn fig3_k2_chooses_direct_two_red_path_when_zeta_high() {
        let (g, _) = fig3(0.5);
        let cands = fig3_candidates(0.7);
        let sol = improve_most_reliable_path(&g, NodeId(0), NodeId(3), 2, &cands);
        let mut chosen = sol.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![1, 2]); // {sB, Bt}: path prob 0.49
        assert!((sol.prob - 0.49).abs() < 1e-12);
    }

    #[test]
    fn fig3_k2_sticks_with_single_edge_when_alpha_high() {
        // alpha = 0.9, zeta = 0.7: path s-A-t via {sA} has prob 0.63 > 0.49,
        // so the MRP solution uses only one of the two allowed edges.
        let (g, _) = fig3(0.9);
        let cands = fig3_candidates(0.7);
        let sol = improve_most_reliable_path(&g, NodeId(0), NodeId(3), 2, &cands);
        assert_eq!(sol.chosen, vec![0]);
        assert!((sol.prob - 0.63).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_over_candidate_subsets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..25 {
            let n = rng.gen_range(4..8);
            let directed = rng.gen_bool(0.5);
            let mut g = UncertainGraph::new(n, directed);
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && (directed || u < v) && rng.gen_bool(0.35) {
                        let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.1..1.0));
                    }
                }
            }
            // Candidates: a few random missing pairs.
            let mut cands = Vec::new();
            for _ in 0..5 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v && !g.has_edge(NodeId(u), NodeId(v)) {
                    cands.push((NodeId(u), NodeId(v), rng.gen_range(0.1..1.0)));
                }
            }
            let (s, t) = (NodeId(0), NodeId(n as u32 - 1));
            let k = 2;
            let sol = improve_most_reliable_path(&g, s, t, k, &cands);
            // Brute force over all subsets of size <= k.
            let mut best = 0.0f64;
            let csize = cands.len();
            for mask in 0u32..(1 << csize) {
                if (mask.count_ones() as usize) > k {
                    continue;
                }
                let extra: Vec<ExtraEdge> = (0..csize)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| ExtraEdge {
                        src: cands[i].0,
                        dst: cands[i].1,
                        prob: cands[i].2,
                    })
                    .collect();
                let view = GraphView::new(&g, extra);
                if let Some(p) = most_reliable_path(&view, s, t) {
                    best = best.max(p.prob);
                }
            }
            assert!(
                (sol.prob - best).abs() < 1e-9,
                "trial {trial}: layered={} brute={best}",
                sol.prob
            );
        }
    }

    #[test]
    fn no_candidates_returns_baseline() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let sol = improve_most_reliable_path(&g, NodeId(0), NodeId(2), 3, &[]);
        assert!(sol.chosen.is_empty());
        assert!((sol.prob - 0.3).abs() < 1e-12);
        assert!((sol.baseline_prob - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unreachable_even_with_candidates() {
        let g = UncertainGraph::new(4, true);
        let sol =
            improve_most_reliable_path(&g, NodeId(0), NodeId(3), 1, &[(NodeId(1), NodeId(2), 0.9)]);
        assert!(sol.chosen.is_empty());
        assert_eq!(sol.prob, 0.0);
        assert_eq!(sol.baseline_prob, 0.0);
    }

    #[test]
    fn zero_probability_candidates_ignored() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let sol =
            improve_most_reliable_path(&g, NodeId(0), NodeId(2), 2, &[(NodeId(1), NodeId(2), 0.0)]);
        assert_eq!(sol.prob, 0.0);
        assert!(sol.chosen.is_empty());
    }

    #[test]
    fn path_nodes_traverse_selected_edges() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let sol = improve_most_reliable_path(
            &g,
            NodeId(0),
            NodeId(3),
            2,
            &[(NodeId(1), NodeId(2), 0.8), (NodeId(2), NodeId(3), 0.7)],
        );
        let mut chosen = sol.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1]);
        assert_eq!(
            sol.path_nodes,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert!((sol.prob - 0.9 * 0.8 * 0.7).abs() < 1e-12);
    }
}
