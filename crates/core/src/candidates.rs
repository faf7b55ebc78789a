//! Candidate-edge generation, including the `h`-hop physical constraint.

use relmax_ugraph::fxhash::FxHashSet;
use relmax_ugraph::traverse::within_hops;
use relmax_ugraph::{NodeId, ProbGraph};

/// A missing edge that may be added: re-export of the overlay edge type so
/// candidate lists plug directly into [`relmax_ugraph::GraphView`].
pub type CandidateEdge = relmax_ugraph::ExtraEdge;

/// Generators for candidate-edge sets.
///
/// The paper's generalized problem allows *any* missing pair (`O(n²)` of
/// them); its practical variants restrict to pairs within `h` hops
/// (§2.1 Remarks) and, after search-space elimination, to pairs from
/// `C(s) × C(t)` (Algorithm 4).
pub struct CandidateSpace;

impl CandidateSpace {
    /// Every missing pair `(u, v)` with `u ≠ v`, subject to the optional
    /// `h`-hop constraint, each with probability `zeta`.
    ///
    /// For undirected graphs each unordered pair appears once. This is the
    /// paper's unreduced search space — quadratic; intended for small
    /// graphs and for the "without elimination" ablations (Table 4).
    pub fn all_missing<G: ProbGraph>(g: &G, zeta: f64, h: Option<u32>) -> Vec<CandidateEdge> {
        let n = g.num_nodes() as u32;
        let mut out = Vec::new();
        for u in 0..n {
            let lo = if g.is_directed() { 0 } else { u + 1 };
            let vs: Vec<NodeId> = (lo..n).map(NodeId).collect();
            out.extend(Self::missing_from(g, NodeId(u), &vs, zeta, h));
        }
        out
    }

    /// Candidate edges from `cs × ct` (Algorithm 4, line 3): pairs
    /// `(u, v)` with `u ∈ cs`, `v ∈ ct`, `u ≠ v`, `(u, v) ∉ E`, subject to
    /// the `h`-hop constraint; probability `zeta`.
    pub fn from_node_sets<G: ProbGraph>(
        g: &G,
        cs: &[NodeId],
        ct: &[NodeId],
        zeta: f64,
        h: Option<u32>,
    ) -> Vec<CandidateEdge> {
        let mut out = Vec::new();
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        for &u in cs {
            for c in Self::missing_from(g, u, ct, zeta, h) {
                let (a, b) = (c.src.0, c.dst.0);
                let key = if g.is_directed() || a <= b {
                    (a, b)
                } else {
                    (b, a)
                };
                if seen.insert(key) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// The pairs `(u, v)`, `v ∈ vs` in order, that are not `u` itself, not
    /// an existing edge (an out-arc of `u`, which for undirected graphs
    /// covers both orientations) and within `h` hops of `u`.
    fn missing_from<G: ProbGraph>(
        g: &G,
        u: NodeId,
        vs: &[NodeId],
        zeta: f64,
        h: Option<u32>,
    ) -> Vec<CandidateEdge> {
        let adjacent: FxHashSet<u32> = g.out_arcs(u).map(|a| a.node.0).collect();
        let allowed: Option<FxHashSet<u32>> =
            h.map(|hops| within_hops(g, u, hops).into_iter().map(|v| v.0).collect());
        vs.iter()
            .filter(|&&v| {
                v != u
                    && !adjacent.contains(&v.0)
                    && allowed.as_ref().is_none_or(|set| set.contains(&v.0))
            })
            .map(|&v| CandidateEdge {
                src: u,
                dst: v,
                prob: zeta,
            })
            .collect()
    }

    /// Remap candidate probabilities with a per-pair function (Table 16:
    /// user-provided probabilities for missing edges instead of a fixed
    /// `ζ`).
    pub fn with_probs(
        mut cands: Vec<CandidateEdge>,
        mut f: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Vec<CandidateEdge> {
        for c in &mut cands {
            c.prob = f(c.src, c.dst).clamp(0.0, 1.0);
        }
        cands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::UncertainGraph;

    fn path4() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g
    }

    #[test]
    fn all_missing_undirected_counts() {
        let g = path4();
        // C(4,2) = 6 pairs, 3 existing -> 3 missing.
        let cands = CandidateSpace::all_missing(&g, 0.5, None);
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|c| c.prob == 0.5));
        assert!(cands.iter().all(|c| !g.has_edge(c.src, c.dst)));
    }

    #[test]
    fn hop_constraint_prunes_remote_pairs() {
        let g = path4();
        // h = 2: (0,2), (1,3) allowed; (0,3) is 3 hops -> excluded.
        let cands = CandidateSpace::all_missing(&g, 0.5, Some(2));
        assert_eq!(cands.len(), 2);
        assert!(!cands
            .iter()
            .any(|c| (c.src, c.dst) == (NodeId(0), NodeId(3))));
    }

    #[test]
    fn directed_considers_both_orientations() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let cands = CandidateSpace::all_missing(&g, 0.3, None);
        // 6 ordered pairs - 1 existing = 5.
        assert_eq!(cands.len(), 5);
    }

    #[test]
    fn node_set_candidates_deduplicate() {
        let g = path4();
        let cs = [NodeId(0), NodeId(1), NodeId(3)];
        let ct = [NodeId(1), NodeId(3), NodeId(0)];
        let cands = CandidateSpace::from_node_sets(&g, &cs, &ct, 0.5, None);
        // Missing pairs within {0,1,3}: (0,3) and (1,3) — each once despite
        // appearing in both orders of the cross product.
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn node_set_respects_hops() {
        let g = path4();
        let cands = CandidateSpace::from_node_sets(&g, &[NodeId(0)], &[NodeId(3)], 0.5, Some(2));
        assert!(cands.is_empty());
        let cands2 = CandidateSpace::from_node_sets(&g, &[NodeId(0)], &[NodeId(3)], 0.5, Some(3));
        assert_eq!(cands2.len(), 1);
    }

    #[test]
    fn with_probs_remaps() {
        let g = path4();
        let cands = CandidateSpace::all_missing(&g, 0.5, None);
        let mapped = CandidateSpace::with_probs(cands, |u, v| (u.0 + v.0) as f64 / 10.0);
        assert!(mapped
            .iter()
            .all(|c| c.prob == (c.src.0 + c.dst.0) as f64 / 10.0));
    }
}
