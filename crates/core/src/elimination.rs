//! Reliability-based search-space elimination (Algorithm 4, §5.1.1).
//!
//! If a node has low reliability both from `s` and to `t`, no edge
//! incident to it can raise `R(s, t)` much. Algorithm 4 therefore keeps
//! only the top-`r` nodes by reliability *from* `s` (`C(s)`) and the
//! top-`r` by reliability *to* `t` (`C(t)`), and admits candidate edges
//! only from `C(s) × C(t)` — shrinking the search space from `O(n²)` to
//! `O(r²)`. Tables 5, 17 and 18 quantify the ~99% running-time saving at
//! no accuracy loss for `r ≈ 100`.

use crate::candidates::{CandidateEdge, CandidateSpace};
use crate::query::StQuery;
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::{AsCsr, CsrGraph, NodeId};

/// Algorithm 4: compute `C(s)`, `C(t)` and the reduced candidate-edge set.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpaceElimination {
    /// Number of candidate nodes kept on each side (the paper's `r`).
    pub r: usize,
}

impl SearchSpaceElimination {
    /// Eliminator keeping `r` nodes per side.
    pub fn new(r: usize) -> Self {
        assert!(r >= 1);
        SearchSpaceElimination { r }
    }

    /// The top-`r` nodes by reliability from `s` (always containing `s`)
    /// and the top-`r` by reliability to `t` (always containing `t`),
    /// with both whole-graph sweeps spending `budget` on one snapshot.
    ///
    /// Nodes with zero estimated reliability are never kept (they cannot
    /// participate in any reliable path).
    pub fn candidate_nodes_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        est: &E,
        budget: Budget,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let csr = g.as_csr();
        (
            top_r(&csr, s, true, self.r, est, budget),
            top_r(&csr, t, false, self.r, est, budget),
        )
    }

    /// Full Algorithm 4: `C(s) × C(t)` minus existing edges, intersected
    /// with the query's `h`-hop constraint, each with probability `ζ`,
    /// under `budget` — all on one snapshot of `g`.
    pub fn candidate_edges_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &StQuery,
        est: &E,
        budget: Budget,
    ) -> Vec<CandidateEdge> {
        let csr = g.as_csr();
        let (cs, ct) = self.candidate_nodes_budgeted(&*csr, query.s, query.t, est, budget);
        CandidateSpace::from_node_sets(&*csr, &cs, &ct, query.zeta, query.h)
    }
}

/// One endpoint's side of Algorithm 4: the `r` nodes most reliable from
/// `v` (`forward`) or to `v`, by one whole-graph sweep under `budget`,
/// best first with ties by node id. `v` itself is always kept.
pub(crate) fn top_r<E: Estimator>(
    csr: &CsrGraph,
    v: NodeId,
    forward: bool,
    r: usize,
    est: &E,
    budget: Budget,
) -> Vec<NodeId> {
    let sweep = if forward {
        est.from_estimates(csr, v, budget)
    } else {
        est.to_estimates(csr, v, budget)
    };
    let score = |u: u32| sweep[u as usize].value;
    let mut order: Vec<u32> = (0..sweep.len() as u32)
        .filter(|&u| score(u) > 0.0 || u == v.0)
        .collect();
    order.sort_by(|&a, &b| {
        score(b)
            .partial_cmp(&score(a))
            .expect("reliability scores never NaN")
            .then_with(|| a.cmp(&b))
    });
    order.truncate(r);
    let mut out: Vec<NodeId> = order.into_iter().map(NodeId).collect();
    if !out.contains(&v) {
        if out.len() == r {
            out.pop();
        }
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::UncertainGraph;

    /// Two parallel 3-hop corridors s->t plus a far-off appendage that
    /// elimination should discard.
    fn corridor() -> UncertainGraph {
        let mut g = UncertainGraph::new(9, true);
        let p = 0.8;
        // corridor A: 0 -> 1 -> 2 -> 3 (t)
        g.add_edge(NodeId(0), NodeId(1), p).unwrap();
        g.add_edge(NodeId(1), NodeId(2), p).unwrap();
        g.add_edge(NodeId(2), NodeId(3), p).unwrap();
        // corridor B: 0 -> 4 -> 5 -> 3
        g.add_edge(NodeId(0), NodeId(4), p).unwrap();
        g.add_edge(NodeId(4), NodeId(5), p).unwrap();
        g.add_edge(NodeId(5), NodeId(3), p).unwrap();
        // appendage: 6 -> 7 -> 8, disconnected from the corridors
        g.add_edge(NodeId(6), NodeId(7), p).unwrap();
        g.add_edge(NodeId(7), NodeId(8), p).unwrap();
        g
    }

    #[test]
    fn candidate_nodes_contain_endpoints_and_skip_unreachable() {
        let g = corridor();
        let est = McEstimator::new(2000, 1);
        let elim = SearchSpaceElimination::new(4);
        let (cs, ct) =
            elim.candidate_nodes_budgeted(&g, NodeId(0), NodeId(3), &est, est.default_budget());
        assert!(cs.contains(&NodeId(0)));
        assert!(ct.contains(&NodeId(3)));
        assert!(cs.len() <= 4 && ct.len() <= 4);
        // The appendage nodes are unreachable from s and to t.
        for v in [NodeId(6), NodeId(7), NodeId(8)] {
            assert!(!cs.contains(&v), "{v} in C(s)");
            assert!(!ct.contains(&v), "{v} in C(t)");
        }
    }

    #[test]
    fn source_ranks_itself_highest() {
        let g = corridor();
        let est = McEstimator::new(2000, 2);
        let elim = SearchSpaceElimination::new(3);
        let (cs, _) =
            elim.candidate_nodes_budgeted(&g, NodeId(0), NodeId(3), &est, est.default_budget());
        assert_eq!(cs[0], NodeId(0)); // R(s, s) = 1
    }

    #[test]
    fn candidate_edges_avoid_existing_and_respect_zeta() {
        let g = corridor();
        let est = McEstimator::new(2000, 3);
        let q = crate::StQuery::new(NodeId(0), NodeId(3), 2, 0.6)
            .with_hop_limit(None)
            .with_r(5);
        let cands = SearchSpaceElimination::new(5).candidate_edges_budgeted(
            &g,
            &q,
            &est,
            est.default_budget(),
        );
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!g.has_edge(c.src, c.dst));
            assert_eq!(c.prob, 0.6);
        }
        // The direct s-t edge must be among the candidates (Observation 4
        // says it is always worth considering).
        assert!(cands
            .iter()
            .any(|c| c.src == NodeId(0) && c.dst == NodeId(3)));
    }

    #[test]
    fn small_r_shrinks_the_space() {
        let g = corridor();
        let est = McEstimator::new(2000, 4);
        let q_small = crate::StQuery::new(NodeId(0), NodeId(3), 2, 0.5)
            .with_hop_limit(None)
            .with_r(2);
        let q_big = crate::StQuery::new(NodeId(0), NodeId(3), 2, 0.5)
            .with_hop_limit(None)
            .with_r(6);
        let small = SearchSpaceElimination::new(2).candidate_edges_budgeted(
            &g,
            &q_small,
            &est,
            est.default_budget(),
        );
        let big = SearchSpaceElimination::new(6).candidate_edges_budgeted(
            &g,
            &q_big,
            &est,
            est.default_budget(),
        );
        assert!(
            small.len() < big.len(),
            "small={} big={}",
            small.len(),
            big.len()
        );
    }

    #[test]
    fn endpoint_forced_in_even_with_tiny_r() {
        let g = corridor();
        let est = McEstimator::new(1000, 5);
        let (cs, ct) = SearchSpaceElimination::new(1).candidate_nodes_budgeted(
            &g,
            NodeId(0),
            NodeId(3),
            &est,
            est.default_budget(),
        );
        assert_eq!(cs, vec![NodeId(0)]);
        assert_eq!(ct, vec![NodeId(3)]);
    }
}
