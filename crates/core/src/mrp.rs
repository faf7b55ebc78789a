//! The MRP method (§4): solve the restricted Problem 2 exactly and use its
//! edges as the answer to Problem 1.
//!
//! The most reliable path's probability lower-bounds `R(s, t)` and is
//! known to approximate it well, so improving the MRP optimally (layered
//! Dijkstra, Theorem 3 — see `relmax-paths`) yields a fast, decent
//! solution. Its ceiling (visible in Tables 12–13, where its gain
//! saturates immediately) is structural: a single path can only get so
//! reliable, which is what motivates the multi-path IP/BE methods.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_paths::improve_most_reliable_path;
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::CsrGraph;

/// Problem-2-exact selector ("MRP" in the tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct MrpSelector;

impl EdgeSelector for MrpSelector {
    fn name(&self) -> &'static str {
        "MRP"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let triples: Vec<_> = candidates.iter().map(|c| (c.src, c.dst, c.prob)).collect();
        let sol = improve_most_reliable_path(g, query.s, query.t, query.k, &triples);
        let added: Vec<CandidateEdge> = sol.chosen.iter().map(|&i| candidates[i]).collect();
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::ExactEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn mrp_completes_the_strongest_single_path() {
        // Figure 3, alpha = 0.5, zeta = 0.7, k = 1: MRP and the true
        // optimum agree on {sA}.
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(a, b, 0.5).unwrap();
        g.add_edge(a, t, 0.5).unwrap();
        let q = StQuery::new(s, t, 1, 0.7);
        let cands = [
            CandidateEdge {
                src: s,
                dst: a,
                prob: 0.7,
            },
            CandidateEdge {
                src: s,
                dst: b,
                prob: 0.7,
            },
            CandidateEdge {
                src: b,
                dst: t,
                prob: 0.7,
            },
        ];
        let est = ExactEstimator::new();
        let out = MrpSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1);
        assert_eq!((out.added[0].src, out.added[0].dst), (s, a));
        assert!((out.new_reliability - 0.35).abs() < 1e-9);
    }

    #[test]
    fn mrp_gain_lower_bounds_reliability_gain() {
        // The chosen path's probability can never exceed the measured
        // reliability after addition.
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(4), 0.4).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(4), 2, 0.6);
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(4),
                prob: 0.6,
            }, // duplicate-ish: exists
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.6,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(4),
                prob: 0.6,
            },
        ];
        let est = ExactEstimator::new();
        let out = MrpSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.added.len() <= 2);
        assert!(out.new_reliability >= out.base_reliability - 1e-12);
    }

    #[test]
    fn no_improvement_possible_returns_empty() {
        // Direct edge with probability 1 already: nothing can beat it.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 2, 0.5);
        let cands = [CandidateEdge {
            src: NodeId(0),
            dst: NodeId(1),
            prob: 0.5,
        }];
        let est = ExactEstimator::new();
        let out = MrpSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
        assert_eq!(out.new_reliability, 1.0);
    }
}
