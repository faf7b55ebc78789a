//! Individual top-`k` baseline (§3.1): score every candidate edge by the
//! reliability gain of adding *it alone*, take the `k` best.
//!
//! `O(|cand| · Z · (n + m))` — one estimator call per candidate. Its known
//! failure mode (the paper's "shortcoming 2"): once one edge is added the
//! marginal value of others changes, which individual scoring ignores; BE
//! exploits exactly those interactions.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_with_solo_estimates, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::CsrGraph;

/// The individual top-`k` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndividualTopKSelector;

impl EdgeSelector for IndividualTopKSelector {
    fn name(&self) -> &'static str {
        "TopK"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        // The scan walks each sampled world once for all candidates and
        // hands back scores in candidate order (thread-count-independent).
        let base = est.st_estimate(g, query.s, query.t, budget).value;
        let scores = est.scan_estimates(g, query.s, query.t, candidates, budget);
        let mut scored: Vec<(f64, usize)> =
            scores.iter().map(|r| r.value - base).zip(0..).collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("gains never NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
        let (added, added_estimates): (Vec<CandidateEdge>, Vec<_>) = scored
            .iter()
            .take(query.k)
            .map(|&(_, i)| (candidates[i], scores[i]))
            .unzip();
        // The scan already judged every candidate alone on the base
        // snapshot — exactly the solo estimates the outcome surfaces, so
        // no second scan pass is needed.
        Ok(finish_outcome_with_solo_estimates(
            g,
            query,
            added,
            added_estimates,
            est,
            budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn picks_the_obviously_best_edges() {
        // s -> a (0.9), a -> t missing; s -> b (0.1), b -> t missing.
        // The a->t candidate individually gains far more.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.1).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(3), 1, 0.8);
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.8,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.8,
            },
        ];
        let est = McEstimator::new(4000, 1);
        let out = IndividualTopKSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1);
        assert_eq!(out.added[0].src, NodeId(1));
        assert!(out.gain() > 0.5);
    }

    #[test]
    fn respects_budget_and_candidate_shortage() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 5, 0.5);
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.5,
        }];
        let est = McEstimator::new(1000, 2);
        let out = IndividualTopKSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1); // only one candidate exists
    }

    #[test]
    fn empty_candidates_graceful() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(1), 3, 0.5);
        let est = McEstimator::new(500, 3);
        let out = IndividualTopKSelector
            .select_with_candidates_budgeted(&g, &q, &[], &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
        assert!((out.gain()).abs() < 1e-9);
    }
}
