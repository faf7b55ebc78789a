//! Hill-climbing baseline (§3.2, Algorithm 1): `k` greedy rounds, each
//! adding the candidate with maximum *marginal* reliability gain.
//!
//! Because Problem 1 is neither submodular nor supermodular (Lemma 1) this
//! carries no approximation guarantee, but it is the strongest baseline in
//! the paper's tables — and its `O(k · |cand| · Z(n+m))` cost is exactly
//! why BE exists. Common-random-number estimation (see
//! `relmax-sampling`) keeps the argmax comparisons stable.
//!
//! Each round's candidate sweep runs through
//! [`Estimator::scan_estimates`] — the sample-sharded shared-world
//! kernel for MC, a parallel per-overlay map otherwise — and the argmax
//! reads the gains in candidate order, so the selection is bit-identical
//! to the historical serial push/pop loop at every thread count.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::{CsrGraph, GraphView};

/// Algorithm 1: greedy marginal-gain selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct HillClimbingSelector;

impl EdgeSelector for HillClimbingSelector {
    fn name(&self) -> &'static str {
        "HC"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let mut remaining: Vec<CandidateEdge> = candidates.to_vec();
        // `k · |cand|` estimator calls all walk the same base snapshot:
        // candidates are scanned as overlays on it.
        let mut view = GraphView::empty(g);
        let mut current = est.st_estimate(g, query.s, query.t, budget).value;
        let mut added = Vec::with_capacity(query.k);
        while added.len() < query.k && !remaining.is_empty() {
            // One shared-world scan evaluates every remaining candidate on
            // the current overlay; first-index tie-break keeps the argmax
            // identical to the old serial one-candidate-at-a-time loop.
            let scores = est.scan_estimates(&view, query.s, query.t, &remaining, budget);
            let mut best: Option<(f64, usize)> = None;
            for (i, r) in scores.iter().enumerate() {
                let gain = r.value - current;
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, i));
                }
            }
            let (gain, idx) = best.expect("remaining is non-empty");
            let chosen = remaining.swap_remove(idx);
            view.push_extra(chosen);
            added.push(chosen);
            current += gain;
        }
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::{ExactEstimator, McEstimator};
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn completes_a_broken_two_hop_route() {
        // s -> a exists; a -> t and s -> b, b -> t are all candidates.
        // Greedy must first take a->t (creates a path), then a second edge.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(3), 2, 0.8);
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.8,
            },
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.8,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.8,
            },
        ];
        let est = ExactEstimator::new();
        let out = HillClimbingSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 2);
        assert_eq!(out.added[0].src, NodeId(1)); // a -> t first: only positive gain
        assert!(out.gain() > 0.7);
    }

    #[test]
    fn beats_individual_topk_on_interacting_edges() {
        // Two candidate edges forming ONE new path (s->x, x->t) versus one
        // weak direct improvement. Individually, s->x and x->t each gain 0;
        // hill climbing still finds the pair because after the cold-start
        // pick it sees the completed path... but individual top-k ranks the
        // weak direct edge above both.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(3), 0.2).unwrap(); // existing weak path
        let q = StQuery::new(NodeId(0), NodeId(3), 2, 0.9);
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(1),
                prob: 0.9,
            },
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.9,
            },
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.3,
            },
        ];
        let est = ExactEstimator::new();
        let hc = HillClimbingSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        // Optimal: add both 0.9 edges -> R = 1-(1-0.2)(1-0.81) = 0.848
        assert!(hc.new_reliability > 0.84, "r={}", hc.new_reliability);
    }

    #[test]
    fn budget_zero_adds_nothing() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(1), 0, 0.5);
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(0),
            prob: 0.5,
        }];
        let est = McEstimator::new(500, 1);
        let out = HillClimbingSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
    }

    #[test]
    fn gain_is_monotone_nonnegative() {
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(4), 0.5).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(4), 2, 0.5);
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(4),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(3),
                dst: NodeId(2),
                prob: 0.5,
            },
        ];
        let est = McEstimator::new(8000, 2);
        let out = HillClimbingSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.gain() >= -0.02, "gain={}", out.gain()); // sampling noise only
    }
}
