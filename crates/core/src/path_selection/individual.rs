//! Individual path-based edge selection ("IP", Algorithm 5, §5.2.1).
//!
//! Greedily include whole *paths* (not edges): start from the paths that
//! need no new edges, then repeatedly add the remaining top-`l` path whose
//! inclusion maximizes the reliability of the induced subgraph, skipping
//! paths whose candidate edges would blow the budget `k` (Algorithm 5
//! lines 11–16). The candidate edges of the included paths are the answer.

use crate::candidates::CandidateEdge;
use crate::path_selection::{labeled_paths, LabeledPath, SubgraphEval};
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::fxhash::FxHashSet;
use relmax_ugraph::CsrGraph;

/// Algorithm 5: individual path inclusion.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndividualPathSelector;

impl EdgeSelector for IndividualPathSelector {
    fn name(&self) -> &'static str {
        "IP"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let paths = labeled_paths(g, query, candidates);
        let eval = SubgraphEval::new(g, candidates, query);
        // P1: paths with no candidate edges (Algorithm 5 line 5).
        let mut selected: Vec<&LabeledPath> = paths.iter().filter(|p| p.label.is_empty()).collect();
        let mut remaining: Vec<&LabeledPath> =
            paths.iter().filter(|p| !p.label.is_empty()).collect();
        let mut e1: FxHashSet<usize> = FxHashSet::default();
        while e1.len() < query.k {
            // Drop paths that no longer fit the budget (lines 11-16).
            remaining.retain(|p| {
                let extra = p.label.iter().filter(|i| !e1.contains(i)).count();
                extra > 0 && e1.len() + extra <= query.k
            });
            if remaining.is_empty() {
                break;
            }
            // Line 7: the path maximizing R(s, t, P1 ∪ {P}); ties broken
            // by the path's own probability (then input order) so sampling
            // noise cannot flip the pick between equivalent paths.
            let mut best: Option<(f64, f64, usize)> = None;
            for (pi, p) in remaining.iter().enumerate() {
                let mut trial = selected.clone();
                trial.push(p);
                let r = eval.reliability(&trial, est, budget);
                if best.is_none_or(|(br, bp, _)| r > br || (r == br && p.prob > bp)) {
                    best = Some((r, p.prob, pi));
                }
            }
            let (_, _, pi) = best.expect("remaining non-empty");
            let chosen = remaining.swap_remove(pi);
            selected.push(chosen);
            e1.extend(chosen.label.iter().copied());
        }
        let mut idxs: Vec<usize> = e1.into_iter().collect();
        idxs.sort_unstable();
        let added: Vec<CandidateEdge> = idxs.into_iter().map(|i| candidates[i]).collect();
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_selection::tests::fig4c;
    use relmax_sampling::ExactEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn fig4c_ip_greedily_takes_the_strongest_path() {
        // Example 3: IP picks path sBt first (gain 0.25 beats 0.225 and
        // 0.15), exhausting the budget with {sB, Bt} -> reliability 0.25,
        // which is suboptimal. That miss is BE's whole motivation.
        let (g, cands, q) = fig4c();
        let est = ExactEstimator::new();
        let out = IndividualPathSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut chosen: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 1), (1, 3)]); // {sB, Bt}
        assert!((out.new_reliability - 0.25).abs() < 1e-9);
    }

    #[test]
    fn budget_one_takes_the_best_single_edge_path() {
        let (g, cands, mut q) = fig4c();
        q.k = 1;
        let est = ExactEstimator::new();
        let out = IndividualPathSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        // Only sCt fits in budget 1 (label {sC}); others need 2 edges.
        assert_eq!(out.added.len(), 1);
        assert_eq!((out.added[0].src, out.added[0].dst), (NodeId(0), NodeId(2)));
        assert!((out.new_reliability - 0.15).abs() < 1e-9);
    }

    #[test]
    fn keeps_free_paths_and_adds_nothing_when_k_zero() {
        let (g, cands, mut q) = fig4c();
        q.k = 0;
        let est = ExactEstimator::new();
        let out = IndividualPathSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
    }

    #[test]
    fn no_candidates_means_no_additions() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 3, 0.5);
        let est = ExactEstimator::new();
        let out = IndividualPathSelector
            .select_with_candidates_budgeted(&g, &q, &[], &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
        assert!((out.new_reliability - 0.81).abs() < 1e-9);
    }
}
