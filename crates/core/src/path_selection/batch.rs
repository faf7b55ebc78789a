//! Path-batch-based edge selection ("BE", §5.2.2 + Algorithm 6) — the
//! paper's best method.
//!
//! Three observations motivate batching over Algorithm 5's individual
//! paths: different paths can share candidate edges; one path's candidate
//! set can subsume another's; and paths differ in how many new edges they
//! cost. So: group the top-`l` paths into *batches* by their candidate-edge
//! label (Algorithm 6), then greedily include the batch with the best
//! reliability gain **normalized per newly added edge**, activating for
//! free every batch whose label is already covered. Example 3 of the paper
//! (Figure 4) is reproduced verbatim in the tests below.
//!
//! The greedy loop (`select_batches`) takes its objective as a closure, so
//! the multi-pair Average aggregate (§6.1, [`crate::multi`]) runs the same
//! loop over its pooled paths.

use crate::candidates::CandidateEdge;
use crate::path_selection::{labeled_paths, LabeledPath, SubgraphEval};
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::fxhash::{FxHashMap, FxHashSet};
use relmax_ugraph::CsrGraph;

/// The proposed method: batch-edge selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchEdgeSelector;

/// A batch: all top-`l` paths sharing one candidate-edge label.
struct Batch<'p> {
    label: Vec<usize>,
    paths: Vec<&'p LabeledPath>,
}

/// Algorithm 6: group paths by label. The empty-label batch (existing-edge
/// paths) is returned separately.
fn build_batches(paths: &[LabeledPath]) -> (Vec<&LabeledPath>, Vec<Batch<'_>>) {
    let mut free = Vec::new();
    let mut by_label: FxHashMap<&[usize], Vec<&LabeledPath>> = FxHashMap::default();
    for p in paths {
        if p.label.is_empty() {
            free.push(p);
        } else {
            by_label.entry(&p.label).or_default().push(p);
        }
    }
    let mut batches: Vec<Batch<'_>> = by_label
        .into_iter()
        .map(|(label, paths)| Batch {
            label: label.to_vec(),
            paths,
        })
        .collect();
    // Deterministic order regardless of hash iteration.
    batches.sort_by(|a, b| a.label.cmp(&b.label));
    (free, batches)
}

/// Algorithm 6 over `paths` with budget `k`: group the paths into batches
/// by label, then greedily take the batch whose `objective` gain per new
/// edge is best, until `k` edges are spent or no batch fits. The
/// objective always sees the existing-edge paths plus every batch whose
/// label the chosen edges cover, so a covered batch joins for free.
/// Returns the chosen candidate indices, sorted.
///
/// Single-pair BE maximizes `R(s, t)` on the path-induced subgraph; the
/// multi-pair Average aggregate (§6.1) maximizes the mean over `S × T`.
pub(crate) fn select_batches(
    paths: &[LabeledPath],
    k: usize,
    mut objective: impl FnMut(&[&LabeledPath]) -> f64,
) -> Vec<usize> {
    let (free, batches) = build_batches(paths);
    let covered = |e1: &FxHashSet<usize>| -> Vec<&LabeledPath> {
        let mut sel = free.clone();
        for b in &batches {
            if b.label.iter().all(|i| e1.contains(i)) {
                sel.extend(b.paths.iter().copied());
            }
        }
        sel
    };
    let mut e1: FxHashSet<usize> = FxHashSet::default();
    let mut current = objective(&covered(&e1));
    loop {
        let mut best: Option<(f64, &Batch<'_>)> = None;
        for b in &batches {
            let new_edges = b.label.iter().filter(|i| !e1.contains(i)).count();
            if new_edges == 0 || e1.len() + new_edges > k {
                continue;
            }
            let mut trial = e1.clone();
            trial.extend(b.label.iter().copied());
            // Marginal gain normalized by the number of new edges
            // (§5.2.2: "normalized by the size of its candidate set").
            let marginal = (objective(&covered(&trial)) - current) / new_edges as f64;
            if best.is_none_or(|(bm, _)| marginal > bm) {
                best = Some((marginal, b));
            }
        }
        let Some((_, b)) = best else { break };
        e1.extend(b.label.iter().copied());
        if e1.len() >= k {
            break;
        }
        current = objective(&covered(&e1));
    }
    let mut idxs: Vec<usize> = e1.into_iter().collect();
    idxs.sort_unstable();
    idxs
}

impl EdgeSelector for BatchEdgeSelector {
    fn name(&self) -> &'static str {
        "BE"
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
        let chosen = select_batches(&paths, query.k, |sel| eval.reliability(sel, est, budget));
        let added: Vec<CandidateEdge> = chosen.into_iter().map(|i| candidates[i]).collect();
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_selection::tests::fig4c;
    use crate::path_selection::IndividualPathSelector;
    use relmax_sampling::{ExactEstimator, McEstimator};
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn fig4c_be_finds_the_optimal_pair() {
        // Example 3: BE's per-edge normalization picks batch {sC, Bt}
        // (marginal 0.1538/edge), activating path sCt for free ->
        // reliability 0.3075 with edges {sC, Bt}. IP stops at 0.25.
        let (g, cands, q) = fig4c();
        let est = ExactEstimator::new();
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut chosen: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 2), (1, 3)]); // {sC, Bt}
        assert!(
            (out.new_reliability - 0.3075).abs() < 1e-9,
            "{}",
            out.new_reliability
        );
    }

    #[test]
    fn be_at_least_matches_ip_on_the_run_through() {
        let (g, cands, q) = fig4c();
        let est = ExactEstimator::new();
        let be = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let ip = IndividualPathSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(be.new_reliability >= ip.new_reliability - 1e-12);
    }

    #[test]
    fn subset_batches_activate_for_free() {
        // One 2-edge batch whose label covers a 1-edge batch: after taking
        // the big batch, the small one must be counted without spending
        // budget.
        let (g, cands, q) = fig4c();
        let est = ExactEstimator::new();
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        // Budget 2 used once: both sCBt and sCt paths live in the final
        // subgraph (reliability 0.3075 > 0.225 of sCBt alone).
        assert_eq!(out.added.len(), 2);
        assert!(out.new_reliability > 0.3);
    }

    #[test]
    fn covered_batches_count_in_trials_and_cost_nothing() {
        // Batch {0, 1} alone is worth 0.5, but taking it also covers batch
        // {0}: 0.8 over 2 edges beats {2}'s 0.35 and {0}'s 0.3. Counting
        // only the batch itself (0.25 per edge) would pick {2}, then {0}.
        let path = |label: Vec<usize>, prob: f64| LabeledPath {
            coins: Vec::new(),
            label,
            prob,
        };
        let paths = [
            path(vec![], 0.1),
            path(vec![0], 0.3),
            path(vec![2], 0.35),
            path(vec![0, 1], 0.5),
        ];
        let mut seen = Vec::new();
        let chosen = select_batches(&paths, 2, |sel| {
            seen.push(sel.len());
            sel.iter().map(|p| p.prob).sum()
        });
        assert_eq!(chosen, vec![0, 1]);
        // The free path is always in; the {0, 1} trial carries three paths.
        assert_eq!(seen, vec![1, 2, 3, 2]);
    }

    #[test]
    fn budget_one_falls_back_to_single_edge_batch() {
        let (g, cands, mut q) = fig4c();
        q.k = 1;
        let est = ExactEstimator::new();
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1);
        assert_eq!((out.added[0].src, out.added[0].dst), (NodeId(0), NodeId(2))); // sC
        assert!((out.new_reliability - 0.15).abs() < 1e-9);
    }

    #[test]
    fn works_with_sampling_estimator() {
        let (g, cands, q) = fig4c();
        let est = McEstimator::new(20_000, 11);
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut chosen: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn empty_everything_is_graceful() {
        let g = UncertainGraph::new(2, true);
        let q = StQuery::new(NodeId(0), NodeId(1), 2, 0.5);
        let est = ExactEstimator::new();
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &[], &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty());
        assert_eq!(out.new_reliability, 0.0);
    }
}
