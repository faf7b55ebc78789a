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
        let (free, batches) = build_batches(&paths);

        let mut e1: FxHashSet<usize> = FxHashSet::default();
        let mut included: Vec<bool> = vec![false; batches.len()];
        // Current selection = free paths + every batch whose label ⊆ E1.
        let selected_paths = |e1: &FxHashSet<usize>, included: &mut [bool]| -> Vec<&LabeledPath> {
            let mut sel = free.clone();
            for (bi, b) in batches.iter().enumerate() {
                if b.label.iter().all(|i| e1.contains(i)) {
                    included[bi] = true;
                }
                if included[bi] {
                    sel.extend(b.paths.iter().copied());
                }
            }
            sel
        };
        let mut current = eval.reliability(&selected_paths(&e1, &mut included), est, budget);

        loop {
            let mut best: Option<(f64, usize)> = None;
            for (bi, b) in batches.iter().enumerate() {
                if included[bi] {
                    continue;
                }
                let new_edges: Vec<usize> = b
                    .label
                    .iter()
                    .filter(|i| !e1.contains(i))
                    .copied()
                    .collect();
                if new_edges.is_empty() || e1.len() + new_edges.len() > query.k {
                    continue;
                }
                // Trial: E1 ∪ label activates this batch plus any other
                // batch whose label becomes covered.
                let mut trial_e1 = e1.clone();
                trial_e1.extend(new_edges.iter().copied());
                let mut trial_sel = free.clone();
                for (bj, bb) in batches.iter().enumerate() {
                    if included[bj] || bb.label.iter().all(|i| trial_e1.contains(i)) {
                        trial_sel.extend(bb.paths.iter().copied());
                    }
                }
                let r = eval.reliability(&trial_sel, est, budget);
                // Marginal gain normalized by the number of new edges
                // (§5.2.2: "normalized by the size of its candidate set").
                let marginal = (r - current) / new_edges.len() as f64;
                if best.is_none_or(|(bm, _)| marginal > bm) {
                    best = Some((marginal, bi));
                }
            }
            let Some((_, bi)) = best else { break };
            e1.extend(batches[bi].label.iter().copied());
            included[bi] = true;
            current = eval.reliability(&selected_paths(&e1, &mut included), est, budget);
            if e1.len() >= query.k {
                break;
            }
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
            .select_with_candidates(&g, &q, &cands, &est)
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
            .select_with_candidates(&g, &q, &cands, &est)
            .unwrap();
        let ip = IndividualPathSelector
            .select_with_candidates(&g, &q, &cands, &est)
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
            .select_with_candidates(&g, &q, &cands, &est)
            .unwrap();
        // Budget 2 used once: both sCBt and sCt paths live in the final
        // subgraph (reliability 0.3075 > 0.225 of sCBt alone).
        assert_eq!(out.added.len(), 2);
        assert!(out.new_reliability > 0.3);
    }

    #[test]
    fn budget_one_falls_back_to_single_edge_batch() {
        let (g, cands, mut q) = fig4c();
        q.k = 1;
        let est = ExactEstimator::new();
        let out = BatchEdgeSelector
            .select_with_candidates(&g, &q, &cands, &est)
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
            .select_with_candidates(&g, &q, &cands, &est)
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
            .select_with_candidates(&g, &q, &[], &est)
            .unwrap();
        assert!(out.added.is_empty());
        assert_eq!(out.new_reliability, 0.0);
    }
}
