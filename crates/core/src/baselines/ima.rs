//! IMA baseline [Corò, D'Angelo, Velaj; IJCAI 2019]: recommend links that
//! maximize the *influence spread* of the source set within the target
//! set under the Independent Cascade model.
//!
//! Greedy: `k` rounds, each adding the candidate edge with the largest
//! marginal gain in `Inf(S, T)` (Eq. 13). For a single source-target pair
//! the objective coincides with `R(s, t)` — the paper points this out when
//! explaining why IMA matches BE exactly in the 1:1 row of Table 25.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_influence::influence_spread;
use relmax_sampling::{Budget, Estimator, ParallelRuntime};
use relmax_ugraph::{CsrGraph, GraphView, NodeId};

/// Greedy IMA selection: `k` candidates maximizing IC spread from
/// `sources` into `targets`, estimated with `samples` cascades under
/// `seed`.
pub fn select_ima(
    g: &CsrGraph,
    sources: &[NodeId],
    targets: &[NodeId],
    candidates: &[CandidateEdge],
    k: usize,
    samples: usize,
    seed: u64,
) -> Vec<CandidateEdge> {
    let mut view = GraphView::empty(g);
    let mut chosen = Vec::with_capacity(k);
    let mut remaining: Vec<CandidateEdge> = candidates.to_vec();
    let mut current = influence_spread(&view, sources, Some(targets), samples, seed);
    for _ in 0..k {
        if remaining.is_empty() {
            break;
        }
        // Candidate cascades are independent simulations on single-edge
        // overlays: fan them out and read the spreads back in candidate
        // order, so the greedy pick matches the serial loop bit for bit.
        let spreads = ParallelRuntime::global().map(remaining.len(), |ci| {
            let overlay = GraphView::new(&view, vec![remaining[ci]]);
            influence_spread(&overlay, sources, Some(targets), samples, seed)
        });
        let mut best: Option<(f64, usize)> = None;
        for (ci, &spread) in spreads.iter().enumerate() {
            let gain = spread - current;
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, ci));
            }
        }
        let Some((gain, ci)) = best else { break };
        let c = remaining.swap_remove(ci);
        view.push_extra(c);
        chosen.push(c);
        current += gain;
    }
    chosen
}

/// Single-`s-t` adapter: with `S = {s}`, `T = {t}` the IC spread equals
/// `R(s, t)`, so this behaves like hill climbing with an IC estimator.
#[derive(Debug, Clone, Copy)]
pub struct ImaSelector {
    /// Cascade samples per evaluation.
    pub samples: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ImaSelector {
    fn default() -> Self {
        ImaSelector {
            samples: 500,
            seed: 0x1a2b,
        }
    }
}

impl EdgeSelector for ImaSelector {
    fn name(&self) -> &'static str {
        "IMA"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let added = select_ima(
            g,
            &[query.s],
            &[query.t],
            candidates,
            query.k,
            self.samples,
            self.seed,
        );
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn picks_the_spread_maximizing_edge() {
        // Source 0; targets {2, 3} sit behind node 1.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.9).unwrap();
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(1),
                prob: 0.9,
            }, // unlocks both
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.9,
            }, // one target
        ];
        let picked = select_ima(
            &g.freeze(),
            &[NodeId(0)],
            &[NodeId(2), NodeId(3)],
            &cands,
            1,
            2000,
            1,
        );
        assert_eq!((picked[0].src, picked[0].dst), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn respects_budget() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
        ];
        let picked = select_ima(
            &g.freeze(),
            &[NodeId(0)],
            &[NodeId(2), NodeId(3)],
            &cands,
            2,
            500,
            2,
        );
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn single_pair_adapter_tracks_reliability() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.8);
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.8,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(0),
                prob: 0.8,
            },
        ];
        let est = McEstimator::new(5000, 3);
        let out = ImaSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!((out.added[0].src, out.added[0].dst), (NodeId(1), NodeId(2)));
        assert!((out.new_reliability - 0.64).abs() < 0.03);
    }
}
