//! Exhaustive search `ES` (Table 11): try every `C(|cand|, k)` subset.
//!
//! Feasible only when the candidate space is physically constrained — the
//! paper runs it on the 54-mote Intel Lab network with `k = 3` and
//! ≤ 15 m links. A combination budget guards against accidental
//! explosions; exceeding it is an error, not a silent truncation.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::{CsrGraph, GraphView};

/// Exhaustive subset search.
#[derive(Debug, Clone, Copy)]
pub struct ExactSelector {
    /// Maximum number of subsets to evaluate before refusing.
    pub max_combinations: u64,
}

impl Default for ExactSelector {
    fn default() -> Self {
        ExactSelector {
            max_combinations: 2_000_000,
        }
    }
}

fn n_choose_k(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

impl EdgeSelector for ExactSelector {
    fn name(&self) -> &'static str {
        "ES"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let k = query.k.min(candidates.len());
        if k == 0 {
            return Ok(finish_outcome_budgeted(g, query, Vec::new(), est, budget));
        }
        let combos = n_choose_k(candidates.len() as u64, k as u64);
        if combos > self.max_combinations {
            return Err(SelectError::TooManyCombinations {
                candidates: candidates.len(),
                k,
            });
        }
        // Iterate k-subsets in lexicographic order with an index vector.
        let mut idx: Vec<usize> = (0..k).collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        loop {
            let extra: Vec<CandidateEdge> = idx.iter().map(|&i| candidates[i]).collect();
            let view = GraphView::new(g, extra);
            let r = est.st_estimate(&view, query.s, query.t, budget).value;
            if best.as_ref().is_none_or(|(br, _)| r > *br) {
                best = Some((r, idx.clone()));
            }
            // Advance the combination.
            let mut i = k;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if idx[i] != i + candidates.len() - k {
                    idx[i] += 1;
                    for j in (i + 1)..k {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    let (_, chosen) = best.expect("at least one subset evaluated");
                    let added = chosen.into_iter().map(|i| candidates[i]).collect();
                    return Ok(finish_outcome_budgeted(g, query, added, est, budget));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::ExactEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn finds_the_true_optimum() {
        // Figure 3 example, alpha = 0.5, zeta = 0.7, k = 2: Table 2 says
        // the optimum is {sB, Bt} with reliability 0.543.
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(a, b, 0.5).unwrap();
        g.add_edge(a, t, 0.5).unwrap();
        let q = StQuery::new(s, t, 2, 0.7);
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
        let out = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut chosen: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 2), (2, 3)]); // {sB, Bt}
        assert!(
            (out.new_reliability - 0.543).abs() < 1e-3,
            "{}",
            out.new_reliability
        );
    }

    #[test]
    fn table2_row2_low_zeta_flips_the_optimum() {
        // alpha = 0.5, zeta = 0.3: optimum becomes {sA, sB} with 0.203.
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(a, b, 0.5).unwrap();
        g.add_edge(a, t, 0.5).unwrap();
        let q = StQuery::new(s, t, 2, 0.3);
        let cands = [
            CandidateEdge {
                src: s,
                dst: a,
                prob: 0.3,
            },
            CandidateEdge {
                src: s,
                dst: b,
                prob: 0.3,
            },
            CandidateEdge {
                src: b,
                dst: t,
                prob: 0.3,
            },
        ];
        let est = ExactEstimator::new();
        let out = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut chosen: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 1), (0, 2)]); // {sA, sB}
        assert!((out.new_reliability - 0.203).abs() < 1e-3);
    }

    #[test]
    fn refuses_explosions() {
        let g = UncertainGraph::new(40, true);
        let q = StQuery::new(NodeId(0), NodeId(1), 10, 0.5);
        let cands: Vec<CandidateEdge> = (2..38)
            .map(|i| CandidateEdge {
                src: NodeId(0),
                dst: NodeId(i),
                prob: 0.5,
            })
            .collect();
        let est = ExactEstimator::new();
        let sel = ExactSelector {
            max_combinations: 1000,
        };
        assert!(matches!(
            sel.select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget()),
            Err(SelectError::TooManyCombinations { .. })
        ));
    }

    #[test]
    fn k_larger_than_candidates_takes_all() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 5, 0.5);
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.5,
        }];
        let est = ExactEstimator::new();
        let out = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1);
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(n_choose_k(5, 2), 10);
        assert_eq!(n_choose_k(10, 0), 1);
        assert_eq!(n_choose_k(3, 5), 0);
        assert_eq!(n_choose_k(54, 3), 24_804);
    }
}
