//! ESSSP baseline [Parotsidis et al., WSDM 2016]: add edges minimizing the
//! sum of *expected shortest-path lengths* over all source-target pairs.
//!
//! The uncertain-graph reading of "expected shortest path" used here
//! weights each edge by `1/p(e)` — the expected number of transmission
//! attempts before the edge delivers — so a route's cost is its expected
//! total attempts. The greedy loop exploits the classic shortcut identity:
//! after precomputing `d(s, ·)` and `d(·, t)` once per round, adding a
//! candidate `(u, v)` with weight `w` changes `d(s, t)` to
//! `min(d(s,t), d(s,u) + w + d(v,t))`, making each candidate evaluation
//! `O(|S|·|T|)` instead of a fresh Dijkstra.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_sampling::{Budget, Estimator, ParallelRuntime};
use relmax_ugraph::{CsrGraph, GraphView, NodeId, ProbGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Expected-attempt weight of an edge: `1/p`, infinite for `p = 0`.
#[inline]
fn weight(p: f64) -> f64 {
    if p > 0.0 {
        1.0 / p
    } else {
        f64::INFINITY
    }
}

#[derive(PartialEq)]
struct Entry {
    d: f64,
    v: NodeId,
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .d
            .partial_cmp(&self.d)
            .expect("never NaN")
            .then_with(|| other.v.0.cmp(&self.v.0))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra distances from `start` under `1/p` weights; `reverse` follows
/// in-edges (distances *to* `start`).
fn expected_distances<G: ProbGraph>(g: &G, start: NodeId, reverse: bool) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.num_nodes()];
    let mut done = vec![false; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[start.index()] = 0.0;
    heap.push(Entry { d: 0.0, v: start });
    while let Some(Entry { d, v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        let arcs = if reverse { g.in_arcs(v) } else { g.out_arcs(v) };
        for a in arcs {
            let (u, w) = (a.node, weight(a.prob));
            if w.is_finite() && !done[u.index()] && d + w < dist[u.index()] {
                dist[u.index()] = d + w;
                heap.push(Entry { d: d + w, v: u });
            }
        }
    }
    dist
}

/// Greedy ESSSP selection: pick `k` candidates minimizing the sum of
/// expected shortest-path lengths over `sources × targets`. Pairs that
/// remain disconnected contribute a large constant, so connecting a
/// disconnected pair always beats shortening a connected one.
pub fn select_esssp(
    g: &CsrGraph,
    sources: &[NodeId],
    targets: &[NodeId],
    candidates: &[CandidateEdge],
    k: usize,
) -> Vec<CandidateEdge> {
    const DISCONNECTED: f64 = 1e9;
    let clamp = |d: f64| {
        if d.is_finite() {
            d.min(DISCONNECTED)
        } else {
            DISCONNECTED
        }
    };
    let mut view = GraphView::empty(g);
    let mut chosen: Vec<CandidateEdge> = Vec::with_capacity(k);
    let mut remaining: Vec<CandidateEdge> = candidates.to_vec();
    for _round in 0..k {
        if remaining.is_empty() {
            break;
        }
        let from_s: Vec<Vec<f64>> = sources
            .iter()
            .map(|&s| expected_distances(&view, s, false))
            .collect();
        let to_t: Vec<Vec<f64>> = targets
            .iter()
            .map(|&t| expected_distances(&view, t, true))
            .collect();
        let base: f64 = sources
            .iter()
            .enumerate()
            .flat_map(|(si, _)| targets.iter().enumerate().map(move |(ti, _)| (si, ti)))
            .map(|(si, ti)| clamp(from_s[si][targets[ti].index()]))
            .sum();
        // Shortcut evaluations are pure arithmetic over the precomputed
        // distance tables: map them across the runtime and argmax over the
        // candidate-ordered results (ties keep the earliest index, like
        // the serial loop always did). Below a few thousand float ops the
        // whole sweep is cheaper than spawning workers, so small rounds
        // stay inline — the result is identical either way.
        let ops = remaining.len() * sources.len() * targets.len();
        let runtime = if ops >= 1 << 14 {
            ParallelRuntime::global()
        } else {
            ParallelRuntime::serial()
        };
        let improvements = runtime.map(remaining.len(), |ci| {
            let c = &remaining[ci];
            let w = weight(c.prob);
            if !w.is_finite() {
                return f64::NEG_INFINITY;
            }
            let mut total = 0.0;
            for (si, _) in sources.iter().enumerate() {
                for (ti, &t) in targets.iter().enumerate() {
                    let cur = clamp(from_s[si][t.index()]);
                    let via = clamp(from_s[si][c.src.index()] + w + to_t[ti][c.dst.index()]);
                    let mut d = cur.min(via);
                    if !g.is_directed() {
                        let via_rev =
                            clamp(from_s[si][c.dst.index()] + w + to_t[ti][c.src.index()]);
                        d = d.min(via_rev);
                    }
                    total += d;
                }
            }
            base - total
        });
        let mut best: Option<(f64, usize)> = None;
        for (ci, &improvement) in improvements.iter().enumerate() {
            if improvement.is_finite() && best.is_none_or(|(bi, _)| improvement > bi) {
                best = Some((improvement, ci));
            }
        }
        let Some((_, ci)) = best else { break };
        let c = remaining.swap_remove(ci);
        view.push_extra(c);
        chosen.push(c);
    }
    chosen
}

/// Single-`s-t` adapter so ESSSP can sit in the same comparison tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct EssspSelector;

impl EdgeSelector for EssspSelector {
    fn name(&self) -> &'static str {
        "ESSSP"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let added = select_esssp(g, &[query.s], &[query.t], candidates, query.k);
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn connects_a_disconnected_pair_first() {
        // s -0.9- a    b -0.9- t ; bridging a-b connects s to t.
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.9,
            }, // bridge
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(1),
                prob: 0.9,
            }, // parallel, useless
        ];
        let picked = select_esssp(&g.freeze(), &[NodeId(0)], &[NodeId(3)], &cands, 1);
        assert_eq!(picked.len(), 1);
        assert_eq!((picked[0].src, picked[0].dst), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn prefers_high_probability_shortcuts() {
        // Path s - a - b - t with p = 0.5 each (cost 2 per hop, total 6).
        // Candidate direct s-t with p=0.5 (cost 2) vs p=0.25 (cost 4).
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.25,
            },
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
        ];
        let picked = select_esssp(&g.freeze(), &[NodeId(0)], &[NodeId(3)], &cands, 1);
        assert_eq!(picked[0].prob, 0.5);
    }

    #[test]
    fn multi_pair_objective_sums_over_pairs() {
        // Two targets; one candidate helps both (hub edge), another helps
        // only one.
        let mut g = UncertainGraph::new(5, false);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 0.9).unwrap();
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.9,
            }, // reaches 3 AND 4
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.9,
            }, // reaches only 3
        ];
        let picked = select_esssp(
            &g.freeze(),
            &[NodeId(0)],
            &[NodeId(3), NodeId(4)],
            &cands,
            1,
        );
        assert_eq!((picked[0].src, picked[0].dst), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn selector_adapter_produces_outcome() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.8);
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.8,
        }];
        let est = McEstimator::new(5000, 1);
        let out = EssspSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 1);
        assert!(out.gain() > 0.5);
    }

    #[test]
    fn zero_probability_candidates_never_picked() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.0,
        }];
        let picked = select_esssp(&g.freeze(), &[NodeId(0)], &[NodeId(2)], &cands, 1);
        assert!(picked.is_empty());
    }
}
