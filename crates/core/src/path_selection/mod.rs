//! Shared machinery for the proposed path-based methods (§5.2): extract
//! the top-`l` most reliable paths from the candidate-augmented graph
//! `G⁺`, label each with the candidate edges it uses, and evaluate
//! reliability on the subgraph induced by a selected path set.

pub mod batch;
pub mod individual;

pub use batch::BatchEdgeSelector;
pub use individual::IndividualPathSelector;

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use relmax_paths::top_l_reliable_paths;
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::fxhash::{FxHashMap, FxHashSet};
use relmax_ugraph::{CoinId, CsrGraph, GraphView, NodeId, ProbGraph, UncertainGraph};

/// A top-`l` path annotated with the candidate edges it traverses.
#[derive(Debug, Clone)]
pub(crate) struct LabeledPath {
    /// Coins in `G⁺` numbering (base coins, then candidates).
    pub coins: Vec<CoinId>,
    /// Sorted indices into the candidate slice used by this path — the
    /// path's *label* in Algorithm 6's terms. Empty = uses existing edges
    /// only.
    pub label: Vec<usize>,
    /// Path probability in `G⁺`.
    pub prob: f64,
}

/// Extract the top-`l` most reliable `s → t` paths in `G⁺ = G ∪
/// candidates` and label them (§5.1.2 + Algorithm 6 line 4).
pub(crate) fn labeled_paths(
    g: &CsrGraph,
    query: &StQuery,
    candidates: &[CandidateEdge],
) -> Vec<LabeledPath> {
    let view = GraphView::new(g, candidates.to_vec());
    let base_coins = g.num_coins() as CoinId;
    top_l_reliable_paths(&view, query.s, query.t, query.l)
        .into_iter()
        .map(|p| {
            let mut label: Vec<usize> = p
                .coins
                .iter()
                .filter(|&&c| c >= base_coins)
                .map(|&c| (c - base_coins) as usize)
                .collect();
            label.sort_unstable();
            label.dedup();
            LabeledPath {
                coins: p.coins,
                label,
                prob: p.prob,
            }
        })
        .collect()
}

/// Reliability evaluator over path-induced subgraphs.
///
/// `R(s, t, P₁)` in Problem 3 is the reliability of the subgraph induced
/// by the selected paths. Those subgraphs are tiny (≤ `l` short paths), so
/// re-materializing one per evaluation is cheap and keeps every method
/// estimator-agnostic.
pub(crate) struct SubgraphEval<'a> {
    g: &'a CsrGraph,
    candidates: &'a [CandidateEdge],
    s: NodeId,
    t: NodeId,
}

impl<'a> SubgraphEval<'a> {
    pub(crate) fn new(g: &'a CsrGraph, candidates: &'a [CandidateEdge], query: &StQuery) -> Self {
        SubgraphEval {
            g,
            candidates,
            s: query.s,
            t: query.t,
        }
    }

    /// Estimate `R(s, t)` on the subgraph induced by the union of the
    /// given paths' edges, under `budget`.
    pub(crate) fn reliability<E: Estimator>(
        &self,
        paths: &[&LabeledPath],
        est: &E,
        budget: Budget,
    ) -> f64 {
        let Some((sub, remap)) = build_subgraph(self.g, self.candidates, paths) else {
            return if self.s == self.t { 1.0 } else { 0.0 };
        };
        let (Some(&ms), Some(&mt)) = (remap.get(&self.s.0), remap.get(&self.t.0)) else {
            return 0.0;
        };
        est.st_estimate(&sub, NodeId(ms), NodeId(mt), budget).value
    }
}

/// Materialize the subgraph induced by a path set: the union of the paths'
/// edges with original probabilities (base edges) or candidate
/// probabilities (candidate edges), on densely relabeled nodes. Returns
/// `None` for an empty path set. The remap sends original node ids to
/// subgraph ids.
pub(crate) fn build_subgraph(
    g: &CsrGraph,
    candidates: &[CandidateEdge],
    paths: &[&LabeledPath],
) -> Option<(UncertainGraph, FxHashMap<u32, u32>)> {
    let mut coins: FxHashSet<CoinId> = FxHashSet::default();
    for p in paths {
        coins.extend(p.coins.iter().copied());
    }
    if coins.is_empty() {
        return None;
    }
    let base_coins = g.num_coins() as CoinId;
    let mut order: Vec<CoinId> = coins.into_iter().collect();
    order.sort_unstable(); // determinism
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(order.len());
    for c in order {
        let (u, v, p) = if c < base_coins {
            let (u, v) = g.coin_endpoints(c);
            (u, v, g.coin_prob(c))
        } else {
            let ce = &candidates[(c - base_coins) as usize];
            (ce.src, ce.dst, ce.prob)
        };
        edges.push((u, v, p));
    }
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    for &(u, v, _) in &edges {
        let next = remap.len() as u32;
        remap.entry(u.0).or_insert(next);
        let next = remap.len() as u32;
        remap.entry(v.0).or_insert(next);
    }
    let mut sub = UncertainGraph::with_capacity(remap.len(), g.is_directed(), edges.len());
    for (u, v, p) in edges {
        sub.add_edge(NodeId(remap[&u.0]), NodeId(remap[&v.0]), p)
            .expect("deduplicated coins produce unique edges");
    }
    Some((sub, remap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::ExactEstimator;
    use relmax_ugraph::UncertainGraph;

    /// The paper's Figure 4(c) run-through graph: blue edges C→B (0.9) and
    /// C→t (0.3); candidates s→B, s→C, B→t, all with ζ = 0.5.
    pub(crate) fn fig4c() -> (UncertainGraph, Vec<CandidateEdge>, StQuery) {
        let (s, b, c, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(c, b, 0.9).unwrap();
        g.add_edge(c, t, 0.3).unwrap();
        let cands = vec![
            CandidateEdge {
                src: s,
                dst: b,
                prob: 0.5,
            },
            CandidateEdge {
                src: s,
                dst: c,
                prob: 0.5,
            },
            CandidateEdge {
                src: b,
                dst: t,
                prob: 0.5,
            },
        ];
        let q = StQuery::new(s, t, 2, 0.5).with_hop_limit(None).with_l(5);
        (g, cands, q)
    }

    #[test]
    fn labels_identify_candidate_edges() {
        let (g, cands, q) = fig4c();
        let g = g.freeze();
        let paths = labeled_paths(&g, &q, &cands);
        // sBt (0.25), sCBt (0.225), sCt (0.15).
        assert_eq!(paths.len(), 3);
        assert!((paths[0].prob - 0.25).abs() < 1e-12);
        assert_eq!(paths[0].label, vec![0, 2]); // sB, Bt
        assert!((paths[1].prob - 0.225).abs() < 1e-12);
        assert_eq!(paths[1].label, vec![1, 2]); // sC, Bt
        assert!((paths[2].prob - 0.15).abs() < 1e-12);
        assert_eq!(paths[2].label, vec![1]); // sC
    }

    #[test]
    fn subgraph_reliability_matches_hand_computation() {
        let (g, cands, q) = fig4c();
        let g = g.freeze();
        let paths = labeled_paths(&g, &q, &cands);
        let eval = SubgraphEval::new(&g, &cands, &q);
        let est = ExactEstimator::new();
        // Paths sCBt + sCt: R = 0.5 * [1 - (1-0.3)(1-0.45)] = 0.3075.
        let r = eval.reliability(&[&paths[1], &paths[2]], &est, est.default_budget());
        assert!((r - 0.3075).abs() < 1e-9, "r={r}");
        // Path sBt alone: 0.25.
        let r2 = eval.reliability(&[&paths[0]], &est, est.default_budget());
        assert!((r2 - 0.25).abs() < 1e-9);
        // Nothing selected: 0.
        assert_eq!(eval.reliability(&[], &est, est.default_budget()), 0.0);
    }

    #[test]
    fn existing_only_paths_have_empty_labels() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.5).with_l(3);
        let cands = [CandidateEdge {
            src: NodeId(0),
            dst: NodeId(2),
            prob: 0.5,
        }];
        let paths = labeled_paths(&g.freeze(), &q, &cands);
        assert_eq!(paths.len(), 2);
        let existing: Vec<_> = paths.iter().filter(|p| p.label.is_empty()).collect();
        assert_eq!(existing.len(), 1);
        assert!((existing[0].prob - 0.64).abs() < 1e-12);
    }

    #[test]
    fn labels_count_retired_coins() {
        // A deleted edge keeps its coin, so candidate coins start after
        // every coin ever allocated, not after the live edges.
        let (mut g, cands, q) = fig4c();
        g.add_edge(NodeId(3), NodeId(0), 0.4).unwrap();
        g.delete_edge(NodeId(3), NodeId(0)).unwrap();
        assert_eq!(g.num_coins(), g.num_edges() + 1);
        let paths = labeled_paths(&g.freeze(), &q, &cands);
        let labels: Vec<_> = paths.iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels, vec![vec![0, 2], vec![1, 2], vec![1]]);
    }
}
