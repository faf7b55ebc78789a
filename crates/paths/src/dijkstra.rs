//! Dijkstra on `−log p` weights: the most reliable path (Eq. 5).

use relmax_ugraph::{CoinId, NodeId, ProbGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple `s → t` path through an uncertain graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliablePath {
    /// Node sequence, starting at `s` and ending at `t`.
    pub nodes: Vec<NodeId>,
    /// Coin ids of the traversed edges, aligned with consecutive node pairs.
    pub coins: Vec<CoinId>,
    /// Product of edge probabilities along the path, computed as
    /// `exp(−Σ −ln p)` (for a Yen path, the root's plain product times
    /// that of the spur), so it can differ from the plain product by
    /// rounding.
    pub prob: f64,
}

impl ReliablePath {
    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.coins.len()
    }

    /// Whether the path has no edges (`s == t`).
    pub fn is_empty(&self) -> bool {
        self.coins.is_empty()
    }

    /// Whether the path visits any node twice.
    pub fn is_simple(&self) -> bool {
        let mut seen: Vec<NodeId> = self.nodes.clone();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1])
    }
}

/// Min-heap entry ordered by accumulated weight.
#[derive(PartialEq)]
struct HeapEntry {
    weight: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap; smaller weight = higher priority.
        other
            .weight
            .partial_cmp(&self.weight)
            .expect("path weights are never NaN")
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The most reliable path from `s` to `t`, or `None` if every `s → t` path
/// has probability 0 (including the unreachable case, and paths whose
/// probability underflows to `0.0`).
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_paths::most_reliable_path;
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();  // direct but weak
/// g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();  // detour wins: 0.81
/// let p = most_reliable_path(&g, NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// assert!((p.prob - 0.81).abs() < 1e-12);
/// ```
pub fn most_reliable_path<G: ProbGraph>(g: &G, s: NodeId, t: NodeId) -> Option<ReliablePath> {
    most_reliable_path_filtered(g, s, t, |_| false, |_| false)
}

/// [`most_reliable_path`] with node and coin filters. A node for which
/// `node_banned` returns true is never entered; a coin for which
/// `coin_banned` returns true is never traversed. `s` itself is always
/// allowed.
pub fn most_reliable_path_filtered<G, FN, FC>(
    g: &G,
    s: NodeId,
    t: NodeId,
    node_banned: FN,
    coin_banned: FC,
) -> Option<ReliablePath>
where
    G: ProbGraph,
    FN: Fn(NodeId) -> bool,
    FC: Fn(CoinId) -> bool,
{
    Search::new(g.num_nodes()).run(g, s, t, 1.0, 0.0, |u, c| node_banned(u) || coin_banned(c))
}

/// Dijkstra state sized once for a graph and reused across searches (Yen
/// runs one search per spur node). A search resets only the nodes it
/// touched, so one that stops early costs what it explored, not `O(n)`.
pub(crate) struct Search {
    dist: Vec<f64>,
    /// Tree arc into each reached node; only read along a settled path,
    /// whose nodes were all relaxed in the current search.
    parent: Vec<(NodeId, CoinId)>,
    done: Vec<bool>,
    /// Nodes whose `dist` is finite, for the reset.
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
}

impl Search {
    /// Scratch for searches over a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> Search {
        Search {
            dist: vec![f64::INFINITY; n],
            parent: vec![(NodeId(0), 0); n],
            done: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The most reliable `s → t` path that takes no arc `(u, c)` with
    /// `blocked(u, c)`, priced as a continuation of a root of probability
    /// `root_prob`: the returned path's `prob` is `root_prob ·
    /// exp(−weight)`.
    ///
    /// The search stops, returning `None`, at the first settled weight `w`
    /// whose `root_prob · exp(−w)` is `0.0` or below `floor`. Weights
    /// settle in nondecreasing order and that expression is monotone in
    /// `w`, so every path it cuts off would have been priced the same way
    /// below the bound: the test is exact, not a heuristic.
    pub(crate) fn run<G, F>(
        &mut self,
        g: &G,
        s: NodeId,
        t: NodeId,
        root_prob: f64,
        floor: f64,
        blocked: F,
    ) -> Option<ReliablePath>
    where
        G: ProbGraph,
        F: Fn(NodeId, CoinId) -> bool,
    {
        let mut found = None;
        self.dist[s.index()] = 0.0;
        self.touched.push(s);
        self.heap.push(HeapEntry {
            weight: 0.0,
            node: s,
        });
        while let Some(HeapEntry { weight, node: v }) = self.heap.pop() {
            if self.done[v.index()] {
                continue;
            }
            let prob = root_prob * (-weight).exp();
            if prob == 0.0 || prob < floor {
                break;
            }
            self.done[v.index()] = true;
            if v == t {
                found = Some(prob);
                break;
            }
            for a in g.out_arcs(v) {
                let (u, p, c) = (a.node, a.prob, a.coin);
                if p <= 0.0 || self.done[u.index()] || blocked(u, c) {
                    continue;
                }
                let w = weight + neg_log(p);
                let d = &mut self.dist[u.index()];
                if w < *d {
                    if *d == f64::INFINITY {
                        self.touched.push(u);
                    }
                    *d = w;
                    self.parent[u.index()] = (v, c);
                    self.heap.push(HeapEntry { weight: w, node: u });
                }
            }
        }
        let path = found.map(|prob| self.trace(s, t, prob));
        for v in self.touched.drain(..) {
            self.dist[v.index()] = f64::INFINITY;
            self.done[v.index()] = false;
        }
        self.heap.clear();
        path
    }

    /// The settled `s → t` path, read back along `parent`.
    fn trace(&self, s: NodeId, t: NodeId, prob: f64) -> ReliablePath {
        let mut nodes = vec![t];
        let mut coins = Vec::new();
        let mut cur = t;
        while cur != s {
            let (prev, coin) = self.parent[cur.index()];
            coins.push(coin);
            nodes.push(prev);
            cur = prev;
        }
        nodes.reverse();
        coins.reverse();
        ReliablePath { nodes, coins, prob }
    }
}

/// `−ln p`, clamping `p = 1` to exactly 0 to keep weights non-negative.
#[inline]
pub(crate) fn neg_log(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    (-p.ln()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::{ExtraEdge, GraphView, UncertainGraph};

    fn grid() -> UncertainGraph {
        // 0 -> 1 -> 3 (0.9 * 0.9) vs 0 -> 2 -> 3 (0.99 * 0.5)
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.9).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.99).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g
    }

    #[test]
    fn picks_max_product_not_min_hops() {
        let mut g = grid();
        // Add a direct edge that is weaker than the 2-hop route.
        g.add_edge(NodeId(0), NodeId(3), 0.7).unwrap();
        let p = most_reliable_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert!((p.prob - 0.81).abs() < 1e-12);
        assert_eq!(p.len(), 2);
        assert!(p.is_simple());
    }

    #[test]
    fn unreachable_returns_none() {
        let g = UncertainGraph::new(2, true);
        assert!(most_reliable_path(&g, NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn zero_probability_edges_are_not_paths() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        assert!(most_reliable_path(&g, NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn trivial_path_when_s_equals_t() {
        let g = grid();
        let p = most_reliable_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.prob, 1.0);
        assert!(p.is_empty());
    }

    #[test]
    fn filters_exclude_nodes_and_coins() {
        let g = grid();
        // Ban node 1: must go through 2.
        let p =
            most_reliable_path_filtered(&g, NodeId(0), NodeId(3), |v| v == NodeId(1), |_| false)
                .unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(2), NodeId(3)]);
        // Ban the 0->1 coin (coin 0): same detour.
        let p2 =
            most_reliable_path_filtered(&g, NodeId(0), NodeId(3), |_| false, |c| c == 0).unwrap();
        assert_eq!(p2.nodes, vec![NodeId(0), NodeId(2), NodeId(3)]);
        // Ban everything: no path.
        let p3 = most_reliable_path_filtered(&g, NodeId(0), NodeId(3), |_| true, |_| false);
        assert!(p3.is_none());
    }

    #[test]
    fn undirected_graphs_traverse_both_ways() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(2), NodeId(1), 0.8).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 0.8).unwrap();
        let p = most_reliable_path(&g, NodeId(0), NodeId(2)).unwrap();
        assert!((p.prob - 0.64).abs() < 1e-12);
    }

    #[test]
    fn works_on_overlays() {
        let g = grid();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.95,
            }],
        );
        let p = most_reliable_path(&view, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(3)]);
        assert_eq!(p.coins, vec![4]);
        assert!((p.prob - 0.95).abs() < 1e-12);
    }

    #[test]
    fn probability_one_edges_have_zero_weight() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let p = most_reliable_path(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.prob, 1.0);
    }
}
