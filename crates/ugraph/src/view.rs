//! Zero-copy graph overlay: a base graph plus tentative extra edges.

use crate::graph::{NodeId, UncertainGraph};
use crate::{Arc, CoinId, ProbGraph};

/// One tentative extra edge layered on top of a base graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtraEdge {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Existence probability (the paper's `ζ`, or a per-edge value).
    pub prob: f64,
}

/// A base [`ProbGraph`] with a small set of extra edges overlaid.
///
/// The selection algorithms in `relmax-core` repeatedly evaluate "what is the
/// reliability if we also add edges X?". Cloning a large graph per candidate
/// set would dominate the running time, so the overlay stores only the extra
/// edges plus per-node buckets for them. Coins `0..base.num_coins()` belong
/// to the base graph; coin `base.num_coins() + i` is extra edge `i`.
///
/// The base defaults to [`UncertainGraph`] but can be any [`ProbGraph`] —
/// the hot-path composition is an overlay on a frozen
/// [`crate::CsrGraph`], which keeps candidate evaluation on flat arrays
/// without re-freezing per candidate set.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, GraphView, ExtraEdge, NodeId, ProbGraph};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// let view = GraphView::new(&g, vec![ExtraEdge { src: NodeId(1), dst: NodeId(2), prob: 0.9 }]);
/// assert_eq!(view.num_coins(), 2);
/// let out: Vec<_> = view.out_arcs(NodeId(1)).map(|a| (a.node, a.prob, a.coin)).collect();
/// assert_eq!(out, vec![(NodeId(2), 0.9, 1)]);
/// ```
pub struct GraphView<'g, B: ProbGraph = UncertainGraph> {
    base: &'g B,
    extra: Buckets,
}

impl<'g, B: ProbGraph> GraphView<'g, B> {
    /// Overlay `extra` edges on `base`. Extra edges follow the base graph's
    /// directedness.
    pub fn new(base: &'g B, extra: Vec<ExtraEdge>) -> Self {
        let mut buckets = Buckets::new(base.num_nodes(), base.is_directed());
        for e in extra {
            buckets.push(e);
        }
        GraphView {
            base,
            extra: buckets,
        }
    }

    /// Overlay with no extra edges (useful as a uniform starting point).
    pub fn empty(base: &'g B) -> Self {
        GraphView::new(base, Vec::new())
    }

    /// The base graph.
    #[inline]
    pub fn base(&self) -> &B {
        self.base
    }

    /// The extra edges.
    #[inline]
    pub fn extra(&self) -> &[ExtraEdge] {
        &self.extra.edges
    }

    /// Append one more extra edge, returning its coin id.
    pub fn push_extra(&mut self, e: ExtraEdge) -> CoinId {
        self.base.num_coins() as CoinId + self.extra.push(e)
    }

    /// Remove the most recently pushed extra edge. Panics if none exist.
    pub fn pop_extra(&mut self) -> ExtraEdge {
        let last = self.extra.edges.len().checked_sub(1);
        let last = last.expect("pop_extra on empty overlay");
        self.extra.unlink(last as u32);
        self.extra.edges.pop().unwrap()
    }
}

impl GraphView<'_, UncertainGraph> {
    /// Materialize the overlay into an owned graph (used once a solution is
    /// final). Extra edges that duplicate base edges are skipped.
    pub fn materialize(&self) -> UncertainGraph {
        let mut g = self.base.clone();
        for e in self.extra() {
            // Ignore duplicates: the overlay is allowed to carry an edge the
            // base already has (e.g. when replaying a recorded solution).
            let _ = g.add_edge(e.src, e.dst, e.prob);
        }
        g
    }
}

/// Edges layered over a base graph — a [`GraphView`]'s extra edges, a
/// [`crate::DeltaOverlay`]'s appended ones — with per-node buckets of
/// their indices. Edge `i` rides coin `base coins + i`.
#[derive(Clone)]
pub(crate) struct Buckets {
    /// Every edge ever pushed, in push order; unlinked ones stay.
    pub(crate) edges: Vec<ExtraEdge>,
    /// `out[v]` = indices of linked edges whose src is `v` (or either
    /// endpoint, when undirected), in push order.
    out: Vec<Vec<u32>>,
    /// `inn[v]` = indices of linked edges whose dst is `v`; empty when
    /// undirected.
    inn: Vec<Vec<u32>>,
}

impl Buckets {
    pub(crate) fn new(n: usize, directed: bool) -> Self {
        let inn = if directed {
            vec![Vec::new(); n]
        } else {
            Vec::new()
        };
        Buckets {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            inn,
        }
    }

    /// The bucket that links an edge by its dst (`out` when undirected).
    fn dst_bucket(&mut self, dst: NodeId) -> &mut Vec<u32> {
        if self.inn.is_empty() {
            &mut self.out[dst.index()]
        } else {
            &mut self.inn[dst.index()]
        }
    }

    /// Append and link `e`, returning its index.
    pub(crate) fn push(&mut self, e: ExtraEdge) -> u32 {
        let n = self.out.len();
        debug_assert!(
            e.src.index() < n && e.dst.index() < n,
            "extra edge out of bounds"
        );
        let i = self.edges.len() as u32;
        self.out[e.src.index()].push(i);
        self.dst_bucket(e.dst).push(i);
        self.edges.push(e);
        i
    }

    /// Drop edge `i` from its buckets; its record (and coin) stays.
    pub(crate) fn unlink(&mut self, i: u32) {
        let e = self.edges[i as usize];
        let bucket = &mut self.out[e.src.index()];
        debug_assert!(bucket.contains(&i), "unlinking an unlinked edge");
        bucket.retain(|&j| j != i);
        self.dst_bucket(e.dst).retain(|&j| j != i);
    }

    /// The linked arcs of `v` (its in-arcs when `inn` and directed).
    #[inline]
    pub(crate) fn arcs(&self, v: NodeId, inn: bool, base_coins: usize) -> ExtraArcs<'_> {
        let bucket = if inn && !self.inn.is_empty() {
            &self.inn[v.index()]
        } else {
            &self.out[v.index()]
        };
        ExtraArcs {
            edges: &self.edges,
            bucket: bucket.iter(),
            v,
            base_coins: base_coins as CoinId,
        }
    }
}

/// Iterator over the overlay arcs in one node's bucket, thresholds derived
/// on the fly (overlays carry only a handful of edges).
pub struct ExtraArcs<'a> {
    edges: &'a [ExtraEdge],
    bucket: std::slice::Iter<'a, u32>,
    v: NodeId,
    base_coins: CoinId,
}

impl Iterator for ExtraArcs<'_> {
    type Item = Arc;

    #[inline]
    fn next(&mut self) -> Option<Arc> {
        self.bucket.next().map(|&i| {
            let e = &self.edges[i as usize];
            // `v` is an endpoint of every edge in its bucket, so the XOR of
            // all three is the far end.
            let node = NodeId(e.src.0 ^ e.dst.0 ^ self.v.0);
            Arc::new(node, e.prob, self.base_coins + i)
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bucket.size_hint()
    }
}

impl<B: ProbGraph> ProbGraph for GraphView<'_, B> {
    type Arcs<'a>
        = std::iter::Chain<B::Arcs<'a>, ExtraArcs<'a>>
    where
        Self: 'a;

    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn num_coins(&self) -> usize {
        self.base.num_coins() + self.extra.edges.len()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    #[inline]
    fn out_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        let extra = self.extra.arcs(v, false, self.base.num_coins());
        self.base.out_arcs(v).chain(extra)
    }

    #[inline]
    fn in_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        let extra = self.extra.arcs(v, true, self.base.num_coins());
        self.base.in_arcs(v).chain(extra)
    }

    #[inline]
    fn coin_prob(&self, c: CoinId) -> f64 {
        let m = self.base.num_coins() as CoinId;
        if c < m {
            self.base.coin_prob(c)
        } else {
            self.extra.edges[(c - m) as usize].prob
        }
    }

    #[inline]
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        let m = self.base.num_coins() as CoinId;
        if c < m {
            self.base.coin_endpoints(c)
        } else {
            let e = &self.extra.edges[(c - m) as usize];
            (e.src, e.dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g
    }

    #[test]
    fn overlay_exposes_base_and_extra() {
        let g = base();
        let view = GraphView::new(
            &g,
            vec![
                ExtraEdge {
                    src: NodeId(2),
                    dst: NodeId(3),
                    prob: 0.9,
                },
                ExtraEdge {
                    src: NodeId(0),
                    dst: NodeId(3),
                    prob: 0.1,
                },
            ],
        );
        assert_eq!(view.num_coins(), 4);
        let mut out0: Vec<_> = view
            .out_arcs(NodeId(0))
            .map(|a| (a.node.0, a.prob, a.coin))
            .collect();
        out0.sort_by_key(|a| a.2);
        assert_eq!(out0, vec![(1, 0.5, 0), (3, 0.1, 3)]);
        assert_eq!(view.coin_prob(3), 0.1);
        assert_eq!(view.coin_endpoints(2), (NodeId(2), NodeId(3)));
        // Reverse traversal sees extra edges too.
        let mut in3: Vec<_> = view
            .in_arcs(NodeId(3))
            .map(|a| (a.node.0, a.coin))
            .collect();
        in3.sort_unstable();
        assert_eq!(in3, vec![(0, 3), (2, 2)]);
    }

    #[test]
    fn push_pop_roundtrip() {
        let g = base();
        let mut view = GraphView::empty(&g);
        let coin = view.push_extra(ExtraEdge {
            src: NodeId(2),
            dst: NodeId(3),
            prob: 0.4,
        });
        assert_eq!(coin, 2);
        assert_eq!(view.num_coins(), 3);
        let popped = view.pop_extra();
        assert_eq!(popped.dst, NodeId(3));
        assert_eq!(view.num_coins(), 2);
        assert_eq!(view.out_arcs(NodeId(2)).count(), 0);
    }

    #[test]
    fn undirected_overlay_mirrors_extra_edges() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.7,
            }],
        );
        let from2: Vec<_> = view
            .out_arcs(NodeId(2))
            .map(|a| (a.node.0, a.prob, a.coin))
            .collect();
        assert_eq!(from2, vec![(1, 0.7, 1)]);
        let mut from1: Vec<_> = view.out_arcs(NodeId(1)).map(|a| a.node.0).collect();
        from1.sort_unstable();
        assert_eq!(from1, vec![0, 2]);
    }

    #[test]
    fn materialize_adds_extra_edges() {
        let g = base();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.9,
            }],
        );
        let owned = view.materialize();
        assert_eq!(owned.num_edges(), 3);
        assert!(owned.has_edge(NodeId(2), NodeId(3)));
        // Base graph untouched.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn materialize_skips_duplicates() {
        let g = base();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(0),
                dst: NodeId(1),
                prob: 0.9,
            }],
        );
        let owned = view.materialize();
        assert_eq!(owned.num_edges(), 2);
        // Base probability wins.
        assert_eq!(
            owned.prob(owned.edge_between(NodeId(0), NodeId(1)).unwrap()),
            0.5
        );
    }

    #[test]
    fn overlay_composes_over_csr_snapshots() {
        let g = base();
        let csr = g.freeze();
        let mut view = GraphView::empty(&csr);
        let coin = view.push_extra(ExtraEdge {
            src: NodeId(2),
            dst: NodeId(3),
            prob: 0.4,
        });
        assert_eq!(coin, 2);
        let out2: Vec<_> = view.out_arcs(NodeId(2)).collect();
        assert_eq!(out2, vec![Arc::new(NodeId(3), 0.4, 2)]);
        let in1: Vec<_> = view.in_arcs(NodeId(1)).collect();
        assert_eq!(in1, vec![Arc::new(NodeId(0), 0.5, 0)]);
    }
}
