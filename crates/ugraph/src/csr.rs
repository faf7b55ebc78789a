//! Immutable CSR (compressed sparse row) snapshot of an uncertain graph.
//!
//! Mutation-friendly adjacency (`Vec<Vec<…>>`) is the right shape while a
//! graph is being built or overlaid, but it is the wrong shape for the
//! estimator hot path: every Monte Carlo sample walks adjacency lists, and
//! per-node heap indirection plus an edge-table lookup per arc costs more
//! than the coin flip it feeds. [`CsrGraph`] is the freeze-to-snapshot
//! answer: one pass over any [`ProbGraph`] lays every neighborhood out as
//! contiguous `(target, probability, coin)` triples in three parallel flat
//! arrays, prefix-indexed by node.
//!
//! Two properties matter beyond locality:
//!
//! - **Coin ids are preserved verbatim.** The arc labeled coin `c` in the
//!   source graph is labeled coin `c` in the snapshot, so seed-keyed coin
//!   flips (common random numbers) — and therefore whole estimates — are
//!   bit-identical whether a sampler walks the original adjacency or the
//!   frozen snapshot. Tests in `relmax-sampling` assert this.
//! - **Adjacency order is preserved.** Traversal-order-sensitive code
//!   (RSS stratum choice, conditioning branch choice) behaves identically
//!   on both layouts.
//!
//! Overlay evaluation composes instead of re-freezing: freeze the base
//! graph once, then layer candidate edges with
//! [`crate::GraphView::new`]`(&csr, extra)` — the overlay adds a handful of
//! bucket lookups on top of the flat-array walk.

use crate::graph::{NodeId, UncertainGraph};
use crate::{flip_threshold, Arc, CoinId, FlipArc, ProbGraph};
use relmax_store::Block;
use std::borrow::Cow;
use std::fmt;

/// An immutable flat-array snapshot of an uncertain graph.
///
/// Built with [`CsrGraph::freeze`]; see the module docs for why. For
/// undirected sources the (symmetric) out-arrays serve both directions.
///
/// ```
/// use relmax_ugraph::{CsrGraph, NodeId, ProbGraph, UncertainGraph};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// let csr = CsrGraph::freeze(&g);
/// assert_eq!(csr.num_nodes(), 3);
/// assert_eq!(csr.num_coins(), 2);
/// let arcs: Vec<_> = csr.out_arcs(NodeId(1)).collect();
/// assert_eq!(arcs, vec![(NodeId(2), 0.8, 1)]);
/// ```
/// Every column is a [`Block`]: owned on the heap after a `freeze`, or
/// borrowed zero-copy from a mapped `.rgs` v3 snapshot (see
/// `snapshot::map_full`). `Block` derefs to `&[T]`, so the sampling
/// kernels compile to the same loads either way.
#[derive(Clone, PartialEq)]
pub struct CsrGraph {
    pub(crate) directed: bool,
    pub(crate) num_nodes: usize,
    /// `out_off[v]..out_off[v + 1]` indexes `v`'s slice of the arc arrays.
    pub(crate) out_off: Block<u32>,
    pub(crate) out_dst: Block<u32>,
    pub(crate) out_prob: Block<f64>,
    pub(crate) out_coin: Block<u32>,
    /// Per-arc integer flip thresholds (see [`flip_threshold`]).
    pub(crate) out_thresh: Block<u64>,
    /// Reverse CSR; empty for undirected graphs (out arrays are symmetric).
    pub(crate) in_off: Block<u32>,
    pub(crate) in_dst: Block<u32>,
    pub(crate) in_prob: Block<f64>,
    pub(crate) in_coin: Block<u32>,
    pub(crate) in_thresh: Block<u64>,
    /// Coin-indexed probability table (`coin_prob[c] = p(c)`).
    pub(crate) coin_prob: Block<f64>,
    /// Coin-indexed source endpoints (`coin_src[c]` = src of coin `c`).
    /// Split into two parallel `u32` columns (rather than `(u32, u32)`
    /// pairs) so each is a fixed-width primitive array that can be
    /// borrowed directly from a mapped file.
    pub(crate) coin_src: Block<u32>,
    pub(crate) coin_dst: Block<u32>,
}

impl CsrGraph {
    /// Snapshot any [`ProbGraph`] into CSR form.
    ///
    /// One `O(n + m)` pass; coin ids and per-node adjacency order are
    /// preserved exactly (see the module docs).
    pub fn freeze<G: ProbGraph>(g: &G) -> CsrGraph {
        let n = g.num_nodes();
        let m = g.num_coins();
        let directed = g.is_directed();

        let mut coin_prob = vec![0.0f64; m];
        let mut coin_src = vec![0u32; m];
        let mut coin_dst = vec![0u32; m];
        for c in 0..m as CoinId {
            coin_prob[c as usize] = g.coin_prob(c);
            let (s, d) = g.coin_endpoints(c);
            coin_src[c as usize] = s.0;
            coin_dst[c as usize] = d.0;
        }

        let (out_off, out_dst, out_prob, out_coin) = build_side(n, |v| g.out_arcs(v));
        let (in_off, in_dst, in_prob, in_coin) = if directed {
            build_side(n, |v| g.in_arcs(v))
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };

        let out_thresh: Vec<u64> = out_prob.iter().map(|&p| flip_threshold(p)).collect();
        let in_thresh: Vec<u64> = in_prob.iter().map(|&p| flip_threshold(p)).collect();
        CsrGraph {
            directed,
            num_nodes: n,
            out_off: out_off.into(),
            out_dst: out_dst.into(),
            out_prob: out_prob.into(),
            out_coin: out_coin.into(),
            out_thresh: out_thresh.into(),
            in_off: in_off.into(),
            in_dst: in_dst.into(),
            in_prob: in_prob.into(),
            in_coin: in_coin.into(),
            in_thresh: in_thresh.into(),
            coin_prob: coin_prob.into(),
            coin_src: coin_src.into(),
            coin_dst: coin_dst.into(),
        }
    }

    /// Number of stored out-arcs (each undirected edge appears twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_dst.len()
    }

    /// Out-degree of `v` (incident degree if undirected).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.out_off[i + 1] - self.out_off[i]) as usize
    }

    /// The out-neighborhood of `v` as parallel slices
    /// `(targets, probabilities, coins)` — the rawest possible view for
    /// hand-tuned kernels; [`ProbGraph::out_arcs`] compiles to the same
    /// loads.
    #[inline]
    pub fn out_slices(&self, v: NodeId) -> (&[u32], &[f64], &[u32]) {
        let (lo, hi) = self.range(&self.out_off, v);
        (
            &self.out_dst[lo..hi],
            &self.out_prob[lo..hi],
            &self.out_coin[lo..hi],
        )
    }

    /// The out-neighborhood of `v` in world-sampling form:
    /// `(targets, thresholds, coins)` parallel slices.
    #[inline]
    pub fn out_flip_slices(&self, v: NodeId) -> (&[u32], &[u64], &[u32]) {
        let (lo, hi) = self.range(&self.out_off, v);
        (
            &self.out_dst[lo..hi],
            &self.out_thresh[lo..hi],
            &self.out_coin[lo..hi],
        )
    }

    /// The in-neighborhood of `v` as parallel slices (aliases the
    /// out-neighborhood for undirected graphs).
    #[inline]
    pub fn in_slices(&self, v: NodeId) -> (&[u32], &[f64], &[u32]) {
        if !self.directed {
            return self.out_slices(v);
        }
        let (lo, hi) = self.range(&self.in_off, v);
        (
            &self.in_dst[lo..hi],
            &self.in_prob[lo..hi],
            &self.in_coin[lo..hi],
        )
    }

    #[inline]
    fn range(&self, off: &[u32], v: NodeId) -> (usize, usize) {
        let i = v.index();
        (off[i] as usize, off[i + 1] as usize)
    }

    /// Rebuild a mutable [`UncertainGraph`] from this snapshot.
    ///
    /// Every coin-table entry is re-inserted as a live edge, in coin-id
    /// order, which is insertion order for any graph that was built
    /// through [`UncertainGraph::add_edge`] — so for such graphs the
    /// thawed graph is *exactly* the original: same coin ids, same
    /// per-node adjacency order, and therefore bit-identical estimates.
    /// `freeze(thaw(csr)) == csr` holds for every snapshot it accepts.
    ///
    /// A retired coin (an edge deleted or re-probed through a
    /// [`crate::DeltaOverlay`] before `compact`) keeps its table entry
    /// without arcs, and no `UncertainGraph` can keep a coin id without
    /// its edge, so such snapshots fail with
    /// [`crate::GraphError::RetiredCoin`]. Read them directly; selection
    /// does (see [`AsCsr`]). Also fails if the coin table cannot form a
    /// valid graph (duplicate ordered pairs or self-loops).
    ///
    /// ```
    /// use relmax_ugraph::{NodeId, UncertainGraph};
    ///
    /// let mut g = UncertainGraph::new(3, true);
    /// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    /// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
    /// let csr = g.freeze();
    /// let thawed = csr.thaw().unwrap();
    /// assert_eq!(thawed.num_edges(), 2);
    /// assert!(thawed.freeze() == csr);
    /// ```
    pub fn thaw(&self) -> Result<UncertainGraph, crate::GraphError> {
        let m = self.coin_prob.len();
        let mut live = vec![false; m];
        for &c in self.out_coin.iter() {
            live[c as usize] = true;
        }
        if let Some(coin) = live.iter().position(|&l| !l) {
            return Err(crate::GraphError::RetiredCoin { coin: coin as u32 });
        }
        let mut g = UncertainGraph::with_capacity(self.num_nodes, self.directed, m);
        for c in 0..m {
            g.add_edge(
                NodeId(self.coin_src[c]),
                NodeId(self.coin_dst[c]),
                self.coin_prob[c],
            )?;
        }
        Ok(g)
    }

    /// Exact resident *heap* bytes of the snapshot arrays. Columns
    /// borrowed from a mapped snapshot contribute zero here — their pages
    /// are demand-paged file cache, shared across clones, and accounted
    /// by the mapping (the whole point of the zero-copy path).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.out_off.heap_bytes()
            + self.out_dst.heap_bytes()
            + self.out_prob.heap_bytes()
            + self.out_coin.heap_bytes()
            + self.out_thresh.heap_bytes()
            + self.in_off.heap_bytes()
            + self.in_dst.heap_bytes()
            + self.in_prob.heap_bytes()
            + self.in_coin.heap_bytes()
            + self.in_thresh.heap_bytes()
            + self.coin_prob.heap_bytes()
            + self.coin_src.heap_bytes()
            + self.coin_dst.heap_bytes()
    }

    /// True when the CSR/coin columns are borrowed from a mapped snapshot
    /// (the zero-copy load path) rather than owned on the heap.
    pub fn is_zero_copy(&self) -> bool {
        self.out_dst.is_mapped()
    }
}

/// Build one CSR side (offsets + three parallel arc arrays) from a
/// per-node arc iterator, preserving iteration order.
fn build_side<'g, I>(
    n: usize,
    arcs_of: impl Fn(NodeId) -> I,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, Vec<u32>)
where
    I: Iterator<Item = Arc> + 'g,
{
    let mut off = Vec::with_capacity(n + 1);
    let mut dst: Vec<u32> = Vec::new();
    let mut prob: Vec<f64> = Vec::new();
    let mut coin: Vec<u32> = Vec::new();
    off.push(0);
    for v in 0..n as u32 {
        for (u, p, c) in arcs_of(NodeId(v)) {
            dst.push(u.0);
            prob.push(p);
            coin.push(c);
        }
        assert!(
            dst.len() <= u32::MAX as usize,
            "graph exceeds u32 arc capacity"
        );
        off.push(dst.len() as u32);
    }
    (off, dst, prob, coin)
}

/// Arc iterator over one CSR neighborhood: a lockstep walk of three
/// contiguous slices.
pub struct CsrArcs<'a> {
    dst: &'a [u32],
    prob: &'a [f64],
    coin: &'a [u32],
    i: usize,
}

impl Iterator for CsrArcs<'_> {
    type Item = Arc;

    #[inline]
    fn next(&mut self) -> Option<Arc> {
        let i = self.i;
        if i < self.dst.len() {
            self.i = i + 1;
            Some((NodeId(self.dst[i]), self.prob[i], self.coin[i]))
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dst.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CsrArcs<'_> {}

/// World-sampling iterator over one CSR neighborhood: a lockstep walk of
/// the target/threshold/coin arrays (thresholds precomputed at freeze).
pub struct CsrFlips<'a> {
    dst: &'a [u32],
    thresh: &'a [u64],
    coin: &'a [u32],
    i: usize,
}

impl Iterator for CsrFlips<'_> {
    type Item = FlipArc;

    #[inline]
    fn next(&mut self) -> Option<FlipArc> {
        let i = self.i;
        if i < self.dst.len() {
            self.i = i + 1;
            Some((NodeId(self.dst[i]), self.thresh[i], self.coin[i]))
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dst.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CsrFlips<'_> {}

impl ProbGraph for CsrGraph {
    type OutArcs<'a> = CsrArcs<'a>;
    type InArcs<'a> = CsrArcs<'a>;
    type FlipArcs<'a> = CsrFlips<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn num_coins(&self) -> usize {
        self.coin_prob.len()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn out_arcs(&self, v: NodeId) -> CsrArcs<'_> {
        let (dst, prob, coin) = self.out_slices(v);
        CsrArcs {
            dst,
            prob,
            coin,
            i: 0,
        }
    }

    #[inline]
    fn in_arcs(&self, v: NodeId) -> CsrArcs<'_> {
        let (dst, prob, coin) = self.in_slices(v);
        CsrArcs {
            dst,
            prob,
            coin,
            i: 0,
        }
    }

    #[inline]
    fn out_flips(&self, v: NodeId) -> CsrFlips<'_> {
        let (lo, hi) = self.range(&self.out_off, v);
        CsrFlips {
            dst: &self.out_dst[lo..hi],
            thresh: &self.out_thresh[lo..hi],
            coin: &self.out_coin[lo..hi],
            i: 0,
        }
    }

    #[inline]
    fn in_flips(&self, v: NodeId) -> CsrFlips<'_> {
        if !self.directed {
            return self.out_flips(v);
        }
        let (lo, hi) = self.range(&self.in_off, v);
        CsrFlips {
            dst: &self.in_dst[lo..hi],
            thresh: &self.in_thresh[lo..hi],
            coin: &self.in_coin[lo..hi],
            i: 0,
        }
    }

    #[inline]
    fn coin_prob(&self, c: CoinId) -> f64 {
        self.coin_prob[c as usize]
    }

    #[inline]
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        (
            NodeId(self.coin_src[c as usize]),
            NodeId(self.coin_dst[c as usize]),
        )
    }
}

/// A graph that can be read as a [`CsrGraph`] snapshot: a snapshot lends
/// itself, an [`UncertainGraph`] freezes once.
///
/// Entry points that run on a snapshot (edge selection, search-space
/// elimination) take `&impl AsCsr`, convert once, and pass the borrowed
/// snapshot down — so a caller holding a loaded `.rgs` never copies it,
/// and a caller holding a mutable graph pays one freeze per call.
///
/// ```
/// use relmax_ugraph::{AsCsr, NodeId, UncertainGraph};
/// use std::borrow::Cow;
///
/// let mut g = UncertainGraph::new(2, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// let csr = g.freeze();
/// assert!(matches!(csr.as_csr(), Cow::Borrowed(_)));
/// assert!(g.as_csr().as_ref() == &csr);
/// ```
pub trait AsCsr {
    /// This graph as a snapshot, borrowed when it already is one.
    fn as_csr(&self) -> Cow<'_, CsrGraph>;
}

impl AsCsr for CsrGraph {
    fn as_csr(&self) -> Cow<'_, CsrGraph> {
        Cow::Borrowed(self)
    }
}

impl AsCsr for UncertainGraph {
    fn as_csr(&self) -> Cow<'_, CsrGraph> {
        Cow::Owned(CsrGraph::freeze(self))
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("directed", &self.directed)
            .field("nodes", &self.num_nodes)
            .field("coins", &self.coin_prob.len())
            .field("arcs", &self.num_arcs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{ExtraEdge, GraphView};

    fn diamond() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        g
    }

    /// Every (node, arc-list) pair must match between a graph and its
    /// snapshot, in order.
    fn assert_same_arcs<A: ProbGraph, B: ProbGraph>(a: &A, b: &B) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_coins(), b.num_coins());
        assert_eq!(a.is_directed(), b.is_directed());
        for v in 0..a.num_nodes() as u32 {
            let av: Vec<_> = a.out_arcs(NodeId(v)).collect();
            let bv: Vec<_> = b.out_arcs(NodeId(v)).collect();
            assert_eq!(av, bv, "out-arcs of node {v} differ");
            let ai: Vec<_> = a.in_arcs(NodeId(v)).collect();
            let bi: Vec<_> = b.in_arcs(NodeId(v)).collect();
            assert_eq!(ai, bi, "in-arcs of node {v} differ");
        }
        for c in 0..a.num_coins() as CoinId {
            assert_eq!(a.coin_prob(c), b.coin_prob(c));
            assert_eq!(a.coin_endpoints(c), b.coin_endpoints(c));
        }
    }

    #[test]
    fn freeze_preserves_directed_graph_exactly() {
        let g = diamond();
        let csr = g.freeze();
        assert_same_arcs(&g, &csr);
        assert_eq!(csr.num_arcs(), 4);
        assert_eq!(csr.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn freeze_preserves_undirected_graph_exactly() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        let csr = g.freeze();
        assert_same_arcs(&g, &csr);
        // Undirected: each edge mirrored into both endpoints, single coin.
        assert_eq!(csr.num_arcs(), 4);
        assert_eq!(csr.num_coins(), 2);
    }

    #[test]
    fn freeze_of_overlay_extends_coin_space() {
        let g = diamond();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.9,
            }],
        );
        let csr = CsrGraph::freeze(&view);
        assert_same_arcs(&view, &csr);
        assert_eq!(csr.num_coins(), 5);
        assert_eq!(csr.coin_prob(4), 0.9);
        assert_eq!(csr.coin_endpoints(4), (NodeId(0), NodeId(3)));
    }

    #[test]
    fn overlay_over_snapshot_matches_overlay_over_source() {
        let g = diamond();
        let csr = g.freeze();
        let extra = vec![ExtraEdge {
            src: NodeId(3),
            dst: NodeId(0),
            prob: 0.25,
        }];
        let over_graph = GraphView::new(&g, extra.clone());
        let over_csr = GraphView::new(&csr, extra);
        assert_same_arcs(&over_graph, &over_csr);
    }

    #[test]
    fn slices_align_with_arcs() {
        let g = diamond();
        let csr = g.freeze();
        let (dst, prob, coin) = csr.out_slices(NodeId(0));
        assert_eq!(dst, &[1, 2]);
        assert_eq!(prob, &[0.5, 0.6]);
        assert_eq!(coin, &[0, 1]);
        let (idst, _, icoin) = csr.in_slices(NodeId(3));
        assert_eq!(idst, &[1, 2]);
        assert_eq!(icoin, &[2, 3]);
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g = UncertainGraph::new(5, true);
        let csr = g.freeze();
        assert_eq!(csr.num_arcs(), 0);
        for v in 0..5u32 {
            assert_eq!(csr.out_arcs(NodeId(v)).count(), 0);
            assert_eq!(csr.in_arcs(NodeId(v)).count(), 0);
        }
    }

    #[test]
    fn resident_bytes_scale_with_arcs() {
        let small = diamond().freeze();
        let mut big = UncertainGraph::new(200, true);
        for i in 0..199u32 {
            big.add_edge(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        assert!(big.freeze().resident_bytes() > small.resident_bytes());
    }
}
