//! # relmax-ugraph
//!
//! Uncertain-graph substrate for the `relmax` workspace.
//!
//! An *uncertain graph* `G = (V, E, p)` associates every edge `e ∈ E` with an
//! independent existence probability `p(e) ∈ [0, 1]`. Under the standard
//! *possible-world semantics*, `G` induces `2^m` deterministic graphs; the
//! probability of observing world `G` is the product of `p(e)` over the edges
//! present in `G` times `1 − p(e)` over the edges absent from it (Eq. 1 of
//! the paper). The *s-t reliability* `R(s, t, G)` is the probability that `t`
//! is reachable from `s` in a random world (Eq. 2).
//!
//! This crate provides:
//!
//! - [`UncertainGraph`]: compact adjacency storage for directed and
//!   undirected uncertain graphs, with O(1) amortized edge insertion (the
//!   paper's algorithms *add* shortcut edges, so mutation is first-class);
//! - [`GraphView`]: a zero-copy overlay that presents a base graph plus a
//!   set of tentative extra edges, so selection algorithms can evaluate
//!   candidate additions without cloning the graph in their inner loop.
//!   The base can be any [`ProbGraph`] — in particular a frozen
//!   [`CsrGraph`], which is how the selectors evaluate candidates;
//! - [`csr`]: [`CsrGraph`], an immutable flat-array (CSR) snapshot built
//!   once via [`CsrGraph::freeze`]. Sampling a million worlds walks these
//!   contiguous arrays instead of pointer-chasing `Vec<Vec<…>>` adjacency;
//! - [`scratch`]: [`TraversalScratch`], an epoch-stamped visited array plus
//!   traversal stack, pooled per thread so the BFS inside every sampled
//!   world allocates nothing;
//! - [`world`]: possible-world sampling and world probabilities;
//! - [`traverse`]: probability-oblivious BFS utilities (hop distances,
//!   reachability, h-hop neighborhoods) shared by all algorithm crates;
//! - [`exact`]: two exact `s-t` reliability solvers — full-world enumeration
//!   and a much faster conditioning (factoring-style) recursion — used as
//!   ground truth in tests and as the paper's `ES` baseline (Table 11).
//!
//! The [`ProbGraph`] trait abstracts "something that looks like an uncertain
//! graph". Traversal is exposed as slice-backed iterators
//! ([`ProbGraph::out_arcs`] / [`ProbGraph::in_arcs`]) so that estimators
//! monomorphize over the concrete graph type and the compiler inlines the
//! whole edge-visit loop; the closure-based [`ProbGraph::for_each_out`] /
//! [`ProbGraph::for_each_in`] forms are kept as default methods for
//! call sites where a closure reads better. The trait is deliberately not
//! object-safe — virtual dispatch per edge visit per sampled world was the
//! single largest cost in the pre-CSR estimator stack (see
//! `BENCH_sampling.json`).
//!
//! Ingestion and persistence live here too: [`edgelist`] parses and writes
//! the text `src dst prob` format (the system's one loading path), and
//! [`snapshot`] serializes frozen [`CsrGraph`]s to the versioned binary
//! `.rgs` format so repeated query runs skip the parse + freeze entirely.

#![deny(missing_docs)]

pub mod csr;
pub mod delta;
pub mod edgelist;
pub mod error;
pub mod exact;
pub mod fxhash;
pub mod graph;
pub mod index;
pub mod scratch;
pub mod snapshot;
pub mod traverse;
pub mod view;
pub mod world;

pub use csr::{AsCsr, CsrGraph};
pub use delta::{DeltaOverlay, GraphUpdate};
pub use error::GraphError;
pub use graph::{Edge, EdgeId, NodeId, UncertainGraph};
pub use index::{IndexSection, PrunedGraph, RelIndex, StPlan, StVerdict};
pub use scratch::{with_scratch, with_scratch_pair, TraversalScratch};
pub use view::{ExtraEdge, GraphView};
pub use world::PossibleWorld;

/// Identifier of an independent Bernoulli "coin" backing one logical edge.
///
/// For an [`UncertainGraph`] the coin id of an edge equals its
/// [`EdgeId`] index. A [`GraphView`] extends the coin space: the base
/// graph's coins keep their ids, and the i-th extra edge gets coin
/// `base.num_coins() + i`. [`CsrGraph::freeze`] preserves coin ids
/// verbatim, which is what keeps seed-keyed common random numbers
/// bit-identical across storage layouts. Samplers flip each coin at most
/// once per world, which is what makes undirected edges (two adjacency
/// entries, one coin) and overlay edges sample correctly.
pub type CoinId = u32;

/// One traversable arc: `(neighbor, probability, coin)`.
pub type Arc = (NodeId, f64, CoinId);

/// One arc in world-sampling form: `(neighbor, flip threshold, coin)`.
///
/// See [`flip_threshold`] for the threshold encoding.
pub type FlipArc = (NodeId, u64, CoinId);

/// Integer threshold `T` such that a uniform 53-bit draw `k` satisfies
/// `k · 2⁻⁵³ < prob ⇔ k < T`.
///
/// `prob · 2⁵³` is computed exactly (power-of-two scaling never rounds for
/// probabilities in `[0, 1]`), so the threshold comparison is
/// **bit-identical** to comparing the `[0, 1)` float draw against `prob`.
/// Samplers draw `k` with a keyed hash and compare it against per-arc
/// thresholds, which [`CsrGraph`] precomputes at freeze time — turning the
/// per-edge-visit convert/multiply/compare into one integer compare
/// against a streamed array.
#[inline]
pub fn flip_threshold(prob: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&prob));
    (prob * (1u64 << 53) as f64).ceil() as u64
}

/// A graph-shaped collection of probabilistic edges.
///
/// Neighborhood access is iterator-based and monomorphized: every sampled
/// world runs a BFS over [`ProbGraph::out_arcs`], so the iterator types are
/// generic associated types that compile down to plain slice walks for
/// [`UncertainGraph`] and [`CsrGraph`]. The `Sync` supertrait lets samplers
/// fan work out across threads; every implementor is plain immutable data
/// during estimation.
pub trait ProbGraph: Sync {
    /// Iterator over the out-arcs of a node.
    type OutArcs<'a>: Iterator<Item = Arc> + 'a
    where
        Self: 'a;

    /// Iterator over the in-arcs of a node.
    type InArcs<'a>: Iterator<Item = Arc> + 'a
    where
        Self: 'a;

    /// Iterator over a node's arcs in world-sampling form (shared by both
    /// directions; see [`ProbGraph::out_flips`]).
    type FlipArcs<'a>: Iterator<Item = FlipArc> + 'a
    where
        Self: 'a;

    /// Number of nodes. Node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Number of independent Bernoulli coins (logical edges).
    fn num_coins(&self) -> usize;

    /// Whether edges are directed.
    fn is_directed(&self) -> bool;

    /// Every out-arc of `v` as `(neighbor, probability, coin)`.
    ///
    /// For undirected graphs this visits all incident edges.
    fn out_arcs(&self, v: NodeId) -> Self::OutArcs<'_>;

    /// Every in-arc of `v` as `(neighbor, probability, coin)`.
    ///
    /// For undirected graphs this is identical to [`ProbGraph::out_arcs`].
    fn in_arcs(&self, v: NodeId) -> Self::InArcs<'_>;

    /// Every out-arc of `v` as `(neighbor, flip threshold, coin)` — the
    /// form sampled-world traversals consume. Equivalent to mapping
    /// [`ProbGraph::out_arcs`] through [`flip_threshold`]; [`CsrGraph`]
    /// serves it from a precomputed per-arc array instead.
    fn out_flips(&self, v: NodeId) -> Self::FlipArcs<'_>;

    /// Every in-arc of `v` in world-sampling form.
    fn in_flips(&self, v: NodeId) -> Self::FlipArcs<'_>;

    /// Probability of the coin `c`.
    fn coin_prob(&self, c: CoinId) -> f64;

    /// Endpoints `(src, dst)` of the logical edge behind coin `c`.
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId);

    /// Visit every out-arc of `v` with a closure (default method over
    /// [`ProbGraph::out_arcs`]; statically dispatched and inlinable).
    #[inline]
    fn for_each_out(&self, v: NodeId, mut f: impl FnMut(NodeId, f64, CoinId)) {
        for (u, p, c) in self.out_arcs(v) {
            f(u, p, c);
        }
    }

    /// Visit every in-arc of `v` with a closure.
    #[inline]
    fn for_each_in(&self, v: NodeId, mut f: impl FnMut(NodeId, f64, CoinId)) {
        for (u, p, c) in self.in_arcs(v) {
            f(u, p, c);
        }
    }
}
