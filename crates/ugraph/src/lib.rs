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
//! graph". Traversal is exposed as slice-backed iterators of [`Arc`]
//! records ([`ProbGraph::out_arcs`] / [`ProbGraph::in_arcs`]) so that
//! estimators monomorphize over the concrete graph type and the compiler
//! inlines the whole edge-visit loop. The trait is deliberately not
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

/// One traversable arc, as every [`ProbGraph`] neighbourhood walk yields it.
///
/// Path and elimination code reads `prob` (paths are weighted by
/// `−log p`); world samplers read `thresh`, the same probability as a
/// [`flip_threshold`], against which one integer compare flips the coin.
/// Both always describe the coin `coin`: `prob == coin_prob(coin)` and
/// `thresh == flip_threshold(prob)`. Once the walk is inlined, a caller
/// that ignores a field pays no per-arc load for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// The neighbour at the far end: the head of an out-arc, the tail of
    /// an in-arc, the other endpoint of an undirected edge.
    pub node: NodeId,
    /// Existence probability of the edge.
    pub prob: f64,
    /// [`flip_threshold`] of `prob`.
    pub thresh: u64,
    /// The coin behind the edge (shared by both arcs of an undirected
    /// edge).
    pub coin: CoinId,
}

impl Arc {
    /// The arc to `node` over coin `coin` of probability `prob`, its
    /// threshold derived on the fly.
    #[inline]
    pub fn new(node: NodeId, prob: f64, coin: CoinId) -> Arc {
        let thresh = flip_threshold(prob);
        Arc {
            node,
            prob,
            thresh,
            coin,
        }
    }
}

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
///
/// The ceiling `⌈prob · 2⁵³⌉` is taken in integer arithmetic on the bits
/// of `prob`, with no floating-point rounding call, and equals
/// `(prob * 2⁵³).ceil() as u64` for every `prob` in `[0, 1]`.
#[inline]
pub fn flip_threshold(prob: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&prob));
    threshold_of_bits(prob.to_bits())
}

/// [`flip_threshold`] on the raw bits of a probability, without the
/// domain assertion: outside `[0, 1]` the result is meaningless but never
/// a panic, so a loader can check stored thresholds in the same pass that
/// checks the probabilities.
#[inline]
pub(crate) fn threshold_of_bits(bits: u64) -> u64 {
    // Branch-free, so a scan over random probabilities never mispredicts.
    // With the implicit leading 1 (absent for zero and subnormals),
    // prob · 2⁵³ = mant · 2^(exp − 1022), give or take a factor of two
    // for subnormals, which round up to 1 either way.
    let exp = (bits >> 52) & 0x7ff;
    let mant = (bits & ((1 << 52) - 1)) | (((exp != 0) as u64) << 52);
    // ⌈mant / 2^s⌉ for s = 1022 − exp: adding all-ones below bit s rounds
    // up. Past 63 bits of shift the value is a fraction in [0, 1), which
    // the sum at s = 63 rounds up just the same. Above 0.5 only 1.0
    // remains, one doubling (exp 1023).
    let s = 1022u64.saturating_sub(exp).min(63);
    ((mant + ((1 << s) - 1)) >> s) << (exp > 1022) as u64
}

/// A graph-shaped collection of probabilistic edges.
///
/// Every neighbourhood walk — a most-reliable-path search reading
/// probabilities, or a sampled world flipping coins against thresholds —
/// goes through one iterator type, [`ProbGraph::Arcs`], yielding one
/// [`Arc`] record per arc, in the same order and with the same coin ids
/// for both reads. For [`CsrGraph`] it is a zipped walk over the frozen
/// column slices (thresholds precomputed at freeze), so a caller pays only
/// for the fields it reads; [`UncertainGraph`] derives each threshold per
/// arc, and overlays and views chain or filter their base's iterator,
/// deriving thresholds on the fly for the few arcs they add. Every
/// implementor is monomorphized into its callers; none is reached through
/// a trait object. The `Sync` supertrait lets
/// samplers fan work out across threads; every implementor is plain
/// immutable data during estimation.
pub trait ProbGraph: Sync {
    /// Iterator over the arcs of one node, in either direction.
    type Arcs<'a>: Iterator<Item = Arc> + 'a
    where
        Self: 'a;

    /// Number of nodes. Node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Number of independent Bernoulli coins (logical edges).
    fn num_coins(&self) -> usize;

    /// Whether edges are directed.
    fn is_directed(&self) -> bool;

    /// Every out-arc of `v`. For undirected graphs this visits all
    /// incident edges.
    fn out_arcs(&self, v: NodeId) -> Self::Arcs<'_>;

    /// Every in-arc of `v`. For undirected graphs this is identical to
    /// [`ProbGraph::out_arcs`].
    fn in_arcs(&self, v: NodeId) -> Self::Arcs<'_>;

    /// Probability of the coin `c`.
    fn coin_prob(&self, c: CoinId) -> f64;

    /// Endpoints `(src, dst)` of the logical edge behind coin `c`.
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId);
}

#[cfg(test)]
mod tests {
    use super::flip_threshold;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The rounding-call definition the integer form must reproduce.
    fn float_form(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    #[test]
    fn integer_threshold_equals_the_float_ceiling() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut probes = vec![
            0.0,
            -0.0,
            1.0,
            next_down(1.0),
            0.5,
            next_down(0.5),
            next_up(0.5),
            f64::MIN_POSITIVE,
            next_down(f64::MIN_POSITIVE),
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
        ];
        // Exact multiples of 2^-53 (thresholds with no rounding at all)
        // and their neighbours on either side, across every scale.
        let ulp = 1.0 / (1u64 << 53) as f64;
        for k in [
            1u64,
            2,
            3,
            5,
            1 << 20,
            (1 << 52) - 1,
            1 << 52,
            (1 << 53) - 1,
        ] {
            let x = k as f64 * ulp;
            probes.extend([x, next_up(x), next_down(x)]);
        }
        // Every power of two in (0, 1], normal and subnormal, built from
        // its bits, with its neighbours.
        for e in 1..=1074u64 {
            let x = if e <= 1022 {
                f64::from_bits((1023 - e) << 52)
            } else {
                f64::from_bits(1 << (1074 - e))
            };
            assert_eq!(x, 0.5f64.powi(e as i32));
            probes.extend([x, next_up(x), next_down(x)]);
        }
        let mut rng = StdRng::seed_from_u64(0x7e5_401d);
        // A seeded sweep of 1M values in [0, 1]: uniform bit patterns (every
        // exponent, subnormals included), uniform draws (multiples of
        // 2^-53) and uniform draws off that grid.
        probes.extend((0..1_000_000).map(|i| match i % 3 {
            0 => f64::from_bits(rng.gen::<u64>() % (1.0f64.to_bits() + 1)),
            1 => rng.gen::<f64>(),
            _ => rng.gen::<f64>() / 3.0,
        }));
        for p in probes.into_iter().filter(|p| (0.0..=1.0).contains(p)) {
            assert_eq!(
                flip_threshold(p),
                float_form(p),
                "p = {p:e} ({:#x})",
                p.to_bits()
            );
        }
    }
}
