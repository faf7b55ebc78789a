//! # relmax-sampling
//!
//! Sampling-based `s-t` reliability estimation for uncertain graphs.
//!
//! Exact reliability is #P-complete, so every practical algorithm in the
//! paper runs on estimates. This crate provides the two estimators the
//! paper evaluates plus the supporting machinery:
//!
//! - [`mc::McEstimator`] — Monte Carlo sampling (Fishman 1986): sample `Z`
//!   possible worlds, report the fraction in which `t` is reachable from
//!   `s`. Worlds are instantiated *lazily* during BFS (an edge's coin is
//!   flipped only when the traversal first touches it), which is the
//!   standard `O(Z(n+m))` formulation the paper assumes (§3.1).
//! - [`rss::RssEstimator`] — Recursive Stratified Sampling (Li et al.,
//!   TKDE 2016): partition the probability space on the boundary edges of
//!   the source component, allocate samples proportionally to stratum
//!   probabilities and recurse. Same asymptotic cost as MC with markedly
//!   lower variance, hence fewer samples for the same accuracy (§5.3,
//!   Tables 6–7).
//! - [`Estimator`] — the common trait; the paper's selection algorithms are
//!   "orthogonal to the specific sampling method used", which this trait
//!   makes literal. [`exact::ExactEstimator`] adapts the conditioning
//!   solver to the same interface for tiny graphs and tests.
//! - [`convergence`] — the accuracy-budget vocabulary: [`Budget`]
//!   (fixed sample counts or `±eps at 1−delta` targets), rich
//!   [`Estimate`] results (stderr, confidence interval, samples spent),
//!   and the deterministic power-of-two-checkpoint adaptive stopping
//!   loop behind accuracy budgets — plus the paper's index-of-dispersion
//!   diagnostic (`ρ_Z = V_Z/R_Z < 0.001`) for picking `Z` per dataset.
//! - [`packed`] — the lane-packed Monte Carlo kernel: 64 sampled worlds
//!   per `u64` word, one branchless frontier fixpoint per block, folded
//!   into the same integer hit counts as the scalar BFS (bit-identical).
//! - [`scalar`] — the reference kernel: one search per sampled world,
//!   folded into every query shape's counts.
//!   `RELMAX_KERNEL=scalar` selects it; [`Kernel`] is the one place
//!   that chooses between the two kernels.
//!
//! ## Monomorphized hot path
//!
//! [`Estimator`]'s methods are generic over `G:`[`ProbGraph`], so every
//! estimator/graph pairing compiles to its own fully inlined BFS — no
//! virtual calls inside the per-world loop. The intended pattern on large
//! graphs is **freeze-then-sample**: snapshot the base graph once with
//! [`relmax_ugraph::CsrGraph::freeze`], then estimate against the snapshot
//! (and against [`relmax_ugraph::GraphView`] overlays of it when
//! evaluating candidate edges). Coin ids survive freezing, so estimates
//! are bit-identical across storage layouts for a fixed seed.
//!
//! ## Determinism and common random numbers
//!
//! All estimators are deterministic given their seed. Coin flips are keyed
//! by `(seed, sample index, coin id)` through a SplitMix64 hash
//! ([`coins::coin_flip`]), so evaluating two candidate edge sets compares
//! them on the *same* sampled worlds (common random numbers). Marginal-gain
//! comparisons — the inner loop of every greedy method — therefore see far
//! less noise than with independent streams.
//!
//! ## Parallel runtime
//!
//! [`runtime::ParallelRuntime`] is the shared sample-sharded executor:
//! estimators split worlds across `std::thread::scope` workers and the
//! selector layers split candidate evaluations the same way. Because coin
//! flips are stateless and all merges happen in a fixed order, **every
//! result is bit-identical for every thread count** — parallelism is a
//! pure performance knob. See the module docs for the contract.

#![deny(missing_docs)]

pub mod batch;
pub mod coins;
pub mod convergence;
pub mod exact;
mod kernel;
pub mod mc;
pub mod packed;
pub mod rss;
pub mod runtime;
pub mod scalar;

pub use batch::{BatchEstimate, BatchQuery};
pub use convergence::{
    converged_sample_size, dispersion_ratio, AdaptivePlan, Budget, Estimate, HopsEstimate,
};
pub use exact::ExactEstimator;
pub use kernel::Kernel;
pub use mc::McEstimator;
pub use packed::WorldBlock;
pub use rss::RssEstimator;
pub use runtime::ParallelRuntime;

use relmax_ugraph::index::RelIndex;
use relmax_ugraph::{ExtraEdge, GraphView, NodeId, ProbGraph};
use std::sync::Arc;

/// A sampling-based (or exact) reliability oracle.
///
/// Implementations must be deterministic for a fixed configuration so that
/// experiments are reproducible. Methods are generic over the graph type
/// (monomorphized; see the crate docs) — consequently this trait is not
/// object-safe, and algorithm code takes `E: Estimator` type parameters.
///
/// ## Budgets and estimates
///
/// Every query method takes an explicit [`Budget`] — a fixed world count
/// or an accuracy target with deterministic adaptive stopping (see
/// [`convergence`]) — and returns rich [`Estimate`]s carrying standard
/// errors, confidence intervals, and the worlds actually spent. Callers
/// without a budget of their own pass [`Estimator::default_budget`];
/// callers that want shape checks, batching, and index plumbing handled
/// for them use the `QueryEngine` facade in `relmax-core`.
///
/// ```
/// use relmax_sampling::{Estimator, McEstimator};
/// use relmax_ugraph::{ExtraEdge, NodeId, UncertainGraph};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
/// let csr = g.freeze();
/// let mc = McEstimator::new(20_000, 7);
/// let budget = mc.default_budget(); // 20 000 worlds
/// assert_eq!(mc.st_estimate(&csr, NodeId(0), NodeId(2), budget).value, 0.0);
/// // One shared-world scan judges every candidate edge on the same worlds.
/// let candidates = [
///     ExtraEdge { src: NodeId(1), dst: NodeId(2), prob: 0.8 },
///     ExtraEdge { src: NodeId(2), dst: NodeId(0), prob: 0.8 }, // useless direction
/// ];
/// let gains = mc.scan_estimates(&csr, NodeId(0), NodeId(2), &candidates, budget);
/// assert!((gains[0].value - 0.72).abs() < 0.01); // 0.9 * 0.8 via the new edge
/// assert_eq!(gains[1].value, 0.0);
/// ```
pub trait Estimator: Sync {
    /// The budget a caller without one of its own should pass — normally
    /// the configuration the estimator was constructed with.
    fn default_budget(&self) -> Budget;

    /// Estimate `R(s, t, G)` — the probability that `t` is reachable from
    /// `s` (Eq. 2 of the paper) — under `budget`.
    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate;

    /// Estimate `R(s, v, G)` for every node `v` simultaneously.
    ///
    /// One BFS per sampled world answers all targets, which is what makes
    /// the paper's search-space elimination (Algorithm 4) affordable.
    /// Under an accuracy budget the stopping rule is driven by the
    /// widest per-node interval.
    // "from" is the query direction (R(s, ·)), mirroring `to_estimates`
    // and the CLI's `from S` records — not a conversion constructor.
    #[allow(clippy::wrong_self_convention)]
    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate>;

    /// Estimate `R(v, t, G)` for every node `v` simultaneously (reverse
    /// reachability to `t`), under `budget`.
    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate>;

    /// Estimate the full `|S| × |T|` reliability matrix for multiple
    /// sources and targets, sharing sampled worlds across pairs.
    ///
    /// `result[i][j]` estimates `R(sources[i], targets[j])`.
    ///
    /// Because coin flips are keyed by `(seed, sample, coin)`, the worlds
    /// underlying row `i` and row `i'` are the same worlds — the default
    /// implementation inherits that sharing from
    /// [`Estimator::from_estimates`]. [`McEstimator`] overrides it with
    /// a single-pass evaluation that additionally instantiates each
    /// world's coins at most once *across all sources* (bit-identical
    /// results, less hashing, no per-source `n`-vector).
    fn pairwise_estimates<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        budget: Budget,
    ) -> Vec<Vec<Estimate>> {
        sources
            .iter()
            .map(|&s| {
                let from_s = self.from_estimates(g, s, budget);
                targets.iter().map(|&t| from_s[t.index()]).collect()
            })
            .collect()
    }

    /// Estimate `R(s, t, G + {c})` for every candidate edge `c` — the
    /// selector hot path ("candidate scan") — under `budget`.
    ///
    /// Under a [`Budget::FixedSamples`] budget, `result[i]` equals
    /// [`Estimator::st_estimate`] on a [`GraphView`] overlaying only
    /// `candidates[i]`, **bit for bit**: every candidate is judged on
    /// the same sampled worlds (the overlay coin id is `g.num_coins()`
    /// for each single-candidate overlay, so common random numbers apply
    /// across candidates too). Under an [`Budget::Accuracy`] budget the
    /// *stopping decision* is implementation-defined: the default
    /// implementation (and RSS) adapts each overlay independently, while
    /// [`McEstimator`]'s shared-world kernel draws one world stream for
    /// all candidates and lets the slowest-converging candidate gate the
    /// stop — so every candidate shares `samples_used` and easy
    /// candidates may spend more worlds than a solo query would.
    ///
    /// The default implementation evaluates the overlays independently
    /// and in parallel over [`ParallelRuntime::global`]; results are
    /// merged in candidate order, so the output is identical to a serial
    /// one-at-a-time loop at any thread count. [`McEstimator`] overrides
    /// this with a shared-world kernel that walks each sampled world once
    /// for *all* candidates instead of once per candidate.
    fn scan_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        ParallelRuntime::global().map(candidates.len(), |i| {
            let view = GraphView::new(g, vec![candidates[i]]);
            self.st_estimate(&view, s, t, budget)
        })
    }

    /// Whether this estimator answers the constrained query shapes —
    /// [`Estimator::st_within_estimate`], [`Estimator::set_estimate`],
    /// [`Estimator::expected_hops_estimate`] return `Some` exactly when
    /// this is true. Callers that cannot thread an `Option` through
    /// (batch executors, servers validating a request up front) check
    /// this instead. Top-k needs no support flag (it ranks
    /// [`Estimator::from_estimates`], which every estimator has).
    fn supports_constrained(&self) -> bool {
        false
    }

    /// Estimate the hop-bounded reliability `R_d(s, t, G)` — the
    /// probability that `t` is reachable from `s` along a path of at most
    /// `max_hops` arcs (the conditional-reliability measure of
    /// arXiv 1608.04474 with a hop cost) — under `budget`.
    ///
    /// Returns `None` when the estimator does not support hop-bounded
    /// queries (the default); callers surface that as an "unsupported
    /// query shape" error rather than silently falling back to the
    /// unbounded measure. [`McEstimator`] implements it with a strictly
    /// level-synchronous kernel, bit-identical across threads and
    /// kernels; attached indexes are bypassed except for structurally
    /// impossible pairs (condensation does not preserve hop counts).
    fn st_within_estimate<G: ProbGraph>(
        &self,
        _g: &G,
        _s: NodeId,
        _t: NodeId,
        _max_hops: u32,
        _budget: Budget,
    ) -> Option<Estimate> {
        None
    }

    /// Estimate the set reliability — the probability that *any* source
    /// reaches *any* target, optionally within `max_hops` arcs, in one
    /// shared-world pass — under `budget`.
    ///
    /// `None` (the default) means the estimator does not support set
    /// queries; see [`Estimator::st_within_estimate`] for the contract.
    fn set_estimate<G: ProbGraph>(
        &self,
        _g: &G,
        _sources: &[NodeId],
        _targets: &[NodeId],
        _max_hops: Option<u32>,
        _budget: Budget,
    ) -> Option<Estimate> {
        None
    }

    /// Estimate the expected reliable hop distance of `(s, t)`: the pair's
    /// reliability plus the mean shortest hop distance over exactly the
    /// sampled worlds that connect the pair (see [`HopsEstimate`]).
    ///
    /// `None` (the default) means the estimator does not support hop
    /// accounting; see [`Estimator::st_within_estimate`] for the contract.
    fn expected_hops_estimate<G: ProbGraph>(
        &self,
        _g: &G,
        _s: NodeId,
        _t: NodeId,
        _budget: Budget,
    ) -> Option<HopsEstimate> {
        None
    }

    /// The `k` most reliable targets from `s`, ranked deterministically:
    /// one [`Estimator::from_estimates`] pass, sorted by estimated value
    /// descending with ascending node id breaking ties (`f64::total_cmp`,
    /// so the order is total even in edge cases). `s` itself is excluded;
    /// fewer than `k` nodes yields a shorter vector. Works for every
    /// estimator, and inherits the underlying pass's determinism
    /// guarantees (including index routing, which preserves values bit
    /// for bit).
    fn topk_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        k: usize,
        budget: Budget,
    ) -> Vec<(NodeId, Estimate)> {
        let mut ranked: Vec<(NodeId, Estimate)> = self
            .from_estimates(g, s, budget)
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != s.index())
            .map(|(i, e)| (NodeId(i as u32), e))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.value
                .total_cmp(&a.1.value)
                .then_with(|| a.0.index().cmp(&b.0.index()))
        });
        ranked.truncate(k);
        ranked
    }

    /// A short human-readable name ("MC", "RSS", "exact") for reports.
    fn name(&self) -> &'static str;

    /// The answer [`Estimator::st_estimate`] would return for `(s, t)`
    /// *without sampling a single world*, if it can be decided
    /// structurally — `s == t`, or an attached reliability index proving
    /// the pair certainly / never connected. `None` means the query
    /// samples.
    ///
    /// A short-circuit answer is exactly the `Estimate` the query would
    /// return (it carries `samples_used: 0`), so a caller may answer the
    /// pair with it and skip building a sampling job; the serving layer
    /// does this on its IO threads.
    fn st_shortcircuit<G: ProbGraph>(&self, _g: &G, s: NodeId, t: NodeId) -> Option<Estimate> {
        (s == t).then(|| Estimate::exact(1.0))
    }

    /// Whether, under one [`Budget::FixedSamples`] budget,
    /// `from_estimates(g, s, budget)[t]` equals
    /// `st_estimate(g, s, t, budget)` **bit for bit** (values *and*
    /// effort fields) for every pair [`Estimator::st_shortcircuit`] does
    /// not answer. [`McEstimator`] guarantees this (both sides count the
    /// same worlds and build the same `Estimate`); RSS does not (its
    /// stratification is target-specific), so the default is `false`.
    /// No server path calls it; e2ebench's traced replay reads it.
    fn coalescable_st(&self) -> bool {
        false
    }

    /// Attach a freeze-time reliability index ([`RelIndex`]) built from
    /// the graph this estimator will be queried against.
    ///
    /// Estimators that can exploit the index route queries through it —
    /// certain-SCC condensation, cross-component 0.0 short-circuits,
    /// per-query s-t pruning — with **bit-identical estimate values** (the
    /// index only removes work whose outcome is the same in every possible
    /// world; see `relmax_ugraph::index`). The default implementation
    /// ignores the index, which is always correct: it is a pure
    /// performance layer. [`McEstimator`] overrides this; [`RssEstimator`]
    /// deliberately does not (its stratification is tied to the concrete
    /// graph structure, so rerouting would change which strata are drawn).
    ///
    /// The estimator only consults the index for graphs whose dimensions
    /// match the one it was built from — overlay views (extra candidate
    /// edges) and other graphs fall back to plain sampling automatically.
    fn with_rel_index(self, _index: Arc<RelIndex>) -> Self
    where
        Self: Sized,
    {
        self
    }

    /// A copy of this estimator with any attached [`RelIndex`] detached —
    /// the overlay hook of the delta layer.
    ///
    /// A [`relmax_ugraph::DeltaOverlay`] can share the base snapshot's
    /// dimensions (a deletion-only overlay keeps the coin count), so the
    /// dimension guard in [`Estimator::with_rel_index`] implementations is
    /// not enough to keep a stale index from engaging; engines that sample
    /// an overlay detach the index explicitly with this hook instead. The
    /// default is a plain clone, correct for estimators that never attach
    /// an index.
    fn without_rel_index(&self) -> Self
    where
        Self: Clone + Sized,
    {
        self.clone()
    }
}
