//! Accuracy budgets, rich estimates, and deterministic adaptive stopping —
//! plus the paper's index-of-dispersion diagnostic (§5.3).
//!
//! This module owns the vocabulary every reliability query in the
//! workspace speaks:
//!
//! - [`Budget`] — how much sampling effort a query may spend: either a
//!   fixed world count (`FixedSamples`) or an accuracy target
//!   (`Accuracy { eps, delta, max_samples }`, "±eps at confidence
//!   1 − delta, capped at max_samples worlds");
//! - [`Estimate`] — what an estimator hands back: the point value plus
//!   its standard error, a confidence interval, and how many worlds were
//!   actually spent;
//! - [`AdaptivePlan`] / [`run_adaptive`] — the deterministic adaptive
//!   stopping loop behind `Accuracy` budgets. Convergence is checked only
//!   at **fixed power-of-two checkpoints** (64, 128, 256, …,
//!   `max_samples`), so the number of sampled worlds — and therefore the
//!   estimate, bit for bit — is independent of thread count: every
//!   checkpoint's counts merge deterministically before the stopping rule
//!   runs, and the rule is a pure function of those counts.
//!
//! ## Error envelopes
//!
//! The stopping rule and the reported confidence intervals are
//! distribution-free. For a Bernoulli proportion (Monte Carlo hit
//! counts), the half-width at confidence `1 − delta` is the smaller of
//! the Hoeffding bound `sqrt(ln(2/δ′)/2n)` and the empirical-Bernstein
//! bound `sqrt(2 v̂ ln(3/δ′)/n) + 3 ln(3/δ′)/n` with `δ′ = δ/2` each —
//! the Bernstein term is what lets low-variance queries (reliability near
//! 0 or 1) stop long before the worst-case Hoeffding sample count. For
//! stratified estimators (RSS), the Hoeffding bound generalizes over the
//! per-stratum sample weights (`sqrt(ln(2/δ) · Σ wᵢ²/zᵢ / 2)`), so
//! probability mass already *decided* during stratification tightens the
//! envelope. `delta` is split across the checkpoints of a plan (union
//! bound), keeping the guarantee valid under repeated looking.
//!
//! The paper's own convergence procedure — repeat queries across seeds
//! until the index of dispersion `ρ_Z = V_Z/R_Z` drops below 0.001 —
//! remains available as [`dispersion_ratio`] / [`converged_sample_size`].

use crate::Estimator;
use relmax_ugraph::{NodeId, ProbGraph};

/// Confidence parameter used for the intervals attached to
/// [`Budget::FixedSamples`] estimates (95% two-sided), where the caller
/// specified no `delta` of their own.
pub const DEFAULT_DELTA: f64 = 0.05;

/// Default cap on `Accuracy` budgets constructed via [`Budget::accuracy`].
pub const DEFAULT_MAX_SAMPLES: usize = 1 << 20;

/// First checkpoint of an adaptive plan: no stopping decision is taken on
/// fewer than this many worlds.
pub const MIN_ADAPTIVE_SAMPLES: usize = 64;

/// How much sampling effort a reliability query may spend.
///
/// `Budget` replaces the raw `num_samples: usize` arguments that used to
/// thread through every estimator call. A budget is either an exact world
/// count or an accuracy contract; estimators translate the latter into
/// deterministic adaptive stopping (see the module docs).
///
/// ```
/// use relmax_sampling::Budget;
///
/// let fixed = Budget::fixed(10_000);
/// assert_eq!(fixed.max_samples(), 10_000);
///
/// let acc = Budget::accuracy_capped(0.01, 0.05, 100_000);
/// assert_eq!(acc.max_samples(), 100_000);
/// assert_eq!(acc.delta(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Sample exactly this many worlds.
    FixedSamples(usize),
    /// Sample until the estimate's confidence-interval half-width is at
    /// most `eps` at confidence `1 - delta`, checking only at fixed
    /// power-of-two checkpoints, and never exceeding `max_samples` worlds.
    Accuracy {
        /// Target half-width of the confidence interval (absolute error).
        eps: f64,
        /// Permitted failure probability of the interval (e.g. 0.05 for a
        /// 95% interval).
        delta: f64,
        /// Hard cap on sampled worlds; reaching it without converging
        /// yields `stopped_early = false` and a wider-than-`eps` interval.
        max_samples: usize,
    },
}

impl Budget {
    /// A fixed-size budget of `samples` worlds (panics on 0).
    pub fn fixed(samples: usize) -> Self {
        let b = Budget::FixedSamples(samples);
        b.assert_valid();
        b
    }

    /// An accuracy budget capped at [`DEFAULT_MAX_SAMPLES`] worlds.
    pub fn accuracy(eps: f64, delta: f64) -> Self {
        Budget::accuracy_capped(eps, delta, DEFAULT_MAX_SAMPLES)
    }

    /// An accuracy budget with an explicit world cap.
    pub fn accuracy_capped(eps: f64, delta: f64, max_samples: usize) -> Self {
        let b = Budget::Accuracy {
            eps,
            delta,
            max_samples,
        };
        b.assert_valid();
        b
    }

    /// Panic if the budget's parameters are out of range. Estimators call
    /// this on entry so directly-constructed enum values are checked too.
    pub fn assert_valid(&self) {
        match *self {
            Budget::FixedSamples(n) => assert!(n > 0, "budget needs at least one sample"),
            Budget::Accuracy {
                eps,
                delta,
                max_samples,
            } => {
                assert!(
                    eps > 0.0 && eps < 1.0,
                    "accuracy eps must lie in (0, 1), got {eps}"
                );
                assert!(
                    delta > 0.0 && delta < 1.0,
                    "accuracy delta must lie in (0, 1), got {delta}"
                );
                assert!(max_samples > 0, "budget needs at least one sample");
            }
        }
    }

    /// The largest number of worlds this budget can spend.
    pub fn max_samples(&self) -> usize {
        match *self {
            Budget::FixedSamples(n) => n,
            Budget::Accuracy { max_samples, .. } => max_samples,
        }
    }

    /// The confidence parameter attached to estimates under this budget
    /// ([`DEFAULT_DELTA`] for fixed budgets).
    pub fn delta(&self) -> f64 {
        match *self {
            Budget::FixedSamples(_) => DEFAULT_DELTA,
            Budget::Accuracy { delta, .. } => delta,
        }
    }
}

/// A reliability estimate with its uncertainty: what every budgeted
/// estimator call returns instead of a bare `f64`.
///
/// The interval `[ci_low, ci_high]` holds the true reliability with
/// probability at least `1 - delta` (the budget's `delta`, or
/// [`DEFAULT_DELTA`] for fixed budgets), by the distribution-free bounds
/// described in the [module docs](self).
///
/// ```
/// use relmax_sampling::{Budget, Estimator, McEstimator};
/// use relmax_ugraph::{NodeId, UncertainGraph};
///
/// let mut g = UncertainGraph::new(2, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.3).unwrap();
/// let mc = McEstimator::new(1, 7);
/// let est = mc.st_estimate(&g.freeze(), NodeId(0), NodeId(1), Budget::fixed(10_000));
/// assert!((est.value - 0.3).abs() < 0.02);
/// assert!(est.ci_low <= est.value && est.value <= est.ci_high);
/// assert_eq!(est.samples_used, 10_000);
/// assert!(!est.stopped_early); // fixed budgets never stop early
/// assert!(est.stderr > 0.0 && est.half_width() > 0.0);
///
/// // Accuracy budgets stop as soon as the interval fits the target.
/// let est = mc.st_estimate(
///     &g.freeze(),
///     NodeId(0),
///     NodeId(1),
///     Budget::accuracy_capped(0.05, 0.05, 1 << 16),
/// );
/// assert!(est.half_width() <= 0.05);
/// assert!(est.stopped_early && est.samples_used < 1 << 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate of the reliability.
    pub value: f64,
    /// Empirical standard error of `value` (0 for exact computations).
    pub stderr: f64,
    /// Lower end of the confidence interval, clamped to `[0, 1]`.
    pub ci_low: f64,
    /// Upper end of the confidence interval, clamped to `[0, 1]`.
    pub ci_high: f64,
    /// Worlds actually sampled (0 for exact computations). For RSS this
    /// is the nominal budget `Z` that stratification distributed.
    pub samples_used: usize,
    /// Whether an `Accuracy` budget converged before `max_samples`.
    pub stopped_early: bool,
}

impl Estimate {
    /// An exact (zero-uncertainty) result, e.g. from the conditioning
    /// solver or a degenerate query (`s == t`).
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            stderr: 0.0,
            ci_low: value,
            ci_high: value,
            samples_used: 0,
            stopped_early: false,
        }
    }

    /// A provably impossible query: exactly 0.0 in every world, decided
    /// structurally with **zero sampled worlds**. `stopped_early` is set —
    /// the query stopped before its budget in the strongest possible sense.
    pub fn impossible() -> Self {
        Estimate {
            stopped_early: true,
            ..Estimate::exact(0.0)
        }
    }

    /// Bernoulli estimate from `hits` successes in `n` sampled worlds,
    /// with a `1 - delta` interval (Hoeffding ∧ empirical Bernstein).
    pub fn from_hits(hits: u64, n: u64, delta: f64, stopped_early: bool) -> Self {
        debug_assert!(n > 0);
        let nf = n as f64;
        let p = hits as f64 / nf;
        let half = bernoulli_half_width(p, n, delta);
        Estimate {
            value: p,
            stderr: (p * (1.0 - p) / nf).sqrt(),
            ci_low: (p - half).max(0.0),
            ci_high: (p + half).min(1.0),
            samples_used: n as usize,
            stopped_early,
        }
    }

    /// Stratified estimate (RSS): point value, empirical variance of the
    /// estimator, and the Hoeffding range mass `Σ wᵢ²/zᵢ` of the sampled
    /// strata (see the module docs). `nominal_z` is the budget the
    /// stratification distributed.
    pub fn from_stratified(
        value: f64,
        variance: f64,
        range_mass: f64,
        nominal_z: usize,
        delta: f64,
        stopped_early: bool,
    ) -> Self {
        let half = stratified_half_width(range_mass, delta);
        Estimate {
            value,
            stderr: variance.max(0.0).sqrt(),
            ci_low: (value - half).max(0.0),
            ci_high: (value + half).min(1.0),
            samples_used: nominal_z,
            stopped_early,
        }
    }

    /// Half the confidence interval's width.
    pub fn half_width(&self) -> f64 {
        (self.ci_high - self.ci_low) / 2.0
    }
}

/// A joint reliability + hop-distance estimate: what an expected-
/// reliable-hop-distance query returns.
///
/// `reliability` is the plain (unbounded) `s-t` reliability estimate over
/// the sampled worlds. `hop_sum` adds, over exactly the reachable sampled
/// worlds, each world's shortest hop distance from `s` to `t` — an
/// integer accumulator, so the whole struct is bit-identical across
/// threads, kernels, and shard boundaries. `expected_hops` is the derived
/// conditional mean `hop_sum / hits` (0.0 when no sampled world connects
/// the pair). The *unconditional* unbiased quantity is `hop_sum / Z`,
/// which estimates `Σ_G Pr(G) · d_G(s,t) · 1{s ⇝ t in G}` — recover it
/// as `expected_hops · reliability.value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopsEstimate {
    /// Reliability of the pair over the same sampled worlds.
    pub reliability: Estimate,
    /// Mean shortest hop distance conditioned on reachability (0.0 when
    /// `reliability.value` is 0).
    pub expected_hops: f64,
    /// Sum of shortest hop distances over the reachable sampled worlds.
    pub hop_sum: u64,
}

impl HopsEstimate {
    /// Build from the sampled moments: `hits` reachable worlds out of
    /// `n`, whose shortest-distance sum is `hop_sum`.
    pub fn from_moments(hits: u64, hop_sum: u64, n: u64, delta: f64, stopped_early: bool) -> Self {
        HopsEstimate {
            reliability: Estimate::from_hits(hits, n, delta, stopped_early),
            expected_hops: if hits > 0 {
                hop_sum as f64 / hits as f64
            } else {
                0.0
            },
            hop_sum,
        }
    }

    /// An exact zero-uncertainty result (`s == t`: reliability 1 at
    /// distance 0; impossible pairs: reliability 0 at distance 0).
    pub fn exact(reliability: Estimate) -> Self {
        HopsEstimate {
            reliability,
            expected_hops: 0.0,
            hop_sum: 0,
        }
    }
}

/// Hoeffding half-width for a mean of `n` iid `[0, 1]` draws at
/// confidence `1 - delta`: `sqrt(ln(2/δ) / 2n)`.
pub fn hoeffding_half_width(n: u64, delta: f64) -> f64 {
    ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// Empirical-Bernstein half-width (Maurer & Pontil 2009) for a mean of
/// `n` iid `[0, 1]` draws with empirical variance `variance`:
/// `sqrt(2 v̂ ln(3/δ)/n) + 3 ln(3/δ)/n`. Far tighter than Hoeffding when
/// the variance is small (reliability near 0 or 1).
pub fn bernstein_half_width(variance: f64, n: u64, delta: f64) -> f64 {
    let nf = n as f64;
    let log_term = (3.0 / delta).ln();
    (2.0 * variance.max(0.0) * log_term / nf).sqrt() + 3.0 * log_term / nf
}

/// Half-width for a Bernoulli proportion `p̂` over `n` worlds at
/// confidence `1 - delta`: the tighter of Hoeffding and empirical
/// Bernstein, each run at `δ/2` so the pair is still a `1 - delta` bound.
pub fn bernoulli_half_width(p_hat: f64, n: u64, delta: f64) -> f64 {
    let h = hoeffding_half_width(n, delta / 2.0);
    let b = bernstein_half_width(p_hat * (1.0 - p_hat), n, delta / 2.0);
    h.min(b)
}

/// Hoeffding half-width for a stratified estimator whose sampled strata
/// contribute range mass `Σ wᵢ²/zᵢ` (weight `wᵢ`, budget `zᵢ` each):
/// `sqrt(ln(2/δ) · Σ wᵢ²/zᵢ / 2)`. Reduces to [`hoeffding_half_width`]
/// for the single stratum `w = 1, z = n`.
pub fn stratified_half_width(range_mass: f64, delta: f64) -> f64 {
    ((2.0 / delta).ln() * range_mass.max(0.0) / 2.0).sqrt()
}

/// The deterministic schedule behind an [`Budget::Accuracy`] budget:
/// power-of-two checkpoints and the per-checkpoint confidence share.
///
/// Checkpoints double from [`MIN_ADAPTIVE_SAMPLES`] up to `max_samples`
/// (always included as the last entry). `delta` is split evenly across
/// the checkpoints — a union bound — so stopping at *any* checkpoint
/// keeps the overall interval valid at confidence `1 - delta`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePlan {
    /// Target half-width.
    pub eps: f64,
    /// Per-checkpoint confidence share (`delta / checkpoints.len()`).
    pub delta_each: f64,
    /// Sample counts at which the stopping rule runs, ascending; the last
    /// entry equals the budget's `max_samples`.
    pub checkpoints: Vec<usize>,
}

impl AdaptivePlan {
    /// Plan for an accuracy target (see [`Budget::Accuracy`]).
    pub fn new(eps: f64, delta: f64, max_samples: usize) -> Self {
        assert!(max_samples > 0, "need at least one sample");
        let mut checkpoints = Vec::new();
        let mut z = MIN_ADAPTIVE_SAMPLES.min(max_samples);
        loop {
            checkpoints.push(z);
            if z >= max_samples {
                break;
            }
            z = z.saturating_mul(2).min(max_samples);
        }
        AdaptivePlan {
            eps,
            delta_each: delta / checkpoints.len() as f64,
            checkpoints,
        }
    }

    /// The plan for a budget, or `None` for fixed budgets.
    pub fn for_budget(budget: &Budget) -> Option<Self> {
        match *budget {
            Budget::FixedSamples(_) => None,
            Budget::Accuracy {
                eps,
                delta,
                max_samples,
            } => Some(AdaptivePlan::new(eps, delta, max_samples)),
        }
    }
}

/// Drive a deterministic adaptive sampling loop.
///
/// `round(lo, hi)` must draw the sampled worlds `lo..hi` (absolute
/// indices), fold them into the caller's accumulator, and return the
/// confidence half-width after the `hi` total worlds drawn so far — a
/// pure function of the accumulated counts. The loop visits the plan's
/// checkpoints in order and stops at the first whose half-width is at
/// most `plan.eps`.
///
/// Returns `(samples_used, stopped_early)`, where `stopped_early` means
/// strictly fewer worlds than the plan's cap were spent. Because the
/// checkpoint boundaries are fixed and `round` is called with the same
/// ranges regardless of thread count, callers whose rounds shard work
/// over a [`crate::ParallelRuntime`] get bit-identical results at every
/// thread count.
pub fn run_adaptive(plan: &AdaptivePlan, mut round: impl FnMut(u64, u64) -> f64) -> (usize, bool) {
    let last = *plan.checkpoints.last().expect("plans are never empty");
    let mut prev = 0u64;
    for &cp in &plan.checkpoints {
        let half = round(prev, cp as u64);
        prev = cp as u64;
        if half <= plan.eps {
            return (cp, cp < last);
        }
    }
    (last, false)
}

/// Dispatch one budget over a sampling accumulator: the shared
/// fixed-vs-adaptive skeleton behind every budgeted estimator method.
///
/// `round(lo, hi, delta)` must draw worlds `lo..hi` into the caller's
/// accumulator and return the confidence half-width of the accumulated
/// counts at `hi` total worlds under `delta` (ignored for fixed budgets,
/// where no stopping decision is taken). Returns `(worlds_drawn,
/// interval_delta, stopped_early)` — the `delta` the caller should size
/// its reported [`Estimate`] intervals with (the budget's own for fixed
/// budgets, the per-checkpoint share for adaptive ones).
pub fn drive_budget(
    budget: Budget,
    mut round: impl FnMut(u64, u64, f64) -> f64,
) -> (u64, f64, bool) {
    budget.assert_valid();
    match budget {
        Budget::FixedSamples(z) => {
            let delta = budget.delta();
            round(0, z as u64, delta);
            (z as u64, delta, false)
        }
        Budget::Accuracy { .. } => {
            let plan = AdaptivePlan::for_budget(&budget).expect("accuracy budget");
            let delta = plan.delta_each;
            let (z, stopped) = run_adaptive(&plan, |lo, hi| round(lo, hi, delta));
            (z as u64, delta, stopped)
        }
    }
}

/// The widest Bernoulli half-width across a family of proportions sharing
/// the same `n` worlds — the stopping criterion for vector and candidate
/// scans, where the slowest-converging entry gates the budget.
///
/// `bernoulli_half_width` is monotone in `p̂(1 − p̂)`, so only the count
/// closest to `n/2` needs evaluating. Empty families converge trivially
/// (returns 0).
pub fn worst_bernoulli_half_width(
    counts: impl IntoIterator<Item = u64>,
    n: u64,
    delta: f64,
) -> f64 {
    let worst = counts.into_iter().map(|c| c.min(n - c)).max();
    match worst {
        None => 0.0,
        Some(c) => bernoulli_half_width(c as f64 / n as f64, n, delta),
    }
}

/// The paper's convergence threshold for `ρ_Z`.
pub const DISPERSION_THRESHOLD: f64 = 0.001;

/// Index of dispersion of a set of repeated estimates: `variance / mean`.
///
/// Returns 0 when the mean is 0 (an estimator that always answers 0 has
/// converged on that answer).
pub fn dispersion_ratio(estimates: &[f64]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    let n = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
    var / mean
}

/// Statistics from a convergence sweep: the chosen `Z` and the dispersion
/// ratio observed at each candidate.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Smallest candidate `Z` whose dispersion ratio beat the threshold
    /// (or the largest candidate if none did).
    pub chosen: usize,
    /// `(Z, ρ_Z)` for every candidate evaluated, in order.
    pub trace: Vec<(usize, f64)>,
}

/// Find the smallest sample size from `candidates` (ascending) at which the
/// estimator built by `make` converges on the given query workload.
///
/// For each candidate `Z`, every query is estimated `reps` times with
/// seeds `0..reps`; `ρ_Z` is averaged over queries. This mirrors the
/// paper's procedure (100 queries × 100 repetitions) at configurable cost.
pub fn converged_sample_size<G, E, F>(
    g: &G,
    queries: &[(NodeId, NodeId)],
    candidates: &[usize],
    reps: u64,
    threshold: f64,
    make: F,
) -> ConvergenceReport
where
    G: ProbGraph,
    E: Estimator,
    F: Fn(usize, u64) -> E,
{
    assert!(!candidates.is_empty(), "need at least one candidate Z");
    assert!(reps >= 2, "variance needs at least two repetitions");
    let mut trace = Vec::with_capacity(candidates.len());
    for &z in candidates {
        let mut rho_sum = 0.0;
        for &(s, t) in queries {
            let estimates: Vec<f64> = (0..reps)
                .map(|seed| {
                    let est = make(z, seed);
                    est.st_estimate(g, s, t, est.default_budget()).value
                })
                .collect();
            rho_sum += dispersion_ratio(&estimates);
        }
        let rho = rho_sum / queries.len().max(1) as f64;
        trace.push((z, rho));
        if rho < threshold {
            return ConvergenceReport { chosen: z, trace };
        }
    }
    ConvergenceReport {
        chosen: *candidates.last().expect("non-empty"),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{McEstimator, RssEstimator};
    use relmax_ugraph::{NodeId, UncertainGraph};

    fn toy() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g
    }

    #[test]
    fn dispersion_of_constant_estimates_is_zero() {
        assert!(dispersion_ratio(&[0.4, 0.4, 0.4]) < 1e-25);
        assert_eq!(dispersion_ratio(&[]), 0.0);
        assert_eq!(dispersion_ratio(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn dispersion_grows_with_spread() {
        let tight = dispersion_ratio(&[0.40, 0.41, 0.39]);
        let loose = dispersion_ratio(&[0.2, 0.6, 0.4]);
        assert!(loose > tight);
    }

    #[test]
    fn larger_z_converges() {
        let g = toy();
        let queries = [(NodeId(0), NodeId(3))];
        let report = converged_sample_size(
            &g,
            &queries,
            &[50, 400, 3200, 25_600],
            8,
            DISPERSION_THRESHOLD,
            McEstimator::new,
        );
        // Dispersion must shrink as Z grows.
        for w in report.trace.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.5,
                "trace not shrinking: {:?}",
                report.trace
            );
        }
        assert!(report.chosen >= 400);
    }

    #[test]
    fn budget_accessors_and_validation() {
        assert_eq!(Budget::fixed(100).max_samples(), 100);
        assert_eq!(Budget::fixed(100).delta(), DEFAULT_DELTA);
        let acc = Budget::accuracy(0.02, 0.1);
        assert_eq!(acc.max_samples(), DEFAULT_MAX_SAMPLES);
        assert_eq!(acc.delta(), 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_fixed_budget_rejected() {
        let _ = Budget::fixed(0);
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0, 1)")]
    fn bad_eps_rejected() {
        let _ = Budget::accuracy(0.0, 0.05);
    }

    #[test]
    fn plan_checkpoints_double_and_end_at_cap() {
        let plan = AdaptivePlan::new(0.01, 0.05, 1000);
        assert_eq!(plan.checkpoints, vec![64, 128, 256, 512, 1000]);
        assert!((plan.delta_each - 0.01).abs() < 1e-12);
        // A cap below the first checkpoint yields a single checkpoint.
        assert_eq!(AdaptivePlan::new(0.1, 0.05, 10).checkpoints, vec![10]);
        // Exact power of two: no duplicate final entry.
        assert_eq!(
            AdaptivePlan::new(0.1, 0.05, 256).checkpoints,
            vec![64, 128, 256]
        );
    }

    #[test]
    fn run_adaptive_stops_at_first_converged_checkpoint() {
        let plan = AdaptivePlan::new(0.5, 0.05, 1024);
        let mut drawn = Vec::new();
        let (n, stopped) = run_adaptive(&plan, |lo, hi| {
            drawn.push((lo, hi));
            if hi >= 256 {
                0.1
            } else {
                1.0
            }
        });
        assert_eq!(n, 256);
        assert!(stopped);
        assert_eq!(drawn, vec![(0, 64), (64, 128), (128, 256)]);
    }

    #[test]
    fn run_adaptive_exhausts_cap_without_convergence() {
        let plan = AdaptivePlan::new(1e-9, 0.05, 200);
        let mut total = 0u64;
        let (n, stopped) = run_adaptive(&plan, |lo, hi| {
            total += hi - lo;
            1.0
        });
        assert_eq!(n, 200);
        assert!(!stopped);
        assert_eq!(total, 200);
    }

    #[test]
    fn worst_half_width_tracks_the_most_uncertain_entry() {
        let n = 1000u64;
        let delta = 0.05;
        let worst = worst_bernoulli_half_width([10u64, 500, 990], n, delta);
        assert_eq!(worst, bernoulli_half_width(0.5, n, delta));
        assert_eq!(worst_bernoulli_half_width([], n, delta), 0.0);
        // All-extreme counts are tighter than a balanced one.
        let tight = worst_bernoulli_half_width([0u64, 1000], n, delta);
        assert!(tight < worst);
    }

    #[test]
    fn bounds_shrink_with_n_and_variance() {
        assert!(hoeffding_half_width(400, 0.05) < hoeffding_half_width(100, 0.05));
        assert!(bernstein_half_width(0.0, 1000, 0.05) < bernstein_half_width(0.25, 1000, 0.05));
        // Near-deterministic outcomes: Bernstein beats Hoeffding.
        assert!(bernoulli_half_width(0.001, 10_000, 0.05) < hoeffding_half_width(10_000, 0.05));
        // Single-stratum Hoeffding reduces to the classic bound.
        let n = 5_000u64;
        let a = stratified_half_width(1.0 / n as f64, 0.05);
        let b = hoeffding_half_width(n, 0.05);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn estimate_constructors() {
        let e = Estimate::exact(0.75);
        assert_eq!(e.value, 0.75);
        assert_eq!(e.half_width(), 0.0);
        assert_eq!(e.samples_used, 0);

        let e = Estimate::from_hits(500, 1000, 0.05, true);
        assert_eq!(e.value, 0.5);
        assert!(e.stopped_early);
        assert_eq!(e.samples_used, 1000);
        assert!(e.ci_low < 0.5 && e.ci_high > 0.5);
        assert!(e.stderr > 0.0);

        // Extreme proportions clamp to [0, 1].
        let e = Estimate::from_hits(0, 1000, 0.05, false);
        assert_eq!(e.ci_low, 0.0);
        assert!(e.ci_high > 0.0);
    }

    #[test]
    fn rss_converges_at_smaller_z_than_mc() {
        // The claim behind Tables 6-7: RSS needs fewer samples.
        let g = toy();
        let queries = [(NodeId(0), NodeId(3))];
        let zs = [64, 128, 256, 512, 1024, 2048, 4096, 8192];
        let mc = converged_sample_size(&g, &queries, &zs, 10, 0.002, McEstimator::new);
        let rss = converged_sample_size(&g, &queries, &zs, 10, 0.002, RssEstimator::new);
        assert!(
            rss.chosen <= mc.chosen,
            "RSS chose {} but MC chose {}",
            rss.chosen,
            mc.chosen
        );
    }
}
