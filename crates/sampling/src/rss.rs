//! Recursive stratified sampling (RSS), after Li, Yu, Mao, Jin (TKDE 2016).
//!
//! MC sampling wastes most of its variance on the handful of edges that
//! decide reachability near the source. RSS removes that variance by
//! *conditioning*: pick `r` undetermined boundary edges `e_1..e_r` of the
//! source component and partition the probability space into `r + 1`
//! disjoint strata —
//!
//! - stratum `i` (1 ≤ i ≤ r): `e_1..e_{i−1}` absent, `e_i` present,
//!   the rest undetermined, with probability
//!   `π_i = p(e_i) · Π_{j<i} (1 − p(e_j))`;
//! - stratum `r+1`: all of `e_1..e_r` absent, `π = Π (1 − p(e_j))`.
//!
//! Each stratum gets a sample budget `Z_i = max(1, round(π_i · Z))` and is
//! solved recursively; below a threshold the recursion falls back to
//! conditioned Monte Carlo. The estimate `Σ_i π_i · R̂_i` is unbiased and
//! its variance is never larger than plain MC with the same `Z` (law of
//! total variance), which is exactly the effect Tables 6–7 of the paper
//! measure: RSS reaches the convergence criterion with roughly half the
//! samples of MC.
//!
//! ## Two-phase execution: stratify, then solve leaves in parallel
//!
//! The solver runs in two phases. A **serial stratification pass** walks
//! the recursion tree (cheap reachability probes per node) and emits one
//! `LeafJob` per conditioned-MC leaf: the coin decisions along its
//! recursion path, its sample budget, its probability weight, and a
//! deterministic **stream id** derived from the path. The leaves — where
//! all the BFS work lives — then run in parallel on the estimator's
//! [`ParallelRuntime`], and their results are folded in job order.
//!
//! Because the job list, each job's stream-keyed randomness, and the fold
//! order are all independent of scheduling, estimates are **bit-identical
//! for every thread count**. And since every traversal preserves the source
//! graph's adjacency order, stratification picks the same boundary coins —
//! and produces bit-identical estimates — whether it runs on an
//! [`relmax_ugraph::UncertainGraph`], a frozen
//! [`relmax_ugraph::CsrGraph`], or an overlay of either.

use crate::coins::{coin_raw, splitmix64};
use crate::convergence::{AdaptivePlan, Budget, Estimate};
use crate::runtime::ParallelRuntime;
use crate::scalar::world_search;
use crate::Estimator;
use relmax_ugraph::{with_scratch, CoinId, NodeId, ProbGraph, TraversalScratch};
use std::cell::RefCell;

#[derive(Clone, Copy, PartialEq, Eq)]
enum St {
    Unknown,
    Present,
    Absent,
}

/// One conditioned-MC leaf of the stratification tree, ready to run on any
/// worker: the determined coins along its recursion path, its stream id
/// (keys the leaf's coin flips), its probability weight, and its budget.
struct LeafJob {
    path: Vec<(CoinId, bool)>,
    stream: u64,
    weight: f64,
    z: usize,
}

/// Stream id of child `i` of a stratification node. Purely a function of
/// the recursion path, so leaves draw the same worlds no matter which
/// thread runs them — or whether the tree was built from an adjacency
/// walk or a frozen CSR snapshot.
#[inline]
fn child_stream(stream: u64, i: usize) -> u64 {
    splitmix64(stream ^ (i as u64 + 1))
}

/// Recursive stratified sampling estimator.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_sampling::{Budget, Estimator, RssEstimator};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// let rss = RssEstimator::new(10_000, 7);
/// let budget = Budget::fixed(10_000);
/// let r = rss.st_estimate(&g, NodeId(0), NodeId(2), budget);
/// assert!((r.value - 0.4).abs() < 0.02);
/// // Leaves run in parallel without changing a single bit:
/// let par = RssEstimator::with_threads(10_000, 7, 4);
/// assert_eq!(r, par.st_estimate(&g, NodeId(0), NodeId(2), budget));
/// ```
#[derive(Debug, Clone)]
pub struct RssEstimator {
    /// Default sampling budget (the nominal `Z` that stratification
    /// distributes, or an accuracy target).
    pub budget: Budget,
    /// Seed for leaf-level Monte Carlo.
    pub seed: u64,
    /// Maximum number of boundary edges to stratify on per level (`r`).
    pub max_strata: usize,
    /// Below this budget a stratum is estimated by conditioned MC.
    pub mc_threshold: usize,
    /// Maximum recursion depth.
    pub max_depth: usize,
    /// Executor for the conditioned-MC leaves (serial by default).
    pub runtime: ParallelRuntime,
}

impl RssEstimator {
    /// RSS with a fixed budget and the defaults used throughout the
    /// experiments (`r = 8`, MC threshold 32, depth cap 12).
    pub fn new(samples: usize, seed: u64) -> Self {
        Self::with_runtime(samples, seed, ParallelRuntime::serial())
    }

    /// Parallel-leaf RSS; results are identical to the serial one.
    pub fn with_threads(samples: usize, seed: u64, threads: usize) -> Self {
        Self::with_runtime(samples, seed, ParallelRuntime::new(threads))
    }

    /// Fixed-budget RSS on an explicit [`ParallelRuntime`].
    pub fn with_runtime(samples: usize, seed: u64, runtime: ParallelRuntime) -> Self {
        Self::with_budget_runtime(Budget::fixed(samples), seed, runtime)
    }

    /// Serial RSS with an arbitrary default [`Budget`].
    pub fn with_budget(budget: Budget, seed: u64) -> Self {
        Self::with_budget_runtime(budget, seed, ParallelRuntime::serial())
    }

    /// RSS with an arbitrary default [`Budget`] on an explicit
    /// [`ParallelRuntime`].
    pub fn with_budget_runtime(budget: Budget, seed: u64, runtime: ParallelRuntime) -> Self {
        budget.assert_valid();
        RssEstimator {
            budget,
            seed,
            max_strata: 8,
            mc_threshold: 32,
            max_depth: 12,
            runtime,
        }
    }
}

/// Serial stratification state. `states` tracks the determined coins of
/// the current recursion path (mirrored in `path` for leaf snapshots).
struct Ctx<'g, G: ProbGraph> {
    g: &'g G,
    reverse: bool,
    max_strata: usize,
    mc_threshold: usize,
    max_depth: usize,
    states: Vec<St>,
    path: Vec<(CoinId, bool)>,
    scratch: TraversalScratch,
    /// Depth-first stack of [`Ctx::pessimistic_reach`].
    stack: Vec<NodeId>,
}

impl<G: ProbGraph> Ctx<'_, G> {
    /// Reach set through Present coins only. Returns the boundary: unknown
    /// coins whose tail is inside the component and head outside.
    ///
    /// Depth-first on purpose: the boundary's order decides the strata
    /// order and their stream ids, so it fixes every RSS estimate's bits.
    fn pessimistic_reach(&mut self, start: NodeId) -> Vec<CoinId> {
        let n = self.g.num_nodes();
        let (scratch, stack) = (&mut self.scratch, &mut self.stack);
        scratch.begin(n);
        scratch.visit(start);
        stack.push(start);
        let mut boundary: Vec<(CoinId, NodeId)> = Vec::new();
        let states = &self.states;
        while let Some(v) = stack.pop() {
            let arcs = if self.reverse {
                self.g.in_arcs(v)
            } else {
                self.g.out_arcs(v)
            };
            for a in arcs {
                match states[a.coin as usize] {
                    St::Present => {
                        if scratch.visit(a.node) {
                            stack.push(a.node);
                        }
                    }
                    St::Unknown => boundary.push((a.coin, a.node)),
                    St::Absent => {}
                }
            }
        }
        boundary.retain(|&(_, head)| !self.scratch.visited(head));
        boundary.dedup_by_key(|&mut (c, _)| c);
        boundary.into_iter().map(|(c, _)| c).collect()
    }

    /// Is `t` reachable through Present ∪ Unknown coins?
    fn optimistic_reaches(&mut self, start: NodeId, t: NodeId) -> bool {
        let states = &self.states;
        let open = |c: CoinId, _| states[c as usize] != St::Absent;
        let (hit, _) = world_search(
            self.g,
            &[start],
            self.reverse,
            u32::MAX,
            &[t],
            &mut self.scratch,
            open,
        );
        hit.is_some()
    }

    /// Enumerate this node's strata: set each boundary coin's state, hand
    /// `(child index, stratum weight, stratum budget)` to `visit`, and
    /// restore all states afterwards.
    fn for_each_stratum(
        &mut self,
        boundary: &[CoinId],
        z: usize,
        weight: f64,
        mut visit: impl FnMut(&mut Self, usize, f64, usize),
    ) {
        let r = boundary.len().min(self.max_strata);
        let mut prefix = 1.0f64;
        let mut determined = 0usize;
        for (i, &c) in boundary.iter().take(r).enumerate() {
            let p = self.g.coin_prob(c);
            let pi = prefix * p;
            if pi > 0.0 {
                self.states[c as usize] = St::Present;
                self.path.push((c, true));
                let zi = ((pi * z as f64).round() as usize).max(1);
                visit(self, i, weight * pi, zi);
                self.path.pop();
            }
            self.states[c as usize] = St::Absent;
            self.path.push((c, false));
            determined += 1;
            prefix *= 1.0 - p;
            if prefix <= 0.0 {
                break;
            }
        }
        if prefix > 0.0 {
            let zi = ((prefix * z as f64).round() as usize).max(1);
            visit(self, r, weight * prefix, zi);
        }
        for _ in 0..determined {
            let (c, _) = self.path.pop().expect("path underflow");
            self.states[c as usize] = St::Unknown;
        }
    }

    /// Stratify for a single-target query. Returns the contribution
    /// decided during stratification (success/failure prunes); sampled
    /// strata are deferred to `jobs`.
    fn stratify_st(&mut self, s: NodeId, t: NodeId, frame: Frame, jobs: &mut Vec<LeafJob>) -> f64 {
        let boundary = self.pessimistic_reach(s);
        // Success prune: t inside the present component.
        if self.scratch.visited(t) {
            return frame.weight;
        }
        if !self.optimistic_reaches(s, t) {
            return 0.0;
        }
        if frame.z <= self.mc_threshold || frame.depth >= self.max_depth || boundary.is_empty() {
            jobs.push(self.leaf(&frame));
            return 0.0;
        }
        let mut total = 0.0;
        self.for_each_stratum(&boundary, frame.z, frame.weight, |ctx, i, w, zi| {
            total += ctx.stratify_st(s, t, frame.child(i, w, zi), jobs);
        });
        total
    }

    /// Stratify for the all-targets vector query. Certainty contributions
    /// are added to `out` immediately; sampled strata are deferred.
    fn stratify_vec(
        &mut self,
        start: NodeId,
        frame: Frame,
        out: &mut [f64],
        jobs: &mut Vec<LeafJob>,
    ) {
        let boundary = self.pessimistic_reach(start);
        if boundary.is_empty() {
            // Nothing undetermined leaves the component: members are reached
            // with certainty, everything else is unreachable.
            for v in self.scratch.visited_nodes() {
                out[v.index()] += frame.weight;
            }
            return;
        }
        if frame.z <= self.mc_threshold || frame.depth >= self.max_depth {
            jobs.push(self.leaf(&frame));
            return;
        }
        self.for_each_stratum(&boundary, frame.z, frame.weight, |ctx, i, w, zi| {
            ctx.stratify_vec(start, frame.child(i, w, zi), out, jobs);
        });
    }

    /// Snapshot the current path as a leaf job for `frame`.
    fn leaf(&self, frame: &Frame) -> LeafJob {
        LeafJob {
            path: self.path.clone(),
            stream: frame.stream,
            weight: frame.weight,
            z: frame.z.max(1),
        }
    }
}

/// One node of the stratification tree: budget, depth, random stream and
/// absolute probability weight.
#[derive(Clone, Copy)]
struct Frame {
    z: usize,
    depth: usize,
    stream: u64,
    weight: f64,
}

impl Frame {
    fn root(z: usize, stream: u64) -> Self {
        Frame {
            z,
            depth: 0,
            stream,
            weight: 1.0,
        }
    }

    /// The frame of child stratum `i` with weight `w` and budget `zi`.
    fn child(&self, i: usize, w: f64, zi: usize) -> Self {
        Frame {
            z: zi,
            depth: self.depth + 1,
            stream: child_stream(self.stream, i),
            weight: w,
        }
    }
}

/// Run `f` with a worker-local coin-state array of length `m` with `path`
/// applied. The array lives in a thread-local and is restored to
/// all-Unknown afterwards — via a drop guard, so even a panic unwinding
/// out of `f` cannot leave stale coin states behind for the thread's
/// next query — and tiny leaves don't pay an `O(m)` reset each.
fn with_leaf_states<R>(m: usize, path: &[(CoinId, bool)], f: impl FnOnce(&[St]) -> R) -> R {
    thread_local! {
        static STATES: RefCell<Vec<St>> = const { RefCell::new(Vec::new()) };
    }
    struct Restore<'a> {
        cell: &'a RefCell<Vec<St>>,
        path: &'a [(CoinId, bool)],
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            let mut states = self.cell.borrow_mut();
            for &(c, _) in self.path {
                states[c as usize] = St::Unknown;
            }
        }
    }
    STATES.with(|cell| {
        {
            let mut states = cell.borrow_mut();
            if states.len() < m {
                states.resize(m, St::Unknown);
            }
            for &(c, present) in path {
                states[c as usize] = if present { St::Present } else { St::Absent };
            }
        }
        let _restore = Restore { cell, path };
        let states = cell.borrow();
        f(&states)
    })
}

/// Conditioned MC: search each of the leaf's `z` stream-keyed worlds
/// from `start` until one of `targets` is reached, handing `fold` whether
/// one was and the nodes reached. A coin the leaf's path decided keeps
/// its state; every other coin is drawn.
fn leaf_worlds<G: ProbGraph>(
    g: &G,
    reverse: bool,
    seed: u64,
    job: &LeafJob,
    start: NodeId,
    targets: &[NodeId],
    mut fold: impl FnMut(bool, &[NodeId]),
) {
    with_leaf_states(g.num_coins(), &job.path, |states| {
        with_scratch(g.num_nodes(), |sc| {
            for local in 0..job.z as u64 {
                let sample = job.stream.wrapping_add(local);
                let leaf = |c: CoinId, th| match states[c as usize] {
                    St::Present => true,
                    St::Absent => false,
                    St::Unknown => coin_raw(seed, sample, c) < th,
                };
                let (hit, reached) =
                    world_search(g, &[start], reverse, u32::MAX, targets, sc, leaf);
                fold(hit.is_some(), &sc.stack[..reached]);
            }
        });
    });
}

/// How many of the leaf's worlds connect `s` to `t`.
fn leaf_st_hits<G: ProbGraph>(g: &G, seed: u64, job: &LeafJob, s: NodeId, t: NodeId) -> u64 {
    let mut hits = 0u64;
    leaf_worlds(g, false, seed, job, s, &[t], |hit, _| hits += hit as u64);
    hits
}

/// Per-node reach counts across the leaf's worlds.
fn leaf_reach_counts<G: ProbGraph>(
    g: &G,
    reverse: bool,
    seed: u64,
    job: &LeafJob,
    start: NodeId,
) -> Vec<u64> {
    let mut counts = vec![0u64; g.num_nodes()];
    leaf_worlds(g, reverse, seed, job, start, &[], |_, reached| {
        for v in reached {
            counts[v.index()] += 1;
        }
    });
    counts
}

impl RssEstimator {
    fn ctx<'g, G: ProbGraph>(&self, g: &'g G, reverse: bool) -> Ctx<'g, G> {
        Ctx {
            g,
            reverse,
            max_strata: self.max_strata.max(1),
            mc_threshold: self.mc_threshold.max(1),
            max_depth: self.max_depth.max(1),
            states: vec![St::Unknown; g.num_coins()],
            path: Vec::new(),
            scratch: TraversalScratch::with_nodes(g.num_nodes()),
            stack: Vec::new(),
        }
    }

    /// The root stream id: every query under one seed draws from the same
    /// deterministic stream tree.
    fn root_stream(&self) -> u64 {
        splitmix64(self.seed ^ 0x5253_535f_726f_6f74) // "RSSS_root"
    }
}

impl Estimator for RssEstimator {
    fn default_budget(&self) -> Budget {
        self.budget
    }

    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate {
        budget.assert_valid();
        if s == t {
            return Estimate::exact(1.0);
        }
        match budget {
            Budget::FixedSamples(z) => self.st_estimate_nominal(g, s, t, z, budget.delta(), false),
            Budget::Accuracy { .. } => {
                let plan = AdaptivePlan::for_budget(&budget).expect("accuracy budget");
                let last = *plan.checkpoints.last().expect("non-empty plan");
                // Stratification allocates budgets top-down from the nominal
                // Z, so extending a run in place is not meaningful the way
                // it is for MC; instead each checkpoint re-runs the solver
                // at its nominal Z. The schedule doubles, so the total work
                // stays within 2x of the final run — and every checkpoint
                // run is individually thread-count-independent, keeping the
                // whole loop bit-identical at any worker count.
                for &cp in &plan.checkpoints {
                    let est = self.st_estimate_nominal(g, s, t, cp, plan.delta_each, cp < last);
                    if est.half_width() <= plan.eps || cp == last {
                        return Estimate {
                            stopped_early: est.half_width() <= plan.eps && cp < last,
                            ..est
                        };
                    }
                }
                unreachable!("loop returns at the last checkpoint")
            }
        }
    }

    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate> {
        self.vector_estimates(g, s, false, budget)
    }

    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate> {
        self.vector_estimates(g, t, true, budget)
    }

    /// Candidate scan with one level of parallelism: candidates fan out
    /// over this estimator's runtime while each overlay is solved with
    /// serial leaves. RSS results are thread-count-independent, so this
    /// is bit-identical to the default per-overlay scan while avoiding
    /// nested thread fan-out (outer workers × leaf workers).
    fn scan_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[relmax_ugraph::ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        let serial = RssEstimator {
            runtime: ParallelRuntime::serial(),
            ..self.clone()
        };
        self.runtime.map(candidates.len(), |i| {
            let view = relmax_ugraph::GraphView::new(g, vec![candidates[i]]);
            serial.st_estimate(&view, s, t, budget)
        })
    }

    fn name(&self) -> &'static str {
        "RSS"
    }
}

impl RssEstimator {
    /// One full stratified solve at nominal budget `z`: the point value
    /// folds in exactly the historical job order (bit-compatible with the
    /// pre-`Estimate` implementation), while a second pass accumulates
    /// the stratified variance `Σ wᵢ² p̂ᵢ(1−p̂ᵢ)/zᵢ` and the Hoeffding
    /// range mass `Σ wᵢ²/zᵢ` that size the confidence interval.
    fn st_estimate_nominal<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        z: usize,
        delta: f64,
        stopped_early: bool,
    ) -> Estimate {
        let mut ctx = self.ctx(g, false);
        let mut jobs = Vec::new();
        let decided = ctx.stratify_st(s, t, Frame::root(z, self.root_stream()), &mut jobs);
        let leaf_rates = self
            .runtime
            .map(jobs.len(), |i| leaf_st_hits(g, self.seed, &jobs[i], s, t));
        // Fold in job order: thread-count-independent.
        let value = decided
            + jobs
                .iter()
                .zip(&leaf_rates)
                .map(|(job, &hits)| job.weight * hits as f64 / job.z as f64)
                .sum::<f64>();
        let mut variance = 0.0;
        let mut range_mass = 0.0;
        for (job, &hits) in jobs.iter().zip(&leaf_rates) {
            let zi = job.z as f64;
            let p = hits as f64 / zi;
            variance += job.weight * job.weight * p * (1.0 - p) / zi;
            range_mass += job.weight * job.weight / zi;
        }
        Estimate::from_stratified(value, variance, range_mass, z, delta, stopped_early)
    }

    /// Budgeted vector solve; under accuracy budgets the (node-uniform)
    /// stratified Hoeffding half-width gates the checkpoint loop.
    fn vector_estimates<G: ProbGraph>(
        &self,
        g: &G,
        start: NodeId,
        reverse: bool,
        budget: Budget,
    ) -> Vec<Estimate> {
        budget.assert_valid();
        match budget {
            Budget::FixedSamples(z) => {
                self.vector_estimates_nominal(g, start, reverse, z, budget.delta(), false)
            }
            Budget::Accuracy { .. } => {
                let plan = AdaptivePlan::for_budget(&budget).expect("accuracy budget");
                let last = *plan.checkpoints.last().expect("non-empty plan");
                for &cp in &plan.checkpoints {
                    let out =
                        self.vector_estimates_nominal(g, start, reverse, cp, plan.delta_each, true);
                    let half = out.iter().map(Estimate::half_width).fold(0.0f64, f64::max);
                    if half <= plan.eps || cp == last {
                        let stopped = half <= plan.eps && cp < last;
                        return out
                            .into_iter()
                            .map(|e| Estimate {
                                stopped_early: stopped,
                                ..e
                            })
                            .collect();
                    }
                }
                unreachable!("loop returns at the last checkpoint")
            }
        }
    }

    fn vector_estimates_nominal<G: ProbGraph>(
        &self,
        g: &G,
        start: NodeId,
        reverse: bool,
        z: usize,
        delta: f64,
        stopped_early: bool,
    ) -> Vec<Estimate> {
        let mut out = vec![0.0; g.num_nodes()];
        let mut ctx = self.ctx(g, reverse);
        let mut jobs = Vec::new();
        ctx.stratify_vec(
            start,
            Frame::root(z, self.root_stream()),
            &mut out,
            &mut jobs,
        );
        let mut variance = vec![0.0; g.num_nodes()];
        let mut range_mass = 0.0;
        // A leaf's counts are n long: fold each as soon as it and every
        // earlier leaf are done, in job order (the same bits as folding
        // all at once), rather than holding every leaf's vector.
        self.runtime.fold_in_order(
            jobs.len(),
            |i| {
                #[cfg(test)]
                tests::leaf_vector_alive();
                leaf_reach_counts(g, reverse, self.seed, &jobs[i], start)
            },
            |i, counts| {
                #[cfg(test)]
                tests::leaf_vector_folded();
                let job = &jobs[i];
                let zi = job.z as f64;
                let scale = job.weight / zi;
                range_mass += job.weight * job.weight / zi;
                for (v, (o, c)) in out.iter_mut().zip(counts).enumerate() {
                    if c == 0 {
                        continue; // would add +0.0 to both sums: same bits
                    }
                    *o += c as f64 * scale;
                    let p = c as f64 / zi;
                    variance[v] += job.weight * job.weight * p * (1.0 - p) / zi;
                }
            },
        );
        out[start.index()] = 1.0;
        let mut estimates: Vec<Estimate> = out
            .into_iter()
            .zip(variance)
            .map(|(value, var)| {
                Estimate::from_stratified(value, var, range_mass, z, delta, stopped_early)
            })
            .collect();
        // The start node is reached with certainty in every world.
        estimates[start.index()] = Estimate {
            stderr: 0.0,
            ci_low: 1.0,
            ci_high: 1.0,
            ..estimates[start.index()]
        };
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::McEstimator;
    use relmax_ugraph::exact::st_reliability_enumerate;
    use relmax_ugraph::{CsrGraph, UncertainGraph};
    use std::cell::Cell;

    thread_local! {
        /// Leaf count vectors started on this thread and not yet folded.
        static LEAF_VECTORS: Cell<usize> = const { Cell::new(0) };
        /// The most of them alive at once on this thread.
        static LEAF_VECTORS_PEAK: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn leaf_vector_alive() {
        let live = LEAF_VECTORS.with(|l| l.replace(l.get() + 1) + 1);
        LEAF_VECTORS_PEAK.with(|p| p.set(p.get().max(live)));
    }

    pub(super) fn leaf_vector_folded() {
        LEAF_VECTORS.with(|l| l.set(l.get().saturating_sub(1)));
    }

    fn fan_graph() -> UncertainGraph {
        // s fans out to 3 mid nodes, each linked to t: variance lives on the
        // first-level coins, where stratification bites hardest.
        let mut g = UncertainGraph::new(5, true);
        for i in 1..=3u32 {
            g.add_edge(NodeId(0), NodeId(i), 0.5).unwrap();
            g.add_edge(NodeId(i), NodeId(4), 0.5).unwrap();
        }
        g
    }

    #[test]
    fn tracks_exact_reliability() {
        let g = fan_graph();
        let exact = st_reliability_enumerate(&g, NodeId(0), NodeId(4)).unwrap();
        let rss = RssEstimator::new(20_000, 3);
        let est = rss.st_estimate(&g, NodeId(0), NodeId(4), rss.budget).value;
        assert!((est - exact).abs() < 0.01, "est={est} exact={exact}");
    }

    #[test]
    fn small_budgets_stay_unbiased() {
        let g = fan_graph();
        let exact = st_reliability_enumerate(&g, NodeId(0), NodeId(4)).unwrap();
        let mut sum = 0.0;
        let reps = 400;
        for seed in 0..reps {
            let rss = RssEstimator::new(64, seed);
            sum += rss.st_estimate(&g, NodeId(0), NodeId(4), rss.budget).value;
        }
        let mean = sum / reps as f64;
        assert!((mean - exact).abs() < 0.02, "mean={mean} exact={exact}");
    }

    #[test]
    fn lower_variance_than_mc_at_equal_budget() {
        let g = fan_graph();
        let z = 128;
        let reps = 60;
        let var = |estimates: &[f64]| {
            let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
            estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / estimates.len() as f64
        };
        let b = Budget::fixed(z);
        let mc: Vec<f64> = (0..reps)
            .map(|seed| {
                McEstimator::new(z, seed)
                    .st_estimate(&g, NodeId(0), NodeId(4), b)
                    .value
            })
            .collect();
        let rss: Vec<f64> = (0..reps)
            .map(|seed| {
                RssEstimator::new(z, seed)
                    .st_estimate(&g, NodeId(0), NodeId(4), b)
                    .value
            })
            .collect();
        let (vm, vr) = (var(&mc), var(&rss));
        assert!(vr < vm, "RSS variance {vr} should beat MC variance {vm}");
    }

    #[test]
    fn vector_mode_matches_st_mode() {
        let g = fan_graph();
        let rss = RssEstimator::new(20_000, 9);
        let from_s = rss.from_estimates(&g, NodeId(0), rss.budget);
        let st = rss.st_estimate(&g, NodeId(0), NodeId(4), rss.budget).value;
        assert!(
            (from_s[4].value - st).abs() < 0.02,
            "{:?} vs {st}",
            from_s[4]
        );
        assert_eq!(from_s[0].value, 1.0);
    }

    #[test]
    fn reverse_vector_tracks_exact() {
        let g = fan_graph();
        let rss = RssEstimator::new(20_000, 9);
        let to_t = rss.to_estimates(&g, NodeId(4), rss.budget);
        let exact = st_reliability_enumerate(&g, NodeId(1), NodeId(4)).unwrap();
        assert!((to_t[1].value - exact).abs() < 0.02);
        assert_eq!(to_t[4].value, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = fan_graph();
        let st = || {
            RssEstimator::new(1000, 5).st_estimate(&g, NodeId(0), NodeId(4), Budget::fixed(1000))
        };
        assert_eq!(st(), st());
    }

    #[test]
    fn parallel_leaves_are_bit_identical_to_serial() {
        let g = fan_graph();
        let serial = RssEstimator::new(4_000, 11);
        let b = serial.budget;
        let st = serial.st_estimate(&g, NodeId(0), NodeId(4), b);
        let from = serial.from_estimates(&g, NodeId(0), b);
        let to = serial.to_estimates(&g, NodeId(4), b);
        for threads in [2, 4, 8] {
            let par = RssEstimator::with_threads(4_000, 11, threads);
            assert_eq!(st, par.st_estimate(&g, NodeId(0), NodeId(4), b));
            assert_eq!(from, par.from_estimates(&g, NodeId(0), b));
            assert_eq!(to, par.to_estimates(&g, NodeId(4), b));
        }
    }

    #[test]
    fn csr_snapshot_is_bit_identical_to_adjacency_walk() {
        // Stratification is traversal-order-sensitive; CSR preserves
        // adjacency order, so estimates must match to the last bit.
        let g = fan_graph();
        let csr = CsrGraph::freeze(&g);
        let rss = RssEstimator::new(5_000, 23);
        let b = rss.budget;
        assert_eq!(
            rss.st_estimate(&g, NodeId(0), NodeId(4), b),
            rss.st_estimate(&csr, NodeId(0), NodeId(4), b),
        );
        assert_eq!(
            rss.from_estimates(&g, NodeId(0), b),
            rss.from_estimates(&csr, NodeId(0), b)
        );
        assert_eq!(
            rss.to_estimates(&g, NodeId(4), b),
            rss.to_estimates(&csr, NodeId(4), b)
        );
    }

    #[test]
    fn stratified_estimate_carries_uncertainty() {
        let g = fan_graph();
        // Cap the recursion so conditioned-MC leaves actually sample (the
        // tiny fan otherwise gets solved exactly by stratification alone).
        let rss = RssEstimator {
            max_depth: 2,
            ..RssEstimator::new(2_000, 3)
        };
        let est = rss.st_estimate(&g, NodeId(0), NodeId(4), Budget::fixed(2_000));
        assert_eq!(est, rss.st_estimate(&g, NodeId(0), NodeId(4), rss.budget));
        assert_eq!(est.samples_used, 2_000);
        assert!(est.stderr >= 0.0);
        // Sampled strata leave a nonzero Hoeffding envelope.
        assert!(est.half_width() > 0.0);
        assert!(est.ci_low < est.value && est.value < est.ci_high);
        // At equal nominal Z, the stratified Hoeffding envelope is no wider
        // than plain MC's (decided mass only shrinks the range mass).
        let mc_half = crate::convergence::hoeffding_half_width(2_000, est_delta());
        assert!(est.half_width() <= mc_half + 1e-12);
    }

    fn est_delta() -> f64 {
        crate::convergence::DEFAULT_DELTA
    }

    #[test]
    fn accuracy_budget_stops_early_and_stays_thread_independent() {
        // The certain chain decides everything during stratification: the
        // very first checkpoint converges.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let rss = RssEstimator::new(1, 5);
        let budget = Budget::accuracy_capped(0.02, 0.05, 1 << 14);
        let est = rss.st_estimate(&g, NodeId(0), NodeId(2), budget);
        assert_eq!(est.value, 1.0);
        assert!(est.stopped_early);
        assert!(est.samples_used < 1 << 14);

        let g = fan_graph();
        let serial = RssEstimator::new(1, 5).st_estimate(&g, NodeId(0), NodeId(4), budget);
        for threads in [2, 4] {
            let par = RssEstimator::with_threads(1, 5, threads).st_estimate(
                &g,
                NodeId(0),
                NodeId(4),
                budget,
            );
            assert_eq!(serial, par, "threads={threads}");
        }
        // Converged accuracy runs honor the requested half-width.
        if serial.stopped_early {
            assert!(serial.half_width() <= 0.02);
        }
    }

    #[test]
    fn vector_estimates_match_values_and_mark_source_certain() {
        let g = fan_graph();
        let rss = RssEstimator::new(1_000, 9);
        let ests = rss.from_estimates(&g, NodeId(0), Budget::fixed(1_000));
        assert_eq!(ests, rss.from_estimates(&g, NodeId(0), rss.budget));
        assert_eq!(ests[0].value, 1.0);
        assert_eq!(ests[0].stderr, 0.0);
        assert_eq!((ests[0].ci_low, ests[0].ci_high), (1.0, 1.0));
    }

    #[test]
    fn vector_leaves_fold_as_they_finish() {
        // A ring with chords: hundreds of conditioned-MC leaves, each
        // with an n-length count vector.
        let n = 300u32;
        let mut g = UncertainGraph::new(n as usize, true);
        for v in 0..n {
            for step in [1, 2, 7] {
                g.add_edge(NodeId(v), NodeId((v + step) % n), 0.5).unwrap();
            }
        }
        for reverse in [false, true] {
            let rss = RssEstimator::new(4_000, 3);
            let mut jobs = Vec::new();
            let root = Frame::root(4_000, rss.root_stream());
            let mut out = vec![0.0; n as usize];
            rss.ctx(&g, reverse)
                .stratify_vec(NodeId(0), root, &mut out, &mut jobs);
            assert!(jobs.len() > 100, "only {} leaves", jobs.len());
            LEAF_VECTORS.with(|l| l.set(0));
            LEAF_VECTORS_PEAK.with(|p| p.set(0));
            rss.vector_estimates(&g, NodeId(0), reverse, rss.budget);
            let peak = LEAF_VECTORS_PEAK.with(|p| p.get());
            // A serial estimator folds each leaf before it runs the next.
            assert_eq!(
                peak,
                1,
                "{peak} of {} leaf vectors held at once",
                jobs.len()
            );
        }
    }

    #[test]
    fn certain_graph_needs_no_sampling() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let rss = RssEstimator::new(8, 0);
        assert_eq!(
            rss.st_estimate(&g, NodeId(0), NodeId(2), rss.budget).value,
            1.0
        );
        let from = rss.from_estimates(&g, NodeId(0), rss.budget);
        assert_eq!(
            from.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![1.0; 3]
        );
    }

    #[test]
    fn unreachable_target_is_zero() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let rss = RssEstimator::new(100, 1);
        assert_eq!(
            rss.st_estimate(&g, NodeId(0), NodeId(2), rss.budget).value,
            0.0
        );
    }
}
