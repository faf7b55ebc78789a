//! Monte Carlo reliability estimation with lazy world instantiation.

use crate::convergence::{
    drive_budget, worst_bernoulli_half_width, Budget, Estimate, HopsEstimate,
};
use crate::kernel::Kernel;
use crate::runtime::ParallelRuntime;
use crate::Estimator;
use relmax_ugraph::index::{PrunedGraph, RelIndex, StPlan, StVerdict};
use relmax_ugraph::{ExtraEdge, NodeId, ProbGraph};
use std::sync::Arc;

/// Monte Carlo sampler (Fishman 1986), the paper's default estimator.
///
/// Samples `Z` possible worlds and reports the fraction in which the target
/// is reachable. Each world is instantiated lazily during BFS: an edge's
/// coin is flipped the first time the traversal reaches it, so the cost per
/// sample is `O(n + m)` in the worst case and usually far less.
///
/// Every method is monomorphized over the graph type; on large graphs,
/// freeze once ([`relmax_ugraph::CsrGraph::freeze`]) and sample against
/// the snapshot — the per-world BFS then walks flat arrays with zero
/// allocations (epoch-stamped scratch from a thread-local pool).
///
/// Worlds are evaluated by the lane-packed kernel by default — 64
/// sampled worlds per `u64` word, one frontier fixpoint per block
/// ([`crate::packed`]) — with the scalar one-world-at-a-time
/// breadth-first search ([`crate::scalar`]) kept as the bit-identical
/// reference path
/// (`RELMAX_KERNEL=scalar` or [`McEstimator::with_kernel`]). Every
/// method asks its [`Kernel`] for integer counts and never matches on
/// it.
///
/// Sampling is sharded over a [`ParallelRuntime`]
/// ([`McEstimator::with_threads`] / [`McEstimator::with_runtime`]).
/// Because coin flips are keyed by the global sample index and shard
/// counts merge in a fixed order, the parallel estimate is bit-identical
/// to the serial one at every thread count.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_sampling::{Budget, Estimator, McEstimator};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// let mc = McEstimator::new(20_000, 7);
/// let budget = Budget::fixed(20_000);
/// let r = mc.st_estimate(&g.freeze(), NodeId(0), NodeId(2), budget);
/// assert!((r.value - 0.4).abs() < 0.02);
/// assert_eq!(r, mc.st_estimate(&g, NodeId(0), NodeId(2), budget)); // layout-independent
/// let par = McEstimator::with_threads(20_000, 7, 4);
/// assert_eq!(r, par.st_estimate(&g, NodeId(0), NodeId(2), budget)); // thread-count-independent
/// ```
#[derive(Debug, Clone)]
pub struct McEstimator {
    /// Default sampling budget ([`Estimator::default_budget`]: the
    /// fallback for callers with no per-query budget of their own).
    pub budget: Budget,
    /// Seed for the coin-flip hash; same seed ⇒ same worlds.
    pub seed: u64,
    /// Sample-sharding executor (serial by default).
    pub runtime: ParallelRuntime,
    /// Which Monte Carlo kernel runs the worlds: the lane-packed
    /// 64-worlds-per-word kernel (default) or the scalar reference BFS.
    /// Both are bit-identical; see [`crate::packed`].
    pub kernel: Kernel,
    /// Optional freeze-time reliability index, attached via
    /// [`Estimator::with_rel_index`]. Queries against the graph it was
    /// built from route through condensation / short-circuits / pruning
    /// with bit-identical estimate values; other graphs (overlay views in
    /// particular) ignore it. `None` samples plainly.
    pub index: Option<Arc<RelIndex>>,
}

/// An indexed `s-t` query that must sample: the index, the endpoints
/// mapped to supernodes, and the plan's node mask (see [`StPlan`]).
type IndexedSample<'a> = (&'a RelIndex, NodeId, NodeId, Option<Vec<u64>>);

impl McEstimator {
    /// Serial estimator with a fixed budget of `samples` worlds under
    /// `seed`.
    pub fn new(samples: usize, seed: u64) -> Self {
        Self::with_runtime(samples, seed, ParallelRuntime::serial())
    }

    /// Parallel estimator; results are identical to the serial one.
    pub fn with_threads(samples: usize, seed: u64, threads: usize) -> Self {
        Self::with_runtime(samples, seed, ParallelRuntime::new(threads))
    }

    /// Estimator with a fixed budget on an explicit [`ParallelRuntime`].
    pub fn with_runtime(samples: usize, seed: u64, runtime: ParallelRuntime) -> Self {
        Self::with_budget_runtime(Budget::fixed(samples), seed, runtime)
    }

    /// Serial estimator with an arbitrary default [`Budget`].
    pub fn with_budget(budget: Budget, seed: u64) -> Self {
        Self::with_budget_runtime(budget, seed, ParallelRuntime::serial())
    }

    /// Estimator with an arbitrary default [`Budget`] on an explicit
    /// [`ParallelRuntime`].
    pub fn with_budget_runtime(budget: Budget, seed: u64, runtime: ParallelRuntime) -> Self {
        budget.assert_valid();
        McEstimator {
            budget,
            seed,
            runtime,
            kernel: Kernel::auto(),
            index: None,
        }
    }

    /// Select the Monte Carlo kernel explicitly (the constructors default
    /// to [`Kernel::auto`], which honours `RELMAX_KERNEL`). Estimates are
    /// bit-identical either way — this is a pure performance knob, kept
    /// explicit so tests can run both kernels in one process.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The attached index, if it was built for exactly this graph.
    ///
    /// The dimension guard is what keeps overlay scans correct: a
    /// [`relmax_ugraph::GraphView`] has more coins than its base graph, so
    /// it never matches and falls through to plain sampling.
    fn active_index<G: ProbGraph>(&self, g: &G) -> Option<&RelIndex> {
        let idx = self.index.as_deref()?;
        idx.matches(g.num_nodes(), g.num_coins(), g.is_directed())
            .then_some(idx)
    }

    /// Plan an `s-t` query once. `Ok` is the structural answer: `s == t`,
    /// or an attached index proving the pair certainly or never
    /// connected. `Err` says what to sample: the index's condensed graph
    /// between the mapped endpoints under the plan's node mask, or `None`
    /// to sample `g` itself.
    fn st_route<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
    ) -> Result<Estimate, Option<IndexedSample<'_>>> {
        if s == t {
            return Ok(Estimate::exact(1.0));
        }
        let Some(idx) = self.active_index(g) else {
            return Err(None);
        };
        match idx.st_plan(s, t) {
            // Same certain supernode: connected in every world.
            StPlan::Certain => Ok(Estimate::exact(1.0)),
            // No possible world connects them: structurally 0.0, decided
            // without sampling a single world.
            StPlan::Impossible => Ok(Estimate::impossible()),
            StPlan::Sample { s, t, mask } => Err(Some((idx, s, t, mask))),
        }
    }

    /// Per-node reach estimates from (or, `reverse`, to) `start`.
    ///
    /// Per-supernode counts equal every member's per-node counts, so
    /// sampling the condensed graph of an attached index and expanding is
    /// bit-identical (the checkpoint half-width is a max over the same
    /// multiset of counts).
    fn reach_estimates<G: ProbGraph>(
        &self,
        g: &G,
        start: NodeId,
        reverse: bool,
        budget: Budget,
    ) -> Vec<Estimate> {
        match self.active_index(g) {
            Some(idx) if !idx.is_identity() => idx.expand(&self.reach_sampled(
                idx.condensed(),
                idx.supernode(start),
                reverse,
                budget,
            )),
            _ => self.reach_sampled(g, start, reverse, budget),
        }
    }
}

impl Estimator for McEstimator {
    fn default_budget(&self) -> Budget {
        self.budget
    }

    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate {
        budget.assert_valid();
        match self.st_route(g, s, t) {
            Ok(decided) => decided,
            Err(None) => self.st_sampled(g, s, t, budget),
            // Sample on the condensed graph, masked to the supernodes
            // that can lie on an s-t path. Both transformations preserve
            // every world's verdict, and coins stay keyed to original
            // ids, so hit counts — and hence the Estimate — are
            // bit-identical to unindexed sampling.
            Err(Some((idx, s, t, mask))) => match mask {
                Some(mask) => {
                    self.st_sampled(&PrunedGraph::new(idx.condensed(), &mask), s, t, budget)
                }
                None => self.st_sampled(idx.condensed(), s, t, budget),
            },
        }
    }

    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate> {
        self.reach_estimates(g, s, false, budget)
    }

    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate> {
        self.reach_estimates(g, t, true, budget)
    }

    fn pairwise_estimates<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        budget: Budget,
    ) -> Vec<Vec<Estimate>> {
        if let Some(idx) = self.active_index(g) {
            let partitioned = idx.num_components() > 1;
            if !idx.is_identity() || partitioned {
                // Remap endpoints to supernodes; every world's verdict for
                // (s, t) equals the condensed verdict for their supernodes.
                let ss: Vec<NodeId> = sources.iter().map(|&s| idx.supernode(s)).collect();
                let tt: Vec<NodeId> = targets.iter().map(|&t| idx.supernode(t)).collect();
                // Partition the query matrix by possible-graph component:
                // a world's BFS never crosses a component boundary, so
                // cross-component cells are 0 in every world and each
                // component group samples only its own (sources × targets)
                // sub-matrix.
                let groups = if partitioned {
                    component_groups(idx, sources, targets)
                } else {
                    whole_matrix(sources, targets)
                };
                return self.pairwise_sampled(idx.condensed(), &ss, &tt, &groups, budget);
            }
        }
        self.pairwise_sampled(g, sources, targets, &whole_matrix(sources, targets), budget)
    }

    /// Shared-world candidate scan: walks each sampled world **once** for
    /// all candidates (two BFS passes + one lookup per candidate) instead
    /// of once per candidate, sample-sharded over the runtime. Bit-identical
    /// to the default per-candidate overlay scan at any thread count; under
    /// an accuracy budget the slowest-converging candidate gates stopping.
    fn scan_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        budget.assert_valid();
        if candidates.is_empty() {
            return Vec::new();
        }
        if s == t {
            return vec![Estimate::exact(1.0); candidates.len()];
        }
        if let Some(idx) = self.active_index(g) {
            if !idx.is_identity() {
                // Candidates may bridge components, so no component
                // short-circuit or path mask applies here — but the
                // fwd/rev + bridging decomposition is endpoint-local, so
                // condensation alone is safe: remap candidate endpoints
                // and scan the condensed graph (same coin count, so the
                // overlay coin id is unchanged too).
                let mapped: Vec<ExtraEdge> = candidates
                    .iter()
                    .map(|c| ExtraEdge {
                        src: idx.supernode(c.src),
                        dst: idx.supernode(c.dst),
                        prob: c.prob,
                    })
                    .collect();
                return self.scan_sampled(
                    idx.condensed(),
                    idx.supernode(s),
                    idx.supernode(t),
                    &mapped,
                    budget,
                );
            }
        }
        self.scan_sampled(g, s, t, candidates, budget)
    }

    fn name(&self) -> &'static str {
        "MC"
    }

    fn with_rel_index(mut self, index: Arc<RelIndex>) -> Self {
        self.index = Some(index);
        self
    }

    fn without_rel_index(&self) -> Self {
        let mut e = self.clone();
        e.index = None;
        e
    }

    fn st_shortcircuit<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId) -> Option<Estimate> {
        self.st_route(g, s, t).ok()
    }

    fn coalescable_st(&self) -> bool {
        true
    }

    fn supports_constrained(&self) -> bool {
        true
    }

    fn st_within_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        max_hops: u32,
        budget: Budget,
    ) -> Option<Estimate> {
        budget.assert_valid();
        if s == t {
            return Some(Estimate::exact(1.0)); // 0 hops fits every bound
        }
        // Only the structural-impossibility short-circuit survives a hop
        // bound: `Certain` (same certain-SCC) proves connectivity but not
        // within d hops, and condensation collapses hop counts — so
        // constrained queries always sample the raw graph.
        if self.all_pairs_impossible(g, &[s], &[t]) {
            return Some(Estimate::impossible());
        }
        Some(
            self.set_sampled(g, &[s], &[t], Some(max_hops), budget)
                .reliability,
        )
    }

    fn set_estimate<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        budget: Budget,
    ) -> Option<Estimate> {
        budget.assert_valid();
        if sources.is_empty() || targets.is_empty() {
            return Some(Estimate::impossible());
        }
        if sources.iter().any(|s| targets.contains(s)) {
            return Some(Estimate::exact(1.0)); // shared node: 0-hop hit
        }
        if self.all_pairs_impossible(g, sources, targets) {
            return Some(Estimate::impossible());
        }
        Some(
            self.set_sampled(g, sources, targets, max_hops, budget)
                .reliability,
        )
    }

    fn expected_hops_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        budget: Budget,
    ) -> Option<HopsEstimate> {
        budget.assert_valid();
        if s == t {
            return Some(HopsEstimate::exact(Estimate::exact(1.0)));
        }
        if self.all_pairs_impossible(g, &[s], &[t]) {
            return Some(HopsEstimate::exact(Estimate::impossible()));
        }
        Some(self.set_sampled(g, &[s], &[t], None, budget))
    }
}

/// Index-free sampling bodies. The public [`Estimator`] methods route
/// through the attached [`RelIndex`] (when one matches the queried graph)
/// and land here — on the original graph, the condensed graph, or a
/// [`PrunedGraph`] over it — so these helpers never consult the index
/// again.
impl McEstimator {
    /// The one Monte Carlo driver behind every sampled shape.
    ///
    /// Each budget round (one batch for fixed budgets, power-of-two
    /// checkpoints for accuracy budgets) shards its sample range over
    /// `groups` work groups ([`ParallelRuntime::shard_samples`]), runs
    /// `work(group, lo, hi)` per shard and folds each result into
    /// `counts` with `merge(counts, group, result)`, in an order that no
    /// thread count changes. The stopping rule judges the widest
    /// Bernoulli interval over the first `judged` counts; later counts
    /// (a hop-distance sum) ride along unjudged. Returns
    /// `(worlds, delta, stopped_early)` for [`Estimate::from_hits`].
    fn drive<T: Send>(
        &self,
        budget: Budget,
        counts: &mut [u64],
        judged: usize,
        groups: usize,
        work: impl Fn(usize, u64, u64) -> T + Sync,
        mut merge: impl FnMut(&mut [u64], usize, T),
    ) -> (u64, f64, bool) {
        drive_budget(budget, |lo, hi, delta| {
            self.runtime
                .shard_samples(groups, lo, hi, &work, |gi, r| merge(counts, gi, r));
            worst_bernoulli_half_width(counts[..judged].iter().copied(), hi, delta)
        })
    }

    fn st_sampled<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate {
        let mut hits = [0u64];
        let (z, delta, stopped) = self.drive(
            budget,
            &mut hits,
            1,
            1,
            |_, lo, hi| self.kernel.st_hits(g, self.seed, s, t, lo, hi),
            |c, _, h| c[0] += h,
        );
        Estimate::from_hits(hits[0], z, delta, stopped)
    }

    /// Budgeted set-reliability / hop-moment sampling: the shared body
    /// behind [`Estimator::st_within_estimate`], [`Estimator::set_estimate`],
    /// and [`Estimator::expected_hops_estimate`]: the reliability estimate
    /// plus the integer hop-distance sum over hitting worlds.
    fn set_sampled<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        budget: Budget,
    ) -> HopsEstimate {
        // [hits, hop sum]: only the hits gate stopping.
        let mut counts = [0u64; 2];
        let (z, delta, stopped) = self.drive(
            budget,
            &mut counts,
            1,
            1,
            |_, lo, hi| {
                self.kernel
                    .set_counts(g, self.seed, sources, targets, max_hops, lo, hi)
            },
            |c, _, (h, d)| {
                c[0] += h;
                c[1] += d;
            },
        );
        HopsEstimate::from_moments(counts[0], counts[1], z, delta, stopped)
    }

    /// Whether the attached index proves every `(s, t)` pair of the query
    /// structurally impossible — the only index verdict that survives a
    /// hop bound (condensed certain-SCCs collapse hop counts, so
    /// `Certain` plans and condensation are never used for constrained
    /// shapes; impossibility is bound-independent).
    fn all_pairs_impossible<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> bool {
        match self.active_index(g) {
            Some(idx) => sources.iter().all(|&s| {
                targets
                    .iter()
                    .all(|&t| idx.st_verdict(s, t) == StVerdict::Impossible)
            }),
            None => false,
        }
    }

    /// Per-node reach estimates; under an accuracy budget the widest
    /// per-node interval gates stopping.
    fn reach_sampled<G: ProbGraph>(
        &self,
        g: &G,
        start: NodeId,
        reverse: bool,
        budget: Budget,
    ) -> Vec<Estimate> {
        let mut counts = vec![0u64; g.num_nodes()];
        let run = self.drive(
            budget,
            &mut counts,
            g.num_nodes(),
            1,
            |_, lo, hi| {
                self.kernel
                    .reach_counts(g, self.seed, start, reverse, lo, hi)
            },
            |c, _, local| add_counts(c, &local),
        );
        estimates(&counts, run)
    }

    /// `sources × targets` estimates, sampled per query-matrix group.
    ///
    /// `groups` lists, per group, the indices into `sources` / `targets`
    /// it covers: one group for the whole matrix ([`whole_matrix`]), or
    /// one per possible-graph component ([`component_groups`]). The
    /// runtime fans out `(group × sample shard)` work items, so components
    /// parallelize *in addition to* sample sharding; each work item walks
    /// only its group's sub-matrix.
    ///
    /// Partitioning is bit-identical to the whole matrix on the same
    /// graph: coin flips are stateless (`(seed, sample, coin)`-keyed), so
    /// a group's counts equal the corresponding cells of the full matrix,
    /// and the cells no group covers are exactly those a whole-matrix BFS
    /// can never hit (cross-component pairs: 0 in every world). The
    /// adaptive-stopping half-width folds over the full matrix — zeros
    /// included — so checkpoint decisions match too.
    fn pairwise_sampled<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        groups: &[(Vec<u32>, Vec<u32>)],
        budget: Budget,
    ) -> Vec<Vec<Estimate>> {
        let gsrc: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|(si, _)| si.iter().map(|&i| sources[i as usize]).collect())
            .collect();
        let gtgt: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|(_, ti)| ti.iter().map(|&j| targets[j as usize]).collect())
            .collect();
        let width = targets.len();
        let mut counts = vec![0u64; sources.len() * width];
        let judged = counts.len();
        let run = self.drive(
            budget,
            &mut counts,
            judged,
            groups.len(),
            |gi, lo, hi| {
                self.kernel
                    .pairwise_counts(g, self.seed, &gsrc[gi], &gtgt[gi], lo, hi)
            },
            |c, gi, local| {
                let (si, ti) = &groups[gi];
                for (&r, lrow) in si.iter().zip(local) {
                    for (&col, l) in ti.iter().zip(lrow) {
                        c[r as usize * width + col as usize] += l;
                    }
                }
            },
        );
        let flat = estimates(&counts, run);
        (0..sources.len())
            .map(|r| flat[r * width..(r + 1) * width].to_vec())
            .collect()
    }

    fn scan_sampled<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        let mut counts = vec![0u64; candidates.len()];
        let run = self.drive(
            budget,
            &mut counts,
            candidates.len(),
            1,
            |_, lo, hi| {
                self.kernel
                    .scan_counts(g, self.seed, s, t, candidates, lo, hi)
            },
            |c, _, local| add_counts(c, &local),
        );
        estimates(&counts, run)
    }
}

/// Add one shard's per-entry counts into the running totals.
fn add_counts(counts: &mut [u64], local: &[u64]) {
    for (c, l) in counts.iter_mut().zip(local) {
        *c += l;
    }
}

/// One Bernoulli estimate per count, all over the same driven worlds
/// (the `(worlds, delta, stopped_early)` of [`McEstimator::drive`]).
fn estimates(counts: &[u64], (z, delta, stopped): (u64, f64, bool)) -> Vec<Estimate> {
    counts
        .iter()
        .map(|&c| Estimate::from_hits(c, z, delta, stopped))
        .collect()
}

/// The whole query matrix as one group: every source and every target.
fn whole_matrix(sources: &[NodeId], targets: &[NodeId]) -> Vec<(Vec<u32>, Vec<u32>)> {
    vec![(
        (0..sources.len() as u32).collect(),
        (0..targets.len() as u32).collect(),
    )]
}

/// Group query-matrix indices by possible-graph component: one
/// `(source indices, target indices)` entry per component that has **both**
/// sides present, in first-encounter order (sources scanned before
/// targets), so the grouping is deterministic. Components with only
/// sources or only targets contribute nothing — every cell they touch is
/// cross-component, i.e. 0 in every possible world.
fn component_groups(
    idx: &RelIndex,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut slot: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut groups: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut group_of = |c: u32, groups: &mut Vec<(Vec<u32>, Vec<u32>)>| {
        *slot.entry(c).or_insert_with(|| {
            groups.push((Vec::new(), Vec::new()));
            groups.len() - 1
        })
    };
    for (i, &s) in sources.iter().enumerate() {
        let gi = group_of(idx.component(s), &mut groups);
        groups[gi].0.push(i as u32);
    }
    for (j, &t) in targets.iter().enumerate() {
        let gi = group_of(idx.component(t), &mut groups);
        groups[gi].1.push(j as u32);
    }
    groups.retain(|(si, ti)| !si.is_empty() && !ti.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::exact::st_reliability_enumerate;
    use relmax_ugraph::{CsrGraph, ExtraEdge, GraphView, UncertainGraph};

    fn bridge_graph() -> UncertainGraph {
        // s -> a -> t and s -> b -> t plus bridge a -> b.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.3).unwrap();
        g
    }

    #[test]
    fn tracks_exact_reliability() {
        let g = bridge_graph();
        let exact = st_reliability_enumerate(&g, NodeId(0), NodeId(3)).unwrap();
        let mc = McEstimator::new(40_000, 11);
        let est = mc.st_estimate(&g, NodeId(0), NodeId(3), mc.budget).value;
        assert!((est - exact).abs() < 0.01, "est={est} exact={exact}");
    }

    #[test]
    fn vector_from_matches_st() {
        let g = bridge_graph();
        let mc = McEstimator::new(20_000, 5);
        let vec_from = mc.from_estimates(&g, NodeId(0), mc.budget);
        let st = mc.st_estimate(&g, NodeId(0), NodeId(3), mc.budget);
        // Same worlds (same seed/coin keys), so the estimates agree closely.
        assert!((vec_from[3].value - st.value).abs() < 0.01);
        assert_eq!(vec_from[0].value, 1.0);
    }

    #[test]
    fn vector_to_matches_reverse_reachability() {
        let g = bridge_graph();
        let mc = McEstimator::new(20_000, 5);
        let to_t = mc.to_estimates(&g, NodeId(3), mc.budget);
        let exact_from_1 = st_reliability_enumerate(&g, NodeId(1), NodeId(3)).unwrap();
        assert!(
            (to_t[1].value - exact_from_1).abs() < 0.01,
            "{} vs {exact_from_1}",
            to_t[1].value
        );
        assert_eq!(to_t[3].value, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = bridge_graph();
        let st = |seed| {
            McEstimator::new(5_000, seed)
                .st_estimate(&g, NodeId(0), NodeId(3), Budget::fixed(5_000))
                .value
        };
        assert_eq!(st(3), st(3));
        assert_ne!(st(3), st(4)); // overwhelmingly likely
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let g = bridge_graph();
        let (serial, parallel) = (
            McEstimator::new(10_000, 9),
            McEstimator::with_threads(10_000, 9, 4),
        );
        let b = Budget::fixed(10_000);
        assert_eq!(
            serial.st_estimate(&g, NodeId(0), NodeId(3), b),
            parallel.st_estimate(&g, NodeId(0), NodeId(3), b)
        );
        assert_eq!(
            serial.from_estimates(&g, NodeId(0), b),
            parallel.from_estimates(&g, NodeId(0), b)
        );
    }

    #[test]
    fn csr_snapshot_is_bit_identical_to_adjacency_walk() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let mc = McEstimator::new(8_000, 17);
        let b = mc.budget;
        assert_eq!(
            mc.st_estimate(&g, NodeId(0), NodeId(3), b),
            mc.st_estimate(&csr, NodeId(0), NodeId(3), b),
        );
        assert_eq!(
            mc.from_estimates(&g, NodeId(0), b),
            mc.from_estimates(&csr, NodeId(0), b)
        );
        assert_eq!(
            mc.to_estimates(&g, NodeId(3), b),
            mc.to_estimates(&csr, NodeId(3), b)
        );
    }

    #[test]
    fn source_equals_target() {
        let g = bridge_graph();
        let mc = McEstimator::new(10, 0);
        let e = mc.st_estimate(&g, NodeId(2), NodeId(2), mc.budget);
        assert_eq!(e, Estimate::exact(1.0));
    }

    #[test]
    fn undirected_edge_single_coin() {
        let mut g = UncertainGraph::new(2, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let mc = McEstimator::new(40_000, 2);
        let r = mc.st_estimate(&g, NodeId(0), NodeId(1), mc.budget).value;
        assert!((r - 0.5).abs() < 0.01, "r={r}");
    }

    #[test]
    fn works_on_overlays_with_common_random_numbers() {
        let g = bridge_graph();
        let mc = McEstimator::new(30_000, 13);
        let base = mc.st_estimate(&g, NodeId(0), NodeId(3), mc.budget).value;
        // Adding an edge can only help: with CRN this holds sample by
        // sample, so the estimates themselves must be monotone.
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            }],
        );
        let boosted = mc.st_estimate(&view, NodeId(0), NodeId(3), mc.budget).value;
        assert!(boosted >= base, "boosted={boosted} base={base}");
        let exact = {
            let owned = view.materialize();
            st_reliability_enumerate(&owned, NodeId(0), NodeId(3)).unwrap()
        };
        assert!(
            (boosted - exact).abs() < 0.01,
            "boosted={boosted} exact={exact}"
        );
    }

    #[test]
    fn overlay_on_csr_matches_overlay_on_adjacency() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let extra = vec![ExtraEdge {
            src: NodeId(0),
            dst: NodeId(3),
            prob: 0.5,
        }];
        let mc = McEstimator::new(10_000, 13);
        let over_adj = GraphView::new(&g, extra.clone());
        let over_adj = mc.st_estimate(&over_adj, NodeId(0), NodeId(3), mc.budget);
        let over_csr = GraphView::new(&csr, extra);
        let over_csr = mc.st_estimate(&over_csr, NodeId(0), NodeId(3), mc.budget);
        assert_eq!(over_adj, over_csr);
    }

    #[test]
    fn pairwise_matrix_agrees_with_individual_queries() {
        let g = bridge_graph();
        let mc = McEstimator::new(10_000, 21);
        let b = mc.budget;
        let m = mc.pairwise_estimates(&g, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)], b);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        // The shared-world single pass is bit-identical to the per-source
        // vector estimates (the memoized flips are the same hashed flips).
        let direct = mc.from_estimates(&g, NodeId(1), b);
        assert_eq!(m[1][1], direct[3]);
        assert_eq!(m[1][0], direct[2]);
        let from0 = mc.from_estimates(&g, NodeId(0), b);
        assert_eq!(m[0][1], from0[3]);
    }

    #[test]
    fn pairwise_parallel_matches_serial() {
        let g = bridge_graph();
        let sources = [NodeId(0), NodeId(1)];
        let targets = [NodeId(2), NodeId(3)];
        let b = Budget::fixed(6_000);
        let serial = McEstimator::new(6_000, 31).pairwise_estimates(&g, &sources, &targets, b);
        let parallel =
            McEstimator::with_threads(6_000, 31, 3).pairwise_estimates(&g, &sources, &targets, b);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pairwise_handles_sources_in_targets() {
        let g = bridge_graph();
        let mc = McEstimator::new(100, 1);
        let m = mc.pairwise_estimates(&g, &[NodeId(0)], &[NodeId(0), NodeId(3)], mc.budget);
        assert_eq!(m[0][0].value, 1.0); // a node always reaches itself
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = McEstimator::new(0, 1);
    }

    #[test]
    fn packed_kernel_bit_identical_to_scalar_reference() {
        // Every budgeted kernel, packed vs scalar, including a sample
        // count that leaves a masked tail block (1234 = 19·64 + 18).
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let cands = vec![
            ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(2),
                dst: NodeId(1),
                prob: 0.9,
            },
        ];
        let packed = McEstimator::new(1234, 77).with_kernel(Kernel::Packed);
        let scalar = McEstimator::new(1234, 77).with_kernel(Kernel::Scalar);
        let b = Budget::fixed(1234);
        assert_eq!(
            packed.st_estimate(&csr, NodeId(0), NodeId(3), b),
            scalar.st_estimate(&csr, NodeId(0), NodeId(3), b),
        );
        assert_eq!(
            packed.from_estimates(&csr, NodeId(0), b),
            scalar.from_estimates(&csr, NodeId(0), b),
        );
        assert_eq!(
            packed.to_estimates(&csr, NodeId(3), b),
            scalar.to_estimates(&csr, NodeId(3), b),
        );
        assert_eq!(
            packed.pairwise_estimates(&csr, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)], b),
            scalar.pairwise_estimates(&csr, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)], b),
        );
        assert_eq!(
            packed.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b),
            scalar.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b),
        );
        // Accuracy budgets stop at the same checkpoint with the same bits.
        let acc = Budget::accuracy_capped(0.03, 0.05, 5000);
        assert_eq!(
            packed.st_estimate(&csr, NodeId(0), NodeId(3), acc),
            scalar.st_estimate(&csr, NodeId(0), NodeId(3), acc),
        );
    }

    /// The naive candidate scan every selector ran before the shared-world
    /// kernel existed: one overlay BFS per candidate.
    fn naive_scan(
        mc: &McEstimator,
        g: &CsrGraph,
        s: NodeId,
        t: NodeId,
        cands: &[ExtraEdge],
    ) -> Vec<Estimate> {
        let mut view = GraphView::empty(g);
        cands
            .iter()
            .map(|&c| {
                view.push_extra(c);
                let r = mc.st_estimate(&view, s, t, mc.budget);
                view.pop_extra();
                r
            })
            .collect()
    }

    #[test]
    fn scan_kernel_bit_identical_to_overlay_scan() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let cands = vec![
            ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(2),
                dst: NodeId(1),
                prob: 0.9,
            },
            ExtraEdge {
                src: NodeId(3),
                dst: NodeId(0),
                prob: 0.7,
            }, // useless direction
            ExtraEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.0,
            }, // never present
            ExtraEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 1.0,
            }, // always present
        ];
        let mc = McEstimator::new(4_000, 19);
        assert_eq!(
            mc.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, mc.budget),
            naive_scan(&mc, &csr, NodeId(0), NodeId(3), &cands),
        );
    }

    #[test]
    fn scan_kernel_bit_identical_on_undirected_graphs() {
        let mut g = UncertainGraph::new(5, false);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.4).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.7).unwrap();
        let csr = CsrGraph::freeze(&g);
        // Undirected candidates bridge in either orientation.
        let cands = vec![
            ExtraEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(4),
                dst: NodeId(0),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(4),
                dst: NodeId(2),
                prob: 0.8,
            },
        ];
        let mc = McEstimator::new(4_000, 23);
        assert_eq!(
            mc.scan_estimates(&csr, NodeId(0), NodeId(4), &cands, mc.budget),
            naive_scan(&mc, &csr, NodeId(0), NodeId(4), &cands),
        );
    }

    #[test]
    fn scan_is_thread_count_independent() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let cands = vec![
            ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(2),
                dst: NodeId(1),
                prob: 0.3,
            },
        ];
        let b = Budget::fixed(5_000);
        let serial =
            McEstimator::new(5_000, 41).scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b);
        for threads in [2, 4, 8] {
            let par = McEstimator::with_threads(5_000, 41, threads);
            let par = par.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn accuracy_budget_is_a_fixed_budget_prefix() {
        // Stopping at checkpoint Z must reproduce FixedSamples(Z) exactly:
        // the same worlds 0..Z are drawn either way.
        let g = bridge_graph();
        let mc = McEstimator::new(1, 7);
        let budget = Budget::accuracy_capped(0.05, 0.05, 4096);
        let est = mc.st_estimate(&g, NodeId(0), NodeId(3), budget);
        assert!(est.samples_used <= 4096);
        let fixed = mc.st_estimate(&g, NodeId(0), NodeId(3), Budget::fixed(est.samples_used));
        assert_eq!(est.value, fixed.value);
    }

    #[test]
    fn accuracy_budget_bit_identical_across_thread_counts() {
        let g = bridge_graph();
        let budget = Budget::accuracy_capped(0.03, 0.05, 8192);
        let serial = McEstimator::new(1, 9).st_estimate(&g, NodeId(0), NodeId(3), budget);
        for threads in [2, 4, 8] {
            let par = McEstimator::with_threads(1, 9, threads).st_estimate(
                &g,
                NodeId(0),
                NodeId(3),
                budget,
            );
            assert_eq!(serial, par, "threads={threads}");
        }
        let sv = McEstimator::new(1, 9).from_estimates(&g, NodeId(0), budget);
        let pv = McEstimator::with_threads(1, 9, 4).from_estimates(&g, NodeId(0), budget);
        assert_eq!(sv, pv);
    }

    #[test]
    fn easy_queries_stop_early_hard_caps_bind() {
        // A near-deterministic query (p = 0.9999…) converges at the first
        // checkpoints; an impossible eps runs to the cap.
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9999).unwrap();
        let mc = McEstimator::new(1, 3);
        let easy = mc.st_estimate(
            &g,
            NodeId(0),
            NodeId(1),
            Budget::accuracy_capped(0.05, 0.05, 1 << 16),
        );
        assert!(easy.stopped_early, "easy query must stop early: {easy:?}");
        assert!(easy.samples_used < 1 << 16);
        assert!(easy.half_width() <= 0.05);

        let hard = mc.st_estimate(
            &g,
            NodeId(0),
            NodeId(1),
            Budget::accuracy_capped(1e-6, 0.05, 256),
        );
        assert!(!hard.stopped_early);
        assert_eq!(hard.samples_used, 256);
    }

    #[test]
    fn fixed_budget_estimates_carry_uncertainty() {
        let g = bridge_graph();
        let mc = McEstimator::new(2_000, 11);
        let est = mc.st_estimate(&g, NodeId(0), NodeId(3), Budget::fixed(2_000));
        assert_eq!(est, mc.st_estimate(&g, NodeId(0), NodeId(3), mc.budget));
        assert_eq!(est.samples_used, 2_000);
        assert!(!est.stopped_early);
        assert!(est.ci_low < est.value && est.value < est.ci_high);
        assert!(est.stderr > 0.0);
    }

    #[test]
    fn scan_estimates_converge_per_worst_candidate() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let cands = vec![
            ExtraEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(3),
                dst: NodeId(0),
                prob: 0.7,
            },
        ];
        let mc = McEstimator::new(1, 19);
        let budget = Budget::accuracy_capped(0.04, 0.05, 1 << 14);
        let ests = mc.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, budget);
        assert_eq!(ests.len(), 2);
        // All candidates share the sampling run.
        assert_eq!(ests[0].samples_used, ests[1].samples_used);
        if ests[0].stopped_early {
            for e in &ests {
                assert!(e.half_width() <= 0.04, "{e:?}");
            }
        }
        // Bit-identical to a fixed budget of the same realized length.
        let fixed = mc.scan_estimates(
            &csr,
            NodeId(0),
            NodeId(3),
            &cands,
            Budget::fixed(ests[0].samples_used),
        );
        assert_eq!(ests[0].value, fixed[0].value);
        assert_eq!(ests[1].value, fixed[1].value);
    }

    fn indexed(mc: &McEstimator, csr: &CsrGraph) -> McEstimator {
        mc.clone().with_rel_index(Arc::new(RelIndex::build(csr)))
    }

    #[test]
    fn cross_component_short_circuits_without_sampling() {
        // Two islands: {0 -> 1} and {2 -> 3}. Any query across them is
        // structurally impossible.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let csr = g.freeze();
        let mc = indexed(&McEstimator::new(10_000, 7), &csr);
        let est = mc.st_estimate(&csr, NodeId(0), NodeId(3), Budget::fixed(10_000));
        assert_eq!(est.value, 0.0);
        assert_eq!(est.samples_used, 0, "no worlds may be sampled");
        assert!(est.stopped_early);
        assert_eq!(est.stderr, 0.0);
        assert_eq!((est.ci_low, est.ci_high), (0.0, 0.0));
        // The sampled value agrees exactly (0 hits out of z is 0.0).
        let plain = McEstimator::new(10_000, 7);
        assert_eq!(
            plain
                .st_estimate(&csr, NodeId(0), NodeId(3), Budget::fixed(10_000))
                .value,
            0.0
        );
        // Directed dead ends inside one weak component short-circuit too.
        let est = mc.st_estimate(&csr, NodeId(1), NodeId(0), Budget::fixed(10_000));
        assert_eq!((est.value, est.samples_used), (0.0, 0));
    }

    #[test]
    fn partitioned_pairwise_bit_identical_across_kernels_and_threads() {
        // Three possible-graph components: {0, 1, 2} (certain 2-cycle, so
        // condensation is non-trivial), {3, 4}, and isolated {5}. Sources
        // and targets are spread across all three, so the partitioned
        // path has multiple real groups *and* cross-component zero cells.
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.7).unwrap();
        g.add_edge(NodeId(4), NodeId(3), 0.2).unwrap();
        let csr = g.freeze();
        let sources = [NodeId(0), NodeId(3), NodeId(5), NodeId(2)];
        let targets = [NodeId(2), NodeId(4), NodeId(0), NodeId(5), NodeId(3)];
        for budget in [
            Budget::fixed(2_048),
            Budget::accuracy_capped(0.05, 0.05, 4096),
        ] {
            // Index-free serial scalar sampling is the reference.
            let reference = McEstimator::new(2_048, 13)
                .with_kernel(Kernel::Scalar)
                .pairwise_estimates(&csr, &sources, &targets, budget);
            for threads in [1, 4] {
                for kernel in [Kernel::Scalar, Kernel::Packed] {
                    let mc = indexed(
                        &McEstimator::with_threads(2_048, 13, threads).with_kernel(kernel),
                        &csr,
                    );
                    let got = mc.pairwise_estimates(&csr, &sources, &targets, budget);
                    assert_eq!(got, reference, "threads={threads} kernel={kernel:?}");
                }
            }
            // Cross-component cells are exact zeros (never sampled).
            assert_eq!(reference[0][1].value, 0.0); // comp A -> comp B
            assert_eq!(reference[2][0].value, 0.0); // isolated 5 -> comp A
        }
    }

    #[test]
    fn component_groups_partition_by_side_presence() {
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        // Node 4 isolated: a component with a source but no target.
        let csr = g.freeze();
        let idx = RelIndex::build(&csr);
        let groups = component_groups(
            &idx,
            &[NodeId(0), NodeId(4), NodeId(2)],
            &[NodeId(3), NodeId(1)],
        );
        // {0,1} has source 0 / target 1; {2,3} has source 2 / target 3;
        // {4} is dropped (no targets there).
        assert_eq!(groups, vec![(vec![0], vec![1]), (vec![2], vec![0])]);
    }

    #[test]
    fn indexed_estimates_bit_identical_to_unindexed() {
        // Certain cycle {0, 1}, uncertain tail, second component {4, 5}.
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 0.2).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        let csr = g.freeze();
        let plain = McEstimator::new(3_000, 29);
        let fast = indexed(&plain, &csr);
        for budget in [
            Budget::fixed(3_000),
            Budget::accuracy_capped(0.04, 0.05, 4096),
        ] {
            // Sample-plan st queries: the full Estimate matches bit for bit.
            assert_eq!(
                fast.st_estimate(&csr, NodeId(0), NodeId(3), budget),
                plain.st_estimate(&csr, NodeId(0), NodeId(3), budget),
            );
            // from/to/pairwise route through condensation + expansion.
            assert_eq!(
                fast.from_estimates(&csr, NodeId(0), budget),
                plain.from_estimates(&csr, NodeId(0), budget),
            );
            assert_eq!(
                fast.to_estimates(&csr, NodeId(3), budget),
                plain.to_estimates(&csr, NodeId(3), budget),
            );
            assert_eq!(
                fast.pairwise_estimates(
                    &csr,
                    &[NodeId(0), NodeId(2)],
                    &[NodeId(1), NodeId(3)],
                    budget
                ),
                plain.pairwise_estimates(
                    &csr,
                    &[NodeId(0), NodeId(2)],
                    &[NodeId(1), NodeId(3)],
                    budget
                ),
            );
        }
        // Same certain supernode: value agrees exactly (1.0 both ways).
        let b = Budget::fixed(500);
        assert_eq!(
            fast.st_estimate(&csr, NodeId(0), NodeId(1), b).value,
            plain.st_estimate(&csr, NodeId(0), NodeId(1), b).value,
        );
        // Candidate scans remap endpoints onto the condensed graph —
        // including candidates that bridge the two components.
        let cands = vec![
            ExtraEdge {
                src: NodeId(3),
                dst: NodeId(4),
                prob: 0.5,
            },
            ExtraEdge {
                src: NodeId(5),
                dst: NodeId(3),
                prob: 0.9,
            },
            ExtraEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.8,
            },
        ];
        assert_eq!(
            fast.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b),
            plain.scan_estimates(&csr, NodeId(0), NodeId(3), &cands, b),
        );
        // Overlay views have a different coin space: the index must be
        // ignored, not misapplied.
        let view = GraphView::new(&csr, vec![cands[0]]);
        assert_eq!(
            fast.st_estimate(&view, NodeId(0), NodeId(4), b),
            plain.st_estimate(&view, NodeId(0), NodeId(4), b),
        );
    }

    #[test]
    fn indexed_routing_is_thread_and_kernel_independent() {
        let mut g = UncertainGraph::new(5, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 0.5).unwrap();
        let csr = g.freeze();
        let b = Budget::fixed(2_048);
        let reference = indexed(
            &McEstimator::new(2_048, 3).with_kernel(Kernel::Scalar),
            &csr,
        )
        .st_estimate(&csr, NodeId(0), NodeId(3), b);
        for threads in [1, 2, 4] {
            for kernel in [Kernel::Scalar, Kernel::Packed] {
                let mc = indexed(
                    &McEstimator::with_threads(2_048, 3, threads).with_kernel(kernel),
                    &csr,
                );
                assert_eq!(
                    mc.st_estimate(&csr, NodeId(0), NodeId(3), b),
                    reference,
                    "threads={threads} kernel={kernel:?}"
                );
            }
        }
    }

    #[test]
    fn constrained_shapes_bit_identical_across_kernels_and_threads() {
        // All four new shapes, packed vs scalar, 1/2/4 threads, with a
        // sample count that leaves a masked tail block (1234 = 19·64+18).
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        let b = Budget::fixed(1234);
        let sources = [NodeId(0), NodeId(1)];
        let targets = [NodeId(2), NodeId(3)];
        let reference = McEstimator::new(1234, 77).with_kernel(Kernel::Scalar);
        let r_within = reference
            .st_within_estimate(&csr, NodeId(0), NodeId(3), 2, b)
            .unwrap();
        let r_set = reference
            .set_estimate(&csr, &sources, &targets, Some(2), b)
            .unwrap();
        let r_hops = reference
            .expected_hops_estimate(&csr, NodeId(0), NodeId(3), b)
            .unwrap();
        let r_topk = reference.topk_estimates(&csr, NodeId(0), 3, b);
        for threads in [1, 2, 4] {
            for kernel in [Kernel::Scalar, Kernel::Packed] {
                let mc = McEstimator::with_threads(1234, 77, threads).with_kernel(kernel);
                assert_eq!(
                    mc.st_within_estimate(&csr, NodeId(0), NodeId(3), 2, b)
                        .unwrap(),
                    r_within,
                    "threads={threads} kernel={kernel:?}"
                );
                assert_eq!(
                    mc.set_estimate(&csr, &sources, &targets, Some(2), b)
                        .unwrap(),
                    r_set,
                    "threads={threads} kernel={kernel:?}"
                );
                assert_eq!(
                    mc.expected_hops_estimate(&csr, NodeId(0), NodeId(3), b)
                        .unwrap(),
                    r_hops,
                    "threads={threads} kernel={kernel:?}"
                );
                assert_eq!(
                    mc.topk_estimates(&csr, NodeId(0), 3, b),
                    r_topk,
                    "threads={threads} kernel={kernel:?}"
                );
            }
        }
        // Adjacency walk vs CSR snapshot: same worlds, same bits.
        assert_eq!(
            reference
                .st_within_estimate(&g, NodeId(0), NodeId(3), 2, b)
                .unwrap(),
            r_within
        );
    }

    #[test]
    fn constrained_accuracy_budget_is_a_fixed_budget_prefix() {
        let g = bridge_graph();
        let mc = McEstimator::new(1, 7);
        let budget = Budget::accuracy_capped(0.05, 0.05, 4096);
        let est = mc
            .st_within_estimate(&g, NodeId(0), NodeId(3), 2, budget)
            .unwrap();
        assert!(est.samples_used <= 4096);
        let fixed = mc
            .st_within_estimate(&g, NodeId(0), NodeId(3), 2, Budget::fixed(est.samples_used))
            .unwrap();
        assert_eq!(est.value, fixed.value);
    }

    #[test]
    fn hop_bound_monotone_and_capped_by_unbounded() {
        let g = bridge_graph();
        let mc = McEstimator::new(4096, 7);
        let b = Budget::fixed(4096);
        let r1 = mc
            .st_within_estimate(&g, NodeId(0), NodeId(3), 1, b)
            .unwrap()
            .value;
        let r2 = mc
            .st_within_estimate(&g, NodeId(0), NodeId(3), 2, b)
            .unwrap()
            .value;
        let r3 = mc
            .st_within_estimate(&g, NodeId(0), NodeId(3), 3, b)
            .unwrap()
            .value;
        let full = mc.st_estimate(&g, NodeId(0), NodeId(3), b).value;
        assert_eq!(r1, 0.0); // shortest possible path has 2 arcs
        assert!(r1 <= r2 && r2 <= r3);
        // Hop-bound samples share worlds with the plain kernel (common
        // random numbers), so diameter-sized bounds agree exactly.
        assert_eq!(r3, full);
    }

    #[test]
    fn constrained_shapes_bypass_the_index_except_impossible() {
        // Certain 2-cycle {0,1} would condense; hop-bounded queries must
        // sample the raw graph (condensation corrupts hop counts), while
        // structurally impossible pairs still short-circuit.
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        let csr = g.freeze();
        let plain = McEstimator::new(2048, 13);
        let fast = indexed(&plain, &csr);
        let b = Budget::fixed(2048);
        assert_eq!(
            fast.st_within_estimate(&csr, NodeId(0), NodeId(2), 2, b),
            plain.st_within_estimate(&csr, NodeId(0), NodeId(2), 2, b),
        );
        assert_eq!(
            fast.expected_hops_estimate(&csr, NodeId(0), NodeId(2), b),
            plain.expected_hops_estimate(&csr, NodeId(0), NodeId(2), b),
        );
        // Cross-component: decided without sampling.
        let est = fast
            .st_within_estimate(&csr, NodeId(0), NodeId(5), 3, b)
            .unwrap();
        assert_eq!((est.value, est.samples_used), (0.0, 0));
        let set = fast
            .set_estimate(
                &csr,
                &[NodeId(0), NodeId(2)],
                &[NodeId(4), NodeId(5)],
                None,
                b,
            )
            .unwrap();
        assert_eq!((set.value, set.samples_used), (0.0, 0));
        let hops = fast
            .expected_hops_estimate(&csr, NodeId(0), NodeId(5), b)
            .unwrap();
        assert_eq!(hops.reliability.samples_used, 0);
        assert_eq!((hops.expected_hops, hops.hop_sum), (0.0, 0));
    }

    #[test]
    fn topk_ranking_is_deterministic_and_tie_broken() {
        // 0 → {1, 2, 3} with 1 and 3 sharing an identical coin-for-coin
        // reliability is hard to arrange; instead pin the contract on a
        // graph where two targets are *certainly* reached (both 1.0): the
        // tie must break by ascending node id.
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let mc = McEstimator::new(1024, 5);
        let b = Budget::fixed(1024);
        let top = mc.topk_estimates(&g, NodeId(0), 2, b);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].0, top[1].0), (NodeId(2), NodeId(3)));
        assert_eq!((top[0].1.value, top[1].1.value), (1.0, 1.0));
        // k beyond n-1 truncates; the source itself never appears.
        let all = mc.topk_estimates(&g, NodeId(0), 10, b);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(v, _)| *v != NodeId(0)));
    }

    #[test]
    fn set_estimate_degenerate_inputs() {
        let g = bridge_graph();
        let mc = McEstimator::new(256, 3);
        let b = Budget::fixed(256);
        // Shared node: certain at 0 hops.
        let e = mc
            .set_estimate(&g, &[NodeId(0), NodeId(2)], &[NodeId(2)], Some(0), b)
            .unwrap();
        assert_eq!((e.value, e.samples_used), (1.0, 0));
        // Empty side: impossible.
        let e = mc.set_estimate(&g, &[], &[NodeId(2)], None, b).unwrap();
        assert_eq!((e.value, e.samples_used), (0.0, 0));
    }

    #[test]
    fn scan_handles_degenerate_inputs() {
        let g = bridge_graph();
        let mc = McEstimator::new(100, 5);
        let b = mc.budget;
        assert!(mc
            .scan_estimates(&g, NodeId(0), NodeId(3), &[], b)
            .is_empty());
        let cands = [ExtraEdge {
            src: NodeId(0),
            dst: NodeId(3),
            prob: 0.5,
        }];
        assert_eq!(
            mc.scan_estimates(&g, NodeId(2), NodeId(2), &cands, b),
            vec![Estimate::exact(1.0)]
        );
    }
}
