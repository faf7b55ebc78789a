//! The `QueryEngine` facade: one front door for every reliability query.
//!
//! Callers used to wire estimators, snapshots, runtimes, and sample
//! counts together by hand at every call site. [`QueryEngine`] owns that
//! plumbing once: freeze the graph a single time, pick an estimator, and
//! serve `st` / `from` / `to` / `pairwise` / `batch` queries through one
//! builder-style API with per-query [`Budget`]s and rich [`Estimate`]
//! results.
//!
//! ```
//! use relmax_core::engine::{QueryAnswer, QueryEngine};
//! use relmax_sampling::{Budget, McEstimator};
//! use relmax_ugraph::{NodeId, UncertainGraph};
//!
//! let mut g = UncertainGraph::new(3, true);
//! g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
//! g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
//!
//! let engine = QueryEngine::new(&g, McEstimator::new(10_000, 7));
//!
//! // Fixed budget, explicit per query:
//! let answer = engine
//!     .query()
//!     .st(NodeId(0), NodeId(2))
//!     .budget(Budget::fixed(10_000))
//!     .run()
//!     .unwrap();
//! let est = answer.scalar().unwrap();
//! assert!((est.value - 0.4).abs() < 0.02);
//! assert!(est.ci_low <= est.value && est.value <= est.ci_high);
//!
//! // Accuracy budget: "±0.05 at 95%, at most 65536 worlds".
//! let answer = engine
//!     .query()
//!     .st(NodeId(0), NodeId(2))
//!     .accuracy(0.05, 0.05)
//!     .run()
//!     .unwrap();
//! assert!(answer.scalar().unwrap().samples_used > 0);
//! ```
//!
//! Results inherit the workspace determinism contract: for a fixed seed
//! and budget, every answer is **bit-identical at every thread count**
//! (accuracy budgets stop at fixed power-of-two checkpoints; see
//! `relmax_sampling::convergence`).

use relmax_sampling::{
    BatchEstimate, BatchQuery, Budget, Estimate, Estimator, HopsEstimate, ParallelRuntime,
};
use relmax_ugraph::index::{RelIndex, StVerdict};
use relmax_ugraph::{
    CsrGraph, DeltaOverlay, GraphError, GraphUpdate, NodeId, ProbGraph, UncertainGraph,
};
use std::fmt;
use std::sync::Arc;

/// A frozen graph plus an estimator plus a batch runtime: the one object
/// that serves reliability queries.
///
/// Construction freezes the graph (or adopts an existing snapshot) once;
/// every query after that walks flat CSR arrays. The engine's *default*
/// budget — used when a query sets none — is the estimator's own
/// [`Estimator::default_budget`], overridable with
/// [`QueryEngine::with_default_budget`].
///
/// ```
/// use relmax_core::engine::{QueryAnswer, QueryEngine, QueryError};
/// use relmax_sampling::{Budget, McEstimator};
/// use relmax_ugraph::{NodeId, UncertainGraph};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
/// let engine = QueryEngine::new(&g, McEstimator::new(20_000, 7));
///
/// // Shorthand for the single-pair query:
/// let est = engine.st(NodeId(0), NodeId(2), Budget::fixed(20_000)).unwrap();
/// assert!((est.value - 0.81).abs() < 0.01);
///
/// // Vector target through the builder: R(0, v) for every node v.
/// let answer = engine.query().from(NodeId(0)).run().unwrap();
/// let QueryAnswer::Vector(per_node) = answer else { unreachable!() };
/// assert_eq!(per_node.len(), 3);
/// assert_eq!(per_node[0].value, 1.0); // a node always reaches itself
///
/// // Errors are structured, not stringly:
/// let err = engine.st(NodeId(0), NodeId(9), Budget::fixed(100)).unwrap_err();
/// assert!(matches!(err, QueryError::NodeOutOfRange { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine<E: Estimator> {
    // Shared, not owned: a serving process builds one engine per request
    // (per-request seeds and budgets live in the estimator) over the same
    // multi-gigabyte snapshot, so construction must be O(1) in graph size.
    csr: Arc<CsrGraph>,
    index: Option<Arc<RelIndex>>,
    /// Pending edge updates layered over `csr` — see
    /// [`QueryEngine::apply_delta`]. When set, queries sample the overlay
    /// (with a detached estimator; the index is kept only for the
    /// per-component bypass in [`QueryEngine::st_shortcircuit`]).
    delta: Option<Arc<DeltaOverlay>>,
    est: E,
    runtime: ParallelRuntime,
    default_budget: Budget,
}

impl<E: Estimator> QueryEngine<E> {
    /// Freeze `g` and build an engine over it.
    pub fn new(g: &UncertainGraph, est: E) -> Self {
        Self::from_snapshot(CsrGraph::freeze(g), est)
    }

    /// Build an engine over an already-frozen snapshot (e.g. loaded from
    /// a `.rgs` file).
    ///
    /// This builds the freeze-time reliability index ([`RelIndex`]) and
    /// attaches it to the estimator, so queries route through
    /// condensation / cross-component short-circuits / per-query pruning
    /// with bit-identical estimate values. Use [`QueryEngine::from_parts`]
    /// to supply a prebuilt (e.g. snapshot-loaded) index, or `None` to
    /// force unindexed sampling.
    pub fn from_snapshot(csr: CsrGraph, est: E) -> Self {
        let index = Arc::new(RelIndex::build(&csr));
        Self::from_parts(csr, Some(index), est)
    }

    /// Build an engine over a snapshot plus an optional prebuilt index.
    ///
    /// The index must have been built from exactly `csr` (dimension
    /// mismatches panic; deeper mismatches are the caller's contract —
    /// [`RelIndex::from_section`] validates a persisted index against its
    /// graph). `None` disables index routing for this engine.
    pub fn from_parts(csr: CsrGraph, index: Option<Arc<RelIndex>>, est: E) -> Self {
        Self::from_shared(Arc::new(csr), index, est)
    }

    /// Build an engine over a *shared* snapshot plus an optional prebuilt
    /// index — the serving-layer constructor.
    ///
    /// Construction is O(1) in graph size: the snapshot and index are
    /// reference-counted, so a server can stamp out one engine per request
    /// (carrying that request's seed and budget in its estimator) against
    /// a snapshot held in a single hot-swappable `Arc`. Same contract as
    /// [`QueryEngine::from_parts`] otherwise.
    pub fn from_shared(csr: Arc<CsrGraph>, index: Option<Arc<RelIndex>>, est: E) -> Self {
        if let Some(idx) = &index {
            assert!(
                idx.matches(csr.num_nodes(), csr.num_coins(), csr.is_directed()),
                "reliability index was built for a different graph"
            );
        }
        let est = match &index {
            Some(idx) => est.with_rel_index(Arc::clone(idx)),
            None => est,
        };
        let default_budget = est.default_budget();
        QueryEngine {
            csr,
            index,
            delta: None,
            est,
            runtime: ParallelRuntime::serial(),
            default_budget,
        }
    }

    /// Set the runtime that fans *batch* queries out across workers
    /// (individual estimates use the estimator's own runtime). Answers
    /// are bit-identical regardless.
    pub fn with_runtime(mut self, runtime: ParallelRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Override the budget used by queries that set none of their own.
    pub fn with_default_budget(mut self, budget: Budget) -> Self {
        budget.assert_valid();
        self.default_budget = budget;
        self
    }

    /// The frozen snapshot queries run against.
    pub fn graph(&self) -> &CsrGraph {
        &self.csr
    }

    /// The shared handle to the frozen snapshot (cheap to clone; the
    /// serving layer keys coalesced work on snapshot identity through it).
    pub fn shared_graph(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// The reliability index queries route through, if one is attached.
    pub fn rel_index(&self) -> Option<&Arc<RelIndex>> {
        self.index.as_ref()
    }

    /// The pending delta overlay, if updates have been applied.
    pub fn delta(&self) -> Option<&Arc<DeltaOverlay>> {
        self.delta.as_ref()
    }

    /// The estimator answering the queries.
    pub fn estimator(&self) -> &E {
        &self.est
    }

    /// The batch fan-out runtime.
    pub fn runtime(&self) -> ParallelRuntime {
        self.runtime
    }

    /// The budget applied when a query sets none.
    pub fn default_budget(&self) -> Budget {
        self.default_budget
    }

    /// Start building a query. Set a target (`st`/`from`/`to`/`pairwise`/
    /// `batch`), optionally a budget, then [`ReliabilityQuery::run`].
    pub fn query(&self) -> ReliabilityQuery<'_, E> {
        ReliabilityQuery {
            engine: self,
            target: None,
            budget: None,
        }
    }

    /// Shorthand: `R(s, t)` under `budget`.
    pub fn st(&self, s: NodeId, t: NodeId, budget: Budget) -> Result<Estimate, QueryError> {
        match self.query().st(s, t).budget(budget).run()? {
            QueryAnswer::Scalar(e) => Ok(e),
            _ => unreachable!("st queries yield scalars"),
        }
    }

    /// The answer an `st` query would get **without sampling**, if the
    /// estimator can decide it structurally (`s == t`, or the reliability
    /// index proves the pair certainly / never connected); `None` means
    /// the query would sample.
    ///
    /// This is the coalescing accessor: a request coalescer must answer
    /// short-circuited pairs directly (their estimates carry
    /// `samples_used: 0`) and only merge genuinely-sampling queries into
    /// a shared [`Estimator::from_estimates`] pass.
    pub fn st_shortcircuit(&self, s: NodeId, t: NodeId) -> Result<Option<Estimate>, QueryError> {
        self.check_node(s)?;
        self.check_node(t)?;
        if self.delta.is_some() {
            return Ok(self.delta_shortcircuit(s, t));
        }
        Ok(self.est.st_shortcircuit(self.csr.as_ref(), s, t))
    }

    /// The short-circuit decision for an `st` query against the delta
    /// overlay. The engine decides this itself — the estimator runs
    /// detached when a delta is attached — by bypassing the *base* index
    /// per component: an update whose endpoints all lie outside `comp(s)`
    /// and `comp(t)` cannot change `R(s, t)` (possible-graph components
    /// have no crossing edges in any world, and an insert bridging the two
    /// components has an endpoint *in* them), so the base plan's Certain /
    /// Impossible verdicts remain exact. Any update touching either
    /// component sends the query to sampling on the overlay.
    ///
    /// `None` without a delta: the estimator then decides for itself.
    fn delta_shortcircuit(&self, s: NodeId, t: NodeId) -> Option<Estimate> {
        let delta = self.delta.as_ref()?;
        if s == t {
            return Some(Estimate::exact(1.0));
        }
        let idx = self.index.as_ref()?;
        let (cs, ct) = (idx.component(s), idx.component(t));
        if delta.touched_nodes().any(|v| {
            let c = idx.component(v);
            c == cs || c == ct
        }) {
            return None;
        }
        match idx.st_verdict(s, t) {
            StVerdict::Certain => Some(Estimate::exact(1.0)),
            // Mirrors the estimator's impossible short-circuit exactly.
            StVerdict::Impossible => Some(Estimate::impossible()),
            StVerdict::Sample => None,
        }
    }

    /// Whether this engine's estimator allows bit-identical same-source
    /// `st` coalescing under fixed budgets — see
    /// [`Estimator::coalescable_st`].
    pub fn coalescable_st(&self) -> bool {
        self.est.coalescable_st()
    }

    fn check_node(&self, node: NodeId) -> Result<(), QueryError> {
        if node.index() >= self.csr.num_nodes() {
            return Err(QueryError::NodeOutOfRange {
                node,
                nodes: self.csr.num_nodes(),
            });
        }
        Ok(())
    }

    /// Reject `q` before anything samples: a node outside the graph (the
    /// first one, in argument order), or a constrained shape this engine's
    /// estimator cannot answer.
    fn check(&self, q: &BatchQuery) -> Result<(), QueryError> {
        for v in q.nodes() {
            self.check_node(v)?;
        }
        if q.is_constrained() && !self.est.supports_constrained() {
            return Err(QueryError::UnsupportedShape { shape: q.shape() });
        }
        Ok(())
    }

    /// Answer one [`check`](Self::check)ed query against a concrete graph
    /// (the frozen snapshot, or the delta overlay when updates are
    /// pending) — the one place a query shape meets an estimator call.
    /// Monomorphized per graph type, so both paths inline the estimator's
    /// full BFS.
    fn answer<G: ProbGraph>(&self, g: &G, q: &BatchQuery, budget: Budget) -> BatchEstimate {
        const CHECKED: &str = "check() rejects shapes the estimator does not support";
        let est = &self.est;
        match q {
            // With a delta attached the estimator runs detached, so the
            // engine supplies the structural st short-circuits itself —
            // keeping `QueryEngine::st_shortcircuit` a mirror of every
            // st answer, solo or batched, under mutation.
            BatchQuery::St(s, t) => BatchEstimate::Scalar(
                self.delta_shortcircuit(*s, *t)
                    .unwrap_or_else(|| est.st_estimate(g, *s, *t, budget)),
            ),
            BatchQuery::From(s) => BatchEstimate::Vector(est.from_estimates(g, *s, budget)),
            BatchQuery::To(t) => BatchEstimate::Vector(est.to_estimates(g, *t, budget)),
            BatchQuery::StWithin(s, t, d) => BatchEstimate::Scalar(
                est.st_within_estimate(g, *s, *t, *d, budget)
                    .expect(CHECKED),
            ),
            BatchQuery::Set(sources, targets, d) => BatchEstimate::Scalar(
                est.set_estimate(g, sources, targets, *d, budget)
                    .expect(CHECKED),
            ),
            BatchQuery::TopK(s, k) => BatchEstimate::Ranking(est.topk_estimates(g, *s, *k, budget)),
            BatchQuery::Hops(s, t) => BatchEstimate::Hops(
                est.expected_hops_estimate(g, *s, *t, budget)
                    .expect(CHECKED),
            ),
        }
    }

    /// Execute an already-checked `target` against a concrete graph.
    fn dispatch<G: ProbGraph>(&self, g: &G, target: &Target, budget: Budget) -> QueryAnswer {
        match target {
            Target::One(q) => self.answer(g, q, budget).into(),
            Target::Pairwise(sources, targets) => {
                QueryAnswer::Matrix(self.est.pairwise_estimates(g, sources, targets, budget))
            }
            Target::Batch(queries) => QueryAnswer::Batch(
                self.runtime
                    .map(queries.len(), |i| self.answer(g, &queries[i], budget)),
            ),
        }
    }
}

impl<E: Estimator + Clone> QueryEngine<E> {
    /// A new engine with `updates` applied on top of this engine's pending
    /// delta (or directly on its snapshot if none) — the `POST /update`
    /// and `relmax update` entry point.
    ///
    /// The snapshot and index are shared, not copied; only the overlay is
    /// cloned and extended, so this is cheap relative to a re-freeze. The
    /// returned engine samples the overlay with a **detached** estimator
    /// (no [`RelIndex`] attached — a deletion-only overlay can share the
    /// base dimensions, so the estimator's own dimension guard cannot be
    /// trusted to keep the stale index out) while keeping the base index
    /// for the per-component bypass in [`QueryEngine::st_shortcircuit`].
    ///
    /// Fails — leaving `self` untouched — if any update is invalid
    /// (unknown node, bad probability, duplicate or missing edge).
    pub fn apply_delta(&self, updates: &[GraphUpdate]) -> Result<Self, GraphError> {
        let mut overlay = match &self.delta {
            Some(d) => d.as_ref().clone(),
            None => DeltaOverlay::new(Arc::clone(&self.csr)),
        };
        overlay.apply(updates)?;
        Ok(self.clone().with_delta(Arc::new(overlay)))
    }

    /// Attach an already-built overlay (the serving layer shares one
    /// overlay `Arc` across per-request engines). The overlay must be
    /// layered over exactly this engine's snapshot.
    pub fn with_delta(mut self, delta: Arc<DeltaOverlay>) -> Self {
        assert!(
            Arc::ptr_eq(delta.base(), &self.csr),
            "delta overlay was built over a different snapshot"
        );
        self.est = self.est.without_rel_index();
        self.delta = Some(delta);
        self
    }

    /// Fold the pending delta into a fresh frozen snapshot and return an
    /// engine over it — coin ids preserved, index rebuilt (iff this engine
    /// carried one), estimator re-attached. Queries against the compacted
    /// engine are bit-identical to queries against the overlay. Without a
    /// pending delta this is a plain clone.
    pub fn compact(&self) -> Self {
        let Some(delta) = &self.delta else {
            return self.clone();
        };
        let csr = Arc::new(delta.compact());
        let index = self.index.as_ref().map(|_| Arc::new(RelIndex::build(&csr)));
        let mut engine = Self::from_shared(csr, index, self.est.without_rel_index());
        engine.runtime = self.runtime;
        engine.default_budget = self.default_budget;
        engine
    }
}

/// The query target a [`ReliabilityQuery`] resolves to.
#[derive(Debug, Clone)]
enum Target {
    One(BatchQuery),
    Pairwise(Vec<NodeId>, Vec<NodeId>),
    Batch(Vec<BatchQuery>),
}

/// Builder for one reliability query against a [`QueryEngine`].
///
/// Exactly one target must be set (the last call wins); the budget is
/// optional and defaults to the engine's. The builder borrows the engine,
/// so queries are cheap to construct and the engine can serve many
/// concurrently.
#[derive(Debug, Clone)]
#[must_use = "a query does nothing until `.run()`"]
pub struct ReliabilityQuery<'e, E: Estimator> {
    engine: &'e QueryEngine<E>,
    target: Option<Target>,
    budget: Option<Budget>,
}

impl<E: Estimator> ReliabilityQuery<'_, E> {
    /// Target: one query of any [`BatchQuery`] shape — what the
    /// shape-specific methods below build.
    pub fn target(mut self, query: BatchQuery) -> Self {
        self.target = Some(Target::One(query));
        self
    }

    /// Target: the single pair `R(s, t)`.
    pub fn st(self, s: NodeId, t: NodeId) -> Self {
        self.target(BatchQuery::St(s, t))
    }

    /// Target: `R(s, v)` for every node `v`.
    pub fn from(self, s: NodeId) -> Self {
        self.target(BatchQuery::From(s))
    }

    /// Target: `R(v, t)` for every node `v`.
    pub fn to(self, t: NodeId) -> Self {
        self.target(BatchQuery::To(t))
    }

    /// Target: the full `|sources| × |targets|` reliability matrix.
    pub fn pairwise(mut self, sources: &[NodeId], targets: &[NodeId]) -> Self {
        self.target = Some(Target::Pairwise(sources.to_vec(), targets.to_vec()));
        self
    }

    /// Target: hop-bounded reliability — the probability that a sampled
    /// world contains an `s → t` path of at most `max_hops` edges.
    /// `max_hops = 0` degenerates to `s == t`. Requires an estimator with
    /// [`Estimator::supports_constrained`].
    pub fn st_within(self, s: NodeId, t: NodeId, max_hops: u32) -> Self {
        self.target(BatchQuery::StWithin(s, t, max_hops))
    }

    /// Target: set reliability — the probability that *any* source reaches
    /// *any* target, estimated in one shared-world pass (not a combination
    /// of per-pair estimates). Requires [`Estimator::supports_constrained`].
    pub fn set(self, sources: &[NodeId], targets: &[NodeId]) -> Self {
        self.target(BatchQuery::Set(sources.to_vec(), targets.to_vec(), None))
    }

    /// Target: hop-bounded set reliability — [`ReliabilityQuery::set`]
    /// where every witnessing path must use at most `max_hops` edges.
    pub fn set_within(self, sources: &[NodeId], targets: &[NodeId], max_hops: u32) -> Self {
        self.target(BatchQuery::Set(
            sources.to_vec(),
            targets.to_vec(),
            Some(max_hops),
        ))
    }

    /// Target: the `k` most reliable targets from `s`, ranked by estimated
    /// reliability (descending), ties broken by ascending node id. The
    /// source itself is excluded. Works with every estimator (it rides on
    /// [`Estimator::from_estimates`]).
    pub fn topk(self, s: NodeId, k: usize) -> Self {
        self.target(BatchQuery::TopK(s, k))
    }

    /// Target: expected reliable hop distance — the mean shortest-path hop
    /// count from `s` to `t` over worlds where `t` is reachable, paired
    /// with the reliability estimate itself. Requires
    /// [`Estimator::supports_constrained`].
    pub fn expected_hops(self, s: NodeId, t: NodeId) -> Self {
        self.target(BatchQuery::Hops(s, t))
    }

    /// Target: a heterogeneous batch of queries, answered in order and
    /// fanned out over the engine's runtime. Every query is checked
    /// before any of them samples.
    pub fn batch(mut self, queries: &[BatchQuery]) -> Self {
        self.target = Some(Target::Batch(queries.to_vec()));
        self
    }

    /// Spend exactly this budget on the query.
    pub fn budget(mut self, budget: Budget) -> Self {
        budget.assert_valid();
        self.budget = Some(budget);
        self
    }

    /// Shorthand for [`Budget::FixedSamples`].
    pub fn fixed_samples(self, samples: usize) -> Self {
        self.budget(Budget::fixed(samples))
    }

    /// Shorthand for [`Budget::accuracy`]: `± eps` at confidence
    /// `1 − delta`, capped at the default maximum world count.
    pub fn accuracy(self, eps: f64, delta: f64) -> Self {
        self.budget(Budget::accuracy(eps, delta))
    }

    /// Validate and execute the query.
    pub fn run(self) -> Result<QueryAnswer, QueryError> {
        let engine = self.engine;
        let budget = self.budget.unwrap_or(engine.default_budget);
        let target = self.target.ok_or(QueryError::MissingTarget)?;
        match &target {
            Target::One(q) => engine.check(q)?,
            Target::Pairwise(sources, targets) => {
                for &v in sources.iter().chain(targets) {
                    engine.check_node(v)?;
                }
            }
            Target::Batch(queries) => {
                for q in queries {
                    engine.check(q)?;
                }
            }
        }
        Ok(match &engine.delta {
            Some(delta) => engine.dispatch(delta.as_ref(), &target, budget),
            None => engine.dispatch(engine.csr.as_ref(), &target, budget),
        })
    }
}

/// The shape-typed result of a [`ReliabilityQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// `st` queries: one estimate.
    Scalar(Estimate),
    /// `from`/`to` queries: one estimate per node.
    Vector(Vec<Estimate>),
    /// `pairwise` queries: `matrix[i][j]` estimates
    /// `R(sources[i], targets[j])`.
    Matrix(Vec<Vec<Estimate>>),
    /// `topk` queries: `(target, estimate)` pairs, most reliable first,
    /// ties broken by ascending node id, at most `k` entries.
    Ranking(Vec<(NodeId, Estimate)>),
    /// `expected_hops` queries: reliability plus hop-distance moments.
    Hops(HopsEstimate),
    /// `batch` queries: one answer per input query, in input order.
    Batch(Vec<BatchEstimate>),
}

impl QueryAnswer {
    /// The scalar estimate, if this was an `st` query.
    pub fn scalar(&self) -> Option<&Estimate> {
        match self {
            QueryAnswer::Scalar(e) => Some(e),
            _ => None,
        }
    }

    /// The per-node estimates, if this was a `from`/`to` query.
    pub fn vector(&self) -> Option<&[Estimate]> {
        match self {
            QueryAnswer::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// The estimate matrix, if this was a `pairwise` query.
    pub fn matrix(&self) -> Option<&[Vec<Estimate>]> {
        match self {
            QueryAnswer::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// The ranked `(target, estimate)` pairs, if this was a `topk` query.
    pub fn ranking(&self) -> Option<&[(NodeId, Estimate)]> {
        match self {
            QueryAnswer::Ranking(r) => Some(r),
            _ => None,
        }
    }

    /// The hop-distance estimate, if this was an `expected_hops` query.
    pub fn hops(&self) -> Option<&HopsEstimate> {
        match self {
            QueryAnswer::Hops(h) => Some(h),
            _ => None,
        }
    }

    /// The batch answers, if this was a `batch` query.
    pub fn batch(&self) -> Option<&[BatchEstimate]> {
        match self {
            QueryAnswer::Batch(b) => Some(b),
            _ => None,
        }
    }
}

impl From<BatchEstimate> for QueryAnswer {
    fn from(answer: BatchEstimate) -> Self {
        match answer {
            BatchEstimate::Scalar(e) => QueryAnswer::Scalar(e),
            BatchEstimate::Vector(v) => QueryAnswer::Vector(v),
            BatchEstimate::Ranking(r) => QueryAnswer::Ranking(r),
            BatchEstimate::Hops(h) => QueryAnswer::Hops(h),
        }
    }
}

/// Why a [`ReliabilityQuery`] could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No target (`st`/`from`/`to`/`pairwise`/`batch`) was set.
    MissingTarget,
    /// A query references a node the graph does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the engine's graph.
        nodes: usize,
    },
    /// The engine's estimator cannot answer this query shape — see
    /// [`Estimator::supports_constrained`]. Constrained shapes never fall
    /// back silently to an unconstrained answer.
    UnsupportedShape {
        /// The rejected shape (`"st_within"`, `"set"`, or `"hops"`).
        shape: &'static str,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingTarget => {
                write!(f, "query has no target: set st/from/to/pairwise/batch")
            }
            QueryError::NodeOutOfRange { node, nodes } => write!(
                f,
                "query references node {} but the graph has {nodes} nodes",
                node.0
            ),
            QueryError::UnsupportedShape { shape } => write!(
                f,
                "this engine's estimator does not support `{shape}` queries \
                 (constrained shapes need Estimator::supports_constrained)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::{BatchQuery, McEstimator, RssEstimator};

    fn bridge() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.7).unwrap();
        g
    }

    #[test]
    fn st_matches_direct_estimator_call() {
        let g = bridge();
        let est = McEstimator::new(4_000, 11);
        let direct = est.st_estimate(&g.freeze(), NodeId(0), NodeId(3), est.budget);
        let engine = QueryEngine::new(&g, est);
        let answer = engine.query().st(NodeId(0), NodeId(3)).run().unwrap();
        assert_eq!(answer.scalar().unwrap(), &direct);
        // Shorthand form agrees.
        let e = engine
            .st(NodeId(0), NodeId(3), Budget::fixed(4_000))
            .unwrap();
        assert_eq!(e, direct);
    }

    #[test]
    fn vector_and_matrix_targets() {
        let g = bridge();
        let engine = QueryEngine::new(&g, McEstimator::new(2_000, 5));
        let from = engine.query().from(NodeId(0)).run().unwrap();
        assert_eq!(from.vector().unwrap().len(), 4);
        assert_eq!(from.vector().unwrap()[0].value, 1.0);
        let to = engine.query().to(NodeId(3)).run().unwrap();
        assert_eq!(to.vector().unwrap()[3].value, 1.0);
        let m = engine
            .query()
            .pairwise(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)])
            .run()
            .unwrap();
        let m = m.matrix().unwrap();
        assert_eq!((m.len(), m[0].len()), (2, 2));
    }

    #[test]
    fn batch_target_fans_out_in_order() {
        let g = bridge();
        let est = McEstimator::new(1_000, 3);
        let queries = vec![
            BatchQuery::St(NodeId(0), NodeId(3)),
            BatchQuery::From(NodeId(1)),
            BatchQuery::To(NodeId(3)),
            BatchQuery::St(NodeId(3), NodeId(0)),
        ];
        let serial = QueryEngine::new(&g, est.clone());
        let parallel = QueryEngine::new(&g, est).with_runtime(ParallelRuntime::new(4));
        let a = serial.query().batch(&queries).run().unwrap();
        let b = parallel.query().batch(&queries).run().unwrap();
        assert_eq!(a, b); // bit-identical across batch runtimes
                          // Entry i is exactly the solo answer to query i.
        assert_eq!(a.batch().unwrap().len(), queries.len());
        for (q, entry) in queries.iter().zip(a.batch().unwrap()) {
            let solo = serial.query().target(q.clone()).run().unwrap();
            assert_eq!(QueryAnswer::from(entry.clone()), solo, "{q:?}");
        }
        let empty = parallel.query().batch(&[]).run().unwrap();
        assert_eq!(empty.batch().unwrap(), &[]);
    }

    #[test]
    fn budget_overrides_apply_per_query() {
        let g = bridge();
        let engine = QueryEngine::new(&g, McEstimator::new(500, 7));
        let small = engine.query().st(NodeId(0), NodeId(3)).run().unwrap();
        assert_eq!(small.scalar().unwrap().samples_used, 500);
        let big = engine
            .query()
            .st(NodeId(0), NodeId(3))
            .fixed_samples(2_000)
            .run()
            .unwrap();
        assert_eq!(big.scalar().unwrap().samples_used, 2_000);
        let engine = engine.with_default_budget(Budget::fixed(1_000));
        let mid = engine.query().st(NodeId(0), NodeId(3)).run().unwrap();
        assert_eq!(mid.scalar().unwrap().samples_used, 1_000);
    }

    #[test]
    fn accuracy_budgets_honor_eps_when_stopped() {
        let g = bridge();
        let engine = QueryEngine::new(&g, McEstimator::new(1, 13));
        let answer = engine
            .query()
            .st(NodeId(0), NodeId(3))
            .budget(Budget::accuracy_capped(0.05, 0.05, 1 << 15))
            .run()
            .unwrap();
        let e = answer.scalar().unwrap();
        if e.stopped_early {
            assert!(e.half_width() <= 0.05);
        } else {
            assert_eq!(e.samples_used, 1 << 15);
        }
    }

    #[test]
    fn works_with_rss_and_snapshots() {
        let g = bridge();
        let csr = g.freeze();
        let engine = QueryEngine::from_snapshot(csr.clone(), RssEstimator::new(1_000, 9));
        let answer = engine.query().st(NodeId(0), NodeId(3)).run().unwrap();
        let direct = RssEstimator::new(1_000, 9).st_estimate(
            &csr,
            NodeId(0),
            NodeId(3),
            Budget::fixed(1_000),
        );
        assert_eq!(answer.scalar().unwrap(), &direct);
    }

    #[test]
    fn error_cases() {
        let g = bridge();
        let engine = QueryEngine::new(&g, McEstimator::new(100, 1));
        assert_eq!(engine.query().run().unwrap_err(), QueryError::MissingTarget);
        let err = engine.query().st(NodeId(0), NodeId(99)).run().unwrap_err();
        assert_eq!(
            err,
            QueryError::NodeOutOfRange {
                node: NodeId(99),
                nodes: 4
            }
        );
        assert!(err.to_string().contains("99"));
        let err = engine
            .query()
            .batch(&[BatchQuery::From(NodeId(7))])
            .run()
            .unwrap_err();
        assert!(matches!(err, QueryError::NodeOutOfRange { .. }));
        // Solo and batched queries name the first out-of-range node, in
        // argument order.
        let first = QueryError::NodeOutOfRange {
            node: NodeId(9),
            nodes: 4,
        };
        let err = engine.query().st(NodeId(9), NodeId(50)).run().unwrap_err();
        assert_eq!(err, first);
        let batch = [
            BatchQuery::St(NodeId(0), NodeId(1)),
            BatchQuery::Set(vec![NodeId(0), NodeId(9)], vec![NodeId(50)], None),
        ];
        let err = engine.query().batch(&batch).run().unwrap_err();
        assert_eq!(err, first);
    }

    #[test]
    fn index_routing_matches_unindexed_engine() {
        // Certain cycle {0,1} condenses; {4,5} is a separate component.
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        let csr = g.freeze();
        let est = McEstimator::new(3_000, 21);
        let indexed = QueryEngine::from_snapshot(csr.clone(), est.clone());
        let plain = QueryEngine::from_parts(csr.clone(), None, est);
        assert!(indexed.rel_index().is_some());
        assert!(plain.rel_index().is_none());
        let idx = indexed.rel_index().unwrap();
        assert_eq!(idx.num_supernodes(), 5);
        assert_eq!(idx.num_components(), 2);

        let a = indexed.query().st(NodeId(0), NodeId(3)).run().unwrap();
        let b = plain.query().st(NodeId(0), NodeId(3)).run().unwrap();
        assert_eq!(a, b); // Sample plan: full-Estimate bit identity.

        let a = indexed.query().from(NodeId(0)).run().unwrap();
        let b = plain.query().from(NodeId(0)).run().unwrap();
        assert_eq!(a, b);

        // Cross-component s-t short-circuits without sampling.
        let e = indexed.query().st(NodeId(0), NodeId(5)).run().unwrap();
        let e = e.scalar().unwrap();
        assert_eq!((e.value, e.samples_used, e.stopped_early), (0.0, 0, true));
        let plain_e = plain.query().st(NodeId(0), NodeId(5)).run().unwrap();
        assert_eq!(plain_e.scalar().unwrap().value, 0.0);
    }

    #[test]
    fn coalescing_contract_st_equals_from_entry() {
        // The serving layer merges same-source st queries into one
        // from_estimates pass; that is sound only if the split answers are
        // bit-identical to solo st queries (values AND effort fields) for
        // fixed budgets, with short-circuited pairs answered directly.
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        let engine = QueryEngine::new(&g, McEstimator::new(2_000, 33));
        assert!(engine.coalescable_st());
        let budget = Budget::fixed(2_000);
        let from = engine.query().from(NodeId(0)).budget(budget).run().unwrap();
        let from = from.vector().unwrap();
        for t in [NodeId(2), NodeId(3)] {
            assert_eq!(engine.st_shortcircuit(NodeId(0), t).unwrap(), None);
            let solo = engine.st(NodeId(0), t, budget).unwrap();
            assert_eq!(solo, from[t.index()], "coalesced split differs at {t:?}");
        }
        // Short-circuited pairs must NOT be coalesced: their solo answers
        // spend zero worlds, unlike the shared pass's entries.
        let sc = engine.st_shortcircuit(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sc.unwrap(), Estimate::exact(1.0)); // certain supernode
        let sc = engine.st_shortcircuit(NodeId(0), NodeId(5)).unwrap();
        let sc = sc.unwrap();
        assert_eq!(
            (sc.value, sc.samples_used, sc.stopped_early),
            (0.0, 0, true)
        );
        assert_eq!(
            sc,
            engine.st(NodeId(0), NodeId(5), budget).unwrap(),
            "short-circuit accessor must mirror st_estimate exactly"
        );
        // Bounds still validated through the accessor.
        assert!(matches!(
            engine.st_shortcircuit(NodeId(0), NodeId(99)),
            Err(QueryError::NodeOutOfRange { .. })
        ));
        // Shared-snapshot engines serve the same answers.
        let shared = QueryEngine::from_shared(
            Arc::clone(engine.shared_graph()),
            engine.rel_index().cloned(),
            McEstimator::new(2_000, 33),
        );
        assert_eq!(
            shared.st(NodeId(0), NodeId(3), budget).unwrap(),
            engine.st(NodeId(0), NodeId(3), budget).unwrap()
        );
    }

    #[test]
    fn apply_delta_matches_refrozen_graph() {
        let mut g = bridge();
        let csr = Arc::new(g.freeze());
        let budget = Budget::fixed(1_500);
        let engine = QueryEngine::from_shared(csr, None, McEstimator::with_budget(budget, 77));
        let updated = engine
            .apply_delta(&[
                GraphUpdate::Insert {
                    src: NodeId(3),
                    dst: NodeId(0),
                    prob: 0.3,
                },
                GraphUpdate::SetProb {
                    src: NodeId(0),
                    dst: NodeId(1),
                    prob: 0.9,
                },
                GraphUpdate::Delete {
                    src: NodeId(0),
                    dst: NodeId(2),
                },
            ])
            .unwrap();
        assert_eq!(updated.delta().unwrap().pending(), 3);
        // Mirror the same sequence on the mutable graph, then refreeze.
        g.add_edge(NodeId(3), NodeId(0), 0.3).unwrap();
        g.update_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let oracle =
            QueryEngine::from_parts(g.freeze(), None, McEstimator::with_budget(budget, 77));
        assert_eq!(
            updated.query().st(NodeId(0), NodeId(3)).run().unwrap(),
            oracle.query().st(NodeId(0), NodeId(3)).run().unwrap()
        );
        assert_eq!(
            updated.query().from(NodeId(0)).run().unwrap(),
            oracle.query().from(NodeId(0)).run().unwrap()
        );
        // Compaction folds the overlay into an equal snapshot.
        let compacted = updated.compact();
        assert!(compacted.delta().is_none());
        assert!(*compacted.graph() == *oracle.graph());
        assert_eq!(
            compacted.query().to(NodeId(3)).run().unwrap(),
            oracle.query().to(NodeId(3)).run().unwrap()
        );
        // Invalid updates leave the engine untouched.
        assert!(matches!(
            updated.apply_delta(&[GraphUpdate::Delete {
                src: NodeId(0),
                dst: NodeId(2),
            }]),
            Err(GraphError::MissingEdge { src: 0, dst: 2 })
        ));
        assert_eq!(updated.delta().unwrap().pending(), 3);
    }

    #[test]
    fn delta_shortcircuit_bypasses_untouched_components() {
        // Components {0,1,2,3} (certain cycle {0,1}), {4,5}, {6,7}.
        let mut g = UncertainGraph::new(8, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        g.add_edge(NodeId(6), NodeId(7), 0.4).unwrap();
        let budget = Budget::fixed(1_000);
        let engine = QueryEngine::from_snapshot(g.freeze(), McEstimator::new(1_000, 3));
        assert!(engine.rel_index().is_some());

        // An update confined to component {4,5}: the estimator detaches,
        // but the engine keeps serving base-index verdicts for the
        // untouched components.
        let updated = engine
            .apply_delta(&[GraphUpdate::SetProb {
                src: NodeId(4),
                dst: NodeId(5),
                prob: 0.9,
            }])
            .unwrap();
        assert!(updated.estimator().index.is_none(), "estimator detached");
        assert_eq!(
            updated.st_shortcircuit(NodeId(0), NodeId(1)).unwrap(),
            Some(Estimate::exact(1.0)),
            "certain pair in an untouched component"
        );
        assert_eq!(
            updated.st(NodeId(0), NodeId(1), budget).unwrap(),
            Estimate::exact(1.0)
        );
        let sc = updated.st_shortcircuit(NodeId(0), NodeId(6)).unwrap();
        let sc = sc.expect("impossible pair between untouched components");
        assert_eq!(
            (sc.value, sc.samples_used, sc.stopped_early),
            (0.0, 0, true)
        );
        assert_eq!(sc, updated.st(NodeId(0), NodeId(6), budget).unwrap());

        // A query into the touched component refuses the stale verdict and
        // samples instead.
        assert_eq!(updated.st_shortcircuit(NodeId(0), NodeId(5)).unwrap(), None);
        let e = updated.st(NodeId(0), NodeId(5), budget).unwrap();
        assert_eq!(e.value, 0.0);
        assert!(e.samples_used > 0, "sampled, not short-circuited");

        // An insert bridging two components has an endpoint in them, so
        // the bypass catches it: the pair now samples and can connect.
        let bridged = updated
            .apply_delta(&[GraphUpdate::Insert {
                src: NodeId(3),
                dst: NodeId(4),
                prob: 1.0,
            }])
            .unwrap();
        assert_eq!(bridged.st_shortcircuit(NodeId(0), NodeId(5)).unwrap(), None);
        assert!(bridged.st(NodeId(0), NodeId(5), budget).unwrap().value > 0.0);
    }

    #[test]
    fn delta_batches_answer_like_solo_queries() {
        // Components {0,1,2,3} (certain cycle {0,1}), {4,5}, {6,7}; the
        // update touches {4,5} only.
        let mut g = UncertainGraph::new(8, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.7).unwrap();
        g.add_edge(NodeId(6), NodeId(7), 0.4).unwrap();
        let budget = Budget::fixed(1_000);
        let updated = QueryEngine::from_snapshot(g.freeze(), McEstimator::new(1_000, 3))
            .apply_delta(&[GraphUpdate::SetProb {
                src: NodeId(4),
                dst: NodeId(5),
                prob: 0.9,
            }])
            .unwrap();
        let pairs = [
            (NodeId(0), NodeId(6)), // impossible: untouched components
            (NodeId(0), NodeId(1)), // certain: one certain supernode
            (NodeId(0), NodeId(3)), // sampled on the overlay
            (NodeId(0), NodeId(5)), // sampled: touched component
        ];
        let queries: Vec<_> = pairs.iter().map(|&(s, t)| BatchQuery::St(s, t)).collect();
        for threads in [1, 3] {
            let engine = updated.clone().with_runtime(ParallelRuntime::new(threads));
            let batch = engine.query().batch(&queries).budget(budget).run().unwrap();
            for (&(s, t), entry) in pairs.iter().zip(batch.batch().unwrap()) {
                let solo = engine.st(s, t, budget).unwrap();
                assert_eq!(
                    entry,
                    &BatchEstimate::Scalar(solo),
                    "st {s:?} {t:?} at {threads} thread(s)"
                );
            }
            let effort: Vec<_> = batch
                .batch()
                .unwrap()
                .iter()
                .map(|e| e.sampling_effort())
                .collect();
            assert_eq!(
                effort,
                [(0, true), (0, false), (1_000, false), (1_000, false)]
            );
        }
    }

    #[test]
    fn constrained_shapes_match_direct_estimator_calls() {
        let g = bridge();
        let csr = g.freeze();
        let est = McEstimator::new(2_000, 19);
        let budget = Budget::fixed(2_000);
        let engine = QueryEngine::from_parts(csr.clone(), None, est.clone());

        let a = engine
            .query()
            .st_within(NodeId(0), NodeId(3), 2)
            .budget(budget)
            .run()
            .unwrap();
        let direct = est
            .st_within_estimate(&csr, NodeId(0), NodeId(3), 2, budget)
            .unwrap();
        assert_eq!(a.scalar().unwrap(), &direct);

        let a = engine
            .query()
            .set(&[NodeId(0), NodeId(1)], &[NodeId(3)])
            .budget(budget)
            .run()
            .unwrap();
        let direct = est
            .set_estimate(&csr, &[NodeId(0), NodeId(1)], &[NodeId(3)], None, budget)
            .unwrap();
        assert_eq!(a.scalar().unwrap(), &direct);

        let a = engine
            .query()
            .set_within(&[NodeId(0)], &[NodeId(3)], 2)
            .budget(budget)
            .run()
            .unwrap();
        let direct = est
            .set_estimate(&csr, &[NodeId(0)], &[NodeId(3)], Some(2), budget)
            .unwrap();
        assert_eq!(a.scalar().unwrap(), &direct);

        let a = engine
            .query()
            .expected_hops(NodeId(0), NodeId(3))
            .budget(budget)
            .run()
            .unwrap();
        let direct = est
            .expected_hops_estimate(&csr, NodeId(0), NodeId(3), budget)
            .unwrap();
        assert_eq!(a.hops().unwrap(), &direct);

        let a = engine
            .query()
            .topk(NodeId(0), 2)
            .budget(budget)
            .run()
            .unwrap();
        let direct = est.topk_estimates(&csr, NodeId(0), 2, budget);
        assert_eq!(a.ranking().unwrap(), &direct[..]);
        assert_eq!(direct.len(), 2);
        // Source excluded, order non-increasing, ties by node id.
        assert!(direct.iter().all(|(v, _)| *v != NodeId(0)));
        assert!(direct[0].1.value >= direct[1].1.value);
    }

    #[test]
    fn constrained_shapes_error_on_unsupporting_estimators() {
        let g = bridge();
        let engine = QueryEngine::new(&g, RssEstimator::new(500, 9));
        let err = engine
            .query()
            .st_within(NodeId(0), NodeId(3), 2)
            .run()
            .unwrap_err();
        assert_eq!(err, QueryError::UnsupportedShape { shape: "st_within" });
        assert!(err.to_string().contains("st_within"));
        let err = engine
            .query()
            .set(&[NodeId(0)], &[NodeId(3)])
            .run()
            .unwrap_err();
        assert_eq!(err, QueryError::UnsupportedShape { shape: "set" });
        let err = engine
            .query()
            .expected_hops(NodeId(0), NodeId(3))
            .run()
            .unwrap_err();
        assert_eq!(err, QueryError::UnsupportedShape { shape: "hops" });
        // Batches are rejected up front — no per-item error channel.
        let err = engine
            .query()
            .batch(&[
                BatchQuery::St(NodeId(0), NodeId(3)),
                BatchQuery::StWithin(NodeId(0), NodeId(3), 2),
            ])
            .run()
            .unwrap_err();
        assert_eq!(err, QueryError::UnsupportedShape { shape: "st_within" });
        // Top-k rides on from_estimates and works everywhere.
        let a = engine.query().topk(NodeId(0), 3).run().unwrap();
        assert_eq!(a.ranking().unwrap().len(), 3);
    }

    #[test]
    fn constrained_batch_matches_solo_queries() {
        let g = bridge();
        let est = McEstimator::new(1_000, 27);
        let budget = Budget::fixed(1_000);
        let queries = vec![
            BatchQuery::StWithin(NodeId(0), NodeId(3), 2),
            BatchQuery::Set(vec![NodeId(0)], vec![NodeId(1), NodeId(3)], Some(3)),
            BatchQuery::TopK(NodeId(0), 2),
            BatchQuery::Hops(NodeId(0), NodeId(3)),
        ];
        let serial = QueryEngine::new(&g, est.clone());
        let parallel = QueryEngine::new(&g, est).with_runtime(ParallelRuntime::new(4));
        let a = serial.query().batch(&queries).budget(budget).run().unwrap();
        let b = parallel
            .query()
            .batch(&queries)
            .budget(budget)
            .run()
            .unwrap();
        assert_eq!(a, b); // bit-identical across batch runtimes
        let answers = a.batch().unwrap();
        assert_eq!(
            answers[0],
            BatchEstimate::Scalar(
                *serial
                    .query()
                    .st_within(NodeId(0), NodeId(3), 2)
                    .budget(budget)
                    .run()
                    .unwrap()
                    .scalar()
                    .unwrap()
            )
        );
        assert!(matches!(&answers[2], BatchEstimate::Ranking(r) if r.len() == 2));
        assert!(matches!(&answers[3], BatchEstimate::Hops(_)));
    }

    #[test]
    fn constrained_shapes_survive_delta_overlays() {
        // The overlay path detaches the index; constrained queries must
        // keep working there (they never route through the index anyway).
        let g = bridge();
        let budget = Budget::fixed(1_500);
        let engine = QueryEngine::from_snapshot(g.freeze(), McEstimator::with_budget(budget, 41));
        let updated = engine
            .apply_delta(&[GraphUpdate::SetProb {
                src: NodeId(0),
                dst: NodeId(1),
                prob: 0.9,
            }])
            .unwrap();
        // Oracle: the same mutation, refrozen.
        let mut g2 = bridge();
        g2.update_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let oracle =
            QueryEngine::from_parts(g2.freeze(), None, McEstimator::with_budget(budget, 41));
        assert_eq!(
            updated
                .query()
                .st_within(NodeId(0), NodeId(3), 2)
                .run()
                .unwrap(),
            oracle
                .query()
                .st_within(NodeId(0), NodeId(3), 2)
                .run()
                .unwrap()
        );
        assert_eq!(
            updated
                .query()
                .set(&[NodeId(0), NodeId(2)], &[NodeId(3)])
                .run()
                .unwrap(),
            oracle
                .query()
                .set(&[NodeId(0), NodeId(2)], &[NodeId(3)])
                .run()
                .unwrap()
        );
        assert_eq!(
            updated
                .query()
                .expected_hops(NodeId(0), NodeId(3))
                .run()
                .unwrap(),
            oracle
                .query()
                .expected_hops(NodeId(0), NodeId(3))
                .run()
                .unwrap()
        );
    }

    #[test]
    fn last_target_wins() {
        let g = bridge();
        let engine = QueryEngine::new(&g, McEstimator::new(100, 1));
        let answer = engine
            .query()
            .from(NodeId(0))
            .st(NodeId(0), NodeId(3))
            .run()
            .unwrap();
        assert!(answer.scalar().is_some());
    }
}
