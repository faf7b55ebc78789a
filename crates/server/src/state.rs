//! Serving state: the immutable snapshot behind an atomically swappable
//! `Arc`, the loader that builds one from disk, and the estimator
//! dispatch the compute pool runs queries through. The `relmax` CLI
//! verbs open, index, fold and query graph files through the same
//! functions, so every front end makes each of those decisions in one
//! place.

use relmax_core::{QueryAnswer, QueryEngine, QueryError};
use relmax_gen::workload::{QuerySpec, WireSpec};
use relmax_sampling::{
    BatchEstimate, BatchQuery, Budget, Estimate, McEstimator, ParallelRuntime, RssEstimator,
};
use relmax_ugraph::edgelist::{self, EdgeListOptions};
use relmax_ugraph::{snapshot, CsrGraph, DeltaOverlay, IndexSection, NodeId, RelIndex};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One immutable generation of serving state. Requests pin a generation
/// by cloning the `Arc` once, so a concurrent `/reload` can never tear a
/// response: everything a request renders comes from the same snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The frozen graph (shared with every engine built over it).
    pub csr: Arc<CsrGraph>,
    /// The reliability index, if enabled (rebuilt or loaded from the
    /// `.rgs` index section).
    pub index: Option<Arc<RelIndex>>,
    /// Monotonic generation id, echoed in every response.
    pub generation: u64,
    /// `.rgs` format version the graph was loaded from (0 for text
    /// edge-list ingests, which have no snapshot header).
    pub format_version: u32,
    /// The path the snapshot was loaded from.
    pub path: String,
    /// Whether the source `.rgs` file embedded an index section.
    /// Compaction persists an index section only when this is set (see
    /// [`fold_and_save`]).
    pub index_stored: bool,
    /// Pending graph updates layered over `csr` by `POST /update`
    /// (`None` for freshly loaded or compacted snapshots). The overlay is
    /// built over this exact `csr` `Arc`; engines attach it so queries
    /// see the updated graph without a re-freeze, and compaction folds it
    /// back into a fresh delta-free snapshot.
    pub delta: Option<Arc<DeltaOverlay>>,
}

impl Snapshot {
    /// How many updates are layered over the frozen graph (0 when
    /// `delta` is `None`).
    pub fn pending_updates(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.pending())
    }

    /// Coin count of the graph actually being served: the overlay
    /// extends the base coin space with one appended coin per insert or
    /// re-probe, and responses must report the dimensions queries run
    /// against.
    pub fn num_coins(&self) -> usize {
        use relmax_ugraph::ProbGraph;
        self.delta.as_ref().map_or_else(
            || self.csr.num_coins(),
            |d| ProbGraph::num_coins(d.as_ref()),
        )
    }
}

/// Open a graph file — the one loader behind every `relmax` verb that
/// takes a `GRAPH` argument, `serve` included. The format is sniffed from
/// the magic bytes, never the file extension: a `.rgs` snapshot is mapped
/// zero-copy (`RELMAX_MMAP=off` opts out), so its columns live in the
/// page cache rather than a heap copy; a text edge list streams through
/// [`edgelist::freeze_path`] under `text` (file directives win). Returns
/// the frozen graph, the snapshot's stored index section if any, and the
/// `.rgs` format version (0 for text). Errors are strings ready for a CLI
/// message or a `409` body.
pub fn load_graph(
    path: &str,
    text: &EdgeListOptions,
) -> Result<(CsrGraph, Option<IndexSection>, u32), String> {
    let p = Path::new(path);
    let mut head = Vec::with_capacity(8);
    File::open(p)
        .map_err(|e| format!("cannot open {path}: {e}"))?
        .take(8)
        .read_to_end(&mut head)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    if snapshot::is_snapshot(&head) {
        let (csr, section) = snapshot::open_full(p).map_err(|e| format!("{path}: {e}"))?;
        let version = snapshot::peek_version(&head).unwrap_or(0);
        Ok((csr, section, version))
    } else {
        let (csr, _) = edgelist::freeze_path(p, text).map_err(|e| format!("{path}: {e}"))?;
        Ok((csr, None, 0))
    }
}

/// [`load_graph`] into a generation-1 [`Snapshot`] (a swap restamps the
/// generation), with the one index-resolution rule: the stored section,
/// validated against the graph, else an index rebuilt from the graph,
/// else none when `use_index` is off (`--no-index`). Every estimate value
/// is bit-identical either way; the index only decides how much is
/// sampled.
pub fn load_snapshot(
    path: &str,
    text: &EdgeListOptions,
    use_index: bool,
) -> Result<Snapshot, String> {
    let (csr, section, format_version) = load_graph(path, text)?;
    let index_stored = section.is_some();
    let index = match (use_index, section) {
        (false, _) => None,
        (true, Some(section)) => Some(
            RelIndex::from_section(&csr, &section)
                .map_err(|e| format!("{path}: stored index section: {e}"))?,
        ),
        (true, None) => Some(RelIndex::build(&csr)),
    };
    Ok(Snapshot {
        csr: Arc::new(csr),
        index: index.map(Arc::new),
        generation: 1,
        format_version,
        path: path.to_string(),
        index_stored,
        delta: None,
    })
}

/// Fold `delta` into a fresh delta-free graph and write it to `out` as a
/// current-format `.rgs` — `relmax update` and server compaction both
/// land here. The reliability index is rebuilt over the folded graph (the
/// updates may merge or split components, so an old section is never
/// reused) whenever it is needed: the file embeds its section when
/// `stored` says the source file carried one, so both front ends write
/// the same bytes for the same input whether or not they serve with an
/// index; the index itself is returned only when `index` asks for it.
pub fn fold_and_save(
    delta: &DeltaOverlay,
    index: bool,
    stored: bool,
    out: &str,
) -> Result<(CsrGraph, Option<RelIndex>), String> {
    let csr = delta.compact();
    let built = (index || stored).then(|| RelIndex::build(&csr));
    let section = built.as_ref().filter(|_| stored).map(RelIndex::section);
    snapshot::save_full(&csr, section.as_ref(), out).map_err(|e| format!("{out}: {e}"))?;
    Ok((csr, built.filter(|_| index)))
}

/// The hot-swappable snapshot slot. Readers take the lock only long
/// enough to clone the `Arc`; the swap assigns the next generation id
/// under the same lock, so generations are strictly monotonic even under
/// concurrent reloads.
#[derive(Debug)]
pub struct SharedSnapshot {
    inner: Mutex<Arc<Snapshot>>,
}

impl SharedSnapshot {
    /// Wrap the initial generation.
    pub fn new(snapshot: Snapshot) -> Self {
        SharedSnapshot {
            inner: Mutex::new(Arc::new(snapshot)),
        }
    }

    /// Pin the current generation.
    pub fn get(&self) -> Arc<Snapshot> {
        self.inner.lock().expect("snapshot lock").clone()
    }

    /// Install a freshly loaded snapshot, stamping it with the next
    /// generation id. Returns the pinned new generation.
    pub fn swap(&self, mut snapshot: Snapshot) -> Arc<Snapshot> {
        let mut slot = self.inner.lock().expect("snapshot lock");
        snapshot.generation = slot.generation + 1;
        let next = Arc::new(snapshot);
        *slot = next.clone();
        next
    }

    /// Compare-and-swap install: stamp and install `snapshot` only if
    /// the currently served generation is still `expected` — otherwise
    /// return `None` and leave the slot untouched. `/update` and the
    /// background compactor build their snapshots against a pinned
    /// generation outside the lock, so a concurrent reload (or another
    /// update) must abort the stale install rather than overwrite it.
    pub fn swap_if_generation(
        &self,
        mut snapshot: Snapshot,
        expected: u64,
    ) -> Option<Arc<Snapshot>> {
        let mut slot = self.inner.lock().expect("snapshot lock");
        if slot.generation != expected {
            return None;
        }
        snapshot.generation = slot.generation + 1;
        let next = Arc::new(snapshot);
        *slot = next.clone();
        Some(next)
    }
}

/// Which estimator family a request runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Plain Monte Carlo.
    Mc,
    /// Recursive stratified sampling.
    Rss,
}

impl EngineKind {
    /// Parse the `--estimator` flag's value (`mc` | `rss`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mc" => Ok(EngineKind::Mc),
            "rss" => Ok(EngineKind::Rss),
            other => Err(format!("--estimator must be `mc` or `rss`, got {other:?}")),
        }
    }

    /// The wire name (the flag spelling).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Mc => "mc",
            EngineKind::Rss => "rss",
        }
    }
}

/// Monomorphized [`QueryEngine`] dispatch. Construction is O(1) in graph
/// size (the graph and index are shared `Arc`s), so every request — and
/// every compute job — builds its own engine carrying the request's seed
/// and budget.
pub enum AnyEngine {
    /// Monte Carlo engine.
    Mc(QueryEngine<McEstimator>),
    /// RSS engine.
    Rss(QueryEngine<RssEstimator>),
}

impl AnyEngine {
    /// Build an engine over a pinned snapshot. If the snapshot carries a
    /// delta overlay, the engine routes every query through it (and
    /// detaches the per-estimate index fast path; the engine-level
    /// component bypass still short-circuits untouched components), so
    /// answers reflect the updated graph without a re-freeze.
    pub fn build(snap: &Snapshot, kind: EngineKind, budget: Budget, seed: u64) -> Self {
        let csr = snap.csr.clone();
        let index = snap.index.clone();
        match kind {
            EngineKind::Mc => {
                let mut e =
                    QueryEngine::from_shared(csr, index, McEstimator::with_budget(budget, seed));
                if let Some(delta) = &snap.delta {
                    e = e.with_delta(delta.clone());
                }
                AnyEngine::Mc(e)
            }
            EngineKind::Rss => {
                let mut e =
                    QueryEngine::from_shared(csr, index, RssEstimator::with_budget(budget, seed));
                if let Some(delta) = &snap.delta {
                    e = e.with_delta(delta.clone());
                }
                AnyEngine::Rss(e)
            }
        }
    }

    /// Set the runtime that fans a [`AnyEngine::batch`] out across
    /// workers (answers are bit-identical at every thread count).
    pub fn with_runtime(self, runtime: ParallelRuntime) -> Self {
        match self {
            AnyEngine::Mc(e) => AnyEngine::Mc(e.with_runtime(runtime)),
            AnyEngine::Rss(e) => AnyEngine::Rss(e.with_runtime(runtime)),
        }
    }

    /// Answer a whole batch under `budget` (the `relmax query` path).
    pub fn batch(
        &self,
        queries: &[BatchQuery],
        budget: Budget,
    ) -> Result<Vec<BatchEstimate>, QueryError> {
        let answer = match self {
            AnyEngine::Mc(e) => e.query().batch(queries).budget(budget).run()?,
            AnyEngine::Rss(e) => e.query().batch(queries).budget(budget).run()?,
        };
        match answer {
            QueryAnswer::Batch(results) => Ok(results),
            _ => unreachable!("batch queries yield batch answers"),
        }
    }

    /// Whether an st query can be answered without sampling (trivial
    /// `s == t`, or a reliability-index `Certain`/`Impossible` plan).
    pub fn st_shortcircuit(&self, s: NodeId, t: NodeId) -> Result<Option<Estimate>, QueryError> {
        match self {
            AnyEngine::Mc(e) => e.st_shortcircuit(s, t),
            AnyEngine::Rss(e) => e.st_shortcircuit(s, t),
        }
    }

    /// Whether this engine's estimator guarantees that, under a fixed
    /// budget, `from_vector(s)[t]` equals the `st` answer for `(s, t)` bit
    /// for bit on every pair [`AnyEngine::st_shortcircuit`] does not
    /// answer (see `Estimator::coalescable_st`). No server path calls it;
    /// only e2ebench's traced replay does.
    pub fn coalescable_st(&self) -> bool {
        match self {
            AnyEngine::Mc(e) => e.coalescable_st(),
            AnyEngine::Rss(e) => e.coalescable_st(),
        }
    }

    /// The full `R(s, ·)` vector under `budget`, as a `from` query
    /// answers it. No server path calls it; only e2ebench's traced
    /// replay does.
    pub fn from_vector(&self, s: NodeId, budget: Budget) -> Result<Vec<Estimate>, QueryError> {
        let answer = match self {
            AnyEngine::Mc(e) => e.query().from(s).budget(budget).run()?,
            AnyEngine::Rss(e) => e.query().from(s).budget(budget).run()?,
        };
        match answer {
            QueryAnswer::Vector(v) => Ok(v),
            _ => unreachable!("from queries yield vectors"),
        }
    }

    /// Whether the underlying estimator answers constrained shapes
    /// (hop-bounded st, set reliability, expected hops). The request
    /// handler rejects unsupported shapes with a `422` before enqueueing.
    pub fn supports_constrained(&self) -> bool {
        use relmax_sampling::Estimator;
        match self {
            AnyEngine::Mc(e) => e.estimator().supports_constrained(),
            AnyEngine::Rss(e) => e.estimator().supports_constrained(),
        }
    }

    /// Run one wire query spec under `budget`. `max_hops` is the
    /// request-level `% max-hops` bound, applied by [`batch_query`].
    pub fn run_spec(
        &self,
        spec: &WireSpec,
        budget: Budget,
        max_hops: Option<u32>,
    ) -> Result<QueryAnswer, QueryError> {
        macro_rules! run {
            ($e:expr) => {{
                let q = $e.query().budget(budget);
                match spec {
                    WireSpec::Query(q_spec) => q.target(batch_query(q_spec, max_hops)),
                    WireSpec::Pairwise { sources, targets } => q.pairwise(sources, targets),
                }
                .run()
            }};
        }
        match self {
            AnyEngine::Mc(e) => run!(e),
            AnyEngine::Rss(e) => run!(e),
        }
    }
}

/// The engine query a workload spec asks for under the effective hop
/// bound `max_hops` (CLI `--max-hops`, or a `% max-hops` directive): a
/// bounded `st` becomes `st_within` and a `set` carries the bound; every
/// other shape ignores it (see `QuerySpec::hop_boundable`). `relmax query`
/// and `POST /query` both resolve specs here, so they agree on the query
/// *and* on whether it is constrained ([`BatchQuery::is_constrained`]).
pub fn batch_query(q: &QuerySpec, max_hops: Option<u32>) -> BatchQuery {
    match (q, max_hops) {
        (QuerySpec::St(s, t), Some(d)) => BatchQuery::StWithin(*s, *t, d),
        (QuerySpec::St(s, t), None) => BatchQuery::St(*s, *t),
        (QuerySpec::From(s), _) => BatchQuery::From(*s),
        (QuerySpec::To(t), _) => BatchQuery::To(*t),
        (QuerySpec::Set(sources, targets), d) => {
            BatchQuery::Set(sources.clone(), targets.clone(), d)
        }
        (QuerySpec::TopK(s, k), _) => BatchQuery::TopK(*s, *k),
        (QuerySpec::Hops(s, t), _) => BatchQuery::Hops(*s, *t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        let mut g = relmax_ugraph::UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let csr = g.freeze();
        let index = Some(Arc::new(RelIndex::build(&csr)));
        Snapshot {
            csr: Arc::new(csr),
            index,
            generation: 1,
            format_version: 2,
            path: "mem".to_string(),
            index_stored: false,
            delta: None,
        }
    }

    #[test]
    fn swap_assigns_monotonic_generations() {
        let shared = SharedSnapshot::new(tiny_snapshot());
        assert_eq!(shared.get().generation, 1);
        let g2 = shared.swap(tiny_snapshot());
        assert_eq!(g2.generation, 2);
        assert_eq!(shared.get().generation, 2);
        let g3 = shared.swap(tiny_snapshot());
        assert_eq!(g3.generation, 3);
    }

    #[test]
    fn conditional_swap_aborts_on_stale_generation() {
        let shared = SharedSnapshot::new(tiny_snapshot());
        // Built against generation 1 and installed before anything moved.
        let g2 = shared.swap_if_generation(tiny_snapshot(), 1).unwrap();
        assert_eq!(g2.generation, 2);
        // A snapshot still built against generation 1 lost the race.
        assert!(shared.swap_if_generation(tiny_snapshot(), 1).is_none());
        assert_eq!(shared.get().generation, 2);
    }

    #[test]
    fn delta_snapshots_route_queries_through_the_overlay() {
        let base = tiny_snapshot();
        // Delete the only 1 -> 2 edge: R(0, 2) must drop to zero.
        let mut overlay = DeltaOverlay::new(base.csr.clone());
        overlay
            .apply(&[relmax_ugraph::GraphUpdate::Delete {
                src: NodeId(1),
                dst: NodeId(2),
            }])
            .unwrap();
        let snap = Snapshot {
            delta: Some(Arc::new(overlay)),
            ..base
        };
        assert_eq!(snap.pending_updates(), 1);
        let budget = Budget::fixed(64);
        let mc = AnyEngine::build(&snap, EngineKind::Mc, budget, 7);
        let spec = WireSpec::Query(QuerySpec::St(NodeId(0), NodeId(2)));
        let ans = mc.run_spec(&spec, budget, None).unwrap();
        assert_eq!(ans.scalar().unwrap().value, 0.0);
        // `st` equals the `from` entry on the overlay too.
        let vec = mc.from_vector(NodeId(0), budget).unwrap();
        assert_eq!(ans.scalar().unwrap(), &vec[2]);
    }

    #[test]
    fn engine_dispatch_reports_the_st_from_contract() {
        let snap = tiny_snapshot();
        let budget = Budget::fixed(64);
        let mc = AnyEngine::build(&snap, EngineKind::Mc, budget, 7);
        let rss = AnyEngine::build(&snap, EngineKind::Rss, budget, 7);
        assert!(mc.coalescable_st());
        assert!(!rss.coalescable_st());
        // `st` equals the `from` entry, end to end through the dispatch
        // layer.
        let vec = mc.from_vector(NodeId(0), budget).unwrap();
        let spec = WireSpec::Query(QuerySpec::St(NodeId(0), NodeId(2)));
        let solo = mc.run_spec(&spec, budget, None).unwrap();
        assert_eq!(solo.scalar().unwrap(), &vec[2]);
    }

    #[test]
    fn batch_query_applies_the_hop_bound_where_it_belongs() {
        let (s, t) = (NodeId(0), NodeId(2));
        let set = QuerySpec::Set(vec![s], vec![NodeId(1), t]);
        let cases = [
            (
                QuerySpec::St(s, t),
                BatchQuery::St(s, t),
                BatchQuery::StWithin(s, t, 2),
            ),
            (QuerySpec::From(s), BatchQuery::From(s), BatchQuery::From(s)),
            (QuerySpec::To(t), BatchQuery::To(t), BatchQuery::To(t)),
            (
                set,
                BatchQuery::Set(vec![s], vec![NodeId(1), t], None),
                BatchQuery::Set(vec![s], vec![NodeId(1), t], Some(2)),
            ),
            (
                QuerySpec::TopK(s, 3),
                BatchQuery::TopK(s, 3),
                BatchQuery::TopK(s, 3),
            ),
            (
                QuerySpec::Hops(s, t),
                BatchQuery::Hops(s, t),
                BatchQuery::Hops(s, t),
            ),
        ];
        for (spec, unbounded, bounded) in cases {
            assert_eq!(batch_query(&spec, None), unbounded, "{spec}");
            assert_eq!(
                batch_query(&spec, Some(2)),
                bounded,
                "{spec} under max-hops 2"
            );
            // The bound reaches exactly the hop-boundable shapes.
            assert_eq!(unbounded != bounded, spec.hop_boundable(), "{spec}");
        }
        // Constrained: set and hops always, st only under a bound.
        let constrained = |spec: &QuerySpec, d| batch_query(spec, d).is_constrained();
        assert!(!constrained(&QuerySpec::St(s, t), None));
        assert!(constrained(&QuerySpec::St(s, t), Some(2)));
        for spec in [QuerySpec::Set(vec![s], vec![t]), QuerySpec::Hops(s, t)] {
            assert!(
                constrained(&spec, None) && constrained(&spec, Some(2)),
                "{spec}"
            );
        }
        for spec in [QuerySpec::From(s), QuerySpec::To(t), QuerySpec::TopK(s, 3)] {
            assert!(
                !constrained(&spec, None) && !constrained(&spec, Some(2)),
                "{spec}"
            );
        }
    }

    #[test]
    fn shortcircuit_covers_trivial_and_index_plans() {
        let snap = tiny_snapshot();
        let mc = AnyEngine::build(&snap, EngineKind::Mc, Budget::fixed(8), 1);
        let same = mc.st_shortcircuit(NodeId(1), NodeId(1)).unwrap().unwrap();
        assert_eq!(same.value, 1.0);
        // 2 -> 0 has no path in this DAG: the index proves impossibility.
        let imp = mc.st_shortcircuit(NodeId(2), NodeId(0)).unwrap().unwrap();
        assert_eq!(imp.value, 0.0);
        assert!(mc.st_shortcircuit(NodeId(0), NodeId(2)).unwrap().is_none());
        assert!(mc.st_shortcircuit(NodeId(0), NodeId(9)).is_err());
    }
}
