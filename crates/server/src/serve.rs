//! The service itself: configuration, the accept/IO/compute pipeline,
//! and the six-endpoint router (`/healthz`, `/metrics`, `/query`,
//! `/reload`, `/update`, `/compact`).
//!
//! ## Pipeline
//!
//! ```text
//! acceptor ──► bounded connection queue ──► IO workers ──► job queue ──► compute workers
//!    │              (admission control:          │  parse HTTP + body,        │  coalesce +
//!    └─ 503 + Retry-After on overflow            │  answer GET endpoints,     │  sample
//!                                                │  enqueue query jobs,
//!                                                └─ block on result slots
//! ```
//!
//! Every response carries `Connection: close`; the connection queue is
//! the only buffer, so `--queue-cap` bounds the number of requests the
//! server will hold before shedding load.

use crate::http::{self, HttpError, Request, Response};
use crate::json;
use crate::metrics::Metrics;
use crate::render;
use crate::state::{
    batch_query, fold_and_save, load_snapshot, AnyEngine, EngineKind, SharedSnapshot, Snapshot,
};
use crate::work::{spawn_compute_pool, Job, JobQueue, Slot};
use relmax_core::QueryAnswer;
use relmax_gen::updates::{self, UpdateRequest};
use relmax_gen::workload::{self, QuerySpec, WireSpec, WorkloadError};
use relmax_sampling::convergence::DEFAULT_MAX_SAMPLES;
use relmax_sampling::{BatchEstimate, Budget};
use relmax_ugraph::edgelist::EdgeListOptions;
use relmax_ugraph::{snapshot, DeltaOverlay, ProbGraph};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server configuration (the CLI's `relmax serve` flags, resolved).
#[derive(Debug, Clone)]
pub struct Config {
    /// Path to the graph to serve (`.rgs` snapshot or text edge list).
    pub snapshot_path: String,
    /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port; the
    /// chosen one is printed on the `listening on …` line).
    pub port: u16,
    /// Compute workers (sampling passes run here).
    pub threads: usize,
    /// IO workers (HTTP parsing + response writing); 0 sizes the pool
    /// automatically from `threads`.
    pub io_threads: usize,
    /// Admission bound: connections queued beyond this are refused with
    /// `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Default seed when a request body pins none (`% seed S`).
    pub seed: u64,
    /// Default budget when a request body carries no `% accuracy`
    /// directive.
    pub budget: Budget,
    /// Estimator family serving the process.
    pub estimator: EngineKind,
    /// Whether the reliability index is built/loaded (false under
    /// `--no-index`).
    pub use_index: bool,
    /// Fold the delta overlay into a fresh snapshot in the background
    /// once this many updates are pending (`None` disables the
    /// automatic trigger; `POST /compact` always works).
    pub compact_after: Option<usize>,
}

impl Config {
    /// Defaults matching `relmax query`: MC estimator, 1000 worlds, seed
    /// 42, index on, ephemeral port.
    pub fn new(snapshot_path: impl Into<String>) -> Self {
        Config {
            snapshot_path: snapshot_path.into(),
            port: 0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            io_threads: 0,
            queue_cap: 64,
            seed: 42,
            budget: Budget::FixedSamples(1000),
            estimator: EngineKind::Mc,
            use_index: true,
            compact_after: None,
        }
    }

    fn resolved_io_threads(&self) -> usize {
        if self.io_threads > 0 {
            self.io_threads
        } else {
            (self.threads * 4).clamp(4, 32)
        }
    }
}

/// The bounded connection queue between the acceptor and the IO pool.
struct ConnQueue {
    inner: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Admit the connection, or hand it back when the queue is full.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().expect("conn queue lock");
        if q.len() >= self.cap {
            return Err(stream);
        }
        q.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    fn pop(&self) -> TcpStream {
        let mut q = self.inner.lock().expect("conn queue lock");
        loop {
            if let Some(s) = q.pop_front() {
                return s;
            }
            q = self.cv.wait(q).expect("conn queue lock");
        }
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("conn queue lock").len()
    }
}

/// Everything the workers share.
struct ServerState {
    config: Config,
    snapshot: SharedSnapshot,
    metrics: Arc<Metrics>,
    jobs: Arc<JobQueue>,
    conns: Arc<ConnQueue>,
    /// Serializes `/update` batches: concurrent updates queue on this
    /// lock instead of losing the generation CAS and surfacing spurious
    /// 409s. Reloads and compaction installs stay lock-free — the CAS in
    /// [`SharedSnapshot::swap_if_generation`] arbitrates those races.
    updates: Mutex<()>,
    /// Claimed by the automatic background compactor so an update storm
    /// spawns one folding thread, not one per batch over the threshold.
    compacting: AtomicBool,
}

/// Load the snapshot, bind, print the `listening on http://…` line, and
/// serve forever. Returns only on startup errors.
pub fn run(config: Config) -> Result<(), String> {
    let initial = load_snapshot(
        &config.snapshot_path,
        &EdgeListOptions::default(),
        config.use_index,
    )?;
    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", config.port))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // The harness reads this line to learn the ephemeral port; flush so
    // it is visible before the first request arrives.
    println!("listening on http://{addr}");
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving {} ({} nodes, {} edges, generation 1) with {} compute / {} io workers",
        config.snapshot_path,
        initial.csr.num_nodes(),
        initial.csr.num_coins(),
        config.threads,
        config.resolved_io_threads(),
    );

    let slow = test_slowdown();
    let state = Arc::new(ServerState {
        snapshot: SharedSnapshot::new(initial),
        metrics: Arc::new(Metrics::new()),
        jobs: JobQueue::new(),
        conns: ConnQueue::new(config.queue_cap),
        config,
        updates: Mutex::new(()),
        compacting: AtomicBool::new(false),
    });
    spawn_compute_pool(
        state.config.threads,
        state.jobs.clone(),
        state.metrics.clone(),
        slow,
    );
    for _ in 0..state.config.resolved_io_threads() {
        let state = state.clone();
        std::thread::spawn(move || loop {
            let stream = state.conns.pop();
            handle_conn(stream, &state);
        });
    }

    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if let Err(stream) = state.conns.try_push(stream) {
            Metrics::add(&state.metrics.rejected_total, 1);
            reject_overloaded(stream);
        }
    }
    Ok(())
}

/// The `RELMAX_SERVE_TEST_SLOW_MS` hook: a post-dequeue sleep in every
/// compute worker so tests can deterministically fill the queues behind
/// an inflight job (coalescing, admission control, generation pinning).
fn test_slowdown() -> Option<Duration> {
    let ms: u64 = std::env::var("RELMAX_SERVE_TEST_SLOW_MS")
        .ok()?
        .parse()
        .ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Write the 503 directly from the acceptor thread: shedding load must
/// not depend on the (saturated) worker pools.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let resp = Response::json(
        503,
        json::error("server overloaded: connection queue is full"),
    )
    .with_header("Retry-After: 1");
    let _ = resp.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_conn(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let response = match http::read_request(&mut stream) {
        Ok(req) => {
            Metrics::add(&state.metrics.http_requests_total, 1);
            route(&req, state)
        }
        Err(HttpError::Disconnect) => return,
        Err(HttpError::BadRequest(msg)) => Response::json(400, json::error(&msg)),
        Err(HttpError::LengthRequired) => Response::json(
            411,
            json::error("POST requests must carry a Content-Length header"),
        ),
        Err(HttpError::PayloadTooLarge) => Response::json(
            413,
            json::error(&format!(
                "request body exceeds the {} byte limit",
                http::MAX_BODY_BYTES
            )),
        ),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn route(req: &Request, state: &Arc<ServerState>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics_page(state),
        ("POST", "/query") => query(state, &req.body),
        ("POST", "/reload") => reload(state, &req.body),
        ("POST", "/update") => update(state, &req.body),
        ("POST", "/compact") => compact_now(state),
        (_, "/healthz" | "/metrics") => Response::json(
            405,
            json::error(&format!("{} does not allow {}", req.path, req.method)),
        )
        .with_header("Allow: GET"),
        (_, "/query" | "/reload" | "/update" | "/compact") => Response::json(
            405,
            json::error(&format!("{} does not allow {}", req.path, req.method)),
        )
        .with_header("Allow: POST"),
        _ => Response::json(
            404,
            json::error(&format!(
                "no such endpoint {} (have /healthz, /metrics, /query, /reload, /update, /compact)",
                req.path
            )),
        ),
    }
}

fn healthz(state: &ServerState) -> Response {
    let snap = state.snapshot.get();
    Response::json(
        200,
        format!(
            "{{\"generation\":{},\"snapshot_version\":{},\"nodes\":{},\"edges\":{},\"directed\":{},\"index\":{},\"pending_updates\":{},\"estimator\":\"{}\"}}",
            snap.generation,
            snap.format_version,
            snap.csr.num_nodes(),
            snap.num_coins(),
            snap.csr.is_directed(),
            snap.index.is_some(),
            snap.pending_updates(),
            state.config.estimator.name(),
        ),
    )
}

fn metrics_page(state: &ServerState) -> Response {
    let generation = state.snapshot.get().generation;
    Response::text(
        200,
        state.metrics.render(
            generation,
            state.conns.depth(),
            state.config.queue_cap,
            state.config.threads,
            state.config.resolved_io_threads(),
        ),
    )
}

fn reload(state: &ServerState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, json::error("reload body is not valid UTF-8"));
    };
    let current = state.snapshot.get();
    let path = match text.trim() {
        "" => current.path.clone(),
        p => p.to_string(),
    };
    // Load outside the snapshot lock: queries keep flowing against the
    // old generation while the new one parses and validates.
    match load_snapshot(&path, &EdgeListOptions::default(), state.config.use_index) {
        Ok(snapshot) => {
            let pinned = state.snapshot.swap(snapshot);
            Metrics::add(&state.metrics.reloads_total, 1);
            Response::json(
                200,
                format!(
                    "{{\"generation\":{},\"snapshot_version\":{},\"nodes\":{},\"edges\":{},\"directed\":{}}}",
                    pinned.generation,
                    pinned.format_version,
                    pinned.csr.num_nodes(),
                    pinned.csr.num_coins(),
                    pinned.csr.is_directed(),
                ),
            )
        }
        Err(msg) => {
            // The old Arc keeps serving untouched; the caller learns why.
            Metrics::add(&state.metrics.reload_failures_total, 1);
            Response::json(409, json::error(&msg))
        }
    }
}

/// `POST /update` — apply a batch of graph updates as a delta overlay.
///
/// The batch is all-or-nothing: it parses fully (else `400`), passes the
/// optional `% expect-generation` guard (else `409`), and every record
/// applies cleanly (else `422` naming the first offender) before a new
/// generation is installed. The new snapshot shares the frozen graph and
/// index `Arc`s with the old one and differs only in the overlay, so
/// installation is O(1) and queries pinned to the old `Arc` are
/// untouched. A concurrent `/reload` that wins the install race turns
/// into a `409` here (the overlay was built against a graph no longer
/// being served).
fn update(state: &Arc<ServerState>, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        Metrics::add(&state.metrics.update_failures_total, 1);
        return Response::json(400, json::error("update body is not valid UTF-8"));
    };
    let UpdateRequest {
        updates: batch,
        expect_generation,
    } = match updates::parse_update_request_str(text) {
        Ok(r) => r,
        Err(WorkloadError::BadRecord { line, reason }) => {
            Metrics::add(&state.metrics.update_failures_total, 1);
            return Response::json(400, json::error_at_line(line, &reason));
        }
        Err(e) => {
            Metrics::add(&state.metrics.update_failures_total, 1);
            return Response::json(400, json::error(&e.to_string()));
        }
    };
    if batch.is_empty() {
        Metrics::add(&state.metrics.update_failures_total, 1);
        return Response::json(400, json::error("request contains no updates"));
    }

    // Serialize update batches: concurrent POST /update calls line up
    // here instead of racing the generation CAS below.
    let _guard = state.updates.lock().expect("update lock");
    let current = state.snapshot.get();
    if let Some(expected) = expect_generation {
        if current.generation != expected {
            Metrics::add(&state.metrics.update_failures_total, 1);
            return Response::json(
                409,
                json::error(&format!(
                    "expected generation {expected} but the server is at generation {}",
                    current.generation
                )),
            );
        }
    }
    let mut overlay = match &current.delta {
        Some(d) => d.as_ref().clone(),
        None => DeltaOverlay::new(current.csr.clone()),
    };
    for (i, u) in batch.iter().enumerate() {
        if let Err(e) = overlay.apply_one(u) {
            Metrics::add(&state.metrics.update_failures_total, 1);
            return Response::json(422, json::error_at_update(i + 1, &e.to_string()));
        }
    }
    let pending = overlay.pending();
    let next = Snapshot {
        csr: current.csr.clone(),
        index: current.index.clone(),
        generation: 0,
        format_version: current.format_version,
        path: current.path.clone(),
        index_stored: current.index_stored,
        delta: Some(Arc::new(overlay)),
    };
    match state.snapshot.swap_if_generation(next, current.generation) {
        Some(pinned) => {
            Metrics::add(&state.metrics.updates_total, batch.len() as u64);
            maybe_spawn_compaction(state, pending);
            Response::json(
                200,
                format!(
                    "{{\"generation\":{},\"applied\":{},\"pending_updates\":{pending}}}",
                    pinned.generation,
                    batch.len(),
                ),
            )
        }
        None => {
            Metrics::add(&state.metrics.update_failures_total, 1);
            Response::json(
                409,
                json::error("snapshot generation changed while applying updates; retry"),
            )
        }
    }
}

/// Fold the pending overlay into a fresh delta-free snapshot: re-freeze
/// through the overlay (bit-identical to freezing the updated graph from
/// scratch), rebuild the index if one is serving, persist a current-format
/// `.rgs` next to the source file, and CAS-install the result — reopened
/// through the trusted zero-copy map, so the new generation serves from
/// the page cache.
///
/// Runs on the calling IO thread (`POST /compact`) or a detached
/// background thread (the `--compact-after` trigger) — never on the
/// compute pool, so in-flight queries keep sampling against their pinned
/// snapshots throughout. If an update or reload installs a newer
/// generation while folding, the result is discarded (`409`): the
/// compaction was of a graph no longer being served.
fn compact_now(state: &ServerState) -> Response {
    let pinned = state.snapshot.get();
    let Some(delta) = pinned.delta.clone() else {
        return Response::json(
            200,
            format!(
                "{{\"generation\":{},\"compacted\":false,\"pending_updates\":0}}",
                pinned.generation
            ),
        );
    };
    if let Some(ms) = test_slow_compact() {
        std::thread::sleep(ms);
    }
    let out_path = compacted_path(&pinned.path);
    let folded = fold_and_save(
        &delta,
        pinned.index.is_some(),
        pinned.index_stored,
        &out_path,
    );
    let (csr, index) = match folded {
        Ok(folded) => folded,
        Err(e) => {
            Metrics::add(&state.metrics.compaction_failures_total, 1);
            return Response::json(500, json::error(&e));
        }
    };
    // Install the generation through the trusted reopen of the file just
    // written: mapped by default, the swapped-in columns live in the page
    // cache instead of keeping a second heap copy alive (under
    // `RELMAX_MMAP=off` they borrow one heap buffer read from the file),
    // and the geometry re-validation catches torn writes. The folded
    // graph in hand is the (bit-identical) fallback if the reopen fails.
    let csr = match snapshot::open_full_trusted(&out_path) {
        Ok((mapped, _)) => mapped,
        Err(_) => csr,
    };
    let next = Snapshot {
        csr: Arc::new(csr),
        index_stored: index.is_some() && pinned.index_stored,
        index: index.map(Arc::new),
        generation: 0,
        format_version: snapshot::FORMAT_VERSION,
        path: out_path.clone(),
        delta: None,
    };
    match state.snapshot.swap_if_generation(next, pinned.generation) {
        Some(installed) => {
            Metrics::add(&state.metrics.compactions_total, 1);
            Response::json(
                200,
                format!(
                    "{{\"generation\":{},\"compacted\":true,\"pending_updates\":0,\"snapshot\":\"{}\"}}",
                    installed.generation,
                    json::escape(&out_path),
                ),
            )
        }
        None => {
            Metrics::add(&state.metrics.compaction_failures_total, 1);
            Response::json(
                409,
                json::error("snapshot generation changed during compaction; retry"),
            )
        }
    }
}

/// Spawn the background compactor when the pending-update count crosses
/// `--compact-after`. At most one folding thread runs at a time; a storm
/// of qualifying updates extends the running fold's obsolescence window
/// (it aborts on the generation CAS) rather than piling up threads.
fn maybe_spawn_compaction(state: &Arc<ServerState>, pending: usize) {
    let Some(threshold) = state.config.compact_after else {
        return;
    };
    if pending < threshold || state.compacting.swap(true, Ordering::AcqRel) {
        return;
    }
    let state = state.clone();
    std::thread::spawn(move || {
        let _ = compact_now(&state);
        state.compacting.store(false, Ordering::Release);
    });
}

/// Where a compacted snapshot lands: `<source>.compacted.rgs`, with any
/// previous `.compacted.rgs` suffix stripped first so repeated
/// compactions overwrite one sibling file instead of growing the name.
fn compacted_path(path: &str) -> String {
    let base = path.strip_suffix(".compacted.rgs").unwrap_or(path);
    format!("{base}.compacted.rgs")
}

/// The `RELMAX_SERVE_TEST_SLOW_COMPACT_MS` hook: stretch the folding
/// window so tests can prove queries and updates keep flowing while a
/// compaction is in flight, and that a stale fold loses the install CAS.
fn test_slow_compact() -> Option<Duration> {
    let ms: u64 = std::env::var("RELMAX_SERVE_TEST_SLOW_COMPACT_MS")
        .ok()?
        .parse()
        .ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A per-spec answer: resolved inline (short-circuit) or pending on the
/// compute pool.
enum Pending {
    Ready(QueryAnswer),
    Queued(Arc<Slot>),
}

fn query(state: &ServerState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, json::error("query body is not valid UTF-8"));
    };
    let request = match workload::parse_request_str(text) {
        Ok(r) => r,
        Err(WorkloadError::BadRecord { line, reason }) => {
            return Response::json(400, json::error_at_line(line, &reason))
        }
        Err(e) => return Response::json(400, json::error(&e.to_string())),
    };
    if request.specs.is_empty() {
        return Response::json(400, json::error("request contains no queries"));
    }
    let seed = request.seed.unwrap_or(state.config.seed);
    let budget = match request.accuracy {
        Some(a) => {
            Budget::accuracy_capped(a.eps, a.delta, a.max_samples.unwrap_or(DEFAULT_MAX_SAMPLES))
        }
        None => state.config.budget,
    };

    // Pin one generation for the whole request: bounds checks, the
    // short-circuit pass, and every enqueued job see the same graph.
    let snap = state.snapshot.get();
    let nodes = snap.csr.num_nodes();
    for (i, spec) in request.specs.iter().enumerate() {
        if spec.max_node().index() >= nodes {
            return Response::json(
                422,
                json::error_at_query(
                    i + 1,
                    &format!(
                        "{spec} references node {} but the graph has {nodes} nodes",
                        spec.max_node().0
                    ),
                ),
            );
        }
    }

    let engine = AnyEngine::build(&snap, state.config.estimator, budget, seed);
    let max_hops = request.max_hops;
    // Constrained shapes (set, hops, or any hop-bounded query) need an
    // estimator that supports them; reject with a 422 naming the first
    // offender before anything is enqueued — never a silent fallback.
    if !engine.supports_constrained() {
        let offender = request.specs.iter().position(
            |spec| matches!(spec, WireSpec::Query(q) if batch_query(q, max_hops).is_constrained()),
        );
        if let Some(i) = offender {
            return Response::json(
                422,
                json::error_at_query(
                    i + 1,
                    &format!(
                        "estimator \"{}\" does not support constrained query shapes \
                         (set/hops/max-hops); use the mc estimator",
                        state.config.estimator.name()
                    ),
                ),
            );
        }
    }
    let mut answers = Vec::with_capacity(request.specs.len());
    for spec in &request.specs {
        // The structural short-circuit mirrors *unbounded* st answers
        // only — a `Certain` verdict says nothing about path length, so
        // hop-bounded requests always go to the estimator (which handles
        // its own degenerate cases bit-identically to the CLI).
        if max_hops.is_none() {
            if let WireSpec::Query(QuerySpec::St(s, t)) = spec {
                match engine.st_shortcircuit(*s, *t) {
                    Ok(Some(e)) => {
                        Metrics::add(&state.metrics.index_short_circuits_total, 1);
                        answers.push(Pending::Ready(QueryAnswer::Scalar(e)));
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => return Response::json(500, json::error(&e.to_string())),
                }
            }
        }
        let slot = Slot::new();
        state.jobs.push(Job {
            spec: spec.clone(),
            snapshot: snap.clone(),
            kind: state.config.estimator,
            budget,
            seed,
            max_hops,
            slot: slot.clone(),
        });
        answers.push(Pending::Queued(slot));
    }

    let mut entries = Vec::with_capacity(answers.len());
    for (spec, pending) in request.specs.iter().zip(answers) {
        let answer = match pending {
            Pending::Ready(a) => a,
            Pending::Queued(slot) => match slot.wait() {
                Ok(a) => a,
                Err(msg) => return Response::json(500, json::error(&msg)),
            },
        };
        entries.push(render_entry(spec, max_hops, answer));
    }
    Metrics::add(&state.metrics.queries_total, request.specs.len() as u64);

    Response::json(
        200,
        render::response(
            Some(snap.generation),
            &snap,
            state.config.estimator.name(),
            seed,
            &budget,
            entries,
        ),
    )
}

fn render_entry(spec: &WireSpec, max_hops: Option<u32>, answer: QueryAnswer) -> String {
    match (spec, answer) {
        (WireSpec::Query(q), QueryAnswer::Scalar(e)) => {
            render::result_entry(q, max_hops, &BatchEstimate::Scalar(e))
        }
        (WireSpec::Query(q), QueryAnswer::Vector(v)) => {
            render::result_entry(q, max_hops, &BatchEstimate::Vector(v))
        }
        (WireSpec::Query(q), QueryAnswer::Ranking(r)) => {
            render::result_entry(q, max_hops, &BatchEstimate::Ranking(r))
        }
        (WireSpec::Query(q), QueryAnswer::Hops(h)) => {
            render::result_entry(q, max_hops, &BatchEstimate::Hops(h))
        }
        (WireSpec::Pairwise { sources, targets }, QueryAnswer::Matrix(m)) => {
            render::pairwise_entry(sources, targets, &m)
        }
        (spec, answer) => unreachable!("{spec} cannot yield a {answer:?}"),
    }
}
