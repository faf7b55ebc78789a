//! In-memory span recorder for the traced replay.
//!
//! Every call into a crate's public function is wrapped in a span named
//! `<layer>.<call>` (`ugraph.open`, `sampling.engine`, …). Spans nest: a
//! span's parent is whatever span was open on entry. A span's *self time*
//! is its duration minus the time its children cover, so summing self time
//! per layer attributes every nanosecond of a request exactly once.
//!
//! Spans marked `probe` are extra calls the benchmark makes only to
//! measure something the blocking call does internally (for example the
//! index plan the engine computes on its own). They are reported, but kept
//! out of the blocking-path accounting.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the span name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, f64>,
}

/// The recorder. Used from one thread; the mutex only makes it `Sync` so
/// a traced estimator can hold a reference across the estimator trait.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                request: 0,
                counts: BTreeMap::new(),
            }),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&self, name: &'static str, probe: bool) -> usize {
        let start_ns = self.now();
        let mut st = self.state.lock().expect("tracer lock");
        let id = st.spans.len();
        let parent = st.open.last().copied();
        let request = st.request;
        st.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            probe,
        });
        st.open.push(id);
        id
    }

    fn exit(&self, id: usize) {
        let end_ns = self.now();
        let mut st = self.state.lock().expect("tracer lock");
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        st.spans[id].end_ns = end_ns;
    }

    /// Time `f` as a blocking-path span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, false);
        let out = f();
        self.exit(id);
        out
    }

    /// Time `f` as an off-path probe span.
    pub fn probe<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, true);
        let out = f();
        self.exit(id);
        out
    }

    /// Start a new request: spans opened from now on carry its id.
    pub fn begin_request(&self, request: u64) {
        self.state.lock().expect("tracer lock").request = request;
    }

    /// Add `v` to a named counter.
    pub fn count(&self, name: &'static str, v: f64) {
        *self
            .state
            .lock()
            .expect("tracer lock")
            .counts
            .entry(name)
            .or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        let st = self.state.lock().expect("tracer lock");
        st.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer lock").spans.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"probe\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                s.probe
            )?;
        }
        f.flush()
    }
}

/// Per-span totals derived from the recorded spans.
pub struct Summary {
    /// Self time per layer, blocking-path spans only (seconds).
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Total duration per span name, blocking-path and probe (seconds).
    pub name_total_s: BTreeMap<&'static str, f64>,
    /// Number of spans per name.
    pub name_calls: BTreeMap<&'static str, u64>,
    /// Wall time covered by root spans, minus the probes inside them.
    pub path_wall_s: f64,
}

/// Summarize spans: self time per layer along the blocking path.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    let mut probe_inside = vec![false; spans.len()];
    for s in spans {
        // A probe and everything under it is off the blocking path.
        probe_inside[s.id] = s.probe || s.parent.is_some_and(|p| probe_inside[p]);
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = Summary {
        layer_self_s: BTreeMap::new(),
        name_total_s: BTreeMap::new(),
        name_calls: BTreeMap::new(),
        path_wall_s: 0.0,
    };
    let mut probe_ns_under_root = 0u64;
    for s in spans {
        *out.name_total_s.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        *out.name_calls.entry(s.name).or_insert(0) += 1;
        if s.probe && !s.parent.is_some_and(|p| probe_inside[p]) {
            probe_ns_under_root += s.dur_ns();
        }
        if probe_inside[s.id] {
            continue;
        }
        // Self time excludes every child, probes included; probe time
        // comes off the path wall instead, so the two stay consistent.
        if s.parent.is_none() {
            out.path_wall_s += s.dur_ns() as f64 * 1e-9;
        } else {
            let self_ns = s.dur_ns().saturating_sub(child_ns[s.id]);
            *out.layer_self_s.entry(s.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
    }
    out.path_wall_s -= probe_ns_under_root as f64 * 1e-9;
    out
}
