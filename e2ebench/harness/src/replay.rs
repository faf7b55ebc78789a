//! Traced in-process replays of the benchmark's workloads.
//!
//! Each replay runs a workload's generated inputs through the same public
//! functions the `relmax` binary calls, in the same order, with a span
//! around every call into a crate. The outputs are written out so the
//! benchmark script can check them against the binary's bytes: a replay
//! that drifted from the program it claims to time fails the run.

use crate::spans::{summarize, Tracer};
use relmax_core::{
    BatchEdgeSelector, EdgeSelector, QueryAnswer, QueryEngine, SearchSpaceElimination, StQuery,
};
use relmax_gen::updates::{self, UpdateRequest};
use relmax_gen::workload::{self, QuerySpec, WireSpec};
use relmax_sampling::convergence::DEFAULT_MAX_SAMPLES;
use relmax_sampling::{
    BatchEstimate, BatchQuery, Budget, Estimate, Estimator, HopsEstimate, McEstimator,
    ParallelRuntime,
};
use relmax_server::http::{self, Response};
use relmax_server::state::{AnyEngine, EngineKind, Snapshot};
use relmax_server::{json, render};
use relmax_ugraph::{
    snapshot, CsrGraph, DeltaOverlay, ExtraEdge, GraphView, NodeId, ProbGraph, RelIndex, StPlan,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Metrics a replay reports, by name.
pub type Metrics = BTreeMap<String, f64>;

fn set(m: &mut Metrics, k: &str, v: f64) {
    m.insert(k.to_string(), if v.is_finite() { v } else { 0.0 });
}

fn mean(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// Classify a plan: (short-circuited?, share of condensed nodes pruned).
fn plan_stats(index: &RelIndex, plan: &StPlan) -> (bool, Option<f64>) {
    match plan {
        StPlan::Certain | StPlan::Impossible => (true, None),
        StPlan::Sample { mask: None, .. } => (false, Some(0.0)),
        StPlan::Sample {
            mask: Some(bits), ..
        } => {
            let kept: u32 = bits.iter().map(|w| w.count_ones()).sum();
            let n = index.num_supernodes().max(1) as f64;
            (false, Some(1.0 - kept as f64 / n))
        }
    }
}

/// Plan counters shared by the query and serve replays.
#[derive(Default)]
struct PlanTally {
    plans: f64,
    short: f64,
    sampled: f64,
    pruned_sum: f64,
}

impl PlanTally {
    fn add(&mut self, index: &RelIndex, plan: &StPlan) {
        let (short, pruned) = plan_stats(index, plan);
        self.plans += 1.0;
        if short {
            self.short += 1.0;
        }
        if let Some(p) = pruned {
            self.sampled += 1.0;
            self.pruned_sum += p;
        }
    }

    fn report(&self, m: &mut Metrics) {
        set(m, "ugraph.short_circuit_frac", mean(self.short, self.plans));
        set(m, "ugraph.pruned_frac", mean(self.pruned_sum, self.sampled));
    }
}

/// Layer self times plus the blocking-path accounting, with `moved`
/// seconds of probe-measured work moved from one layer to another (the
/// engine plans internally; the probe says how long planning takes).
fn report_layers(tr: &Tracer, m: &mut Metrics, moved: &[(&str, &str, f64)], wall_s: f64) {
    let spans = tr.spans();
    let sum = summarize(&spans);
    let mut layers: BTreeMap<String, f64> = sum
        .layer_self_s
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    for &(from, to, secs) in moved {
        let take = secs.min(*layers.get(from).unwrap_or(&0.0));
        *layers.entry(from.to_string()).or_insert(0.0) -= take;
        *layers.entry(to.to_string()).or_insert(0.0) += take;
    }
    for layer in [
        "ugraph", "gen", "sampling", "core", "paths", "server", "client",
    ] {
        set(
            m,
            &format!("{layer}.self_s"),
            *layers.get(layer).unwrap_or(&0.0),
        );
    }
    // Layer self times plus the benchmark's own glue cover the blocking
    // path exactly; the accounted share is the part the layers explain.
    let accounted: f64 = layers.values().sum();
    set(m, "trace.wall_s", wall_s);
    set(m, "trace.path_wall_s", sum.path_wall_s);
    set(m, "trace.accounted_frac", mean(accounted, sum.path_wall_s));
}

fn total(tr: &Tracer, name: &str) -> (f64, f64) {
    let sum = summarize(&tr.spans());
    (
        *sum.name_total_s.get(name).unwrap_or(&0.0),
        *sum.name_calls.get(name).unwrap_or(&0) as f64,
    )
}

fn open_indexed(tr: &Tracer, graph: &str) -> Result<(CsrGraph, RelIndex), String> {
    let (csr, section) = tr
        .span("ugraph.open", || snapshot::open_full(graph))
        .map_err(|e| format!("{graph}: {e}"))?;
    let section = section.ok_or_else(|| format!("{graph}: no stored index section"))?;
    let index = tr
        .span("ugraph.index_load", || {
            RelIndex::from_section(&csr, &section)
        })
        .map_err(|e| format!("{graph}: stored index section: {e}"))?;
    Ok((csr, index))
}

/// `relmax query --queries FILE --format json` in process.
pub fn query(
    tr: &Tracer,
    graph: &str,
    queries: &str,
    threads: usize,
    seed: u64,
    samples: usize,
    out: &str,
) -> Result<Metrics, String> {
    let budget = Budget::fixed(samples);
    let started = Instant::now();
    tr.begin_request(1);
    let mut tally = PlanTally::default();
    let mut resident = 0usize;
    let mut worlds = 0.0;
    let text = tr.span("bench.batch", || -> Result<String, String> {
        let parsed = tr
            .span("gen.parse", || workload::parse_workload_file(queries))
            .map_err(|e| format!("{queries}: {e}"))?;
        let (csr, index) = open_indexed(tr, graph)?;
        resident = csr.resident_bytes();
        // The engine plans every st query itself; these probes time the
        // same plan calls off the blocking path.
        for q in &parsed.specs {
            if let QuerySpec::St(s, t) = q {
                let plan = tr.probe("ugraph.plan", || index.st_plan(*s, *t));
                tally.add(&index, &plan);
            }
        }
        let batch: Vec<BatchQuery> = parsed
            .specs
            .iter()
            .map(|q| match q {
                QuerySpec::St(s, t) => Ok(BatchQuery::St(*s, *t)),
                other => Err(format!("query-local replays st queries only, got `{other}`")),
            })
            .collect::<Result<_, _>>()?;
        let (nodes, coins, directed) = (csr.num_nodes(), csr.num_coins(), csr.is_directed());
        let engine = QueryEngine::from_parts(
            csr,
            Some(Arc::new(index)),
            McEstimator::with_budget(budget, seed),
        )
        .with_runtime(ParallelRuntime::new(threads));
        let answer = tr
            .span("sampling.engine", || engine.query().batch(&batch).budget(budget).run())
            .map_err(|e| e.to_string())?;
        let QueryAnswer::Batch(results) = answer else {
            return Err("batch queries yield batch answers".into());
        };
        worlds = results.iter().map(|r| r.sampling_effort().0 as f64).sum();
        Ok(tr.span("server.render", || {
            let rendered = parsed
                .specs
                .iter()
                .zip(&results)
                .map(|(q, r)| render::result_entry(q, None, r));
            format!(
                "{{\"graph\":{{\"nodes\":{nodes},\"coins\":{coins},\"directed\":{directed}}},\"estimator\":{{\"name\":\"MC\",\"seed\":{seed},\"budget\":{}}},\"results\":{}}}\n",
                json::budget(&budget),
                json::array(rendered)
            )
        }))
    })?;
    let wall = started.elapsed().as_secs_f64();
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;

    let mut m = Metrics::new();
    let (open_s, _) = total(tr, "ugraph.open");
    let (load_s, _) = total(tr, "ugraph.index_load");
    let (plan_s, plans) = total(tr, "ugraph.plan");
    let (parse_s, parses) = total(tr, "gen.parse");
    let (render_s, _) = total(tr, "server.render");
    set(&mut m, "ugraph.open_s", open_s);
    set(&mut m, "ugraph.index_load_s", load_s);
    set(
        &mut m,
        "ugraph.resident_mb",
        resident as f64 / (1 << 20) as f64,
    );
    set(&mut m, "ugraph.plan_us", mean(plan_s, plans) * 1e6);
    tally.report(&mut m);
    set(&mut m, "gen.parse_us", mean(parse_s, parses) * 1e6);
    set(&mut m, "server.render_us", mean(render_s, plans) * 1e6);
    report_layers(tr, &mut m, &[("sampling", "ugraph", plan_s)], wall);
    set(&mut m, "sampling.worlds", worlds);
    let sampling_s = m["sampling.self_s"];
    set(&mut m, "sampling.worlds_per_s", mean(worlds, sampling_s));
    Ok(m)
}

/// An estimator that times every call into the sampling layer.
pub struct Traced<'t, E> {
    inner: E,
    tr: &'t Tracer,
}

impl<E: Estimator> Traced<'_, E> {
    fn worlds(&self, n: usize) {
        self.tr.count("sampling.worlds", n as f64);
    }
}

fn max_worlds(v: &[Estimate]) -> usize {
    v.iter().map(|e| e.samples_used).max().unwrap_or(0)
}

impl<E: Estimator> Estimator for Traced<'_, E> {
    fn default_budget(&self) -> Budget {
        self.inner.default_budget()
    }

    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate {
        let e = self
            .tr
            .span("sampling.st", || self.inner.st_estimate(g, s, t, budget));
        self.worlds(e.samples_used);
        e
    }

    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate> {
        let v = self
            .tr
            .span("sampling.from", || self.inner.from_estimates(g, s, budget));
        self.worlds(max_worlds(&v));
        v
    }

    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate> {
        let v = self
            .tr
            .span("sampling.to", || self.inner.to_estimates(g, t, budget));
        self.worlds(max_worlds(&v));
        v
    }

    fn pairwise_estimates<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        budget: Budget,
    ) -> Vec<Vec<Estimate>> {
        let m = self.tr.span("sampling.pairwise", || {
            self.inner.pairwise_estimates(g, sources, targets, budget)
        });
        self.worlds(m.iter().map(|r| max_worlds(r)).max().unwrap_or(0));
        m
    }

    fn scan_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        let v = self.tr.span("sampling.scan", || {
            self.inner.scan_estimates(g, s, t, candidates, budget)
        });
        self.worlds(max_worlds(&v));
        v
    }

    fn supports_constrained(&self) -> bool {
        self.inner.supports_constrained()
    }

    fn st_within_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        max_hops: u32,
        budget: Budget,
    ) -> Option<Estimate> {
        self.tr.span("sampling.st_within", || {
            self.inner.st_within_estimate(g, s, t, max_hops, budget)
        })
    }

    fn set_estimate<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        budget: Budget,
    ) -> Option<Estimate> {
        self.tr.span("sampling.set", || {
            self.inner
                .set_estimate(g, sources, targets, max_hops, budget)
        })
    }

    fn expected_hops_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        budget: Budget,
    ) -> Option<HopsEstimate> {
        self.tr.span("sampling.hops", || {
            self.inner.expected_hops_estimate(g, s, t, budget)
        })
    }

    fn topk_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        k: usize,
        budget: Budget,
    ) -> Vec<(NodeId, Estimate)> {
        self.tr.span("sampling.topk", || {
            self.inner.topk_estimates(g, s, k, budget)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn st_shortcircuit<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId) -> Option<Estimate> {
        self.inner.st_shortcircuit(g, s, t)
    }

    fn coalescable_st(&self) -> bool {
        self.inner.coalescable_st()
    }
}

/// Parameters of one `relmax select --method BE` invocation.
pub struct SelectArgs {
    pub k: usize,
    pub zeta: f64,
    pub r: usize,
    pub l: usize,
    pub hops: u32,
    pub samples: usize,
    pub seed: u64,
    pub threads: usize,
}

/// `relmax select --method BE` per pair, in process.
pub fn select(
    tr: &Tracer,
    graph: &str,
    pairs: &[(u32, u32)],
    a: &SelectArgs,
    out: &str,
) -> Result<Metrics, String> {
    let budget = Budget::fixed(a.samples);
    ParallelRuntime::set_global_threads(a.threads);
    let started = Instant::now();
    let mut lines = String::new();
    let mut candidates = 0.0;
    let mut paths_s = 0.0;
    for (i, &(s, t)) in pairs.iter().enumerate() {
        tr.begin_request(i as u64 + 1);
        let gain = tr.span("bench.select", || -> Result<f64, String> {
            let (csr, _) = tr
                .span("ugraph.open", || snapshot::open_full(graph))
                .map_err(|e| format!("{graph}: {e}"))?;
            let g = tr
                .span("ugraph.thaw", || csr.thaw())
                .map_err(|e| format!("{graph}: cannot thaw: {e}"))?;
            let query = StQuery::new(NodeId(s), NodeId(t), a.k, a.zeta)
                .with_hop_limit(Some(a.hops))
                .with_r(a.r)
                .with_l(a.l);
            let est = Traced {
                inner: McEstimator::with_budget_runtime(
                    budget,
                    a.seed,
                    ParallelRuntime::new(a.threads),
                ),
                tr,
            };
            let cands = tr.span("core.elimination", || {
                SearchSpaceElimination::new(query.r)
                    .candidate_edges_budgeted(&g, &query, &est, budget)
            });
            candidates += cands.len() as f64;
            // BE searches the top-l paths of G + candidates internally;
            // this probe times the same search off the blocking path.
            let probe_started = Instant::now();
            tr.probe("paths.top_l", || {
                let view = GraphView::new(&g, cands.clone());
                relmax_paths::top_l_reliable_paths(&view, query.s, query.t, query.l).len()
            });
            paths_s += probe_started.elapsed().as_secs_f64();
            let outcome = tr
                .span("core.select", || {
                    BatchEdgeSelector
                        .select_with_candidates_budgeted(&g, &query, &cands, &est, budget)
                })
                .map_err(|e| e.to_string())?;
            Ok(outcome.gain())
        })?;
        lines.push_str(&format!("{s} {t} {}\n", json::num(gain)));
    }
    let wall = started.elapsed().as_secs_f64();
    std::fs::write(out, lines).map_err(|e| format!("{out}: {e}"))?;

    let n = pairs.len() as f64;
    let mut m = Metrics::new();
    let (open_s, _) = total(tr, "ugraph.open");
    let (thaw_s, _) = total(tr, "ugraph.thaw");
    let (elim_s, _) = total(tr, "core.elimination");
    let (scan_s, _) = total(tr, "sampling.scan");
    set(&mut m, "ugraph.open_s", mean(open_s, n));
    set(&mut m, "ugraph.thaw_s", mean(thaw_s, n));
    set(&mut m, "core.elimination_s", mean(elim_s, n));
    set(&mut m, "core.candidates", mean(candidates, n));
    set(&mut m, "paths.top_l_s", mean(paths_s, n));
    set(&mut m, "core.scan_s", mean(scan_s, n));
    report_layers(tr, &mut m, &[("core", "paths", paths_s)], wall);
    let worlds = tr.counter("sampling.worlds");
    set(&mut m, "sampling.worlds", worlds);
    let sampling_s = m["sampling.self_s"];
    set(&mut m, "sampling.worlds_per_s", mean(worlds, sampling_s));
    Ok(m)
}

/// Serve replay settings.
pub struct ServeArgs {
    pub seed: u64,
    pub samples: usize,
    pub update_every: usize,
    pub compact_after: usize,
    pub scratch: String,
}

/// A loopback connection: what the client wrote is read by the server
/// half through the server crate's own HTTP reader.
struct Loopback {
    client: TcpStream,
    server: TcpStream,
}

/// A long-lived thread that drains responses on the client half, so a
/// response larger than the socket buffer never blocks the writer.
struct Drain {
    streams: mpsc::Sender<TcpStream>,
    done: mpsc::Receiver<std::io::Result<usize>>,
}

impl Drain {
    fn spawn() -> Drain {
        let (streams, rx) = mpsc::channel::<TcpStream>();
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            for mut s in rx {
                let mut buf = Vec::new();
                if tx.send(s.read_to_end(&mut buf).map(|_| buf.len())).is_err() {
                    break;
                }
            }
        });
        Drain { streams, done }
    }
}

fn connect(listener: &TcpListener) -> Result<Loopback, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    Ok(Loopback { client, server })
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Write the response through the server crate, then drain it on the
/// client half, so the span covers the bytes actually crossing loopback.
fn respond(
    tr: &Tracer,
    drain: &Drain,
    conn: Loopback,
    status: u16,
    body: String,
) -> Result<usize, String> {
    tr.span("server.http_write", || -> Result<usize, String> {
        let resp = Response::json(status, body);
        let Loopback { client, mut server } = conn;
        drain.streams.send(client).map_err(|e| e.to_string())?;
        resp.write_to(&mut server).map_err(|e| e.to_string())?;
        let _ = server.shutdown(Shutdown::Both);
        drain
            .done
            .recv()
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())
    })
}

fn render_answer(q: &QuerySpec, max_hops: Option<u32>, a: QueryAnswer) -> Result<String, String> {
    let r = match a {
        QueryAnswer::Scalar(e) => BatchEstimate::Scalar(e),
        QueryAnswer::Vector(v) => BatchEstimate::Vector(v),
        QueryAnswer::Ranking(r) => BatchEstimate::Ranking(r),
        QueryAnswer::Hops(h) => BatchEstimate::Hops(h),
        other => return Err(format!("{q} cannot yield {other:?}")),
    };
    Ok(render::result_entry(q, max_hops, &r))
}

/// Counters of the serve replay.
#[derive(Default)]
struct ServeTally {
    plans: PlanTally,
    worlds: f64,
    adaptive_used: f64,
    adaptive_cap: f64,
    response_bytes: f64,
    requests: f64,
}

/// One `POST /query`, following `relmax_server`'s query handler.
fn serve_query(
    tr: &Tracer,
    drain: &Drain,
    mut conn: Loopback,
    snap: &Arc<Snapshot>,
    raw: &[u8],
    a: &ServeArgs,
    t: &mut ServeTally,
) -> Result<String, String> {
    conn.client
        .write_all(&post("/query", raw))
        .map_err(|e| e.to_string())?;
    let req = tr
        .span("server.http_read", || http::read_request(&mut conn.server))
        .map_err(|e| format!("{e:?}"))?;
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let request = tr
        .span("gen.parse", || workload::parse_request_str(text))
        .map_err(|e| e.to_string())?;
    let seed = request.seed.unwrap_or(a.seed);
    let budget = match request.accuracy {
        Some(acc) => Budget::accuracy_capped(
            acc.eps,
            acc.delta,
            acc.max_samples.unwrap_or(DEFAULT_MAX_SAMPLES),
        ),
        None => Budget::fixed(a.samples),
    };
    let engine = AnyEngine::build(snap, EngineKind::Mc, budget, seed);
    let max_hops = request.max_hops;
    let mut answers: Vec<Option<QueryAnswer>> = vec![None; request.specs.len()];
    for (i, spec) in request.specs.iter().enumerate() {
        if max_hops.is_some() {
            break;
        }
        if let WireSpec::Query(QuerySpec::St(s, tt)) = spec {
            let sc = tr
                .span("ugraph.plan", || engine.st_shortcircuit(*s, *tt))
                .map_err(|e| e.to_string())?;
            if let Some(index) = &snap.index {
                if snap.delta.is_none() {
                    let plan = tr.probe("ugraph.plan_probe", || index.st_plan(*s, *tt));
                    t.plans.add(index, &plan);
                } else {
                    t.plans.plans += 1.0;
                    t.plans.short += sc.is_some() as u8 as f64;
                }
            }
            if let Some(e) = sc {
                answers[i] = Some(QueryAnswer::Scalar(e));
            }
        }
    }
    // Same-source fixed-budget st queries of one request are the ones the
    // server's compute pool merges into one `from` pass.
    let coalescable =
        engine.coalescable_st() && max_hops.is_none() && matches!(budget, Budget::FixedSamples(_));
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    if coalescable {
        for (i, spec) in request.specs.iter().enumerate() {
            if let (None, WireSpec::Query(QuerySpec::St(s, _))) = (&answers[i], spec) {
                groups.entry(s.0).or_default().push(i);
            }
        }
    }
    for (s, members) in groups.into_iter().filter(|(_, m)| m.len() >= 2) {
        let vec = tr
            .span("sampling.from_vector", || {
                engine.from_vector(NodeId(s), budget)
            })
            .map_err(|e| e.to_string())?;
        t.worlds += max_worlds(&vec) as f64;
        for i in members {
            if let WireSpec::Query(QuerySpec::St(_, tt)) = &request.specs[i] {
                answers[i] = Some(QueryAnswer::Scalar(vec[tt.index()]));
            }
        }
    }
    for (i, spec) in request.specs.iter().enumerate() {
        if answers[i].is_some() {
            continue;
        }
        let answer = tr
            .span("sampling.run_spec", || {
                engine.run_spec(spec, budget, max_hops)
            })
            .map_err(|e| e.to_string())?;
        let w = relmax_server::work::answer_samples(&answer) as f64;
        t.worlds += w;
        if let Budget::Accuracy { max_samples, .. } = budget {
            t.adaptive_used += w;
            t.adaptive_cap += max_samples as f64;
        }
        answers[i] = Some(answer);
    }
    let body = tr.span("server.render", || -> Result<String, String> {
        let mut entries = Vec::with_capacity(answers.len());
        for (spec, answer) in request.specs.iter().zip(answers) {
            let WireSpec::Query(q) = spec else {
                return Err(format!("the replay does not send `{spec}`"));
            };
            entries.push(render_answer(q, max_hops, answer.expect("every spec answered"))?);
        }
        Ok(format!(
            "{{\"generation\":{},\"graph\":{{\"nodes\":{},\"coins\":{},\"directed\":{}}},\"estimator\":{{\"name\":\"mc\",\"seed\":{seed},\"budget\":{}}},\"results\":{}}}",
            snap.generation,
            snap.csr.num_nodes(),
            snap.num_coins(),
            snap.csr.is_directed(),
            json::budget(&budget),
            json::array(entries),
        ))
    })?;
    t.response_bytes += body.len() as f64;
    t.requests += 1.0;
    let results = body
        .find("\"results\":")
        .map(|i| body[i + 10..body.len() - 1].to_string())
        .unwrap_or_default();
    respond(tr, drain, conn, 200, body)?;
    Ok(results)
}

/// One `POST /update`, following the server's update handler; folds the
/// overlay the way the `--compact-after` background compactor does.
fn serve_update(
    tr: &Tracer,
    drain: &Drain,
    mut conn: Loopback,
    snap: &mut Arc<Snapshot>,
    raw: &[u8],
    a: &ServeArgs,
) -> Result<(), String> {
    conn.client
        .write_all(&post("/update", raw))
        .map_err(|e| e.to_string())?;
    let req = tr
        .span("server.http_read", || http::read_request(&mut conn.server))
        .map_err(|e| format!("{e:?}"))?;
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let UpdateRequest { updates: batch, .. } = tr
        .span("gen.parse", || updates::parse_update_request_str(text))
        .map_err(|e| e.to_string())?;
    let next = tr.span("ugraph.overlay_apply", || -> Result<Snapshot, String> {
        let mut overlay = match &snap.delta {
            Some(d) => d.as_ref().clone(),
            None => DeltaOverlay::new(snap.csr.clone()),
        };
        for u in &batch {
            overlay.apply_one(u).map_err(|e| e.to_string())?;
        }
        Ok(Snapshot {
            csr: snap.csr.clone(),
            index: snap.index.clone(),
            generation: snap.generation + 1,
            format_version: snap.format_version,
            path: snap.path.clone(),
            index_stored: snap.index_stored,
            delta: Some(Arc::new(overlay)),
        })
    })?;
    *snap = Arc::new(next);
    let pending = snap.pending_updates();
    respond(
        tr,
        drain,
        conn,
        200,
        format!(
            "{{\"generation\":{},\"applied\":{},\"pending_updates\":{pending}}}",
            snap.generation,
            batch.len()
        ),
    )?;
    if pending >= a.compact_after {
        // The server folds in a background thread, off the request path.
        let folded = tr.probe("ugraph.compact", || -> Result<Snapshot, String> {
            let delta = snap
                .delta
                .clone()
                .expect("pending updates live in an overlay");
            let csr = delta.compact();
            let index = RelIndex::build(&csr);
            let section = index.section();
            snapshot::save_full(&csr, Some(&section), &a.scratch).map_err(|e| e.to_string())?;
            let (mapped, _) = snapshot::open_full_trusted(&a.scratch).map_err(|e| e.to_string())?;
            Ok(Snapshot {
                csr: Arc::new(mapped),
                index: Some(Arc::new(index)),
                generation: snap.generation + 1,
                format_version: snapshot::FORMAT_VERSION,
                path: a.scratch.clone(),
                index_stored: true,
                delta: None,
            })
        })?;
        *snap = Arc::new(folded);
    }
    Ok(())
}

/// The served path in process: each request body over a loopback socket
/// through the server crate's HTTP reader, grammar, engine dispatch,
/// renderer and response writer. With update batches, one batch is
/// applied after every `update_every` reads.
pub fn serve(
    tr: &Tracer,
    graph: &str,
    bodies: &[Vec<u8>],
    update_batches: &[Vec<u8>],
    a: &ServeArgs,
    out: &str,
) -> Result<Metrics, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let drain = Drain::spawn();
    let started = Instant::now();
    tr.begin_request(0);
    let (csr, index) = tr.span("bench.load", || open_indexed(tr, graph))?;
    let resident = csr.resident_bytes();
    let mut snap = Arc::new(Snapshot {
        csr: Arc::new(csr),
        index: Some(Arc::new(index)),
        generation: 1,
        format_version: snapshot::FORMAT_VERSION,
        path: graph.to_string(),
        index_stored: true,
        delta: None,
    });
    let mut t = ServeTally::default();
    let mut results = String::new();
    let mut next_update = 0usize;
    for (i, raw) in bodies.iter().enumerate() {
        tr.begin_request(i as u64 + 1);
        let r = tr.span("bench.request", || -> Result<String, String> {
            let conn = tr.span("client.connect", || connect(&listener))?;
            serve_query(tr, &drain, conn, &snap, raw, a, &mut t)
        })?;
        results.push_str(&r);
        results.push('\n');
        if a.update_every > 0 && (i + 1) % a.update_every == 0 && next_update < update_batches.len()
        {
            tr.span("bench.update", || -> Result<(), String> {
                let conn = tr.span("client.connect", || connect(&listener))?;
                serve_update(tr, &drain, conn, &mut snap, &update_batches[next_update], a)
            })?;
            next_update += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    std::fs::write(out, results).map_err(|e| format!("{out}: {e}"))?;

    let mut m = Metrics::new();
    let (open_s, _) = total(tr, "ugraph.open");
    let (load_s, _) = total(tr, "ugraph.index_load");
    let (plan_s, plans) = total(tr, "ugraph.plan");
    let (parse_s, parses) = total(tr, "gen.parse");
    let (read_s, reads) = total(tr, "server.http_read");
    let (write_s, writes) = total(tr, "server.http_write");
    let (render_s, renders) = total(tr, "server.render");
    let (apply_s, applies) = total(tr, "ugraph.overlay_apply");
    let (compact_s, compacts) = total(tr, "ugraph.compact");
    set(&mut m, "ugraph.open_s", open_s);
    set(&mut m, "ugraph.index_load_s", load_s);
    set(
        &mut m,
        "ugraph.resident_mb",
        resident as f64 / (1 << 20) as f64,
    );
    set(&mut m, "ugraph.plan_us", mean(plan_s, plans) * 1e6);
    t.plans.report(&mut m);
    set(
        &mut m,
        "ugraph.overlay_apply_ms",
        mean(apply_s, applies) * 1e3,
    );
    set(&mut m, "ugraph.compact_s", mean(compact_s, compacts));
    set(&mut m, "gen.parse_us", mean(parse_s, parses) * 1e6);
    set(&mut m, "server.http_read_us", mean(read_s, reads) * 1e6);
    set(&mut m, "server.http_write_us", mean(write_s, writes) * 1e6);
    set(&mut m, "server.render_us", mean(render_s, renders) * 1e6);
    set(
        &mut m,
        "server.response_kb",
        mean(t.response_bytes, t.requests) / 1024.0,
    );
    set(
        &mut m,
        "sampling.adaptive_worlds_frac",
        mean(t.adaptive_used, t.adaptive_cap),
    );
    report_layers(tr, &mut m, &[], wall);
    set(&mut m, "sampling.worlds", t.worlds);
    let sampling_s = m["sampling.self_s"];
    set(&mut m, "sampling.worlds_per_s", mean(t.worlds, sampling_s));
    Ok(m)
}
