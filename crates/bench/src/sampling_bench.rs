//! Microbenchmark for the sampling hot path.
//!
//! Times the lane-packed kernel against the scalar reference kernel on
//! identical sampled worlds, reliability-index routing against plain
//! sampling, accuracy budgets against a fixed budget, mapped against
//! heap snapshot loads, and an end-to-end batch-edge-selection pipeline.
//! The `bench_sampling` binary renders the result as
//! `BENCH_sampling.json` so the repository tracks its own performance
//! trajectory.

use relmax_core::{AnySelector, EdgeSelector, QueryEngine, StQuery};
use relmax_gen::prob::ProbModel;
use relmax_gen::queries::st_queries;
use relmax_gen::synth;
use relmax_sampling::{packed, Budget, Estimator, Kernel, McEstimator, ParallelRuntime};
use relmax_ugraph::{edgelist, snapshot, CsrGraph, ExtraEdge, NodeId, RelIndex, UncertainGraph};
use std::sync::Arc;
use std::time::Instant;

/// Per-query record of the adaptive-stopping scenario: what an accuracy
/// budget spent versus the fixed budget it replaces.
#[derive(Debug, Clone)]
pub struct AdaptiveQuery {
    /// Query endpoints.
    pub s: u32,
    /// Query endpoints.
    pub t: u32,
    /// The estimate under the accuracy budget.
    pub value: f64,
    /// Realized confidence half-width at stop.
    pub half_width: f64,
    /// Worlds the adaptive run spent.
    pub samples_used: usize,
    /// Whether it stopped before the cap.
    pub stopped_early: bool,
}

/// The `adaptive` scenario: accuracy budgets versus a fixed budget of
/// `max_samples` worlds per query, via the `QueryEngine` front door.
#[derive(Debug, Clone)]
pub struct AdaptiveScenario {
    /// Requested CI half-width.
    pub eps: f64,
    /// Requested CI failure probability.
    pub delta: f64,
    /// World cap per query (also the fixed-budget comparison point).
    pub max_samples: usize,
    /// Per-query outcomes.
    pub queries: Vec<AdaptiveQuery>,
    /// Total worlds the fixed budget would have spent.
    pub fixed_total: u64,
    /// Total worlds the adaptive runs spent.
    pub adaptive_total: u64,
    /// Whether a 4-thread run reproduced the serial bits exactly.
    pub bit_identical_across_threads: bool,
}

impl AdaptiveScenario {
    /// Fraction of the fixed budget the adaptive runs saved.
    pub fn savings(&self) -> f64 {
        1.0 - self.adaptive_total as f64 / self.fixed_total.max(1) as f64
    }

    /// How many queries stopped before the cap.
    pub fn stopped_early(&self) -> usize {
        self.queries.iter().filter(|q| q.stopped_early).count()
    }
}

/// One packed-vs-scalar kernel comparison: the same estimate computed by
/// the lane-packed kernel and the scalar reference kernel.
#[derive(Debug, Clone)]
pub struct PackedComparison {
    /// What was measured ("mc_st", "mc_from", "candidate_scan",
    /// "mc_st_local", "mc_st_gen").
    pub kernel: &'static str,
    /// The graph it ran on: "watts_strogatz" (the scenario graph),
    /// "ring_chords" (out-degree 4) or "ring_chords_gen" (the `relmax
    /// gen` graph, out-degree 10).
    pub graph: &'static str,
    /// Sampled worlds per invocation.
    pub samples: usize,
    /// Seconds for the scalar reference kernel (`RELMAX_KERNEL=scalar`).
    pub scalar_s: f64,
    /// Seconds for the lane-packed kernel (the default).
    pub packed_s: f64,
    /// Whether the two kernels produced bit-identical estimates.
    pub bit_identical: bool,
}

impl PackedComparison {
    /// scalar / packed.
    pub fn speedup(&self) -> f64 {
        self.scalar_s / self.packed_s
    }
}

/// The `packed` scenario: lane-packed 64-worlds-per-word kernel versus
/// the scalar reference kernel on a production-sized graph.
#[derive(Debug, Clone)]
pub struct PackedScenario {
    /// Nodes in the packed-scenario (Watts–Strogatz) graph.
    pub nodes: usize,
    /// Edges (coins) in the packed-scenario (Watts–Strogatz) graph.
    pub edges: usize,
    /// Whether the AVX-512 hash path was active on this host.
    pub simd: bool,
    /// Per-kernel comparisons.
    pub kernels: Vec<PackedComparison>,
}

impl PackedScenario {
    /// Geometric-mean speedup over all compared kernels.
    pub fn geomean_speedup(&self) -> f64 {
        let log_sum: f64 = self.kernels.iter().map(|c| c.speedup().ln()).sum();
        (log_sum / self.kernels.len().max(1) as f64).exp()
    }
}

/// One indexed-vs-unindexed comparison: the same s-t batch served with
/// and without the freeze-time reliability index.
#[derive(Debug, Clone)]
pub struct IndexComparison {
    /// Which workload ("uncertain_connected", "certain_partitioned").
    pub workload: &'static str,
    /// Nodes in the workload graph.
    pub nodes: usize,
    /// Edges (coins) in the workload graph.
    pub edges: usize,
    /// s-t queries in the batch.
    pub queries: usize,
    /// Sampled worlds per query.
    pub samples: usize,
    /// Supernodes after certain-edge condensation.
    pub supernodes: usize,
    /// Connected components of the possible graph.
    pub components: usize,
    /// Seconds for the plain (unindexed) batch.
    pub unindexed_s: f64,
    /// Seconds for the index-routed batch.
    pub indexed_s: f64,
    /// Whether every reliability value matched bit for bit. (Sampling-
    /// effort fields legitimately differ on queries the index answers
    /// without sampling; values never do.)
    pub bit_identical: bool,
}

impl IndexComparison {
    /// unindexed / indexed.
    pub fn speedup(&self) -> f64 {
        self.unindexed_s / self.indexed_s
    }
}

/// The `index` scenario: reliability-index routing versus plain sampling
/// on its best case (certain edges + disconnected components) and its
/// worst case (fully uncertain, fully connected — the index can only
/// add overhead there, bounded by the 0.95x floor the binary asserts).
#[derive(Debug, Clone)]
pub struct IndexScenario {
    /// Per-workload comparisons.
    pub workloads: Vec<IndexComparison>,
}

/// The `mmap` scenario: the zero-copy snapshot path versus the heap
/// loader — one `.rgs` file built through the full gen → streaming
/// ingest → save pipeline, opened both ways, identical query batch
/// against each.
#[derive(Debug, Clone)]
pub struct MmapScenario {
    /// Nodes in the ring-chords scenario graph.
    pub nodes: usize,
    /// Edges (coins) in the scenario graph.
    pub edges: usize,
    /// On-disk size of the v3 snapshot.
    pub snapshot_bytes: u64,
    /// Whether `map_full` actually produced a zero-copy graph (false on
    /// platforms without the raw-mmap path, where it falls back to a
    /// buffered read).
    pub mapped: bool,
    /// Seconds to load via the heap path (`load_full`).
    pub heap_load_s: f64,
    /// Seconds to open via the validated zero-copy map (`map_full`).
    pub mmap_load_s: f64,
    /// Seconds to open via the trusted map (`map_full_trusted`: geometry
    /// checks only, no checksum rehash — the serve-reload path).
    pub trusted_load_s: f64,
    /// s-t queries in the timed batch.
    pub queries: usize,
    /// Sampled worlds per query.
    pub samples: usize,
    /// Seconds for the batch against the heap-loaded graph.
    pub heap_query_s: f64,
    /// Seconds for the same batch against the mapped graph.
    pub mmap_query_s: f64,
    /// Whether every estimate matched bit for bit across the two loads.
    pub bit_identical: bool,
    /// Heap bytes owned by the heap-loaded graph's columns.
    pub heap_resident_bytes: usize,
    /// Heap bytes owned by the mapped graph's columns (0 when fully
    /// zero-copy: every column borrows the mapped region).
    pub mmap_resident_bytes: usize,
    /// Process peak RSS (`VmHWM`) after the scenario, if measurable.
    pub peak_rss_bytes: Option<u64>,
}

/// Full result of one benchmark run.
#[derive(Debug, Clone)]
pub struct SamplingBench {
    /// Nodes in the adaptive scenario's Watts–Strogatz graph.
    pub nodes: usize,
    /// Edges (coins) in the adaptive scenario's graph.
    pub edges: usize,
    /// Hardware threads of the host that ran the report (its `nproc`).
    pub host_threads: usize,
    /// Lane-packed kernel versus the scalar reference kernel.
    pub packed: PackedScenario,
    /// Reliability-index routing versus plain sampling.
    pub index: IndexScenario,
    /// Accuracy-budget adaptive stopping versus the fixed budget.
    pub adaptive: AdaptiveScenario,
    /// Zero-copy snapshot loading versus the heap path.
    pub mmap: MmapScenario,
    /// End-to-end BE pipeline seconds (elimination + selection), and the
    /// measured reliability gain, on a smaller proxy workload.
    pub be_pipeline_s: f64,
    /// Mean BE gain over the pipeline workload (sanity: must be finite).
    pub be_gain: f64,
}

impl SamplingBench {
    /// Render as a small stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"graph\": {{\"nodes\": {}, \"edges\": {}}},\n",
            self.nodes, self.edges
        ));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        let p = &self.packed;
        out.push_str(&format!(
            "  \"packed\": {{\"graph\": {{\"nodes\": {}, \"edges\": {}}}, \"simd\": {}, \"kernels\": [\n",
            p.nodes, p.edges, p.simd
        ));
        for (i, c) in p.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"graph\": \"{}\", \"samples\": {}, \"scalar_s\": {:.6}, \"packed_s\": {:.6}, \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
                c.kernel,
                c.graph,
                c.samples,
                c.scalar_s,
                c.packed_s,
                c.speedup(),
                c.bit_identical,
                if i + 1 < p.kernels.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "  ], \"geomean_speedup\": {:.3}}},\n",
            p.geomean_speedup()
        ));
        out.push_str("  \"index\": {\"workloads\": [\n");
        for (i, c) in self.index.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"graph\": {{\"nodes\": {}, \"edges\": {}}}, \"queries\": {}, \"samples\": {}, \"supernodes\": {}, \"components\": {}, \"unindexed_s\": {:.6}, \"indexed_s\": {:.6}, \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
                c.workload,
                c.nodes,
                c.edges,
                c.queries,
                c.samples,
                c.supernodes,
                c.components,
                c.unindexed_s,
                c.indexed_s,
                c.speedup(),
                c.bit_identical,
                if i + 1 < self.index.workloads.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]},\n");
        let a = &self.adaptive;
        out.push_str(&format!(
            "  \"adaptive\": {{\"eps\": {}, \"delta\": {}, \"max_samples\": {}, \"queries\": [\n",
            a.eps, a.delta, a.max_samples
        ));
        for (i, q) in a.queries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"s\": {}, \"t\": {}, \"value\": {:.6}, \"half_width\": {:.6}, \"samples_used\": {}, \"stopped_early\": {}}}{}\n",
                q.s,
                q.t,
                q.value,
                q.half_width,
                q.samples_used,
                q.stopped_early,
                if i + 1 < a.queries.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "  ], \"fixed_total\": {}, \"adaptive_total\": {}, \"savings\": {:.4}, \"bit_identical_across_threads\": {}}},\n",
            a.fixed_total,
            a.adaptive_total,
            a.savings(),
            a.bit_identical_across_threads,
        ));
        let m = &self.mmap;
        out.push_str(&format!(
            "  \"mmap\": {{\"graph\": {{\"nodes\": {}, \"edges\": {}}}, \"snapshot_bytes\": {}, \"mapped\": {}, \"heap_load_s\": {:.6}, \"mmap_load_s\": {:.6}, \"trusted_load_s\": {:.6}, \"queries\": {}, \"samples\": {}, \"heap_query_s\": {:.6}, \"mmap_query_s\": {:.6}, \"bit_identical\": {}, \"heap_resident_bytes\": {}, \"mmap_resident_bytes\": {}, \"peak_rss_bytes\": {}}},\n",
            m.nodes,
            m.edges,
            m.snapshot_bytes,
            m.mapped,
            m.heap_load_s,
            m.mmap_load_s,
            m.trusted_load_s,
            m.queries,
            m.samples,
            m.heap_query_s,
            m.mmap_query_s,
            m.bit_identical,
            m.heap_resident_bytes,
            m.mmap_resident_bytes,
            m.peak_rss_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_string()),
        ));
        out.push_str(&format!(
            "  \"be_pipeline\": {{\"seconds\": {:.6}, \"mean_gain\": {:.4}}}\n",
            self.be_pipeline_s, self.be_gain
        ));
        out.push_str("}\n");
        out
    }
}

/// Measure adaptive stopping through the `QueryEngine` front door: a
/// spread of `s-t` queries answered under `Accuracy { eps, delta,
/// max_samples }`, compared against the fixed budget `max_samples` each —
/// the samples-used savings is the scenario's headline number.
pub fn run_adaptive_scenario(
    g: &UncertainGraph,
    csr: &CsrGraph,
    eps: f64,
    delta: f64,
    max_samples: usize,
) -> AdaptiveScenario {
    // A spread of hop distances: near pairs are easy (extreme p, tight
    // Bernstein) and far pairs are hard — both behaviors on display.
    let mut pairs = st_queries(g, 4, 1, 2, 0xada1);
    pairs.extend(st_queries(g, 4, 4, 6, 0xada2));
    let budget = Budget::accuracy_capped(eps, delta, max_samples);
    let engine = QueryEngine::from_snapshot(csr.clone(), McEstimator::with_budget(budget, 0x5eed));
    let par_engine = QueryEngine::from_snapshot(
        csr.clone(),
        McEstimator::with_budget_runtime(budget, 0x5eed, ParallelRuntime::new(4)),
    );
    let mut queries = Vec::with_capacity(pairs.len());
    let mut adaptive_total = 0u64;
    let mut bit_identical = true;
    for &(s, t) in &pairs {
        let est = engine.st(s, t, budget).expect("nodes in range");
        let par = par_engine.st(s, t, budget).expect("nodes in range");
        bit_identical &= est == par;
        adaptive_total += est.samples_used as u64;
        queries.push(AdaptiveQuery {
            s: s.0,
            t: t.0,
            value: est.value,
            half_width: est.half_width(),
            samples_used: est.samples_used,
            stopped_early: est.stopped_early,
        });
    }
    AdaptiveScenario {
        eps,
        delta,
        max_samples,
        fixed_total: (pairs.len() * max_samples) as u64,
        adaptive_total,
        queries,
        bit_identical_across_threads: bit_identical,
    }
}

/// The `packed` scenario: time the lane-packed kernel against the scalar
/// reference kernel (`Kernel::Scalar`) on identical worlds and assert
/// bit-identity.
///
/// The graph is deliberately production-sized (100k nodes, ~500k edges
/// at full size): per sampled world the scalar kernel re-streams the
/// whole CSR neighborhood structure, while the packed kernel streams it
/// once per 64 worlds — the regime the packed kernel exists for. The
/// `mc_st_local` row covers the opposite regime on a ring-chords graph:
/// `s-t` pairs 2–5 hops apart, where each block's front is a few nodes
/// wide and crawls along the ring; `mc_st_gen` runs a `relmax query
/// --gen 50` batch on the `relmax gen` graph (out-degree 10), where a
/// world reaches its target within a few levels. `smoke` shrinks the graphs and budgets
/// to CI scale (bit-identity is still asserted; speedups of the tiny run
/// are not meaningful).
pub fn run_packed_scenario(smoke: bool) -> PackedScenario {
    let (nodes, k, st_z, from_z, scan_z, cands) = if smoke {
        (4_000, 10, 256, 128, 64, 20)
    } else {
        (100_000, 10, 1_000, 512, 256, 50)
    };
    let mut g = synth::watts_strogatz(nodes, k, 0.2, 0xbe9c);
    ProbModel::Uniform { lo: 0.1, hi: 0.6 }.apply(&mut g, 0x77);
    let csr = CsrGraph::freeze(&g);
    let (s, t) = pick_far_pair(&g);
    let packed = McEstimator::new(1, 0x5eed).with_kernel(Kernel::Packed);
    let scalar = McEstimator::new(1, 0x5eed).with_kernel(Kernel::Scalar);
    let reps = 2;
    let mut kernels = Vec::new();

    let st_budget = Budget::fixed(st_z);
    // Warm both paths (page-in, scratch pools) before timing.
    let _ = packed.st_estimate(&csr, s, t, st_budget);
    let _ = scalar.st_estimate(&csr, s, t, st_budget);
    let (scalar_st, scalar_st_s) = best_of(reps, || scalar.st_estimate(&csr, s, t, st_budget));
    let (packed_st, packed_st_s) = best_of(reps, || packed.st_estimate(&csr, s, t, st_budget));
    kernels.push(PackedComparison {
        kernel: "mc_st",
        graph: "watts_strogatz",
        samples: st_z,
        scalar_s: scalar_st_s,
        packed_s: packed_st_s,
        bit_identical: scalar_st == packed_st,
    });

    let from_budget = Budget::fixed(from_z);
    let (scalar_from, scalar_from_s) =
        best_of(reps, || scalar.from_estimates(&csr, s, from_budget));
    let (packed_from, packed_from_s) =
        best_of(reps, || packed.from_estimates(&csr, s, from_budget));
    kernels.push(PackedComparison {
        kernel: "mc_from",
        graph: "watts_strogatz",
        samples: from_z,
        scalar_s: scalar_from_s,
        packed_s: packed_from_s,
        bit_identical: scalar_from == packed_from,
    });

    let scan_budget = Budget::fixed(scan_z);
    let candidates = candidate_scan_set(&g, cands);
    let (scalar_scan, scalar_scan_s) = best_of(reps, || {
        scalar.scan_estimates(&csr, s, t, &candidates, scan_budget)
    });
    let (packed_scan, packed_scan_s) = best_of(reps, || {
        packed.scan_estimates(&csr, s, t, &candidates, scan_budget)
    });
    kernels.push(PackedComparison {
        kernel: "candidate_scan",
        graph: "watts_strogatz",
        samples: scan_z,
        scalar_s: scalar_scan_s,
        packed_s: packed_scan_s,
        bit_identical: scalar_scan == packed_scan,
    });

    // Local pairs on a directed ring-chords graph (out-degree 4, strides
    // 1..=4): offsets 5..=20 are exactly 2–5 hops; the first pair wraps
    // past node 0. Timed as one batch of st queries.
    let (ring_nodes, ring_pairs) = if smoke { (4_000, 4) } else { (100_000, 20) };
    let ring = CsrGraph::freeze(&synth::RingChords::new(ring_nodes, 4, 0x71).to_graph());
    let pairs: Vec<(NodeId, NodeId)> = (0..ring_pairs)
        .map(|i| {
            let s = (ring_nodes as u32 - 10 + i * 7919) % ring_nodes as u32;
            let t = (s + 20 - (i * 7) % 16) % ring_nodes as u32;
            (NodeId(s), NodeId(t))
        })
        .collect();
    let batch = |est: &McEstimator| -> Vec<_> {
        pairs
            .iter()
            .map(|&(s, t)| est.st_estimate(&ring, s, t, st_budget))
            .collect()
    };
    let _ = batch(&packed);
    let _ = batch(&scalar);
    let (scalar_local, scalar_local_s) = best_of(reps, || batch(&scalar));
    let (packed_local, packed_local_s) = best_of(reps, || batch(&packed));
    kernels.push(PackedComparison {
        kernel: "mc_st_local",
        graph: "ring_chords",
        samples: st_z,
        scalar_s: scalar_local_s,
        packed_s: packed_local_s,
        bit_identical: scalar_local == packed_local,
    });

    // The CLI's own graph: `relmax gen` (ring-chords, out-degree 10,
    // seed 42) with a `relmax query --gen` batch of 2–5-hop pairs.
    let (gen_nodes, gen_pairs) = if smoke { (4_000, 4) } else { (100_000, 50) };
    let gen = CsrGraph::freeze(&synth::RingChords::new(gen_nodes, 10, 42).to_graph());
    let pairs = st_queries(&gen, gen_pairs, 2, 5, 42);
    let batch = |est: &McEstimator| -> Vec<_> {
        pairs
            .iter()
            .map(|&(s, t)| est.st_estimate(&gen, s, t, st_budget))
            .collect()
    };
    let _ = batch(&packed);
    let _ = batch(&scalar);
    let (scalar_gen, scalar_gen_s) = best_of(reps, || batch(&scalar));
    let (packed_gen, packed_gen_s) = best_of(reps, || batch(&packed));
    kernels.push(PackedComparison {
        kernel: "mc_st_gen",
        graph: "ring_chords_gen",
        samples: st_z,
        scalar_s: scalar_gen_s,
        packed_s: packed_gen_s,
        bit_identical: scalar_gen == packed_gen,
    });

    PackedScenario {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        simd: packed::simd_available(),
        kernels,
    }
}

/// The index scenario's best-case graph: `components` disconnected
/// Watts–Strogatz islands with ~30% of edges certain (`p == 1.0`), the
/// regime the freeze-time reliability index exists for (cross-island
/// queries short-circuit to 0 without sampling; certain edges condense
/// into supernodes so sampled BFS walks a smaller graph).
pub fn partitioned_certain_graph(
    components: usize,
    comp_nodes: usize,
    k: usize,
    seed: u64,
) -> UncertainGraph {
    let mut g = UncertainGraph::new(components * comp_nodes, false);
    for c in 0..components {
        let mut island = synth::watts_strogatz(comp_nodes, k, 0.2, seed + c as u64);
        ProbModel::Uniform { lo: 0.3, hi: 0.9 }.apply(&mut island, seed ^ 0xc0de);
        let off = (c * comp_nodes) as u32;
        for (i, e) in island.edges().iter().enumerate() {
            let prob = if i % 10 < 3 { 1.0 } else { e.prob };
            g.add_edge(NodeId(e.src.0 + off), NodeId(e.dst.0 + off), prob)
                .expect("island edges are fresh");
        }
    }
    g
}

/// The `index` scenario: serve the same s-t batch with and without the
/// reliability index and compare wall time plus value bit-identity.
///
/// Two workloads bound the design space: `uncertain_connected` (every
/// probability strictly inside (0, 1), one component — the index is pure
/// overhead, which must stay negligible) and `certain_partitioned`
/// (islands + certain edges — short-circuits and condensation must pay).
pub fn run_index_scenario(smoke: bool) -> IndexScenario {
    let (nodes, comp_nodes, k, z, reps) = if smoke {
        (4_000, 500, 10, 256, 2)
    } else {
        (100_000, 12_500, 10, 1_000, 2)
    };
    let budget = Budget::fixed(z);
    let mut workloads = Vec::new();

    // Worst case: the same fully-uncertain connected graph the packed
    // scenario uses. Condensation finds nothing, there is one component —
    // index routing degenerates to a per-query plan lookup.
    let mut g = synth::watts_strogatz(nodes, k, 0.2, 0xbe9c);
    ProbModel::Uniform { lo: 0.1, hi: 0.6 }.apply(&mut g, 0x77);
    let pairs = st_queries(&g, 8, 4, 6, 0x1d1);
    let csr = CsrGraph::freeze(&g);
    workloads.push(compare_indexed(
        "uncertain_connected",
        &g,
        &csr,
        &pairs,
        budget,
        z,
        reps,
    ));

    // Best case: disconnected islands, ~30% certain edges; the batch is
    // mostly cross-island (short-circuits to 0.0 without sampling) plus
    // a few within-island queries (sampled on the condensed graph).
    let comps = 8;
    let g = partitioned_certain_graph(comps, comp_nodes, k, 0x15a);
    let cn = comp_nodes as u32;
    let mut pairs: Vec<(NodeId, NodeId)> = (0..comps as u32)
        .map(|c| {
            let d = (c + 3) % comps as u32;
            (NodeId(c * cn + 1), NodeId(d * cn + cn / 2))
        })
        .collect();
    pairs.extend((0..4u32).map(|c| (NodeId(c * cn), NodeId(c * cn + cn / 3))));
    let csr = CsrGraph::freeze(&g);
    workloads.push(compare_indexed(
        "certain_partitioned",
        &g,
        &csr,
        &pairs,
        budget,
        z,
        reps,
    ));

    IndexScenario { workloads }
}

/// Time one s-t batch with and without the index attached.
fn compare_indexed(
    workload: &'static str,
    g: &UncertainGraph,
    csr: &CsrGraph,
    pairs: &[(NodeId, NodeId)],
    budget: Budget,
    samples: usize,
    reps: usize,
) -> IndexComparison {
    let index = Arc::new(RelIndex::build(csr));
    let stats = index.stats();
    let plain = McEstimator::with_budget(budget, 0x5eed).with_kernel(Kernel::Packed);
    let routed = plain.clone().with_rel_index(index);
    let batch = |est: &McEstimator| {
        pairs
            .iter()
            .map(|&(s, t)| est.st_estimate(csr, s, t, budget))
            .collect::<Vec<_>>()
    };
    // Warm both paths before timing.
    let _ = batch(&plain);
    let _ = batch(&routed);
    let (plain_est, unindexed_s) = best_of(reps, || batch(&plain));
    let (routed_est, indexed_s) = best_of(reps, || batch(&routed));
    let bit_identical = plain_est
        .iter()
        .zip(&routed_est)
        .all(|(a, b)| a.value.to_bits() == b.value.to_bits());
    IndexComparison {
        workload,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        queries: pairs.len(),
        samples,
        supernodes: stats.supernodes,
        components: stats.components,
        unindexed_s,
        indexed_s,
        bit_identical,
    }
}

/// Measure the zero-copy snapshot path against the heap loader.
///
/// Builds a ring-chords instance through the full storage pipeline
/// (streamed text edge list → streaming two-pass freeze → v3 `.rgs`),
/// then opens the snapshot three ways — heap `load_full`, validated
/// `map_full`, trusted `map_full_trusted` — and runs an identical
/// fixed-budget s-t batch against the heap and mapped graphs. The
/// estimates must match bit for bit; the resident-bytes split shows
/// what zero-copy actually keeps off the heap.
pub fn run_mmap_scenario(smoke: bool) -> MmapScenario {
    let (n, k, queries, samples) = if smoke {
        (20_000, 8, 4, 64)
    } else {
        (500_000, 10, 8, 64)
    };
    let rc = synth::RingChords::new(n, k, 0x9a75);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let tsv = dir.join(format!("relmax-bench-mmap-{pid}.tsv"));
    let rgs = dir.join(format!("relmax-bench-mmap-{pid}.rgs"));

    {
        let f = std::fs::File::create(&tsv).expect("create bench edge list");
        rc.write_text(std::io::BufWriter::new(f))
            .expect("write bench edge list");
    }
    let opts = edgelist::EdgeListOptions::default();
    let (frozen, _) = edgelist::freeze_path(&tsv, &opts).expect("streaming freeze");
    snapshot::save(&frozen, &rgs).expect("save snapshot");
    drop(frozen);
    let snapshot_bytes = std::fs::metadata(&rgs).map(|m| m.len()).unwrap_or(0);

    let (heap_loaded, heap_load_s) = timed(|| snapshot::load_full(&rgs).expect("heap load"));
    let (mapped_loaded, mmap_load_s) = timed(|| snapshot::map_full(&rgs).expect("mmap load"));
    let (_trusted, trusted_load_s) =
        timed(|| snapshot::map_full_trusted(&rgs).expect("trusted load"));
    let (heap, _) = heap_loaded;
    let (mapped, _) = mapped_loaded;

    let budget = Budget::fixed(samples);
    let est = McEstimator::with_budget(budget, 0x5eed).with_kernel(Kernel::Packed);
    let pairs: Vec<(NodeId, NodeId)> = (0..queries)
        .map(|i| {
            let s = i * n / queries;
            (NodeId(s as u32), NodeId(((s + n / 2) % n) as u32))
        })
        .collect();

    // Warm both graphs (fault the mapped pages in) before timing.
    let _ = est.st_estimate(&heap, pairs[0].0, pairs[0].1, budget);
    let _ = est.st_estimate(&mapped, pairs[0].0, pairs[0].1, budget);

    let (heap_vals, heap_query_s) = timed(|| {
        pairs
            .iter()
            .map(|&(s, t)| est.st_estimate(&heap, s, t, budget))
            .collect::<Vec<_>>()
    });
    let (mmap_vals, mmap_query_s) = timed(|| {
        pairs
            .iter()
            .map(|&(s, t)| est.st_estimate(&mapped, s, t, budget))
            .collect::<Vec<_>>()
    });

    let scenario = MmapScenario {
        nodes: n,
        edges: rc.num_edges(),
        snapshot_bytes,
        mapped: mapped.is_zero_copy(),
        heap_load_s,
        mmap_load_s,
        trusted_load_s,
        queries,
        samples,
        heap_query_s,
        mmap_query_s,
        bit_identical: heap_vals == mmap_vals,
        heap_resident_bytes: heap.resident_bytes(),
        mmap_resident_bytes: mapped.resident_bytes(),
        peak_rss_bytes: vm_hwm_bytes(),
    };
    let _ = std::fs::remove_file(&tsv);
    let _ = std::fs::remove_file(&rgs);
    scenario
}

/// The synthetic benchmark graph: Watts–Strogatz with ≥ `edges_floor`
/// edges and uniform probabilities — dense enough that sampled-world BFS
/// actually walks the graph, sparse enough to finish quickly.
fn bench_graph(nodes: usize, edges_floor: usize) -> UncertainGraph {
    // +2 margin: rewiring occasionally drops an edge.
    let k = ((2 * edges_floor).div_ceil(nodes) + 2).next_multiple_of(2);
    let mut g = synth::watts_strogatz(nodes, k, 0.2, 0xbe9c);
    ProbModel::Uniform { lo: 0.1, hi: 0.6 }.apply(&mut g, 0x77);
    assert!(
        g.num_edges() >= edges_floor,
        "generator under-delivered edges"
    );
    g
}

/// Run the sampling microbenchmark.
///
/// `pipeline_queries` controls the end-to-end BE workload size (0 skips
/// it); `smoke` shrinks every scenario to CI scale.
pub fn run(pipeline_queries: usize, smoke: bool) -> SamplingBench {
    // Accuracy budgets through the QueryEngine front door: how many of
    // the fixed budget's worlds does adaptive stopping actually need?
    // The cap is sized so ±0.02 is reachable well before it on easy
    // (low-variance) queries — that gap is the measured savings.
    let (g, adaptive_cap) = if smoke {
        (bench_graph(2_000, 2_500), 16_384)
    } else {
        (bench_graph(10_000, 12_000), 80_000)
    };
    let csr = CsrGraph::freeze(&g);
    let adaptive = run_adaptive_scenario(&g, &csr, 0.02, 0.05, adaptive_cap);

    let packed = run_packed_scenario(smoke);
    let index = run_index_scenario(smoke);
    let mmap = run_mmap_scenario(smoke);

    let (be_pipeline_s, be_gain) = if pipeline_queries > 0 {
        bench_be_pipeline(pipeline_queries)
    } else {
        (0.0, 0.0)
    };

    SamplingBench {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        packed,
        index,
        adaptive,
        mmap,
        be_pipeline_s,
        be_gain,
    }
}

/// End-to-end BE pipeline (elimination → top-l paths → batch selection)
/// on a LastFM-like proxy; returns (total seconds, mean gain).
fn bench_be_pipeline(queries: usize) -> (f64, f64) {
    let g = relmax_gen::proxy::DatasetProxy::LastFm.generate(0.08, 42);
    let workload = st_queries(&g, queries, 3, 5, 7);
    let budget = Budget::fixed(300);
    let est = McEstimator::with_budget(budget, 0x5eed);
    let be = AnySelector::batch_edge();
    let mut gain = 0.0;
    let (_, secs) = timed(|| {
        for &(s, t) in &workload {
            let q = StQuery::new(s, t, 5, 0.5).with_r(30).with_l(10);
            let out = be.select_budgeted(&g, &q, &est, budget).expect("BE runs");
            gain += out.gain();
        }
    });
    (secs, gain / workload.len().max(1) as f64)
}

/// Time one closure, returning (result, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Process peak resident set (`VmHWM`) in bytes, or `None` off Linux.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(
        kb.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<u64>()
            .ok()?
            * 1024,
    )
}

/// Best-of-`reps` timing: returns the last result and the minimum
/// elapsed seconds. Minimum-of-N is the standard way to strip scheduler
/// noise from single-machine microbenchmarks; both code paths get the
/// same treatment.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps.max(1) {
        let (v, secs) = timed(&mut f);
        out = v;
        best = best.min(secs);
    }
    (out, best)
}

/// Missing-edge candidates for the scan kernel, uniform probability 0.5.
fn candidate_scan_set(g: &UncertainGraph, count: usize) -> Vec<ExtraEdge> {
    let n = g.num_nodes() as u32;
    let mut out = Vec::with_capacity(count);
    let mut u = 0u32;
    let mut v = 1u32;
    while out.len() < count {
        v = (v + 7) % n;
        if v == u {
            v = (v + 1) % n;
        }
        u = (u + 3) % n;
        if u != v && !g.has_edge(NodeId(u), NodeId(v)) {
            out.push(ExtraEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: 0.5,
            });
        }
    }
    out
}

/// An s-t pair a few hops apart so sampled BFS does real work.
fn pick_far_pair(g: &UncertainGraph) -> (NodeId, NodeId) {
    st_queries(g, 1, 4, 6, 3)
        .first()
        .copied()
        .unwrap_or((NodeId(0), NodeId(g.num_nodes() as u32 - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smoke run computes every scenario once; each scenario's
    /// assertions read its result off that run.
    #[test]
    fn smoke_run_produces_sane_json() {
        let bench = run(0, true);
        assert!(bench.edges >= 5_000);
        let json = bench.to_json();
        assert!(json.contains("\"geomean_speedup\""));
        assert!(json.contains("\"packed\""));
        assert!(json.contains("mc_st"));
        assert!(json.contains("\"adaptive\""));
        assert!(json.contains("\"savings\""));

        // Packed scenario: bit-identical to the scalar kernel.
        assert_eq!(bench.packed.kernels.len(), 5);
        for c in &bench.packed.kernels {
            assert!(c.bit_identical, "packed {} diverged from scalar", c.kernel);
            assert!(c.scalar_s > 0.0 && c.packed_s > 0.0);
        }

        // Index scenario: value-identical to unindexed sampling.
        let index = &bench.index;
        assert_eq!(index.workloads.len(), 2);
        for c in &index.workloads {
            assert!(c.bit_identical, "index {} values diverged", c.workload);
            assert!(c.unindexed_s > 0.0 && c.indexed_s > 0.0);
        }
        let connected = &index.workloads[0];
        assert_eq!(connected.components, 1);
        assert_eq!(connected.supernodes, connected.nodes); // nothing certain
        let partitioned = &index.workloads[1];
        assert_eq!(partitioned.components, 8);
        assert!(
            partitioned.supernodes < partitioned.nodes,
            "certain edges must condense: {} supernodes on {} nodes",
            partitioned.supernodes,
            partitioned.nodes
        );

        // Adaptive scenario (2k-node graph, cap 16,384, ±0.02): saves
        // samples and stays deterministic across thread counts.
        let adaptive = &bench.adaptive;
        assert_eq!(bench.nodes, 2_000);
        assert_eq!((adaptive.eps, adaptive.max_samples), (0.02, 16_384));
        assert!(!adaptive.queries.is_empty());
        assert!(adaptive.bit_identical_across_threads);
        // At least one query must beat the fixed budget — the accuracy
        // budget's whole reason to exist.
        assert!(
            adaptive.stopped_early() >= 1,
            "no query stopped early: {adaptive:?}"
        );
        assert!(adaptive.adaptive_total < adaptive.fixed_total);
        for q in &adaptive.queries {
            if q.stopped_early {
                assert!(q.half_width <= adaptive.eps + 1e-12, "{q:?}");
            }
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_hwm_bytes().is_some_and(|b| b > 1 << 20));
        }
    }

    #[test]
    fn bench_graph_meets_edge_floor() {
        let g = bench_graph(10_000, 12_000);
        assert!(g.num_edges() >= 5_000, "m={}", g.num_edges());
    }
}
