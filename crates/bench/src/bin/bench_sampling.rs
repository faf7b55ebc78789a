//! Sampling hot-path microbenchmark: dyn-closure walk vs frozen CSR walk,
//! plus the end-to-end batch-edge pipeline.
//!
//! ```text
//! cargo run --release -p relmax-bench --bin bench_sampling            # full run
//! cargo run --release -p relmax-bench --bin bench_sampling -- --smoke # CI-sized
//! cargo run --release -p relmax-bench --bin bench_sampling -- --out BENCH_sampling.json
//! ```
//!
//! Writes the JSON report to `--out` (default `BENCH_sampling.json` in
//! the current directory) and prints it to stdout.

use relmax_bench::sampling_bench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sampling.json".to_string());

    let (samples, pipeline_queries) = if smoke { (500, 1) } else { (5_000, 4) };
    eprintln!(
        "bench_sampling: {samples} worlds/kernel, {pipeline_queries} pipeline queries{}",
        if smoke { " (smoke)" } else { "" }
    );

    let bench = sampling_bench::run(samples, pipeline_queries, smoke);
    for c in &bench.kernels {
        eprintln!(
            "  {:<18} dyn {:>9.2?}  csr {:>9.2?}  speedup {:>5.2}x  bit-identical: {}",
            c.kernel,
            std::time::Duration::from_secs_f64(c.dyn_s),
            std::time::Duration::from_secs_f64(c.csr_s),
            c.speedup,
            c.bit_identical,
        );
    }
    eprintln!("  geomean speedup: {:.2}x", bench.geomean_speedup());
    eprintln!(
        "  packed kernel vs scalar reference (watts_strogatz: {} nodes, {} edges; simd: {}):",
        bench.packed.nodes, bench.packed.edges, bench.packed.simd
    );
    for c in &bench.packed.kernels {
        eprintln!(
            "  {:<15} {:<15} scalar {:>9.2?}  packed {:>9.2?}  speedup {:>5.2}x  bit-identical: {}",
            c.kernel,
            c.graph,
            std::time::Duration::from_secs_f64(c.scalar_s),
            std::time::Duration::from_secs_f64(c.packed_s),
            c.speedup(),
            c.bit_identical,
        );
    }
    eprintln!(
        "  packed geomean speedup: {:.2}x",
        bench.packed.geomean_speedup()
    );
    eprintln!("  reliability index vs plain sampling:");
    for c in &bench.index.workloads {
        eprintln!(
            "  {:<20} ({} nodes, {} comps, {} supernodes) unindexed {:>9.2?}  indexed {:>9.2?}  speedup {:>5.2}x  values identical: {}",
            c.workload,
            c.nodes,
            c.components,
            c.supernodes,
            std::time::Duration::from_secs_f64(c.unindexed_s),
            std::time::Duration::from_secs_f64(c.indexed_s),
            c.speedup(),
            c.bit_identical,
        );
    }
    let a = &bench.adaptive;
    eprintln!(
        "  adaptive (eps {} delta {}): {}/{} queries stopped early, {} of {} worlds spent ({:.1}% saved), thread-identical: {}",
        a.eps,
        a.delta,
        a.stopped_early(),
        a.queries.len(),
        a.adaptive_total,
        a.fixed_total,
        a.savings() * 100.0,
        a.bit_identical_across_threads,
    );

    let m = &bench.mmap;
    eprintln!(
        "  mmap ({} nodes, {} edges, {} snapshot bytes, mapped: {}): load heap {:.2?} / mmap {:.2?} / trusted {:.2?}, {} queries x {} worlds heap {:.2?} / mmap {:.2?}, resident heap {} / mmap {}, bit-identical: {}",
        m.nodes,
        m.edges,
        m.snapshot_bytes,
        m.mapped,
        std::time::Duration::from_secs_f64(m.heap_load_s),
        std::time::Duration::from_secs_f64(m.mmap_load_s),
        std::time::Duration::from_secs_f64(m.trusted_load_s),
        m.queries,
        m.samples,
        std::time::Duration::from_secs_f64(m.heap_query_s),
        std::time::Duration::from_secs_f64(m.mmap_query_s),
        m.heap_resident_bytes,
        m.mmap_resident_bytes,
        m.bit_identical,
    );

    let json = bench.to_json();
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        eprintln!("wrote {out_path}");
    }

    // The refactor's whole point: fail loudly if the estimates diverge or
    // the monomorphized walk stops being meaningfully faster.
    assert!(
        bench.kernels.iter().all(|c| c.bit_identical),
        "estimates diverged"
    );
    // And the accuracy budget's whole point: adaptive stopping must beat
    // the fixed budget on at least one query, without costing a single
    // bit of thread-count determinism.
    assert!(
        bench.adaptive.bit_identical_across_threads,
        "adaptive estimates diverged across thread counts"
    );
    assert!(
        bench.adaptive.stopped_early() >= 1
            && bench.adaptive.adaptive_total < bench.adaptive.fixed_total,
        "adaptive stopping saved nothing: {:?}",
        bench.adaptive
    );
    // The packed kernel must agree with the scalar reference bit for bit
    // at every scale; at full scale it must also clear the 3x floor on
    // the st kernel (smoke graphs are too small for speedups to mean
    // anything, so only identity is asserted there).
    assert!(
        bench.packed.kernels.iter().all(|c| c.bit_identical),
        "packed kernel diverged from the scalar reference"
    );
    // The reliability index must never change a value, at any scale; at
    // full scale it must also pay ≥2x on its best-case workload while
    // costing at most 5% on its worst case (smoke graphs are too small
    // for the timings to mean anything, so only identity is asserted).
    assert!(
        bench.index.workloads.iter().all(|c| c.bit_identical),
        "index routing changed a reliability value"
    );
    // The zero-copy path must never change an estimate, at any scale; on
    // linux it must also actually engage (every column borrowed from the
    // mapped region, nothing re-heapified behind our back).
    assert!(
        bench.mmap.bit_identical,
        "mapped snapshot produced different estimates than the heap load"
    );
    // (`resident_bytes` counts the struct header itself, so "fully
    // borrowed" shows up as a few hundred bytes, not zero.)
    if cfg!(target_os = "linux") {
        assert!(
            bench.mmap.mapped
                && bench.mmap.mmap_resident_bytes * 100 <= bench.mmap.heap_resident_bytes,
            "zero-copy load did not engage on linux: {:?}",
            bench.mmap
        );
    }
    if !smoke {
        assert!(
            bench.geomean_speedup() >= 2.0,
            "CSR walk fell below the 2x floor: {:.2}x",
            bench.geomean_speedup()
        );
        let connected = bench
            .index
            .workloads
            .iter()
            .find(|c| c.workload == "uncertain_connected")
            .expect("connected workload present");
        assert!(
            connected.speedup() >= 0.95,
            "index overhead broke the 0.95x floor on the connected workload: {:.2}x",
            connected.speedup()
        );
        let partitioned = bench
            .index
            .workloads
            .iter()
            .find(|c| c.workload == "certain_partitioned")
            .expect("partitioned workload present");
        assert!(
            partitioned.speedup() >= 2.0,
            "index fell below the 2x floor on its best-case workload: {:.2}x",
            partitioned.speedup()
        );
        let st = bench
            .packed
            .kernels
            .iter()
            .find(|c| c.kernel == "mc_st")
            .expect("st scenario present");
        assert!(
            st.speedup() >= 3.0,
            "packed st kernel fell below the 3x floor: {:.2}x",
            st.speedup()
        );
    }
}
