//! `relmax query` — serve a batch of reliability queries.
//!
//! The workload comes from a query file (`--queries`, which may carry a
//! `% accuracy` directive) or is generated on the fly (`--gen N`); the
//! graph comes from a snapshot or edge list. Everything routes through
//! the [`relmax_core::QueryEngine`] facade: one freeze, one budget —
//! `--samples Z` for a fixed world count, or `--eps/--delta/--max-samples`
//! for "±eps at confidence 1−delta" with deterministic adaptive stopping —
//! and rich estimates (stderr, confidence interval, worlds spent) on every
//! answer. **stdout is bit-identical for a fixed seed at every
//! `--threads` / `RELMAX_THREADS` value** (CI diffs runs at 1 and 4
//! threads to hold the line). Timings go to stderr.

use crate::opts::{self, BudgetFlags, CliError, Format};
use crate::table::Table;
use relmax_gen::workload::{self, QuerySpec};
use relmax_sampling::{BatchEstimate, BatchQuery, Budget, ParallelRuntime};
use relmax_server::state::{batch_query, load_snapshot, AnyEngine};
use relmax_server::{render, EngineKind};
use relmax_ugraph::edgelist::EdgeListOptions;
use relmax_ugraph::{CsrGraph, ProbGraph};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut graph_path: Option<String> = None;
    let mut queries_path: Option<String> = None;
    let mut gen_count: Option<usize> = None;
    let mut min_hops: Option<u32> = None;
    let mut max_hops: Option<u32> = None;
    let mut emit_queries: Option<String> = None;
    let mut estimator = EngineKind::Mc;
    let mut samples = 1000usize;
    let mut budget_flags = BudgetFlags::default();
    let mut seed = 42u64;
    let mut threads: Option<usize> = None;
    let mut format = Format::Table;
    let mut verbose_estimates = false;
    let mut no_index = false;
    let mut text_opts = EdgeListOptions::default();
    let mut text_flags: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--queries" => queries_path = Some(opts::take_value(&mut it, a)?),
            "--gen" => gen_count = Some(opts::take_parsed(&mut it, a)?),
            "--min-hops" => min_hops = Some(opts::take_parsed(&mut it, a)?),
            "--max-hops" => max_hops = Some(opts::take_parsed(&mut it, a)?),
            "--emit-queries" => emit_queries = Some(opts::take_value(&mut it, a)?),
            "--estimator" => {
                estimator =
                    EngineKind::parse(&opts::take_value(&mut it, a)?).map_err(opts::usage)?
            }
            "--samples" | "-z" => samples = opts::take_parsed(&mut it, a)?,
            "--eps" => budget_flags.eps = Some(opts::take_parsed(&mut it, a)?),
            "--delta" => budget_flags.delta = Some(opts::take_parsed(&mut it, a)?),
            "--max-samples" => budget_flags.max_samples = Some(opts::take_parsed(&mut it, a)?),
            "--seed" => seed = opts::take_parsed(&mut it, a)?,
            "--threads" => threads = Some(opts::take_parsed(&mut it, a)?),
            "--format" => format = Format::parse(&opts::take_value(&mut it, a)?)?,
            "--verbose-estimates" => verbose_estimates = true,
            "--no-index" => no_index = true,
            "--undirected" => {
                text_opts.directed = false;
                text_flags.push("--undirected");
            }
            "--nodes" => {
                text_opts.nodes = Some(opts::take_parsed(&mut it, a)?);
                text_flags.push("--nodes");
            }
            other => opts::positional(&mut graph_path, other, "graph input")?,
        }
    }
    let graph_path = opts::required(graph_path, "graph input (snapshot or edge list)")?;
    if samples == 0 {
        return Err(opts::usage("--samples must be at least 1"));
    }
    if queries_path.is_some() && gen_count.is_some() {
        return Err(opts::usage("--queries and --gen are mutually exclusive"));
    }
    // The hop flags are overloaded by workload source. With `--gen` they
    // bound the *generation band* (defaults 2..5, the paper's §8.1 draw).
    // With `--queries`, `--max-hops D` hop-bounds every st/set query —
    // overriding the file's `% max-hops` directive — and `--min-hops`
    // has no meaning at all, so passing it is a usage error rather than
    // a silently ignored flag.
    if queries_path.is_some() && min_hops.is_some() {
        return Err(opts::usage(
            "--min-hops only applies to --gen (the generated hop band); \
             with --queries, use --max-hops to hop-bound st/set queries",
        ));
    }
    if gen_count.is_some() {
        let (lo, hi) = (min_hops.unwrap_or(2), max_hops.unwrap_or(5));
        if lo > hi || lo == 0 {
            return Err(opts::usage(format!(
                "need 1 <= --min-hops <= --max-hops, got {lo}..{hi}"
            )));
        }
    }
    // Usage checks stay ahead of graph loading: a missing workload must
    // not cost a multi-second parse + freeze of a large dataset first.
    if queries_path.is_none() && gen_count.is_none() {
        return Err(opts::usage(
            "need a workload: pass `--queries FILE` or `--gen N`",
        ));
    }
    // The workload file parses before the graph loads: both its syntax
    // errors and budget-flag conflicts must not cost a multi-second
    // parse + freeze of a large dataset first.
    let file_workload = match &queries_path {
        Some(path) => Some(
            workload::parse_workload_file(path)
                .map_err(|e| opts::run_err(format!("{path}: {e}")))?,
        ),
        None => None,
    };
    let budget = budget_flags.resolve(samples, file_workload.as_ref().and_then(|w| w.accuracy))?;
    // The effective hop bound for st/set queries: an explicit CLI
    // `--max-hops` wins over the workload file's `% max-hops` directive.
    // Generated workloads are never bounded (`--max-hops` is the
    // generation band there).
    let hop_bound: Option<u32> = if queries_path.is_some() {
        max_hops.or(file_workload.as_ref().and_then(|w| w.max_hops))
    } else {
        None
    };

    let started = std::time::Instant::now();
    let snap = load_snapshot(&graph_path, &text_opts, !no_index).map_err(opts::run_err)?;
    opts::note_ignored_text_flags(snap.format_version, &text_flags, &graph_path);
    let csr: &CsrGraph = &snap.csr;

    let specs = if let Some(workload) = file_workload {
        workload.specs
    } else {
        let count = gen_count.expect("presence checked above");
        let (lo, hi) = (min_hops.unwrap_or(2), max_hops.unwrap_or(5));
        let generated = workload::st_workload(csr, count, lo, hi, seed);
        if generated.len() < count {
            eprintln!(
                "note: graph supplied only {} of {count} requested queries in the {lo}..{hi} hop band",
                generated.len()
            );
        }
        generated
    };
    for (i, q) in specs.iter().enumerate() {
        if q.max_node().index() >= csr.num_nodes() {
            return Err(opts::run_err(format!(
                "query {} ({q}) references node {} but the graph has {} nodes",
                i + 1,
                q.max_node().0,
                csr.num_nodes()
            )));
        }
    }
    let batch_queries: Vec<BatchQuery> = specs.iter().map(|q| batch_query(q, hop_bound)).collect();
    // Constrained shapes (set/hops, or anything hop-bounded) need an
    // estimator that supports them; fail loudly rather than silently
    // answering the unconstrained query.
    if estimator == EngineKind::Rss {
        let offender = batch_queries.iter().position(BatchQuery::is_constrained);
        if let Some(q) = offender.map(|i| &specs[i]) {
            return Err(opts::run_err(format!(
                "the rss estimator does not support constrained query shapes \
                 (found `{q}`{}); use --estimator mc",
                if hop_bound.is_some() {
                    " under a max-hops bound"
                } else {
                    ""
                }
            )));
        }
    }
    if let Some(path) = &emit_queries {
        let mut f =
            std::fs::File::create(path).map_err(|e| opts::run_err(format!("{path}: {e}")))?;
        // The emitted file must replay this run verbatim, so it carries
        // the *resolved* budget as a directive whenever that budget is an
        // accuracy target (fixed budgets replay via --samples as before).
        let emitted = workload::Workload {
            specs: specs.clone(),
            accuracy: match budget {
                Budget::Accuracy {
                    eps,
                    delta,
                    max_samples,
                } => Some(workload::AccuracyDirective {
                    eps,
                    delta,
                    max_samples: Some(max_samples),
                }),
                Budget::FixedSamples(_) => None,
            },
            // Likewise the *resolved* hop bound, so a CLI override is
            // baked into the replay file.
            max_hops: hop_bound,
        };
        workload::write_workload(&emitted, &mut f)
            .map_err(|e| opts::run_err(format!("{path}: {e}")))?;
    }

    // Parallel across queries, serial within each estimate; every result
    // is bit-identical at every thread count either way.
    let runtime = threads
        .map(ParallelRuntime::new)
        .unwrap_or_else(ParallelRuntime::auto);
    let results = AnyEngine::build(&snap, estimator, budget, seed)
        .with_runtime(runtime)
        .batch(&batch_queries, budget)
        .map_err(opts::run_err)?;

    match format {
        Format::Table => print_table(&specs, &results, verbose_estimates),
        Format::Json => {
            // Entries render through the server crate's shared code, so a
            // `relmax serve` response for the same workload + seed + budget
            // carries a byte-identical `"results"` array (tests/server.rs
            // pins this end to end). The name is the estimator's own
            // (`Estimator::name`: MC, RSS), the flag spelled in capitals.
            let rendered = specs
                .iter()
                .zip(&results)
                .map(|(q, r)| render::result_entry(q, hop_bound, r));
            let name = estimator.name().to_ascii_uppercase();
            println!(
                "{}",
                render::response(None, &snap, &name, seed, &budget, rendered)
            );
        }
    }
    eprintln!(
        "{} queries on {} nodes / {} coins in {:.3}s ({} worker(s))",
        specs.len(),
        csr.num_nodes(),
        csr.num_coins(),
        started.elapsed().as_secs_f64(),
        runtime.threads(),
    );
    Ok(())
}

fn print_table(specs: &[QuerySpec], results: &[BatchEstimate], verbose: bool) {
    let mut header = vec!["#", "query", "reliability", "max", "nonzero"];
    if verbose {
        header.extend_from_slice(&["stderr", "ci_low", "ci_high", "Z", "early"]);
    }
    let mut t = Table::new(header);
    for (i, (q, r)) in specs.iter().zip(results).enumerate() {
        let mut row = match r {
            BatchEstimate::Scalar(e) => vec![
                (i + 1).to_string(),
                q.to_string(),
                format!("{:.6}", e.value),
                "-".to_string(),
                "-".to_string(),
            ],
            BatchEstimate::Vector(_) | BatchEstimate::Ranking(_) => {
                let (nonzero, mean, max) = r.summary();
                vec![
                    (i + 1).to_string(),
                    q.to_string(),
                    format!("{mean:.6}"),
                    format!("{max:.6}"),
                    nonzero.to_string(),
                ]
            }
            // Hops rows reuse the `max` column for the conditional
            // expected hop count (suffixed `h` to keep it unambiguous).
            BatchEstimate::Hops(h) => vec![
                (i + 1).to_string(),
                q.to_string(),
                format!("{:.6}", h.reliability.value),
                format!("{:.3}h", h.expected_hops),
                "-".to_string(),
            ],
        };
        if verbose {
            let (z, early) = r.sampling_effort();
            let (ci_low, ci_high) = match r {
                BatchEstimate::Scalar(e) => {
                    (format!("{:.6}", e.ci_low), format!("{:.6}", e.ci_high))
                }
                BatchEstimate::Hops(h) => (
                    format!("{:.6}", h.reliability.ci_low),
                    format!("{:.6}", h.reliability.ci_high),
                ),
                BatchEstimate::Vector(_) | BatchEstimate::Ranking(_) => {
                    ("-".to_string(), "-".to_string())
                }
            };
            row.extend([
                format!("{:.6}", r.max_stderr()),
                ci_low,
                ci_high,
                z.to_string(),
                if early { "yes" } else { "no" }.to_string(),
            ]);
        }
        t.row(row);
    }
    t.print();
}
