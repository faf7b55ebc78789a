//! `relmax select` — run an edge-selection method under a budget.
//!
//! Wraps [`relmax_core::AnySelector`]: pick a method by its table name,
//! build the [`StQuery`] from flags, run the full pipeline (search-space
//! elimination, then selection) on the loaded snapshot under a sampling
//! [`Budget`] — `--samples` for a fixed world count,
//! `--eps/--delta/--max-samples` for an accuracy target — and report the
//! chosen edges plus before/after reliability (with confidence intervals
//! in JSON and `--verbose-estimates` table output).

use crate::graphio;
use crate::jsonfmt;
use crate::opts::BudgetFlags;
use crate::opts::{self, CliError, EstimatorKind, Format};
use relmax_bench::table::Table;
use relmax_core::{AnySelector, EdgeSelector, Outcome, StQuery};
use relmax_sampling::{Budget, Estimate, McEstimator, ParallelRuntime, RssEstimator};
use relmax_ugraph::edgelist::EdgeListOptions;
use relmax_ugraph::{NodeId, ProbGraph};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut graph_path: Option<String> = None;
    let mut method_name: Option<String> = None;
    let mut source: Option<u32> = None;
    let mut target: Option<u32> = None;
    let mut k = 5usize;
    let mut zeta = 0.5f64;
    let mut r = 100usize;
    let mut l = 30usize;
    let mut hops: Option<u32> = Some(3);
    let mut estimator = EstimatorKind::Mc;
    let mut samples = 1000usize;
    let mut budget_flags = BudgetFlags::default();
    let mut seed = 42u64;
    let mut threads: Option<usize> = None;
    let mut format = Format::Table;
    let mut verbose_estimates = false;
    let mut text_opts = EdgeListOptions::default();
    let mut text_flags: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => method_name = Some(opts::take_value(&mut it, a)?),
            "--source" | "-s" => source = Some(opts::take_parsed(&mut it, a)?),
            "--target" | "-t" => target = Some(opts::take_parsed(&mut it, a)?),
            "-k" | "--budget" => k = opts::take_parsed(&mut it, a)?,
            "--zeta" => zeta = opts::take_parsed(&mut it, a)?,
            "--r" => r = opts::take_parsed(&mut it, a)?,
            "--l" => l = opts::take_parsed(&mut it, a)?,
            "--hops" => hops = Some(opts::take_parsed(&mut it, a)?),
            "--no-hop-limit" => hops = None,
            "--estimator" => estimator = EstimatorKind::parse(&opts::take_value(&mut it, a)?)?,
            "--samples" | "-z" => samples = opts::take_parsed(&mut it, a)?,
            "--eps" => budget_flags.eps = Some(opts::take_parsed(&mut it, a)?),
            "--delta" => budget_flags.delta = Some(opts::take_parsed(&mut it, a)?),
            "--max-samples" => budget_flags.max_samples = Some(opts::take_parsed(&mut it, a)?),
            "--seed" => seed = opts::take_parsed(&mut it, a)?,
            "--threads" => threads = Some(opts::take_parsed(&mut it, a)?),
            "--format" => format = Format::parse(&opts::take_value(&mut it, a)?)?,
            "--verbose-estimates" => verbose_estimates = true,
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
    let method_name = opts::required(method_name, "--method")?;
    let method = AnySelector::from_name(&method_name).map_err(|e| opts::usage(e.to_string()))?;
    let s = source.ok_or_else(|| opts::usage("missing --source node"))?;
    let t = target.ok_or_else(|| opts::usage("missing --target node"))?;
    if !(zeta > 0.0 && zeta <= 1.0) {
        return Err(opts::usage(format!("--zeta must be in (0, 1], got {zeta}")));
    }
    if samples == 0 {
        return Err(opts::usage("--samples must be at least 1"));
    }
    if r == 0 || l == 0 {
        return Err(opts::usage("--r and --l must be at least 1"));
    }
    let budget = budget_flags.resolve(samples, None)?;

    let started = std::time::Instant::now();
    let loaded = graphio::load(&graph_path, &text_opts)?;
    graphio::warn_ignored_text_flags(&loaded, &text_flags, &graph_path);
    let g = loaded.into_frozen();
    for (what, v) in [("--source", s), ("--target", t)] {
        if v as usize >= g.num_nodes() {
            return Err(opts::run_err(format!(
                "{what} node {v} out of range for a graph with {} nodes",
                g.num_nodes()
            )));
        }
    }

    let query = StQuery::new(NodeId(s), NodeId(t), k, zeta)
        .with_hop_limit(hops)
        .with_r(r)
        .with_l(l);

    // The estimator's runtime powers the selector's candidate scans; the
    // global runtime covers scans that do not go through an estimator.
    let runtime = threads
        .map(ParallelRuntime::new)
        .unwrap_or_else(ParallelRuntime::auto);
    if let Some(t) = threads {
        ParallelRuntime::set_global_threads(t);
    }
    let outcome = match estimator {
        EstimatorKind::Mc => method.select_budgeted(
            &g,
            &query,
            &McEstimator::with_budget_runtime(budget, seed, runtime),
            budget,
        ),
        EstimatorKind::Rss => method.select_budgeted(
            &g,
            &query,
            &RssEstimator::with_budget_runtime(budget, seed, runtime),
            budget,
        ),
    }
    .map_err(opts::run_err)?;

    match format {
        Format::Table => print_table(method.name(), &query, &outcome, verbose_estimates),
        Format::Json => print_json(method.name(), &query, &outcome, &budget),
    }
    eprintln!(
        "{} on {} ({} nodes) took {:.3}s ({} worker(s))",
        method.name(),
        graph_path,
        g.num_nodes(),
        started.elapsed().as_secs_f64(),
        runtime.threads(),
    );
    Ok(())
}

fn print_table(method: &str, query: &StQuery, outcome: &Outcome, verbose: bool) {
    println!(
        "method {method}: R({}, {}) {:.6} -> {:.6} (gain {:+.6}) with {} of {} edges",
        query.s,
        query.t,
        outcome.base_reliability,
        outcome.new_reliability,
        outcome.gain(),
        outcome.added.len(),
        query.k,
    );
    if verbose {
        let ci = |e: &Estimate| format!("[{:.6}, {:.6}]", e.ci_low, e.ci_high);
        println!(
            "estimates: base {} new {} ({} world(s), stopped_early={})",
            ci(&outcome.base_estimate),
            ci(&outcome.new_estimate),
            outcome.new_estimate.samples_used,
            outcome.new_estimate.stopped_early,
        );
    }
    let mut header = vec!["#", "src", "dst", "prob"];
    if verbose {
        header.extend_from_slice(&["R(+edge)", "ci_low", "ci_high"]);
    }
    let mut t = Table::new(header);
    for (i, e) in outcome.added.iter().enumerate() {
        let mut row = vec![
            (i + 1).to_string(),
            e.src.0.to_string(),
            e.dst.0.to_string(),
            format!("{}", e.prob),
        ];
        if verbose {
            let est = &outcome.added_estimates[i];
            row.extend([
                format!("{:.6}", est.value),
                format!("{:.6}", est.ci_low),
                format!("{:.6}", est.ci_high),
            ]);
        }
        t.row(row);
    }
    t.print();
}

fn print_json(method: &str, query: &StQuery, outcome: &Outcome, budget: &Budget) {
    let added = outcome
        .added
        .iter()
        .zip(&outcome.added_estimates)
        .map(|(e, est)| {
            format!(
                "{{\"src\":{},\"dst\":{},\"prob\":{},\"solo_estimate\":{}}}",
                e.src.0,
                e.dst.0,
                jsonfmt::num(e.prob),
                jsonfmt::estimate(est),
            )
        });
    println!(
        "{{\"method\":\"{}\",\"s\":{},\"t\":{},\"k\":{},\"zeta\":{},\"budget\":{},\"base_reliability\":{},\"new_reliability\":{},\"gain\":{},\"base_estimate\":{},\"new_estimate\":{},\"added\":{}}}",
        jsonfmt::escape(method),
        query.s.0,
        query.t.0,
        query.k,
        jsonfmt::num(query.zeta),
        jsonfmt::budget(budget),
        jsonfmt::num(outcome.base_reliability),
        jsonfmt::num(outcome.new_reliability),
        jsonfmt::num(outcome.gain()),
        jsonfmt::estimate(&outcome.base_estimate),
        jsonfmt::estimate(&outcome.new_estimate),
        jsonfmt::array(added)
    );
}
