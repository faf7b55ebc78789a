//! `relmax serve` — stand up the HTTP query service (see
//! `crates/server` and `docs/server.md`).
//!
//! The subcommand only resolves flags into a [`relmax_server::Config`]
//! and hands off; the service prints `listening on http://127.0.0.1:PORT`
//! on stdout once bound (the black-box harness reads that line to learn
//! an ephemeral port) and then serves until killed.

use crate::opts::{self, BudgetFlags, CliError};
use relmax_server::{Config, EngineKind};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut graph_path: Option<String> = None;
    let mut port = 0u16;
    let mut threads: Option<usize> = None;
    let mut io_threads = 0usize;
    let mut queue_cap = 64usize;
    let mut estimator = EngineKind::Mc;
    let mut samples = 1000usize;
    let mut budget_flags = BudgetFlags::default();
    let mut seed = 42u64;
    let mut no_index = false;
    let mut compact_after: Option<usize> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => port = opts::take_parsed(&mut it, a)?,
            "--threads" => threads = Some(opts::take_parsed(&mut it, a)?),
            "--io-threads" => io_threads = opts::take_parsed(&mut it, a)?,
            "--queue-cap" => queue_cap = opts::take_parsed(&mut it, a)?,
            "--estimator" => {
                estimator =
                    EngineKind::parse(&opts::take_value(&mut it, a)?).map_err(opts::usage)?
            }
            "--samples" | "-z" => samples = opts::take_parsed(&mut it, a)?,
            "--eps" => budget_flags.eps = Some(opts::take_parsed(&mut it, a)?),
            "--delta" => budget_flags.delta = Some(opts::take_parsed(&mut it, a)?),
            "--max-samples" => budget_flags.max_samples = Some(opts::take_parsed(&mut it, a)?),
            "--seed" => seed = opts::take_parsed(&mut it, a)?,
            "--no-index" => no_index = true,
            "--compact-after" => compact_after = Some(opts::take_parsed(&mut it, a)?),
            other => opts::positional(&mut graph_path, other, "graph input")?,
        }
    }
    let graph_path = opts::required(graph_path, "graph input (snapshot or edge list)")?;
    if samples == 0 {
        return Err(opts::usage("--samples must be at least 1"));
    }
    if queue_cap == 0 {
        return Err(opts::usage("--queue-cap must be at least 1"));
    }
    let budget = budget_flags.resolve(samples, None)?;

    let mut config = Config::new(graph_path);
    config.port = port;
    if let Some(t) = threads {
        if t == 0 {
            return Err(opts::usage("--threads must be at least 1"));
        }
        config.threads = t;
    }
    config.io_threads = io_threads;
    config.queue_cap = queue_cap;
    config.seed = seed;
    config.budget = budget;
    config.estimator = estimator;
    config.use_index = !no_index;
    if compact_after == Some(0) {
        return Err(opts::usage("--compact-after must be at least 1"));
    }
    config.compact_after = compact_after;

    relmax_server::run(config).map_err(opts::run_err)
}
