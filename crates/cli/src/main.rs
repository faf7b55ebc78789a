//! `relmax` — the command-line front end of the workspace.
//!
//! The subcommands turn the library into a runnable system:
//!
//! - `relmax gen`     — write a deterministic synthetic edge list
//!   (ring-chords family) with O(1) memory at any scale;
//! - `relmax ingest`  — parse a text edge list (streaming, bounded
//!   memory), freeze it, write a `.rgs` binary snapshot;
//! - `relmax index`   — build the freeze-time reliability index and write
//!   a `.rgs` snapshot with the index section embedded;
//! - `relmax query`   — serve a batch of `st`/`from`/`to` reliability
//!   queries (from a query file or generated on the fly) against a
//!   snapshot or edge list, sharded over the deterministic parallel
//!   runtime (routing through the reliability index unless `--no-index`
//!   — reliability values are bit-identical either way; only
//!   sampling-effort fields differ on short-circuited queries);
//! - `relmax update`  — apply a delta script (edge inserts, probability
//!   changes, deletions) to a snapshot as a `DeltaOverlay` and write
//!   the compacted result, bit-identical to a from-scratch re-freeze;
//! - `relmax select`  — run any edge-selection method under a budget and
//!   report the chosen edges plus before/after reliability;
//! - `relmax serve`   — stand up the long-running HTTP query service over
//!   a snapshot (hot-swap reloads, request coalescing, admission
//!   control; see `docs/server.md`).
//!
//! Everything on **stdout is deterministic**: bit-identical for a fixed
//! seed at every thread count (`--threads` / `RELMAX_THREADS` only change
//! how fast the bytes arrive). Timings and progress go to stderr. See
//! `docs/cli.md` for a worked walkthrough and `docs/formats.md` for the
//! file formats.

mod gen;
mod index;
mod ingest;
mod opts;
mod query;
mod select;
mod serve;
mod table;
mod update;

/// JSON emission lives in the server crate so `relmax query` and
/// `relmax serve` render results through the same code (the wire-level
/// byte-identity contract).
use relmax_server::json as jsonfmt;

use std::process::ExitCode;

const USAGE: &str = "relmax — reliability maximization in uncertain graphs

USAGE:
    relmax <COMMAND> [ARGS]

COMMANDS:
    gen --nodes N -o <OUT.tsv>    write a deterministic ring-chords edge
                                  list (--degree K, --seed S); streams with
                                  O(1) memory at any scale
    ingest <EDGES> -o <OUT.rgs>   parse + validate an edge list, freeze it,
                                  write a versioned binary snapshot
                                  (streaming two-pass: transient memory is
                                  O(nodes), never the full record list;
                                  -v/--verbose reports peak buffer bytes)
    index  <GRAPH> -o <OUT.rgs>   build the reliability index (certain-edge
                                  condensation + component decomposition)
                                  and write a snapshot with it embedded
    query  <GRAPH> [OPTIONS]      run a batch of reliability queries
    update <GRAPH> --updates FILE -o <OUT.rgs>
                                  apply an update script (insert/setp/delete)
                                  as a delta overlay and write the compacted
                                  snapshot (bit-identical to a re-freeze)
    select <GRAPH> [OPTIONS]      pick k edges to add with any method
    serve  <GRAPH> [OPTIONS]      serve reliability queries over HTTP
    help                          print this message

GRAPH inputs are either a .rgs snapshot (detected by magic bytes) or a
text edge list (`src dst prob` per line; `% nodes N`, `% directed`,
`% undirected` directives; `#` comments).

COMMON OPTIONS:
    --estimator mc|rss     reliability estimator         [default: mc]
    --samples Z            fixed budget: sampled worlds  [default: 1000]
    --eps E                accuracy budget instead: CI half-width target;
                           sampling stops adaptively (deterministic
                           power-of-two checkpoints, bit-identical at
                           every thread count)
    --delta D              CI failure probability        [default: 0.05]
    --max-samples N        adaptive sampling cap         [default: 2^20]
    --seed S               estimator seed                [default: 42]
    --threads T            worker threads (default: RELMAX_THREADS or
                           all cores); never changes any result
    --format table|json    stdout format                 [default: table]
    --verbose-estimates    add stderr/CI/worlds columns to table output
                           (JSON always carries them)
    --undirected           treat a plain edge list as undirected
    --nodes N              node count for edge lists without `% nodes`

QUERY OPTIONS:
    --queries FILE         query file (`st S T` / `from S` / `to T` / `S T`;
                           may open with `% accuracy EPS DELTA [MAX]`)
    --gen N                generate N random s-t queries instead
    --min-hops A           generated pairs at least A hops apart [default: 2]
    --max-hops B           generated pairs at most B hops apart  [default: 5]
    --emit-queries FILE    also write the served workload to FILE
    --no-index             skip the reliability index: plain sampling for
                           every query. Reliability values stay
                           bit-identical; only the sampling-effort fields
                           (samples_used / stopped_early) can differ, on
                           queries the index answers without sampling

UPDATE OPTIONS:
    --updates FILE         update script: `insert U V P`, `setp U V P`,
                           `delete U V`, one per line, `#` comments;
                           applied in order, all-or-nothing. If the input
                           snapshot embeds a reliability index it is
                           rebuilt over the updated graph

SELECT OPTIONS:
    --method NAME          BE IP MRP HC TopK Cent-Deg Cent-Bet EO ES ESSSP IMA
    --source S, --target T query endpoints (required)
    -k K                   edge budget                   [default: 5]
    --zeta Z               new-edge probability          [default: 0.5]
    --r R                  elimination width             [default: 100]
    --l L                  reliable paths kept           [default: 30]
    --hops H | --no-hop-limit
                           candidate distance constraint [default: 3]

SERVE OPTIONS:
    --port P               TCP port on 127.0.0.1 (0 = ephemeral; the
                           chosen port is printed on startup) [default: 0]
    --threads N            compute workers (sampling passes)
    --io-threads N         HTTP workers (default: sized from --threads)
    --queue-cap Q          admission bound: queued connections beyond Q
                           are refused with 503 + Retry-After [default: 64]
    --compact-after N      fold pending POST /update deltas into a fresh
                           snapshot in the background once N accumulate
                           (POST /compact always triggers one manually)
    (--estimator/--samples/--eps/--delta/--max-samples/--seed/--no-index
    set the serving defaults; request bodies may override the budget with
    `% accuracy` and the seed with `% seed`. See docs/server.md.)

ENVIRONMENT:
    RELMAX_THREADS=N       default worker threads (overridden by --threads)
    RELMAX_KERNEL=scalar   use the scalar reference Monte Carlo kernel
                           instead of the lane-packed default; output is
                           byte-identical either way (CI diffs it), the
                           packed kernel is just several times faster

EXAMPLES:
    relmax ingest data/toy.tsv -o toy.rgs
    relmax index toy.rgs -o toy-indexed.rgs
    relmax query toy.rgs --gen 100 --samples 2000 --format json
    relmax query toy.rgs --gen 100 --eps 0.02 --delta 0.05 --verbose-estimates
    relmax select toy.rgs --method BE --source 0 --target 15 -k 3
    relmax serve toy.rgs --port 7070 --threads 4
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "gen" => gen::run(rest),
        "ingest" => ingest::run(rest),
        "index" => index::run(rest),
        "query" => query::run(rest),
        "update" => update::run(rest),
        "select" => select::run(rest),
        "serve" => serve::run(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(opts::CliError::Usage(format!(
            "unknown command {other:?} (expected gen, ingest, index, query, update, select, serve, or help)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(opts::CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `relmax help` for usage");
            ExitCode::from(2)
        }
        Err(opts::CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
