//! `relmax update` — apply a delta script to a snapshot and re-emit it.
//!
//! Loads a graph (snapshot or edge list), parses an update script
//! (`insert U V P` / `setp U V P` / `delete U V`, one per line), applies
//! it as a [`DeltaOverlay`] over the frozen base, and writes the
//! compacted result as a fresh `.rgs` snapshot. Compaction goes through
//! [`CsrGraph::freeze`] on the overlay, so the output is **bit-identical**
//! to what re-freezing the updated graph from scratch would produce:
//! untouched edges keep their coin ids verbatim, and new or re-probed
//! edges get deterministic appended coins (see `docs/updates.md`).
//!
//! If the input snapshot carried a persisted reliability index (format
//! v2 with the index flag), the index is rebuilt over the updated graph
//! and embedded in the output — the structural updates may merge or
//! split components, so the old section must not be trusted. Index-less
//! inputs produce index-less outputs; run `relmax index` to add one.

use crate::opts::{self, CliError};
use relmax_gen::updates::parse_updates_file;
use relmax_server::state::{fold_and_save, load_graph};
use relmax_ugraph::edgelist::EdgeListOptions;
use relmax_ugraph::{DeltaOverlay, ProbGraph};
use std::sync::Arc;

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut input: Option<String> = None;
    let mut updates_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut text_opts = EdgeListOptions::default();
    let mut text_flags: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(opts::take_value(&mut it, a)?),
            "--updates" => updates_path = Some(opts::take_value(&mut it, a)?),
            "--undirected" => {
                text_opts.directed = false;
                text_flags.push("--undirected");
            }
            "--nodes" => {
                text_opts.nodes = Some(opts::take_parsed(&mut it, a)?);
                text_flags.push("--nodes");
            }
            other => opts::positional(&mut input, other, "graph input")?,
        }
    }
    let input = opts::required(input, "graph input (snapshot or edge list)")?;
    let updates_path = opts::required(updates_path, "`--updates <FILE>` update script")?;
    let out = opts::required(out, "`-o <OUT.rgs>` output path")?;

    let started = std::time::Instant::now();
    let (csr, section, version) = load_graph(&input, &text_opts).map_err(opts::run_err)?;
    opts::note_ignored_text_flags(version, &text_flags, &input);
    let had_index = section.is_some();
    let csr = Arc::new(csr);

    let updates = parse_updates_file(&updates_path)
        .map_err(|e| opts::run_err(format!("{updates_path}: {e}")))?;

    // Apply one at a time so a rejected record names its position; each
    // update is atomic, but the CLI treats the whole script as one batch
    // and refuses to write a partial result.
    let mut overlay = DeltaOverlay::new(Arc::clone(&csr));
    for (i, u) in updates.iter().enumerate() {
        overlay
            .apply_one(u)
            .map_err(|e| opts::run_err(format!("{updates_path}: update {}: {e}", i + 1)))?;
    }
    let (inserted, reprobed, deleted) = overlay.counts();

    let (updated, _) =
        fold_and_save(&overlay, had_index, had_index, &out).map_err(opts::run_err)?;

    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "updated {input}: {} updates ({inserted} inserted, {reprobed} re-probed, {deleted} deleted) -> {} nodes, {} arcs, {} coins ({}){} -> {out} ({bytes} bytes)",
        updates.len(),
        ProbGraph::num_nodes(&updated),
        updated.num_arcs(),
        ProbGraph::num_coins(&updated),
        if updated.is_directed() {
            "directed"
        } else {
            "undirected"
        },
        if had_index { ", index rebuilt" } else { "" },
    );
    eprintln!("update took {:.3}s", started.elapsed().as_secs_f64());
    Ok(())
}
