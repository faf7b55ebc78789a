//! `relmax index` — build the reliability index and persist it in-file.
//!
//! Loads a graph (snapshot or edge list), builds the freeze-time
//! [`RelIndex`] (certain-edge condensation + component decomposition),
//! and writes a current-format `.rgs` snapshot with the index section
//! embedded, so later `relmax query` runs skip the rebuild. The output may
//! be the input file itself: the snapshot is replaced by rename. The stdout
//! summary is deterministic: the index depends only on graph structure,
//! never on seeds or thread counts.

use crate::graphio::{self, LoadedGraph};
use crate::opts::{self, CliError};
use relmax_ugraph::edgelist::EdgeListOptions;
use relmax_ugraph::{snapshot, ProbGraph, RelIndex};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut text_opts = EdgeListOptions::default();
    let mut text_flags: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(opts::take_value(&mut it, a)?),
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
    let out = opts::required(out, "`-o <OUT.rgs>` output path")?;

    let started = std::time::Instant::now();
    let loaded = graphio::load(&input, &text_opts)?;
    graphio::warn_ignored_text_flags(&loaded, &text_flags, &input);
    let had_section = matches!(&loaded, LoadedGraph::Snapshot(_, Some(_)));
    let csr = loaded.into_frozen();

    // Always rebuild from the graph: `index` is the tool that *creates*
    // the persisted section, so it must not trust a stale one.
    let index = RelIndex::build(&csr);
    let section = index.section();
    snapshot::save_full(&csr, Some(&section), &out)
        .map_err(|e| opts::run_err(format!("{out}: {e}")))?;

    let stats = index.stats();
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "indexed {input}: {} nodes, {} arcs ({}) -> {} supernodes, {} components, {} certain arcs{}{} -> {out} ({bytes} bytes)",
        stats.nodes,
        csr.num_arcs(),
        if csr.is_directed() {
            "directed"
        } else {
            "undirected"
        },
        stats.supernodes,
        stats.components,
        stats.certain_arcs,
        if csr.is_directed() {
            format!(", {} possible SCCs", stats.possible_sccs)
        } else {
            format!(", {} biconnected blocks", stats.blocks)
        },
        if had_section { ", refreshed" } else { "" },
    );
    eprintln!("index took {:.3}s", started.elapsed().as_secs_f64());
    Ok(())
}
