//! Graph input resolution: one loader for both snapshot and text inputs.
//!
//! Every subcommand takes a `GRAPH` argument that may be a `.rgs` binary
//! snapshot or a text edge list; the format is detected by sniffing the
//! magic bytes, never by file extension. Loading a snapshot yields the
//! exact [`CsrGraph`] that was frozen at ingest time (bit-identical
//! estimates); loading text takes the parse → freeze path. Every
//! subcommand runs on that frozen form — `select` included, whose
//! selectors read the snapshot directly — so no snapshot is ever thawed
//! back into a mutable graph.

use crate::opts::{run_err, CliError};
use relmax_ugraph::edgelist::{self, EdgeListOptions};
use relmax_ugraph::{snapshot, CsrGraph, IndexSection, UncertainGraph};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A graph loaded from disk, remembering which path it came in through.
pub enum LoadedGraph {
    /// A `.rgs` snapshot (already frozen), possibly carrying a persisted
    /// reliability-index section (format v2 with the index flag set).
    /// Boxed to keep the variant near the text variant's size.
    Snapshot(Box<CsrGraph>, Option<IndexSection>),
    /// A parsed text edge list (mutable form).
    Text(UncertainGraph),
}

impl LoadedGraph {
    /// The frozen form (free for snapshots, one `freeze` for text).
    pub fn into_frozen(self) -> CsrGraph {
        self.into_parts().0
    }

    /// The frozen form plus any persisted index section.
    ///
    /// Text inputs and v1 / index-less v2 snapshots yield `None`; callers
    /// that want index routing rebuild the index from the graph.
    pub fn into_parts(self) -> (CsrGraph, Option<IndexSection>) {
        match self {
            LoadedGraph::Snapshot(c, section) => (*c, section),
            LoadedGraph::Text(g) => (g.freeze(), None),
        }
    }
}

/// Tell the user when text-only flags (`--undirected`, `--nodes`) were
/// passed but the input sniffed as a snapshot, where orientation and node
/// count are baked in — otherwise the flags would be dropped silently.
pub fn warn_ignored_text_flags(loaded: &LoadedGraph, text_flags: &[&str], path: &str) {
    if !text_flags.is_empty() && matches!(loaded, LoadedGraph::Snapshot(..)) {
        eprintln!(
            "note: {} only apply to text edge lists; {path} is a .rgs snapshot whose orientation and node count are fixed at ingest",
            text_flags.join("/"),
        );
    }
}

/// Load a graph from `path`, sniffing the format by magic bytes.
pub fn load(path: &str, text_opts: &EdgeListOptions) -> Result<LoadedGraph, CliError> {
    let p = Path::new(path);
    let mut head = [0u8; 4];
    let read = {
        let mut f = File::open(p).map_err(|e| run_err(format!("cannot open {path}: {e}")))?;
        let mut n = 0;
        while n < head.len() {
            match f.read(&mut head[n..]) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) => return Err(run_err(format!("cannot read {path}: {e}"))),
            }
        }
        n
    };
    if snapshot::is_snapshot(&head[..read]) {
        // Zero-copy mapped load by default (RELMAX_MMAP=off opts out):
        // v3 snapshots borrow their columns straight from the page cache.
        let (csr, section) = snapshot::open_full(p).map_err(|e| run_err(format!("{path}: {e}")))?;
        Ok(LoadedGraph::Snapshot(Box::new(csr), section))
    } else {
        let g = edgelist::parse_file(p, text_opts).map_err(|e| run_err(format!("{path}: {e}")))?;
        Ok(LoadedGraph::Text(g))
    }
}
