//! Text edge-list ingestion and emission — the system's one parsing path.
//!
//! An uncertain-graph edge list is line-oriented plain text: one edge per
//! line as `src dst prob`, separated by any run of spaces or tabs (so both
//! whitespace- and TSV-style files parse). `#` starts a comment (whole-line
//! or trailing), blank lines are ignored, and optional `%` directives make
//! files self-describing:
//!
//! ```text
//! % nodes 4
//! % directed
//! # a diamond
//! 0 1 0.5
//! 0 2 0.6
//! 1 3 0.7    # tab-separated works too
//! 2 3 0.8
//! ```
//!
//! - `% nodes N` — declare the node count. Without it the count is
//!   inferred as `max id + 1`. With it, an edge naming a node `>= N` is a
//!   *dangling node* error (caught with its line number). A count past
//!   the `u32` node id space ([`MAX_NODES`]) is rejected, and the
//!   per-node arrays are reserved fallibly, so a count too large for the
//!   process's memory is an error, not an abort.
//! - `% directed` / `% undirected` — declare edge orientation. A directive
//!   in the file wins over the caller's [`EdgeListOptions`]; without one,
//!   the options decide (default: directed).
//!
//! Edges keep their file order, which is what makes ingestion exact: edge
//! `i` in the file becomes [`crate::EdgeId`] (and coin) `i`, so a parse →
//! [`CsrGraph::freeze`](crate::CsrGraph::freeze) →
//! [`snapshot`](crate::snapshot) pipeline produces bit-identical estimates
//! to the graph the file describes, run after run.
//!
//! Every parse error carries its 1-based line number. See
//! `docs/formats.md` for the format specification.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::graph::{NodeId, UncertainGraph};
use std::collections::{HashSet, TryReserveError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// The largest node count an edge list may declare or imply: node ids
/// are `u32`, and a snapshot stores at most `u32::MAX` of anything.
pub const MAX_NODES: usize = u32::MAX as usize;

/// Caller-side defaults for fields an edge list may leave undeclared.
///
/// File directives (`% nodes`, `% directed`, `% undirected`) always win;
/// these options fill the gaps for plain three-column files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeListOptions {
    /// Orientation assumed when the file has no directive. Default: `true`.
    pub directed: bool,
    /// Node count assumed when the file has no `% nodes` directive.
    /// `None` infers `max id + 1`.
    pub nodes: Option<usize>,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            directed: true,
            nodes: None,
        }
    }
}

impl EdgeListOptions {
    /// Options for an undirected edge list with inferred node count.
    pub fn undirected() -> Self {
        EdgeListOptions {
            directed: false,
            nodes: None,
        }
    }
}

/// Errors parsing a text edge list, with 1-based line numbers.
#[derive(Debug)]
pub enum EdgeListError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A line that is neither blank, comment, directive, nor a valid
    /// `src dst prob` record.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A structurally valid record the graph rejected (dangling node,
    /// probability out of `[0, 1]`, duplicate edge, self-loop).
    Graph {
        /// 1-based line number.
        line: usize,
        /// The graph-layer rejection.
        source: GraphError,
    },
    /// A node count past [`MAX_NODES`]: declared by `% nodes`, passed by
    /// the caller, or implied by the node id `u32::MAX`.
    TooManyNodes {
        /// The node count.
        nodes: usize,
    },
    /// The per-node arrays for `nodes` nodes could not be reserved.
    Reserve {
        /// The node count the arrays were sized for.
        nodes: usize,
        /// The allocator's refusal.
        source: TryReserveError,
    },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge list I/O error: {e}"),
            EdgeListError::BadRecord { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            EdgeListError::Graph { line, source } => write!(f, "line {line}: {source}"),
            EdgeListError::TooManyNodes { nodes } => write!(
                f,
                "node count {nodes} exceeds the node id space (at most {MAX_NODES} nodes)"
            ),
            EdgeListError::Reserve { nodes, source } => {
                write!(f, "cannot reserve memory for {nodes} nodes: {source}")
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Graph { source, .. } => Some(source),
            EdgeListError::Reserve { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

/// Reject a node count past [`MAX_NODES`].
fn check_nodes(nodes: usize) -> Result<(), EdgeListError> {
    if nodes > MAX_NODES {
        return Err(EdgeListError::TooManyNodes { nodes });
    }
    Ok(())
}

/// An empty vector with room for exactly `len` elements, or the typed
/// error naming the `nodes` it was sized for.
fn node_array<T>(len: usize, nodes: usize) -> Result<Vec<T>, EdgeListError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|source| EdgeListError::Reserve { nodes, source })?;
    Ok(v)
}

fn bad(line: usize, reason: impl Into<String>) -> EdgeListError {
    EdgeListError::BadRecord {
        line,
        reason: reason.into(),
    }
}

/// One parsed record: `(line number, src, dst, prob)`.
type Record = (usize, u32, u32, f64);

/// Classify one raw input line: `None` for blanks, comments, and
/// directives (directives mutate `directed`/`nodes` in place, later ones
/// overriding earlier), `Some((src, dst, prob))` for an edge record.
///
/// This is the single source of truth for line-level **syntax**: both the
/// all-at-once parser ([`parse_reader`]) and the streaming freezer
/// ([`freeze_with`]) run every line through it, so the two paths reject
/// the same inputs with byte-identical messages.
fn classify(
    raw: &str,
    lineno: usize,
    directed: &mut bool,
    nodes: &mut Option<usize>,
) -> Result<Option<(u32, u32, f64)>, EdgeListError> {
    // Strip trailing comment, then surrounding whitespace.
    let body = raw.split('#').next().unwrap_or("").trim();
    if body.is_empty() {
        return Ok(None);
    }
    if let Some(directive) = body.strip_prefix('%') {
        apply_directive(directive.trim(), lineno, directed, nodes)?;
        return Ok(None);
    }
    let mut fields = body.split_whitespace();
    let (s, d, p) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(s), Some(d), Some(p), None) => (s, d, p),
        (_, _, _, Some(extra)) => {
            return Err(bad(
                lineno,
                format!("expected `src dst prob`, found extra field {extra:?}"),
            ))
        }
        _ => {
            return Err(bad(
                lineno,
                format!(
                    "expected `src dst prob`, found {} field(s)",
                    body.split_whitespace().count()
                ),
            ))
        }
    };
    let src: u32 = s
        .parse()
        .map_err(|_| bad(lineno, format!("source {s:?} is not a node id")))?;
    let dst: u32 = d
        .parse()
        .map_err(|_| bad(lineno, format!("destination {d:?} is not a node id")))?;
    let prob: f64 = p
        .parse()
        .map_err(|_| bad(lineno, format!("probability {p:?} is not a number")))?;
    Ok(Some((src, dst, prob)))
}

/// Parse an edge list from any buffered reader.
pub fn parse_reader<R: BufRead>(
    r: R,
    opts: &EdgeListOptions,
) -> Result<UncertainGraph, EdgeListError> {
    let mut records: Vec<Record> = Vec::new();
    let mut directed = opts.directed;
    let mut declared_nodes = opts.nodes;
    let mut max_id: Option<u32> = None;

    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        if let Some((src, dst, prob)) = classify(&line, lineno, &mut directed, &mut declared_nodes)?
        {
            max_id = Some(max_id.unwrap_or(0).max(src).max(dst));
            records.push((lineno, src, dst, prob));
        }
    }

    let n = declared_nodes.unwrap_or_else(|| max_id.map_or(0, |m| m as usize + 1));
    build(n, directed, &records)
}

fn apply_directive(
    directive: &str,
    lineno: usize,
    directed: &mut bool,
    nodes: &mut Option<usize>,
) -> Result<(), EdgeListError> {
    let mut parts = directive.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("directed"), None, _) => *directed = true,
        (Some("undirected"), None, _) => *directed = false,
        (Some("nodes"), Some(v), None) => {
            let count: usize = v
                .parse()
                .map_err(|_| bad(lineno, format!("`% nodes` count {v:?} is not a number")))?;
            *nodes = Some(count);
        }
        _ => {
            return Err(bad(
                lineno,
                format!("unknown directive `% {directive}` (expected `nodes N`, `directed`, or `undirected`)"),
            ))
        }
    }
    Ok(())
}

/// Build a graph from pre-parsed records — the single validated
/// construction path shared by the parser and programmatic callers (the
/// examples build their scenario graphs through this). A node count past
/// [`MAX_NODES`], or one whose adjacency arrays cannot be reserved, is an
/// error.
pub fn build(
    nodes: usize,
    directed: bool,
    records: &[Record],
) -> Result<UncertainGraph, EdgeListError> {
    check_nodes(nodes)?;
    let mut g = UncertainGraph::try_with_capacity(nodes, directed, records.len())
        .map_err(|source| EdgeListError::Reserve { nodes, source })?;
    for &(lineno, src, dst, prob) in records {
        g.add_edge(NodeId(src), NodeId(dst), prob)
            .map_err(|source| EdgeListError::Graph {
                line: lineno,
                source,
            })?;
    }
    Ok(g)
}

/// Build a graph from plain `(src, dst, prob)` triples (line numbers are
/// synthesized as 1-based positions for error reporting).
pub fn from_edges(
    nodes: usize,
    directed: bool,
    edges: impl IntoIterator<Item = (u32, u32, f64)>,
) -> Result<UncertainGraph, EdgeListError> {
    let records: Vec<Record> = edges
        .into_iter()
        .enumerate()
        .map(|(i, (s, d, p))| (i + 1, s, d, p))
        .collect();
    build(nodes, directed, &records)
}

/// Parse an edge list from a string.
///
/// ```
/// use relmax_ugraph::edgelist;
///
/// let g = edgelist::parse_str(
///     "% nodes 3\n% undirected\n0 1 0.5\n1 2 0.8\n",
///     &edgelist::EdgeListOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert!(!g.directed());
/// ```
pub fn parse_str(s: &str, opts: &EdgeListOptions) -> Result<UncertainGraph, EdgeListError> {
    parse_reader(s.as_bytes(), opts)
}

/// Parse an edge list from a file path.
pub fn parse_file<P: AsRef<Path>>(
    path: P,
    opts: &EdgeListOptions,
) -> Result<UncertainGraph, EdgeListError> {
    let f = File::open(path)?;
    parse_reader(BufReader::new(f), opts)
}

/// Write a graph as a self-describing edge list (directives + one
/// `src<TAB>dst<TAB>prob` line per edge, in edge-id order).
///
/// Probabilities are printed with Rust's shortest-round-trip float
/// formatting, so `parse(write(g))` reproduces `g` exactly: same node
/// count, orientation, edge order (hence coin ids), and probability bits.
pub fn write_writer<W: Write>(g: &UncertainGraph, mut w: W) -> io::Result<()> {
    writeln!(w, "% nodes {}", g.num_nodes())?;
    writeln!(
        w,
        "% {}",
        if g.directed() {
            "directed"
        } else {
            "undirected"
        }
    )?;
    for e in g.edges() {
        writeln!(w, "{}\t{}\t{}", e.src.0, e.dst.0, e.prob)?;
    }
    w.flush()
}

/// [`write_writer`] into a `String`.
pub fn to_text(g: &UncertainGraph) -> String {
    let mut buf = Vec::new();
    write_writer(g, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("edge list text is ASCII")
}

/// [`write_writer`] to a file path (buffered; creates or truncates).
pub fn write_file<P: AsRef<Path>>(g: &UncertainGraph, path: P) -> io::Result<()> {
    let f = File::create(path)?;
    write_writer(g, io::BufWriter::new(f))
}

// ---------------------------------------------------------------------------
// Streaming ingestion: edge list -> CsrGraph without buffering the records
// ---------------------------------------------------------------------------

/// Statistics from a streaming freeze ([`freeze_path`] / [`freeze_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Nodes in the frozen graph.
    pub nodes: usize,
    /// Edge records ingested (one coin each).
    pub edges: usize,
    /// Final orientation after all directives.
    pub directed: bool,
    /// Peak bytes held in *transient* buffers over the whole run: the
    /// per-role degree tallies in pass 1, then the placement cursors plus
    /// the duplicate-edge set in pass 2. The final CSR arrays themselves
    /// (the product) and the reader's line buffer are excluded. The
    /// duplicate-set term is an estimate: 8-byte key plus one control
    /// byte per slot at the set's allocated capacity.
    pub peak_transient_bytes: usize,
}

/// Grow-on-demand degree tally (node ids are sparse until pass 1 ends).
/// Growth is reserved fallibly, so a huge id is an error, not an abort.
fn bump(deg: &mut Vec<u32>, id: u32) -> Result<(), EdgeListError> {
    let i = id as usize;
    if deg.len() <= i {
        deg.try_reserve(i + 1 - deg.len())
            .map_err(|source| EdgeListError::Reserve {
                nodes: i + 1,
                source,
            })?;
        deg.resize(i + 1, 0);
    }
    deg[i] += 1;
    Ok(())
}

/// The two passes of a streaming freeze disagreed — the underlying input
/// was modified between them.
fn input_changed() -> EdgeListError {
    EdgeListError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "edge list changed between streaming passes",
    ))
}

/// Freeze an edge-list file straight into a [`CsrGraph`] with bounded
/// transient memory, bypassing the mutable [`UncertainGraph`] stage.
///
/// Equivalent to `CsrGraph::freeze(&parse_file(path, opts)?)` —
/// bit-identical output (same node count, orientation, coin ids,
/// adjacency order, probability bits) and the same error on the same
/// line for any malformed input — but the edge records are never held in
/// memory at once. Two passes over the file: pass 1 validates syntax and
/// tallies degrees (`O(n)` transient state), pass 2 re-reads, validates
/// semantics in [`UncertainGraph::add_edge`] order, and scatters each
/// record directly into its final CSR slot (`O(n)` cursors plus an
/// `O(m)` duplicate-edge set, still far below buffering full records).
///
/// The file must not change between the passes; if it does, the freeze
/// fails with an I/O error rather than returning a corrupt graph.
pub fn freeze_path<P: AsRef<Path>>(
    path: P,
    opts: &EdgeListOptions,
) -> Result<(CsrGraph, StreamStats), EdgeListError> {
    let path = path.as_ref();
    freeze_with(|| File::open(path).map(BufReader::new), opts)
}

/// [`freeze_path`] over an in-memory string (each "pass" re-reads it).
pub fn freeze_str(
    s: &str,
    opts: &EdgeListOptions,
) -> Result<(CsrGraph, StreamStats), EdgeListError> {
    freeze_with(|| Ok(s.as_bytes()), opts)
}

/// What pass 1 of [`freeze_with`] learns: the graph's shape and per-role
/// degree tallies.
struct Tally {
    directed: bool,
    declared: Option<usize>,
    max_id: Option<u32>,
    m: usize,
    deg_src: Vec<u32>,
    deg_dst: Vec<u32>,
    /// The smallest id left untallied because it was out of bounds when
    /// its line was read.
    lowest_skipped: Option<u32>,
}

/// Pass 1 of [`freeze_with`]: syntax, directives, and degree tallies.
///
/// Degrees are tallied per endpoint *role* (source / destination) rather
/// than per final side, because an orientation directive may appear
/// anywhere in the file: only after the pass completes is the final
/// `directed` known, and the role tallies combine either way. Ids at or
/// past `cap`, or else past a `% nodes N` already read, are not tallied,
/// so a dangling id costs no memory for the ids below it; pass 2 rejects
/// it unless a later directive raised `N`.
fn tally<R, F>(
    open: &mut F,
    opts: &EdgeListOptions,
    cap: Option<usize>,
) -> Result<Tally, EdgeListError>
where
    R: BufRead,
    F: FnMut() -> io::Result<R>,
{
    let mut t = Tally {
        directed: opts.directed,
        declared: opts.nodes,
        max_id: None,
        m: 0,
        deg_src: Vec::new(),
        deg_dst: Vec::new(),
        lowest_skipped: None,
    };
    for (i, line) in open()?.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let Some((src, dst, _)) = classify(&line, lineno, &mut t.directed, &mut t.declared)? else {
            continue;
        };
        t.max_id = Some(t.max_id.unwrap_or(0).max(src).max(dst));
        for (deg, id) in [(&mut t.deg_src, src), (&mut t.deg_dst, dst)] {
            if cap.or(t.declared).is_some_and(|n| id as usize >= n) {
                t.lowest_skipped = Some(t.lowest_skipped.map_or(id, |s| s.min(id)));
            } else {
                bump(deg, id)?;
            }
        }
        t.m += 1;
    }
    Ok(t)
}

/// Streaming freeze over any re-openable source: `open` is called once
/// per pass and must yield the same byte stream each time.
pub fn freeze_with<R, F>(
    mut open: F,
    opts: &EdgeListOptions,
) -> Result<(CsrGraph, StreamStats), EdgeListError>
where
    R: BufRead,
    F: FnMut() -> io::Result<R>,
{
    // ---- pass 1: syntax, directives, and graph shape ----
    let mut p1 = tally(&mut open, opts, None)?;
    let n = p1
        .declared
        .unwrap_or_else(|| p1.max_id.map_or(0, |x| x as usize + 1));
    check_nodes(n)?;
    if p1.lowest_skipped.is_some_and(|id| (id as usize) < n) {
        // A later `% nodes` raised the count past ids pass 1 left out:
        // tally again, against the final count.
        p1 = tally(&mut open, opts, Some(n))?;
    }
    let Tally {
        directed,
        m,
        deg_src,
        deg_dst,
        ..
    } = p1;
    let pass1_bytes = (deg_src.capacity() + deg_dst.capacity()) * std::mem::size_of::<u32>();

    // Prefix-sum the degrees into final offset arrays. Node ids at or
    // beyond `n` are rejected (NodeOutOfBounds) before placement in
    // pass 2.
    let deg = |d: &Vec<u32>, v: usize| d.get(v).copied().unwrap_or(0) as u64;
    let mut out_off: Vec<u32> = node_array(n + 1, n)?;
    out_off.push(0);
    let mut a: u64 = 0;
    for v in 0..n {
        a += if directed {
            deg(&deg_src, v)
        } else {
            deg(&deg_src, v) + deg(&deg_dst, v)
        };
        assert!(a <= u32::MAX as u64, "graph exceeds u32 arc capacity");
        out_off.push(a as u32);
    }
    let a = a as usize;
    let (in_off, b) = if directed {
        let mut off: Vec<u32> = node_array(n + 1, n)?;
        off.push(0);
        let mut b: u64 = 0;
        for v in 0..n {
            b += deg(&deg_dst, v);
            assert!(b <= u32::MAX as u64, "graph exceeds u32 arc capacity");
            off.push(b as u32);
        }
        (off, b as usize)
    } else {
        (Vec::new(), 0)
    };
    drop(deg_src);
    drop(deg_dst);

    // ---- final arrays + transient placement state ----
    let mut out_dst = vec![0u32; a];
    let mut out_prob = vec![0.0f64; a];
    let mut out_coin = vec![0u32; a];
    let mut in_dst = vec![0u32; b];
    let mut in_prob = vec![0.0f64; b];
    let mut in_coin = vec![0u32; b];
    let mut coin_prob = vec![0.0f64; m];
    let mut coin_src = vec![0u32; m];
    let mut coin_dst = vec![0u32; m];
    let mut cur_out: Vec<u32> = node_array(n, n)?;
    cur_out.extend_from_slice(&out_off[..n]);
    let mut cur_in: Vec<u32> = Vec::new();
    if directed {
        cur_in = node_array(n, n)?;
        cur_in.extend_from_slice(&in_off[..n]);
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m);

    // ---- pass 2: semantic validation + direct placement ----
    //
    // File order equals `add_edge` call order equals adjacency append
    // order, so advancing a per-node cursor reproduces
    // `CsrGraph::freeze`'s layout exactly. The checks below replicate
    // `UncertainGraph::add_edge`: same order, same error payloads.
    let mut directed2 = opts.directed;
    let mut declared2 = opts.nodes;
    let mut next: usize = 0; // record index = coin id
    for (i, line) in open()?.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let Some((src, dst, prob)) = classify(&line, lineno, &mut directed2, &mut declared2)?
        else {
            continue;
        };
        for v in [src, dst] {
            if v as usize >= n {
                return Err(EdgeListError::Graph {
                    line: lineno,
                    source: GraphError::NodeOutOfBounds {
                        node: v,
                        num_nodes: n,
                    },
                });
            }
        }
        if src == dst {
            return Err(EdgeListError::Graph {
                line: lineno,
                source: GraphError::SelfLoop { node: src },
            });
        }
        if !(0.0..=1.0).contains(&prob) || !prob.is_finite() {
            return Err(EdgeListError::Graph {
                line: lineno,
                source: GraphError::InvalidProbability { prob },
            });
        }
        let key = if directed || src <= dst {
            (src, dst)
        } else {
            (dst, src)
        };
        if !seen.insert(key) {
            return Err(EdgeListError::Graph {
                line: lineno,
                source: GraphError::DuplicateEdge { src, dst },
            });
        }
        if next >= m {
            return Err(input_changed());
        }
        let c = next as u32;
        coin_prob[next] = prob;
        coin_src[next] = src;
        coin_dst[next] = dst;
        next += 1;
        let slot = cur_out[src as usize] as usize;
        if slot >= a {
            return Err(input_changed());
        }
        out_dst[slot] = dst;
        out_prob[slot] = prob;
        out_coin[slot] = c;
        cur_out[src as usize] += 1;
        if directed {
            let slot = cur_in[dst as usize] as usize;
            if slot >= b {
                return Err(input_changed());
            }
            in_dst[slot] = src;
            in_prob[slot] = prob;
            in_coin[slot] = c;
            cur_in[dst as usize] += 1;
        } else {
            let slot = cur_out[dst as usize] as usize;
            if slot >= a {
                return Err(input_changed());
            }
            out_dst[slot] = src;
            out_prob[slot] = prob;
            out_coin[slot] = c;
            cur_out[dst as usize] += 1;
        }
    }
    if next != m || directed2 != directed {
        return Err(input_changed());
    }
    for v in 0..n {
        if cur_out[v] != out_off[v + 1] || (directed && cur_in[v] != in_off[v + 1]) {
            return Err(input_changed());
        }
    }

    let pass2_bytes = (cur_out.capacity() + cur_in.capacity()) * std::mem::size_of::<u32>()
        + seen.capacity() * (std::mem::size_of::<(u32, u32)>() + 1);
    let stats = StreamStats {
        nodes: n,
        edges: m,
        directed,
        peak_transient_bytes: pass1_bytes.max(pass2_bytes),
    };

    let out = (out_off, out_dst, out_prob, out_coin);
    let inn = (in_off, in_dst, in_prob, in_coin);
    let coins = (coin_prob.into(), coin_src.into(), coin_dst.into());
    let csr = CsrGraph::from_sides(directed, n, out, inn, coins);
    Ok((csr, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbGraph;

    #[test]
    fn node_counts_past_the_id_space_are_typed_errors() {
        let over = MAX_NODES + 1;
        let want =
            format!("node count {over} exceeds the node id space (at most {MAX_NODES} nodes)");
        let default = EdgeListOptions::default();
        let text = format!("% nodes {over}\n0 1 0.5\n");
        let err = parse_str(&text, &default).unwrap_err();
        assert!(matches!(err, EdgeListError::TooManyNodes { nodes } if nodes == over));
        assert_eq!(err.to_string(), want);
        assert_eq!(freeze_str(&text, &default).unwrap_err().to_string(), want);
        // The caller's default count is bounded the same way.
        let opts = EdgeListOptions {
            nodes: Some(over),
            ..default
        };
        assert_eq!(parse_str("0 1 0.5\n", &opts).unwrap_err().to_string(), want);
        assert_eq!(
            freeze_str("0 1 0.5\n", &opts).unwrap_err().to_string(),
            want
        );
        assert_eq!(from_edges(over, true, []).unwrap_err().to_string(), want);
        // Only the final count matters: a later directive overrides.
        let text = format!("% nodes {over}\n% nodes 2\n0 1 0.5\n");
        assert_eq!(parse_str(&text, &default).unwrap().num_nodes(), 2);
        assert_eq!(freeze_str(&text, &default).unwrap().0.num_nodes(), 2);
        // `MAX_NODES` itself is inside the space.
        assert!(check_nodes(MAX_NODES).is_ok());
    }

    #[test]
    fn a_refused_reservation_is_a_typed_error() {
        let err = node_array::<u64>(usize::MAX, 7).unwrap_err();
        assert!(matches!(err, EdgeListError::Reserve { nodes: 7, .. }));
        assert!(err
            .to_string()
            .starts_with("cannot reserve memory for 7 nodes: "));
    }

    #[test]
    fn parses_whitespace_and_tabs() {
        let g = parse_str(
            "0 1 0.5\n1\t2\t0.25\n # comment\n\n2 3 1.0 # trailing\n",
            &EdgeListOptions::default(),
        )
        .unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.directed());
        assert_eq!(g.edges()[1].prob, 0.25);
    }

    #[test]
    fn directives_override_options() {
        let g = parse_str(
            "% nodes 10\n% undirected\n0 1 0.5\n",
            &EdgeListOptions::default(),
        )
        .unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert!(!g.directed());
    }

    #[test]
    fn options_fill_when_no_directives() {
        let g = parse_str("0 1 0.5\n", &EdgeListOptions::undirected()).unwrap();
        assert!(!g.directed());
        let g = parse_str(
            "0 1 0.5\n",
            &EdgeListOptions {
                directed: true,
                nodes: Some(7),
            },
        )
        .unwrap();
        assert_eq!(g.num_nodes(), 7);
    }

    #[test]
    fn dangling_node_reports_line() {
        let err =
            parse_str("% nodes 2\n0 1 0.5\n0 5 0.5\n", &EdgeListOptions::default()).unwrap_err();
        match err {
            EdgeListError::Graph { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(source, GraphError::NodeOutOfBounds { .. }));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn bad_probability_reports_line() {
        let err = parse_str("0 1 0.5\n1 2 1.5\n", &EdgeListOptions::default()).unwrap_err();
        match err {
            EdgeListError::Graph { line, source } => {
                assert_eq!(line, 2);
                assert!(matches!(source, GraphError::InvalidProbability { .. }));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn malformed_records_report_line_and_reason() {
        for (text, needle) in [
            ("0 1\n", "field"),
            ("0 1 0.5 9\n", "extra"),
            ("a 1 0.5\n", "node id"),
            ("0 b 0.5\n", "node id"),
            ("0 1 zero\n", "number"),
            ("% nodes many\n", "number"),
            ("% frobnicate\n", "directive"),
        ] {
            let err = parse_str(text, &EdgeListOptions::default()).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 1") && msg.contains(needle),
                "{text:?} -> {msg}"
            );
        }
    }

    #[test]
    fn duplicate_and_self_loop_rejected_with_lines() {
        let err = parse_str("0 1 0.5\n0 1 0.6\n", &EdgeListOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let err = parse_str("2 2 0.5\n", &EdgeListOptions::default()).unwrap_err();
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn empty_input_is_the_empty_graph() {
        let g = parse_str("", &EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn round_trip_reproduces_graph_exactly() {
        let mut g = UncertainGraph::new(5, false);
        g.add_edge(NodeId(0), NodeId(1), 0.123456789012345).unwrap();
        g.add_edge(NodeId(3), NodeId(2), 1.0 / 3.0).unwrap();
        g.add_edge(NodeId(1), NodeId(4), 1e-12).unwrap();
        let text = to_text(&g);
        let back = parse_str(&text, &EdgeListOptions::default()).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.directed(), g.directed());
        assert_eq!(back.edges(), g.edges());
        assert!(back.freeze() == g.freeze());
    }

    #[test]
    fn from_edges_builds_and_validates() {
        let g = from_edges(3, true, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_arcs(NodeId(0)).count(), 1);
        let err = from_edges(2, true, [(0, 1, 2.0)]).unwrap_err();
        assert!(err.to_string().contains("not in [0, 1]"));
    }

    /// The buffered reference: parse everything, then freeze.
    fn reference(s: &str, opts: &EdgeListOptions) -> CsrGraph {
        parse_str(s, opts).unwrap().freeze()
    }

    #[test]
    fn streaming_freeze_matches_buffered_freeze() {
        let opts = EdgeListOptions::default();
        let cases = [
            "",
            "# only a comment\n",
            "0 1 0.5\n1 2 0.25\n2 0 1.0\n",
            "% nodes 10\n0 1 0.5\n7 3 0.125\n",
            "% undirected\n0 1 0.5\n2 1 0.75\n3 0 0.0\n",
            // Orientation directive *after* edges: the whole file is
            // reinterpreted, which is exactly why degrees are tallied
            // per endpoint role in pass 1.
            "0 1 0.5\n1 2 0.25\n% undirected\n2 0 0.75\n",
            "% nodes 4\n% directed\n3 0 1e-12\n0 3 0.999\n",
            // A count raised after edges past the first one: pass 1 left
            // node 7 untallied and must tally again.
            "% nodes 3\n0 1 0.5\n2 7 0.25\n% nodes 10\n7 0 0.75\n",
        ];
        for text in cases {
            let (csr, stats) = freeze_str(text, &opts).unwrap();
            let want = reference(text, &opts);
            assert!(csr == want, "mismatch for {text:?}");
            assert_eq!(stats.nodes, want.num_nodes(), "nodes for {text:?}");
            assert_eq!(stats.edges, want.num_coins(), "edges for {text:?}");
            assert_eq!(stats.directed, want.is_directed());
        }
    }

    #[test]
    fn streaming_freeze_matches_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_1157);
        for trial in 0..20 {
            let directed = trial % 2 == 0;
            let n = rng.gen_range(1..40u32);
            let mut g = UncertainGraph::new(n as usize, directed);
            for _ in 0..rng.gen_range(0..120) {
                let u = NodeId(rng.gen_range(0..n));
                let v = NodeId(rng.gen_range(0..n));
                let p: f64 = rng.gen();
                let _ = g.add_edge(u, v, p); // dups / self-loops skipped
            }
            let text = to_text(&g);
            let opts = EdgeListOptions::default();
            let (csr, stats) = freeze_str(&text, &opts).unwrap();
            assert!(csr == g.freeze(), "trial {trial} diverged");
            assert_eq!(stats.edges, g.num_edges());
        }
    }

    #[test]
    fn streaming_freeze_error_parity() {
        // Every malformed input must fail streaming with the *same*
        // rendered error as the buffered path — including the ordering
        // rule that a syntax error anywhere in the file beats a semantic
        // error on an earlier line (syntax is checked in pass 1, before
        // any semantics run).
        let cases = [
            "0 5 0.5\nbogus line\n",            // semantics line 1, syntax line 2
            "% nodes 2\n0 1 0.5\n0 5 0.5\n",    // out of bounds
            "0 1 0.5\n2 2 0.5\n",               // self-loop
            "0 1 0.5\n1 2 1.5\n",               // prob out of range
            "0 1 0.5\n1 2 NaN\n",               // prob not finite
            "0 1 0.5\n0 1 0.6\n",               // duplicate (directed)
            "% undirected\n0 1 0.5\n1 0 0.6\n", // reversed duplicate
            "0 1\n",
            "0 1 0.5 9\n",
            "a 1 0.5\n",
            "0 1 zero\n",
            "% nodes many\n",
            "% frobnicate\n",
            "1 0 0.2\n0 3 0.4\n5 1 0.9\n% nodes 3\n", // late shrink directive
            "% nodes 5\n0 1 0.5\n2 3000000 0.5\n",    // dangling id past the count
        ];
        let opts = EdgeListOptions::default();
        for text in cases {
            let buffered = parse_str(text, &opts).map(|g| g.freeze());
            let streamed = freeze_str(text, &opts);
            match (buffered, streamed) {
                (Err(b), Err(s)) => {
                    assert_eq!(b.to_string(), s.to_string(), "for {text:?}")
                }
                (b, s) => panic!(
                    "expected both paths to fail for {text:?}: buffered ok={}, streamed ok={}",
                    b.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }

    #[test]
    fn ids_past_a_declared_count_cost_no_tally_memory() {
        let text = "% nodes 5\n0 1 0.5\n2 3000000000 0.5\n4 3 0.5\n";
        let t = tally(
            &mut || Ok(text.as_bytes()),
            &EdgeListOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(t.lowest_skipped, Some(3_000_000_000));
        assert!(t.deg_src.len() <= 5 && t.deg_dst.len() <= 5);
        let err = freeze_str(text, &EdgeListOptions::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: node 3000000000 out of bounds for graph with 5 nodes"
        );
    }

    #[test]
    fn streaming_freeze_reads_files() {
        let mut g = UncertainGraph::new(6, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(2), 0.25).unwrap();
        g.add_edge(NodeId(1), NodeId(5), 1.0 / 3.0).unwrap();
        let path =
            std::env::temp_dir().join(format!("relmax-edgelist-stream-{}.txt", std::process::id()));
        write_file(&g, &path).unwrap();
        let (csr, stats) = freeze_path(&path, &EdgeListOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(csr == g.freeze());
        assert_eq!(stats.edges, 3);
        assert!(!stats.directed);
        assert!(stats.peak_transient_bytes > 0);
    }
}
