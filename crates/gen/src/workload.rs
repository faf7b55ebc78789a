//! Query-file workloads: emit, parse, and generate batched query sets.
//!
//! The paper's experiments average over batches of `s-t` queries drawn at
//! a controlled hop distance (§8.1); the `relmax query` CLI serves exactly
//! such batches from a *query file*. This module owns that file format —
//! one query per line, with an optional accuracy directive:
//!
//! ```text
//! # comments and blank lines are ignored
//! % accuracy 0.01 0.05 100000   # optional: eps delta [max_samples]
//! % max-hops 4   # optional: hop-bound every st/set query in this file
//! st 0 41        # R(0, 41)
//! 3 17           # bare pair == st
//! from 0         # R(0, v) for every node v
//! to 41          # R(v, 41) for every node v
//! set 0,3 41,17  # any listed source reaches any listed target
//! topk 0 5       # the 5 most reliable targets from node 0
//! hops 0 41      # expected reliable hop distance 0 -> 41
//! ```
//!
//! The `% accuracy` directive lets a workload file carry its own
//! [`AccuracyDirective`] ("answer every query to ±eps at confidence
//! 1−delta"), which the CLI maps to a sampling `Budget` unless
//! overridden on the command line. The `% max-hops D` directive
//! hop-bounds every `st` and `set` query in the file (other shapes are
//! unaffected; `hops` in particular must stay unbounded to measure the
//! full distance distribution) — the consumer applies it when mapping
//! specs onto engine queries, and an explicit CLI `--max-hops` overrides
//! it. [`parse_workload_str`] and friends return the directives
//! alongside the queries.
//!
//! Queries keep file order, and the batch runtime answers them in that
//! order, so a workload file pins the byte layout of a run's output.
//! [`st_workload`] generates the paper-style random batches (via
//! [`crate::queries::st_queries`]) ready to be written with
//! [`write_queries`].

use crate::queries::st_queries;
use relmax_ugraph::{NodeId, ProbGraph};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// One parsed workload query (mirrors
/// `relmax_sampling::batch::BatchQuery`, which layering keeps out of this
/// crate — the CLI maps between the two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// `R(s, t)` for one pair.
    St(NodeId, NodeId),
    /// `R(s, v)` for every `v`.
    From(NodeId),
    /// `R(v, t)` for every `v`.
    To(NodeId),
    /// `set S1,S2,… T1,T2,…` — the probability that any listed source
    /// reaches any listed target (one shared-world pass, not a per-pair
    /// combination). Hop-bounded by the file's `% max-hops` directive.
    Set(Vec<NodeId>, Vec<NodeId>),
    /// `topk S K` — the `K` most reliable targets from `S`, ranked.
    TopK(NodeId, usize),
    /// `hops S T` — expected reliable hop distance from `S` to `T`.
    /// Never hop-bounded (the point is the full distance distribution).
    Hops(NodeId, NodeId),
}

impl QuerySpec {
    /// The largest node id the query references (for bounds validation
    /// against a loaded graph).
    pub fn max_node(&self) -> NodeId {
        match self {
            QuerySpec::St(s, t) | QuerySpec::Hops(s, t) => NodeId(s.0.max(t.0)),
            QuerySpec::From(s) | QuerySpec::TopK(s, _) => *s,
            QuerySpec::To(t) => *t,
            QuerySpec::Set(sources, targets) => sources
                .iter()
                .chain(targets)
                .copied()
                .max_by_key(|v| v.0)
                .unwrap_or(NodeId(0)),
        }
    }

    /// Whether the file-level `% max-hops` directive applies to this
    /// query: reachability shapes (`st`, `set`) are bounded; `from`/`to`/
    /// `topk` vectors and `hops` distances are not.
    pub fn hop_boundable(&self) -> bool {
        matches!(self, QuerySpec::St(..) | QuerySpec::Set(..))
    }
}

fn join_nodes(vs: &[NodeId]) -> String {
    vs.iter()
        .map(|v| v.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySpec::St(s, t) => write!(f, "st {} {}", s.0, t.0),
            QuerySpec::From(s) => write!(f, "from {}", s.0),
            QuerySpec::To(t) => write!(f, "to {}", t.0),
            QuerySpec::Set(sources, targets) => {
                write!(f, "set {} {}", join_nodes(sources), join_nodes(targets))
            }
            QuerySpec::TopK(s, k) => write!(f, "topk {} {k}", s.0),
            QuerySpec::Hops(s, t) => write!(f, "hops {} {}", s.0, t.0),
        }
    }
}

/// Errors parsing a query file, with 1-based line numbers.
#[derive(Debug)]
pub enum WorkloadError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A line that is not a valid query record.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Io(e) => write!(f, "query file I/O error: {e}"),
            WorkloadError::BadRecord { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WorkloadError {
    fn from(e: io::Error) -> Self {
        WorkloadError::Io(e)
    }
}

fn bad(line: usize, reason: impl Into<String>) -> WorkloadError {
    WorkloadError::BadRecord {
        line,
        reason: reason.into(),
    }
}

fn parse_node(tok: &str, line: usize) -> Result<NodeId, WorkloadError> {
    tok.parse::<u32>()
        .map(NodeId)
        .map_err(|_| bad(line, format!("{tok:?} is not a node id")))
}

/// An accuracy request carried by a workload file's `% accuracy`
/// directive: answer every query to `± eps` at confidence `1 − delta`,
/// optionally capped at `max_samples` worlds. The CLI maps this onto a
/// sampling `Budget` (this crate stays below the sampling layer, so the
/// directive is plain data here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyDirective {
    /// Target confidence-interval half-width.
    pub eps: f64,
    /// Permitted interval failure probability.
    pub delta: f64,
    /// Optional cap on sampled worlds per query.
    pub max_samples: Option<usize>,
}

/// A parsed workload: the queries in file order plus the file's optional
/// accuracy directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Queries in file order.
    pub specs: Vec<QuerySpec>,
    /// The `% accuracy` directive, if the file carried one.
    pub accuracy: Option<AccuracyDirective>,
    /// The `% max-hops` directive, if the file carried one: hop-bound
    /// every [`QuerySpec::hop_boundable`] query in the file.
    pub max_hops: Option<u32>,
}

/// One query in a *server request body* — the workload vocabulary plus
/// the `pairwise` form, which has no place in flat workload files (its
/// answer is a matrix) but maps directly onto the engine's pairwise
/// target over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireSpec {
    /// Any flat workload query (`st` / `from` / `to` / bare pair).
    Query(QuerySpec),
    /// `pairwise s1,s2,… t1,t2,…` — the full `|S| × |T|` reliability
    /// matrix for the listed sources and targets.
    Pairwise {
        /// Matrix row endpoints, in request order.
        sources: Vec<NodeId>,
        /// Matrix column endpoints, in request order.
        targets: Vec<NodeId>,
    },
}

impl WireSpec {
    /// The largest node id the query references (for bounds validation
    /// against a loaded graph).
    pub fn max_node(&self) -> NodeId {
        match self {
            WireSpec::Query(q) => q.max_node(),
            WireSpec::Pairwise { sources, targets } => sources
                .iter()
                .chain(targets)
                .copied()
                .max_by_key(|v| v.0)
                .unwrap_or(NodeId(0)),
        }
    }
}

impl fmt::Display for WireSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireSpec::Query(q) => q.fmt(f),
            WireSpec::Pairwise { sources, targets } => {
                write!(
                    f,
                    "pairwise {} {}",
                    join_nodes(sources),
                    join_nodes(targets)
                )
            }
        }
    }
}

/// A parsed `POST /query` request body: the `relmax serve` superset of
/// the workload-file vocabulary — `pairwise` queries plus a `% seed S`
/// directive for per-request seed pinning (see `docs/server.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Queries in body order.
    pub specs: Vec<WireSpec>,
    /// The `% accuracy` directive, if the body carried one.
    pub accuracy: Option<AccuracyDirective>,
    /// The `% seed` directive, if the body carried one.
    pub seed: Option<u64>,
    /// The `% max-hops` directive, if the body carried one: hop-bound
    /// every [`QuerySpec::hop_boundable`] query in the request.
    pub max_hops: Option<u32>,
}

fn parse_accuracy(toks: &[&str], lineno: usize) -> Result<AccuracyDirective, WorkloadError> {
    let parse_f64 = |tok: &str, what: &str| -> Result<f64, WorkloadError> {
        let v: f64 = tok
            .parse()
            .map_err(|_| bad(lineno, format!("{tok:?} is not a valid {what}")))?;
        if !(v > 0.0 && v < 1.0) {
            return Err(bad(lineno, format!("{what} must lie in (0, 1), got {tok}")));
        }
        Ok(v)
    };
    match toks {
        [eps, delta] | [eps, delta, _] => {
            let directive = AccuracyDirective {
                eps: parse_f64(eps, "eps")?,
                delta: parse_f64(delta, "delta")?,
                max_samples: match toks.get(2) {
                    None => None,
                    Some(tok) => Some(tok.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(
                        || bad(lineno, format!("{tok:?} is not a valid max_samples")),
                    )?),
                },
            };
            Ok(directive)
        }
        _ => Err(bad(
            lineno,
            "expected `% accuracy EPS DELTA [MAX_SAMPLES]`".to_string(),
        )),
    }
}

/// Parse a workload (queries plus optional `% accuracy` directive) from
/// any buffered reader.
pub fn parse_workload_reader<R: BufRead>(r: R) -> Result<Workload, WorkloadError> {
    let request = parse_lines(r, false)?;
    let specs = request
        .specs
        .into_iter()
        .map(|s| match s {
            WireSpec::Query(q) => q,
            WireSpec::Pairwise { .. } => unreachable!("flat grammar rejects pairwise"),
        })
        .collect();
    Ok(Workload {
        specs,
        accuracy: request.accuracy,
        max_hops: request.max_hops,
    })
}

/// Parse a comma-separated node list (`0,4,17`) for `pairwise`/`set`
/// queries.
fn parse_node_list(
    tok: &str,
    kind: &str,
    what: &str,
    lineno: usize,
) -> Result<Vec<NodeId>, WorkloadError> {
    let nodes: Vec<NodeId> = tok
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_node(s, lineno))
        .collect::<Result<_, _>>()?;
    if nodes.is_empty() {
        return Err(bad(lineno, format!("`{kind}` needs at least one {what}")));
    }
    Ok(nodes)
}

/// Shared parser core behind both grammars. `wire` admits the serve-only
/// constructs (`pairwise` lines, `% seed`); the flat workload grammar
/// rejects them with a pointer to the request-body format.
fn parse_lines<R: BufRead>(r: R, wire: bool) -> Result<WireRequest, WorkloadError> {
    let mut specs = Vec::new();
    let mut accuracy: Option<AccuracyDirective> = None;
    let mut seed: Option<u64> = None;
    let mut max_hops: Option<u32> = None;
    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        if let Some(directive) = body.strip_prefix('%') {
            let toks: Vec<&str> = directive.split_whitespace().collect();
            match toks.as_slice() {
                ["accuracy", rest @ ..] => {
                    if accuracy.is_some() {
                        return Err(bad(lineno, "duplicate `% accuracy` directive"));
                    }
                    accuracy = Some(parse_accuracy(rest, lineno)?);
                }
                ["max-hops", rest @ ..] => {
                    if max_hops.is_some() {
                        return Err(bad(lineno, "duplicate `% max-hops` directive"));
                    }
                    max_hops = match rest {
                        [tok] => Some(tok.parse::<u32>().map_err(|_| {
                            bad(lineno, format!("{tok:?} is not a valid hop bound (u32)"))
                        })?),
                        _ => return Err(bad(lineno, "expected `% max-hops D`".to_string())),
                    };
                }
                ["seed", rest @ ..] if wire => {
                    if seed.is_some() {
                        return Err(bad(lineno, "duplicate `% seed` directive"));
                    }
                    seed = match rest {
                        [tok] => Some(tok.parse::<u64>().map_err(|_| {
                            bad(lineno, format!("{tok:?} is not a valid seed (u64)"))
                        })?),
                        _ => return Err(bad(lineno, "expected `% seed S`".to_string())),
                    };
                }
                ["seed", ..] => {
                    return Err(bad(
                        lineno,
                        "`% seed` is a request-body directive (relmax serve); \
                         workload files take the seed from the CLI",
                    ))
                }
                _ => {
                    return Err(bad(
                        lineno,
                        format!(
                            "unknown directive {body:?} \
                             (expected `% accuracy ...` or `% max-hops D`)"
                        ),
                    ))
                }
            }
            continue;
        }
        let toks: Vec<&str> = body.split_whitespace().collect();
        let spec = match toks.as_slice() {
            ["st", s, t] => QuerySpec::St(parse_node(s, lineno)?, parse_node(t, lineno)?).into(),
            ["from", s] => QuerySpec::From(parse_node(s, lineno)?).into(),
            ["to", t] => QuerySpec::To(parse_node(t, lineno)?).into(),
            ["set", srcs, dsts] => QuerySpec::Set(
                parse_node_list(srcs, "set", "source", lineno)?,
                parse_node_list(dsts, "set", "target", lineno)?,
            )
            .into(),
            ["topk", s, k] => {
                let k = k
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or_else(|| bad(lineno, format!("{k:?} is not a valid k (positive)")))?;
                QuerySpec::TopK(parse_node(s, lineno)?, k).into()
            }
            ["hops", s, t] => {
                QuerySpec::Hops(parse_node(s, lineno)?, parse_node(t, lineno)?).into()
            }
            ["pairwise", srcs, dsts] if wire => WireSpec::Pairwise {
                sources: parse_node_list(srcs, "pairwise", "source", lineno)?,
                targets: parse_node_list(dsts, "pairwise", "target", lineno)?,
            },
            ["pairwise", ..] if wire => {
                return Err(bad(
                    lineno,
                    "wrong arity for `pairwise` (expected `pairwise S1,S2,… T1,T2,…`)",
                ))
            }
            ["pairwise", ..] => {
                return Err(bad(
                    lineno,
                    "`pairwise` queries are request-body-only (relmax serve); \
                     workload files take `st S T`, `from S`, or `to T`",
                ))
            }
            [kind @ ("st" | "from" | "to" | "set" | "topk" | "hops"), ..] => {
                return Err(bad(
                    lineno,
                    format!(
                        "wrong arity for `{kind}` (expected `st S T`, `from S`, `to T`, \
                         `set S1,S2,… T1,T2,…`, `topk S K`, or `hops S T`)"
                    ),
                ))
            }
            [s, t] => QuerySpec::St(parse_node(s, lineno)?, parse_node(t, lineno)?).into(),
            _ => {
                return Err(bad(
                    lineno,
                    format!(
                        "expected `st S T`, `from S`, `to T`, `set S1,… T1,…`, \
                         `topk S K`, `hops S T`, or `S T`; found {body:?}"
                    ),
                ))
            }
        };
        specs.push(spec);
    }
    Ok(WireRequest {
        specs,
        accuracy,
        seed,
        max_hops,
    })
}

impl From<QuerySpec> for WireSpec {
    fn from(q: QuerySpec) -> Self {
        WireSpec::Query(q)
    }
}

/// Parse a `relmax serve` request body: the workload vocabulary plus
/// `pairwise` queries and an optional `% seed S` directive.
///
/// ```
/// use relmax_gen::workload::{parse_request_str, QuerySpec, WireSpec};
/// use relmax_ugraph::NodeId;
///
/// let req = parse_request_str(
///     "% accuracy 0.02 0.05\n% seed 7\nst 0 3\npairwise 0,1 2,3\n",
/// ).unwrap();
/// assert_eq!(req.seed, Some(7));
/// assert_eq!(req.specs.len(), 2);
/// assert_eq!(req.specs[0], WireSpec::Query(QuerySpec::St(NodeId(0), NodeId(3))));
/// assert!(matches!(&req.specs[1], WireSpec::Pairwise { sources, .. } if sources.len() == 2));
/// ```
pub fn parse_request_str(s: &str) -> Result<WireRequest, WorkloadError> {
    parse_request_reader(s.as_bytes())
}

/// Parse a `relmax serve` request body from any buffered reader.
pub fn parse_request_reader<R: BufRead>(r: R) -> Result<WireRequest, WorkloadError> {
    parse_lines(r, true)
}

/// Parse a workload from a string.
///
/// ```
/// use relmax_gen::workload::parse_workload_str;
///
/// let w = parse_workload_str("% accuracy 0.02 0.05\nst 0 3\n").unwrap();
/// assert_eq!(w.specs.len(), 1);
/// let acc = w.accuracy.unwrap();
/// assert_eq!((acc.eps, acc.delta, acc.max_samples), (0.02, 0.05, None));
/// ```
pub fn parse_workload_str(s: &str) -> Result<Workload, WorkloadError> {
    parse_workload_reader(s.as_bytes())
}

/// Parse a workload from a path.
pub fn parse_workload_file<P: AsRef<Path>>(path: P) -> Result<Workload, WorkloadError> {
    let f = File::open(path)?;
    parse_workload_reader(BufReader::new(f))
}

/// Write queries in the file format, one per line, preserving order.
pub fn write_queries<W: Write>(specs: &[QuerySpec], mut w: W) -> io::Result<()> {
    for s in specs {
        writeln!(w, "{s}")?;
    }
    w.flush()
}

/// Write a full workload: the `% accuracy` / `% max-hops` directives (if
/// any) followed by the queries. Round-trips through
/// [`parse_workload_reader`].
pub fn write_workload<W: Write>(workload: &Workload, mut w: W) -> io::Result<()> {
    if let Some(acc) = &workload.accuracy {
        match acc.max_samples {
            Some(cap) => writeln!(w, "% accuracy {} {} {cap}", acc.eps, acc.delta)?,
            None => writeln!(w, "% accuracy {} {}", acc.eps, acc.delta)?,
        }
    }
    if let Some(hops) = workload.max_hops {
        writeln!(w, "% max-hops {hops}")?;
    }
    write_queries(&workload.specs, w)
}

/// [`write_queries`] into a `String`.
pub fn queries_to_text(specs: &[QuerySpec]) -> String {
    let mut buf = Vec::new();
    write_queries(specs, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("query text is ASCII")
}

/// Generate a paper-style batch of `count` random `s-t` queries whose hop
/// distance lies in `[min_hops, max_hops]` (§8.1 draws 3–5). Deterministic
/// in `seed`; may return fewer queries on graphs too small or disconnected
/// to supply them.
pub fn st_workload<G: ProbGraph>(
    g: &G,
    count: usize,
    min_hops: u32,
    max_hops: u32,
    seed: u64,
) -> Vec<QuerySpec> {
    st_queries(g, count, min_hops, max_hops, seed)
        .into_iter()
        .map(|(s, t)| QuerySpec::St(s, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::ProbModel;
    use crate::synth::watts_strogatz;

    #[test]
    fn round_trip_preserves_order_and_kinds() {
        let specs = vec![
            QuerySpec::St(NodeId(0), NodeId(3)),
            QuerySpec::From(NodeId(1)),
            QuerySpec::To(NodeId(2)),
            QuerySpec::St(NodeId(3), NodeId(0)),
        ];
        let text = queries_to_text(&specs);
        assert_eq!(parse_workload_str(&text).unwrap().specs, specs);
    }

    #[test]
    fn bare_pairs_and_comments() {
        let qs = parse_workload_str("# header\n\n0 5 # inline\nst 5 0\n")
            .unwrap()
            .specs;
        assert_eq!(
            qs,
            vec![
                QuerySpec::St(NodeId(0), NodeId(5)),
                QuerySpec::St(NodeId(5), NodeId(0)),
            ]
        );
    }

    #[test]
    fn malformed_lines_report_position() {
        for (text, needle) in [
            ("st 0\n", "expected"),
            ("from 0 1\n", "expected"),
            ("st a 1\n", "node id"),
            ("0 1 2\n", "expected"),
            ("walk 0 1\n", "expected"),
        ] {
            let err = parse_workload_str(text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 1") && msg.contains(needle),
                "{text:?} -> {msg}"
            );
        }
    }

    #[test]
    fn workload_directive_round_trips() {
        let w = Workload {
            specs: vec![
                QuerySpec::St(NodeId(0), NodeId(3)),
                QuerySpec::From(NodeId(1)),
            ],
            accuracy: Some(AccuracyDirective {
                eps: 0.01,
                delta: 0.05,
                max_samples: Some(50_000),
            }),
            max_hops: None,
        };
        let mut buf = Vec::new();
        write_workload(&w, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("% accuracy 0.01 0.05 50000\n"));
        assert_eq!(parse_workload_str(&text).unwrap(), w);
        // Directive-free files parse with accuracy = None.
        let plain = parse_workload_str("st 0 1\n").unwrap();
        assert_eq!(plain.accuracy, None);
    }

    #[test]
    fn bad_directives_report_position() {
        for (text, needle) in [
            ("% accuracy\n", "EPS DELTA"),
            ("% accuracy 0.5\n", "EPS DELTA"),
            ("% accuracy 1.5 0.05\n", "eps"),
            ("% accuracy 0.1 0\n", "delta"),
            ("% accuracy 0.1 0.05 zero\n", "max_samples"),
            ("% budget 100\n", "unknown directive"),
            ("% accuracy 0.1 0.05\n% accuracy 0.2 0.05\n", "duplicate"),
        ] {
            let err = parse_workload_str(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text:?} -> {msg}");
        }
    }

    #[test]
    fn st_workload_is_deterministic_and_in_band() {
        let mut g = watts_strogatz(200, 6, 0.2, 3);
        ProbModel::Uniform { lo: 0.2, hi: 0.6 }.apply(&mut g, 4);
        let a = st_workload(&g, 15, 2, 4, 9);
        let b = st_workload(&g, 15, 2, 4, 9);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for q in &a {
            assert!(matches!(q, QuerySpec::St(s, t) if s != t));
        }
    }

    #[test]
    fn max_node_is_bound() {
        assert_eq!(QuerySpec::St(NodeId(2), NodeId(9)).max_node(), NodeId(9));
        assert_eq!(QuerySpec::To(NodeId(7)).max_node(), NodeId(7));
        assert_eq!(
            QuerySpec::Set(vec![NodeId(3), NodeId(11)], vec![NodeId(4)]).max_node(),
            NodeId(11)
        );
        assert_eq!(QuerySpec::TopK(NodeId(6), 3).max_node(), NodeId(6));
        assert_eq!(QuerySpec::Hops(NodeId(1), NodeId(8)).max_node(), NodeId(8));
    }

    #[test]
    fn constrained_forms_round_trip() {
        let specs = vec![
            QuerySpec::Set(vec![NodeId(0), NodeId(3)], vec![NodeId(41), NodeId(17)]),
            QuerySpec::TopK(NodeId(0), 5),
            QuerySpec::Hops(NodeId(0), NodeId(41)),
            QuerySpec::St(NodeId(1), NodeId(2)),
        ];
        let text = queries_to_text(&specs);
        assert_eq!(text, "set 0,3 41,17\ntopk 0 5\nhops 0 41\nst 1 2\n");
        assert_eq!(parse_workload_str(&text).unwrap().specs, specs);
        // The wire grammar parses the same vocabulary.
        let wire = parse_request_str(&text).unwrap();
        assert_eq!(wire.specs.len(), 4);
        assert_eq!(wire.specs[0], WireSpec::Query(specs[0].clone()));
    }

    #[test]
    fn max_hops_directive_round_trips() {
        let w = parse_workload_str("% max-hops 4\nst 0 3\nset 0,1 2\nhops 0 3\n").unwrap();
        assert_eq!(w.max_hops, Some(4));
        assert_eq!(w.specs.len(), 3);
        // The directive targets reachability shapes only.
        assert!(w.specs[0].hop_boundable());
        assert!(w.specs[1].hop_boundable());
        assert!(!w.specs[2].hop_boundable());
        assert!(!QuerySpec::From(NodeId(0)).hop_boundable());
        assert!(!QuerySpec::TopK(NodeId(0), 2).hop_boundable());
        let mut buf = Vec::new();
        write_workload(&w, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("% max-hops 4\n"), "{text}");
        assert_eq!(parse_workload_str(&text).unwrap(), w);
        // The wire grammar carries it too.
        let req = parse_request_str("% max-hops 2\n% seed 7\nst 0 1\n").unwrap();
        assert_eq!(req.max_hops, Some(2));
        // `% max-hops 0` is legal: only s == t (or source∩target) survive.
        assert_eq!(
            parse_workload_str("% max-hops 0\n").unwrap().max_hops,
            Some(0)
        );
    }

    #[test]
    fn constrained_form_errors_report_position() {
        for (text, needle) in [
            ("set 0,1\n", "arity"),
            ("set 0,1 2 3\n", "arity"),
            ("set , 2\n", "at least one source"),
            ("set 0 ,\n", "at least one target"),
            ("set 0,x 2\n", "node id"),
            ("topk 0\n", "arity"),
            ("topk 0 0\n", "valid k"),
            ("topk 0 -1\n", "valid k"),
            ("hops 0\n", "arity"),
            ("hops 0 1 2\n", "arity"),
            ("% max-hops\n", "max-hops D"),
            ("% max-hops 1 2\n", "max-hops D"),
            ("% max-hops banana\n", "hop bound"),
            ("% max-hops -3\n", "hop bound"),
            ("% max-hops 2\n% max-hops 3\n", "duplicate"),
        ] {
            let err = parse_workload_str(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line"), "{text:?} -> {msg}");
            assert!(msg.contains(needle), "{text:?} -> {msg}");
        }
    }

    #[test]
    fn wire_request_parses_full_vocabulary() {
        let req = parse_request_str(
            "# serve body\n% accuracy 0.02 0.05 10000\n% seed 42\n\
             st 0 3\nfrom 1\nto 2\n4 5\npairwise 0,1 2,3,4\n",
        )
        .unwrap();
        assert_eq!(req.seed, Some(42));
        let acc = req.accuracy.unwrap();
        assert_eq!(
            (acc.eps, acc.delta, acc.max_samples),
            (0.02, 0.05, Some(10_000))
        );
        assert_eq!(req.specs.len(), 5);
        assert_eq!(
            req.specs[3],
            WireSpec::Query(QuerySpec::St(NodeId(4), NodeId(5)))
        );
        assert_eq!(
            req.specs[4],
            WireSpec::Pairwise {
                sources: vec![NodeId(0), NodeId(1)],
                targets: vec![NodeId(2), NodeId(3), NodeId(4)],
            }
        );
    }

    #[test]
    fn wire_spec_round_trips_through_display() {
        let req = parse_request_str("pairwise 0,1 2,3\nst 6 7\n").unwrap();
        let text: String = req.specs.iter().map(|s| format!("{s}\n")).collect();
        assert_eq!(text, "pairwise 0,1 2,3\nst 6 7\n");
        assert_eq!(parse_request_str(&text).unwrap().specs, req.specs);
    }

    #[test]
    fn wire_request_errors_report_position() {
        for (text, needle) in [
            ("% seed\n", "% seed S"),
            ("% seed 1 2\n", "% seed S"),
            ("% seed banana\n", "not a valid seed"),
            ("% seed 1\n% seed 2\n", "duplicate"),
            ("pairwise 0,1\n", "arity"),
            ("pairwise 0,1 2 3\n", "arity"),
            ("pairwise , 2\n", "at least one source"),
            ("pairwise 0 ,\n", "at least one target"),
            ("pairwise 0,x 2\n", "node id"),
        ] {
            let err = parse_request_str(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line"), "{text:?} -> {msg}");
            assert!(msg.contains(needle), "{text:?} -> {msg}");
        }
    }

    #[test]
    fn flat_grammars_reject_wire_constructs() {
        let err = parse_workload_str("st 0 1\npairwise 0,1 2\n").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("request-body"),
            "{msg}"
        );
        let err = parse_workload_str("% seed 7\n").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 1") && msg.contains("request-body"),
            "{msg}"
        );
    }

    #[test]
    fn wire_max_node_is_bound() {
        let req = parse_request_str("pairwise 0,9 2,3\nst 6 7\n").unwrap();
        assert_eq!(req.specs[0].max_node(), NodeId(9));
        assert_eq!(req.specs[1].max_node(), NodeId(7));
    }
}
