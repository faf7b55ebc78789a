//! The query vocabulary of a batch workload: [`BatchQuery`] shapes and
//! their [`BatchEstimate`] answers.
//!
//! Serving a workload file means answering hundreds of independent
//! reliability queries against the *same* graph. `relmax_core::QueryEngine`
//! answers them: it freezes the graph once, checks every query up front,
//! then fans the batch out over its [`crate::ParallelRuntime`]. This
//! module only names the shapes and their answers.
//!
//! ## Determinism
//!
//! Batch results inherit the workspace determinism contract
//! (`docs/determinism.md`): **bit-identical output at every thread
//! count**. Each query's answer is already thread-count-independent
//! (estimator kernels shard samples with stateless coin keys and fixed
//! merges), and the batch fan-out adds no new ordering freedom — [`crate::ParallelRuntime::map`] returns results
//! in query index order no matter which worker computed what. Two runs of
//! the same workload under `RELMAX_THREADS=1` and `=64` therefore produce
//! the same bytes.
//!
//! Parallelism composes multiplicatively here, so the intended shape is:
//! **parallel across queries, serial within each estimate** — construct
//! the estimator with [`crate::McEstimator::new`] (serial runtime) and
//! give the engine the parallel runtime. The inverse (serial batch,
//! parallel estimator) is equally correct and better for a handful of
//! giant queries; both at once oversubscribes but still yields identical
//! bits.

use crate::convergence::{Estimate, HopsEstimate};
use relmax_ugraph::NodeId;

/// One reliability query in a batch workload.
///
/// The constrained shapes ([`BatchQuery::StWithin`], [`BatchQuery::Set`],
/// [`BatchQuery::Hops`]) are only answerable by estimators whose
/// [`crate::Estimator::supports_constrained`] is true; the engine rejects
/// them for other estimators before anything samples. Top-k works for
/// every estimator (it is a ranking over `from_estimates`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchQuery {
    /// `R(s, t)` — a single source-target pair.
    St(NodeId, NodeId),
    /// `R(s, v)` for every node `v` (forward reachability vector).
    From(NodeId),
    /// `R(v, t)` for every node `v` (reverse reachability vector).
    To(NodeId),
    /// `R_d(s, t)` — reachability within a hop bound.
    StWithin(NodeId, NodeId, u32),
    /// Set reliability: any source reaches any target, optionally within
    /// a hop bound, in one shared-world pass.
    Set(Vec<NodeId>, Vec<NodeId>, Option<u32>),
    /// The `k` most reliable targets from a source, deterministically
    /// ranked (value descending, node id ascending on ties).
    TopK(NodeId, usize),
    /// Expected reliable hop distance of a pair (plus its reliability).
    Hops(NodeId, NodeId),
}

impl BatchQuery {
    /// Every node this query references, in argument order (sources
    /// before targets) — the order the engine validates them in.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            BatchQuery::St(s, t) | BatchQuery::Hops(s, t) | BatchQuery::StWithin(s, t, _) => {
                vec![*s, *t]
            }
            BatchQuery::From(v) | BatchQuery::To(v) | BatchQuery::TopK(v, _) => vec![*v],
            BatchQuery::Set(sources, targets, _) => [sources.as_slice(), targets].concat(),
        }
    }

    /// The largest node id this query references (for bounds validation).
    /// Empty set sides reference no node and report `NodeId(0)`.
    pub fn max_node(&self) -> NodeId {
        self.nodes().into_iter().max().unwrap_or(NodeId(0))
    }

    /// Whether answering this query requires
    /// [`crate::Estimator::supports_constrained`].
    pub fn is_constrained(&self) -> bool {
        matches!(
            self,
            BatchQuery::StWithin(..) | BatchQuery::Set(..) | BatchQuery::Hops(..)
        )
    }

    /// The shape's name, as it appears in results and errors (`"st"`,
    /// `"from"`, `"to"`, `"st_within"`, `"set"`, `"topk"`, `"hops"`).
    pub fn shape(&self) -> &'static str {
        match self {
            BatchQuery::St(..) => "st",
            BatchQuery::From(_) => "from",
            BatchQuery::To(_) => "to",
            BatchQuery::StWithin(..) => "st_within",
            BatchQuery::Set(..) => "set",
            BatchQuery::TopK(..) => "topk",
            BatchQuery::Hops(..) => "hops",
        }
    }
}

/// The answer to one [`BatchQuery`], carrying full [`Estimate`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEstimate {
    /// Scalar estimate for a [`BatchQuery::St`] / [`BatchQuery::StWithin`]
    /// / [`BatchQuery::Set`] query.
    Scalar(Estimate),
    /// Per-node estimates for a [`BatchQuery::From`] / [`BatchQuery::To`]
    /// query, indexed by node id.
    Vector(Vec<Estimate>),
    /// Ranked `(target, estimate)` pairs for a [`BatchQuery::TopK`]
    /// query, most reliable first.
    Ranking(Vec<(NodeId, Estimate)>),
    /// Joint reliability + hop-distance estimate for a
    /// [`BatchQuery::Hops`] query.
    Hops(HopsEstimate),
}

impl BatchEstimate {
    /// Summary statistics `(nonzero, mean, max)` over the point values —
    /// a scalar or hops answer counts itself as one node. Used by
    /// table-style output where a full vector does not fit.
    pub fn summary(&self) -> (usize, f64, f64) {
        match self {
            BatchEstimate::Scalar(e) => summarize(std::iter::once(e.value)),
            BatchEstimate::Vector(v) => summarize(v.iter().map(|e| e.value)),
            BatchEstimate::Ranking(pairs) => summarize(pairs.iter().map(|(_, e)| e.value)),
            BatchEstimate::Hops(h) => summarize(std::iter::once(h.reliability.value)),
        }
    }

    /// Worlds spent answering this query and whether an accuracy budget
    /// stopped before its cap. Vector and ranking answers share one
    /// sampling run, so the first entry speaks for all (empty answers
    /// report `(0, false)`).
    pub fn sampling_effort(&self) -> (usize, bool) {
        match self {
            BatchEstimate::Scalar(e) => (e.samples_used, e.stopped_early),
            BatchEstimate::Vector(v) => v
                .first()
                .map(|e| (e.samples_used, e.stopped_early))
                .unwrap_or((0, false)),
            BatchEstimate::Ranking(pairs) => pairs
                .first()
                .map(|(_, e)| (e.samples_used, e.stopped_early))
                .unwrap_or((0, false)),
            BatchEstimate::Hops(h) => (h.reliability.samples_used, h.reliability.stopped_early),
        }
    }

    /// The largest standard error across the answer's entries.
    pub fn max_stderr(&self) -> f64 {
        match self {
            BatchEstimate::Scalar(e) => e.stderr,
            BatchEstimate::Vector(v) => v.iter().map(|e| e.stderr).fold(0.0f64, f64::max),
            BatchEstimate::Ranking(pairs) => {
                pairs.iter().map(|(_, e)| e.stderr).fold(0.0f64, f64::max)
            }
            BatchEstimate::Hops(h) => h.reliability.stderr,
        }
    }
}

fn summarize(values: impl Iterator<Item = f64> + Clone) -> (usize, f64, f64) {
    let len = values.clone().count();
    let nonzero = values.clone().filter(|&r| r > 0.0).count();
    let mean = if len == 0 {
        0.0
    } else {
        values.clone().sum::<f64>() / len as f64
    };
    let max = values.fold(0.0f64, f64::max);
    (nonzero, mean, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        let scalar = |v| BatchEstimate::Scalar(Estimate::exact(v));
        assert_eq!(scalar(0.5).summary(), (1, 0.5, 0.5));
        assert_eq!(scalar(0.0).summary(), (0, 0.0, 0.0));
        let vector = BatchEstimate::Vector([0.0, 0.5, 1.0].map(Estimate::exact).to_vec());
        let (nz, mean, max) = vector.summary();
        assert_eq!(nz, 2);
        assert!((mean - 0.5).abs() < 1e-12);
        assert_eq!(max, 1.0);
        let ranking = BatchEstimate::Ranking(vec![(NodeId(2), Estimate::exact(0.25))]);
        assert_eq!(ranking.summary(), (1, 0.25, 0.25));
        assert_eq!(BatchEstimate::Vector(Vec::new()).summary(), (0, 0.0, 0.0));
    }

    #[test]
    fn shape_metadata() {
        assert_eq!(BatchQuery::St(NodeId(3), NodeId(9)).max_node(), NodeId(9));
        assert_eq!(BatchQuery::From(NodeId(4)).max_node(), NodeId(4));
        let set = BatchQuery::Set(vec![NodeId(0)], vec![NodeId(2), NodeId(3)], Some(2));
        assert_eq!(set.max_node(), NodeId(3));
        assert_eq!(BatchQuery::Set(vec![], vec![], None).max_node(), NodeId(0));
        assert_eq!(
            BatchQuery::StWithin(NodeId(5), NodeId(2), 3).nodes(),
            [NodeId(5), NodeId(2)]
        );
        assert_eq!(set.nodes(), [NodeId(0), NodeId(2), NodeId(3)]);
        let constrained = [
            BatchQuery::StWithin(NodeId(0), NodeId(3), 2),
            set,
            BatchQuery::Hops(NodeId(0), NodeId(3)),
        ];
        for q in &constrained {
            assert!(q.is_constrained(), "{q:?}");
        }
        let names: Vec<_> = constrained.iter().map(BatchQuery::shape).collect();
        assert_eq!(names, ["st_within", "set", "hops"]);
        assert!(!BatchQuery::TopK(NodeId(0), 2).is_constrained());
        assert!(!BatchQuery::To(NodeId(1)).is_constrained());
    }
}
