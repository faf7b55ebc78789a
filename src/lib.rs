//! # relmax — Reliability Maximization in Uncertain Graphs
//!
//! A Rust implementation of *"Reliability Maximization in Uncertain
//! Graphs"* (Ke, Khan, Al Hasan, Rezvansangsari; ICDE 2021, full version
//! arXiv:1903.08587): given an uncertain graph — every edge exists
//! independently with probability `p(e)` — add a budget of `k` new edges
//! (each with probability `ζ`) so that the probability that a target `t`
//! is reachable from a source `s` is maximized.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`ugraph`] — the uncertain-graph substrate: mutable adjacency
//!   storage ([`ugraph::UncertainGraph`]), zero-copy candidate overlays
//!   ([`ugraph::GraphView`]), immutable flat-array snapshots
//!   ([`ugraph::CsrGraph`], built once via `freeze()`), text edge-list
//!   ingestion ([`ugraph::edgelist`]), versioned `.rgs` binary
//!   persistence ([`ugraph::snapshot`]), pooled zero-allocation
//!   traversal scratch, possible worlds, and exact reliability;
//! - [`sampling`] — Monte Carlo and recursive stratified reliability
//!   estimators behind the generic [`sampling::Estimator`] trait
//!   (monomorphized per graph type — no virtual dispatch in the
//!   per-world BFS), with seed-keyed common random numbers, plus the
//!   deterministic parallel runtime and the batch query vocabulary
//!   ([`sampling::BatchQuery`]) that [`core::QueryEngine`] answers
//!   behind `relmax query`;
//! - [`paths`] — most-reliable-path machinery (Dijkstra, top-l paths,
//!   the layered-graph exact solver for the restricted problem);
//! - [`centrality`] — degree / betweenness / eigenvector analysis used by
//!   baselines;
//! - [`influence`] — independent-cascade influence spread;
//! - [`gen`] — synthetic graph generators, probability models, statistics
//!   and query workloads;
//! - [`core`] — the paper's algorithms: search-space elimination,
//!   baselines, most-reliable-path improvement, individual-path and
//!   path-batch edge selection, and multi-source/target variants. All
//!   selectors implement the generic [`core::EdgeSelector`] trait;
//!   [`core::AnySelector`] provides a homogeneous value type where a
//!   list of methods is needed. [`core::QueryEngine`] is the unified
//!   front door: builder-style `st`/`from`/`to`/`pairwise`/`batch`
//!   queries under [`sampling::Budget`]s (fixed worlds, or "±eps at
//!   confidence 1−delta" with deterministic adaptive stopping) returning
//!   rich [`sampling::Estimate`]s — see `docs/api.md`.
//!
//! ## The hot path: freeze, then sample
//!
//! Estimation dominates every algorithm's runtime, so the estimator
//! stack avoids dynamic dispatch entirely: `Estimator` and `EdgeSelector`
//! methods are generic, and selection algorithms freeze the base graph
//! once into a [`ugraph::CsrGraph`] and evaluate candidate edge sets as
//! [`ugraph::GraphView`] overlays on the snapshot. Coin ids survive
//! freezing, so a fixed seed produces bit-identical estimates on either
//! storage layout, and the lane-packed kernel returns the same bits as
//! the scalar per-world BFS reference — see `BENCH_sampling.json` for
//! the measured speedup of one over the other.
//!
//! ## Quickstart
//!
//! ```
//! use relmax::prelude::*;
//!
//! // An uncertain graph with 6 nodes and a weak s-t connection.
//! let mut g = UncertainGraph::new(6, true);
//! g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
//! g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
//! g.add_edge(NodeId(2), NodeId(5), 0.4).unwrap();
//! g.add_edge(NodeId(0), NodeId(3), 0.7).unwrap();
//! g.add_edge(NodeId(3), NodeId(4), 0.6).unwrap();
//! g.add_edge(NodeId(4), NodeId(5), 0.3).unwrap();
//!
//! let query = StQuery::new(NodeId(0), NodeId(5), 2, 0.8);
//! let estimator = McEstimator::new(2_000, 42);
//! let outcome = BatchEdgeSelector::default()
//!     .select(&g, &query, &estimator)
//!     .unwrap();
//! assert!(outcome.added.len() <= 2 && !outcome.added.is_empty());
//! assert!(outcome.gain() > 0.0);
//!
//! // Estimates are layout-independent for a fixed seed:
//! let frozen = g.freeze();
//! let budget = estimator.default_budget();
//! assert_eq!(
//!     estimator.st_estimate(&g, NodeId(0), NodeId(5), budget),
//!     estimator.st_estimate(&frozen, NodeId(0), NodeId(5), budget),
//! );
//! ```

pub use relmax_centrality as centrality;
pub use relmax_core as core;
pub use relmax_gen as gen;
pub use relmax_influence as influence;
pub use relmax_paths as paths;
pub use relmax_sampling as sampling;
pub use relmax_ugraph as ugraph;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use crate::core::candidates::{CandidateEdge, CandidateSpace};
    pub use crate::core::elimination::SearchSpaceElimination;
    pub use crate::core::engine::{QueryAnswer, QueryEngine, QueryError, ReliabilityQuery};
    pub use crate::core::multi::{Aggregate, MultiQuery, MultiSelector};
    pub use crate::core::path_selection::{BatchEdgeSelector, IndividualPathSelector};
    pub use crate::core::query::StQuery;
    pub use crate::core::selector::{AnySelector, EdgeSelector, Outcome};
    pub use crate::gen::prob::ProbModel;
    pub use crate::sampling::{
        Budget, Estimate, Estimator, ExactEstimator, McEstimator, ParallelRuntime, RssEstimator,
    };
    pub use crate::ugraph::{
        CsrGraph, DeltaOverlay, EdgeId, GraphUpdate, GraphView, NodeId, ProbGraph, UncertainGraph,
    };
}
