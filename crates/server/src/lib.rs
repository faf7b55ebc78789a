//! `relmax serve` — a concurrent reliability query service over a frozen
//! uncertain-graph snapshot.
//!
//! The paper's workload (Ke et al., ICDE 2021) is freeze-once /
//! query-millions: reliability queries against a fixed uncertain graph.
//! This crate is that serving layer — a hand-rolled HTTP/1.1 service over
//! `std::net` (no dependencies, like the rest of the workspace) that
//! loads a `.rgs` snapshot, holds it behind an atomically hot-swappable
//! `Arc`, and answers query batches in the workload-file vocabulary.
//!
//! Four endpoints:
//!
//! * `POST /query` — a body of `st`/`from`/`to`/`pairwise` lines with
//!   optional `% accuracy EPS DELTA [MAX]` and `% seed S` directives;
//!   answers as one JSON object whose `"results"` array is byte-identical
//!   to `relmax query --format json` for the same workload, seed, and
//!   budget.
//! * `POST /reload` — atomically swap in a re-loaded snapshot (the body
//!   names a path, or is empty to re-read the current one). A corrupt
//!   snapshot leaves the old generation serving and returns `409`.
//! * `GET /metrics` — flat `key value` counters (qps, samples/sec, index
//!   short-circuits, queue depth, …).
//! * `GET /healthz` — snapshot generation, format version, and graph
//!   shape.
//!
//! The full protocol contract — status codes, error JSON shapes,
//! determinism guarantees, overload semantics — is documented in
//! `docs/server.md` and pinned by the black-box suite in
//! `tests/server.rs`.

#![deny(missing_docs)]

pub mod http;
pub mod json;
pub mod metrics;
pub mod render;
mod serve;
pub mod state;
pub mod work;

pub use serve::{run, Config};
pub use state::EngineKind;
