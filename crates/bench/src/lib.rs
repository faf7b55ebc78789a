//! # relmax-bench
//!
//! Microbenchmarks for the sampling hot path, each a binary that writes
//! a JSON report the repository keeps:
//!
//! ```text
//! cargo run --release -p relmax-bench --bin bench_sampling   # → BENCH_sampling.json
//! cargo run --release -p relmax-bench --bin bench_parallel   # → BENCH_parallel.json
//! ```
//!
//! `--smoke` shrinks either to CI scale. `docs/benchmarks.md` describes
//! every field and the floors each binary asserts.

pub mod parallel_bench;
pub mod sampling_bench;
