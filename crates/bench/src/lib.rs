//! # relmax-bench
//!
//! The sampling hot-path microbenchmark, a binary that writes a JSON
//! report the repository keeps:
//!
//! ```text
//! cargo run --release -p relmax-bench --bin bench_sampling   # → BENCH_sampling.json
//! ```
//!
//! `--smoke` shrinks it to CI scale. `docs/benchmarks.md` describes
//! every field and the floors the binary asserts.

pub mod sampling_bench;
