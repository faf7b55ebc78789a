//! # relmax-paths
//!
//! Most-reliable-path machinery for uncertain graphs.
//!
//! A path's probability is the product of its edge probabilities; the *most
//! reliable path* (MRP) between `s` and `t` maximizes that product (Eq. 5
//! of the paper). Maximizing a product of probabilities is equivalent to
//! minimizing the sum of weights `w(e) = −log p(e)`, which turns every MRP
//! question into a shortest-path question:
//!
//! - [`dijkstra`] — single most reliable path, and the filtered variant.
//!   Both wrap the one Dijkstra loop that Yen's spur searches also run;
//! - [`yen`] — top-`l` most reliable *simple* paths. The paper cites
//!   Eppstein's k-shortest-paths here; Eppstein enumerates non-simple
//!   walks, which never help reachability (repeating a node multiplies in
//!   extra factors ≤ 1), so this crate substitutes Yen's loopless
//!   algorithm — same interface, simple paths only (see `docs/internals.md`). Only
//!   spur work whose result can still be accepted is done: a spur search
//!   stops once its best reachable probability falls below the candidate
//!   pool's `(l − accepted)`-th best (an exact bound), every search of a
//!   call shares one scratch and one banned-node bitmap, paths of
//!   probability `0.0` (underflow included) are never returned, and equal
//!   probabilities go to the candidate generated first;
//! - [`layered`] — the exact polynomial-time algorithm for the paper's
//!   *restricted* problem (Problem 2 / Algorithm 3 / Theorem 3): choose at
//!   most `k` candidate ("red") edges so that the most reliable `s-t`
//!   path in the augmented graph is maximized, via a shortest path in a
//!   `(k+1)`-layer product graph where red edges jump between layers.

pub mod dijkstra;
pub mod layered;
pub mod yen;

pub use dijkstra::{most_reliable_path, ReliablePath};
pub use layered::{improve_most_reliable_path, MrpImprovement};
pub use yen::top_l_reliable_paths;
