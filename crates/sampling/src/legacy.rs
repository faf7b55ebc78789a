//! The pre-CSR estimator hot path, preserved for benchmarking and
//! bit-identity testing.
//!
//! Before the freeze-to-snapshot refactor, the sampling stack traversed
//! graphs through an object-safe trait (`&dyn` graph) whose edge visitor
//! took a `&mut dyn FnMut` closure: two layers of virtual dispatch inside
//! the innermost per-world loop, and no chance for the compiler to inline
//! the coin flip into the BFS. [`DynMcEstimator`] reproduces that code
//! path exactly — same algorithm, same coin keys, same arithmetic — so:
//!
//! - `benches`/`bench_sampling` can measure the dyn-closure walk against
//!   the monomorphized CSR walk on the same worlds (the speedup recorded
//!   in `BENCH_sampling.json`);
//! - tests can assert the refactored [`crate::McEstimator`] is
//!   **bit-identical** to the pre-refactor implementation for a fixed
//!   seed, on both adjacency and CSR storage.

use crate::coins::coin_flip;
use relmax_ugraph::{CoinId, NodeId, ProbGraph};

/// Object-safe mirror of the pre-refactor `ProbGraph` trait: closure-based
/// edge visitation behind virtual dispatch.
pub trait DynProbGraph: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Number of coins.
    fn num_coins(&self) -> usize;
    /// Visit every out-arc of `v` through a dyn closure.
    fn for_each_out_dyn(&self, v: NodeId, f: &mut dyn FnMut(NodeId, f64, CoinId));
    /// Visit every in-arc of `v` through a dyn closure.
    fn for_each_in_dyn(&self, v: NodeId, f: &mut dyn FnMut(NodeId, f64, CoinId));
}

impl<G: ProbGraph> DynProbGraph for G {
    fn num_nodes(&self) -> usize {
        ProbGraph::num_nodes(self)
    }

    fn num_coins(&self) -> usize {
        ProbGraph::num_coins(self)
    }

    fn for_each_out_dyn(&self, v: NodeId, f: &mut dyn FnMut(NodeId, f64, CoinId)) {
        for (u, p, c) in self.out_arcs(v) {
            f(u, p, c);
        }
    }

    fn for_each_in_dyn(&self, v: NodeId, f: &mut dyn FnMut(NodeId, f64, CoinId)) {
        for (u, p, c) in self.in_arcs(v) {
            f(u, p, c);
        }
    }
}

/// The seed repository's Monte Carlo sampler, verbatim: `&dyn` graph,
/// `&mut dyn FnMut` visitor, per-call `vec![0; n]` visited marks.
///
/// Flips the same `(seed, sample, coin)` coins as [`crate::McEstimator`],
/// so for any graph the two produce identical estimates — only the cost
/// per edge visit differs.
#[derive(Debug, Clone)]
pub struct DynMcEstimator {
    /// Number of sampled worlds `Z`.
    pub samples: usize,
    /// Seed for the coin-flip hash.
    pub seed: u64,
}

impl DynMcEstimator {
    /// Serial dyn-dispatch estimator.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        DynMcEstimator { samples, seed }
    }

    /// `R(s, t)` through the pre-refactor code path.
    pub fn st_reliability(&self, g: &dyn DynProbGraph, s: NodeId, t: NodeId) -> f64 {
        // Pre-refactor samplers received `&dyn` across a crate boundary,
        // where the optimizer cannot see the concrete type. `black_box`
        // reproduces that: without it, fat LTO devirtualizes this whole
        // function and the "legacy" baseline silently measures the new
        // code path.
        let g = std::hint::black_box(g);
        if s == t {
            return 1.0;
        }
        let z = self.samples as u64;
        let n = g.num_nodes();
        let mut mark = vec![0u32; n];
        let mut epoch = 0u32;
        let mut stack: Vec<NodeId> = Vec::new();
        let mut hits = 0u64;
        for sample in 0..z {
            epoch += 1;
            mark[s.index()] = epoch;
            stack.clear();
            stack.push(s);
            let mut found = false;
            'bfs: while let Some(v) = stack.pop() {
                let mut local_found = false;
                g.for_each_out_dyn(v, &mut |u, p, c| {
                    if local_found || mark[u.index()] == epoch {
                        return;
                    }
                    if coin_flip(self.seed, sample, c, p) {
                        mark[u.index()] = epoch;
                        if u == t {
                            local_found = true;
                        } else {
                            stack.push(u);
                        }
                    }
                });
                if local_found {
                    found = true;
                    break 'bfs;
                }
            }
            if found {
                hits += 1;
            }
        }
        hits as f64 / z as f64
    }

    /// `R(s, v)` for every `v` through the pre-refactor code path.
    pub fn reliability_from(&self, g: &dyn DynProbGraph, s: NodeId) -> Vec<f64> {
        self.reliability_vector(g, s, false)
    }

    /// `R(v, t)` for every `v` through the pre-refactor code path.
    pub fn reliability_to(&self, g: &dyn DynProbGraph, t: NodeId) -> Vec<f64> {
        self.reliability_vector(g, t, true)
    }

    fn reliability_vector(&self, g: &dyn DynProbGraph, start: NodeId, reverse: bool) -> Vec<f64> {
        // See `st_reliability` for why the vtable pointer is pinned.
        let g = std::hint::black_box(g);
        let z = self.samples as u64;
        let n = g.num_nodes();
        let mut counts = vec![0u64; n];
        let mut mark = vec![0u32; n];
        let mut epoch = 0u32;
        let mut stack: Vec<NodeId> = Vec::new();
        for sample in 0..z {
            epoch += 1;
            mark[start.index()] = epoch;
            stack.clear();
            stack.push(start);
            while let Some(v) = stack.pop() {
                counts[v.index()] += 1;
                let visit = &mut |u: NodeId, p: f64, c: CoinId| {
                    if mark[u.index()] != epoch && coin_flip(self.seed, sample, c, p) {
                        mark[u.index()] = epoch;
                        stack.push(u);
                    }
                };
                if reverse {
                    g.for_each_in_dyn(v, visit);
                } else {
                    g.for_each_out_dyn(v, visit);
                }
            }
        }
        counts.into_iter().map(|c| c as f64 / z as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Estimate, Estimator, McEstimator};
    use relmax_ugraph::{CsrGraph, NodeId, UncertainGraph};

    fn bridge_graph() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.3).unwrap();
        g
    }

    #[test]
    fn refactored_mc_is_bit_identical_to_legacy() {
        let g = bridge_graph();
        let csr = CsrGraph::freeze(&g);
        for seed in [0u64, 1, 7, 99] {
            let legacy = DynMcEstimator::new(4_000, seed);
            let new = McEstimator::new(4_000, seed);
            let b = new.budget;
            let values = |v: Vec<Estimate>| v.into_iter().map(|e| e.value).collect::<Vec<_>>();
            // Legacy dyn walk on adjacency vs monomorphized walk on either layout.
            assert_eq!(
                legacy.st_reliability(&g, NodeId(0), NodeId(3)),
                new.st_estimate(&g, NodeId(0), NodeId(3), b).value,
            );
            assert_eq!(
                legacy.st_reliability(&g, NodeId(0), NodeId(3)),
                new.st_estimate(&csr, NodeId(0), NodeId(3), b).value,
            );
            assert_eq!(
                legacy.reliability_from(&g, NodeId(0)),
                values(new.from_estimates(&csr, NodeId(0), b)),
            );
            assert_eq!(
                legacy.reliability_to(&g, NodeId(3)),
                values(new.to_estimates(&csr, NodeId(3), b)),
            );
        }
    }
}
