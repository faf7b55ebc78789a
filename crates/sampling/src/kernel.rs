//! The Monte Carlo kernel choice, made in one place.

use crate::{packed, scalar};
use relmax_ugraph::{ExtraEdge, NodeId, ProbGraph};
use std::sync::OnceLock;

/// Which Monte Carlo kernel an estimator runs.
///
/// Both kernels produce **bit-identical** estimates. [`Kernel::Packed`]
/// is the default because it leads the breadth-first scalar kernel
/// ([`crate::scalar`]) on every `BENCH_sampling.json` row: by 1.03–1.05x
/// on a `relmax gen` batch of near pairs (out-degree 10), about 3x on
/// near ring-chords pairs and candidate scans, and 10–35x on
/// reachability vectors and a far Watts–Strogatz pair. Since every
/// reachability shape meets in the middle (sets and hop caps included),
/// it also leads on the hop-aware shapes: the `query-local` pairs asked
/// as `hops` took 0.08 s packed against 0.14 s scalar, and the 12 `set`
/// bodies of the `serve-mixed` workload 0.07–0.10 s against 1.06–1.12 s
/// (2-CPU host, one thread, 3 runs each, identical output;
/// `docs/benchmarks.md`). The scalar kernel is kept as the
/// always-correct reference path for tests and cross-checks. The process
/// default honours the `RELMAX_KERNEL` environment variable (`scalar`
/// selects the reference path, anything else the packed one), read once
/// and cached.
///
/// The estimators call the count methods below and never match on the
/// variant themselves; each method takes an absolute sample range and
/// returns integers that add across ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Lane-packed kernel: 64 worlds per `u64` word ([`crate::packed`]).
    #[default]
    Packed,
    /// Reference kernel: one world at a time, one search per sample
    /// ([`crate::scalar`]).
    Scalar,
}

/// Cached `RELMAX_KERNEL` parse.
static ENV_KERNEL: OnceLock<Kernel> = OnceLock::new();

impl Kernel {
    /// The process-wide default: `RELMAX_KERNEL=scalar` selects
    /// [`Kernel::Scalar`], anything else (or unset) [`Kernel::Packed`].
    /// Read once per process and cached; tests that need both paths in
    /// one process use `McEstimator::with_kernel` instead.
    pub fn auto() -> Kernel {
        *ENV_KERNEL.get_or_init(|| match std::env::var("RELMAX_KERNEL") {
            Ok(v) if v.eq_ignore_ascii_case("scalar") => Kernel::Scalar,
            _ => Kernel::Packed,
        })
    }

    /// Worlds in `lo..hi` in which some target is reachable from some
    /// source.
    pub(crate) fn st_hits<G: ProbGraph>(
        self,
        g: &G,
        seed: u64,
        sources: &[NodeId],
        targets: &[NodeId],
        lo: u64,
        hi: u64,
    ) -> u64 {
        match self {
            Kernel::Packed => packed::st_hits(g, seed, sources, targets, lo, hi),
            Kernel::Scalar => scalar::st_hits(g, seed, sources, targets, lo, hi),
        }
    }

    /// Set-reliability hits and first-arrival depth sum for `lo..hi`
    /// (see [`scalar::set_counts`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn set_counts<G: ProbGraph>(
        self,
        g: &G,
        seed: u64,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        lo: u64,
        hi: u64,
    ) -> (u64, u64) {
        match self {
            Kernel::Packed => packed::set_counts(g, seed, sources, targets, max_hops, lo, hi),
            Kernel::Scalar => scalar::set_counts(g, seed, sources, targets, max_hops, lo, hi),
        }
    }

    /// Per-node reach counts from (or, `reverse`, to) `start` for
    /// `lo..hi`.
    pub(crate) fn reach_counts<G: ProbGraph>(
        self,
        g: &G,
        seed: u64,
        start: NodeId,
        reverse: bool,
        lo: u64,
        hi: u64,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; g.num_nodes()];
        match self {
            Kernel::Packed => packed::reach_counts(g, seed, &[start], reverse, lo, hi, &mut counts),
            Kernel::Scalar => scalar::reach_counts(g, seed, &[start], reverse, lo, hi, &mut counts),
        }
        counts
    }

    /// `sources × targets` hit counts for `lo..hi`.
    pub(crate) fn pairwise_counts<G: ProbGraph>(
        self,
        g: &G,
        seed: u64,
        sources: &[NodeId],
        targets: &[NodeId],
        lo: u64,
        hi: u64,
    ) -> Vec<Vec<u64>> {
        match self {
            Kernel::Packed => packed::pairwise_counts(g, seed, sources, targets, lo, hi),
            Kernel::Scalar => scalar::pairwise_counts(g, seed, sources, targets, lo, hi),
        }
    }

    /// Per-candidate `s-t` hit counts of the single-candidate overlays for
    /// `lo..hi` (see [`scalar::scan_counts`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_counts<G: ProbGraph>(
        self,
        g: &G,
        seed: u64,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        lo: u64,
        hi: u64,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; candidates.len()];
        match self {
            Kernel::Packed => packed::scan_counts(g, seed, s, t, candidates, lo..hi, &mut counts),
            Kernel::Scalar => scalar::scan_counts(g, seed, s, t, candidates, lo..hi, &mut counts),
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_default_is_packed() {
        assert_eq!(Kernel::default(), Kernel::Packed);
    }
}
