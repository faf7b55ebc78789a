//! Deterministic sample-sharded parallel execution.
//!
//! Every estimator in this crate spends its time in embarrassingly
//! parallel loops: `Z` independent sampled worlds, or `|candidates|`
//! independent overlay evaluations. [`ParallelRuntime`] is the one shared
//! executor behind all of them — [`crate::McEstimator`],
//! [`crate::RssEstimator`], and the candidate scans inside the
//! `relmax-core` selectors.
//!
//! ## Determinism contract
//!
//! The runtime guarantees that **results are bit-identical for every
//! thread count**, including 1. Two mechanisms make that possible:
//!
//! 1. Randomness is *stateless*: every coin flip is keyed by
//!    `(seed, sample index, coin id)` ([`crate::coins`]), so a world's
//!    contents do not depend on which thread instantiates it, or in what
//!    order.
//! 2. Reduction never depends on scheduling. [`ParallelRuntime::map`]
//!    returns results in item-index order regardless of which thread
//!    computed what, [`ParallelRuntime::fold_in_order`] folds them in
//!    that order, and [`ParallelRuntime::shard_samples`] merges shard
//!    results in group-major, ascending shard order. Callers that fold
//!    shard results must do so with operations that are associative over
//!    the shard boundaries they use — in practice every cross-shard
//!    accumulator in this workspace is an integer hit count, which is
//!    exactly partition-independent; floating-point folds happen only
//!    over the *fixed* item order.
//!
//! Workers are plain `std::thread::scope` scoped threads: no channels, no
//! persistent pool, no locks on the hot path. Per-thread traversal state
//! comes from the thread-local [`relmax_ugraph::with_scratch`] pool, so a
//! worker allocates its scratch once and reuses it for every sample in
//! its shard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Global thread-count override: 0 = auto (env / hardware), n = exactly n.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached auto-detection result (env parsing + `available_parallelism`
/// are not free, and hot selector loops consult the global runtime once
/// per round).
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// A sample-sharded parallel executor with a deterministic merge order.
///
/// The runtime is a plain `Copy` value carrying the worker count;
/// construction never spawns anything. Threads are spawned per call with
/// `std::thread::scope` and joined before the call returns, so borrowing
/// graphs, scratch pools and candidate slices from the caller's stack
/// needs no `'static` bounds and no `Arc`.
///
/// Results are **bit-identical for every thread count** — see the module
/// docs for the contract. That makes the thread count a pure performance
/// knob: pick 1 for debugging, the physical core count for throughput,
/// and trust that estimates, selections and golden tests cannot change.
///
/// ```
/// use relmax_sampling::ParallelRuntime;
///
/// let rt = ParallelRuntime::new(4);
/// // Index-ordered map: results arrive in item order, not thread order.
/// let squares = rt.map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
///
/// // Sample sharding: merge order is ascending shard order, and integer
/// // accumulators make the total independent of the shard boundaries.
/// let mut total = 0u64;
/// rt.shard_samples(1, 0, 1000, |_, lo, hi| hi - lo, |_, part| total += part);
/// assert_eq!(total, 1000);
/// assert_eq!(ParallelRuntime::serial().map(3, |i| i + 1), vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRuntime {
    threads: usize,
}

impl Default for ParallelRuntime {
    fn default() -> Self {
        ParallelRuntime::serial()
    }
}

impl ParallelRuntime {
    /// Runtime with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelRuntime {
            threads: threads.max(1),
        }
    }

    /// Single-threaded runtime: work runs inline on the calling thread.
    pub fn serial() -> Self {
        ParallelRuntime::new(1)
    }

    /// Runtime sized by the environment: `RELMAX_THREADS` if set to a
    /// positive integer, otherwise `std::thread::available_parallelism()`.
    /// The detection runs once per process and is cached; changing the
    /// environment variable afterwards has no effect (use
    /// [`ParallelRuntime::set_global_threads`] for runtime control).
    pub fn auto() -> Self {
        let threads = *AUTO_THREADS.get_or_init(|| {
            std::env::var("RELMAX_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
        });
        ParallelRuntime::new(threads)
    }

    /// The process-wide runtime used by code without an estimator in hand
    /// (selector candidate scans, baselines). Defaults to
    /// [`ParallelRuntime::auto`]; override with
    /// [`ParallelRuntime::set_global_threads`]. Because results are
    /// thread-count-independent, changing the global setting can never
    /// change an answer — only how fast it arrives.
    pub fn global() -> Self {
        match GLOBAL_THREADS.load(Ordering::Relaxed) {
            0 => ParallelRuntime::auto(),
            n => ParallelRuntime::new(n),
        }
    }

    /// Set the process-wide thread count used by [`ParallelRuntime::global`].
    /// `0` restores auto detection.
    pub fn set_global_threads(threads: usize) {
        GLOBAL_THREADS.store(threads, Ordering::Relaxed);
    }

    /// Worker count this runtime fans out to.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shard the absolute sample range `lo..hi` and run
    /// `work(group, shard_lo, shard_hi)` for every `(group, shard)` pair
    /// across the workers — the one sample runner behind every Monte
    /// Carlo estimate. Adaptive stopping calls it once per checkpoint
    /// round, each round extending the already-drawn prefix.
    ///
    /// The range is tiled into at most one contiguous shard per worker,
    /// rounded up to whole 64-world blocks so the packed kernel sees at
    /// most one masked tail block per call instead of one per shard.
    /// `work` is never called on an empty range. Items are claimed
    /// dynamically (partition groups can differ wildly in cost), but
    /// `merge(group, result)` always sees results in group-major,
    /// ascending-shard order regardless of scheduling. With one worker,
    /// or one item, everything runs inline on the calling thread.
    ///
    /// Bit-identical totals across thread counts require the caller's
    /// accumulator to be partition-independent over shard boundaries
    /// (integer counts are; see the module docs). A caller that has
    /// partitioned its work by graph component keeps *both* axes of
    /// parallelism: with fewer groups than workers the sample shards
    /// still spread the load, and with many groups a short sample range
    /// still balances.
    pub fn shard_samples<T: Send>(
        &self,
        groups: usize,
        lo: u64,
        hi: u64,
        work: impl Fn(usize, u64, u64) -> T + Sync,
        mut merge: impl FnMut(usize, T),
    ) {
        if lo >= hi || groups == 0 {
            return;
        }
        let z = hi - lo;
        let workers = self.threads.min(z as usize);
        let chunk = z.div_ceil(workers as u64).next_multiple_of(64).min(z);
        let shards: Vec<(u64, u64)> = (0u64..)
            .map(|k| (lo + k * chunk, (lo + (k + 1) * chunk).min(hi)))
            .take_while(|&(slo, shi)| slo < shi)
            .collect();
        let per_group = shards.len();
        let results = self.map(groups * per_group, |i| {
            let (slo, shi) = shards[i % per_group];
            work(i / per_group, slo, shi)
        });
        for (i, r) in results.into_iter().enumerate() {
            merge(i / per_group, r);
        }
    }

    /// Evaluate `f(0), f(1), …, f(len - 1)` across the workers and return
    /// the results **in index order**.
    ///
    /// Items are claimed dynamically (an atomic cursor), so uneven item
    /// costs — candidate overlays whose BFS sizes differ wildly, RSS
    /// leaves with very different budgets — still balance. The scheduling
    /// order never leaks into the output: each worker tags results with
    /// their item index and the merge sorts them back.
    pub fn map<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        if self.threads <= 1 || len == 1 {
            return (0..len).map(f).collect();
        }
        let workers = self.threads.min(len);
        let cursor = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(len);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                }));
            }
            for h in handles {
                tagged.extend(h.join().expect("runtime worker panicked"));
            }
        });
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, v)| v).collect()
    }

    /// Evaluate `f(0), …, f(len - 1)` across the workers and hand each
    /// result to `fold(i, result)` on the calling thread **in index
    /// order**, while later items still run. A worker starts item `i`
    /// only once item `i - 2 × threads` has been folded, so unlike
    /// [`ParallelRuntime::map`] at most `2 × threads + 1` results are
    /// alive at once (an RSS leaf's counts are n long). With one worker,
    /// or one item, it runs inline: `fold(0, f(0))`, `fold(1, f(1))`, ….
    pub fn fold_in_order<T: Send>(
        &self,
        len: usize,
        f: impl Fn(usize) -> T + Sync,
        mut fold: impl FnMut(usize, T),
    ) {
        if self.threads <= 1 || len <= 1 {
            return (0..len).for_each(|i| fold(i, f(i)));
        }
        let window = 2 * self.threads;
        let state = Mutex::new(Window {
            next: 0,
            slots: (0..window).map(|_| None).collect(),
            failed: false,
        });
        let lock = || state.lock().unwrap();
        let changed = Condvar::new();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(len) {
                scope.spawn(|| {
                    let _abort = AbortOnPanic(&state, &changed);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let ahead = |w: &mut Window<T>| i >= w.next + window && !w.failed;
                        if i >= len || changed.wait_while(lock(), ahead).unwrap().failed {
                            break;
                        }
                        let value = f(i);
                        lock().slots[i % window] = Some(value);
                        changed.notify_all();
                    }
                });
            }
            let _abort = AbortOnPanic(&state, &changed);
            for i in 0..len {
                let pending = |w: &mut Window<T>| w.slots[i % window].is_none() && !w.failed;
                let mut w = changed.wait_while(lock(), pending).unwrap();
                // A worker panicked: the scope re-raises its panic.
                let Some(value) = w.slots[i % window].take() else {
                    return;
                };
                w.next = i + 1;
                drop(w);
                changed.notify_all();
                fold(i, value);
            }
        });
    }
}

/// [`ParallelRuntime::fold_in_order`]'s reorder window: item `i`'s
/// result waits in `slots[i % slots.len()]` until `next` reaches `i`.
struct Window<T> {
    next: usize,
    slots: Vec<Option<T>>,
    /// A worker or the fold panicked, so nobody waits any more.
    failed: bool,
}

/// Marks the window failed and wakes every waiter when its thread
/// unwinds, so a panic surfaces instead of leaving the other threads
/// waiting for a slot that never fills.
struct AbortOnPanic<'a, T>(&'a Mutex<Window<T>>, &'a Condvar);

impl<T> Drop for AbortOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut w) = self.0.lock() {
                w.failed = true;
            }
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let rt = ParallelRuntime::new(threads);
            assert_eq!(rt.map(items.len(), |i| items[i] * 3 + 1), expect);
        }
    }

    #[test]
    fn shards_tile_every_range_exactly_once_in_order() {
        let ranges = [
            (0u64, 0u64),
            (0, 1),
            (0, 2),
            (0, 7),
            (0, 100),
            (0, 101),
            (100, 137),
            (100, 357),
            (5, 5),
            (3, 10_000),
        ];
        for threads in [1, 2, 3, 5, 8] {
            let rt = ParallelRuntime::new(threads);
            for (lo, hi) in ranges {
                for groups in [1, 3] {
                    let mut seen: Vec<(usize, u64, u64)> = Vec::new();
                    rt.shard_samples(
                        groups,
                        lo,
                        hi,
                        |g, l, h| {
                            assert!(l < h, "empty shard handed to work");
                            (g, l, h)
                        },
                        |g, (wg, l, h)| {
                            assert_eq!(g, wg);
                            seen.push((g, l, h));
                        },
                    );
                    // Group 0's shards tile lo..hi in ascending order, at
                    // most one per worker, 64-world aligned.
                    let shards: Vec<(u64, u64)> = seen
                        .iter()
                        .filter(|&&(g, _, _)| g == 0)
                        .map(|&(_, l, h)| (l, h))
                        .collect();
                    let mut next = lo;
                    for &(l, h) in &shards {
                        assert_eq!(l, next);
                        assert_eq!((l - lo) % 64, 0, "unaligned shard {l}..{h}");
                        next = h;
                    }
                    assert_eq!(next, hi);
                    assert!(shards.len() <= threads);
                    // Group-major, identical shard boundaries in every group.
                    let expect: Vec<(usize, u64, u64)> = (0..groups)
                        .flat_map(|g| shards.iter().map(move |&(l, h)| (g, l, h)))
                        .collect();
                    assert_eq!(seen, expect);
                }
            }
            // No groups runs nothing.
            rt.shard_samples(0, 0, 10, |_, _, _| panic!("no groups"), |_, _: ()| {});
        }
    }

    #[test]
    fn integer_totals_independent_of_thread_count() {
        let total = |threads: usize, groups: usize, lo: u64, hi: u64| {
            let mut acc = 0u64;
            ParallelRuntime::new(threads).shard_samples(
                groups,
                lo,
                hi,
                |g, l, h| (l..h).map(|s| (s * s + g as u64) % 7).sum::<u64>(),
                |_, p| acc += p,
            );
            acc
        };
        for (groups, lo, hi) in [(1, 0, 1234), (1, 77, 5000), (3, 10, 1234)] {
            let serial = total(1, groups, lo, hi);
            for threads in [2, 3, 5, 8] {
                assert_eq!(total(threads, groups, lo, hi), serial);
            }
        }
    }

    #[test]
    fn fold_in_order_folds_in_index_order_within_its_window() {
        for threads in [1, 2, 3, 4, 8] {
            for len in [0, 1, 2, 5, 97] {
                let live = AtomicUsize::new(0);
                let peak = AtomicUsize::new(0);
                let mut seen = Vec::new();
                ParallelRuntime::new(threads).fold_in_order(
                    len,
                    |i| {
                        // Uneven costs, so items finish out of order, and a
                        // slow first item the others would run far ahead of.
                        let micros = if i == 0 { 20_000 } else { i % 7 * 50 };
                        std::thread::sleep(std::time::Duration::from_micros(micros as u64));
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        i * 3 + 1
                    },
                    |i, v| {
                        live.fetch_sub(1, Ordering::SeqCst);
                        seen.push((i, v));
                    },
                );
                assert_eq!(seen, (0..len).map(|i| (i, i * 3 + 1)).collect::<Vec<_>>());
                let bound = if threads == 1 { 1 } else { 2 * threads + 1 };
                let peak = peak.load(Ordering::SeqCst);
                assert!(peak <= bound, "{peak} results alive, bound {bound}");
            }
        }
    }

    #[test]
    fn fold_in_order_surfaces_a_panic_instead_of_hanging() {
        for threads in [2, 4] {
            let rt = ParallelRuntime::new(threads);
            let in_f = std::panic::catch_unwind(|| {
                rt.fold_in_order(50, |i| assert!(i != 3, "item 3"), |_, _| {});
            });
            assert!(in_f.is_err());
            let in_fold = std::panic::catch_unwind(|| {
                rt.fold_in_order(50, |i| i, |i, _| assert!(i != 3, "fold 3"));
            });
            assert!(in_fold.is_err());
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ParallelRuntime::new(0).threads(), 1);
    }

    #[test]
    fn global_roundtrip() {
        ParallelRuntime::set_global_threads(3);
        assert_eq!(ParallelRuntime::global().threads(), 3);
        ParallelRuntime::set_global_threads(0);
        assert!(ParallelRuntime::global().threads() >= 1);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let rt = ParallelRuntime::new(4);
        assert!(rt.map(0, |_| 0u8).is_empty());
        assert_eq!(rt.map(1, |i| i + 41), vec![41]);
    }
}
