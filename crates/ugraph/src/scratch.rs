//! Reusable, zero-allocation traversal state for sampled-world searches.
//!
//! Every Monte Carlo sample runs one graph traversal. Allocating a fresh
//! `visited` vector per sample would dominate small-world sampling; even
//! one allocation per *estimator call* adds up when a selector issues
//! thousands of calls on overlay views. [`TraversalScratch`] solves both:
//!
//! - the visited array is **epoch-stamped** — "visited" means
//!   `mark[v] == current_epoch`, so starting the next traversal is a
//!   single counter increment, not an `O(n)` clear;
//! - [`with_scratch`] keeps a **thread-local pool** of scratches, so
//!   repeated estimator calls (and per-thread sampling workers) reuse the
//!   same buffers across calls with zero steady-state allocation.

use crate::graph::NodeId;
use std::cell::RefCell;

/// Epoch-stamped visited array plus a traversal buffer.
///
/// ```
/// use relmax_ugraph::{NodeId, TraversalScratch};
///
/// let mut s = TraversalScratch::new();
/// s.begin(4);
/// assert!(s.visit(NodeId(2))); // newly visited
/// assert!(!s.visit(NodeId(2))); // already seen this epoch
/// s.begin(4); // next sample: O(1), nothing cleared
/// assert!(!s.visited(NodeId(2)));
/// ```
#[derive(Debug, Default)]
pub struct TraversalScratch {
    mark: Vec<u32>,
    epoch: u32,
    /// Search buffer. [`TraversalScratch::begin`] leaves its contents
    /// and length untouched, so a search can drive it as a fixed-capacity
    /// array with an external length (branchless push).
    pub stack: Vec<NodeId>,
}

impl TraversalScratch {
    /// Empty scratch; buffers grow on first [`TraversalScratch::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        TraversalScratch {
            mark: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Start a fresh traversal over a graph with `n` nodes: bumps the
    /// epoch. Amortized `O(1)`; pays `O(n)` only on growth or on the
    /// (once per `u32::MAX` traversals) epoch wraparound.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether `v` has been visited in the current epoch.
    #[inline]
    pub fn visited(&self, v: NodeId) -> bool {
        self.mark[v.index()] == self.epoch
    }

    /// Mark `v` visited; returns `true` iff it was not yet visited this
    /// epoch.
    #[inline]
    pub fn visit(&mut self, v: NodeId) -> bool {
        let m = &mut self.mark[v.index()];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }

    /// Fused visited-check + conditional mark: returns whether the arc is
    /// taken (`flip` and not yet visited) and marks `v` in that case —
    /// one mark load, a conditional move, one store, no data-dependent
    /// branch.
    #[inline]
    pub fn take_if(&mut self, v: NodeId, flip: bool) -> bool {
        let m = &mut self.mark[v.index()];
        let take = (*m != self.epoch) & flip;
        *m = if take { self.epoch } else { *m };
        take
    }

    /// Nodes marked in the current epoch, ascending.
    pub fn visited_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.mark
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == self.epoch)
            .map(|(i, _)| NodeId(i as u32))
    }
}

thread_local! {
    static POOL: RefCell<Vec<TraversalScratch>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a pooled [`TraversalScratch`] sized for `n` nodes.
///
/// The scratch comes from (and returns to) a thread-local pool, so nested
/// and repeated uses allocate nothing in steady state. Safe to nest:
/// inner calls simply draw another scratch. Sampling workers spawned per
/// estimator call each carry their own pool (it is thread-local), so
/// parallel sample shards share no traversal state whatsoever.
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
    let mut scratch = POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    scratch.begin(n);
    let out = f(&mut scratch);
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        // Bound the pool so pathological nesting cannot hoard memory.
        if pool.len() < 8 {
            pool.push(scratch);
        }
    });
    out
}

/// Run `f` with **two** independent pooled scratches sized for `n` nodes.
///
/// Kernels that track two reach sets per sampled world — e.g. the
/// candidate-scan kernel's forward reach from `s` and reverse reach to
/// `t` — need two visited arrays alive at once. This is
/// [`with_scratch`] twice without the rightward drift.
pub fn with_scratch_pair<R>(
    n: usize,
    f: impl FnOnce(&mut TraversalScratch, &mut TraversalScratch) -> R,
) -> R {
    with_scratch(n, |a| with_scratch(n, |b| f(a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_isolate_traversals() {
        let mut s = TraversalScratch::with_nodes(3);
        s.begin(3);
        assert!(s.visit(NodeId(0)));
        assert!(s.visited(NodeId(0)));
        assert!(!s.visited(NodeId(1)));
        s.begin(3);
        assert!(!s.visited(NodeId(0)));
        assert!(s.visit(NodeId(0)));
    }

    #[test]
    fn grows_on_demand() {
        let mut s = TraversalScratch::new();
        s.begin(2);
        s.visit(NodeId(1));
        s.begin(10);
        assert!(!s.visited(NodeId(1)));
        assert!(s.visit(NodeId(9)));
    }

    #[test]
    fn wraparound_resets_marks() {
        let mut s = TraversalScratch::with_nodes(2);
        s.epoch = u32::MAX - 1;
        s.begin(2); // epoch = MAX
        s.visit(NodeId(0));
        s.begin(2); // wraps: marks zeroed, epoch = 1
        assert!(!s.visited(NodeId(0)));
        assert!(s.visit(NodeId(0)));
    }

    #[test]
    fn visited_nodes_enumerates_current_epoch_only() {
        let mut s = TraversalScratch::with_nodes(4);
        s.begin(4);
        s.visit(NodeId(3));
        s.begin(4);
        s.visit(NodeId(1));
        s.visit(NodeId(2));
        let seen: Vec<u32> = s.visited_nodes().map(|v| v.0).collect();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn pool_reuses_buffers() {
        let p1 = with_scratch(100, |s| {
            s.visit(NodeId(50));
            s.mark.as_ptr() as usize
        });
        let p2 = with_scratch(50, |s| {
            assert!(!s.visited(NodeId(20)));
            s.mark.as_ptr() as usize
        });
        // Same thread, sequential: the pooled buffer is reused.
        assert_eq!(p1, p2);
    }

    #[test]
    fn scratch_pair_is_independent() {
        with_scratch_pair(4, |fwd, rev| {
            fwd.visit(NodeId(1));
            rev.visit(NodeId(2));
            assert!(fwd.visited(NodeId(1)) && !fwd.visited(NodeId(2)));
            assert!(rev.visited(NodeId(2)) && !rev.visited(NodeId(1)));
        });
    }

    #[test]
    fn nested_with_scratch_is_safe() {
        with_scratch(4, |outer| {
            outer.visit(NodeId(0));
            let inner_saw = with_scratch(4, |inner| inner.visited(NodeId(0)));
            assert!(!inner_saw, "inner scratch must be independent");
            assert!(outer.visited(NodeId(0)));
        });
    }
}
