//! The scalar reference kernel: one search per sampled world.
//!
//! Every sampled-world question outside the packed kernel — each Monte
//! Carlo query shape, the RSS leaves and optimistic probes, influence
//! spread — is the same one: which nodes does a search from the starts
//! reach, and at what depth does it first reach a target? So one
//! breadth-first function, `world_search`, answers it for all of them;
//! the caller supplies the arc verdict. The public folds ([`st_hits`],
//! [`set_counts`], [`reach_counts`], [`pairwise_counts`],
//! [`scan_counts`]) have the same signatures as their [`crate::packed`]
//! twins and return the same integers: a world's coins are stateless
//! `(seed, sample, coin)` draws ([`coin_raw`]), and reachability and
//! first-arrival depth are pure functions of those coins, whatever order
//! a kernel visits them in.
//!
//! `RELMAX_KERNEL=scalar` or
//! [`McEstimator::with_kernel`](crate::McEstimator::with_kernel) selects
//! this kernel; [`crate::Kernel`] is the one place that dispatches
//! between the two.

use crate::coins::coin_raw;
use relmax_ugraph::{
    flip_threshold, with_scratch, with_scratch_pair, CoinId, ExtraEdge, NodeId, ProbGraph,
    TraversalScratch,
};

/// Breadth-first search of one world from `starts` (over in-arcs when
/// `reverse`), taking an arc `(coin, threshold)` iff `present` says so.
/// Expands only nodes fewer than `max_hops` hops from a start
/// (`u32::MAX` = unbounded) and stops as soon as one of `targets` is
/// reached.
///
/// Returns the first target's arrival depth (0 if a start is a target,
/// `None` if no target is reached) and how many nodes the search
/// reached: they are `sc.stack[..reached]` in arrival order, and `sc`
/// marks them visited.
///
/// The queue is `sc.stack` driven as a flat array with explicit head and
/// tail, so arc admission is branchless: the slot write always happens,
/// the tail advances only for taken arcs. `level_end` marks where the
/// current depth's nodes end in the queue. Targets are checked once per
/// expanded node, not per arc: a node's arcs admit nodes one level
/// deeper, so the first check that finds a target finds it at its
/// first-arrival depth.
#[inline]
pub(crate) fn world_search<G: ProbGraph>(
    g: &G,
    starts: &[NodeId],
    reverse: bool,
    max_hops: u32,
    targets: &[NodeId],
    sc: &mut TraversalScratch,
    mut present: impl FnMut(CoinId, u64) -> bool,
) -> (Option<u32>, usize) {
    let n = g.num_nodes();
    sc.begin(n);
    // A node is queued at most once and a refused arc writes one slot
    // past the tail, so `n + 1` slots always suffice.
    if sc.stack.len() <= n {
        sc.stack.resize(n + 1, NodeId(0));
    }
    let mut tail = 0usize;
    for &s in starts {
        if sc.visit(s) {
            sc.stack[tail] = s;
            tail += 1;
        }
    }
    if targets.iter().any(|&t| sc.visited(t)) {
        return (Some(0), tail);
    }
    let (mut head, mut level_end, mut depth) = (0usize, tail, 0u32);
    while head < tail {
        if head == level_end {
            depth += 1;
            level_end = tail;
        }
        if depth >= max_hops {
            break;
        }
        let v = sc.stack[head];
        head += 1;
        let arcs = if reverse { g.in_arcs(v) } else { g.out_arcs(v) };
        // Internal iteration: overlay `Chain`s split into two tight loops
        // instead of paying a state check per arc.
        arcs.for_each(|a| {
            let take = sc.take_if(a.node, present(a.coin, a.thresh));
            sc.stack[tail] = a.node;
            tail += take as usize;
        });
        if targets.iter().any(|&t| sc.visited(t)) {
            return (Some(depth + 1), tail);
        }
    }
    (None, tail)
}

/// Scalar set-reliability counts for the sample range `lo..hi`:
/// `(hits, depth_sum)`, where `hits` counts the worlds in which any
/// source reaches any target within `max_hops` arcs (`None` =
/// unbounded) and `depth_sum` adds those worlds' first-arrival hop
/// distances (0 when a node is both source and target). With one source
/// and one target this is the `s-t` hit count, hop-bounded or not, and
/// the `s-t` hop moments.
pub fn set_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    max_hops: Option<u32>,
    lo: u64,
    hi: u64,
) -> (u64, u64) {
    let cap = max_hops.unwrap_or(u32::MAX);
    with_scratch(g.num_nodes(), |sc| {
        let (mut hits, mut depth_sum) = (0u64, 0u64);
        for sample in lo..hi {
            let flip = |c, th| coin_raw(seed, sample, c) < th;
            if let (Some(d), _) = world_search(g, sources, false, cap, targets, sc, flip) {
                hits += 1;
                depth_sum += d as u64;
            }
        }
        (hits, depth_sum)
    })
}

/// Scalar hit count for `lo..hi`: the worlds in which some target is
/// reachable from some source.
pub fn st_hits<G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    lo: u64,
    hi: u64,
) -> u64 {
    set_counts(g, seed, sources, targets, None, lo, hi).0
}

/// Scalar per-node reach counts (forward from `starts`, or reverse to
/// them) for `lo..hi`, added into `counts`: a node counts once per world
/// in which any start reaches it.
pub fn reach_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    starts: &[NodeId],
    reverse: bool,
    lo: u64,
    hi: u64,
    counts: &mut [u64],
) {
    with_scratch(g.num_nodes(), |sc| {
        for sample in lo..hi {
            let flip = |c, th| coin_raw(seed, sample, c) < th;
            let (_, reached) = world_search(g, starts, reverse, u32::MAX, &[], sc, flip);
            for v in &sc.stack[..reached] {
                counts[v.index()] += 1;
            }
        }
    });
}

/// Scalar pairwise counts for `lo..hi`: one search per source and world.
/// Coins are stateless, so every source's search sees the same world
/// without a per-world coin memo.
pub fn pairwise_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    lo: u64,
    hi: u64,
) -> Vec<Vec<u64>> {
    let mut counts = vec![vec![0u64; targets.len()]; sources.len()];
    with_scratch(g.num_nodes(), |sc| {
        for sample in lo..hi {
            let flip = |c, th| coin_raw(seed, sample, c) < th;
            for (row, &s) in counts.iter_mut().zip(sources) {
                world_search(g, &[s], false, u32::MAX, &[], sc, flip);
                for (c, &t) in row.iter_mut().zip(targets) {
                    *c += sc.visited(t) as u64;
                }
            }
        }
    });
    counts
}

/// Scalar shared-world candidate-scan counts for `span`, added into
/// `counts`.
///
/// One sampled world serves every candidate: the forward search from `s`
/// stops as soon as it reaches `t` (the world is connected, so every
/// candidate overlay hits too); otherwise a reverse search to `t` runs in
/// the same world and each candidate `(u, v)` is decided by lookups. The
/// decomposition is exact — a simple `s-t` path through a single added
/// edge `(u, v)` splits into `s ⇝ u` and `v ⇝ t` segments in the base
/// world — and every single-candidate overlay gives its extra edge the
/// same coin id, the first past the base graph's coins, so the counts
/// equal a per-candidate overlay search's.
pub fn scan_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    s: NodeId,
    t: NodeId,
    candidates: &[ExtraEdge],
    span: std::ops::Range<u64>,
    counts: &mut [u64],
) {
    let thresholds: Vec<u64> = candidates.iter().map(|c| flip_threshold(c.prob)).collect();
    let cand_coin = g.num_coins() as CoinId;
    let directed = g.is_directed();
    with_scratch_pair(g.num_nodes(), |fwd, rev| {
        for sample in span {
            let flip = |c, th| coin_raw(seed, sample, c) < th;
            let (hit, _) = world_search(g, &[s], false, u32::MAX, &[t], fwd, flip);
            if hit.is_some() {
                counts.iter_mut().for_each(|c| *c += 1);
                continue;
            }
            world_search(g, &[t], true, u32::MAX, &[], rev, flip);
            let raw = coin_raw(seed, sample, cand_coin);
            for ((c, cand), &th) in counts.iter_mut().zip(candidates).zip(&thresholds) {
                let mut bridges = fwd.visited(cand.src) & rev.visited(cand.dst);
                if !directed {
                    bridges |= fwd.visited(cand.dst) & rev.visited(cand.src);
                }
                *c += (bridges & (raw < th)) as u64;
            }
        }
    });
}
