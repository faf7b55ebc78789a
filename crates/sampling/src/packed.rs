//! Lane-packed world sampling: 64 Monte Carlo worlds per machine word.
//!
//! The scalar reference kernel ([`crate::scalar`]) explores one possible
//! world at a time: one BFS per sample, one coin flip per arc visit. This module
//! packs **64 sampled worlds into the bit lanes of a `u64`** and runs one
//! branchless frontier fixpoint per block of worlds instead:
//!
//! - a [`WorldBlock`] covers the sample indices `base..base + 64` (lane
//!   `k` *is* scalar sample `base + k`; tail blocks mask the unused high
//!   lanes);
//! - per node, `reached` and `pending` are `u64` words whose bit `k`
//!   means "reached in world `base + k`";
//! - per arc `(v, u)`, propagation is word parallel:
//!   `add = pending[v] & coin_lanes(...) & !reached[u]` advances all 64
//!   worlds in a handful of word ops.
//!
//! ## Bit-identity with the scalar kernel
//!
//! Lane `k` of a block flips exactly the coins scalar sample `base + k`
//! would flip: [`coin_lanes`] compares the **same stateless draw**
//! `coin_raw(seed, base + k, coin)` against the same per-arc threshold
//! (see `docs/internals.md` for the lane diagram). Reachability per lane
//! is therefore the same pure function of the same coins, so folding a
//! block into hit counts via `popcount` adds exactly the 0/1 indicators
//! the scalar loop adds — integer sums, independent of block and shard
//! boundaries. Every [`crate::convergence::Estimate`] downstream is
//! bit-for-bit the scalar kernel's, at every thread count.
//!
//! The scalar path stays available as the reference implementation:
//! select it with the `RELMAX_KERNEL=scalar` environment variable or
//! [`McEstimator::with_kernel`](crate::McEstimator::with_kernel);
//! [`crate::Kernel`] dispatches between the two. The
//! equivalence suite in `tests/determinism.rs` runs both and asserts
//! bit-identity across graph shapes, tail blocks, and thread counts.
//!
//! ## Why it is faster
//!
//! The scalar BFS pays its loop overhead — stack traffic, visited
//! checks, arc decoding, and one streaming pass over the CSR arrays —
//! once per *arc per world*. The packed fixpoint pays it once per *arc
//! per block*: each coin's lane verdicts are hashed **once per block**
//! and memoized, so every further touch of the arc inside the block is
//! three word ops. Arcs none of whose lanes can still make progress are
//! skipped without hashing at all. `BENCH_sampling.json` (see
//! `docs/benchmarks.md`) records the measured speedup on the 100k-node
//! packed benchmark scenario.
//!
//! A memo miss hashes only the lanes still live. While more than a
//! handful are, it runs [`coin_lanes`], a fixed 64-wide loop of
//! independent hash chains that pipelines where the scalar hash is
//! interleaved with branchy BFS. Once lanes have settled (met, hit, or
//! run dry) and at most `PER_LANE_MAX` remain, it draws just those
//! lanes, one hash each. Lanes only settle within a block, so a verdict
//! drawn for the lanes live at its miss covers every later lookup. A
//! block whose last straggling lane crawls on for hundreds of rounds
//! then pays about one draw per coin, not 64.
//!
//! A fixpoint round also costs only what its frontier needs. The
//! frontier is a bitmap of `n/64` words, and sweeping all of them is
//! cheap next to a wide front (a Watts–Strogatz flood puts a thousand
//! nodes into a few hundred words). It is ruinous for a thin one: on a
//! ring-chords graph a block's few unresolved lanes crawl along the ring
//! for hundreds of rounds, four nodes per round, and a 100k-node sweep
//! reads 1,563 words each time. So each round picks its form from the
//! previous round's frontier: with fewer nodes than `1/16` of the
//! bitmap's words it runs **sparse**, walking a sorted list of the
//! frontier's nonzero words and listing the next frontier's words with a
//! branchless push as it deposits; otherwise it runs **dense**, sweeping
//! the bitmap with bitmap-only deposits. Both walk the frontier in
//! ascending node order, so they step the same arcs and hash the same
//! coins.
//!
//! Reachability between ends does not flood. A forward search alone
//! settles a world only once it reaches a target or has used up the
//! sources' whole reachable set, so every miss costs a flood. [`st_hits`]
//! and [`set_counts`] run **two searches per block** instead, one forward
//! from the sources over out-arcs and one backward from the targets over
//! in-arcs (the same arcs for an undirected graph), sharing the block's
//! coin memo: an in-arc carries its out-arc's coin id, so each coin is
//! still hashed at most once per block. Each round expands the side whose
//! last round queued fewer nodes. A lane **hits** when a deposit lands on
//! a node the other side has reached in that lane (or at once, when a
//! node is both a source and a target), and **retires** once it has hit
//! or once either side deposits nothing for it in a round: that side's
//! search is then complete in that world and disjoint from the other's,
//! so no target is reachable there. Retired lanes are masked out of both
//! frontiers, so a block ends with its last unsettled lane, and the coins
//! its stragglers reach are drawn for those lanes alone. Before the first
//! block the same meet runs once, in one lane, on the possible graph
//! (every arc whose coin can come up): if it does not connect the ends,
//! no world does, and the range is settled without hashing a coin.
//!
//! Hop-aware shapes (`set` under a hop cap, hop-bounded `st`, `hops`)
//! run the meet in **strict** rounds that expand exactly one level of
//! one side, so after `r` rounds the sides have expanded `r` levels
//! between them. A lane that meets in round `r` then has first-arrival
//! depth exactly `r` (had it been closer, the sides would have met
//! earlier), and once `r` reaches the cap every unmet lane retires as a
//! miss. Every search here, both sides of a meet included, runs one arc
//! loop.

use crate::coins::{splitmix64, SAMPLE_MUL};
use relmax_ugraph::{Arc, CoinId, ExtraEdge, NodeId, ProbGraph};
use std::cell::RefCell;

/// Worlds per block: the bit width of the lane word.
pub const LANES: usize = 64;

/// `LANE_MUL[k] = k · C (mod 2⁶⁴)`: the per-lane offset of the inner
/// hash input, precomputed so the per-lane draw costs one add instead of
/// one multiply (`(base + k) · C = base · C + k · C` in wrapping
/// arithmetic — bit-identical to [`coin_raw`](crate::coins::coin_raw)).
const LANE_MUL: [u64; LANES] = {
    let mut t = [0u64; LANES];
    let mut k = 0;
    while k < LANES {
        t[k] = (k as u64).wrapping_mul(SAMPLE_MUL);
        k += 1;
    }
    t
};

/// The raw 53-bit draw for lane `k` of a block whose premultiplied base
/// is `base_mul = base · C`: bit-identical to
/// `coin_raw(seed, base + k, coin)`.
#[inline]
fn lane_raw(seed: u64, base_mul: u64, k: u32, coin: CoinId) -> u64 {
    splitmix64(seed ^ splitmix64(base_mul.wrapping_add(LANE_MUL[k as usize]) ^ coin as u64)) >> 11
}

/// Coin verdicts for all 64 lanes of a block: bit `k` of the result is
/// set iff `coin_raw(seed, base + k, coin) < threshold`.
///
/// The kernels call this **at most once per coin per block** (an
/// epoch-stamped memo), on a miss while more than `PER_LANE_MAX` lanes
/// are live; every later touch of the coin inside the block's fixpoint
/// is pure word arithmetic. On x86-64 hosts with AVX-512DQ the 64 draws
/// run eight SplitMix64 chains per instruction (an internal `simd`
/// module, detected once at runtime); elsewhere a fixed 64-iteration
/// loop of independent chains unrolls and pipelines. Both paths are
/// bit-identical to 64 [`coin_raw`](crate::coins::coin_raw) calls. `base_mul` is
/// [`WorldBlock::base_mul`].
#[inline]
pub fn coin_lanes(seed: u64, base_mul: u64, coin: CoinId, threshold: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: `available()` verified avx512f + avx512dq at runtime.
        return unsafe { simd::coin_lanes(seed, base_mul, coin, threshold) };
    }
    coin_lanes_portable(seed, base_mul, coin, threshold)
}

/// Whether [`coin_lanes`] runs on the AVX-512 fast path on this host
/// (bit-identical either way — this only matters for interpreting
/// benchmark numbers, so `BENCH_sampling.json` records it).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable [`coin_lanes`]: 64 independent hash chains in a fixed loop.
#[inline]
fn coin_lanes_portable(seed: u64, base_mul: u64, coin: CoinId, threshold: u64) -> u64 {
    let mut mask = 0u64;
    let mut k = 0u32;
    while k < LANES as u32 {
        mask |= ((lane_raw(seed, base_mul, k, coin) < threshold) as u64) << k;
        k += 1;
    }
    mask
}

/// AVX-512 fast path for [`coin_lanes`]: SplitMix64 over eight 64-bit
/// lanes per vector (`vpmullq` from AVX-512DQ makes the 64-bit multiply
/// native), eight chunks covering the 64 block lanes. Bit-identical to
/// the portable loop — the unit tests compare them draw for draw.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::LANE_MUL;
    use core::arch::x86_64::*;
    use relmax_ugraph::CoinId;
    use std::sync::OnceLock;

    /// Whether this host has the required AVX-512 subsets (checked once).
    #[inline]
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
        })
    }

    /// SplitMix64 finalizer over 8 lanes (same constants as
    /// [`crate::coins::splitmix64`]).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splitmix8(z: __m512i) -> __m512i {
        let z = _mm512_add_epi64(z, _mm512_set1_epi64(0x9e37_79b9_7f4a_7c15_u64 as i64));
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
            _mm512_set1_epi64(0xbf58_476d_1ce4_e5b9_u64 as i64),
        );
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
            _mm512_set1_epi64(0x94d0_49bb_1331_11eb_u64 as i64),
        );
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 31))
    }

    /// See [`super::coin_lanes`].
    ///
    /// # Safety
    /// The caller must have verified [`available`] (avx512f + avx512dq).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn coin_lanes(seed: u64, base_mul: u64, coin: CoinId, threshold: u64) -> u64 {
        let seedv = _mm512_set1_epi64(seed as i64);
        let basev = _mm512_set1_epi64(base_mul as i64);
        let coinv = _mm512_set1_epi64(coin as u64 as i64);
        let thv = _mm512_set1_epi64(threshold as i64);
        let mut mask = 0u64;
        for chunk in 0..8 {
            // Inner hash input per lane: (base + k) · C ^ coin, with the
            // premultiplied lane offsets loaded straight from LANE_MUL.
            let lanes = _mm512_loadu_si512(LANE_MUL.as_ptr().add(chunk * 8) as *const __m512i);
            let x = _mm512_xor_si512(_mm512_add_epi64(basev, lanes), coinv);
            let outer = splitmix8(_mm512_xor_si512(seedv, splitmix8(x)));
            let draw = _mm512_srli_epi64(outer, 11);
            // 53-bit draws: the unsigned compare is exact.
            let lt = _mm512_cmplt_epu64_mask(draw, thv);
            mask |= (lt as u64) << (chunk * 8);
        }
        mask
    }
}

/// One block of up to 64 consecutive sampled worlds.
///
/// Lane `k` of every word in the block corresponds to scalar sample
/// `base + k`; `mask` has a bit set for each live lane (all 64 except in
/// the tail block of a range).
///
/// ```
/// use relmax_sampling::packed::WorldBlock;
///
/// let blocks: Vec<WorldBlock> = WorldBlock::span(0, 130).collect();
/// assert_eq!(blocks.len(), 3);
/// assert_eq!(blocks[0].base, 0);
/// assert_eq!(blocks[0].mask, !0); // 64 live lanes
/// assert_eq!(blocks[2].base, 128);
/// assert_eq!(blocks[2].mask, 0b11); // tail block: worlds 128 and 129
/// assert_eq!(blocks.iter().map(|b| b.lanes() as u64).sum::<u64>(), 130);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldBlock {
    /// Absolute sample index of lane 0.
    pub base: u64,
    /// Live lanes: bit `k` set iff world `base + k` is inside the range.
    pub mask: u64,
}

impl WorldBlock {
    /// The blocks tiling the absolute sample range `lo..hi`, in order.
    /// All blocks are full except possibly the last (tail) block.
    pub fn span(lo: u64, hi: u64) -> impl Iterator<Item = WorldBlock> {
        let mut base = lo;
        std::iter::from_fn(move || {
            if base >= hi {
                return None;
            }
            let lanes = (hi - base).min(LANES as u64);
            let block = WorldBlock {
                base,
                mask: if lanes == LANES as u64 {
                    !0
                } else {
                    (1u64 << lanes) - 1
                },
            };
            base += lanes;
            Some(block)
        })
    }

    /// Number of live lanes in this block.
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.mask.count_ones()
    }

    /// The block base premultiplied by the coin hash's sample constant —
    /// pass to [`coin_lanes`].
    #[inline]
    pub fn base_mul(&self) -> u64 {
        self.base.wrapping_mul(SAMPLE_MUL)
    }
}

/// One entry of the per-block coin memo: the epoch stamp and the cached
/// 64-lane verdict word live in one 16-byte slot, so a memo probe
/// touches a single cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(16))]
struct CoinSlot {
    mark: u32,
    mask: u64,
}

/// Where a fixpoint's arc verdicts come from.
trait Coins {
    /// The lane word of coin `coin` with flip threshold `threshold`: bit
    /// `k` is set iff the arc exists in lane `k`, for every lane `k` still
    /// live (see [`Coins::narrow`]); bits of other lanes are unspecified.
    fn lanes(&mut self, coin: CoinId, threshold: u64) -> u64;

    /// Declare that from now on the fixpoints only read lanes in `live`,
    /// a subset of the lanes declared live so far.
    fn narrow(&mut self, live: u64);
}

/// Live lanes at or below which a memo miss draws each live lane on its
/// own ([`lane_raw`]) instead of hashing all 64 ([`coin_lanes`]). One
/// draw costs about 3 ns and the AVX-512 64-wide hash about 61 ns on the
/// reference host, so per-lane draws stay cheaper up to about 20 live
/// lanes; on the `query-local` batch every value from 4 to 24 times
/// within noise (`docs/benchmarks.md`).
const PER_LANE_MAX: u32 = 16;

/// Per-block coin-mask memo: each coin's lane verdicts are hashed on
/// first touch and served from the cache for the rest of the block.
/// Epoch-stamped, so starting the next block is one counter bump; a
/// separate object from [`LaneScratch`] because one memo can back
/// several fixpoints of the same block (forward + reverse scan passes,
/// every source of a pairwise row, both searches of an `s-t` block).
///
/// A miss hashes only what the block's `live` lanes need: with at most
/// [`PER_LANE_MAX`] of them, one draw per live lane, else the 64-wide
/// [`coin_lanes`]. Within one epoch `live` only shrinks, and every
/// lookup reads lanes inside it, so a verdict drawn for an earlier, wider
/// live word still holds every lane a later lookup reads.
#[derive(Debug, Default)]
struct CoinMemo {
    slots: Vec<CoinSlot>,
    epoch: u32,
    seed: u64,
    base_mul: u64,
    live: u64,
}

impl CoinMemo {
    /// Start a fresh epoch for `block` of the worlds drawn under `seed`,
    /// over `m` coins.
    fn begin(&mut self, m: usize, seed: u64, block: WorldBlock) {
        if self.slots.len() < m {
            self.slots.resize(m, CoinSlot::default());
        }
        if self.epoch == u32::MAX {
            self.slots.fill(CoinSlot::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.seed = seed;
        self.base_mul = block.base_mul();
        self.live = block.mask;
    }
}

impl Coins for CoinMemo {
    /// The verdict word for `coin` in the current block's live lanes.
    #[inline]
    fn lanes(&mut self, coin: CoinId, threshold: u64) -> u64 {
        let slot = &mut self.slots[coin as usize];
        if slot.mark == self.epoch {
            return slot.mask;
        }
        let per_lane = self.live.count_ones() <= PER_LANE_MAX;
        #[cfg(test)]
        tests::DRAWS.with(|d| {
            let (misses, draws) = d.get();
            let drawn = if per_lane { self.live.count_ones() } else { 64 };
            d.set((misses + 1, draws + drawn as u64));
        });
        let mask = if per_lane {
            live_lanes(self.seed, self.base_mul, coin, threshold, self.live)
        } else {
            coin_lanes(self.seed, self.base_mul, coin, threshold)
        };
        *slot = CoinSlot {
            mark: self.epoch,
            mask,
        };
        mask
    }

    #[inline]
    fn narrow(&mut self, live: u64) {
        debug_assert_eq!(live & !self.live, 0, "a narrowing may not add lanes");
        self.live = live;
    }
}

/// Coin verdicts for the lanes in `live` only, one [`lane_raw`] draw
/// each: bit `k` of the result is set iff `k` is in `live` and
/// `coin_raw(seed, base + k, coin) < threshold`.
///
/// Out of line: inlined, its loop slowed the 64-lane floods' arc loop
/// (`mc_from` about 20%) that never runs it.
#[inline(never)]
fn live_lanes(seed: u64, base_mul: u64, coin: CoinId, threshold: u64, live: u64) -> u64 {
    let (mut mask, mut lanes) = (0u64, live);
    while lanes != 0 {
        let k = lanes.trailing_zeros();
        lanes &= lanes - 1;
        mask |= ((lane_raw(seed, base_mul, k, coin) < threshold) as u64) << k;
    }
    mask
}

/// The possible graph in every lane: an arc exists iff its coin can
/// come up at all (a nonzero flip threshold). No sampled world holds an
/// arc the possible graph lacks.
struct Possible;

impl Coins for Possible {
    #[inline]
    fn lanes(&mut self, _: CoinId, threshold: u64) -> u64 {
        0u64.wrapping_sub((threshold != 0) as u64)
    }

    #[inline]
    fn narrow(&mut self, _: u64) {}
}

/// Per-node lane state: the reach closure so far and the not-yet-
/// propagated pending bits share a 16-byte slot, so the one random
/// memory access per arc touches a single cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(16))]
struct NodeLanes {
    reached: u64,
    pending: u64,
}

/// Node state plus the frontier of the level-synchronous fixpoint:
/// `cur`/`next` are this round's and the next round's [`Frontier`],
/// `live` accumulates every node touched in the block so the next block
/// clears `O(touched)` node state instead of `O(n)`.
#[derive(Debug, Default)]
struct LaneScratch {
    state: Vec<NodeLanes>,
    cur: Frontier,
    next: Frontier,
    live: Vec<u64>,
    /// Frontier snapshot of a strict [`fixpoint_round`]: `(node, lanes)`
    /// pairs drained from `cur`/`pending` before the round propagates, so
    /// deposits made during the round cannot leak into it.
    wave: Vec<(u32, u64)>,
}

/// The nodes queued for one fixpoint round: a bitmap with one bit per
/// node ("has pending lanes"), plus the indices of its nonzero words when
/// whatever filled it kept them (the seeds and sparse rounds do; see
/// [`Rounds`]).
#[derive(Debug, Default)]
struct Frontier {
    bits: Vec<u64>,
    /// Listed word indices, appended by a branchless push: the slot at
    /// `len` is always written and `len` only advances on a word's first
    /// deposit, so `words` holds one spare slot beyond `bits`.
    words: Vec<u32>,
    len: usize,
}

impl Frontier {
    fn resize(&mut self, words: usize) {
        self.bits.resize(words, 0);
        self.words.resize(words + 1, 0);
    }
}

impl LaneScratch {
    /// Reset for the next block over `n` nodes: zero the state of every
    /// node the previous block touched (all other words are already 0).
    fn begin_block(&mut self, n: usize) {
        let words = n.div_ceil(LANES);
        if self.state.len() < n {
            self.state.resize(n, NodeLanes::default());
            self.cur.resize(words);
            self.next.resize(words);
            self.live.resize(words, 0);
        }
        // Sweep the full live bitmap (not just this graph's prefix) so a
        // scratch reused across graphs of different sizes stays clean;
        // frontier bits are a subset of `live`, so this also clears the
        // frontier an `s-t` early exit left behind.
        for wi in 0..self.live.len() {
            let mut w = self.live[wi];
            if w == 0 {
                continue;
            }
            self.live[wi] = 0;
            self.cur.bits[wi] = 0;
            self.next.bits[wi] = 0;
            while w != 0 {
                let v = wi * LANES + w.trailing_zeros() as usize;
                w &= w - 1;
                self.state[v] = NodeLanes::default();
            }
        }
        self.cur.len = 0;
        self.next.len = 0;
    }

    /// Seed the fixpoint: mark `v` reached in `lanes` and queue it.
    #[inline]
    fn seed(&mut self, v: NodeId, lanes: u64) {
        self.state[v.index()] = NodeLanes {
            reached: lanes,
            pending: lanes,
        };
        let (w, b) = (v.index() >> 6, v.index() & 63);
        if self.cur.bits[w] == 0 {
            self.cur.words[self.cur.len] = w as u32;
            self.cur.len += 1;
        }
        self.cur.bits[w] |= 1 << b;
        self.live[w] |= 1 << b;
    }

    /// Nodes of the current frontier with pending lanes in `active`.
    fn front_nodes(&self, active: u64, rounds: &Rounds) -> usize {
        let count = |wi: usize| {
            let mut w = self.cur.bits[wi];
            let mut nodes = 0;
            while w != 0 {
                let v = wi * LANES + w.trailing_zeros() as usize;
                w &= w - 1;
                nodes += (self.state[v].pending & active != 0) as usize;
            }
            nodes
        };
        if rounds.listed {
            self.cur.words[..self.cur.len]
                .iter()
                .map(|&wi| count(wi as usize))
                .sum()
        } else {
            (0..rounds.words).map(count).sum()
        }
    }

    /// Nodes with any reached lane this block, ascending.
    fn live_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let v = wi * LANES + w.trailing_zeros() as usize;
                w &= w - 1;
                Some(v)
            })
        })
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<LaneScratch>> = const { RefCell::new(Vec::new()) };
    static MEMO_POOL: RefCell<Vec<CoinMemo>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a pooled value (mirrors `relmax_ugraph::with_scratch`:
/// thread-local, zero steady-state allocation, safe to nest — nested
/// uses simply draw another value). The pool is bounded so pathological
/// nesting cannot hoard memory.
fn with_pooled<T: Default, R>(
    pool: &'static std::thread::LocalKey<RefCell<Vec<T>>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let mut value = pool.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    let out = f(&mut value);
    pool.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < 4 {
            p.push(value);
        }
    });
    out
}

/// Run `f` with a pooled [`LaneScratch`].
fn with_lane_scratch<R>(f: impl FnOnce(&mut LaneScratch) -> R) -> R {
    with_pooled(&SCRATCH_POOL, f)
}

/// Run `f` with a pooled [`CoinMemo`].
fn with_coin_memo<R>(f: impl FnOnce(&mut CoinMemo) -> R) -> R {
    with_pooled(&MEMO_POOL, f)
}

/// A round runs sparse while the previous round's frontier held fewer
/// than `1 / SPARSE_RATIO` as many nodes as the bitmap has words.
const SPARSE_RATIO: usize = 16;

/// Round-to-round bookkeeping of a fixpoint or one side of a [`meet`]:
/// how many nodes the last frontier held, and
/// whether the current frontier's words are listed.
///
/// A **sparse** round (the previous frontier was small next to the `n/64`
/// bitmap words) walks the sorted word list of the current frontier —
/// `O(frontier)` — and lists the next frontier's words as it deposits. A
/// **dense** round sweeps every bitmap word, and its deposits run the
/// bitmap-only code; rounds are monomorphized on the choice, so dense
/// rounds carry no list bookkeeping per arc. The threshold counts nodes
/// because a sparse round's extra cost is per arc, and a dense round's is
/// per word. Both visit the frontier in ascending node order, so a round
/// steps the same arcs and hashes the same coins either way.
struct Rounds {
    /// Bitmap words covering the graph's nodes.
    words: usize,
    /// Nodes in the last frontier walked (the seeds' words before the
    /// first round).
    front: usize,
    /// Whether the current frontier's words are listed.
    listed: bool,
}

impl Rounds {
    /// State after [`LaneScratch::seed`]: the seeds' words are listed.
    fn seeded(ls: &LaneScratch, n: usize) -> Rounds {
        Rounds {
            words: n.div_ceil(LANES),
            front: ls.cur.len,
            listed: true,
        }
    }

    /// Whether the next round runs sparse.
    #[inline]
    fn sparse(&self) -> bool {
        self.front * SPARSE_RATIO < self.words
    }

    /// Visit every node of `cur` in ascending order, clearing it as it
    /// goes: through the sorted word list when the round is sparse and
    /// the list is valid, else by sweeping all words. Returns the number
    /// of nodes visited.
    #[inline(always)]
    fn walk(&self, sparse: bool, cur: &mut Frontier, mut visit: impl FnMut(usize)) -> usize {
        let Frontier { bits, words, len } = cur;
        let mut walked = 0;
        if sparse && self.listed {
            let listed = &mut words[..*len];
            listed.sort_unstable();
            for &wi in listed.iter() {
                walked += walk_word(bits, wi as usize, &mut visit);
            }
        } else {
            for wi in 0..self.words {
                walked += walk_word(bits, wi, &mut visit);
            }
        }
        *len = 0;
        walked
    }

    /// Account for a finished round that visited `walked` nodes; its
    /// deposits listed the next frontier's words iff it was sparse.
    #[inline]
    fn advance(&mut self, sparse: bool, walked: usize) {
        #[cfg(test)]
        tests::ROUNDS.with(|r| r.borrow_mut().push(sparse));
        self.listed = sparse;
        self.front = walked;
    }
}

/// Visit the set bits of frontier word `wi` as node ids, clearing it;
/// returns how many there were.
#[inline(always)]
fn walk_word(bits: &mut [u64], wi: usize, visit: &mut impl FnMut(usize)) -> usize {
    let mut w = bits[wi];
    if w == 0 {
        return 0;
    }
    bits[wi] = 0;
    let nodes = w.count_ones() as usize;
    while w != 0 {
        let v = wi * LANES + w.trailing_zeros() as usize;
        w &= w - 1;
        visit(v);
    }
    nodes
}

/// Queue node `u` for the next round if `add` gave it new lanes, and mark
/// it live. A sparse round also lists the word on its first deposit with
/// a branchless push (the slot is always written; `len` advances only
/// when the word was empty), so the per-arc code stays branch-free.
/// Returns 1 if `u` just joined the frontier, else 0.
#[inline(always)]
fn enqueue<const SPARSE: bool>(
    frontier: &mut Frontier,
    live: &mut [u64],
    u: usize,
    add: u64,
) -> usize {
    let nz = (add != 0) as u64;
    let (uw, ub) = (u >> 6, u & 63);
    let old = frontier.bits[uw];
    frontier.bits[uw] = old | nz << ub;
    if SPARSE {
        frontier.words[frontier.len] = uw as u32;
        frontier.len += ((old == 0) as usize) & nz as usize;
    }
    live[uw] |= nz << ub;
    (nz & !(old >> ub)) as usize
}

/// Run the packed frontier fixpoint for one block: level-synchronous
/// rounds over the frontier until a round finds it empty.
///
/// Processing the frontier in rounds (and in ascending node order within
/// a round) makes lanes that reach a node at the same BFS depth arrive
/// as one wave, so a node's arcs are rescanned once per *distinct
/// arrival depth* instead of once per lane — and the deposit into the
/// destination's [`NodeLanes`] slot is branchless, keeping the random
/// loads pipelined instead of serialized behind mispredicted branches.
#[inline]
fn fixpoint<G: ProbGraph>(
    g: &G,
    lanes: u64,
    ls: &mut LaneScratch,
    coins: &mut impl Coins,
    reverse: bool,
) {
    coins.narrow(lanes);
    let mut rounds = Rounds::seeded(ls, g.num_nodes());
    loop {
        let round =
            fixpoint_round::<false, G>(g, ls, coins, reverse, lanes, &mut rounds, |_, _| {});
        if round.walked == 0 {
            return;
        }
    }
}

/// What one [`fixpoint_round`] did.
struct RoundOut {
    /// Frontier nodes walked.
    walked: usize,
    /// Nodes the round queued for the next one.
    queued: usize,
    /// Every lane the round deposited anywhere.
    lanes: u64,
}

/// One round of a fixpoint: propagate every frontier node's pending
/// lanes, restricted to `active`, along its arcs into the next frontier,
/// which then becomes the current one. `deposit` sees each arc's
/// destination and the lanes it just gained. The round runs sparse or
/// dense as `rounds` decides. (Progress is not tracked per arc: a round
/// without it leaves the next frontier empty, and the next round's walk
/// finds nothing.)
///
/// A `STRICT` round expands exactly one BFS level. A loose round lets a
/// node still on the current frontier forward a deposit it received
/// earlier in the same round, one level early: harmless for reachability
/// verdicts, wrong for hop accounting. So a strict round first snapshots
/// the whole frontier into `ls.wave` and only then steps arcs: round `r`
/// advances exactly the lanes that arrived at depth `r − 1`.
#[inline(always)]
fn fixpoint_round<const STRICT: bool, G: ProbGraph>(
    g: &G,
    ls: &mut LaneScratch,
    coins: &mut impl Coins,
    reverse: bool,
    active: u64,
    rounds: &mut Rounds,
    deposit: impl FnMut(usize, u64),
) -> RoundOut {
    let sparse = rounds.sparse();
    let round = if sparse {
        round_arcs::<true, STRICT, G>(g, ls, coins, reverse, active, rounds, deposit)
    } else {
        round_arcs::<false, STRICT, G>(g, ls, coins, reverse, active, rounds, deposit)
    };
    if round.walked > 0 {
        std::mem::swap(&mut ls.cur, &mut ls.next);
        rounds.advance(sparse, round.walked);
    }
    round
}

/// The arc loop of [`fixpoint_round`], monomorphized on the round's form
/// so dense rounds carry no word-list bookkeeping per arc, and loose
/// rounds no snapshot.
#[inline(always)]
fn round_arcs<const SPARSE: bool, const STRICT: bool, G: ProbGraph>(
    g: &G,
    ls: &mut LaneScratch,
    coins: &mut impl Coins,
    reverse: bool,
    active: u64,
    rounds: &Rounds,
    mut deposit: impl FnMut(usize, u64),
) -> RoundOut {
    let LaneScratch {
        state,
        cur,
        next,
        live,
        wave,
    } = ls;
    let (mut queued, mut lanes) = (0usize, 0u64);
    let walked = if STRICT {
        let mut on_arc = |u: usize, add: u64, joined: usize| {
            queued += joined;
            lanes |= add;
            deposit(u, add);
        };
        wave.clear();
        let walked = rounds.walk(SPARSE, cur, |v| {
            let new_bits = state[v].pending & active;
            state[v].pending = 0;
            if new_bits != 0 {
                wave.push((v as u32, new_bits));
            }
        });
        for &(v, new_bits) in wave.iter() {
            step_arcs::<SPARSE, G>(
                g,
                coins,
                state,
                next,
                live,
                v as usize,
                new_bits,
                reverse,
                &mut on_arc,
            );
        }
        walked
    } else {
        rounds.walk(SPARSE, cur, |v| {
            let new_bits = state[v].pending & active;
            state[v].pending = 0;
            if new_bits == 0 {
                return;
            }
            let mut on_arc = |u: usize, add: u64, joined: usize| {
                queued += joined;
                lanes |= add;
                deposit(u, add);
            };
            step_arcs::<SPARSE, G>(
                g,
                coins,
                state,
                next,
                live,
                v,
                new_bits,
                reverse,
                &mut on_arc,
            );
        })
    };
    RoundOut {
        walked,
        queued,
        lanes,
    }
}

/// Step node `v`'s arcs (in-arcs when `reverse`) in lanes `new_bits` —
/// the one arc loop every packed fixpoint runs. Each arc deposits into
/// its destination `u` the lanes whose coin holds and that `u` has not
/// reached yet, queues `u` in `next`, and reports `(u, lanes, joined)`
/// to `on_arc`, `joined` being 1 if `u` just joined the frontier.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_arcs<const SPARSE: bool, G: ProbGraph>(
    g: &G,
    coins: &mut impl Coins,
    state: &mut [NodeLanes],
    next: &mut Frontier,
    live: &mut [u64],
    v: usize,
    new_bits: u64,
    reverse: bool,
    on_arc: &mut impl FnMut(usize, u64, usize),
) {
    let step = |a: Arc| {
        #[cfg(test)]
        tests::ARCS.with(|a| a.set(a.get() + 1));
        let (u, mask) = (a.node.index(), coins.lanes(a.coin, a.thresh));
        let st = &mut state[u];
        let add = new_bits & mask & !st.reached;
        st.reached |= add;
        st.pending |= add;
        let joined = enqueue::<SPARSE>(next, live, u, add);
        on_arc(u, add, joined);
    };
    let v = NodeId(v as u32);
    let arcs = if reverse { g.in_arcs(v) } else { g.out_arcs(v) };
    arcs.for_each(step);
}

/// One side of [`meet`]: its round bookkeeping and how many nodes its
/// last round queued.
struct MeetSide {
    rounds: Rounds,
    queued: usize,
}

/// Run the bidirectional fixpoint over `lanes`: a forward search from
/// every source in `fwd` and a backward search (over in-arcs) from every
/// target in `bwd`, both drawing their arcs from `coins`. Returns
/// `(hit, depth_sum)`: `hit` has the lanes in which the two searches met
/// within `cap` hops — the worlds where some target is reachable from
/// some source — and, for `LEVELS` searches, `depth_sum` adds up those
/// lanes' first-arrival hop distances (0 where a node is both a source
/// and a target).
///
/// Each round expands the side whose last round queued fewer nodes. A
/// lane hits when a deposit lands on a node the other side has reached
/// in that lane, and retires once it hits or once a round of either side
/// deposits nothing in it: that side's search is then complete in that
/// world, and (no meeting having been seen) disjoint from the other
/// side's, so no target is reachable there. Retired lanes are masked out
/// of both frontiers, so the search ends with its last unsettled lane.
///
/// The verdicts are the forward search's: whether the two reached sets
/// of a world intersect does not depend on the order the arcs were
/// stepped in, and coins are stateless, so which coins get hashed never
/// changes any lane's draw.
///
/// `LEVELS` searches run strict rounds ([`fixpoint_round`]), so after
/// `r` rounds the two sides have expanded `L_f + L_b = r` whole levels
/// between them. A lane that has not met by then has distance
/// `d > L_f + L_b` (a shortest path of length `d ≤ L_f + L_b` has a node
/// at most `L_f` hops from its source and `L_b` from its target, which
/// both sides would have reached), so a lane that meets in round `r`
/// has `d = r` exactly; once `r` reaches `cap` every unmet lane retires
/// as a miss. Loose searches must pass `cap = u32::MAX`, and their
/// `depth_sum` is meaningless.
#[allow(clippy::too_many_arguments)]
fn meet<const LEVELS: bool, G: ProbGraph>(
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    lanes: u64,
    cap: u32,
    fwd: &mut LaneScratch,
    bwd: &mut LaneScratch,
    coins: &mut impl Coins,
) -> (u64, u64) {
    debug_assert!(LEVELS || cap == u32::MAX, "a hop cap needs strict rounds");
    let n = g.num_nodes();
    for (ls, seeds) in [(&mut *fwd, sources), (&mut *bwd, targets)] {
        ls.begin_block(n);
        for &v in seeds {
            ls.seed(v, lanes);
        }
    }
    let side = |ls: &LaneScratch, seeds: &[NodeId]| MeetSide {
        rounds: Rounds::seeded(ls, n),
        queued: seeds.len(),
    };
    let mut sides = [side(fwd, sources), side(bwd, targets)];
    // Lanes in which a source is a target hit at depth 0.
    let mut hit = targets
        .iter()
        .fold(0u64, |h, t| h | fwd.state[t.index()].reached);
    let (mut active, mut depth, mut depth_sum) = (lanes & !hit, 0u64, 0u64);
    coins.narrow(active);
    while active != 0 && depth < u64::from(cap) {
        depth += 1;
        let reverse = sides[1].queued < sides[0].queued;
        let (ls, other, side) = if reverse {
            (&mut *bwd, &*fwd, &mut sides[1])
        } else {
            (&mut *fwd, &*bwd, &mut sides[0])
        };
        let mut met = 0u64;
        let round = fixpoint_round::<LEVELS, G>(
            g,
            ls,
            coins,
            reverse,
            active,
            &mut side.rounds,
            |u, add| met |= add & other.state[u].reached,
        );
        side.queued = round.queued;
        met &= active;
        hit |= met;
        depth_sum += depth * met.count_ones() as u64;
        let live = active & round.lanes & !met;
        if live != active {
            // Retired lanes leave both frontiers, so recount each side
            // over the lanes still live: a side whose front is mostly
            // settled lanes must not look larger than it is.
            active = live;
            coins.narrow(active);
            sides[0].queued = fwd.front_nodes(active, &sides[0].rounds);
            sides[1].queued = bwd.front_nodes(active, &sides[1].rounds);
        }
    }
    (hit, depth_sum)
}

/// The [`meet`] of every block of `lo..hi`, folded into `(hits,
/// depth_sum)`. First, one single-lane meet on the possible graph (every
/// arc whose coin can come up): no world connects, within `cap` hops,
/// ends that graph does not, so such a range has no hits and hashes no
/// coin — where a search from each end would flood both ends' components
/// in every block.
#[allow(clippy::too_many_arguments)]
fn meet_counts<const LEVELS: bool, G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    cap: u32,
    lo: u64,
    hi: u64,
) -> (u64, u64) {
    let m = g.num_coins();
    let (mut hits, mut depth_sum) = (0u64, 0u64);
    with_lane_scratch(|fwd| {
        with_lane_scratch(|bwd| {
            if lo >= hi
                || meet::<LEVELS, G>(g, sources, targets, 1, cap, fwd, bwd, &mut Possible).0 == 0
            {
                return;
            }
            with_coin_memo(|memo| {
                for block in WorldBlock::span(lo, hi) {
                    memo.begin(m, seed, block);
                    let (hit, ds) =
                        meet::<LEVELS, G>(g, sources, targets, block.mask, cap, fwd, bwd, memo);
                    hits += hit.count_ones() as u64;
                    depth_sum += ds;
                }
            });
        });
    });
    (hits, depth_sum)
}

/// Packed set-reliability counts for the absolute sample range `lo..hi`:
/// one strictly level-synchronous meet per block (see the module docs).
///
/// Returns `(hits, depth_sum)`: `hits` counts the sampled worlds in which
/// *any* source reaches *any* target within `max_hops` arcs (`None` =
/// unbounded), and `depth_sum` accumulates the per-world first-arrival
/// hop distance over exactly those worlds (0 when a node is both source
/// and target). Both are plain integer sums over lanes, so shard and
/// block boundaries cannot change them — bit-identical to
/// [`crate::scalar::set_counts`] at any thread count.
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
    meet_counts::<true, G>(g, seed, sources, targets, cap, lo, hi)
}

/// Packed hit count for the absolute sample range `lo..hi`: the worlds
/// in which some target is reachable from some source, bit-identical to
/// the scalar per-world search count. Each block runs a loose
/// bidirectional meet instead of flooding the sources' reachable set.
pub fn st_hits<G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    lo: u64,
    hi: u64,
) -> u64 {
    meet_counts::<false, G>(g, seed, sources, targets, u32::MAX, lo, hi).0
}

/// Packed per-node reach counts (forward from `starts`, or reverse to
/// them) for `lo..hi`, folded into `counts` by popcount — the same
/// integers [`crate::scalar::reach_counts`] produces.
pub fn reach_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    starts: &[NodeId],
    reverse: bool,
    lo: u64,
    hi: u64,
    counts: &mut [u64],
) {
    let n = g.num_nodes();
    let m = g.num_coins();
    with_lane_scratch(|ls| {
        with_coin_memo(|memo| {
            for block in WorldBlock::span(lo, hi) {
                ls.begin_block(n);
                memo.begin(m, seed, block);
                for &s in starts {
                    ls.seed(s, block.mask);
                }
                fixpoint(g, block.mask, ls, memo, reverse);
                for v in ls.live_nodes() {
                    counts[v] += ls.state[v].reached.count_ones() as u64;
                }
            }
        });
    });
}

/// Packed shared-world candidate-scan counts for `lo..hi`: the lane
/// version of the forward/reverse reach decomposition. Connected lanes
/// (`fwd[t]`) credit every candidate; for the rest, candidate `(u, v)`
/// bridges lane `k` iff `fwd[u]`, `rev[v]`, and the candidate's own coin
/// all hold in lane `k`.
pub fn scan_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    s: NodeId,
    t: NodeId,
    candidates: &[ExtraEdge],
    span: std::ops::Range<u64>,
    counts: &mut [u64],
) {
    let n = g.num_nodes();
    let thresholds: Vec<u64> = candidates
        .iter()
        .map(|c| relmax_ugraph::flip_threshold(c.prob))
        .collect();
    // Single-candidate overlays all assign their extra edge the first
    // coin id past the base graph (same id the scalar kernel uses).
    let cand_coin = g.num_coins() as CoinId;
    let directed = g.is_directed();
    let m = g.num_coins();
    with_lane_scratch(|fwd| {
        with_lane_scratch(|rev| {
            with_coin_memo(|memo| {
                let mut raws = [0u64; LANES];
                for block in WorldBlock::span(span.start, span.end) {
                    fwd.begin_block(n);
                    // One memo serves both passes: the reverse fixpoint
                    // walks the same coins in the same block.
                    memo.begin(m, seed, block);
                    fwd.seed(s, block.mask);
                    fixpoint(g, block.mask, fwd, memo, false);
                    let connected = fwd.state[t.index()].reached;
                    if connected != 0 {
                        let hit = connected.count_ones() as u64;
                        for c in counts.iter_mut() {
                            *c += hit;
                        }
                    }
                    let open = block.mask & !connected;
                    if open == 0 {
                        continue;
                    }
                    // Reverse reach to t, restricted to still-open lanes.
                    rev.begin_block(n);
                    rev.seed(t, open);
                    fixpoint(g, open, rev, memo, true);
                    // The candidate coin's raw draw per open lane;
                    // candidates differ only in the threshold it is
                    // compared against.
                    let base_mul = block.base_mul();
                    let mut lanes = open;
                    while lanes != 0 {
                        let k = lanes.trailing_zeros();
                        lanes &= lanes - 1;
                        raws[k as usize] = lane_raw(seed, base_mul, k, cand_coin);
                    }
                    for (i, cand) in candidates.iter().enumerate() {
                        let mut bridges = fwd.state[cand.src.index()].reached
                            & rev.state[cand.dst.index()].reached;
                        if !directed {
                            bridges |= fwd.state[cand.dst.index()].reached
                                & rev.state[cand.src.index()].reached;
                        }
                        bridges &= open;
                        let mut hit = 0u64;
                        while bridges != 0 {
                            let k = bridges.trailing_zeros();
                            bridges &= bridges - 1;
                            hit += (raws[k as usize] < thresholds[i]) as u64;
                        }
                        counts[i] += hit;
                    }
                }
            });
        });
    });
}

/// Packed pairwise counts for `lo..hi`: each block instantiates a coin's
/// lane verdicts at most once **across all sources**, then every source
/// runs its own fixpoint against the shared verdicts.
pub fn pairwise_counts<G: ProbGraph>(
    g: &G,
    seed: u64,
    sources: &[NodeId],
    targets: &[NodeId],
    lo: u64,
    hi: u64,
) -> Vec<Vec<u64>> {
    let n = g.num_nodes();
    let m = g.num_coins();
    let mut counts = vec![vec![0u64; targets.len()]; sources.len()];
    with_lane_scratch(|ls| {
        with_coin_memo(|memo| {
            for block in WorldBlock::span(lo, hi) {
                // One coin epoch per block, shared by every source's
                // fixpoint: each coin's 64 lanes are hashed at most once
                // across all sources.
                memo.begin(m, seed, block);
                for (si, &s) in sources.iter().enumerate() {
                    ls.begin_block(n);
                    ls.seed(s, block.mask);
                    fixpoint(g, block.mask, ls, memo, false);
                    for (ti, &t) in targets.iter().enumerate() {
                        counts[si][ti] += ls.state[t.index()].reached.count_ones() as u64;
                    }
                }
            }
        });
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coins::coin_raw;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn lane_raw_matches_coin_raw() {
        // The premultiplied lane form must reproduce the scalar draw for
        // every lane — this is the root of the packed kernel's
        // bit-identity, so check it exhaustively over keys.
        for &seed in &[0u64, 7, 0x5eed, u64::MAX] {
            for &base in &[0u64, 64, 1 << 20, u64::MAX - 63] {
                let base_mul = base.wrapping_mul(SAMPLE_MUL);
                for k in [0u32, 1, 31, 63] {
                    for coin in [0u32, 5, 1000] {
                        assert_eq!(
                            lane_raw(seed, base_mul, k, coin),
                            coin_raw(seed, base.wrapping_add(k as u64), coin),
                            "seed={seed} base={base} k={k} coin={coin}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coin_lanes_matches_scalar_flips() {
        let th = relmax_ugraph::flip_threshold(0.37);
        for base in [0u64, 64, 100] {
            let base_mul = base.wrapping_mul(SAMPLE_MUL);
            let full = coin_lanes(9, base_mul, 3, th);
            for k in 0..64u64 {
                let scalar = coin_raw(9, base + k, 3) < th;
                assert_eq!((full >> k) & 1 == 1, scalar, "base={base} lane={k}");
            }
        }
    }

    #[test]
    fn span_tiles_ranges_with_masked_tail() {
        let blocks: Vec<WorldBlock> = WorldBlock::span(64, 200).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], WorldBlock { base: 64, mask: !0 });
        assert_eq!(
            blocks[1],
            WorldBlock {
                base: 128,
                mask: !0
            }
        );
        assert_eq!(blocks[2].base, 192);
        assert_eq!(blocks[2].lanes(), 8);
        assert!(WorldBlock::span(5, 5).next().is_none());
        // Unaligned lo: lane 0 is sample `lo`, not the enclosing multiple
        // of 64 — shard boundaries need no alignment for correctness.
        let odd: Vec<WorldBlock> = WorldBlock::span(10, 30).collect();
        assert_eq!(odd.len(), 1);
        assert_eq!(odd[0].base, 10);
        assert_eq!(odd[0].lanes(), 20);
    }

    #[test]
    fn packed_st_hits_match_scalar_bfs_counts() {
        // A chain with a shortcut, directed.
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 0.4).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.8).unwrap();
        let (s, t) = (NodeId(0), NodeId(4));
        for (lo, hi) in [(0u64, 64u64), (0, 130), (64, 131), (7, 20)] {
            let scalar: u64 = (lo..hi)
                .map(|sample| {
                    // Reference: per-world BFS over stateless coins.
                    let mut reach = [false; 5];
                    reach[s.index()] = true;
                    let mut stack = vec![s];
                    while let Some(v) = stack.pop() {
                        for a in g.out_arcs(v) {
                            let (u, th, c) = (a.node, a.thresh, a.coin);
                            if !reach[u.index()] && coin_raw(11, sample, c) < th {
                                reach[u.index()] = true;
                                stack.push(u);
                            }
                        }
                    }
                    reach[t.index()] as u64
                })
                .sum();
            assert_eq!(
                st_hits(&g, 11, &[s], &[t], lo, hi),
                scalar,
                "range {lo}..{hi}"
            );
        }
    }

    thread_local! {
        /// Whether each finished fixpoint round on this thread ran sparse.
        pub(super) static ROUNDS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
        /// Arcs stepped by packed fixpoints on this thread.
        pub(super) static ARCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Coin-memo misses on this thread, and the lane draws they made.
        pub(super) static DRAWS: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    /// Take the round modes recorded so far, as a string of `s`/`d`.
    fn take_rounds() -> String {
        ROUNDS.with(|r| {
            r.take()
                .iter()
                .map(|&sp| if sp { 's' } else { 'd' })
                .collect()
        })
    }

    /// Per-world forward reach over stateless coins (`seed`, worlds
    /// `lo..hi`), summed per node: the reference for `reach_counts`.
    fn world_reach_counts(g: &UncertainGraph, seed: u64, s: NodeId, lo: u64, hi: u64) -> Vec<u64> {
        let mut counts = vec![0u64; g.num_nodes()];
        for sample in lo..hi {
            let mut reach = vec![false; g.num_nodes()];
            reach[s.index()] = true;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for a in g.out_arcs(v) {
                    let (u, th, c) = (a.node, a.thresh, a.coin);
                    if !reach[u.index()] && coin_raw(seed, sample, c) < th {
                        reach[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
            for (c, r) in counts.iter_mut().zip(reach) {
                *c += r as u64;
            }
        }
        counts
    }

    /// 4096 nodes (64 frontier words): a thin chain from node 4090 that
    /// wraps past node 0, a fan-out from node 2 into 60 words, a funnel
    /// back into node 3000, and a second thin chain.
    fn funnel_graph() -> UncertainGraph {
        let mut g = UncertainGraph::new(4096, true);
        let chain: Vec<u32> = (4090..4096).chain(0..3).collect();
        for w in chain.windows(2) {
            g.add_edge(NodeId(w[0]), NodeId(w[1]), 0.95).unwrap();
        }
        for i in 1..61 {
            g.add_edge(NodeId(2), NodeId(64 * i + 5), 0.9).unwrap();
            g.add_edge(NodeId(64 * i + 5), NodeId(3000), 0.5).unwrap();
        }
        for v in 3000..3010 {
            g.add_edge(NodeId(v), NodeId(v + 1), 0.9).unwrap();
        }
        g
    }

    #[test]
    fn rounds_switch_sparse_dense_sparse_and_match_per_world_bfs() {
        let g = funnel_graph();
        let s = NodeId(4090);
        for (lo, hi) in [(0u64, 64u64), (3, 200)] {
            take_rounds();
            let mut counts = vec![0u64; g.num_nodes()];
            reach_counts(&g, 21, &[s], false, lo, hi, &mut counts);
            assert_eq!(
                counts,
                world_reach_counts(&g, 21, s, lo, hi),
                "range {lo}..{hi}"
            );
            // Per block: one-node rounds along the chain run sparse, so
            // does the round that walks the 60 fan-out nodes; the round
            // after it sweeps (dense), and the second chain runs sparse.
            let rounds = take_rounds();
            assert!(rounds.starts_with("ssssssssssdsss"), "{rounds}");
            // Strict rounds (the level-synchronous meet) take the same
            // sparse and dense paths. The meet expands the smaller side,
            // so a dense round needs both sides wide: 59 isolated targets
            // keep the backward side at 60 nodes while the forward side
            // walks the fan-out from node 2.
            let wide: Vec<NodeId> = (4000..4059).chain([3008]).map(NodeId).collect();
            for (sources, targets) in [
                (&[s][..], &[NodeId(3008), NodeId(1)][..]),
                (&[NodeId(2)][..], &wide[..]),
            ] {
                take_rounds();
                for max_hops in [Some(3), Some(9), Some(10), Some(14), None] {
                    let want = world_set_moments(&g, 21, sources, targets, max_hops, lo, hi);
                    let got = set_counts(&g, 21, sources, targets, max_hops, lo, hi);
                    assert_eq!(got, want, "max_hops={max_hops:?} range {lo}..{hi}");
                }
            }
            let rounds = take_rounds();
            assert!(rounds.contains("sdsss"), "{rounds}");
            let deep = set_counts(&g, 21, &[NodeId(2)], &wide, None, lo, hi);
            assert!(deep.0 > 0, "some world must cross the funnel");
            assert_eq!(deep.1, 10 * deep.0, "2 → fan-out → 3000 → 3008");
        }
    }

    /// Directed ring-chords graph: `v → v + j (mod n)` for `j` in `1..=4`,
    /// with hashed probabilities in `[0.05, 0.95)` (the `relmax gen`
    /// family).
    fn ring_chords(n: u32) -> UncertainGraph {
        let mut g = UncertainGraph::new(n as usize, true);
        for v in 0..n {
            for j in 1..=4 {
                let h = splitmix64((v as u64) << 3 | j as u64) >> 11;
                let p = 0.05 + 0.9 * (h as f64 / (1u64 << 53) as f64);
                g.add_edge(NodeId(v), NodeId((v + j) % n), p).unwrap();
            }
        }
        g
    }

    /// Arcs stepped by `f` on this thread.
    fn arcs_read(f: impl FnOnce()) -> u64 {
        ARCS.with(|a| a.set(0));
        f();
        ARCS.with(|a| a.get())
    }

    #[test]
    fn meet_reads_fewer_arcs_than_the_forward_flood() {
        let g = ring_chords(4000);
        let (lo, hi) = (0u64, 640u64);
        let (mut meet_total, mut flood_total) = (0, 0);
        // 2, 4 and 2 hops apart (the last pair wraps past node 0).
        for (s, t) in [(100u32, 108u32), (100, 114), (3995, 3)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let mut hits = 0;
            let meet = arcs_read(|| hits = st_hits(&g, 5, &[s], &[t], lo, hi));
            let mut counts = vec![0u64; g.num_nodes()];
            let flood = arcs_read(|| reach_counts(&g, 5, &[s], false, lo, hi, &mut counts));
            // Same verdicts as the forward flood, from a fraction of its
            // arcs: misses retire as soon as one side runs dry. A block
            // still runs until its slowest lane settles, and a lane whose
            // two searches pass each other without meeting runs long.
            assert_eq!(hits, counts[t.index()], "{s:?}->{t:?}");
            assert!(hits > 0 && hits < hi - lo, "{s:?}->{t:?}: {hits} hits");
            assert!(
                meet * 2 < flood,
                "{s:?}->{t:?}: meet {meet} arcs, flood {flood}"
            );
            meet_total += meet;
            flood_total += flood;
        }
        assert!(
            meet_total * 5 < flood_total,
            "meet {meet_total} arcs, flood {flood_total}"
        );
    }

    #[test]
    fn set_and_hop_capped_meets_read_fewer_arcs_than_the_forward_flood() {
        let g = ring_chords(4000);
        let (lo, hi) = (0u64, 640u64);
        let n = |v: &[u32]| v.iter().map(|&v| NodeId(v)).collect::<Vec<_>>();
        // A set 2–4 hops across, a pair under a binding cap, the same pair
        // under a cap that never binds, and a pair wrapping past node 0.
        let cases = [
            (n(&[100, 103]), n(&[108, 114]), None),
            (n(&[100]), n(&[114]), Some(4)),
            (n(&[100]), n(&[114]), Some(1_000_000)),
            (n(&[3995, 3998]), n(&[3, 9]), Some(5)),
        ];
        for (sources, targets, cap) in cases {
            let mut got = (0, 0);
            let meet = arcs_read(|| got = set_counts(&g, 5, &sources, &targets, cap, lo, hi));
            let mut counts = vec![0u64; g.num_nodes()];
            let flood = arcs_read(|| reach_counts(&g, 5, &sources, false, lo, hi, &mut counts));
            let want = world_set_moments(&g, 5, &sources, &targets, cap, lo, hi);
            assert_eq!(got, want, "{sources:?}->{targets:?} cap {cap:?}");
            assert!(got.0 > 0 && got.0 < hi - lo, "{got:?}");
            // Same counts as the per-world search, from a small fraction
            // of the arcs a flood from the sources reads.
            assert!(
                meet * 10 < flood,
                "{sources:?}->{targets:?} cap {cap:?}: meet {meet} arcs, flood {flood}"
            );
            if cap.is_none_or(|c| c > 100) {
                // A cap that never binds costs about what the loose meet
                // does: strict rounds add no arcs of their own.
                let mut hits = 0;
                let loose = arcs_read(|| hits = st_hits(&g, 5, &sources, &targets, lo, hi));
                assert_eq!(hits, got.0);
                assert!(meet < 2 * loose, "strict {meet} arcs, loose {loose}");
            }
        }
    }

    #[test]
    fn memo_misses_draw_only_the_live_lanes() {
        // Hashing all 64 lanes would cost 64 draws per miss. Most misses
        // come after most lanes of their block have settled, so they
        // draw a few lanes each.
        let g = ring_chords(4000);
        let (mut all_misses, mut all_draws) = (0, 0);
        for (s, t) in [(100u32, 108u32), (100, 114), (3995, 3)] {
            DRAWS.with(|d| d.set((0, 0)));
            st_hits(&g, 5, &[NodeId(s)], &[NodeId(t)], 0, 640);
            let (misses, draws) = DRAWS.with(|d| d.get());
            assert!(
                misses > 0 && draws < 64 * misses,
                "{s}->{t}: {draws} draws over {misses} misses"
            );
            all_misses += misses;
            all_draws += draws;
        }
        assert!(
            all_draws < 16 * all_misses,
            "{all_draws} draws over {all_misses} misses"
        );
    }

    #[test]
    fn possible_graph_settles_pairs_no_world_connects() {
        // Two 400-node rings joined by one arc, 0 → 450: with probability
        // 0 no world holds it, and the single-lane possible-graph meet
        // settles the range; with a tiny probability every block samples.
        let bridged = |p: f64| {
            let mut g = UncertainGraph::new(800, true);
            for base in [0u32, 400] {
                for v in 0..400 {
                    for j in 1..=2 {
                        let (a, b) = (base + v, base + (v + j) % 400);
                        g.add_edge(NodeId(a), NodeId(b), 0.9).unwrap();
                    }
                }
            }
            g.add_edge(NodeId(0), NodeId(450), p).unwrap();
            g
        };
        let (s, t, lo, hi) = (NodeId(10), NodeId(460), 3u64, 640u64);
        let mut arcs = Vec::new();
        for p in [0.0, 1e-9, 0.5] {
            let g = bridged(p);
            let mut counts = vec![0u64; g.num_nodes()];
            reach_counts(&g, 9, &[s], false, lo, hi, &mut counts);
            let mut hits = 0;
            arcs.push(arcs_read(|| hits = st_hits(&g, 9, &[s], &[t], lo, hi)));
            assert_eq!(hits, counts[t.index()], "p = {p}");
            assert_eq!(hits > 0, p == 0.5, "p = {p}");
        }
        // One lane of each ring versus ten blocks that flood them.
        assert!(arcs[0] * 5 < arcs[1], "arcs read: {arcs:?}");
        assert_eq!(st_hits(&bridged(0.0), 9, &[s], &[s], lo, hi), hi - lo);
    }

    /// Per-world multi-source level-synchronous BFS over stateless coins:
    /// the obviously-correct reference for the hop-bounded lane kernel.
    fn world_set_moments(
        g: &UncertainGraph,
        seed: u64,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        lo: u64,
        hi: u64,
    ) -> (u64, u64) {
        let cap = max_hops.unwrap_or(u32::MAX);
        let mut hits = 0u64;
        let mut depth_sum = 0u64;
        for sample in lo..hi {
            let mut dist = vec![u32::MAX; g.num_nodes()];
            let mut queue = std::collections::VecDeque::new();
            for &s in sources {
                if dist[s.index()] == u32::MAX {
                    dist[s.index()] = 0;
                    queue.push_back(s);
                }
            }
            let mut arrival = targets
                .iter()
                .filter(|t| dist[t.index()] == 0)
                .map(|_| 0u32)
                .min();
            while arrival.is_none() {
                let Some(v) = queue.pop_front() else { break };
                let dv = dist[v.index()];
                if dv >= cap {
                    continue;
                }
                let mut found = None;
                for a in g.out_arcs(v) {
                    let (u, th, c) = (a.node, a.thresh, a.coin);
                    if dist[u.index()] == u32::MAX && coin_raw(seed, sample, c) < th {
                        dist[u.index()] = dv + 1;
                        if targets.contains(&u) && found.is_none() {
                            found = Some(dv + 1);
                        }
                        queue.push_back(u);
                    }
                }
                arrival = found;
            }
            if let Some(d) = arrival {
                hits += 1;
                depth_sum += d as u64;
            }
        }
        (hits, depth_sum)
    }

    /// Cycle + shortcut + detour: distinct per-world hop distances, so
    /// depth accounting is actually exercised (a kernel that lets
    /// same-round deposits propagate early would undercount depths here).
    fn hoppy_graph() -> UncertainGraph {
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(2), NodeId(5), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(5), 0.2).unwrap(); // 1-hop shortcut
        g.add_edge(NodeId(0), NodeId(3), 0.4).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.8).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.8).unwrap();
        g.add_edge(NodeId(5), NodeId(0), 0.5).unwrap(); // cycle back
        g
    }

    #[test]
    fn hop_bounded_counts_match_per_world_bfs() {
        let g = hoppy_graph();
        let (s, t) = (NodeId(0), NodeId(5));
        for max_hops in [Some(0), Some(1), Some(2), Some(3), None] {
            for (lo, hi) in [(0u64, 64u64), (0, 130), (64, 131), (7, 20)] {
                let want = world_set_moments(&g, 13, &[s], &[t], max_hops, lo, hi);
                let got = set_counts(&g, 13, &[s], &[t], max_hops, lo, hi);
                assert_eq!(got, want, "max_hops={max_hops:?} range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn set_counts_match_per_world_bfs() {
        let g = hoppy_graph();
        let sources = [NodeId(0), NodeId(3)];
        let targets = [NodeId(2), NodeId(5)];
        for max_hops in [Some(1), Some(2), None] {
            for (lo, hi) in [(0u64, 64u64), (0, 200), (5, 70)] {
                let want = world_set_moments(&g, 29, &sources, &targets, max_hops, lo, hi);
                let got = set_counts(&g, 29, &sources, &targets, max_hops, lo, hi);
                assert_eq!(got, want, "max_hops={max_hops:?} range {lo}..{hi}");
            }
        }
        // Source ∩ target: every world hits at depth 0.
        let (hits, ds) = set_counts(&g, 29, &[NodeId(2)], &[NodeId(2)], Some(0), 0, 100);
        assert_eq!((hits, ds), (100, 0));
    }
}
