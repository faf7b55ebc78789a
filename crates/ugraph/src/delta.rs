//! First-class delta overlays over frozen [`CsrGraph`] snapshots.
//!
//! A [`DeltaOverlay`] applies edge insertions, probability updates, and
//! deletions on top of an immutable CSR snapshot **without re-freezing**.
//! The coin-id contract is the product guarantee extended to mutation:
//!
//! * every unchanged edge keeps its coin id (and threshold) verbatim, so
//!   its coin stream — and therefore every sampled world restricted to
//!   untouched edges — is bit-identical to the base snapshot's;
//! * an inserted edge draws from a fresh coin appended after every coin
//!   the overlay has ever allocated (`base coins + k` for the `k`-th
//!   append), deterministic for a given update sequence;
//! * a probability update **retires** the old coin and appends a fresh
//!   one (never rewrites in place), so no existing coin stream is
//!   perturbed;
//! * a deletion retires the edge's coin. Retired coins stay allocated —
//!   with their original probability and endpoints, referenced by zero
//!   arcs — so every other coin id is stable.
//!
//! Because of this discipline, [`DeltaOverlay::compact`] (a plain
//! [`CsrGraph::freeze`] of the overlay) produces a snapshot that is
//! **equal**, arrays and coin table included, to re-freezing an
//! [`crate::UncertainGraph`] mutated by the same update sequence via
//! [`crate::UncertainGraph::delete_edge`] /
//! [`crate::UncertainGraph::update_edge`] / `add_edge` — the
//! overlay-vs-refreeze equivalence the dynamic test suite locks down.
//!
//! The overlay implements [`ProbGraph`], so every estimator (scalar and
//! lane-packed Monte Carlo, RSS) samples it directly; base arcs stream
//! from the CSR arrays with a retired-coin filter, appended arcs from
//! small per-node buckets (the [`crate::GraphView`] idiom).

use crate::csr::{CsrArcs, CsrGraph};
use crate::error::GraphError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::view::{Buckets, ExtraArcs, ExtraEdge};
use crate::{CoinId, NodeId, ProbGraph};
use std::fmt;
use std::sync::Arc;

/// One edge-level mutation of an uncertain graph.
///
/// Updates are edge-level only: node ids must already exist in the base
/// snapshot. For undirected graphs the `(src, dst)` pair is normalized,
/// so either orientation addresses the same edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphUpdate {
    /// Add the edge `src -> dst` (must not exist) with probability `prob`.
    Insert {
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
        /// Existence probability in `[0, 1]`.
        prob: f64,
    },
    /// Replace the probability of the existing edge `src -> dst`: its old
    /// coin is retired and a fresh coin is appended.
    SetProb {
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
        /// The new existence probability in `[0, 1]`.
        prob: f64,
    },
    /// Remove the existing edge `src -> dst` (its coin is retired).
    Delete {
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
    },
}

/// A mutable delta of edge updates layered over a frozen [`CsrGraph`].
///
/// ```
/// use relmax_ugraph::{DeltaOverlay, GraphUpdate, NodeId, ProbGraph, UncertainGraph};
/// use std::sync::Arc;
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// let base = Arc::new(g.freeze());
/// let mut delta = DeltaOverlay::new(base);
/// delta
///     .apply(&[GraphUpdate::Insert {
///         src: NodeId(1),
///         dst: NodeId(2),
///         prob: 0.8,
///     }])
///     .unwrap();
/// assert_eq!(delta.num_coins(), 2); // base coin 0 untouched, new coin 1
/// assert_eq!(delta.coin_prob(1), 0.8);
///
/// // Folding the overlay is bit-identical to re-freezing the mutated graph.
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// assert!(delta.compact() == g.freeze());
/// ```
#[derive(Clone)]
pub struct DeltaOverlay {
    base: Arc<CsrGraph>,
    /// Coins appended by this overlay; coin `base_coins + i` is edge `i`.
    /// Retired appends stay (unlinked, with their probability at append
    /// time) so later coin ids never shift.
    added: Buckets,
    /// Bitset over base coins: retired (deleted or re-probed) base edges.
    retired: Vec<u64>,
    /// Live edges by (normalized) node pair -> current coin id.
    pairs: FxHashMap<(u32, u32), CoinId>,
    /// Every node incident to any applied update (for index bypass).
    touched: FxHashSet<u32>,
    inserted: usize,
    reprobed: usize,
    deleted: usize,
}

impl DeltaOverlay {
    /// An empty overlay over `base` (queries are bit-identical to the base
    /// snapshot until updates are applied).
    pub fn new(base: Arc<CsrGraph>) -> Self {
        let n = ProbGraph::num_nodes(base.as_ref());
        let m = ProbGraph::num_coins(base.as_ref());
        let directed = ProbGraph::is_directed(base.as_ref());
        // Live edges only: the base coin table also carries coins retired
        // before the freeze (tombstoned edges, prior compactions), which
        // keep their endpoints but are referenced by zero arcs. Walking
        // the adjacency instead of the coin table skips them, so a
        // retired pair can be re-inserted through the overlay.
        let mut pairs = FxHashMap::default();
        pairs.reserve(m);
        for v in 0..n as u32 {
            for a in ProbGraph::out_arcs(base.as_ref(), NodeId(v)) {
                let u = a.node.0;
                let key = if directed || v <= u { (v, u) } else { (u, v) };
                pairs.insert(key, a.coin);
            }
        }
        DeltaOverlay {
            base,
            added: Buckets::new(n, directed),
            retired: vec![0u64; m.div_ceil(64)],
            pairs,
            touched: FxHashSet::default(),
            inserted: 0,
            reprobed: 0,
            deleted: 0,
        }
    }

    /// The frozen snapshot this overlay is layered over.
    #[inline]
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Number of coins in the base snapshot (appended coins start here).
    #[inline]
    fn base_coins(&self) -> usize {
        ProbGraph::num_coins(self.base.as_ref())
    }

    #[inline]
    fn key(&self, u: NodeId, v: NodeId) -> (u32, u32) {
        if ProbGraph::is_directed(self.base.as_ref()) || u.0 <= v.0 {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }

    fn check(&self, u: NodeId, v: NodeId, prob: Option<f64>) -> Result<(), GraphError> {
        let n = ProbGraph::num_nodes(self.base.as_ref());
        for node in [u, v] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node: node.0,
                    num_nodes: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.0 });
        }
        if let Some(p) = prob {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(GraphError::InvalidProbability { prob: p });
            }
        }
        Ok(())
    }

    /// Retire `coin` (a base coin or a live appended one).
    fn retire(&mut self, coin: CoinId) {
        let m = self.base_coins();
        if (coin as usize) < m {
            self.retired[(coin >> 6) as usize] |= 1 << (coin & 63);
            return;
        }
        self.added.unlink(coin - m as CoinId);
    }

    /// Append a live edge and return its (fresh) coin id.
    fn push_added(&mut self, src: NodeId, dst: NodeId, prob: f64) -> CoinId {
        self.base_coins() as CoinId + self.added.push(ExtraEdge { src, dst, prob })
    }

    fn touch(&mut self, u: NodeId, v: NodeId) {
        self.touched.insert(u.0);
        self.touched.insert(v.0);
    }

    /// Apply one update. Each update is atomic: on error the overlay is
    /// unchanged. Validation mirrors [`crate::UncertainGraph::add_edge`]:
    /// node bounds, self-loops, probability range, duplicate / missing
    /// pairs.
    pub fn apply_one(&mut self, update: &GraphUpdate) -> Result<(), GraphError> {
        match *update {
            GraphUpdate::Insert { src, dst, prob } => {
                self.check(src, dst, Some(prob))?;
                let key = self.key(src, dst);
                if self.pairs.contains_key(&key) {
                    return Err(GraphError::DuplicateEdge {
                        src: src.0,
                        dst: dst.0,
                    });
                }
                let coin = self.push_added(src, dst, prob);
                self.pairs.insert(key, coin);
                self.touch(src, dst);
                self.inserted += 1;
            }
            GraphUpdate::SetProb { src, dst, prob } => {
                self.check(src, dst, Some(prob))?;
                let key = self.key(src, dst);
                let Some(&old) = self.pairs.get(&key) else {
                    return Err(GraphError::MissingEdge {
                        src: src.0,
                        dst: dst.0,
                    });
                };
                self.retire(old);
                let coin = self.push_added(src, dst, prob);
                self.pairs.insert(key, coin);
                self.touch(src, dst);
                self.reprobed += 1;
            }
            GraphUpdate::Delete { src, dst } => {
                self.check(src, dst, None)?;
                let key = self.key(src, dst);
                let Some(old) = self.pairs.remove(&key) else {
                    return Err(GraphError::MissingEdge {
                        src: src.0,
                        dst: dst.0,
                    });
                };
                self.retire(old);
                self.touch(src, dst);
                self.deleted += 1;
            }
        }
        Ok(())
    }

    /// Apply a sequence of updates, stopping at the first invalid one
    /// (updates before it remain applied; callers that need request-level
    /// atomicity apply to a clone and discard on error).
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<(), GraphError> {
        for u in updates {
            self.apply_one(u)?;
        }
        Ok(())
    }

    /// Whether the live edge `u -> v` exists (base or appended, normalized
    /// for undirected graphs).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.pairs.contains_key(&self.key(u, v))
    }

    /// Number of updates applied so far (`inserted + reprobed + deleted`).
    #[inline]
    pub fn pending(&self) -> usize {
        self.inserted + self.reprobed + self.deleted
    }

    /// Whether no updates have been applied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Applied update counts: `(inserted, reprobed, deleted)`.
    #[inline]
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.inserted, self.reprobed, self.deleted)
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.pairs.len()
    }

    /// Every node incident to any applied update, in unspecified order.
    /// The engine's index bypass checks these against the queried
    /// components: an update whose endpoints all lie outside `comp(s)` and
    /// `comp(t)` cannot change `R(s, t)` (possible-graph components have
    /// no crossing edges in any world, and an insert bridging the two
    /// components has an endpoint *in* them).
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched.iter().map(|&v| NodeId(v))
    }

    /// Fold the overlay into a fresh frozen snapshot.
    ///
    /// This is a plain [`CsrGraph::freeze`] of the overlay, so the result
    /// preserves every coin id — retired coins keep their table entry
    /// (original probability, zero arcs) and the compacted snapshot
    /// answers every query bit-identically to the overlay.
    pub fn compact(&self) -> CsrGraph {
        CsrGraph::freeze(self)
    }
}

impl fmt::Debug for DeltaOverlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaOverlay")
            .field("base_coins", &self.base_coins())
            .field("inserted", &self.inserted)
            .field("reprobed", &self.reprobed)
            .field("deleted", &self.deleted)
            .finish()
    }
}

/// The base CSR arcs of one [`DeltaOverlay`] neighbourhood with retired
/// coins filtered out. [`ProbGraph::out_arcs`] chains the node's live
/// appended arcs after them.
pub struct LiveArcs<'a> {
    base: CsrArcs<'a>,
    retired: &'a [u64],
}

impl Iterator for LiveArcs<'_> {
    type Item = crate::Arc;

    #[inline]
    fn next(&mut self) -> Option<crate::Arc> {
        let retired = self.retired;
        self.base
            .find(|a| (retired[(a.coin >> 6) as usize] >> (a.coin & 63)) & 1 == 0)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.base.size_hint().1)
    }
}

impl DeltaOverlay {
    #[inline]
    fn arcs<'a>(
        &'a self,
        v: NodeId,
        base: CsrArcs<'a>,
        inn: bool,
    ) -> <Self as ProbGraph>::Arcs<'a> {
        let retired = &self.retired;
        let added = self.added.arcs(v, inn, self.base_coins());
        LiveArcs { base, retired }.chain(added)
    }
}

impl ProbGraph for DeltaOverlay {
    type Arcs<'a> = std::iter::Chain<LiveArcs<'a>, ExtraArcs<'a>>;

    #[inline]
    fn num_nodes(&self) -> usize {
        ProbGraph::num_nodes(self.base.as_ref())
    }

    #[inline]
    fn num_coins(&self) -> usize {
        self.base_coins() + self.added.edges.len()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        ProbGraph::is_directed(self.base.as_ref())
    }

    #[inline]
    fn out_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        self.arcs(v, ProbGraph::out_arcs(self.base.as_ref(), v), false)
    }

    #[inline]
    fn in_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        self.arcs(v, ProbGraph::in_arcs(self.base.as_ref(), v), true)
    }

    #[inline]
    fn coin_prob(&self, c: CoinId) -> f64 {
        let m = self.base_coins();
        if (c as usize) < m {
            ProbGraph::coin_prob(self.base.as_ref(), c)
        } else {
            self.added.edges[c as usize - m].prob
        }
    }

    #[inline]
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        let m = self.base_coins();
        if (c as usize) < m {
            ProbGraph::coin_endpoints(self.base.as_ref(), c)
        } else {
            let e = &self.added.edges[c as usize - m];
            (e.src, e.dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UncertainGraph;

    fn diamond(directed: bool) -> UncertainGraph {
        let mut g = UncertainGraph::new(5, directed);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        g
    }

    /// Out- and in-arcs of `v`, whole records: comparing them compares
    /// thresholds too.
    fn collect_arcs<G: ProbGraph>(g: &G, v: NodeId) -> (Vec<crate::Arc>, Vec<crate::Arc>) {
        (g.out_arcs(v).collect(), g.in_arcs(v).collect())
    }

    /// Apply `updates` to both an overlay and a mirror mutable graph;
    /// assert the overlay's arcs, coin table, and compaction are identical
    /// to the mirror's.
    fn assert_overlay_equals_refreeze(mut mirror: UncertainGraph, updates: &[GraphUpdate]) {
        let base = Arc::new(mirror.freeze());
        let mut delta = DeltaOverlay::new(base);
        for u in updates {
            delta.apply_one(u).unwrap();
            match *u {
                GraphUpdate::Insert { src, dst, prob } => {
                    mirror.add_edge(src, dst, prob).unwrap();
                }
                GraphUpdate::SetProb { src, dst, prob } => {
                    mirror.update_edge(src, dst, prob).unwrap();
                }
                GraphUpdate::Delete { src, dst } => {
                    mirror.delete_edge(src, dst).unwrap();
                }
            }
        }
        assert_eq!(ProbGraph::num_coins(&delta), mirror.num_coins());
        assert_eq!(delta.num_edges(), mirror.num_edges());
        for c in 0..mirror.num_coins() as u32 {
            assert_eq!(
                ProbGraph::coin_prob(&delta, c),
                ProbGraph::coin_prob(&mirror, c),
                "coin {c} prob"
            );
            assert_eq!(
                ProbGraph::coin_endpoints(&delta, c),
                ProbGraph::coin_endpoints(&mirror, c),
                "coin {c} endpoints"
            );
        }
        for v in 0..ProbGraph::num_nodes(&delta) as u32 {
            assert_eq!(
                collect_arcs(&delta, NodeId(v)),
                collect_arcs(&mirror, NodeId(v)),
                "arcs of node {v}"
            );
        }
        // The strongest form: folding the overlay equals a full re-freeze.
        assert!(
            delta.compact() == mirror.freeze(),
            "compact != refreeze for {updates:?}"
        );
    }

    #[test]
    fn insert_update_delete_match_refreeze_directed() {
        assert_overlay_equals_refreeze(
            diamond(true),
            &[
                GraphUpdate::Insert {
                    src: NodeId(3),
                    dst: NodeId(4),
                    prob: 0.9,
                },
                GraphUpdate::SetProb {
                    src: NodeId(0),
                    dst: NodeId(1),
                    prob: 0.25,
                },
                GraphUpdate::Delete {
                    src: NodeId(0),
                    dst: NodeId(2),
                },
                // Re-insert a deleted pair: a brand-new coin.
                GraphUpdate::Insert {
                    src: NodeId(0),
                    dst: NodeId(2),
                    prob: 0.4,
                },
                // Re-probe an appended edge.
                GraphUpdate::SetProb {
                    src: NodeId(3),
                    dst: NodeId(4),
                    prob: 0.1,
                },
                // Delete an appended edge.
                GraphUpdate::Delete {
                    src: NodeId(0),
                    dst: NodeId(2),
                },
            ],
        );
    }

    #[test]
    fn insert_update_delete_match_refreeze_undirected() {
        assert_overlay_equals_refreeze(
            diamond(false),
            &[
                GraphUpdate::SetProb {
                    // Reverse orientation addresses the same undirected edge.
                    src: NodeId(1),
                    dst: NodeId(0),
                    prob: 0.33,
                },
                GraphUpdate::Insert {
                    src: NodeId(4),
                    dst: NodeId(2),
                    prob: 0.7,
                },
                GraphUpdate::Delete {
                    src: NodeId(3),
                    dst: NodeId(1),
                },
            ],
        );
    }

    #[test]
    fn base_retired_coins_do_not_block_reinsertion() {
        // A coin retired *before* the freeze (tombstoned edge, or a prior
        // overlay compaction) keeps its coin-table entry but has no arcs;
        // the overlay must treat the pair as free for re-insertion.
        let mut g = diamond(true);
        g.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let base = Arc::new(g.freeze());
        let mut delta = DeltaOverlay::new(base);
        assert!(!delta.has_edge(NodeId(0), NodeId(2)));
        delta
            .apply_one(&GraphUpdate::Insert {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.9,
            })
            .unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.9).unwrap();
        assert!(delta.compact() == g.freeze());
    }

    /// `freeze(thaw(c)) == c` on seeded `compact` outputs: the premise
    /// under which a thawed graph and the snapshot it came from present
    /// the same arcs. A retired coin keeps its coin-table entry without
    /// arcs, so `thaw` refuses every snapshot with one
    /// (`GraphError::RetiredCoin`) instead of bringing a deleted edge back
    /// or failing on a re-probed pair as a duplicate.
    #[test]
    fn thaw_round_trips_compactions_without_retired_coins() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7ea_5eed);
        let (mut round_trips, mut refused) = (0, 0);
        for case in 0..200 {
            let directed = case % 2 == 0;
            let n = rng.gen_range(3..12u32);
            let mut g = UncertainGraph::new(n as usize, directed);
            for _ in 0..rng.gen_range(0..3 * n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.05..1.0));
            }
            let mut delta = DeltaOverlay::new(Arc::new(g.freeze()));
            let insert_only = case % 4 < 2;
            let mut retired = 0;
            for _ in 0..rng.gen_range(1..2 * n) {
                let (src, dst) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                let prob = rng.gen_range(0.05..1.0);
                let update = match rng.gen_range(0..3) {
                    _ if insert_only || !delta.has_edge(src, dst) => {
                        GraphUpdate::Insert { src, dst, prob }
                    }
                    0 => GraphUpdate::Insert { src, dst, prob },
                    1 => GraphUpdate::SetProb { src, dst, prob },
                    _ => GraphUpdate::Delete { src, dst },
                };
                if delta.apply_one(&update).is_ok() && !matches!(update, GraphUpdate::Insert { .. })
                {
                    retired += 1;
                }
            }
            let c = delta.compact();
            match c.thaw() {
                Ok(thawed) => {
                    assert_eq!(retired, 0, "case {case}: thawed past retired coins");
                    assert!(thawed.freeze() == c, "case {case}: round trip changed arcs");
                    round_trips += 1;
                }
                Err(e) => {
                    assert!(retired > 0, "case {case}: {e}");
                    assert!(matches!(e, GraphError::RetiredCoin { .. }), "{e}");
                    refused += 1;
                }
            }
        }
        assert!(round_trips >= 90 && refused > 0);
    }

    #[test]
    fn empty_overlay_compacts_to_the_base_snapshot() {
        let g = diamond(true);
        let base = Arc::new(g.freeze());
        let delta = DeltaOverlay::new(base.clone());
        assert!(delta.is_empty());
        assert!(delta.compact() == *base);
    }

    #[test]
    fn validation_mirrors_uncertain_graph() {
        let base = Arc::new(diamond(true).freeze());
        let mut delta = DeltaOverlay::new(base);
        let ins = |src, dst, prob| GraphUpdate::Insert {
            src: NodeId(src),
            dst: NodeId(dst),
            prob,
        };
        assert!(matches!(
            delta.apply_one(&ins(0, 9, 0.5)),
            Err(GraphError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(matches!(
            delta.apply_one(&ins(2, 2, 0.5)),
            Err(GraphError::SelfLoop { node: 2 })
        ));
        assert!(matches!(
            delta.apply_one(&ins(3, 4, 1.5)),
            Err(GraphError::InvalidProbability { .. })
        ));
        assert!(matches!(
            delta.apply_one(&ins(0, 1, 0.5)),
            Err(GraphError::DuplicateEdge { src: 0, dst: 1 })
        ));
        assert!(matches!(
            delta.apply_one(&GraphUpdate::Delete {
                src: NodeId(1),
                dst: NodeId(2),
            }),
            Err(GraphError::MissingEdge { src: 1, dst: 2 })
        ));
        assert!(matches!(
            delta.apply_one(&GraphUpdate::SetProb {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.5,
            }),
            Err(GraphError::MissingEdge { .. })
        ));
        // Nothing was applied.
        assert!(delta.is_empty());
        assert!(delta.touched_nodes().next().is_none());
    }

    #[test]
    fn counters_and_touched_nodes_track_updates() {
        let base = Arc::new(diamond(true).freeze());
        let mut delta = DeltaOverlay::new(base);
        delta
            .apply(&[
                GraphUpdate::Insert {
                    src: NodeId(3),
                    dst: NodeId(4),
                    prob: 0.5,
                },
                GraphUpdate::SetProb {
                    src: NodeId(0),
                    dst: NodeId(1),
                    prob: 0.2,
                },
                GraphUpdate::Delete {
                    src: NodeId(2),
                    dst: NodeId(3),
                },
            ])
            .unwrap();
        assert_eq!(delta.counts(), (1, 1, 1));
        assert_eq!(delta.pending(), 3);
        let mut touched: Vec<u32> = delta.touched_nodes().map(|v| v.0).collect();
        touched.sort_unstable();
        assert_eq!(touched, vec![0, 1, 2, 3, 4]);
        assert!(delta.has_edge(NodeId(3), NodeId(4)));
        assert!(!delta.has_edge(NodeId(2), NodeId(3)));
    }
}
