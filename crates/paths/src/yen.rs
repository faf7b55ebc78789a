//! Top-`l` most reliable simple paths (Yen's loopless algorithm).
//!
//! The paper's pipeline extracts the `l` most reliable paths between `s`
//! and `t` in the candidate-augmented graph `G⁺` (§5.1.2) and then selects
//! additions among the candidate edges those paths use. The reference
//! implementation cites Eppstein's k-shortest-paths; Eppstein's paths may
//! revisit nodes, which is useless for reachability (a non-simple walk is
//! dominated by the simple path it contains), so we enumerate loopless
//! paths with Yen's algorithm on `−log p` weights instead.
//!
//! # Output contract
//!
//! Simple, pairwise distinct (by node sequence) `s → t` paths of positive
//! probability, best first. A path's `prob` is computed the way Yen found
//! it: the product of its root's coin probabilities (multiplied in path
//! order) times `exp(−spur distance)`. Two paths of equal probability can
//! therefore report values a few ulps apart, and the list is nonincreasing
//! only up to that rounding (`0.015625` may follow
//! `0.015625000000000003`). Each `prob` agrees with the plain product of
//! the path's coin probabilities to that rounding.
//!
//! # Bound
//!
//! Each round accepts the best candidate in the pool. With `need = l −
//! accepted` paths still to accept, once the pool holds `need` candidates
//! its `need`-th best probability is a *floor*: the `need` candidates at or
//! above it outlast every remaining round, so a path strictly below it is
//! never accepted. A spur search therefore stops at the first settled node
//! whose root-relative probability `root_prob · exp(−w)` — the very
//! expression that would price its candidate — falls below the floor. The
//! floor only rises (accepting the pool's best leaves the `need`-th value
//! where it was), so it is re-read before every spur search.
//!
//! # Zero probability
//!
//! A path whose probability is `0.0` — unreachable through `p > 0` arcs,
//! or a long product that underflows — is never returned: the same stop
//! test ends a search whose `root_prob · exp(−w)` reaches `0.0`. Without
//! this rule a pair with few local paths accepts a path around the whole
//! graph next, and Yen then deviates at each of its nodes.
//!
//! # Ties
//!
//! Among pool candidates of equal probability the one generated first
//! (lowest insertion sequence number) is accepted first, whatever else the
//! pool holds. Dijkstra breaks equal-weight settles by node id, so the
//! whole output is a deterministic function of the graph and `(s, t, l)`.
//!
//! # Reuse
//!
//! One Dijkstra `Search` scratch (distances, parents, settled flags,
//! heap) and one banned-node bitmap serve every spur search of a call; a
//! search resets only what it touched, and each round sets and clears its
//! root nodes.

use crate::dijkstra::{ReliablePath, Search};
use relmax_ugraph::fxhash::FxHashSet;
use relmax_ugraph::{NodeId, ProbGraph};

/// The `l` most reliable simple paths from `s` to `t`, best first.
///
/// Returns fewer than `l` paths when the graph does not contain that many
/// distinct simple paths with positive probability. See the module docs
/// for the ordering, tie and zero-probability rules. `O(l · n ·
/// Dijkstra)` worst case.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_paths::top_l_reliable_paths;
///
/// let mut g = UncertainGraph::new(4, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
/// g.add_edge(NodeId(1), NodeId(3), 0.9).unwrap();
/// g.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
/// g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
/// let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(3), 5);
/// assert_eq!(paths.len(), 2);
/// assert!(paths[0].prob >= paths[1].prob);
/// ```
pub fn top_l_reliable_paths<G: ProbGraph>(
    g: &G,
    s: NodeId,
    t: NodeId,
    l: usize,
) -> Vec<ReliablePath> {
    if l == 0 {
        return Vec::new();
    }
    let mut search = Search::new(g.num_nodes());
    let Some(first) = search.run(g, s, t, 1.0, 0.0, |_, _| false) else {
        return Vec::new();
    };
    let mut pool = Pool::new(l - 1);
    // Every path ever generated, by node sequence.
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    seen.insert(first.nodes.iter().map(|n| n.0).collect());
    let mut accepted: Vec<ReliablePath> = Vec::with_capacity(l);
    accepted.push(first);
    let mut banned_nodes = vec![false; g.num_nodes()];
    let mut banned_coins: FxHashSet<u32> = FxHashSet::default();

    while accepted.len() < l {
        let prev = accepted.last().expect("at least one accepted path").clone();
        let mut root_prob = 1.0;
        // Deviate at every node of the previous path except t.
        for i in 0..prev.nodes.len() - 1 {
            if i > 0 {
                // Same fold as `product()` over the root's coins.
                root_prob *= g.coin_prob(prev.coins[i - 1]);
                // Ban root nodes (except the spur) to keep paths simple.
                banned_nodes[prev.nodes[i - 1].index()] = true;
            }
            if root_prob <= 0.0 {
                break;
            }
            let spur = prev.nodes[i];
            let root_nodes = &prev.nodes[..=i];
            // Ban coins that would recreate an already-known path sharing
            // this root.
            banned_coins.clear();
            for known in accepted.iter().chain(pool.entries.iter().map(|(p, _)| p)) {
                if known.nodes.len() > i && known.nodes[..=i] == *root_nodes {
                    if let Some(&c) = known.coins.get(i) {
                        banned_coins.insert(c);
                    }
                }
            }
            let Some(sp) = search.run(g, spur, t, root_prob, pool.floor(), |u, c| {
                banned_nodes[u.index()] || banned_coins.contains(&c)
            }) else {
                continue;
            };
            // Stitch root + spur.
            let mut nodes: Vec<NodeId> = root_nodes.to_vec();
            nodes.extend_from_slice(&sp.nodes[1..]);
            if !seen.insert(nodes.iter().map(|n| n.0).collect()) {
                continue;
            }
            let mut coins = prev.coins[..i].to_vec();
            coins.extend_from_slice(&sp.coins);
            pool.push(ReliablePath {
                nodes,
                coins,
                prob: sp.prob,
            });
        }
        for v in &prev.nodes {
            banned_nodes[v.index()] = false;
        }
        let Some(best) = pool.pop_best() else {
            break;
        };
        accepted.push(best);
    }
    accepted
}

/// Yen's candidate pool, with the running floor of the module docs.
struct Pool {
    /// Candidates with their insertion sequence numbers.
    entries: Vec<(ReliablePath, u64)>,
    next_seq: u64,
    /// Paths still to accept (`l − accepted`), this round's included.
    need: usize,
    /// The `min(need, len)` best candidate probabilities, descending.
    top: Vec<f64>,
}

impl Pool {
    fn new(need: usize) -> Pool {
        Pool {
            entries: Vec::new(),
            next_seq: 0,
            need,
            top: Vec::new(),
        }
    }

    /// The `need`-th best candidate probability, or 0 while fewer than
    /// `need` candidates exist.
    fn floor(&self) -> f64 {
        self.need
            .checked_sub(1)
            .and_then(|i| self.top.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    fn push(&mut self, path: ReliablePath) {
        let pos = self.top.partition_point(|&q| q >= path.prob);
        if pos < self.need {
            self.top.insert(pos, path.prob);
            self.top.truncate(self.need);
        }
        self.entries.push((path, self.next_seq));
        self.next_seq += 1;
    }

    /// Removes the best candidate: highest probability, then lowest
    /// sequence number.
    fn pop_best(&mut self) -> Option<ReliablePath> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .max_by(|(_, (a, sa)), (_, (b, sb))| {
                a.prob
                    .partial_cmp(&b.prob)
                    .expect("path probabilities are never NaN")
                    .then_with(|| sb.cmp(sa))
            })
            .map(|(i, _)| i)?;
        // The best candidate's probability heads `top`; dropping it keeps
        // the `need - 1` best, so the floor does not move.
        self.top.remove(0);
        self.need -= 1;
        Some(self.entries.swap_remove(best).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{most_reliable_path, most_reliable_path_filtered};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relmax_ugraph::{ExtraEdge, GraphView, UncertainGraph};

    /// All simple paths by brute-force DFS, for cross-checking.
    fn all_simple_paths<G: ProbGraph>(g: &G, s: NodeId, t: NodeId) -> Vec<(Vec<NodeId>, f64)> {
        fn dfs<G: ProbGraph>(
            g: &G,
            v: NodeId,
            t: NodeId,
            path: &mut Vec<NodeId>,
            prob: f64,
            out: &mut Vec<(Vec<NodeId>, f64)>,
        ) {
            if v == t {
                out.push((path.clone(), prob));
                return;
            }
            for a in g.out_arcs(v) {
                if a.prob > 0.0 && !path.contains(&a.node) {
                    path.push(a.node);
                    dfs(g, a.node, t, path, prob * a.prob, out);
                    path.pop();
                }
            }
        }
        let mut out = Vec::new();
        let mut path = vec![s];
        dfs(g, s, t, &mut path, 1.0, &mut out);
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out
    }

    fn diamond_plus() -> UncertainGraph {
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(4), 0.9).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
        g.add_edge(NodeId(2), NodeId(4), 0.8).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.7).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let g = diamond_plus();
        let truth = all_simple_paths(&g, NodeId(0), NodeId(4));
        let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(4), truth.len() + 5);
        assert_eq!(paths.len(), truth.len());
        for (got, want) in paths.iter().zip(&truth) {
            assert!(
                (got.prob - want.1).abs() < 1e-12,
                "got {:?} want {:?}",
                got.prob,
                want.1
            );
        }
    }

    #[test]
    fn paths_are_sorted_distinct_and_simple() {
        let g = diamond_plus();
        let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(4), 10);
        for w in paths.windows(2) {
            assert!(w[0].prob >= w[1].prob - 1e-12);
            assert_ne!(w[0].nodes, w[1].nodes);
        }
        for p in &paths {
            assert!(p.is_simple(), "non-simple path {:?}", p.nodes);
            assert_eq!(p.nodes.first(), Some(&NodeId(0)));
            assert_eq!(p.nodes.last(), Some(&NodeId(4)));
            // Coin/product consistency.
            let prod: f64 = p
                .coins
                .iter()
                .map(|&c| g.prob(relmax_ugraph::EdgeId(c)))
                .product();
            assert!((prod - p.prob).abs() < 1e-12);
        }
    }

    #[test]
    fn respects_l_budget() {
        let g = diamond_plus();
        assert_eq!(top_l_reliable_paths(&g, NodeId(0), NodeId(4), 2).len(), 2);
        assert!(top_l_reliable_paths(&g, NodeId(0), NodeId(4), 0).is_empty());
        assert_eq!(top_l_reliable_paths(&g, NodeId(0), NodeId(4), 1).len(), 1);
    }

    #[test]
    fn disconnected_yields_nothing() {
        let g = UncertainGraph::new(3, true);
        assert!(top_l_reliable_paths(&g, NodeId(0), NodeId(2), 5).is_empty());
    }

    #[test]
    fn undirected_enumeration_matches_brute_force_count() {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.6).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.4).unwrap();
        let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(3), 10);
        // 0-1-3, 0-2-3, 0-1-2-3, 0-2-1-3: all four simple paths.
        assert_eq!(paths.len(), 4);
        assert!((paths[0].prob - 0.36).abs() < 1e-12);
    }

    #[test]
    fn single_edge_graph() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.3).unwrap();
        let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(1), 3);
        assert_eq!(paths.len(), 1);
        assert!((paths[0].prob - 0.3).abs() < 1e-12);
    }

    #[test]
    fn equal_probabilities_go_to_the_earlier_candidate() {
        // A = 0-1-5-3 (p = 1) spurs X = 0-2-3 (0.9), then Y = 0-1-4-3 and
        // Z = 0-1-5-6-3 (both 0.5). Accepting X leaves Y and Z tied; Y
        // was generated first, whatever order the pool keeps them in.
        let mut g = UncertainGraph::new(7, true);
        for (u, v, p) in [
            (0, 1, 1.0),
            (1, 5, 1.0),
            (5, 3, 1.0),
            (0, 2, 0.9),
            (2, 3, 1.0),
            (1, 4, 0.5),
            (4, 3, 1.0),
            (5, 6, 0.5),
            (6, 3, 1.0),
        ] {
            g.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
        let nodes: Vec<Vec<u32>> = top_l_reliable_paths(&g, NodeId(0), NodeId(3), 4)
            .iter()
            .map(|p| p.nodes.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(
            nodes,
            vec![
                vec![0, 1, 5, 3],
                vec![0, 2, 3],
                vec![0, 1, 4, 3],
                vec![0, 1, 5, 6, 3]
            ]
        );
    }

    #[test]
    fn underflowing_paths_are_never_returned() {
        // 0 -> 1 -> ... -> 1200 at p = 0.5 (product 2^-1200 underflows to
        // 0.0) beside the short route 0 -> 1201 -> 1200.
        let mut g = UncertainGraph::new(1202, true);
        for v in 0..1200 {
            g.add_edge(NodeId(v), NodeId(v + 1), 0.5).unwrap();
        }
        g.add_edge(NodeId(0), NodeId(1201), 0.3).unwrap();
        g.add_edge(NodeId(1201), NodeId(1200), 0.3).unwrap();
        let paths = top_l_reliable_paths(&g, NodeId(0), NodeId(1200), 5);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![NodeId(0), NodeId(1201), NodeId(1200)]);
        assert!((paths[0].prob - 0.09).abs() < 1e-12);
        // Only the chain reaches 1199: its sole path underflows.
        assert!(top_l_reliable_paths(&g, NodeId(0), NodeId(1199), 5).is_empty());
        assert!(most_reliable_path(&g, NodeId(0), NodeId(1199)).is_none());
    }

    /// Yen without the pool bound or the shared scratch: every spur search
    /// runs to completion and equal probabilities go to the lower pool
    /// position. The reference the bounded search must reproduce.
    fn unbounded_yen<G: ProbGraph>(g: &G, s: NodeId, t: NodeId, l: usize) -> Vec<ReliablePath> {
        if l == 0 {
            return Vec::new();
        }
        let mut accepted: Vec<ReliablePath> = Vec::with_capacity(l);
        match most_reliable_path(g, s, t) {
            Some(p) => accepted.push(p),
            None => return Vec::new(),
        }
        let mut candidates: Vec<ReliablePath> = Vec::new();
        let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
        seen.insert(accepted[0].nodes.iter().map(|n| n.0).collect());
        while accepted.len() < l {
            let prev = accepted.last().unwrap().clone();
            for i in 0..prev.nodes.len() - 1 {
                let spur = prev.nodes[i];
                let root_nodes = &prev.nodes[..=i];
                let root_coins = &prev.coins[..i];
                let root_prob: f64 = root_coins.iter().map(|&c| g.coin_prob(c)).product();
                if root_prob <= 0.0 {
                    continue;
                }
                let mut banned_coins: FxHashSet<u32> = FxHashSet::default();
                for known in accepted.iter().chain(candidates.iter()) {
                    if known.nodes.len() > i && known.nodes[..=i] == *root_nodes {
                        if let Some(&c) = known.coins.get(i) {
                            banned_coins.insert(c);
                        }
                    }
                }
                let mut banned_nodes = vec![false; g.num_nodes()];
                for &v in &root_nodes[..i] {
                    banned_nodes[v.index()] = true;
                }
                let Some(sp) = most_reliable_path_filtered(
                    g,
                    spur,
                    t,
                    |v| banned_nodes[v.index()],
                    |c| banned_coins.contains(&c),
                ) else {
                    continue;
                };
                let mut nodes: Vec<NodeId> = root_nodes.to_vec();
                nodes.extend_from_slice(&sp.nodes[1..]);
                if !seen.insert(nodes.iter().map(|n| n.0).collect()) {
                    continue;
                }
                let mut coins = root_coins.to_vec();
                coins.extend_from_slice(&sp.coins);
                candidates.push(ReliablePath {
                    nodes,
                    coins,
                    prob: root_prob * sp.prob,
                });
            }
            let Some(best_idx) = candidates
                .iter()
                .enumerate()
                .max_by(|(ai, a), (bi, b)| {
                    a.prob
                        .partial_cmp(&b.prob)
                        .unwrap()
                        .then_with(|| bi.cmp(ai))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            accepted.push(candidates.swap_remove(best_idx));
        }
        accepted
    }

    /// A seeded graph of `n` nodes with an overlay of candidate edges on
    /// unconnected pairs. Quantized probabilities come from {0.25, 0.5,
    /// 0.75, 1}, so many paths tie; continuous ones make ties unlikely.
    /// Both kinds include some `p = 0` edges.
    fn random_case(
        rng: &mut StdRng,
        n: usize,
        quantized: bool,
    ) -> (UncertainGraph, Vec<ExtraEdge>) {
        let directed = rng.gen_bool(0.5);
        let draw = |rng: &mut StdRng| {
            if rng.gen_bool(0.05) {
                0.0
            } else if quantized {
                [0.25, 0.5, 0.75, 1.0][rng.gen_range(0..4usize)]
            } else {
                rng.gen_range(0.05..1.0)
            }
        };
        let mut g = UncertainGraph::new(n, directed);
        let mut used: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut pair = |rng: &mut StdRng| {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            let key = if directed {
                (u, v)
            } else {
                (u.min(v), u.max(v))
            };
            (u != v && used.insert(key)).then_some((NodeId(u), NodeId(v)))
        };
        for _ in 0..rng.gen_range(n..=3 * n) {
            if let Some((u, v)) = pair(rng) {
                g.add_edge(u, v, draw(rng)).unwrap();
            }
        }
        let mut extra = Vec::new();
        for _ in 0..rng.gen_range(0..=n / 2) {
            if let Some((src, dst)) = pair(rng) {
                extra.push(ExtraEdge {
                    src,
                    dst,
                    prob: draw(rng),
                });
            }
        }
        (g, extra)
    }

    /// Simple, distinct, positive, `s → t`, arcs that exist, and a `prob`
    /// consistent with the coin product.
    fn assert_well_formed<G: ProbGraph>(g: &G, s: NodeId, t: NodeId, paths: &[ReliablePath]) {
        let mut keys: Vec<&[NodeId]> = paths.iter().map(|p| &p.nodes[..]).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), paths.len(), "duplicate paths");
        for p in paths {
            assert!(p.is_simple(), "non-simple path {:?}", p.nodes);
            assert_eq!((p.nodes[0], *p.nodes.last().unwrap()), (s, t));
            assert_eq!(p.coins.len() + 1, p.nodes.len());
            assert!(p.prob > 0.0);
            for (w, &c) in p.nodes.windows(2).zip(&p.coins) {
                assert!(g.out_arcs(w[0]).any(|a| a.node == w[1] && a.coin == c));
            }
            let prod: f64 = p.coins.iter().map(|&c| g.coin_prob(c)).product();
            assert!((prod - p.prob).abs() < 1e-12, "{prod} vs {}", p.prob);
        }
    }

    fn sorted_probs(paths: &[ReliablePath]) -> Vec<f64> {
        let mut probs: Vec<f64> = paths.iter().map(|p| p.prob).collect();
        probs.sort_by(|a, b| b.total_cmp(a));
        probs
    }

    fn assert_probs_close(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() < 1e-12, "{what}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn bounded_search_matches_unbounded_yen_and_brute_force() {
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = if case % 2 == 0 {
                rng.gen_range(6..=10)
            } else {
                rng.gen_range(11..=30)
            };
            let quantized = case % 4 >= 2;
            let (g, extra) = random_case(&mut rng, n, quantized);
            let view = GraphView::new(&g, extra);
            let s = NodeId(rng.gen_range(0..n as u32));
            let t = NodeId((s.0 + rng.gen_range(1..n as u32)) % n as u32);
            let truth = (n <= 10).then(|| {
                let mut probs: Vec<f64> = all_simple_paths(&view, s, t)
                    .into_iter()
                    .map(|(_, p)| p)
                    .filter(|&p| p > 0.0)
                    .collect();
                probs.sort_by(|a, b| b.total_cmp(a));
                probs
            });
            for l in [1, 3, 7, 12, 30] {
                let what = format!("case {case} (n {n}, quantized {quantized}) l {l}");
                let got = top_l_reliable_paths(&view, s, t, l);
                let want = unbounded_yen(&view, s, t, l);
                assert_well_formed(&view, s, t, &got);
                if quantized {
                    assert_probs_close(&sorted_probs(&got), &sorted_probs(&want), &what);
                } else {
                    let bits = |ps: &[ReliablePath]| -> Vec<_> {
                        ps.iter()
                            .map(|p| (p.nodes.clone(), p.coins.clone(), p.prob.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
                if let Some(truth) = &truth {
                    let top = &truth[..l.min(truth.len())];
                    assert_probs_close(&sorted_probs(&got), top, &what);
                }
            }
        }
    }
}
