//! Probability-oblivious traversal utilities shared across the workspace:
//! BFS hop distances, h-hop neighborhoods, and world-restricted reachability.

use crate::graph::NodeId;
use crate::world::PossibleWorld;
use crate::ProbGraph;
use std::collections::VecDeque;

/// Sentinel for "unreachable" in hop-distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS hop distances from `s`, treating every edge as present.
///
/// Returns a vector indexed by node id; unreachable nodes get
/// [`UNREACHABLE`].
pub fn hop_distances<G: ProbGraph>(g: &G, s: NodeId) -> Vec<u32> {
    bfs_impl(g, s, None)
}

/// Nodes within `h` hops of `s` (including `s` itself), in BFS order.
pub fn within_hops<G: ProbGraph>(g: &G, s: NodeId, h: u32) -> Vec<NodeId> {
    let dist = bfs_impl(g, s, Some(h));
    let mut out: Vec<NodeId> = dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHABLE)
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    out.sort_by_key(|v| dist[v.index()]);
    out
}

fn bfs_impl<G: ProbGraph>(g: &G, start: NodeId, limit: Option<u32>) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    dist[start.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if let Some(h) = limit {
            if dv >= h {
                continue;
            }
        }
        for u in g.out_arcs(v).map(|a| a.node) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Whether `t` is reachable from `s` using only edges whose coin is present
/// in `world`.
pub fn world_reaches<G: ProbGraph>(g: &G, world: &PossibleWorld, s: NodeId, t: NodeId) -> bool {
    if s == t {
        return true;
    }
    let mut seen = vec![false; g.num_nodes()];
    seen[s.index()] = true;
    let mut stack = vec![s];
    while let Some(v) = stack.pop() {
        for (u, c) in g.out_arcs(v).map(|a| (a.node, a.coin)) {
            if world.contains(c) && !seen[u.index()] {
                if u == t {
                    return true;
                }
                seen[u.index()] = true;
                stack.push(u);
            }
        }
    }
    false
}

/// Shortest hop distance from `s` to `t` using only edges whose coin is
/// present in `world`, or `None` when `t` is unreachable in that world.
///
/// Level-synchronous BFS: the returned distance is the minimum number of
/// arcs on any present path, so `world_hop_distance(..) <= Some(d)` is the
/// event "reachable within `d` hops" that the hop-bounded estimators
/// sample. `s == t` is distance 0.
pub fn world_hop_distance<G: ProbGraph>(
    g: &G,
    world: &PossibleWorld,
    s: NodeId,
    t: NodeId,
) -> Option<u32> {
    if s == t {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    dist[s.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for (u, c) in g.out_arcs(v).map(|a| (a.node, a.coin)) {
            if world.contains(c) && dist[u.index()] == UNREACHABLE {
                if u == t {
                    return Some(dv + 1);
                }
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    None
}

/// Whether *any* source reaches *any* target in `world`, optionally within
/// `max_hops` arcs — the set-reliability event. A node appearing in both
/// lists counts as an immediate (0-hop) hit.
pub fn world_set_reaches<G: ProbGraph>(
    g: &G,
    world: &PossibleWorld,
    sources: &[NodeId],
    targets: &[NodeId],
    max_hops: Option<u32>,
) -> bool {
    let mut is_target = vec![false; g.num_nodes()];
    for &t in targets {
        is_target[t.index()] = true;
    }
    if sources.iter().any(|&s| is_target[s.index()]) {
        return true;
    }
    // Multi-source level-synchronous BFS: seed every source at depth 0.
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if let Some(h) = max_hops {
            if dv >= h {
                continue;
            }
        }
        for (u, c) in g.out_arcs(v).map(|a| (a.node, a.coin)) {
            if world.contains(c) && dist[u.index()] == UNREACHABLE {
                if is_target[u.index()] {
                    return true;
                }
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    false
}

/// Approximate diameter: the maximum BFS eccentricity observed from
/// `probes` start nodes (double-sweep style — start from the farthest node
/// found so far). Exact on the probed set; a lower bound in general.
pub fn approx_diameter<G: ProbGraph>(g: &G, probes: usize) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    let mut best = 0;
    let mut start = NodeId(0);
    for _ in 0..probes.max(1) {
        let dist = hop_distances(g, start);
        let mut far = start;
        let mut far_d = 0;
        for (i, &d) in dist.iter().enumerate() {
            if d != UNREACHABLE && d > far_d {
                far_d = d;
                far = NodeId(i as u32);
            }
        }
        best = best.max(far_d);
        if far == start {
            break;
        }
        start = far;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;

    fn path5() -> UncertainGraph {
        let mut g = UncertainGraph::new(5, true);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        g
    }

    #[test]
    fn hop_distances_on_path() {
        let g = path5();
        let d = hop_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        // Directed: nothing reaches node 0 except itself.
        let dr = hop_distances(&g, NodeId(2));
        assert_eq!(dr[0], UNREACHABLE);
        assert_eq!(dr[4], 2);
    }

    #[test]
    fn within_hops_respects_limit() {
        let g = path5();
        let nodes = within_hops(&g, NodeId(0), 2);
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(within_hops(&g, NodeId(4), 3), vec![NodeId(4)]);
    }

    #[test]
    fn undirected_bfs_goes_both_ways() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let d = hop_distances(&g, NodeId(2));
        assert_eq!(d, vec![2, 1, 0]);
    }

    #[test]
    fn world_reaches_stops_at_absent_edges() {
        let g = path5();
        let w = PossibleWorld::from_mask(4, 0b0111); // edge 3 absent
        assert!(world_reaches(&g, &w, NodeId(0), NodeId(3)));
        assert!(!world_reaches(&g, &w, NodeId(0), NodeId(4)));
    }

    #[test]
    fn world_hop_distance_is_shortest_present_path() {
        let g = path5();
        let all = PossibleWorld::from_mask(4, 0b1111);
        assert_eq!(world_hop_distance(&g, &all, NodeId(0), NodeId(0)), Some(0));
        assert_eq!(world_hop_distance(&g, &all, NodeId(0), NodeId(3)), Some(3));
        let broken = PossibleWorld::from_mask(4, 0b0101); // edge 1 absent
        assert_eq!(world_hop_distance(&g, &broken, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn world_set_reaches_any_pair() {
        let g = path5();
        let all = PossibleWorld::from_mask(4, 0b1111);
        // 0 reaches 4 unbounded, but not within 3 hops; 1 reaches 4 in 3.
        assert!(world_set_reaches(
            &g,
            &all,
            &[NodeId(0)],
            &[NodeId(4)],
            None
        ));
        assert!(!world_set_reaches(
            &g,
            &all,
            &[NodeId(0)],
            &[NodeId(4)],
            Some(3)
        ));
        assert!(world_set_reaches(
            &g,
            &all,
            &[NodeId(0), NodeId(1)],
            &[NodeId(4)],
            Some(3)
        ));
        // Overlapping source/target is a 0-hop hit even in the empty world.
        let none = PossibleWorld::from_mask(4, 0);
        assert!(world_set_reaches(
            &g,
            &none,
            &[NodeId(2)],
            &[NodeId(2)],
            Some(0)
        ));
    }

    #[test]
    fn traversal_identical_on_csr_snapshot() {
        let g = path5();
        let csr = g.freeze();
        assert_eq!(hop_distances(&g, NodeId(0)), hop_distances(&csr, NodeId(0)));
        assert_eq!(
            within_hops(&g, NodeId(0), 2),
            within_hops(&csr, NodeId(0), 2)
        );
        assert_eq!(approx_diameter(&g, 4), approx_diameter(&csr, 4));
    }

    #[test]
    fn approx_diameter_on_path() {
        let g = path5();
        assert_eq!(approx_diameter(&g, 4), 4);
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        let g = UncertainGraph::new(0, true);
        assert_eq!(approx_diameter(&g, 2), 0);
        let g1 = UncertainGraph::new(1, true);
        assert_eq!(approx_diameter(&g1, 2), 0);
    }
}
