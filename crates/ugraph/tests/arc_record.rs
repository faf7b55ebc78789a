//! The one arc record every [`ProbGraph`] yields, checked on all five
//! implementors: `UncertainGraph`, `CsrGraph` (frozen and loaded back from
//! snapshot bytes), `GraphView`, `DeltaOverlay` and `PrunedGraph`.
//!
//! World samplers flip coins against `thresh`, path code reads `prob`, so
//! the two must describe the same coin on every arc, in both directions.

use rand::{Rng, SeedableRng};
use relmax_ugraph::{
    flip_threshold, snapshot, Arc, CsrGraph, DeltaOverlay, ExtraEdge, GraphUpdate, GraphView,
    NodeId, ProbGraph, PrunedGraph, UncertainGraph,
};

const N: u32 = 40;

fn seeded(seed: u64, directed: bool) -> UncertainGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut g = UncertainGraph::new(N as usize, directed);
    for _ in 0..160 {
        let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
        // Mix certain, impossible and fractional edges; duplicates and
        // self-loops are rejected.
        let p = match rng.gen_range(0..8) {
            0 => 1.0,
            1 => 0.0,
            _ => rng.gen::<f64>(),
        };
        let _ = g.add_edge(NodeId(a), NodeId(b), p);
    }
    g
}

fn out_in<G: ProbGraph>(g: &G, v: NodeId) -> (Vec<Arc>, Vec<Arc>) {
    (g.out_arcs(v).collect(), g.in_arcs(v).collect())
}

/// Every arc's threshold and probability describe its coin; undirected
/// graphs walk the same arcs both ways.
fn check_record<G: ProbGraph>(g: &G, what: &str) {
    for v in (0..g.num_nodes() as u32).map(NodeId) {
        let (out, inn) = out_in(g, v);
        for a in out.iter().chain(&inn) {
            assert_eq!(a.thresh, flip_threshold(a.prob), "{what}: {v:?} {a:?}");
            assert_eq!(
                a.prob.to_bits(),
                g.coin_prob(a.coin).to_bits(),
                "{what}: {v:?} {a:?}"
            );
        }
        if !g.is_directed() {
            assert_eq!(out, inn, "{what}: undirected in-arcs of {v:?}");
        }
    }
}

/// `a` and `b` yield the same records, in the same order, at every node.
fn check_same<A: ProbGraph, B: ProbGraph>(a: &A, b: &B, what: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{what}");
    for v in (0..a.num_nodes() as u32).map(NodeId) {
        assert_eq!(out_in(a, v), out_in(b, v), "{what}: arcs of {v:?}");
    }
}

/// A `PrunedGraph` over every other node yields exactly the base arcs
/// whose far end is allowed, in base order.
fn check_pruned<G: ProbGraph>(g: &G, what: &str) {
    let mut allowed = vec![0u64; g.num_nodes().div_ceil(64)];
    for v in (0..g.num_nodes()).step_by(2) {
        allowed[v >> 6] |= 1 << (v & 63);
    }
    let pruned = PrunedGraph::new(g, &allowed);
    check_record(&pruned, what);
    let keep = |a: &Arc| a.node.0.is_multiple_of(2);
    for v in (0..g.num_nodes() as u32).map(NodeId) {
        let (out, inn) = out_in(g, v);
        let want = (
            out.into_iter().filter(keep).collect(),
            inn.into_iter().filter(keep).collect(),
        );
        assert_eq!(out_in(&pruned, v), want, "{what}: pruned arcs of {v:?}");
    }
}

fn check_all<G: ProbGraph>(g: &G, what: &str) {
    check_record(g, what);
    check_pruned(g, what);
}

#[test]
fn every_implementor_yields_consistent_arc_records() {
    for (seed, directed) in [(3, true), (4, false)] {
        let g = seeded(seed, directed);
        let csr = g.freeze();
        let loaded = snapshot::read(&snapshot::to_bytes(&csr)[..]).unwrap();
        check_all(&g, "adjacency");
        check_all(&csr, "freeze");
        check_all(&loaded, "loaded");
        check_same(&g, &csr, "freeze vs adjacency");
        check_same(&csr, &loaded, "loaded vs freeze");

        let extra = vec![
            ExtraEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.3,
            },
            ExtraEdge {
                src: NodeId(5),
                dst: NodeId(1),
                prob: 0.9,
            },
        ];
        let view = GraphView::new(&csr, extra);
        check_all(&view, "view");
        check_same(&view, &CsrGraph::freeze(&view), "view vs its freeze");

        // Insert a fresh edge, re-probe a base edge and the inserted one,
        // delete another base edge: every appended arc must carry the
        // threshold of its own coin, not of the coin it replaced.
        let mut delta = DeltaOverlay::new(std::sync::Arc::new(csr.clone()));
        let (a, b) = (0..N)
            .flat_map(|u| (0..N).map(move |w| (NodeId(u), NodeId(w))))
            .find(|&(u, w)| u != w && !delta.has_edge(u, w))
            .unwrap();
        let (s0, t0) = csr.coin_endpoints(0);
        let (s1, t1) = csr.coin_endpoints(1);
        let reprobe = 1.0 - csr.coin_prob(0) / 2.0;
        delta
            .apply(&[
                GraphUpdate::Insert {
                    src: a,
                    dst: b,
                    prob: 0.25,
                },
                GraphUpdate::SetProb {
                    src: s0,
                    dst: t0,
                    prob: reprobe,
                },
                GraphUpdate::Delete { src: s1, dst: t1 },
                GraphUpdate::SetProb {
                    src: a,
                    dst: b,
                    prob: 0.75,
                },
            ])
            .unwrap();
        assert_eq!(delta.num_coins(), csr.num_coins() + 3);
        check_all(&delta, "overlay");
        check_same(&delta, &CsrGraph::freeze(&delta), "overlay vs its freeze");
    }
}
