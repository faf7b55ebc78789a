//! Property-based tests over randomly generated uncertain graphs:
//! estimator correctness envelopes, bit-identity of the CSR sampling path,
//! structural invariants of the path machinery, and budget safety of every
//! selector.
//!
//! The generators are hand-rolled seeded loops (the build environment has
//! no crates.io access, so `proptest` is unavailable); each property runs
//! over a few dozen random instances with deterministic seeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::paths::{improve_most_reliable_path, most_reliable_path, top_l_reliable_paths};
use relmax::prelude::*;
use relmax::sampling::coins::{coin_raw, flip_threshold};
use relmax::sampling::{packed, scalar};
use relmax::ugraph::exact::{st_reliability, ConditioningBudget};
use relmax::ugraph::PossibleWorld;
use std::sync::Arc;

/// Random digraph with 4..8 nodes and up to 14 random edges.
fn small_graph(rng: &mut StdRng, directed: bool) -> UncertainGraph {
    let n = rng.gen_range(4usize..8);
    let mut g = UncertainGraph::new(n, directed);
    let m = rng.gen_range(0usize..14);
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.05..0.95));
        }
    }
    g
}

fn endpoints(g: &UncertainGraph) -> (NodeId, NodeId) {
    (NodeId(0), NodeId(g.num_nodes() as u32 - 1))
}

/// The sampled worlds `0..z` of `g` under `seed`, built without the
/// sampling kernels: world `i` keeps coin `c` iff
/// `coin_raw(seed, i, c) < flip_threshold(p_c)`.
fn oracle_worlds(g: &UncertainGraph, seed: u64, z: u64) -> Vec<PossibleWorld> {
    let m = g.num_coins();
    let thresholds: Vec<u64> = (0..m as u32)
        .map(|c| flip_threshold(g.coin_prob(c)))
        .collect();
    (0..z)
        .map(|i| {
            let mask = (0..m)
                .filter(|&c| coin_raw(seed, i, c as u32) < thresholds[c])
                .fold(0u64, |mask, c| mask | 1 << c);
            PossibleWorld::from_mask(m, mask)
        })
        .collect()
}

#[test]
fn exact_reliability_is_a_probability() {
    let mut rng = StdRng::seed_from_u64(100);
    for _ in 0..48 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let r = st_reliability(&g, s, t, ConditioningBudget::default()).expect("small graph");
        assert!((0.0..=1.0 + 1e-12).contains(&r), "r={r}");
    }
}

#[test]
fn adding_an_edge_never_decreases_reliability() {
    let mut rng = StdRng::seed_from_u64(101);
    let mut checked = 0;
    while checked < 48 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let n = g.num_nodes() as u32;
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u == v || g.has_edge(NodeId(u), NodeId(v)) {
            continue;
        }
        checked += 1;
        let base = st_reliability(&g, s, t, ConditioningBudget::default()).unwrap();
        let view = GraphView::new(
            &g,
            vec![CandidateEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: 0.5,
            }],
        );
        let boosted = st_reliability(&view, s, t, ConditioningBudget::default()).unwrap();
        assert!(boosted >= base - 1e-12, "boosted={boosted} base={base}");
    }
}

#[test]
fn mrp_probability_lower_bounds_reliability() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..48 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let r = st_reliability(&g, s, t, ConditioningBudget::default()).unwrap();
        if let Some(p) = most_reliable_path(&g, s, t) {
            assert!(p.prob <= r + 1e-12, "path {} > reliability {r}", p.prob);
        } else {
            // No positive-probability path: reliability must be 0.
            assert!(r < 1e-12);
        }
    }
}

/// Satellite property (a): for any graph and seed, MC and RSS answers
/// served by the [`QueryEngine`] over the frozen CSR snapshot are
/// bit-identical (full `Estimate`, effort fields included) to the
/// budgeted adjacency-walk estimates — and the scalar and packed `s-t`
/// hit counts and reach vectors, on the graph and on its snapshot, equal
/// an oracle that shares no code with the sampling kernels. The engines carry no index
/// so nothing short-circuits.
#[test]
fn engine_estimates_bit_identical_to_adjacency_walk() {
    let mut rng = StdRng::seed_from_u64(103);
    for trial in 0..24 {
        let g = small_graph(&mut rng, trial % 2 == 0);
        let (s, t) = endpoints(&g);
        let csr = Arc::new(g.freeze());
        let seed = rng.gen::<u64>();

        let budget = Budget::fixed(800);
        let mc = McEstimator::with_budget(budget, seed);
        let engine =
            QueryEngine::from_shared(csr.clone(), None, McEstimator::with_budget(budget, seed));
        let st = engine.query().st(s, t).run().expect("engine st");
        assert_eq!(
            mc.st_estimate(&g, s, t, budget),
            *st.scalar().expect("scalar answer"),
            "MC st trial {trial}"
        );
        assert_eq!(
            mc.from_estimates(&g, s, budget),
            engine.query().from(s).run().unwrap().vector().unwrap(),
            "MC from trial {trial}"
        );
        assert_eq!(
            mc.to_estimates(&g, t, budget),
            engine.query().to(t).run().unwrap().vector().unwrap(),
            "MC to trial {trial}"
        );

        // Kernel counts against worlds that share no sampling code,
        // walked by `PossibleWorld::reaches`.
        let worlds = oracle_worlds(&g, seed, 800);
        let hits = |u: NodeId, v: NodeId| worlds.iter().filter(|w| w.reaches(&g, u, v)).count();
        let want = hits(s, t) as u64;
        let st_hits = [
            scalar::st_hits(&g, seed, &[s], &[t], 0, 800),
            scalar::st_hits(&*csr, seed, &[s], &[t], 0, 800),
            packed::st_hits(&g, seed, &[s], &[t], 0, 800),
            packed::st_hits(&*csr, seed, &[s], &[t], 0, 800),
        ];
        assert_eq!(st_hits, [want; 4], "oracle vs kernels trial {trial}");
        assert_eq!(
            st.scalar().unwrap().value,
            want as f64 / 800.0,
            "oracle vs engine trial {trial}"
        );
        let nodes = || (0..g.num_nodes() as u32).map(NodeId);
        for (reverse, want) in [
            (
                false,
                nodes().map(|v| hits(s, v) as u64).collect::<Vec<_>>(),
            ),
            (true, nodes().map(|v| hits(v, t) as u64).collect()),
        ] {
            let start = if reverse { t } else { s };
            let mut counts = vec![vec![0u64; g.num_nodes()]; 4];
            scalar::reach_counts(&g, seed, &[start], reverse, 0, 800, &mut counts[0]);
            scalar::reach_counts(&*csr, seed, &[start], reverse, 0, 800, &mut counts[1]);
            packed::reach_counts(&g, seed, &[start], reverse, 0, 800, &mut counts[2]);
            packed::reach_counts(&*csr, seed, &[start], reverse, 0, 800, &mut counts[3]);
            for c in counts {
                assert_eq!(
                    c, want,
                    "oracle vs reach counts (reverse {reverse}) trial {trial}"
                );
            }
        }

        let rss_budget = Budget::fixed(400);
        let rss = RssEstimator::with_budget(rss_budget, seed);
        let rss_engine = QueryEngine::from_shared(
            csr.clone(),
            None,
            RssEstimator::with_budget(rss_budget, seed),
        );
        assert_eq!(
            rss.st_estimate(&g, s, t, rss_budget),
            *rss_engine.query().st(s, t).run().unwrap().scalar().unwrap(),
            "RSS st trial {trial}"
        );
        assert_eq!(
            rss.from_estimates(&g, s, rss_budget),
            rss_engine.query().from(s).run().unwrap().vector().unwrap(),
            "RSS from trial {trial}"
        );
        assert_eq!(
            rss.to_estimates(&g, t, rss_budget),
            rss_engine.query().to(t).run().unwrap().vector().unwrap(),
            "RSS to trial {trial}"
        );
    }
}

/// Satellite property (b): MC and RSS agree with the exact conditioning
/// solver within sampling tolerance on small random graphs.
#[test]
fn mc_and_rss_estimates_track_exact() {
    let mut rng = StdRng::seed_from_u64(104);
    for trial in 0..32 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let exact = st_reliability(&g, s, t, ConditioningBudget::default()).unwrap();
        let seed = rng.gen_range(0u64..1000);
        // Sampled answers route through the QueryEngine facade — the same
        // path `relmax query` and `relmax serve` take.
        let mc = QueryEngine::new(&g, McEstimator::new(6000, seed))
            .query()
            .st(s, t)
            .run()
            .expect("mc engine")
            .scalar()
            .expect("scalar answer")
            .value;
        assert!(
            (mc - exact).abs() < 0.06,
            "trial {trial}: mc={mc} exact={exact}"
        );
        let rss = QueryEngine::new(&g, RssEstimator::new(4000, seed))
            .query()
            .st(s, t)
            .run()
            .expect("rss engine")
            .scalar()
            .expect("scalar answer")
            .value;
        assert!(
            (rss - exact).abs() < 0.06,
            "trial {trial}: rss={rss} exact={exact}"
        );
    }
}

#[test]
fn world_probabilities_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(105);
    let mut checked = 0;
    while checked < 32 {
        let g = small_graph(&mut rng, true);
        if g.num_edges() > 10 {
            continue;
        }
        checked += 1;
        let m = g.num_edges();
        let total: f64 = (0u64..(1 << m))
            .map(|mask| PossibleWorld::from_mask(m, mask).probability(&g))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }
}

#[test]
fn yen_paths_are_sorted_simple_distinct() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..48 {
        let g = small_graph(&mut rng, false);
        let (s, t) = endpoints(&g);
        let paths = top_l_reliable_paths(&g, s, t, 12);
        for w in paths.windows(2) {
            assert!(w[0].prob >= w[1].prob - 1e-12);
            assert!(w[0].nodes != w[1].nodes);
        }
        for p in &paths {
            assert!(p.is_simple());
            assert!(p.prob > 0.0 && p.prob <= 1.0 + 1e-12);
        }
    }
}

#[test]
fn layered_mrp_improvement_never_loses_to_no_op() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..48 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let cands = vec![(NodeId(1), NodeId(2), 0.5), (NodeId(2), NodeId(3), 0.5)];
        let sol = improve_most_reliable_path(&g, s, t, 2, &cands);
        assert!(sol.prob >= sol.baseline_prob - 1e-12);
        assert!(sol.chosen.len() <= 2);
    }
}

#[test]
fn selectors_respect_budget_and_candidates() {
    let mut rng = StdRng::seed_from_u64(108);
    let mut checked = 0;
    while checked < 24 {
        let g = small_graph(&mut rng, true);
        let (s, t) = endpoints(&g);
        let k = rng.gen_range(0usize..4);
        let cands = CandidateSpace::all_missing(&g, 0.5, None);
        if cands.is_empty() {
            continue;
        }
        checked += 1;
        let q = StQuery::new(s, t, k, 0.5).with_hop_limit(None).with_l(10);
        let est = McEstimator::new(300, 1);
        for sel in [AnySelector::batch_edge(), AnySelector::individual_path()] {
            let out = sel
                .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
                .unwrap();
            assert!(out.added.len() <= k);
            for e in &out.added {
                assert!(cands.iter().any(|c| (c.src, c.dst) == (e.src, e.dst)));
                assert!(!g.has_edge(e.src, e.dst));
            }
        }
    }
}

#[test]
fn undirected_reliability_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..32 {
        let g = small_graph(&mut rng, false);
        let (a, b) = endpoints(&g);
        let fwd = st_reliability(&g, a, b, ConditioningBudget::default()).unwrap();
        let bwd = st_reliability(&g, b, a, ConditioningBudget::default()).unwrap();
        assert!((fwd - bwd).abs() < 1e-9, "fwd={fwd} bwd={bwd}");
    }
}

#[test]
fn pairwise_world_sharing_matches_per_source_vectors() {
    // The shared-world pairwise answer must agree bit-for-bit (full
    // `Estimate`) with the per-source vector answers on any graph, any
    // seed — both served through the QueryEngine, with the index off so
    // no entry short-circuits.
    let mut rng = StdRng::seed_from_u64(110);
    for trial in 0..24 {
        let g = small_graph(&mut rng, trial % 2 == 0);
        let n = g.num_nodes() as u32;
        let sources = [NodeId(0), NodeId(1)];
        let targets = [NodeId(n - 2), NodeId(n - 1)];
        let engine =
            QueryEngine::from_parts(g.freeze(), None, McEstimator::new(500, rng.gen::<u64>()));
        let answer = engine
            .query()
            .pairwise(&sources, &targets)
            .run()
            .expect("pairwise");
        let matrix = answer.matrix().expect("matrix answer");
        for (si, &s) in sources.iter().enumerate() {
            let from = engine.query().from(s).run().expect("from");
            let from = from.vector().expect("vector answer");
            for (ti, &t) in targets.iter().enumerate() {
                assert_eq!(matrix[si][ti], from[t.index()], "trial {trial} ({si},{ti})");
            }
        }
    }
}

/// Satellite property (c): deleting a **certain** (p = 1.0) edge must
/// invalidate the reliability index's condensation for that component.
/// The index condenses certain-edge cycles into supernodes at freeze
/// time; once a delta deletes one of those edges the "certainly
/// connected" verdict is a lie, so the engine has to refuse the
/// short-circuit and sample the overlay — matching a full re-freeze.
#[test]
fn deleting_a_certain_edge_invalidates_index_condensation() {
    let mut rng = StdRng::seed_from_u64(111);
    for trial in 0..24 {
        let mut g = small_graph(&mut rng, true);
        // Plant a certain 2-cycle so the index condenses {0, 1}.
        let (a, b) = (NodeId(0), NodeId(1));
        for (u, v) in [(a, b), (b, a)] {
            if g.has_edge(u, v) {
                g.delete_edge(u, v).unwrap();
            }
            g.add_edge(u, v, 1.0).unwrap();
        }
        let budget = Budget::fixed(600);
        let seed = rng.gen::<u64>();
        let engine = QueryEngine::from_parts(
            g.freeze(),
            Some(Arc::new(relmax::ugraph::RelIndex::build(&g.freeze()))),
            McEstimator::with_budget(budget, seed),
        );
        // The condensation serves the certain pair without sampling.
        assert_eq!(
            engine.st_shortcircuit(a, b).unwrap(),
            Some(Estimate::exact(1.0)),
            "trial {trial}: certain pair should short-circuit"
        );
        // Delete one certain edge: the supernode premise is dead, so the
        // stale verdict must not survive...
        let updated = engine
            .apply_delta(&[GraphUpdate::Delete { src: a, dst: b }])
            .unwrap();
        assert_eq!(
            updated.st_shortcircuit(a, b).unwrap(),
            None,
            "trial {trial}: stale certain verdict survived the delete"
        );
        // ...and the sampled answer matches a from-scratch re-freeze,
        // full Estimate.
        g.delete_edge(a, b).unwrap();
        let oracle =
            QueryEngine::from_parts(g.freeze(), None, McEstimator::with_budget(budget, seed));
        assert_eq!(
            updated.query().st(a, b).run().unwrap(),
            oracle.query().st(a, b).run().unwrap(),
            "trial {trial}: overlay != refreeze after certain-edge delete"
        );
        // The reverse certain edge (b -> a) still exists, so the exact
        // solver agrees the sampled direction is now genuinely uncertain
        // unless some other path keeps it at 1.
        let exact = st_reliability(&g, a, b, ConditioningBudget::default()).unwrap();
        let sampled = updated.query().st(a, b).run().unwrap();
        assert!(
            (sampled.scalar().unwrap().value - exact).abs() < 0.08,
            "trial {trial}: sampled={} exact={exact}",
            sampled.scalar().unwrap().value
        );
    }
}
