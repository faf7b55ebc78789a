//! Quality relations between methods, verified against exact reliability
//! on small instances: the paper's characterization observations (§2.3)
//! and the expected method ordering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::core::baselines::ExactSelector;
use relmax::core::MrpSelector;
use relmax::prelude::*;

/// Random sparse digraph plus a few candidate edges for it.
fn random_instance(rng: &mut StdRng) -> (UncertainGraph, Vec<CandidateEdge>, NodeId, NodeId) {
    let n = rng.gen_range(5..8);
    let mut g = UncertainGraph::new(n, true);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.3) {
                let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.1..0.9));
            }
        }
    }
    let mut cands = Vec::new();
    let mut guard = 0;
    while cands.len() < 5 && guard < 200 {
        guard += 1;
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v
            && !g.has_edge(NodeId(u), NodeId(v))
            && !cands
                .iter()
                .any(|c: &CandidateEdge| (c.src, c.dst) == (NodeId(u), NodeId(v)))
        {
            cands.push(CandidateEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: 0.6,
            });
        }
    }
    (g, cands, NodeId(0), NodeId(n as u32 - 1))
}

#[test]
fn exhaustive_search_dominates_every_heuristic() {
    let mut rng = StdRng::seed_from_u64(2024);
    let est = ExactEstimator::new();
    for trial in 0..15 {
        let (g, cands, s, t) = random_instance(&mut rng);
        let q = StQuery::new(s, t, 2, 0.6).with_hop_limit(None).with_l(20);
        let es = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .expect("small instance");
        for sel in [
            AnySelector::batch_edge(),
            AnySelector::individual_path(),
            AnySelector::mrp(),
            AnySelector::hill_climbing(),
        ] {
            let out = sel
                .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
                .unwrap();
            assert!(
                es.new_reliability >= out.new_reliability - 1e-9,
                "trial {trial}: {} ({}) beat ES ({})",
                sel.name(),
                out.new_reliability,
                es.new_reliability
            );
        }
    }
}

#[test]
fn be_is_at_least_as_good_as_mrp_on_average() {
    // §5's motivation: multiple reliable paths dominate the single most
    // reliable path. Individual instances can tie; the aggregate must not
    // favor MRP.
    let mut rng = StdRng::seed_from_u64(77);
    let est = ExactEstimator::new();
    let mut be_total = 0.0;
    let mut mrp_total = 0.0;
    for _ in 0..20 {
        let (g, cands, s, t) = random_instance(&mut rng);
        let q = StQuery::new(s, t, 2, 0.6).with_hop_limit(None).with_l(20);
        be_total += BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap()
            .new_reliability;
        mrp_total += MrpSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap()
            .new_reliability;
    }
    assert!(
        be_total >= mrp_total - 1e-9,
        "BE total {be_total} fell below MRP total {mrp_total}"
    );
}

#[test]
fn observation4_direct_st_edge_is_always_optimal_to_include() {
    // Observation 4: if the direct s-t edge is a candidate, some optimal
    // solution contains it. Equivalently: the best solution forced to
    // include st is as good as the unconstrained optimum.
    let mut rng = StdRng::seed_from_u64(4242);
    let est = ExactEstimator::new();
    for trial in 0..10 {
        let (g, mut cands, s, t) = random_instance(&mut rng);
        cands.retain(|c| !(c.src == s && c.dst == t));
        if g.has_edge(s, t) {
            continue;
        }
        let st_edge = CandidateEdge {
            src: s,
            dst: t,
            prob: 0.6,
        };
        cands.push(st_edge);
        let q = StQuery::new(s, t, 2, 0.6).with_hop_limit(None);
        let es = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        // Best solution that contains st: st + best single other edge.
        let others: Vec<CandidateEdge> = cands
            .iter()
            .filter(|c| !(c.src == s && c.dst == t))
            .copied()
            .collect();
        let mut best_with_st = {
            let view = GraphView::new(&g, vec![st_edge]);
            est.st_estimate(&view, s, t, est.default_budget()).value
        };
        for &o in &others {
            let view = GraphView::new(&g, vec![st_edge, o]);
            let r = est.st_estimate(&view, s, t, est.default_budget()).value;
            best_with_st = best_with_st.max(r);
        }
        assert!(
            best_with_st >= es.new_reliability - 1e-9,
            "trial {trial}: forcing st loses ({} < {})",
            best_with_st,
            es.new_reliability
        );
    }
}

#[test]
fn table2_optimal_solutions_vary_with_parameters() {
    // Observations 1-3 via Table 2: the optimum changes with zeta and
    // alpha, and solutions are not nested in k.
    let run = |alpha: f64, zeta: f64, k: usize| -> Vec<(u32, u32)> {
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(a, b, alpha).unwrap();
        g.add_edge(a, t, alpha).unwrap();
        let q = StQuery::new(s, t, k, zeta);
        let cands = [
            CandidateEdge {
                src: s,
                dst: a,
                prob: zeta,
            },
            CandidateEdge {
                src: s,
                dst: b,
                prob: zeta,
            },
            CandidateEdge {
                src: b,
                dst: t,
                prob: zeta,
            },
        ];
        let est = ExactEstimator::new();
        let out = ExactSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let mut edges: Vec<(u32, u32)> = out.added.iter().map(|c| (c.src.0, c.dst.0)).collect();
        edges.sort_unstable();
        edges
    };
    let row1 = run(0.5, 0.7, 2); // {sB, Bt}
    let row2 = run(0.5, 0.3, 2); // {sA, sB}
    let row3 = run(0.9, 0.7, 2); // {sA, sB}
    assert_eq!(row1, vec![(0, 2), (2, 3)]);
    assert_eq!(row2, vec![(0, 1), (0, 2)]);
    assert_eq!(row3, vec![(0, 1), (0, 2)]);
    // Observation 1: same alpha, different zeta -> different optimum.
    assert_ne!(row1, row2);
    // Observation 2: same zeta, different alpha -> different optimum.
    assert_ne!(row1, row3);
    // Observation 3: k=1 optimum {sA} is not a subset of row1.
    let k1 = run(0.5, 0.7, 1);
    assert_eq!(k1, vec![(0, 1)]);
    assert!(!k1.iter().all(|e| row1.contains(e)));
}

#[test]
fn zero_budget_changes_nothing_for_every_method() {
    let mut rng = StdRng::seed_from_u64(5);
    let est = ExactEstimator::new();
    let (g, cands, s, t) = random_instance(&mut rng);
    let q = StQuery::new(s, t, 0, 0.6).with_hop_limit(None);
    for sel in [
        AnySelector::batch_edge(),
        AnySelector::individual_path(),
        AnySelector::mrp(),
        AnySelector::hill_climbing(),
    ] {
        let out = sel
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert!(out.added.is_empty(), "{} added edges with k=0", sel.name());
        assert!((out.gain()).abs() < 1e-12);
    }
}
