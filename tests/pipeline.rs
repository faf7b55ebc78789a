//! End-to-end integration tests: the full §5 pipeline (elimination →
//! top-l paths → batch selection) on realistic proxy graphs, plus the §6
//! multi-source/target extensions.

use relmax::core::multi::{multi_candidates_budgeted, MultiMethod};
use relmax::gen::proxy::DatasetProxy;
use relmax::gen::queries::st_queries;
use relmax::prelude::*;
use relmax::ugraph::traverse::hop_distances;

fn proxy() -> UncertainGraph {
    DatasetProxy::LastFm.generate(0.08, 21)
}

#[test]
fn be_pipeline_respects_all_constraints() {
    let g = proxy();
    let est = McEstimator::new(400, 7);
    let queries = st_queries(&g, 4, 3, 5, 1);
    assert!(!queries.is_empty(), "workload generation failed");
    for &(s, t) in &queries {
        let q = StQuery::new(s, t, 5, 0.5).with_r(40).with_l(15);
        let out = BatchEdgeSelector
            .select_budgeted(&g, &q, &est, est.default_budget())
            .expect("BE runs");
        assert!(out.added.len() <= q.k, "budget violated");
        for e in &out.added {
            assert!(!g.has_edge(e.src, e.dst), "added an existing edge");
            assert_eq!(e.prob, q.zeta);
            // h-hop constraint (default h = 3).
            let d = hop_distances(&g, e.src)[e.dst.index()];
            assert!(d <= 3, "edge spans {d} hops > h");
        }
        // Reliability cannot drop (up to sampling noise).
        assert!(
            out.new_reliability >= out.base_reliability - 0.05,
            "gain {} suspiciously negative",
            out.gain()
        );
    }
}

#[test]
fn pipeline_is_deterministic() {
    let g = proxy();
    let est = McEstimator::new(300, 9);
    let (s, t) = st_queries(&g, 1, 3, 5, 2)[0];
    let q = StQuery::new(s, t, 4, 0.5).with_r(30).with_l(10);
    let a = BatchEdgeSelector
        .select_budgeted(&g, &q, &est, est.default_budget())
        .unwrap();
    let b = BatchEdgeSelector
        .select_budgeted(&g, &q, &est, est.default_budget())
        .unwrap();
    assert_eq!(a.added.len(), b.added.len());
    for (x, y) in a.added.iter().zip(&b.added) {
        assert_eq!((x.src, x.dst), (y.src, y.dst));
    }
    assert_eq!(a.new_reliability, b.new_reliability);
}

#[test]
fn elimination_shrinks_the_candidate_space() {
    let g = proxy();
    let est = McEstimator::new(300, 11);
    let (s, t) = st_queries(&g, 1, 3, 5, 3)[0];
    let q = StQuery::new(s, t, 5, 0.5).with_r(25);
    let reduced = SearchSpaceElimination::new(25).candidate_edges_budgeted(
        &g,
        &q,
        &est,
        est.default_budget(),
    );
    let full = CandidateSpace::all_missing(&g, 0.5, Some(3));
    assert!(!reduced.is_empty());
    assert!(
        reduced.len() * 4 < full.len(),
        "elimination barely reduced: {} vs {}",
        reduced.len(),
        full.len()
    );
    // Every reduced candidate also satisfies the unreduced constraints.
    for c in &reduced {
        assert!(!g.has_edge(c.src, c.dst));
    }
}

#[test]
fn estimator_swap_mc_vs_rss_same_quality() {
    // §5.3: the algorithms are orthogonal to the estimator. Same query
    // solved under MC and RSS must land within noise of each other.
    let g = proxy();
    let (s, t) = st_queries(&g, 1, 3, 4, 4)[0];
    let q = StQuery::new(s, t, 4, 0.5).with_r(30).with_l(10);
    let mc = McEstimator::new(500, 13);
    let rss = RssEstimator::new(250, 13);
    let out_mc = BatchEdgeSelector
        .select_budgeted(&g, &q, &mc, mc.default_budget())
        .unwrap();
    let out_rss = BatchEdgeSelector
        .select_budgeted(&g, &q, &rss, rss.default_budget())
        .unwrap();
    // Judge both solutions with one referee configuration, routed through
    // the budgeted QueryEngine path (not the legacy f64 shims): freeze the
    // overlaid view and ask for a scalar estimate.
    let judge = |added: &[CandidateEdge]| {
        let view = GraphView::new(&g, added.to_vec());
        let referee =
            QueryEngine::from_snapshot(CsrGraph::freeze(&view), McEstimator::new(4000, 99));
        let answer = referee.query().st(s, t).run().expect("referee query");
        answer.scalar().expect("st answers are scalar").value
    };
    let (rm, rr) = (judge(&out_mc.added), judge(&out_rss.added));
    assert!((rm - rr).abs() < 0.1, "MC-driven {rm} vs RSS-driven {rr}");
}

#[test]
fn multi_aggregates_run_on_proxy() {
    let g = DatasetProxy::LastFm.generate(0.05, 31);
    let est = McEstimator::new(250, 17);
    let sources: Vec<NodeId> = (0..3).map(NodeId).collect();
    let targets: Vec<NodeId> = (10..13).map(NodeId).collect();
    for agg in [Aggregate::Average, Aggregate::Minimum, Aggregate::Maximum] {
        let mut q = MultiQuery::new(sources.clone(), targets.clone(), 6, 0.5, agg);
        q.r = 20;
        q.l = 8;
        let cands = multi_candidates_budgeted(&g, &q, &est, est.default_budget());
        let out = MultiSelector::with_method(MultiMethod::BatchEdge)
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget());
        assert!(out.added.len() <= q.k, "{agg:?} over budget");
        assert!(
            out.new_value >= out.base_value - 0.05,
            "{agg:?} regressed: {}",
            out.gain()
        );
        for e in &out.added {
            assert!(!g.has_edge(e.src, e.dst));
        }
    }
}

#[test]
fn multi_average_on_one_pair_picks_what_single_pair_be_picks() {
    // With one source and one target, the Average objective is one
    // `from[t]` read, which under a fixed budget equals the `st` estimate
    // bit for bit; both then run the same Algorithm 6 loop.
    let g = proxy();
    let est = McEstimator::new(250, 29);
    let budget = Budget::fixed(250);
    let pairs = st_queries(&g, 4, 2, 4, 8);
    assert!(!pairs.is_empty(), "workload generation failed");
    for (s, t) in pairs {
        assert_ne!(s, t);
        let q = StQuery::new(s, t, 4, 0.5).with_r(20).with_l(10);
        let cands = SearchSpaceElimination::new(q.r).candidate_edges_budgeted(&g, &q, &est, budget);
        let single = BatchEdgeSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, budget)
            .unwrap();
        let mut mq = MultiQuery::new(vec![s], vec![t], q.k, q.zeta, Aggregate::Average);
        (mq.h, mq.r, mq.l) = (q.h, q.r, q.l);
        let multi = MultiSelector::with_method(MultiMethod::BatchEdge)
            .select_with_candidates_budgeted(&g, &mq, &cands, &est, budget);
        assert!(!single.added.is_empty(), "({s}, {t}) added nothing");
        assert_eq!(multi.added, single.added, "({s}, {t})");
        assert_eq!(multi.new_value.to_bits(), single.new_reliability.to_bits());
    }
}

#[test]
fn all_selectors_run_on_the_same_candidates() {
    let g = proxy();
    let est = McEstimator::new(250, 23);
    let (s, t) = st_queries(&g, 1, 3, 4, 5)[0];
    let q = StQuery::new(s, t, 3, 0.5).with_r(20).with_l(8);
    let cands = SearchSpaceElimination::new(20).candidate_edges_budgeted(
        &g,
        &q,
        &est,
        est.default_budget(),
    );
    let selectors = [
        AnySelector::top_k(),
        AnySelector::hill_climbing(),
        AnySelector::centrality_degree(),
        AnySelector::centrality_betweenness(),
        AnySelector::eigen(),
        AnySelector::mrp(),
        AnySelector::individual_path(),
        AnySelector::batch_edge(),
    ];
    for sel in selectors {
        let out = sel
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .expect("selector runs");
        assert!(out.added.len() <= q.k, "{} over budget", sel.name());
        for e in &out.added {
            assert!(
                !g.has_edge(e.src, e.dst),
                "{} added existing edge",
                sel.name()
            );
        }
    }
}

#[test]
fn selection_identical_when_driven_from_frozen_estimates() {
    // The whole pipeline's estimator calls run over frozen snapshots
    // internally; freezing must not change what gets selected.
    let g = proxy();
    let est = McEstimator::new(300, 29);
    let (s, t) = st_queries(&g, 1, 3, 5, 6)[0];
    let q = StQuery::new(s, t, 4, 0.5).with_r(25).with_l(10);
    let csr = g.freeze();
    // Direct adjacency-walk estimates agree bit-for-bit (full Estimate,
    // not just the point value) with the frozen QueryEngine path under the
    // same explicit budget. The index stays off so even the
    // sampling-effort fields must match.
    let budget = Budget::fixed(300);
    let engine = QueryEngine::from_parts(csr, None, McEstimator::with_budget(budget, 29));
    let st = engine.query().st(s, t).run().expect("engine st");
    assert_eq!(
        est.st_estimate(&g, s, t, budget),
        *st.scalar().expect("scalar answer")
    );
    let from = engine.query().from(s).run().expect("engine from");
    assert_eq!(
        est.from_estimates(&g, s, budget),
        from.vector().expect("vector answer")
    );
    // And the end-to-end selection is deterministic on top of them.
    let a = BatchEdgeSelector
        .select_budgeted(&g, &q, &est, est.default_budget())
        .unwrap();
    let b = BatchEdgeSelector
        .select_budgeted(&g, &q, &est, est.default_budget())
        .unwrap();
    assert_eq!(a.added, b.added);
}

#[test]
fn be_finishes_at_ring_offset_five() {
    // With strides of at most 4, about 15 simple s→t paths stay near a
    // ring-offset-5 pair; every other path circles the 20k-node ring and
    // its probability underflows to 0. The top-l search must stop there
    // instead of deviating at each node of such a path.
    use relmax::gen::synth::RingChords;
    use std::time::{Duration, Instant};
    let g = RingChords::new(20_000, 4, 3).to_graph();
    let est = McEstimator::new(200, 5);
    let q = StQuery::new(NodeId(100), NodeId(105), 2, 0.5);
    let started = Instant::now();
    let out = BatchEdgeSelector
        .select_budgeted(&g, &q, &est, est.default_budget())
        .expect("BE runs");
    let elapsed = started.elapsed();
    assert!(out.added.len() <= q.k, "budget violated");
    assert!(out.gain() >= 0.0, "negative gain {}", out.gain());
    assert!(
        elapsed < Duration::from_secs(20),
        "BE took {elapsed:?} at ring offset 5"
    );
}
