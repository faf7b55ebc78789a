//! Statistical correctness of the sampling estimators, locked to the
//! exact solver: MC and RSS estimates concentrate within Hoeffding bounds
//! across many seeded trials, stay unbiased, and RSS never needs more
//! variance than MC on a stratification-friendly fixture.

use relmax::prelude::*;
use relmax::ugraph::exact::{
    expected_hops_enumerate, set_reliability_enumerate, st_reliability_enumerate,
    st_within_reliability_enumerate,
};

/// `ε` such that `P(|X̂ − p| ≥ ε) ≤ δ` for a mean of `z` iid `[0,1]`
/// draws (Hoeffding): `ε = sqrt(ln(2/δ) / (2z))`.
fn hoeffding_eps(z: usize, delta: f64) -> f64 {
    ((2.0 / delta).ln() / (2.0 * z as f64)).sqrt()
}

/// The bridge fixture: two 2-hop routes plus a cross edge.
fn bridge_graph() -> UncertainGraph {
    let mut g = UncertainGraph::new(4, true);
    g.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
    g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
    g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 0.7).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 0.3).unwrap();
    g
}

/// The fan fixture: variance lives on the first-level coins, which is
/// where recursive stratification helps most.
fn fan_graph() -> UncertainGraph {
    let mut g = UncertainGraph::new(5, true);
    for i in 1..=3u32 {
        g.add_edge(NodeId(0), NodeId(i), 0.5).unwrap();
        g.add_edge(NodeId(i), NodeId(4), 0.5).unwrap();
    }
    g
}

/// A denser 6-node instance so the exact solver still answers instantly
/// but traversals branch.
fn dense_graph() -> UncertainGraph {
    let mut g = UncertainGraph::new(6, true);
    let edges = [
        (0, 1, 0.55),
        (0, 2, 0.35),
        (1, 2, 0.45),
        (1, 3, 0.6),
        (2, 4, 0.5),
        (3, 4, 0.4),
        (3, 5, 0.5),
        (4, 5, 0.65),
        (2, 5, 0.2),
    ];
    for (u, v, p) in edges {
        g.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    g
}

fn fixtures() -> Vec<(UncertainGraph, NodeId, NodeId)> {
    vec![
        (bridge_graph(), NodeId(0), NodeId(3)),
        (fan_graph(), NodeId(0), NodeId(4)),
        (dense_graph(), NodeId(0), NodeId(5)),
    ]
}

/// 24 seeded MC trials (3 fixtures × 8 seeds) all land within the
/// Hoeffding envelope of the exact reliability. With `δ = 1e-8` per
/// trial the whole test fails spuriously less than once in 4 million
/// runs.
#[test]
fn mc_within_hoeffding_bound_of_exact() {
    let z = 4_000;
    let b = Budget::fixed(z);
    let eps = hoeffding_eps(z, 1e-8);
    for (g, s, t) in fixtures() {
        let exact = st_reliability_enumerate(&g, s, t).unwrap();
        for seed in 0..8u64 {
            let est = McEstimator::new(z, 0x5747 + seed)
                .st_estimate(&g, s, t, b)
                .value;
            assert!(
                (est - exact).abs() <= eps,
                "MC seed {seed}: |{est} - {exact}| > {eps}"
            );
        }
    }
}

/// RSS concentrates at least as tightly as MC (law of total variance), so
/// the same envelope must hold across the same ≥20-trial sweep.
#[test]
fn rss_within_hoeffding_bound_of_exact() {
    let z = 4_000;
    let b = Budget::fixed(z);
    let eps = hoeffding_eps(z, 1e-8);
    for (g, s, t) in fixtures() {
        let exact = st_reliability_enumerate(&g, s, t).unwrap();
        for seed in 0..8u64 {
            let est = RssEstimator::new(z, 0x5747 + seed)
                .st_estimate(&g, s, t, b)
                .value;
            assert!(
                (est - exact).abs() <= eps,
                "RSS seed {seed}: |{est} - {exact}| > {eps}"
            );
        }
    }
}

/// Sample means over independent seeds converge on the exact value —
/// neither estimator carries a systematic bias.
#[test]
fn estimators_are_unbiased_over_seeds() {
    let (g, s, t) = (fan_graph(), NodeId(0), NodeId(4));
    let exact = st_reliability_enumerate(&g, s, t).unwrap();
    let reps = 200u64;
    let b = Budget::fixed(256);
    let mc_mean = (0..reps)
        .map(|seed| McEstimator::new(256, seed).st_estimate(&g, s, t, b).value)
        .sum::<f64>()
        / reps as f64;
    let rss_mean = (0..reps)
        .map(|seed| RssEstimator::new(256, seed).st_estimate(&g, s, t, b).value)
        .sum::<f64>()
        / reps as f64;
    assert!(
        (mc_mean - exact).abs() < 0.015,
        "MC mean {mc_mean} vs {exact}"
    );
    assert!(
        (rss_mean - exact).abs() < 0.015,
        "RSS mean {rss_mean} vs {exact}"
    );
}

/// On the stratification-friendly fan fixture, RSS variance across seeds
/// is strictly below MC variance at the same budget — the whole point of
/// stratified sampling (paper Tables 6–7).
#[test]
fn rss_variance_at_most_mc_variance() {
    let (g, s, t) = (fan_graph(), NodeId(0), NodeId(4));
    let z = 128;
    let b = Budget::fixed(z);
    let reps = 100u64;
    let var = |estimates: &[f64]| {
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / estimates.len() as f64
    };
    let mc: Vec<f64> = (0..reps)
        .map(|seed| McEstimator::new(z, seed).st_estimate(&g, s, t, b).value)
        .collect();
    let rss: Vec<f64> = (0..reps)
        .map(|seed| RssEstimator::new(z, seed).st_estimate(&g, s, t, b).value)
        .collect();
    let (vm, vr) = (var(&mc), var(&rss));
    assert!(
        vr <= vm,
        "RSS variance {vr} exceeded MC variance {vm} at equal budget"
    );
}

/// The scan kernel inherits MC's statistics: scanning a candidate is
/// exactly estimating on its overlay, so scan outputs obey the same
/// Hoeffding envelope around the exact overlay reliabilities.
#[test]
fn scan_candidates_within_hoeffding_bound_of_exact_overlays() {
    let (g, s, t) = (bridge_graph(), NodeId(0), NodeId(3));
    let cands = vec![
        CandidateEdge {
            src: NodeId(0),
            dst: NodeId(3),
            prob: 0.5,
        },
        CandidateEdge {
            src: NodeId(2),
            dst: NodeId(1),
            prob: 0.8,
        },
    ];
    let z = 4_000;
    let b = Budget::fixed(z);
    let eps = hoeffding_eps(z, 1e-8);
    for seed in 0..8u64 {
        let scans = McEstimator::new(z, 0x1234 + seed).scan_estimates(&g, s, t, &cands, b);
        for (i, &c) in cands.iter().enumerate() {
            let view = GraphView::new(&g, vec![c]);
            let owned = view.materialize();
            let exact = st_reliability_enumerate(&owned, s, t).unwrap();
            assert!(
                (scans[i].value - exact).abs() <= eps,
                "seed {seed} cand {i}: |{} - {exact}| > {eps}",
                scans[i].value
            );
        }
    }
}

/// Hop-bounded MC estimates concentrate on the enumerated hop-bounded
/// reliability: 72 seeded trials (3 fixtures × 3 bounds × 8 seeds), each
/// inside the Hoeffding envelope. The bound `d = 1` also checks the
/// degenerate single-arc case against enumeration.
#[test]
fn hop_bounded_mc_within_hoeffding_bound_of_exact() {
    let z = 4_000;
    let eps = hoeffding_eps(z, 1e-8);
    for (g, s, t) in fixtures() {
        for d in [1u32, 2, 3] {
            let exact = st_within_reliability_enumerate(&g, s, t, d).unwrap();
            for seed in 0..8u64 {
                let est = McEstimator::new(z, 0x5747 + seed)
                    .st_within_estimate(&g, s, t, d, Budget::fixed(z))
                    .expect("MC supports hop-bounded queries");
                assert!(
                    (est.value - exact).abs() <= eps,
                    "d={d} seed {seed}: |{} - {exact}| > {eps}",
                    est.value
                );
            }
        }
    }
}

/// Set reliability (any source reaches any target, one shared-world pass)
/// against full enumeration, bounded and unbounded, plus the union-bound
/// sandwich the exact values must satisfy: the set reliability is at
/// least the best single pair (Fréchet) and at most the sum over pairs
/// (Boole).
#[test]
fn set_reliability_within_hoeffding_bound_of_exact() {
    let z = 4_000;
    let eps = hoeffding_eps(z, 1e-8);
    for (g, s, t) in fixtures() {
        let n = g.num_nodes() as u32;
        let sources = [s, NodeId(1)];
        let targets = [t, NodeId(n - 2)];
        for bound in [None, Some(2u32)] {
            let exact = set_reliability_enumerate(&g, &sources, &targets, bound).unwrap();
            let pair = |s: NodeId, t: NodeId| match bound {
                Some(d) => st_within_reliability_enumerate(&g, s, t, d).unwrap(),
                None => st_reliability_enumerate(&g, s, t).unwrap(),
            };
            let pairs: Vec<f64> = sources
                .iter()
                .flat_map(|&s| targets.iter().map(move |&t| pair(s, t)))
                .collect();
            let best = pairs.iter().cloned().fold(0.0f64, f64::max);
            let sum: f64 = pairs.iter().sum();
            assert!(
                exact >= best - 1e-12 && exact <= sum + 1e-12,
                "bound {bound:?}: exact {exact} outside [{best}, {sum}]"
            );
            for seed in 0..8u64 {
                let est = McEstimator::new(z, 0x5747 + seed)
                    .set_estimate(&g, &sources, &targets, bound, Budget::fixed(z))
                    .expect("MC supports set queries");
                assert!(
                    (est.value - exact).abs() <= eps,
                    "bound {bound:?} seed {seed}: |{} - {exact}| > {eps}",
                    est.value
                );
            }
        }
    }
}

/// Top-k rankings agree with the enumerated reliabilities over 24 seeded
/// trials (3 fixtures × 8 seeds): every reported value sits in the
/// Hoeffding envelope of its node's exact reliability, every admitted
/// node is within `2ε` of the true k-th reliability (the tightest claim
/// a concentration bound supports near ties), and ties break by node id —
/// the pinned deterministic order.
#[test]
fn topk_ranking_agrees_with_exact_over_seeded_trials() {
    let z = 4_000;
    let eps = hoeffding_eps(z, 1e-8);
    let k = 3;
    for (g, s, _t) in fixtures() {
        let n = g.num_nodes() as u32;
        let exact: Vec<f64> = (0..n)
            .map(|v| st_reliability_enumerate(&g, s, NodeId(v)).unwrap())
            .collect();
        let mut ranked_exact: Vec<f64> = (0..n)
            .filter(|&v| NodeId(v) != s)
            .map(|v| exact[v as usize])
            .collect();
        ranked_exact.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let kth = ranked_exact[k - 1];
        for seed in 0..8u64 {
            let ranked =
                McEstimator::new(z, 0x5747 + seed).topk_estimates(&g, s, k, Budget::fixed(z));
            assert_eq!(ranked.len(), k, "seed {seed}");
            for w in ranked.windows(2) {
                let ordered = w[0].1.value > w[1].1.value
                    || (w[0].1.value == w[1].1.value && w[0].0 < w[1].0);
                assert!(ordered, "seed {seed}: ranking order broke at {w:?}");
            }
            for (v, e) in &ranked {
                let truth = exact[v.0 as usize];
                assert!(
                    (e.value - truth).abs() <= eps,
                    "seed {seed} node {}: |{} - {truth}| > {eps}",
                    v.0,
                    e.value
                );
                assert!(
                    truth >= kth - 2.0 * eps,
                    "seed {seed}: node {} (exact {truth}) displaced the true top-{k} (kth {kth})",
                    v.0
                );
            }
        }
    }
}

/// Expected-hop estimates are unbiased against enumeration: over 24
/// seeded trials the unconditional hop mass `hop_sum / Z` (each world
/// contributes its shortest hop distance in `[0, n−1]`, zero when
/// unreachable) lands within a range-scaled Hoeffding envelope of the
/// exact `Σ Pr(G)·d_G(s,t)`, the reliability within the plain envelope,
/// and the reported conditional expectation is exactly their quotient.
#[test]
fn expected_hops_unbiased_against_enumeration() {
    let z = 4_000;
    let eps = hoeffding_eps(z, 1e-8);
    for (g, s, t) in fixtures() {
        let (rel, hop_mass) = expected_hops_enumerate(&g, s, t).unwrap();
        let range = (g.num_nodes() - 1) as f64;
        for seed in 0..8u64 {
            let h = McEstimator::new(z, 0x5747 + seed)
                .expected_hops_estimate(&g, s, t, Budget::fixed(z))
                .expect("MC supports expected-hops queries");
            assert_eq!(h.reliability.samples_used, z, "seed {seed}");
            assert!(
                (h.reliability.value - rel).abs() <= eps,
                "seed {seed}: |{} - {rel}| > {eps}",
                h.reliability.value
            );
            let mass = h.hop_sum as f64 / z as f64;
            assert!(
                (mass - hop_mass).abs() <= range * eps,
                "seed {seed}: |{mass} - {hop_mass}| > {}",
                range * eps
            );
            let hits = (h.reliability.value * z as f64).round();
            assert!(hits > 0.0, "seed {seed}: no reachable world sampled");
            assert_eq!(
                h.expected_hops.to_bits(),
                (h.hop_sum as f64 / hits).to_bits(),
                "seed {seed}: expected_hops is not hop_sum / hits"
            );
        }
    }
}

/// All estimates stay inside [0, 1] — including parallel runs and the
/// vector kernels, whose per-node entries are probabilities too.
#[test]
fn estimates_are_probabilities() {
    for (g, s, t) in fixtures() {
        for threads in [1, 4] {
            let mc = McEstimator::with_threads(1_000, 7, threads);
            let rss = RssEstimator::with_threads(500, 7, threads);
            let (bm, br) = (mc.default_budget(), rss.default_budget());
            let within = |e: Estimate| (0.0..=1.0 + 1e-12).contains(&e.value);
            assert!(within(mc.st_estimate(&g, s, t, bm)));
            assert!(within(rss.st_estimate(&g, s, t, br)));
            assert!(mc.from_estimates(&g, s, bm).into_iter().all(within));
            assert!(rss.from_estimates(&g, s, br).into_iter().all(within));
            assert!(mc.to_estimates(&g, t, bm).into_iter().all(within));
            assert!(rss.to_estimates(&g, t, br).into_iter().all(within));
        }
    }
}
