//! Determinism lockdown for the parallel runtime: every estimator kernel
//! and every selector must produce **bit-identical** output for threads ∈
//! {1, 2, 4, 8}, for repeated runs under one seed, and — for the
//! shared-world candidate-scan kernel — against the reference
//! one-overlay-at-a-time scan it replaced.
//!
//! These tests are the contract that makes thread counts a pure
//! performance knob: CI runs them under different `RELMAX_THREADS` /
//! `RUST_TEST_THREADS` settings and the answers may never move.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::prelude::*;
use relmax::sampling::ParallelRuntime;

/// Random digraph (or undirected graph) with 5..9 nodes plus candidates.
fn random_instance(
    rng: &mut StdRng,
    directed: bool,
) -> (UncertainGraph, Vec<CandidateEdge>, NodeId, NodeId) {
    let n = rng.gen_range(5usize..9);
    let mut g = UncertainGraph::new(n, directed);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.3) {
                let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.1..0.9));
            }
        }
    }
    let mut cands = Vec::new();
    let mut guard = 0;
    while cands.len() < 6 && guard < 300 {
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
                prob: rng.gen_range(0.2..0.9),
            });
        }
    }
    (g, cands, NodeId(0), NodeId(n as u32 - 1))
}

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

#[test]
fn mc_kernels_bit_identical_across_thread_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for trial in 0..12 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        let reference = McEstimator::new(600, seed);
        let b = reference.default_budget();
        let st = reference.st_estimate(&g, s, t, b);
        let from = reference.from_estimates(&g, s, b);
        let to = reference.to_estimates(&g, t, b);
        let pairwise = reference.pairwise_estimates(&g, &[s, t], &[t, s], b);
        let scan = reference.scan_estimates(&g, s, t, &cands, b);
        for threads in THREAD_MATRIX {
            let mc = McEstimator::with_threads(600, seed, threads);
            assert_eq!(
                st,
                mc.st_estimate(&g, s, t, b),
                "st trial {trial} t{threads}"
            );
            assert_eq!(
                from,
                mc.from_estimates(&g, s, b),
                "from trial {trial} t{threads}"
            );
            assert_eq!(to, mc.to_estimates(&g, t, b), "to trial {trial} t{threads}");
            assert_eq!(
                pairwise,
                mc.pairwise_estimates(&g, &[s, t], &[t, s], b),
                "pairwise trial {trial} t{threads}"
            );
            assert_eq!(
                scan,
                mc.scan_estimates(&g, s, t, &cands, b),
                "scan trial {trial} t{threads}"
            );
        }
    }
}

#[test]
fn rss_kernels_bit_identical_across_thread_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for trial in 0..12 {
        let (g, _cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        let reference = RssEstimator::new(400, seed);
        let b = reference.default_budget();
        let st = reference.st_estimate(&g, s, t, b);
        let from = reference.from_estimates(&g, s, b);
        let to = reference.to_estimates(&g, t, b);
        for threads in THREAD_MATRIX {
            let rss = RssEstimator::with_threads(400, seed, threads);
            assert_eq!(
                st,
                rss.st_estimate(&g, s, t, b),
                "st trial {trial} t{threads}"
            );
            assert_eq!(
                from,
                rss.from_estimates(&g, s, b),
                "from trial {trial} t{threads}"
            );
            assert_eq!(
                to,
                rss.to_estimates(&g, t, b),
                "to trial {trial} t{threads}"
            );
        }
    }
}

#[test]
fn repeated_runs_are_identical_even_in_parallel() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    let (g, cands, s, t) = random_instance(&mut rng, true);
    let mc = McEstimator::with_threads(2_000, 0xAB, 4);
    let b = mc.default_budget();
    assert_eq!(mc.st_estimate(&g, s, t, b), mc.st_estimate(&g, s, t, b));
    assert_eq!(mc.from_estimates(&g, s, b), mc.from_estimates(&g, s, b));
    assert_eq!(
        mc.scan_estimates(&g, s, t, &cands, b),
        mc.scan_estimates(&g, s, t, &cands, b)
    );
    let rss = RssEstimator::with_threads(1_000, 0xAB, 4);
    let b = rss.default_budget();
    assert_eq!(rss.st_estimate(&g, s, t, b), rss.st_estimate(&g, s, t, b));
    assert_eq!(rss.to_estimates(&g, t, b), rss.to_estimates(&g, t, b));
}

/// The shared-world scan kernel must agree bit-for-bit with the reference
/// scan (one single-candidate overlay per estimator call) for MC, and the
/// default parallel scan must agree with its serial equivalent for every
/// estimator.
#[test]
fn scan_candidates_matches_reference_overlay_scan() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    for trial in 0..12 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        if cands.is_empty() {
            continue;
        }
        let seed = rng.gen::<u64>();
        let naive = |est: &dyn Fn(&GraphView<UncertainGraph>) -> Estimate| -> Vec<Estimate> {
            cands
                .iter()
                .map(|&c| est(&GraphView::new(&g, vec![c])))
                .collect()
        };
        let mc = McEstimator::new(500, seed);
        let b = mc.default_budget();
        assert_eq!(
            mc.scan_estimates(&g, s, t, &cands, b),
            naive(&|view| mc.st_estimate(view, s, t, b)),
            "MC trial {trial}"
        );
        let rss = RssEstimator::new(200, seed);
        let b = rss.default_budget();
        assert_eq!(
            rss.scan_estimates(&g, s, t, &cands, b),
            naive(&|view| rss.st_estimate(view, s, t, b)),
            "RSS trial {trial}"
        );
        let exact = ExactEstimator::new();
        let b = exact.default_budget();
        assert_eq!(
            exact.scan_estimates(&g, s, t, &cands, b),
            naive(&|view| exact.st_estimate(view, s, t, b)),
            "exact trial {trial}"
        );
    }
}

/// Selector output may not depend on the process-global thread setting:
/// top-k edge sets, reliabilities, everything must match bit for bit.
#[test]
fn selectors_identical_across_global_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xD5);
    let (g, cands, s, t) = random_instance(&mut rng, true);
    let q = StQuery::new(s, t, 2, 0.6).with_hop_limit(None).with_l(12);
    let est = McEstimator::with_threads(800, 0xC0FFEE, 2);
    let selectors = [
        AnySelector::top_k(),
        AnySelector::hill_climbing(),
        AnySelector::mrp(),
        AnySelector::individual_path(),
        AnySelector::batch_edge(),
        AnySelector::centrality_degree(),
        AnySelector::eigen(),
        AnySelector::Esssp(Default::default()),
        AnySelector::Ima(Default::default()),
    ];
    for sel in selectors {
        let mut outcomes = Vec::new();
        for global_threads in [1, 4] {
            ParallelRuntime::set_global_threads(global_threads);
            outcomes.push(
                sel.select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
                    .expect("selector runs"),
            );
        }
        ParallelRuntime::set_global_threads(0);
        let (a, b) = (&outcomes[0], &outcomes[1]);
        assert_eq!(a.added, b.added, "{} edge set moved", sel.name());
        assert_eq!(
            a.new_reliability.to_bits(),
            b.new_reliability.to_bits(),
            "{} reliability moved",
            sel.name()
        );
        assert_eq!(
            a.base_reliability.to_bits(),
            b.base_reliability.to_bits(),
            "{} base moved",
            sel.name()
        );
    }
}

/// The lane-packed kernel must be **bit-identical** to the scalar
/// reference kernel (`RELMAX_KERNEL=scalar` /
/// `McEstimator::with_kernel`) for every budgeted kernel, across random
/// graph shapes (directed and undirected), sample counts that are not
/// multiples of 64 (masked tail blocks), and thread counts 1/2/4 —
/// the packed analogue of a proptest equivalence loop, seeded for
/// reproducibility.
#[test]
fn packed_kernel_bit_identical_to_scalar_across_shapes_and_threads() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    let mut rng = StdRng::seed_from_u64(0xD7);
    // 1 world (degenerate), sub-block, exact blocks, and masked tails.
    let sample_counts = [1usize, 63, 64, 100, 577, 1234];
    for trial in 0..10 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let seed = rng.gen::<u64>();
        let z = sample_counts[trial % sample_counts.len()];
        let budget = Budget::fixed(z);
        let scalar = McEstimator::new(z, seed).with_kernel(Kernel::Scalar);
        let st = scalar.st_estimate(&csr, s, t, budget);
        let from = scalar.from_estimates(&csr, s, budget);
        let to = scalar.to_estimates(&csr, t, budget);
        let pairwise = scalar.pairwise_estimates(&csr, &[s, t], &[t, s], budget);
        let scan = scalar.scan_estimates(&csr, s, t, &cands, budget);
        for threads in [1, 2, 4] {
            let packed = McEstimator::with_threads(z, seed, threads).with_kernel(Kernel::Packed);
            assert_eq!(
                st,
                packed.st_estimate(&csr, s, t, budget),
                "st trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                from,
                packed.from_estimates(&csr, s, budget),
                "from trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                to,
                packed.to_estimates(&csr, t, budget),
                "to trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                pairwise,
                packed.pairwise_estimates(&csr, &[s, t], &[t, s], budget),
                "pairwise trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                scan,
                packed.scan_estimates(&csr, s, t, &cands, budget),
                "scan trial {trial} z={z} t{threads}"
            );
            // Adjacency walk and CSR snapshot agree on the packed path too.
            assert_eq!(
                st,
                packed.st_estimate(&g, s, t, budget),
                "adj trial {trial}"
            );
        }
    }
}

/// Adaptive stopping must pick the same checkpoint with the same bits on
/// both kernels: accuracy budgets are a pure function of the (identical)
/// accumulated counts.
#[test]
fn packed_kernel_matches_scalar_under_accuracy_budgets() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    let mut rng = StdRng::seed_from_u64(0xD8);
    for trial in 0..6 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        // A cap that is not a multiple of 64 exercises the masked tail
        // block at the final checkpoint.
        let budget = Budget::accuracy_capped(0.04, 0.05, 3000);
        let scalar = McEstimator::new(1, seed).with_kernel(Kernel::Scalar);
        let st = scalar.st_estimate(&g, s, t, budget);
        let scan = scalar.scan_estimates(&g, s, t, &cands, budget);
        for threads in [1, 2, 4] {
            let packed = McEstimator::with_threads(1, seed, threads).with_kernel(Kernel::Packed);
            assert_eq!(
                st,
                packed.st_estimate(&g, s, t, budget),
                "adaptive st trial {trial} t{threads}"
            );
            assert_eq!(
                scan,
                packed.scan_estimates(&g, s, t, &cands, budget),
                "adaptive scan trial {trial} t{threads}"
            );
        }
    }
}

/// Random instance with the structure the reliability index exists for:
/// two node banks with no edges between them (so cross-bank queries are
/// impossible) and ~30% certain (`p == 1.0`) edges (so condensation
/// actually merges supernodes). Candidates span both banks, exercising
/// the scan path's endpoint remapping across components.
fn random_partitioned_instance(
    rng: &mut StdRng,
    directed: bool,
) -> (UncertainGraph, Vec<CandidateEdge>, NodeId, NodeId) {
    let n1 = rng.gen_range(4usize..7);
    let n2 = rng.gen_range(3usize..6);
    let n = n1 + n2;
    let mut g = UncertainGraph::new(n, directed);
    for (lo, hi) in [(0u32, n1 as u32), (n1 as u32, n as u32)] {
        for u in lo..hi {
            for v in lo..hi {
                if u != v && rng.gen_bool(0.35) {
                    let p = if rng.gen_bool(0.3) {
                        1.0
                    } else {
                        rng.gen_range(0.1..0.9)
                    };
                    let _ = g.add_edge(NodeId(u), NodeId(v), p);
                }
            }
        }
    }
    let mut cands = Vec::new();
    let mut guard = 0;
    while cands.len() < 5 && guard < 300 {
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
                prob: rng.gen_range(0.2..0.9),
            });
        }
    }
    // Odd trials query across the component boundary (the short-circuit
    // path), even trials stay inside the first bank (the sampled path).
    let t = if rng.gen_bool(0.5) {
        NodeId(n as u32 - 1)
    } else {
        NodeId(n1 as u32 - 1)
    };
    (g, cands, NodeId(0), t)
}

/// Index routing is a pure performance layer: with the freeze-time
/// reliability index attached, every kernel must reproduce the plain
/// estimator's reliability **values** bit for bit — and for queries the
/// index cannot answer outright (`StPlan::Sample`, plus every from / to /
/// pairwise / scan call), the *entire* `Estimate` must match, across
/// scalar/packed kernels, threads 1/2/4, and fixed/accuracy budgets.
/// This is the `--no-index` switch's contract, pinned at the estimator
/// level (the test attaches the index explicitly).
#[test]
fn index_routing_bit_identical_across_matrix() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    use relmax::ugraph::{RelIndex, StPlan};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xD9);
    let mut sampled_plans = 0;
    let mut short_circuits = 0;
    for trial in 0..10 {
        let (g, cands, s, t) = random_partitioned_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let idx = Arc::new(RelIndex::build(&csr));
        let seed = rng.gen::<u64>();
        let budgets = [
            Budget::fixed(600),
            Budget::accuracy_capped(0.05, 0.05, 2048),
        ];
        for budget in budgets {
            let plain = McEstimator::new(1, seed).with_kernel(Kernel::Scalar);
            let st = plain.st_estimate(&csr, s, t, budget);
            let from = plain.from_estimates(&csr, s, budget);
            let to = plain.to_estimates(&csr, t, budget);
            let pairwise = plain.pairwise_estimates(&csr, &[s, t], &[t, s], budget);
            let scan = plain.scan_estimates(&csr, s, t, &cands, budget);
            for threads in [1, 2, 4] {
                for kernel in [Kernel::Scalar, Kernel::Packed] {
                    let routed = McEstimator::with_threads(1, seed, threads)
                        .with_kernel(kernel)
                        .with_rel_index(Arc::clone(&idx));
                    let routed_st = routed.st_estimate(&csr, s, t, budget);
                    match idx.st_plan(s, t) {
                        StPlan::Sample { .. } => {
                            sampled_plans += 1;
                            assert_eq!(st, routed_st, "st trial {trial} t{threads} {kernel:?}");
                        }
                        // Certain / Impossible short-circuits answer
                        // without sampling: the value is still exact
                        // (sampling would hit all or no worlds), but the
                        // effort fields legitimately differ.
                        _ => {
                            short_circuits += 1;
                            assert_eq!(
                                st.value.to_bits(),
                                routed_st.value.to_bits(),
                                "st value trial {trial} t{threads} {kernel:?}"
                            );
                        }
                    }
                    assert_eq!(
                        from,
                        routed.from_estimates(&csr, s, budget),
                        "from trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        to,
                        routed.to_estimates(&csr, t, budget),
                        "to trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        pairwise,
                        routed.pairwise_estimates(&csr, &[s, t], &[t, s], budget),
                        "pairwise trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        scan,
                        routed.scan_estimates(&csr, s, t, &cands, budget),
                        "scan trial {trial} t{threads} {kernel:?}"
                    );
                }
            }
        }
    }
    // The draw must exercise both routes, or the matrix proves nothing.
    assert!(sampled_plans > 0, "no trial took the pruned-sampling route");
    assert!(short_circuits > 0, "no trial took the short-circuit route");
}

/// The constrained query vocabulary — hop-bounded s-t, set reliability
/// (bounded and not), expected hops, and top-k rankings — must be
/// **bit-identical** across threads 1/2/4, scalar vs lane-packed kernels,
/// and with the reliability index attached or not, including sample
/// counts that are not multiples of 64 (masked tail lanes). The only
/// sanctioned divergence is the index's all-pairs-impossible
/// short-circuit, which answers without sampling: there the value bits
/// must still match (both sides are exactly zero), but the effort fields
/// legitimately differ.
#[test]
fn constrained_shapes_bit_identical_across_kernels_threads_and_index() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    use relmax::ugraph::{RelIndex, StPlan};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xDA);
    let sample_counts = [63usize, 100, 577, 1234];
    for trial in 0..8 {
        let (g, _cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let idx = Arc::new(RelIndex::build(&csr));
        let seed = rng.gen::<u64>();
        let z = sample_counts[trial % sample_counts.len()];
        let budget = Budget::fixed(z);
        let n = csr.num_nodes() as u32;
        let (sources, targets) = (vec![s, NodeId(1)], vec![t, NodeId(n - 2)]);
        let impossible = |ss: &[NodeId], ts: &[NodeId]| {
            ss.iter().all(|&a| {
                ts.iter()
                    .all(|&b| matches!(idx.st_plan(a, b), StPlan::Impossible))
            })
        };
        let st_impossible = impossible(&[s], &[t]);
        let set_impossible = impossible(&sources, &targets);

        let scalar = McEstimator::new(z, seed).with_kernel(Kernel::Scalar);
        let st_within = scalar.st_within_estimate(&csr, s, t, 3, budget).unwrap();
        let set_bounded = scalar
            .set_estimate(&csr, &sources, &targets, Some(2), budget)
            .unwrap();
        let set_free = scalar
            .set_estimate(&csr, &sources, &targets, None, budget)
            .unwrap();
        let hops = scalar.expected_hops_estimate(&csr, s, t, budget).unwrap();
        let topk = scalar.topk_estimates(&csr, s, 3, budget);

        for threads in [1usize, 2, 4] {
            for kernel in [Kernel::Scalar, Kernel::Packed] {
                for indexed in [false, true] {
                    let mut est = McEstimator::with_threads(z, seed, threads).with_kernel(kernel);
                    if indexed {
                        est = est.with_rel_index(Arc::clone(&idx));
                    }
                    let label = format!("trial {trial} z={z} t{threads} {kernel:?} idx={indexed}");
                    let got_st = est.st_within_estimate(&csr, s, t, 3, budget).unwrap();
                    let got_hops = est.expected_hops_estimate(&csr, s, t, budget).unwrap();
                    if indexed && st_impossible {
                        assert_eq!(
                            st_within.value.to_bits(),
                            got_st.value.to_bits(),
                            "st_within value {label}"
                        );
                        assert_eq!(
                            hops.reliability.value.to_bits(),
                            got_hops.reliability.value.to_bits(),
                            "hops value {label}"
                        );
                    } else {
                        assert_eq!(st_within, got_st, "st_within {label}");
                        assert_eq!(hops, got_hops, "hops {label}");
                        // The snapshot layout is transparent on the
                        // constrained path too.
                        assert_eq!(
                            st_within,
                            est.st_within_estimate(&g, s, t, 3, budget).unwrap(),
                            "adjacency st_within {label}"
                        );
                    }
                    let got_bounded = est
                        .set_estimate(&csr, &sources, &targets, Some(2), budget)
                        .unwrap();
                    let got_free = est
                        .set_estimate(&csr, &sources, &targets, None, budget)
                        .unwrap();
                    if indexed && set_impossible {
                        assert_eq!(
                            set_bounded.value.to_bits(),
                            got_bounded.value.to_bits(),
                            "set bounded value {label}"
                        );
                        assert_eq!(
                            set_free.value.to_bits(),
                            got_free.value.to_bits(),
                            "set free value {label}"
                        );
                    } else {
                        assert_eq!(set_bounded, got_bounded, "set bounded {label}");
                        assert_eq!(set_free, got_free, "set free {label}");
                    }
                    // Rankings ride the from-vector kernel, which the
                    // index never short-circuits: full equality always.
                    assert_eq!(topk, est.topk_estimates(&csr, s, 3, budget), "topk {label}");
                }
            }
        }
    }
}

/// Freezing must stay transparent under the parallel runtime: CSR
/// snapshots and adjacency walks agree at every thread count.
#[test]
fn parallel_estimates_layout_independent() {
    let mut rng = StdRng::seed_from_u64(0xD6);
    for trial in 0..8 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let seed = rng.gen::<u64>();
        for threads in [2, 8] {
            let mc = McEstimator::with_threads(500, seed, threads);
            let b = mc.default_budget();
            assert_eq!(mc.st_estimate(&g, s, t, b), mc.st_estimate(&csr, s, t, b));
            assert_eq!(
                mc.scan_estimates(&g, s, t, &cands, b),
                mc.scan_estimates(&csr, s, t, &cands, b)
            );
            let rss = RssEstimator::with_threads(300, seed, threads);
            let b = rss.default_budget();
            assert_eq!(rss.st_estimate(&g, s, t, b), rss.st_estimate(&csr, s, t, b));
        }
    }
}

/// Every sampled shape of one `(s, t)` instance, as one estimator answers
/// it: the comparison unit of the thin-front suites below.
#[derive(Debug, PartialEq)]
struct ShapeAnswers {
    st: Estimate,
    from: Vec<Estimate>,
    to: Vec<Estimate>,
    pairwise: Vec<Vec<Estimate>>,
    scan: Vec<Estimate>,
    set: Estimate,
    set_within: Estimate,
    st_within: Estimate,
    hops: relmax::sampling::HopsEstimate,
}

fn shape_answers(
    est: &McEstimator,
    g: &CsrGraph,
    s: NodeId,
    t: NodeId,
    cands: &[CandidateEdge],
    budget: relmax::sampling::Budget,
) -> ShapeAnswers {
    use relmax::sampling::Estimator;
    let n = g.num_nodes() as u32;
    let (s2, t2) = (NodeId((s.0 + 7) % n), NodeId((t.0 + 3) % n));
    ShapeAnswers {
        st: est.st_estimate(g, s, t, budget),
        from: est.from_estimates(g, s, budget),
        to: est.to_estimates(g, t, budget),
        pairwise: est.pairwise_estimates(g, &[s, s2], &[t, t2, s], budget),
        scan: est.scan_estimates(g, s, t, cands, budget),
        set: est
            .set_estimate(g, &[s, s2], &[t, t2], None, budget)
            .unwrap(),
        set_within: est
            .set_estimate(g, &[s, s2], &[t, t2], Some(4), budget)
            .unwrap(),
        st_within: est.st_within_estimate(g, s, t, 3, budget).unwrap(),
        hops: est.expected_hops_estimate(g, s, t, budget).unwrap(),
    }
}

/// Directed ring-chords graph (`v → v + j mod n` for `j` in `1..=k`):
/// every BFS front is a few consecutive nodes that crawls along the ring,
/// so multi-word graphs run thin (sparse) fixpoint rounds for thousands of
/// rounds. `s` sits just before node 0, so fronts wrap past it, and the
/// candidates (strides above `k`, and backward arcs) are all missing.
fn ring_instance(n: usize, k: usize, seed: u64) -> (CsrGraph, NodeId, NodeId, Vec<CandidateEdge>) {
    let g = relmax::gen::synth::RingChords::new(n, k, seed).to_graph();
    let n32 = n as u32;
    let s = n32 - 3;
    let t = (s + 2 * k as u32 + 1) % n32;
    let cands = vec![
        CandidateEdge {
            src: NodeId(s),
            dst: NodeId((s + k as u32 + 1) % n32),
            prob: 0.6,
        },
        CandidateEdge {
            src: NodeId((s + 2) % n32),
            dst: NodeId((t + k as u32 + 2) % n32),
            prob: 0.4,
        },
        CandidateEdge {
            src: NodeId(t),
            dst: NodeId(s),
            prob: 0.8,
        },
    ];
    (CsrGraph::freeze(&g), NodeId(s), NodeId(t), cands)
}

/// Undirected random graph with about three uncertain edges per node: an
/// expander whose BFS front covers most bitmap words within a few rounds.
fn wide_front_instance(n: usize, seed: u64) -> (CsrGraph, NodeId, NodeId, Vec<CandidateEdge>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = UncertainGraph::new(n, false);
    for v in 0..n as u32 {
        for _ in 0..3 {
            let u = rng.gen_range(0..n as u32);
            if u != v && !g.has_edge(NodeId(v), NodeId(u)) {
                g.add_edge(NodeId(v), NodeId(u), rng.gen_range(0.2..0.9))
                    .unwrap();
            }
        }
    }
    let (s, t) = (NodeId(n as u32 - 1), NodeId(1));
    let mut cands = Vec::new();
    while cands.len() < 3 {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v && !g.has_edge(NodeId(u), NodeId(v)) {
            cands.push(CandidateEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: 0.5,
            });
        }
    }
    (CsrGraph::freeze(&g), s, t, cands)
}

/// Directed funnel: a thin chain that wraps past node 0, a fan-out over
/// most bitmap words, a funnel back into one node, and another thin
/// chain — so one block's rounds go sparse → dense → sparse.
fn funnel_instance() -> (CsrGraph, NodeId, NodeId, Vec<CandidateEdge>) {
    let n = 4096u32;
    let mut g = UncertainGraph::new(n as usize, true);
    let mut edge = |a: u32, b: u32, p: f64| g.add_edge(NodeId(a), NodeId(b), p).unwrap();
    // Chain 4090 → … → 4095 → 0 → 1 → 2.
    let chain: Vec<u32> = (4090..n).chain(0..3).collect();
    for w in chain.windows(2) {
        edge(w[0], w[1], 0.95);
    }
    // Node 2 fans out to one node in each of 60 words, which all funnel
    // into node 3000; a second chain leaves it.
    for i in 1..61 {
        edge(2, 64 * i + 5, 0.9);
        edge(64 * i + 5, 3000, 0.5);
    }
    for v in 3000..3010 {
        edge(v, v + 1, 0.9);
    }
    let cands = vec![
        CandidateEdge {
            src: NodeId(1),
            dst: NodeId(3005),
            prob: 0.5,
        },
        CandidateEdge {
            src: NodeId(64 * 7 + 5),
            dst: NodeId(3009),
            prob: 0.7,
        },
    ];
    (CsrGraph::freeze(&g), NodeId(4090), NodeId(3008), cands)
}

/// Packed == scalar on graphs that span many frontier words: thin
/// ring-chords fronts (n ∈ {130, 1000, 5000}, k ∈ {1, 2, 4}) that wrap
/// past node 0, a wide-front undirected expander, and a funnel whose
/// rounds switch sparse → dense → sparse — every sampled shape, at
/// threads 1/2/4, with masked tail blocks.
#[test]
fn packed_kernel_matches_scalar_on_multi_word_fronts() {
    use relmax::sampling::{Budget, Kernel};
    // World counts are not multiples of 64: every run ends in a masked
    // tail block, and the thread shards split blocks unevenly. Dense
    // instances get the fewest worlds to keep debug runs short.
    let mut instances = Vec::new();
    for (i, &n) in [130usize, 1000, 5000].iter().enumerate() {
        for (j, (k, z)) in [(1usize, 1234usize), (2, 577), (4, 100)]
            .into_iter()
            .enumerate()
        {
            let label = format!("ring n={n} k={k}");
            instances.push((label, z, ring_instance(n, k, (i * 3 + j) as u64)));
        }
    }
    instances.push((
        "wide front".to_string(),
        130,
        wide_front_instance(2000, 0xD9),
    ));
    instances.push(("funnel".to_string(), 577, funnel_instance()));
    for (trial, (label, z, (g, s, t, cands))) in instances.iter().enumerate() {
        let z = *z;
        let seed = 0x7417 + trial as u64;
        let budget = Budget::fixed(z);
        let scalar = McEstimator::new(z, seed).with_kernel(Kernel::Scalar);
        let want = shape_answers(&scalar, g, *s, *t, cands, budget);
        for threads in [1, 2, 4] {
            let packed = McEstimator::with_threads(z, seed, threads).with_kernel(Kernel::Packed);
            let got = shape_answers(&packed, g, *s, *t, cands, budget);
            assert_eq!(want, got, "{label} z={z} t{threads}");
        }
    }
}

/// The packed kernel pools its per-thread scratch across calls. Running a
/// large graph, then a small one, then the large one again on one thread
/// must answer exactly like each graph on a fresh thread (fresh pools):
/// whatever a query leaves in the pooled scratch — early-exit frontier
/// bits, word lists sized for another graph — is cleared before reuse.
#[test]
fn packed_scratch_reuse_across_graph_sizes_stays_clean() {
    use relmax::sampling::{Budget, Kernel};
    let large = ring_instance(5000, 2, 11);
    let small = ring_instance(130, 4, 12);
    let budget = Budget::fixed(577);
    let est = McEstimator::with_threads(577, 0x5c, 1).with_kernel(Kernel::Packed);
    let run = |(g, s, t, cands): &(CsrGraph, NodeId, NodeId, Vec<CandidateEdge>)| {
        shape_answers(&est, g, *s, *t, cands, budget)
    };
    let fresh = |inst: &(CsrGraph, NodeId, NodeId, Vec<CandidateEdge>)| {
        std::thread::scope(|scope| scope.spawn(|| run(inst)).join().unwrap())
    };
    let (want_large, want_small) = (fresh(&large), fresh(&small));
    assert_eq!(run(&large), want_large, "large, first");
    assert_eq!(run(&small), want_small, "small after large");
    assert_eq!(run(&large), want_large, "large after small");
    let scalar = McEstimator::new(577, 0x5c).with_kernel(Kernel::Scalar);
    let (g, s, t, cands) = &small;
    assert_eq!(shape_answers(&scalar, g, *s, *t, cands, budget), want_small);
}

/// Two islands of 150 nodes each (`v → v + 1, v + 2` around each island
/// plus 40 random chords inside it), directed or undirected: pairs on
/// different islands never connect, so the bidirectional `st` search
/// settles them by one side running dry.
fn two_islands(directed: bool, seed: u64) -> UncertainGraph {
    let half = 150u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = UncertainGraph::new(2 * half as usize, directed);
    for base in [0, half] {
        for i in 0..half {
            for j in 1..=2 {
                let (a, b) = (base + i, base + (i + j) % half);
                let _ = g.add_edge(NodeId(a), NodeId(b), rng.gen_range(0.3..0.95));
            }
        }
        for _ in 0..40 {
            let (a, b) = (base + rng.gen_range(0..half), base + rng.gen_range(0..half));
            if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                g.add_edge(NodeId(a), NodeId(b), rng.gen_range(0.2..0.9))
                    .unwrap();
            }
        }
    }
    g
}

/// Same-island, wrapping, cross-island (both ways) and `s == t` pairs.
const ISLAND_PAIRS: [(u32, u32); 6] = [(3, 9), (149, 2), (5, 200), (260, 40), (7, 7), (170, 171)];

/// Packed `st` against the scalar forward reference on `g`: the raw hit
/// counts over unaligned ranges and tail blocks, and the estimates at
/// threads 1, 2 and 3. Returns the hits of each pair over `0..1000`.
fn assert_st_kernels_agree<G: ProbGraph>(label: &str, g: &G, seed: u64) -> Vec<u64> {
    use relmax::sampling::{packed, scalar, Budget, Estimator, Kernel};
    let budget = Budget::fixed(577);
    let scalar_est = McEstimator::new(577, seed).with_kernel(Kernel::Scalar);
    let mut totals = Vec::new();
    for (s, t) in ISLAND_PAIRS.map(|(s, t)| (NodeId(s), NodeId(t))) {
        for (lo, hi) in [(0u64, 1u64), (0, 64), (5, 70), (63, 200), (0, 1000)] {
            assert_eq!(
                packed::st_hits(g, seed, s, t, lo, hi),
                scalar::st_hits(g, seed, s, t, lo, hi),
                "{label} {s:?}->{t:?} worlds {lo}..{hi}"
            );
        }
        totals.push(scalar::st_hits(g, seed, s, t, 0, 1000));
        let want = scalar_est.st_estimate(g, s, t, budget);
        for threads in [1, 2, 3] {
            let est = McEstimator::with_threads(577, seed, threads).with_kernel(Kernel::Packed);
            assert_eq!(
                want,
                est.st_estimate(g, s, t, budget),
                "{label} {s:?}->{t:?} t{threads}"
            );
        }
    }
    totals
}

/// The bidirectional packed `st` (forward from `s`, backward from `t`,
/// lanes retired as they meet or as a side runs dry) counts exactly the
/// worlds the scalar forward search counts: on directed and undirected
/// graphs, across islands (no index, so a side must run dry), for
/// `s == t`, on a pruned graph, and on an update overlay whose in-arcs
/// carry the overlay's coin ids.
#[test]
fn packed_meet_matches_scalar_forward_st() {
    use std::sync::Arc;
    for directed in [true, false] {
        let g = two_islands(directed, 0xB1D + directed as u64);
        let csr = CsrGraph::freeze(&g);
        let kind = if directed { "directed" } else { "undirected" };
        let hits = assert_st_kernels_agree(&format!("{kind} adjacency"), &g, 0x51);
        assert_eq!(
            hits,
            assert_st_kernels_agree(&format!("{kind} csr"), &csr, 0x51)
        );
        // Same-island pairs hit in some worlds and miss in others; cross
        // pairs never hit; `s == t` always does.
        assert!(hits[0] > 0 && hits[0] < 1000, "{kind} {hits:?}");
        assert_eq!((hits[2], hits[3], hits[4]), (0, 0, 1000), "{kind}");

        // Pruned: arcs into every seventh node are masked out.
        let allowed: Vec<u64> = (0..csr.num_nodes().div_ceil(64))
            .map(|w| {
                (0..64)
                    .filter(|b| (w * 64 + b) % 7 != 0)
                    .fold(0u64, |m, b| m | 1 << b)
            })
            .collect();
        let pruned = relmax::ugraph::PrunedGraph::new(&csr, &allowed);
        assert_st_kernels_agree(&format!("{kind} pruned"), &pruned, 0x52);

        // Overlay: a bridge between the islands both ways, a re-probed
        // ring arc and a deleted one. The re-probe retires the old coin
        // and appends a fresh one that both arc directions must carry.
        let mut delta = DeltaOverlay::new(Arc::new(csr));
        let (n, p) = (NodeId, 0.8);
        delta
            .apply(&[
                GraphUpdate::Insert {
                    src: n(140),
                    dst: n(190),
                    prob: p,
                },
                GraphUpdate::Insert {
                    src: n(210),
                    dst: n(20),
                    prob: p,
                },
                GraphUpdate::SetProb {
                    src: n(4),
                    dst: n(5),
                    prob: 0.05,
                },
                GraphUpdate::SetProb {
                    src: n(188),
                    dst: n(190),
                    prob: 0.99,
                },
                GraphUpdate::Delete {
                    src: n(6),
                    dst: n(7),
                },
            ])
            .unwrap();
        let hits = assert_st_kernels_agree(&format!("{kind} overlay"), &delta, 0x53);
        assert!(hits[2] > 0, "{kind}: the bridge connects the islands");
    }
}

/// Packed == scalar where the coin memo draws per live lane: ranges that
/// start with few lanes (`5..9`: one four-lane block; `63..65`: shards
/// of one or two lanes) and full blocks whose lanes retire at staggered
/// rounds (`0..1000`), for `st`, hop-bounded `st`, `set`, `hops` and the
/// BE candidate scan — the raw counts summed over the shards that threads
/// 1, 2 and 3 cut the range into.
#[test]
fn packed_matches_scalar_as_live_lanes_shrink() {
    use relmax::sampling::{packed, scalar};
    use relmax::ugraph::ExtraEdge;
    let ring = relmax::gen::synth::RingChords::new(1000, 4, 3).to_graph();
    let ring = CsrGraph::freeze(&ring);
    let islands = CsrGraph::freeze(&two_islands(true, 0x1a7e));
    let seed = 0x11fe;
    let n = |v| NodeId(v);
    // 2-, 4- and 5-hop ring pairs, one wrapping past node 0; a same-island
    // pair and a cross-island one, which no world connects.
    let instances = [
        (
            "ring",
            &ring,
            [(n(100), n(108)), (n(100), n(114)), (n(995), n(15))],
        ),
        (
            "islands",
            &islands,
            [(n(3), n(9)), (n(149), n(2)), (n(5), n(200))],
        ),
    ];
    for (label, g, pairs) in instances {
        for (s, t) in pairs {
            let (s2, t2) = (n((s.0 + 2) % 300), n((t.0 + 3) % 300));
            let cands = [
                ExtraEdge {
                    src: s,
                    dst: n((s.0 + 5) % 300),
                    prob: 0.6,
                },
                ExtraEdge {
                    src: n((s.0 + 1) % 300),
                    dst: t,
                    prob: 0.3,
                },
                ExtraEdge {
                    src: t,
                    dst: s,
                    prob: 0.8,
                },
            ];
            for (lo, hi) in [(5u64, 9u64), (63, 65), (0, 1000)] {
                let what = format!("{label} {s:?}->{t:?} worlds {lo}..{hi}");
                let mut want_scan = vec![0; cands.len()];
                scalar::scan_counts(g, seed, s, t, &cands, lo..hi, &mut want_scan);
                let want = (
                    scalar::st_hits(g, seed, s, t, lo, hi),
                    scalar::set_counts(g, seed, &[s], &[t], Some(3), lo, hi),
                    scalar::set_counts(g, seed, &[s, s2], &[t, t2], None, lo, hi),
                    scalar::set_counts(g, seed, &[s], &[t], None, lo, hi),
                    want_scan,
                );
                for threads in [1, 2, 3] {
                    let mut got = (0, (0, 0), (0, 0), (0, 0), vec![0; cands.len()]);
                    ParallelRuntime::new(threads).shard_samples(
                        1,
                        lo,
                        hi,
                        |_, a, b| {
                            let mut scan = vec![0; cands.len()];
                            packed::scan_counts(g, seed, s, t, &cands, a..b, &mut scan);
                            (
                                packed::st_hits(g, seed, s, t, a, b),
                                packed::set_counts(g, seed, &[s], &[t], Some(3), a, b),
                                packed::set_counts(g, seed, &[s, s2], &[t, t2], None, a, b),
                                packed::set_counts(g, seed, &[s], &[t], None, a, b),
                                scan,
                            )
                        },
                        |_, part| {
                            let add = |x: &mut (u64, u64), y: (u64, u64)| {
                                *x = (x.0 + y.0, x.1 + y.1);
                            };
                            got.0 += part.0;
                            add(&mut got.1, part.1);
                            add(&mut got.2, part.2);
                            add(&mut got.3, part.3);
                            for (c, p) in got.4.iter_mut().zip(part.4) {
                                *c += p;
                            }
                        },
                    );
                    assert_eq!(want, got, "{what} t{threads}");
                }
            }
        }
    }
}
