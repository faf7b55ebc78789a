//! Pinned estimate bits for the sampled-world paths outside the packed
//! kernel: RSS (`st` under fixed and accuracy budgets, `from`, `to`) and
//! influence spread. Every value below was recorded before these paths
//! were moved onto the scalar reference's breadth-first `world_search`;
//! reachability does not depend on search order, so no bit may move.
//!
//! The multi-source/target selector's choices and aggregate values are
//! pinned the same way: they were recorded before the single- and
//! multi-pair BE shared one Algorithm 6 loop.
//!
//! A vector answer is pinned by a checksum over every field of every
//! entry, so one flipped bit anywhere changes it.

use relmax::core::multi::{multi_candidates_budgeted, MultiMethod};
use relmax::gen::proxy::DatasetProxy;
use relmax::gen::synth::{watts_strogatz, RingChords};
use relmax::influence::{activation_probability, influence_spread};
use relmax::prelude::*;
use relmax::sampling::Estimate;
use relmax::ugraph::{ExtraEdge, GraphView};

/// FNV-1a over 64-bit words.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn estimate_bits(e: &Estimate) -> u64 {
    fold([
        e.value.to_bits(),
        e.stderr.to_bits(),
        e.ci_low.to_bits(),
        e.ci_high.to_bits(),
        e.samples_used as u64,
        e.stopped_early as u64,
    ])
}

fn vector_bits(v: &[Estimate]) -> u64 {
    fold(v.iter().map(estimate_bits))
}

/// A named graph with a near and a far `(s, t)` pair.
type Case = (&'static str, UncertainGraph, [(u32, u32); 2]);

/// Directed ring-chords (out-degree 4) and undirected Watts–Strogatz
/// graphs, with a near and a far pair on each.
fn graphs() -> Vec<Case> {
    let ring = RingChords::new(600, 4, 0x71).to_graph();
    let mut ws = watts_strogatz(400, 6, 0.2, 0xbe9c);
    ProbModel::Uniform { lo: 0.1, hi: 0.6 }.apply(&mut ws, 0x77);
    vec![
        ("ring", ring, [(590, 12), (10, 300)]),
        ("ws", ws, [(3, 5), (0, 200)]),
    ]
}

fn rss_bits() -> Vec<(String, u64)> {
    let fixed = Budget::fixed(2_000);
    let accuracy = Budget::accuracy_capped(0.03, 0.05, 4_096);
    let mut out = Vec::new();
    for (name, g, pairs) in graphs() {
        for threads in [1, 3] {
            let rss = RssEstimator::with_threads(2_000, 17, threads);
            for (i, &(s, t)) in pairs.iter().enumerate() {
                let (s, t) = (NodeId(s), NodeId(t));
                for (budget_name, budget) in [("fixed", fixed), ("accuracy", accuracy)] {
                    let e = rss.st_estimate(&g, s, t, budget);
                    out.push((
                        format!("rss st {name} pair{i} {budget_name} t{threads}"),
                        estimate_bits(&e),
                    ));
                }
            }
            let (s, t) = (NodeId(pairs[1].0), NodeId(pairs[1].1));
            let from = rss.from_estimates(&g, s, fixed);
            out.push((format!("rss from {name} t{threads}"), vector_bits(&from)));
            let to = rss.to_estimates(&g, t, fixed);
            out.push((format!("rss to {name} t{threads}"), vector_bits(&to)));
        }
    }
    out
}

fn influence_bits() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, g, pairs) in graphs() {
        let extra = vec![
            ExtraEdge {
                src: NodeId(pairs[0].0),
                dst: NodeId(pairs[1].1),
                prob: 0.7,
            },
            ExtraEdge {
                src: NodeId(pairs[1].0),
                dst: NodeId(pairs[0].1),
                prob: 0.4,
            },
        ];
        let view = GraphView::new(&g, extra);
        let seeds = [
            NodeId(pairs[0].0),
            NodeId(pairs[1].0),
            NodeId(pairs[0].0),
            NodeId(77),
        ];
        let probs = activation_probability(&view, &seeds, 1_500, 9);
        out.push((
            format!("influence activation {name}"),
            fold(probs.iter().map(|p| p.to_bits())),
        ));
        let targets = [NodeId(pairs[0].1), NodeId(pairs[1].1), NodeId(100)];
        for (label, ts) in [("all", None), ("targets", Some(&targets[..]))] {
            let spread = influence_spread(&view, &seeds[..2], ts, 1_000, 4);
            out.push((format!("influence spread {name} {label}"), spread.to_bits()));
        }
    }
    out
}

/// Compare against the pinned table; on a mismatch print the whole
/// computed table so a deliberate change can be reviewed line by line.
fn check(got: Vec<(String, u64)>, want: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(k, v)| format!("        (\"{k}\", {v:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "computed:\n{table}");
    for ((k, v), (wk, wv)) in got.iter().zip(want) {
        assert_eq!((k.as_str(), *v), (*wk, *wv), "computed:\n{table}");
    }
}

#[test]
fn rss_estimate_bits_are_pinned() {
    check(
        rss_bits(),
        &[
            ("rss st ring pair0 fixed t1", 0xdeb3ced5855c283a),
            ("rss st ring pair0 accuracy t1", 0x46e768c76d699910),
            ("rss st ring pair1 fixed t1", 0xd6879beff992c7f9),
            ("rss st ring pair1 accuracy t1", 0x6acca9f5c1ccb88a),
            ("rss from ring t1", 0x972a7694e128bd0d),
            ("rss to ring t1", 0x632c6450532da028),
            ("rss st ring pair0 fixed t3", 0xdeb3ced5855c283a),
            ("rss st ring pair0 accuracy t3", 0x46e768c76d699910),
            ("rss st ring pair1 fixed t3", 0xd6879beff992c7f9),
            ("rss st ring pair1 accuracy t3", 0x6acca9f5c1ccb88a),
            ("rss from ring t3", 0x972a7694e128bd0d),
            ("rss to ring t3", 0x632c6450532da028),
            ("rss st ws pair0 fixed t1", 0x71e4864f075db588),
            ("rss st ws pair0 accuracy t1", 0x4974364d66556fd4),
            ("rss st ws pair1 fixed t1", 0xdd49c05150545497),
            ("rss st ws pair1 accuracy t1", 0xdb29365fe4695ffc),
            ("rss from ws t1", 0xaa3f65ef541bf9c9),
            ("rss to ws t1", 0x8b1229bf4e2e20e1),
            ("rss st ws pair0 fixed t3", 0x71e4864f075db588),
            ("rss st ws pair0 accuracy t3", 0x4974364d66556fd4),
            ("rss st ws pair1 fixed t3", 0xdd49c05150545497),
            ("rss st ws pair1 accuracy t3", 0xdb29365fe4695ffc),
            ("rss from ws t3", 0xaa3f65ef541bf9c9),
            ("rss to ws t3", 0x8b1229bf4e2e20e1),
        ],
    );
}

#[test]
fn influence_bits_are_pinned() {
    check(
        influence_bits(),
        &[
            ("influence activation ring", 0x57e7e8e4a33480e7),
            ("influence spread ring all", 0x40786410624dd2ef),
            ("influence spread ring targets", 0x40054fdf3b645a1c),
            ("influence activation ws", 0xe05187cddedddd9c),
            ("influence spread ws all", 0x4073e1d2f1a9fbe9),
            ("influence spread ws targets", 0x4004a1cac083126e),
        ],
    );
}

/// One multi-selector run: its name, the `(src, dst)` of every added edge
/// in order, and the bits of `base_value` and `new_value`.
type MultiRun = (String, Vec<(u32, u32)>, u64, u64);

/// A [`MultiRun`] as pinned below.
type PinnedRun = (&'static str, &'static [(u32, u32)], u64, u64);

/// BE under each aggregate, and hill climbing under Average, on a seeded
/// proxy graph with 3 sources, 3 targets and a fixed 250-world budget.
fn multi_runs() -> Vec<MultiRun> {
    let g = DatasetProxy::LastFm.generate(0.05, 31);
    let est = McEstimator::new(250, 17);
    let budget = Budget::fixed(250);
    let sources: Vec<NodeId> = (0..3).map(NodeId).collect();
    let targets: Vec<NodeId> = (10..13).map(NodeId).collect();
    let runs = [
        (MultiMethod::BatchEdge, Aggregate::Average),
        (MultiMethod::BatchEdge, Aggregate::Minimum),
        (MultiMethod::BatchEdge, Aggregate::Maximum),
        (MultiMethod::HillClimbing, Aggregate::Average),
    ];
    let mut out = Vec::new();
    for (method, agg) in runs {
        let mut q = MultiQuery::new(sources.clone(), targets.clone(), 6, 0.5, agg);
        q.r = 20;
        q.l = 8;
        let cands = multi_candidates_budgeted(&g, &q, &est, budget);
        let sel = MultiSelector::with_method(method);
        let run = sel.select_with_candidates_budgeted(&g, &q, &cands, &est, budget);
        out.push((
            format!("{} {agg:?}", sel.name()),
            run.added.iter().map(|e| (e.src.0, e.dst.0)).collect(),
            run.base_value.to_bits(),
            run.new_value.to_bits(),
        ));
    }
    out
}

#[test]
fn multi_selector_outputs_are_pinned() {
    let want: &[PinnedRun] = &[
        (
            "BE Average",
            &[(0, 10), (0, 12), (2, 12), (11, 1), (11, 12), (1, 10)],
            0x3fe79be02468acf2,
            0x3fee10d6cffc5bee,
        ),
        (
            "BE Minimum",
            &[(1, 12), (0, 12), (1, 10), (2, 12), (0, 10), (11, 1)],
            0x3fe04189374bc6a8,
            0x3fedb22d0e560419,
        ),
        (
            "BE Maximum",
            &[(11, 1), (0, 10), (11, 10), (1, 10), (0, 12), (11, 12)],
            0x3fedd2f1a9fbe76d,
            0x3fef3b645a1cac08,
        ),
        (
            "HC Average",
            &[(0, 12), (1, 10), (1, 12), (11, 12), (11, 10), (0, 10)],
            0x3fe79be02468acf2,
            0x3fee90452d489719,
        ),
    ];
    let got = multi_runs();
    let table: String = got
        .iter()
        .map(|(k, a, b, n)| format!("        (\"{k}\", &{a:?}, {b:#018x}, {n:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "computed:\n{table}");
    for ((k, a, b, n), (wk, wa, wb, wn)) in got.iter().zip(want) {
        assert_eq!(
            (k.as_str(), a.as_slice(), *b, *n),
            (*wk, *wa, *wb, *wn),
            "computed:\n{table}"
        );
    }
}
