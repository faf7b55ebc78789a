//! Golden-file regression tests for selector output.
//!
//! Every baseline runs on two fixed seeded instances (an undirected
//! small-world graph and a directed ring with chords) with a fixed-seed
//! estimator, and the exact top-k edge set each method picks is committed
//! as a fixture. Each instance runs both as an `UncertainGraph` and as its
//! frozen `CsrGraph`: the two must give bit-identical outcomes and match
//! the same fixture. Selector refactors (parallel scans, kernel rewrites,
//! storage changes) can therefore never silently change an answer: if a
//! diff is intentional, regenerate the fixtures with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_selectors
//! ```
//!
//! and review the change like any other code diff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::core::baselines::ExactSelector;
use relmax::core::selector::SelectError;
use relmax::gen::prob::ProbModel;
use relmax::gen::synth;
use relmax::prelude::*;
use relmax::ugraph::AsCsr;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/selector_golden.txt"
);

const DIRECTED_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/selector_golden_directed.txt"
);

/// The frozen instance: a small-world graph with mixed probabilities and
/// every missing pair within 3 hops as a candidate.
fn golden_instance() -> (UncertainGraph, Vec<CandidateEdge>, StQuery) {
    let mut g = synth::watts_strogatz(24, 4, 0.2, 0x601d);
    ProbModel::Uniform { lo: 0.15, hi: 0.85 }.apply(&mut g, 0x601d);
    let s = NodeId(0);
    let t = NodeId(17);
    let q = StQuery::new(s, t, 3, 0.5)
        .with_hop_limit(Some(3))
        .with_l(12);
    let cands = CandidateSpace::all_missing(&g, q.zeta, Some(3));
    (g, cands, q)
}

/// A seeded directed instance: a forward ring with random chords and
/// mixed probabilities, candidates from Algorithm 4 with `r = 6` — few
/// enough that exhaustive search runs too.
fn directed_instance() -> (UncertainGraph, Vec<CandidateEdge>, StQuery) {
    let mut rng = StdRng::seed_from_u64(0xd1_7ec7);
    let n = 20u32;
    let mut g = UncertainGraph::new(n as usize, true);
    for v in 0..n {
        let p = rng.gen_range(0.2..0.9);
        g.add_edge(NodeId(v), NodeId((v + 1) % n), p).unwrap();
    }
    for _ in 0..30 {
        let (u, v, p) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0.1..0.95),
        );
        // Self-loops and duplicate pairs are rejected; skip them.
        let _ = g.add_edge(NodeId(u), NodeId(v), p);
    }
    let q = StQuery::new(NodeId(0), NodeId(11), 2, 0.5)
        .with_hop_limit(Some(3))
        .with_r(6)
        .with_l(12);
    let est = McEstimator::new(2_000, 0xFEED);
    let cands = SearchSpaceElimination::new(q.r).candidate_edges_budgeted(
        &g,
        &q,
        &est,
        est.default_budget(),
    );
    (g, cands, q)
}

/// The methods in the undirected fixture (exhaustive search left out:
/// its subsets are too many there).
fn selectors() -> Vec<AnySelector> {
    vec![
        AnySelector::top_k(),
        AnySelector::hill_climbing(),
        AnySelector::centrality_degree(),
        AnySelector::centrality_betweenness(),
        AnySelector::eigen(),
        AnySelector::mrp(),
        AnySelector::individual_path(),
        AnySelector::batch_edge(),
        AnySelector::Esssp(Default::default()),
        AnySelector::Ima(Default::default()),
    ]
}

/// Every registered method, with exhaustive search capped so that it
/// runs on the directed instance and refuses the undirected one.
fn every_selector() -> Vec<AnySelector> {
    AnySelector::all()
        .into_iter()
        .map(|sel| match sel {
            AnySelector::Exact(_) => AnySelector::Exact(ExactSelector {
                max_combinations: 10_000,
            }),
            other => other,
        })
        .collect()
}

/// Every method's whole outcome — chosen edges, every estimate, errors.
fn outcomes<G: AsCsr>(
    g: &G,
    cands: &[CandidateEdge],
    q: &StQuery,
    selectors: &[AnySelector],
) -> Vec<Result<Outcome, SelectError>> {
    let est = McEstimator::new(2_000, 0xFEED);
    selectors
        .iter()
        .map(|sel| sel.select_with_candidates_budgeted(g, q, cands, &est, est.default_budget()))
        .collect()
}

/// One line per method: `NAME: u->v@p, u->v@p` in selection order.
fn render(selectors: &[AnySelector], outcomes: &[Result<Outcome, SelectError>]) -> String {
    let mut out = String::new();
    for (sel, outcome) in selectors.iter().zip(outcomes) {
        let outcome = outcome
            .as_ref()
            .expect("selector runs on the golden instance");
        let edges: Vec<String> = outcome
            .added
            .iter()
            .map(|e| format!("{}->{}@{:.3}", e.src.0, e.dst.0, e.prob))
            .collect();
        out.push_str(&format!("{}: {}\n", sel.name(), edges.join(", ")));
    }
    out
}

/// Run the instance as a graph and as its snapshot: the whole outcomes
/// must agree bit for bit, and their rendering must match the fixture
/// (or, under `BLESS_GOLDEN`, is written to it).
fn check_fixture(
    fixture: &str,
    (g, cands, q): (UncertainGraph, Vec<CandidateEdge>, StQuery),
    selectors: &[AnySelector],
) {
    let on_graph = outcomes(&g, &cands, &q, selectors);
    let on_snapshot = outcomes(&g.freeze(), &cands, &q, selectors);
    assert_eq!(
        format!("{on_graph:?}"),
        format!("{on_snapshot:?}"),
        "graph and snapshot give different outcomes"
    );
    let rendered = render(selectors, &on_graph);
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::write(fixture, &rendered).expect("write fixture");
        eprintln!("blessed {fixture}");
        return;
    }
    let golden = std::fs::read_to_string(fixture)
        .expect("fixture missing; run with BLESS_GOLDEN=1 to generate");
    assert_eq!(
        rendered, golden,
        "selector output drifted from the golden fixture; if intentional, \
         re-bless with BLESS_GOLDEN=1 and review the diff"
    );
}

#[test]
fn selector_choices_match_golden_fixture() {
    check_fixture(FIXTURE, golden_instance(), &selectors());
}

#[test]
fn directed_selector_choices_match_golden_fixture() {
    check_fixture(DIRECTED_FIXTURE, directed_instance(), &every_selector());
}

/// The fixture itself must stay well-formed: every method present, every
/// chosen edge a real candidate, budgets respected.
#[test]
fn golden_fixture_is_well_formed() {
    if std::env::var("BLESS_GOLDEN").is_ok() {
        // The bless run may still be writing the fixture concurrently.
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; run with BLESS_GOLDEN=1 to generate");
    let (g, cands, q) = golden_instance();
    let mut methods_seen = 0;
    for line in golden.lines() {
        let (name, edges) = line.split_once(": ").unwrap_or((line, ""));
        assert!(!name.is_empty());
        methods_seen += 1;
        let picked: Vec<&str> = edges.split(", ").filter(|e| !e.is_empty()).collect();
        assert!(picked.len() <= q.k, "{name} exceeded budget in fixture");
        for e in picked {
            let (uv, _p) = e.split_once('@').expect("edge format u->v@p");
            let (u, v) = uv.split_once("->").expect("edge format u->v@p");
            let (u, v) = (
                NodeId(u.parse::<u32>().unwrap()),
                NodeId(v.parse::<u32>().unwrap()),
            );
            assert!(
                cands.iter().any(|c| (c.src, c.dst) == (u, v)),
                "{name} picked a non-candidate edge {u}->{v}"
            );
            assert!(!g.has_edge(u, v), "{name} picked an existing edge");
        }
    }
    assert_eq!(methods_seen, selectors().len(), "fixture method count");
}
