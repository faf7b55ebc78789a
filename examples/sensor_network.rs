//! Sensor-network case study (§8.4.1 of the paper, Figures 6-7, Table 11).
//!
//! Generates the Intel-Lab-like 54-mote deployment, picks two hard
//! queries — a left-right pair and a diagonal pair, like the paper's
//! sensors 21→46 and 15→40 — and installs 3 new radio links (≤ 15 m,
//! probability = fleet-average link quality) chosen by batch-edge
//! selection. Also cross-checks BE against exhaustive search, the paper's
//! Table 11 experiment.
//!
//! Run with: `cargo run --release --example sensor_network`

use relmax::core::baselines::ExactSelector;
use relmax::gen::sensor::{SensorLab, MAX_NEW_LINK_DIST};
use relmax::prelude::*;

fn main() {
    let lab = SensorLab::generate(7);
    let zeta = lab.avg_link_prob();
    let est = McEstimator::new(5_000, 99);
    println!(
        "Sensor lab: {} motes, {} directed links, average link probability {:.2}",
        lab.graph.num_nodes(),
        lab.graph.num_edges(),
        zeta
    );

    // Candidate links: missing pairs no farther than 15 meters apart.
    let installable = lab.installable_pairs(MAX_NEW_LINK_DIST);
    let candidates: Vec<CandidateEdge> = installable
        .iter()
        .map(|&(u, v)| CandidateEdge {
            src: u,
            dst: v,
            prob: zeta,
        })
        .collect();
    println!(
        "{} installable short-range links (<= {MAX_NEW_LINK_DIST} m)\n",
        candidates.len()
    );

    // Query 1: the farthest-apart pair (the paper's "right to left" case).
    // Query 2: a diagonal pair.
    let (far_a, far_b) = lab.farthest_pair();
    let diag = (NodeId(10), NodeId(43));
    for (name, s, t) in [
        ("far pair", far_a, far_b),
        ("diagonal pair", diag.0, diag.1),
    ] {
        let query = StQuery::new(s, t, 3, zeta).with_hop_limit(None);
        let base = est
            .st_estimate(&lab.graph, s, t, est.default_budget())
            .value;
        let out = BatchEdgeSelector
            .select_with_candidates_budgeted(
                &lab.graph,
                &query,
                &candidates,
                &est,
                est.default_budget(),
            )
            .expect("BE is infallible");
        println!(
            "{name}: {s} at ({:.0},{:.0}) -> {t} at ({:.0},{:.0})",
            lab.coords[s.index()].0,
            lab.coords[s.index()].1,
            lab.coords[t.index()].0,
            lab.coords[t.index()].1
        );
        println!(
            "  reliability {base:.2} -> {:.2} with 3 new links:",
            out.new_reliability
        );
        for e in &out.added {
            println!(
                "    install {} -> {} ({:.1} m apart)",
                e.src,
                e.dst,
                lab.distance(e.src, e.dst)
            );
        }
    }

    // Table 11 style: BE vs exhaustive search on a restricted candidate
    // set (full ES over hundreds of candidates is C(n,3)-expensive, so
    // pre-filter with elimination to keep the demo quick).
    println!("\nBE vs exhaustive search (Table 11 protocol, reduced candidates):");
    let (s, t) = (far_a, far_b);
    let query = StQuery::new(s, t, 3, zeta).with_hop_limit(None).with_r(12);
    let reduced = SearchSpaceElimination::new(12).candidate_edges_budgeted(
        &lab.graph,
        &query,
        &est,
        est.default_budget(),
    );
    let reduced: Vec<CandidateEdge> = reduced
        .into_iter()
        .filter(|c| lab.distance(c.src, c.dst) <= MAX_NEW_LINK_DIST)
        .collect();
    println!(
        "  {} candidates after elimination + distance filter",
        reduced.len()
    );
    let be = BatchEdgeSelector
        .select_with_candidates_budgeted(&lab.graph, &query, &reduced, &est, est.default_budget())
        .expect("BE is infallible");
    match ExactSelector::default().select_with_candidates_budgeted(
        &lab.graph,
        &query,
        &reduced,
        &est,
        est.default_budget(),
    ) {
        Ok(es) => {
            println!(
                "  BE: gain {:+.3}   ES (optimal): gain {:+.3}",
                be.gain(),
                es.gain()
            );
            println!(
                "  BE reaches {:.0}% of the optimal gain",
                100.0 * be.gain() / es.gain().max(1e-9)
            );
        }
        Err(e) => println!("  ES skipped: {e}  (BE gain {:+.3})", be.gain()),
    }
}
