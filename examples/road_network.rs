//! Road-network scenario from the paper's introduction: a city grid where
//! edge probabilities model congestion-free traversal, and a logistics
//! operator may build `k` new road segments (flyovers) to maximize
//! on-time delivery probability between a depot and a warehouse.
//!
//! Shows the whole pipeline — search-space elimination, MRP vs IP vs BE —
//! plus the restricted Problem 2 solution on its own.
//!
//! Run with: `cargo run --release --example road_network`

use relmax::paths::{improve_most_reliable_path, most_reliable_path};
use relmax::prelude::*;
use relmax::ugraph::edgelist;

/// Build a `w x h` grid with congestion-dependent probabilities: arterial
/// roads (every 3rd row) flow well, side streets are congested. The edge
/// records go through [`edgelist::from_edges`] — the same validated
/// construction path the `relmax ingest` parser uses.
fn city_grid(w: u32, h: u32) -> UncertainGraph {
    let id = |x: u32, y: u32| y * w + x;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let arterial = y % 3 == 0;
            if x + 1 < w {
                let p = if arterial { 0.85 } else { 0.45 };
                edges.push((id(x, y), id(x + 1, y), p));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1), 0.5));
            }
        }
    }
    edgelist::from_edges((w * h) as usize, false, edges).expect("grid edges are valid")
}

fn main() {
    let (w, h) = (12u32, 9u32);
    let g = city_grid(w, h);
    let depot = NodeId(0); // north-west corner
    let warehouse = NodeId(w * h - 1); // south-east corner
    println!(
        "City grid {w} x {h}: {} intersections, {} road segments",
        g.num_nodes(),
        g.num_edges()
    );

    let est = McEstimator::new(8_000, 3);
    let base = est
        .st_estimate(&g, depot, warehouse, est.default_budget())
        .value;
    let mrp = most_reliable_path(&g, depot, warehouse).expect("grid is connected");
    println!(
        "Depot -> warehouse: reliability {base:.3}, most reliable path prob {:.4} ({} hops)\n",
        mrp.prob,
        mrp.len()
    );

    // Budget: 4 new segments, each with probability 0.8 (grade-separated
    // flyovers are rarely congested). New segments only between
    // intersections at most 3 blocks apart.
    let query = StQuery::new(depot, warehouse, 4, 0.8)
        .with_hop_limit(Some(3))
        .with_r(40)
        .with_l(30);

    println!("{:<28} {:>10} {:>8}", "method", "R after", "gain");
    let methods = [
        ("most reliable path (MRP)", AnySelector::mrp()),
        ("individual paths (IP)", AnySelector::individual_path()),
        ("path batches (BE)", AnySelector::batch_edge()),
    ];
    for (desc, m) in methods {
        let out = m
            .select_budgeted(&g, &query, &est, est.default_budget())
            .expect("selection succeeds");
        println!(
            "{desc:<28} {:>10.3} {:>+8.3}",
            out.new_reliability,
            out.gain()
        );
    }

    // The restricted problem on its own: the best single corridor.
    let cands = SearchSpaceElimination::new(40).candidate_edges_budgeted(
        &g,
        &query,
        &est,
        est.default_budget(),
    );
    let triples: Vec<_> = cands.iter().map(|c| (c.src, c.dst, c.prob)).collect();
    let sol = improve_most_reliable_path(&g, depot, warehouse, 4, &triples);
    println!(
        "\nProblem 2 (exact): best corridor probability {:.4} -> {:.4} using {} new segments",
        sol.baseline_prob,
        sol.prob,
        sol.chosen.len()
    );
}
