//! Seeded input generation: the partitioned certain-edge snapshot, s-t
//! pair lists, and the `POST /update` stream. `e2ebench/run.py` calls
//! these once per (seed, parameters) and caches the files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax_bench::sampling_bench::partitioned_certain_graph;
use relmax_gen::updates::update_line;
use relmax_ugraph::{snapshot, DeltaOverlay, GraphUpdate, NodeId, ProbGraph, RelIndex};
use std::collections::HashSet;
use std::io::Write;
use std::sync::Arc;

/// Write the partitioned certain-edge graph (8 Watts–Strogatz islands,
/// ~30% `p = 1` edges) as a `.rgs` snapshot with its index section.
pub fn partitioned(
    islands: usize,
    island_nodes: usize,
    k: usize,
    seed: u64,
    out: &str,
) -> Result<String, String> {
    let g = partitioned_certain_graph(islands, island_nodes, k, seed);
    let csr = g.freeze();
    let index = RelIndex::build(&csr);
    let stats = index.stats();
    snapshot::save_full(&csr, Some(&index.section()), out).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!(
        "{{\"nodes\":{},\"coins\":{},\"supernodes\":{},\"components\":{}}}",
        csr.num_nodes(),
        csr.num_coins(),
        stats.supernodes,
        stats.components
    ))
}

/// Print `count` s-t pairs `min_hops..=max_hops` apart (the paper's draw,
/// `relmax_gen::st_queries`), one `s t` pair per line.
pub fn pairs(
    graph: &str,
    count: usize,
    min_hops: u32,
    max_hops: u32,
    seed: u64,
) -> Result<String, String> {
    let (csr, _) = snapshot::open_full(graph).map_err(|e| format!("{graph}: {e}"))?;
    let mut out = String::new();
    for (s, t) in relmax_gen::queries::st_queries(&csr, count, min_hops, max_hops, seed) {
        out.push_str(&format!("{} {}\n", s.0, t.0));
    }
    Ok(out)
}

/// Write `batches` update batches for the partitioned graph: each batch
/// stays inside one island and holds `setp` re-probes plus one
/// delete/insert pair, all on uncertain edges, so the edge count and the
/// share of certain edges stay stationary. Every batch is checked against
/// a local overlay, so the stream applies cleanly in order. Batches are
/// separated by `# batch N` lines.
pub fn updates(
    graph: &str,
    island_nodes: usize,
    batches: usize,
    reprobes: usize,
    seed: u64,
    out: &str,
) -> Result<(), String> {
    let (csr, _) = snapshot::open_full(graph).map_err(|e| format!("{graph}: {e}"))?;
    let g = csr
        .thaw()
        .map_err(|e| format!("{graph}: cannot thaw: {e}"))?;
    let islands = g.num_nodes() / island_nodes;
    // Live uncertain edges per island, normalized (lo, hi).
    let mut live: Vec<Vec<(u32, u32)>> = vec![Vec::new(); islands];
    for e in g.edges() {
        if e.prob < 1.0 {
            let (a, b) = (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0));
            live[a as usize / island_nodes].push((a, b));
        }
    }
    let mut pairs: HashSet<(u32, u32)> = g
        .edges()
        .iter()
        .map(|e| (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0)))
        .collect();
    let mut overlay = DeltaOverlay::new(Arc::new(csr));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00d0_a7e5);
    let mut f = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    let prob = |rng: &mut StdRng| (rng.gen_range(0.3..0.9) * 1000.0_f64).round() / 1000.0;
    for b in 0..batches {
        let island = rng.gen_range(0..islands);
        let edges = &mut live[island];
        let mut batch = Vec::with_capacity(reprobes + 2);
        for _ in 0..reprobes {
            let (a, c) = edges[rng.gen_range(0..edges.len())];
            batch.push(GraphUpdate::SetProb {
                src: NodeId(a),
                dst: NodeId(c),
                prob: prob(&mut rng),
            });
        }
        let victim = rng.gen_range(0..edges.len());
        let (a, c) = edges.swap_remove(victim);
        pairs.remove(&(a, c));
        batch.push(GraphUpdate::Delete {
            src: NodeId(a),
            dst: NodeId(c),
        });
        let base = (island * island_nodes) as u32;
        let fresh = loop {
            let u = base + rng.gen_range(0..island_nodes as u32);
            let v = base + rng.gen_range(0..island_nodes as u32);
            let key = (u.min(v), u.max(v));
            if u != v && !pairs.contains(&key) {
                break key;
            }
        };
        pairs.insert(fresh);
        edges.push(fresh);
        batch.push(GraphUpdate::Insert {
            src: NodeId(fresh.0),
            dst: NodeId(fresh.1),
            prob: prob(&mut rng),
        });
        writeln!(f, "# batch {b}").map_err(|e| e.to_string())?;
        for u in &batch {
            overlay
                .apply_one(u)
                .map_err(|e| format!("generated update does not apply: {e}"))?;
            writeln!(f, "{}", update_line(u)).map_err(|e| e.to_string())?;
        }
    }
    f.flush().map_err(|e| e.to_string())
}
