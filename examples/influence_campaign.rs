//! Influence-maximization application (§8.4.2 of the paper, Figure 8).
//!
//! On a DBLP-like collaboration network, a "campaign" wants to spread
//! from a group of senior researchers (sources) to junior researchers
//! (targets) under the Independent Cascade model. Adding a new edge means
//! recommending a collaboration. Average-aggregate reliability
//! maximization is compared against eigenvalue optimization (EO), the
//! paper's Figure 8 competitor, with influence spread as the end metric.
//!
//! Run with: `cargo run --release --example influence_campaign`

use relmax::core::multi::{multi_candidates_budgeted, MultiMethod};
use relmax::gen::proxy::DatasetProxy;
use relmax::influence::influence_spread;
use relmax::prelude::*;
use relmax::ugraph::GraphView;

fn main() {
    // A scaled DBLP proxy (the paper uses the real 1.29M-node DBLP).
    let g = DatasetProxy::Dblp.generate(0.003, 11);
    println!(
        "DBLP-like network: {} authors, {} co-author edges",
        g.num_nodes(),
        g.num_edges()
    );

    // Seniors: the 10 highest-degree authors. Juniors: 100 low-degree ones.
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    let seniors: Vec<NodeId> = by_degree[..10].to_vec();
    let juniors: Vec<NodeId> = by_degree
        .iter()
        .rev()
        .filter(|v| g.out_degree(**v) >= 1)
        .take(100)
        .copied()
        .collect();

    let samples = 400;
    let base_spread = influence_spread(&g, &seniors, Some(&juniors), samples, 1);
    println!(
        "Expected IC influence spread seniors -> juniors: {:.1} of {}\n",
        base_spread,
        juniors.len()
    );

    // Recommend k new collaborations, zeta = 0.5 (paper's default).
    let k = 20;
    let est = McEstimator::new(400, 5);
    let query = MultiQuery::new(seniors.clone(), juniors.clone(), k, 0.5, Aggregate::Average);
    let mut query = query;
    query.r = 40;
    query.l = 10;
    let candidates = multi_candidates_budgeted(&g, &query, &est, est.default_budget());
    println!(
        "{} candidate collaborations after elimination",
        candidates.len()
    );

    for method in [MultiMethod::BatchEdge, MultiMethod::Eigen] {
        let selector = MultiSelector::with_method(method);
        let out = selector.select_with_candidates_budgeted(
            &g,
            &query,
            &candidates,
            &est,
            est.default_budget(),
        );
        let view = GraphView::new(&g, out.added.clone());
        let spread = influence_spread(&view, &seniors, Some(&juniors), samples, 1);
        println!(
            "{:<6} adds {:>2} edges: avg pair reliability {:.4} -> {:.4}, influence spread {:.1} -> {:.1}",
            selector.name(),
            out.added.len(),
            out.base_value,
            out.new_value,
            base_spread,
            spread
        );
    }
    println!("\n(The paper's Figure 8 shows the same ordering: BE's query-aware choices\n beat EO's global eigenvalue heuristic on targeted spread.)");
}
