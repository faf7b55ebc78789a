//! Probability-weighted degree centrality (§3.3).

use relmax_ugraph::{NodeId, ProbGraph};

/// Degree centrality of every node: the sum of incident edge probabilities
/// (in + out). This is the paper's "aggregated edge probabilities"
/// definition — a node with many strong connections is a hub.
pub fn degree_centrality<G: ProbGraph>(g: &G) -> Vec<f64> {
    (0..g.num_nodes() as u32)
        .map(NodeId)
        .map(|v| {
            let mut sum: f64 = g.out_arcs(v).map(|a| a.prob).sum();
            if g.is_directed() {
                sum += g.in_arcs(v).map(|a| a.prob).sum::<f64>();
            }
            sum
        })
        .collect()
}

/// Indices of the `k` highest-scoring nodes, best first, ties broken by
/// node id for determinism.
pub fn top_k_nodes(scores: &[f64], k: usize) -> Vec<NodeId> {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("scores never NaN")
            .then_with(|| a.cmp(&b))
    });
    order.truncate(k);
    order.into_iter().map(NodeId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn hub_scores_highest() {
        // Star: node 0 connects to 1, 2, 3.
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 0.5).unwrap();
        let scores = degree_centrality(&g);
        assert!((scores[0] - 1.5).abs() < 1e-12);
        assert!((scores[1] - 0.5).abs() < 1e-12);
        assert_eq!(top_k_nodes(&scores, 1), vec![NodeId(0)]);
    }

    #[test]
    fn directed_counts_both_directions() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        g.add_edge(NodeId(2), NodeId(1), 0.6).unwrap();
        let scores = degree_centrality(&g);
        assert!((scores[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_sums_on_graph_and_snapshot() {
        // s=0 -> a=1 -> t=3, s -> b=2 -> t; the undirected twin sums the
        // same incident edges.
        for directed in [true, false] {
            let mut g = UncertainGraph::new(4, directed);
            g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
            g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
            g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
            g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
            for scores in [degree_centrality(&g), degree_centrality(&g.freeze())] {
                assert!((scores[0] - 1.1).abs() < 1e-12, "directed={directed}");
                assert!((scores[3] - 1.5).abs() < 1e-12, "directed={directed}");
                assert!((scores[1] - 1.2).abs() < 1e-12, "directed={directed}");
            }
        }
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let scores = vec![0.5, 0.5, 0.5];
        assert_eq!(top_k_nodes(&scores, 2), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn top_k_clamps_to_len() {
        let scores = vec![1.0, 2.0];
        assert_eq!(top_k_nodes(&scores, 10).len(), 2);
    }
}
