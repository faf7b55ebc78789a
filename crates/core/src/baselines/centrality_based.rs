//! Centrality-based baseline (§3.3): connect the most central nodes.
//!
//! Ranks candidate edges by the combined centrality of their endpoints
//! (probability-weighted degree, or Brandes betweenness) and adds the
//! top `k`. Cheap — `O(m + n)` or `O(nm)` — but query-oblivious, which is
//! why it trails the proposed methods on every table.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_centrality::{betweenness_centrality, degree_centrality};
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::CsrGraph;

/// Which centrality drives the ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralityKind {
    /// Probability-weighted degree (the paper's "degree centrality").
    Degree,
    /// Brandes betweenness. `pivots` limits sources for large graphs
    /// (`None` = exact).
    Betweenness {
        /// Number of sampled pivot sources, if approximating.
        pivots: Option<usize>,
    },
}

/// The §3.3 baseline.
#[derive(Debug, Clone, Copy)]
pub struct CentralitySelector {
    /// Centrality variant.
    pub kind: CentralityKind,
}

impl CentralitySelector {
    /// Degree-centrality selector.
    pub fn degree() -> Self {
        CentralitySelector {
            kind: CentralityKind::Degree,
        }
    }

    /// Betweenness-centrality selector (exact).
    pub fn betweenness() -> Self {
        CentralitySelector {
            kind: CentralityKind::Betweenness { pivots: None },
        }
    }
}

impl EdgeSelector for CentralitySelector {
    fn name(&self) -> &'static str {
        match self.kind {
            CentralityKind::Degree => "Cent-Deg",
            CentralityKind::Betweenness { .. } => "Cent-Bet",
        }
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let scores = match self.kind {
            CentralityKind::Degree => degree_centrality(g),
            CentralityKind::Betweenness { pivots } => {
                betweenness_centrality(g, pivots.map(|p| (p, 0x5eed)))
            }
        };
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let edge_score = |c: &CandidateEdge| scores[c.src.index()] + scores[c.dst.index()];
        order.sort_by(|&a, &b| {
            edge_score(&candidates[b])
                .partial_cmp(&edge_score(&candidates[a]))
                .expect("centrality scores never NaN")
                .then_with(|| a.cmp(&b))
        });
        let added: Vec<CandidateEdge> = order
            .into_iter()
            .take(query.k)
            .map(|i| candidates[i])
            .collect();
        Ok(finish_outcome_budgeted(g, query, added, est, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    /// Hub-and-spoke graph: node 1 is the hub.
    fn hub() -> UncertainGraph {
        let mut g = UncertainGraph::new(6, false);
        for i in [0u32, 2, 3, 4] {
            g.add_edge(NodeId(1), NodeId(i), 0.8).unwrap();
        }
        g.add_edge(NodeId(4), NodeId(5), 0.3).unwrap();
        g
    }

    #[test]
    fn degree_variant_prefers_hub_incident_candidates() {
        let g = hub();
        let q = StQuery::new(NodeId(0), NodeId(5), 1, 0.5);
        let cands = [
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(5),
                prob: 0.5,
            }, // hub edge
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.5,
            },
        ];
        let est = McEstimator::new(3000, 1);
        let out = CentralitySelector::degree()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added[0].src, NodeId(1));
        assert!(out.gain() > 0.0);
    }

    #[test]
    fn betweenness_variant_runs_and_ranks() {
        let g = hub();
        let q = StQuery::new(NodeId(0), NodeId(5), 2, 0.5);
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(4),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(2),
                dst: NodeId(3),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(5),
                prob: 0.5,
            },
        ];
        let est = McEstimator::new(3000, 2);
        let sel = CentralitySelector::betweenness();
        let out = sel
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 2);
        // Node 1 (the hub) and node 4 (bridge to 5) dominate betweenness;
        // the (2,3) leaf pair must lose.
        assert!(!out
            .added
            .iter()
            .any(|c| (c.src, c.dst) == (NodeId(2), NodeId(3))));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(CentralitySelector::degree().name(), "Cent-Deg");
        assert_eq!(CentralitySelector::betweenness().name(), "Cent-Bet");
    }
}
