//! Eigenvalue-based baseline (§3.4, Algorithm 2), after Chen et al.
//!
//! Adding edge `(i, j)` increases the leading eigenvalue of the adjacency
//! matrix by approximately `u(i) · v(j)` (left/right eigenvector entries),
//! and a larger leading eigenvalue lowers the epidemic threshold — a proxy
//! for easier dissemination. The method scores candidates by `u(i)·v(j)`
//! and takes the top `k`. The paper's critique: the objective is global,
//! so it is not tailored to the specific `s-t` pair.

use crate::candidates::CandidateEdge;
use crate::query::StQuery;
use crate::selector::{finish_outcome_budgeted, EdgeSelector, Outcome, SelectError};
use relmax_centrality::leading_eigen;
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::fxhash::FxHashSet;
use relmax_ugraph::{CsrGraph, NodeId, ProbGraph};

/// Algorithm 2: leading-eigenvalue edge addition.
#[derive(Debug, Clone, Copy)]
pub struct EigenSelector {
    /// Power-iteration cap.
    pub max_iters: usize,
    /// Power-iteration convergence tolerance.
    pub tol: f64,
}

impl Default for EigenSelector {
    fn default() -> Self {
        EigenSelector {
            max_iters: 200,
            tol: 1e-10,
        }
    }
}

impl EdgeSelector for EigenSelector {
    fn name(&self) -> &'static str {
        "EO"
    }

    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let eig = leading_eigen(g, self.max_iters, self.tol);
        let score = |c: &CandidateEdge| eig.left[c.src.index()] * eig.right[c.dst.index()];
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            score(&candidates[b])
                .partial_cmp(&score(&candidates[a]))
                .expect("eigen scores never NaN")
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

/// Stand-alone Algorithm 2 (without a restricted candidate list): connect
/// the top-`(k + d_in)` left-eigenscore nodes to the top-`(k + d_out)`
/// right-eigenscore nodes and keep the `k` best missing pairs. Provided
/// for parity with the paper's description; the harness normally goes
/// through [`EigenSelector`] with an explicit candidate set.
pub fn eigen_topk_pairs<G: ProbGraph>(g: &G, k: usize, zeta: f64) -> Vec<CandidateEdge> {
    use relmax_centrality::degree::top_k_nodes;
    let eig = leading_eigen(g, 200, 1e-10);
    let (din, dout) = max_degrees(g);
    let i_set = top_k_nodes(&eig.left, k + din);
    let j_set = top_k_nodes(&eig.right, k + dout);
    let mut pairs: Vec<(f64, CandidateEdge)> = Vec::new();
    for &i in &i_set {
        let adjacent: FxHashSet<u32> = g.out_arcs(i).map(|a| a.node.0).collect();
        for &j in &j_set {
            if i != j && !adjacent.contains(&j.0) {
                pairs.push((
                    eig.left[i.index()] * eig.right[j.index()],
                    CandidateEdge {
                        src: i,
                        dst: j,
                        prob: zeta,
                    },
                ));
            }
        }
    }
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("never NaN"));
    pairs.dedup_by(|a, b| {
        // For undirected graphs (i, j) and (j, i) are the same edge.
        !g.is_directed()
            && ((a.1.src == b.1.src && a.1.dst == b.1.dst)
                || (a.1.src == b.1.dst && a.1.dst == b.1.src))
    });
    pairs.into_iter().take(k).map(|(_, e)| e).collect()
}

/// Maximum in-degree and out-degree over all nodes (for undirected graphs
/// both are the plain maximum degree).
fn max_degrees<G: ProbGraph>(g: &G) -> (usize, usize) {
    (0..g.num_nodes() as u32)
        .map(NodeId)
        .fold((0, 0), |(din, dout), v| {
            (
                din.max(g.in_arcs(v).count()),
                dout.max(g.out_arcs(v).count()),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::UncertainGraph;

    /// Core triangle (high eigen-centrality) plus two pendant nodes.
    fn core_periphery() -> UncertainGraph {
        let mut g = UncertainGraph::new(5, false);
        g.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.9).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.2).unwrap();
        g
    }

    #[test]
    fn prefers_core_incident_edges() {
        let g = core_periphery();
        let q = StQuery::new(NodeId(3), NodeId(4), 1, 0.5);
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            }, // touches core
            CandidateEdge {
                src: NodeId(3),
                dst: NodeId(4),
                prob: 0.5,
            }, // periphery only
        ];
        let est = McEstimator::new(2000, 1);
        let out = EigenSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        // The core edge has a much larger u(i)v(j) score — but note it does
        // NOT help the s-t query at all, which is the paper's point.
        assert_eq!(out.added[0].src, NodeId(0));
        assert!(out.gain() <= 0.02); // query-oblivious: no s-t improvement
    }

    #[test]
    fn standalone_pairs_are_missing_edges() {
        let g = core_periphery();
        let pairs = eigen_topk_pairs(&g, 3, 0.5);
        assert!(pairs.len() <= 3);
        for e in &pairs {
            assert!(!g.has_edge(e.src, e.dst));
            assert_eq!(e.prob, 0.5);
        }
    }

    /// The directed diamond `0->1->3`, `0->2->3`, and its undirected twin.
    fn diamond(directed: bool) -> UncertainGraph {
        let mut g = UncertainGraph::new(4, directed);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        g
    }

    #[test]
    fn max_degrees_on_graph_and_snapshot() {
        for directed in [true, false] {
            let g = diamond(directed);
            assert_eq!(max_degrees(&g), (2, 2), "directed={directed}");
            assert_eq!(max_degrees(&g.freeze()), (2, 2), "directed={directed}");
        }
        // In-star into 3 plus 0->1: the two maxima sit on different nodes
        // when directed, and node 3's degree is both when undirected.
        for (directed, want) in [(true, (3, 2)), (false, (3, 3))] {
            let mut g = UncertainGraph::new(4, directed);
            for (u, v) in [(0, 3), (1, 3), (2, 3), (0, 1)] {
                g.add_edge(NodeId(u), NodeId(v), 0.5).unwrap();
            }
            assert_eq!(max_degrees(&g), want, "directed={directed}");
            assert_eq!(max_degrees(&g.freeze()), want, "directed={directed}");
        }
    }

    #[test]
    fn respects_budget() {
        let g = core_periphery();
        let q = StQuery::new(NodeId(0), NodeId(4), 2, 0.5);
        let cands = [
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(3),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(1),
                dst: NodeId(3),
                prob: 0.5,
            },
            CandidateEdge {
                src: NodeId(3),
                dst: NodeId(4),
                prob: 0.5,
            },
        ];
        let est = McEstimator::new(1000, 2);
        let out = EigenSelector::default()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(out.added.len(), 2);
    }
}
