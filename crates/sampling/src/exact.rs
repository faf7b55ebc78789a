//! The conditioning solver wrapped as an [`Estimator`], for tiny graphs and
//! as ground truth in tests.

use crate::convergence::{Budget, Estimate};
use crate::Estimator;
use relmax_ugraph::exact::{st_reliability, ConditioningBudget};
use relmax_ugraph::{NodeId, ProbGraph};

/// Exact reliability oracle (conditioning with pruning).
///
/// Exponential in the worst case — intended for graphs with at most a few
/// dozen *relevant* edges, e.g. the paper's Figure 2/3 examples, the
/// Intel-Lab case study subgraphs, and sampler validation.
#[derive(Debug, Clone, Default)]
pub struct ExactEstimator {
    /// Recursion budget forwarded to the conditioning solver.
    pub budget: ConditioningBudget,
}

impl ExactEstimator {
    /// Exact estimator with the default conditioning budget.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for ExactEstimator {
    /// Exact answers ignore sampling budgets; a nominal fixed budget is
    /// reported so generic budget plumbing has something to show.
    fn default_budget(&self) -> Budget {
        Budget::FixedSamples(1)
    }

    /// Exact value with a zero-width interval (`samples_used = 0`) — the
    /// budget only gates sampling, which this estimator never does.
    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, _budget: Budget) -> Estimate {
        Estimate::exact(
            st_reliability(g, s, t, self.budget)
                .expect("graph too large for the exact estimator; use MC or RSS"),
        )
    }

    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate> {
        (0..g.num_nodes() as u32)
            .map(|v| self.st_estimate(g, s, NodeId(v), budget))
            .collect()
    }

    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate> {
        (0..g.num_nodes() as u32)
            .map(|v| self.st_estimate(g, NodeId(v), t, budget))
            .collect()
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_ugraph::UncertainGraph;

    #[test]
    fn exact_estimator_on_series_parallel() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let ex = ExactEstimator::new();
        // 1 - (1 - 0.25)^2 = 0.4375
        let b = ex.default_budget();
        assert!((ex.st_estimate(&g, NodeId(0), NodeId(3), b).value - 0.4375).abs() < 1e-12);
        let from = ex.from_estimates(&g, NodeId(0), b);
        assert_eq!(from[0].value, 1.0);
        assert!((from[1].value - 0.5).abs() < 1e-12);
        let to = ex.to_estimates(&g, NodeId(3), b);
        assert!((to[1].value - 0.5).abs() < 1e-12);
        assert_eq!(to[3].value, 1.0);
    }

    #[test]
    fn identical_on_frozen_snapshot() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.3).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.6).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        let ex = ExactEstimator::new();
        let csr = g.freeze();
        let b = ex.default_budget();
        assert_eq!(
            ex.st_estimate(&g, NodeId(0), NodeId(3), b),
            ex.st_estimate(&csr, NodeId(0), NodeId(3), b),
        );
    }
}
