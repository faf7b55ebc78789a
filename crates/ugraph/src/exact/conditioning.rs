//! Conditioning (factoring-style) exact reliability.
//!
//! The factoring theorem states `R(G) = p(e)·R(G | e present) +
//! (1−p(e))·R(G | e absent)`. Recursing on a well-chosen edge with two
//! pruning rules makes exact reliability practical far beyond the `2^m`
//! enumerator:
//!
//! - **Success prune**: if `t` is reachable from `s` through
//!   determined-present edges alone, every completion of the current partial
//!   world reaches `t` — contribute the accumulated weight and stop.
//! - **Failure prune**: if `t` is unreachable even when all undetermined
//!   edges are optimistically treated as present, no completion can reach
//!   `t` — contribute 0 and stop.
//!
//! The branching edge is always chosen on the frontier of the
//! present-reachable set along an optimistic `s ⇝ t` path, which keeps the
//! recursion focused on edges that can actually decide the query. This works
//! unchanged for directed and undirected graphs (we condition rather than
//! contract, so directedness never becomes an issue).

use crate::error::GraphError;
use crate::graph::NodeId;
use crate::{CoinId, ProbGraph};

/// Budget limiting the recursion size so callers can bound worst-case
/// (exponential) behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ConditioningBudget {
    /// Maximum number of recursion nodes to expand.
    pub max_steps: u64,
}

impl Default for ConditioningBudget {
    fn default() -> Self {
        // Enough for every graph the test-suite and the ES baseline touch;
        // a few seconds of CPU at worst.
        ConditioningBudget {
            max_steps: 20_000_000,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CoinState {
    Unknown,
    Present,
    Absent,
}

struct Solver<'g, G: ProbGraph> {
    g: &'g G,
    t: NodeId,
    states: Vec<CoinState>,
    steps: u64,
    max_steps: u64,
    /// Scratch: visited marks, reused across BFS calls via an epoch counter.
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl<G: ProbGraph> Solver<'_, G> {
    /// BFS from `s`. `optimistic` treats Unknown coins as present.
    ///
    /// When pessimistic (`optimistic == false`), also returns a *branch
    /// coin*: an Unknown coin whose tail lies inside the present-reachable
    /// component and whose head lies outside it. Conditioning on such
    /// boundary coins is the classic factoring strategy — every "present"
    /// branch strictly grows the component, so the success/failure prunes
    /// fire quickly (e.g. series-parallel graphs collapse in linear depth).
    fn explore(&mut self, s: NodeId, optimistic: bool) -> (bool, Option<CoinId>) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.mark[s.index()] = epoch;
        self.stack.clear();
        self.stack.push(s);
        let mut reached = false;
        // Borrow dance: pull fields out so the closure can use them.
        let mark = &mut self.mark;
        let states = &self.states;
        let stack = &mut self.stack;
        let t = self.t;
        // Unknown coins seen leaving explored nodes: (coin, head).
        let mut boundary: Vec<(CoinId, NodeId)> = Vec::new();
        while let Some(v) = stack.pop() {
            if reached {
                break;
            }
            self.g.out_arcs(v).for_each(|a| {
                let (u, c) = (a.node, a.coin);
                if reached {
                    return;
                }
                let st = states[c as usize];
                let usable = match st {
                    CoinState::Present => true,
                    CoinState::Absent => false,
                    CoinState::Unknown => optimistic,
                };
                if !optimistic && st == CoinState::Unknown {
                    boundary.push((c, u));
                }
                if usable && mark[u.index()] != epoch {
                    mark[u.index()] = epoch;
                    if u == t {
                        reached = true;
                    } else {
                        stack.push(u);
                    }
                }
            });
        }
        // Prefer a coin whose head is still outside the component (internal
        // unknown coins can never change reachability).
        let branch = boundary
            .iter()
            .find(|&&(_, head)| self.mark[head.index()] != epoch)
            .or(boundary.first())
            .map(|&(c, _)| c);
        (reached, branch)
    }

    fn solve(&mut self, s: NodeId, weight: f64) -> Result<f64, GraphError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(GraphError::TooLargeForExact {
                edges: self.states.len(),
                max: self.states.len(),
            });
        }
        // Success prune + branch pick: pessimistic reachability.
        let (reached_pess, branch) = self.explore(s, false);
        if reached_pess {
            return Ok(weight);
        }
        // Failure prune: optimistic reachability.
        let (reached_opt, _) = self.explore(s, true);
        if !reached_opt {
            return Ok(0.0);
        }
        let c = branch.expect("optimistic path exists but no unknown boundary coin found");
        let p = self.g.coin_prob(c as CoinId);
        let mut total = 0.0;
        if p > 0.0 {
            self.states[c as usize] = CoinState::Present;
            total += self.solve(s, weight * p)?;
        }
        if p < 1.0 {
            self.states[c as usize] = CoinState::Absent;
            total += self.solve(s, weight * (1.0 - p))?;
        }
        self.states[c as usize] = CoinState::Unknown;
        Ok(total)
    }
}

/// Exact `s-t` reliability via conditioning with pruning.
///
/// Works on anything implementing [`ProbGraph`] (owned graphs and overlay
/// views alike). Worst case exponential; bounded by `budget`.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_ugraph::exact::{st_reliability, ConditioningBudget};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// let r = st_reliability(&g, NodeId(0), NodeId(2), ConditioningBudget::default()).unwrap();
/// assert!((r - 0.4).abs() < 1e-12);
/// ```
pub fn st_reliability<G: ProbGraph>(
    g: &G,
    s: NodeId,
    t: NodeId,
    budget: ConditioningBudget,
) -> Result<f64, GraphError> {
    if s == t {
        return Ok(1.0);
    }
    let mut solver = Solver {
        g,
        t,
        states: vec![CoinState::Unknown; g.num_coins()],
        steps: 0,
        max_steps: budget.max_steps,
        mark: vec![0; g.num_nodes()],
        epoch: 0,
        stack: Vec::new(),
    };
    solver.solve(s, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::st_reliability_enumerate;
    use crate::graph::UncertainGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn matches_enumeration_on_random_small_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..40 {
            let n = rng.gen_range(3..7);
            let directed = rng.gen_bool(0.5);
            let mut g = UncertainGraph::new(n, directed);
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && (directed || u < v) && rng.gen_bool(0.5) && g.num_edges() < 14 {
                        let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.0..=1.0));
                    }
                }
            }
            let s = NodeId(0);
            let t = NodeId(n as u32 - 1);
            let exact = st_reliability_enumerate(&g, s, t).unwrap();
            let cond = st_reliability(&g, s, t, ConditioningBudget::default()).unwrap();
            assert!(
                (exact - cond).abs() < 1e-10,
                "trial {trial}: enum={exact} cond={cond} (directed={directed}, m={})",
                g.num_edges()
            );
        }
    }

    #[test]
    fn handles_deterministic_edges() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
        let r = st_reliability(&g, NodeId(0), NodeId(2), ConditioningBudget::default()).unwrap();
        assert_close(r, 0.25);
    }

    #[test]
    fn handles_zero_probability_edges() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        let r = st_reliability(&g, NodeId(0), NodeId(1), ConditioningBudget::default()).unwrap();
        assert_close(r, 0.0);
    }

    #[test]
    fn scales_past_the_enumerator() {
        // 15 disjoint 2-edge paths s -> x_i -> t: 30 edges, hopeless for
        // 2^30 enumeration, but closed form R = 1 - (1 - p*q)^15 and fast
        // for conditioning with boundary branching.
        let paths = 15u32;
        let (p, q) = (0.3, 0.7);
        let s = NodeId(0);
        let t = NodeId(1);
        let mut g = UncertainGraph::new(2 + paths as usize, true);
        for i in 0..paths {
            g.add_edge(s, NodeId(2 + i), p).unwrap();
            g.add_edge(NodeId(2 + i), t, q).unwrap();
        }
        let r = st_reliability(&g, s, t, ConditioningBudget::default()).unwrap();
        let expect = 1.0 - (1.0 - p * q).powi(paths as i32);
        assert!((r - expect).abs() < 1e-10, "r={r} expect={expect}");
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let mut g = UncertainGraph::new(12, false);
        // Dense-ish random graph so pruning can't trivially collapse it.
        let mut rng = StdRng::seed_from_u64(3);
        for u in 0..12u32 {
            for v in (u + 1)..12u32 {
                if rng.gen_bool(0.6) {
                    g.add_edge(NodeId(u), NodeId(v), 0.5).unwrap();
                }
            }
        }
        let r = st_reliability(
            &g,
            NodeId(0),
            NodeId(11),
            ConditioningBudget { max_steps: 10 },
        );
        assert!(matches!(r, Err(GraphError::TooLargeForExact { .. })));
    }

    #[test]
    fn works_on_graph_views() {
        use crate::view::{ExtraEdge, GraphView};
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let view = GraphView::new(
            &g,
            vec![ExtraEdge {
                src: NodeId(1),
                dst: NodeId(2),
                prob: 0.5,
            }],
        );
        let r = st_reliability(&view, NodeId(0), NodeId(2), ConditioningBudget::default()).unwrap();
        assert_close(r, 0.25);
    }
}
