//! Independent-cascade influence spread by possible-world sampling.

use relmax_sampling::scalar;
use relmax_ugraph::{NodeId, ProbGraph};

/// Expected influence spread `Inf(S, T)` (Eq. 13): the expected number of
/// `targets` reachable from at least one seed in a random possible world.
///
/// With `targets = None`, every node is a target, which recovers the
/// classic IC influence spread `σ(S)` (Kempe et al., KDD 2003; seeds
/// count themselves, as in the standard model).
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
/// use relmax_influence::influence_spread;
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.0).unwrap();
/// let spread = influence_spread(&g, &[NodeId(0)], None, 100, 7);
/// assert!((spread - 2.0).abs() < 1e-9); // seed + node 1, never node 2
/// ```
pub fn influence_spread<G: ProbGraph>(
    g: &G,
    seeds: &[NodeId],
    targets: Option<&[NodeId]>,
    samples: usize,
    seed: u64,
) -> f64 {
    let probs = activation_probability(g, seeds, samples, seed);
    match targets {
        Some(ts) => ts.iter().map(|t| probs[t.index()]).sum(),
        None => probs.iter().sum(),
    }
}

/// Per-node activation probability under IC from the given seed set:
/// `P[v activated] = P[v reachable from S in a random world]`.
///
/// One multi-source search per sampled world
/// ([`scalar::reach_counts`]); deterministic in `seed`. The scalar
/// search, not the lane-packed kernel: a cascade on a sub-critical graph
/// reaches few nodes, and there a 64-world block costs more than the
/// worlds it serves.
pub fn activation_probability<G: ProbGraph>(
    g: &G,
    seeds: &[NodeId],
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(samples > 0, "need at least one sample");
    let mut counts = vec![0u64; g.num_nodes()];
    scalar::reach_counts(g, seed, seeds, false, 0, samples as u64, &mut counts);
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::{Estimator, McEstimator};
    use relmax_ugraph::exact::st_reliability_enumerate;
    use relmax_ugraph::UncertainGraph;

    fn line() -> UncertainGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        g
    }

    #[test]
    fn single_seed_single_target_equals_reliability() {
        let g = line();
        let exact = st_reliability_enumerate(&g, NodeId(0), NodeId(3)).unwrap();
        let spread = influence_spread(&g, &[NodeId(0)], Some(&[NodeId(3)]), 60_000, 5);
        assert!(
            (spread - exact).abs() < 0.01,
            "spread={spread} exact={exact}"
        );
    }

    #[test]
    fn seeds_are_always_active() {
        let g = line();
        let probs = activation_probability(&g, &[NodeId(1)], 100, 1);
        assert_eq!(probs[1], 1.0);
        assert_eq!(probs[0], 0.0); // directed: nothing flows backwards
    }

    #[test]
    fn spread_is_monotone_in_seeds() {
        let g = line();
        let s1 = influence_spread(&g, &[NodeId(0)], None, 5_000, 3);
        let s2 = influence_spread(&g, &[NodeId(0), NodeId(2)], None, 5_000, 3);
        assert!(s2 >= s1, "s2={s2} s1={s1}");
    }

    #[test]
    fn expected_spread_on_deterministic_chain() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let spread = influence_spread(&g, &[NodeId(0)], None, 10, 0);
        assert!((spread - 3.0).abs() < 1e-9);
    }

    #[test]
    fn spread_matches_sum_of_reliabilities() {
        // Inf(S, T) = sum over t in T of R(S -> t); with one seed this is
        // the sum of s-t reliabilities, which MC can verify independently.
        let g = line();
        let mc = McEstimator::new(60_000, 9);
        let from0 = mc.from_estimates(&g, NodeId(0), mc.budget);
        let expect: f64 = from0[1].value + from0[2].value;
        let spread = influence_spread(&g, &[NodeId(0)], Some(&[NodeId(1), NodeId(2)]), 60_000, 9);
        assert!(
            (spread - expect).abs() < 0.02,
            "spread={spread} expect={expect}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = line();
        let a = influence_spread(&g, &[NodeId(0)], None, 1000, 4);
        let b = influence_spread(&g, &[NodeId(0)], None, 1000, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn undirected_cascade_flows_both_ways() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let probs = activation_probability(&g, &[NodeId(2)], 10, 0);
        assert_eq!(probs, vec![1.0, 1.0, 1.0]);
    }
}
