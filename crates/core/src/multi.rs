//! Multiple-source-target budgeted reliability maximization
//! (Problem 4, §6): add `k` edges maximizing an aggregate — Average,
//! Minimum or Maximum — of `R(s, t)` over all pairs in `S × T`.
//!
//! - **Average** (§6.1): per-pair top-`l` paths feed one global
//!   path-batch selection whose objective is the mean pair reliability;
//! - **Minimum** (§6.2): repeatedly lift the currently weakest pair with a
//!   `k1 ≪ k` budget of the single-pair BE machinery, re-estimating all
//!   pairs after each batch (added edges help other pairs too);
//! - **Maximum** (§6.3): symmetric — keep boosting the currently strongest
//!   pair.
//!
//! The competitors of Tables 23–25 (hill climbing, eigen-optimization,
//! ESSSP, IMA) are exposed through the same [`MultiSelector`] so the
//! harness can tabulate them uniformly.

use crate::baselines::esssp::select_esssp;
use crate::baselines::ima::select_ima;
use crate::candidates::{CandidateEdge, CandidateSpace};
use crate::path_selection::{build_subgraph, labeled_paths, BatchEdgeSelector, LabeledPath};
use crate::query::StQuery;
use crate::selector::EdgeSelector;
use relmax_centrality::leading_eigen;
use relmax_sampling::{Budget, Estimator};
use relmax_ugraph::fxhash::FxHashSet;
use relmax_ugraph::{AsCsr, CsrGraph, GraphView, NodeId};

/// Aggregate function `F` over pair reliabilities (Problem 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Mean of `R(s, t)` over `S × T` — targeted-marketing reach (§6.1).
    Average,
    /// Worst pair — complementary-campaign fairness (§6.2).
    Minimum,
    /// Best pair — "reach at least one celebrity" (§6.3).
    Maximum,
}

impl Aggregate {
    /// Fold a pairwise reliability matrix into the aggregate value.
    pub fn fold(&self, matrix: &[Vec<f64>]) -> f64 {
        let flat = matrix.iter().flatten().copied();
        match self {
            Aggregate::Average => {
                let (sum, n) = flat.fold((0.0, 0usize), |(s, n), r| (s + r, n + 1));
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
            Aggregate::Minimum => flat.fold(f64::INFINITY, f64::min).min(1.0),
            Aggregate::Maximum => flat.fold(0.0, f64::max),
        }
    }
}

/// A Problem-4 instance.
#[derive(Debug, Clone)]
pub struct MultiQuery {
    /// Source set `S`.
    pub sources: Vec<NodeId>,
    /// Target set `T` (disjoint from `S` in the paper's workloads).
    pub targets: Vec<NodeId>,
    /// Total edge budget `k`.
    pub k: usize,
    /// Probability of new edges.
    pub zeta: f64,
    /// `h`-hop constraint for new edges.
    pub h: Option<u32>,
    /// Elimination width per source/target.
    pub r: usize,
    /// Paths per pair.
    pub l: usize,
    /// Aggregate objective.
    pub aggregate: Aggregate,
    /// Per-round budget for the Min/Max refinement loops (`k1 ≪ k`; the
    /// paper's default is `k/10`).
    pub k1: usize,
}

impl MultiQuery {
    /// Query with the paper's defaults (`h = 3`, `r = 100`, `l = 30`,
    /// `k1 = max(1, k/10)`).
    pub fn new(
        sources: Vec<NodeId>,
        targets: Vec<NodeId>,
        k: usize,
        zeta: f64,
        aggregate: Aggregate,
    ) -> Self {
        assert!(!sources.is_empty() && !targets.is_empty());
        assert!(zeta > 0.0 && zeta <= 1.0);
        let k1 = (k / 10).max(1);
        MultiQuery {
            sources,
            targets,
            k,
            zeta,
            h: Some(3),
            r: 100,
            l: 30,
            aggregate,
            k1,
        }
    }
}

/// Result of a multi-query run.
#[derive(Debug, Clone)]
pub struct MultiOutcome {
    /// Chosen edges (≤ `k`).
    pub added: Vec<CandidateEdge>,
    /// Aggregate value before additions.
    pub base_value: f64,
    /// Aggregate value after additions.
    pub new_value: f64,
}

impl MultiOutcome {
    /// Aggregate reliability gain.
    pub fn gain(&self) -> f64 {
        self.new_value - self.base_value
    }
}

/// Method dispatch for the Tables 23–25 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiMethod {
    /// The proposed method (path batches, §6).
    BatchEdge,
    /// Greedy hill climbing on the aggregate objective.
    HillClimbing,
    /// Eigenvalue-optimization (query-oblivious).
    Eigen,
    /// Expected-shortest-path-sum minimization.
    Esssp,
    /// IC influence maximization.
    Ima,
}

/// Multi-source-target selector.
#[derive(Debug, Clone, Copy)]
pub struct MultiSelector {
    /// Which algorithm to run.
    pub method: MultiMethod,
    /// IC samples for the IMA competitor.
    pub ima_samples: usize,
    /// Seed for the IMA competitor.
    pub ima_seed: u64,
}

impl Default for MultiSelector {
    fn default() -> Self {
        MultiSelector {
            method: MultiMethod::BatchEdge,
            ima_samples: 300,
            ima_seed: 0x9e11,
        }
    }
}

impl MultiSelector {
    /// Selector for a specific method with default knobs.
    pub fn with_method(method: MultiMethod) -> Self {
        MultiSelector {
            method,
            ..Default::default()
        }
    }

    /// Method name for tables.
    pub fn name(&self) -> &'static str {
        match self.method {
            MultiMethod::BatchEdge => "BE",
            MultiMethod::HillClimbing => "HC",
            MultiMethod::Eigen => "EO",
            MultiMethod::Esssp => "ESSSP",
            MultiMethod::Ima => "IMA",
        }
    }

    /// End-to-end run: union search-space elimination, then selection,
    /// then aggregate evaluation on the full graph — everything under
    /// `budget`.
    pub fn select_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &MultiQuery,
        est: &E,
        budget: Budget,
    ) -> MultiOutcome {
        let csr = g.as_csr();
        let candidates = multi_candidates_budgeted(&*csr, query, est, budget);
        self.select_on(&csr, query, &candidates, est, budget)
    }

    /// [`MultiSelector::select_budgeted`] at the estimator's default
    /// budget (pre-`Budget` shim).
    pub fn select<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &MultiQuery,
        est: &E,
    ) -> MultiOutcome {
        self.select_budgeted(g, query, est, est.default_budget())
    }

    /// Run with an explicit candidate set at the estimator's default
    /// budget (pre-`Budget` shim).
    pub fn select_with_candidates<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &MultiQuery,
        candidates: &[CandidateEdge],
        est: &E,
    ) -> MultiOutcome {
        self.select_with_candidates_budgeted(g, query, candidates, est, est.default_budget())
    }

    /// Run with an explicit candidate set, spending `budget` per
    /// reliability estimate.
    pub fn select_with_candidates_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &MultiQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> MultiOutcome {
        self.select_on(&g.as_csr(), query, candidates, est, budget)
    }

    /// The selection proper, on the snapshot `csr`.
    fn select_on<E: Estimator>(
        &self,
        csr: &CsrGraph,
        query: &MultiQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> MultiOutcome {
        let added = match self.method {
            MultiMethod::BatchEdge => match query.aggregate {
                Aggregate::Average => select_avg_batch(csr, query, candidates, est, budget),
                Aggregate::Minimum => select_extremum(csr, query, candidates, est, budget, true),
                Aggregate::Maximum => select_extremum(csr, query, candidates, est, budget, false),
            },
            MultiMethod::HillClimbing => select_hc_multi(csr, query, candidates, est, budget),
            MultiMethod::Eigen => {
                let eig = leading_eigen(csr, 200, 1e-10);
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                let score = |c: &CandidateEdge| eig.left[c.src.index()] * eig.right[c.dst.index()];
                order.sort_by(|&a, &b| {
                    score(&candidates[b])
                        .partial_cmp(&score(&candidates[a]))
                        .expect("never NaN")
                        .then_with(|| a.cmp(&b))
                });
                order
                    .into_iter()
                    .take(query.k)
                    .map(|i| candidates[i])
                    .collect()
            }
            MultiMethod::Esssp => {
                select_esssp(csr, &query.sources, &query.targets, candidates, query.k)
            }
            MultiMethod::Ima => select_ima(
                csr,
                &query.sources,
                &query.targets,
                candidates,
                query.k,
                self.ima_samples,
                self.ima_seed,
            ),
        };
        // Before/after evaluation on one snapshot (shared worlds).
        let base_value = query
            .aggregate
            .fold(&pairwise_values(est, csr, query, budget));
        let view = GraphView::new(csr, added.clone());
        let new_value = query
            .aggregate
            .fold(&pairwise_values(est, &view, query, budget));
        MultiOutcome {
            added,
            base_value,
            new_value,
        }
    }
}

/// The pairwise point-value matrix under `budget` (aggregates fold plain
/// `f64`s).
fn pairwise_values<E: Estimator, G: relmax_ugraph::ProbGraph>(
    est: &E,
    g: &G,
    query: &MultiQuery,
    budget: Budget,
) -> Vec<Vec<f64>> {
    est.pairwise_estimates(g, &query.sources, &query.targets, budget)
        .into_iter()
        .map(|row| row.into_iter().map(|e| e.value).collect())
        .collect()
}

/// Union-based search-space elimination for multi queries (§6.1): `C(s)`
/// for every source and `C(t)` for every target, then candidate edges
/// from the unioned sets, under `budget` — all on one snapshot of `g`.
pub fn multi_candidates_budgeted<G: AsCsr + ?Sized, E: Estimator>(
    g: &G,
    query: &MultiQuery,
    est: &E,
    budget: Budget,
) -> Vec<CandidateEdge> {
    let csr = g.as_csr();
    let values = |ests: Vec<relmax_sampling::Estimate>| -> Vec<f64> {
        ests.into_iter().map(|e| e.value).collect()
    };
    let mut cs: Vec<NodeId> = Vec::new();
    let mut seen_s: FxHashSet<u32> = FxHashSet::default();
    for &s in &query.sources {
        let from = values(est.from_estimates(&*csr, s, budget));
        for v in top_r_nodes(&from, query.r, s) {
            if seen_s.insert(v.0) {
                cs.push(v);
            }
        }
    }
    let mut ct: Vec<NodeId> = Vec::new();
    let mut seen_t: FxHashSet<u32> = FxHashSet::default();
    for &t in &query.targets {
        let to = values(est.to_estimates(&*csr, t, budget));
        for v in top_r_nodes(&to, query.r, t) {
            if seen_t.insert(v.0) {
                ct.push(v);
            }
        }
    }
    CandidateSpace::from_node_sets(&*csr, &cs, &ct, query.zeta, query.h)
}

/// [`multi_candidates_budgeted`] at the estimator's default budget
/// (pre-`Budget` shim).
pub fn multi_candidates<G: AsCsr + ?Sized, E: Estimator>(
    g: &G,
    query: &MultiQuery,
    est: &E,
) -> Vec<CandidateEdge> {
    multi_candidates_budgeted(g, query, est, est.default_budget())
}

fn top_r_nodes(scores: &[f64], r: usize, always: NodeId) -> Vec<NodeId> {
    let mut order: Vec<u32> = (0..scores.len() as u32)
        .filter(|&v| scores[v as usize] > 0.0 || v == always.0)
        .collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("never NaN")
            .then_with(|| a.cmp(&b))
    });
    order.truncate(r);
    let mut out: Vec<NodeId> = order.into_iter().map(NodeId).collect();
    if !out.contains(&always) {
        if out.len() == r {
            out.pop();
        }
        out.push(always);
    }
    out
}

/// §6.1: Average aggregate via one global path-batch selection.
fn select_avg_batch<E: Estimator>(
    g: &CsrGraph,
    query: &MultiQuery,
    candidates: &[CandidateEdge],
    est: &E,
    budget: Budget,
) -> Vec<CandidateEdge> {
    // Per-pair top-l paths, pooled.
    let mut all_paths: Vec<LabeledPath> = Vec::new();
    for &s in &query.sources {
        for &t in &query.targets {
            let q = StQuery::new(s, t, query.k, query.zeta)
                .with_hop_limit(query.h)
                .with_r(query.r)
                .with_l(query.l);
            all_paths.extend(labeled_paths(g, &q, candidates));
        }
    }
    // Batches by label; empty labels are free.
    let mut free: Vec<&LabeledPath> = Vec::new();
    let batches: Vec<(Vec<usize>, Vec<&LabeledPath>)> = {
        use relmax_ugraph::fxhash::FxHashMap;
        let mut by_label: FxHashMap<&[usize], Vec<&LabeledPath>> = FxHashMap::default();
        for p in &all_paths {
            if p.label.is_empty() {
                free.push(p);
            } else {
                by_label.entry(&p.label).or_default().push(p);
            }
        }
        let mut batches: Vec<_> = by_label
            .into_iter()
            .map(|(l, ps)| (l.to_vec(), ps))
            .collect();
        batches.sort_by(|a, b| a.0.cmp(&b.0));
        batches
    };
    let avg_on = |paths: &[&LabeledPath]| -> f64 {
        let Some((sub, remap)) = build_subgraph(g, candidates, paths) else {
            return 0.0;
        };
        let ms: Vec<Option<NodeId>> = query
            .sources
            .iter()
            .map(|s| remap.get(&s.0).map(|&i| NodeId(i)))
            .collect();
        let mt: Vec<Option<NodeId>> = query
            .targets
            .iter()
            .map(|t| remap.get(&t.0).map(|&i| NodeId(i)))
            .collect();
        let mut sum = 0.0;
        for s in &ms {
            let from = s.map(|sv| {
                est.from_estimates(&sub, sv, budget)
                    .into_iter()
                    .map(|e| e.value)
                    .collect::<Vec<f64>>()
            });
            for t in &mt {
                if let (Some(from), Some(tv)) = (&from, t) {
                    sum += from[tv.index()];
                }
            }
        }
        sum / (query.sources.len() * query.targets.len()) as f64
    };
    let mut e1: FxHashSet<usize> = FxHashSet::default();
    let mut included = vec![false; batches.len()];
    let mut selected: Vec<&LabeledPath> = free.clone();
    let mut current = avg_on(&selected);
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (bi, (label, _)) in batches.iter().enumerate() {
            if included[bi] {
                continue;
            }
            let new_edges = label.iter().filter(|i| !e1.contains(i)).count();
            if new_edges == 0 || e1.len() + new_edges > query.k {
                continue;
            }
            let mut trial_e1 = e1.clone();
            trial_e1.extend(label.iter().copied());
            let mut trial = free.clone();
            for (bj, (lbl, ps)) in batches.iter().enumerate() {
                if included[bj] || lbl.iter().all(|i| trial_e1.contains(i)) {
                    trial.extend(ps.iter().copied());
                }
            }
            let v = avg_on(&trial);
            let marginal = (v - current) / new_edges as f64;
            if best.is_none_or(|(bm, _)| marginal > bm) {
                best = Some((marginal, bi));
            }
        }
        let Some((_, bi)) = best else { break };
        e1.extend(batches[bi].0.iter().copied());
        included[bi] = true;
        selected = free.clone();
        for (bj, (lbl, ps)) in batches.iter().enumerate() {
            if included[bj] || lbl.iter().all(|i| e1.contains(i)) {
                included[bj] = true;
                selected.extend(ps.iter().copied());
            }
        }
        current = avg_on(&selected);
        if e1.len() >= query.k {
            break;
        }
    }
    let mut idxs: Vec<usize> = e1.into_iter().collect();
    idxs.sort_unstable();
    idxs.into_iter().map(|i| candidates[i]).collect()
}

/// §6.2 / §6.3: Min (or Max) aggregate via `k1`-batched refinement of the
/// extremal pair.
fn select_extremum<E: Estimator>(
    csr: &CsrGraph,
    query: &MultiQuery,
    candidates: &[CandidateEdge],
    est: &E,
    budget: Budget,
    minimize: bool,
) -> Vec<CandidateEdge> {
    let mut chosen: Vec<CandidateEdge> = Vec::new();
    let mut remaining: Vec<CandidateEdge> = candidates.to_vec();
    while chosen.len() < query.k && !remaining.is_empty() {
        // The base plus every edge chosen so far, as one snapshot: a view
        // numbers its extra coins after the base's in insertion order,
        // as adding the edges to a graph would.
        let snapshot = CsrGraph::freeze(&GraphView::new(csr, chosen.clone()));
        let matrix = pairwise_values(est, &snapshot, query, budget);
        // Pairs in priority order (ascending reliability for Min,
        // descending for Max). If the extremal pair cannot be improved by
        // any remaining candidate, fall back to the next one rather than
        // stopping with unspent budget.
        let mut order: Vec<(f64, usize, usize)> = matrix
            .iter()
            .enumerate()
            .flat_map(|(si, row)| row.iter().enumerate().map(move |(ti, &v)| (v, si, ti)))
            .collect();
        order.sort_by(|a, b| {
            let c = a.0.partial_cmp(&b.0).expect("never NaN");
            if minimize {
                c
            } else {
                c.reverse()
            }
        });
        let mut progressed = false;
        for &(_, si, ti) in &order {
            let (s, t) = (query.sources[si], query.targets[ti]);
            let edge_budget = query.k1.min(query.k - chosen.len()).max(1);
            let q = StQuery::new(s, t, edge_budget, query.zeta)
                .with_hop_limit(query.h)
                .with_r(query.r)
                .with_l(query.l);
            let out = BatchEdgeSelector
                .select_with_candidates_budgeted(&snapshot, &q, &remaining, est, budget)
                .expect("BE is infallible");
            if out.added.is_empty() {
                continue;
            }
            for e in &out.added {
                remaining.retain(|c| !(c.src == e.src && c.dst == e.dst));
                chosen.push(*e);
            }
            progressed = true;
            break;
        }
        if !progressed {
            break; // no pair can be improved by any remaining candidate
        }
    }
    chosen
}

/// Greedy hill climbing on the aggregate objective (generalized
/// Algorithm 1; the paper's strongest — and slowest — competitor).
fn select_hc_multi<E: Estimator>(
    g: &CsrGraph,
    query: &MultiQuery,
    candidates: &[CandidateEdge],
    est: &E,
    budget: Budget,
) -> Vec<CandidateEdge> {
    // `k · |cand|` pairwise evaluations over one snapshot.
    let mut view = GraphView::empty(g);
    let mut remaining: Vec<CandidateEdge> = candidates.to_vec();
    let mut chosen = Vec::new();
    let mut current = query
        .aggregate
        .fold(&pairwise_values(est, g, query, budget));
    while chosen.len() < query.k && !remaining.is_empty() {
        let mut best: Option<(f64, usize)> = None;
        for (ci, &c) in remaining.iter().enumerate() {
            view.push_extra(c);
            let v = query
                .aggregate
                .fold(&pairwise_values(est, &view, query, budget));
            view.pop_extra();
            let gain = v - current;
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, ci));
            }
        }
        let Some((gain, ci)) = best else { break };
        let c = remaining.swap_remove(ci);
        view.push_extra(c);
        chosen.push(c);
        current += gain;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::UncertainGraph;

    /// Two sources, two targets, one shared bottleneck node 4. The s0
    /// route is clearly strongest so the Max extremal pick is stable under
    /// sampling noise.
    fn multi_graph() -> UncertainGraph {
        let mut g = UncertainGraph::new(7, true);
        g.add_edge(NodeId(0), NodeId(4), 0.9).unwrap(); // s0 -> hub (strong)
        g.add_edge(NodeId(1), NodeId(4), 0.5).unwrap(); // s1 -> hub (weak)
        g.add_edge(NodeId(4), NodeId(2), 0.4).unwrap(); // hub -> t0
                                                        // t1 (node 3) unreachable; node 5, 6 spare
        g
    }

    fn query(agg: Aggregate, k: usize) -> MultiQuery {
        MultiQuery::new(
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3)],
            k,
            0.8,
            agg,
        )
    }

    fn cands() -> Vec<CandidateEdge> {
        vec![
            CandidateEdge {
                src: NodeId(4),
                dst: NodeId(3),
                prob: 0.8,
            }, // hub -> t1
            CandidateEdge {
                src: NodeId(0),
                dst: NodeId(2),
                prob: 0.8,
            }, // s0 -> t0 direct
            CandidateEdge {
                src: NodeId(5),
                dst: NodeId(6),
                prob: 0.8,
            }, // irrelevant
        ]
    }

    #[test]
    fn aggregate_folds() {
        let m = vec![vec![0.2, 0.4], vec![0.6, 0.8]];
        assert!((Aggregate::Average.fold(&m) - 0.5).abs() < 1e-12);
        assert_eq!(Aggregate::Minimum.fold(&m), 0.2);
        assert_eq!(Aggregate::Maximum.fold(&m), 0.8);
        assert_eq!(Aggregate::Average.fold(&[]), 0.0);
    }

    #[test]
    fn min_aggregate_lifts_the_unreachable_pair() {
        let g = multi_graph();
        let q = query(Aggregate::Minimum, 1);
        let est = McEstimator::new(3000, 1);
        let sel = MultiSelector::with_method(MultiMethod::BatchEdge);
        let out = sel.select_with_candidates(&g, &q, &cands(), &est);
        // The min pair is (s*, t1) with R = 0: the hub->t1 edge fixes it.
        assert_eq!(out.added.len(), 1);
        assert_eq!((out.added[0].src, out.added[0].dst), (NodeId(4), NodeId(3)));
        assert_eq!(out.base_value, 0.0);
        // After the fix the min pair is (s1, t0) at 0.5 * 0.4 = 0.2.
        assert!(out.new_value > 0.15, "new={}", out.new_value);
    }

    #[test]
    fn max_aggregate_boosts_the_best_pair() {
        let g = multi_graph();
        let q = query(Aggregate::Maximum, 1);
        let est = McEstimator::new(3000, 2);
        let sel = MultiSelector::with_method(MultiMethod::BatchEdge);
        let out = sel.select_with_candidates(&g, &q, &cands(), &est);
        assert_eq!(out.added.len(), 1);
        // Best pair is (s0, t0): the direct edge pushes it from 0.32 to
        // 1-(1-0.8)(1-0.32) = 0.864.
        assert_eq!((out.added[0].src, out.added[0].dst), (NodeId(0), NodeId(2)));
        assert!(out.new_value > 0.8, "new={}", out.new_value);
    }

    #[test]
    fn avg_aggregate_improves_the_mean() {
        let g = multi_graph();
        let q = query(Aggregate::Average, 2);
        let est = McEstimator::new(3000, 3);
        let sel = MultiSelector::default();
        let out = sel.select_with_candidates(&g, &q, &cands(), &est);
        assert!(out.added.len() <= 2);
        assert!(out.gain() > 0.1, "gain={}", out.gain());
        // The irrelevant (5,6) edge must never be chosen.
        assert!(!out.added.iter().any(|c| c.src == NodeId(5)));
    }

    #[test]
    fn hc_multi_matches_be_on_easy_instances() {
        let g = multi_graph();
        let est = McEstimator::new(3000, 4);
        let q = query(Aggregate::Average, 2);
        let be = MultiSelector::with_method(MultiMethod::BatchEdge).select_with_candidates(
            &g,
            &q,
            &cands(),
            &est,
        );
        let hc = MultiSelector::with_method(MultiMethod::HillClimbing).select_with_candidates(
            &g,
            &q,
            &cands(),
            &est,
        );
        assert!((be.new_value - hc.new_value).abs() < 0.1);
    }

    #[test]
    fn eo_is_query_oblivious() {
        let g = multi_graph();
        let est = McEstimator::new(2000, 5);
        let q = query(Aggregate::Average, 1);
        let out = MultiSelector::with_method(MultiMethod::Eigen).select_with_candidates(
            &g,
            &q,
            &cands(),
            &est,
        );
        assert_eq!(out.added.len(), 1); // picks by eigen score, no guarantee of gain
    }

    #[test]
    fn esssp_and_ima_competitors_run() {
        let g = multi_graph();
        let est = McEstimator::new(2000, 6);
        let q = query(Aggregate::Average, 2);
        for method in [MultiMethod::Esssp, MultiMethod::Ima] {
            let out =
                MultiSelector::with_method(method).select_with_candidates(&g, &q, &cands(), &est);
            assert!(out.added.len() <= 2, "{method:?}");
            assert!(out.new_value >= out.base_value - 0.05, "{method:?}");
        }
    }

    #[test]
    fn multi_candidates_elimination_includes_sources_targets() {
        let g = multi_graph();
        let est = McEstimator::new(2000, 7);
        let q = MultiQuery {
            h: None,
            ..query(Aggregate::Average, 2)
        };
        let cands = multi_candidates(&g, &q, &est);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!g.has_edge(c.src, c.dst));
        }
        // Direct s0 -> t0 must be a candidate.
        assert!(cands
            .iter()
            .any(|c| c.src == NodeId(0) && c.dst == NodeId(2)));
    }
}
