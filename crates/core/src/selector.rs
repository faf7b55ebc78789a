//! The common interface every edge-selection method implements, and the
//! shared outcome type the experiment harness consumes.

use crate::baselines::esssp::EssspSelector;
use crate::baselines::ima::ImaSelector;
use crate::baselines::{
    CentralitySelector, EigenSelector, ExactSelector, HillClimbingSelector, IndividualTopKSelector,
};
use crate::candidates::CandidateEdge;
use crate::elimination::SearchSpaceElimination;
use crate::mrp::MrpSelector;
use crate::path_selection::{BatchEdgeSelector, IndividualPathSelector};
use crate::query::StQuery;
use relmax_sampling::{Budget, Estimate, Estimator};
use relmax_ugraph::{AsCsr, CsrGraph, GraphView};
use std::fmt;

/// Result of running a selection method on a query.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The edges the method chose to add (at most `k`).
    pub added: Vec<CandidateEdge>,
    /// `R(s, t)` on the input graph, estimated with the same estimator
    /// (point value of [`Outcome::base_estimate`]).
    pub base_reliability: f64,
    /// `R(s, t)` after adding `added` (point value of
    /// [`Outcome::new_estimate`]).
    pub new_reliability: f64,
    /// Rich estimate of the base reliability, under the selection budget.
    pub base_estimate: Estimate,
    /// Rich estimate of the post-addition reliability.
    pub new_estimate: Estimate,
    /// Per-chosen-edge estimates of `R(s, t, G + {e})` — each added edge
    /// judged *alone* against the base graph on common random numbers, in
    /// [`Outcome::added`] order. Lets callers see how much each pick
    /// contributes individually versus jointly.
    ///
    /// Computing these costs one extra candidate-scan pass over the `≤ k`
    /// chosen edges per outcome (shared-world for MC, per-overlay for
    /// RSS). Selectors that already scanned the base snapshot reuse their
    /// scan via [`finish_outcome_with_solo_estimates`] and pay nothing.
    pub added_estimates: Vec<Estimate>,
}

impl Outcome {
    /// Reliability gain — the paper's headline metric.
    pub fn gain(&self) -> f64 {
        self.new_reliability - self.base_reliability
    }
}

/// Errors a selection method can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// Exhaustive search would exceed its combination budget.
    TooManyCombinations {
        /// Number of candidate edges.
        candidates: usize,
        /// Requested subset size.
        k: usize,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::TooManyCombinations { candidates, k } => write!(
                f,
                "exhaustive search over C({candidates}, {k}) combinations exceeds the safety budget"
            ),
        }
    }
}

impl std::error::Error for SelectError {}

/// A method that selects up to `k` edges to add for a single `s-t` query.
///
/// All methods receive an explicit candidate set so the harness can run
/// them with or without search-space elimination (Tables 4 vs 5); the
/// provided [`EdgeSelector::select_budgeted`] applies Algorithm 4 first,
/// which is how the paper's §8 experiments run.
///
/// Every method runs on a [`CsrGraph`] snapshot and sees its candidates
/// as the `G⁺` overlay ([`GraphView`] over the snapshot). The provided
/// entry points accept anything [`AsCsr`] and convert once: a loaded
/// snapshot is borrowed as is, an [`relmax_ugraph::UncertainGraph`] is
/// frozen once per call.
///
/// Every method consumes a [`Budget`] — the knob that used to be a raw
/// `num_samples` — and its [`Outcome`] surfaces rich [`Estimate`]s.
/// Callers with no budget in hand pass the estimator's
/// [`Estimator::default_budget`].
///
/// Methods are generic over the [`Estimator`] (monomorphized all the way
/// down to the per-world BFS), so the trait is not object-safe; use
/// [`AnySelector`] where a homogeneous list of methods is needed.
pub trait EdgeSelector {
    /// Short name used in result tables ("HC", "MRP", "IP", "BE", ...).
    fn name(&self) -> &'static str;

    /// Choose up to `query.k` edges from `candidates` on the snapshot `g`,
    /// spending `budget` per reliability estimate.
    fn select_on_snapshot<E: Estimator>(
        &self,
        g: &CsrGraph,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError>;

    /// [`EdgeSelector::select_on_snapshot`] on any graph that converts to
    /// a snapshot.
    fn select_with_candidates_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &StQuery,
        candidates: &[CandidateEdge],
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        self.select_on_snapshot(&g.as_csr(), query, candidates, est, budget)
    }

    /// End-to-end run: search-space elimination with `query.r`, then
    /// selection, everything under `budget` and on one snapshot.
    fn select_budgeted<G: AsCsr + ?Sized, E: Estimator>(
        &self,
        g: &G,
        query: &StQuery,
        est: &E,
        budget: Budget,
    ) -> Result<Outcome, SelectError> {
        let csr = g.as_csr();
        let cands = SearchSpaceElimination::new(query.r)
            .candidate_edges_budgeted(&*csr, query, est, budget);
        self.select_on_snapshot(&csr, query, &cands, est, budget)
    }
}

/// Build an [`Outcome`]: estimate base and post-addition reliability for a
/// chosen edge set on the snapshot (common random numbers make the two
/// estimates directly comparable), plus the per-edge estimates of each
/// chosen edge alone. Shared by every selector implementation.
pub fn finish_outcome_budgeted<E: Estimator>(
    csr: &CsrGraph,
    query: &StQuery,
    added: Vec<CandidateEdge>,
    est: &E,
    budget: Budget,
) -> Outcome {
    let added_estimates = est.scan_estimates(csr, query.s, query.t, &added, budget);
    finish_outcome_with_solo_estimates(csr, query, added, added_estimates, est, budget)
}

/// [`finish_outcome_budgeted`] for selectors that already hold the
/// per-edge solo estimates (e.g. from their own candidate scan over the
/// base snapshot): skips the extra scan pass. `added_estimates[i]` must
/// estimate `R(s, t, G + {added[i]})` on the base snapshot under the
/// same budget and estimator, or the reported outcome lies.
pub fn finish_outcome_with_solo_estimates<E: Estimator>(
    csr: &CsrGraph,
    query: &StQuery,
    added: Vec<CandidateEdge>,
    added_estimates: Vec<Estimate>,
    est: &E,
    budget: Budget,
) -> Outcome {
    debug_assert_eq!(added.len(), added_estimates.len());
    let base_estimate = est.st_estimate(csr, query.s, query.t, budget);
    let view = GraphView::new(csr, added.clone());
    let new_estimate = est.st_estimate(&view, query.s, query.t, budget);
    Outcome {
        base_reliability: base_estimate.value,
        new_reliability: new_estimate.value,
        base_estimate,
        new_estimate,
        added_estimates,
        added,
    }
}

/// Closed dispatch over every selection method in the crate.
///
/// [`EdgeSelector`] has generic methods and therefore no trait objects;
/// this enum is the replacement for the old `Vec<Box<dyn EdgeSelector>>`
/// pattern in harnesses and tests — a homogeneous, `Copy` value per
/// method that still monomorphizes the estimator all the way down.
#[derive(Debug, Clone, Copy)]
pub enum AnySelector {
    /// Individual top-`k` (§3.1).
    TopK(IndividualTopKSelector),
    /// Greedy hill climbing (§3.2, Algorithm 1).
    HillClimbing(HillClimbingSelector),
    /// Centrality-based (§3.3), degree or betweenness.
    Centrality(CentralitySelector),
    /// Eigenvalue-based (§3.4, Algorithm 2).
    Eigen(EigenSelector),
    /// Most-reliable-path improvement (§4).
    Mrp(MrpSelector),
    /// Individual path selection ("IP", Algorithm 5).
    IndividualPath(IndividualPathSelector),
    /// Batch-edge selection ("BE", Algorithm 6) — the proposed method.
    BatchEdge(BatchEdgeSelector),
    /// Exhaustive search ("ES", Table 11).
    Exact(ExactSelector),
    /// Expected-shortest-path-sum competitor.
    Esssp(EssspSelector),
    /// IC influence-maximization competitor.
    Ima(ImaSelector),
}

impl AnySelector {
    /// The proposed method (BE).
    pub fn batch_edge() -> Self {
        AnySelector::BatchEdge(BatchEdgeSelector)
    }

    /// Individual path selection (IP).
    pub fn individual_path() -> Self {
        AnySelector::IndividualPath(IndividualPathSelector)
    }

    /// Hill climbing (HC).
    pub fn hill_climbing() -> Self {
        AnySelector::HillClimbing(HillClimbingSelector)
    }

    /// MRP improvement.
    pub fn mrp() -> Self {
        AnySelector::Mrp(MrpSelector)
    }

    /// Individual top-`k`.
    pub fn top_k() -> Self {
        AnySelector::TopK(IndividualTopKSelector)
    }

    /// Degree-centrality baseline.
    pub fn centrality_degree() -> Self {
        AnySelector::Centrality(CentralitySelector::degree())
    }

    /// Betweenness-centrality baseline.
    pub fn centrality_betweenness() -> Self {
        AnySelector::Centrality(CentralitySelector::betweenness())
    }

    /// Eigenvalue baseline with default knobs.
    pub fn eigen() -> Self {
        AnySelector::Eigen(EigenSelector::default())
    }

    /// Exhaustive search with the default combination budget.
    pub fn exhaustive() -> Self {
        AnySelector::Exact(ExactSelector::default())
    }

    /// Expected-shortest-path-sum competitor (ESSSP).
    pub fn esssp() -> Self {
        AnySelector::Esssp(EssspSelector)
    }

    /// IC influence-maximization competitor (IMA) with default knobs.
    pub fn ima() -> Self {
        AnySelector::Ima(ImaSelector::default())
    }

    /// Every method, in the order the paper's tables list them. This is
    /// the registry behind [`AnySelector::from_name`] and the CLI's
    /// `--method` flag.
    pub fn all() -> Vec<AnySelector> {
        vec![
            AnySelector::batch_edge(),
            AnySelector::individual_path(),
            AnySelector::mrp(),
            AnySelector::hill_climbing(),
            AnySelector::top_k(),
            AnySelector::centrality_degree(),
            AnySelector::centrality_betweenness(),
            AnySelector::eigen(),
            AnySelector::exhaustive(),
            AnySelector::esssp(),
            AnySelector::ima(),
        ]
    }

    /// Look a method up by its table name (`"BE"`, `"IP"`, `"MRP"`,
    /// `"HC"`, `"TopK"`, `"Cent-Deg"`, `"Cent-Bet"`, `"EO"`, `"ES"`,
    /// `"ESSSP"`, `"IMA"`), case-insensitively. Unknown names yield a
    /// structured [`UnknownMethodError`] that carries the full registry,
    /// so callers can render an actionable message without consulting
    /// [`AnySelector::names`] themselves.
    ///
    /// ```
    /// use relmax_core::selector::{AnySelector, EdgeSelector};
    ///
    /// assert_eq!(AnySelector::from_name("be").unwrap().name(), "BE");
    /// assert_eq!(AnySelector::from_name("Cent-Deg").unwrap().name(), "Cent-Deg");
    /// let err = AnySelector::from_name("nope").unwrap_err();
    /// assert_eq!(err.requested, "nope");
    /// assert!(err.to_string().contains("BE"));
    /// ```
    pub fn from_name(name: &str) -> Result<AnySelector, UnknownMethodError> {
        AnySelector::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| UnknownMethodError {
                requested: name.to_string(),
                known: AnySelector::names(),
            })
    }

    /// The names accepted by [`AnySelector::from_name`], in registry order.
    pub fn names() -> Vec<&'static str> {
        AnySelector::all().iter().map(|m| m.name()).collect()
    }
}

/// A `--method`-style lookup failure: the requested name plus the full
/// registry of valid ones, ready to render as one actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMethodError {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every name [`AnySelector::from_name`] accepts, in registry order.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownMethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown method {:?}; valid methods: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownMethodError {}

impl EdgeSelector for AnySelector {
    fn name(&self) -> &'static str {
        match self {
            AnySelector::TopK(s) => s.name(),
            AnySelector::HillClimbing(s) => s.name(),
            AnySelector::Centrality(s) => s.name(),
            AnySelector::Eigen(s) => s.name(),
            AnySelector::Mrp(s) => s.name(),
            AnySelector::IndividualPath(s) => s.name(),
            AnySelector::BatchEdge(s) => s.name(),
            AnySelector::Exact(s) => s.name(),
            AnySelector::Esssp(s) => s.name(),
            AnySelector::Ima(s) => s.name(),
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
        match self {
            AnySelector::TopK(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::HillClimbing(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Centrality(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Eigen(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Mrp(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::IndividualPath(s) => {
                s.select_on_snapshot(g, query, candidates, est, budget)
            }
            AnySelector::BatchEdge(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Exact(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Esssp(s) => s.select_on_snapshot(g, query, candidates, est, budget),
            AnySelector::Ima(s) => s.select_on_snapshot(g, query, candidates, est, budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_sampling::McEstimator;
    use relmax_ugraph::{NodeId, UncertainGraph};

    #[test]
    fn outcome_gain_is_difference() {
        let o = Outcome {
            added: vec![],
            base_reliability: 0.3,
            new_reliability: 0.75,
            base_estimate: Estimate::exact(0.3),
            new_estimate: Estimate::exact(0.75),
            added_estimates: vec![],
        };
        assert!((o.gain() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn finish_outcome_measures_gain_with_crn() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.9);
        let est = McEstimator::new(20_000, 7);
        let added = vec![CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.9,
        }];
        let o = finish_outcome_budgeted(&g.freeze(), &q, added, &est, est.default_budget());
        assert_eq!(o.base_reliability, 0.0);
        assert!(
            (o.new_reliability - 0.45).abs() < 0.02,
            "{}",
            o.new_reliability
        );
        assert!(o.gain() > 0.4);
    }

    #[test]
    fn select_error_displays() {
        let e = SelectError::TooManyCombinations {
            candidates: 100,
            k: 5,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn from_name_round_trips_every_method() {
        for m in AnySelector::all() {
            let looked_up = AnySelector::from_name(m.name()).unwrap();
            assert_eq!(looked_up.name(), m.name());
            let lower = AnySelector::from_name(&m.name().to_lowercase()).unwrap();
            assert_eq!(lower.name(), m.name());
        }
        assert_eq!(AnySelector::names().len(), AnySelector::all().len());
    }

    #[test]
    fn from_name_reports_the_full_registry_on_miss() {
        let err = AnySelector::from_name("no-such-method").unwrap_err();
        assert_eq!(err.requested, "no-such-method");
        assert_eq!(err.known, AnySelector::names());
        let msg = err.to_string();
        for known in AnySelector::names() {
            assert!(msg.contains(known), "message lacks {known}: {msg}");
        }
    }

    #[test]
    fn outcomes_surface_estimates() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.9);
        let est = McEstimator::new(4_000, 7);
        let added = vec![CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.9,
        }];
        let o = finish_outcome_budgeted(&g.freeze(), &q, added, &est, Budget::fixed(4_000));
        assert_eq!(o.base_estimate.value, o.base_reliability);
        assert_eq!(o.new_estimate.value, o.new_reliability);
        assert_eq!(o.added_estimates.len(), 1);
        // The lone edge alone is the whole gain, on common random numbers.
        assert_eq!(o.added_estimates[0].value, o.new_estimate.value);
        assert_eq!(o.base_estimate.samples_used, 4_000);
        assert!(o.new_estimate.ci_high >= o.new_estimate.value);
    }

    #[test]
    fn any_selector_dispatches_by_name() {
        assert_eq!(AnySelector::batch_edge().name(), "BE");
        assert_eq!(AnySelector::individual_path().name(), "IP");
        assert_eq!(AnySelector::hill_climbing().name(), "HC");
        assert_eq!(AnySelector::mrp().name(), "MRP");
        assert_eq!(AnySelector::top_k().name(), "TopK");
        assert_eq!(AnySelector::centrality_degree().name(), "Cent-Deg");
        assert_eq!(AnySelector::centrality_betweenness().name(), "Cent-Bet");
        assert_eq!(AnySelector::eigen().name(), "EO");
        assert_eq!(AnySelector::exhaustive().name(), "ES");
    }

    #[test]
    fn any_selector_runs_like_the_inner_method() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        let q = StQuery::new(NodeId(0), NodeId(2), 1, 0.8);
        let est = McEstimator::new(2000, 3);
        let cands = [CandidateEdge {
            src: NodeId(1),
            dst: NodeId(2),
            prob: 0.8,
        }];
        let via_enum = AnySelector::hill_climbing()
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        let direct = HillClimbingSelector
            .select_with_candidates_budgeted(&g, &q, &cands, &est, est.default_budget())
            .unwrap();
        assert_eq!(via_enum.added.len(), direct.added.len());
        assert_eq!(via_enum.new_reliability, direct.new_reliability);
    }
}
