//! Core uncertain-graph storage.

use crate::error::GraphError;
use crate::fxhash::FxHashMap;
use crate::{Arc, CoinId, ProbGraph};
use std::collections::TryReserveError;
use std::fmt;

/// Index of a node. Node ids are dense: `0..graph.num_nodes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Index of a logical edge. For undirected graphs one `EdgeId` covers both
/// orientations (a single Bernoulli coin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One probabilistic edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source endpoint (for undirected edges: the lower-id endpoint as given).
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Existence probability in `[0, 1]`.
    pub prob: f64,
}

/// An uncertain graph `G = (V, E, p)`.
///
/// Storage is adjacency-list based with dense `u32` ids. Undirected graphs
/// mirror each edge into both endpoints' adjacency lists but keep a single
/// [`Edge`] record (single coin), so possible-world sampling remains
/// consistent.
///
/// ```
/// use relmax_ugraph::{UncertainGraph, NodeId};
///
/// let mut g = UncertainGraph::new(3, true);
/// g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(1), NodeId(0))); // directed
/// ```
#[derive(Clone)]
pub struct UncertainGraph {
    directed: bool,
    edges: Vec<Edge>,
    /// `dead[e]` marks a tombstoned (deleted or re-probed) edge record. The
    /// record — and its coin id — is retained so every surviving edge keeps
    /// its coin id verbatim across mutations; dead edges are simply absent
    /// from the adjacency lists and pair index.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    num_dead: usize,
    /// `out_adj[v]` = `(neighbor, edge)` pairs leaving `v` (or incident, if
    /// undirected).
    out_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// `in_adj[v]` = `(neighbor, edge)` pairs entering `v`. Empty vectors
    /// alias nothing for undirected graphs (we reuse `out_adj` there).
    in_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Ordered-pair index for O(1) `has_edge`; undirected edges are keyed by
    /// the normalized (min, max) pair. Holds live edges only.
    index: FxHashMap<(u32, u32), EdgeId>,
}

impl UncertainGraph {
    /// Create an empty graph with `n` nodes.
    pub fn new(n: usize, directed: bool) -> Self {
        Self::with_capacity(n, directed, 0)
    }

    /// Create a graph with `n` nodes and pre-reserved edge capacity.
    pub fn with_capacity(n: usize, directed: bool, edges: usize) -> Self {
        Self::try_with_capacity(n, directed, edges).expect("graph arrays exceed memory")
    }

    /// [`UncertainGraph::with_capacity`] that reports a failed reservation
    /// instead of aborting — for node counts read from untrusted input.
    pub fn try_with_capacity(
        n: usize,
        directed: bool,
        edges: usize,
    ) -> Result<Self, TryReserveError> {
        let adj = |len: usize| -> Result<Vec<Vec<(NodeId, EdgeId)>>, TryReserveError> {
            let mut v = Vec::new();
            v.try_reserve_exact(len)?;
            v.resize(len, Vec::new());
            Ok(v)
        };
        let mut g = UncertainGraph {
            directed,
            edges: Vec::new(),
            dead: Vec::new(),
            num_dead: 0,
            out_adj: adj(n)?,
            in_adj: adj(if directed { n } else { 0 })?,
            index: FxHashMap::default(),
        };
        g.edges.try_reserve(edges)?;
        g.index.try_reserve(edges)?;
        Ok(g)
    }

    #[inline]
    fn key(&self, u: NodeId, v: NodeId) -> (u32, u32) {
        if self.directed || u.0 <= v.0 {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }

    fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() >= self.num_nodes() {
            return Err(GraphError::NodeOutOfBounds {
                node: v.0,
                num_nodes: self.num_nodes(),
            });
        }
        Ok(())
    }

    /// Add an edge `u -> v` (or `u — v` if undirected) with probability `p`.
    ///
    /// Returns the new [`EdgeId`]. Rejects self-loops, duplicates, and
    /// probabilities outside `[0, 1]`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<EdgeId, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u.0 });
        }
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(GraphError::InvalidProbability { prob: p });
        }
        let key = self.key(u, v);
        if self.index.contains_key(&key) {
            return Err(GraphError::DuplicateEdge { src: u.0, dst: v.0 });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src: u,
            dst: v,
            prob: p,
        });
        self.dead.push(false);
        self.index.insert(key, id);
        self.out_adj[u.index()].push((v, id));
        if self.directed {
            self.in_adj[v.index()].push((u, id));
        } else {
            self.out_adj[v.index()].push((u, id));
        }
        Ok(id)
    }

    /// Overwrite the probability of an existing edge.
    ///
    /// Note: this rewrites the probability **in place**, reusing the coin
    /// id — sampled worlds change for that coin. The delta-overlay pipeline
    /// uses [`UncertainGraph::update_edge`] instead, which retires the old
    /// coin and appends a fresh one so untouched coin streams stay
    /// bit-identical.
    pub fn set_prob(&mut self, e: EdgeId, p: f64) -> Result<(), GraphError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(GraphError::InvalidProbability { prob: p });
        }
        self.edges[e.index()].prob = p;
        Ok(())
    }

    /// Delete the edge `u -> v` (normalized for undirected graphs).
    ///
    /// The edge record is tombstoned, not removed: its coin id stays
    /// allocated (with the original probability) so every other edge keeps
    /// its coin id verbatim — the invariant [`crate::DeltaOverlay`] and the
    /// overlay-vs-refreeze equivalence tests rely on. The tombstone is
    /// invisible to adjacency, `has_edge`, degrees, and world sampling (its
    /// coin is never flipped because no arc references it); exact
    /// world-enumeration paths that scan the raw [`UncertainGraph::edges`]
    /// slice should be run on graphs without tombstones.
    ///
    /// Returns the retired [`EdgeId`].
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let key = self.key(u, v);
        let Some(id) = self.index.remove(&key) else {
            return Err(GraphError::MissingEdge { src: u.0, dst: v.0 });
        };
        let (a, b) = {
            let e = &self.edges[id.index()];
            (e.src, e.dst)
        };
        self.out_adj[a.index()].retain(|&(_, e)| e != id);
        if self.directed {
            self.in_adj[b.index()].retain(|&(_, e)| e != id);
        } else {
            self.out_adj[b.index()].retain(|&(_, e)| e != id);
        }
        self.dead[id.index()] = true;
        self.num_dead += 1;
        Ok(id)
    }

    /// Re-probe the edge `u -> v`: retire its coin and append a fresh edge
    /// record (new coin id, new probability) for the same node pair.
    ///
    /// This is the mutation the delta layer uses for probability updates —
    /// unchanged edges keep their coin ids verbatim, while the changed
    /// edge draws from a brand-new coin stream, so results are
    /// deterministically reproducible without perturbing any untouched
    /// coin. Returns the **new** [`EdgeId`]. The update is atomic: on any
    /// validation error the graph is unchanged.
    pub fn update_edge(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<EdgeId, GraphError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(GraphError::InvalidProbability { prob: p });
        }
        self.delete_edge(u, v)?;
        let id = self
            .add_edge(u, v, p)
            .expect("re-adding a just-deleted edge cannot fail");
        Ok(id)
    }

    /// Whether edge record `e` is live (not tombstoned by
    /// [`UncertainGraph::delete_edge`] / [`UncertainGraph::update_edge`]).
    #[inline]
    pub fn is_alive(&self, e: EdgeId) -> bool {
        !self.dead[e.index()]
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of live edges (tombstoned records excluded).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() - self.num_dead
    }

    /// Number of coin ids ever allocated, retired ones included. Equals
    /// [`UncertainGraph::num_edges`] unless edges were deleted or
    /// re-probed.
    #[inline]
    pub fn num_coins(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn directed(&self) -> bool {
        self.directed
    }

    /// The edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// All edge records in insertion (= coin id) order, **including**
    /// tombstoned ones — index with care on mutated graphs (see
    /// [`UncertainGraph::is_alive`]).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Probability of edge `e`.
    #[inline]
    pub fn prob(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].prob
    }

    /// Look up the edge `u -> v` (normalized for undirected graphs).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.index.get(&self.key(u, v)).copied()
    }

    /// Whether the edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Out-neighbors of `v` with edge ids (incident edges if undirected).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.out_adj[v.index()]
    }

    /// In-neighbors of `v` with edge ids (incident edges if undirected).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        if self.directed {
            &self.in_adj[v.index()]
        } else {
            &self.out_adj[v.index()]
        }
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// A copy of this graph with every edge reversed. For undirected graphs
    /// this is a plain clone.
    pub fn reversed(&self) -> UncertainGraph {
        if !self.directed {
            return self.clone();
        }
        let mut g = UncertainGraph::with_capacity(self.num_nodes(), true, self.num_edges());
        for (i, e) in self.edges.iter().enumerate() {
            if self.dead[i] {
                // Preserve the tombstone verbatim so coin ids stay aligned
                // with the forward graph.
                g.edges.push(Edge {
                    src: e.dst,
                    dst: e.src,
                    prob: e.prob,
                });
                g.dead.push(true);
                g.num_dead += 1;
            } else {
                g.add_edge(e.dst, e.src, e.prob)
                    .expect("reversing a valid graph cannot fail");
            }
        }
        g
    }

    /// Freeze this graph into an immutable [`crate::CsrGraph`] snapshot
    /// (flat CSR arrays, coin ids preserved). Build once, then sample many
    /// worlds against the snapshot.
    pub fn freeze(&self) -> crate::CsrGraph {
        crate::CsrGraph::freeze(self)
    }

    /// Approximate resident bytes of the graph structures (for the memory
    /// columns of Tables 9/10/16/22).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        bytes += self.edges.capacity() * size_of::<Edge>();
        bytes += self.dead.capacity() * size_of::<bool>();
        for adj in &self.out_adj {
            bytes += adj.capacity() * size_of::<(NodeId, EdgeId)>();
        }
        bytes += self.out_adj.capacity() * size_of::<Vec<(NodeId, EdgeId)>>();
        for adj in &self.in_adj {
            bytes += adj.capacity() * size_of::<(NodeId, EdgeId)>();
        }
        bytes += self.in_adj.capacity() * size_of::<Vec<(NodeId, EdgeId)>>();
        bytes += self.index.capacity() * (size_of::<(u32, u32)>() + size_of::<EdgeId>() + 8);
        bytes
    }
}

impl fmt::Debug for UncertainGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UncertainGraph")
            .field("directed", &self.directed)
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Slice-backed arc iterator over an [`UncertainGraph`] adjacency list.
///
/// Resolves each `(neighbor, edge-id)` pair against the edge table and
/// derives the flip threshold on the fly (the frozen [`crate::CsrGraph`]
/// precomputes it instead — that is the hot path). Fully inlinable once
/// the caller is monomorphized over [`UncertainGraph`].
pub struct AdjArcs<'a> {
    edges: &'a [Edge],
    iter: std::slice::Iter<'a, (NodeId, EdgeId)>,
}

impl Iterator for AdjArcs<'_> {
    type Item = Arc;

    #[inline]
    fn next(&mut self) -> Option<Arc> {
        self.iter
            .next()
            .map(|&(u, e)| Arc::new(u, self.edges[e.index()].prob, e.0))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl ExactSizeIterator for AdjArcs<'_> {}

impl ProbGraph for UncertainGraph {
    type Arcs<'a> = AdjArcs<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }

    #[inline]
    fn num_coins(&self) -> usize {
        self.num_coins()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn out_arcs(&self, v: NodeId) -> AdjArcs<'_> {
        AdjArcs {
            edges: &self.edges,
            iter: self.out_adj[v.index()].iter(),
        }
    }

    #[inline]
    fn in_arcs(&self, v: NodeId) -> AdjArcs<'_> {
        AdjArcs {
            edges: &self.edges,
            iter: self.in_edges(v).iter(),
        }
    }

    #[inline]
    fn coin_prob(&self, c: CoinId) -> f64 {
        self.edges[c as usize].prob
    }

    #[inline]
    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        let e = &self.edges[c as usize];
        (e.src, e.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> UncertainGraph {
        // s=0 -> a=1 -> t=3, s -> b=2 -> t
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        g
    }

    #[test]
    fn directed_adjacency() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.prob(g.edge_between(NodeId(2), NodeId(3)).unwrap()), 0.8);
    }

    #[test]
    fn undirected_edges_are_symmetric_single_coin() {
        let mut g = UncertainGraph::new(3, false);
        let e = g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_between(NodeId(1), NodeId(0)), Some(e));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        // Duplicate in either orientation is rejected.
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(0), 0.9),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut g = UncertainGraph::new(2, true);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(0), 0.5),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 1.5),
            Err(GraphError::InvalidProbability { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(GraphError::InvalidProbability { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 0.5),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 0.7),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = diamond();
        let r = g.reversed();
        assert!(r.has_edge(NodeId(1), NodeId(0)));
        assert!(!r.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.prob(r.edge_between(NodeId(3), NodeId(2)).unwrap()), 0.8);
    }

    #[test]
    fn prob_graph_trait_visits_all_edges() {
        let g = diamond();
        let mut seen: Vec<(u32, f64, CoinId)> = g
            .out_arcs(NodeId(0))
            .map(|a| (a.node.0, a.prob, a.coin))
            .collect();
        seen.sort_by_key(|a| a.0);
        assert_eq!(seen, vec![(1, 0.5, 0), (2, 0.6, 1)]);
        let mut inc: Vec<u32> = g.in_arcs(NodeId(3)).map(|a| a.node.0).collect();
        inc.sort_unstable();
        assert_eq!(inc, vec![1, 2]);
        assert_eq!(g.coin_endpoints(3), (NodeId(2), NodeId(3)));
        assert_eq!(g.coin_prob(2), 0.7);
    }

    #[test]
    fn set_prob_updates_and_validates() {
        let mut g = diamond();
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        g.set_prob(e, 0.9).unwrap();
        assert_eq!(g.prob(e), 0.9);
        assert!(g.set_prob(e, -0.1).is_err());
    }

    #[test]
    fn delete_edge_tombstones_but_keeps_coin_ids() {
        let mut g = diamond();
        let retired = g.delete_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(retired, EdgeId(1));
        assert!(!g.is_alive(retired));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_coins(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.in_degree(NodeId(2)), 0);
        // The retired coin keeps its original probability; surviving coins
        // are untouched.
        assert_eq!(g.coin_prob(1), 0.6);
        assert_eq!(g.coin_prob(3), 0.8);
        // The pair is free again: re-adding appends a fresh coin.
        let fresh = g.add_edge(NodeId(0), NodeId(2), 0.25).unwrap();
        assert_eq!(fresh, EdgeId(4));
        assert_eq!(g.num_edges(), 4);
        assert!(matches!(
            g.delete_edge(NodeId(1), NodeId(2)),
            Err(GraphError::MissingEdge { src: 1, dst: 2 })
        ));
    }

    #[test]
    fn update_edge_retires_and_appends() {
        let mut g = diamond();
        let id = g.update_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        assert_eq!(id, EdgeId(4));
        assert!(!g.is_alive(EdgeId(0)));
        assert_eq!(g.coin_prob(0), 0.5); // retired coin keeps old prob
        assert_eq!(g.coin_prob(4), 0.9);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_coins(), 5);
        assert_eq!(g.edge_between(NodeId(0), NodeId(1)), Some(id));
        // Atomic on bad probability: nothing retired.
        assert!(g.update_edge(NodeId(0), NodeId(2), 1.5).is_err());
        assert!(g.is_alive(EdgeId(1)));
        // Missing pair is reported, not created.
        assert!(matches!(
            g.update_edge(NodeId(3), NodeId(0), 0.5),
            Err(GraphError::MissingEdge { .. })
        ));
    }

    #[test]
    fn undirected_delete_clears_both_adjacency_sides() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.6).unwrap();
        g.delete_edge(NodeId(1), NodeId(0)).unwrap(); // reverse orientation
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_coins(), 2);
    }

    #[test]
    fn reversed_preserves_tombstones_and_coin_alignment() {
        let mut g = diamond();
        g.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let r = g.reversed();
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.num_coins(), 4);
        assert!(!r.is_alive(EdgeId(1)));
        assert!(!r.has_edge(NodeId(2), NodeId(0)));
        assert_eq!(r.coin_prob(1), 0.6);
        assert_eq!(r.coin_endpoints(3), (NodeId(3), NodeId(2)));
    }

    #[test]
    fn resident_bytes_grows_with_edges() {
        let small = diamond();
        let mut big = UncertainGraph::new(100, true);
        for i in 0..99u32 {
            big.add_edge(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        assert!(big.resident_bytes() > small.resident_bytes());
    }
}
