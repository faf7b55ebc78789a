//! Freeze-time reliability index ([`RelIndex`]): certain-edge condensation
//! plus possible-graph decomposition, so repeated queries against one frozen
//! graph skip work whose outcome is the same in **every** possible world.
//!
//! The index is computed once per [`CsrGraph`] and layers three structures:
//!
//! 1. **Certain-SCC condensation.** Edges with `p == 1.0` exist in every
//!    world, so mutual reachability through them is a world-independent
//!    equivalence: the strongly connected components of the deterministic
//!    subgraph (connected components, for undirected graphs) collapse into
//!    *supernodes*. Sampling then runs on the condensed graph — fewer nodes,
//!    fewer arcs — while every surviving arc keeps its **original coin id**,
//!    which is what keeps estimates bit-identical (see below). When nothing
//!    collapses, the condensed graph *is* the graph: it shares the
//!    snapshot's columns instead of copying them.
//! 2. **Possible-graph components + blocks.** Over the graph of edges with
//!    `p > 0` ("possible" edges), connected components are world-independent
//!    *separators*: an s-t query across components is 0.0 in every world and
//!    short-circuits without sampling. For undirected graphs the index
//!    additionally computes the biconnected blocks and the block-cut tree,
//!    rooted once per component, so an s-t query prunes to the union of
//!    blocks on the tree path between `s` and `t` — the exact set of nodes
//!    that can lie on a simple s-t path — by walking only that path.
//! 3. **Possible-graph SCC DAG.** For directed graphs the index labels the
//!    strongly connected components of the condensed possible graph and
//!    keeps the DAG over them. An s-t query prunes to `fwd(s) ∩ rev(t)`:
//!    when `s` and `t` share an SCC that is the SCC itself (no mask at all
//!    when it is a sink), otherwise the SCCs that both a forward DAG walk
//!    from `s` and a reverse walk from `t` reach. The query short-circuits
//!    to 0.0 when `t` is not even possibly reachable. No plan runs a BFS
//!    over the graph.
//!
//! ## Why pruning preserves bit-identity
//!
//! Coin flips are stateless: the draw for `(seed, sample, coin)` is a pure
//! hash, independent of *when* — or *whether* — any other coin is flipped
//! (see `relmax-sampling`'s coin module). Removing nodes that provably
//! cannot lie on an s-t path from the traversal changes which coins get
//! hashed, but never the verdict "does this world connect `s` to `t`":
//! every world path survives the restriction, and no new path appears.
//! Condensation is exact for the same reason — certain edges are present in
//! every world, so contracting a certain SCC neither creates nor destroys
//! world connectivity between supernodes, and the per-world hit counts on
//! the condensed graph equal the original counts bit for bit. Estimates are
//! pure functions of those counts, so they match bit for bit too.
//!
//! The index answers *structural* questions only; it never touches the
//! sampled randomness, so leaving it out (`relmax query --no-index`, or
//! no index passed to the engine) changes no estimate value.

use crate::csr::{CsrGraph, Side};
use crate::{Arc, CoinId, NodeId, ProbGraph};

/// The persisted form of a [`RelIndex`]: two per-node label arrays, stored
/// as the optional index section of a version-2 `.rgs` snapshot (see
/// [`crate::snapshot`]). A load builds the index from the graph and
/// accepts the section only if it matches ([`RelIndex::from_section`]);
/// the rest of the index is never stored, so the section stays small and
/// version-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSection {
    /// `super_of[v]` — the certain-SCC supernode of node `v`, numbered
    /// canonically by first appearance in node order (so `super_of[0] == 0`
    /// and id `k + 1` first appears after id `k`).
    pub super_of: Vec<u32>,
    /// `comp_of[v]` — the possible-graph component of node `v`, numbered
    /// canonically by first appearance in node order.
    pub comp_of: Vec<u32>,
}

/// Summary counters for display (`relmax index`) and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Nodes in the original graph.
    pub nodes: usize,
    /// Supernodes after certain-SCC condensation.
    pub supernodes: usize,
    /// Connected components of the possible graph.
    pub components: usize,
    /// Out-side arcs with `p == 1.0` in the original graph.
    pub certain_arcs: usize,
    /// Biconnected blocks of the condensed possible graph (undirected
    /// graphs only; 0 for directed).
    pub blocks: usize,
    /// Strongly connected components of the condensed possible graph
    /// (directed graphs only; 0 for undirected).
    pub possible_sccs: usize,
}

/// Lists of `u32` keyed by `0..len`, flattened: list `k` is
/// `items[off[k]..off[k + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Lists {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    /// Group `(key, item)` pairs by key, keeping pair order within a list.
    fn group<I: Iterator<Item = (u32, u32)> + Clone>(keys: usize, pairs: I) -> Lists {
        let mut off = vec![0u32; keys + 1];
        for (k, _) in pairs.clone() {
            off[k as usize + 1] += 1;
        }
        for k in 0..keys {
            off[k + 1] += off[k];
        }
        let mut cursor = off.clone();
        let mut items = vec![0u32; off[keys] as usize];
        for (k, x) in pairs {
            items[cursor[k as usize] as usize] = x;
            cursor[k as usize] += 1;
        }
        Lists { off, items }
    }

    fn row(&self, k: u32) -> &[u32] {
        &self.items[self.off[k as usize] as usize..self.off[k as usize + 1] as usize]
    }
}

/// Strongly connected components of the condensed possible graph and the
/// DAG over them (directed graphs only).
#[derive(Debug, Clone, PartialEq)]
struct Sccs {
    /// Supernode → SCC. Tarjan emits an SCC only after every SCC it
    /// reaches, so each DAG arc runs from a higher id to a lower one.
    of: Vec<u32>,
    /// Member supernodes of each SCC, ascending.
    members: Lists,
    /// DAG successors of each SCC, deduplicated; an SCC without any is a
    /// sink.
    succ: Lists,
    /// DAG predecessors of each SCC.
    pred: Lists,
}

/// The possible-graph structure an s-t mask is read from.
#[derive(Debug, Clone, PartialEq)]
enum Paths {
    Directed(Sccs),
    Undirected(Blocks),
}

/// Biconnected blocks + block-cut tree of the condensed possible graph
/// (undirected graphs only).
#[derive(Debug, Clone, PartialEq)]
struct Blocks {
    num_blocks: usize,
    /// Member supernodes of each block (each node listed once per block).
    members: Vec<Vec<u32>>,
    /// Supernode → its block-cut tree node: its block id for non-cut
    /// vertices, `num_blocks + cut_index` for cut vertices, `u32::MAX` for
    /// edgeless supernodes.
    attach: Vec<u32>,
    /// Block-cut tree (blocks `0..num_blocks`, then cut vertices), rooted
    /// once per component: each tree node's parent (a root is its own) and
    /// its depth below the root.
    parent: Vec<u32>,
    depth: Vec<u32>,
}

/// How an s-t query should run, as decided by [`RelIndex::st_plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum StPlan {
    /// `s` and `t` sit in the same certain supernode: the reliability is
    /// exactly 1.0 in every world — no sampling needed.
    Certain,
    /// No possible world connects `s` to `t` (different components, or no
    /// directed possible path): the reliability is exactly 0.0 — no
    /// sampling needed.
    Impossible,
    /// Sample on the condensed graph between the mapped endpoints, with an
    /// optional node mask restricting the traversal to supernodes that can
    /// lie on an s-t path (`None` when the mask would not prune anything).
    Sample {
        /// `s` mapped to its supernode in the condensed graph.
        s: NodeId,
        /// `t` mapped to its supernode in the condensed graph.
        t: NodeId,
        /// Bitset over condensed node ids; `None` disables masking.
        mask: Option<Vec<u64>>,
    },
}

/// What structure alone says about an s-t pair, as decided by
/// [`RelIndex::st_verdict`]: [`StPlan`] without the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StVerdict {
    /// Connected in every world: `R(s, t) = 1` exactly.
    Certain,
    /// Connected in no world: `R(s, t) = 0` exactly.
    Impossible,
    /// Only sampling can tell.
    Sample,
}

/// Freeze-time reliability index over one [`CsrGraph`] — certain-edge
/// condensation, possible-graph decomposition, and per-query s-t pruning.
///
/// Build it once per frozen graph ([`RelIndex::build`]) and attach it to an
/// estimator or query engine; every structure it exposes is *world
/// independent*, so routing queries through it preserves bit-identical
/// estimates (see the [module docs](self)).
///
/// ```
/// use relmax_ugraph::index::{RelIndex, StPlan};
/// use relmax_ugraph::{NodeId, UncertainGraph};
///
/// let mut g = UncertainGraph::new(5, true);
/// g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap(); // certain cycle 0 <-> 1
/// g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
/// // nodes 3, 4 are a separate component
/// g.add_edge(NodeId(3), NodeId(4), 0.9).unwrap();
///
/// let idx = RelIndex::build(&g.freeze());
/// assert_eq!(idx.num_supernodes(), 4); // {0,1} condensed
/// assert_eq!(idx.num_components(), 2);
/// assert_eq!(idx.st_plan(NodeId(0), NodeId(1)), StPlan::Certain);
/// assert_eq!(idx.st_plan(NodeId(0), NodeId(3)), StPlan::Impossible);
/// assert!(matches!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Sample { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RelIndex {
    directed: bool,
    nodes: usize,
    coins: usize,
    certain_arcs: usize,
    super_of: Vec<u32>,
    num_super: usize,
    /// Possible-graph component of each supernode.
    comp_of_super: Vec<u32>,
    /// Component sizes, counted in supernodes.
    comp_size: Vec<u32>,
    num_comps: usize,
    condensed: CsrGraph,
    paths: Paths,
}

impl RelIndex {
    /// Build the index for a frozen graph: `O(n + m)`.
    pub fn build(csr: &CsrGraph) -> RelIndex {
        // Over symmetric undirected arcs, SCCs are connected components.
        let (raw, _) = tarjan(csr, |p| p == 1.0);
        let (super_of, num_super) = canonicalize(raw, csr.num_nodes);
        let condensed = build_condensed(csr, &super_of, num_super);
        let (comp_of_super, num_comps) = possible_components(&condensed);
        let mut comp_size = vec![0u32; num_comps];
        for &c in &comp_of_super {
            comp_size[c as usize] += 1;
        }
        let paths = if condensed.directed {
            Paths::Directed(Sccs::build(&condensed))
        } else {
            Paths::Undirected(build_blocks(&condensed))
        };
        RelIndex {
            directed: csr.directed,
            nodes: csr.num_nodes,
            coins: csr.coin_prob.len(),
            certain_arcs: csr.out_prob.iter().filter(|&&p| p == 1.0).count(),
            super_of,
            num_super,
            comp_of_super,
            comp_size,
            num_comps,
            condensed,
            paths,
        }
    }

    /// Reconstruct the index from its persisted [`IndexSection`]: build
    /// it from `csr` and accept the section only if it is exactly the
    /// section of that build, so stored labels can never change a plan.
    /// Loading a stored section therefore costs what building does.
    pub fn from_section(csr: &CsrGraph, section: &IndexSection) -> Result<RelIndex, String> {
        let n = csr.num_nodes;
        if section.super_of.len() != n || section.comp_of.len() != n {
            return Err(format!(
                "index section sized for {} nodes but the graph has {n}",
                section.super_of.len()
            ));
        }
        let built = Self::build(csr);
        if let Some(v) = (0..n).find(|&v| {
            let sup = built.super_of[v];
            sup != section.super_of[v] || built.comp_of_super[sup as usize] != section.comp_of[v]
        }) {
            return Err(format!("stored labels of node {v} disagree with the graph"));
        }
        Ok(built)
    }

    /// The persisted form of this index (see [`IndexSection`]).
    pub fn section(&self) -> IndexSection {
        IndexSection {
            super_of: self.super_of.clone(),
            comp_of: self
                .super_of
                .iter()
                .map(|&s| self.comp_of_super[s as usize])
                .collect(),
        }
    }

    /// Whether this index was built for a graph with these dimensions.
    ///
    /// A cheap identity guard, not a content check: estimators use it to
    /// skip the index when handed a *different* graph shape (most
    /// importantly overlay views, whose coin space is strictly larger than
    /// the base graph's). Callers are responsible for attaching an index
    /// only alongside the graph it was built from.
    pub fn matches(&self, nodes: usize, coins: usize, directed: bool) -> bool {
        self.nodes == nodes && self.coins == coins && self.directed == directed
    }

    /// Nodes in the original graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Supernodes after certain-SCC condensation.
    pub fn num_supernodes(&self) -> usize {
        self.num_super
    }

    /// Connected components of the possible graph.
    pub fn num_components(&self) -> usize {
        self.num_comps
    }

    /// Whether condensation collapsed nothing (every node its own
    /// supernode) — the condensed graph then mirrors the original.
    pub fn is_identity(&self) -> bool {
        self.num_super == self.nodes
    }

    /// The supernode of `v` — a node id of the [condensed
    /// graph](RelIndex::condensed).
    pub fn supernode(&self, v: NodeId) -> NodeId {
        NodeId(self.super_of[v.index()])
    }

    /// The possible-graph component of `v`.
    pub fn component(&self, v: NodeId) -> u32 {
        self.comp_of_super[self.super_of[v.index()] as usize]
    }

    /// Whether `s` and `t` share a possible-graph component. When they do
    /// not, `R(s, t) = 0` exactly.
    pub fn same_component(&self, s: NodeId, t: NodeId) -> bool {
        self.component(s) == self.component(t)
    }

    /// Whether `s` and `t` share a certain supernode. When they do,
    /// `R(s, t) = 1` exactly.
    pub fn same_supernode(&self, s: NodeId, t: NodeId) -> bool {
        self.super_of[s.index()] == self.super_of[t.index()]
    }

    /// The condensed sampling graph over supernodes. Arcs keep their
    /// original probabilities and **coin ids**; intra-supernode edges are
    /// dropped (they never affect reachability between supernodes).
    pub fn condensed(&self) -> &CsrGraph {
        &self.condensed
    }

    /// Map per-supernode results back to per-node results: entry `v` is
    /// the value of `v`'s supernode. This is exact for reachability-style
    /// quantities because every node shares its supernode's fate in every
    /// world.
    pub fn expand<T: Clone>(&self, per_super: &[T]) -> Vec<T> {
        assert_eq!(per_super.len(), self.num_super, "expand: wrong input size");
        self.super_of
            .iter()
            .map(|&s| per_super[s as usize].clone())
            .collect()
    }

    /// What structure alone says about an s-t query over the *original*
    /// node ids: certain supernodes, then possible-graph components, then
    /// (directed) reachability in the SCC DAG. Builds no mask.
    pub fn st_verdict(&self, s: NodeId, t: NodeId) -> StVerdict {
        self.verdict(self.super_of[s.index()], self.super_of[t.index()])
    }

    fn verdict(&self, ss: u32, tt: u32) -> StVerdict {
        if ss == tt {
            return StVerdict::Certain;
        }
        if self.comp_of_super[ss as usize] != self.comp_of_super[tt as usize] {
            return StVerdict::Impossible;
        }
        match &self.paths {
            Paths::Directed(sc) if sc.forward(sc.of[ss as usize], sc.of[tt as usize]).is_none() => {
                StVerdict::Impossible
            }
            _ => StVerdict::Sample,
        }
    }

    /// Decide how an s-t query over the *original* node ids should run:
    /// [`RelIndex::st_verdict`], plus the node mask when it says sample.
    pub fn st_plan(&self, s: NodeId, t: NodeId) -> StPlan {
        let (ss, tt) = (self.super_of[s.index()], self.super_of[t.index()]);
        match self.verdict(ss, tt) {
            StVerdict::Certain => StPlan::Certain,
            StVerdict::Impossible => StPlan::Impossible,
            StVerdict::Sample => StPlan::Sample {
                s: NodeId(ss),
                t: NodeId(tt),
                mask: match &self.paths {
                    Paths::Directed(sc) => self.directed_mask(sc, ss, tt),
                    Paths::Undirected(bl) => self.undirected_mask(bl, ss, tt),
                },
            },
        }
    }

    /// Summary counters for display and tests.
    pub fn stats(&self) -> IndexStats {
        let (blocks, possible_sccs) = match &self.paths {
            Paths::Directed(sc) => (0, sc.succ.off.len() - 1),
            Paths::Undirected(bl) => (bl.num_blocks, 0),
        };
        IndexStats {
            nodes: self.nodes,
            supernodes: self.num_super,
            components: self.num_comps,
            certain_arcs: self.certain_arcs,
            blocks,
            possible_sccs,
        }
    }

    /// `fwd(ss) ∩ rev(tt)` over the possible graph of a directed graph, for
    /// a pair the verdict left to sampling: the SCCs the forward walk from
    /// `ss` reaches and the reverse walk from `tt` reaches back. `None` when
    /// every SCC forward-reachable from `ss` reaches `tt` (masking would
    /// cost without pruning) — for a shared SCC, exactly when it is a sink.
    fn directed_mask(&self, sc: &Sccs, ss: u32, tt: u32) -> Option<Vec<u64>> {
        let (cs, ct) = (sc.of[ss as usize], sc.of[tt as usize]);
        let (mut mark, escaped) = sc.forward(cs, ct).expect("verdict said reachable");
        // Reverse walk from ct, confined to the forward set: its SCCs lie
        // in ct..=cs, and any SCC on a path between two of them is in it.
        mark[0] |= REV;
        let mut stack = vec![ct];
        while let Some(c) = stack.pop() {
            for &p in sc.pred.row(c) {
                if p <= cs && mark[(p - ct) as usize] == FWD {
                    mark[(p - ct) as usize] |= REV;
                    stack.push(p);
                }
            }
        }
        if !escaped && !mark.contains(&FWD) {
            return None;
        }
        let mut mask = vec![0u64; self.num_super.div_ceil(64)];
        for c in (ct..=cs).filter(|c| mark[(c - ct) as usize] == FWD | REV) {
            for &v in sc.members.row(c) {
                mask[v as usize >> 6] |= 1u64 << (v & 63);
            }
        }
        Some(mask)
    }

    /// Union of blocks on the block-cut tree path between two supernodes of
    /// an undirected graph — the exact set of supernodes that can lie on a
    /// simple s-t path. `None` when the path covers the whole component,
    /// decided from block sizes before any mask is allocated.
    fn undirected_mask(&self, bl: &Blocks, ss: u32, tt: u32) -> Option<Vec<u64>> {
        let (a, b) = (bl.attach[ss as usize], bl.attach[tt as usize]);
        // Consecutive blocks on a tree path share one cut vertex and no
        // other two share any node, so k path blocks hold Σ|B| − (k − 1).
        let (mut sum, mut k) = (0usize, 0usize);
        bl.path(a, b, |x| {
            sum += bl.members[x as usize].len();
            k += 1;
        });
        if sum + 1 - k >= self.comp_size[self.comp_of_super[ss as usize] as usize] as usize {
            return None;
        }
        let mut mask = vec![0u64; self.num_super.div_ceil(64)];
        bl.path(a, b, |x| {
            for &v in &bl.members[x as usize] {
                mask[v as usize >> 6] |= 1u64 << (v & 63);
            }
        });
        Some(mask)
    }
}

/// Marks of an SCC-DAG walk: reached forward from `s`, and back from `t`.
const FWD: u8 = 1;
const REV: u8 = 2;

impl Sccs {
    fn build(g: &CsrGraph) -> Sccs {
        let (of, num) = tarjan(g, |p| p > 0.0);
        let members = Lists::group(num, of.iter().enumerate().map(|(v, &c)| (c, v as u32)));
        let mut succ = Lists {
            off: vec![0],
            items: Vec::new(),
        };
        let mut last = vec![u32::MAX; num];
        for c in 0..num as u32 {
            for &v in members.row(c) {
                let v = v as usize;
                for a in g.out_off[v] as usize..g.out_off[v + 1] as usize {
                    let d = of[g.out_dst[a] as usize];
                    if g.out_prob[a] > 0.0 && d != c && last[d as usize] != c {
                        last[d as usize] = c;
                        succ.items.push(d);
                    }
                }
            }
            succ.off.push(succ.items.len() as u32);
        }
        let pred = Lists::group(
            num,
            (0..num as u32).flat_map(|c| succ.row(c).iter().map(move |&d| (d, c))),
        );
        Sccs {
            of,
            members,
            succ,
            pred,
        }
    }

    /// Forward DAG walk from SCC `cs`, confined to the ids `ct..=cs` (DAG
    /// arcs descend, so no other SCC reaches `ct`): `None` when it misses
    /// `ct`, else the per-SCC marks (index `c - ct`) and whether the walk
    /// left the range.
    fn forward(&self, cs: u32, ct: u32) -> Option<(Vec<u8>, bool)> {
        if ct > cs {
            return None;
        }
        let mut mark = vec![0u8; (cs - ct) as usize + 1];
        mark[(cs - ct) as usize] = FWD;
        let mut escaped = false;
        let mut stack = vec![cs];
        while let Some(c) = stack.pop() {
            for &d in self.succ.row(c) {
                if d < ct {
                    escaped = true;
                } else if mark[(d - ct) as usize] == 0 {
                    mark[(d - ct) as usize] = FWD;
                    stack.push(d);
                }
            }
        }
        (mark[0] == FWD).then_some((mark, escaped))
    }
}

impl Blocks {
    /// Call `f` with each block on the tree path between tree nodes `a` and
    /// `b` of one component, climbing both ends to their lowest common
    /// ancestor.
    fn path(&self, mut a: u32, mut b: u32, mut f: impl FnMut(u32)) {
        let mut visit = |x: u32| {
            if (x as usize) < self.num_blocks {
                f(x);
            }
        };
        while self.depth[a as usize] > self.depth[b as usize] {
            visit(a);
            a = self.parent[a as usize];
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            visit(b);
            b = self.parent[b as usize];
        }
        while a != b {
            visit(a);
            visit(b);
            a = self.parent[a as usize];
            b = self.parent[b as usize];
        }
        visit(a);
    }
}

/// Renumber arbitrary component labels canonically: first appearance in
/// node order gets the next id. Returns the relabeled array and the count.
fn canonicalize(mut labels: Vec<u32>, n: usize) -> (Vec<u32>, usize) {
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    for l in labels.iter_mut() {
        let r = &mut remap[*l as usize];
        if *r == u32::MAX {
            *r = next;
            next += 1;
        }
        *l = *r;
    }
    (labels, next as usize)
}

/// Strongly connected components of `g` over the out-arcs whose probability
/// passes `keep` (iterative Tarjan), numbered in emission order: an SCC is
/// emitted only after every SCC it reaches. Returns the labels and count.
fn tarjan(g: &CsrGraph, keep: impl Fn(f64) -> bool) -> (Vec<u32>, usize) {
    let n = g.num_nodes;
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, u32)> = Vec::new();
    let mut timer = 0u32;
    let mut count = 0u32;
    for root in 0..n as u32 {
        if disc[root as usize] != 0 {
            continue;
        }
        timer += 1;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push((root, g.out_off[root as usize]));
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let vi = v as usize;
            let end = g.out_off[vi + 1];
            let mut descended = false;
            while *cursor < end {
                let a = *cursor as usize;
                *cursor += 1;
                if !keep(g.out_prob[a]) {
                    continue;
                }
                let u = g.out_dst[a];
                let ui = u as usize;
                if disc[ui] == 0 {
                    timer += 1;
                    disc[ui] = timer;
                    low[ui] = timer;
                    stack.push(u);
                    on_stack[ui] = true;
                    call.push((u, g.out_off[ui]));
                    descended = true;
                    break;
                } else if on_stack[ui] {
                    low[vi] = low[vi].min(disc[ui]);
                }
            }
            if descended {
                continue;
            }
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
            }
            if low[vi] == disc[vi] {
                loop {
                    let w = stack.pop().expect("Tarjan stack holds the SCC");
                    on_stack[w as usize] = false;
                    comp[w as usize] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    (comp, count as usize)
}

/// Build the condensed sampling graph: supernodes as nodes, every arc whose
/// endpoints map to different supernodes kept **in original order** with its
/// original probability and coin id, intra-supernode arcs dropped. The coin
/// table is carried over verbatim (coin ids must stay stable), with coin
/// endpoints remapped to supernodes.
///
/// When nothing merges and no self-loop would be dropped, that graph is
/// `csr` itself, so it is cloned instead: for a mapped snapshot a clone
/// shares the mapping rather than copying every column.
fn build_condensed(csr: &CsrGraph, super_of: &[u32], num_super: usize) -> CsrGraph {
    let loop_free = |off: &[u32], dst: &[u32]| {
        (1..off.len()).all(|v| !dst[off[v - 1] as usize..off[v] as usize].contains(&(v as u32 - 1)))
    };
    if num_super == csr.num_nodes
        && loop_free(&csr.out_off, &csr.out_dst)
        && loop_free(&csr.in_off, &csr.in_dst)
    {
        return csr.clone();
    }
    // Members of each supernode in ascending node order.
    let members = Lists::group(
        num_super,
        super_of.iter().enumerate().map(|(v, &s)| (s, v as u32)),
    );

    let build_side = |off: &[u32], dst: &[u32], prob: &[f64], coin: &[u32]| {
        let mut n_off = Vec::with_capacity(num_super + 1);
        let mut n_dst = Vec::new();
        let mut n_prob = Vec::new();
        let mut n_coin = Vec::new();
        n_off.push(0u32);
        for su in 0..num_super as u32 {
            for &v in members.row(su) {
                let vi = v as usize;
                for a in off[vi] as usize..off[vi + 1] as usize {
                    let d = super_of[dst[a] as usize];
                    if d != su {
                        n_dst.push(d);
                        n_prob.push(prob[a]);
                        n_coin.push(coin[a]);
                    }
                }
            }
            n_off.push(n_dst.len() as u32);
        }
        (n_off, n_dst, n_prob, n_coin)
    };
    let out = build_side(&csr.out_off, &csr.out_dst, &csr.out_prob, &csr.out_coin);
    let inn = if csr.directed {
        build_side(&csr.in_off, &csr.in_dst, &csr.in_prob, &csr.in_coin)
    } else {
        Side::default()
    };
    let remap = |ends: &[u32]| {
        ends.iter()
            .map(|&s| super_of[s as usize])
            .collect::<Vec<u32>>()
    };
    let coins = (
        csr.coin_prob.clone(),
        remap(&csr.coin_src).into(),
        remap(&csr.coin_dst).into(),
    );
    CsrGraph::from_sides(csr.directed, num_super, out, inn, coins)
}

/// Connected components of the possible graph (`p > 0` arcs, both
/// directions for directed graphs), labeled canonically.
fn possible_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes;
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    for v in 0..n {
        if label[v] != u32::MAX {
            continue;
        }
        label[v] = next;
        stack.push(v as u32);
        while let Some(x) = stack.pop() {
            let xi = x as usize;
            let mut visit = |off: &[u32], dst: &[u32], prob: &[f64]| {
                for a in off[xi] as usize..off[xi + 1] as usize {
                    let u = dst[a];
                    if prob[a] > 0.0 && label[u as usize] == u32::MAX {
                        label[u as usize] = next;
                        stack.push(u);
                    }
                }
            };
            visit(&g.out_off, &g.out_dst, &g.out_prob);
            if g.directed {
                visit(&g.in_off, &g.in_dst, &g.in_prob);
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Biconnected blocks and block-cut tree of an undirected possible graph
/// (iterative Hopcroft–Tarjan; parallel edges are distinguished by coin id,
/// so a doubled edge correctly forms a biconnected pair, not a bridge).
fn build_blocks(g: &CsrGraph) -> Blocks {
    let n = g.num_nodes;
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut parent_coin = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut estack: Vec<(u32, u32)> = Vec::new();
    let mut block_edges: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut call: Vec<(u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if disc[root as usize] != 0 {
            continue;
        }
        timer += 1;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        call.push((root, g.out_off[root as usize]));
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let vi = v as usize;
            let end = g.out_off[vi + 1];
            let mut descended = false;
            while *cursor < end {
                let a = *cursor as usize;
                *cursor += 1;
                if g.out_prob[a] == 0.0 {
                    continue;
                }
                let c = g.out_coin[a];
                if c == parent_coin[vi] {
                    // The reverse arc of the tree edge into v: skip exactly
                    // one occurrence, so parallel edges still count.
                    parent_coin[vi] = u32::MAX;
                    continue;
                }
                let u = g.out_dst[a];
                let ui = u as usize;
                if disc[ui] == 0 {
                    timer += 1;
                    disc[ui] = timer;
                    low[ui] = timer;
                    parent_coin[ui] = c;
                    estack.push((v, u));
                    call.push((u, g.out_off[ui]));
                    descended = true;
                    break;
                } else if disc[ui] < disc[vi] {
                    estack.push((v, u));
                    low[vi] = low[vi].min(disc[ui]);
                }
            }
            if descended {
                continue;
            }
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
                if low[vi] >= disc[pi] {
                    // (p, v) closes a block: pop through the tree edge.
                    let mut edges = Vec::new();
                    loop {
                        let e = estack.pop().expect("edge stack holds the block");
                        edges.push(e);
                        if e == (p, v) {
                            break;
                        }
                    }
                    block_edges.push(edges);
                }
            }
        }
    }

    // Edge lists -> member sets (deduped with an epoch mark).
    let mut mark = vec![u32::MAX; n];
    let mut members: Vec<Vec<u32>> = Vec::with_capacity(block_edges.len());
    for (b, edges) in block_edges.iter().enumerate() {
        let mut mem = Vec::new();
        for &(x, y) in edges {
            for v in [x, y] {
                if mark[v as usize] != b as u32 {
                    mark[v as usize] = b as u32;
                    mem.push(v);
                }
            }
        }
        mem.sort_unstable();
        members.push(mem);
    }

    let num_blocks = members.len();
    let mut block_count = vec![0u32; n];
    let mut first_block = vec![u32::MAX; n];
    for (b, mem) in members.iter().enumerate() {
        for &v in mem {
            block_count[v as usize] += 1;
            if first_block[v as usize] == u32::MAX {
                first_block[v as usize] = b as u32;
            }
        }
    }
    let mut cut_idx = vec![u32::MAX; n];
    let mut cuts = 0u32;
    for v in 0..n {
        if block_count[v] >= 2 {
            cut_idx[v] = cuts;
            cuts += 1;
        }
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_blocks + cuts as usize];
    for (b, mem) in members.iter().enumerate() {
        for &v in mem {
            if cut_idx[v as usize] != u32::MAX {
                let c = num_blocks as u32 + cut_idx[v as usize];
                adj[b].push(c);
                adj[c as usize].push(b as u32);
            }
        }
    }
    let attach: Vec<u32> = (0..n)
        .map(|v| {
            if cut_idx[v] != u32::MAX {
                num_blocks as u32 + cut_idx[v]
            } else {
                first_block[v]
            }
        })
        .collect();
    // Root each component's tree at its lowest-numbered tree node.
    let mut parent = vec![u32::MAX; adj.len()];
    let mut depth = vec![0u32; adj.len()];
    let mut stack = Vec::new();
    for root in 0..adj.len() as u32 {
        if parent[root as usize] != u32::MAX {
            continue;
        }
        parent[root as usize] = root;
        stack.push(root);
        while let Some(x) = stack.pop() {
            for &y in &adj[x as usize] {
                if parent[y as usize] == u32::MAX {
                    parent[y as usize] = x;
                    depth[y as usize] = depth[x as usize] + 1;
                    stack.push(y);
                }
            }
        }
    }
    Blocks {
        num_blocks,
        members,
        attach,
        parent,
        depth,
    }
}

/// A [`ProbGraph`] view that hides every arc whose head is outside an
/// allowed-node bitset.
///
/// Used by index-routed s-t estimation: the mask holds the nodes that can
/// lie on an s-t path, so hiding the rest never changes whether a sampled
/// world connects `s` to `t` — while the kernels' coin flips stay keyed to
/// the same `(seed, sample, coin)` triples (coins are stateless, so
/// *skipping* flips cannot perturb the ones still made). Node ids, coin
/// ids, and `num_nodes` are those of the base graph.
#[derive(Debug, Clone, Copy)]
pub struct PrunedGraph<'a, G: ProbGraph> {
    base: &'a G,
    allowed: &'a [u64],
}

impl<'a, G: ProbGraph> PrunedGraph<'a, G> {
    /// Wrap `base`, admitting only arcs whose target bit is set in
    /// `allowed` (a bitset over node ids, at least `ceil(n / 64)` words).
    pub fn new(base: &'a G, allowed: &'a [u64]) -> Self {
        debug_assert!(allowed.len() >= base.num_nodes().div_ceil(64));
        PrunedGraph { base, allowed }
    }
}

/// Iterator adapter behind [`PrunedGraph`]: filters arcs by far end.
pub struct MaskedArcs<'a, I> {
    inner: I,
    allowed: &'a [u64],
}

impl<I: Iterator<Item = Arc>> Iterator for MaskedArcs<'_, I> {
    type Item = Arc;

    #[inline]
    fn next(&mut self) -> Option<Arc> {
        let allowed = self.allowed;
        self.inner
            .find(|a| allowed[a.node.index() >> 6] >> (a.node.index() & 63) & 1 == 1)
    }
}

impl<G: ProbGraph> ProbGraph for PrunedGraph<'_, G> {
    type Arcs<'b>
        = MaskedArcs<'b, G::Arcs<'b>>
    where
        Self: 'b;

    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    fn num_coins(&self) -> usize {
        self.base.num_coins()
    }

    fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    fn out_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        MaskedArcs {
            inner: self.base.out_arcs(v),
            allowed: self.allowed,
        }
    }

    fn in_arcs(&self, v: NodeId) -> Self::Arcs<'_> {
        MaskedArcs {
            inner: self.base.in_arcs(v),
            allowed: self.allowed,
        }
    }

    fn coin_prob(&self, c: CoinId) -> f64 {
        self.base.coin_prob(c)
    }

    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        self.base.coin_endpoints(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;

    fn freeze(g: &UncertainGraph) -> CsrGraph {
        g.freeze()
    }

    fn bit(words: &[u64], i: u32) -> bool {
        words[i as usize >> 6] >> (i & 63) & 1 == 1
    }

    #[test]
    fn directed_certain_cycle_condenses_but_chain_does_not() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap(); // one-way certain
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 3);
        assert_eq!(idx.supernode(NodeId(0)), idx.supernode(NodeId(1)));
        assert_ne!(idx.supernode(NodeId(2)), idx.supernode(NodeId(3)));
        // Canonical numbering: first appearance in node order.
        assert_eq!(idx.supernode(NodeId(0)).0, 0);
        assert_eq!(idx.supernode(NodeId(2)).0, 1);
        assert_eq!(idx.supernode(NodeId(3)).0, 2);
        // One-way certain arc still short-circuits the plan via reachability
        // in the *value* sense: st(2, 3) samples (p==1 arc always present).
        assert!(matches!(
            idx.st_plan(NodeId(2), NodeId(3)),
            StPlan::Sample { .. }
        ));
    }

    #[test]
    fn undirected_certain_edges_merge_components_of_them() {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Certain);
        assert_eq!(idx.num_components(), 1);
        // Condensed graph keeps the uncertain edge with its original coin.
        let c = idx.condensed();
        assert_eq!(c.num_nodes(), 2);
        let arcs: Vec<_> = c.out_arcs(NodeId(0)).collect();
        assert_eq!(arcs, vec![Arc::new(NodeId(1), 0.5, 2)]);
    }

    #[test]
    fn cross_component_is_impossible_and_components_are_canonical() {
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 3); // {0,1} {2} {3,4}
        assert_eq!(idx.component(NodeId(0)), 0);
        assert_eq!(idx.component(NodeId(2)), 1);
        assert_eq!(idx.component(NodeId(3)), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(3)), StPlan::Impossible);
        assert_eq!(idx.st_plan(NodeId(1), NodeId(2)), StPlan::Impossible);
        assert!(!idx.same_component(NodeId(0), NodeId(2)));
    }

    #[test]
    fn directed_unreachable_within_component_is_impossible() {
        // 0 -> 1 <- 2: same weak component, but 1 cannot reach 2.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(1), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 1);
        assert_eq!(idx.st_plan(NodeId(1), NodeId(2)), StPlan::Impossible);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Impossible);
        assert!(matches!(
            idx.st_plan(NodeId(0), NodeId(1)),
            StPlan::Sample { .. }
        ));
    }

    #[test]
    fn zero_probability_edges_do_not_connect() {
        let mut g = UncertainGraph::new(2, false);
        g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(1)), StPlan::Impossible);
    }

    #[test]
    fn undirected_block_path_prunes_side_branches() {
        // Path 0-1-2-3 with a pendant 4 off node 1 and a pendant 5 off 3.
        let mut g = UncertainGraph::new(6, false);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4), (3, 5)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        let StPlan::Sample { s, t, mask } = idx.st_plan(NodeId(0), NodeId(2)) else {
            panic!("expected a sampling plan");
        };
        assert_eq!((s, t), (NodeId(0), NodeId(2)));
        let mask = mask.expect("side branches should be pruned");
        let allowed: Vec<u32> = (0..6).filter(|&v| bit(&mask, v)).collect();
        // Only the nodes on the 0..2 path survive; 3, 4, 5 are pruned.
        assert_eq!(allowed, vec![0, 1, 2]);
    }

    #[test]
    fn directed_mask_intersects_forward_and_reverse_reach() {
        // Diamond 0 -> {1, 2} -> 3 plus a sink 0 -> 4.
        let mut g = UncertainGraph::new(5, true);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        let StPlan::Sample { mask, .. } = idx.st_plan(NodeId(0), NodeId(3)) else {
            panic!("expected a sampling plan");
        };
        let mask = mask.expect("node 4 cannot lie on a 0-3 path");
        let allowed: Vec<u32> = (0..5).filter(|&v| bit(&mask, v)).collect();
        assert_eq!(allowed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pruned_graph_hides_arcs_into_masked_nodes() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        let csr = freeze(&g);
        let allowed = vec![0b011u64]; // nodes 0, 1
        let pg = PrunedGraph::new(&csr, &allowed);
        assert_eq!(pg.num_nodes(), 3);
        let arcs: Vec<_> = pg.out_arcs(NodeId(0)).collect();
        assert_eq!(arcs, vec![Arc::new(NodeId(1), 0.5, 0)]);
    }

    #[test]
    fn section_round_trips_and_detects_tampering() {
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.25).unwrap();
        let csr = freeze(&g);
        let idx = RelIndex::build(&csr);
        let section = idx.section();
        let back = RelIndex::from_section(&csr, &section).unwrap();
        assert_eq!(back, idx);

        let mut bad = section.clone();
        bad.comp_of[5] = 0; // lie about the component structure
        assert!(RelIndex::from_section(&csr, &bad).is_err());
        let mut bad = section.clone();
        bad.super_of[0] = 1; // non-canonical numbering
        assert!(RelIndex::from_section(&csr, &bad).is_err());
        let mut bad = section;
        bad.super_of.pop();
        assert!(RelIndex::from_section(&csr, &bad).is_err());

        // Canonical, well-sized labels that merge nodes no certain edge
        // joins: they would plan `st 0 1` as `Certain` (R = 1) although
        // the graph gives it p = 0.5.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let lying = IndexSection {
            super_of: vec![0, 0, 1],
            comp_of: vec![0, 0, 0],
        };
        assert!(RelIndex::from_section(&freeze(&g), &lying).is_err());
        let mut g = UncertainGraph::new(2, false);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let lying = IndexSection {
            super_of: vec![0, 0],
            comp_of: vec![0, 0],
        };
        assert!(RelIndex::from_section(&freeze(&g), &lying).is_err());
    }

    #[test]
    fn expand_maps_supernode_values_back_to_nodes() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 2);
        // Nodes 0 and 1 share supernode 0; node 2 is supernode 1.
        assert_eq!(idx.expand(&[10u64, 20u64]), vec![10, 10, 20]);
    }

    #[test]
    fn stats_report_counts() {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let s = RelIndex::build(&freeze(&g)).stats();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.supernodes, 3);
        assert_eq!(s.components, 2);
        assert_eq!(s.certain_arcs, 2); // undirected edge counted on both sides
        assert!(s.blocks >= 1);
        assert_eq!(s.possible_sccs, 0); // undirected
    }

    #[test]
    fn matches_guards_dimensions() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert!(idx.matches(2, 1, true));
        assert!(!idx.matches(2, 2, true)); // overlay view: one extra coin
        assert!(!idx.matches(3, 1, true));
        assert!(!idx.matches(2, 1, false));
    }
    #[test]
    fn directed_shared_scc_plans_without_a_walk() {
        // Ring 0 -> 1 -> 2 -> 0 feeding a sink ring 3 -> 4 -> 3.
        let mut g = UncertainGraph::new(5, true);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.stats().possible_sccs, 2);
        // A sink SCC holds everything its members reach: no mask.
        assert!(matches!(
            idx.st_plan(NodeId(3), NodeId(4)),
            StPlan::Sample { mask: None, .. }
        ));
        // A non-sink SCC prunes to its own members.
        let StPlan::Sample {
            mask: Some(mask), ..
        } = idx.st_plan(NodeId(0), NodeId(2))
        else {
            panic!("expected a masked plan");
        };
        assert_eq!(
            (0..5).filter(|&v| bit(&mask, v)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(idx.st_verdict(NodeId(4), NodeId(0)), StVerdict::Impossible);
        assert_eq!(idx.st_verdict(NodeId(0), NodeId(4)), StVerdict::Sample);
    }

    /// Possible-reachability bitset from `start` (forward, or reverse over
    /// the in-side), start included.
    fn reach_bits(g: &CsrGraph, start: u32, reverse: bool) -> Vec<u64> {
        let mut seen = vec![0u64; g.num_nodes.div_ceil(64)];
        seen[start as usize >> 6] |= 1u64 << (start & 63);
        let mut stack = vec![start];
        let (off, dst, prob) = if reverse {
            (&g.in_off, &g.in_dst, &g.in_prob)
        } else {
            (&g.out_off, &g.out_dst, &g.out_prob)
        };
        while let Some(x) = stack.pop() {
            for a in off[x as usize] as usize..off[x as usize + 1] as usize {
                let u = dst[a];
                if prob[a] > 0.0 && !bit(&seen, u) {
                    seen[u as usize >> 6] |= 1u64 << (u & 63);
                    stack.push(u);
                }
            }
        }
        seen
    }

    /// The per-query planner the SCC DAG and the rooted block-cut tree
    /// replaced: a forward and a reverse BFS over the whole condensed graph
    /// (directed), or a BFS from `s` to `t` through the block–node
    /// incidence (undirected), whose unique path crosses exactly the
    /// block-cut tree path.
    fn oracle_plan(idx: &RelIndex, s: NodeId, t: NodeId) -> StPlan {
        let (ss, tt) = (idx.super_of[s.index()], idx.super_of[t.index()]);
        if ss == tt {
            return StPlan::Certain;
        }
        if idx.comp_of_super[ss as usize] != idx.comp_of_super[tt as usize] {
            return StPlan::Impossible;
        }
        let ones = |w: &[u64]| w.iter().map(|x| x.count_ones()).sum::<u32>();
        let mask = if idx.directed {
            let fwd = reach_bits(&idx.condensed, ss, false);
            if !bit(&fwd, tt) {
                return StPlan::Impossible;
            }
            let rev = reach_bits(&idx.condensed, tt, true);
            let mask: Vec<u64> = fwd.iter().zip(&rev).map(|(f, r)| f & r).collect();
            (ones(&mask) != ones(&fwd)).then_some(mask)
        } else {
            let Paths::Undirected(bl) = &idx.paths else {
                unreachable!("undirected index");
            };
            let members = &bl.members;
            let mut blocks_of = vec![Vec::new(); idx.num_super];
            for (b, mem) in members.iter().enumerate() {
                for &v in mem {
                    blocks_of[v as usize].push(b);
                }
            }
            let mut via = vec![usize::MAX; idx.num_super];
            let mut entered_from = vec![u32::MAX; members.len()];
            let mut queue = std::collections::VecDeque::from([ss]);
            via[ss as usize] = 0;
            while let Some(v) = queue.pop_front() {
                for &b in &blocks_of[v as usize] {
                    if entered_from[b] == u32::MAX {
                        entered_from[b] = v;
                        for &u in &members[b] {
                            if via[u as usize] == usize::MAX {
                                via[u as usize] = b;
                                queue.push_back(u);
                            }
                        }
                    }
                }
            }
            let mut mask = vec![0u64; idx.num_super.div_ceil(64)];
            let mut v = tt;
            while v != ss {
                let b = via[v as usize];
                for &u in &members[b] {
                    mask[u as usize >> 6] |= 1u64 << (u & 63);
                }
                v = entered_from[b];
            }
            let comp = idx.comp_of_super[ss as usize] as usize;
            (ones(&mask) < idx.comp_size[comp]).then_some(mask)
        };
        StPlan::Sample {
            s: NodeId(ss),
            t: NodeId(tt),
            mask,
        }
    }

    /// A probability that is certain one time in five and impossible one
    /// time in ten.
    fn prob(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        match rng.gen_range(0..10) {
            0 | 1 => 1.0,
            2 => 0.0,
            _ => rng.gen_range(0.05..0.95),
        }
    }

    /// Directed: layered clusters with arcs mostly pointing to later
    /// layers, so the possible graph has many SCCs and a deep DAG.
    fn layered_directed(seed: u64, n: u32, arcs: usize) -> UncertainGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layers = rng.gen_range(1..=6);
        let mut g = UncertainGraph::new(n as usize, true);
        for _ in 0..arcs {
            let (mut a, mut b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a * layers / n > b * layers / n && rng.gen_bool(0.9) {
                std::mem::swap(&mut a, &mut b);
            }
            let p = prob(&mut rng);
            let _ = g.add_edge(NodeId(a), NodeId(b), p); // self-loops, dups skipped
        }
        g
    }

    /// Undirected: cycles with chords ("blobs") joined in a random tree by
    /// bridges, with pendant paths hung off random nodes and a few isolated
    /// nodes left over.
    fn blobs_undirected(seed: u64) -> UncertainGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8u32..60);
        let mut g = UncertainGraph::new(n as usize, false);
        let mut v = 0u32;
        let mut placed = Vec::new();
        while v + 3 < n * 3 / 4 {
            let size = rng.gen_range(1..=6).min(n - v);
            for i in 1..size {
                let p = prob(&mut rng);
                let _ = g.add_edge(NodeId(v + i - 1), NodeId(v + i), p);
            }
            if size > 2 {
                let p = prob(&mut rng);
                let _ = g.add_edge(NodeId(v), NodeId(v + size - 1), p);
                if rng.gen_bool(0.5) {
                    let (a, b) = (rng.gen_range(v..v + size), rng.gen_range(v..v + size));
                    let _ = g.add_edge(NodeId(a), NodeId(b), p);
                }
            }
            if !placed.is_empty() && rng.gen_bool(0.85) {
                let old: u32 = placed[rng.gen_range(0..placed.len())];
                let p = prob(&mut rng);
                let _ = g.add_edge(NodeId(old), NodeId(rng.gen_range(v..v + size)), p);
            }
            placed.extend(v..v + size);
            v += size;
        }
        while v < n && rng.gen_bool(0.8) {
            let p = prob(&mut rng);
            let _ = g.add_edge(NodeId(rng.gen_range(0..v)), NodeId(v), p);
            v += 1;
        }
        g
    }

    /// Ring-chords: `v -> v + 1` and `v -> v + 3` around a ring.
    fn ring_chords(n: u32, directed: bool) -> UncertainGraph {
        let mut g = UncertainGraph::new(n as usize, directed);
        for v in 0..n {
            for step in [1, 3] {
                let p = 0.3 + 0.6 * f64::from((v * 7 + step) % 10) / 10.0;
                let _ = g.add_edge(NodeId(v), NodeId((v + step) % n), p);
            }
        }
        g
    }

    #[test]
    fn plans_match_the_bfs_planner_on_every_pair() {
        use rand::{Rng, SeedableRng};
        let mut graphs = Vec::new();
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20u32..70);
            let arcs = rng.gen_range(n as usize..n as usize * 3);
            graphs.push(layered_directed(seed, n, arcs));
            // The former reachability-closure range: tiny and dense.
            let n = rng.gen_range(2u32..12);
            graphs.push(layered_directed(seed + 1000, n, n as usize * 2));
            graphs.push(blobs_undirected(seed));
        }
        graphs.push(ring_chords(50, true));
        graphs.push(ring_chords(50, false));
        // [certain, impossible, unmasked sample, masked sample]
        let (mut seen_dir, mut seen_und) = ([0usize; 4], [0usize; 4]);
        for g in &graphs {
            let idx = RelIndex::build(&freeze(g));
            let n = g.num_nodes() as u32;
            for s in 0..n {
                for t in 0..n {
                    let (s, t) = (NodeId(s), NodeId(t));
                    let plan = idx.st_plan(s, t);
                    assert_eq!(plan, oracle_plan(&idx, s, t), "plan({s:?}, {t:?}) on {g:?}");
                    let (verdict, case) = match plan {
                        StPlan::Certain => (StVerdict::Certain, 0),
                        StPlan::Impossible => (StVerdict::Impossible, 1),
                        StPlan::Sample { mask: None, .. } => (StVerdict::Sample, 2),
                        StPlan::Sample { .. } => (StVerdict::Sample, 3),
                    };
                    assert_eq!(idx.st_verdict(s, t), verdict);
                    let seen = if g.is_directed() {
                        &mut seen_dir
                    } else {
                        &mut seen_und
                    };
                    seen[case] += 1;
                }
            }
        }
        // Every outcome occurs often, so no branch is checked vacuously.
        assert!(
            seen_dir.iter().chain(&seen_und).all(|&c| c > 100),
            "{seen_dir:?} {seen_und:?}"
        );
    }

    #[test]
    fn identity_condensation_is_the_graph_itself() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap(); // one-way certain
        g.add_edge(NodeId(2), NodeId(0), 0.0).unwrap();
        for csr in [
            freeze(&g),
            freeze(&ring_chords(30, false)),
            freeze(&ring_chords(30, true)),
        ] {
            let idx = RelIndex::build(&csr);
            assert!(idx.is_identity());
            assert!(idx.condensed() == &csr);
        }

        // A self-loop is the one arc an identity condensation still drops.
        let mut looped = freeze(&g);
        looped.out_dst = vec![0u32, 2, 0].into(); // 0 -> 0 replaces 0 -> 1
        looped.in_off = vec![0u32, 2, 2, 3, 3].into();
        looped.in_dst = vec![2u32, 0, 1].into();
        looped.in_prob = vec![0.0, 0.5, 1.0].into();
        looped.in_coin = vec![2u32, 0, 1].into();
        looped.in_thresh = looped
            .in_prob
            .iter()
            .map(|&p| crate::flip_threshold(p))
            .collect::<Vec<_>>()
            .into();
        let idx = RelIndex::build(&looped);
        assert!(idx.is_identity());
        assert_eq!(&idx.condensed().out_dst[..], &[2, 0]);
        assert_eq!(&idx.condensed().in_dst[..], &[2, 1]);
    }

    #[test]
    fn mapped_identity_condensation_shares_the_mapping_and_round_trips() {
        let csr = freeze(&ring_chords(40, true));
        let built = RelIndex::build(&csr);
        assert!(built.is_identity(), "no certain edges: nothing condenses");
        let path =
            std::env::temp_dir().join(format!("relmax-index-ident-{}.rgs", std::process::id()));
        crate::snapshot::save_full(&csr, Some(&built.section()), &path).unwrap();
        let (mapped, section) = crate::snapshot::map_full(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let back = RelIndex::from_section(&mapped, &section.unwrap()).unwrap();
        assert!(back == built);
        assert!(back.condensed() == &mapped);
        if mapped.out_dst.is_mapped() {
            // Shared, not copied: the same bytes of the same mapping.
            assert_eq!(back.condensed().out_dst.as_ptr(), mapped.out_dst.as_ptr());
            assert_eq!(back.condensed().in_prob.as_ptr(), mapped.in_prob.as_ptr());
        }
    }
}
