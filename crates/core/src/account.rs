//! Protected-account generation (paper §3, §5, Appendix B).
//!
//! A protected account `G'` of `G` (Def. 5) contains, per original node, at
//! most one corresponding node — the original itself when the consumer's
//! predicate dominates its `lowest`, otherwise the most dominant visible
//! surrogate (Def. 9.1–9.2) — and edges such that every path of `G'` maps
//! to a path of `G`, with as many HW-permitted paths of `G` reflected as
//! possible (Def. 9.3).
//!
//! Three built-in strategies are provided, selected by [`Strategy`] via
//! [`ProtectionContext::protect`]:
//!
//! * [`Strategy::Surrogate`] / [`generate_for_set`] — the paper's
//!   Surrogate Generation Algorithm (Algorithms 1–3), with the pseudocode
//!   repairs described in DESIGN.md §3.1 item 3 (iterative cycle-safe
//!   walks; absent nodes pass through).
//! * [`Strategy::HideEdges`] / [`generate_hide_for_set`] — the "binary
//!   show/hide" edge baseline of §6: identical node layer, but `Surrogate`
//!   incidences are treated as unusable, so no surrogate edges are
//!   synthesized.
//! * [`Strategy::HideNodes`] / [`generate_naive_node_hide_for_set`] — the
//!   all-or-nothing baseline of Fig. 1(c): sensitive nodes and their
//!   incident edges simply vanish.
//!
//! # HW-permitted paths (Def. 8)
//!
//! For account predicate `p`, a path `n1 → … → n2` of `G` is permitted iff
//! (1) no incidence on it is marked `Hide`, with `n1`'s incidence on the
//! first edge and `n2`'s on the last edge marked `Visible`, and (2) if the
//! direct edge `(n1, n2)` exists in `G`, both of its incidences are
//! `Visible`. [`permitted_pairs`] computes the induced pair relation and is
//! the oracle used by `validate` and the property tests.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::Result;
use crate::graph::{Csr, Edge, Graph, Node, NodeId};
use crate::marking::{Marking, MarkingStore};
use crate::privilege::{PrivilegeId, PrivilegeLattice};
use crate::surrogate::{SurrogateCatalog, SurrogateDef};
use crate::util::{BitSet, FxHashMap, FxHashSet};

/// How an account node corresponds to its original (Def. 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Correspondence {
    /// `n' = n`: all features identical; `infoScore = 1`.
    Original,
    /// `n'` is a registered surrogate of `n` with the given `infoScore`.
    Surrogate {
        /// `infoScore(n')` of the chosen surrogate (§4.1).
        info_score: f64,
    },
}

impl Correspondence {
    /// `infoScore(n')` (§4.1): 1 for originals, the catalog score for
    /// surrogates.
    pub fn info_score(&self) -> f64 {
        match self {
            Correspondence::Original => 1.0,
            Correspondence::Surrogate { info_score } => *info_score,
        }
    }
}

/// The protection strategy used to produce an account.
///
/// The set is closed: the paper defines exactly these three (§5–§6),
/// and [`ProtectionContext::protect_set`] is the one place that
/// dispatches on them. The enum is also the CLI flag, the wire tag and
/// the cache-key component, so adding a strategy means an enum arm
/// here, a tag in the wire codec, and a protocol-version bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Surrogate nodes + surrogate edges (the paper's contribution).
    Surrogate,
    /// Surrogate nodes, but protected incidences drop their edges.
    HideEdges,
    /// No surrogates at all: sensitive nodes and incident edges vanish.
    HideNodes,
}

impl Strategy {
    /// All built-in strategies, in paper order. A slice, not an array, so
    /// growing the `#[non_exhaustive]` enum does not change a public type.
    pub const ALL: &'static [Strategy] = &[
        Strategy::Surrogate,
        Strategy::HideEdges,
        Strategy::HideNodes,
    ];

    /// The stable name used for CLI flags and display.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Surrogate => "surrogate",
            Strategy::HideEdges => "hide",
            Strategy::HideNodes => "naive",
        }
    }

    /// Parses a [`name`](Self::name) back into a selector.
    pub fn parse(name: &str) -> Option<Strategy> {
        Strategy::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to protect one graph: the graph, its privilege
/// lattice, the providers' incidence markings, and the surrogate catalog.
#[derive(Debug, Clone, Copy)]
pub struct ProtectionContext<'a> {
    /// The original graph `G`.
    pub graph: &'a Graph,
    /// Partial order of privilege-predicates.
    pub lattice: &'a PrivilegeLattice,
    /// Node–edge incidence markings (Def. 7).
    pub markings: &'a MarkingStore,
    /// Registered surrogate versions of nodes (§3.1).
    pub catalog: &'a SurrogateCatalog,
    /// Optional prebuilt CSR index of `graph` (see [`with_csr`](Self::with_csr)).
    csr: Option<&'a Csr>,
}

impl<'a> ProtectionContext<'a> {
    /// Bundles the four inputs of the generation algorithm.
    pub fn new(
        graph: &'a Graph,
        lattice: &'a PrivilegeLattice,
        markings: &'a MarkingStore,
        catalog: &'a SurrogateCatalog,
    ) -> Self {
        Self {
            graph,
            lattice,
            markings,
            catalog,
            csr: None,
        }
    }

    /// Attaches a prebuilt [`Csr`] index of [`graph`](Self::graph), so
    /// repeated protections against one materialized snapshot skip the
    /// `O(V + E)` rebuild. The index **must** describe the same graph.
    ///
    /// # Panics
    /// Panics if the index's node or edge count differs from the graph's:
    /// an index of another epoch would silently read the wrong markings.
    pub fn with_csr(mut self, csr: &'a Csr) -> Self {
        assert_eq!(csr.node_count(), self.graph.node_count());
        assert_eq!(csr.edge_count(), self.graph.edge_count());
        self.csr = Some(csr);
        self
    }

    /// The attached CSR index, if any.
    pub fn csr(&self) -> Option<&'a Csr> {
        self.csr
    }

    /// The attached CSR index, or one built now.
    fn index(&self) -> Cow<'a, Csr> {
        self.csr
            .map_or_else(|| Cow::Owned(Csr::build(self.graph)), Cow::Borrowed)
    }

    /// Generates an account with the given strategy.
    pub fn protect(&self, p: PrivilegeId, strategy: Strategy) -> Result<ProtectedAccount> {
        self.protect_set(&[p], strategy)
    }

    /// Generates an account for a multi-predicate high-water set with the
    /// given strategy.
    pub fn protect_set(
        &self,
        preds: &[PrivilegeId],
        strategy: Strategy,
    ) -> Result<ProtectedAccount> {
        match strategy {
            Strategy::Surrogate => generate_for_set(self, preds),
            Strategy::HideEdges => generate_hide_for_set(self, preds),
            Strategy::HideNodes => generate_naive_node_hide_for_set(self, preds),
        }
    }

    /// Brings `prev`, an account of an earlier state of this context's
    /// graph, up to the graph: the account
    /// [`protect_set`](Self::protect_set) would generate now, equal to it
    /// field for field, at the cost of what was appended and the
    /// ancestors of the appended nodes instead of the whole graph.
    ///
    /// `None`, and the caller generates, unless every edge appended since
    /// `prev` leads into a node appended since, and every marking or
    /// surrogate registered since names such a node (docs/DESIGN.md §3.1
    /// item 8), and few enough nodes were appended that extending is the
    /// cheaper of the two. The check costs what was appended. Like
    /// `Store::delta_since` it also refuses another graph: `prev`'s last
    /// node must share this graph's payload at that position. The
    /// lattice must be the one `prev` was generated under. An account
    /// generated without the redundancy filter, or by
    /// [`reference`](mod@reference), is never extended.
    pub fn extend_account(&self, prev: ProtectedAccount) -> Option<ProtectedAccount> {
        extend_counted(self, prev).map(|(account, _)| account)
    }
}

/// A protected account `G' = (N', E')` with its correspondence back to `G`.
#[derive(Debug, Clone)]
pub struct ProtectedAccount {
    graph: Graph,
    hw: Vec<PrivilegeId>,
    strategy: Strategy,
    /// Original node → account node.
    to_account: Vec<Option<NodeId>>,
    /// Account node → original node.
    to_original: Vec<NodeId>,
    /// Account node → how it corresponds.
    correspondence: Vec<Correspondence>,
    /// Account edges that summarize multi-edge paths of `G` rather than
    /// corresponding to a single original edge.
    surrogate_edges: FxHashSet<Edge>,
    /// What an extension needs of the `G` this reflects; `None` when the
    /// account cannot be extended.
    reflects: Option<Reflects>,
}

/// The state of `G` an account reflects, as
/// [`ProtectionContext::extend_account`] needs it. `G`'s node count is
/// the account's `to_account.len()`.
#[derive(Debug, Clone)]
struct Reflects {
    /// `G`'s edge count.
    edges: usize,
    /// `G`'s last node payload: the prefix guard.
    last: Arc<Node>,
    /// Writes the markings and the catalog had taken.
    markings: usize,
    catalog: usize,
    /// Account edges `..shown` are shown originals; the surrogate edges
    /// follow in `(source, target)` order.
    shown: usize,
    /// Each edge's [`EdgeTables`] flag byte for `Strategy::Surrogate`;
    /// empty for the other strategies.
    flags: Vec<u8>,
}

impl Reflects {
    /// What `ctx` is now; `None` for an empty graph.
    fn of(ctx: &ProtectionContext<'_>, shown: usize, flags: Vec<u8>) -> Option<Reflects> {
        let last = ctx.graph.node_count().checked_sub(1)?;
        Some(Reflects {
            edges: ctx.graph.edge_count(),
            last: ctx.graph.shared_node(NodeId(last as u32)).clone(),
            markings: ctx.markings.writes(),
            catalog: ctx.catalog.writes(),
            shown,
            flags,
        })
    }
}

impl ProtectedAccount {
    /// The account graph `G'`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The primary predicate this account was generated for. For the
    /// common singleton case this is *the* predicate; for multi-predicate
    /// accounts prefer [`high_water`](Self::high_water).
    pub fn predicate(&self) -> PrivilegeId {
        self.hw[0]
    }

    /// The high-water set the account was generated for (`HW(G')`, Def. 6).
    pub fn high_water(&self) -> &[PrivilegeId] {
        &self.hw
    }

    /// Strategy that produced the account.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Account node corresponding to original `n`, if any.
    pub fn account_node(&self, original: NodeId) -> Option<NodeId> {
        self.to_account.get(original.index()).copied().flatten()
    }

    /// Original node behind account node `n'`.
    pub fn original_node(&self, account: NodeId) -> NodeId {
        self.to_original[account.index()]
    }

    /// Correspondence of account node `n'`.
    pub fn correspondence(&self, account: NodeId) -> &Correspondence {
        &self.correspondence[account.index()]
    }

    /// `true` if the given account edge is a surrogate edge.
    pub fn is_surrogate_edge(&self, edge: Edge) -> bool {
        self.surrogate_edges.contains(&edge)
    }

    /// Number of surrogate edges.
    pub fn surrogate_edge_count(&self) -> usize {
        self.surrogate_edges.len()
    }

    /// Number of account nodes that are surrogates.
    pub fn surrogate_node_count(&self) -> usize {
        self.correspondence
            .iter()
            .filter(|c| matches!(c, Correspondence::Surrogate { .. }))
            .count()
    }

    /// Original nodes with no corresponding node in the account.
    pub fn hidden_nodes(&self) -> Vec<NodeId> {
        self.to_account
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// `true` if original edge `(u, v)` is represented by a corresponding
    /// direct edge of the account (opacity = 0 case, Fig. 4).
    pub fn original_edge_present(&self, edge: Edge) -> bool {
        match (self.account_node(edge.0), self.account_node(edge.1)) {
            (Some(u), Some(v)) => self.graph.has_edge(u, v),
            _ => false,
        }
    }

    /// Original edges with no corresponding account edge — the protected
    /// edges whose inference the opacity measure quantifies.
    pub fn protected_edges<'g>(&'g self, original: &'g Graph) -> impl Iterator<Item = Edge> + 'g {
        original.edges().filter(|&e| !self.original_edge_present(e))
    }
}

/// Per-node inclusion plan for the node layer of Algorithm 1.
enum NodePlan<'c> {
    Original,
    Surrogate(&'c SurrogateDef),
    Absent,
}

/// Node `n`'s plan: the original when dominated (Def. 9.1), otherwise,
/// with `use_catalog`, the most dominant visible surrogate (Def. 9.2),
/// otherwise absent.
fn node_plan<'c>(
    ctx: &ProtectionContext<'c>,
    preds: &[PrivilegeId],
    n: NodeId,
    use_catalog: bool,
) -> NodePlan<'c> {
    if ctx.lattice.set_dominates(preds, ctx.graph.node(n).lowest) {
        return NodePlan::Original;
    }
    let def = use_catalog
        .then(|| {
            ctx.catalog
                .most_dominant_visible_for_set(ctx.lattice, n, preds)
        })
        .flatten();
    def.map_or(NodePlan::Absent, NodePlan::Surrogate)
}

/// Every node's [`node_plan`], in id order.
fn plan_nodes<'c>(
    ctx: &ProtectionContext<'c>,
    preds: &[PrivilegeId],
    use_catalog: bool,
) -> Vec<NodePlan<'c>> {
    ctx.graph
        .node_ids()
        .map(|n| node_plan(ctx, preds, n, use_catalog))
        .collect()
}

/// Materializes the node layer into an account skeleton.
fn build_node_layer(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    strategy: Strategy,
    plans: Vec<NodePlan<'_>>,
) -> ProtectedAccount {
    let original = ctx.graph;
    let mut account = ProtectedAccount {
        graph: Graph::with_capacity(original.node_count(), original.edge_count()),
        hw: preds.to_vec(),
        strategy,
        to_account: Vec::with_capacity(original.node_count()),
        to_original: Vec::new(),
        correspondence: Vec::new(),
        surrogate_edges: FxHashSet::default(),
        reflects: None,
    };
    for (n, plan) in original.node_ids().zip(plans) {
        account.push_node(original, n, plan);
    }
    account
}

impl ProtectedAccount {
    /// Appends original `n`, the next node of `original`, under `plan`.
    fn push_node(&mut self, original: &Graph, n: NodeId, plan: NodePlan<'_>) {
        let (id, correspondence) = match plan {
            NodePlan::Original => (
                self.graph.add_shared_node(original.shared_node(n).clone()),
                Correspondence::Original,
            ),
            NodePlan::Surrogate(def) => (
                self.graph.add_node_with_features(
                    def.label.clone(),
                    def.features.clone(),
                    def.lowest,
                ),
                Correspondence::Surrogate {
                    info_score: def.info_score,
                },
            ),
            NodePlan::Absent => {
                self.to_account.push(None);
                return;
            }
        };
        self.to_account.push(Some(id));
        self.to_original.push(n);
        self.correspondence.push(correspondence);
    }
}

/// Adds every Visible–Visible original edge whose endpoints are present
/// (Algorithm 1 line 13–14).
fn add_shown_edges(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    account: &mut ProtectedAccount,
) {
    for edge in ctx.graph.edges() {
        if !ctx.markings.edge_visible_for_set(edge, preds) {
            continue;
        }
        if let (Some(u), Some(v)) = (
            account.to_account[edge.0.index()],
            account.to_account[edge.1.index()],
        ) {
            account
                .graph
                .add_edge(u, v)
                .expect("original edges are unique and loop-free");
        }
    }
}

/// Shortest HW-permitted reach from source `u` (the repaired Algorithm 2):
/// maps every present node `v` reachable by a Def. 8-permitted path from
/// `u` to the length of the shortest such path.
///
/// BFS whose state is the edge just traversed, so a node entered both via
/// `Visible` and via `Surrogate` incidences is handled correctly, and
/// cycles terminate (each edge enters the queue at most once). Intermediate
/// nodes may carry any non-`Hide` marking (Def. 8 cond. 1 constrains only
/// the endpoint incidences); absent nodes pass through (DESIGN.md §3.1
/// item 3).
fn permitted_reach(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    present: &[bool],
    u: NodeId,
    visited: &mut BitSet,
) -> FxHashMap<NodeId, u32> {
    let g = ctx.graph;
    let m = ctx.markings;
    visited.clear();
    let mut reach: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut queue: VecDeque<(Edge, u32)> = VecDeque::new();

    // Def. 8: the source's incidence on the first edge must be Visible.
    for &x in g.out_neighbors(u) {
        let e = (u, x);
        if !m.edge_hidden_for_set(e, preds) && m.mark_for_set(u, e, preds) == Marking::Visible {
            queue.push_back((e, 1));
        }
    }

    while let Some((e_in, depth)) = queue.pop_front() {
        let e_idx = g.edge_index(e_in).expect("edge from adjacency");
        if !visited.insert(e_idx) {
            continue;
        }
        let x = e_in.1;

        // Def. 8 cond. 1: the target's incidence on the last edge must be
        // Visible; cond. 2: a direct edge between the pair, if any, must be
        // Visible–Visible. Only present nodes can be endpoints.
        if x != u
            && present[x.index()]
            && m.mark_for_set(x, e_in, preds) == Marking::Visible
            && (!g.has_edge(u, x) || m.edge_visible_for_set((u, x), preds))
        {
            reach.entry(x).or_insert(depth); // BFS ⇒ first hit is shortest
        }

        for &y in g.out_neighbors(x) {
            let e_out = (x, y);
            if !m.edge_hidden_for_set(e_out, preds) {
                queue.push_back((e_out, depth + 1));
            }
        }
    }
    reach
}

/// Per-edge marking tables for one high-water set, resolved once per
/// protection call.
///
/// The generator consults exactly four per-edge facts — seed usability
/// (source incidence `Visible`), endpoint usability (destination
/// incidence `Visible`), unusability (either side `Hide`), and direct
/// showability (both sides `Visible`). Resolving them once into a dense
/// byte-per-edge flag array turns the former `O(E × sources)` hash-map
/// resolutions into one `O(E × |HW|)` pass, and the BFS afterwards reads
/// a single byte per edge instead of several spread-out bool arrays.
struct EdgeTables {
    /// Bitwise OR of the `SRC_VISIBLE` / `DST_VISIBLE` / `HIDDEN` /
    /// `VISIBLE` flags, indexed by edge id.
    flags: Vec<u8>,
}

impl EdgeTables {
    /// Source incidence resolves `Visible` (Def. 8 seed condition).
    const SRC_VISIBLE: u8 = 1;
    /// Destination incidence resolves `Visible` (Def. 8 cond. 1).
    const DST_VISIBLE: u8 = 1 << 1;
    /// Either incidence resolves `Hide` — may not be shown nor used.
    const HIDDEN: u8 = 1 << 2;
    /// Both incidences resolve `Visible` — directly showable.
    const VISIBLE: u8 = 1 << 3;

    /// The flag byte of an edge whose source and destination incidences
    /// resolve to `src` and `dst`.
    fn flags(src: Marking, dst: Marking) -> u8 {
        let mut f = 0u8;
        if src == Marking::Visible {
            f |= Self::SRC_VISIBLE;
        }
        if dst == Marking::Visible {
            f |= Self::DST_VISIBLE;
        }
        if src == Marking::Hide || dst == Marking::Hide {
            f |= Self::HIDDEN;
        }
        if src == Marking::Visible && dst == Marking::Visible {
            f |= Self::VISIBLE;
        }
        f
    }

    /// The flag byte of `edge` for `preds`: the one definition the tables,
    /// the walks and an extension read.
    fn of(m: &MarkingStore, edge: Edge, preds: &[PrivilegeId]) -> u8 {
        Self::flags(
            m.mark_for_set(edge.0, edge, preds),
            m.mark_for_set(edge.1, edge, preds),
        )
    }

    fn resolve(ctx: &ProtectionContext<'_>, preds: &[PrivilegeId], csr: &Csr) -> EdgeTables {
        let e = csr.edge_count();
        let m = ctx.markings;
        // Uniform store: every incidence resolves to the default marking.
        if m.rule_count() == 0 {
            let d = m.default_marking();
            return EdgeTables {
                flags: vec![Self::flags(d, d); e],
            };
        }
        let flags = (0..e)
            .map(|id| Self::of(m, csr.endpoints(id), preds))
            .collect();
        EdgeTables { flags }
    }

    /// Both incidences `Visible` — the edge may be shown directly.
    #[inline]
    fn visible(&self, id: u32) -> bool {
        self.flags[id as usize] & Self::VISIBLE != 0
    }
}

/// Tuning knobs for [`generate_with_options`]; mainly for ablation
/// studies of the design choices DESIGN.md calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Apply the appendix's "no shorter HW-permitted path" redundancy rule
    /// (DESIGN.md §3.1 item 3, step 2). Disabling it emits a surrogate
    /// edge for *every* permitted pair without a direct original edge —
    /// still sound and maximally connected, but with many redundant edges
    /// ("they make the graph less clear").
    pub redundancy_filter: bool,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        Self {
            redundancy_filter: true,
        }
    }
}

/// The Surrogate Generation Algorithm (Appendix B, Algorithms 1–3),
/// producing the maximally informative account for predicate `p`
/// (Theorem 1), with `HW(G') = {p}`.
///
/// Surrogate edges are emitted for exactly the HW-permitted pairs that do
/// not decompose into strictly shorter permitted pairs through a present
/// intermediate — the appendix's "no shorter HW-permitted path" redundancy
/// rule. Decomposable pairs are connected transitively by the pieces, so
/// maximal connectivity (Def. 9.3) holds by induction on path length.
///
/// For a multi-predicate high-water set (Def. 6), node visibility and
/// incidence markings take the most permissive interpretation across
/// members, per Def. 8's "for some p dominated by a member of HW".
/// Members that are dominated by other members are redundant and removed
/// up front.
pub fn generate_for_set(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
) -> Result<ProtectedAccount> {
    generate_with_options(ctx, preds, GenerateOptions::default())
}

/// Full-control variant of [`generate_for_set`].
///
/// Runs against a [`Csr`] index of the graph — the one attached via
/// [`ProtectionContext::with_csr`], or one built on the fly — so the
/// marking resolution, the permitted-reach walks, and the redundancy
/// filter all address dense per-edge/per-node arrays instead of hashing
/// node or edge keys. Surrogate edges are emitted in canonical
/// `(source, target)` order, so accounts are deterministic and
/// comparable edge-for-edge with [`reference::generate_with_options`].
///
/// # Cost
///
/// Linear in the graph plus the protected regions it bridges. Each
/// present source is walked only as far as the redundancy rule can still
/// keep a pair (the private `Walker`; the argument is docs/DESIGN.md §3.1
/// item 7), so a source surrounded by nodes that can record pairs
/// themselves costs its own out-edges and theirs, and a source at the
/// edge of a protected region costs that region. With
/// `redundancy_filter: false` every permitted pair is an edge of the
/// account, nothing bounds a walk, and the cost is one full BFS per
/// present source.
///
/// # Panics
/// Panics if `preds` is empty.
pub fn generate_with_options(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    options: GenerateOptions,
) -> Result<ProtectedAccount> {
    generate_counted(ctx, preds, options).map(|(account, _)| account)
}

/// Work done by one [`generate_counted`] call. A count repeats exactly,
/// so the tests can bound the generator's work where a timing cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WalkCounts {
    /// Filtered out-edges examined, over every walk.
    edges_examined: u64,
    /// First walks: one per present source.
    walks: u64,
    /// Sources walked a second time, to the depth a candidate compares
    /// their rows at.
    rewalks: u64,
}

/// [`generate_with_options`] with its work counters.
fn generate_counted(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    options: GenerateOptions,
) -> Result<(ProtectedAccount, WalkCounts)> {
    assert!(!preds.is_empty(), "high-water set must be non-empty");
    ctx.catalog.validate(ctx.graph, ctx.lattice)?;
    let preds = ctx.lattice.maximal_antichain(preds);
    let plans = plan_nodes(ctx, &preds, true);
    let mut account = build_node_layer(ctx, &preds, Strategy::Surrogate, plans);

    let csr = &*ctx.index();
    let tables = EdgeTables::resolve(ctx, &preds, csr);
    let n = csr.node_count();

    // Visible–Visible original edges with both endpoints present, in
    // insertion order (Algorithm 1 lines 13–14, as in `add_shown_edges`).
    for id in 0..csr.edge_count() {
        if !tables.visible(id as u32) {
            continue;
        }
        let (a, b) = csr.endpoints(id);
        if let (Some(u), Some(v)) = (account.to_account[a.index()], account.to_account[b.index()]) {
            account
                .graph
                .add_edge(u, v)
                .expect("original edges are unique and loop-free");
        }
    }
    let shown = account.graph.edge_count();

    let present: Vec<bool> = (0..n).map(|i| account.to_account[i].is_some()).collect();
    let mut walker = Walker::new(csr, &tables, &present, options.redundancy_filter);

    // One horizon-bounded walk per present source.
    for u in (0..n as u32).filter(|&u| present[u as usize]) {
        walker.counts.walks += 1;
        let deepest = walker.walk(u, 0);
        // A candidate at depth `d` compares the rows of every target
        // recorded below `d`, to depth `d − 1`.
        if options.redundancy_filter {
            let (lo, hi) = walker.range[u as usize];
            for &(dw, w) in &walker.deep[lo as usize..hi as usize] {
                if dw >= deepest {
                    break;
                }
                let need = &mut walker.need[w as usize];
                *need = (*need).max(deepest - 1);
            }
        }
    }
    // A walk that ended before the depth some candidate compares its
    // rows at is repeated to that depth; its candidates do not change
    // (nothing past its horizon is live), only its rows grow.
    for w in 0..n as u32 {
        let need = walker.need[w as usize];
        if need > walker.complete[w as usize] {
            walker.counts.rewalks += 1;
            walker.walk(w, need);
        }
    }

    let rows = |w: u32| {
        let (lo, hi) = walker.range[w as usize];
        &walker.rows[lo as usize..hi as usize]
    };
    for u in 0..n as u32 {
        let (lo, hi) = walker.range[u as usize];
        if lo == hi {
            continue;
        }
        let by_depth = &walker.deep[lo as usize..hi as usize];
        let u_acct = account.to_account[u as usize].expect("present source");
        for &(v, row) in rows(u) {
            if row & 1 == 0 {
                continue;
            }
            let d = row >> 1;
            // Redundancy rule: skip when the pair splits into strictly
            // shorter permitted pairs via a present intermediate — a
            // witness must be strictly closer than the candidate, so only
            // the depth-ascending prefix `dw < d` is worth scanning.
            if options.redundancy_filter {
                let decomposable = by_depth
                    .iter()
                    .take_while(|&&(dw, _)| dw < d)
                    .any(|&(_, w)| {
                        w != v && {
                            let via = rows(w);
                            via.binary_search_by_key(&v, |&(t, _)| t)
                                .is_ok_and(|pos| via[pos].1 >> 1 < d)
                        }
                    });
                if decomposable {
                    continue;
                }
            }
            let v_acct = account.to_account[v as usize].expect("present target");
            account
                .graph
                .add_edge(u_acct, v_acct)
                .expect("pairs are unique and loop-free");
            account.surrogate_edges.insert((u_acct, v_acct));
        }
    }
    let counts = walker.counts;
    if options.redundancy_filter {
        account.reflects = Reflects::of(ctx, shown, tables.flags);
    }
    Ok((account, counts))
}

/// Per-node scratch of one walk, stamped instead of cleared so that
/// starting a walk costs the source's out-degree, not `O(V)`.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// Stamp of the walk that last visited the node.
    visited: u32,
    /// `visit depth << 1 | live` in that walk.
    level: u32,
    /// Stamp of the walk that last recorded the node as a target.
    recorded: u32,
    /// `record depth << 1 | candidate` in that walk.
    row: u32,
}

/// The per-source walks of the repaired Algorithm 2 (see
/// `permitted_reach` for the Def. 8 reasoning), bounded by the
/// redundancy rule's own guarantee (docs/DESIGN.md §3.1 item 7).
///
/// A walk is a level-synchronous BFS from one source over the non-hidden
/// subgraph: the frontier holds *nodes*, every node expands its
/// out-edges once, at its BFS-minimal depth, and examining edge `(w, x)`
/// at `depth(w) + 1` both records the row for `x` (first qualifying
/// examination = shortest permitted walk, because examinations happen in
/// nondecreasing depth) and enqueues `x` if unvisited. Three additions
/// keep it from crossing the whole graph:
///
/// * **Relays.** A node `x` with no out-edge in `G` that is both not
///   Visible–Visible and into a node some walk can end in is never
///   forbidden a pair by Def. 8 cond. 2. If source `u` records such an
///   `x` at exactly `x`'s visit depth `j` — so `d(u, x) = j` — every `v`
///   with a shortest permitted walk that leaves `x` through a seed edge
///   of `x` splits into `(u, x)` and `(x, v)`, both strictly shorter: `x`
///   is a witness and the rule drops `(u, v)`.
/// * **Live walks.** A visited node is *live* while no BFS-shortest walk
///   to it leaves such an `x` through a seed edge. One such walk is
///   enough: every shortest permitted walk through the node can take it
///   as its prefix, so `x` witnesses them all. Dead nodes still expand
///   and still record — rows must stay exact — but the walk stops at the
///   first level with no live node, and only pairs whose every
///   record-depth examination came over a live walk are *candidates* for
///   the redundancy test.
/// * **Exact witness rows.** A walk stopped after level `k` has recorded
///   exactly the true rows of depth ≤ `k`. The rule compares a candidate
///   at depth `d` against *any* closer target's rows to depth `d − 1`, on
///   a shortest walk or not, so the caller repeats a walk that stopped
///   short of that depth (`need` against `complete`).
struct Walker<'a> {
    csr: &'a Csr,
    /// Per-edge marking facts, for Def. 8 cond. 2 on direct edges.
    flags: &'a [u8],
    /// Pre-filtered adjacency, resolved once per call and shared by every
    /// walk: the non-hidden out-edges of each node in CSR layout, with
    /// the per-edge Def. 8 facts folded into a byte of `REC` | `SEED`, so
    /// a walk reads two small sequential arrays instead of gathering from
    /// the flag table and the presence map on every edge examination.
    fadj_start: Vec<u32>,
    fadj_target: Vec<u32>,
    fadj_bits: Vec<u8>,
    /// Nodes Def. 8 cond. 2 forbids no pair from. All `false` without
    /// the redundancy filter: nothing is dropped, so nothing bounds a
    /// walk.
    relay: Vec<bool>,

    marks: Vec<Mark>,
    /// Def. 8 cond. 2 lookup: `direct[t] == stamp` iff the current source
    /// has a direct edge to `t`, with id `direct_id[t]`.
    direct: Vec<u32>,
    direct_id: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    stamp: u32,

    /// Shortest permitted-pair rows, arena-allocated: a source's rows are
    /// `rows[lo..hi]` for its `range`, as `(target, depth << 1 |
    /// candidate)` sorted by target, so the redundancy filter can
    /// binary-search `d(w, v)` and emission is in canonical order.
    rows: Vec<(u32, u32)>,
    /// The same rows over the same range as `(depth, target)` in
    /// nondecreasing depth — recorded for free by the level-synchronous
    /// BFS — so the filter stops scanning witnesses at the candidate's
    /// own depth.
    deep: Vec<(u32, u32)>,
    /// Arena range of each source's latest walk.
    range: Vec<(u32, u32)>,
    /// Depth each source's rows are exact to (`u32::MAX` once its walk
    /// ran out of graph).
    complete: Vec<u32>,
    /// Greatest depth any candidate compares each node's rows at.
    need: Vec<u32>,
    counts: WalkCounts,
}

impl<'a> Walker<'a> {
    /// The edge can *record* its target as a permitted pair (destination
    /// incidence Visible and target present).
    const REC: u8 = 1;
    /// The edge can *seed* a walk (source incidence Visible).
    const SEED: u8 = 1 << 1;

    fn new(csr: &'a Csr, tables: &'a EdgeTables, present: &[bool], bounded: bool) -> Self {
        let n = csr.node_count();
        let e = csr.edge_count();
        let mut fadj_start = vec![0u32; n + 1];
        let mut fadj_target: Vec<u32> = Vec::with_capacity(e);
        let mut fadj_bits: Vec<u8> = Vec::with_capacity(e);
        // `recordable[v]`: some walk can end in `v`.
        let mut recordable = vec![false; n];
        for (w, start) in fadj_start.iter_mut().enumerate().take(n) {
            *start = fadj_target.len() as u32;
            let (targets, edge_ids) = csr.out(NodeId(w as u32));
            for (&x, &id) in targets.iter().zip(edge_ids) {
                let f = tables.flags[id as usize];
                if f & EdgeTables::HIDDEN != 0 {
                    continue;
                }
                let mut bits = 0u8;
                if f & EdgeTables::DST_VISIBLE != 0 && present[x as usize] {
                    bits |= Self::REC;
                    recordable[x as usize] = true;
                }
                if f & EdgeTables::SRC_VISIBLE != 0 {
                    bits |= Self::SEED;
                }
                fadj_target.push(x);
                fadj_bits.push(bits);
            }
        }
        fadj_start[n] = fadj_target.len() as u32;

        // Hidden out-edges count too: cond. 2 reads the direct edge's
        // markings whether or not a walk may use it. An edge into a node
        // no walk can end in forbids nothing.
        let relay = (0..n)
            .map(|x| {
                let (targets, edge_ids) = csr.out(NodeId(x as u32));
                bounded
                    && targets
                        .iter()
                        .zip(edge_ids)
                        .all(|(&y, &id)| tables.visible(id) || !recordable[y as usize])
            })
            .collect();

        Self {
            csr,
            flags: &tables.flags,
            fadj_start,
            fadj_target,
            fadj_bits,
            relay,
            marks: vec![Mark::default(); n],
            direct: vec![0; n],
            direct_id: vec![0; n],
            frontier: Vec::new(),
            next: Vec::new(),
            stamp: 0,
            rows: Vec::new(),
            deep: Vec::new(),
            range: vec![(0, 0); n],
            complete: vec![0; n],
            need: vec![0; n],
            counts: WalkCounts::default(),
        }
    }

    /// Where `w`'s out-edges sit in the filtered adjacency.
    fn out_range(&self, w: usize) -> std::ops::Range<usize> {
        self.fadj_start[w] as usize..self.fadj_start[w + 1] as usize
    }

    /// Walks from present source `u` until no live node is left and at
    /// least to `min_depth`, appends its rows to the arena and points
    /// `range[u]` at them. Returns the depth of `u`'s deepest candidate
    /// (0 when it has none).
    fn walk(&mut self, u: u32, min_depth: u32) -> u32 {
        let ui = u as usize;
        self.stamp += 1;
        let stamp = self.stamp;
        let (targets, edge_ids) = self.csr.out(NodeId(u));
        for (&t, &id) in targets.iter().zip(edge_ids) {
            self.direct[t as usize] = stamp;
            self.direct_id[t as usize] = id;
        }
        let lo = self.deep.len();
        // Live nodes among those visited at the level being built.
        let mut live = 0u32;

        // Examines filtered edge `(w, x)` (bits `b`) entering `x` at
        // `depth`; `carries` says a live walk arrives over it. Def. 8
        // cond. 1 — recordability — was folded into `REC`; cond. 2 — a
        // direct edge between the pair, if any, must be Visible–Visible.
        // A same-level re-examination over a dead walk still takes
        // liveness from the node, or from the pair it recorded at this
        // depth.
        macro_rules! examine {
            ($x:expr, $b:expr, $depth:expr, $carries:expr, $next:expr) => {
                let xi = $x as usize;
                let level = $depth << 1;
                let m = &mut self.marks[xi];
                if m.visited != stamp {
                    m.visited = stamp;
                    m.level = level | $carries as u32;
                    live += $carries as u32;
                    $next.push($x);
                } else if !$carries && m.level == level | 1 {
                    m.level = level;
                    live -= 1;
                }
                if $b & Self::REC != 0 {
                    if m.recorded == stamp {
                        if !$carries && m.row == level | 1 {
                            m.row = level;
                        }
                    } else if $x != u
                        && (self.direct[xi] != stamp
                            || self.flags[self.direct_id[xi] as usize] & EdgeTables::VISIBLE != 0)
                    {
                        m.recorded = stamp;
                        m.row = level | $carries as u32;
                        self.deep.push(($depth, $x));
                    }
                }
            };
        }

        // Def. 8: the source's incidence on the first edge must be
        // Visible. `u` itself stays unvisited: if a cycle re-enters it,
        // it expands *all* its non-hidden out-edges as an intermediate
        // (re-examining a seed edge is harmless — the row conditions are
        // depth-independent, so it either recorded at depth 1 or never
        // will).
        self.frontier.clear();
        let out = self.out_range(ui);
        self.counts.edges_examined += out.len() as u64;
        for i in out {
            let (x, b) = (self.fadj_target[i], self.fadj_bits[i]);
            if b & Self::SEED != 0 {
                examine!(x, b, 1u32, true, self.frontier);
            }
        }
        // `frontier` holds the nodes visited at `depth`; every
        // examination at `depth` or less has happened.
        let mut depth = 1u32;
        while !self.frontier.is_empty() && (live > 0 || depth < min_depth) {
            live = 0;
            self.next.clear();
            for &w in &self.frontier {
                let wi = w as usize;
                let m = self.marks[wi];
                let w_live = m.level & 1 != 0;
                // Recorded at exactly its visit depth: `d(u, w) = depth`.
                // A relay first entered over a non-`REC` edge and recorded
                // by a same-level neighbour is one step further away than
                // it expands at, and expands as an ordinary node. `u` is
                // never recorded.
                let clean = self.relay[wi] && m.recorded == stamp && m.row >> 1 == depth;
                let blocked = if clean { Self::SEED } else { 0 };
                let out = self.out_range(wi);
                self.counts.edges_examined += out.len() as u64;
                for i in out {
                    let (x, b) = (self.fadj_target[i], self.fadj_bits[i]);
                    let carries = w_live && b & blocked == 0;
                    examine!(x, b, depth + 1, carries, self.next);
                }
            }
            depth += 1;
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        self.complete[ui] = if self.frontier.is_empty() {
            u32::MAX
        } else {
            depth
        };

        // Harvest target-sorted: sort the recorded list, or — when the
        // walk recorded a fair share of the graph — scan node ids in
        // order, which sorts without comparing.
        let n = self.marks.len();
        if (self.deep.len() - lo) * 16 > n {
            for (x, m) in self.marks.iter().enumerate() {
                if m.recorded == stamp {
                    self.rows.push((x as u32, m.row));
                }
            }
        } else {
            let marks = &self.marks;
            self.rows.extend(
                self.deep[lo..]
                    .iter()
                    .map(|&(_, x)| (x, marks[x as usize].row)),
            );
            self.rows[lo..].sort_unstable_by_key(|&(x, _)| x);
        }
        // A pair with a direct edge is already shown (any other direct
        // edge forbade it, cond. 2): it stays a row, never a candidate.
        let mut deepest = 0u32;
        for (x, row) in &mut self.rows[lo..] {
            if self.direct[*x as usize] == stamp {
                *row &= !1;
            }
            if *row & 1 != 0 {
                deepest = deepest.max(*row >> 1);
            }
        }
        self.range[ui] = (lo as u32, self.deep.len() as u32);
        deepest
    }
}

/// [`ProtectionContext::extend_account`] with the number of edges its
/// column searches examined, which repeats exactly as [`WalkCounts`] do.
fn extend_counted(
    ctx: &ProtectionContext<'_>,
    mut account: ProtectedAccount,
) -> Option<(ProtectedAccount, u64)> {
    let reflects = account.reflects.take()?;
    let g = ctx.graph;
    let (n0, n, e) = (account.to_account.len(), g.node_count(), g.edge_count());
    let use_catalog = account.strategy != Strategy::HideNodes;
    // The prefix guard, then the class: every new edge leads into a new
    // node, and no write since names an old one.
    let in_class = n0 <= n
        && reflects.edges <= e
        && Arc::ptr_eq(g.shared_node(NodeId(n0 as u32 - 1)), &reflects.last)
        && (reflects.edges..e).all(|id| g.edge_at(id).1.index() >= n0)
        && (ctx.markings.named_since(reflects.markings))
            .is_some_and(|named| named.iter().all(|v| v.index() >= n0))
        && (ctx.catalog.named_since(reflects.catalog)).is_some_and(|named| {
            named.iter().all(|&v| {
                v.index() >= n0
                    && (!use_catalog || ctx.catalog.validate_node(g, ctx.lattice, v).is_ok())
            })
        });
    if !in_class {
        return None;
    }

    let preds = account.hw.clone();
    for v in (n0..n).map(|v| NodeId(v as u32)) {
        account.push_node(g, v, node_plan(ctx, &preds, v, use_catalog));
    }
    let surrogate = account.strategy == Strategy::Surrogate;
    let mut flags = reflects.flags;
    let mut shown = Vec::new();
    for id in reflects.edges..e {
        let (a, b) = g.edge_at(id);
        let f = EdgeTables::of(ctx.markings, (a, b), &preds);
        if surrogate {
            flags.push(f);
        }
        if f & EdgeTables::VISIBLE != 0 {
            if let (Some(u), Some(v)) = (account.account_node(a), account.account_node(b)) {
                shown.push((u, v));
            }
        }
    }
    // Old pairs keep their rows, depths and witnesses; every new pair has
    // a new target. So the new surrogate edges are the columns of the
    // new present nodes.
    let (mut bridged, mut examined) = (Vec::new(), 0);
    if surrogate {
        let csr = &*ctx.index();
        let targets: Vec<usize> = (n0..n)
            .filter(|&x| account.to_account[x].is_some())
            .collect();
        let budget = COLUMN_BUDGET * e as u64;
        let within_budget = COLUMNS.with(|columns| {
            let mut columns = columns.borrow_mut();
            columns.prepare(n);
            for (done, &x) in targets.iter().enumerate() {
                // The columns so far, projected over all of them.
                if columns.examined * targets.len() as u64 > budget * done as u64 {
                    return false;
                }
                columns.bridge(csr, &flags, &account.to_account, x as u32, &mut bridged);
            }
            examined = columns.examined;
            true
        });
        if !within_budget {
            return None;
        }
        bridged.sort_unstable();
        account.surrogate_edges.extend(bridged.iter().copied());
    }
    account.graph.splice_edges(reflects.shown, &shown, &bridged);
    account.reflects = Reflects::of(ctx, reflects.shown + shown.len(), flags);
    Some((account, examined))
}

/// Edges the column searches of one extension may examine per edge of
/// the graph; an extension gives up, and the caller generates, once the
/// columns it has searched, projected over every appended node, would
/// examine more. Each appended node costs a search of its ancestor
/// region, so a burst of appends can cost more than a generation, which
/// is worth about this many examinations per edge (200–225 ns per edge
/// of a 1 025- and a 4 860-node workflow, against 6–7 ns per examined
/// edge).
const COLUMN_BUDGET: u64 = 32;

/// `Cell::r` of a pair Def. 8 cond. 2 forbids.
const FORBIDDEN: u32 = u32::MAX;

/// Per-node scratch of the [`Columns`] searches, stamped so that a
/// search costs what it visits, not `O(V)`.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// Stamp of the column `j` and `r` belong to.
    column: u32,
    /// `J(v)`: the length of the shortest non-hidden walk from `v` into
    /// the target whose last edge is `DST_VISIBLE`; 0 when there is none.
    j: u32,
    /// `r(v, target)` for a present `v`: 0 while unknown, or
    /// [`FORBIDDEN`].
    r: u32,
    /// Stamp of the forward search that visited `v`.
    seen: u32,
    /// Stamp of the forward search whose source has a direct edge to
    /// `v`, with id `direct_id`.
    direct: u32,
    direct_id: u32,
}

/// The surrogate edges into appended targets, one target's column at a
/// time (docs/DESIGN.md §3.1 item 8). One per thread, grown to the
/// largest graph it has served, so an extension allocates and clears
/// nothing proportional to the graph.
#[derive(Debug, Default)]
struct Columns {
    cells: Vec<Cell>,
    column: u32,
    search: u32,
    level: Vec<u32>,
    next: Vec<u32>,
    candidates: Vec<u32>,
    /// Edges examined since [`prepare`](Self::prepare).
    examined: u64,
}

thread_local! {
    static COLUMNS: RefCell<Columns> = RefCell::default();
}

impl Columns {
    fn prepare(&mut self, nodes: usize) {
        // A stamp per column and per candidate: start over long before
        // either wraps.
        if self.column.max(self.search) > u32::MAX / 2 {
            *self = Columns::default();
        }
        if self.cells.len() < nodes {
            self.cells.resize(nodes, Cell::default());
        }
        self.examined = 0;
    }

    /// `v`'s cell, for the current column.
    fn cell(&mut self, v: u32) -> &mut Cell {
        let column = self.column;
        let cell = &mut self.cells[v as usize];
        if cell.column != column {
            *cell = Cell {
                column,
                j: 0,
                r: 0,
                ..*cell
            };
        }
        cell
    }

    /// Appends to `bridged` the surrogate edge `(u, x)` of every present
    /// `u` whose pair the redundancy rule keeps.
    ///
    /// A reverse search from `x` over non-hidden in-edges finds `J` for
    /// `x`'s whole ancestor region; `r(u, x)` is then 1 over a direct
    /// Visible–Visible edge, else `1 + J(y)` minimized over `u`'s `SEED`
    /// edges `u → y`. Nothing stops the search early: a node whose walk
    /// into `x` is a Visible–Visible edge still leaves `r(w, x)` to be
    /// found for the nodes behind it, any of which may be the witness
    /// of a longer pair (`extension_keeps_the_whole_ancestor_region`).
    fn bridge(
        &mut self,
        csr: &Csr,
        flags: &[u8],
        to_account: &[Option<NodeId>],
        x: u32,
        bridged: &mut Vec<Edge>,
    ) {
        self.column += 1;
        self.candidates.clear();
        // Def. 8 cond. 2: a direct edge into `x` that is not
        // Visible–Visible forbids its pair.
        let (sources, ids) = csr.inn(NodeId(x));
        for (&y, &id) in sources.iter().zip(ids) {
            if flags[id as usize] & EdgeTables::VISIBLE == 0 {
                self.cell(y).r = FORBIDDEN;
            }
        }
        // Level 1 enters `x` over a Visible incidence; `x` expands like
        // any other node once a walk re-enters it.
        self.next.clear();
        self.examined += sources.len() as u64;
        for (&y, &id) in sources.iter().zip(ids) {
            let f = flags[id as usize];
            if f & (EdgeTables::HIDDEN | EdgeTables::DST_VISIBLE) == EdgeTables::DST_VISIBLE {
                self.reach(y, f, 1, x, to_account);
            }
        }
        let mut depth = 1;
        while !self.next.is_empty() {
            std::mem::swap(&mut self.level, &mut self.next);
            self.next.clear();
            for i in 0..self.level.len() {
                let (sources, ids) = csr.inn(NodeId(self.level[i]));
                self.examined += sources.len() as u64;
                for (&y, &id) in sources.iter().zip(ids) {
                    let f = flags[id as usize];
                    if f & EdgeTables::HIDDEN == 0 {
                        self.reach(y, f, depth + 1, x, to_account);
                    }
                }
            }
            depth += 1;
        }

        let candidates = std::mem::take(&mut self.candidates);
        let account_node = |v: u32| to_account[v as usize].expect("present");
        for &u in &candidates {
            let d = self.cells[u as usize].r;
            if !self.decomposable(csr, flags, u, x, d) {
                bridged.push((account_node(u), account_node(x)));
            }
        }
        self.candidates = candidates;
    }

    /// Examines the non-hidden edge `y → z` (flags `f`), where `z`'s
    /// shortest walk into `x` makes `depth` from `y`. The first
    /// examination of `y` is its `J`, the first over a `SEED` edge its
    /// `r`, because depths arrive in nondecreasing order. A depth-1 pair
    /// is a direct Visible–Visible edge, shown and never a candidate.
    fn reach(&mut self, y: u32, f: u8, depth: u32, x: u32, to_account: &[Option<NodeId>]) {
        let cell = self.cell(y);
        let first = cell.j == 0;
        if first {
            cell.j = depth;
        }
        let row = f & EdgeTables::SRC_VISIBLE != 0
            && cell.r == 0
            && y != x
            && to_account[y as usize].is_some();
        if row {
            cell.r = depth;
        }
        if first {
            self.next.push(y);
        }
        if row && depth > 1 {
            self.candidates.push(y);
        }
    }

    /// Redundancy rule 3(b) for candidate `(u, x)` at depth `d`: whether
    /// some present `w ≠ x` has `r(u, w) < d` and `r(w, x) < d`. A
    /// level-synchronous search from `u` to depth `d − 1` that records as
    /// the `Walker` does. Every node of a walk from `u` to such a `w`
    /// reaches `x` through `w`, so the search does not leave the region
    /// of the column.
    fn decomposable(&mut self, csr: &Csr, flags: &[u8], u: u32, x: u32, d: u32) -> bool {
        self.search += 1;
        let (column, search) = (self.column, self.search);
        let (targets, ids) = csr.out(NodeId(u));
        for (&t, &id) in targets.iter().zip(ids) {
            let cell = &mut self.cells[t as usize];
            cell.direct = search;
            cell.direct_id = id;
        }
        // Examines the non-hidden edge into `t`, at a depth under `d`:
        // `t` is a witness when it is recorded (Def. 8 cond. 1 and 2, as
        // in `Walker::walk`) and its own row to `x` is shorter than `d`.
        // A row implies a present node.
        let examine = |cells: &mut [Cell], next: &mut Vec<u32>, t: u32, f: u8| {
            let cell = &mut cells[t as usize];
            if cell.column != column || cell.j == 0 {
                return false;
            }
            if cell.seen != search {
                cell.seen = search;
                next.push(t);
            }
            f & EdgeTables::DST_VISIBLE != 0
                && t != u
                && t != x
                && (1..d).contains(&cell.r)
                && (cell.direct != search
                    || flags[cell.direct_id as usize] & EdgeTables::VISIBLE != 0)
        };
        self.next.clear();
        self.examined += targets.len() as u64;
        for (&t, &id) in targets.iter().zip(ids) {
            let f = flags[id as usize];
            if f & (EdgeTables::HIDDEN | EdgeTables::SRC_VISIBLE) == EdgeTables::SRC_VISIBLE
                && examine(&mut self.cells, &mut self.next, t, f)
            {
                return true;
            }
        }
        // `next` holds the nodes first visited at `depth`; their edges
        // enter at `depth + 1`.
        let mut depth = 1;
        while depth + 1 < d && !self.next.is_empty() {
            std::mem::swap(&mut self.level, &mut self.next);
            self.next.clear();
            for &w in &self.level {
                let (targets, ids) = csr.out(NodeId(w));
                self.examined += targets.len() as u64;
                for (&t, &id) in targets.iter().zip(ids) {
                    let f = flags[id as usize];
                    if f & EdgeTables::HIDDEN == 0 && examine(&mut self.cells, &mut self.next, t, f)
                    {
                        return true;
                    }
                }
            }
            depth += 1;
        }
        false
    }
}

/// The "binary show/hide" edge baseline (§6): same node layer as the
/// surrogate algorithm, but protected incidences simply drop their edges —
/// no surrogate edges are synthesized.
pub fn generate_hide_for_set(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
) -> Result<ProtectedAccount> {
    assert!(!preds.is_empty(), "high-water set must be non-empty");
    ctx.catalog.validate(ctx.graph, ctx.lattice)?;
    let preds = ctx.lattice.maximal_antichain(preds);
    let plans = plan_nodes(ctx, &preds, true);
    let mut account = build_node_layer(ctx, &preds, Strategy::HideEdges, plans);
    add_shown_edges(ctx, &preds, &mut account);
    account.reflects = Reflects::of(ctx, account.graph.edge_count(), Vec::new());
    Ok(account)
}

/// The naïve all-or-nothing baseline of Fig. 1(c): nodes appear only when
/// the predicate dominates their `lowest` (no surrogates), and edges only
/// when Visible–Visible with both endpoints present.
pub fn generate_naive_node_hide_for_set(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
) -> Result<ProtectedAccount> {
    assert!(!preds.is_empty(), "high-water set must be non-empty");
    let preds = ctx.lattice.maximal_antichain(preds);
    let plans = plan_nodes(ctx, &preds, false);
    let mut account = build_node_layer(ctx, &preds, Strategy::HideNodes, plans);
    add_shown_edges(ctx, &preds, &mut account);
    account.reflects = Reflects::of(ctx, account.graph.edge_count(), Vec::new());
    Ok(account)
}

/// The HW-permitted pair relation of Def. 8, restricted to nodes present in
/// the account (`present[n]`). This is the connectivity obligation of
/// Def. 9.3: for every pair in the relation, a maximally informative
/// account must contain a directed path between the corresponding nodes.
pub fn permitted_pairs(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    present: &[bool],
) -> FxHashSet<(NodeId, NodeId)> {
    let mut pairs = FxHashSet::default();
    let mut visited = BitSet::new(ctx.graph.edge_count());
    for u in ctx.graph.node_ids() {
        if !present[u.index()] {
            continue;
        }
        for (v, _) in permitted_reach(ctx, preds, present, u, &mut visited) {
            pairs.insert((u, v));
        }
    }
    pairs
}

/// The pre-CSR Materialized-path generator, kept as an executable
/// specification.
///
/// This is the hash-map implementation the CSR fast path replaced:
/// per-source `permitted_reach` walks resolving markings through
/// [`MarkingStore`] lookups and collecting reach rows into hash maps.
/// It exists so equivalence tests can pin the optimized generator
/// against an independent implementation on arbitrary graphs — both
/// paths emit surrogate edges in canonical `(source, target)` order, so
/// their accounts (and everything downstream: lineage rows, wire
/// frames) must match byte for byte.
pub mod reference {
    use super::*;

    /// Hash-based counterpart of [`generate_with_options`](super::generate_with_options).
    ///
    /// # Panics
    /// Panics if `preds` is empty.
    pub fn generate_with_options(
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
        options: GenerateOptions,
    ) -> Result<ProtectedAccount> {
        assert!(!preds.is_empty(), "high-water set must be non-empty");
        ctx.catalog.validate(ctx.graph, ctx.lattice)?;
        let preds = ctx.lattice.maximal_antichain(preds);
        let plans = plan_nodes(ctx, &preds, true);
        let mut account = build_node_layer(ctx, &preds, Strategy::Surrogate, plans);
        add_shown_edges(ctx, &preds, &mut account);

        let present: Vec<bool> = (0..ctx.graph.node_count())
            .map(|i| account.to_account[i].is_some())
            .collect();
        let mut visited = BitSet::new(ctx.graph.edge_count());

        // Shortest permitted-pair distances from every present source.
        let reach_by_source: Vec<FxHashMap<NodeId, u32>> = ctx
            .graph
            .node_ids()
            .map(|u| {
                if present[u.index()] {
                    permitted_reach(ctx, &preds, &present, u, &mut visited)
                } else {
                    FxHashMap::default()
                }
            })
            .collect();

        for u in ctx.graph.node_ids() {
            let reach = &reach_by_source[u.index()];
            // Canonical emission order, matching the CSR path.
            let mut pairs: Vec<(NodeId, u32)> = reach.iter().map(|(&v, &d)| (v, d)).collect();
            pairs.sort_unstable();
            for (v, d) in pairs {
                // A Visible–Visible direct edge is already shown; any other
                // direct edge forbids the pair (Def. 8 cond. 2) and was never
                // recorded in `reach`.
                if ctx.graph.has_edge(u, v) {
                    continue;
                }
                // Redundancy rule: skip when the pair splits into strictly
                // shorter permitted pairs via a present intermediate.
                if options.redundancy_filter {
                    let decomposable = reach.iter().any(|(&w, &dw)| {
                        w != v
                            && dw < d
                            && reach_by_source[w.index()]
                                .get(&v)
                                .is_some_and(|&dwv| dwv < d)
                    });
                    if decomposable {
                        continue;
                    }
                }
                let u_acct = account.to_account[u.index()].expect("present source");
                let v_acct = account.to_account[v.index()].expect("present target");
                account
                    .graph
                    .add_edge(u_acct, v_acct)
                    .expect("pairs are unique and loop-free");
                account.surrogate_edges.insert((u_acct, v_acct));
            }
        }
        Ok(account)
    }

    /// Hash-based counterpart of [`generate_for_set`](super::generate_for_set).
    pub fn generate_for_set(
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount> {
        generate_with_options(ctx, preds, GenerateOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Features;
    use crate::surrogate::SurrogateDef;

    /// Chain a→b→c with b's role protected for Public: surrogate edge a→c.
    struct Fixture {
        graph: Graph,
        lattice: PrivilegeLattice,
        markings: MarkingStore,
        catalog: SurrogateCatalog,
        ids: Vec<NodeId>,
    }

    impl Fixture {
        fn ctx(&self) -> ProtectionContext<'_> {
            ProtectionContext::new(&self.graph, &self.lattice, &self.markings, &self.catalog)
        }
    }

    /// a → b → c where b requires High; incidences at b marked Surrogate
    /// for Public (the Fig. 2(b)/(d) pattern on a minimal chain).
    fn chain_fixture(with_surrogate_node: bool) -> Fixture {
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let high = preds[0];
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", high);
        let c = graph.add_node("c", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(b, c).unwrap();
        let mut markings = MarkingStore::new();
        markings.set_node(b, public, Marking::Surrogate);
        let mut catalog = SurrogateCatalog::new();
        if with_surrogate_node {
            catalog.add(
                b,
                SurrogateDef {
                    label: "b'".into(),
                    features: Features::new(),
                    lowest: public,
                    info_score: 0.4,
                },
            );
        }
        Fixture {
            graph,
            lattice,
            markings,
            catalog,
            ids: vec![a, b, c],
        }
    }

    #[test]
    fn hidden_node_yields_surrogate_edge() {
        let fx = chain_fixture(false);
        let public = fx.lattice.public();
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        let (a, b, c) = (fx.ids[0], fx.ids[1], fx.ids[2]);
        assert!(account.account_node(b).is_none(), "b hidden");
        let a2 = account.account_node(a).unwrap();
        let c2 = account.account_node(c).unwrap();
        assert!(account.graph().has_edge(a2, c2), "surrogate edge a→c");
        assert!(account.is_surrogate_edge((a2, c2)));
        assert_eq!(account.surrogate_edge_count(), 1);
        assert_eq!(account.graph().edge_count(), 1);
    }

    #[test]
    fn surrogate_node_is_isolated_but_present() {
        // Fig. 2(d) pattern: surrogate node exists, incidences still S.
        let fx = chain_fixture(true);
        let public = fx.lattice.public();
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        let b2 = account.account_node(fx.ids[1]).unwrap();
        assert!(matches!(
            account.correspondence(b2),
            Correspondence::Surrogate { .. }
        ));
        assert_eq!(account.graph().degree(b2), 0, "b' isolated");
        assert_eq!(account.graph().node(b2).label, "b'");
        let a2 = account.account_node(fx.ids[0]).unwrap();
        let c2 = account.account_node(fx.ids[2]).unwrap();
        assert!(account.graph().has_edge(a2, c2));
        assert_eq!(account.surrogate_node_count(), 1);
    }

    #[test]
    fn visible_markings_show_surrogate_node_in_place() {
        // Fig. 2(a) pattern: same node layer, but all incidences Visible:
        // the surrogate node appears wired in place of the original.
        let mut fx = chain_fixture(true);
        fx.markings = MarkingStore::new();
        let public = fx.lattice.public();
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        let a2 = account.account_node(fx.ids[0]).unwrap();
        let b2 = account.account_node(fx.ids[1]).unwrap();
        let c2 = account.account_node(fx.ids[2]).unwrap();
        assert!(account.graph().has_edge(a2, b2));
        assert!(account.graph().has_edge(b2, c2));
        assert!(
            !account.graph().has_edge(a2, c2),
            "no redundant surrogate edge"
        );
        assert_eq!(account.surrogate_edge_count(), 0);
    }

    #[test]
    fn hide_markings_break_the_path() {
        // Fig. 2(c) pattern: Hide on the incidences drops both edges.
        let mut fx = chain_fixture(true);
        let public = fx.lattice.public();
        fx.markings = MarkingStore::new();
        fx.markings.set_node(fx.ids[1], public, Marking::Hide);
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        assert_eq!(account.graph().edge_count(), 0);
        let b2 = account.account_node(fx.ids[1]).unwrap();
        assert_eq!(account.graph().degree(b2), 0);
    }

    #[test]
    fn hide_strategy_never_synthesizes_edges() {
        let fx = chain_fixture(true);
        let public = fx.lattice.public();
        let account = generate_hide_for_set(&fx.ctx(), &[public]).unwrap();
        assert_eq!(account.graph().edge_count(), 0);
        assert_eq!(account.strategy(), Strategy::HideEdges);
        assert!(
            account.account_node(fx.ids[1]).is_some(),
            "node layer keeps surrogate"
        );
    }

    #[test]
    fn naive_strategy_drops_sensitive_nodes() {
        let fx = chain_fixture(true);
        let public = fx.lattice.public();
        let account = generate_naive_node_hide_for_set(&fx.ctx(), &[public]).unwrap();
        assert!(account.account_node(fx.ids[1]).is_none(), "no surrogates");
        assert_eq!(account.graph().node_count(), 2);
        assert_eq!(account.graph().edge_count(), 0);
        assert_eq!(account.hidden_nodes(), vec![fx.ids[1]]);
    }

    #[test]
    fn edge_protection_draws_edge_past_the_target() {
        // a→b→c with edge (a,b) protected as (V at a, S at b): consumers
        // may know a leads onward, but not directly to b (DESIGN.md §3.1
        // item 5). Expect surrogate edge a→c, no a→b.
        let (lattice, _) = PrivilegeLattice::flat(&[]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", public);
        let c = graph.add_node("c", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(b, c).unwrap();
        let mut markings = MarkingStore::new();
        markings.set(b, (a, b), public, Marking::Surrogate);
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[public]).unwrap();
        let a2 = account.account_node(a).unwrap();
        let b2 = account.account_node(b).unwrap();
        let c2 = account.account_node(c).unwrap();
        assert!(!account.graph().has_edge(a2, b2), "protected edge hidden");
        assert!(account.graph().has_edge(b2, c2), "unprotected edge kept");
        assert!(account.graph().has_edge(a2, c2), "surrogate edge past b");
        assert!(account.is_surrogate_edge((a2, c2)));
    }

    #[test]
    fn no_surrogate_edge_when_nothing_is_downstream() {
        // Bipartite degeneracy (§6.2): protected edge into a sink cannot be
        // surrogated; result equals hiding.
        let (lattice, _) = PrivilegeLattice::flat(&[]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", public);
        graph.add_edge(a, b).unwrap();
        let mut markings = MarkingStore::new();
        markings.set(b, (a, b), public, Marking::Surrogate);
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[public]).unwrap();
        assert_eq!(account.graph().edge_count(), 0);
    }

    #[test]
    fn cycles_terminate_and_connect() {
        // a→b→c→a cycle with b's role surrogated: a→c via surrogate edge,
        // c→a shown.
        let (lattice, _) = PrivilegeLattice::flat(&[]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", public);
        let c = graph.add_node("c", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(b, c).unwrap();
        graph.add_edge(c, a).unwrap();
        let mut markings = MarkingStore::new();
        markings.set_node(b, public, Marking::Surrogate);
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[public]).unwrap();
        let a2 = account.account_node(a).unwrap();
        let c2 = account.account_node(c).unwrap();
        assert!(
            account.graph().has_edge(a2, c2),
            "surrogate edge inside cycle"
        );
        assert!(account.graph().has_edge(c2, a2), "visible edge kept");
    }

    #[test]
    fn direct_edge_with_surrogate_marking_is_never_recreated() {
        // a→b plus a→x→b detour: the (V,S)-marked direct edge must not be
        // reborn as a surrogate edge via the detour (Def. 8 cond. 2).
        let (lattice, _) = PrivilegeLattice::flat(&[]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", public);
        let x = graph.add_node("x", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(a, x).unwrap();
        graph.add_edge(x, b).unwrap();
        let mut markings = MarkingStore::new();
        markings.set(b, (a, b), public, Marking::Surrogate);
        // Make the detour pass-through so a surrogate edge would be the
        // only possible connection.
        markings.set(x, (a, x), public, Marking::Surrogate);
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[public]).unwrap();
        let a2 = account.account_node(a).unwrap();
        let b2 = account.account_node(b).unwrap();
        assert!(
            !account.graph().has_edge(a2, b2),
            "protected direct edge must stay hidden"
        );
    }

    #[test]
    fn absent_node_with_visible_incidences_passes_through() {
        // DESIGN.md §3.1 item 3(c): node hidden without surrogate but its
        // incidences are Visible — connectivity must still be preserved.
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let high = preds[0];
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node("b", high); // hidden for Public, no surrogate
        let c = graph.add_node("c", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(b, c).unwrap();
        let markings = MarkingStore::new(); // everything Visible
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[public]).unwrap();
        let a2 = account.account_node(a).unwrap();
        let c2 = account.account_node(c).unwrap();
        assert!(
            account.graph().has_edge(a2, c2),
            "maximal connectivity across an absent node"
        );
        assert!(account.is_surrogate_edge((a2, c2)));
    }

    #[test]
    fn permitted_pairs_match_def8_on_chain() {
        let fx = chain_fixture(false);
        let public = fx.lattice.public();
        let ctx = fx.ctx();
        let present = vec![true, false, true];
        let pairs = permitted_pairs(&ctx, &[public], &present);
        let (a, c) = (fx.ids[0], fx.ids[2]);
        assert!(pairs.contains(&(a, c)));
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn protect_dispatches_by_strategy() {
        let fx = chain_fixture(true);
        let public = fx.lattice.public();
        let ctx = fx.ctx();
        assert_eq!(
            ctx.protect(public, Strategy::Surrogate).unwrap().strategy(),
            Strategy::Surrogate
        );
        assert_eq!(
            ctx.protect(public, Strategy::HideEdges).unwrap().strategy(),
            Strategy::HideEdges
        );
        assert_eq!(
            ctx.protect(public, Strategy::HideNodes).unwrap().strategy(),
            Strategy::HideNodes
        );
    }

    #[test]
    fn names_are_distinct_and_parseable() {
        for &s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("bogus"), None);
    }

    /// Flat lattice with incomparable A and B; one node at each level plus
    /// a public chain: pubA → nA → nB → pubB.
    fn incomparable_fixture() -> (Graph, PrivilegeLattice, [NodeId; 4], [PrivilegeId; 2]) {
        let (lattice, preds) = PrivilegeLattice::flat(&["A", "B"]).unwrap();
        let (a, b) = (preds[0], preds[1]);
        let public = lattice.public();
        let mut graph = Graph::new();
        let pub_a = graph.add_node("pubA", public);
        let na = graph.add_node("nA", a);
        let nb = graph.add_node("nB", b);
        let pub_b = graph.add_node("pubB", public);
        graph.add_edge(pub_a, na).unwrap();
        graph.add_edge(na, nb).unwrap();
        graph.add_edge(nb, pub_b).unwrap();
        (graph, lattice, [pub_a, na, nb, pub_b], [a, b])
    }

    #[test]
    fn multi_predicate_account_unions_visibility() {
        let (graph, lattice, [_, na, nb, _], [a, b]) = incomparable_fixture();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        // Single-predicate accounts each miss the other branch's node.
        let only_a = generate_for_set(&ctx, &[a]).unwrap();
        assert!(only_a.account_node(na).is_some());
        assert!(only_a.account_node(nb).is_none());
        // The {A, B} account (Def. 6 set) sees everything.
        let both = generate_for_set(&ctx, &[a, b]).unwrap();
        assert_eq!(both.graph().node_count(), 4);
        assert_eq!(both.graph().edge_count(), 3);
        assert_eq!(both.high_water(), &[a, b]);
        assert_eq!(both.surrogate_edge_count(), 0);
    }

    #[test]
    fn multi_predicate_account_bridges_with_surrogate_edges() {
        let (graph, lattice, [pub_a, na, _, pub_b], [a, _]) = incomparable_fixture();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        // With only A, nB is absent: a surrogate edge bridges nA → pubB.
        let only_a = generate_for_set(&ctx, &[a]).unwrap();
        let na2 = only_a.account_node(na).unwrap();
        let pub_b2 = only_a.account_node(pub_b).unwrap();
        assert!(only_a.graph().has_edge(na2, pub_b2));
        assert!(only_a.is_surrogate_edge((na2, pub_b2)));
        let pub_a2 = only_a.account_node(pub_a).unwrap();
        assert!(crate::query::reaches(only_a.graph(), pub_a2, pub_b2));
    }

    #[test]
    fn set_markings_take_most_permissive_member() {
        let (graph, lattice, [pub_a, na, _, _], [a, b]) = incomparable_fixture();
        let mut markings = MarkingStore::new();
        // The (pubA, nA) edge is hidden from A but visible to B.
        markings.set_edge((pub_a, na), a, Marking::Hide);
        markings.set_edge((pub_a, na), b, Marking::Visible);
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let only_a = generate_for_set(&ctx, &[a]).unwrap();
        assert!(!only_a.original_edge_present((pub_a, na)), "hidden via A");
        let both = generate_for_set(&ctx, &[a, b]).unwrap();
        assert!(
            both.original_edge_present((pub_a, na)),
            "the B grant re-admits the edge for the {{A,B}} account"
        );
    }

    #[test]
    fn dominated_members_are_redundant() {
        // {High, Public} reduces to {High}: same account either way.
        let fx = chain_fixture(true);
        let high = fx.lattice.by_name("High").unwrap();
        let public = fx.lattice.public();
        let ctx = fx.ctx();
        let single = generate_for_set(&ctx, &[high]).unwrap();
        let set = generate_for_set(&ctx, &[public, high]).unwrap();
        assert_eq!(set.high_water(), &[high]);
        assert_eq!(single.graph().node_count(), set.graph().node_count());
        assert_eq!(single.graph().edge_count(), set.graph().edge_count());
    }

    #[test]
    fn redundancy_filter_ablation_keeps_soundness() {
        // Without the filter, every permitted pair becomes an edge: a
        // superset of the filtered account with identical connectivity.
        let (graph, lattice, _, [a, _]) = incomparable_fixture();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let filtered = generate_for_set(&ctx, &[a]).unwrap();
        let unfiltered = generate_with_options(
            &ctx,
            &[a],
            GenerateOptions {
                redundancy_filter: false,
            },
        )
        .unwrap();
        assert!(unfiltered.graph().edge_count() >= filtered.graph().edge_count());
        for (u2, v2) in filtered.graph().edges() {
            let u = filtered.original_node(u2);
            let v = filtered.original_node(v2);
            let uu = unfiltered.account_node(u).unwrap();
            let vv = unfiltered.account_node(v).unwrap();
            assert!(unfiltered.graph().has_edge(uu, vv));
        }
        let violations = crate::validate::check_all(&ctx, &unfiltered);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn protected_edges_lists_unrepresented_originals() {
        let fx = chain_fixture(false);
        let public = fx.lattice.public();
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        let protected: Vec<Edge> = account.protected_edges(&fx.graph).collect();
        // Both original edges touched the hidden b.
        assert_eq!(protected.len(), 2);
    }

    #[test]
    fn csr_path_matches_reference_path_on_fixtures() {
        let fixtures = [chain_fixture(false), chain_fixture(true)];
        for fx in &fixtures {
            let public = fx.lattice.public();
            let ctx = fx.ctx();
            let csr = Csr::build(&fx.graph);
            for ctx in [ctx, ctx.with_csr(&csr)] {
                let fast = generate_for_set(&ctx, &[public]).unwrap();
                let slow = reference::generate_for_set(&ctx, &[public]).unwrap();
                assert_eq!(fast.graph().node_count(), slow.graph().node_count());
                let fast_edges: Vec<Edge> = fast.graph().edges().collect();
                let slow_edges: Vec<Edge> = slow.graph().edges().collect();
                assert_eq!(fast_edges, slow_edges, "identical edges, same order");
                assert_eq!(fast.surrogate_edge_count(), slow.surrogate_edge_count());
            }
        }
        let (graph, lattice, _, [a, b]) = incomparable_fixture();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        for preds in [vec![a], vec![b], vec![a, b]] {
            let fast = generate_for_set(&ctx, &preds).unwrap();
            let slow = reference::generate_for_set(&ctx, &preds).unwrap();
            let fast_edges: Vec<Edge> = fast.graph().edges().collect();
            let slow_edges: Vec<Edge> = slow.graph().edges().collect();
            assert_eq!(fast_edges, slow_edges);
        }
    }

    /// An all-public graph over `edges` where the nodes in `pass` are
    /// pass-through: public, with every incidence `Surrogate`-marked, so
    /// walks cross them but no pair starts or ends there.
    fn pass_through_fixture(nodes: usize, edges: &[(usize, usize)], pass: &[usize]) -> Fixture {
        let (lattice, _) = PrivilegeLattice::flat(&[]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let ids: Vec<NodeId> = (0..nodes)
            .map(|i| graph.add_node(format!("n{i}"), public))
            .collect();
        for &(a, b) in edges {
            graph.add_edge(ids[a], ids[b]).unwrap();
        }
        let mut markings = MarkingStore::new();
        for &n in pass {
            markings.set_node(ids[n], public, Marking::Surrogate);
        }
        Fixture {
            graph,
            lattice,
            markings,
            catalog: SurrogateCatalog::new(),
            ids,
        }
    }

    /// The generated account, after checking it is valid and equal to the
    /// reference's edge for edge.
    fn generate_checked(fx: &Fixture) -> ProtectedAccount {
        let ctx = fx.ctx();
        let public = fx.lattice.public();
        let account = generate_for_set(&ctx, &[public]).unwrap();
        let spec = reference::generate_for_set(&ctx, &[public]).unwrap();
        let edges: Vec<Edge> = account.graph().edges().collect();
        let spec_edges: Vec<Edge> = spec.graph().edges().collect();
        assert_eq!(edges, spec_edges, "identical edges, same order");
        let violations = crate::validate::check_all(&ctx, &account);
        assert!(violations.is_empty(), "{violations:?}");
        account
    }

    #[test]
    fn cond2_hazard_keeps_the_pair_past_a_capable_node() {
        // u→x is shown and x can record pairs, but the direct x→v is
        // Surrogate-marked at v, so Def. 8 cond. 2 forbids (x, v): x is no
        // witness for (u, v), and a walk from u that stopped at x would
        // leave the permitted pair (u, v) disconnected.
        let (u, x, y, v) = (0, 1, 2, 3);
        let mut fx = pass_through_fixture(4, &[(u, x), (x, y), (y, v), (x, v)], &[y]);
        let public = fx.lattice.public();
        fx.markings.set(
            fx.ids[v],
            (fx.ids[x], fx.ids[v]),
            public,
            Marking::Surrogate,
        );
        let account = generate_checked(&fx);
        let edge = (
            account.account_node(fx.ids[u]).unwrap(),
            account.account_node(fx.ids[v]).unwrap(),
        );
        assert!(account.graph().has_edge(edge.0, edge.1), "u→v past x");
        assert!(account.is_surrogate_edge(edge));
    }

    #[test]
    fn off_geodesic_witness_behind_relays_drops_the_pair() {
        // (u, v) is at depth 5 over four pass-through nodes and no relay.
        // Its only witness is w — d(u, w) = 4 behind u's relay x,
        // d(w, v) = 4 — which lies on no shortest walk from u, and whose
        // own walk stops at its relay r, two levels short of v.
        let (u, x, w, r, v) = (0, 1, 2, 3, 4);
        let fx = pass_through_fixture(
            13,
            &[
                (u, x),
                (x, 5),
                (5, 6),
                (6, w),
                (u, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, v),
                (w, r),
                (r, 11),
                (11, 12),
                (12, v),
            ],
            &[5, 6, 7, 8, 9, 10, 11, 12],
        );
        let account = generate_checked(&fx);
        let node = |n: usize| account.account_node(fx.ids[n]).unwrap();
        assert!(!account.graph().has_edge(node(u), node(v)), "w splits it");
        for (a, b) in [(x, w), (r, v)] {
            assert!(account.is_surrogate_edge((node(a), node(b))));
        }
    }

    #[test]
    fn relay_recorded_after_its_visit_expands_as_an_ordinary_node() {
        // u reaches relay y at level 2 over the non-recording a→y and
        // records it at depth 3 over w→y, from the same level and earlier
        // in it: d(u, y) = 3, yet y expands at level 2, so (u, v) is at
        // depth 3 too and y is no witness for it.
        let (u, c, a, w, y, v) = (0, 1, 2, 3, 4, 5);
        let mut fx = pass_through_fixture(
            6,
            &[(u, c), (u, a), (c, w), (a, y), (w, y), (y, v)],
            &[c, a, w],
        );
        let public = fx.lattice.public();
        fx.markings.set(
            fx.ids[y],
            (fx.ids[a], fx.ids[y]),
            public,
            Marking::Surrogate,
        );
        let account = generate_checked(&fx);
        let node = |n: usize| account.account_node(fx.ids[n]).unwrap();
        for target in [y, v] {
            assert!(account.is_surrogate_edge((node(u), node(target))));
        }
    }

    /// A layered DAG, 8 wide, each node fed by two of the layer above;
    /// every 7th node needs High, has a Public surrogate and
    /// `Surrogate`-marked incidences.
    fn layered_fixture(nodes: usize) -> Fixture {
        const WIDTH: usize = 8;
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let public = lattice.public();
        let mut graph = Graph::new();
        let mut markings = MarkingStore::new();
        let mut catalog = SurrogateCatalog::new();
        let mut ids = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let protected = i % 7 == 0;
            let id = graph.add_node(format!("n{i}"), if protected { preds[0] } else { public });
            if protected {
                markings.set_node(id, public, Marking::Surrogate);
                catalog.add(
                    id,
                    SurrogateDef {
                        label: format!("n{i}'"),
                        features: Features::new(),
                        lowest: public,
                        info_score: 0.5,
                    },
                );
            }
            ids.push(id);
            if i >= WIDTH {
                let above = i / WIDTH * WIDTH - WIDTH;
                for slot in [i % WIDTH, (i + 1) % WIDTH] {
                    graph.add_edge(ids[above + slot], id).unwrap();
                }
            }
        }
        Fixture {
            graph,
            lattice,
            markings,
            catalog,
            ids,
        }
    }

    #[test]
    fn walk_work_is_linear_in_the_graph() {
        // Counted, not timed: the counts repeat exactly. A generator that
        // walked the graph from every source would examine about V/2
        // edges per source here, not four.
        for nodes in [2_000usize, 8_000] {
            let fx = layered_fixture(nodes);
            let public = fx.lattice.public();
            let (account, counts) =
                generate_counted(&fx.ctx(), &[public], GenerateOptions::default()).unwrap();
            let edges = fx.graph.edge_count() as u64;
            assert!(account.surrogate_edge_count() > nodes / 7);
            assert_eq!(counts.walks, nodes as u64, "every node is present");
            assert!(
                counts.edges_examined <= 4 * edges,
                "{nodes} nodes, {edges} edges: {counts:?}"
            );
            assert!(counts.rewalks <= nodes as u64 / 10, "{counts:?}");
        }
    }

    /// Asserts `got` is `want` in every field, in order.
    fn assert_same(got: &ProtectedAccount, want: &ProtectedAccount) {
        let edges: Vec<Edge> = want.graph.edges().collect();
        assert_eq!(got.graph.edges().collect::<Vec<_>>(), edges, "edge order");
        for (i, &edge) in edges.iter().enumerate() {
            assert_eq!(got.graph.edge_index(edge), Some(i));
        }
        for n in want.graph.node_ids() {
            assert_eq!(got.graph.out_neighbors(n), want.graph.out_neighbors(n));
            assert_eq!(got.graph.in_neighbors(n), want.graph.in_neighbors(n));
            assert_eq!(got.graph.node(n), want.graph.node(n));
        }
        assert_eq!(got.to_account, want.to_account);
        assert_eq!(got.to_original, want.to_original);
        assert_eq!(got.correspondence, want.correspondence);
        assert_eq!(got.surrogate_edges, want.surrogate_edges);
    }

    /// The Public account of `fx`, before the test appends to it.
    fn public_account(fx: &Fixture) -> ProtectedAccount {
        generate_for_set(&fx.ctx(), &[fx.lattice.public()]).unwrap()
    }

    /// Extends `prev` to `fx`'s graph and checks the result against a
    /// generation and the reference.
    fn extend_checked(fx: &Fixture, prev: ProtectedAccount) -> ProtectedAccount {
        let ctx = fx.ctx();
        let public = fx.lattice.public();
        let extended = ctx.extend_account(prev).expect("an append into new nodes");
        assert_same(&extended, &generate_for_set(&ctx, &[public]).unwrap());
        assert_same(
            &extended,
            &reference::generate_for_set(&ctx, &[public]).unwrap(),
        );
        extended
    }

    /// A Public-and-High fixture over `edges`; the nodes in `high` need
    /// High and have no surrogate, so they are absent and, with every
    /// incidence Visible, pass walks through.
    fn absent_fixture(nodes: usize, edges: &[(usize, usize)], high: &[usize]) -> Fixture {
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let mut graph = Graph::new();
        let ids: Vec<NodeId> = (0..nodes)
            .map(|i| {
                let lowest = if high.contains(&i) {
                    preds[0]
                } else {
                    lattice.public()
                };
                graph.add_node(format!("n{i}"), lowest)
            })
            .collect();
        for &(a, b) in edges {
            graph.add_edge(ids[a], ids[b]).unwrap();
        }
        Fixture {
            graph,
            lattice,
            markings: MarkingStore::new(),
            catalog: SurrogateCatalog::new(),
            ids,
        }
    }

    /// Appends a Public node with edges into it from `from`.
    fn append_public(fx: &mut Fixture, from: &[usize]) -> NodeId {
        let x = fx.graph.add_node("x", fx.lattice.public());
        for &a in from {
            fx.graph.add_edge(fx.ids[a], x).unwrap();
        }
        fx.ids.push(x);
        x
    }

    #[test]
    fn extension_keeps_the_whole_ancestor_region() {
        // u→s→w, w→y1→y→x and u→p→q→r→x with s, y1, p, q, r absent:
        // d(u, x) = 4 over p, and w drops the pair (d(u, w) = 2,
        // d(w, x) = 3). y is no witness (d(u, y) = 4), but a search into
        // x that stopped at y — whose one in-edge is Visible–Visible —
        // would never find d(w, x), and emit u→x.
        let (u, s, w, y1, y, p, q, r) = (0, 1, 2, 3, 4, 5, 6, 7);
        let mut fx = absent_fixture(
            8,
            &[(u, s), (s, w), (w, y1), (y1, y), (u, p), (p, q), (q, r)],
            &[s, y1, p, q, r],
        );
        let prev = public_account(&fx);
        let x = append_public(&mut fx, &[y, r]);
        let account = extend_checked(&fx, prev);
        let node = |n: NodeId| account.account_node(n).unwrap();
        assert!(
            !account.graph.has_edge(node(fx.ids[u]), node(x)),
            "w splits it"
        );
        assert!(account.is_surrogate_edge((node(fx.ids[u]), node(fx.ids[w]))));
        assert!(account.is_surrogate_edge((node(fx.ids[w]), node(fx.ids[y]))));
    }

    #[test]
    fn extension_forbids_a_pair_over_a_protected_direct_edge() {
        // u→a→x with a absent would bridge u→x, but the direct u→x is
        // Surrogate-marked at x: Def. 8 cond. 2 forbids the pair.
        let (u, a) = (0, 1);
        let mut fx = absent_fixture(2, &[(u, a)], &[a]);
        let prev = public_account(&fx);
        let x = append_public(&mut fx, &[a, u]);
        let public = fx.lattice.public();
        fx.markings
            .set(x, (fx.ids[u], x), public, Marking::Surrogate);
        let account = extend_checked(&fx, prev);
        let (u2, x2) = (
            account.account_node(fx.ids[u]).unwrap(),
            account.account_node(x).unwrap(),
        );
        assert!(!account.graph.has_edge(u2, x2));
        assert_eq!(account.graph.edge_count(), 0);
    }

    #[test]
    fn extension_bridges_through_a_node_shown_as_its_surrogate() {
        // a→b with b shown as b' and its role Surrogate-marked: the new
        // b→c makes the pair (a, c), bridged past b', which stays
        // isolated (Fig. 2(d)).
        let mut fx = chain_fixture(true);
        let c = fx.ids[2];
        fx.graph = Graph::new();
        let public = fx.lattice.public();
        let high = fx.lattice.by_name("High").unwrap();
        let (a, b) = (fx.graph.add_node("a", public), fx.graph.add_node("b", high));
        fx.graph.add_edge(a, b).unwrap();
        let prev = public_account(&fx);
        assert_eq!(fx.graph.add_node("c", public), c);
        fx.graph.add_edge(b, c).unwrap();
        let account = extend_checked(&fx, prev);
        let node = |n: NodeId| account.account_node(n).unwrap();
        assert!(account.is_surrogate_edge((node(a), node(c))));
        assert_eq!(account.graph.degree(node(b)), 0, "b' isolated");
    }

    #[test]
    fn extension_walks_a_cycle_among_new_nodes() {
        // u→x→y→z→x, all new but u, with x's role Surrogate-marked: u and
        // z reach y past x, y→z is shown, and (u, z) splits at y.
        let mut fx = pass_through_fixture(1, &[], &[]);
        let prev = public_account(&fx);
        let public = fx.lattice.public();
        let [x, y, z] = ["x", "y", "z"].map(|label| fx.graph.add_node(label, public));
        for (a, b) in [(fx.ids[0], x), (x, y), (y, z), (z, x)] {
            fx.graph.add_edge(a, b).unwrap();
        }
        fx.markings.set_node(x, public, Marking::Surrogate);
        let account = extend_checked(&fx, prev);
        let node = |n: NodeId| account.account_node(n).unwrap();
        let u = fx.ids[0];
        for (a, b) in [(u, y), (z, y)] {
            assert!(account.is_surrogate_edge((node(a), node(b))));
        }
        assert!(account.graph.has_edge(node(y), node(z)));
        assert!(!account.graph.has_edge(node(u), node(z)));
    }

    #[test]
    fn extension_splices_a_shown_edge_ahead_of_surrogate_edges() {
        // u→b→c with b absent gives u the surrogate edge u→c; a new
        // shown u→x joins the shown block, ahead of it, in u's
        // out-list as in the edge list.
        let (u, b, c) = (0, 1, 2);
        let mut fx = absent_fixture(3, &[(u, b), (b, c)], &[b]);
        let prev = public_account(&fx);
        let x = append_public(&mut fx, &[u]);
        let account = extend_checked(&fx, prev);
        let node = |n: NodeId| account.account_node(n).unwrap();
        let (u2, c2, x2) = (node(fx.ids[u]), node(fx.ids[c]), node(x));
        assert_eq!(account.graph.out_neighbors(u2), &[x2, c2]);
        assert_eq!(
            account.graph.edges().collect::<Vec<_>>(),
            vec![(u2, x2), (u2, c2)]
        );
        assert!(account.is_surrogate_edge((u2, c2)));
    }

    #[test]
    fn extension_refuses_writes_about_old_nodes() {
        let (u, b) = (0, 1);
        let fresh = || absent_fixture(2, &[(u, b)], &[b]);
        let refused = |fx: &Fixture, prev: ProtectedAccount| {
            assert!(fx.ctx().extend_account(prev).is_none());
        };
        let public = fresh().lattice.public();

        // A marking of an old node, beside an append.
        let mut fx = fresh();
        let prev = public_account(&fx);
        append_public(&mut fx, &[b]);
        fx.markings.set_node(fx.ids[u], public, Marking::Surrogate);
        refused(&fx, prev);

        // A surrogate for an old node.
        let mut fx = fresh();
        let prev = public_account(&fx);
        fx.catalog.add(fx.ids[b], SurrogateDef::null(&fx.lattice));
        refused(&fx, prev);

        // An edge into an old node.
        let mut fx = fresh();
        let prev = public_account(&fx);
        let x = append_public(&mut fx, &[]);
        fx.graph.add_edge(x, fx.ids[u]).unwrap();
        refused(&fx, prev);

        // Another graph of the same shape, and an unfiltered account.
        let fx = fresh();
        refused(&fx, public_account(&fresh()));
        let unfiltered = GenerateOptions {
            redundancy_filter: false,
        };
        refused(
            &fx,
            generate_with_options(&fx.ctx(), &[public], unfiltered).unwrap(),
        );
    }

    #[test]
    fn extension_work_is_local_to_the_append() {
        // Counted, as `walk_work_is_linear_in_the_graph`: a sink under a
        // first-layer node has no ancestor past its parent, whatever the
        // graph's size; a sink under the last layer has most of the graph
        // above it.
        let mut first_layer = Vec::new();
        for nodes in [2_000usize, 8_000] {
            for parent in [1, nodes - 2] {
                let mut fx = layered_fixture(nodes);
                let prev = public_account(&fx);
                append_public(&mut fx, &[parent]);
                let (account, examined) = extend_counted(&fx.ctx(), prev).unwrap();
                assert_same(&account, &public_account(&fx));
                if parent == 1 {
                    first_layer.push(examined);
                } else {
                    println!("{nodes} nodes, sink under the last layer: {examined} edges");
                }
            }
        }
        assert_eq!(first_layer[0], first_layer[1], "{first_layer:?}");
    }

    #[test]
    fn a_burst_of_appends_is_left_to_a_generation() {
        // Catches: the column budget unchecked. A sink under the last
        // layer searches most of the graph, so a few of them extend and
        // a few hundred cost more than generating.
        let nodes = 2_000;
        for (sinks, extends) in [(4, true), (400, false)] {
            let mut fx = layered_fixture(nodes);
            let prev = public_account(&fx);
            for i in 0..sinks {
                append_public(&mut fx, &[nodes - 1 - i % 8]);
            }
            let extended = extend_counted(&fx.ctx(), prev);
            assert_eq!(extended.is_some(), extends, "{sinks} sinks");
            if let Some((account, _)) = extended {
                assert_same(&account, &public_account(&fx));
            }
        }
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn with_csr_rejects_an_index_of_another_epoch() {
        let mut fx = chain_fixture(false);
        let stale = Csr::build(&fx.graph);
        let public = fx.lattice.public();
        fx.graph.add_node("later", public);
        let _ = fx.ctx().with_csr(&stale);
    }

    #[test]
    fn original_edge_present_detects_shown_edges() {
        let mut fx = chain_fixture(true);
        fx.markings = MarkingStore::new();
        let public = fx.lattice.public();
        let account = generate_for_set(&fx.ctx(), &[public]).unwrap();
        assert!(account.original_edge_present((fx.ids[0], fx.ids[1])));
        assert!(account.original_edge_present((fx.ids[1], fx.ids[2])));
        assert!(!account.original_edge_present((fx.ids[0], fx.ids[2])));
    }
}
