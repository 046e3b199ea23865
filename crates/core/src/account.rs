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
//! [`ProtectionContext::protect`] (or pluggably through the
//! [`strategy`](crate::strategy) trait layer):
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

use std::collections::VecDeque;

use crate::error::Result;
use crate::graph::{Csr, Edge, Graph, NodeId};
use crate::marking::{Marking, MarkingStore};
use crate::privilege::{PrivilegeId, PrivilegeLattice};
use crate::surrogate::SurrogateCatalog;
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
/// This is the thin, serializable *selector* for the three built-in
/// strategies — the right type for CLI flags, wire formats, and cache
/// keys. The open extension point is the
/// [`ProtectionStrategy`](crate::strategy::ProtectionStrategy) trait,
/// which this enum implements by dispatching to the built-ins; new
/// redaction policies implement the trait instead of growing this enum.
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

    /// The stable name used for CLI flags, registries, and cache keys.
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
    pub fn with_csr(mut self, csr: &'a Csr) -> Self {
        debug_assert_eq!(csr.node_count(), self.graph.node_count());
        debug_assert_eq!(csr.edge_count(), self.graph.edge_count());
        self.csr = Some(csr);
        self
    }

    /// The attached CSR index, if any.
    pub fn csr(&self) -> Option<&'a Csr> {
        self.csr
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
enum NodePlan {
    Original,
    Surrogate {
        label: String,
        features: crate::feature::Features,
        lowest: PrivilegeId,
        info_score: f64,
    },
    Absent,
}

/// Node layer shared by [`generate_for_set`] and
/// [`generate_hide_for_set`]: originals when dominated (Def. 9.1),
/// otherwise the most dominant visible surrogate (Def. 9.2), otherwise
/// absent.
fn plan_nodes(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    use_catalog: bool,
) -> Vec<NodePlan> {
    ctx.graph
        .node_ids()
        .map(|n| {
            if ctx.lattice.set_dominates(preds, ctx.graph.node(n).lowest) {
                return NodePlan::Original;
            }
            if use_catalog {
                if let Some(def) = ctx
                    .catalog
                    .most_dominant_visible_for_set(ctx.lattice, n, preds)
                {
                    return NodePlan::Surrogate {
                        label: def.label.clone(),
                        features: def.features.clone(),
                        lowest: def.lowest,
                        info_score: def.info_score,
                    };
                }
            }
            NodePlan::Absent
        })
        .collect()
}

/// Materializes the node layer into an account skeleton.
fn build_node_layer(
    ctx: &ProtectionContext<'_>,
    preds: &[PrivilegeId],
    strategy: Strategy,
    plans: Vec<NodePlan>,
) -> ProtectedAccount {
    let original = ctx.graph;
    let mut graph = Graph::with_capacity(original.node_count(), original.edge_count());
    let mut to_account = vec![None; original.node_count()];
    let mut to_original = Vec::new();
    let mut correspondence = Vec::new();

    for (i, plan) in plans.into_iter().enumerate() {
        let n = NodeId(i as u32);
        match plan {
            NodePlan::Original => {
                let node = original.node(n);
                let id = graph.add_node_with_features(
                    node.label.clone(),
                    node.features.clone(),
                    node.lowest,
                );
                to_account[i] = Some(id);
                to_original.push(n);
                correspondence.push(Correspondence::Original);
            }
            NodePlan::Surrogate {
                label,
                features,
                lowest,
                info_score,
            } => {
                let id = graph.add_node_with_features(label, features, lowest);
                to_account[i] = Some(id);
                to_original.push(n);
                correspondence.push(Correspondence::Surrogate { info_score });
            }
            NodePlan::Absent => {}
        }
    }

    ProtectedAccount {
        graph,
        hw: preds.to_vec(),
        strategy,
        to_account,
        to_original,
        correspondence,
        surrogate_edges: FxHashSet::default(),
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

    fn resolve(ctx: &ProtectionContext<'_>, preds: &[PrivilegeId], csr: &Csr) -> EdgeTables {
        let e = csr.edge_count();
        let m = ctx.markings;
        let flags_for = |src: Marking, dst: Marking| {
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
        };
        // Uniform store: every incidence resolves to the default marking.
        if m.rule_count() == 0 {
            let d = m.default_marking();
            return EdgeTables {
                flags: vec![flags_for(d, d); e],
            };
        }
        let mut flags = vec![0u8; e];
        for (id, slot) in flags.iter_mut().enumerate() {
            let edge = csr.endpoints(id);
            let src = m.mark_for_set(edge.0, edge, preds);
            let dst = m.mark_for_set(edge.1, edge, preds);
            *slot = flags_for(src, dst);
        }
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
/// marking resolution, the permitted-reach BFS, and the redundancy
/// filter all address dense per-edge/per-node arrays instead of hashing
/// node or edge keys. Surrogate edges are emitted in canonical
/// `(source, target)` order, so accounts are deterministic and
/// comparable edge-for-edge with [`reference::generate_with_options`].
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

    let owned_csr;
    let csr = match ctx.csr {
        Some(csr) => csr,
        None => {
            owned_csr = Csr::build(ctx.graph);
            &owned_csr
        }
    };
    let tables = EdgeTables::resolve(ctx, &preds, csr);
    let n = csr.node_count();
    let e = csr.edge_count();

    // Visible–Visible original edges with both endpoints present, in
    // insertion order (Algorithm 1 lines 13–14, as in `add_shown_edges`).
    for id in 0..e {
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

    let present: Vec<bool> = (0..n).map(|i| account.to_account[i].is_some()).collect();

    // Pre-filtered adjacency, resolved once per call and shared by every
    // per-source BFS: the non-hidden out-edges of each node in CSR
    // layout, with the per-edge Def. 8 facts folded into a byte — bit 0:
    // the edge can *record* its target as a permitted pair (destination
    // incidence Visible and target present); bit 1: the edge can *seed*
    // a walk (source incidence Visible). The O(V × E) walks below then
    // read two small sequential arrays instead of gathering from the
    // flag table and the presence map on every edge examination.
    const REC: u8 = 1;
    const SEED: u8 = 1 << 1;
    let mut fadj_start = vec![0u32; n + 1];
    let mut fadj_target: Vec<u32> = Vec::with_capacity(e);
    let mut fadj_bits: Vec<u8> = Vec::with_capacity(e);
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
                bits |= REC;
            }
            if f & EdgeTables::SRC_VISIBLE != 0 {
                bits |= SEED;
            }
            fadj_target.push(x);
            fadj_bits.push(bits);
        }
    }
    fadj_start[n] = fadj_target.len() as u32;

    // Per-source BFS over the non-hidden subgraph (the repaired
    // Algorithm 2; see `permitted_reach` for the Def. 8 reasoning). The
    // frontier holds *nodes* in level-synchronous `Vec`s, and every node
    // expands its out-edges at most once per source — at its BFS-minimal
    // depth — so each edge is examined exactly once per source and
    // frontier traffic is O(V), not O(E). Examining edge `(w, x)` at
    // `depth(w) + 1` both records the row for `x` (first qualifying
    // examination = shortest permitted walk, because examinations happen
    // in nondecreasing source depth) and enqueues `x` if unvisited.
    //
    // `status` packs the per-node visited stamp (low 32 bits) and
    // row-recorded stamp (high 32 bits) into one word, so the hot path
    // touches a single cache line per node; all scratch is stamped
    // instead of cleared, keeping per-source setup at O(out-degree).
    let mut status = vec![0u64; n];
    let mut cand_depth = vec![0u32; n];
    let mut direct = vec![0u32; n];
    let mut direct_id = vec![0u32; n];
    let mut frontier: Vec<u32> = Vec::new();
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut stamp = 0u32;

    // Shortest permitted-pair rows, arena-allocated: source `u`'s rows
    // live in `rows_flat[row_start[u]..row_start[u + 1]]`, sorted by
    // target so the redundancy filter can binary-search `d(w, v)`
    // instead of hashing. `deep_flat` carries the same rows per source as
    // `(depth, target)` in nondecreasing depth order — recorded for free
    // by the level-synchronous BFS — so the redundancy filter can stop
    // scanning witnesses at the candidate's own depth. One pair of
    // growing buffers instead of `Vec`s per source keeps the BFS free of
    // per-source reallocation.
    let mut rows_flat: Vec<(u32, u32)> = Vec::new();
    let mut deep_flat: Vec<(u32, u32)> = Vec::new();
    let mut row_start: Vec<u32> = vec![0u32; n + 1];

    for u in ctx.graph.node_ids() {
        let ui = u.index();
        row_start[ui] = rows_flat.len() as u32;
        if !present[ui] {
            continue;
        }
        stamp += 1;
        let (targets, edge_ids) = csr.out(u);
        // Def. 8 cond. 2 lookup table: direct edges out of `u`.
        for (&t, &id) in targets.iter().zip(edge_ids) {
            direct[t as usize] = stamp;
            direct_id[t as usize] = id;
        }
        // Examines filtered edge `(w, x)` (bits `b`) entering `x` at
        // `depth`: Def. 8 cond. 1 — recordability (destination incidence
        // Visible, target present) was folded into `REC`; cond. 2 — a
        // direct edge between the pair, if any, must be Visible–Visible.
        let recorded = (stamp as u64) << 32;
        macro_rules! examine {
            ($x:expr, $b:expr, $depth:expr, $next:expr) => {
                let xi = $x as usize;
                let s = status[xi];
                if $b & REC != 0
                    && (s >> 32) as u32 != stamp
                    && $x != u.0
                    && (direct[xi] != stamp
                        || tables.flags[direct_id[xi] as usize] & EdgeTables::VISIBLE != 0)
                {
                    status[xi] = (status[xi] & 0xFFFF_FFFF) | recorded;
                    cand_depth[xi] = $depth;
                    deep_flat.push(($depth, $x));
                }
                if s as u32 != stamp {
                    status[xi] = (status[xi] & !0xFFFF_FFFF) | stamp as u64;
                    $next.push($x);
                }
            };
        }
        let fedges = |w: usize| {
            let (lo, hi) = (fadj_start[w] as usize, fadj_start[w + 1] as usize);
            fadj_target[lo..hi].iter().zip(&fadj_bits[lo..hi])
        };
        // Def. 8: the source's incidence on the first edge must be
        // Visible. `u` itself stays unvisited: if a cycle re-enters it,
        // it expands *all* its non-hidden out-edges as an intermediate
        // (re-examining a seed edge is harmless — the row conditions are
        // depth-independent, so it either recorded at depth 1 or never
        // will).
        frontier.clear();
        for (&x, &b) in fedges(ui) {
            if b & SEED == 0 {
                continue;
            }
            examine!(x, b, 1, frontier);
        }
        let mut depth = 1;
        while !frontier.is_empty() {
            depth += 1;
            next_frontier.clear();
            for &w in &frontier {
                for (&x, &b) in fedges(w as usize) {
                    examine!(x, b, depth, next_frontier);
                }
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
        }
        // Harvest the recorded targets by scanning node ids in order: the
        // rows come out target-sorted without a comparison sort, which
        // both the redundancy filter's binary search and the canonical
        // (deterministic) emission order below rely on.
        for (x, s) in status.iter().enumerate() {
            if (s >> 32) as u32 == stamp {
                rows_flat.push((x as u32, cand_depth[x]));
            }
        }
    }
    row_start[n] = rows_flat.len() as u32;
    let rows = |w: usize| &rows_flat[row_start[w] as usize..row_start[w + 1] as usize];
    let rows_by_depth = |w: usize| &deep_flat[row_start[w] as usize..row_start[w + 1] as usize];

    for u in ctx.graph.node_ids() {
        let ui = u.index();
        let own = rows(ui);
        if own.is_empty() {
            continue;
        }
        stamp += 1;
        // A Visible–Visible direct edge is already shown; any other direct
        // edge forbids the pair (Def. 8 cond. 2) and was never recorded.
        let (targets, _) = csr.out(u);
        for &t in targets {
            direct[t as usize] = stamp;
        }
        let u_acct = account.to_account[ui].expect("present source");
        for &(v, d) in own {
            if direct[v as usize] == stamp {
                continue;
            }
            // Redundancy rule: skip when the pair splits into strictly
            // shorter permitted pairs via a present intermediate — a
            // witness must be strictly closer than the candidate, so only
            // the depth-ascending prefix `dw < d` is worth scanning.
            if options.redundancy_filter {
                let decomposable =
                    rows_by_depth(ui)
                        .iter()
                        .take_while(|&&(dw, _)| dw < d)
                        .any(|&(_, w)| {
                            w != v && {
                                let via = rows(w as usize);
                                via.binary_search_by_key(&v, |&(t, _)| t)
                                    .is_ok_and(|pos| via[pos].1 < d)
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
    Ok(account)
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
