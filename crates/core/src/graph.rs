//! The directed graph model of paper §2.
//!
//! A graph `G = (N, E)` has nodes carrying features and a `lowest`
//! privilege-predicate (Def. 3), and directed edges between node pairs.
//! Bi-directional relationships are modeled as two directed edges. The
//! representation is a simple digraph (no parallel edges, no self-loops)
//! with both adjacency directions materialized, because account generation
//! walks edges both ways and the opacity measure needs in/out degrees.
//! Each direction is one arena of node ids, not a list per node, so a
//! graph is a few heap blocks however many nodes it has.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::feature::Features;
use crate::privilege::PrivilegeId;
use crate::util::{BitSet, FxHashMap, UnionFind};

/// Index of a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense index, for addressing per-node side tables (such
    /// as the vectors returned by [`Graph::connected_counts`] or
    /// [`crate::measures::path_percentages`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed edge, identified by its endpoints.
pub type Edge = (NodeId, NodeId);

/// Node payload: a label for humans, features, and the lowest
/// privilege-predicate required to see the node (Def. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable label; used by examples and generators, not required
    /// to be unique.
    pub label: String,
    /// Attribute–value features (§2).
    pub features: Features,
    /// `lowest(n)`: the weakest predicate through which `n` is visible.
    pub lowest: PrivilegeId,
}

/// One node's row of an [`Adjacency`]: `len` ids at `start`, with room
/// for `cap` before the next row's cells.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// One direction of a graph's adjacency: every node's row is a [`Span`]
/// of one arena of node ids.
///
/// A row with room takes a new id in place. A full row at the arena's
/// end grows there; any other full row moves to the end with twice its
/// room, leaving its old cells dead. Once dead cells outnumber the ids
/// held, the arena is rewritten in node order with every row exactly
/// full, so it stays within a small factor of the edge count. A push
/// costs amortized O(1) plus a share of a pass over the spans per
/// compaction; an insertion also shifts its row's tail.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    spans: Vec<Span>,
    cells: Vec<NodeId>,
    /// Ids held: the sum of the rows' lengths.
    live: usize,
    /// Cells no span covers any more.
    dead: usize,
}

impl Adjacency {
    fn with_capacity(nodes: usize, edges: usize) -> Self {
        Adjacency {
            spans: Vec::with_capacity(nodes),
            cells: Vec::with_capacity(edges),
            live: 0,
            dead: 0,
        }
    }

    fn add_row(&mut self) {
        self.spans.push(Span {
            start: self.cells.len() as u32,
            len: 0,
            cap: 0,
        });
    }

    #[inline]
    fn row(&self, node: usize) -> &[NodeId] {
        let Span { start, len, .. } = self.spans[node];
        &self.cells[start as usize..(start + len) as usize]
    }

    fn push(&mut self, node: usize, id: NodeId) {
        let len = self.spans[node].len as usize;
        self.insert(node, len, id);
    }

    /// Inserts `id` at position `at` of `node`'s row.
    fn insert(&mut self, node: usize, at: usize, id: NodeId) {
        let span = self.spans[node];
        if span.len == span.cap {
            self.grow(node);
        }
        let span = &mut self.spans[node];
        let (start, len) = (span.start as usize, span.len as usize);
        span.len += 1;
        self.live += 1;
        self.cells
            .copy_within(start + at..start + len, start + at + 1);
        self.cells[start + at] = id;
    }

    /// Doubles the room of `node`'s full row (one cell for an empty one),
    /// compacting the arena first if dead cells outnumber the ids held.
    fn grow(&mut self, node: usize) {
        if self.dead > self.live {
            self.compact();
        }
        let Span { start, len, cap } = self.spans[node];
        let room = (2 * cap).max(1);
        let end = self.cells.len();
        if (start + cap) as usize == end {
            self.cells.resize(end + (room - cap) as usize, NodeId(0));
        } else {
            self.cells
                .extend_from_within(start as usize..(start + len) as usize);
            self.cells.resize(end + room as usize, NodeId(0));
            self.spans[node].start = end as u32;
            self.dead += cap as usize;
        }
        self.spans[node].cap = room;
    }

    /// Rewrites the arena in node order, every row exactly full.
    fn compact(&mut self) {
        let mut cells = Vec::with_capacity(self.live);
        for span in &mut self.spans {
            let (start, len) = (span.start as usize, span.len as usize);
            span.start = cells.len() as u32;
            span.cap = span.len;
            cells.extend_from_slice(&self.cells[start..start + len]);
        }
        self.cells = cells;
        self.dead = 0;
    }
}

/// A directed graph with privilege-annotated nodes.
///
/// Node payloads sit behind an [`Arc`]: a graph derived from another (a
/// materialized epoch from the record log, a protected account from its
/// source graph) shares the payloads it does not change instead of
/// copying them, and cloning a graph copies no label or feature.
///
/// Adjacency is one arena per direction, not a list per node: cloning
/// or dropping a graph (what a pinned epoch and a retired account cost)
/// is a few heap blocks, not two per node. Every row lists its node's
/// neighbours in edge-list order.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Arc<Node>>,
    out: Adjacency,
    inn: Adjacency,
    edge_index: FxHashMap<Edge, u32>,
    edge_list: Vec<Edge>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with node capacity reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut g = Self::new();
        g.nodes.reserve(nodes);
        g.out = Adjacency::with_capacity(nodes, edges);
        g.inn = Adjacency::with_capacity(nodes, edges);
        g.edge_list.reserve(edges);
        g.edge_index.reserve(edges);
        g
    }

    /// Adds a node with no features.
    pub fn add_node(&mut self, label: impl Into<String>, lowest: PrivilegeId) -> NodeId {
        self.add_node_with_features(label, Features::new(), lowest)
    }

    /// Adds a node carrying features.
    pub fn add_node_with_features(
        &mut self,
        label: impl Into<String>,
        features: Features,
        lowest: PrivilegeId,
    ) -> NodeId {
        self.add_shared_node(Arc::new(Node {
            label: label.into(),
            features,
            lowest,
        }))
    }

    /// Adds a node whose payload is shared with whoever else holds
    /// `node` — another graph, or the record log it was read from.
    pub fn add_shared_node(&mut self, node: Arc<Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.out.add_row();
        self.inn.add_row();
        id
    }

    /// Adds the directed edge `from → to`.
    ///
    /// Rejects unknown endpoints, duplicates, and self-loops.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        if from.index() >= self.nodes.len() || to.index() >= self.nodes.len() {
            return Err(Error::UnknownEdgeEndpoint { from, to });
        }
        if from == to {
            return Err(Error::SelfLoop(from));
        }
        match self.edge_index.entry((from, to)) {
            std::collections::hash_map::Entry::Occupied(_) => {
                return Err(Error::DuplicateEdge { from, to });
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.edge_list.len() as u32);
            }
        }
        self.out.push(from.index(), to);
        self.inn.push(to.index(), from);
        self.edge_list.push((from, to));
        Ok(())
    }

    /// Inserts the new edges `shown`, in order, at position `at` of the
    /// edge list, and merges the new edges `sorted` into the edges after
    /// them; those and `sorted` must both be in `(from, to)` order. Every
    /// adjacency list stays in edge-list order, and the positions of the
    /// edges that moved are rewritten in one pass.
    pub(crate) fn splice_edges(&mut self, at: usize, shown: &[Edge], sorted: &[Edge]) {
        if shown.is_empty() && sorted.is_empty() {
            return;
        }
        let Self {
            out,
            inn,
            edge_index,
            edge_list,
            ..
        } = self;
        // An edge keeps its place in a list ahead of every edge that
        // lands after it. New edges are not indexed yet, and precede
        // whatever the next one is inserted ahead of.
        let ahead = |edge: Edge, key: bool| {
            edge_index
                .get(&edge)
                .map_or(true, |&i| (i as usize) < at || key)
        };
        for &(a, b) in shown {
            debug_assert!(a != b && !edge_index.contains_key(&(a, b)));
            let at = out
                .row(a.index())
                .partition_point(|&t| ahead((a, t), false));
            out.insert(a.index(), at, b);
            let at = inn
                .row(b.index())
                .partition_point(|&s| ahead((s, b), false));
            inn.insert(b.index(), at, a);
        }
        for &(a, b) in sorted {
            debug_assert!(a != b && !edge_index.contains_key(&(a, b)));
            let at = out
                .row(a.index())
                .partition_point(|&t| ahead((a, t), t < b));
            out.insert(a.index(), at, b);
            let at = inn
                .row(b.index())
                .partition_point(|&s| ahead((s, b), s < a));
            inn.insert(b.index(), at, a);
        }

        let block = edge_list.split_off(at);
        edge_list.extend_from_slice(shown);
        let mut new = sorted.iter().copied().peekable();
        for &edge in &block {
            while let Some(n) = new.next_if(|&n| n < edge) {
                edge_list.push(n);
            }
            edge_list.push(edge);
        }
        edge_list.extend(new);
        // Only positions from the first insertion on change.
        let first = at
            + if shown.is_empty() {
                sorted
                    .first()
                    .map_or(block.len(), |&s| block.partition_point(|&e| e < s))
            } else {
                0
            };
        for (i, &edge) in edge_list.iter().enumerate().skip(first) {
            edge_index.insert(edge, i as u32);
        }
    }

    /// Adds `a → b` and `b → a` (bi-directional relationship, §2).
    pub fn add_bidirectional(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.add_edge(a, b)?;
        self.add_edge(b, a)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_list.len()
    }

    /// Payload of `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The shared handle to `id`'s payload, for
    /// [`add_shared_node`](Self::add_shared_node) on another graph.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this graph.
    #[inline]
    pub fn shared_node(&self, id: NodeId) -> &Arc<Node> {
        &self.nodes[id.index()]
    }

    /// Mutable payload of `id`. A payload shared with another holder is
    /// copied first, so the change is visible through this graph only.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        Arc::make_mut(&mut self.nodes[id.index()])
    }

    /// `true` if `id` is a node of this graph.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// `true` if the directed edge exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_index.contains_key(&(from, to))
    }

    /// Position of `edge` in insertion order, if present. Stable for the
    /// lifetime of the graph; used for dense per-edge bookkeeping.
    #[inline]
    pub fn edge_index(&self, edge: Edge) -> Option<usize> {
        self.edge_index.get(&edge).map(|&i| i as usize)
    }

    /// Edge at insertion position `index`.
    ///
    /// # Panics
    /// Panics if `index >= edge_count()`.
    #[inline]
    pub fn edge_at(&self, index: usize) -> Edge {
        self.edge_list[index]
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edge_list.iter().copied()
    }

    /// Successors of `id`.
    #[inline]
    pub fn out_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.out.row(id.index())
    }

    /// Predecessors of `id`.
    #[inline]
    pub fn in_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.inn.row(id.index())
    }

    /// Out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out.row(id.index()).len()
    }

    /// In-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.inn.row(id.index()).len()
    }

    /// Total (undirected) degree of `id`.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_degree(id) + self.in_degree(id)
    }

    /// First node with the given label, if any.
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| NodeId(i as u32))
    }

    /// For each node, the number of *other* nodes in its undirected
    /// connected component. This is the "connected (by any length path)"
    /// count underlying the Path Utility Measure (paper §4.1); see
    /// DESIGN.md §3.1 item 1 for why connectivity is undirected.
    pub fn connected_counts(&self) -> Vec<usize> {
        let mut uf = UnionFind::new(self.node_count());
        for (a, b) in self.edges() {
            uf.union(a.index(), b.index());
        }
        (0..self.node_count())
            .map(|i| uf.component_size(i) - 1)
            .collect()
    }

    /// `true` when the underlying undirected graph has a single connected
    /// component (or is empty).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        let mut uf = UnionFind::new(self.node_count());
        for (a, b) in self.edges() {
            uf.union(a.index(), b.index());
        }
        uf.component_size(0) == self.node_count()
    }

    /// Nodes reachable from `start` by directed paths of length ≥ 1.
    pub fn reachable_from(&self, start: NodeId) -> BitSet {
        let mut seen = BitSet::new(self.node_count());
        let mut stack: Vec<NodeId> = self.out_neighbors(start).to_vec();
        while let Some(n) = stack.pop() {
            if seen.insert(n.index()) {
                stack.extend_from_slice(self.out_neighbors(n));
            }
        }
        seen
    }

    /// Average per-node count of reachable nodes (directed). This is the
    /// "connected pairs" statistic of the paper's synthetic experiment
    /// (§6.1.2); see DESIGN.md §3.1 item 6.
    pub fn average_reachable(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        let total: usize = self.node_ids().map(|n| self.reachable_from(n).len()).sum();
        total as f64 / self.node_count() as f64
    }

    /// `true` when the graph contains no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm: a digraph is acyclic iff a topological order
        // consumes every node.
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.inn.row(i).len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut consumed = 0;
        while let Some(i) = queue.pop() {
            consumed += 1;
            for &next in self.out.row(i) {
                indeg[next.index()] -= 1;
                if indeg[next.index()] == 0 {
                    queue.push(next.index());
                }
            }
        }
        consumed == n
    }
}

/// A compressed-sparse-row view of a finished [`Graph`].
///
/// Both adjacency directions are flattened into offset + target arrays,
/// and every adjacency entry carries the *edge id* (the edge's position
/// in [`Graph::edges`] insertion order), so per-edge side tables — mark
/// caches, visited stamps, hidden/visible bitmaps — can be indexed
/// without ever hashing an `(from, to)` pair. Building is `O(V + E)`
/// straight off the graph's insertion-ordered edge list; no hash lookups
/// are involved in construction or traversal.
///
/// The layout is the snapshot currency of the protection hot path: a
/// `Csr` is built once for a cold snapshot (or on the fly for a one-shot
/// protection), [extended](Csr::extend) with its graph from epoch to
/// epoch, and shared read-only across every concurrent account
/// generation against an epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Csr {
    nodes: u32,
    /// `out_offsets[u] .. out_offsets[u + 1]` spans `u`'s out-adjacency.
    out_offsets: Vec<u32>,
    /// Target node of each out-adjacency slot.
    out_targets: Vec<u32>,
    /// Edge id (insertion index) of each out-adjacency slot.
    out_edge_ids: Vec<u32>,
    /// `in_offsets[v] .. in_offsets[v + 1]` spans `v`'s in-adjacency.
    in_offsets: Vec<u32>,
    /// Source node of each in-adjacency slot.
    in_sources: Vec<u32>,
    /// Edge id (insertion index) of each in-adjacency slot.
    in_edge_ids: Vec<u32>,
    /// Endpoints by edge id, mirroring the graph's insertion order.
    endpoints: Vec<(u32, u32)>,
}

impl Csr {
    /// Builds the CSR index of `graph`. Edge ids follow the graph's edge
    /// insertion order, so `graph.edge_at(i) == csr.endpoints(i)`.
    pub fn build(graph: &Graph) -> Csr {
        let n = graph.node_count();
        let e = graph.edge_count();
        let mut out_degree = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        let mut endpoints = Vec::with_capacity(e);
        for (a, b) in graph.edges() {
            out_degree[a.index()] += 1;
            in_degree[b.index()] += 1;
            endpoints.push((a.0, b.0));
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let (mut out_total, mut in_total) = (0u32, 0u32);
        for i in 0..n {
            out_offsets.push(out_total);
            in_offsets.push(in_total);
            out_total += out_degree[i];
            in_total += in_degree[i];
        }
        out_offsets.push(out_total);
        in_offsets.push(in_total);
        let mut out_targets = vec![0u32; e];
        let mut out_edge_ids = vec![0u32; e];
        let mut in_sources = vec![0u32; e];
        let mut in_edge_ids = vec![0u32; e];
        // Reuse the degree arrays as per-node write cursors.
        let mut out_cursor = out_offsets[..n].to_vec();
        let mut in_cursor = in_offsets[..n].to_vec();
        for (id, &(a, b)) in endpoints.iter().enumerate() {
            let slot = out_cursor[a as usize] as usize;
            out_targets[slot] = b;
            out_edge_ids[slot] = id as u32;
            out_cursor[a as usize] += 1;
            let slot = in_cursor[b as usize] as usize;
            in_sources[slot] = a;
            in_edge_ids[slot] = id as u32;
            in_cursor[b as usize] += 1;
        }
        Csr {
            nodes: n as u32,
            out_offsets,
            out_targets,
            out_edge_ids,
            in_offsets,
            in_sources,
            in_edge_ids,
            endpoints,
        }
    }

    /// Brings an index of a prefix of `graph` up to the whole of it: the
    /// nodes and edges `graph` gained since are merged in, and the result
    /// equals [`Csr::build`] of `graph`.
    ///
    /// New nodes get empty ranges. A new edge's id is above every held
    /// id, so it goes at the end of its node's range, whether that node
    /// is new or old. The new edges are sorted by node for each
    /// direction and merged in from the back: the held entries between
    /// two touched nodes move once, and their offsets shift once. The
    /// cost is the new edges' sort plus a move of everything after the
    /// first touched node; nothing is hashed and nothing is allocated
    /// beyond the arrays' growth and one buffer of the new edges.
    ///
    /// # Panics
    /// Panics if `graph` is not an extension of the graph this index was
    /// built from: it has fewer nodes or edges, or a different edge at
    /// the last held edge id.
    pub fn extend(&mut self, graph: &Graph) {
        let (held_nodes, held_edges) = (self.node_count(), self.edge_count());
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        assert!(
            nodes >= held_nodes
                && edges >= held_edges
                && (held_edges == 0
                    || self.endpoints(held_edges - 1) == graph.edge_at(held_edges - 1)),
            "graph does not extend the one this index was built from"
        );
        self.nodes = nodes as u32;
        // Every array grows by exactly what it gains: an index that grows
        // by a few entries an epoch keeps no slack, where a doubling `Vec`
        // could hold up to twice the index.
        for offsets in [&mut self.out_offsets, &mut self.in_offsets] {
            offsets.reserve_exact(nodes - held_nodes);
            offsets.resize(nodes + 1, held_edges as u32);
        }
        if edges == held_edges {
            return;
        }
        let new = &graph.edge_list[held_edges..];
        self.endpoints.reserve_exact(new.len());
        self.endpoints.extend(new.iter().map(|&(a, b)| (a.0, b.0)));
        // `(node, edge id, other end)` of each new edge, for one
        // direction at a time.
        let mut fresh: Vec<(u32, u32, u32)> = (held_edges as u32..)
            .zip(new)
            .map(|(id, &(a, b))| (a.0, id, b.0))
            .collect();
        fresh.sort_unstable();
        merge_tail(
            &mut self.out_offsets,
            &mut self.out_targets,
            &mut self.out_edge_ids,
            &fresh,
        );
        for (node, _, other) in &mut fresh {
            std::mem::swap(node, other);
        }
        fresh.sort_unstable();
        merge_tail(
            &mut self.in_offsets,
            &mut self.in_sources,
            &mut self.in_edge_ids,
            &fresh,
        );
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Endpoints of the edge with insertion index `id`.
    ///
    /// # Panics
    /// Panics if `id >= edge_count()`.
    #[inline]
    pub fn endpoints(&self, id: usize) -> Edge {
        let (a, b) = self.endpoints[id];
        (NodeId(a), NodeId(b))
    }

    /// Out-adjacency of `u` as parallel `(targets, edge ids)` slices.
    #[inline]
    pub fn out(&self, u: NodeId) -> (&[u32], &[u32]) {
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        (&self.out_targets[lo..hi], &self.out_edge_ids[lo..hi])
    }

    /// In-adjacency of `v` as parallel `(sources, edge ids)` slices.
    #[inline]
    pub fn inn(&self, v: NodeId) -> (&[u32], &[u32]) {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (&self.in_sources[lo..hi], &self.in_edge_ids[lo..hi])
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }
}

/// Merges new adjacency entries into one direction of a [`Csr`].
/// `fresh` holds `(node, edge id, other end)`, sorted by node and then
/// by id, and every id in it is above every held id. Walking the touched
/// nodes from the last, the held run after a node moves up by the number
/// of fresh entries at or before that node, the node's fresh entries
/// fill the gap this opens at the end of its range, and the run's
/// offsets shift by the same count.
fn merge_tail(
    offsets: &mut [u32],
    others: &mut Vec<u32>,
    ids: &mut Vec<u32>,
    fresh: &[(u32, u32, u32)],
) {
    let held = others.len();
    for v in [&mut *others, &mut *ids] {
        v.reserve_exact(fresh.len());
        v.resize(held + fresh.len(), 0);
    }
    // Held entries at `hi..` and offsets at `bound..` are in place.
    let (mut hi, mut bound, mut end) = (held, offsets.len(), fresh.len());
    while end > 0 {
        let node = fresh[end - 1].0;
        let start = fresh[..end]
            .iter()
            .rposition(|&(n, ..)| n != node)
            .map_or(0, |i| i + 1);
        let node = node as usize;
        let lo = offsets[node + 1] as usize;
        others.copy_within(lo..hi, lo + end);
        ids.copy_within(lo..hi, lo + end);
        for (slot, &(_, id, other)) in (lo + start..).zip(&fresh[start..end]) {
            others[slot] = other;
            ids[slot] = id;
        }
        for offset in &mut offsets[node + 1..bound] {
            *offset += end as u32;
        }
        (hi, bound, end) = (lo, node + 1, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::PrivilegeLattice;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn public() -> PrivilegeId {
        PrivilegeLattice::public_only().public()
    }

    fn diamond() -> (Graph, [NodeId; 4]) {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node("a", p);
        let b = g.add_node("b", p);
        let c = g.add_node("c", p);
        let d = g.add_node("d", p);
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn basic_construction() {
        let (g, [a, b, _, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn rejects_duplicates_self_loops_and_unknown_endpoints() {
        let (mut g, [a, b, ..]) = diamond();
        assert_eq!(
            g.add_edge(a, b).unwrap_err(),
            Error::DuplicateEdge { from: a, to: b }
        );
        assert_eq!(g.add_edge(a, a).unwrap_err(), Error::SelfLoop(a));
        let ghost = NodeId(99);
        assert!(matches!(
            g.add_edge(a, ghost).unwrap_err(),
            Error::UnknownEdgeEndpoint { .. }
        ));
    }

    #[test]
    fn bidirectional_adds_both_directions() {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node("a", p);
        let b = g.add_node("b", p);
        g.add_bidirectional(a, b).unwrap();
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn connected_counts_on_two_components() {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node("a", p);
        let b = g.add_node("b", p);
        let c = g.add_node("c", p);
        let _lone = g.add_node("lone", p);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.connected_counts(), vec![2, 2, 2, 0]);
        assert!(!g.is_connected());
    }

    #[test]
    fn reachability_is_directed() {
        let (g, [a, b, _, d]) = diamond();
        let from_a = g.reachable_from(a);
        assert_eq!(from_a.len(), 3);
        let from_b = g.reachable_from(b);
        assert!(from_b.contains(d.index()));
        assert!(!from_b.contains(a.index()));
        assert_eq!(g.reachable_from(d).len(), 0);
    }

    #[test]
    fn average_reachable_on_diamond() {
        let (g, _) = diamond();
        // a reaches 3, b reaches 1, c reaches 1, d reaches 0.
        assert!((g.average_reachable() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn acyclicity() {
        let (g, _) = diamond();
        assert!(g.is_acyclic());
        let p = public();
        let mut cyclic = Graph::new();
        let a = cyclic.add_node("a", p);
        let b = cyclic.add_node("b", p);
        cyclic.add_edge(a, b).unwrap();
        cyclic.add_edge(b, a).unwrap();
        assert!(!cyclic.is_acyclic());
    }

    #[test]
    fn find_by_label_returns_first_match() {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node("x", p);
        let _b = g.add_node("y", p);
        assert_eq!(g.find_by_label("x"), Some(a));
        assert_eq!(g.find_by_label("z"), None);
    }

    #[test]
    fn empty_graph_is_connected_and_acyclic() {
        let g = Graph::new();
        assert!(g.is_connected());
        assert!(g.is_acyclic());
        assert_eq!(g.average_reachable(), 0.0);
    }

    #[test]
    fn csr_mirrors_adjacency_and_edge_ids() {
        let (g, [a, b, c, d]) = diamond();
        let csr = Csr::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for id in 0..g.edge_count() {
            assert_eq!(csr.endpoints(id), g.edge_at(id));
        }
        for n in g.node_ids() {
            let (targets, edge_ids) = csr.out(n);
            let got: Vec<NodeId> = targets.iter().map(|&t| NodeId(t)).collect();
            assert_eq!(got.as_slice(), g.out_neighbors(n));
            for (&t, &e) in targets.iter().zip(edge_ids) {
                assert_eq!(csr.endpoints(e as usize), (n, NodeId(t)));
            }
            let (sources, edge_ids) = csr.inn(n);
            let got: Vec<NodeId> = sources.iter().map(|&s| NodeId(s)).collect();
            assert_eq!(got.as_slice(), g.in_neighbors(n));
            for (&s, &e) in sources.iter().zip(edge_ids) {
                assert_eq!(csr.endpoints(e as usize), (NodeId(s), n));
            }
            assert_eq!(csr.out_degree(n), g.out_degree(n));
            assert_eq!(csr.in_degree(n), g.in_degree(n));
        }
        assert_eq!(csr.out_degree(a), 2);
        assert_eq!(csr.in_degree(d), 2);
        assert_eq!(csr.out(b).0, &[d.0]);
        assert_eq!(csr.inn(c).0, &[a.0]);
    }

    /// As many nodes and edges, but another last edge: not an extension.
    #[test]
    #[should_panic(expected = "does not extend")]
    fn csr_refuses_a_graph_it_was_not_built_from() {
        let (g, [a, b, c, d]) = diamond();
        let mut csr = Csr::build(&g);
        let mut other = Graph::new();
        for label in ["a", "b", "c", "d"] {
            other.add_node(label, public());
        }
        for (from, to) in [(a, b), (a, c), (b, d), (d, a)] {
            other.add_edge(from, to).unwrap();
        }
        csr.extend(&other);
    }

    #[test]
    fn node_payload_access() {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node_with_features("a", Features::new().with("k", 1i64), p);
        assert_eq!(g.node(a).label, "a");
        assert_eq!(g.node(a).features.len(), 1);
        g.node_mut(a).label = "renamed".into();
        assert_eq!(g.node(a).label, "renamed");
        assert!(g.contains_node(a));
        assert!(!g.contains_node(NodeId(5)));
    }

    /// Catches `node_mut` writing through a shared payload (`Arc::get_mut`
    /// plus an unchecked fallback, or interior mutation).
    #[test]
    fn node_mut_on_a_clone_leaves_the_sharers_payload_alone() {
        let p = public();
        let mut g = Graph::new();
        let a = g.add_node_with_features("a", Features::new().with("k", 1i64), p);
        let mut copy = g.clone();
        let mut derived = Graph::new();
        let a2 = derived.add_shared_node(g.shared_node(a).clone());
        assert!(Arc::ptr_eq(g.shared_node(a), copy.shared_node(a)));
        assert!(Arc::ptr_eq(g.shared_node(a), derived.shared_node(a2)));

        copy.node_mut(a).label = "renamed".into();
        assert_eq!(copy.node(a).label, "renamed");
        assert_eq!(g.node(a).label, "a");
        assert_eq!(derived.node(a2).label, "a");
        assert!(!Arc::ptr_eq(g.shared_node(a), copy.shared_node(a)));
        assert!(Arc::ptr_eq(g.shared_node(a), derived.shared_node(a2)));
    }

    /// The per-node lists the arena replaced, rebuilt from an edge list:
    /// every row in edge-list order.
    fn model_rows(nodes: usize, edges: &[Edge]) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
        let (mut out, mut inn) = (vec![Vec::new(); nodes], vec![Vec::new(); nodes]);
        for &(a, b) in edges {
            out[a.index()].push(b);
            inn[b.index()].push(a);
        }
        (out, inn)
    }

    /// Two rows that outgrow their room in turn leave dead cells behind
    /// at every move, until a compaction rewrites the arena.
    #[test]
    fn adjacency_compacts_and_keeps_every_row() {
        let p = public();
        let mut g = Graph::new();
        let (a, b) = (g.add_node("a", p), g.add_node("b", p));
        let mut edges = Vec::new();
        let mut compactions = 0;
        for i in 0..32 {
            let t = g.add_node(format!("t{i}"), p);
            for from in [a, b] {
                let dead = g.out.dead;
                g.add_edge(from, t).unwrap();
                edges.push((from, t));
                compactions += usize::from(g.out.dead < dead);
            }
        }
        assert!(compactions > 0, "no compaction ran");
        assert!(g.out.cells.len() <= 3 * edges.len());
        let (out, inn) = model_rows(g.node_count(), &edges);
        for n in g.node_ids() {
            assert_eq!(g.out_neighbors(n), out[n.index()].as_slice());
            assert_eq!(g.in_neighbors(n), inn[n.index()].as_slice());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `add_node`, `add_edge` and `splice_edges` sequences, long
        /// enough that both arenas compact, against a list-per-node model:
        /// after every step each row equals the model's, and the edge list
        /// and its index equal the model's edge list.
        #[test]
        fn adjacency_matches_a_list_per_node_model(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = public();
            let mut g = Graph::new();
            let mut edges: Vec<Edge> = Vec::new();
            let mut present: HashSet<Edge> = HashSet::new();
            let (mut out, mut inn): (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) = (vec![], vec![]);
            let max_nodes = rng.gen_range(2..40u32);
            for _ in 0..rng.gen_range(1..400usize) {
                let n = g.node_count() as u32;
                let pick = rng.gen_range(0..16u32);
                if n < 2 || (pick < 3 && n < max_nodes) {
                    g.add_node(format!("n{n}"), p);
                    out.push(Vec::new());
                    inn.push(Vec::new());
                } else if pick < 14 {
                    let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                    let added = g.add_edge(a, b).is_ok();
                    prop_assert_eq!(added, a != b && !present.contains(&(a, b)));
                    if added {
                        edges.push((a, b));
                        present.insert((a, b));
                        out[a.index()].push(b);
                        inn[b.index()].push(a);
                    }
                } else {
                    // The tail after `at` must be in `(from, to)` order.
                    let mut sorted_from = edges.len();
                    while sorted_from > 0
                        && (sorted_from == edges.len() || edges[sorted_from - 1] < edges[sorted_from])
                    {
                        sorted_from -= 1;
                    }
                    let at = rng.gen_range(sorted_from..=edges.len());
                    let (mut shown, mut sorted) = (Vec::new(), Vec::new());
                    for _ in 0..rng.gen_range(0..8usize) {
                        let edge = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                        if edge.0 != edge.1 && present.insert(edge) {
                            if rng.gen_bool(0.5) { shown.push(edge) } else { sorted.push(edge) }
                        }
                    }
                    sorted.sort_unstable();
                    g.splice_edges(at, &shown, &sorted);
                    let mut block = edges.split_off(at);
                    edges.extend_from_slice(&shown);
                    block.extend_from_slice(&sorted);
                    block.sort_unstable();
                    edges.extend(block);
                    (out, inn) = model_rows(out.len(), &edges);
                }
                for id in g.node_ids() {
                    prop_assert_eq!(g.out_neighbors(id), out[id.index()].as_slice());
                    prop_assert_eq!(g.in_neighbors(id), inn[id.index()].as_slice());
                    prop_assert_eq!(g.out_degree(id), out[id.index()].len());
                    prop_assert_eq!(g.in_degree(id), inn[id.index()].len());
                }
                prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
                for (i, &edge) in edges.iter().enumerate() {
                    prop_assert_eq!(g.edge_index(edge), Some(i));
                }
            }
            // A clone reads the same rows.
            let copy = g.clone();
            for id in g.node_ids() {
                prop_assert_eq!(copy.out_neighbors(id), g.out_neighbors(id));
                prop_assert_eq!(copy.in_neighbors(id), g.in_neighbors(id));
            }
        }
    }
}
