//! The per-epoch CSR snapshot index: the dense, read-only form of a
//! materialized store that the protection hot path runs against.
//!
//! A [`Materialized`] store is hash-map-shaped: adjacency behind
//! `Graph`'s edge index, markings behind `MarkingStore` lookups. That is
//! the shape that can be *extended*: one more edge is a push and an
//! insert, so an epoch is built from its predecessor in time
//! proportional to what the log gained
//! ([`Materialized::extend`](crate::Materialized::extend)). The
//! protection algorithms (account generation, permitted-reach BFS,
//! lineage traversal) touch every edge many times per request — at
//! serving scale the hashing dominates. A [`SnapshotIndex`] is built
//! **once per epoch** when the service materializes a
//! [`Snapshot`](crate::Snapshot), and every protection against that
//! epoch then runs over flat arrays:
//!
//! * a compressed-sparse-row adjacency ([`Csr`]) with both edge
//!   directions split into `offsets + targets + edge-id` arrays, so
//!   out- and in-walks are cache-linear and per-edge side tables are
//!   indexed by edge id instead of hashed `(from, to)` pairs;
//! * an interned per-node [`PrivilegeId`] array ([`node_lowest`]) — the
//!   `lowest(n)` predicate of every record, addressable by `NodeId`
//!   index without touching node payloads.
//!
//! The index is immutable and cheap to share: the service stores it
//! inside the epoch's `Snapshot`, and account generation borrows it via
//! `ProtectionContext::with_csr`. An epoch bump simply builds a new
//! index, even where the materialization under it was extended; nothing
//! is patched in place.
//!
//! [`node_lowest`]: SnapshotIndex::node_lowest

use surrogate_core::graph::{Csr, NodeId};
use surrogate_core::privilege::PrivilegeId;

use crate::store::Materialized;

/// The dense per-epoch index of one materialized store. See the
/// [module docs](self) for layout and sharing semantics.
#[derive(Debug, Clone)]
pub struct SnapshotIndex {
    csr: Csr,
    node_lowest: Vec<PrivilegeId>,
}

impl SnapshotIndex {
    /// Builds the index from a materialization in `O(V + E)` — one pass
    /// over the insertion-ordered edge list, no hashing.
    pub fn build(materialized: &Materialized) -> SnapshotIndex {
        let graph = &materialized.graph;
        let node_lowest = graph.node_ids().map(|n| graph.node(n).lowest).collect();
        SnapshotIndex {
            csr: Csr::build(graph),
            node_lowest,
        }
    }

    /// The CSR adjacency (both directions, edge-id-carrying).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// `lowest(n)` per node, indexed by [`NodeId::index`]. Interned here
    /// so visibility planning can scan a flat `PrivilegeId` array.
    pub fn node_lowest(&self) -> &[PrivilegeId] {
        &self.node_lowest
    }

    /// The `lowest` predicate of one node.
    pub fn lowest(&self, node: NodeId) -> PrivilegeId {
        self.node_lowest[node.index()]
    }

    /// Number of nodes indexed.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of directed edges indexed.
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EdgeKind, NodeKind};
    use crate::store::Store;
    use surrogate_core::feature::Features;

    #[test]
    fn index_mirrors_the_materialization() {
        let store = Store::new(&["Public", "High"], &[(1, 0)]).unwrap();
        let public = store.predicate("Public").unwrap();
        let high = store.predicate("High").unwrap();
        let a = store.append_node("a", NodeKind::Agent, Features::new(), high);
        let b = store.append_node("b", NodeKind::Data, Features::new(), public);
        let c = store.append_node("c", NodeKind::Data, Features::new(), public);
        store.append_edge(a, b, EdgeKind::InputTo).unwrap();
        store.append_edge(b, c, EdgeKind::GeneratedBy).unwrap();
        let materialized = store.materialize();
        let index = SnapshotIndex::build(&materialized);
        assert_eq!(index.node_count(), 3);
        assert_eq!(index.edge_count(), 2);
        assert_eq!(index.lowest(NodeId(0)), high);
        assert_eq!(index.lowest(NodeId(1)), public);
        assert_eq!(index.node_lowest().len(), 3);
        for id in 0..index.edge_count() {
            assert_eq!(index.csr().endpoints(id), materialized.graph.edge_at(id));
        }
    }
}
