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
//! serving scale the hashing dominates. A [`SnapshotIndex`] holds the
//! epoch's compressed-sparse-row adjacency ([`Csr`]): both edge
//! directions split into `offsets + targets + edge-id` arrays, so out-
//! and in-walks are cache-linear and per-edge side tables are indexed by
//! edge id instead of hashed `(from, to)` pairs.
//!
//! The index moves with its materialization. A service's cold snapshot
//! builds it; an epoch that extends its predecessor's materialization
//! extends the predecessor's index by the same nodes and edges
//! ([`Csr::extend`]), in place when the predecessor is retired and on a
//! copy when a reader still pins it. Both sources append a delta's edges
//! at the tail of the edge list, so edge ids stay insertion positions and
//! the extended index equals a build. Within an epoch the index is
//! immutable: the service stores it inside the epoch's `Snapshot`, and
//! account generation borrows it via `ProtectionContext::with_csr`.

use surrogate_core::graph::Csr;

use crate::store::Materialized;

/// The dense per-epoch index of one materialized store. See the
/// [module docs](self) for layout and sharing semantics.
#[derive(Debug, Clone)]
pub struct SnapshotIndex {
    csr: Csr,
}

impl SnapshotIndex {
    /// Builds the index from a materialization in `O(V + E)` — one pass
    /// over the insertion-ordered edge list, no hashing.
    pub fn build(materialized: &Materialized) -> SnapshotIndex {
        SnapshotIndex {
            csr: Csr::build(&materialized.graph),
        }
    }

    /// Brings the index of `materialized`'s predecessor up to
    /// `materialized`, which extended it.
    pub(crate) fn extend(&mut self, materialized: &Materialized) {
        self.csr.extend(&materialized.graph);
    }

    /// The CSR adjacency (both directions, edge-id-carrying).
    pub fn csr(&self) -> &Csr {
        &self.csr
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
        for id in 0..index.edge_count() {
            assert_eq!(index.csr().endpoints(id), materialized.graph.edge_at(id));
        }
    }
}
