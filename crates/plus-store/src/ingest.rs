//! Importing a complete protection setup — graph, lattice, markings,
//! surrogate catalog — into a [`Store`].
//!
//! Generators and applications build their scenarios as `surrogate-core`
//! values; deployments persist them as stores. `ingest` performs that
//! conversion faithfully: predicate ids carry over unchanged (the store's
//! lattice is rebuilt from the source lattice's names and dominance
//! pairs), and every explicit marking rule and surrogate definition
//! becomes a policy statement, so `store.materialize()` round-trips the
//! setup.

use surrogate_core::graph::{Edge, Graph, NodeId};
use surrogate_core::marking::{Marking, MarkingRule, MarkingStore};
use surrogate_core::privilege::PrivilegeLattice;
use surrogate_core::surrogate::SurrogateCatalog;

use crate::error::{Result, StoreError};
use crate::record::{EdgeKind, NodeKind, PolicyStatement, RecordId};
use crate::store::Store;

/// How `ingest` assigns record kinds; defaults classify everything as
/// data artifacts related generically.
#[derive(Clone)]
pub struct IngestKinds<'a> {
    /// Kind of each node record.
    pub node_kind: &'a dyn Fn(NodeId) -> NodeKind,
    /// Kind of each edge record.
    pub edge_kind: &'a dyn Fn(Edge) -> EdgeKind,
}

impl Default for IngestKinds<'_> {
    fn default() -> Self {
        Self {
            node_kind: &|_| NodeKind::Data,
            edge_kind: &|_| EdgeKind::Related,
        }
    }
}

/// Imports a protection setup into a fresh store. See the module docs.
///
/// Fails if the marking store uses a non-`Visible` global default (which
/// has no policy-statement representation), if the setup is internally
/// inconsistent (dangling ids), or if a node or surrogate carries more
/// features than the store records.
pub fn ingest(
    graph: &Graph,
    lattice: &PrivilegeLattice,
    markings: &MarkingStore,
    catalog: &SurrogateCatalog,
    kinds: IngestKinds<'_>,
) -> Result<Store> {
    if markings.default_marking() != Marking::Visible {
        return Err(StoreError::UnsupportedPolicy(
            "marking stores with a non-Visible global default cannot be exported as policy",
        ));
    }

    let names = lattice.names_in_order();
    let pairs: Vec<(usize, usize)> = lattice
        .dominance_pairs()
        .into_iter()
        .map(|(hi, lo)| (hi.index(), lo.index()))
        .collect();
    let store = Store::new(&names, &pairs)?;

    for n in graph.node_ids() {
        let node = graph.node(n);
        store.try_append_node(
            node.label.clone(),
            (kinds.node_kind)(n),
            node.features.clone(),
            node.lowest,
        )?;
    }
    for edge in graph.edges() {
        store.append_edge(
            RecordId(edge.0 .0),
            RecordId(edge.1 .0),
            (kinds.edge_kind)(edge),
        )?;
    }

    for rule in markings.rules() {
        let statement = match rule {
            MarkingRule::IncidencePred {
                node,
                edge,
                predicate,
                marking,
            } => PolicyStatement::MarkIncidence {
                node: RecordId(node.0),
                from: RecordId(edge.0 .0),
                to: RecordId(edge.1 .0),
                predicate: Some(predicate),
                marking,
            },
            MarkingRule::Incidence {
                node,
                edge,
                marking,
            } => PolicyStatement::MarkIncidence {
                node: RecordId(node.0),
                from: RecordId(edge.0 .0),
                to: RecordId(edge.1 .0),
                predicate: None,
                marking,
            },
            MarkingRule::NodePred {
                node,
                predicate,
                marking,
            } => PolicyStatement::MarkNode {
                node: RecordId(node.0),
                predicate: Some(predicate),
                marking,
            },
            MarkingRule::Node { node, marking } => PolicyStatement::MarkNode {
                node: RecordId(node.0),
                predicate: None,
                marking,
            },
        };
        store.apply_policy(statement)?;
    }

    for n in graph.node_ids() {
        for def in catalog.for_node(n) {
            store.apply_policy(PolicyStatement::AddSurrogate {
                node: RecordId(n.0),
                label: def.label.clone(),
                features: def.features.clone(),
                lowest: def.lowest,
                info_score: def.info_score,
            })?;
        }
    }

    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surrogate_core::account::{generate_for_set, ProtectionContext};
    use surrogate_core::feature::Features;
    use surrogate_core::surrogate::SurrogateDef;

    fn setup() -> (Graph, PrivilegeLattice, MarkingStore, SurrogateCatalog) {
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let high = preds[0];
        let public = lattice.public();
        let mut graph = Graph::new();
        let a = graph.add_node("a", public);
        let b = graph.add_node_with_features("b", Features::new().with("k", 1i64), high);
        let c = graph.add_node("c", public);
        graph.add_edge(a, b).unwrap();
        graph.add_edge(b, c).unwrap();
        let mut markings = MarkingStore::new();
        markings.set_node(b, public, Marking::Surrogate);
        markings.set(a, (a, b), high, Marking::Visible);
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            b,
            SurrogateDef {
                label: "b'".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.4,
            },
        );
        (graph, lattice, markings, catalog)
    }

    #[test]
    fn ingest_roundtrips_through_materialize() {
        let (graph, lattice, markings, catalog) = setup();
        let store = ingest(
            &graph,
            &lattice,
            &markings,
            &catalog,
            IngestKinds::default(),
        )
        .unwrap();
        let m = store.materialize();
        assert_eq!(m.graph.node_count(), graph.node_count());
        assert_eq!(m.graph.edge_count(), graph.edge_count());
        // Same lattice (names and dominance).
        for p in lattice.ids() {
            for q in lattice.ids() {
                assert_eq!(lattice.dominates(p, q), m.lattice.dominates(p, q));
            }
        }
        // The protected account computed from either side is identical.
        let public = lattice.public();
        let direct = {
            let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
            generate_for_set(&ctx, &[public]).unwrap()
        };
        let via_store = generate_for_set(&m.context(), &[public]).unwrap();
        assert_eq!(direct.graph().node_count(), via_store.graph().node_count());
        assert_eq!(direct.graph().edge_count(), via_store.graph().edge_count());
        assert_eq!(
            direct.surrogate_edge_count(),
            via_store.surrogate_edge_count()
        );
    }

    #[test]
    fn ingest_survives_snapshot_roundtrip() {
        let (graph, lattice, markings, catalog) = setup();
        let store = ingest(
            &graph,
            &lattice,
            &markings,
            &catalog,
            IngestKinds::default(),
        )
        .unwrap();
        let restored = Store::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(restored.to_bytes(), store.to_bytes());
    }

    #[test]
    fn non_visible_default_is_rejected() {
        let (graph, lattice, _, catalog) = setup();
        let markings = MarkingStore::new().with_default(Marking::Hide);
        assert!(matches!(
            ingest(
                &graph,
                &lattice,
                &markings,
                &catalog,
                IngestKinds::default()
            ),
            Err(StoreError::UnsupportedPolicy(_))
        ));
    }

    #[test]
    fn custom_kinds_are_applied() {
        let (graph, lattice, markings, catalog) = setup();
        let node_kind = |n: NodeId| {
            if n.0 == 1 {
                NodeKind::Process
            } else {
                NodeKind::Data
            }
        };
        let edge_kind = |_: Edge| EdgeKind::InputTo;
        let store = ingest(
            &graph,
            &lattice,
            &markings,
            &catalog,
            IngestKinds {
                node_kind: &node_kind,
                edge_kind: &edge_kind,
            },
        )
        .unwrap();
        assert_eq!(store.node(RecordId(1)).unwrap().kind, NodeKind::Process);
        assert_eq!(store.node(RecordId(0)).unwrap().kind, NodeKind::Data);
    }
}
