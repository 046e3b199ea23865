//! Provenance records: the storage-level representation of nodes, edges,
//! and protection-policy statements.
//!
//! The PLUS prototype the paper evaluates with stores provenance as typed
//! records (data, process invocations, agents) joined by lineage edges;
//! protection policy (incidence markings, surrogate definitions) is
//! recorded alongside so any consumer-facing view can be rebuilt. We
//! mirror that: a store is an append-only log of [`NodeRecord`]s,
//! [`EdgeRecord`]s and [`PolicyStatement`]s.

use std::sync::Arc;

use surrogate_core::feature::Features;
use surrogate_core::graph::Node;
use surrogate_core::marking::Marking;
use surrogate_core::privilege::PrivilegeId;

/// Identifier of a node record within its store (dense, append order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The provenance role of a node (Open Provenance Model-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A data artifact.
    Data,
    /// A process invocation.
    Process,
    /// An agent (person, service, organization).
    Agent,
}

impl NodeKind {
    /// Stable wire tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            NodeKind::Data => 0,
            NodeKind::Process => 1,
            NodeKind::Agent => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(NodeKind::Data),
            1 => Some(NodeKind::Process),
            2 => Some(NodeKind::Agent),
            _ => None,
        }
    }
}

/// The lineage relationship an edge asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Data was input to a process.
    InputTo,
    /// Data was generated by a process.
    GeneratedBy,
    /// A process was triggered by another process.
    TriggeredBy,
    /// A generic relationship (social tie, network link, …).
    Related,
}

impl EdgeKind {
    /// Stable wire tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            EdgeKind::InputTo => 0,
            EdgeKind::GeneratedBy => 1,
            EdgeKind::TriggeredBy => 2,
            EdgeKind::Related => 3,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(EdgeKind::InputTo),
            1 => Some(EdgeKind::GeneratedBy),
            2 => Some(EdgeKind::TriggeredBy),
            3 => Some(EdgeKind::Related),
            _ => None,
        }
    }
}

/// A stored node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Display label.
    pub label: String,
    /// Provenance role.
    pub kind: NodeKind,
    /// Attribute–value features.
    pub features: Features,
    /// Lowest privilege-predicate required to see the node.
    pub lowest: PrivilegeId,
    /// Logical append timestamp assigned by the store.
    pub created_at: u64,
}

impl NodeRecord {
    /// Moves the label, features and predicate behind the one `Arc` the
    /// log, every materialization and every account then share.
    pub(crate) fn into_payload(self) -> Arc<Node> {
        Arc::new(Node {
            label: self.label,
            features: self.features,
            lowest: self.lowest,
        })
    }
}

/// A stored edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Source node record.
    pub from: RecordId,
    /// Destination node record.
    pub to: RecordId,
    /// Relationship kind.
    pub kind: EdgeKind,
}

/// A protection-policy statement, replayed in order to rebuild the
/// marking store and surrogate catalog at materialization time.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyStatement {
    /// Mark one incidence (`predicate = None` ⇒ all predicates).
    MarkIncidence {
        /// The incident node whose provider speaks.
        node: RecordId,
        /// Edge source.
        from: RecordId,
        /// Edge destination.
        to: RecordId,
        /// Predicate scope, or `None` for every predicate.
        predicate: Option<PrivilegeId>,
        /// The marking.
        marking: Marking,
    },
    /// Mark all of a node's incidences (`predicate = None` ⇒ all).
    MarkNode {
        /// The node whose incidences are marked.
        node: RecordId,
        /// Predicate scope, or `None` for every predicate.
        predicate: Option<PrivilegeId>,
        /// The marking.
        marking: Marking,
    },
    /// Register a surrogate version of a node.
    AddSurrogate {
        /// The protected node.
        node: RecordId,
        /// Surrogate label.
        label: String,
        /// Surrogate features.
        features: Features,
        /// Lowest predicate through which the surrogate is visible.
        lowest: PrivilegeId,
        /// `infoScore` of the surrogate.
        info_score: f64,
    },
}

impl PolicyStatement {
    /// The node the statement governs: whose incidence or incidences it
    /// marks, or whose surrogate it registers.
    pub(crate) fn node(&self) -> RecordId {
        match self {
            PolicyStatement::MarkIncidence { node, .. }
            | PolicyStatement::MarkNode { node, .. }
            | PolicyStatement::AddSurrogate { node, .. } => *node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_tags_roundtrip() {
        for kind in [NodeKind::Data, NodeKind::Process, NodeKind::Agent] {
            assert_eq!(NodeKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(NodeKind::from_tag(9), None);
    }

    #[test]
    fn edge_kind_tags_roundtrip() {
        for kind in [
            EdgeKind::InputTo,
            EdgeKind::GeneratedBy,
            EdgeKind::TriggeredBy,
            EdgeKind::Related,
        ] {
            assert_eq!(EdgeKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EdgeKind::from_tag(9), None);
    }

    #[test]
    fn record_id_index() {
        assert_eq!(RecordId(7).index(), 7);
    }
}
