//! Node–edge incidence markings (paper §3.2, Def. 7).
//!
//! For a privilege-predicate `p`, every node–edge incidence carries a
//! marking `mark(n, e, p) ∈ {Visible, Hide, Surrogate}`:
//!
//! * **Visible** — the provider will show this incidence to consumers
//!   satisfying `p`.
//! * **Hide** — the incidence may not be shown *nor used to compute any
//!   edge* of the protected account.
//! * **Surrogate** — the incidence may be used to maintain a path (via a
//!   surrogate edge) but cannot be shown directly.
//!
//! Both endpoints of an edge may be marked by their respective providers
//! and need not agree (local autonomy); the account generator combines the
//! two markings.

use crate::graph::{Edge, NodeId};
use crate::privilege::PrivilegeId;
use crate::util::FxHashMap;

/// Marking of a single node–edge incidence for one predicate (Def. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Marking {
    /// May be shown directly.
    Visible,
    /// May be neither shown nor used.
    Hide,
    /// May be used to maintain a path, but not shown.
    Surrogate,
}

/// Resolution layers for [`MarkingStore`], most specific first:
///
/// 1. per `(node, edge, predicate)`
/// 2. per `(node, edge)` — any predicate
/// 3. per `(node, predicate)` — all of the node's incidences
/// 4. per `node` — all incidences, any predicate
/// 5. the global default (`Visible` unless overridden)
///
/// Layers 3–4 realize the paper's "in practice, these may be defined on
/// sets of nodes … or all outgoing edges" by letting a provider mark a
/// node's whole incidence set at once.
#[derive(Debug, Clone)]
pub struct MarkingStore {
    default: Marking,
    per_node: FxHashMap<NodeId, Marking>,
    per_node_pred: FxHashMap<(NodeId, PrivilegeId), Marking>,
    per_incidence: FxHashMap<(NodeId, Edge), Marking>,
    per_incidence_pred: FxHashMap<(NodeId, Edge, PrivilegeId), Marking>,
    /// The node each write marked, in write order: how an account
    /// extension tells whether a later write touched a node it reflects.
    named: Vec<NodeId>,
}

impl Default for MarkingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MarkingStore {
    /// A store where everything is `Visible` until marked otherwise.
    pub fn new() -> Self {
        Self {
            default: Marking::Visible,
            per_node: FxHashMap::default(),
            per_node_pred: FxHashMap::default(),
            per_incidence: FxHashMap::default(),
            per_incidence_pred: FxHashMap::default(),
            named: Vec::new(),
        }
    }

    /// Changes the global default marking.
    pub fn with_default(mut self, marking: Marking) -> Self {
        self.default = marking;
        // Every incidence changes: logged as a write to the first node,
        // which every non-empty graph reflects.
        self.named.push(NodeId(0));
        self
    }

    /// Marks one incidence for one predicate (layer 1).
    pub fn set(&mut self, node: NodeId, edge: Edge, p: PrivilegeId, marking: Marking) {
        debug_assert!(node == edge.0 || node == edge.1, "node must be incident");
        self.named.push(node);
        self.per_incidence_pred.insert((node, edge, p), marking);
    }

    /// Marks one incidence for every predicate (layer 2).
    pub fn set_all_predicates(&mut self, node: NodeId, edge: Edge, marking: Marking) {
        debug_assert!(node == edge.0 || node == edge.1, "node must be incident");
        self.named.push(node);
        self.per_incidence.insert((node, edge), marking);
    }

    /// Marks all of a node's incidences for one predicate (layer 3). This
    /// is the "hide/surrogate the role of a node" idiom of Fig. 2.
    pub fn set_node(&mut self, node: NodeId, p: PrivilegeId, marking: Marking) {
        self.named.push(node);
        self.per_node_pred.insert((node, p), marking);
    }

    /// Marks all of a node's incidences for every predicate (layer 4).
    pub fn set_node_all_predicates(&mut self, node: NodeId, marking: Marking) {
        self.named.push(node);
        self.per_node.insert(node, marking);
    }

    /// Writes taken so far; see [`named_since`](Self::named_since).
    pub(crate) fn writes(&self) -> usize {
        self.named.len()
    }

    /// The node each write after the first `since` marked, in write
    /// order; `None` if the store has taken fewer writes.
    pub(crate) fn named_since(&self, since: usize) -> Option<&[NodeId]> {
        self.named.get(since..)
    }

    /// Convenience: marks *both* incidences of an edge for predicate `p`.
    pub fn set_edge(&mut self, edge: Edge, p: PrivilegeId, marking: Marking) {
        self.set(edge.0, edge, p, marking);
        self.set(edge.1, edge, p, marking);
    }

    /// Resolves `mark(node, edge, p)` through the layers.
    pub fn mark(&self, node: NodeId, edge: Edge, p: PrivilegeId) -> Marking {
        if let Some(&m) = self.per_incidence_pred.get(&(node, edge, p)) {
            return m;
        }
        if let Some(&m) = self.per_incidence.get(&(node, edge)) {
            return m;
        }
        if let Some(&m) = self.per_node_pred.get(&(node, p)) {
            return m;
        }
        if let Some(&m) = self.per_node.get(&node) {
            return m;
        }
        self.default
    }

    /// Marking of the source-side incidence of `edge`.
    #[inline]
    pub fn mark_source(&self, edge: Edge, p: PrivilegeId) -> Marking {
        self.mark(edge.0, edge, p)
    }

    /// Marking of the destination-side incidence of `edge`.
    #[inline]
    pub fn mark_dest(&self, edge: Edge, p: PrivilegeId) -> Marking {
        self.mark(edge.1, edge, p)
    }

    /// `true` when either incidence of `edge` is marked `Hide` for `p`.
    /// Such an edge may not be shown nor used (Def. 7 / Def. 8 cond. 1).
    #[inline]
    pub fn edge_hidden(&self, edge: Edge, p: PrivilegeId) -> bool {
        self.mark_source(edge, p) == Marking::Hide || self.mark_dest(edge, p) == Marking::Hide
    }

    /// `true` when both incidences of `edge` are `Visible` for `p` — the
    /// edge may appear directly in the protected account.
    #[inline]
    pub fn edge_visible(&self, edge: Edge, p: PrivilegeId) -> bool {
        self.mark_source(edge, p) == Marking::Visible && self.mark_dest(edge, p) == Marking::Visible
    }

    /// Effective marking of an incidence for a *set* of predicates (a
    /// multi-predicate high-water set, Def. 6): the most permissive
    /// marking any member grants (`Visible > Surrogate > Hide`), matching
    /// Def. 8's "marked Visible for some p dominated by a member of HW".
    pub fn mark_for_set(&self, node: NodeId, edge: Edge, preds: &[PrivilegeId]) -> Marking {
        let mut best = Marking::Hide;
        for &p in preds {
            match self.mark(node, edge, p) {
                Marking::Visible => return Marking::Visible,
                Marking::Surrogate => best = Marking::Surrogate,
                Marking::Hide => {}
            }
        }
        best
    }

    /// Set version of [`edge_hidden`](Self::edge_hidden).
    #[inline]
    pub fn edge_hidden_for_set(&self, edge: Edge, preds: &[PrivilegeId]) -> bool {
        self.mark_for_set(edge.0, edge, preds) == Marking::Hide
            || self.mark_for_set(edge.1, edge, preds) == Marking::Hide
    }

    /// Set version of [`edge_visible`](Self::edge_visible).
    #[inline]
    pub fn edge_visible_for_set(&self, edge: Edge, preds: &[PrivilegeId]) -> bool {
        self.mark_for_set(edge.0, edge, preds) == Marking::Visible
            && self.mark_for_set(edge.1, edge, preds) == Marking::Visible
    }

    /// The global default marking (layer 5).
    pub fn default_marking(&self) -> Marking {
        self.default
    }

    /// Number of explicit rules across layers 1–4. Zero means every
    /// incidence resolves to the [default](Self::default_marking) — the
    /// dense protection path exploits this to skip per-edge resolution.
    pub fn rule_count(&self) -> usize {
        self.per_incidence_pred.len()
            + self.per_incidence.len()
            + self.per_node_pred.len()
            + self.per_node.len()
    }

    /// Enumerates every explicit rule in the store, in a deterministic
    /// order (layer, then ids). Lets policy be exported — e.g. replayed
    /// into a provenance store's policy log.
    pub fn rules(&self) -> Vec<MarkingRule> {
        let mut rules = Vec::with_capacity(
            self.per_incidence_pred.len()
                + self.per_incidence.len()
                + self.per_node_pred.len()
                + self.per_node.len(),
        );
        for (&(node, edge, predicate), &marking) in &self.per_incidence_pred {
            rules.push(MarkingRule::IncidencePred {
                node,
                edge,
                predicate,
                marking,
            });
        }
        for (&(node, edge), &marking) in &self.per_incidence {
            rules.push(MarkingRule::Incidence {
                node,
                edge,
                marking,
            });
        }
        for (&(node, predicate), &marking) in &self.per_node_pred {
            rules.push(MarkingRule::NodePred {
                node,
                predicate,
                marking,
            });
        }
        for (&node, &marking) in &self.per_node {
            rules.push(MarkingRule::Node { node, marking });
        }
        rules.sort();
        rules
    }
}

/// One explicit rule of a [`MarkingStore`], by resolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MarkingRule {
    /// Layer 1: one incidence, one predicate.
    IncidencePred {
        /// The incident node.
        node: NodeId,
        /// The edge.
        edge: Edge,
        /// The predicate scope.
        predicate: PrivilegeId,
        /// The marking.
        marking: Marking,
    },
    /// Layer 2: one incidence, every predicate.
    Incidence {
        /// The incident node.
        node: NodeId,
        /// The edge.
        edge: Edge,
        /// The marking.
        marking: Marking,
    },
    /// Layer 3: all of a node's incidences, one predicate.
    NodePred {
        /// The node.
        node: NodeId,
        /// The predicate scope.
        predicate: PrivilegeId,
        /// The marking.
        marking: Marking,
    },
    /// Layer 4: all of a node's incidences, every predicate.
    Node {
        /// The node.
        node: NodeId,
        /// The marking.
        marking: Marking,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::PrivilegeLattice;

    fn ids() -> (NodeId, NodeId, Edge, PrivilegeId, PrivilegeId) {
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let a = NodeId(0);
        let b = NodeId(1);
        ((a), (b), (a, b), lattice.public(), preds[0])
    }

    #[test]
    fn default_is_visible() {
        let (a, _, e, public, _) = ids();
        let store = MarkingStore::new();
        assert_eq!(store.mark(a, e, public), Marking::Visible);
        assert!(store.edge_visible(e, public));
        assert!(!store.edge_hidden(e, public));
    }

    #[test]
    fn layer_precedence() {
        let (a, _b, e, public, high) = ids();
        let mut store = MarkingStore::new();
        store.set_node_all_predicates(a, Marking::Hide); // layer 4
        assert_eq!(store.mark(a, e, public), Marking::Hide);
        store.set_node(a, public, Marking::Surrogate); // layer 3 beats 4
        assert_eq!(store.mark(a, e, public), Marking::Surrogate);
        assert_eq!(
            store.mark(a, e, high),
            Marking::Hide,
            "other predicate keeps layer 4"
        );
        store.set_all_predicates(a, e, Marking::Visible); // layer 2 beats 3
        assert_eq!(store.mark(a, e, public), Marking::Visible);
        store.set(a, e, public, Marking::Hide); // layer 1 beats all
        assert_eq!(store.mark(a, e, public), Marking::Hide);
        assert_eq!(
            store.mark(a, e, high),
            Marking::Visible,
            "layer 2 for other predicate"
        );
    }

    #[test]
    fn endpoint_markings_are_independent() {
        let (a, b, e, public, _) = ids();
        let mut store = MarkingStore::new();
        store.set(a, e, public, Marking::Visible);
        store.set(b, e, public, Marking::Surrogate);
        assert_eq!(store.mark_source(e, public), Marking::Visible);
        assert_eq!(store.mark_dest(e, public), Marking::Surrogate);
        assert!(!store.edge_visible(e, public));
        assert!(!store.edge_hidden(e, public));
    }

    #[test]
    fn hide_on_either_side_hides_edge() {
        let (_a, b, e, public, _) = ids();
        let mut store = MarkingStore::new();
        store.set(b, e, public, Marking::Hide);
        assert!(store.edge_hidden(e, public));
        assert!(!store.edge_visible(e, public));
    }

    #[test]
    fn set_edge_marks_both_sides() {
        let (a, b, e, public, _) = ids();
        let mut store = MarkingStore::new();
        store.set_edge(e, public, Marking::Surrogate);
        assert_eq!(store.mark(a, e, public), Marking::Surrogate);
        assert_eq!(store.mark(b, e, public), Marking::Surrogate);
    }

    #[test]
    fn set_view_takes_most_permissive_member() {
        let (a, _b, e, public, high) = ids();
        let mut store = MarkingStore::new();
        store.set(a, e, public, Marking::Hide);
        store.set(a, e, high, Marking::Surrogate);
        assert_eq!(store.mark_for_set(a, e, &[public]), Marking::Hide);
        assert_eq!(
            store.mark_for_set(a, e, &[public, high]),
            Marking::Surrogate
        );
        // A Visible member wins outright.
        let mut store = MarkingStore::new();
        store.set(a, e, public, Marking::Hide);
        assert_eq!(store.mark_for_set(a, e, &[public, high]), Marking::Visible);
        assert!(!store.edge_hidden_for_set(e, &[public, high]));
        assert!(store.edge_visible_for_set(e, &[high]));
    }

    #[test]
    fn rules_enumerate_all_layers_deterministically() {
        let (a, b, e, public, _) = ids();
        let mut store = MarkingStore::new();
        store.set(a, e, public, Marking::Hide);
        store.set_all_predicates(b, e, Marking::Surrogate);
        store.set_node(b, public, Marking::Surrogate);
        store.set_node_all_predicates(a, Marking::Visible);
        let rules = store.rules();
        assert_eq!(rules.len(), 4);
        assert_eq!(store.rule_count(), 4);
        assert_eq!(MarkingStore::new().rule_count(), 0);
        assert_eq!(rules, store.rules(), "deterministic order");
        assert!(matches!(rules[0], MarkingRule::IncidencePred { .. }));
        assert_eq!(store.default_marking(), Marking::Visible);
    }

    #[test]
    fn with_default_changes_baseline() {
        let (a, _, e, public, _) = ids();
        let store = MarkingStore::new().with_default(Marking::Hide);
        assert_eq!(store.mark(a, e, public), Marking::Hide);
    }
}
