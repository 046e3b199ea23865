//! Surrogate nodes and their catalogs (paper §3.1).
//!
//! A surrogate `n'` for node `n` is an alternate, less sensitive version of
//! `n` releasable to consumers who may not see `n` itself. The provider
//! requirements enforced here:
//!
//! * `lowest(n')` must **not** dominate `lowest(n)` — a surrogate may be
//!   incomparable with the original, but never more restricted (§3.1).
//! * `infoScore(n') ∈ [0, 1]`, with `infoScore = 1` reserved for the
//!   original node itself (Def. 4 / §4.1).
//! * Among surrogates for the same node, info-scores are monotone in
//!   dominance: if `lowest(n')` dominates `lowest(n'')` then
//!   `infoScore(n') ≥ infoScore(n'')` (§4.1).
//!
//! A `<null>` surrogate (no features, `Public`, score 0) can be attached as
//! a default so connectivity survives even when nothing about the node can
//! be shared.

use crate::error::{Error, Result};
use crate::feature::Features;
use crate::graph::{Graph, NodeId};
use crate::privilege::{PrivilegeId, PrivilegeLattice};
use crate::util::FxHashMap;

/// One surrogate version of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateDef {
    /// Label shown in the protected account (e.g. `"f'"`).
    pub label: String,
    /// The (possibly coarsened) features this surrogate reveals.
    pub features: Features,
    /// Lowest predicate through which this surrogate is visible.
    pub lowest: PrivilegeId,
    /// `infoScore(n')` ∈ [0, 1]: closeness to the original (§4.1).
    pub info_score: f64,
}

impl SurrogateDef {
    /// The featureless `<null>` surrogate visible via `Public`.
    pub fn null(lattice: &PrivilegeLattice) -> Self {
        Self {
            label: "<null>".into(),
            features: Features::new(),
            lowest: lattice.public(),
            info_score: 0.0,
        }
    }
}

/// Per-node registry of surrogate definitions.
#[derive(Debug, Clone, Default)]
pub struct SurrogateCatalog {
    by_node: FxHashMap<NodeId, Vec<SurrogateDef>>,
    /// The node each registration named, in order (as
    /// `MarkingStore` keeps for its writes).
    named: Vec<NodeId>,
}

impl SurrogateCatalog {
    /// An empty catalog: nodes without surrogates are simply omitted from
    /// protected accounts when not visible.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a surrogate for `node`. Definitions are validated lazily
    /// by [`validate`](Self::validate) (so catalogs can be built before the
    /// graph is final) and eagerly by the account generator.
    pub fn add(&mut self, node: NodeId, def: SurrogateDef) {
        self.named.push(node);
        self.by_node.entry(node).or_default().push(def);
    }

    /// Registrations taken so far; see [`named_since`](Self::named_since).
    pub(crate) fn writes(&self) -> usize {
        self.named.len()
    }

    /// The node each registration after the first `since` named, in
    /// order; `None` if the catalog has taken fewer.
    pub(crate) fn named_since(&self, since: usize) -> Option<&[NodeId]> {
        self.named.get(since..)
    }

    /// Registers a `<null>` surrogate for `node`.
    pub fn add_null(&mut self, node: NodeId, lattice: &PrivilegeLattice) {
        self.add(node, SurrogateDef::null(lattice));
    }

    /// Surrogates registered for `node`.
    pub fn for_node(&self, node: NodeId) -> &[SurrogateDef] {
        self.by_node.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of nodes with at least one surrogate.
    pub fn len(&self) -> usize {
        self.by_node.len()
    }

    /// `true` when no surrogates are registered.
    pub fn is_empty(&self) -> bool {
        self.by_node.is_empty()
    }

    /// Selects the surrogate of `node` to include in an account with
    /// high-water predicate `p`: among surrogates visible via `p` (i.e.
    /// whose `lowest` is dominated by `p`), the one with the most dominant
    /// `lowest` — the *dominant surrogacy* rule (Def. 9.2). The paper notes
    /// this is a proxy for maximal info-score; ties between incomparable
    /// candidates are broken by higher info-score, then registration order.
    pub fn most_dominant_visible(
        &self,
        lattice: &PrivilegeLattice,
        node: NodeId,
        p: PrivilegeId,
    ) -> Option<&SurrogateDef> {
        let mut best: Option<&SurrogateDef> = None;
        for def in self.for_node(node) {
            if !lattice.dominates(p, def.lowest) {
                continue; // not visible via p
            }
            best = match best {
                None => Some(def),
                Some(current) => {
                    let strictly_dominates = lattice.dominates(def.lowest, current.lowest)
                        && def.lowest != current.lowest;
                    let better_incomparable = lattice.incomparable(def.lowest, current.lowest)
                        && def.info_score > current.info_score;
                    if strictly_dominates || better_incomparable {
                        Some(def)
                    } else {
                        Some(current)
                    }
                }
            };
        }
        best
    }

    /// Set version of [`most_dominant_visible`](Self::most_dominant_visible)
    /// for multi-predicate high-water sets (Def. 6): the best surrogate
    /// visible via *any* member, preferring dominance then info-score —
    /// the appendix's "the same process is used for each predicate until
    /// an appropriate surrogate is found".
    pub fn most_dominant_visible_for_set(
        &self,
        lattice: &PrivilegeLattice,
        node: NodeId,
        preds: &[PrivilegeId],
    ) -> Option<&SurrogateDef> {
        let mut best: Option<&SurrogateDef> = None;
        for &p in preds {
            if let Some(candidate) = self.most_dominant_visible(lattice, node, p) {
                best = match best {
                    None => Some(candidate),
                    Some(current) => {
                        let strictly_dominates = lattice
                            .dominates(candidate.lowest, current.lowest)
                            && candidate.lowest != current.lowest;
                        let better_incomparable = lattice
                            .incomparable(candidate.lowest, current.lowest)
                            && candidate.info_score > current.info_score;
                        if strictly_dominates || better_incomparable {
                            Some(candidate)
                        } else {
                            Some(current)
                        }
                    }
                };
            }
        }
        best
    }

    /// Checks every definition against the provider requirements listed in
    /// the module docs.
    pub fn validate(&self, graph: &Graph, lattice: &PrivilegeLattice) -> Result<()> {
        self.by_node
            .keys()
            .try_for_each(|&node| self.validate_node(graph, lattice, node))
    }

    /// [`validate`](Self::validate) for the definitions of one node.
    pub(crate) fn validate_node(
        &self,
        graph: &Graph,
        lattice: &PrivilegeLattice,
        node: NodeId,
    ) -> Result<()> {
        if !graph.contains_node(node) {
            return Err(Error::UnknownNode(node));
        }
        let defs = self.for_node(node);
        let node_lowest = graph.node(node).lowest;
        for def in defs {
            if !(0.0..=1.0).contains(&def.info_score) {
                return Err(Error::InfoScoreOutOfRange {
                    node,
                    score: def.info_score,
                });
            }
            if lattice.dominates(def.lowest, node_lowest) {
                return Err(Error::SurrogateTooPrivileged {
                    node,
                    surrogate_lowest: def.lowest,
                    node_lowest,
                });
            }
        }
        // §4.1 monotonicity across every ordered pair of surrogates.
        for a in defs {
            for b in defs {
                if lattice.dominates(a.lowest, b.lowest) && a.info_score < b.info_score {
                    return Err(Error::InfoScoreNotMonotone { node });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::PrivilegeLattice;

    fn setup() -> (Graph, PrivilegeLattice, [PrivilegeId; 3], NodeId) {
        let mut builder = PrivilegeLattice::builder();
        let public = builder.add("Public").unwrap();
        let low = builder.add("Low").unwrap();
        let high = builder.add("High").unwrap();
        builder.declare_dominates(low, public);
        builder.declare_dominates(high, low);
        let lattice = builder.finish().unwrap();
        let mut graph = Graph::new();
        let n = graph.add_node("secret", high);
        (graph, lattice, [public, low, high], n)
    }

    #[test]
    fn null_surrogate_shape() {
        let (_, lattice, [public, ..], _) = setup();
        let null = SurrogateDef::null(&lattice);
        assert_eq!(null.lowest, public);
        assert!(null.features.is_empty());
        assert_eq!(null.info_score, 0.0);
    }

    #[test]
    fn most_dominant_visible_prefers_higher_lowest() {
        let (_, lattice, [public, low, _], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "coarse".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.1,
            },
        );
        catalog.add(
            n,
            SurrogateDef {
                label: "fine".into(),
                features: Features::new().with("kind", "source"),
                lowest: low,
                info_score: 0.6,
            },
        );
        // A Low consumer gets the fine surrogate; a Public one the coarse.
        let fine = catalog.most_dominant_visible(&lattice, n, low).unwrap();
        assert_eq!(fine.label, "fine");
        let coarse = catalog.most_dominant_visible(&lattice, n, public).unwrap();
        assert_eq!(coarse.label, "coarse");
    }

    #[test]
    fn incomparable_candidates_break_ties_by_info_score() {
        let (mut graph, _, _, _) = setup();
        let (lattice, preds) = PrivilegeLattice::flat(&["A", "B", "Top"]).unwrap();
        let (a, b, _top) = (preds[0], preds[1], preds[2]);
        // Rebuild with a node whose lowest is incomparable to A and B.
        let n = graph.add_node("other", preds[2]);
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "via-a".into(),
                features: Features::new(),
                lowest: a,
                info_score: 0.3,
            },
        );
        catalog.add(
            n,
            SurrogateDef {
                label: "via-b".into(),
                features: Features::new(),
                lowest: b,
                info_score: 0.7,
            },
        );
        // A consumer predicate dominating both A and B does not exist in the
        // flat lattice, so query per branch.
        assert_eq!(
            catalog.most_dominant_visible(&lattice, n, a).unwrap().label,
            "via-a"
        );
        assert_eq!(
            catalog.most_dominant_visible(&lattice, n, b).unwrap().label,
            "via-b"
        );
    }

    #[test]
    fn invisible_when_no_surrogate_is_dominated() {
        let (_, lattice, [_, low, high], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "s".into(),
                features: Features::new(),
                lowest: low,
                info_score: 0.5,
            },
        );
        assert!(catalog
            .most_dominant_visible(&lattice, n, lattice.public())
            .is_none());
        assert!(catalog.most_dominant_visible(&lattice, n, high).is_some());
    }

    #[test]
    fn validate_rejects_dominating_surrogate() {
        let (graph, lattice, [_, _, high], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "too-high".into(),
                features: Features::new(),
                lowest: high, // equals lowest(n): dominates it reflexively
                info_score: 0.5,
            },
        );
        assert!(matches!(
            catalog.validate(&graph, &lattice).unwrap_err(),
            Error::SurrogateTooPrivileged { .. }
        ));
    }

    #[test]
    fn validate_rejects_non_monotone_scores() {
        let (graph, lattice, [public, low, _], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "low".into(),
                features: Features::new(),
                lowest: low,
                info_score: 0.2,
            },
        );
        catalog.add(
            n,
            SurrogateDef {
                label: "public-but-richer".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.9,
            },
        );
        assert!(matches!(
            catalog.validate(&graph, &lattice).unwrap_err(),
            Error::InfoScoreNotMonotone { .. }
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_scores() {
        let (graph, lattice, [public, ..], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "bad".into(),
                features: Features::new(),
                lowest: public,
                info_score: 1.5,
            },
        );
        assert!(matches!(
            catalog.validate(&graph, &lattice).unwrap_err(),
            Error::InfoScoreOutOfRange { .. }
        ));
    }

    #[test]
    fn validate_rejects_unknown_node() {
        let (graph, lattice, [public, ..], _) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            NodeId(42),
            SurrogateDef {
                label: "ghost".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.0,
            },
        );
        assert!(matches!(
            catalog.validate(&graph, &lattice).unwrap_err(),
            Error::UnknownNode(_)
        ));
    }

    #[test]
    fn validate_accepts_well_formed_catalog() {
        let (graph, lattice, [public, low, _], n) = setup();
        let mut catalog = SurrogateCatalog::new();
        catalog.add(
            n,
            SurrogateDef {
                label: "fine".into(),
                features: Features::new(),
                lowest: low,
                info_score: 0.6,
            },
        );
        catalog.add(
            n,
            SurrogateDef {
                label: "coarse".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.3,
            },
        );
        catalog.validate(&graph, &lattice).unwrap();
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
    }
}
