//! Pluggable protection strategies.
//!
//! The paper fixes three ways of turning a graph plus a protection policy
//! into a protected account (§5, §6): the surrogate algorithm, binary
//! show/hide edges, and naïve node hiding. A serving deployment wants to
//! experiment with more — different redundancy rules, coarser summaries,
//! workload-specific redactions — without forking `account.rs`. The
//! [`ProtectionStrategy`] trait is that extension point: anything that can
//! map a [`ProtectionContext`] and a high-water set to a
//! [`ProtectedAccount`] can be registered with a serving layer (see
//! `plus_store::AccountService`) and cached exactly like the built-ins.
//!
//! The closed [`Strategy`] enum remains as a thin `#[non_exhaustive]`
//! selector for serialization and CLI flags; it implements the trait by
//! dispatching to the three unit strategies below.
//!
//! # Writing a custom strategy
//!
//! ```
//! use surrogate_core::prelude::*;
//! use surrogate_core::strategy::ProtectionStrategy;
//!
//! /// The redundancy-filter ablation of DESIGN.md §3.1 as a strategy.
//! struct Unfiltered;
//!
//! impl ProtectionStrategy for Unfiltered {
//!     fn name(&self) -> &str {
//!         "unfiltered"
//!     }
//!     fn protect(
//!         &self,
//!         ctx: &ProtectionContext<'_>,
//!         preds: &[PrivilegeId],
//!     ) -> Result<ProtectedAccount> {
//!         generate_with_options(
//!             ctx,
//!             preds,
//!             GenerateOptions {
//!                 redundancy_filter: false,
//!             },
//!         )
//!     }
//! }
//!
//! let lattice = PrivilegeLattice::public_only();
//! let public = lattice.public();
//! let mut graph = Graph::new();
//! let a = graph.add_node("a", public);
//! let b = graph.add_node("b", public);
//! graph.add_edge(a, b).unwrap();
//! let markings = MarkingStore::new();
//! let catalog = SurrogateCatalog::new();
//! let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
//! let account = Unfiltered.protect(&ctx, &[public]).unwrap();
//! assert_eq!(account.graph().node_count(), 2);
//! ```

use crate::account::{
    generate_for_set, generate_hide_for_set, generate_naive_node_hide_for_set, ProtectedAccount,
    ProtectionContext, Strategy,
};
use crate::error::Result;
use crate::privilege::PrivilegeId;

/// A way of producing a protected account from a protection context and a
/// high-water set of privilege-predicates.
///
/// Implementations must be deterministic for a given `(ctx, preds)` pair:
/// serving layers cache accounts by `(epoch, preds, name)` and assume a
/// cached account is interchangeable with a freshly generated one.
///
/// `Send + Sync` is required so a strategy can be shared across the
/// threads of a concurrent serving layer.
pub trait ProtectionStrategy: Send + Sync {
    /// A stable, unique name for this strategy.
    ///
    /// Used as the cache-key component and the registry key in serving
    /// layers, and for display. Two distinct strategies must not share a
    /// name.
    fn name(&self) -> &str;

    /// Generates the protected account for the high-water set `preds`.
    ///
    /// # Panics
    /// Implementations may panic when `preds` is empty, matching the
    /// built-in generators.
    fn protect(
        &self,
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount>;
}

/// The paper's Surrogate Generation Algorithm (Algorithms 1–3): surrogate
/// nodes plus surrogate edges, maximally informative (Theorem 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Surrogate;

impl ProtectionStrategy for Surrogate {
    fn name(&self) -> &str {
        "surrogate"
    }

    fn protect(
        &self,
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount> {
        generate_for_set(ctx, preds)
    }
}

/// The "binary show/hide" edge baseline of §6: same node layer as
/// [`Surrogate`], but protected incidences drop their edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HideEdges;

impl ProtectionStrategy for HideEdges {
    fn name(&self) -> &str {
        "hide"
    }

    fn protect(
        &self,
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount> {
        generate_hide_for_set(ctx, preds)
    }
}

/// The all-or-nothing baseline of Fig. 1(c): sensitive nodes and their
/// incident edges simply vanish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HideNodes;

impl ProtectionStrategy for HideNodes {
    fn name(&self) -> &str {
        "naive"
    }

    fn protect(
        &self,
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount> {
        generate_naive_node_hide_for_set(ctx, preds)
    }
}

/// The selector enum dispatches to the unit strategies, so APIs taking
/// `&dyn ProtectionStrategy` accept `&Strategy::Surrogate` directly.
impl ProtectionStrategy for Strategy {
    fn name(&self) -> &str {
        Strategy::name(*self)
    }

    fn protect(
        &self,
        ctx: &ProtectionContext<'_>,
        preds: &[PrivilegeId],
    ) -> Result<ProtectedAccount> {
        match self {
            Strategy::Surrogate => Surrogate.protect(ctx, preds),
            Strategy::HideEdges => HideEdges.protect(ctx, preds),
            Strategy::HideNodes => HideNodes.protect(ctx, preds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Features;
    use crate::graph::Graph;
    use crate::marking::{Marking, MarkingStore};
    use crate::privilege::PrivilegeLattice;
    use crate::surrogate::{SurrogateCatalog, SurrogateDef};

    fn fixture() -> (
        Graph,
        PrivilegeLattice,
        MarkingStore,
        SurrogateCatalog,
        PrivilegeId,
    ) {
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
        catalog.add(
            b,
            SurrogateDef {
                label: "b'".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.4,
            },
        );
        (graph, lattice, markings, catalog, public)
    }

    #[test]
    fn unit_strategies_match_enum_dispatch() {
        let (graph, lattice, markings, catalog, public) = fixture();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        for (unit, selector) in [
            (&Surrogate as &dyn ProtectionStrategy, Strategy::Surrogate),
            (&HideEdges, Strategy::HideEdges),
            (&HideNodes, Strategy::HideNodes),
        ] {
            let via_unit = unit.protect(&ctx, &[public]).unwrap();
            let via_enum = ProtectionStrategy::protect(&selector, &ctx, &[public]).unwrap();
            assert_eq!(via_unit.graph().node_count(), via_enum.graph().node_count());
            assert_eq!(via_unit.graph().edge_count(), via_enum.graph().edge_count());
            assert_eq!(unit.name(), ProtectionStrategy::name(&selector));
        }
    }

    #[test]
    fn names_are_distinct_and_parseable() {
        for &s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("bogus"), None);
    }

    #[test]
    fn trait_objects_dispatch() {
        let (graph, lattice, markings, catalog, public) = fixture();
        let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
        let strategies: Vec<Box<dyn ProtectionStrategy>> = vec![
            Box::new(Surrogate),
            Box::new(HideEdges),
            Box::new(HideNodes),
        ];
        let counts: Vec<usize> = strategies
            .iter()
            .map(|s| s.protect(&ctx, &[public]).unwrap().graph().edge_count())
            .collect();
        // Surrogate reconnects (1 edge), the baselines do not (0 edges).
        assert_eq!(counts, vec![1, 0, 0]);
    }
}
