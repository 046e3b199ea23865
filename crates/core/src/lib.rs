//! # surrogate-core
//!
//! A Rust implementation of *Surrogate Parenthood: Protected and
//! Informative Graphs* (Blaustein, Chapman, Seligman, Allen, Rosenthal —
//! PVLDB 4(8), 2011).
//!
//! Graph-structured data — provenance, social networks, computer
//! networks — often contains *selectively* sensitive nodes and edges.
//! Simply hiding them breaks the path-traversal queries these applications
//! live on. This crate implements the paper's remedy:
//!
//! * **surrogate nodes** — less sensitive stand-ins for protected nodes
//!   ([`surrogate`]);
//! * **surrogate edges** — edges summarizing HW-permitted paths through
//!   hidden regions ([`account`]);
//! * **protected accounts** — per-privilege views that are provably
//!   *maximally informative* (paper Def. 9 / Theorem 1);
//! * **utility and opacity measures** to compare protection strategies
//!   ([`measures`]).
//!
//! ## Quick start
//!
//! ```
//! use surrogate_core::prelude::*;
//!
//! // 1. Privileges: Public ⊑ Trusted.
//! let mut lattice = PrivilegeLattice::builder();
//! let public = lattice.add("Public").unwrap();
//! let trusted = lattice.add("Trusted").unwrap();
//! lattice.declare_dominates(trusted, public);
//! let lattice = lattice.finish().unwrap();
//!
//! // 2. A graph with one sensitive link in the middle.
//! let mut graph = Graph::new();
//! let src = graph.add_node("informant", trusted);
//! let a = graph.add_node("analyst", public);
//! let b = graph.add_node("report", public);
//! graph.add_edge(src, a).unwrap();
//! graph.add_edge(a, b).unwrap();
//!
//! // 3. Protect: the informant's role is surrogate-marked, and a coarse
//! //    surrogate node is registered for public consumption.
//! let mut markings = MarkingStore::new();
//! markings.set_node(src, public, Marking::Surrogate);
//! let mut catalog = SurrogateCatalog::new();
//! catalog.add(src, SurrogateDef {
//!     label: "a trusted source".into(),
//!     features: Features::new(),
//!     lowest: public,
//!     info_score: 0.3,
//! });
//!
//! let ctx = ProtectionContext::new(&graph, &lattice, &markings, &catalog);
//! let account = ctx.protect(public, Strategy::Surrogate).unwrap();
//!
//! // The public account keeps the analyst→report path and shows the
//! // surrogate instead of the informant.
//! assert_eq!(account.graph().node_count(), 3);
//! assert!(path_utility(&graph, &account) > 0.0);
//! ```
//!
//! ## Paper → module map
//!
//! | Paper | Module |
//! |---|---|
//! | §2 graph model | [`graph`], [`feature`] |
//! | §2 privilege-predicates (Defs. 1–3) | [`privilege`], [`credential`] |
//! | §3.1 surrogate nodes | [`surrogate`] |
//! | §3.1 high-water sets (Def. 6) | [`hw`] |
//! | §3.2 edge markings (Def. 7) | [`marking`] |
//! | §5 + Appendix B generation (Defs. 8–9) | [`account`] |
//! | §4 utility & opacity measures | [`measures`] |
//! | §1 path-traversal queries | [`query`] |
//! | Lemmas 1–2 / Theorem 1 as checks | [`validate`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod account;
pub mod credential;
pub mod dot;
pub mod error;
pub mod feature;
pub mod graph;
pub mod hw;
pub mod marking;
pub mod measures;
pub mod privilege;
pub mod query;
pub mod shard;
pub mod surrogate;
pub mod util;
pub mod validate;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::account::{
        generate_for_set, generate_hide_for_set, generate_naive_node_hide_for_set,
        generate_with_options, Correspondence, GenerateOptions, ProtectedAccount,
        ProtectionContext, Strategy,
    };
    pub use crate::credential::Consumer;
    pub use crate::dot::{account_to_dot, graph_to_dot};
    pub use crate::error::{Error, Result};
    pub use crate::feature::{FeatureValue, Features};
    pub use crate::graph::{Csr, Edge, Graph, Node, NodeId};
    pub use crate::hw::{high_water_set, is_high_water_set};
    pub use crate::marking::{Marking, MarkingStore};
    pub use crate::measures::{
        average_protected_opacity, edge_opacity, edges_at_risk, min_protected_opacity,
        node_utility, path_percentages, path_utility, risk_report, OpacityEvaluator, OpacityModel,
        RiskEntry,
    };
    pub use crate::privilege::{PrivilegeId, PrivilegeLattice};
    pub use crate::query::{
        ancestors, descendants, reaches, shortest_path, traverse, Direction, Traversal,
    };
    pub use crate::shard::{Partition, ShardMap};
    pub use crate::surrogate::{SurrogateCatalog, SurrogateDef};
}
