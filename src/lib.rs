//! # surrogate-parenthood
//!
//! Facade crate for the workspace reproducing *Surrogate Parenthood:
//! Protected and Informative Graphs* (Blaustein et al., PVLDB 4(8), 2011).
//!
//! * [`surrogate_core`] — the paper's contribution: protected accounts,
//!   surrogate nodes/edges, the three §5–§6 protection strategies, and
//!   the utility and opacity measures;
//! * [`plus_store`] — the PLUS-like provenance store substrate and the
//!   concurrent, epoch-versioned [`AccountService`] serving layer;
//! * [`server`] — the network edge: an epoll-reactor TCP server that
//!   exposes *only* the protected query surface over a checksummed
//!   binary protocol, the blocking [`Client`]/[`ClientPool`]
//!   (`spgraph serve` / `spgraph query --remote`), and WAL-shipping
//!   [`Replica`]s that scale reads horizontally
//!   (`spgraph serve --replicate-from`);
//! * [`graphgen`] — evaluation workload generators.
//!
//! See the `examples/` directory for runnable walkthroughs and the
//! `surrogate-bench` crate for the experiment harness.
//!
//! ## Quick start
//!
//! Ingest provenance into the PLUS-like store, state the protection
//! policy, and stand up an [`AccountService`] — the one concurrent,
//! epoch-versioned surface that materializes the graph, caches each
//! consumer's protected account per `(predicate, strategy)` in the
//! snapshot it was derived from, and answers batched lineage queries
//! (paper §3/§5/§6.4):
//!
//! ```
//! use std::sync::Arc;
//!
//! use plus_store::{
//!     AccountService, Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, Store,
//! };
//! use surrogate_parenthood::prelude::*;
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! // A chain lattice: "Trusted" (index 1) dominates "Public" (index 0).
//! let store = Arc::new(Store::new(&["Public", "Trusted"], &[(1, 0)])?);
//! let public = store.predicate("Public").unwrap();
//! let trusted = store.predicate("Trusted").unwrap();
//!
//! // A tiny lineage: informant → analysis → report, where the
//! // informant's identity is Trusted-only.
//! let informant = store.append_node("informant", NodeKind::Agent, Features::new(), trusted);
//! let analysis = store.append_node("analysis", NodeKind::Process, Features::new(), public);
//! let report = store.append_node("report", NodeKind::Data, Features::new(), public);
//! store.append_edge(informant, analysis, EdgeKind::InputTo)?;
//! store.append_edge(analysis, report, EdgeKind::GeneratedBy)?;
//!
//! // Policy: show the public a coarse surrogate instead of the informant.
//! store.apply_policy(PolicyStatement::AddSurrogate {
//!     node: informant,
//!     label: "a trusted source".into(),
//!     features: Features::new(),
//!     lowest: public,
//!     info_score: 0.3,
//! })?;
//!
//! // Serve. The service owns materialization and caching; its epoch
//! // tracks the store, so policy edits invalidate accounts automatically.
//! let service = AccountService::new(store.clone());
//! let consumer = Consumer::public(&service.snapshot().lattice);
//!
//! // One call, many lineage queries, one consistent epoch.
//! let responses = service.query_batch(
//!     &consumer,
//!     &[
//!         QueryRequest::new(report, Direction::Backward, u32::MAX, Strategy::Surrogate),
//!         QueryRequest::new(analysis, Direction::Forward, u32::MAX, Strategy::Surrogate),
//!     ],
//! )?;
//! assert_eq!(responses[0].epoch, store.version());
//! assert_eq!(responses[0].rows[1].label, "a trusted source");
//! assert!(responses[0].rows[1].surrogate);
//!
//! // The cached account is also directly available for measures.
//! let account = service.get_account(&consumer, &Strategy::Surrogate)?;
//! let snapshot = service.snapshot();
//! assert_eq!(account.graph().node_count(), 3);
//! assert!(path_utility(&snapshot.graph, &account) > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Durability
//!
//! For crash safety, create the store durably: every append is then
//! written to a segmented, checksummed write-ahead log *before* it is
//! applied, and reopening replays the log (truncating any torn tail)
//! so the service resumes at exactly the epoch the log ends at:
//!
//! ```
//! use plus_store::{AccountService, NodeKind, Store};
//! use surrogate_parenthood::prelude::*;
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("sp-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Store::create_durable(&dir, &["Public"], &[])?;
//! let public = store.predicate("Public").unwrap();
//! store.append_node("report", NodeKind::Data, Features::new(), public);
//! store.checkpoint()?; // fold the log into a snapshot, prune segments
//! drop(store); // …or crash: the log has every acknowledged append
//!
//! let service = AccountService::open_durable(&dir)?; // recover + serve
//! assert_eq!(service.epoch(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! See the `plus_store` crate docs (and its `wal` module) for the frame
//! format, recovery protocol, and checkpoint policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use graphgen;
pub use plus_store;
pub use server;
pub use surrogate_core;

pub use plus_store::{AccountService, QueryRequest, QueryResponse, Snapshot};
pub use server::{Client, ClientPool, Replica, Server};

/// The most used types across the workspace.
pub mod prelude {
    pub use plus_store::{AccountService, QueryRequest, QueryResponse, Snapshot};
    pub use server::{Client, ClientPool, Replica, Server};
    pub use surrogate_core::prelude::*;
}
