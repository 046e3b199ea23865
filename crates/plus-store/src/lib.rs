//! # plus-store
//!
//! A PLUS-like provenance store substrate: the paper evaluates surrogate
//! protection inside MITRE's PLUS prototype, whose storage layer this
//! crate stands in for (see DESIGN.md's substitution table).
//!
//! * [`record`] — typed provenance records and protection-policy
//!   statements;
//! * [`codec`] — versioned, checksummed binary formats: the full-state
//!   snapshot and the per-mutation WAL frame;
//! * [`store`] — a thread-safe append-only store with persistence and
//!   graph materialization;
//! * [`wal`] — the segmented write-ahead log: durable appends, crash
//!   recovery, checkpointing;
//! * [`mod@ingest`] — imports an in-memory graph and its protection setup
//!   as store records and policy statements;
//! * [`service`] — **the serving layer**: the concurrent, epoch-versioned
//!   [`AccountService`], whose [`Snapshot`]s own the protected accounts
//!   (single-flight per key) and sealed response frames derived from
//!   them, and the typed batch query API;
//! * [`snapshot`] — the per-epoch CSR index ([`SnapshotIndex`]) the
//!   protection hot path runs against;
//! * [`shard`] — scatter-gather support for partitioned deployments:
//!   [`ShardMerge`] folds per-shard record feeds into one
//!   order-canonical graph, and [`MergedSource`] serves it through
//!   [`AccountService::sharded`];
//! * [`wire`] — the query-serving wire protocol: the framed
//!   request/response messages that may cross the trust boundary, and
//!   their binary codecs (spoken over TCP by the `server` crate).
//!
//! The Fig. 10 performance pipeline maps to: `Store::load` (DB access) →
//! [`AccountService::snapshot`] (build graph, epoch-cached) →
//! [`AccountService::get_account`] (protect, cached in the snapshot per
//! `(predicate, strategy)`) → [`AccountService::query_batch`] (query).
//!
//! # Durability
//!
//! A store opened with [`Store::create_durable`] / [`Store::open`] (or a
//! service via [`AccountService::open_durable`]) logs every mutation to a
//! segmented write-ahead log *before* applying it. Each mutation is one
//! frame — `len u32 | crc32 u32 | payload`, where the payload is a tagged
//! `AppendNode` / `AppendEdge` / `ApplyPolicy` record in the snapshot
//! codec's wire encoding — and each segment file starts with a header
//! naming the logical clock of its first frame. Recovery loads the
//! newest valid snapshot and replays the log tail, truncating at the
//! first torn or corrupt frame, so a crash can only lose writes that
//! were never acknowledged. [`Store::checkpoint`] folds the log into a
//! fresh snapshot and prunes what it supersedes. The exact layouts live
//! in the [`codec`] module docs; the protocol in the [`wal`] module
//! docs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod ingest;
pub mod record;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod wal;
pub mod wire;

pub use error::{CodecError, Result, StoreError};
pub use ingest::{ingest, IngestKinds};
pub use record::{EdgeKind, EdgeRecord, NodeKind, NodeRecord, PolicyStatement, RecordId};
pub use service::{AccountService, ProtectedLineageRow, QueryRequest, QueryResponse, Snapshot};
pub use shard::{MergedSource, ShardMerge};
pub use snapshot::SnapshotIndex;
// Re-exported so service call sites can name directions and strategies
// without importing surrogate-core directly.
pub use store::{CheckpointStats, ClockWake, Materialized, Store};
pub use surrogate_core::account::Strategy;
pub use surrogate_core::query::Direction;
pub use wal::{DurabilityOptions, RecoveryReport, SegmentDigest, TailChunk, TailCursor};
pub use wire::{
    ReplicaRole, ReplicaStatus, ServerHello, ShardStatusInfo, WalChunk, WireError, WireErrorKind,
    WriteOp, MAX_REPLICAS, MAX_SHARDS, PROTOCOL_VERSION,
};
