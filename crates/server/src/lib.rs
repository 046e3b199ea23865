//! # server
//!
//! The network edge of the reproduction: an epoll-reactor TCP server
//! that puts the epoch-versioned
//! [`AccountService`](plus_store::AccountService) behind the wire
//! protocol of [`plus_store::wire`], plus the blocking [`Client`] /
//! [`ClientPool`] that speak it.
//!
//! # The trust boundary
//!
//! The paper's protection guarantee (and SurrogateShield's deployment
//! argument) is only real when the unprotected graph physically cannot
//! reach an untrusted consumer. This crate is that boundary:
//!
//! * **Server side (trusted).** The raw [`Store`](plus_store::Store),
//!   its write-ahead log, the materialized graph, and every
//!   [`ProtectedAccount`](surrogate_core::account::ProtectedAccount)
//!   live inside the server process and are never serialized to a
//!   socket.
//! * **Wire (untrusted).** Only [`QueryResponse`](plus_store::QueryResponse)
//!   rows — labels and depths *as seen through the consumer's protected
//!   account* — plus epochs, checkpoint statistics, lattice predicate
//!   *names*, and typed error frames ever cross. A surrogate row carries
//!   the surrogate's label, never the original's.
//! * **Client side (untrusted).** [`Client`] holds the handshake
//!   metadata ([`ServerHello`](plus_store::ServerHello)) and decoded
//!   response rows; there is no API for fetching the graph, the
//!   markings, or another consumer's account.
//!
//! Consumers identify themselves at Hello time by *claiming* predicate
//! names (credential verification is out of scope for the paper, §2;
//! slot a verifier into the handshake before trusting claims in
//! production). Every request on the connection is then answered through
//! the account the claimed credential set is entitled to — exactly the
//! in-process [`AccountService`](plus_store::AccountService)
//! authorization rules, applied at the network edge.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use plus_store::{AccountService, Direction, NodeKind, QueryRequest, Store, Strategy};
//! use surrogate_core::feature::Features;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let store = Arc::new(Store::new(&["Public"], &[])?);
//! let public = store.predicate("Public").unwrap();
//! let report = store.append_node("report", NodeKind::Data, Features::new(), public);
//!
//! // Owner side: bind the service to a socket.
//! let config = server::ServerConfig::default();
//! let server = server::Server::bind(Arc::new(AccountService::new(store)), "127.0.0.1:0", &config)?;
//!
//! // Consumer side: connect, query, never see the store.
//! let mut client = server::Client::connect(server.local_addr(), "reader", &[])?;
//! let response = client.query(&QueryRequest::new(
//!     report,
//!     Direction::Backward,
//!     u32::MAX,
//!     Strategy::Surrogate,
//! ))?;
//! assert_eq!(response.epoch, client.hello().epoch);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes
//!
//! No async runtime: an accept thread performs admission control
//! (connection caps, typed `Overloaded` refusals) and deals admitted
//! sockets round-robin to a few event-loop shards built on the vendored
//! [`reactor`] crate (epoll behind a safe `Poller` API). Each shard owns
//! nonblocking per-connection state machines, so tens of thousands of
//! idle connections cost file descriptors and buffers, not threads —
//! while the active set keeps the blocking-era round-trip latency
//! (`TCP_NODELAY` on; `spbench`'s `read-hot` workload measures it). Slow
//! readers get bounded write backpressure instead of unbounded
//! buffering, and the [`metrics`] module exposes the whole edge —
//! request latency histograms, frame-cache hit rates, overload drops —
//! as a Prometheus `GET /metrics` endpoint on a separate listener
//! ([`ServerConfig::metrics_addr`]). Frames reuse the WAL's
//! `len | crc32 | payload` convention, so the same corruption
//! discipline covers disk and wire: a frame that fails its checksum or
//! declares an implausible length is answered with a typed error frame
//! (best effort) and a hangup, never a guess.
//!
//! # Replication
//!
//! Read traffic scales horizontally by **WAL shipping**: a primary
//! server whose operator enabled [`ServerConfig::allow_replication`]
//! streams its sealed write-ahead-log frames to [`Replica`]s, each of
//! which replays them into its own durable store and re-serves the same
//! query protocol read-only at a coherent (possibly lagging) epoch —
//! bind one with [`Role::Replica`]. The unprotected graph still
//! never crosses a *consumer* socket; the replication stream carries
//! raw records and belongs inside the owner's trust domain. See the
//! [`replica`] module docs for the full model, and
//! [`ClientPool::with_replicas`] for spreading reads across a replica
//! set with primary fallback.
//!
//! When a primary dies, a replica can be **promoted** in place
//! ([`Replica::promote`], or [`Client::promote`] against its fronting
//! server): promotion durably bumps a **fencing term** that every
//! shipped WAL chunk carries, so frames from the deposed primary are
//! refused rather than applied, and a restarted deposed primary
//! truncates its unreplicated tail via anti-entropy digests and rejoins
//! as a replica. [`ClientPool::writable`] re-resolves the writable
//! endpoint across a failover. The [`replica`] module's *Failover*
//! section has the runbook and the guarantees.
//!
//! # Sharding
//!
//! *Write* traffic scales horizontally by **partitioning the keyspace**:
//! shard `i` of `N` owns the ids ≡ `i` (mod `N`) and runs an ordinary
//! primary over a partitioned store, accepting remote
//! [`WriteOp`](plus_store::WriteOp)s for the ids it owns — bind one with
//! [`Role::Shard`], route to them with a [`ShardRouter`]. Cross-shard
//! traversals are served by a **gather node** ([`scatter::Gather`],
//! bound with [`Role::Gather`]): it follows every shard's replication
//! feed, folds them into one order-canonical merged graph, and stamps
//! each response with the per-shard epoch vector it was computed at.
//! Mis-routed writes come back as typed `WrongShard` redirects; a
//! gather missing a feed *refuses* queries (`ShardUnavailable`) instead
//! of serving an answer with a silent gap.
//!
//! The whole deployment — shard primaries, their replica sets, and the
//! consumer identity — is described once by a [`Topology`] (parsed from
//! the operator's `--peers` spec) and consumed by [`ShardRouter`],
//! [`Gather`], and the server [`Role`]s, so every layer agrees on shard
//! order and failover candidates. Each shard primary may carry its own
//! replica set with fenced promotion; the gather and the router both
//! re-resolve a promoted shard primary on their own. See the
//! [`scatter`] module docs and `docs/ARCHITECTURE.md` for the topology.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod admission;
mod client;
mod error;
mod follower;
mod frame;
pub mod metrics;
pub mod replica;
pub mod scatter;
mod server;
pub mod topology;

pub use client::{Client, ClientPool, PooledClient, ShardRouter};
pub use error::{ClientError, ReplicaError};
pub use frame::{read_frame, write_frame, FrameError};
pub use metrics::{OverloadReason, RequestType, ServerMetrics};
pub use reactor::sys::raise_nofile_limit;
pub use replica::{Replica, ReplicaConfig, ReplicationMonitor};
pub use scatter::{Gather, GatherConfig};
pub use server::{Role, Server, ServerConfig, ServerStats};
pub use topology::{ShardSite, Topology};
