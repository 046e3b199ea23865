//! The query-serving wire protocol: what crosses the trust boundary
//! between a data owner's store and a remote consumer.
//!
//! The paper's deployment sketch (§6.4) and the whole protection argument
//! assume the unprotected graph never leaves the owner's process: remote
//! consumers only ever see [`QueryResponse`] rows computed through a
//! protected account. This module defines the messages of that boundary
//! and their binary codecs; the `server` crate speaks them over TCP.
//!
//! # Framing
//!
//! Every message travels in the same frame convention as the write-ahead
//! log ([`codec`](crate::codec) module):
//!
//! ```text
//! frame: len u32 | crc32 u32 (IEEE, over payload) | payload (len bytes)
//! ```
//!
//! with the same `MAX_FRAME_LEN` sanity bound. A frame whose length field
//! exceeds the bound, whose checksum fails, or whose payload does not
//! decode to exactly one message is **malformed** — a server hangs up on
//! it rather than guessing (a typed [`Response::Error`] is sent
//! best-effort first).
//!
//! # Messages
//!
//! Payloads are tagged little-endian structures (strings are `u32` length
//! + UTF-8, like snapshots):
//!
//! ```text
//! request:  tag u8 — 0 Hello         { version u16, consumer str,
//!                                      u16 n { pred-name str }×n }
//!                    1 Query         { query-request }
//!                    2 Batch         { u32 n (≤ MAX_BATCH), query-request ×n }
//!                    3 Epoch         { }
//!                    4 Checkpoint    { }
//!                    5 Subscribe     { from_clock u64 }
//!                    6 Status        { }
//!                    7 LogDigests    { }
//!                    8 Promote       { }
//!                    9 Write         { write-op }
//!
//! response: tag u8 — 0 Hello         { version u16, epoch u64, nodes u64,
//!                                      u16 n { pred-name str }×n }
//!                    1 Query         { query-response }
//!                    2 Batch         { u32 n, query-response ×n }
//!                    3 Epoch         { epoch u64 }
//!                    4 Checkpoint    { clock u64, snapshot_bytes u64,
//!                                      pruned_segments u64, pruned_snapshots u64 }
//!                    5 Error         { kind u8, message str }
//!                    6 WalChunk      { start_clock u64, primary_epoch u64,
//!                                      term u64,
//!                                      snapshot (0 | 1 u32-len bytes),
//!                                      frames u32-len bytes (≤ MAX_WAL_CHUNK) }
//!                    7 Status        { role u8, local_epoch u64,
//!                                      primary_epoch u64, term u64,
//!                                      connected u8, error (0 | 1 str),
//!                                      primary_addr (0 | 1 str),
//!                                      count u32, index (0 | 1 u32),
//!                                      u32 n (≤ MAX_SHARDS) { epoch u64 }×n,
//!                                      u32 p (≤ MAX_SHARDS)
//!                                      { primary-addr str }×p,
//!                                      u32 s (≤ MAX_SHARDS)
//!                                      { u32 r (≤ MAX_REPLICAS)
//!                                        { replica-addr str }×r }×s }
//!                    8 LogDigests    { term u64, u32 n (≤ MAX_SEGMENT_DIGESTS)
//!                                      { start_clock u64, bytes u64, crc u32 }×n }
//!                    9 Promoted      { term u64 }
//!                   10 Written       { clock u64, id (0 | 1 u32) }
//!
//! query-request:  root u32 | direction u8 (0 back, 1 fwd, 2 both) |
//!                 max_depth u32 | strategy u8 (0 surrogate, 1 hide,
//!                 2 naive) | predicate (0 | 1 u16)
//! query-response: epoch u64 | root u32 | u32 n { record u32, label str,
//!                 depth u32, surrogate u8 }×n |
//!                 u32 m (≤ MAX_SHARDS) { shard-epoch u64 }×m
//! write-op:       tag u8 — 0 AppendNode  { label str, kind u8,
//!                                          lowest u16, features }
//!                          1 AppendEdge  { from u32, to u32, kind u8 }
//!                          2 ApplyPolicy { policy statement, as in
//!                                          snapshots }
//! ```
//!
//! The Hello exchange authenticates nothing (credential generation is out
//! of scope for the paper, §2): the client *names* the predicates it
//! claims, the server resolves them against its lattice and derives the
//! [`Consumer`](surrogate_core::credential::Consumer). An empty claim set
//! is the Public consumer. The server's Hello answers with its protocol
//! version, current epoch, record count, and the lattice's predicate
//! names — everything a client needs to phrase requests, and nothing
//! about the unprotected graph.
//!
//! # Replication messages
//!
//! [`Request::Subscribe`] converts a connection into a one-way
//! replication stream: the server (a **primary** fronting a durable
//! store) answers with a run of [`Response::WalChunk`] frames, each
//! carrying sealed write-ahead-log frames — the exact bytes of the
//! primary's segments, re-checked by the same `len | crc32 | payload`
//! rules at every hop — plus the primary's epoch at send time. A cold
//! subscriber (`from_clock == 0`), or one whose clock predates the
//! primary's retained log (a checkpoint pruned it), first receives a
//! chunk whose `snapshot` field holds full snapshot bytes to install
//! before any frame applies.
//!
//! **These messages cross the trust boundary in the other direction**:
//! WAL frames carry *raw* records — original labels, features, policy —
//! not protected views. A server therefore refuses `Subscribe` unless
//! its operator opted in (`--allow-replication`), and replication links
//! belong inside the owner's trust domain, next to the store, never on
//! a consumer-facing socket.
//!
//! [`Request::Status`] is consumer-safe: it reports only epochs,
//! connectivity and addresses ([`ReplicaStatus`] and
//! [`ShardStatusInfo`]), letting clients and operators measure a
//! replica's lag without seeing any data.
//!
//! # Fencing
//!
//! Every [`Response::WalChunk`] carries the sender's **fencing term** —
//! a durable counter bumped exactly once per promotion. A store refuses
//! frames stamped with a term lower than one it has observed, so a
//! deposed primary that comes back after a `spgraph promote` cannot
//! extend (fork) anyone's history: its chunks die with a typed
//! `DeposedPrimary` error instead of being applied. The anti-entropy
//! exchange ([`Request::LogDigests`]) closes the loop in the other
//! direction: the deposed primary compares per-segment digests against
//! the new primary, truncates its unreplicated tail, and rejoins as a
//! replica.
//!
//! # Sharding messages
//!
//! A partitioned deployment splits the keyspace across `N` shard
//! primaries (shard `i` owns ids ≡ `i` mod `N`; see
//! [`surrogate_core::shard`]). [`Request::Write`] carries one mutation —
//! a [`WriteOp`] — to the shard that owns its routing id; a mis-routed
//! write is refused with [`WireErrorKind::WrongShard`], whose message is
//! the owning shard's address when known (a redirect, like
//! [`NotWritable`](WireErrorKind::NotWritable)). The second half of a
//! [`Response::Status`] says where the answering server sits in the
//! topology, which addresses serve each shard, and how much of each
//! shard's history it reflects.
//!
//! Every [`QueryResponse`] carries a per-shard **epoch vector** next to
//! its scalar epoch: empty from an unsharded server; one live slot from
//! a shard primary; the full vector from a scatter-gather server, whose
//! scalar epoch is the vector's sum. A gather that has lost a feed
//! refuses queries with [`WireErrorKind::ShardUnavailable`] rather than
//! serving an answer with a silent gap in it.

use bytes::{BufMut, BytesMut};
use surrogate_core::account::Strategy;
use surrogate_core::feature::Features;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::query::Direction;

use crate::codec::{
    check_count, put_features, put_opt, put_opt_predicate, put_policy, put_str, Reader,
};
use crate::error::CodecError;
use crate::record::{EdgeKind, NodeKind, PolicyStatement, RecordId};
use crate::service::{ProtectedLineageRow, QueryRequest, QueryResponse};
use crate::store::CheckpointStats;
use crate::wal::SegmentDigest;

/// Version of the wire protocol spoken by this build. A server answers a
/// mismatched [`Request::Hello`] with [`WireErrorKind::VersionMismatch`]
/// and hangs up.
///
/// Version 2 added the replication messages ([`Request::Subscribe`],
/// [`Response::WalChunk`], and a `ReplicaStatus` request); version-1
/// peers would treat their tags as malformed frames, so the bump keeps
/// the failure a clean handshake refusal instead of a mid-stream hangup.
///
/// Version 3 added [`WireErrorKind::Overloaded`] — the admission-control
/// refusal a server sheds load with. Error-kind tags are part of the
/// frame (an unknown tag is a malformed frame), so the new kind needs
/// the bump for the same reason the replication tags did.
///
/// Version 4 added failover: a fencing `term` field in
/// [`Response::WalChunk`] and [`ReplicaStatus`] (and a `primary_addr`
/// redirect hint in the latter), the anti-entropy exchange
/// ([`Request::LogDigests`] / [`Response::LogDigests`]), live promotion
/// ([`Request::Promote`] / [`Response::Promoted`]), and
/// [`WireErrorKind::NotWritable`] — the typed refusal a read-only
/// replica answers write-path requests with, carrying the writable
/// primary's address so clients can fail over without restart.
///
/// Version 5 added sharding: [`Request::Write`] / [`Response::Written`]
/// (single-record remote mutation, routed by ownership), a
/// `ShardStatus` request and response (topology and the per-shard epoch
/// vector), shard fields in the server Hello, the shard-epoch vector
/// appended to every query response, and the
/// [`WireErrorKind::WrongShard`] / [`WireErrorKind::ShardUnavailable`]
/// refusals.
///
/// Version 6 added replicated-shard topology discovery: the server
/// Hello carried the shard primaries' addresses in shard order, and the
/// `ShardStatus` answer carried each shard's configured replica
/// addresses (bounded per shard by [`MAX_REPLICAS`]).
///
/// Version 7 folded the three status surfaces into one:
/// [`Request::Status`] / [`Response::Status`] (tags 6 and 7) answer with
/// the replication status and then the shard status, whose
/// [`primaries`](ShardStatusInfo::primaries) list is the peer list the
/// Hello used to carry. The Hello lost its shard count, shard index and
/// peer list, and the `ShardStatus` tags (request 10, response 11) were
/// retired. Every other message kept its tag and its bytes.
pub const PROTOCOL_VERSION: u16 = 7;

/// Sanity bound on requests per [`Request::Batch`] frame; larger batches
/// are rejected at decode time so a hostile frame cannot force an
/// unbounded allocation or an unbounded amount of server work.
pub const MAX_BATCH: u32 = 1 << 14;

/// Sanity bound on the sealed-frame bytes one [`Response::WalChunk`] may
/// carry; larger declarations are rejected at decode time (the feeder
/// cuts chunks far smaller — this guards the *reader* against hostile or
/// corrupt length fields, like [`MAX_BATCH`] does for batches).
pub const MAX_WAL_CHUNK: u32 = 1 << 22;

/// Sanity bound on segment digests per [`Response::LogDigests`] frame.
/// A store would need an absurd retained log to exceed it (segments
/// rotate at megabytes each); hostile declarations beyond it are
/// rejected at decode time before any allocation.
pub const MAX_SEGMENT_DIGESTS: u32 = 1 << 20;

/// Sanity bound on the shard-epoch vectors in query responses and on
/// each list in a [`Response::Status`]'s shard half: no real cluster
/// approaches a thousand shards, and a hostile count beyond it is
/// rejected at decode time before any allocation.
pub const MAX_SHARDS: u32 = 1 << 10;

/// Sanity bound on the replica addresses listed *per shard* in a
/// [`Response::Status`]: no shard runs hundreds of replicas, and a
/// hostile count beyond it is rejected at decode time before any
/// allocation (the whole replica table is further bounded by
/// [`MAX_SHARDS`] shards).
pub const MAX_REPLICAS: u32 = 1 << 8;

/// Every [`Request`] variant name, in tag order — the normative list
/// the wire-spec conformance test checks `docs/WIRE.md` against.
pub const REQUEST_VARIANTS: [&str; 10] = [
    "Hello",
    "Query",
    "Batch",
    "Epoch",
    "Checkpoint",
    "Subscribe",
    "Status",
    "LogDigests",
    "Promote",
    "Write",
];

/// Every [`Response`] variant name, in tag order (see
/// [`REQUEST_VARIANTS`]).
pub const RESPONSE_VARIANTS: [&str; 11] = [
    "Hello",
    "Query",
    "Batch",
    "Epoch",
    "Checkpoint",
    "Error",
    "WalChunk",
    "Status",
    "LogDigests",
    "Promoted",
    "Written",
];

/// Every [`WireErrorKind`] name, in tag order (see
/// [`REQUEST_VARIANTS`]).
pub const ERROR_KINDS: [&str; 11] = [
    "NotAuthorized",
    "UnknownStrategy",
    "UnknownPredicate",
    "NotDurable",
    "VersionMismatch",
    "BadRequest",
    "Internal",
    "Overloaded",
    "NotWritable",
    "WrongShard",
    "ShardUnavailable",
];

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a connection: protocol version, consumer name, and the
    /// predicate names the consumer claims. Empty claims = Public.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Display name of the consumer (shows up in error messages).
        consumer: String,
        /// Claimed predicate names, resolved against the server lattice.
        claims: Vec<String>,
    },
    /// One lineage query.
    Query(QueryRequest),
    /// Many lineage queries answered against one pinned epoch.
    Batch(Vec<QueryRequest>),
    /// Asks for the server's current epoch.
    Epoch,
    /// Asks the server to checkpoint its durable store.
    Checkpoint,
    /// Converts the connection into a replication stream: the server
    /// answers with [`Response::WalChunk`] frames from `from_clock`
    /// onward (a snapshot first when the clock predates the retained
    /// log, or is 0) and keeps streaming until either side hangs up.
    ///
    /// Owner-side only: the stream carries **raw** WAL records, so a
    /// server refuses this unless replication was explicitly enabled.
    Subscribe {
        /// The subscriber's local clock — the first frame it needs.
        from_clock: u64,
    },
    /// Asks for the server's status ([`Response::Status`]): its
    /// replication role and link, then its place in the shard topology.
    /// Safe for any consumer: it reveals epochs, connectivity and
    /// addresses only.
    Status,
    /// Asks for the server's per-segment WAL digests
    /// ([`Response::LogDigests`]) — the anti-entropy exchange a rejoining
    /// peer uses to find where its log diverged from the primary's.
    ///
    /// Owner-side only, like [`Request::Subscribe`]: digests reveal log
    /// structure, so a server refuses this unless replication is enabled.
    LogDigests,
    /// Asks the server to promote itself to primary: bump its durable
    /// fencing term, flip [`ReplicaRole::Primary`], and stop following
    /// its old primary. Idempotent on a server that is already primary
    /// (answers with the current term). Owner-side only.
    Promote,
    /// One remote mutation, routed to the shard that owns its routing
    /// id (a node append may go to any shard; an edge goes to `from`'s
    /// owner, policy to the governed node's owner). A mis-routed write
    /// is refused with [`WireErrorKind::WrongShard`]; an unsharded
    /// writable server accepts any write. The mutation crosses the
    /// trust boundary *into* the store, so servers gate it like
    /// checkpointing (operator opt-in), not like queries.
    Write {
        /// The mutation to apply.
        op: WriteOp,
    },
}

/// One mutation crossing the wire — the payload of [`Request::Write`].
///
/// The store-assigned fields of the corresponding records (`created_at`,
/// the node's id) are *absent*: the owning shard assigns them at apply
/// time and answers with [`Response::Written`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Append a node record. The answering shard assigns the global id
    /// (its next local position, mapped through its partition).
    AppendNode {
        /// Display label.
        label: String,
        /// Provenance role.
        kind: NodeKind,
        /// Attribute–value features.
        features: Features,
        /// Lowest privilege-predicate required to see the node.
        lowest: PrivilegeId,
    },
    /// Append an edge. Routed by `from`'s owner; `to` may be foreign.
    AppendEdge {
        /// Source node (global id; must be owned by the answering shard).
        from: RecordId,
        /// Destination node (global id; may be foreign).
        to: RecordId,
        /// Relationship kind.
        kind: EdgeKind,
    },
    /// Apply a policy statement. Routed by the owner of the node the
    /// statement governs.
    ApplyPolicy(PolicyStatement),
}

impl WriteOp {
    /// The global id that decides which shard must apply this write, or
    /// `None` for node appends (any shard may take them).
    pub fn routing_id(&self) -> Option<RecordId> {
        match self {
            WriteOp::AppendNode { .. } => None,
            WriteOp::AppendEdge { from, .. } => Some(*from),
            WriteOp::ApplyPolicy(statement) => Some(statement.node()),
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    Hello(ServerHello),
    /// Answer to [`Request::Query`].
    Query(QueryResponse),
    /// Answer to [`Request::Batch`], one response per request, in order.
    Batch(Vec<QueryResponse>),
    /// Answer to [`Request::Epoch`].
    Epoch(u64),
    /// Answer to [`Request::Checkpoint`].
    Checkpoint(CheckpointStats),
    /// A typed failure. Recoverable kinds leave the connection open;
    /// protocol violations are followed by a hangup.
    Error(WireError),
    /// One replication chunk, streamed after [`Request::Subscribe`].
    WalChunk(WalChunk),
    /// Answer to [`Request::Status`]. Contains no graph data.
    Status {
        /// Role, epochs, fencing term and feed-link health.
        replica: ReplicaStatus,
        /// Place in the shard topology, its addresses, and the
        /// per-shard epochs.
        shards: ShardStatusInfo,
    },
    /// Answer to [`Request::LogDigests`]: the server's fencing term and
    /// one digest per retained WAL segment, ascending by start clock.
    LogDigests {
        /// The server's current fencing term.
        term: u64,
        /// Per-segment digests (see [`SegmentDigest`]).
        segments: Vec<SegmentDigest>,
    },
    /// Answer to [`Request::Promote`]: the (possibly just bumped)
    /// fencing term the server now serves at.
    Promoted {
        /// The server's fencing term after the promotion.
        term: u64,
    },
    /// Answer to [`Request::Write`]: the mutation was applied durably
    /// (by the store's durability options).
    Written {
        /// The server's clock after the mutation — the epoch at which
        /// the write is first visible.
        clock: u64,
        /// The assigned global id, for [`WriteOp::AppendNode`]; `None`
        /// for edges and policy.
        id: Option<RecordId>,
    },
}

/// A server's place in the shard topology and its view of each shard's
/// history. Contains no graph data — safe for any consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatusInfo {
    /// Total shards in the deployment; 0 for an unsharded server.
    pub count: u32,
    /// The answering server's own shard index; `None` on a
    /// scatter-gather server (it serves all shards) and on unsharded
    /// servers.
    pub index: Option<u32>,
    /// Per-shard epochs as this server knows them: its own slot live
    /// and the rest zero on a shard primary; the full gather vector on
    /// a scatter-gather server; a single element (the store version) on
    /// an unsharded server.
    pub epochs: Vec<u64>,
    /// The shard primaries' addresses in shard order (`primaries[i]` is
    /// shard `i`'s), when the answering server knows its deployment's
    /// topology; empty otherwise (including every unsharded server).
    /// Bounded by [`MAX_SHARDS`].
    pub primaries: Vec<String>,
    /// Per-shard replica addresses, in shard order, as configured on
    /// the answering server's topology: `replicas[i]` lists the
    /// replicas following shard `i`'s primary (the promotion candidates
    /// a client re-resolves against when that primary dies). Empty when
    /// the server knows no replica topology; bounded by [`MAX_SHARDS`]
    /// shards of [`MAX_REPLICAS`] addresses each.
    pub replicas: Vec<Vec<String>>,
}

/// One replication stream element: sealed write-ahead-log frames (and,
/// when the subscriber must backfill, a snapshot to install first).
///
/// `frames` holds whole sealed frames — `len u32 | crc32 u32 | payload`,
/// byte-identical to the primary's segment contents — concatenated and
/// contiguous in clock from [`start_clock`](Self::start_clock). An empty
/// `frames` with no snapshot is a **heartbeat**: it refreshes
/// [`primary_epoch`](Self::primary_epoch) (and proves the link is live)
/// while the subscriber is caught up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalChunk {
    /// Clock of the first frame in `frames` — or, when `snapshot` is
    /// present, the clock the snapshot captures (frames then continue
    /// from there).
    pub start_clock: u64,
    /// The primary's clock when the chunk was cut. A replica's **lag**
    /// is `primary_epoch - local_epoch`.
    pub primary_epoch: u64,
    /// The sender's fencing term. A subscriber refuses chunks carrying a
    /// term lower than one it has observed
    /// ([`StoreError::DeposedPrimary`](crate::error::StoreError)): after
    /// a promotion the deposed primary keeps its old term and can no
    /// longer extend anyone's history.
    pub term: u64,
    /// Full snapshot bytes to install before applying any frame — sent
    /// on the first chunk of a cold backfill only.
    pub snapshot: Option<Vec<u8>>,
    /// Concatenated sealed WAL frames, contiguous from `start_clock`.
    pub frames: Vec<u8>,
}

/// Whether the answering server is the writable primary or a read-only
/// replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// The single writer: its epoch *is* the primary epoch.
    Primary,
    /// A read-only replica replaying a primary's log.
    Replica,
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaRole::Primary => "primary",
            ReplicaRole::Replica => "replica",
        })
    }
}

/// A server's replication status: role, epochs, and link health.
/// Contains no graph data — safe to expose to any consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Primary or replica.
    pub role: ReplicaRole,
    /// The answering server's own epoch.
    pub local_epoch: u64,
    /// The primary's epoch as last observed (equal to `local_epoch` on
    /// a primary; possibly stale on a disconnected replica).
    pub primary_epoch: u64,
    /// The server's fencing term: the highest promotion generation it
    /// has durably observed. Exposing it lets operators confirm a
    /// promotion propagated.
    pub term: u64,
    /// Whether a replica's feed link is currently up (always true on a
    /// primary).
    pub connected: bool,
    /// The last replication error, if the link is degraded.
    pub last_error: Option<String>,
    /// The address of the writable primary, as this server knows it: a
    /// replica reports the endpoint it follows, a primary may report its
    /// own. Write clients use it to re-resolve after a failover; `None`
    /// when unknown. An address, not graph data — still consumer-safe.
    pub primary_addr: Option<String>,
}

impl ReplicaStatus {
    /// How many mutations behind the primary this server is:
    /// `primary_epoch - local_epoch` (0 on a primary; a *lower bound*
    /// on a disconnected replica, whose `primary_epoch` is stale).
    pub fn lag(&self) -> u64 {
        self.primary_epoch.saturating_sub(self.local_epoch)
    }
}

/// What a server tells a client at connection time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerHello {
    /// The server's [`PROTOCOL_VERSION`].
    pub version: u16,
    /// The epoch at handshake time.
    pub epoch: u64,
    /// Node records in the store at handshake time — lets load drivers
    /// and CLIs pick valid roots without another round trip.
    pub nodes: u64,
    /// The lattice's predicate names, index = [`PrivilegeId`]. Clients
    /// resolve `-p <name>` flags against this without seeing the graph.
    pub predicates: Vec<String>,
}

impl ServerHello {
    /// Resolves a predicate name against the handshake lattice.
    pub fn predicate(&self, name: &str) -> Option<PrivilegeId> {
        self.predicates
            .iter()
            .position(|p| p == name)
            .map(|i| PrivilegeId(i as u16))
    }
}

/// A typed error crossing the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The machine-readable category.
    pub kind: WireErrorKind,
    /// Human-readable detail, safe to show a remote consumer.
    pub message: String,
}

impl WireError {
    /// Builds an error of `kind` with a message.
    pub fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

/// Machine-readable categories of [`WireError`].
///
/// The kind's tag is part of the frame, and an unknown tag is a
/// malformed frame: a peer that does not know a kind hangs up rather
/// than guessing. A new kind therefore bumps [`PROTOCOL_VERSION`], so
/// the mismatch surfaces as a clean handshake refusal.
/// `#[non_exhaustive]`: keep matches non-exhaustive, because the
/// protocol will grow kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// The consumer does not satisfy the predicate it asked through.
    NotAuthorized,
    /// The request named an unregistered protection strategy.
    UnknownStrategy,
    /// A claimed or pinned predicate is not in the server's lattice.
    UnknownPredicate,
    /// The server's store is in-memory; checkpoint has no meaning.
    NotDurable,
    /// The client spoke a different protocol version.
    VersionMismatch,
    /// The frame decoded but the message is invalid in this state
    /// (e.g. a second Hello, or a request before Hello).
    BadRequest,
    /// The server failed internally; the message carries no store detail
    /// beyond the error's display form.
    Internal,
    /// The server is shedding load: the connection cap is reached, the
    /// consumer's rate limit is exhausted, or the connection's outbound
    /// queue is saturated. **Retryable** — the request was refused, not
    /// failed, and the connection (when one exists) stays usable. Typed
    /// so admission control is visible to clients instead of a hangup.
    Overloaded,
    /// The request needs the writable primary but this server is a
    /// read-only replica (or a freshly deposed primary). The message is
    /// the writable primary's address when known (empty otherwise) — a
    /// redirect, so write clients fail over without restart.
    NotWritable,
    /// The write's routing id is owned by another shard. The message is
    /// the owning shard's address when the answering server knows it
    /// (a redirect, like [`NotWritable`](Self::NotWritable)); otherwise
    /// the owning shard's index as decimal text.
    WrongShard,
    /// A scatter-gather server is missing at least one shard feed and
    /// refuses to answer with a silent gap. **Retryable** once the feed
    /// reconnects; the message names the missing shard(s).
    ShardUnavailable,
}

impl WireErrorKind {
    fn tag(self) -> u8 {
        match self {
            WireErrorKind::NotAuthorized => 0,
            WireErrorKind::UnknownStrategy => 1,
            WireErrorKind::UnknownPredicate => 2,
            WireErrorKind::NotDurable => 3,
            WireErrorKind::VersionMismatch => 4,
            WireErrorKind::BadRequest => 5,
            WireErrorKind::Internal => 6,
            WireErrorKind::Overloaded => 7,
            WireErrorKind::NotWritable => 8,
            WireErrorKind::WrongShard => 9,
            WireErrorKind::ShardUnavailable => 10,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => WireErrorKind::NotAuthorized,
            1 => WireErrorKind::UnknownStrategy,
            2 => WireErrorKind::UnknownPredicate,
            3 => WireErrorKind::NotDurable,
            4 => WireErrorKind::VersionMismatch,
            5 => WireErrorKind::BadRequest,
            6 => WireErrorKind::Internal,
            7 => WireErrorKind::Overloaded,
            8 => WireErrorKind::NotWritable,
            9 => WireErrorKind::WrongShard,
            10 => WireErrorKind::ShardUnavailable,
            _ => {
                return Err(CodecError::InvalidTag {
                    what: "wire error kind",
                    tag,
                })
            }
        })
    }
}

impl std::fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireErrorKind::NotAuthorized => "not authorized",
            WireErrorKind::UnknownStrategy => "unknown strategy",
            WireErrorKind::UnknownPredicate => "unknown predicate",
            WireErrorKind::NotDurable => "not durable",
            WireErrorKind::VersionMismatch => "protocol version mismatch",
            WireErrorKind::BadRequest => "bad request",
            WireErrorKind::Internal => "internal error",
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::NotWritable => "not writable",
            WireErrorKind::WrongShard => "wrong shard",
            WireErrorKind::ShardUnavailable => "shard unavailable",
        })
    }
}

fn direction_tag(direction: Direction) -> u8 {
    match direction {
        Direction::Backward => 0,
        Direction::Forward => 1,
        Direction::Both => 2,
    }
}

fn direction_from_tag(tag: u8) -> Result<Direction, CodecError> {
    match tag {
        0 => Ok(Direction::Backward),
        1 => Ok(Direction::Forward),
        2 => Ok(Direction::Both),
        _ => Err(CodecError::InvalidTag {
            what: "direction",
            tag,
        }),
    }
}

fn strategy_tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Surrogate => 0,
        Strategy::HideEdges => 1,
        Strategy::HideNodes => 2,
        // `Strategy` is #[non_exhaustive]; a new selector needs a wire
        // tag (and a protocol version bump) before it can be serialized.
        _ => unreachable!("unserializable strategy selector"),
    }
}

fn strategy_from_tag(tag: u8) -> Result<Strategy, CodecError> {
    match tag {
        0 => Ok(Strategy::Surrogate),
        1 => Ok(Strategy::HideEdges),
        2 => Ok(Strategy::HideNodes),
        _ => Err(CodecError::InvalidTag {
            what: "strategy",
            tag,
        }),
    }
}

fn put_query_request(buf: &mut BytesMut, request: &QueryRequest) {
    buf.put_u32_le(request.root.0);
    buf.put_u8(direction_tag(request.direction));
    buf.put_u32_le(request.max_depth);
    buf.put_u8(strategy_tag(request.strategy));
    put_opt_predicate(buf, request.predicate);
}

fn read_query_request(r: &mut Reader<'_>) -> Result<QueryRequest, CodecError> {
    let root = RecordId(r.u32()?);
    let direction = direction_from_tag(r.u8()?)?;
    let max_depth = r.u32()?;
    let strategy = strategy_from_tag(r.u8()?)?;
    let predicate = r.opt_predicate()?;
    let mut request = QueryRequest::new(root, direction, max_depth, strategy);
    if let Some(p) = predicate {
        request = request.with_predicate(p);
    }
    Ok(request)
}

fn put_write_op(buf: &mut BytesMut, op: &WriteOp) -> Result<(), CodecError> {
    match op {
        WriteOp::AppendNode {
            label,
            kind,
            features,
            lowest,
        } => {
            buf.put_u8(0);
            put_str(buf, label);
            buf.put_u8(kind.tag());
            buf.put_u16_le(lowest.0);
            put_features(buf, features)?;
        }
        WriteOp::AppendEdge { from, to, kind } => {
            buf.put_u8(1);
            buf.put_u32_le(from.0);
            buf.put_u32_le(to.0);
            buf.put_u8(kind.tag());
        }
        WriteOp::ApplyPolicy(statement) => {
            buf.put_u8(2);
            put_policy(buf, statement)?;
        }
    }
    Ok(())
}

fn read_write_op(r: &mut Reader<'_>) -> Result<WriteOp, CodecError> {
    Ok(match r.u8()? {
        0 => {
            let label = r.string()?;
            let tag = r.u8()?;
            let kind = NodeKind::from_tag(tag).ok_or(CodecError::InvalidTag {
                what: "node kind",
                tag,
            })?;
            let lowest = PrivilegeId(r.u16()?);
            let features = r.features()?;
            WriteOp::AppendNode {
                label,
                kind,
                features,
                lowest,
            }
        }
        1 => {
            let from = RecordId(r.u32()?);
            let to = RecordId(r.u32()?);
            let tag = r.u8()?;
            let kind = EdgeKind::from_tag(tag).ok_or(CodecError::InvalidTag {
                what: "edge kind",
                tag,
            })?;
            WriteOp::AppendEdge { from, to, kind }
        }
        2 => WriteOp::ApplyPolicy(r.policy_statement()?),
        tag => {
            return Err(CodecError::InvalidTag {
                what: "write op",
                tag,
            })
        }
    })
}

fn put_query_response(buf: &mut BytesMut, response: &QueryResponse) -> Result<(), CodecError> {
    buf.put_u64_le(response.epoch);
    buf.put_u32_le(response.root.0);
    check_count("lineage rows", response.rows.len(), u32::MAX as u64)?;
    buf.put_u32_le(response.rows.len() as u32);
    for row in &response.rows {
        buf.put_u32_le(row.record.0);
        put_str(buf, &row.label);
        buf.put_u32_le(row.depth);
        buf.put_u8(row.surrogate as u8);
    }
    put_epochs(buf, &response.shard_epochs)
}

/// A `u32`-counted shard-epoch vector, bounded by [`MAX_SHARDS`].
fn put_epochs(buf: &mut BytesMut, epochs: &[u64]) -> Result<(), CodecError> {
    check_count("shard epochs", epochs.len(), MAX_SHARDS as u64)?;
    buf.put_u32_le(epochs.len() as u32);
    for &epoch in epochs {
        buf.put_u64_le(epoch);
    }
    Ok(())
}

fn read_query_response(r: &mut Reader<'_>) -> Result<QueryResponse, CodecError> {
    let mut response = QueryResponse {
        epoch: 0,
        root: RecordId(0),
        rows: Vec::new(),
        shard_epochs: Vec::new(),
    };
    read_query_response_into(r, &mut response)?;
    Ok(response)
}

/// Decodes one query response into `response`, reusing its `rows` vector
/// and the label `String` buffers of the rows already in it. After the
/// steady first round of a closed-loop client this path performs no heap
/// allocation at all — the row structures of the previous answer are
/// overwritten in place.
fn read_query_response_into(
    r: &mut Reader<'_>,
    response: &mut QueryResponse,
) -> Result<(), CodecError> {
    response.epoch = r.u64()?;
    response.root = RecordId(r.u32()?);
    let count = r.u32()? as usize;
    let rows = &mut response.rows;
    rows.truncate(count);
    for i in 0..count {
        let record = RecordId(r.u32()?);
        let label = r.str_ref()?;
        let depth = r.u32()?;
        let surrogate = r.flag("surrogate flag")?;
        if let Some(row) = rows.get_mut(i) {
            row.record = record;
            row.label.clear();
            row.label.push_str(label);
            row.depth = depth;
            row.surrogate = surrogate;
        } else {
            rows.push(ProtectedLineageRow {
                record,
                label: label.to_owned(),
                depth,
                surrogate,
            });
        }
    }
    let shards = r.u32()?;
    if shards > MAX_SHARDS {
        return Err(CodecError::FrameTooLarge(shards));
    }
    response.shard_epochs.clear();
    response.shard_epochs.reserve(shards as usize);
    for _ in 0..shards {
        response.shard_epochs.push(r.u64()?);
    }
    Ok(())
}

/// Decodes a [`Response::Batch`] payload into `out`, reusing its
/// allocations (the response vector, each response's rows, and each
/// row's label buffer) — the zero-garbage receive path for closed-loop
/// clients that drain one batch after another.
///
/// Returns `Ok(None)` on a batch frame; `Ok(Some(error))` when the
/// server answered with a typed [`Response::Error`] frame instead (the
/// wire-level refusal, e.g. an over-[`MAX_BATCH`] request). Any other
/// response type is a protocol violation and decodes to
/// [`CodecError::InvalidTag`].
pub fn decode_batch_response_into(
    payload: &[u8],
    out: &mut Vec<QueryResponse>,
) -> Result<Option<WireError>, CodecError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    match r.u8()? {
        2 => {}
        5 => {
            let kind = WireErrorKind::from_tag(r.u8()?)?;
            let message = r.string()?;
            if r.pos != payload.len() {
                return Err(CodecError::Truncated);
            }
            return Ok(Some(WireError { kind, message }));
        }
        tag => {
            return Err(CodecError::InvalidTag {
                what: "batch response",
                tag,
            })
        }
    }
    let count = r.u32()?;
    if count > MAX_BATCH {
        return Err(CodecError::FrameTooLarge(count));
    }
    let count = count as usize;
    out.truncate(count);
    for i in 0..count {
        if i == out.len() {
            out.push(QueryResponse {
                epoch: 0,
                root: RecordId(0),
                rows: Vec::new(),
                shard_epochs: Vec::new(),
            });
        }
        read_query_response_into(&mut r, &mut out[i])?;
    }
    if r.pos != payload.len() {
        return Err(CodecError::Truncated); // trailing garbage
    }
    Ok(None)
}

/// The canonical [`Request::Batch`] payload for `requests` — what
/// [`encode_request`] would produce, without requiring an owned
/// [`Request`]. The allocation-free client batch path pairs this with
/// [`decode_batch_response_into`].
pub fn encode_batch_request(requests: &[QueryRequest]) -> Result<Vec<u8>, CodecError> {
    encode_query_key(requests, true)
}

fn put_names(buf: &mut BytesMut, names: &[String]) -> Result<(), CodecError> {
    check_count("predicate names", names.len(), u16::MAX as u64)?;
    buf.put_u16_le(names.len() as u16);
    for name in names {
        put_str(buf, name);
    }
    Ok(())
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>, CodecError> {
    let count = r.u16()? as usize;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(r.string()?);
    }
    Ok(names)
}

/// A `u32`-counted address list, bounded by `max`.
fn put_addrs(
    buf: &mut BytesMut,
    what: &'static str,
    addrs: &[String],
    max: u32,
) -> Result<(), CodecError> {
    check_count(what, addrs.len(), max as u64)?;
    buf.put_u32_le(addrs.len() as u32);
    for addr in addrs {
        put_str(buf, addr);
    }
    Ok(())
}

/// The [`Response::Status`] body: the replication half, then the shard
/// half.
fn put_status(
    buf: &mut BytesMut,
    replica: &ReplicaStatus,
    shards: &ShardStatusInfo,
) -> Result<(), CodecError> {
    buf.put_u8(match replica.role {
        ReplicaRole::Primary => 0,
        ReplicaRole::Replica => 1,
    });
    buf.put_u64_le(replica.local_epoch);
    buf.put_u64_le(replica.primary_epoch);
    buf.put_u64_le(replica.term);
    buf.put_u8(replica.connected as u8);
    put_opt(buf, replica.last_error.as_deref(), put_str);
    put_opt(buf, replica.primary_addr.as_deref(), put_str);
    buf.put_u32_le(shards.count);
    put_opt(buf, shards.index, BytesMut::put_u32_le);
    put_epochs(buf, &shards.epochs)?;
    put_addrs(buf, "shard primaries", &shards.primaries, MAX_SHARDS)?;
    check_count(
        "shard replica lists",
        shards.replicas.len(),
        MAX_SHARDS as u64,
    )?;
    buf.put_u32_le(shards.replicas.len() as u32);
    for addrs in &shards.replicas {
        put_addrs(buf, "replica addresses", addrs, MAX_REPLICAS)?;
    }
    Ok(())
}

fn read_status(r: &mut Reader<'_>) -> Result<Response, CodecError> {
    let role = match r.u8()? {
        0 => ReplicaRole::Primary,
        1 => ReplicaRole::Replica,
        tag => {
            return Err(CodecError::InvalidTag {
                what: "replica role",
                tag,
            })
        }
    };
    let replica = ReplicaStatus {
        role,
        local_epoch: r.u64()?,
        primary_epoch: r.u64()?,
        term: r.u64()?,
        connected: r.flag("connected flag")?,
        last_error: r.opt("optional error", Reader::string)?,
        primary_addr: r.opt("optional primary address", Reader::string)?,
    };
    let shards = ShardStatusInfo {
        count: r.u32()?,
        index: r.opt("optional shard index", Reader::u32)?,
        epochs: r.list(MAX_SHARDS, Reader::u64)?,
        primaries: r.list(MAX_SHARDS, Reader::string)?,
        replicas: r.list(MAX_SHARDS, |r| r.list(MAX_REPLICAS, Reader::string))?,
    };
    Ok(Response::Status { replica, shards })
}

/// A `u32`-length byte run, bounded by `max`.
fn read_bytes(r: &mut Reader<'_>, max: u32) -> Result<Vec<u8>, CodecError> {
    let len = r.u32()?;
    if len > max {
        return Err(CodecError::FrameTooLarge(len));
    }
    Ok(r.take(len as usize)?.to_vec())
}

/// The canonical payload bytes of a Query (`batch == false`, exactly one
/// request) or Batch (`batch == true`) request — shared by
/// [`encode_request`] and the service's sealed-frame cache key, so a
/// cached frame is keyed by exactly the bytes a client would send.
pub(crate) fn encode_query_key(
    requests: &[QueryRequest],
    batch: bool,
) -> Result<Vec<u8>, CodecError> {
    let mut buf = BytesMut::with_capacity(8 + requests.len() * 16);
    if batch {
        buf.put_u8(2);
        // Mirror the decode-side bound: an encoded batch the peer would
        // refuse is an encoding error, not a surprise hangup.
        check_count("batch requests", requests.len(), MAX_BATCH as u64)?;
        buf.put_u32_le(requests.len() as u32);
    } else {
        debug_assert_eq!(requests.len(), 1, "a non-batch query is one request");
        buf.put_u8(1);
    }
    for query in requests {
        put_query_request(&mut buf, query);
    }
    Ok(buf.to_vec())
}

/// Encodes a request payload (frame it with
/// [`seal_frame`](crate::codec::seal_frame) before writing).
///
/// Fails with [`CodecError::CountOverflow`] when a collection is larger
/// than its wire count field (or the decode-side [`MAX_BATCH`] bound) —
/// never truncates silently.
pub fn encode_request(request: &Request) -> Result<Vec<u8>, CodecError> {
    let mut buf = BytesMut::with_capacity(32);
    match request {
        Request::Hello {
            version,
            consumer,
            claims,
        } => {
            buf.put_u8(0);
            buf.put_u16_le(*version);
            put_str(&mut buf, consumer);
            put_names(&mut buf, claims)?;
        }
        Request::Query(query) => {
            return encode_query_key(std::slice::from_ref(query), false);
        }
        Request::Batch(queries) => {
            return encode_query_key(queries, true);
        }
        Request::Epoch => buf.put_u8(3),
        Request::Checkpoint => buf.put_u8(4),
        Request::Subscribe { from_clock } => {
            buf.put_u8(5);
            buf.put_u64_le(*from_clock);
        }
        Request::Status => buf.put_u8(6),
        Request::LogDigests => buf.put_u8(7),
        Request::Promote => buf.put_u8(8),
        Request::Write { op } => {
            buf.put_u8(9);
            put_write_op(&mut buf, op)?;
        }
    }
    Ok(buf.to_vec())
}

/// Decodes a request payload. The payload must hold exactly one message;
/// trailing bytes are an error (the frame does not describe one request).
pub fn decode_request(payload: &[u8]) -> Result<Request, CodecError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let request = match r.u8()? {
        0 => Request::Hello {
            version: r.u16()?,
            consumer: r.string()?,
            claims: read_names(&mut r)?,
        },
        1 => Request::Query(read_query_request(&mut r)?),
        2 => Request::Batch(r.list(MAX_BATCH, read_query_request)?),
        3 => Request::Epoch,
        4 => Request::Checkpoint,
        5 => Request::Subscribe {
            from_clock: r.u64()?,
        },
        6 => Request::Status,
        7 => Request::LogDigests,
        8 => Request::Promote,
        9 => Request::Write {
            op: read_write_op(&mut r)?,
        },
        tag => {
            return Err(CodecError::InvalidTag {
                what: "request",
                tag,
            })
        }
    };
    if r.pos != payload.len() {
        return Err(CodecError::Truncated); // trailing garbage
    }
    Ok(request)
}

/// Encodes a response payload (frame it with
/// [`seal_frame`](crate::codec::seal_frame) before writing).
///
/// Fails with [`CodecError::CountOverflow`] when a collection is larger
/// than its wire count field (or the decode-side [`MAX_BATCH`] /
/// [`MAX_WAL_CHUNK`] bounds) — never truncates silently.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, CodecError> {
    let mut buf = BytesMut::with_capacity(64);
    match response {
        Response::Hello(hello) => {
            buf.put_u8(0);
            buf.put_u16_le(hello.version);
            buf.put_u64_le(hello.epoch);
            buf.put_u64_le(hello.nodes);
            put_names(&mut buf, &hello.predicates)?;
        }
        Response::Query(query) => {
            buf.put_u8(1);
            put_query_response(&mut buf, query)?;
        }
        Response::Batch(queries) => {
            buf.put_u8(2);
            check_count("batch responses", queries.len(), MAX_BATCH as u64)?;
            buf.put_u32_le(queries.len() as u32);
            for query in queries {
                put_query_response(&mut buf, query)?;
            }
        }
        Response::Epoch(epoch) => {
            buf.put_u8(3);
            buf.put_u64_le(*epoch);
        }
        Response::Checkpoint(stats) => {
            buf.put_u8(4);
            buf.put_u64_le(stats.clock);
            buf.put_u64_le(stats.snapshot_bytes);
            buf.put_u64_le(stats.pruned_segments as u64);
            buf.put_u64_le(stats.pruned_snapshots as u64);
        }
        Response::Error(error) => {
            buf.put_u8(5);
            buf.put_u8(error.kind.tag());
            put_str(&mut buf, &error.message);
        }
        Response::WalChunk(chunk) => {
            buf.put_u8(6);
            buf.put_u64_le(chunk.start_clock);
            buf.put_u64_le(chunk.primary_epoch);
            buf.put_u64_le(chunk.term);
            match &chunk.snapshot {
                Some(snapshot) => {
                    buf.put_u8(1);
                    check_count(
                        "snapshot bytes",
                        snapshot.len(),
                        crate::codec::MAX_FRAME_LEN as u64,
                    )?;
                    buf.put_u32_le(snapshot.len() as u32);
                    buf.put_slice(snapshot);
                }
                None => buf.put_u8(0),
            }
            check_count("wal chunk bytes", chunk.frames.len(), MAX_WAL_CHUNK as u64)?;
            buf.put_u32_le(chunk.frames.len() as u32);
            buf.put_slice(&chunk.frames);
        }
        Response::Status { replica, shards } => {
            buf.put_u8(7);
            put_status(&mut buf, replica, shards)?;
        }
        Response::LogDigests { term, segments } => {
            buf.put_u8(8);
            buf.put_u64_le(*term);
            check_count(
                "segment digests",
                segments.len(),
                MAX_SEGMENT_DIGESTS as u64,
            )?;
            buf.put_u32_le(segments.len() as u32);
            for digest in segments {
                buf.put_u64_le(digest.start_clock);
                buf.put_u64_le(digest.bytes);
                buf.put_u32_le(digest.crc);
            }
        }
        Response::Promoted { term } => {
            buf.put_u8(9);
            buf.put_u64_le(*term);
        }
        Response::Written { clock, id } => {
            buf.put_u8(10);
            buf.put_u64_le(*clock);
            put_opt(&mut buf, *id, |buf, id| buf.put_u32_le(id.0));
        }
    }
    Ok(buf.to_vec())
}

/// Decodes a response payload. Exactly one message per payload, as with
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, CodecError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let response = match r.u8()? {
        0 => Response::Hello(ServerHello {
            version: r.u16()?,
            epoch: r.u64()?,
            nodes: r.u64()?,
            predicates: read_names(&mut r)?,
        }),
        1 => Response::Query(read_query_response(&mut r)?),
        2 => Response::Batch(r.list(MAX_BATCH, read_query_response)?),
        3 => Response::Epoch(r.u64()?),
        4 => Response::Checkpoint(CheckpointStats {
            clock: r.u64()?,
            snapshot_bytes: r.u64()?,
            pruned_segments: r.u64()? as usize,
            pruned_snapshots: r.u64()? as usize,
        }),
        5 => Response::Error(WireError {
            kind: WireErrorKind::from_tag(r.u8()?)?,
            message: r.string()?,
        }),
        6 => Response::WalChunk(WalChunk {
            start_clock: r.u64()?,
            primary_epoch: r.u64()?,
            term: r.u64()?,
            snapshot: r.opt("optional snapshot", |r| {
                read_bytes(r, crate::codec::MAX_FRAME_LEN)
            })?,
            frames: read_bytes(&mut r, MAX_WAL_CHUNK)?,
        }),
        7 => read_status(&mut r)?,
        8 => Response::LogDigests {
            term: r.u64()?,
            segments: r.list(MAX_SEGMENT_DIGESTS, |r| {
                Ok(SegmentDigest {
                    start_clock: r.u64()?,
                    bytes: r.u64()?,
                    crc: r.u32()?,
                })
            })?,
        },
        9 => Response::Promoted { term: r.u64()? },
        10 => Response::Written {
            clock: r.u64()?,
            id: r.opt("optional record id", |r| Ok(RecordId(r.u32()?)))?,
        },
        tag => {
            return Err(CodecError::InvalidTag {
                what: "response",
                tag,
            })
        }
    };
    if r.pos != payload.len() {
        return Err(CodecError::Truncated); // trailing garbage
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                consumer: "alice".into(),
                claims: vec!["Public".into(), "High".into()],
            },
            Request::Hello {
                version: 7,
                consumer: String::new(),
                claims: vec![],
            },
            Request::Query(QueryRequest::new(
                RecordId(9),
                Direction::Backward,
                u32::MAX,
                Strategy::Surrogate,
            )),
            Request::Query(
                QueryRequest::new(RecordId(0), Direction::Both, 3, Strategy::HideNodes)
                    .with_predicate(PrivilegeId(2)),
            ),
            Request::Batch(vec![
                QueryRequest::new(RecordId(1), Direction::Forward, 1, Strategy::HideEdges),
                QueryRequest::new(RecordId(2), Direction::Backward, 0, Strategy::Surrogate)
                    .with_predicate(PrivilegeId(0)),
            ]),
            Request::Batch(vec![]),
            Request::Epoch,
            Request::Checkpoint,
            Request::Subscribe { from_clock: 0 },
            Request::Subscribe {
                from_clock: u64::MAX,
            },
            Request::Status,
            Request::LogDigests,
            Request::Promote,
            Request::Write {
                op: WriteOp::AppendNode {
                    label: "invoice".into(),
                    kind: NodeKind::Data,
                    features: Features::new().with("origin", "edi"),
                    lowest: PrivilegeId(1),
                },
            },
            Request::Write {
                op: WriteOp::AppendEdge {
                    from: RecordId(4),
                    to: RecordId(9),
                    kind: EdgeKind::GeneratedBy,
                },
            },
            Request::Write {
                op: WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
                    node: RecordId(2),
                    predicate: Some(PrivilegeId(1)),
                    marking: surrogate_core::marking::Marking::Hide,
                }),
            },
            Request::Write {
                op: WriteOp::ApplyPolicy(PolicyStatement::AddSurrogate {
                    node: RecordId(3),
                    label: "a trusted source".into(),
                    features: Features::new(),
                    lowest: PrivilegeId(0),
                    info_score: 2.0,
                }),
            },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Hello(ServerHello {
                version: PROTOCOL_VERSION,
                epoch: 42,
                nodes: 11,
                predicates: vec!["Public".into(), "High-1".into(), "High-2".into()],
            }),
            Response::Hello(ServerHello {
                version: PROTOCOL_VERSION,
                epoch: 7,
                nodes: 3,
                predicates: vec![],
            }),
            Response::Query(QueryResponse {
                epoch: 3,
                root: RecordId(7),
                rows: vec![
                    ProtectedLineageRow {
                        record: RecordId(5),
                        label: "analysis".into(),
                        depth: 1,
                        surrogate: false,
                    },
                    ProtectedLineageRow {
                        record: RecordId(2),
                        label: "a trusted source".into(),
                        depth: 2,
                        surrogate: true,
                    },
                ],
                shard_epochs: vec![7, 9],
            }),
            Response::Batch(vec![QueryResponse {
                epoch: 0,
                root: RecordId(0),
                rows: vec![],
                shard_epochs: vec![],
            }]),
            Response::Epoch(u64::MAX),
            Response::Checkpoint(CheckpointStats {
                clock: 17,
                snapshot_bytes: 4096,
                pruned_segments: 2,
                pruned_snapshots: 1,
            }),
            Response::Error(WireError::new(WireErrorKind::NotAuthorized, "nope")),
            Response::Error(WireError::new(WireErrorKind::Internal, "")),
            Response::WalChunk(WalChunk {
                start_clock: 7,
                primary_epoch: 9,
                term: 2,
                snapshot: None,
                frames: crate::codec::seal_frame(b"opaque payload"),
            }),
            Response::WalChunk(WalChunk {
                start_clock: 0,
                primary_epoch: 0,
                term: 0,
                snapshot: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                frames: Vec::new(),
            }),
            Response::Status {
                replica: ReplicaStatus {
                    role: ReplicaRole::Primary,
                    local_epoch: 3,
                    primary_epoch: 3,
                    term: 1,
                    connected: true,
                    last_error: None,
                    primary_addr: None,
                },
                shards: ShardStatusInfo {
                    count: 0,
                    index: None,
                    epochs: vec![3],
                    primaries: vec![],
                    replicas: vec![],
                },
            },
            Response::Status {
                replica: ReplicaStatus {
                    role: ReplicaRole::Replica,
                    local_epoch: 5,
                    primary_epoch: 11,
                    term: u64::MAX,
                    connected: false,
                    last_error: Some("connection refused".into()),
                    primary_addr: Some("10.0.0.7:7655".into()),
                },
                shards: ShardStatusInfo {
                    count: 3,
                    index: Some(1),
                    epochs: vec![4, 0, 9],
                    primaries: vec![
                        "10.0.0.1:7660".into(),
                        "10.0.0.2:7660".into(),
                        "10.0.0.3:7660".into(),
                    ],
                    replicas: vec![
                        vec!["10.0.0.5:7661".into(), "10.0.0.6:7661".into()],
                        vec![],
                        vec!["10.0.0.7:7661".into()],
                    ],
                },
            },
            Response::LogDigests {
                term: 3,
                segments: vec![
                    SegmentDigest {
                        start_clock: 0,
                        bytes: 18,
                        crc: 0xdead_beef,
                    },
                    SegmentDigest {
                        start_clock: 40,
                        bytes: 4096,
                        crc: 7,
                    },
                ],
            },
            Response::LogDigests {
                term: 0,
                segments: vec![],
            },
            Response::Promoted { term: 2 },
            Response::Written {
                clock: 19,
                id: Some(RecordId(6)),
            },
            Response::Written {
                clock: u64::MAX,
                id: None,
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for request in requests() {
            let payload = encode_request(&request).unwrap();
            assert_eq!(decode_request(&payload).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in responses() {
            let payload = encode_response(&response).unwrap();
            assert_eq!(decode_response(&payload).unwrap(), response, "{response:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Epoch).unwrap();
        payload.push(0);
        assert_eq!(decode_request(&payload).unwrap_err(), CodecError::Truncated);
        let mut payload = encode_response(&Response::Epoch(1)).unwrap();
        payload.push(0);
        assert_eq!(
            decode_response(&payload).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn oversized_counts_fail_encoding_instead_of_truncating() {
        // 2^16 claimed predicate names would truncate to 0 under the old
        // bare `as u16` cast — the peer would then misparse everything
        // after the count field.
        let request = Request::Hello {
            version: PROTOCOL_VERSION,
            consumer: "alice".into(),
            claims: vec![String::new(); u16::MAX as usize + 1],
        };
        assert_eq!(
            encode_request(&request).unwrap_err(),
            CodecError::CountOverflow {
                what: "predicate names",
                count: u16::MAX as usize + 1,
                max: u16::MAX as u64,
            }
        );
        // Batches beyond the decode-side bound fail symmetrically at
        // encode time rather than surprising the sender with a hangup.
        let query = QueryRequest::new(RecordId(0), Direction::Backward, 1, Strategy::Surrogate);
        let batch = Request::Batch(vec![query; MAX_BATCH as usize + 1]);
        assert!(matches!(
            encode_request(&batch).unwrap_err(),
            CodecError::CountOverflow {
                what: "batch requests",
                ..
            }
        ));
        let empty = QueryResponse {
            epoch: 0,
            root: RecordId(0),
            rows: vec![],
            shard_epochs: vec![],
        };
        let batch = Response::Batch(vec![empty; MAX_BATCH as usize + 1]);
        assert!(matches!(
            encode_response(&batch).unwrap_err(),
            CodecError::CountOverflow {
                what: "batch responses",
                ..
            }
        ));
        // WalChunk byte runs beyond their decode-side bounds, likewise.
        let chunk = Response::WalChunk(WalChunk {
            start_clock: 0,
            primary_epoch: 0,
            term: 0,
            snapshot: None,
            frames: vec![0; MAX_WAL_CHUNK as usize + 1],
        });
        assert!(matches!(
            encode_response(&chunk).unwrap_err(),
            CodecError::CountOverflow {
                what: "wal chunk bytes",
                ..
            }
        ));
    }

    #[test]
    fn boundary_counts_still_encode() {
        // Exactly at each bound the message must encode and roundtrip —
        // the overflow checks must be strict, not off-by-one.
        let request = Request::Hello {
            version: PROTOCOL_VERSION,
            consumer: String::new(),
            claims: vec![String::new(); u16::MAX as usize],
        };
        let payload = encode_request(&request).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), request);
        let query = QueryRequest::new(RecordId(0), Direction::Backward, 1, Strategy::Surrogate);
        let batch = Request::Batch(vec![query; MAX_BATCH as usize]);
        let payload = encode_request(&batch).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), batch);
    }

    #[test]
    fn oversized_batch_counts_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u32_le(MAX_BATCH + 1);
        assert_eq!(
            decode_request(&buf).unwrap_err(),
            CodecError::FrameTooLarge(MAX_BATCH + 1)
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode_request(&[99]).unwrap_err(),
            CodecError::InvalidTag {
                what: "request",
                ..
            }
        ));
        assert!(matches!(
            decode_response(&[99]).unwrap_err(),
            CodecError::InvalidTag {
                what: "response",
                ..
            }
        ));
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
    }

    #[test]
    fn oversized_wal_chunks_are_rejected() {
        // A declared frames length beyond the bound must be refused
        // before allocation, like oversized batches.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u64_le(0); // term
        buf.put_u8(0);
        buf.put_u32_le(MAX_WAL_CHUNK + 1);
        assert_eq!(
            decode_response(&buf).unwrap_err(),
            CodecError::FrameTooLarge(MAX_WAL_CHUNK + 1)
        );
        // Same for an implausible snapshot length.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u64_le(0); // term
        buf.put_u8(1);
        buf.put_u32_le(crate::codec::MAX_FRAME_LEN + 1);
        assert_eq!(
            decode_response(&buf).unwrap_err(),
            CodecError::FrameTooLarge(crate::codec::MAX_FRAME_LEN + 1)
        );
        // And for a hostile digest count.
        let mut buf = BytesMut::new();
        buf.put_u8(8);
        buf.put_u64_le(1); // term
        buf.put_u32_le(MAX_SEGMENT_DIGESTS + 1);
        assert_eq!(
            decode_response(&buf).unwrap_err(),
            CodecError::FrameTooLarge(MAX_SEGMENT_DIGESTS + 1)
        );
    }

    #[test]
    fn replica_status_lag_saturates() {
        let mut status = ReplicaStatus {
            role: ReplicaRole::Replica,
            local_epoch: 10,
            primary_epoch: 25,
            term: 1,
            connected: true,
            last_error: None,
            primary_addr: None,
        };
        assert_eq!(status.lag(), 15);
        // A replica momentarily ahead of a stale primary_epoch reading
        // reports 0, never underflows.
        status.local_epoch = 30;
        assert_eq!(status.lag(), 0);
    }

    #[test]
    fn oversized_topology_fields_are_refused_at_encode_time() {
        let Response::Status { replica, shards } = &responses()[11] else {
            panic!("fixture 11 is a status answer");
        };
        let over = |max: u32| vec![String::new(); max as usize + 1];
        for shards in [
            ShardStatusInfo {
                replicas: vec![over(MAX_REPLICAS)],
                ..shards.clone()
            },
            ShardStatusInfo {
                primaries: over(MAX_SHARDS),
                ..shards.clone()
            },
        ] {
            let replica = replica.clone();
            assert!(encode_response(&Response::Status { replica, shards }).is_err());
        }
    }

    #[test]
    fn hello_resolves_predicates_by_name() {
        let hello = ServerHello {
            version: PROTOCOL_VERSION,
            epoch: 0,
            nodes: 0,
            predicates: vec!["Public".into(), "High".into()],
        };
        assert_eq!(hello.predicate("High"), Some(PrivilegeId(1)));
        assert_eq!(hello.predicate("Nope"), None);
    }
}
