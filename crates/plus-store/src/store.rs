//! The provenance store: an append-only, thread-safe record log with
//! snapshot persistence, graph materialization, and (optionally) a
//! segmented write-ahead log for crash-safe durability.
//!
//! This plays the role of the PLUS prototype's storage layer in the
//! paper's Fig. 10 pipeline: **DB access** (decode a snapshot), **build
//! graph** ([`Store::materialize`]), then **protect** (hand the
//! materialization to `surrogate_core::account`).
//!
//! A store comes in two flavors:
//!
//! * **In-memory** ([`Store::new`], [`Store::load`], …): durability is
//!   whole-snapshot [`save`](Store::save)/[`load`](Store::load) — fine
//!   for experiments, but every append since the last save is lost on a
//!   crash.
//! * **Durable** ([`Store::create_durable`], [`Store::open`]): every
//!   `append_node` / `append_edge` / `apply_policy` writes a checksummed
//!   frame to the write-ahead log *before* mutating in-memory state, and
//!   with `fsync` on is acknowledged (and seen by readers) only once a
//!   flush covers it, so [`Store::open`] recovers every acknowledged
//!   mutation — the newest valid snapshot plus a replay of the log tail,
//!   truncated at the first torn or corrupt frame. [`Store::checkpoint`] folds the log
//!   into a fresh snapshot and prunes superseded files. See the
//!   [`crate::wal`] module docs for the on-disk layout and
//!   protocol.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;
use surrogate_core::feature::Features;
use surrogate_core::graph::{Graph, Node, NodeId};
use surrogate_core::marking::MarkingStore;
use surrogate_core::privilege::{PrivilegeId, PrivilegeLattice};
use surrogate_core::shard::Partition;
use surrogate_core::surrogate::{SurrogateCatalog, SurrogateDef};

use crate::codec::{self, SnapshotData, WalRecord};
use crate::error::{Result, StoreError};
use crate::record::{EdgeKind, EdgeRecord, NodeKind, NodeRecord, PolicyStatement, RecordId};
use crate::wal::{self, DurabilityOptions, GroupCommit, RecoveryReport, Turn, Wal, WalIo};

/// Everything needed to run protection over a store's contents: the graph
/// (node ids equal record indices), the lattice, and the replayed policy.
///
/// A materialization is built by [`extend`](Self::extend)ing an empty one
/// with the whole log, and brought to a later clock by extending it with
/// what the log gained since ([`Store::delta_since`]). Node payloads are
/// the log's own (`Arc`-shared), so neither step copies a label or a
/// feature map, and a clone copies only adjacency and policy.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The provenance graph; `NodeId(i)` is record `RecordId(i)`.
    pub graph: Graph,
    /// The privilege lattice.
    pub lattice: PrivilegeLattice,
    /// Incidence markings replayed from the policy log.
    pub markings: MarkingStore,
    /// Surrogate catalog replayed from the policy log.
    pub catalog: SurrogateCatalog,
    /// How much of the log this reflects; where the next delta starts.
    pub(crate) reflects: LogLengths,
    /// How much of each shard slot's log a gather's materialization
    /// reflects; empty for a store's.
    pub(crate) slots: SlotLengths,
}

/// Lengths of the three record lists of a log. A materialization records
/// the lengths it reflects; a [`LogDelta`] records the lengths it starts
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LogLengths {
    pub(crate) nodes: usize,
    pub(crate) edges: usize,
    pub(crate) policy: usize,
}

/// How far readers see into a log: a clock and the list lengths it
/// reflects. A durable store with `fsync` on publishes a write only once
/// a flush covers its frame; every other store publishes each write as it
/// is applied.
#[derive(Debug, Clone, Copy, Default)]
struct Watermark {
    clock: u64,
    lengths: LogLengths,
}

/// Where a gather's materialization stands in each shard's log: the
/// merge's reset generation and each slot's [`LogLengths`], which
/// [`ShardMerge::delta_since`](crate::ShardMerge::delta_since) starts
/// from. Empty for a store's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct SlotLengths {
    pub(crate) generation: u64,
    pub(crate) lengths: Vec<LogLengths>,
}

/// What a record log gained past some point: the nodes, edges and policy
/// statements appended since, each in log order, and the clock they bring
/// a materialization to. Taken by [`Store::delta_since`] or
/// [`ShardMerge::delta_since`](crate::ShardMerge::delta_since), consumed
/// by [`Materialized::extend`].
#[derive(Debug)]
pub struct LogDelta {
    /// All zero for a whole log, read from its start.
    pub(crate) since: LogLengths,
    pub(crate) clock: u64,
    pub(crate) nodes: Vec<Arc<Node>>,
    pub(crate) edges: Vec<EdgeRecord>,
    pub(crate) policy: Vec<PolicyStatement>,
    /// The per-shard lengths it brings a merge's materialization to.
    pub(crate) slots: SlotLengths,
}

impl LogDelta {
    /// The clock a materialization extended by this delta reflects: the
    /// store's, or the sum of a merge's per-shard clocks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether every edge of the delta leads into a node it appends, and
    /// every statement governs one: the writes a protected account is
    /// extended across (`ProtectionContext::extend_account`).
    pub(crate) fn appends_into_new_nodes(&self) -> bool {
        let new = |id: RecordId| id.index() >= self.since.nodes;
        self.edges.iter().all(|edge| new(edge.to))
            && self.policy.iter().all(|statement| new(statement.node()))
    }
}

impl Materialized {
    /// Protection context over this materialization.
    pub fn context(&self) -> surrogate_core::account::ProtectionContext<'_> {
        surrogate_core::account::ProtectionContext::new(
            &self.graph,
            &self.lattice,
            &self.markings,
            &self.catalog,
        )
    }

    /// The materialization of a whole log — the one builder behind
    /// [`Store::materialize`], a service's cold start and the gather's
    /// merge.
    pub(crate) fn build(lattice: PrivilegeLattice, log: LogDelta) -> Self {
        let mut built = Self {
            graph: Graph::with_capacity(log.nodes.len(), log.edges.len()),
            lattice,
            markings: MarkingStore::new(),
            catalog: SurrogateCatalog::new(),
            reflects: LogLengths::default(),
            slots: SlotLengths::default(),
        };
        built.extend(log);
        built
    }

    /// Applies what the log gained since this materialization was taken:
    /// new nodes, then new edges, then new policy. The result equals a
    /// rebuild at `delta.clock()` because everything a rebuild derives is
    /// ordered per list — node ids, edge and adjacency order, marking
    /// overwrites, surrogate order per node — and a delta only appends to
    /// each list: a store's in log order, a merge's at the tail of its
    /// canonical order (see [`ShardMerge`](crate::ShardMerge)).
    ///
    /// # Panics
    /// Panics if `delta` was not taken against this materialization (or
    /// a clone of it).
    pub fn extend(&mut self, delta: LogDelta) {
        assert_eq!(
            delta.since, self.reflects,
            "delta does not start where this materialization ends"
        );
        self.reflects = LogLengths {
            nodes: self.reflects.nodes + delta.nodes.len(),
            edges: self.reflects.edges + delta.edges.len(),
            policy: self.reflects.policy + delta.policy.len(),
        };
        self.slots = delta.slots;
        for node in delta.nodes {
            self.graph.add_shared_node(node);
        }
        for edge in delta.edges {
            self.graph
                .add_edge(NodeId(edge.from.0), NodeId(edge.to.0))
                .expect("edges are validated on append and endpoints laid out before them");
        }
        for statement in delta.policy {
            self.replay(statement);
        }
    }

    /// Replays one policy statement into the markings or the catalog.
    fn replay(&mut self, statement: PolicyStatement) {
        match statement {
            PolicyStatement::MarkIncidence {
                node,
                from,
                to,
                predicate,
                marking,
            } => {
                let (node, edge) = (NodeId(node.0), (NodeId(from.0), NodeId(to.0)));
                match predicate {
                    Some(p) => self.markings.set(node, edge, p, marking),
                    None => self.markings.set_all_predicates(node, edge, marking),
                }
            }
            PolicyStatement::MarkNode {
                node,
                predicate,
                marking,
            } => match predicate {
                Some(p) => self.markings.set_node(NodeId(node.0), p, marking),
                None => self
                    .markings
                    .set_node_all_predicates(NodeId(node.0), marking),
            },
            PolicyStatement::AddSurrogate {
                node,
                label,
                features,
                lowest,
                info_score,
            } => self.catalog.add(
                NodeId(node.0),
                SurrogateDef {
                    label,
                    features,
                    lowest,
                    info_score,
                },
            ),
        }
    }
}

/// Lays payloads out at their **global** ids `ids`: `owned(g)` where a
/// record exists, and one shared inert placeholder (empty, visible at
/// `bottom`) everywhere else — foreign ids on a partitioned store, ids no
/// shard has assigned yet on a gather.
pub(crate) fn lay_out_global<'a>(
    ids: Range<u32>,
    bottom: PrivilegeId,
    owned: impl Fn(u32) -> Option<&'a Arc<Node>>,
) -> Vec<Arc<Node>> {
    let placeholder = Arc::new(Node {
        label: String::new(),
        features: Features::new(),
        lowest: bottom,
    });
    ids.map(|g| owned(g).unwrap_or(&placeholder).clone())
        .collect()
}

/// One past the highest global id `edges` reference, or `floor` if that
/// is higher: how far a placeholder layout must reach.
pub(crate) fn global_bound(floor: u32, edges: &[EdgeRecord]) -> u32 {
    edges.iter().fold(floor, |bound, edge| {
        bound
            .max(edge.from.0.saturating_add(1))
            .max(edge.to.0.saturating_add(1))
    })
}

/// A node of the in-memory log: the payload every materialization and
/// account shares, plus what only the record level keeps.
#[derive(Debug)]
struct StoredNode {
    node: Arc<Node>,
    kind: NodeKind,
    created_at: u64,
}

impl From<NodeRecord> for StoredNode {
    fn from(record: NodeRecord) -> Self {
        Self {
            kind: record.kind,
            created_at: record.created_at,
            node: record.into_payload(),
        }
    }
}

impl StoredNode {
    /// The public record form — the one place a stored payload is copied.
    fn to_record(&self) -> NodeRecord {
        NodeRecord {
            label: self.node.label.clone(),
            kind: self.kind,
            features: self.node.features.clone(),
            lowest: self.node.lowest,
            created_at: self.created_at,
        }
    }
}

#[derive(Debug)]
struct Inner {
    lattice: PrivilegeLattice,
    lattice_names: Vec<String>,
    dominance: Vec<(PrivilegeId, PrivilegeId)>,
    nodes: Vec<StoredNode>,
    edges: Vec<EdgeRecord>,
    edge_set: std::collections::HashSet<(RecordId, RecordId)>,
    policy: Vec<PolicyStatement>,
    /// The *applied* clock: every record in the lists above. Writers
    /// validate and stamp against it.
    clock: u64,
    /// What readers see: the applied log up to the last write a flush
    /// covered (see [`Watermark`]).
    published: Watermark,
    /// Counts of the flushes that published writes, and of those writes.
    flushes: FlushCounts,
    /// The replication fencing term this store has observed — the
    /// highest promotion generation. 0 until a promotion happens
    /// anywhere in the deployment. Durable stores persist it in the
    /// [`wal::TERM_FILE`] beside the segments.
    term: u64,
    /// The write-ahead log, when this store is durable. Living inside the
    /// write lock, log order always equals clock order.
    wal: Option<Wal>,
    /// The keyspace slice this store owns when it is one shard of a
    /// partitioned deployment. `None` for ordinary stores. A partitioned
    /// store assigns **global** node ids (`local_position * count +
    /// index`), stores only its own residue class in `nodes`, and
    /// accepts foreign ids in edges and policy without validating their
    /// existence — the owning shard is the authority on those.
    partition: Option<Partition>,
}

impl Inner {
    /// The applied log as a watermark.
    fn applied(&self) -> Watermark {
        Watermark {
            clock: self.clock,
            lengths: LogLengths {
                nodes: self.nodes.len(),
                edges: self.edges.len(),
                policy: self.policy.len(),
            },
        }
    }

    /// Advances what readers see to `mark`, if it is ahead. Returns how
    /// many writes that published.
    fn publish(&mut self, mark: Watermark) -> u64 {
        let gained = mark.clock.saturating_sub(self.published.clock);
        if gained > 0 {
            self.published = mark;
        }
        gained
    }

    /// Counts one flush that published `gained` writes.
    fn count_flush(&mut self, gained: u64) {
        if gained > 0 {
            self.flushes.flushes += 1;
            self.flushes.flushed_writes += gained;
        }
    }

    /// The log, if `commit` is still its group commit.
    fn log_of(&self, commit: &Arc<GroupCommit>) -> Option<&Wal> {
        self.wal
            .as_ref()
            .filter(|wal| Arc::ptr_eq(wal.commit(), commit))
    }

    /// Drops every applied record readers have not seen: what a failed
    /// flush leaves, so that each write it fails is absent.
    fn roll_back(&mut self) {
        let Watermark { clock, lengths } = self.published;
        for edge in self.edges.drain(lengths.edges..) {
            self.edge_set.remove(&(edge.from, edge.to));
        }
        self.nodes.truncate(lengths.nodes);
        self.policy.truncate(lengths.policy);
        self.clock = clock;
    }
}

/// What the write-ahead log's flushes have done since the store opened:
/// [`Store::wal_flush_stats`].
#[derive(Debug, Clone, Copy, Default)]
struct FlushCounts {
    /// Flushes that made at least one write durable.
    flushes: u64,
    /// Writes those flushes made durable.
    flushed_writes: u64,
}

/// What a replicated record must match under the write lock: the clock
/// its primary logged it at, and the fencing term its chunk carried.
#[derive(Debug, Clone, Copy)]
struct Fence {
    clock: u64,
    term: u64,
}

/// An applied write waiting for a flush to cover it: the group commit of
/// the log it went to, and the clock it brought the store to.
struct Pending {
    commit: Arc<GroupCommit>,
    clock: u64,
}

/// Who to wake when the clock moves: registered callbacks behind a
/// count. No descriptor and no thread of its own; an append with nobody
/// registered pays one atomic load.
///
/// **No wake-up is lost.** A watcher ([`Store::watch_clock`]) pushes its
/// callback and publishes the count inside `wakes`' lock, *then* reads
/// the clock. An appender's write is published inside the store's write
/// lock — by the appender itself, or with `fsync` on by the flush that
/// covers it, before the appender learns it is acknowledged — and the
/// appender, once acknowledged and with no store lock held, *then* loads
/// the count, and when that is non-zero calls every callback under
/// `wakes`' lock. The watcher's clock read is a read-lock section and
/// the publication a write-lock section, so the store's lock orders the
/// two. Reader first: the registration
/// happens-before the appender's load and lock, which see it and call
/// the callback. Writer first: the watcher reads the new clock and does
/// not need the wake.
///
/// A callback runs on the appending thread with the store's lock
/// released, so it must be quick and must not call back into
/// [`watch_clock`](Store::watch_clock) or
/// [`unwatch_clock`](Store::unwatch_clock).
#[derive(Default)]
struct ClockWatch {
    watchers: AtomicUsize,
    wakes: Mutex<Vec<ClockWake>>,
    #[cfg(test)]
    notifies: AtomicUsize,
}

/// A callback [`Store::watch_clock`] runs after every clock bump.
pub type ClockWake = Arc<dyn Fn() + Send + Sync>;

impl ClockWatch {
    /// Calls every registered wake, if there is one. Call with the
    /// store's write lock released: a woken watcher reads the clock
    /// first thing.
    fn notify(&self) {
        if self.watchers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for wake in self.wakes.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            wake();
        }
        #[cfg(test)]
        self.notifies.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ClockWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockWatch")
            .field("watchers", &self.watchers.load(Ordering::Relaxed))
            .finish()
    }
}

/// Thread-safe provenance store.
#[derive(Debug)]
pub struct Store {
    inner: RwLock<Inner>,
    watch: ClockWatch,
}

impl Store {
    /// Creates an empty store over a lattice built from the given
    /// declarations (`names[0]` need not be the bottom; the lattice
    /// validates that one exists).
    pub fn new(names: &[&str], dominance: &[(usize, usize)]) -> Result<Self> {
        let mut builder = PrivilegeLattice::builder();
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            ids.push(builder.add(*name)?);
        }
        let mut pairs = Vec::with_capacity(dominance.len());
        for &(hi, lo) in dominance {
            builder.declare_dominates(ids[hi], ids[lo]);
            pairs.push((ids[hi], ids[lo]));
        }
        let lattice = builder.finish()?;
        Ok(Self {
            inner: RwLock::new(Inner {
                lattice,
                lattice_names: names.iter().map(|s| s.to_string()).collect(),
                dominance: pairs,
                nodes: Vec::new(),
                edges: Vec::new(),
                edge_set: std::collections::HashSet::new(),
                policy: Vec::new(),
                clock: 0,
                published: Watermark::default(),
                flushes: FlushCounts::default(),
                term: 0,
                wal: None,
                partition: None,
            }),
            watch: ClockWatch::default(),
        })
    }

    /// An empty **partitioned** store: shard `partition.index()` of
    /// `partition.count()`, owning the global node ids congruent to its
    /// index. Appends assign global ids from the owned residue class;
    /// edges and policy may reference foreign ids, but their *routing*
    /// fields (`from` for edges, the target `node` for policy) must be
    /// owned — a misrouted write is refused with
    /// [`StoreError::WrongShard`].
    pub fn new_partitioned(
        names: &[&str],
        dominance: &[(usize, usize)],
        partition: Partition,
    ) -> Result<Self> {
        let store = Self::new(names, dominance)?;
        store.inner.write().partition = Some(partition);
        Ok(store)
    }

    /// A store with only the `Public` predicate.
    pub fn public_only() -> Self {
        Self::new(&["Public"], &[]).expect("single predicate is valid")
    }

    /// Predicate id by nickname.
    pub fn predicate(&self, name: &str) -> Option<PrivilegeId> {
        self.inner.read().lattice.by_name(name)
    }

    /// Number of predicates in the lattice.
    pub fn predicate_count(&self) -> usize {
        self.inner.read().lattice_names.len()
    }

    /// Appends a node record, assigning its logical timestamp.
    ///
    /// # Panics
    /// On a durable store, panics if the write-ahead log cannot log or
    /// flush the record; use [`try_append_node`](Self::try_append_node)
    /// to handle I/O errors.
    pub fn append_node(
        &self,
        label: impl Into<String>,
        kind: NodeKind,
        features: Features,
        lowest: PrivilegeId,
    ) -> RecordId {
        self.try_append_node(label, kind, features, lowest)
            .expect("write-ahead log append failed")
    }

    /// Appends a node record, assigning its logical timestamp. On a
    /// durable store the record is logged before it is applied, and with
    /// `fsync` on the call returns once a flush covers it (one flush may
    /// cover many concurrent writers); readers see the record from that
    /// flush on. An `Err` means nothing was appended.
    pub fn try_append_node(
        &self,
        label: impl Into<String>,
        kind: NodeKind,
        features: Features,
        lowest: PrivilegeId,
    ) -> Result<RecordId> {
        let record = WalRecord::AppendNode(NodeRecord {
            label: label.into(),
            kind,
            features,
            lowest,
            created_at: 0, // stamped under the write lock
        });
        let (id, pending) = self.stage(record, None)?;
        self.acknowledge(pending)?;
        Ok(id.expect("a node record is assigned an id"))
    }

    /// Appends an edge record after validating endpoints and uniqueness.
    ///
    /// On a partitioned store `from` must be owned by this shard (edges
    /// route by their source); `to` may be a foreign id, accepted
    /// unvalidated.
    pub fn append_edge(&self, from: RecordId, to: RecordId, kind: EdgeKind) -> Result<()> {
        let (_, pending) =
            self.stage(WalRecord::AppendEdge(EdgeRecord { from, to, kind }), None)?;
        self.acknowledge(pending)
    }

    /// Appends a policy statement after validating its references.
    ///
    /// On a partitioned store the statement's target `node` must be
    /// owned by this shard (policy routes by the node it governs);
    /// incidental `from`/`to` references may be foreign.
    pub fn apply_policy(&self, statement: PolicyStatement) -> Result<()> {
        let (_, pending) = self.stage(WalRecord::ApplyPolicy(statement), None)?;
        self.acknowledge(pending)
    }

    /// The write path up to the flush, in one write-lock section:
    /// validates `record` (and a replicated record's `fence`), logs it,
    /// applies it, and advances the applied clock. On a store that needs
    /// no flush the write is published here too; otherwise the returned
    /// [`Pending`] is what the caller waits on. Returns a node record's
    /// id.
    fn stage(
        &self,
        mut record: WalRecord,
        fence: Option<Fence>,
    ) -> Result<(Option<RecordId>, Option<Pending>)> {
        let mut inner = self.inner.write();
        if let Some(fence) = fence {
            Self::check_fence(&inner, fence)?;
        }
        Self::validate(&inner, &record)?;
        let clock = inner.clock;
        if let WalRecord::AppendNode(node) = &mut record {
            node.created_at = clock;
        }
        if let Some(wal) = inner.wal.as_mut() {
            wal.append(&record, clock)?;
        }
        inner.clock += 1;
        let id = match record {
            WalRecord::AppendNode(node) => {
                let pos = inner.nodes.len() as u32;
                // The frame is encoded; the label and features move into
                // the one payload every reader of this node will share.
                inner.nodes.push(node.into());
                Some(RecordId(match inner.partition {
                    Some(p) => p.global(pos),
                    None => pos,
                }))
            }
            WalRecord::AppendEdge(edge) => {
                inner.edge_set.insert((edge.from, edge.to));
                inner.edges.push(edge);
                None
            }
            WalRecord::ApplyPolicy(statement) => {
                inner.policy.push(statement);
                None
            }
        };
        let pending = match inner.wal.as_ref() {
            Some(wal) if wal.options().fsync => Some(Pending {
                commit: wal.commit().clone(),
                clock: inner.clock,
            }),
            _ => {
                inner.published = inner.applied();
                None
            }
        };
        Ok((id, pending))
    }

    /// Acknowledges staged writes: waits for a flush to cover `pending`,
    /// if there is one, then wakes the clock's watchers.
    fn acknowledge(&self, pending: Option<Pending>) -> Result<()> {
        if let Some(pending) = pending {
            self.await_flush(pending)?;
        }
        self.watch.notify();
        Ok(())
    }

    /// Blocks until a flush covers `pending`, leading one when none is in
    /// flight. `Err` when the write will never be covered: the flush
    /// failed (the leader gets its I/O error, the others
    /// [`StoreError::WalPoisoned`]), and the write is rolled back.
    fn await_flush(&self, pending: Pending) -> Result<()> {
        let mut failure = None;
        loop {
            match pending.commit.wait(pending.clock) {
                Turn::Acked => return Ok(()),
                Turn::Failed => return Err(failure.unwrap_or(StoreError::WalPoisoned)),
                Turn::Lead => failure = self.lead_flush(&pending.commit).err(),
            }
        }
    }

    /// One flush of a group commit, by the writer whose turn it is.
    /// Captures what the flush covers under the read lock, flushes with no
    /// store lock held, then publishes under the write lock — or, when
    /// the flush failed, poisons the log and rolls the unpublished writes
    /// back — and hands the outcome to every waiter.
    fn lead_flush(&self, commit: &Arc<GroupCommit>) -> Result<()> {
        let (mark, flusher) = {
            let inner = self.inner.read();
            match inner.log_of(commit) {
                Some(wal) => (inner.applied(), wal.flusher()),
                // A log restarted under a new history settled its writers.
                None => {
                    commit.finish(0, false);
                    return Ok(());
                }
            }
        };
        let flushed = flusher.and_then(|handle| handle.sync());
        let mut inner = self.inner.write();
        let ours = inner.log_of(commit).is_some();
        if ours {
            match &flushed {
                Ok(()) => {
                    let gained = inner.publish(mark);
                    inner.count_flush(gained);
                }
                Err(_) => {
                    inner.wal.as_mut().expect("ours").poison();
                    inner.roll_back();
                }
            }
        }
        let published = if ours { inner.published.clock } else { 0 };
        drop(inner);
        commit.finish(published, ours && flushed.is_err());
        flushed
    }

    /// Refuses a replicated record from a deposed term, or one that does
    /// not land exactly at the applied clock.
    fn check_fence(inner: &Inner, fence: Fence) -> Result<()> {
        if fence.term < inner.term {
            return Err(StoreError::DeposedPrimary {
                term: fence.term,
                current: inner.term,
            });
        }
        if fence.clock != inner.clock {
            return Err(StoreError::ReplicationGap {
                expected: inner.clock,
                found: fence.clock,
            });
        }
        Ok(())
    }

    /// Everything a record must satisfy before it is logged: nothing
    /// unreplayable is ever acknowledged. On a partitioned store a
    /// record's routing id must be owned here.
    fn validate(inner: &Inner, record: &WalRecord) -> Result<()> {
        let route = |id: RecordId| match inner.partition {
            Some(p) if !p.owns(id.0) => Err(StoreError::WrongShard {
                id,
                owner: p.map().shard_of(id.0),
            }),
            _ => Ok(()),
        };
        match record {
            // Bounds-check before logging: an out-of-range predicate
            // would be acknowledged live but rejected (as corruption) at
            // replay, truncating every later acknowledged write.
            WalRecord::AppendNode(node) => Self::check_predicate(inner, node.lowest),
            WalRecord::AppendEdge(EdgeRecord { from, to, .. }) => {
                route(*from)?;
                Self::check_record(inner, *from)?;
                Self::check_record(inner, *to)?;
                if from == to {
                    return Err(StoreError::Graph(surrogate_core::error::Error::SelfLoop(
                        NodeId(from.0),
                    )));
                }
                if inner.edge_set.contains(&(*from, *to)) {
                    return Err(StoreError::Graph(
                        surrogate_core::error::Error::DuplicateEdge {
                            from: NodeId(from.0),
                            to: NodeId(to.0),
                        },
                    ));
                }
                Ok(())
            }
            WalRecord::ApplyPolicy(statement) => {
                route(statement.node())?;
                match statement {
                    PolicyStatement::MarkIncidence { node, from, to, .. } => {
                        Self::check_record(inner, *node)?;
                        Self::check_record(inner, *from)?;
                        Self::check_record(inner, *to)?;
                    }
                    PolicyStatement::MarkNode { node, .. }
                    | PolicyStatement::AddSurrogate { node, .. } => {
                        Self::check_record(inner, *node)?
                    }
                }
                match codec::policy_refs(statement) {
                    (_, Some(predicate)) => Self::check_predicate(inner, predicate),
                    _ => Ok(()),
                }
            }
        }
    }

    /// Rejects record ids that cannot exist here: out-of-range on an
    /// ordinary store; on a partitioned store, owned ids beyond the
    /// local list (foreign ids pass — the owning shard validates them).
    fn check_record(inner: &Inner, id: RecordId) -> Result<()> {
        let n = inner.nodes.len();
        let known = match inner.partition {
            Some(p) if !p.owns(id.0) => true,
            Some(p) => (p.local(id.0) as usize) < n,
            None => id.index() < n,
        };
        if known {
            Ok(())
        } else {
            Err(StoreError::UnknownRecord(id))
        }
    }

    /// Rejects predicate ids outside the lattice — mirroring the bounds
    /// check `codec::decode` applies, so nothing unreplayable is ever
    /// logged.
    fn check_predicate(inner: &Inner, predicate: PrivilegeId) -> Result<()> {
        if predicate.0 as usize >= inner.lattice_names.len() {
            return Err(StoreError::UnknownPredicate(predicate.0));
        }
        Ok(())
    }

    /// Number of node records.
    pub fn node_count(&self) -> usize {
        self.inner.read().published.lengths.nodes
    }

    /// Number of edge records.
    pub fn edge_count(&self) -> usize {
        self.inner.read().published.lengths.edges
    }

    /// Number of policy statements.
    pub fn policy_count(&self) -> usize {
        self.inner.read().published.lengths.policy
    }

    /// The store's logical clock (total acknowledged appends).
    pub fn clock(&self) -> u64 {
        self.inner.read().published.clock
    }

    /// `(flushes, flushed writes)` of the write-ahead log since the store
    /// opened: the flushes that made at least one write durable, and the
    /// writes they made durable. Every write acknowledged with `fsync` on
    /// is counted once, so their ratio is the mean group size; both stay
    /// 0 with `fsync` off.
    pub fn wal_flush_stats(&self) -> (u64, u64) {
        let FlushCounts {
            flushes,
            flushed_writes,
        } = self.inner.read().flushes;
        (flushes, flushed_writes)
    }

    /// The store's version — an alias of the logical clock, read by the
    /// serving layer as its **epoch** source. Strictly monotone: every
    /// `append_*` / `apply_policy` bumps it by exactly one.
    pub fn version(&self) -> u64 {
        self.clock()
    }

    /// Registers `wake` to run after every clock bump until
    /// [`unwatch_clock`](Self::unwatch_clock) removes it. This is how a
    /// replication feed waits for the log instead of polling it. Register
    /// first, then read the clock: a bump the read misses is one the wake
    /// reports.
    pub fn watch_clock(&self, wake: ClockWake) {
        let mut wakes = self.watch.wakes.lock().unwrap_or_else(|e| e.into_inner());
        wakes.push(wake);
        self.watch.watchers.store(wakes.len(), Ordering::SeqCst);
    }

    /// Removes a wake [`watch_clock`](Self::watch_clock) registered (the
    /// same `Arc`). Once this returns, the wake does not run again.
    pub fn unwatch_clock(&self, wake: &ClockWake) {
        let mut wakes = self.watch.wakes.lock().unwrap_or_else(|e| e.into_inner());
        wakes.retain(|registered| !Arc::ptr_eq(registered, wake));
        self.watch.watchers.store(wakes.len(), Ordering::SeqCst);
    }

    /// [`materialize`](Self::materialize) plus the version the
    /// materialization corresponds to. The pair is consistent even while
    /// writers race: the clock and the log are copied in one critical
    /// section — `Arc` bumps and `Copy` records — and the graph is built
    /// after the lock is released, so no append queues behind the build.
    pub fn materialize_versioned(&self) -> (u64, Materialized) {
        let (lattice, partition, mut log) = {
            let inner = self.inner.read();
            let log = Self::copy_since(&inner, LogLengths::default());
            (inner.lattice.clone(), inner.partition, log)
        };
        if let Some(p) = partition {
            // Graph node ids must equal *global* record ids, so the
            // owned residue class is laid out at its global positions
            // with inert placeholders at foreign ids. The graph covers
            // every id any local record references; a shard's partial
            // view only answers point reads, and cross-shard traversal
            // goes through the gather merge. An owned id beyond the
            // local list can be pulled under the bound by an edge to a
            // *higher* foreign id; it gets a placeholder like any
            // foreign id.
            let owned = std::mem::take(&mut log.nodes);
            let assigned = match owned.len() as u32 {
                0 => 0,
                n => p.global(n - 1).saturating_add(1),
            };
            let bound = global_bound(assigned, &log.edges);
            log.nodes = lay_out_global(0..bound, lattice.public(), |g| {
                owned.get(p.local(g) as usize).filter(|_| p.owns(g))
            });
        }
        (log.clock, Materialized::build(lattice, log))
    }

    /// Copies what the published log holds past `since`, under the
    /// caller's lock.
    fn copy_since(inner: &Inner, since: LogLengths) -> LogDelta {
        let Watermark { clock, lengths } = inner.published;
        LogDelta {
            since,
            clock,
            nodes: inner.nodes[since.nodes..lengths.nodes]
                .iter()
                .map(|stored| stored.node.clone())
                .collect(),
            edges: inner.edges[since.edges..lengths.edges].to_vec(),
            policy: inner.policy[since.policy..lengths.policy].to_vec(),
            slots: SlotLengths::default(),
        }
    }

    /// What this store's log gained since `base` was materialized, copied
    /// under the read lock in time proportional to the gain; apply it with
    /// [`Materialized::extend`] to bring `base` to
    /// [`clock`](LogDelta::clock).
    ///
    /// `None` when `base` cannot be extended and the caller must
    /// [`materialize`](Self::materialize) afresh: `base` is empty or not a
    /// prefix of this log (another store's, or this store's from before an
    /// [`install_snapshot`](Self::install_snapshot) — told apart in O(1),
    /// by the identity of the last payload `base` shares with the log), or
    /// the store is partitioned (an id that is a placeholder at one clock
    /// is a record at the next, which no append-only extension expresses).
    pub fn delta_since(&self, base: &Materialized) -> Option<LogDelta> {
        let since = base.reflects;
        let inner = self.inner.read();
        let last = since.nodes.checked_sub(1)?;
        let published = inner.published.lengths;
        let is_prefix = inner.partition.is_none()
            // `graph` is a public field; a swapped one is no prefix.
            && base.graph.node_count() == since.nodes
            && base.graph.edge_count() == since.edges
            && since.nodes <= published.nodes
            && since.edges <= published.edges
            && since.policy <= published.policy
            && inner.nodes.get(last).is_some_and(|stored| {
                Arc::ptr_eq(&stored.node, base.graph.shared_node(NodeId(last as u32)))
            });
        is_prefix.then(|| Self::copy_since(&inner, since))
    }

    /// The keyspace slice this store owns, when partitioned.
    pub fn partition(&self) -> Option<Partition> {
        self.inner.read().partition
    }

    /// A copy of node record `id` (a global id on partitioned stores;
    /// foreign ids return `None` — ask the owning shard).
    pub fn node(&self, id: RecordId) -> Option<NodeRecord> {
        let inner = self.inner.read();
        let pos = match inner.partition {
            Some(p) if !p.owns(id.0) => return None,
            Some(p) => p.local(id.0) as usize,
            None => id.index(),
        };
        inner.nodes[..inner.published.lengths.nodes]
            .get(pos)
            .map(StoredNode::to_record)
    }

    /// A copy of all edge records in append order. Edge kinds live only at
    /// the record level (the materialized graph is untyped), so
    /// kind-filtered lineage walks read them from here.
    pub fn edges(&self) -> Vec<EdgeRecord> {
        let inner = self.inner.read();
        inner.edges[..inner.published.lengths.edges].to_vec()
    }

    /// Builds the graph, markings, and catalog from the record log — the
    /// paper's "build graph" stage.
    pub fn materialize(&self) -> Materialized {
        self.materialize_versioned().1
    }

    /// The published log as snapshot data.
    fn snapshot_data(inner: &Inner) -> SnapshotData {
        let Watermark { clock, lengths } = inner.published;
        SnapshotData {
            lattice_names: inner.lattice_names.clone(),
            dominance: inner.dominance.clone(),
            nodes: inner.nodes[..lengths.nodes]
                .iter()
                .map(StoredNode::to_record)
                .collect(),
            edges: inner.edges[..lengths.edges].to_vec(),
            policy: inner.policy[..lengths.policy].to_vec(),
            clock,
            partition: inner.partition,
        }
    }

    /// Serializes the store to snapshot bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(&Self::snapshot_data(&self.inner.read()))
    }

    /// Rebuilds an in-memory store from decoded snapshot data.
    fn from_snapshot_data(data: SnapshotData) -> Result<Self> {
        let mut builder = PrivilegeLattice::builder();
        let mut ids = Vec::with_capacity(data.lattice_names.len());
        for name in &data.lattice_names {
            ids.push(builder.add(name.clone())?);
        }
        for &(hi, lo) in &data.dominance {
            builder.declare_dominates(ids[hi.0 as usize], ids[lo.0 as usize]);
        }
        let lattice = builder.finish()?;
        let edge_set = data.edges.iter().map(|e| (e.from, e.to)).collect();
        let mut inner = Inner {
            lattice,
            lattice_names: data.lattice_names,
            dominance: data.dominance,
            nodes: data.nodes.into_iter().map(StoredNode::from).collect(),
            edges: data.edges,
            edge_set,
            policy: data.policy,
            clock: data.clock,
            published: Watermark::default(),
            flushes: FlushCounts::default(),
            term: 0,
            wal: None,
            partition: data.partition,
        };
        inner.published = inner.applied();
        Ok(Self {
            inner: RwLock::new(inner),
            watch: ClockWatch::default(),
        })
    }

    /// Rebuilds a store from snapshot bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_snapshot_data(codec::decode(bytes)?)
    }

    /// Persists a snapshot to disk — the paper's "DB" write path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes()).map_err(|e| StoreError::io_at(path, e))
    }

    /// Loads a snapshot from disk — the paper's "DB access" stage.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| StoreError::io_at(path, e))?;
        Self::from_bytes(&bytes)
    }

    // -----------------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------------

    /// Creates a durable store in (empty or nonexistent) directory `dir`:
    /// an initial snapshot at clock 0 plus an open write-ahead-log
    /// segment every subsequent append is logged to.
    pub fn create_durable(
        dir: impl AsRef<Path>,
        names: &[&str],
        dominance: &[(usize, usize)],
    ) -> Result<Self> {
        Self::create_durable_with(dir, names, dominance, DurabilityOptions::default())
    }

    /// [`create_durable`](Self::create_durable) with explicit options.
    pub fn create_durable_with(
        dir: impl AsRef<Path>,
        names: &[&str],
        dominance: &[(usize, usize)],
        options: DurabilityOptions,
    ) -> Result<Self> {
        Self::create_durable_with_io(dir, names, dominance, options, Box::new(wal::DiskIo))
    }

    /// [`create_durable_with`](Self::create_durable_with) writing WAL
    /// frames through a custom [`WalIo`] — the fault-injection seam used
    /// by the crash-recovery test harness.
    pub fn create_durable_with_io(
        dir: impl AsRef<Path>,
        names: &[&str],
        dominance: &[(usize, usize)],
        options: DurabilityOptions,
        io: Box<dyn WalIo>,
    ) -> Result<Self> {
        Self::attach_new_wal(dir.as_ref(), Self::new(names, dominance)?, options, io)
    }

    /// [`create_durable_with`](Self::create_durable_with) for one shard
    /// of a partitioned deployment: the initial snapshot records the
    /// partition (snapshot version 2), so [`Store::open`] recovers the
    /// shard with its keyspace slice intact.
    pub fn create_durable_partitioned(
        dir: impl AsRef<Path>,
        names: &[&str],
        dominance: &[(usize, usize)],
        options: DurabilityOptions,
        partition: Partition,
    ) -> Result<Self> {
        Self::attach_new_wal(
            dir.as_ref(),
            Self::new_partitioned(names, dominance, partition)?,
            options,
            Box::new(wal::DiskIo),
        )
    }

    /// Seeds `dir` with `store`'s initial snapshot and attaches a fresh
    /// write-ahead-log writer — the shared tail of the `create_durable*`
    /// constructors.
    fn attach_new_wal(
        dir: &Path,
        store: Self,
        options: DurabilityOptions,
        io: Box<dyn WalIo>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io_at(dir, e))?;
        wal::ensure_vacant(dir)?;
        wal::write_atomic(&wal::snapshot_path(dir, 0), &store.to_bytes())?;
        let writer = Wal::open(dir, options, io, None, 0)?;
        let term = wal::read_term(dir)?;
        let mut inner = store.inner.write();
        inner.wal = Some(writer);
        inner.term = term;
        drop(inner);
        Ok(store)
    }

    /// Opens (recovers) the durable store under `dir`: the newest valid
    /// snapshot plus a replay of the write-ahead-log tail, truncated at
    /// the first torn or corrupt frame. See the [`wal`] module docs.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`open`](Self::open) with explicit options.
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self> {
        Ok(Self::open_reporting(dir, options)?.0)
    }

    /// [`open_with`](Self::open_with), additionally returning the
    /// [`RecoveryReport`] describing what recovery found and repaired —
    /// the substrate of `spgraph recover --verify`.
    pub fn open_reporting(
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        let (store, resume, report) = wal::recover(dir, true, Self::from_snapshot_data)?;
        let clock = store.clock();
        let writer = Wal::open(dir, options, Box::new(wal::DiskIo), resume, clock)?;
        let term = wal::read_term(dir)?;
        let mut inner = store.inner.write();
        inner.wal = Some(writer);
        inner.term = term;
        drop(inner);
        Ok((store, report))
    }

    /// Recovers the durable state under `dir` **without modifying the
    /// directory**: no truncation, no pruning, no write-ahead-log writer
    /// attached (the returned store is in-memory). Safe to use alongside
    /// a live writer — the substrate of the CLI's read commands.
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<Self> {
        let (store, _, _) = wal::recover(dir.as_ref(), false, Self::from_snapshot_data)?;
        store.inner.write().term = wal::read_term(dir.as_ref())?;
        Ok(store)
    }

    /// `true` when appends are logged to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.inner.read().wal.is_some()
    }

    /// The durable store's directory, when [`is_durable`](Self::is_durable).
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.inner
            .read()
            .wal
            .as_ref()
            .map(|w| w.dir().to_path_buf())
    }

    /// Seeds directory `dir` with a durable copy of this store's current
    /// state: a single snapshot at the current clock, ready for
    /// [`Store::open`]. The receiving directory must not already hold a
    /// durable store.
    pub fn save_durable(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io_at(dir, e))?;
        wal::ensure_vacant(dir)?;
        let inner = self.inner.read();
        let data = Self::snapshot_data(&inner);
        wal::write_atomic(&wal::snapshot_path(dir, data.clock), &codec::encode(&data))?;
        if inner.term > 0 {
            wal::write_term(dir, inner.term)?;
        }
        Ok(())
    }

    /// Writes a snapshot of the current state, rotates to a fresh
    /// write-ahead-log segment, and prunes the segments and snapshots the
    /// new snapshot supersedes. Errors with [`StoreError::NotDurable`] on
    /// an in-memory store.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        // Under the write lock: rotate so the active segment starts
        // exactly at the applied clock — which flushes every frame before
        // it — publish what that flush covered, and capture a consistent
        // copy of the state. Encoding and the fsync'd snapshot write
        // happen *outside* the lock — appends racing into the fresh
        // segment carry clocks >= the captured one, and recovery without
        // the new snapshot just replays the still-present old segments.
        let (data, dir, clock) = {
            let mut inner = self.inner.write();
            let clock = inner.clock;
            let Some(wal) = inner.wal.as_mut() else {
                return Err(StoreError::NotDurable);
            };
            let dir = wal.dir().to_path_buf();
            wal.rotate(clock)?;
            let applied = inner.applied();
            let gained = inner.publish(applied);
            inner.count_flush(gained);
            (Self::snapshot_data(&inner), dir, clock)
        };
        let bytes = codec::encode(&data);
        wal::write_atomic(&wal::snapshot_path(&dir, clock), &bytes)?;
        // The snapshot is durable; everything it covers can go. Tolerate
        // already-gone files — a concurrent checkpoint may prune too.
        let mut pruned_segments = 0;
        for (start, path) in wal::list_segments(&dir)? {
            if start < clock && std::fs::remove_file(&path).is_ok() {
                pruned_segments += 1;
            }
        }
        let mut pruned_snapshots = 0;
        for (snap_clock, path) in wal::list_snapshots(&dir)? {
            if snap_clock < clock && std::fs::remove_file(&path).is_ok() {
                pruned_snapshots += 1;
            }
        }
        if pruned_segments + pruned_snapshots > 0 {
            // Make the removals durable alongside the new snapshot.
            let _ = wal::sync_dir(&dir);
        }
        Ok(CheckpointStats {
            clock,
            snapshot_bytes: bytes.len() as u64,
            pruned_segments,
            pruned_snapshots,
        })
    }

    // -----------------------------------------------------------------------
    // Replication
    // -----------------------------------------------------------------------

    /// The replication fencing term this store has observed: the highest
    /// promotion generation, durably recorded beside the segments on
    /// durable stores. 0 means no promotion has ever been observed.
    pub fn replication_term(&self) -> u64 {
        self.inner.read().term
    }

    /// Observes a peer's fencing term: raises (and durably records) the
    /// local term when `term` is higher, accepts an equal term, and
    /// refuses a lower one with [`StoreError::DeposedPrimary`] — the
    /// fencing check every replicated chunk passes through before any of
    /// its frames may touch this store.
    pub fn observe_replication_term(&self, term: u64) -> Result<()> {
        let mut inner = self.inner.write();
        let current = inner.term;
        if term < current {
            return Err(StoreError::DeposedPrimary { term, current });
        }
        if term > current {
            // Persist before adopting: a term observed in memory only
            // could be forgotten by a crash, letting the deposed
            // primary's frames back in on restart.
            if let Some(wal) = inner.wal.as_ref() {
                wal::write_term(wal.dir(), term)?;
            }
            inner.term = term;
        }
        Ok(())
    }

    /// Bumps the fencing term by one and durably records it — the core
    /// of a **promotion**. Every chunk this store ships afterwards
    /// carries the new term, so the deposed primary's frames (still
    /// stamped with the old term) are refused everywhere the new term
    /// has been observed. Returns the new term.
    pub fn promote_term(&self) -> Result<u64> {
        let mut inner = self.inner.write();
        let next = inner.term + 1;
        if let Some(wal) = inner.wal.as_ref() {
            wal::write_term(wal.dir(), next)?;
        }
        inner.term = next;
        Ok(next)
    }

    /// Applies one replicated WAL record at the tail of this store's
    /// history — the one-record case of
    /// [`apply_replicated_chunk`](Self::apply_replicated_chunk), at the
    /// store's applied clock. A node record stamped for any other clock
    /// is refused with [`StoreError::ReplicationGap`].
    pub fn apply_replicated(&self, record: WalRecord, term: u64) -> Result<()> {
        let clock = self.inner.read().clock;
        self.apply_replicated_chunk(clock, [record], term)
    }

    /// Applies a chunk of replicated WAL records, clock-contiguous from
    /// `start_clock`, at the tail of this store's history — the **replica
    /// apply path**. Each record is logged to this store's *own*
    /// write-ahead log before it is applied, so a replica's directory
    /// recovers by exactly the rules a primary's does, and a restarted
    /// replica resumes from its local clock. With `fsync` on, the whole
    /// chunk costs one flush, and readers see it once that flush is done.
    ///
    /// `term` is the fencing term the chunk carried. A term below one
    /// this store has observed is refused with
    /// [`StoreError::DeposedPrimary`] before anything else — frames from
    /// a deposed primary are never applied, even when their clocks would
    /// line up — and again for each record, so a promotion racing the
    /// chunk stops it there. A higher term is adopted (and durably
    /// recorded) first.
    ///
    /// Records below the applied clock are skipped (an overlapping
    /// resend). Validation then mirrors the recovery replay path: a
    /// record past the applied clock, or a node record stamped for a
    /// clock other than its own, is refused with
    /// [`StoreError::ReplicationGap`] (the stream is out of order or the
    /// primary's history diverged), and semantically invalid records
    /// surface the ordinary append errors. The records before a refused
    /// one stay applied; nothing of the refused one is.
    pub fn apply_replicated_chunk(
        &self,
        start_clock: u64,
        records: impl IntoIterator<Item = WalRecord>,
        term: u64,
    ) -> Result<()> {
        self.observe_replication_term(term)?;
        let first = self.inner.read().clock;
        let (mut applied, mut last, mut refused) = (first, None, None);
        for (clock, record) in (start_clock..).zip(records) {
            if clock < applied {
                continue;
            }
            // A node record carries the clock it was logged at; a stream
            // that disagrees with it is out of order.
            let clock = match &record {
                WalRecord::AppendNode(node) if clock == applied => node.created_at,
                _ => clock,
            };
            match self.stage(record, Some(Fence { clock, term })) {
                Ok((_, pending)) => {
                    applied += 1;
                    last = pending.or(last);
                }
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        if applied > first {
            // One flush covers every record staged above.
            self.acknowledge(last)?;
        }
        refused.map_or(Ok(()), Err)
    }

    /// Replaces this durable store's entire state with `snapshot` — the
    /// replica **fast-forward path**, used when the primary has
    /// checkpointed past this store's clock and the intervening frames
    /// no longer exist. The snapshot is installed on disk (older
    /// segments and snapshots are pruned, a fresh write-ahead-log
    /// segment opens at the snapshot's clock, through the same
    /// [`WalIo`]) and the in-memory state is swapped under the write
    /// lock, so concurrent readers see either the old state or the new
    /// one, never a mix, and the epoch stays monotone. A write still
    /// waiting for a flush of the old log fails.
    ///
    /// A snapshot at or behind the current clock is a no-op (the local
    /// history already covers it); the current clock is returned either
    /// way. Errors with [`StoreError::NotDurable`] on an in-memory
    /// store.
    pub fn install_snapshot(&self, snapshot: &[u8]) -> Result<u64> {
        let data = codec::decode(snapshot)?;
        let mut inner = self.inner.write();
        let Some(wal) = inner.wal.as_ref() else {
            return Err(StoreError::NotDurable);
        };
        if data.clock <= inner.clock {
            return Ok(inner.published.clock);
        }
        let dir = wal.dir().to_path_buf();
        let clock = data.clock;
        wal::write_atomic(&wal::snapshot_path(&dir, clock), snapshot)?;
        // Local history is a prefix of the primary's, so everything on
        // disk predates the installed snapshot: prune it all (tolerating
        // races, as checkpoint does).
        for (_, path) in wal::list_segments(&dir)? {
            let _ = std::fs::remove_file(&path);
        }
        for (snap_clock, path) in wal::list_snapshots(&dir)? {
            if snap_clock < clock {
                let _ = std::fs::remove_file(&path);
            }
        }
        let mut fresh = Self::from_snapshot_data(data)?.inner.into_inner();
        let published = inner.published.clock;
        let wal = inner.wal.as_mut().expect("checked above");
        wal.restart(clock, published)?;
        fresh.wal = inner.wal.take();
        // The fencing term outlives the state swap: it fences senders,
        // not history, and the durable term file was never touched.
        fresh.term = inner.term;
        fresh.flushes = inner.flushes;
        *inner = fresh;
        drop(inner);
        self.watch.notify();
        Ok(clock)
    }
}

/// What [`Store::checkpoint`] wrote and removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The logical clock the snapshot captures.
    pub clock: u64,
    /// Size of the written snapshot.
    pub snapshot_bytes: u64,
    /// Superseded WAL segments removed.
    pub pruned_segments: usize,
    /// Superseded snapshots removed.
    pub pruned_snapshots: usize,
}

impl wal::ReplayTarget for Store {
    fn apply(&mut self, record: WalRecord) -> std::result::Result<(), String> {
        // Replay drives the ordinary append paths; `wal` is still `None`
        // while recovering, so nothing is re-logged.
        match record {
            WalRecord::AppendNode(node) => {
                if node.created_at != self.clock() {
                    return Err(format!(
                        "node record stamped {} at clock {}",
                        node.created_at,
                        self.clock()
                    ));
                }
                if self.predicate_count() <= node.lowest.0 as usize {
                    return Err(format!(
                        "node references unknown predicate {}",
                        node.lowest.0
                    ));
                }
                self.try_append_node(node.label, node.kind, node.features, node.lowest)
                    .map_err(|e| e.to_string())?;
                Ok(())
            }
            WalRecord::AppendEdge(edge) => self
                .append_edge(edge.from, edge.to, edge.kind)
                .map_err(|e| e.to_string()),
            WalRecord::ApplyPolicy(statement) => {
                let (_, predicate) = codec::policy_refs(&statement);
                if let Some(p) = predicate {
                    if self.predicate_count() <= p.0 as usize {
                        return Err(format!("policy references unknown predicate {}", p.0));
                    }
                }
                self.apply_policy(statement).map_err(|e| e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surrogate_core::marking::Marking;

    fn sample_store() -> (Store, RecordId, RecordId, RecordId) {
        let store = Store::new(&["Public", "High"], &[(1, 0)]).unwrap();
        let high = store.predicate("High").unwrap();
        let public = store.predicate("Public").unwrap();
        let a = store.append_node("input", NodeKind::Data, Features::new(), public);
        let p = store.append_node("analysis", NodeKind::Process, Features::new(), high);
        let b = store.append_node("output", NodeKind::Data, Features::new(), public);
        store.append_edge(a, p, EdgeKind::InputTo).unwrap();
        store.append_edge(p, b, EdgeKind::GeneratedBy).unwrap();
        store
            .apply_policy(PolicyStatement::MarkNode {
                node: p,
                predicate: Some(public),
                marking: Marking::Surrogate,
            })
            .unwrap();
        store
            .apply_policy(PolicyStatement::AddSurrogate {
                node: p,
                label: "a process".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.2,
            })
            .unwrap();
        (store, a, p, b)
    }

    #[test]
    fn append_and_counts() {
        let (store, ..) = sample_store();
        assert_eq!(store.node_count(), 3);
        assert_eq!(store.edge_count(), 2);
        assert_eq!(store.policy_count(), 2);
        assert_eq!(store.clock(), 7);
    }

    #[test]
    fn timestamps_are_monotone() {
        let (store, a, _, b) = sample_store();
        let ta = store.node(a).unwrap().created_at;
        let tb = store.node(b).unwrap().created_at;
        assert!(ta < tb);
    }

    #[test]
    fn edge_validation() {
        let (store, a, ..) = sample_store();
        assert!(matches!(
            store.append_edge(a, RecordId(99), EdgeKind::Related),
            Err(StoreError::UnknownRecord(_))
        ));
        assert!(matches!(
            store.append_edge(a, a, EdgeKind::Related),
            Err(StoreError::Graph(_))
        ));
        let p = RecordId(1);
        assert!(matches!(
            store.append_edge(a, p, EdgeKind::Related),
            Err(StoreError::Graph(
                surrogate_core::error::Error::DuplicateEdge { .. }
            ))
        ));
    }

    #[test]
    fn policy_validation() {
        let (store, ..) = sample_store();
        assert!(matches!(
            store.apply_policy(PolicyStatement::MarkNode {
                node: RecordId(42),
                predicate: None,
                marking: Marking::Hide,
            }),
            Err(StoreError::UnknownRecord(_))
        ));
    }

    #[test]
    fn materialize_replays_policy() {
        let (store, a, p, b) = sample_store();
        let m = store.materialize();
        assert_eq!(m.graph.node_count(), 3);
        assert_eq!(m.graph.edge_count(), 2);
        let public = m.lattice.by_name("Public").unwrap();
        assert_eq!(
            m.markings
                .mark(NodeId(p.0), (NodeId(a.0), NodeId(p.0)), public),
            Marking::Surrogate
        );
        assert_eq!(m.catalog.for_node(NodeId(p.0)).len(), 1);
        // End-to-end: protect the materialization for Public.
        let account = surrogate_core::account::generate_for_set(&m.context(), &[public]).unwrap();
        let a2 = account.account_node(NodeId(a.0)).unwrap();
        let b2 = account.account_node(NodeId(b.0)).unwrap();
        assert!(account.graph().has_edge(a2, b2), "surrogate edge a→b");
    }

    #[test]
    fn snapshot_roundtrip_in_memory() {
        let (store, ..) = sample_store();
        let bytes = store.to_bytes();
        let restored = Store::from_bytes(&bytes).unwrap();
        assert_eq!(restored.node_count(), store.node_count());
        assert_eq!(restored.edge_count(), store.edge_count());
        assert_eq!(restored.policy_count(), store.policy_count());
        assert_eq!(restored.clock(), store.clock());
        assert_eq!(restored.to_bytes(), bytes, "stable re-encoding");
    }

    #[test]
    fn snapshot_roundtrip_on_disk() {
        let (store, ..) = sample_store();
        let path =
            std::env::temp_dir().join(format!("plus-store-test-{}.snapshot", std::process::id()));
        store.save(&path).unwrap();
        let restored = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.node_count(), 3);
        assert_eq!(restored.to_bytes(), store.to_bytes());
    }

    /// Fresh temp directory for a durable-store test.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plus-store-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_sample(dir: &Path) -> Store {
        let store = Store::create_durable_with(
            dir,
            &["Public", "High"],
            &[(1, 0)],
            crate::wal::DurabilityOptions {
                fsync: false,
                ..Default::default()
            },
        )
        .unwrap();
        let high = store.predicate("High").unwrap();
        let public = store.predicate("Public").unwrap();
        let a = store.append_node("input", NodeKind::Data, Features::new(), public);
        let p = store.append_node("analysis", NodeKind::Process, Features::new(), high);
        store.append_edge(a, p, EdgeKind::InputTo).unwrap();
        store
            .apply_policy(PolicyStatement::MarkNode {
                node: p,
                predicate: Some(public),
                marking: Marking::Surrogate,
            })
            .unwrap();
        store
    }

    #[test]
    fn durable_appends_recover_without_checkpoint() {
        let dir = temp_dir("recover");
        let committed = {
            let store = durable_sample(&dir);
            assert!(store.is_durable());
            assert_eq!(store.durable_dir().unwrap(), dir);
            store.to_bytes()
        };
        let (restored, report) = Store::open_reporting(&dir, Default::default()).unwrap();
        assert_eq!(restored.to_bytes(), committed, "every append recovered");
        assert_eq!(restored.clock(), 4);
        assert_eq!(report.clock, 4);
        assert_eq!(report.records_replayed, 4);
        assert!(report.truncated.is_none());
        // Recovered stores keep appending durably.
        let public = restored.predicate("Public").unwrap();
        restored.append_node("late", NodeKind::Data, Features::new(), public);
        drop(restored);
        let again = Store::open(&dir).unwrap();
        assert_eq!(again.clock(), 5);
        assert_eq!(again.node_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_prunes_superseded_files() {
        let dir = temp_dir("checkpoint");
        let store = durable_sample(&dir);
        let stats = store.checkpoint().unwrap();
        assert_eq!(stats.clock, 4);
        assert_eq!(stats.pruned_segments, 1, "pre-checkpoint segment pruned");
        assert_eq!(stats.pruned_snapshots, 1, "clock-0 snapshot pruned");
        assert_eq!(crate::wal::list_snapshots(&dir).unwrap().len(), 1);
        assert_eq!(crate::wal::list_segments(&dir).unwrap().len(), 1);
        // Appends continue into the fresh segment and recover on top of
        // the checkpoint snapshot.
        let public = store.predicate("Public").unwrap();
        store.append_node("post", NodeKind::Data, Features::new(), public);
        let committed = store.to_bytes();
        drop(store);
        let (restored, report) = Store::open_reporting(&dir, Default::default()).unwrap();
        assert_eq!(restored.to_bytes(), committed);
        assert_eq!(
            report.snapshot.as_ref().unwrap().1,
            4,
            "recovered from checkpoint"
        );
        assert_eq!(
            report.records_replayed, 1,
            "only the post-checkpoint append"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_predicates_are_rejected_before_logging() {
        let dir = temp_dir("bad-pred");
        let store = durable_sample(&dir);
        let clock = store.clock();
        assert!(matches!(
            store.try_append_node("x", NodeKind::Data, Features::new(), PrivilegeId(9)),
            Err(StoreError::UnknownPredicate(9))
        ));
        assert!(matches!(
            store.apply_policy(PolicyStatement::MarkNode {
                node: RecordId(0),
                predicate: Some(PrivilegeId(7)),
                marking: Marking::Hide,
            }),
            Err(StoreError::UnknownPredicate(7))
        ));
        assert_eq!(store.clock(), clock, "nothing was appended or logged");
        // The log stays fully replayable: later appends survive reopen.
        let public = store.predicate("Public").unwrap();
        store.append_node("after", NodeKind::Data, Features::new(), public);
        let committed = store.to_bytes();
        drop(store);
        assert_eq!(Store::open(&dir).unwrap().to_bytes(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_open_never_modifies_the_directory() {
        let dir = temp_dir("read-only");
        let committed = {
            let store = durable_sample(&dir);
            store.to_bytes()
        };
        // Corrupt the tail so a repairing open *would* truncate.
        let (_, segment) = crate::wal::list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        std::fs::write(&segment, &bytes).unwrap();

        let before: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                let b = std::fs::read(&p).unwrap();
                (p, b)
            })
            .collect();
        let store = Store::open_read_only(&dir).unwrap();
        assert_eq!(store.to_bytes(), committed, "valid prefix recovered");
        assert!(!store.is_durable(), "no writer attached");
        for (path, bytes) in before {
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "read-only open modified {}",
                path.display()
            );
        }
        // A repairing open afterwards cleans the tail.
        let (_, report) = Store::open_reporting(&dir, Default::default()).unwrap();
        assert!(report.truncated.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_checkpoints_leave_a_clean_log() {
        // A checkpoint whose active segment already starts at the
        // checkpoint clock (e.g. two checkpoints back to back, or a
        // checkpoint right after open) must not re-open that segment and
        // corrupt it with a second header.
        let dir = temp_dir("repeat-checkpoint");
        let store = durable_sample(&dir);
        store.checkpoint().unwrap();
        store.checkpoint().unwrap();
        let public = store.predicate("Public").unwrap();
        store.append_node("post", NodeKind::Data, Features::new(), public);
        store.checkpoint().unwrap();
        let committed = store.to_bytes();
        drop(store);
        let (restored, report) = Store::open_reporting(&dir, Default::default()).unwrap();
        assert!(
            report.truncated.is_none(),
            "checkpointing corrupted the log: {report:?}"
        );
        assert_eq!(restored.to_bytes(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_requires_durability() {
        let (store, ..) = sample_store();
        assert!(matches!(store.checkpoint(), Err(StoreError::NotDurable)));
        assert!(!store.is_durable());
        assert!(store.durable_dir().is_none());
    }

    #[test]
    fn save_durable_seeds_an_openable_directory() {
        let dir = temp_dir("seed");
        let (store, ..) = sample_store();
        store.save_durable(&dir).unwrap();
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.to_bytes(), store.to_bytes());
        assert!(reopened.is_durable());
        // Seeding over an existing store is refused.
        assert!(matches!(
            store.save_durable(&dir),
            Err(StoreError::Io { path: Some(_), .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_of_an_uninitialized_directory_is_a_clean_error() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::NoSnapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_durable_refuses_an_occupied_directory() {
        let dir = temp_dir("occupied");
        drop(durable_sample(&dir));
        assert!(matches!(
            Store::create_durable(&dir, &["Public"], &[]),
            Err(StoreError::Io { path: Some(_), .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replays every frame of `src`'s WAL into `dst` through the
    /// replica apply path.
    fn replicate_frames(src_dir: &Path, dst: &Store) {
        let clock = {
            let src = Store::open_read_only(src_dir).unwrap();
            src.clock()
        };
        let mut next = dst.clock();
        while next < clock {
            let chunk = crate::wal::read_frames(src_dir, next, clock, 4 << 10)
                .unwrap()
                .expect("history retained");
            let mut pos = 0;
            while pos < chunk.frames.len() {
                let codec::FrameDecode::Complete { record, consumed } =
                    codec::decode_frame(&chunk.frames[pos..])
                else {
                    panic!("shipped frames are whole")
                };
                dst.apply_replicated(record, 0).unwrap();
                pos += consumed;
            }
            next = chunk.end_clock;
        }
    }

    #[test]
    fn apply_replicated_reproduces_the_primary_byte_for_byte() {
        let primary_dir = temp_dir("replicate-src");
        let replica_dir = temp_dir("replicate-dst");
        let primary = durable_sample(&primary_dir);
        let replica = Store::create_durable_with(
            &replica_dir,
            &["Public", "High"],
            &[(1, 0)],
            crate::wal::DurabilityOptions {
                fsync: false,
                ..Default::default()
            },
        )
        .unwrap();
        replicate_frames(&primary_dir, &replica);
        assert_eq!(replica.to_bytes(), primary.to_bytes());
        // The replica logged every applied record to its own WAL: it
        // recovers to the same state without the primary.
        drop(replica);
        let reopened = Store::open(&replica_dir).unwrap();
        assert_eq!(reopened.to_bytes(), primary.to_bytes());
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }

    #[test]
    fn apply_replicated_rejects_out_of_order_records() {
        let (store, ..) = sample_store();
        let clock = store.clock();
        let stale = NodeRecord {
            label: "stale".into(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: PrivilegeId(0),
            created_at: clock + 5,
        };
        assert!(matches!(
            store.apply_replicated(WalRecord::AppendNode(stale), 0),
            Err(StoreError::ReplicationGap { expected, found })
                if expected == clock && found == clock + 5
        ));
        assert_eq!(store.clock(), clock, "nothing applied");
    }

    #[test]
    fn deposed_terms_are_refused_and_higher_terms_persist() {
        let dir = temp_dir("fencing");
        let store = durable_sample(&dir);
        assert_eq!(store.replication_term(), 0, "fresh store starts at 0");

        // A record from a correctly-clocked but deposed sender is
        // refused before the clock is even looked at.
        store.observe_replication_term(3).unwrap();
        let clock = store.clock();
        let record = NodeRecord {
            label: "forked".into(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: PrivilegeId(0),
            created_at: clock,
        };
        assert!(matches!(
            store.apply_replicated(WalRecord::AppendNode(record.clone()), 2),
            Err(StoreError::DeposedPrimary {
                term: 2,
                current: 3
            })
        ));
        assert_eq!(store.clock(), clock, "nothing applied");
        // Equal and higher terms pass through to the ordinary apply path.
        store
            .apply_replicated(WalRecord::AppendNode(record), 5)
            .unwrap();
        assert_eq!(store.clock(), clock + 1);
        assert_eq!(store.replication_term(), 5);

        // The observed term survives a reopen (durably recorded), and a
        // promotion bumps past it.
        drop(store);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.replication_term(), 5);
        assert_eq!(reopened.promote_term().unwrap(), 6);
        drop(reopened);
        assert_eq!(Store::open(&dir).unwrap().replication_term(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_snapshot_fast_forwards_and_stays_durable() {
        let primary_dir = temp_dir("install-src");
        let replica_dir = temp_dir("install-dst");
        let primary = durable_sample(&primary_dir);
        let snapshot = primary.to_bytes();
        let replica = Store::create_durable_with(
            &replica_dir,
            &["Public", "High"],
            &[(1, 0)],
            crate::wal::DurabilityOptions {
                fsync: false,
                ..Default::default()
            },
        )
        .unwrap();
        let installed = replica.install_snapshot(&snapshot).unwrap();
        assert_eq!(installed, primary.clock());
        assert_eq!(replica.to_bytes(), snapshot);
        assert!(replica.is_durable(), "writer reattached at the new clock");

        // Replication continues on top of the installed snapshot…
        let public = primary.predicate("Public").unwrap();
        primary.append_node("post", NodeKind::Data, Features::new(), public);
        replicate_frames(&primary_dir, &replica);
        assert_eq!(replica.to_bytes(), primary.to_bytes());

        // …and the directory recovers to the fast-forwarded state.
        drop(replica);
        let reopened = Store::open(&replica_dir).unwrap();
        assert_eq!(reopened.to_bytes(), primary.to_bytes());

        // A snapshot at or behind the local clock is a no-op.
        let clock = reopened.clock();
        assert_eq!(reopened.install_snapshot(&snapshot).unwrap(), clock);
        assert_eq!(reopened.to_bytes(), primary.to_bytes());
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }

    /// Counts what a store asks of its injected I/O.
    #[derive(Debug, Default)]
    struct Counts {
        opens: AtomicUsize,
        appends: AtomicUsize,
        syncs: AtomicUsize,
    }

    #[derive(Debug)]
    struct CountingIo(Arc<Counts>);

    #[derive(Debug)]
    struct CountingFile(Arc<Counts>, Box<dyn wal::WalFile>);

    impl WalIo for CountingIo {
        fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn wal::WalFile>> {
            self.0.opens.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(CountingFile(
                self.0.clone(),
                wal::DiskIo.open_segment(path)?,
            )))
        }
    }

    impl wal::WalFile for CountingFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.appends.fetch_add(1, Ordering::SeqCst);
            self.1.append(bytes)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.0.syncs.fetch_add(1, Ordering::SeqCst);
            self.1.sync()
        }
    }

    /// A fast-forward keeps the store's injected I/O: the segment it
    /// opens, its header, and every later append and flush go through
    /// it. Mutation caught: `install_snapshot` reopening the log with a
    /// plain `DiskIo` (the counts stop moving).
    #[test]
    fn install_snapshot_keeps_the_injected_io() {
        let primary_dir = temp_dir("install-io-src");
        let replica_dir = temp_dir("install-io-dst");
        let snapshot = durable_sample(&primary_dir).to_bytes();
        let counts = Arc::new(Counts::default());
        let replica = Store::create_durable_with_io(
            &replica_dir,
            &["Public", "High"],
            &[(1, 0)],
            DurabilityOptions::default(),
            Box::new(CountingIo(counts.clone())),
        )
        .unwrap();
        let seen = |counts: &Counts| {
            [&counts.opens, &counts.appends, &counts.syncs].map(|n| n.load(Ordering::SeqCst))
        };
        let before = seen(&counts);
        replica.install_snapshot(&snapshot).unwrap();
        let installed = seen(&counts);
        assert_eq!(
            [
                installed[0] - before[0],
                installed[1] - before[1],
                installed[2] - before[2]
            ],
            [2, 1, 1],
            "the new segment's two handles, its header and its flush"
        );
        let public = replica.predicate("Public").unwrap();
        replica.append_node("after", NodeKind::Data, Features::new(), public);
        let written = seen(&counts);
        assert_eq!(
            [written[1] - installed[1], written[2] - installed[2]],
            [1, 1],
            "the write's frame and its flush"
        );
        drop(replica);
        assert_eq!(Store::open(&replica_dir).unwrap().clock(), 5);
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }

    #[test]
    fn install_snapshot_requires_durability() {
        let (in_memory, ..) = sample_store();
        let (other, ..) = sample_store();
        assert!(matches!(
            in_memory.install_snapshot(&other.to_bytes()),
            Err(StoreError::NotDurable)
        ));
    }

    /// Mutations caught: dropping `self.watch.notify()` from any append
    /// path or from `install_snapshot` (no wake arrives), and dropping
    /// the watcher-count guard in `notify` (the quiet appends would
    /// count).
    #[test]
    fn every_clock_bump_wakes_a_watcher_and_quiet_appends_notify_nobody() {
        let dir = temp_dir("watch-install");
        let store = Arc::new(durable_sample(&dir));
        let public = store.predicate("Public").unwrap();
        let quiet = |s: &Store| {
            s.append_node("quiet", NodeKind::Data, Features::new(), public);
        };
        quiet(&store);
        assert_eq!(store.watch.notifies.load(Ordering::Relaxed), 0);

        type Bump = Box<dyn Fn(&Store)>;
        let snapshot = {
            let ahead = Store::from_bytes(&store.to_bytes()).unwrap();
            for i in 0..8 {
                ahead.append_node(
                    format!("ahead-{i}"),
                    NodeKind::Data,
                    Features::new(),
                    public,
                );
            }
            ahead.to_bytes()
        };
        let bumps: [(&str, Bump); 4] = [
            (
                "append_node",
                Box::new(move |s| {
                    s.append_node("n", NodeKind::Data, Features::new(), public);
                }),
            ),
            (
                "append_edge",
                Box::new(|s| {
                    s.append_edge(RecordId(0), RecordId(2), EdgeKind::Related)
                        .unwrap()
                }),
            ),
            (
                "apply_policy",
                Box::new(|s| {
                    s.apply_policy(PolicyStatement::MarkNode {
                        node: RecordId(0),
                        predicate: None,
                        marking: Marking::Hide,
                    })
                    .unwrap()
                }),
            ),
            (
                "install_snapshot",
                Box::new(move |s| {
                    s.install_snapshot(&snapshot).unwrap();
                }),
            ),
        ];
        let (woke, wakes) = std::sync::mpsc::channel();
        let wake: ClockWake = Arc::new(move || woke.send(()).unwrap());
        store.watch_clock(wake.clone());
        for (round, (name, bump)) in bumps.iter().enumerate() {
            let seen = store.clock();
            bump(&store);
            assert!(store.clock() > seen, "{name}");
            assert!(
                wakes.try_recv().is_ok(),
                "{name}: the bump woke the watcher"
            );
            assert!(wakes.try_recv().is_err(), "{name}: exactly once");
            assert_eq!(
                store.watch.notifies.load(Ordering::Relaxed),
                round + 1,
                "{name}: one notify per bump with a watcher registered"
            );
        }
        store.unwatch_clock(&wake);
        quiet(&store);
        assert!(wakes.try_recv().is_err(), "an unwatched wake never runs");
        assert_eq!(
            store.watch.notifies.load(Ordering::Relaxed),
            bumps.len(),
            "an append with nobody registered notifies nobody"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The no-lost-wake-up argument on `ClockWatch`, under load: every
    /// append lands while the watcher is somewhere between "acknowledged
    /// the last one" and "asleep for the next". The watcher does what an
    /// event loop does: register, re-read the clock, and sleep only if
    /// it has not moved. Mutation caught: an append that notifies before
    /// it takes the store's write lock (the watcher re-reads the old
    /// clock, sleeps, and the round waits out its timeout).
    #[test]
    fn watch_stress_never_loses_a_wake() {
        const ROUNDS: u64 = 100_000;
        let store = Arc::new(Store::public_only());
        let public = store.predicate("Public").unwrap();
        let acked = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let waiter = {
            let (store, acked) = (store.clone(), acked.clone());
            std::thread::spawn(move || {
                let me = std::thread::current();
                let wake: ClockWake = Arc::new(move || me.unpark());
                for seen in 0..ROUNDS {
                    let began = std::time::Instant::now();
                    store.watch_clock(wake.clone());
                    while store.clock() == seen {
                        std::thread::park_timeout(std::time::Duration::from_secs(10));
                    }
                    store.unwatch_clock(&wake);
                    // A lost wake still ends in the right clock: late.
                    let waited = began.elapsed();
                    assert!(
                        waited < std::time::Duration::from_secs(5),
                        "round {seen}: {waited:?}"
                    );
                    assert_eq!(store.clock(), seen + 1);
                    acked.store(seen + 1, Ordering::SeqCst);
                }
            })
        };
        for round in 0..ROUNDS {
            // Even rounds race the watcher's registration, odd rounds the
            // clock read and sleep that follow it.
            while !waiter.is_finished()
                && (acked.load(Ordering::SeqCst) < round
                    || (round % 2 == 1 && store.watch.watchers.load(Ordering::SeqCst) == 0))
            {
                std::hint::spin_loop();
            }
            store.append_node("n", NodeKind::Data, Features::new(), public);
        }
        waiter.join().expect("no round waited out a lost wake");
    }

    #[test]
    fn concurrent_appends_are_safe() {
        let store = Arc::new(Store::public_only());
        let public = store.predicate("Public").unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.append_node(
                        format!("n-{t}-{i}"),
                        NodeKind::Data,
                        Features::new(),
                        public,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.node_count(), 400);
        assert_eq!(store.clock(), 400);
    }

    #[test]
    fn partitioned_store_assigns_global_ids() {
        let p = Partition::new(1, 3).unwrap();
        let store = Store::new_partitioned(&["Public"], &[], p).unwrap();
        let public = store.predicate("Public").unwrap();
        let a = store.append_node("a", NodeKind::Data, Features::new(), public);
        let b = store.append_node("b", NodeKind::Data, Features::new(), public);
        assert_eq!(a, RecordId(1));
        assert_eq!(b, RecordId(4));
        assert_eq!(store.partition(), Some(p));
        assert_eq!(store.node(a).unwrap().label, "a");
        assert_eq!(store.node(RecordId(0)), None, "foreign id");
        assert_eq!(store.node(RecordId(7)), None, "owned but unassigned");
    }

    #[test]
    fn partitioned_store_routes_writes_by_ownership() {
        let p = Partition::new(0, 2).unwrap();
        let store = Store::new_partitioned(&["Public"], &[], p).unwrap();
        let public = store.predicate("Public").unwrap();
        let a = store.append_node("a", NodeKind::Data, Features::new(), public); // global 0
                                                                                 // Edge from an owned node to a foreign id is accepted.
        store
            .append_edge(a, RecordId(1), EdgeKind::Related)
            .unwrap();
        // Edge *from* a foreign id is a misrouted write.
        assert!(matches!(
            store.append_edge(RecordId(1), a, EdgeKind::Related),
            Err(StoreError::WrongShard {
                id: RecordId(1),
                owner: 1
            })
        ));
        // Policy targeting a foreign node is misrouted too…
        assert!(matches!(
            store.apply_policy(PolicyStatement::MarkNode {
                node: RecordId(3),
                predicate: None,
                marking: Marking::Hide,
            }),
            Err(StoreError::WrongShard {
                id: RecordId(3),
                owner: 1
            })
        ));
        // …while an owned-but-unassigned target is simply unknown.
        assert!(matches!(
            store.apply_policy(PolicyStatement::MarkNode {
                node: RecordId(4),
                predicate: None,
                marking: Marking::Hide,
            }),
            Err(StoreError::UnknownRecord(RecordId(4)))
        ));
    }

    #[test]
    fn partitioned_store_roundtrips_and_materializes_globally() {
        let p = Partition::new(1, 2).unwrap();
        let store = Store::new_partitioned(&["Public"], &[], p).unwrap();
        let public = store.predicate("Public").unwrap();
        let a = store.append_node("odd-0", NodeKind::Data, Features::new(), public); // 1
        let b = store.append_node("odd-1", NodeKind::Data, Features::new(), public); // 3
        store.append_edge(a, b, EdgeKind::Related).unwrap();
        store
            .append_edge(b, RecordId(0), EdgeKind::Related)
            .unwrap();

        let restored = Store::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(restored.partition(), Some(p));
        assert_eq!(restored.to_bytes(), store.to_bytes());

        let m = store.materialize();
        // Global ids 0..4: placeholders at 0 and 2, records at 1 and 3.
        assert_eq!(m.graph.node_count(), 4);
        assert_eq!(m.graph.node(NodeId(1)).label, "odd-0");
        assert_eq!(m.graph.node(NodeId(3)).label, "odd-1");
        assert_eq!(m.graph.node(NodeId(0)).label, "");
        assert!(m.graph.has_edge(NodeId(1), NodeId(3)));
        assert!(m.graph.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn partitioned_durable_store_recovers_its_partition() {
        let dir = temp_dir("partitioned");
        let p = Partition::new(0, 2).unwrap();
        let committed = {
            let store = Store::create_durable_partitioned(
                &dir,
                &["Public"],
                &[],
                crate::wal::DurabilityOptions {
                    fsync: false,
                    ..Default::default()
                },
                p,
            )
            .unwrap();
            let public = store.predicate("Public").unwrap();
            let a = store.append_node("even", NodeKind::Data, Features::new(), public);
            assert_eq!(a, RecordId(0));
            store
                .append_edge(a, RecordId(1), EdgeKind::Related)
                .unwrap();
            store.to_bytes()
        };
        let restored = Store::open(&dir).unwrap();
        assert_eq!(restored.partition(), Some(p));
        assert_eq!(restored.to_bytes(), committed);
        // Checkpoint keeps the partition in the folded snapshot.
        restored.checkpoint().unwrap();
        drop(restored);
        let again = Store::open(&dir).unwrap();
        assert_eq!(again.partition(), Some(p));
        assert_eq!(again.to_bytes(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
