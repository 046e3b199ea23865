//! The gather node of a sharded deployment: scatter-gather over the
//! shard primaries' replication feeds.
//!
//! # How a gather works
//!
//! A [`Gather`] follows every shard primary of a partitioned deployment
//! the way a [`Replica`](crate::Replica) follows its primary — with the
//! same feed follower: one background feed thread per shard dials the
//! shard's server, performs the Hello handshake, and subscribes to its
//! write-ahead-log stream from the merge's per-shard clock. Chunks are
//! folded into a shared
//! [`ShardMerge`](plus_store::ShardMerge) — cold feeds bootstrap from
//! the shard's snapshot (which carries its partition stamp, verified on
//! ingest), warm feeds replay sealed frames — and the merged record
//! sets materialize into one **order-canonical** global graph served by
//! an ordinary [`AccountService`] (bind it with
//! [`Role::Gather`](crate::Role::Gather)).
//!
//! Because each shard feed is an ordinary replication subscription, the
//! shard servers must run with replication enabled
//! (`--allow-replication`, or `--shard`, which implies it), and the
//! gather belongs inside the owner's trust domain: the feeds carry raw
//! records. Consumers talk to the gather's *query* socket, which serves
//! only protected views, exactly like any other server.
//!
//! # Partial results are refused, never silent
//!
//! Every query response from a gather carries the full per-shard epoch
//! vector it was computed at. While any feed is down — or behind the
//! slot's served high-water mark after a repair — the fronting server
//! refuses cross-shard queries with the typed
//! [`WireErrorKind::ShardUnavailable`](plus_store::WireErrorKind) —
//! a traversal with a shard's records missing would return a silently
//! truncated answer, indistinguishable from a true one. Clients retry
//! or fall back; they never get a gap dressed up as an answer.
//!
//! # Surviving a shard-primary failover
//!
//! Started from a [`Topology`] that names replicas
//! ([`Gather::start_topology`]), each feed **re-resolves its shard's
//! writable primary** with the walk
//! [`ClientPool::writable`](crate::ClientPool::writable) shares: dial the
//! candidates (last good address, configured primary, then replicas),
//! ask each for its replication status, follow primary-address
//! breadcrumbs, and subscribe only to a node that identifies as
//! primary. The first re-resolve after a stream that made progress (or
//! after a failover repair) is immediate; while resolutions keep failing
//! they back off 1ms doubling up to [`GatherConfig::reconnect_backoff`].
//!
//! Promotion is **fenced** per shard. Each feed tracks the highest
//! fencing term it has folded a chunk under:
//!
//! * a candidate or chunk carrying a *lower* term is a deposed primary
//!   still claiming the role — refused, never folded;
//! * a *higher* term means the shard failed over. The clocks of the old
//!   stream and the new one are not comparable (an unreplicated tail
//!   may have been truncated), so the feed **resets its merge slot**
//!   and re-bootstraps from the new primary's snapshot — the
//!   gather-side analogue of a rejoining replica's anti-entropy repair.
//!
//! A reset rewinds the slot's merge clock, but never what the gather
//! *serves*: the gather keeps a per-slot **epoch floor** (the
//! high-water mark of folded clocks), a repaired slot is not
//! [`ready`](Gather::ready) until it has caught back up to its floor,
//! and the merge's repair [`generation`](Gather::generation) lets the
//! fronting server refuse an answer that straddled a reset. Together:
//! the epoch vector a consumer observes **never regresses**.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use plus_store::codec;
use plus_store::{AccountService, MergedSource, StoreError, WalChunk};
use surrogate_core::shard::{EpochVector, ShardMap};

use crate::error::ReplicaError;
use crate::follower::{FeedFollower, FeedLink, FeedSink, Source};
use crate::topology::Topology;

/// Tuning knobs for [`Gather::start_topology`].
#[derive(Debug, Clone, Copy)]
pub struct GatherConfig {
    /// The longest wait between re-resolutions of a failed shard feed.
    /// The first one after a stream that made progress is immediate;
    /// consecutive failures then wait 1ms, 2ms, 4ms … up to this.
    pub reconnect_backoff: Duration,
    /// Read deadline on each feed socket (shard primaries heartbeat
    /// every 250ms; silence past this is treated as a dead link).
    pub feed_read_timeout: Duration,
}

impl Default for GatherConfig {
    fn default() -> Self {
        Self {
            reconnect_backoff: Duration::from_millis(100),
            feed_read_timeout: Duration::from_secs(1),
        }
    }
}

/// Per-slot feed state shared with the fronting server.
#[derive(Default)]
struct FeedState {
    /// What the slot's follower reports: link health, the shard's epoch
    /// as last observed from its chunks (what [`Gather::synced`] compares
    /// the merge clock against), and the address it last subscribed to —
    /// the slot's current writable primary as far as the gather knows,
    /// and what [`Gather::peer_of`] redirects to.
    link: Arc<FeedLink>,
    /// The highest fencing term folded for this slot, stored shifted by
    /// one (`0` = no chunk observed yet, `t + 1` = term `t`).
    term: AtomicU64,
}

/// A running gather: one feed thread per shard folding replication
/// streams into a merged [`AccountService`].
///
/// Dropping it (or calling [`shutdown`](Self::shutdown)) stops the feed
/// threads. The merge is in-memory only; a restarted gather re-ingests
/// each shard's bootstrap snapshot.
pub struct Gather {
    service: Arc<AccountService>,
    merged: Arc<MergedSource>,
    topology: Topology,
    peers: Vec<String>,
    feeds: Vec<Arc<FeedState>>,
    /// Per-slot served high-water marks: a slot whose merge clock is
    /// below its floor (mid-repair) is not ready.
    floors: Arc<Mutex<EpochVector>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Gather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gather")
            .field("peers", &self.peers)
            .field("clocks", &self.clocks())
            .field("synced", &self.synced())
            .finish()
    }
}

impl Gather {
    /// Starts a gather over a full [`Topology`]: each slot follows its
    /// shard's *current* primary, re-resolving through the replica set
    /// (and any breadcrumbs they leave) after a failover — see the
    /// [module docs](self).
    pub fn start_topology(
        topology: &Topology,
        config: GatherConfig,
    ) -> Result<Gather, ReplicaError> {
        let count = Some(topology.shard_count())
            .filter(|&n| n > 0 && n <= plus_store::MAX_SHARDS)
            .ok_or_else(|| {
                ReplicaError::protocol("a gather needs between 1 and MAX_SHARDS shards")
            })?;
        let map = ShardMap::new(count).expect("count checked nonzero");
        let merged = Arc::new(MergedSource::new(map));
        let service = Arc::new(AccountService::sharded(merged.clone()));
        let peers = topology.primaries();
        let feeds: Vec<Arc<FeedState>> =
            (0..count).map(|_| Arc::new(FeedState::default())).collect();
        let floors = Arc::new(Mutex::new(EpochVector::new(count)));
        let mut threads = Vec::with_capacity(peers.len());
        for slot in 0..count {
            let feed = feeds[slot as usize].clone();
            let follower = FeedFollower::new(
                SlotSink {
                    slot,
                    merged: merged.clone(),
                    feed: feed.clone(),
                    floors: floors.clone(),
                },
                Source::Writable(topology.candidates(slot)),
                feed.link.clone(),
                config.reconnect_backoff,
                config.feed_read_timeout,
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("spgraph-gather-{slot}"))
                    .spawn(move || follower.run())
                    .expect("spawn gather feed thread"),
            );
        }
        Ok(Gather {
            service,
            merged,
            topology: topology.clone(),
            peers,
            feeds,
            floors,
            threads,
        })
    }

    /// The serving layer over the merged graph — bind it with
    /// [`Role::Gather`](crate::Role::Gather), or query it in-process.
    /// Read-only: writes go to the shard primaries.
    pub fn service(&self) -> &Arc<AccountService> {
        &self.service
    }

    /// The shard primaries this gather was configured with, in shard
    /// order (the topology's view; a failed-over slot's *live* primary
    /// is what [`peer_of`](Self::peer_of) names).
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// The per-shard replica addresses the gather was configured with,
    /// in shard order — what its `Status` answers announce.
    pub fn replicas(&self) -> Vec<Vec<String>> {
        self.topology.replica_table()
    }

    /// The address of the shard that owns global id `id` — the redirect
    /// target for a write that landed here by mistake. After a
    /// failover this is the *promoted* primary the slot's feed last
    /// subscribed to, not the configured (dead) one.
    pub fn peer_of(&self, id: u32) -> String {
        let slot = self.merged.map().shard_of(id) as usize;
        self.feeds[slot]
            .link
            .addr()
            .unwrap_or_else(|| self.peers[slot].clone())
    }

    /// How many shards the keyspace is partitioned across.
    pub fn shard_count(&self) -> u32 {
        self.merged.map().count()
    }

    /// The per-shard merge clocks: how many of each shard's mutations
    /// the merged graph reflects.
    pub fn clocks(&self) -> Vec<u64> {
        self.merged.clocks()
    }

    /// The per-shard served floors: the high-water mark of folded
    /// clocks per slot. The serving layer never hands out an epoch
    /// vector below this, even across a failover repair.
    pub fn floors(&self) -> Vec<u64> {
        self.floors.lock().as_slice().to_vec()
    }

    /// The merge's repair generation: bumped every time a slot is reset
    /// for a failover re-bootstrap. The fronting server pins it across
    /// an answer and refuses the answer when it moved.
    pub fn generation(&self) -> u64 {
        self.merged.generation()
    }

    /// Whether the feed for `slot` is currently connected.
    pub fn connected(&self, slot: u32) -> bool {
        self.feeds
            .get(slot as usize)
            .is_some_and(|f| f.link.connected())
    }

    /// Whether `slot` is servable: its feed is connected **and** its
    /// merge clock has reached the slot's served floor (a mid-repair
    /// slot is connected but not yet ready).
    pub fn ready(&self, slot: u32) -> bool {
        let Some(feed) = self.feeds.get(slot as usize) else {
            return false;
        };
        feed.link.connected()
            && self.merged.clocks()[slot as usize] >= self.floors.lock().as_slice()[slot as usize]
    }

    /// The first unservable shard slot, if any — what the fronting
    /// server names in its [`ShardUnavailable`](plus_store::WireErrorKind)
    /// refusals.
    pub fn first_down(&self) -> Option<u32> {
        let clocks = self.merged.clocks();
        let floors = self.floors.lock();
        self.feeds
            .iter()
            .enumerate()
            .position(|(slot, feed)| {
                !feed.link.connected() || clocks[slot] < floors.as_slice()[slot]
            })
            .map(|slot| slot as u32)
    }

    /// Whether every feed is connected and the merge has caught up with
    /// each shard's last observed epoch and its served floor.
    pub fn synced(&self) -> bool {
        let clocks = self.merged.clocks();
        let floors = self.floors.lock();
        self.feeds.iter().enumerate().all(|(slot, feed)| {
            feed.link.connected()
                && clocks[slot] >= feed.link.peer_epoch()
                && clocks[slot] >= floors.as_slice()[slot]
        })
    }

    /// Waits until [`synced`](Self::synced) holds, or the deadline
    /// passes; returns whether it does.
    pub fn wait_synced(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.synced() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The last feed error recorded for `slot`, if any.
    pub fn last_error(&self, slot: u32) -> Option<String> {
        self.feeds
            .get(slot as usize)
            .and_then(|f| f.link.last_error())
    }

    /// The fencing term the feed for `slot` last folded a chunk under,
    /// if it has folded any.
    pub fn term(&self, slot: u32) -> Option<u64> {
        self.feeds
            .get(slot as usize)
            .map(|f| f.term.load(Ordering::Relaxed))
            .filter(|&t| t > 0)
            .map(|t| t - 1)
    }

    /// Stops the feed threads and disconnects. Equivalent to dropping
    /// the gather, but explicit.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        for feed in &self.feeds {
            feed.link.halt();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Gather {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// One slot's [`FeedSink`]: fence by term (resetting the slot on a term
/// bump — the failover repair), fold into the merge, raise the served
/// floor.
struct SlotSink {
    slot: u32,
    merged: Arc<MergedSource>,
    feed: Arc<FeedState>,
    floors: Arc<Mutex<EpochVector>>,
}

impl FeedSink for SlotSink {
    fn clock(&self) -> u64 {
        self.merged.clocks()[self.slot as usize]
    }

    fn admit(&mut self, addr: &str, term: u64) -> Result<(), ReplicaError> {
        match fence(self.slot, &self.merged, &self.feed, term) {
            Fence::Fold | Fence::Repaired => Ok(()),
            Fence::Deposed => Err(ReplicaError::Protocol(format!(
                "{addr}: deposed shard primary (stale fencing term {term})"
            ))),
            Fence::Failed(e) => Err(ReplicaError::Store(e)),
        }
    }

    fn fold(&mut self, addr: &str, chunk: WalChunk) -> Result<(), ReplicaError> {
        // In-stream fencing: a promotion can race the resolve-time
        // check (the chunk's term is authoritative — it is what the
        // primary durably stamped).
        match fence(self.slot, &self.merged, &self.feed, chunk.term) {
            Fence::Fold => {}
            Fence::Deposed => {
                return Err(ReplicaError::Protocol(format!(
                    "{addr}: chunk from deposed primary (stale fencing term {})",
                    chunk.term
                )));
            }
            // The chunk belongs to the new term's stream, which starts
            // at the reset clock — resubscribe rather than guess at
            // contiguity.
            Fence::Repaired => {
                return Err(ReplicaError::Protocol(format!(
                    "{addr}: shard failed over to term {}; re-bootstrapping",
                    chunk.term
                )));
            }
            Fence::Failed(e) => return Err(ReplicaError::Store(e)),
        }
        fold_chunk(self.slot, &self.merged, &chunk)?;
        // The floor only ever rises: it is the serving layer's
        // guarantee that a repair never rewinds what consumers see.
        self.floors.lock().raise_slot(self.slot, self.clock());
        Ok(())
    }
}

/// What the fencing check decided for an offered term.
enum Fence {
    /// Same term as every fold so far (or the first observed): fold.
    Fold,
    /// Lower term: the sender was deposed; do not fold, disconnect.
    Deposed,
    /// Higher term: the shard failed over. The slot has been reset and
    /// the new term adopted; re-bootstrap from the new primary.
    Repaired,
    /// The slot reset itself failed (merge poisoned or slot vanished).
    Failed(StoreError),
}

/// Applies the fencing rule for `offered` against the slot's recorded
/// term, resetting the merge slot on a term bump.
fn fence(slot: u32, merged: &MergedSource, feed: &FeedState, offered: u64) -> Fence {
    let observed = feed.term.load(Ordering::Relaxed);
    let shifted = offered + 1; // stored shifted: 0 = never observed
    if observed == 0 {
        feed.term.store(shifted, Ordering::Relaxed);
        return Fence::Fold;
    }
    if shifted < observed {
        return Fence::Deposed;
    }
    if shifted > observed {
        // The old stream's clocks and the new one's are incomparable
        // past the truncation point: drop the slot's records and
        // re-bootstrap from the new primary's snapshot (gather-side
        // anti-entropy). The merge generation bump invalidates every
        // cached answer computed over the old records.
        if let Err(e) = merged.reset_slot(slot) {
            return Fence::Failed(e);
        }
        feed.link.mark_down();
        feed.term.store(shifted, Ordering::Relaxed);
        return Fence::Repaired;
    }
    Fence::Fold
}

/// Folds one chunk into the merge: snapshot bootstrap (stamped for this
/// slot, verified by the merge), then frames.
fn fold_chunk(slot: u32, merged: &MergedSource, chunk: &WalChunk) -> Result<(), StoreError> {
    if let Some(snapshot) = &chunk.snapshot {
        let data = codec::decode(snapshot)?;
        merged.update(|m| m.ingest_snapshot(slot, &data))?;
    }
    merged.update(|m| m.apply_frames(slot, chunk.start_clock, &chunk.frames))
}
