//! The read-replica runtime: tails a primary's write-ahead log over the
//! wire and replays it into a local durable store.
//!
//! # How a replica works
//!
//! A [`Replica`] owns a durable [`Store`] directory of its own and a
//! background **apply thread**. The thread dials the primary, performs
//! the ordinary Hello handshake, and sends
//! [`Subscribe`](plus_store::wire::Request::Subscribe) with the
//! replica's local clock. From then on the connection is a one-way
//! stream of [`WalChunk`]s:
//!
//! * **Frames** are the primary's sealed WAL frames, byte-identical to
//!   its segment contents. Each decodes through the same checksummed
//!   frame codec recovery uses, and a chunk is applied through
//!   [`Store::apply_replicated_chunk`] — which logs each record to the
//!   replica's *own* write-ahead log before applying it, and flushes once
//!   per chunk, so the replica directory recovers by exactly the rules a
//!   primary's does.
//! * **Snapshots** arrive only when the replica must backfill: a cold
//!   start (clock 0), or a primary checkpoint that pruned the log past
//!   the replica's clock. [`Store::install_snapshot`] fast-forwards the
//!   store in place; the epoch stays monotone.
//! * **Heartbeats** (empty chunks) refresh the observed primary epoch,
//!   which is what makes [`Replica::lag`] meaningful while idle.
//!
//! The replica's [`AccountService`] serves the same query protocol as
//! the primary — bind it with [`Server::bind`](crate::Server::bind)
//! under [`Role::Replica`](crate::Role::Replica) — at a **coherent but
//! possibly lagging** epoch: every answer is a true answer for some
//! prefix of the primary's history, stamped with the epoch it was
//! computed at.
//!
//! # Failure model
//!
//! The apply thread re-dials on any transport failure — at once after a
//! stream that made progress, then backing off 1ms doubling up to
//! [`ReplicaConfig::reconnect_backoff`] while dials keep failing — and
//! resumes from the replica's local clock, so a primary restart (or a
//! replica restart — the local WAL recovers first) costs only the frames
//! appended while the link was down, never a full refetch. The feed
//! socket carries a read deadline of
//! [`ReplicaConfig::feed_read_timeout`]: the primary heartbeats several
//! times per second, so a silent link — a half-open TCP connection after
//! a primary power loss, a black-holing network — is detected within a
//! few heartbeat intervals and treated exactly like a disconnect instead
//! of parking the apply thread forever on a dead socket. A replica is
//! **read-only** by contract: the replication thread is the store's
//! single writer, and nothing else may append to it.
//!
//! # Failover
//!
//! Every chunk is stamped with the primary's **fencing term** (see the
//! [`wire`](plus_store::wire) docs). [`Replica::promote`] bumps the
//! local store's durable term and flips the monitor's role to
//! [`ReplicaRole::Primary`]: the apply thread exits, the fronting server
//! starts accepting writes, and any chunk still arriving from the old
//! primary is refused by the store with
//! [`StoreError::DeposedPrimary`] — the term is bumped *first*, so the
//! deposed primary cannot extend (and thereby fork) the promoted
//! history, not even with an in-flight frame.
//!
//! On a **warm start**, before local recovery runs, the replica performs
//! an **anti-entropy pass** against the primary: it fetches the
//! primary's per-segment digests
//! ([`LogDigests`](plus_store::wire::Request::LogDigests)), compares
//! them with its own, and truncates its local history from the first
//! divergent segment. This is how a deposed primary rejoins the cluster:
//! restarted with `--replicate-from` pointed at the new primary, it
//! discovers its unreplicated tail was never part of the promoted
//! history, discards it, and resumes as an ordinary replica instead of
//! serving a fork. The pass is best-effort — an unreachable primary
//! degrades to the plain warm start, and the per-frame fencing above
//! still guarantees no forked frame is ever *applied*.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plus_store::codec::{self, FrameDecode};
use plus_store::wal;
use plus_store::wire::{ReplicaRole, ReplicaStatus, WalChunk};
use plus_store::{AccountService, DurabilityOptions, SegmentDigest, Store, StoreError};

use crate::client::Client;
use crate::error::ReplicaError;
use crate::follower::{FeedFollower, FeedLink, FeedSink, Source};

/// Tuning knobs for [`Replica::start_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicaConfig {
    /// Durability options for the replica's own store directory.
    /// Defaults to the safe [`DurabilityOptions::default`] (fsync on);
    /// replicas that can afford to re-stream on power loss may turn
    /// fsync off for apply throughput.
    pub durability: DurabilityOptions,
    /// Dial attempts during a **cold start** (the replica has no local
    /// state and cannot serve anything until the primary answers), on
    /// the same ramp as every later reconnect.
    pub connect_attempts: usize,
    /// The longest wait between reconnect attempts. The first re-dial
    /// after a stream that made progress is immediate; consecutive
    /// failures then wait 1ms, 2ms, 4ms … up to this.
    pub reconnect_backoff: Duration,
    /// Read deadline on the feed socket. The primary heartbeats every
    /// 250ms, so the default (1s) tolerates a few lost beats; a socket
    /// silent for longer is treated as a dead link and reconnected, even
    /// if TCP still believes it is established (half-open peer).
    pub feed_read_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            durability: DurabilityOptions::default(),
            connect_attempts: 50,
            reconnect_backoff: Duration::from_millis(100),
            feed_read_timeout: Duration::from_secs(1),
        }
    }
}

/// Link state shared between a [`Replica`]'s apply thread and the
/// [`Server`](crate::Server) fronting it (which answers
/// `Request::Status` from it — and, after a promotion, gates
/// writes on the role recorded here).
#[derive(Debug, Default)]
pub struct ReplicationMonitor {
    /// What the apply thread's follower reports: link health, the
    /// primary's epoch, and the primary address this replica follows —
    /// the re-resolution hint write clients read out of `Status`
    /// after a failover.
    link: Arc<FeedLink>,
    /// The fencing term as last observed from the feed (or set by a
    /// promotion) — mirrored here so status answers need not lock the
    /// store.
    term: AtomicU64,
    /// Raised by [`Replica::promote`]; never lowered. The apply thread
    /// is halted with it, and `status` reports `Primary`.
    promoted: AtomicBool,
}

impl ReplicationMonitor {
    /// The status this monitor describes, for a replica at `local_epoch`.
    pub fn status(&self, local_epoch: u64) -> ReplicaStatus {
        let promoted = self.promoted.load(Ordering::Relaxed);
        ReplicaStatus {
            role: if promoted {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Replica
            },
            local_epoch,
            // A promoted node *is* the primary: its own epoch is the
            // primary epoch, whatever the stale feed last reported.
            primary_epoch: if promoted {
                local_epoch
            } else {
                self.link.peer_epoch()
            },
            term: self.term.load(Ordering::Relaxed),
            connected: promoted || self.link.connected(),
            last_error: if promoted {
                None
            } else {
                self.link.last_error()
            },
            // A promoted node no longer follows anyone; the address it
            // would report is the deposed primary's.
            primary_addr: if promoted { None } else { self.link.addr() },
        }
    }

    /// The role this node currently plays: `Replica` until a promotion
    /// flips it to `Primary`.
    pub fn role(&self) -> ReplicaRole {
        if self.promoted.load(Ordering::Relaxed) {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Replica
        }
    }

    /// Whether [`Replica::promote`] has run.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Relaxed)
    }

    /// The fencing term as last observed (or set by a promotion).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Relaxed)
    }

    /// Promotes the node this monitor describes: bumps `store`'s durable
    /// fencing term, then flips the monitor to `Primary` and hangs up
    /// the feed. The store-first order is what fences the deposed
    /// primary — see [`Replica::promote`], which delegates here; a
    /// fronting server answering `Request::Promote` uses this directly.
    pub fn promote(&self, store: &Store) -> Result<u64, StoreError> {
        let term = store.promote_term()?;
        self.note_promoted(term);
        Ok(term)
    }

    fn note_promoted(&self, term: u64) {
        self.term.store(term, Ordering::Relaxed);
        self.promoted.store(true, Ordering::Relaxed);
        self.link.halt();
    }
}

/// A running read replica: a local durable store kept in sync with a
/// primary by WAL shipping, plus the [`AccountService`] serving it.
///
/// See the [module docs](self) for the replication model. Dropping the
/// replica (or calling [`shutdown`](Self::shutdown)) stops the apply
/// thread; the local directory remains and a later
/// [`Replica::start`] resumes from its recovered clock.
pub struct Replica {
    service: Arc<AccountService>,
    store: Arc<Store>,
    monitor: Arc<ReplicationMonitor>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("epoch", &self.epoch())
            .field("status", &self.status())
            .finish()
    }
}

impl Replica {
    /// Starts a replica of the primary at `primary_addr`, keeping its
    /// durable store in `dir` with default [`ReplicaConfig`].
    ///
    /// A fresh `dir` **cold-starts**: the call blocks until the primary
    /// ships its bootstrap snapshot (so the returned replica can serve
    /// immediately), failing after
    /// [`ReplicaConfig::connect_attempts`] dials. A `dir` holding a
    /// previous replica's store **warm-starts**: an anti-entropy pass
    /// truncates any history that diverged from the primary's (see the
    /// [module docs](self#failover)), local recovery runs, the call
    /// returns at the recovered epoch, and catch-up streams in the
    /// background from the local clock.
    pub fn start(
        primary_addr: impl Into<String>,
        dir: impl AsRef<Path>,
    ) -> Result<Replica, ReplicaError> {
        Self::start_with(primary_addr, dir, ReplicaConfig::default())
    }

    /// [`start`](Self::start) with explicit tuning.
    pub fn start_with(
        primary_addr: impl Into<String>,
        dir: impl AsRef<Path>,
        config: ReplicaConfig,
    ) -> Result<Replica, ReplicaError> {
        let primary_addr = primary_addr.into();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ReplicaError::Store(StoreError::io_at(&dir, e)))?;
        let monitor = Arc::new(ReplicationMonitor {
            link: Arc::new(FeedLink::to(primary_addr.clone())),
            ..ReplicationMonitor::default()
        });

        let mut has_local_state = !wal::list_snapshots(&dir)
            .map_err(ReplicaError::Store)?
            .is_empty();
        if has_local_state {
            // Anti-entropy before recovery: if this directory's history
            // diverged from the primary's (a deposed primary rejoining),
            // truncate the fork *before* the store recovers it into
            // servable state. Best-effort — an unreachable primary just
            // means the plain warm start below.
            match repair_divergence(&primary_addr, &dir, &config) {
                Ok(Repair::Clean) | Ok(Repair::Truncated) => {}
                Ok(Repair::Wiped) => has_local_state = false,
                Err(e) => monitor.link.record_error(&e),
            }
        }
        let local = if has_local_state {
            // Warm start: the local WAL is the source of truth up to its
            // recovered clock; the primary only supplies what follows.
            let store = Store::open_with(&dir, config.durability).map_err(ReplicaError::Store)?;
            monitor
                .term
                .store(store.replication_term(), Ordering::Relaxed);
            Some(Arc::new(store))
        } else {
            None
        };
        let cold = local.is_none();
        let mut follower = FeedFollower::new(
            StoreSink {
                store: local,
                dir,
                durability: config.durability,
                monitor: monitor.clone(),
            },
            Source::Fixed(primary_addr),
            monitor.link.clone(),
            config.reconnect_backoff,
            config.feed_read_timeout,
        );
        if cold {
            // Cold start: nothing local — block until the primary ships
            // the bootstrap snapshot, so the caller gets a servable
            // replica or a clear error. The apply thread continues on
            // the same stream.
            follower.establish(config.connect_attempts)?;
        }
        let store = follower
            .sink()
            .store
            .clone()
            .expect("warm, or just bootstrapped");
        let service = Arc::new(AccountService::new(store.clone()));
        let thread = std::thread::Builder::new()
            .name("spgraph-replica".into())
            .spawn(move || follower.run())
            .expect("spawn replica apply thread");

        Ok(Replica {
            service,
            store,
            monitor,
            thread: Some(thread),
        })
    }

    /// The serving layer over the replica's store — bind it with
    /// [`Server::bind`](crate::Server::bind) under
    /// [`Role::Replica`](crate::Role::Replica), or query it in-process. Read-only by contract: do not append through it.
    pub fn service(&self) -> &Arc<AccountService> {
        &self.service
    }

    /// The replica's local store. Owner-side introspection (state
    /// comparison, checkpointing the replica's own log); never mutate
    /// it — the apply thread is the single writer, until
    /// [`promote`](Self::promote) retires it.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The link monitor, shared with a fronting server.
    pub fn monitor(&self) -> Arc<ReplicationMonitor> {
        self.monitor.clone()
    }

    /// The replica's local epoch (its store clock).
    pub fn epoch(&self) -> u64 {
        self.store.version()
    }

    /// `primary_epoch - local_epoch` as last observed: how many
    /// mutations behind the primary this replica is. A stale lower
    /// bound while disconnected.
    pub fn lag(&self) -> u64 {
        self.status().lag()
    }

    /// The replica's full status.
    pub fn status(&self) -> ReplicaStatus {
        self.monitor.status(self.epoch())
    }

    /// Promotes this replica to primary, returning the new fencing term.
    ///
    /// Ordered for safety: the store's durable term is bumped *first*,
    /// so from the instant this can return, any frame still arriving
    /// from the deposed primary is refused with
    /// [`StoreError::DeposedPrimary`] — then the monitor's role flips
    /// (a fronting server starts accepting writes and feeding
    /// subscribers) and the feed socket is hung up so the apply thread
    /// exits. The store becomes an ordinary writable primary store; the
    /// deposed primary must rejoin *as a replica* — its next warm start
    /// against this node truncates its unreplicated tail.
    ///
    /// Idempotent in effect but not in term: promoting twice bumps the
    /// term twice, which is safe (terms only fence, never address).
    ///
    /// ```no_run
    /// use server::Replica;
    ///
    /// let replica = Replica::start("127.0.0.1:7655", "/var/lib/spgraph/replica")?;
    /// // ... the primary dies; the operator chooses this replica ...
    /// let term = replica.promote()?;
    /// assert!(term >= 1, "the fencing term is durably bumped");
    /// // The fronting server now accepts writes; repoint the fleet here.
    /// # Ok::<(), server::ReplicaError>(())
    /// ```
    pub fn promote(&self) -> Result<u64, ReplicaError> {
        self.monitor
            .promote(&self.store)
            .map_err(ReplicaError::Store)
    }

    /// Waits until the replica is connected with zero observed lag, or
    /// the deadline passes. Returns whether it caught up — `false`, not
    /// a hang, against a primary that stopped talking (the feed's read
    /// deadline flips `connected` off within
    /// [`ReplicaConfig::feed_read_timeout`]).
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status();
            if status.connected && status.lag() == 0 && status.primary_epoch >= self.epoch() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the apply thread and disconnects. Equivalent to dropping
    /// the replica, but explicit.
    pub fn shutdown(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.monitor.link.halt();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// What the warm-start anti-entropy pass did to the local directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// Local history is consistent with the primary's — nothing to do.
    Clean,
    /// A divergent suffix was truncated; warm start resumes from what
    /// remains, and the feed re-ships the rest.
    Truncated,
    /// The divergence predates every local snapshot, so nothing local
    /// could anchor recovery — the directory was emptied and the caller
    /// must cold-start from the primary's bootstrap snapshot.
    Wiped,
}

/// The warm-start anti-entropy pass: compare local segment digests with
/// the primary's and discard any divergent suffix. See the [module
/// docs](self#failover).
fn repair_divergence(
    addr: &str,
    dir: &Path,
    config: &ReplicaConfig,
) -> Result<Repair, ReplicaError> {
    let (primary_term, primary) = Client::dial(addr, config.feed_read_timeout)?.log_digests()?;
    let local = wal::segment_digests(dir).map_err(ReplicaError::Store)?;
    let local_term = wal::read_term(dir).map_err(ReplicaError::Store)?;
    // A primary at a higher term means a promotion this directory may
    // have missed — its tail may be a fork, so comparison is strict:
    // any segment that is not byte-identical is suspect. At an equal
    // term no fork is possible (single writer), so a shorter local
    // segment is just ordinary lag and survives.
    let strict = primary_term > local_term;
    let Some(cutoff) = divergence_point(&primary, &local, strict) else {
        return Ok(Repair::Clean);
    };
    let snapshots = wal::list_snapshots(dir).map_err(ReplicaError::Store)?;
    if snapshots.iter().any(|(clock, _)| *clock <= cutoff) {
        wal::truncate_history_from(dir, cutoff).map_err(ReplicaError::Store)?;
        Ok(Repair::Truncated)
    } else {
        // Every local snapshot postdates the divergence: recovery has
        // nothing trustworthy to start from. Empty the directory (term
        // file included — the bootstrap chunk re-establishes it) and
        // cold-start.
        for (_, path) in snapshots {
            std::fs::remove_file(&path)
                .map_err(|e| ReplicaError::Store(StoreError::io_at(&path, e)))?;
        }
        for (_, path) in wal::list_segments(dir).map_err(ReplicaError::Store)? {
            std::fs::remove_file(&path)
                .map_err(|e| ReplicaError::Store(StoreError::io_at(&path, e)))?;
        }
        let term_file = wal::term_path(dir);
        if let Err(e) = std::fs::remove_file(&term_file) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(ReplicaError::Store(StoreError::io_at(&term_file, e)));
            }
        }
        Ok(Repair::Wiped)
    }
}

/// The first local segment start clock from which history must be
/// discarded, or `None` when local history is consistent with the
/// primary's.
///
/// Segments are compared by `(start_clock, bytes, crc)` identity. Local
/// segments older than the primary's oldest digest were pruned by a
/// primary checkpoint and cannot be verified — they are assumed good
/// (the fencing term, not this pass, is what guarantees forked *frames*
/// never apply). In `strict` mode (the primary's term is ahead) any
/// non-identical segment diverges; otherwise a local segment that is a
/// shorter prefix of the primary's is ordinary replication lag.
fn divergence_point(
    primary: &[SegmentDigest],
    local: &[SegmentDigest],
    strict: bool,
) -> Option<u64> {
    let oldest_primary = primary.first().map(|p| p.start_clock);
    for l in local {
        match primary.iter().find(|p| p.start_clock == l.start_clock) {
            Some(p) if p == l => continue,
            Some(p) => {
                if strict || l.bytes >= p.bytes {
                    return Some(l.start_clock);
                }
                // Equal term, shorter file: a clean prefix of the
                // segment the primary is still appending to.
            }
            None => match oldest_primary {
                // Pruned on the primary — unverifiable, assume good.
                Some(oldest) if l.start_clock < oldest => continue,
                None => continue,
                // A start clock the primary never sealed a segment at:
                // an unreplicated local tail (or misaligned segment
                // boundaries) — discard from here.
                Some(_) => return Some(l.start_clock),
            },
        }
    }
    None
}

/// The replica's [`FeedSink`]: chunks go into the local durable store,
/// which a cold start creates out of the first one.
struct StoreSink {
    /// `None` until a cold start's bootstrap chunk has been installed.
    store: Option<Arc<Store>>,
    dir: PathBuf,
    durability: DurabilityOptions,
    monitor: Arc<ReplicationMonitor>,
}

impl FeedSink for StoreSink {
    fn clock(&self) -> u64 {
        self.store.as_ref().map_or(0, |store| store.version())
    }

    fn fold(&mut self, _addr: &str, chunk: WalChunk) -> Result<(), ReplicaError> {
        match &self.store {
            Some(store) => apply_chunk(store, &chunk)?,
            None => self.store = Some(Arc::new(bootstrap(&self.dir, self.durability, &chunk)?)),
        }
        self.monitor.term.store(chunk.term, Ordering::Relaxed);
        Ok(())
    }
}

/// Cold start: installs the bootstrap snapshot the first chunk of a
/// from-zero subscription carries into `dir`, and opens the store over
/// it.
fn bootstrap(
    dir: &Path,
    durability: DurabilityOptions,
    chunk: &WalChunk,
) -> Result<Store, ReplicaError> {
    // Frames cannot rebuild the lattice, so a from-zero stream that
    // opens without a snapshot is unusable.
    let Some(snapshot) = &chunk.snapshot else {
        return Err(ReplicaError::protocol(
            "primary opened a cold subscription without a snapshot",
        ));
    };
    let clock = codec::decode(snapshot)
        .map_err(|e| ReplicaError::Protocol(format!("bootstrap snapshot does not decode: {e}")))?
        .clock;
    if clock != chunk.start_clock {
        return Err(ReplicaError::Protocol(format!(
            "bootstrap snapshot clock {clock} disagrees with chunk start {}",
            chunk.start_clock
        )));
    }
    wal::write_atomic(&wal::snapshot_path(dir, clock), snapshot).map_err(ReplicaError::Store)?;
    let store = Store::open_with(dir, durability).map_err(ReplicaError::Store)?;
    // Adopt (and durably record) the primary's fencing term before the
    // first frame applies.
    store
        .observe_replication_term(chunk.term)
        .map_err(ReplicaError::Store)?;
    apply_frames(&store, chunk.start_clock, &chunk.frames, chunk.term)?;
    Ok(store)
}

/// Applies one chunk: fencing check, optional snapshot fast-forward,
/// then frames.
fn apply_chunk(store: &Store, chunk: &WalChunk) -> Result<(), ReplicaError> {
    // Fence before anything touches the store: a chunk from a deposed
    // primary must not even install its snapshot. (Every frame is
    // re-checked inside apply_replicated_chunk, so a promotion racing
    // this window still cannot let a forked frame in.)
    store
        .observe_replication_term(chunk.term)
        .map_err(ReplicaError::Store)?;
    if let Some(snapshot) = &chunk.snapshot {
        // install_snapshot no-ops when the local clock already covers
        // it, so an overlapping backfill is harmless.
        store
            .install_snapshot(snapshot)
            .map_err(ReplicaError::Store)?;
    }
    apply_frames(store, chunk.start_clock, &chunk.frames, chunk.term)
}

/// Replays sealed frames (clock-contiguous from `start_clock`, stamped
/// with the feeder's fencing `term`) into the store as one chunk:
/// decoded whole first, then applied with one flush, skipping any
/// overlap below the local clock.
fn apply_frames(
    store: &Store,
    start_clock: u64,
    frames: &[u8],
    term: u64,
) -> Result<(), ReplicaError> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < frames.len() {
        match codec::decode_frame(&frames[pos..]) {
            FrameDecode::Complete { record, consumed } => {
                records.push(record);
                pos += consumed;
            }
            // The outer wire frame's checksum already passed, so damage
            // inside the chunk means a buggy or hostile feeder — drop
            // the connection rather than guessing.
            FrameDecode::Torn => {
                return Err(ReplicaError::protocol("chunk ends mid-frame"));
            }
            FrameDecode::Corrupt(e) => {
                return Err(ReplicaError::Protocol(format!(
                    "corrupt frame in chunk: {e}"
                )));
            }
        }
    }
    if records.is_empty() {
        return Ok(());
    }
    store
        .apply_replicated_chunk(start_clock, records, term)
        .map_err(ReplicaError::Store)
}

/// `true` when `dir` already holds a replica (or any durable) store —
/// i.e. whether [`Replica::start`] would warm-start from it.
pub fn dir_has_store(dir: impl AsRef<Path>) -> bool {
    matches!(wal::list_snapshots(dir.as_ref()), Ok(snaps) if !snaps.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start_clock: u64, bytes: u64, crc: u32) -> SegmentDigest {
        SegmentDigest {
            start_clock,
            bytes,
            crc,
        }
    }

    /// Promotion ends the follower the way `stop` does: through the
    /// link's halt, which no back-off wait outlasts.
    #[test]
    fn promotion_halts_the_follower() {
        let monitor = ReplicationMonitor::default();
        assert!(!monitor.link.pause(Duration::ZERO));
        assert_eq!(monitor.promote(&Store::public_only()).unwrap(), 1);
        assert!(monitor.is_promoted());
        assert!(monitor.link.pause(Duration::from_secs(60)));
    }

    #[test]
    fn identical_histories_are_clean() {
        let p = vec![seg(0, 100, 1), seg(8, 200, 2)];
        assert_eq!(divergence_point(&p, &p, false), None);
        assert_eq!(divergence_point(&p, &p, true), None);
    }

    #[test]
    fn lagging_tail_segment_is_clean_at_equal_term() {
        let p = vec![seg(0, 100, 1), seg(8, 200, 2)];
        let l = vec![seg(0, 100, 1), seg(8, 120, 9)];
        assert_eq!(divergence_point(&p, &l, false), None);
        // ...but suspect when the primary's term is ahead.
        assert_eq!(divergence_point(&p, &l, true), Some(8));
    }

    #[test]
    fn longer_local_segment_diverges() {
        // A local segment longer than the primary's own: frames the
        // primary does not have, forked at any term.
        let p = vec![seg(0, 100, 1), seg(8, 200, 2)];
        let l = vec![seg(0, 100, 1), seg(8, 260, 9)];
        assert_eq!(divergence_point(&p, &l, false), Some(8));
    }

    #[test]
    fn equal_length_crc_mismatch_diverges() {
        let p = vec![seg(0, 100, 1)];
        let l = vec![seg(0, 100, 7)];
        assert_eq!(divergence_point(&p, &l, false), Some(0));
    }

    #[test]
    fn unreplicated_tail_segments_diverge() {
        let p = vec![seg(0, 100, 1)];
        let l = vec![seg(0, 100, 1), seg(8, 40, 5)];
        assert_eq!(divergence_point(&p, &l, false), Some(8));
    }

    #[test]
    fn pruned_history_is_assumed_good() {
        // The primary checkpointed past clock 16: older local segments
        // cannot be verified and are kept.
        let p = vec![seg(16, 300, 3)];
        let l = vec![seg(0, 100, 1), seg(8, 200, 2), seg(16, 300, 3)];
        assert_eq!(divergence_point(&p, &l, false), None);
        let p_empty: Vec<SegmentDigest> = Vec::new();
        assert_eq!(divergence_point(&p_empty, &l, false), None);
    }
}
