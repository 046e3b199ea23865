//! The segmented write-ahead log: durable appends, crash recovery, and
//! checkpointing for [`Store`](crate::store::Store).
//!
//! # On-disk layout
//!
//! A durable store is a directory:
//!
//! ```text
//! store/
//!   snap-<clock:016x>.snap   full snapshot at logical clock <clock>
//!   wal-<start:016x>.wal     segment of frames for clocks <start>, <start>+1, …
//!   term                     replication fencing term, u64 LE (absent = 0)
//! ```
//!
//! Snapshots use the [`codec`] snapshot format; segments are a
//! [`codec::WAL_HEADER_LEN`]-byte header followed by CRC-checksummed
//! frames (see the [`codec`] module docs for both layouts). Segment `i`'s
//! frames are contiguous in clock: the `k`-th frame of a segment starting
//! at clock `s` records the mutation `s + k`.
//!
//! # Protocol
//!
//! * **Append**: the frame is written to the active segment *before*
//!   the in-memory mutation is applied, under the store's write lock, so
//!   log order is clock order. With [`DurabilityOptions::fsync`] on, the
//!   writer is acknowledged only once a flush covers its frame: flushes
//!   run outside the store's lock on a second handle of the segment, one
//!   at a time, and each covers every frame appended before it started
//!   (a group commit). Readers see a write once a flush covers it.
//!   Segments rotate once the active one crosses
//!   [`DurabilityOptions::segment_max_bytes`]; a rotation first flushes
//!   the segment it leaves.
//! * **Recovery** (`recover`, run by `Store::open*`): load the newest
//!   decodable snapshot (falling back through older ones), then replay
//!   segments in clock
//!   order. Replay stops — and the log is physically truncated — at the
//!   first torn or corrupt frame; segments beyond a truncation or a clock
//!   gap are unreachable and removed. The result is always a valid
//!   *prefix* of the committed history, never an error for torn tails.
//! * **Checkpoint**: write a snapshot of the current state to a temp file,
//!   fsync, rename into place, rotate to a fresh segment, then prune
//!   segments and snapshots the new snapshot supersedes.
//!
//! # Single writer
//!
//! A durable store directory assumes **at most one attached writer** at
//! a time: recovery repairs the directory (truncating torn tails,
//! removing unreachable segments) before appending, and checkpointing
//! prunes files, so a second concurrent writer — another process calling
//! `Store::open` or `Store::checkpoint` on the same directory — can
//! destroy the first writer's acknowledged frames. There is no lock
//! file; exclusion is the operator's responsibility. Read-only recovery
//! (`Store::open_read_only`, used by the CLI's read commands) never
//! modifies the directory and is safe alongside a live writer up to
//! ordinary read-torn-tail raciness.
//!
//! # Fault injection
//!
//! The writer performs all file writes through the [`WalFile`] /
//! [`WalIo`] traits. Production uses [`DiskIo`]; the crash-recovery test
//! harness substitutes a failing in-memory implementation to kill the
//! writer after every byte-prefix of the log and prove recovery of each.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use crate::codec::{self, FrameDecode, RawFrame, WalRecord};
use crate::error::{Result, StoreError};

/// Suffix of snapshot files in a durable store directory.
pub const SNAPSHOT_SUFFIX: &str = ".snap";
/// Suffix of WAL segment files in a durable store directory.
pub const SEGMENT_SUFFIX: &str = ".wal";
/// Name of the durable fencing-term file beside the segments.
pub const TERM_FILE: &str = "term";

/// Tuning knobs for a durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes.
    pub segment_max_bytes: u64,
    /// Acknowledge a write only once an `fsync` of the log covers its
    /// frame. Concurrent writers share flushes: one flush covers every
    /// frame appended before it started. On, the default, survives power
    /// loss; off leaves frames to the page cache and survives process
    /// crashes only.
    pub fsync: bool,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            segment_max_bytes: 4 << 20,
            fsync: true,
        }
    }
}

/// An open, append-only WAL segment file. The writer-side I/O seam: the
/// fault-injection harness substitutes an implementation that fails after
/// a byte budget, proving every crash point recovers.
///
/// The log opens each segment twice when it flushes: `append` is called
/// on one handle under the store's write lock, `sync` on the other with
/// no store lock held, possibly while the first handle appends. A flush
/// must cover every byte appended to the file (through either handle)
/// before it began, as `fdatasync` does.
pub trait WalFile: Send + Sync + fmt::Debug {
    /// Appends bytes at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Flushes appended bytes to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// Opens WAL segment files for the writer. See [`WalFile`].
pub trait WalIo: Send + Sync + fmt::Debug {
    /// Opens `path` for appending, creating it if absent.
    fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn WalFile>>;
}

/// The production [`WalIo`]: plain files opened in append mode.
#[derive(Debug, Default)]
pub struct DiskIo;

impl WalIo for DiskIo {
    fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(DiskFile(file)))
    }
}

#[derive(Debug)]
struct DiskFile(fs::File);

impl WalFile for DiskFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync_data()
    }
}

/// Path of the snapshot at `clock` inside `dir`.
pub fn snapshot_path(dir: &Path, clock: u64) -> PathBuf {
    dir.join(format!("snap-{clock:016x}{SNAPSHOT_SUFFIX}"))
}

/// Path of the segment starting at `clock` inside `dir`.
pub fn segment_path(dir: &Path, clock: u64) -> PathBuf {
    dir.join(format!("wal-{start:016x}{SEGMENT_SUFFIX}", start = clock))
}

/// Parses the clock out of a `prefix-<clock:016x><suffix>` file name.
fn parse_clock(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Lists `(clock, path)` of files matching the prefix/suffix, ascending.
fn list_clocked(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io_at(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io_at(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(clock) = parse_clock(name, prefix, suffix) {
            out.push((clock, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(clock, _)| clock);
    Ok(out)
}

/// Snapshots in `dir`, ascending by clock.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_clocked(dir, "snap-", SNAPSHOT_SUFFIX)
}

/// Segments in `dir`, ascending by start clock.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_clocked(dir, "wal-", SEGMENT_SUFFIX)
}

/// Writes `bytes` to `path` atomically and durably: temp file, fsync,
/// rename, parent-directory fsync.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp).map_err(|e| StoreError::io_at(&tmp, e))?;
    file.write_all(bytes)
        .map_err(|e| StoreError::io_at(&tmp, e))?;
    file.sync_data().map_err(|e| StoreError::io_at(&tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| StoreError::io_at(path, e))?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Path of the fencing-term file inside `dir`.
pub fn term_path(dir: &Path) -> PathBuf {
    dir.join(TERM_FILE)
}

/// Reads the durable replication fencing term of the store under `dir`.
///
/// A store that predates fencing (no `term` file) is at term 0, the
/// lowest possible term, so pre-v4 directories interoperate unchanged. A
/// present-but-undecodable file is an error, never silently term 0 — a
/// reset fencing term could let a deposed primary's frames back in.
pub fn read_term(dir: &Path) -> Result<u64> {
    let path = term_path(dir);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(StoreError::io_at(&path, e)),
    };
    let raw: [u8; 8] = match bytes.as_slice().try_into() {
        Ok(raw) => raw,
        Err(_) => {
            return Err(StoreError::io_at(
                &path,
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("term file must be exactly 8 bytes, found {}", bytes.len()),
                ),
            ))
        }
    };
    Ok(u64::from_le_bytes(raw))
}

/// Durably records `term` as the fencing term of the store under `dir`
/// (atomic write: temp file, fsync, rename, directory fsync).
pub fn write_term(dir: &Path, term: u64) -> Result<()> {
    write_atomic(&term_path(dir), &term.to_le_bytes())
}

/// One WAL segment's identity for anti-entropy: peers compare these to
/// find where their logs diverge without shipping frame data.
///
/// Two segments with equal `(start_clock, bytes, crc)` hold the same
/// sealed frames; any difference — content, length, or existence — marks
/// the divergence point, and everything from that segment's `start_clock`
/// on must be considered suspect on the side that is not the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDigest {
    /// Clock of the segment's first frame (its `wal-<start>` name).
    pub start_clock: u64,
    /// Total file length in bytes, header included.
    pub bytes: u64,
    /// CRC-32C over the entire file contents.
    pub crc: u32,
}

/// Digests every segment under `dir`, ascending by start clock — the
/// anti-entropy exchange payload. Safe against a live writer: a segment
/// still being appended simply digests its current prefix, which compares
/// unequal and lands on the divergent-suffix path (re-shipping frames the
/// subscriber would have received anyway).
pub fn segment_digests(dir: &Path) -> Result<Vec<SegmentDigest>> {
    let mut out = Vec::new();
    for (start_clock, path) in list_segments(dir)? {
        // Pruned between listing and read (checkpoint): skip, the peer
        // falls back to snapshot backfill exactly as the feeder does.
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(StoreError::io_at(&path, e)),
        };
        out.push(SegmentDigest {
            start_clock,
            bytes: bytes.len() as u64,
            crc: codec::crc32(&bytes),
        });
    }
    Ok(out)
}

/// Removes every segment starting at or after `clock` and every snapshot
/// taken after `clock` — the anti-entropy repair a deposed primary
/// applies before rejoining as a replica, discarding its unreplicated
/// (and possibly forked) tail. Returns the removed paths. The caller
/// must not have a store attached to `dir`.
pub fn truncate_history_from(dir: &Path, clock: u64) -> Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    for (start, path) in list_segments(dir)? {
        if start >= clock {
            fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            removed.push(path);
        }
    }
    for (snap_clock, path) in list_snapshots(dir)? {
        if snap_clock > clock {
            fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            removed.push(path);
        }
    }
    if !removed.is_empty() {
        sync_dir(dir)?;
    }
    Ok(removed)
}

/// Fsyncs a directory so freshly created/renamed/removed entries survive
/// power loss (file-data fsync alone does not make the *name* durable).
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    let handle = fs::File::open(dir).map_err(|e| StoreError::io_at(dir, e))?;
    handle.sync_all().map_err(|e| StoreError::io_at(dir, e))
}

/// Errors unless `dir` is free of store files — shared guard of
/// `Store::create_durable*` and `Store::save_durable`.
pub(crate) fn ensure_vacant(dir: &Path) -> Result<()> {
    if !list_snapshots(dir)?.is_empty() || !list_segments(dir)?.is_empty() {
        return Err(StoreError::io_at(
            dir,
            std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "directory already holds a durable store; use Store::open",
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The store-side WAL writer: owns the active segment, rotates, and
/// poisons itself on the first write failure (a partial frame may be on
/// disk; only a reopen-with-recovery can re-establish a clean tail).
pub(crate) struct Wal {
    dir: PathBuf,
    options: DurabilityOptions,
    io: Box<dyn WalIo>,
    active: Box<dyn WalFile>,
    /// With `fsync` on, a second handle on the active segment: a group
    /// commit's leader flushes it with no store lock held.
    flush: Option<Arc<FlushHandle>>,
    /// The rendezvous of the writers waiting for a flush. A log restarted
    /// under a new history gets a fresh one.
    commit: Arc<GroupCommit>,
    active_path: PathBuf,
    active_bytes: u64,
    poisoned: bool,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .field("active_path", &self.active_path)
            .field("active_bytes", &self.active_bytes)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Opens the writer over `dir`, continuing `resume` (a segment that
    /// survived recovery with its current length) or creating a fresh
    /// segment starting at `clock`.
    pub(crate) fn open(
        dir: &Path,
        options: DurabilityOptions,
        mut io: Box<dyn WalIo>,
        resume: Option<(PathBuf, u64)>,
        clock: u64,
    ) -> Result<Self> {
        let fresh = resume.is_none();
        let (active_path, active_bytes) = resume.unwrap_or_else(|| (segment_path(dir, clock), 0));
        let active = io
            .open_segment(&active_path)
            .map_err(|e| StoreError::io_at(&active_path, e))?;
        let mut wal = Self {
            dir: dir.to_path_buf(),
            options,
            io,
            active,
            flush: None,
            commit: Arc::default(),
            active_path,
            active_bytes,
            poisoned: false,
        };
        if fresh {
            wal.write_header(clock)?;
        } else {
            wal.flush = wal.open_flush()?;
        }
        Ok(wal)
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn options(&self) -> DurabilityOptions {
        self.options
    }

    /// Marks the log failed after a flush failed: it takes no more
    /// frames, and its group commit flushes nothing more.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// The group commit this log's durable writers wait on.
    pub(crate) fn commit(&self) -> &Arc<GroupCommit> {
        &self.commit
    }

    /// The handle a group commit's leader flushes: the active segment's,
    /// or [`StoreError::WalPoisoned`] once the log can flush nothing it
    /// may acknowledge.
    ///
    /// # Panics
    /// Panics on a log without `fsync`, which has no group commit.
    pub(crate) fn flusher(&self) -> Result<Arc<FlushHandle>> {
        if self.poisoned {
            return Err(StoreError::WalPoisoned);
        }
        Ok(self
            .flush
            .clone()
            .expect("only a log with fsync on has a group commit"))
    }

    /// Logs the mutation that will move the clock from `clock` to
    /// `clock + 1`. Must be called *before* the in-memory mutation. The
    /// frame reaches the page cache; with `fsync` on, the caller waits on
    /// [`commit`](Self::commit) before acknowledging it.
    pub(crate) fn append(&mut self, record: &WalRecord, clock: u64) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::WalPoisoned);
        }
        if self.active_bytes >= self.options.segment_max_bytes {
            self.rotate(clock)?;
        }
        let frame = codec::encode_frame(record);
        if let Err(e) = self.active.append(&frame) {
            // The frame may be partially on disk; refuse further appends
            // so the torn tail stays the *last* thing in the log.
            self.poisoned = true;
            return Err(StoreError::io_at(&self.active_path, e));
        }
        self.active_bytes += frame.len() as u64;
        Ok(())
    }

    /// Starts a fresh segment whose first frame will be `clock`, flushing
    /// the one it leaves first (with `fsync` on), so a flush of the new
    /// segment covers every frame before it too. Any failure poisons the
    /// writer: a partially written header would otherwise be
    /// appended-after on retry, corrupting the segment from birth.
    pub(crate) fn rotate(&mut self, clock: u64) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::WalPoisoned);
        }
        let path = segment_path(&self.dir, clock);
        if path == self.active_path {
            // The active segment already starts at `clock` (and therefore
            // holds no frames yet — frames would have advanced the
            // clock). Reopening it would append a second header into the
            // frame stream; there is nothing to rotate away from.
            return Ok(());
        }
        if self.options.fsync {
            if let Err(e) = self.active.sync() {
                self.poisoned = true;
                return Err(StoreError::io_at(&self.active_path, e));
            }
        }
        self.start_segment(&path, clock)
    }

    /// Starts the log afresh at `clock` under a new history, for a store
    /// whose state was replaced (a replica's fast-forward): a fresh
    /// segment, a cleared poison flag and a new group commit. Writers
    /// waiting on the old one are failed unless a flush already covered
    /// them (`flushed`, the clock readers saw).
    pub(crate) fn restart(&mut self, clock: u64, flushed: u64) -> Result<()> {
        std::mem::take(&mut self.commit).finish(flushed, true);
        self.poisoned = false;
        self.start_segment(&segment_path(&self.dir, clock), clock)
    }

    /// Makes the segment at `path` the active one, header first. Failure
    /// poisons the writer.
    fn start_segment(&mut self, path: &Path, clock: u64) -> Result<()> {
        let started = self.io.open_segment(path).map(|file| {
            self.active = file;
            self.active_path = path.to_path_buf();
        });
        let started = started
            .map_err(|e| StoreError::io_at(path, e))
            .and_then(|()| self.write_header(clock));
        if started.is_err() {
            self.poisoned = true;
        }
        started
    }

    /// Writes the header of the freshly opened active segment, whose
    /// first frame will be `clock`, and opens its flush handle.
    fn write_header(&mut self, clock: u64) -> Result<()> {
        let path = &self.active_path;
        let header = codec::encode_wal_header(clock);
        self.active
            .append(&header)
            .map_err(|e| StoreError::io_at(path, e))?;
        self.active_bytes = header.len() as u64;
        if self.options.fsync {
            self.active.sync().map_err(|e| StoreError::io_at(path, e))?;
            // The segment's *name* must be durable too.
            sync_dir(&self.dir)?;
        }
        self.flush = self.open_flush()?;
        Ok(())
    }

    /// The second handle on the active segment that a group commit
    /// flushes, opened through the same [`WalIo`] so an injected or
    /// recording I/O layer sees every flush.
    fn open_flush(&mut self) -> Result<Option<Arc<FlushHandle>>> {
        if !self.options.fsync {
            return Ok(None);
        }
        let path = self.active_path.clone();
        let file = self
            .io
            .open_segment(&path)
            .map_err(|e| StoreError::io_at(&path, e))?;
        Ok(Some(Arc::new(FlushHandle {
            path,
            file: Mutex::new(file),
        })))
    }
}

/// A segment handle used only to flush, shared with a group commit's
/// leader so the flush runs with no store lock held.
#[derive(Debug)]
pub(crate) struct FlushHandle {
    path: PathBuf,
    file: Mutex<Box<dyn WalFile>>,
}

impl FlushHandle {
    /// Flushes every byte appended to the segment so far.
    pub(crate) fn sync(&self) -> Result<()> {
        self.file
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sync()
            .map_err(|e| StoreError::io_at(&self.path, e))
    }
}

/// Where durable writers wait for a flush to cover their frames: at most
/// one flush in flight, led by a writer, and how far the flushes so far
/// reach. No thread of its own. The store drives the protocol
/// (`Store::await_flush`); this keeps its state.
#[derive(Debug, Default)]
pub(crate) struct GroupCommit {
    state: Mutex<CommitState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct CommitState {
    /// A writer is flushing.
    leading: bool,
    /// Every write that brought the clock to at most this is acknowledged.
    flushed: u64,
    /// A flush failed, or the log was restarted: every write above
    /// `flushed` fails.
    closed: bool,
}

/// What a writer waiting on a [`GroupCommit`] does next.
#[derive(Debug)]
pub(crate) enum Turn {
    /// A flush covered the write.
    Acked,
    /// The write will never be covered.
    Failed,
    /// No flush is in flight: this writer leads the next one.
    Lead,
}

impl GroupCommit {
    /// Waits until the write that brought the clock to `clock` is
    /// decided, or until no flush is in flight and this writer must lead
    /// one. A frame appended after a flush started waits for the next.
    pub(crate) fn wait(&self, clock: u64) -> Turn {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.flushed >= clock {
                return Turn::Acked;
            }
            if state.closed {
                return Turn::Failed;
            }
            if !state.leading {
                state.leading = true;
                return Turn::Lead;
            }
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Ends the flush a [`Turn::Lead`] began: writes up to `flushed` are
    /// acknowledged, and with `failed` every write above fails, for good.
    /// Wakes every waiter.
    pub(crate) fn finish(&self, flushed: u64, failed: bool) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.leading = false;
        state.flushed = state.flushed.max(flushed);
        state.closed |= failed;
        drop(state);
        self.done.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Why replay stopped before a segment's physical end.
#[derive(Debug, Clone)]
pub struct Truncation {
    /// The segment holding the first invalid frame.
    pub segment: PathBuf,
    /// Byte offset of the first invalid frame within that segment.
    pub offset: u64,
    /// Bytes dropped from that segment (and any later segments entirely).
    pub dropped_bytes: u64,
    /// Human-readable cause: a torn tail or a named corruption.
    pub reason: String,
}

/// What recovery (any of the `Store::open*` constructors) found and
/// did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The snapshot recovery started from: path and its clock.
    pub snapshot: Option<(PathBuf, u64)>,
    /// Newer snapshots that failed to decode and were skipped.
    pub corrupt_snapshots: Vec<PathBuf>,
    /// Segments whose frames were scanned.
    pub segments_scanned: usize,
    /// Frames replayed on top of the snapshot.
    pub records_replayed: u64,
    /// The torn/corrupt point the log was truncated at, if any (in
    /// read-only recovery: *would* be truncated at).
    pub truncated: Option<Truncation>,
    /// Unreachable segments (beyond a truncation or clock gap), removed
    /// when repairing and merely identified in read-only recovery.
    pub orphaned_segments: Vec<PathBuf>,
    /// The recovered logical clock.
    pub clock: u64,
}

/// Where [`recover`] applies replayed records: the store layer implements
/// this over its in-memory state. An `Err` marks the record semantically
/// invalid (a reference to a record that does not exist, a clock
/// mismatch, …), which recovery treats exactly like a corrupt frame —
/// truncate there and keep the valid prefix.
pub(crate) trait ReplayTarget {
    /// Applies one recovered record.
    fn apply(&mut self, record: WalRecord) -> std::result::Result<(), String>;
}

/// One scanned segment: its header clock and decoded frames, plus how it
/// ended.
struct SegmentScan {
    start_clock: u64,
    /// `(byte offset, record)` for each complete frame, in order.
    frames: Vec<(u64, WalRecord)>,
    end: SegmentEnd,
}

enum SegmentEnd {
    /// The file ends exactly at a frame boundary.
    Clean,
    /// Invalid data begins at this byte offset.
    Invalid { offset: u64, reason: String },
}

/// Scans one segment file. A bad or short header is reported as invalid
/// at offset 0 (the whole segment is dropped).
fn scan_segment(path: &Path) -> Result<SegmentScan> {
    let bytes = fs::read(path).map_err(|e| StoreError::io_at(path, e))?;
    let start_clock = match codec::decode_wal_header(&bytes) {
        Ok(clock) => clock,
        Err(e) => {
            return Ok(SegmentScan {
                start_clock: 0,
                frames: Vec::new(),
                end: SegmentEnd::Invalid {
                    offset: 0,
                    reason: format!("segment header: {e}"),
                },
            })
        }
    };
    let mut frames = Vec::new();
    let mut pos = codec::WAL_HEADER_LEN;
    let end = loop {
        if pos == bytes.len() {
            break SegmentEnd::Clean;
        }
        match codec::decode_frame(&bytes[pos..]) {
            FrameDecode::Complete { record, consumed } => {
                frames.push((pos as u64, record));
                pos += consumed;
            }
            FrameDecode::Torn => {
                break SegmentEnd::Invalid {
                    offset: pos as u64,
                    reason: "torn frame (bytes end mid-frame)".to_string(),
                }
            }
            FrameDecode::Corrupt(e) => {
                break SegmentEnd::Invalid {
                    offset: pos as u64,
                    reason: format!("corrupt frame: {e}"),
                }
            }
        }
    };
    Ok(SegmentScan {
        start_clock,
        frames,
        end,
    })
}

/// Truncates `path` to `len` bytes, dropping a torn/corrupt tail.
fn truncate_file(path: &Path, len: u64) -> Result<()> {
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io_at(path, e))?;
    file.set_len(len).map_err(|e| StoreError::io_at(path, e))?;
    file.sync_data().map_err(|e| StoreError::io_at(path, e))?;
    Ok(())
}

/// Where the writer resumes appending after recovery: the surviving
/// tail segment's path and valid length.
pub(crate) type ResumePoint = Option<(PathBuf, u64)>;

/// Recovers the durable state under `dir`: builds a replay target from
/// the newest decodable snapshot (via `init`), then applies the longest
/// valid, contiguous run of logged records after it. With `repair` set,
/// torn or corrupt tails are physically truncated and unreachable
/// segments removed (required before attaching a writer); without it the
/// directory is left untouched — read-only recovery — and the report
/// merely describes what a repair would do. Returns the target, the
/// [`ResumePoint`] the writer should continue at (`None` when not
/// repairing), and the report. See the module docs for the protocol.
pub(crate) fn recover<T: ReplayTarget>(
    dir: &Path,
    repair: bool,
    init: impl FnOnce(codec::SnapshotData) -> Result<T>,
) -> Result<(T, ResumePoint, RecoveryReport)> {
    let mut report = RecoveryReport::default();

    // Newest decodable snapshot wins; corrupt ones are skipped, not fatal.
    let mut snapshots = list_snapshots(dir)?;
    snapshots.reverse();
    if snapshots.is_empty() {
        return Err(StoreError::NoSnapshot {
            dir: dir.to_path_buf(),
        });
    }
    let mut chosen = None;
    for (clock, path) in snapshots {
        let Ok(bytes) = fs::read(&path) else {
            report.corrupt_snapshots.push(path);
            continue;
        };
        match codec::decode(&bytes) {
            Ok(data) if data.clock == clock => {
                chosen = Some((path, data));
                break;
            }
            _ => report.corrupt_snapshots.push(path),
        }
    }
    let Some((snap_path, snapshot)) = chosen else {
        return Err(StoreError::NoSnapshot {
            dir: dir.to_path_buf(),
        });
    };
    report.snapshot = Some((snap_path, snapshot.clock));
    let snapshot_clock = snapshot.clock;
    let mut target = init(snapshot)?;

    // Replay segments in clock order, keeping only the contiguous run.
    let mut next_clock = snapshot_clock;
    let mut resume: Option<(PathBuf, u64)> = None;
    let mut stopped = false;
    for (name_clock, path) in list_segments(dir)? {
        if stopped {
            // Unreachable after a truncation or gap: a later writer could
            // otherwise collide with or resurrect these frames.
            if repair {
                fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            }
            report.orphaned_segments.push(path);
            continue;
        }
        let scan = scan_segment(&path)?;
        report.segments_scanned += 1;

        // A segment that cannot even state its start clock (torn or
        // corrupt header) holds nothing recoverable: remove it and stop.
        if matches!(scan.end, SegmentEnd::Invalid { offset: 0, .. }) {
            let SegmentEnd::Invalid { reason, .. } = scan.end else {
                unreachable!()
            };
            let len = fs::metadata(&path)
                .map_err(|e| StoreError::io_at(&path, e))?
                .len();
            report.truncated = Some(Truncation {
                segment: path.clone(),
                offset: 0,
                dropped_bytes: len,
                reason,
            });
            if repair {
                fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            }
            report.orphaned_segments.push(path);
            stopped = true;
            continue;
        }

        // A renamed file or a start clock ahead of contiguous history
        // makes this segment (and everything after) unreachable.
        if scan.start_clock != name_clock || scan.start_clock > next_clock {
            if repair {
                fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            }
            report.orphaned_segments.push(path);
            stopped = true;
            continue;
        }

        // Apply frames past the snapshot's clock; earlier ones are
        // already folded into the snapshot. Within a segment the k-th
        // frame has clock `start + k`, so once replay catches up the
        // frames are exactly contiguous.
        let frame_count = scan.frames.len() as u64;
        let mut replay_failure: Option<(u64, String)> = None;
        for (i, (offset, record)) in scan.frames.into_iter().enumerate() {
            let frame_clock = scan.start_clock + i as u64;
            if frame_clock < next_clock {
                continue;
            }
            debug_assert_eq!(frame_clock, next_clock);
            match target.apply(record) {
                Ok(()) => {
                    report.records_replayed += 1;
                    next_clock += 1;
                }
                Err(reason) => {
                    replay_failure = Some((offset, format!("invalid record: {reason}")));
                    break;
                }
            }
        }
        let (end, end_clock) = match replay_failure {
            // A semantically invalid record truncates like a corrupt
            // frame; everything applied before it ends at `next_clock`.
            Some((offset, reason)) => (SegmentEnd::Invalid { offset, reason }, next_clock),
            None => (scan.end, scan.start_clock + frame_count),
        };

        match end {
            SegmentEnd::Clean => {
                // The writer may only resume a segment whose frames end
                // exactly at the recovered clock; an older, fully
                // snapshot-covered segment stays behind untouched and a
                // fresh segment is started instead.
                if end_clock == next_clock {
                    let len = fs::metadata(&path)
                        .map_err(|e| StoreError::io_at(&path, e))?
                        .len();
                    resume = Some((path, len));
                } else {
                    resume = None;
                }
            }
            SegmentEnd::Invalid { offset, reason } => {
                let len = fs::metadata(&path)
                    .map_err(|e| StoreError::io_at(&path, e))?
                    .len();
                if repair {
                    truncate_file(&path, offset)?;
                }
                report.truncated = Some(Truncation {
                    segment: path.clone(),
                    offset,
                    dropped_bytes: len.saturating_sub(offset),
                    reason,
                });
                resume = (end_clock == next_clock).then_some((path, offset));
                stopped = true;
            }
        }
    }

    report.clock = next_clock;
    if !repair {
        resume = None;
    }
    Ok((target, resume, report))
}

// ---------------------------------------------------------------------------
// Tail reading (replication feed)
// ---------------------------------------------------------------------------

/// A contiguous run of sealed WAL frames read from a durable store
/// directory — what a replication feeder ships per
/// `WalChunk`.
///
/// `frames` is byte-identical to the segment contents: whole sealed
/// frames (`len u32 | crc32 u32 | payload`), so every hop re-verifies
/// the same checksums the recovery path does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailChunk {
    /// Clock of the first frame in `frames`.
    pub start_clock: u64,
    /// Clock after the last frame (`start_clock` + frame count).
    pub end_clock: u64,
    /// Concatenated sealed frames, contiguous in clock.
    pub frames: Vec<u8>,
}

/// Resume state for sequential tail reading: where the previous
/// [`read_frames_with`] call stopped, so the next call can pick up with
/// a positioned read of the segment's unread suffix instead of
/// re-reading and re-decoding the whole file. Purely an optimization —
/// any stale or mismatched cursor falls back to the full scan, which
/// re-derives it.
#[derive(Debug, Clone, Default)]
pub struct TailCursor {
    /// `(segment path, byte offset of the next unread frame, its clock)`.
    at: Option<(PathBuf, u64, u64)>,
}

/// Reads up to `max_bytes` of contiguous sealed frames from `dir`,
/// starting at clock `from_clock` and stopping before `up_to` — the
/// replication feeder's read path, safe to run against a **live
/// writer** (the caller must observe the store's clock reach `up_to`
/// *before* calling, which guarantees every frame below `up_to` is
/// fully written; a torn in-flight frame beyond that merely ends the
/// chunk early).
///
/// Returns `Ok(None)` when no retained segment covers `from_clock` —
/// a checkpoint pruned that range (or the directory was never seeded) —
/// in which case the caller should fall back to
/// [`read_newest_snapshot`]. An `Ok(Some)` chunk may be empty
/// (`start_clock == end_clock`) when the covering segment holds nothing
/// new yet; at least one frame is returned otherwise, even if it alone
/// exceeds `max_bytes`.
pub fn read_frames(
    dir: &Path,
    from_clock: u64,
    up_to: u64,
    max_bytes: usize,
) -> Result<Option<TailChunk>> {
    read_frames_with(
        dir,
        from_clock,
        up_to,
        max_bytes,
        &mut TailCursor::default(),
    )
}

/// [`read_frames`] with a [`TailCursor`]: a streaming caller (one
/// feeder per subscriber, advancing monotonically) does O(chunk) work
/// per call instead of re-scanning the covering segment from its
/// header. Safe because live segments are strictly append-only — files
/// are only truncated by recovery (no writer attached) and checkpoints
/// rotate to *new* files — so a previously valid `(path, offset,
/// clock)` triple can only become invalid by deletion, which the
/// fallback full scan handles.
pub fn read_frames_with(
    dir: &Path,
    from_clock: u64,
    up_to: u64,
    max_bytes: usize,
    cursor: &mut TailCursor,
) -> Result<Option<TailChunk>> {
    if from_clock >= up_to {
        return Ok(Some(TailChunk {
            start_clock: from_clock,
            end_clock: from_clock,
            frames: Vec::new(),
        }));
    }
    // Fast path: the cursor points exactly at from_clock — read only
    // the segment's unread suffix.
    if let Some((path, offset, clock)) = cursor.at.clone() {
        if clock == from_clock {
            if let Some(chunk) = resume_segment(&path, offset, from_clock, up_to, max_bytes)? {
                if chunk.end_clock > chunk.start_clock {
                    cursor.at = Some((path, offset + chunk.frames.len() as u64, chunk.end_clock));
                    return Ok(Some(chunk));
                }
                // No progress at this offset: either the live tail has
                // nothing new yet, or this segment ended and a later
                // one continues the history. Only the full scan can
                // tell — fall through.
            }
        }
    }
    // The newest segment starting at or before from_clock is the only
    // one that can hold it (later frames of an earlier segment would
    // overlap a later segment's start, which the writer never produces).
    let segments = list_segments(dir)?;
    let Some((name_clock, path)) = segments
        .into_iter()
        .rev()
        .find(|&(start, _)| start <= from_clock)
    else {
        return Ok(None);
    };
    // The file can vanish between the listing and the read when a
    // checkpoint prunes it — that is the snapshot-fallback case, not an
    // error.
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io_at(&path, e)),
    };
    let Ok(start_clock) = codec::decode_wal_header(&bytes) else {
        return Ok(None); // unreadable header: let recovery-grade tooling repair
    };
    if start_clock != name_clock {
        return Ok(None); // renamed file; recovery treats it as unreachable
    }
    let mut clock = start_clock;
    let mut pos = codec::WAL_HEADER_LEN;
    let mut chunk_start = pos;
    let mut collected = 0usize;
    // Skip fully past frames below from_clock, then collect whole sealed
    // frames until the clock, byte, or damage bound is hit.
    loop {
        if clock >= up_to || (collected > 0 && collected >= max_bytes) {
            break;
        }
        match codec::open_frame(&bytes[pos..]) {
            RawFrame::Complete { consumed, .. } => {
                pos += consumed;
                clock += 1;
                if clock <= from_clock {
                    chunk_start = pos;
                } else {
                    collected += consumed;
                }
            }
            // A torn or corrupt tail ends what this segment can ship;
            // recovery owns deciding what it means.
            RawFrame::Torn | RawFrame::Corrupt(_) => break,
        }
    }
    if clock < from_clock {
        // The segment's frames end before from_clock: the range is not
        // covered here (a gap recovery would repair) — snapshot fallback.
        cursor.at = None;
        return Ok(None);
    }
    cursor.at = Some((path, pos as u64, clock));
    Ok(Some(TailChunk {
        start_clock: from_clock,
        end_clock: clock.max(from_clock),
        frames: bytes[chunk_start..pos].to_vec(),
    }))
}

/// The [`read_frames_with`] fast path: decode sealed frames from a
/// known `(offset, clock)` position in one segment file, reading only
/// the unread suffix. `Ok(None)` when the file is gone (pruned) —
/// caller falls back to the full scan.
fn resume_segment(
    path: &Path,
    offset: u64,
    from_clock: u64,
    up_to: u64,
    max_bytes: usize,
) -> Result<Option<TailChunk>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io_at(path, e)),
    };
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| StoreError::io_at(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StoreError::io_at(path, e))?;
    let mut clock = from_clock;
    let mut pos = 0usize;
    loop {
        if clock >= up_to || (pos > 0 && pos >= max_bytes) {
            break;
        }
        match codec::open_frame(&bytes[pos..]) {
            RawFrame::Complete { consumed, .. } => {
                pos += consumed;
                clock += 1;
            }
            RawFrame::Torn | RawFrame::Corrupt(_) => break,
        }
    }
    bytes.truncate(pos);
    Ok(Some(TailChunk {
        start_clock: from_clock,
        end_clock: clock,
        frames: bytes,
    }))
}

/// Reads the newest decodable snapshot in `dir`, returning its clock and
/// raw bytes — the replication feeder's backfill source for subscribers
/// whose clock predates the retained log.
pub fn read_newest_snapshot(dir: &Path) -> Result<(u64, Vec<u8>)> {
    let mut snapshots = list_snapshots(dir)?;
    snapshots.reverse();
    for (clock, path) in snapshots {
        let Ok(bytes) = fs::read(&path) else { continue };
        if matches!(codec::decode(&bytes), Ok(data) if data.clock == clock) {
            return Ok((clock, bytes));
        }
    }
    Err(StoreError::NoSnapshot {
        dir: dir.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_roundtrip_through_listing() {
        let dir = std::env::temp_dir().join(format!("wal-paths-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = snapshot_path(&dir, 0x2a);
        let seg = segment_path(&dir, 7);
        fs::write(&snap, b"x").unwrap();
        fs::write(&seg, b"y").unwrap();
        fs::write(dir.join("unrelated.txt"), b"z").unwrap();
        assert_eq!(list_snapshots(&dir).unwrap(), vec![(0x2a, snap)]);
        assert_eq!(list_segments(&dir).unwrap(), vec![(7, seg)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_options_favor_safety() {
        let options = DurabilityOptions::default();
        assert!(options.fsync, "fsync must default on");
        assert!(options.segment_max_bytes >= 1 << 20);
    }

    fn tail_test_store(dir: &Path, segment_max_bytes: u64) -> crate::store::Store {
        let store = crate::store::Store::create_durable_with(
            dir,
            &["Public"],
            &[],
            DurabilityOptions {
                segment_max_bytes,
                fsync: false,
            },
        )
        .unwrap();
        let public = store.predicate("Public").unwrap();
        for i in 0..40 {
            store.append_node(
                format!("n{i}"),
                crate::record::NodeKind::Data,
                surrogate_core::feature::Features::new(),
                public,
            );
        }
        store
    }

    #[test]
    fn tail_reader_ships_contiguous_sealed_frames_across_rotation() {
        let dir = std::env::temp_dir().join(format!("wal-tail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A tiny segment bound forces several rotations mid-workload.
        let store = tail_test_store(&dir, 256);
        let clock = store.clock();
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "workload must span segments"
        );

        // Drain the tail in small chunks, as a feeder would — through
        // the resume cursor, so the fast path is what gets proven.
        let mut next = 7; // start mid-history: a warm subscriber
        let mut cursor = TailCursor::default();
        let mut frames = Vec::new();
        while next < clock {
            let chunk = read_frames_with(&dir, next, clock, 128, &mut cursor)
                .unwrap()
                .unwrap();
            assert_eq!(chunk.start_clock, next, "chunks are contiguous");
            assert!(chunk.end_clock > next, "live history always progresses");
            frames.extend_from_slice(&chunk.frames);
            next = chunk.end_clock;
        }

        // The shipped bytes decode to exactly the records after clock 7.
        let mut pos = 0;
        let mut decoded = 0u64;
        while pos < frames.len() {
            match codec::decode_frame(&frames[pos..]) {
                FrameDecode::Complete { record, consumed } => {
                    let WalRecord::AppendNode(node) = record else {
                        panic!("workload appends nodes only")
                    };
                    assert_eq!(node.created_at, 7 + decoded, "clock-contiguous");
                    pos += consumed;
                    decoded += 1;
                }
                other => panic!("shipped frames must be whole: {other:?}"),
            }
        }
        assert_eq!(decoded, clock - 7);

        // Caught-up reads return an empty chunk, not a fallback.
        let caught_up = read_frames(&dir, clock, clock, 128).unwrap().unwrap();
        assert_eq!(caught_up.start_clock, caught_up.end_clock);
        assert!(caught_up.frames.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_falls_back_to_snapshot_after_checkpoint() {
        let dir = std::env::temp_dir().join(format!("wal-tail-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = tail_test_store(&dir, 4 << 20);
        let clock = store.clock();
        store.checkpoint().unwrap();

        // The pre-checkpoint range is pruned: not coverable by frames…
        assert_eq!(read_frames(&dir, 0, clock, 1 << 20).unwrap(), None);
        // …but the newest snapshot carries the whole state.
        let (snap_clock, bytes) = read_newest_snapshot(&dir).unwrap();
        assert_eq!(snap_clock, clock);
        assert_eq!(codec::decode(&bytes).unwrap().clock, clock);

        // From the checkpoint clock onward, frames flow again.
        let public = store.predicate("Public").unwrap();
        store.append_node(
            "post",
            crate::record::NodeKind::Data,
            surrogate_core::feature::Features::new(),
            public,
        );
        let chunk = read_frames(&dir, clock, clock + 1, 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!((chunk.start_clock, chunk.end_clock), (clock, clock + 1));
        fs::remove_dir_all(&dir).ok();
    }
}
