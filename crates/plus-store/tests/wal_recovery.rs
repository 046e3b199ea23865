//! The fault-injection harness for the write-ahead log: every byte
//! prefix of the log is a crash point, and every crash point must
//! recover a valid **prefix of committed history** — byte-identical
//! state, monotone clock, no panic — with the epoch restored through the
//! serving layer.
//!
//! Two injection styles prove it:
//!
//! * **Byte-prefix truncation**: run a deterministic ≥200-append
//!   workload once, then for *every* prefix length of the logged bytes
//!   reconstruct the directory a crash at that point would leave behind
//!   and reopen it.
//! * **`FailingFile`**: drive the store through a [`WalIo`] shim whose
//!   writes fail (mid-write) once a byte budget is exhausted, for every
//!   budget — proving the writer acknowledges exactly what is on disk,
//!   poisons itself after the first failure, and recovers what it
//!   acknowledged.
//!
//! With `fsync` on, an in-memory device that keeps each file's flushed
//! prefix apart from its written bytes proves that no write is
//! acknowledged before a flush covers it: under concurrent writers at
//! every power-loss point, when a flush fails, and when one flush covers
//! several writers.
//!
//! Plus proptest cases over the frame codec itself: torn writes and bit
//! flips never panic and never fabricate records before the damage.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use plus_store::codec::{self, FrameDecode, WalRecord};
use plus_store::wal::{self, DurabilityOptions, WalFile, WalIo};
use plus_store::{
    AccountService, EdgeKind, EdgeRecord, NodeKind, PolicyStatement, RecordId, Store, StoreError,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;

const LATTICE: (&[&str], &[(usize, usize)]) = (&["Public", "Mid", "High"], &[(1, 0), (2, 1)]);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Applies the `i`-th workload operation. Deterministic, always valid:
/// the first eight ops are nodes; afterwards every 4th op is a unique
/// edge between existing nodes, every 9th a policy statement, the rest
/// nodes with a feature payload. Returns `Err` only on injected I/O
/// failure.
fn apply_op(store: &Store, i: usize) -> Result<(), StoreError> {
    let preds = [
        store.predicate("Public").unwrap(),
        store.predicate("Mid").unwrap(),
        store.predicate("High").unwrap(),
    ];
    let nodes = store.node_count();
    if i >= 8 && i % 4 == 0 {
        // The k-th pair of a fixed enumeration of the 56 ordered pairs
        // over the first 8 nodes (which exist before the first edge op),
        // so every edge is fresh and valid regardless of later growth.
        let k = store.edge_count();
        assert!(k < 56, "workload exceeds the edge enumeration");
        let a = k / 7;
        let idx = k % 7;
        let b = if idx < a { idx } else { idx + 1 };
        store.append_edge(
            RecordId(a as u32),
            RecordId(b as u32),
            [EdgeKind::InputTo, EdgeKind::GeneratedBy, EdgeKind::Related][k % 3],
        )
    } else if i >= 8 && i % 9 == 0 && nodes > 0 {
        let node = RecordId((i % nodes) as u32);
        if i % 2 == 0 {
            store.apply_policy(PolicyStatement::MarkNode {
                node,
                predicate: (i % 3 > 0).then_some(preds[i % 3]),
                marking: [Marking::Visible, Marking::Hide, Marking::Surrogate][i % 3],
            })
        } else {
            store.apply_policy(PolicyStatement::AddSurrogate {
                node,
                label: format!("s{i}"),
                features: Features::new(),
                lowest: preds[0],
                info_score: (i % 10) as f64 / 10.0,
            })
        }
    } else {
        store
            .try_append_node(
                format!("n{i}"),
                [NodeKind::Data, NodeKind::Process, NodeKind::Agent][i % 3],
                Features::new().with("i", i as i64),
                preds[i % 3],
            )
            .map(|_| ())
    }
}

/// Snapshot bytes of the store after each op count: `expected[k]` is the
/// canonical state after exactly `k` committed operations.
fn expected_prefixes(ops: usize) -> Vec<Vec<u8>> {
    let store = Store::new(LATTICE.0, LATTICE.1).unwrap();
    let mut expected = vec![store.to_bytes()];
    for i in 0..ops {
        apply_op(&store, i).unwrap();
        expected.push(store.to_bytes());
    }
    expected
}

/// Reconstructs the directory a crash would leave: the clock-0 snapshot
/// plus the logged byte stream truncated to `prefix_len`, split across
/// the original segment boundaries.
fn write_crash_dir(
    dir: &Path,
    snapshot: &[u8],
    segments: &[(PathBuf, Vec<u8>)],
    prefix_len: usize,
) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(wal::snapshot_path(dir, 0), snapshot).unwrap();
    let mut remaining = prefix_len;
    for (path, bytes) in segments {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(bytes.len());
        std::fs::write(dir.join(path.file_name().unwrap()), &bytes[..take]).unwrap();
        remaining -= take;
    }
}

/// The acceptance-criterion harness: a ≥200-append workload, then every
/// byte-prefix crash point must reopen to a valid prefix of committed
/// history with a monotone clock.
#[test]
fn every_byte_prefix_crash_point_recovers_a_committed_prefix() {
    const OPS: usize = 220;
    let expected = expected_prefixes(OPS);

    // Run the workload once, durably, in a single segment.
    let dir = temp_dir("byte-prefix-writer");
    let store = Store::create_durable_with(
        &dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions {
            fsync: false,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..OPS {
        apply_op(&store, i).unwrap();
    }
    assert_eq!(store.to_bytes(), expected[OPS]);
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "workload fits one segment");
    let snapshot = std::fs::read(wal::snapshot_path(&dir, 0)).unwrap();
    let log: Vec<(PathBuf, Vec<u8>)> = segments
        .iter()
        .map(|(_, path)| (path.clone(), std::fs::read(path).unwrap()))
        .collect();
    let total: usize = log.iter().map(|(_, b)| b.len()).sum();
    drop(store);

    let crash_dir = temp_dir("byte-prefix-crash");
    let mut last_clock = 0u64;
    for prefix_len in 0..=total {
        write_crash_dir(&crash_dir, &snapshot, &log, prefix_len);
        let (recovered, report) = Store::open_reporting(&crash_dir, Default::default())
            .unwrap_or_else(|e| panic!("crash point {prefix_len}/{total}: recovery failed: {e}"));
        let k = recovered.clock() as usize;
        assert!(
            k <= OPS,
            "crash point {prefix_len}: clock {k} beyond history"
        );
        assert_eq!(
            recovered.to_bytes(),
            expected[k],
            "crash point {prefix_len}: recovered state is not the {k}-op prefix"
        );
        assert_eq!(report.clock, k as u64);
        assert!(
            report.clock >= last_clock,
            "crash point {prefix_len}: clock went backward ({last_clock} -> {})",
            report.clock
        );
        last_clock = report.clock;
    }
    assert_eq!(last_clock, OPS as u64, "the full log recovers everything");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// Crash points with segment rotation in play: the same sweep over a log
/// split across many small segments, including boundaries.
#[test]
fn crash_points_across_segment_rotation_recover() {
    const OPS: usize = 120;
    let expected = expected_prefixes(OPS);

    let dir = temp_dir("rotation-writer");
    let store = Store::create_durable_with(
        &dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions {
            segment_max_bytes: 256,
            fsync: false,
        },
    )
    .unwrap();
    for i in 0..OPS {
        apply_op(&store, i).unwrap();
    }
    let segments = wal::list_segments(&dir).unwrap();
    assert!(
        segments.len() > 3,
        "rotation produced {} segments",
        segments.len()
    );
    let snapshot = std::fs::read(wal::snapshot_path(&dir, 0)).unwrap();
    let log: Vec<(PathBuf, Vec<u8>)> = segments
        .iter()
        .map(|(_, path)| (path.clone(), std::fs::read(path).unwrap()))
        .collect();
    let total: usize = log.iter().map(|(_, b)| b.len()).sum();
    drop(store);

    let crash_dir = temp_dir("rotation-crash");
    let mut last_clock = 0u64;
    for prefix_len in 0..=total {
        write_crash_dir(&crash_dir, &snapshot, &log, prefix_len);
        let (recovered, _) = Store::open_reporting(&crash_dir, Default::default())
            .unwrap_or_else(|e| panic!("crash point {prefix_len}/{total}: {e}"));
        let k = recovered.clock() as usize;
        assert_eq!(
            recovered.to_bytes(),
            expected[k],
            "crash point {prefix_len}: not the {k}-op prefix"
        );
        assert!(
            recovered.clock() >= last_clock,
            "clock regressed at {prefix_len}"
        );
        last_clock = recovered.clock();
    }
    assert_eq!(last_clock, OPS as u64);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

// ---------------------------------------------------------------------------
// FailingFile injection
// ---------------------------------------------------------------------------

/// Shared state of the failing I/O shim: every segment's written bytes,
/// and the remaining byte budget across all files.
#[derive(Debug, Default)]
struct FailState {
    files: Mutex<Vec<(PathBuf, Vec<u8>)>>,
    budget: AtomicUsize,
}

#[derive(Debug)]
struct FailingIo(Arc<FailState>);

#[derive(Debug)]
struct FailingFile {
    state: Arc<FailState>,
    index: usize,
}

impl WalIo for FailingIo {
    fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        let mut files = self.0.files.lock().unwrap();
        let index = files.len();
        files.push((path.to_path_buf(), Vec::new()));
        Ok(Box::new(FailingFile {
            state: self.0.clone(),
            index,
        }))
    }
}

impl WalFile for FailingFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        // Consume budget; on exhaustion write the partial prefix (the
        // crash signature) and fail.
        let granted = {
            let mut granted = 0;
            let _ = self
                .state
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |budget| {
                    granted = budget.min(bytes.len());
                    Some(budget - granted)
                });
            granted
        };
        let mut files = self.state.files.lock().unwrap();
        files[self.index].1.extend_from_slice(&bytes[..granted]);
        if granted < bytes.len() {
            Err(std::io::Error::other("injected write failure"))
        } else {
            Ok(())
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Kill the writer after every byte budget: the store must acknowledge
/// exactly the operations whose frames are fully on "disk", refuse
/// further durable appends once poisoned, and recovery must return
/// exactly the acknowledged prefix.
#[test]
fn failing_writer_acknowledges_exactly_what_recovers() {
    const OPS: usize = 60;
    let expected = expected_prefixes(OPS);

    // Dry run to learn the total logged bytes (header + frames).
    let total = {
        let state = Arc::new(FailState {
            budget: AtomicUsize::new(usize::MAX),
            ..Default::default()
        });
        let dir = temp_dir("failing-dry");
        let store = Store::create_durable_with_io(
            &dir,
            LATTICE.0,
            LATTICE.1,
            DurabilityOptions {
                fsync: false,
                ..Default::default()
            },
            Box::new(FailingIo(state.clone())),
        )
        .unwrap();
        for i in 0..OPS {
            apply_op(&store, i).unwrap();
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
        let files = state.files.lock().unwrap();
        files.iter().map(|(_, b)| b.len()).sum::<usize>()
    };

    let writer_dir = temp_dir("failing-writer");
    let crash_dir = temp_dir("failing-crash");
    for budget in 0..=total {
        let _ = std::fs::remove_dir_all(&writer_dir);
        let state = Arc::new(FailState {
            budget: AtomicUsize::new(budget),
            ..Default::default()
        });
        let created = Store::create_durable_with_io(
            &writer_dir,
            LATTICE.0,
            LATTICE.1,
            DurabilityOptions {
                fsync: false,
                ..Default::default()
            },
            Box::new(FailingIo(state.clone())),
        );
        let mut acknowledged = 0usize;
        let mut failed = false;
        if let Ok(store) = &created {
            for i in 0..OPS {
                match apply_op(store, i) {
                    Ok(()) => {
                        assert!(
                            !failed,
                            "budget {budget}: op {i} acknowledged after poisoning"
                        );
                        acknowledged += 1;
                    }
                    Err(e) => {
                        if failed {
                            // Later ops fail fast as poisoned, or fail
                            // validation against the frozen prefix state
                            // (e.g. an edge whose endpoint never landed).
                            assert!(
                                matches!(
                                    e,
                                    StoreError::WalPoisoned
                                        | StoreError::UnknownRecord(_)
                                        | StoreError::Graph(_)
                                ),
                                "budget {budget}: unexpected post-poisoning error {e}"
                            );
                        } else {
                            // The first failure is the injected I/O error,
                            // with the segment path attached.
                            assert!(
                                matches!(e, StoreError::Io { path: Some(_), .. }),
                                "budget {budget}: expected path-context io error, got {e}"
                            );
                        }
                        failed = true;
                    }
                }
            }
            // In-memory state is exactly the acknowledged prefix: a failed
            // append mutates nothing.
            assert_eq!(
                store.to_bytes(),
                expected[acknowledged],
                "budget {budget}: in-memory state diverged from acknowledged prefix"
            );
        }

        // Materialize what reached "disk" and recover it.
        let _ = std::fs::remove_dir_all(&crash_dir);
        std::fs::create_dir_all(&crash_dir).unwrap();
        std::fs::write(wal::snapshot_path(&crash_dir, 0), expected[0].clone()).unwrap();
        for (path, bytes) in state.files.lock().unwrap().iter() {
            std::fs::write(crash_dir.join(path.file_name().unwrap()), bytes).unwrap();
        }
        let (recovered, _) = Store::open_reporting(&crash_dir, Default::default())
            .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        assert_eq!(
            recovered.clock() as usize,
            acknowledged,
            "budget {budget}: recovery must return exactly the acknowledged ops"
        );
        assert_eq!(
            recovered.to_bytes(),
            expected[acknowledged],
            "budget {budget}"
        );
    }
    std::fs::remove_dir_all(&writer_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

// ---------------------------------------------------------------------------
// Checkpoint interaction and the serving layer
// ---------------------------------------------------------------------------

/// Crash points after a mid-history checkpoint recover from the
/// checkpoint snapshot plus the post-checkpoint log tail.
#[test]
fn crash_points_after_a_checkpoint_recover() {
    const PRE: usize = 40;
    const POST: usize = 40;
    let expected = expected_prefixes(PRE + POST);

    let dir = temp_dir("checkpoint-writer");
    let store = Store::create_durable_with(
        &dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions {
            fsync: false,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..PRE {
        apply_op(&store, i).unwrap();
    }
    let stats = store.checkpoint().unwrap();
    assert_eq!(stats.clock, PRE as u64);
    for i in PRE..PRE + POST {
        apply_op(&store, i).unwrap();
    }
    let snapshot = std::fs::read(wal::snapshot_path(&dir, PRE as u64)).unwrap();
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "checkpoint pruned older segments");
    let seg_name = segments[0].1.file_name().unwrap().to_owned();
    let log = std::fs::read(&segments[0].1).unwrap();
    drop(store);

    let crash_dir = temp_dir("checkpoint-crash");
    let mut last_clock = 0;
    for prefix_len in 0..=log.len() {
        let _ = std::fs::remove_dir_all(&crash_dir);
        std::fs::create_dir_all(&crash_dir).unwrap();
        std::fs::write(wal::snapshot_path(&crash_dir, PRE as u64), &snapshot).unwrap();
        std::fs::write(crash_dir.join(&seg_name), &log[..prefix_len]).unwrap();
        let recovered =
            Store::open(&crash_dir).unwrap_or_else(|e| panic!("crash point {prefix_len}: {e}"));
        let k = recovered.clock() as usize;
        assert!(
            k >= PRE,
            "crash point {prefix_len}: lost checkpointed history"
        );
        assert_eq!(
            recovered.to_bytes(),
            expected[k],
            "crash point {prefix_len}"
        );
        assert!(recovered.clock() >= last_clock);
        last_clock = recovered.clock();
    }
    assert_eq!(last_clock, (PRE + POST) as u64);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The serving layer recovers with the epoch restored from the log clock,
/// and answers queries over the recovered graph.
#[test]
fn account_service_restores_epoch_from_the_recovered_log() {
    let dir = temp_dir("service");
    let store = Store::create_durable_with(
        &dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions {
            fsync: false,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..40 {
        apply_op(&store, i).unwrap();
    }
    let committed_clock = store.clock();
    drop(store);

    let service = AccountService::open_durable(&dir).unwrap();
    assert_eq!(service.epoch(), committed_clock, "epoch = recovered clock");
    let snapshot = service.snapshot();
    assert_eq!(snapshot.epoch(), committed_clock);
    let consumer = surrogate_core::credential::Consumer::public(&snapshot.lattice);
    let account = service
        .get_account(&consumer, &surrogate_core::account::Strategy::Surrogate)
        .unwrap();
    assert!(account.graph().node_count() > 0);
    // Mutations through the recovered service keep bumping the epoch and
    // keep being durable.
    let store = service.store().unwrap().clone();
    let public = store.predicate("Public").unwrap();
    store.append_node("after-recovery", NodeKind::Data, Features::new(), public);
    assert_eq!(service.epoch(), committed_clock + 1);
    drop(service);
    let reopened = AccountService::open_durable(&dir).unwrap();
    assert_eq!(reopened.epoch(), committed_clock + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A node or surrogate with more features than a frame's `u16` count can
/// record is refused before it is logged. Were it logged, its count
/// would wrap, replay would stop at that frame as corrupt, and it and
/// every acknowledged write after it would be lost.
#[test]
fn an_unrecordable_feature_count_is_refused_not_lost_on_recovery() {
    let dir = temp_dir("feature-count");
    let store = Store::create_durable_with(
        &dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions {
            fsync: false,
            ..Default::default()
        },
    )
    .unwrap();
    let public = store.predicate("Public").unwrap();
    let too_many = || -> Features {
        (0..=codec::MAX_FEATURES as i64)
            .map(|i| (format!("f{i:05}"), i))
            .collect()
    };
    let first = store.append_node("first", NodeKind::Data, Features::new(), public);
    let node = store.try_append_node("wide", NodeKind::Data, too_many(), public);
    assert!(
        matches!(node, Err(StoreError::TooManyFeatures(n)) if n == codec::MAX_FEATURES + 1),
        "{node:?}"
    );
    let surrogate = store.apply_policy(PolicyStatement::AddSurrogate {
        node: first,
        label: "wide".into(),
        features: too_many(),
        lowest: public,
        info_score: 0.5,
    });
    assert!(
        matches!(surrogate, Err(StoreError::TooManyFeatures(_))),
        "{surrogate:?}"
    );
    store.append_node("after", NodeKind::Data, Features::new(), public);
    let acked = store.clock();
    assert_eq!(acked, 2, "the refused writes did not tick the clock");
    drop(store);

    let (recovered, report) = Store::open_reporting(&dir, Default::default()).unwrap();
    assert!(report.truncated.is_none(), "{:?}", report.truncated);
    assert_eq!(recovered.clock(), acked);
    assert_eq!(recovered.node_count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Group commit: no write is acknowledged before a flush covers it
// ---------------------------------------------------------------------------

/// Runs at the start of every flush with the flush's index (from 0, the
/// first segment's header), before the flush takes effect; an `Err`
/// fails the flush.
type SyncHook = Box<dyn Fn(&MemDisk, usize) -> std::io::Result<()> + Send + Sync>;

/// An in-memory device that keeps each segment's written bytes apart
/// from the prefix a flush made durable: a power loss keeps only the
/// latter. The log opens two handles on a segment; they share its file,
/// and a flush through either covers everything written to it, as
/// `fdatasync` does.
#[derive(Default)]
struct MemDisk {
    /// Per segment: written bytes, and how many of them are flushed.
    files: Mutex<BTreeMap<PathBuf, (Vec<u8>, usize)>>,
    syncs: AtomicUsize,
    on_sync: Option<SyncHook>,
    /// Told the length of every append, after it lands.
    on_append: Option<Mutex<mpsc::Sender<usize>>>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk")
            .field("syncs", &self.syncs)
            .finish_non_exhaustive()
    }
}

impl MemDisk {
    /// What a power loss now would leave: each segment's flushed prefix.
    fn flushed(&self) -> Vec<(PathBuf, Vec<u8>)> {
        let files = self.files.lock().unwrap();
        files
            .iter()
            .map(|(path, (bytes, flushed))| (path.clone(), bytes[..*flushed].to_vec()))
            .collect()
    }

    /// What a process crash now would leave: every written byte.
    fn written(&self) -> Vec<(PathBuf, Vec<u8>)> {
        let files = self.files.lock().unwrap();
        files
            .iter()
            .map(|(path, (bytes, _))| (path.clone(), bytes.clone()))
            .collect()
    }
}

/// Recovers the store a crash leaves in `dir`: the clock-0 `snapshot`
/// and the segment `files`.
fn recover_crash(dir: &Path, snapshot: &[u8], files: &[(PathBuf, Vec<u8>)]) -> Store {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(wal::snapshot_path(dir, 0), snapshot).unwrap();
    for (path, bytes) in files {
        std::fs::write(dir.join(path.file_name().unwrap()), bytes).unwrap();
    }
    Store::open(dir).unwrap()
}

#[derive(Debug)]
struct MemIo(Arc<MemDisk>);

#[derive(Debug)]
struct MemFile {
    disk: Arc<MemDisk>,
    path: PathBuf,
}

impl WalIo for MemIo {
    fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        let mut files = self.0.files.lock().unwrap();
        files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(MemFile {
            disk: self.0.clone(),
            path: path.to_path_buf(),
        }))
    }
}

impl WalFile for MemFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut files = self.disk.files.lock().unwrap();
        files
            .get_mut(&self.path)
            .unwrap()
            .0
            .extend_from_slice(bytes);
        drop(files);
        if let Some(appended) = &self.disk.on_append {
            let _ = appended.lock().unwrap().send(bytes.len());
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let index = self.disk.syncs.fetch_add(1, Ordering::SeqCst);
        if let Some(hook) = &self.disk.on_sync {
            hook(&self.disk, index)?;
        }
        let mut files = self.disk.files.lock().unwrap();
        let (bytes, flushed) = files.get_mut(&self.path).unwrap();
        *flushed = bytes.len();
        Ok(())
    }
}

/// A durable store with `fsync` on whose segments live on `disk`.
fn store_on(dir: &Path, disk: &Arc<MemDisk>) -> Store {
    Store::create_durable_with_io(
        dir,
        LATTICE.0,
        LATTICE.1,
        DurabilityOptions::default(),
        Box::new(MemIo(disk.clone())),
    )
    .unwrap()
}

/// Power loss under four concurrent durable writers. At the start of
/// every flush, and after the last write, the device is cut to what the
/// flushes so far made durable; each cut must recover a prefix of the
/// store's history that holds every write acknowledged before it.
/// Mutation caught: acknowledging a write no flush covers — `stage`
/// publishing inline with `fsync` on, as it does with it off — which
/// leaves every acknowledged frame outside the flushed prefix.
#[test]
fn power_loss_keeps_every_acknowledged_write() {
    const WRITERS: usize = 4;
    const WRITES: usize = 30;
    type Cut = (usize, Vec<(PathBuf, Vec<u8>)>);
    let acked: Arc<Mutex<Vec<(RecordId, String)>>> = Arc::default();
    let cuts: Arc<Mutex<Vec<Cut>>> = Arc::default();
    let disk = Arc::new(MemDisk {
        on_sync: Some(Box::new({
            let (acked, cuts) = (acked.clone(), cuts.clone());
            move |disk, _| {
                // Acks first: every one counted returned before this
                // flush began, so an earlier flush must have covered it.
                let seen = acked.lock().unwrap().len();
                cuts.lock().unwrap().push((seen, disk.flushed()));
                Ok(())
            }
        })),
        ..Default::default()
    });
    let dir = temp_dir("power-loss");
    let store = store_on(&dir, &disk);
    let public = store.predicate("Public").unwrap();
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let (store, acked) = (&store, &acked);
            scope.spawn(move || {
                for i in 0..WRITES {
                    let label = format!("w{t}-{i}");
                    let id = store
                        .try_append_node(label.clone(), NodeKind::Data, Features::new(), public)
                        .unwrap();
                    acked.lock().unwrap().push((id, label));
                }
            });
        }
    });
    let acked = acked.lock().unwrap().clone();
    assert_eq!(acked.len(), WRITERS * WRITES);
    let mut cuts = std::mem::take(&mut *cuts.lock().unwrap());
    cuts.push((acked.len(), disk.flushed()));

    let snapshot = std::fs::read(wal::snapshot_path(&dir, 0)).unwrap();
    let crash_dir = temp_dir("power-loss-crash");
    for (n, (seen, files)) in cuts.iter().enumerate() {
        let recovered = recover_crash(&crash_dir, &snapshot, files);
        let clock = recovered.clock();
        assert_eq!(recovered.node_count() as u64, clock, "cut {n}");
        for i in 0..clock as u32 {
            assert_eq!(
                recovered.node(RecordId(i)),
                store.node(RecordId(i)),
                "cut {n}: not a prefix of the history"
            );
        }
        for (id, label) in &acked[..*seen] {
            assert_eq!(
                recovered.node(*id).map(|node| node.label),
                Some(label.clone()),
                "cut {n}: a write acknowledged before the power loss is gone"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The k-th flush fails, for every k across a sequential workload: the
/// write it was to cover fails with the I/O error, no write is
/// acknowledged after it, later writes fail (poisoned, or refused against
/// the state the failure left), the store holds exactly the
/// acknowledged prefix, and the log holds nothing past the failed write.
/// Mutations caught: treating a failed flush as done (`lead_flush`
/// ignoring what `sync` returned: the write is acknowledged), and not
/// poisoning the log (later writes still fail, but their frames reach
/// it, and a process crash would recover them).
#[test]
fn a_failed_flush_fails_its_writes_and_keeps_the_acknowledged_prefix() {
    const OPS: usize = 40;
    let expected = expected_prefixes(OPS);
    let dir = temp_dir("flush-failure");
    let crash_dir = temp_dir("flush-failure-crash");
    // Flush 0 writes the first segment's header; flush k covers op k - 1.
    for k in 1..=OPS {
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(MemDisk {
            on_sync: Some(Box::new(move |_, index| match index == k {
                true => Err(std::io::Error::other("injected flush failure")),
                false => Ok(()),
            })),
            ..Default::default()
        });
        let store = store_on(&dir, &disk);
        let mut acknowledged = 0;
        let mut failed = false;
        for i in 0..OPS {
            match apply_op(&store, i) {
                Ok(()) => {
                    assert!(!failed, "k {k}: op {i} acknowledged after a failed flush");
                    acknowledged += 1;
                }
                Err(e) if failed => assert!(
                    matches!(
                        e,
                        StoreError::WalPoisoned
                            | StoreError::UnknownRecord(_)
                            | StoreError::Graph(_)
                    ),
                    "k {k}: unexpected error after the failure: {e}"
                ),
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Io { path: Some(_), .. }),
                        "k {k}: the flush's own writer gets its I/O error, got {e}"
                    );
                    failed = true;
                }
            }
        }
        assert_eq!(acknowledged, k - 1, "k {k}");
        assert_eq!(store.to_bytes(), expected[acknowledged], "k {k}");
        let public = store.predicate("Public").unwrap();
        assert!(
            matches!(
                store.try_append_node("late", NodeKind::Data, Features::new(), public),
                Err(StoreError::WalPoisoned)
            ),
            "k {k}: a write after the failure is refused as poisoned"
        );
        let snapshot = std::fs::read(wal::snapshot_path(&dir, 0)).unwrap();
        let recovered = recover_crash(&crash_dir, &snapshot, &disk.written());
        let clock = recovered.clock() as usize;
        assert!(
            clock <= k,
            "k {k}: {clock} records written, {acknowledged} acknowledged"
        );
        assert_eq!(recovered.to_bytes(), expected[clock], "k {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// A durable store whose flushes, once `armed`, each announce themselves
/// on the returned receiver and then wait for the outcome the test
/// sends. Every append is announced too.
struct HeldFlushes {
    disk: Arc<MemDisk>,
    armed: Arc<AtomicBool>,
    appended: mpsc::Receiver<usize>,
    started: mpsc::Receiver<()>,
    release: mpsc::Sender<std::io::Result<()>>,
}

impl HeldFlushes {
    fn new() -> Self {
        let armed = Arc::new(AtomicBool::new(false));
        let (appended_tx, appended) = mpsc::channel();
        let (started_tx, started) = mpsc::channel();
        let (release, outcomes) = mpsc::channel::<std::io::Result<()>>();
        let (started_tx, outcomes) = (Mutex::new(started_tx), Mutex::new(outcomes));
        let hook_armed = armed.clone();
        let disk = Arc::new(MemDisk {
            on_sync: Some(Box::new(move |_, _| {
                if !hook_armed.load(Ordering::SeqCst) {
                    return Ok(());
                }
                started_tx.lock().unwrap().send(()).unwrap();
                // A flush the schedule never releases fails instead of
                // hanging the test.
                let outcome = outcomes
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30));
                outcome.unwrap_or_else(|_| Err(std::io::Error::other("flush never released")))
            })),
            on_append: Some(Mutex::new(appended_tx)),
            ..Default::default()
        });
        Self {
            disk,
            armed,
            appended,
            started,
            release,
        }
    }

    /// Waits for the next announcement on `channel`: the store's threads
    /// are blocked or finished otherwise, so a long wait is a failure.
    fn next<T>(channel: &mpsc::Receiver<T>, what: &str) -> T {
        channel
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("no {what}"))
    }

    /// Writer A appends and starts its flush, which is held; then B
    /// appends an edge and C a node. A's flush ends with `outcome`, and
    /// any later flush succeeds. Returns the store, the three results and
    /// how many flushes ran after arming.
    fn a_then_b_and_c(
        self,
        dir: &Path,
        outcome: std::io::Result<()>,
    ) -> (Store, [Result<(), StoreError>; 3], usize) {
        let store = store_on(dir, &self.disk);
        let public = store.predicate("Public").unwrap();
        let x = store.append_node("x", NodeKind::Data, Features::new(), public);
        let y = store.append_node("y", NodeKind::Data, Features::new(), public);
        while self.appended.try_recv().is_ok() {}
        self.armed.store(true, Ordering::SeqCst);
        let syncs_before = self.disk.syncs.load(Ordering::SeqCst);
        let node = |label: &'static str| {
            let store = &store;
            move || {
                store
                    .try_append_node(label, NodeKind::Data, Features::new(), public)
                    .map(|_| ())
            }
        };
        let results = std::thread::scope(|scope| {
            let a = scope.spawn(node("a"));
            Self::next(&self.appended, "append by A");
            Self::next(&self.started, "flush by A");
            let b = scope.spawn(|| store.append_edge(x, y, EdgeKind::InputTo));
            Self::next(&self.appended, "append by B");
            let c = scope.spawn(node("c"));
            Self::next(&self.appended, "append by C");
            self.release.send(outcome).unwrap();
            let a = a.join().unwrap();
            if a.is_ok() {
                // B and C were appended before A's flush ended, so one
                // flush led by either covers both.
                Self::next(&self.started, "flush covering B and C");
                self.release.send(Ok(())).unwrap();
            }
            [a, b.join().unwrap(), c.join().unwrap()]
        });
        assert!(
            self.started.try_recv().is_err(),
            "no flush beyond those released"
        );
        let flushes = self.disk.syncs.load(Ordering::SeqCst) - syncs_before;
        (store, results, flushes)
    }
}

/// One flush covers every frame appended before it began: writer A's
/// flush is held while B and C append; released, it covers A alone, and
/// B and C then share one flush — two flushes for three acknowledged
/// writes. Mutations caught: a flush per write (`GroupCommit::wait`
/// handing every writer `Lead`: three flushes), and a leader publishing
/// what was appended while it flushed (B and C acknowledged with no
/// flush of their own: the second flush never comes).
#[test]
fn one_flush_covers_the_writers_that_queued_behind_another() {
    let dir = temp_dir("group-commit");
    let (store, results, flushes) = HeldFlushes::new().a_then_b_and_c(&dir, Ok(()));
    for (writer, result) in ["A", "B", "C"].iter().zip(&results) {
        assert!(result.is_ok(), "{writer}: {result:?}");
    }
    assert_eq!(flushes, 2, "three writes, two flushes");
    assert_eq!(store.clock(), 5);
    assert_eq!(store.wal_flush_stats(), (4, 5), "x, y, then two groups");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same schedule with A's flush failing: A gets the I/O error, B and
/// C — appended behind it, never flushed — fail as poisoned, and all
/// three are rolled back, B's edge out of the duplicate check too.
/// Mutations caught: `await_flush` taking `Turn::Failed` for an
/// acknowledgement, and a rollback that leaves the edge set alone
/// (re-appending B's edge is refused as a duplicate, not as poisoned).
#[test]
fn a_failed_flush_fails_the_writers_queued_behind_it() {
    let dir = temp_dir("group-commit-failure");
    let failure = Err(std::io::Error::other("injected flush failure"));
    let (store, results, flushes) = HeldFlushes::new().a_then_b_and_c(&dir, failure);
    let [a, b, c] = results;
    assert!(matches!(a, Err(StoreError::Io { .. })), "A: {a:?}");
    assert!(matches!(b, Err(StoreError::WalPoisoned)), "B: {b:?}");
    assert!(matches!(c, Err(StoreError::WalPoisoned)), "C: {c:?}");
    assert_eq!(flushes, 1, "nothing is flushed after a failure");
    assert_eq!(
        (store.clock(), store.node_count(), store.edge_count()),
        (2, 2, 0)
    );
    assert!(matches!(
        store.append_edge(RecordId(0), RecordId(1), EdgeKind::InputTo),
        Err(StoreError::WalPoisoned)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Frame-codec property tests: torn writes and bit flips
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random record for frame-level tests.
fn random_record(rng: &mut StdRng) -> WalRecord {
    match rng.gen_range(0..3) {
        0 => WalRecord::AppendNode(plus_store::NodeRecord {
            label: format!("n{}", rng.gen::<u16>()),
            kind: [NodeKind::Data, NodeKind::Process, NodeKind::Agent][rng.gen_range(0..3usize)],
            features: if rng.gen_bool(0.5) {
                Features::new().with("x", rng.gen::<i64>())
            } else {
                Features::new()
            },
            lowest: surrogate_core::privilege::PrivilegeId(rng.gen_range(0..3)),
            created_at: rng.gen(),
        }),
        1 => WalRecord::AppendEdge(EdgeRecord {
            from: RecordId(rng.gen_range(0..100)),
            to: RecordId(rng.gen_range(0..100)),
            kind: [EdgeKind::InputTo, EdgeKind::GeneratedBy, EdgeKind::Related]
                [rng.gen_range(0..3usize)],
        }),
        _ => WalRecord::ApplyPolicy(PolicyStatement::MarkNode {
            node: RecordId(rng.gen_range(0..100)),
            predicate: rng
                .gen_bool(0.5)
                .then(|| surrogate_core::privilege::PrivilegeId(rng.gen_range(0..3))),
            marking: [Marking::Visible, Marking::Hide, Marking::Surrogate]
                [rng.gen_range(0..3usize)],
        }),
    }
}

/// Walks a frame stream, returning the records decoded before the first
/// torn/corrupt point.
fn walk_frames(bytes: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match codec::decode_frame(&bytes[pos..]) {
            FrameDecode::Complete { record, consumed } => {
                out.push(record);
                pos += consumed;
            }
            FrameDecode::Torn | FrameDecode::Corrupt(_) => break,
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Torn write: any truncation of a frame stream decodes exactly the
    /// frames that fit entirely, never panicking.
    #[test]
    fn torn_frame_streams_decode_a_prefix(count in 1usize..12, seed in any::<u64>(), cut in any::<u16>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<WalRecord> = (0..count).map(|_| random_record(&mut rng)).collect();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for record in &records {
            stream.extend_from_slice(&codec::encode_frame(record));
            boundaries.push(stream.len());
        }
        let cut = cut as usize % (stream.len() + 1);
        let decoded = walk_frames(&stream[..cut]);
        // Exactly the frames wholly inside the cut.
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(decoded.len(), whole);
        for (got, want) in decoded.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
    }

    /// Bit flip: flipping any byte never panics the decoder, and every
    /// record decoded from before the damaged frame is unchanged.
    #[test]
    fn bit_flips_never_fabricate_earlier_records(count in 1usize..10, seed in any::<u64>(), at in any::<u32>(), bit in 0u8..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<WalRecord> = (0..count).map(|_| random_record(&mut rng)).collect();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for record in &records {
            stream.extend_from_slice(&codec::encode_frame(record));
            boundaries.push(stream.len());
        }
        let at = at as usize % stream.len();
        stream[at] ^= 1 << bit;
        let decoded = walk_frames(&stream);
        // Frames that end at or before the flipped byte are undamaged and
        // must decode exactly; everything at or after the damaged frame
        // may decode or not, but never panics and never alters the prefix.
        let intact = boundaries.iter().filter(|&&b| b > 0 && b <= at).count();
        prop_assert!(decoded.len() >= intact, "lost undamaged frames");
        for (got, want) in decoded.iter().take(intact).zip(&records) {
            prop_assert_eq!(got, want);
        }
    }

    /// Arbitrary garbage never panics the frame decoder.
    #[test]
    fn garbage_never_panics_the_frame_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = codec::decode_frame(&bytes);
        let _ = walk_frames(&bytes);
    }

    /// Frame encode → decode is the identity.
    #[test]
    fn frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let frame = codec::encode_frame(&record);
        match codec::decode_frame(&frame) {
            FrameDecode::Complete { record: back, consumed } => {
                prop_assert_eq!(back, record);
                prop_assert_eq!(consumed, frame.len());
            }
            other => prop_assert!(false, "roundtrip failed: {other:?}"),
        }
    }

    /// Durable end-to-end property: a random workload survives
    /// close-and-reopen byte-identically.
    #[test]
    fn random_durable_workloads_roundtrip(ops in 1usize..60, seed in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!(
            "wal-recovery-roundtrip-{}-{seed}-{ops}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::create_durable_with(
            &dir,
            LATTICE.0,
            LATTICE.1,
            DurabilityOptions { fsync: false, segment_max_bytes: 512 },
        )
        .unwrap();
        for i in 0..ops {
            apply_op(&store, i).unwrap();
        }
        let committed = store.to_bytes();
        drop(store);
        let restored = Store::open(&dir).unwrap();
        prop_assert_eq!(restored.to_bytes(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
