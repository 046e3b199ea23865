//! The concurrent account-serving layer: one epoch-versioned API in front
//! of a [`Store`].
//!
//! The paper's deployment sketch (§6.4) computes a protected account once
//! per consumer predicate and then serves many path queries from it. At
//! serving scale that workflow needs two things the bare store does not
//! give you:
//!
//! 1. **A shared, versioned materialization.** [`AccountService::snapshot`]
//!    returns an [`Arc<Snapshot>`] — the materialized graph plus the
//!    **epoch** it corresponds to. The epoch is the store's logical clock:
//!    it bumps on every `append_*` / `apply_policy` mutation, so readers
//!    can pin a consistent view while writers keep appending.
//! 2. **Derived state owned by that snapshot.** Everything computed from
//!    a snapshot is cached *inside* it: the protected accounts
//!    [`AccountService::get_account`] and friends serve, keyed by
//!    `(high-water set, strategy)`, and the sealed response frames
//!    below. No key carries an epoch — a mutation makes the service
//!    build a new snapshot, and the old one's caches are freed with its
//!    last pin, except that accounts an unpinned snapshot held across
//!    appends into new nodes move to its successor, to be extended
//!    rather than generated again. A reader holding an old snapshot
//!    keeps hitting that snapshot's own caches.
//!
//! Lineage queries go through the typed batch API: a [`QueryRequest`]
//! names a root, a direction, a depth bound, and a strategy;
//! [`AccountService::query_batch`] pins one snapshot, resolves every
//! request against the right cached account, and stamps each
//! [`QueryResponse`] with the epoch it answered at.
//!
//! Two more layers keep the hot path flat under load:
//!
//! * **Single-flight generation.** Each account key of a snapshot has
//!   one lock-guarded slot; the first miss generates while holding it,
//!   and concurrent misses of that key block on the slot and take the
//!   result instead of redundantly generating the same account N times
//!   (the cold-cache thundering herd).
//! * **A sealed-frame cache.** [`AccountService::query_sealed`] answers
//!   with the *wire bytes* of the response — encoded, framed,
//!   checksummed — memoized in the snapshot by `(consumer credential
//!   frontier, request bytes)`. A repeat query is a hash lookup plus a
//!   socket write; nothing is re-traversed or re-encoded.
//!   [`AccountService::query_batch_sealed`] seals the same way but is
//!   never cached.
//!
//! ```
//! use plus_store::{AccountService, Direction, QueryRequest, Store};
//! use plus_store::{EdgeKind, NodeKind, PolicyStatement};
//! use std::sync::Arc;
//! use surrogate_core::account::Strategy;
//! use surrogate_core::credential::Consumer;
//! use surrogate_core::feature::Features;
//!
//! # fn main() -> plus_store::Result<()> {
//! let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)])?);
//! let public = store.predicate("Public").unwrap();
//! let high = store.predicate("High").unwrap();
//! let source = store.append_node("source", NodeKind::Agent, Features::new(), high);
//! let report = store.append_node("report", NodeKind::Data, Features::new(), public);
//! store.append_edge(source, report, EdgeKind::InputTo)?;
//!
//! let service = AccountService::new(store.clone());
//! let consumer = Consumer::public(&service.snapshot().lattice);
//! let response = service.query(
//!     &consumer,
//!     &QueryRequest::new(report, Direction::Backward, u32::MAX, Strategy::Surrogate),
//! )?;
//! assert_eq!(response.epoch, store.version());
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use surrogate_core::account::{ProtectedAccount, Strategy};
use surrogate_core::credential::Consumer;
use surrogate_core::graph::NodeId;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::query::{traverse, Direction};

use crate::error::{CodecError, Result, StoreError};
use crate::record::RecordId;
use crate::snapshot::SnapshotIndex;
use crate::store::{LogDelta, Materialized, Store};
use crate::wal::DurabilityOptions;

/// Number of sealed-frame cache shards per snapshot; requests for
/// different frames mostly hit different locks.
const FRAME_SHARDS: usize = 16;

/// Per-shard sealed-frame cap. A shard at capacity is cleared rather
/// than grown without bound — the cache refills from hot traffic, and
/// frames are cheap to rebuild from the (still cached) account.
const FRAME_SHARD_CAP: usize = 4096;

/// An epoch-stamped materialization: the consistent view of the store all
/// accounts and query answers of that epoch are derived from — and the
/// owner of those accounts and sealed answers. Its caches are reachable
/// only through it, so they can never answer for another epoch. When the
/// service retires it unpinned, across writes that only append into new
/// nodes, its accounts move to its successor as seeds to extend
/// (docs/DESIGN.md §4.4); otherwise they are freed with its last `Arc`.
///
/// Dereferences to [`Materialized`], so `snapshot.graph`,
/// `snapshot.lattice`, and `snapshot.context()` work directly.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    shard_epochs: Vec<u64>,
    /// The source's reset generation (see
    /// [`ShardMerge::generation`](crate::ShardMerge::generation)) this
    /// materialization was taken at; always 0 for a live source. A
    /// gather-side slot reset is the one event that can rewind a shard
    /// clock, so [`AccountService::snapshot`] compares `(source_gen,
    /// epoch)` — not `epoch` alone — to decide whether this snapshot is
    /// current. Nothing else reads it.
    source_gen: u64,
    materialized: Materialized,
    index: SnapshotIndex,
    /// One single-flight slot per requested account. Live keys are
    /// consumer classes × strategies — a handful — so one map, not shards.
    accounts: Mutex<HashMap<CacheKey, Arc<AccountSlot>>>,
    /// Accounts of earlier epochs, for the first miss of their key to
    /// extend instead of generating.
    seeds: Mutex<Seeds>,
    /// Pre-sealed response frames; see [`FrameKey`].
    frames: Vec<Mutex<HashMap<FrameKey, Bytes>>>,
}

/// Accounts by key, handed from a retired snapshot to its successor.
type Seeds = HashMap<CacheKey, Arc<ProtectedAccount>>;

impl Snapshot {
    /// `index` is `materialized`'s, ready before the epoch serves, so
    /// every protection and every sealed frame of the epoch runs
    /// hash-free.
    fn stamped(
        stamp: Stamp,
        materialized: Materialized,
        index: SnapshotIndex,
        seeds: Seeds,
    ) -> Self {
        Self {
            epoch: stamp.epoch,
            shard_epochs: stamp.shard_epochs,
            source_gen: stamp.generation,
            materialized,
            index,
            accounts: Mutex::new(HashMap::new()),
            seeds: Mutex::new(seeds),
            frames: (0..FRAME_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Takes the retired snapshot apart: its materialization and index,
    /// and the seeds it did not consume, overwritten by every account it
    /// holds.
    fn retire(self) -> (Materialized, SnapshotIndex, Seeds) {
        let mut seeds = self.seeds.into_inner();
        for (key, slot) in self.accounts.into_inner() {
            if let Some(account) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                seeds.insert(key, account);
            }
        }
        (self.materialized, self.index, seeds)
    }

    /// The store version this materialization corresponds to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-shard clock vector this materialization reflects, stamped
    /// onto every [`QueryResponse`] answered from it. Empty for an
    /// unsharded service; a single shard's slot on a shard server (the
    /// other slots are zero — an honest lower bound on histories this
    /// server does not follow); the full gather vector on a
    /// scatter-gather service, where [`epoch`](Self::epoch) is its sum.
    pub fn shard_epochs(&self) -> &[u64] {
        &self.shard_epochs
    }

    /// The materialized graph, lattice, markings, and catalog.
    pub fn materialized(&self) -> &Materialized {
        &self.materialized
    }

    /// The dense CSR index of this materialization, built or extended
    /// at snapshot time and shared by every protection against this
    /// epoch.
    pub fn index(&self) -> &SnapshotIndex {
        &self.index
    }

    fn frame_shard(&self, key: &FrameKey) -> &Mutex<HashMap<FrameKey, Bytes>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.frames[(hasher.finish() as usize) % FRAME_SHARDS]
    }
}

impl Deref for Snapshot {
    type Target = Materialized;

    fn deref(&self) -> &Materialized {
        &self.materialized
    }
}

/// One lineage query against the service: traverse from `root` in
/// `direction` up to `max_depth` hops, through the account produced by
/// `strategy`.
///
/// This is a wire type: `strategy` travels as the [`Strategy`] tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The record to traverse from.
    pub root: RecordId,
    /// Upstream (`Backward`), downstream (`Forward`), or neighborhood.
    pub direction: Direction,
    /// Hop bound (`u32::MAX` for unbounded).
    pub max_depth: u32,
    /// Which built-in protection strategy to answer through.
    pub strategy: Strategy,
    /// Account predicate. `None` uses the consumer's whole credential
    /// frontier (the Def. 6 multi-predicate account).
    pub predicate: Option<PrivilegeId>,
}

impl QueryRequest {
    /// A request answered through the consumer's credential frontier.
    pub fn new(root: RecordId, direction: Direction, max_depth: u32, strategy: Strategy) -> Self {
        Self {
            root,
            direction,
            max_depth,
            strategy,
            predicate: None,
        }
    }

    /// Pins the request to one account predicate instead of the frontier.
    pub fn with_predicate(mut self, predicate: PrivilegeId) -> Self {
        self.predicate = Some(predicate);
        self
    }
}

/// The answer to one [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// The epoch the answer was computed at. Within one
    /// [`query_batch`](AccountService::query_batch) call every response
    /// carries the same epoch.
    pub epoch: u64,
    /// The request's root, echoed back.
    pub root: RecordId,
    /// Visited records in BFS order; empty when the root is invisible to
    /// the consumer.
    pub rows: Vec<ProtectedLineageRow>,
    /// Per-shard clocks of a sharded deployment (see
    /// [`Snapshot::shard_epochs`]). Empty when the answering service is
    /// unsharded — `epoch` alone identifies the view.
    pub shard_epochs: Vec<u64>,
}

/// A lineage row as seen through a protected account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedLineageRow {
    /// The original record reached (known to the server, not the client).
    pub record: RecordId,
    /// The label the consumer sees (original or surrogate).
    pub label: String,
    /// Hops from the root *in the protected account*.
    pub depth: u32,
    /// Whether the consumer sees a surrogate stand-in.
    pub surrogate: bool,
}

/// Key of one protected account within its [`Snapshot`]: the sorted
/// maximal antichain of the requested high-water set, and the strategy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    preds: Vec<PrivilegeId>,
    strategy: Strategy,
}

/// The single-flight slot of one [`CacheKey`]: empty until the first
/// miss has generated the account, then the account for as long as the
/// snapshot lives.
type AccountSlot = StdMutex<Option<Arc<ProtectedAccount>>>;

/// Serves the slot's account, generating it first if the slot is empty.
///
/// `generate` runs **while holding the slot**, so concurrent misses of
/// one key block here and take the first caller's result — a cold key
/// under N concurrent requests costs one generation, not N. A generator
/// that fails or unwinds leaves the slot empty: its error reaches only
/// its own caller, and the next one generates. Poison is ignored for
/// that reason — the slot is only ever written whole, after `generate`
/// has returned.
fn fill_slot(
    slot: &AccountSlot,
    generate: impl FnOnce() -> Result<ProtectedAccount>,
) -> Result<Arc<ProtectedAccount>> {
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(account) = slot.as_ref() {
        return Ok(account.clone());
    }
    let account = Arc::new(generate()?);
    *slot = Some(account.clone());
    Ok(account)
}

/// Key of one pre-sealed response frame within its [`Snapshot`]: the
/// consumer's sorted credential frontier and the canonical wire bytes
/// of the query. The frontier fully determines both authorization and
/// account content, so consumer *names* are deliberately absent —
/// consumers holding the same credentials see byte-identical answers
/// and share cache entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FrameKey {
    frontier: Vec<PrivilegeId>,
    request: Vec<u8>,
}

enum Source {
    /// A live store: the epoch tracks its version.
    Live(Arc<Store>),
    /// A scatter-gather merge of every shard's record stream: the epoch
    /// is the sum of the per-shard clocks, and responses carry the full
    /// clock vector.
    Sharded(Arc<crate::shard::MergedSource>),
}

/// The source state a materialization reflects, as its [`Snapshot`]
/// records it.
struct Stamp {
    generation: u64,
    epoch: u64,
    shard_epochs: Vec<u64>,
}

impl Stamp {
    /// A store's stamp at `epoch`. A shard server stamps its own slot of
    /// the epoch vector; zeros elsewhere are honest lower bounds on
    /// histories it does not follow.
    fn live(store: &Store, epoch: u64) -> Self {
        let shard_epochs = match store.partition() {
            Some(p) => {
                let mut v = vec![0; p.count() as usize];
                v[p.index() as usize] = epoch;
                v
            }
            None => Vec::new(),
        };
        Self {
            generation: 0,
            epoch,
            shard_epochs,
        }
    }
}

impl Source {
    /// What the source gained since `base` was materialized from it,
    /// stamped with the state it brings `base` to; `None` when `base`
    /// must be rebuilt.
    fn delta_since(&self, base: &Materialized) -> Option<(Stamp, LogDelta)> {
        match self {
            Source::Live(store) => {
                let delta = store.delta_since(base)?;
                Some((Stamp::live(store, delta.clock()), delta))
            }
            Source::Sharded(merged) => {
                let (generation, epoch, shard_epochs, delta) = merged.delta_stamped(base)?;
                let stamp = Stamp {
                    generation,
                    epoch,
                    shard_epochs,
                };
                Some((stamp, delta))
            }
        }
    }

    /// The whole source, materialized, with its stamp.
    fn materialize(&self) -> (Stamp, Materialized) {
        match self {
            Source::Live(store) => {
                let (epoch, materialized) = store.materialize_versioned();
                (Stamp::live(store, epoch), materialized)
            }
            Source::Sharded(merged) => {
                let (generation, epoch, shard_epochs, materialized) = merged.materialize_stamped();
                let stamp = Stamp {
                    generation,
                    epoch,
                    shard_epochs,
                };
                (stamp, materialized)
            }
        }
    }
}

/// Thread-safe, epoch-versioned protected-account server over a [`Store`].
///
/// See the [module docs](self) for the serving model. All methods take
/// `&self`; share the service across threads behind an `Arc`.
pub struct AccountService {
    source: Source,
    current: RwLock<Option<Arc<Snapshot>>>,
    frame_hits: AtomicU64,
    frame_misses: AtomicU64,
    /// Accounts made on the account-miss path: extended or generated.
    protects: Builds,
    /// Snapshots made: extended or rebuilt.
    builds: Builds,
}

/// Lifetime counts of one kind of build — from the predecessor, or
/// from scratch — and the total time both took.
#[derive(Default)]
struct Builds {
    extended: AtomicU64,
    scratch: AtomicU64,
    nanos: AtomicU64,
}

impl Builds {
    fn record(&self, extended: bool, started: Instant) {
        let kind = if extended {
            &self.extended
        } else {
            &self.scratch
        };
        kind.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// `(extended, from scratch, total time)`.
    fn read(&self) -> (u64, u64, Duration) {
        (
            self.extended.load(Ordering::Relaxed),
            self.scratch.load(Ordering::Relaxed),
            Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
        )
    }
}

impl std::fmt::Debug for AccountService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountService")
            .field("epoch", &self.epoch())
            .field("cached_accounts", &self.cached_accounts())
            .field("cached_frames", &self.cached_frames())
            .finish()
    }
}

impl AccountService {
    /// A service over a live store. Mutations through the shared `Arc`
    /// bump the epoch and invalidate cached accounts automatically.
    pub fn new(store: Arc<Store>) -> Self {
        Self::with_source(Source::Live(store))
    }

    /// A service over a scatter-gather merge of shard feeds: queries
    /// traverse the merged whole-keyspace graph, the epoch is the sum
    /// of the per-shard clocks, and every response carries the full
    /// clock vector ([`QueryResponse::shard_epochs`]).
    pub fn sharded(source: Arc<crate::shard::MergedSource>) -> Self {
        Self::with_source(Source::Sharded(source))
    }

    fn with_source(source: Source) -> Self {
        Self {
            source,
            current: RwLock::new(None),
            frame_hits: AtomicU64::new(0),
            frame_misses: AtomicU64::new(0),
            protects: Builds::default(),
            builds: Builds::default(),
        }
    }

    /// Opens (recovers) the durable store under `dir` and stands a
    /// service up in front of it, with the epoch restored from the
    /// recovered log clock.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_durable_with(dir, DurabilityOptions::default())
    }

    /// [`open_durable`](Self::open_durable) with explicit options.
    pub fn open_durable_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self> {
        Ok(Self::new(Arc::new(Store::open_with(dir, options)?)))
    }

    /// The underlying store, when this service fronts a live one.
    pub fn store(&self) -> Option<&Arc<Store>> {
        match &self.source {
            Source::Live(store) => Some(store),
            Source::Sharded(_) => None,
        }
    }

    /// The current epoch: the live store's version, or the sum of the
    /// per-shard clocks for a sharded service.
    /// Strictly monotone over the lifetime of the service.
    pub fn epoch(&self) -> u64 {
        match &self.source {
            Source::Live(store) => store.version(),
            Source::Sharded(merged) => merged.version(),
        }
    }

    /// The `(reset generation, version)` pair identifying the source's
    /// current state; the generation is 0 except for a sharded source.
    fn source_state(&self) -> (u64, u64) {
        match &self.source {
            Source::Live(store) => (0, store.version()),
            Source::Sharded(merged) => merged.stamped_version(),
        }
    }

    /// The current epoch-stamped materialization, built (and cached)
    /// whenever the source has moved past the cached epoch — or, on a
    /// sharded source, whenever a slot reset bumped the generation. The
    /// build extends the snapshot it retires with what the source gained
    /// since ([`Store::delta_since`],
    /// [`ShardMerge::delta_since`](crate::ShardMerge::delta_since)); what
    /// no delta expresses is rebuilt from the whole source.
    /// [`snapshot_stats`](Self::snapshot_stats) counts both.
    ///
    /// When no reader pins the retired snapshot and the source gained
    /// only appends into new nodes, its accounts are not freed: they move
    /// to the new snapshot, and the first miss of each key extends its
    /// account instead of generating one (docs/DESIGN.md §4.4).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let (source_gen, source_epoch) = self.source_state();
        {
            let cached = self.current.read();
            if let Some(snapshot) = cached.as_ref() {
                if snapshot.epoch == source_epoch && snapshot.source_gen == source_gen {
                    return snapshot.clone();
                }
            }
        }
        let mut cached = self.current.write();
        // Another writer may have rebuilt while we waited for the lock.
        // (Re-read the source state: it may have advanced again.)
        let (source_gen, source_epoch) = self.source_state();
        if let Some(snapshot) = cached.as_ref() {
            if snapshot.epoch == source_epoch && snapshot.source_gen == source_gen {
                return snapshot.clone();
            }
        }
        let started = Instant::now();
        // Build on the snapshot being retired: take it apart when this is
        // the last pin, clone its materialization (payloads are shared)
        // and its index while a reader still holds one. It is never put
        // back: a build reads the source's state and records under one
        // lock, and that state only moves forward — except across a slot
        // reset, whose new generation is adopted regardless.
        let (base, seeds) = match cached.take().map(Arc::try_unwrap) {
            Some(Ok(retired)) => {
                let (materialized, index, seeds) = retired.retire();
                (Some((materialized, index)), seeds)
            }
            Some(Err(pinned)) => (
                Some((pinned.materialized.clone(), pinned.index.clone())),
                Seeds::new(),
            ),
            None => (None, Seeds::new()),
        };
        let extended = base.and_then(|(mut base, mut index)| {
            let (stamp, delta) = self.source.delta_since(&base)?;
            // Seeds outlive only the writes an account extends across.
            let seeds = if delta.appends_into_new_nodes() {
                seeds
            } else {
                Seeds::new()
            };
            // The index moves with its materialization: the delta only
            // appends, so the predecessor's index extends by what the
            // graph gained.
            base.extend(delta);
            index.extend(&base);
            Some((stamp, base, index, seeds))
        });
        let built = extended.is_some();
        let (stamp, materialized, index, seeds) = extended.unwrap_or_else(|| {
            let (stamp, materialized) = self.source.materialize();
            let index = SnapshotIndex::build(&materialized);
            (stamp, materialized, index, Seeds::new())
        });
        let snapshot = Arc::new(Snapshot::stamped(stamp, materialized, index, seeds));
        self.builds.record(built, started);
        // Swapping `current` is the whole invalidation: the retired
        // snapshot's frames, and its accounts unless they became seeds,
        // go with its last pin. When that pin was the service's it was
        // freed above, still under the write lock: freeing a
        // materialization while the other readers, let in, allocate their
        // next account contends on the allocator (`churn` read 40 %
        // slower fresh reads with the drop moved past the unlock).
        *cached = Some(snapshot.clone());
        snapshot
    }

    /// Accounts cached (or being generated) for the snapshot the service
    /// currently serves.
    pub fn cached_accounts(&self) -> usize {
        self.current
            .read()
            .as_ref()
            .map_or(0, |snapshot| snapshot.accounts.lock().len())
    }

    /// The cached account for the high-water set `preds` at the current
    /// epoch — the unauthenticated operator API ([`get_account`] and
    /// friends add the consumer credential check).
    ///
    /// [`get_account`]: Self::get_account
    ///
    /// # Panics
    /// Panics if `preds` is empty, matching the generators.
    pub fn protect(
        &self,
        preds: &[PrivilegeId],
        strategy: &Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        self.protect_at(&self.snapshot(), preds, strategy)
    }

    /// [`protect`](Self::protect) against a pinned snapshot: the returned
    /// account is generated from — and cached in — exactly that snapshot,
    /// so a reader holding a snapshot gets answers consistent with it
    /// even while writers advance the store.
    pub fn protect_at(
        &self,
        snapshot: &Snapshot,
        preds: &[PrivilegeId],
        strategy: &Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        assert!(!preds.is_empty(), "high-water set must be non-empty");
        let mut preds = snapshot.lattice.maximal_antichain(preds);
        // The key must identify the *set*: {a, b} and {b, a} are one
        // account.
        preds.sort_unstable_by_key(|p| p.0);
        let key = CacheKey {
            preds,
            strategy: *strategy,
        };
        let slot = {
            let mut accounts = snapshot.accounts.lock();
            match accounts.get(&key) {
                Some(slot) => slot.clone(),
                None => accounts.entry(key.clone()).or_default().clone(),
            }
        };
        // The map lock is released: generation is the expensive step and
        // serializes only requests for this one key. The key's seed is
        // extended if nothing else holds it; a refused extension
        // generates.
        fill_slot(&slot, || {
            let ctx = snapshot.context().with_csr(snapshot.index.csr());
            let started = Instant::now();
            let seed = snapshot.seeds.lock().remove(&key);
            let extended = seed
                .and_then(|seed| Arc::try_unwrap(seed).ok())
                .and_then(|seed| ctx.extend_account(seed));
            let built = extended.is_some();
            let account = extended.map_or_else(|| ctx.protect_set(&key.preds, key.strategy), Ok);
            self.protects.record(built, started);
            account.map_err(StoreError::from)
        })
    }

    /// The account for the consumer's *entire* credential frontier — the
    /// multi-predicate high-water account (Def. 6) a consumer holding
    /// several incomparable grants is entitled to.
    pub fn get_account(
        &self,
        consumer: &Consumer,
        strategy: &Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        let snapshot = self.snapshot();
        self.frontier_account_at(&snapshot, consumer, strategy)
    }

    /// The single-predicate account for `predicate`, after checking the
    /// consumer satisfies it — an account's high-water set must be
    /// dominated by the consumer's credentials (§3.1).
    pub fn get_account_for(
        &self,
        consumer: &Consumer,
        predicate: PrivilegeId,
        strategy: &Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        self.authorize(consumer, predicate)?;
        self.protect_at(&self.snapshot(), &[predicate], strategy)
    }

    fn frontier_account_at(
        &self,
        snapshot: &Snapshot,
        consumer: &Consumer,
        strategy: &Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        let frontier = consumer.frontier(&snapshot.lattice);
        if frontier.is_empty() {
            // A consumer with no satisfied predicates cannot even present
            // Public; there is no account to serve.
            return Err(StoreError::NotAuthorized {
                consumer: consumer.name().to_string(),
                predicate: snapshot.lattice.public().0,
            });
        }
        self.protect_at(snapshot, &frontier, strategy)
    }

    fn authorize(&self, consumer: &Consumer, predicate: PrivilegeId) -> Result<()> {
        if consumer.satisfies(predicate) {
            Ok(())
        } else {
            Err(StoreError::NotAuthorized {
                consumer: consumer.name().to_string(),
                predicate: predicate.0,
            })
        }
    }

    /// Answers one lineage query. Equivalent to a one-element
    /// [`query_batch`](Self::query_batch).
    pub fn query(&self, consumer: &Consumer, request: &QueryRequest) -> Result<QueryResponse> {
        Ok(self
            .query_batch(consumer, std::slice::from_ref(request))?
            .remove(0))
    }

    /// Answers many lineage queries against **one** pinned snapshot: every
    /// response carries the same epoch, and requests sharing a
    /// `(predicate, strategy)` pair share one account resolution — a batch
    /// of N queries costs at most one materialization plus one cache
    /// round-trip (and at most one generation) per distinct pair, however
    /// large N is.
    ///
    /// The batch is all-or-nothing: the first request that fails (e.g. an
    /// unauthorized pinned predicate) fails the whole call and already
    /// computed responses are discarded. Split batches per trust domain if
    /// partial answers are needed.
    pub fn query_batch(
        &self,
        consumer: &Consumer,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>> {
        self.query_batch_at(&self.snapshot(), consumer, requests)
    }

    /// [`query_batch`](Self::query_batch) against a pinned snapshot, so
    /// the sealed-frame cache answers from exactly the snapshot it
    /// stores the frame in.
    fn query_batch_at(
        &self,
        snapshot: &Snapshot,
        consumer: &Consumer,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>> {
        // Resolve each distinct (predicate, strategy) pair once; the
        // per-request loop then only clones Arcs and traverses.
        let mut accounts: HashMap<(Option<PrivilegeId>, Strategy), Arc<ProtectedAccount>> =
            HashMap::new();
        requests
            .iter()
            .map(|request| {
                let account = match accounts.entry((request.predicate, request.strategy)) {
                    std::collections::hash_map::Entry::Occupied(hit) => hit.get().clone(),
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        let account = match request.predicate {
                            Some(predicate) => {
                                self.authorize(consumer, predicate)?;
                                self.protect_at(snapshot, &[predicate], &request.strategy)?
                            }
                            None => {
                                self.frontier_account_at(snapshot, consumer, &request.strategy)?
                            }
                        };
                        slot.insert(account).clone()
                    }
                };
                Ok(QueryResponse {
                    epoch: snapshot.epoch,
                    root: request.root,
                    rows: lineage_rows(
                        &account,
                        request.root,
                        request.direction,
                        request.max_depth,
                    ),
                    shard_epochs: snapshot.shard_epochs.clone(),
                })
            })
            .collect()
    }

    /// Answers one lineage query as a **pre-sealed wire frame**: the
    /// exact `len | crc32 | payload` bytes of the
    /// [`Response::Query`](crate::wire::Response::Query) answer, ready
    /// to write to a socket verbatim. Repeat queries are served from the
    /// sealed-frame cache (see the [module docs](self)); a cached frame
    /// is byte-identical to a freshly encoded one by construction — it
    /// *is* the first encoding, memoized.
    ///
    /// ```
    /// use plus_store::{AccountService, Direction, NodeKind, QueryRequest, Store, Strategy};
    /// use std::sync::Arc;
    /// use surrogate_core::credential::Consumer;
    /// use surrogate_core::feature::Features;
    ///
    /// # fn main() -> plus_store::Result<()> {
    /// let store = Arc::new(Store::new(&["Public"], &[])?);
    /// let public = store.predicate("Public").unwrap();
    /// let root = store.append_node("report", NodeKind::Data, Features::new(), public);
    /// let service = AccountService::new(store);
    /// let consumer = Consumer::public(&service.snapshot().lattice);
    /// let request = QueryRequest::new(root, Direction::Backward, 1, Strategy::Surrogate);
    ///
    /// let frame = service.query_sealed(&consumer, &request)?;
    /// // The frame is the exact sealed wire answer; a repeat is a cache hit.
    /// assert_eq!(service.query_sealed(&consumer, &request)?, frame);
    /// assert_eq!(service.frame_cache_stats(), (1, 1), "(hits, misses)");
    /// # Ok(())
    /// # }
    /// ```
    pub fn query_sealed(&self, consumer: &Consumer, request: &QueryRequest) -> Result<Bytes> {
        let snapshot = self.snapshot();
        let mut frontier = consumer.frontier(&snapshot.lattice);
        frontier.sort_unstable_by_key(|p| p.0);
        let requests = std::slice::from_ref(request);
        let key = FrameKey {
            frontier,
            request: crate::wire::encode_query_key(requests, false)?,
        };
        let shard = snapshot.frame_shard(&key);
        if let Some(hit) = shard.lock().get(&key) {
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.frame_misses.fetch_add(1, Ordering::Relaxed);
        let mut responses = self.query_batch_at(&snapshot, consumer, requests)?;
        let sealed = seal_response(&crate::wire::Response::Query(responses.remove(0)))?;
        let mut guard = shard.lock();
        if guard.len() >= FRAME_SHARD_CAP {
            guard.clear();
        }
        guard.insert(key, sealed.clone());
        Ok(sealed)
    }

    /// [`query_batch`](Self::query_batch) as a pre-sealed
    /// [`Response::Batch`](crate::wire::Response::Batch) frame. Batch
    /// frames are computed and sealed on every call, never cached: a
    /// batch is keyed by its whole request bytes, which scan traffic does
    /// not repeat. Each call counts as one miss in
    /// [`frame_cache_stats`](Self::frame_cache_stats).
    pub fn query_batch_sealed(
        &self,
        consumer: &Consumer,
        requests: &[QueryRequest],
    ) -> Result<Bytes> {
        let snapshot = self.snapshot();
        self.frame_misses.fetch_add(1, Ordering::Relaxed);
        let responses = self.query_batch_at(&snapshot, consumer, requests)?;
        seal_response(&crate::wire::Response::Batch(responses))
    }

    /// Lifetime sealed-frame cache counters, `(hits, misses)`.
    pub fn frame_cache_stats(&self) -> (u64, u64) {
        (
            self.frame_hits.load(Ordering::Relaxed),
            self.frame_misses.load(Ordering::Relaxed),
        )
    }

    /// Lifetime account cost on the cache-miss path: how many accounts
    /// were extended from a seed an earlier epoch left, how many were
    /// generated by a protection strategy, and the total time both took
    /// (a refused extension counts with the generation it falls back
    /// to) — `(extended, generated, time)`, what a fresh read pays
    /// beyond a cached one. A cached read moves none of them.
    pub fn protect_stats(&self) -> (u64, u64, Duration) {
        self.protects.read()
    }

    /// Lifetime snapshot-build cost: how many epochs were built by
    /// extending their predecessor with the source's delta, how many were
    /// rebuilt from the whole source (the first, a partitioned store, a
    /// store whose history was swapped, a gather epoch no delta
    /// expresses), and the total time
    /// both kinds took, index included — `(extended, rebuilt,
    /// time)`. A read at the cached epoch moves none of them.
    pub fn snapshot_stats(&self) -> (u64, u64, Duration) {
        self.builds.read()
    }

    /// Sealed frames cached for the snapshot the service currently
    /// serves.
    pub fn cached_frames(&self) -> usize {
        self.current.read().as_ref().map_or(0, |snapshot| {
            snapshot.frames.iter().map(|s| s.lock().len()).sum()
        })
    }
}

/// Encodes and seals one response into its wire frame.
fn seal_response(response: &crate::wire::Response) -> Result<Bytes> {
    let payload = crate::wire::encode_response(response)?;
    if payload.len() as u64 > crate::codec::MAX_FRAME_LEN as u64 {
        // The answer cannot travel in one frame; surface the same
        // error an oversized frame would raise at the codec layer
        // (callers answer "split the batch").
        return Err(StoreError::Codec(CodecError::FrameTooLarge(
            u32::try_from(payload.len()).unwrap_or(u32::MAX),
        )));
    }
    Ok(Bytes::from(crate::codec::seal_frame(&payload)))
}

/// Traverses a protected account from `root`, mapping each visited node
/// back to its record and surrogate status. Empty when the root has no
/// corresponding account node.
pub fn lineage_rows(
    account: &ProtectedAccount,
    root: RecordId,
    direction: Direction,
    max_depth: u32,
) -> Vec<ProtectedLineageRow> {
    let Some(root2) = account.account_node(NodeId(root.0)) else {
        return Vec::new(); // root invisible: nothing to traverse
    };
    let traversal = traverse(account.graph(), root2, direction, max_depth);
    traversal
        .iter()
        .map(|(n2, depth)| {
            let original = account.original_node(n2);
            ProtectedLineageRow {
                record: RecordId(original.0),
                label: account.graph().node(n2).label.clone(),
                depth,
                surrogate: !matches!(
                    account.correspondence(n2),
                    surrogate_core::account::Correspondence::Original
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EdgeKind, NodeKind, PolicyStatement};
    use surrogate_core::feature::Features;
    use surrogate_core::privilege::PrivilegeLattice;

    /// source(High) → mid(Public) → sink(Public), with a Public surrogate
    /// for the source.
    fn setup() -> (Arc<Store>, Vec<RecordId>) {
        let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)]).unwrap());
        let public = store.predicate("Public").unwrap();
        let high = store.predicate("High").unwrap();
        let source = store.append_node("secret source", NodeKind::Agent, Features::new(), high);
        let mid = store.append_node("analysis", NodeKind::Process, Features::new(), public);
        let sink = store.append_node("report", NodeKind::Data, Features::new(), public);
        store.append_edge(source, mid, EdgeKind::InputTo).unwrap();
        store.append_edge(mid, sink, EdgeKind::GeneratedBy).unwrap();
        // Fig. 2(a) pattern: incidences stay Visible, so the Public
        // surrogate is wired in place of the source.
        store
            .apply_policy(PolicyStatement::AddSurrogate {
                node: source,
                label: "a trusted source".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.3,
            })
            .unwrap();
        (store, vec![source, mid, sink])
    }

    #[test]
    fn snapshot_tracks_store_version() {
        let (store, _) = setup();
        let service = AccountService::new(store.clone());
        let before = service.snapshot();
        assert_eq!(before.epoch(), store.version());
        let public = store.predicate("Public").unwrap();
        store.append_node("extra", NodeKind::Data, Features::new(), public);
        let after = service.snapshot();
        assert_eq!(after.epoch(), before.epoch() + 1);
        assert_eq!(after.graph.node_count(), before.graph.node_count() + 1);
        // Pinned snapshots are unaffected by later mutations.
        assert_eq!(before.graph.node_count(), 3);
    }

    #[test]
    fn accounts_are_cached_per_epoch() {
        let (store, _) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let first = service.protect(&[public], &Strategy::Surrogate).unwrap();
        let second = service.protect(&[public], &Strategy::Surrogate).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same cached account");
        assert_eq!(service.cached_accounts(), 1);

        // A mutation bumps the epoch; the account regenerates and the
        // stale entry is evicted.
        store.append_node("late", NodeKind::Data, Features::new(), public);
        let third = service.protect(&[public], &Strategy::Surrogate).unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "stale epoch not served");
        assert_eq!(third.graph().node_count(), first.graph().node_count() + 1);
        assert_eq!(service.cached_accounts(), 1, "stale entry evicted");
    }

    #[test]
    fn strategies_cache_independently() {
        let (store, _) = setup();
        let service = AccountService::new(store);
        let public = service.snapshot().lattice.public();
        let sur = service.protect(&[public], &Strategy::Surrogate).unwrap();
        let hide = service.protect(&[public], &Strategy::HideEdges).unwrap();
        assert!(!Arc::ptr_eq(&sur, &hide));
        assert_eq!(service.cached_accounts(), 2);
    }

    #[test]
    fn get_account_checks_credentials() {
        let (store, _) = setup();
        let service = AccountService::new(store);
        let snapshot = service.snapshot();
        let high = snapshot.lattice.by_name("High").unwrap();
        let consumer = Consumer::public(&snapshot.lattice);
        assert!(matches!(
            service.get_account_for(&consumer, high, &Strategy::Surrogate),
            Err(StoreError::NotAuthorized { .. })
        ));
        let insider = Consumer::new("insider", &snapshot.lattice, &[high]);
        let account = service
            .get_account_for(&insider, high, &Strategy::Surrogate)
            .unwrap();
        assert_eq!(account.graph().node_count(), 3);
    }

    #[test]
    fn frontier_account_serves_the_def6_set() {
        let store = Arc::new(Store::new(&["Public", "A", "B"], &[(1, 0), (2, 0)]).unwrap());
        let a = store.predicate("A").unwrap();
        let b = store.predicate("B").unwrap();
        let public = store.predicate("Public").unwrap();
        let na = store.append_node("na", NodeKind::Data, Features::new(), a);
        let np = store.append_node("np", NodeKind::Data, Features::new(), public);
        let nb = store.append_node("nb", NodeKind::Data, Features::new(), b);
        store.append_edge(na, np, EdgeKind::Related).unwrap();
        store.append_edge(np, nb, EdgeKind::Related).unwrap();
        let service = AccountService::new(store);
        let snapshot = service.snapshot();
        let dual = Consumer::new("dual", &snapshot.lattice, &[a, b]);
        let account = service.get_account(&dual, &Strategy::Surrogate).unwrap();
        assert_eq!(account.high_water().len(), 2);
        assert_eq!(account.graph().node_count(), 3);
        // Cached: the same Arc comes back.
        let again = service.get_account(&dual, &Strategy::Surrogate).unwrap();
        assert!(Arc::ptr_eq(&account, &again));
    }

    #[test]
    fn query_batch_shares_one_epoch_and_account() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let consumer = Consumer::public(&service.snapshot().lattice);
        let requests: Vec<QueryRequest> = ids
            .iter()
            .map(|&root| {
                QueryRequest::new(root, Direction::Backward, u32::MAX, Strategy::Surrogate)
            })
            .collect();
        let responses = service.query_batch(&consumer, &requests).unwrap();
        assert_eq!(responses.len(), 3);
        for response in &responses {
            assert_eq!(response.epoch, store.version());
        }
        assert_eq!(service.cached_accounts(), 1, "one account for the batch");
        // Upstream of the sink: analysis then the surrogate.
        let sink_rows = &responses[2].rows;
        assert_eq!(sink_rows.len(), 2);
        assert_eq!(sink_rows[0].label, "analysis");
        assert!(!sink_rows[0].surrogate);
        assert_eq!(sink_rows[1].label, "a trusted source");
        assert!(sink_rows[1].surrogate);
    }

    #[test]
    fn query_with_pinned_predicate_authorizes() {
        let (store, ids) = setup();
        let service = AccountService::new(store);
        let snapshot = service.snapshot();
        let high = snapshot.lattice.by_name("High").unwrap();
        let consumer = Consumer::public(&snapshot.lattice);
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate)
            .with_predicate(high);
        assert!(matches!(
            service.query(&consumer, &request),
            Err(StoreError::NotAuthorized { .. })
        ));
        // A consumer holding the predicate sees the original, not the
        // surrogate the public gets.
        let insider = Consumer::new("insider", &snapshot.lattice, &[high]);
        let rows = service.query(&insider, &request).unwrap().rows;
        assert_eq!(rows[1].label, "secret source");
        assert!(!rows[1].surrogate);
    }

    #[test]
    fn invisible_root_yields_empty_rows() {
        let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)]).unwrap());
        let high = store.predicate("High").unwrap();
        let source = store.append_node("secret", NodeKind::Agent, Features::new(), high);
        let service = AccountService::new(store);
        let consumer = Consumer::public(&service.snapshot().lattice);
        let response = service
            .query(
                &consumer,
                &QueryRequest::new(source, Direction::Forward, u32::MAX, Strategy::Surrogate),
            )
            .unwrap();
        assert!(response.rows.is_empty());
    }

    #[test]
    fn cache_key_is_order_insensitive_in_preds() {
        let store = Arc::new(Store::new(&["Public", "A", "B"], &[(1, 0), (2, 0)]).unwrap());
        let a = store.predicate("A").unwrap();
        let b = store.predicate("B").unwrap();
        store.append_node("na", NodeKind::Data, Features::new(), a);
        let service = AccountService::new(store);
        let ab = service.protect(&[a, b], &Strategy::Surrogate).unwrap();
        let ba = service.protect(&[b, a], &Strategy::Surrogate).unwrap();
        assert!(Arc::ptr_eq(&ab, &ba), "{{a,b}} and {{b,a}} are one account");
        assert_eq!(service.cached_accounts(), 1);
    }

    #[test]
    fn sealed_frames_match_fresh_encodings_and_hit_the_cache() {
        let (store, ids) = setup();
        let service = AccountService::new(store);
        let consumer = Consumer::public(&service.snapshot().lattice);
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);

        let cold = service.query_sealed(&consumer, &request).unwrap();
        // Golden check: the cached sealed frame is the seal of the
        // freshly encoded typed answer, byte for byte.
        let fresh = service.query(&consumer, &request).unwrap();
        let expected = crate::codec::seal_frame(
            &crate::wire::encode_response(&crate::wire::Response::Query(fresh)).unwrap(),
        );
        assert_eq!(&*cold, &expected[..]);

        let warm = service.query_sealed(&consumer, &request).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(service.frame_cache_stats(), (1, 1), "(hits, misses)");
        assert_eq!(service.cached_frames(), 1);

        // Batch frames verify the same way but are never admitted to the
        // cache: a repeat is recomputed and counts as another miss.
        let batch = vec![request.clone(), request.clone()];
        let sealed_batch = service.query_batch_sealed(&consumer, &batch).unwrap();
        let fresh_batch = service.query_batch(&consumer, &batch).unwrap();
        let expected = crate::codec::seal_frame(
            &crate::wire::encode_response(&crate::wire::Response::Batch(fresh_batch)).unwrap(),
        );
        assert_eq!(&*sealed_batch, &expected[..]);
        assert_eq!(
            service.query_batch_sealed(&consumer, &batch).unwrap(),
            sealed_batch
        );
        assert_eq!(service.frame_cache_stats(), (1, 3), "(hits, misses)");
        assert_eq!(service.cached_frames(), 1, "only the single-query frame");
    }

    #[test]
    fn sealed_frames_invalidate_on_epoch() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let consumer = Consumer::public(&service.snapshot().lattice);
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);
        let before = service.query_sealed(&consumer, &request).unwrap();
        assert_eq!(service.cached_frames(), 1);

        // An epoch bump retires the snapshot holding the stale frame and
        // answers fresh (the epoch is part of the response payload, so
        // the bytes differ).
        store.append_node("late", NodeKind::Data, Features::new(), public);
        let after = service.query_sealed(&consumer, &request).unwrap();
        assert_ne!(before, after);
        assert_eq!(service.cached_frames(), 1, "stale frame gone");
    }

    #[test]
    fn sealed_frames_key_by_frontier_not_name() {
        let (store, ids) = setup();
        let service = AccountService::new(store);
        let snapshot = service.snapshot();
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);
        let public = snapshot.lattice.public();
        let alice = Consumer::new("alice", &snapshot.lattice, &[public]);
        let bob = Consumer::new("bob", &snapshot.lattice, &[public]);
        service.query_sealed(&alice, &request).unwrap();
        service.query_sealed(&bob, &request).unwrap();
        // Same credentials ⇒ same frame: bob's query was a cache hit.
        assert_eq!(service.frame_cache_stats(), (1, 1));
        assert!(Arc::ptr_eq(
            &service.get_account(&alice, &Strategy::Surrogate).unwrap(),
            &service.get_account(&bob, &Strategy::Surrogate).unwrap(),
        ));
        // A consumer with more credentials misses (different frontier).
        let high = snapshot.lattice.by_name("High").unwrap();
        let insider = Consumer::new("insider", &snapshot.lattice, &[high]);
        service.query_sealed(&insider, &request).unwrap();
        assert_eq!(service.frame_cache_stats(), (1, 2));
    }

    #[test]
    fn pinned_snapshot_answers_stay_consistent() {
        let (store, _) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let pinned = service.snapshot();
        store.append_node("later", NodeKind::Data, Features::new(), public);
        // The pinned snapshot still resolves at its own epoch…
        let old = service
            .protect_at(&pinned, &[public], &Strategy::Surrogate)
            .unwrap();
        assert_eq!(old.graph().node_count(), 3);
        // …while the current snapshot sees the new node.
        let new = service.protect(&[public], &Strategy::Surrogate).unwrap();
        assert_eq!(new.graph().node_count(), 4);
    }

    #[test]
    fn pinned_snapshot_keeps_its_own_caches() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let consumer = Consumer::public(&service.snapshot().lattice);
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);
        let pinned = service.snapshot();
        service.query_sealed(&consumer, &request).unwrap();
        assert_eq!((service.cached_accounts(), service.cached_frames()), (1, 1));

        for i in 0..3 {
            store.append_node(
                format!("later-{i}"),
                NodeKind::Data,
                Features::new(),
                public,
            );
            service.snapshot();
        }
        // The live snapshot starts cold; the pin's caches are not counted…
        assert_eq!((service.cached_accounts(), service.cached_frames()), (0, 0));
        // …but still answer the pin, at its own epoch, from one entry.
        let protects = || {
            let (extended, generated, _) = service.protect_stats();
            extended + generated
        };
        let before = protects();
        let old = service
            .protect_at(&pinned, &[public], &Strategy::Surrogate)
            .unwrap();
        let again = service
            .protect_at(&pinned, &[public], &Strategy::Surrogate)
            .unwrap();
        assert!(Arc::ptr_eq(&old, &again));
        assert_eq!(old.graph().node_count(), 3);
        assert_eq!(protects(), before, "the pin's account was a hit");
        assert_eq!(
            service.cached_accounts(),
            0,
            "a pinned lookup caches in the pin"
        );
        let live = service.protect(&[public], &Strategy::Surrogate).unwrap();
        assert_eq!(live.graph().node_count(), 6);
        assert_eq!(service.cached_accounts(), 1);

        // The service retired the pinned snapshot three epochs ago, so
        // ours is the last reference: its caches die with it.
        let weak = Arc::downgrade(&pinned);
        drop(pinned);
        assert!(weak.upgrade().is_none());
    }

    /// `(extended, generated)` so far.
    fn protects(service: &AccountService) -> (u64, u64) {
        let (extended, generated, _) = service.protect_stats();
        (extended, generated)
    }

    /// Appends a Public node with an edge into it from `from`.
    fn append_under(store: &Store, from: RecordId) -> RecordId {
        let public = store.predicate("Public").unwrap();
        let id = store.append_node("new", NodeKind::Data, Features::new(), public);
        store.append_edge(from, id, EdgeKind::InputTo).unwrap();
        id
    }

    /// The Public `Surrogate` account, checked against a generation from
    /// the same snapshot.
    fn public_account(service: &AccountService) -> Arc<ProtectedAccount> {
        let snapshot = service.snapshot();
        let public = snapshot.lattice.public();
        let account = service.protect(&[public], &Strategy::Surrogate).unwrap();
        let generated = snapshot
            .context()
            .protect(public, Strategy::Surrogate)
            .unwrap();
        let edges = |a: &ProtectedAccount| a.graph().edges().collect::<Vec<_>>();
        assert_eq!(edges(&account), edges(&generated));
        assert_eq!(account.graph().node_count(), generated.graph().node_count());
        account
    }

    /// Catches: seeds dropped by a snapshot that was never read, instead
    /// of carried to its successor.
    #[test]
    fn a_seed_carried_across_two_unread_epochs_extends() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        public_account(&service);
        assert_eq!(protects(&service), (0, 1));
        for _ in 0..2 {
            append_under(&store, ids[2]);
            service.snapshot();
        }
        append_under(&store, ids[2]);
        let account = public_account(&service);
        assert_eq!(account.graph().node_count(), 6);
        assert_eq!(protects(&service), (1, 1), "extended across three epochs");
    }

    /// Catches: a pinned snapshot's accounts taken as seeds (the pin
    /// would lose them) or a seed handed on across a pin.
    #[test]
    fn a_pinned_predecessor_hands_on_no_seed() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let first = public_account(&service);
        let pinned = service.snapshot();
        append_under(&store, ids[2]);
        public_account(&service);
        assert_eq!(protects(&service), (0, 2), "the successor generates");
        let kept = service
            .protect_at(&pinned, &[public], &Strategy::Surrogate)
            .unwrap();
        assert!(Arc::ptr_eq(&kept, &first), "the pin keeps its account");

        drop((pinned, kept, first));
        append_under(&store, ids[2]);
        public_account(&service);
        assert_eq!(protects(&service), (1, 2), "unpinned, it extends again");
    }

    /// Catches: a seed extended in place while a reader still holds it.
    #[test]
    fn an_account_held_across_the_write_is_generated_afresh() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let held = public_account(&service);
        append_under(&store, ids[2]);
        let next = public_account(&service);
        assert_eq!(protects(&service), (0, 2));
        assert_eq!(
            (held.graph().node_count(), next.graph().node_count()),
            (3, 4)
        );
    }

    /// The [`fill_slot`] contract holds for an extension: a refused one
    /// generates, and one that unwinds leaves the slot empty, its seed
    /// spent, and the next reader to generate.
    #[test]
    fn an_extension_that_fails_or_unwinds_leaves_the_slot_to_a_generation() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let key = CacheKey {
            preds: vec![public],
            strategy: Strategy::Surrogate,
        };
        let seed = |snapshot: &Snapshot, account: ProtectedAccount| {
            snapshot.seeds.lock().insert(key.clone(), Arc::new(account));
        };

        // Another store's account is refused, and the miss generates.
        let (other, _) = setup();
        let foreign = AccountService::new(other).snapshot();
        append_under(&store, ids[2]);
        seed(
            &service.snapshot(),
            foreign
                .context()
                .protect(public, Strategy::Surrogate)
                .unwrap(),
        );
        public_account(&service);
        assert_eq!(protects(&service), (0, 1));

        // A seed generated under a larger lattice names a predicate this
        // one lacks: its extension panics on the first new node.
        let before = service.snapshot();
        let (lattice, preds) = PrivilegeLattice::flat(&["High", "Other", "More"]).unwrap();
        let alien = surrogate_core::account::ProtectionContext::new(
            &before.graph,
            &lattice,
            &before.markings,
            &before.catalog,
        )
        .protect(preds[2], Strategy::Surrogate)
        .unwrap();
        append_under(&store, ids[2]);
        let snapshot = service.snapshot();
        seed(&snapshot, alien);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.protect_at(&snapshot, &[public], &Strategy::Surrogate)
        }));
        assert!(unwound.is_err());
        let slot = snapshot.accounts.lock()[&key].clone();
        assert!(slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_none());
        assert!(snapshot.seeds.lock().is_empty(), "the seed is spent");
        drop(snapshot);
        public_account(&service);
        assert_eq!(protects(&service), (0, 2));
    }

    /// The failing-leader contract of [`fill_slot`]: a generator that
    /// fails or unwinds leaves the slot empty, only its own caller sees
    /// the failure, and the next caller generates.
    #[test]
    fn failed_or_unwinding_leader_leaves_the_slot_empty() {
        let (store, _) = setup();
        let snapshot = AccountService::new(store).snapshot();
        let generate = || {
            let public = snapshot.lattice.public();
            Ok(snapshot.context().protect(public, Strategy::Surrogate)?)
        };
        let slot = Arc::new(AccountSlot::default());

        assert!(matches!(
            fill_slot(&slot, || Err(StoreError::NotDurable)),
            Err(StoreError::NotDurable)
        ));
        assert!(slot.lock().unwrap().is_none());

        // A leader that unwinds while a follower may already be blocked
        // on the slot: whichever side of the panic the follower arrives
        // on, it finds the slot empty and generates.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (fail_tx, fail_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                fill_slot(&slot, || {
                    entered_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    panic!("generator unwinds while holding the slot");
                })
            })
        };
        entered_rx.recv().unwrap();
        let account = std::thread::scope(|scope| {
            let follower = scope.spawn(|| fill_slot(&slot, generate));
            fail_tx.send(()).unwrap();
            follower.join().unwrap().unwrap()
        });
        assert!(leader.join().is_err(), "the panic reached only the leader");
        assert!(slot.is_poisoned());

        // The follower's account is what the slot now serves.
        let hit = fill_slot(&slot, || panic!("a filled slot never generates")).unwrap();
        assert!(Arc::ptr_eq(&hit, &account));
    }
}
