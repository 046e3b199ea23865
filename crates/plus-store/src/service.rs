//! The concurrent account-serving layer: one epoch-versioned API in front
//! of a [`Store`].
//!
//! The paper's deployment sketch (§6.4) computes a protected account once
//! per consumer predicate and then serves many path queries from it. At
//! serving scale that workflow needs three things the bare store does not
//! give you:
//!
//! 1. **A shared, versioned materialization.** [`AccountService::snapshot`]
//!    returns an [`Arc<Snapshot>`] — the materialized graph plus the
//!    **epoch** it corresponds to. The epoch is the store's logical clock:
//!    it bumps on every `append_*` / `apply_policy` mutation, so readers
//!    can pin a consistent view while writers keep appending.
//! 2. **A concurrent account cache.** [`AccountService::get_account`] and
//!    friends serve `Arc<ProtectedAccount>`s from a sharded,
//!    `parking_lot`-guarded cache keyed by `(epoch, high-water set,
//!    strategy name)`. A policy mutation bumps the epoch, which makes
//!    every cached account stale; stale entries are evicted as fresh
//!    epochs are populated.
//! 3. **Pluggable strategies.** Anything implementing
//!    [`ProtectionStrategy`] can be [registered](AccountService::register_strategy)
//!    and requested by name — new redaction policies never touch
//!    `surrogate-core`.
//!
//! Lineage queries go through the typed batch API: a [`QueryRequest`]
//! names a root, a direction, a depth bound, and a strategy;
//! [`AccountService::query_batch`] pins one snapshot, resolves every
//! request against the right cached account, and stamps each
//! [`QueryResponse`] with the epoch it answered at.
//!
//! Two more layers keep the hot path flat under load:
//!
//! * **Single-flight generation.** Concurrent cache misses of one
//!   account key coalesce onto a single generating leader; followers
//!   block until it publishes instead of redundantly generating the same
//!   account N times (the cold-cache thundering herd).
//! * **A sealed-frame cache.** [`AccountService::query_sealed`] answers
//!   with the *wire bytes* of the response — encoded, framed,
//!   checksummed — memoized by `(epoch, consumer credential frontier,
//!   request bytes)`. A repeat query is a hash lookup plus a socket
//!   write; nothing is re-traversed or re-encoded. Frames are
//!   invalidated exactly like accounts: epoch bumps sweep stale epochs,
//!   [re-registration](AccountService::register_strategy) clears the
//!   cache outright. [`AccountService::query_batch_sealed`] seals the
//!   same way but is never cached.
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
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use surrogate_core::account::{ProtectedAccount, Strategy};
use surrogate_core::credential::Consumer;
use surrogate_core::graph::NodeId;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::query::{traverse, Direction};
use surrogate_core::strategy::ProtectionStrategy;

use crate::error::{CodecError, Result, StoreError};
use crate::record::RecordId;
use crate::snapshot::SnapshotIndex;
use crate::store::{Materialized, Store};
use crate::wal::DurabilityOptions;

/// Number of cache shards; requests for different `(epoch, preds,
/// strategy)` keys mostly hit different locks.
const SHARDS: usize = 16;

/// Number of sealed-frame cache shards (same spreading idea as
/// [`SHARDS`], keyed by whole frames instead of accounts).
const FRAME_SHARDS: usize = 16;

/// Per-shard sealed-frame cap. A shard at capacity is cleared rather
/// than grown without bound — the cache refills from hot traffic, and
/// frames are cheap to rebuild from the (still cached) account.
const FRAME_SHARD_CAP: usize = 4096;

/// An epoch-stamped materialization: the consistent view of the store all
/// accounts and query answers of that epoch are derived from.
///
/// Dereferences to [`Materialized`], so `snapshot.graph`,
/// `snapshot.lattice`, and `snapshot.context()` work directly.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    shard_epochs: Vec<u64>,
    /// The source's reset generation (see
    /// [`ShardMerge::generation`](crate::ShardMerge::generation)) this
    /// materialization was taken at; always 0 for a live source.
    /// `(source_gen, epoch)` — not `epoch` alone — identifies
    /// a sharded view, because a gather-side slot reset is the one
    /// event that can rewind a shard clock; every derived cache entry
    /// carries the pair so repaired history can never alias cached
    /// pre-repair answers.
    source_gen: u64,
    materialized: Materialized,
    index: SnapshotIndex,
}

impl Snapshot {
    fn stamped(
        source_gen: u64,
        epoch: u64,
        shard_epochs: Vec<u64>,
        materialized: Materialized,
    ) -> Self {
        // Build the CSR index once per epoch, here, so every protection
        // and every sealed frame of the epoch runs hash-free.
        let index = SnapshotIndex::build(&materialized);
        Self {
            epoch,
            shard_epochs,
            source_gen,
            materialized,
            index,
        }
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

    /// The dense CSR index of this materialization, built once at
    /// snapshot time and shared by every protection against this epoch.
    pub fn index(&self) -> &SnapshotIndex {
        &self.index
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
/// `strategy` is the serializable [`Strategy`] selector — this is a wire
/// type. To query through a custom registered strategy, resolve the
/// account with [`AccountService::get_account_named`] and traverse it
/// directly.
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

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    /// The snapshot's source reset generation (see
    /// [`Snapshot::source_gen`]); 0 except on a sharded service that
    /// has repaired a slot.
    source_gen: u64,
    preds: Vec<PrivilegeId>,
    strategy: String,
}

/// A cached account, stamped with the registry **generation** of the
/// strategy that produced it. A hit is only served while its generation
/// is still the name's current one, so a completed
/// [`register_strategy`](AccountService::register_strategy) can never be
/// shadowed by a racing generator inserting an account built from the
/// replaced registration (generation 0 = the name is unregistered and
/// the caller's own strategy object generated directly).
#[derive(Debug, Clone)]
struct CachedAccount {
    generation: u64,
    account: Arc<ProtectedAccount>,
}

/// A registered strategy with the generation stamp of its registration.
type Registration = (u64, Arc<dyn ProtectionStrategy>);

/// One in-flight account generation, coalescing concurrent misses of a
/// key onto a single generating **leader**. Followers block on the
/// condvar until the leader publishes; a cold cache (or an epoch bump)
/// under N concurrent requests then costs one generation, not N — the
/// most expensive step in the system is never duplicated.
///
/// Built on `std::sync` primitives: the vendored `parking_lot` shim has
/// no `Condvar`. Poisoning is ignored ([`PoisonError::into_inner`]) —
/// the state machine below stays consistent across an unwinding leader
/// because [`FlightGuard`] always publishes an outcome.
struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    /// The leader is still generating.
    Pending,
    /// The leader finished with an account of this registration
    /// generation; followers whose view of the registry is no newer take
    /// it directly, the rest retry (a flight begun before a
    /// re-registration must not answer a request that began after it).
    Done(u64, Arc<ProtectedAccount>),
    /// The leader failed; followers loop back and retry (one of them
    /// becomes the next leader), so one bad generation does not fan its
    /// error out to every coalesced caller.
    Failed,
}

/// Publishes `Failed` if a generation leader unwinds before publishing,
/// so followers blocked on the flight can never wait forever.
struct FlightGuard<'a> {
    service: &'a AccountService,
    key: &'a CacheKey,
    flight: &'a Flight,
    published: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.service
                .finish_flight(self.key, self.flight, FlightState::Failed);
        }
    }
}

/// Cache key of one pre-sealed response frame: the epoch it answers at,
/// the consumer's sorted credential frontier, and the canonical wire
/// bytes of the query. The frontier fully determines both
/// authorization and account content, so consumer *names* are
/// deliberately absent — consumers holding the same credentials see
/// byte-identical answers and share cache entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FrameKey {
    epoch: u64,
    /// See [`CacheKey::source_gen`].
    source_gen: u64,
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

/// Thread-safe, epoch-versioned protected-account server over a [`Store`].
///
/// See the [module docs](self) for the serving model. All methods take
/// `&self`; share the service across threads behind an `Arc`.
pub struct AccountService {
    source: Source,
    current: RwLock<Option<Arc<Snapshot>>>,
    shards: Vec<Mutex<HashMap<CacheKey, CachedAccount>>>,
    strategies: RwLock<HashMap<String, Registration>>,
    /// Monotone counter stamping each registration; see [`CachedAccount`].
    generation: AtomicU64,
    /// In-flight account generations, for single-flight coalescing.
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    /// Pre-sealed response frames; see [`FrameKey`].
    frame_shards: Vec<Mutex<HashMap<FrameKey, Bytes>>>,
    frame_hits: AtomicU64,
    frame_misses: AtomicU64,
    /// Strategy invocations on the account-miss path, and their total
    /// duration in nanoseconds.
    protects: AtomicU64,
    protect_nanos: AtomicU64,
}

impl std::fmt::Debug for AccountService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountService")
            .field("epoch", &self.epoch())
            .field("cached_accounts", &self.cached_accounts())
            .field("cached_frames", &self.cached_frames())
            .field("strategies", &self.strategy_names())
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
        let mut strategies: HashMap<String, Registration> = HashMap::new();
        let mut generation = 0;
        for &builtin in Strategy::ALL {
            generation += 1;
            strategies.insert(builtin.name().to_string(), (generation, Arc::new(builtin)));
        }
        Self {
            source,
            current: RwLock::new(None),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            strategies: RwLock::new(strategies),
            generation: AtomicU64::new(generation),
            inflight: Mutex::new(HashMap::new()),
            frame_shards: (0..FRAME_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            frame_hits: AtomicU64::new(0),
            frame_misses: AtomicU64::new(0),
            protects: AtomicU64::new(0),
            protect_nanos: AtomicU64::new(0),
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

    /// The current epoch-stamped materialization, rebuilt (and cached)
    /// whenever the source has moved past the cached epoch — or, on a
    /// sharded source, whenever a slot reset bumped the generation.
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
        let snapshot = Arc::new(match &self.source {
            Source::Live(store) => {
                let (epoch, materialized) = store.materialize_versioned();
                // A shard server stamps its own slot of the epoch
                // vector; zeros elsewhere are honest lower bounds on
                // histories it does not follow.
                let shard_epochs = match store.partition() {
                    Some(p) => {
                        let mut v = vec![0; p.count() as usize];
                        v[p.index() as usize] = epoch;
                        v
                    }
                    None => Vec::new(),
                };
                Snapshot::stamped(0, epoch, shard_epochs, materialized)
            }
            Source::Sharded(merged) => {
                let (generation, epoch, clocks, materialized) = merged.materialize_stamped();
                Snapshot::stamped(generation, epoch, clocks, materialized)
            }
        });
        let epoch = snapshot.epoch;
        if cached
            .as_ref()
            .is_some_and(|old| old.source_gen != snapshot.source_gen)
        {
            // A slot reset intervened: the new materialization may sit
            // at a *lower* epoch than the cached one while the repaired
            // slot re-bootstraps. Entries of older generations can never
            // hit again (the generation is part of every key), so drop
            // them wholesale and adopt the post-reset snapshot.
            let generation = snapshot.source_gen;
            *cached = Some(snapshot.clone());
            for shard in &self.shards {
                shard.lock().retain(|k, _| k.source_gen >= generation);
            }
            for shard in &self.frame_shards {
                shard.lock().retain(|k, _| k.source_gen >= generation);
            }
        } else if !cached
            .as_ref()
            .is_some_and(|old| old.epoch >= snapshot.epoch)
        {
            // Within one generation the epoch never goes backward:
            // materialization reads the version and the log under one
            // lock, and versions only grow.
            *cached = Some(snapshot.clone());
            // Accounts and sealed frames older than the new epoch can
            // never be current again; drop them so the caches track live
            // entries only.
            for shard in &self.shards {
                shard.lock().retain(|k, _| k.epoch >= epoch);
            }
            for shard in &self.frame_shards {
                shard.lock().retain(|k, _| k.epoch >= epoch);
            }
        }
        snapshot
    }

    /// Registers a protection strategy under its [`name`]
    /// (`ProtectionStrategy::name`), replacing any previous registration
    /// of that name. The three built-ins are pre-registered.
    ///
    /// Accounts cached under the replaced name are purged, and every
    /// registration carries a fresh generation stamp that cached accounts
    /// are checked against on every hit — so once `register_strategy`
    /// returns, no request that starts afterwards can be served an
    /// account generated by a previous registration, even if a racing
    /// request caches one after the purge. (A request already in flight
    /// during the swap may still receive the old strategy's account —
    /// that request is concurrent with the registration.)
    ///
    /// [`name`]: ProtectionStrategy::name
    pub fn register_strategy(&self, strategy: Arc<dyn ProtectionStrategy>) {
        let name = strategy.name().to_string();
        let mut registry = self.strategies.write();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        for shard in &self.shards {
            shard.lock().retain(|k, _| k.strategy != name);
        }
        // Sealed frames carry no strategy generation (they are keyed by
        // the request bytes, which name strategies only by selector), so
        // a re-registration drops them all rather than guessing which
        // frames the replaced implementation produced.
        for shard in &self.frame_shards {
            shard.lock().clear();
        }
        registry.insert(name, (generation, strategy));
    }

    /// The registered strategy of that name.
    pub fn strategy(&self, name: &str) -> Result<Arc<dyn ProtectionStrategy>> {
        self.strategies
            .read()
            .get(name)
            .map(|(_, strategy)| strategy.clone())
            .ok_or_else(|| StoreError::UnknownStrategy(name.to_string()))
    }

    /// Names of all registered strategies, sorted.
    pub fn strategy_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.strategies.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total accounts currently cached (all epochs).
    pub fn cached_accounts(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
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
        strategy: &dyn ProtectionStrategy,
    ) -> Result<Arc<ProtectedAccount>> {
        self.protect_at(&self.snapshot(), preds, strategy)
    }

    /// [`protect`](Self::protect) against a pinned snapshot: the returned
    /// account is generated from (or cached for) exactly that snapshot's
    /// epoch, so a reader holding a snapshot gets answers consistent with
    /// it even while writers advance the store.
    ///
    /// The strategy *name* owns the cache slot and the behavior: when a
    /// strategy is [registered](Self::register_strategy) under
    /// `strategy.name()`, the registered implementation generates the
    /// account — so `&Strategy::Surrogate` and a registered replacement
    /// of `"surrogate"` can never poison each other's cache entries. The
    /// passed strategy only generates directly when its name is
    /// unregistered.
    pub fn protect_at(
        &self,
        snapshot: &Snapshot,
        preds: &[PrivilegeId],
        strategy: &dyn ProtectionStrategy,
    ) -> Result<Arc<ProtectedAccount>> {
        assert!(!preds.is_empty(), "high-water set must be non-empty");
        let mut preds = snapshot.lattice.maximal_antichain(preds);
        // The key must identify the *set*: {a, b} and {b, a} are one
        // account.
        preds.sort_unstable_by_key(|p| p.0);
        let key = CacheKey {
            epoch: snapshot.epoch,
            source_gen: snapshot.source_gen,
            preds,
            strategy: strategy.name().to_string(),
        };
        loop {
            // One consistent view of the name's registration: its
            // generation stamp and implementation (generation 0 =
            // unregistered, the passed strategy object generates
            // directly).
            let (generation, registered) = match self.strategies.read().get(&key.strategy) {
                Some((generation, registered)) => (*generation, Some(registered.clone())),
                None => (0, None),
            };
            let shard = &self.shards[Self::shard_index(&key)];
            if let Some(hit) = shard.lock().get(&key) {
                // Serve only accounts of the name's *current*
                // registration: a racing generator may have cached an
                // account built from a replaced registration after
                // register_strategy purged.
                if hit.generation == generation {
                    return Ok(hit.account.clone());
                }
            }
            // Single-flight: the first miss of a key becomes the leader
            // and generates; concurrent misses find the flight and wait.
            let (flight, leader) = {
                let mut inflight = self.inflight.lock();
                match inflight.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(slot) => {
                        (slot.get().clone(), false)
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        let flight = Arc::new(Flight {
                            state: StdMutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        });
                        (slot.insert(flight).clone(), true)
                    }
                }
            };
            if !leader {
                let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
                while matches!(*state, FlightState::Pending) {
                    state = flight
                        .cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if let FlightState::Done(served, account) = &*state {
                    if *served >= generation {
                        return Ok(account.clone());
                    }
                }
                // The leader failed or served a replaced registration;
                // retry from the top (possibly as the new leader) instead
                // of fanning its outcome out.
                continue;
            }
            // Leader: generate outside the shard lock — generation is the
            // expensive step and must not serialize unrelated cache
            // traffic. The guard publishes Failed if we unwind.
            let mut flight_guard = FlightGuard {
                service: self,
                key: &key,
                flight: &flight,
                published: false,
            };
            let ctx = snapshot.context().with_csr(snapshot.index.csr());
            let started = Instant::now();
            let generated = match &registered {
                Some(current) => current.protect(&ctx, &key.preds),
                None => strategy.protect(&ctx, &key.preds),
            };
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.protects.fetch_add(1, Ordering::Relaxed);
            self.protect_nanos.fetch_add(nanos, Ordering::Relaxed);
            let result = match generated {
                Ok(account) => {
                    let account = Arc::new(account);
                    let mut guard = shard.lock();
                    // Entries for this account older than this epoch can
                    // never be current again (the snapshot rebuild also
                    // sweeps all shards).
                    guard.retain(|k, _| {
                        k.epoch >= key.epoch || k.preds != key.preds || k.strategy != key.strategy
                    });
                    // A racing generator may have inserted first; serve
                    // whichever entry carries the newest registration
                    // generation.
                    match guard.entry(key.clone()) {
                        std::collections::hash_map::Entry::Occupied(mut slot) => {
                            if slot.get().generation >= generation {
                                Ok((slot.get().generation, slot.get().account.clone()))
                            } else {
                                slot.insert(CachedAccount {
                                    generation,
                                    account: account.clone(),
                                });
                                Ok((generation, account))
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(CachedAccount {
                                generation,
                                account: account.clone(),
                            });
                            Ok((generation, account))
                        }
                    }
                }
                Err(e) => Err(StoreError::from(e)),
            };
            flight_guard.published = true;
            self.finish_flight(
                &key,
                &flight,
                match &result {
                    Ok((served, account)) => FlightState::Done(*served, account.clone()),
                    Err(_) => FlightState::Failed,
                },
            );
            return result.map(|(_, account)| account);
        }
    }

    /// Retires an in-flight generation: removes it from the coalescing
    /// map and wakes every waiting follower with the outcome.
    fn finish_flight(&self, key: &CacheKey, flight: &Flight, outcome: FlightState) {
        self.inflight.lock().remove(key);
        let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = outcome;
        flight.cv.notify_all();
    }

    /// Shard by `(preds, strategy)` — *not* the epoch — so successive
    /// epochs of the same logical account land in the same shard and the
    /// insert-time eviction above can see its stale predecessors.
    fn shard_index(key: &CacheKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.preds.hash(&mut hasher);
        key.strategy.hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    /// The account for the consumer's *entire* credential frontier — the
    /// multi-predicate high-water account (Def. 6) a consumer holding
    /// several incomparable grants is entitled to.
    pub fn get_account(
        &self,
        consumer: &Consumer,
        strategy: &dyn ProtectionStrategy,
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
        strategy: &dyn ProtectionStrategy,
    ) -> Result<Arc<ProtectedAccount>> {
        self.authorize(consumer, predicate)?;
        self.protect_at(&self.snapshot(), &[predicate], strategy)
    }

    /// [`get_account`](Self::get_account) through a
    /// [registered](Self::register_strategy) strategy, looked up by name.
    pub fn get_account_named(
        &self,
        consumer: &Consumer,
        strategy_name: &str,
    ) -> Result<Arc<ProtectedAccount>> {
        let strategy = self.strategy(strategy_name)?;
        self.get_account(consumer, strategy.as_ref())
    }

    fn frontier_account_at(
        &self,
        snapshot: &Snapshot,
        consumer: &Consumer,
        strategy: &dyn ProtectionStrategy,
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
    /// callers that key derived artifacts by epoch (the sealed-frame
    /// cache) answer at exactly the epoch they keyed.
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
                        // protect_at resolves the strategy name through
                        // the registry, so a re-registered built-in name
                        // serves its replacement here too.
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
            epoch: snapshot.epoch,
            source_gen: snapshot.source_gen,
            frontier,
            request: crate::wire::encode_query_key(requests, false)?,
        };
        let shard = &self.frame_shards[Self::frame_shard_index(&key)];
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

    /// Lifetime account-generation cost: how many times a cache miss ran
    /// a protection strategy, and the total time those runs took — what a
    /// fresh read pays beyond a cached one.
    pub fn protect_stats(&self) -> (u64, Duration) {
        (
            self.protects.load(Ordering::Relaxed),
            Duration::from_nanos(self.protect_nanos.load(Ordering::Relaxed)),
        )
    }

    /// Sealed frames currently cached (all epochs).
    pub fn cached_frames(&self) -> usize {
        self.frame_shards.iter().map(|s| s.lock().len()).sum()
    }

    fn frame_shard_index(key: &FrameKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % FRAME_SHARDS
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
    use surrogate_core::account::{generate_with_options, GenerateOptions, ProtectionContext};
    use surrogate_core::error::Result as CoreResult;
    use surrogate_core::feature::Features;

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

    /// A custom strategy registered without touching `surrogate-core`: the
    /// redundancy-filter ablation.
    struct Unfiltered;

    impl ProtectionStrategy for Unfiltered {
        fn name(&self) -> &str {
            "unfiltered"
        }

        fn protect(
            &self,
            ctx: &ProtectionContext<'_>,
            preds: &[PrivilegeId],
        ) -> CoreResult<ProtectedAccount> {
            generate_with_options(
                ctx,
                preds,
                GenerateOptions {
                    redundancy_filter: false,
                },
            )
        }
    }

    #[test]
    fn custom_strategy_registers_and_serves() {
        let (store, _) = setup();
        let service = AccountService::new(store);
        let consumer = Consumer::public(&service.snapshot().lattice);
        assert!(matches!(
            service.get_account_named(&consumer, "unfiltered"),
            Err(StoreError::UnknownStrategy(_))
        ));
        service.register_strategy(Arc::new(Unfiltered));
        let account = service.get_account_named(&consumer, "unfiltered").unwrap();
        // Unfiltered keeps every permitted pair: at least as many edges as
        // the filtered built-in, cached under its own name.
        let filtered = service.get_account_named(&consumer, "surrogate").unwrap();
        assert!(account.graph().edge_count() >= filtered.graph().edge_count());
        assert!(service.strategy_names().contains(&"unfiltered".to_string()));
    }

    /// Replaces the built-in surrogate algorithm under its own name.
    struct ReplacementSurrogate;

    impl ProtectionStrategy for ReplacementSurrogate {
        fn name(&self) -> &str {
            "surrogate"
        }

        fn protect(
            &self,
            ctx: &ProtectionContext<'_>,
            preds: &[PrivilegeId],
        ) -> CoreResult<ProtectedAccount> {
            // Observably different from the built-in: no redundancy filter.
            generate_with_options(
                ctx,
                preds,
                GenerateOptions {
                    redundancy_filter: false,
                },
            )
        }
    }

    #[test]
    fn re_registering_a_name_purges_its_cached_accounts() {
        let (store, ids) = setup();
        let service = AccountService::new(store);
        let consumer = Consumer::public(&service.snapshot().lattice);
        let before = service.get_account_named(&consumer, "surrogate").unwrap();
        service.register_strategy(Arc::new(ReplacementSurrogate));
        // The stale built-in account must not be served under the name…
        let after = service.get_account_named(&consumer, "surrogate").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "cache purged on replace");
        // …and the enum-selector query path resolves through the registry,
        // so it serves the replacement too (same cached object).
        let response = service
            .query(
                &consumer,
                &QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate),
            )
            .unwrap();
        assert_eq!(response.rows.len(), 2);
        let via_query = service.get_account_named(&consumer, "surrogate").unwrap();
        assert!(Arc::ptr_eq(&after, &via_query));
        // The enum selector resolves through the registry as well: passing
        // &Strategy::Surrogate serves the replacement, not the built-in,
        // so the two call styles can never poison each other's cache.
        let via_enum = service
            .get_account(&consumer, &Strategy::Surrogate)
            .unwrap();
        assert!(Arc::ptr_eq(&after, &via_enum));
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
    fn sealed_frames_invalidate_on_epoch_and_registration() {
        let (store, ids) = setup();
        let service = AccountService::new(store.clone());
        let public = store.predicate("Public").unwrap();
        let consumer = Consumer::public(&service.snapshot().lattice);
        let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);
        let before = service.query_sealed(&consumer, &request).unwrap();
        assert_eq!(service.cached_frames(), 1);

        // An epoch bump sweeps the stale frame and answers fresh (the
        // epoch is part of the response payload, so the bytes differ).
        store.append_node("late", NodeKind::Data, Features::new(), public);
        let after = service.query_sealed(&consumer, &request).unwrap();
        assert_ne!(before, after);
        assert_eq!(service.cached_frames(), 1, "stale frame swept");

        // Re-registering a strategy drops all cached frames.
        service.register_strategy(Arc::new(ReplacementSurrogate));
        assert_eq!(service.cached_frames(), 0);
        let replaced = service.query_sealed(&consumer, &request).unwrap();
        let fresh = service.query(&consumer, &request).unwrap();
        let expected = crate::codec::seal_frame(
            &crate::wire::encode_response(&crate::wire::Response::Query(fresh)).unwrap(),
        );
        assert_eq!(&*replaced, &expected[..], "frame reflects the replacement");
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
}
