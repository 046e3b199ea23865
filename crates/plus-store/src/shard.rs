//! Scatter-gather merge: one coherent materialization assembled from
//! the record streams of every shard of a partitioned deployment.
//!
//! A sharded cluster splits the keyspace arithmetically (see
//! [`surrogate_core::shard`]): shard `i` of `N` owns the ids congruent
//! to `i` modulo `N` and stores them densely. Each shard alone can only
//! answer point reads — a cross-shard traversal needs the union of all
//! shards' records. [`ShardMerge`] is that union: it ingests each
//! shard's snapshot and write-ahead-log stream (the same sealed frames
//! replication ships) and materializes the **whole** graph on demand.
//!
//! # Order-canonical materialization
//!
//! The merge is a pure function of the per-shard record *sets*, not of
//! the order chunks happened to arrive in:
//!
//! * **Nodes** are laid out at their global ids, with inert
//!   placeholders at ids nothing has claimed yet (the same placeholder
//!   convention a partitioned [`Store`](crate::Store) uses for foreign
//!   ids).
//! * **Edges** are sorted by `(to, from)` before insertion. An edge
//!   lives on exactly one shard (its `from`'s owner), so the sort is a
//!   total order with no cross-shard duplicates to break ties between.
//!   The head comes first so that an edge into a node an earlier
//!   materialization did not hold sorts after every edge it did hold:
//!   an epoch that only appends into new nodes — most of them — lands at
//!   the tail of the order, where [`ShardMerge::delta_since`] can append
//!   it (see below).
//! * **Policy** is replayed per shard in shard-index order, preserving
//!   each shard's internal order. A policy statement routes by the node
//!   it governs, so two shards can never hold conflicting statements
//!   for one node — concatenation order between shards is unobservable.
//!
//! Two gathers that have ingested the same records therefore
//! materialize byte-identical graphs, whatever the interleaving of
//! their feeds — which is what makes "diff the scatter-gather answer
//! against a single-store oracle" a meaningful test.
//!
//! # Extending an epoch
//!
//! [`ShardMerge::delta_since`] brings a materialization of the merge
//! forward by what each slot gained since, the way
//! [`Store::delta_since`](crate::Store::delta_since) does for one log: the new nodes are laid out
//! past the held ones, the new edges are appended in canonical order,
//! and each slot's new statements follow the held ones in slot order
//! (policy order across slots is unobservable, as above). It refuses —
//! and the caller rebuilds — wherever the result could differ from
//! [`materialize`](ShardMerge::materialize):
//!
//! * a slot was reset since (the [generation](ShardMerge::generation)
//!   moved), even when it has been refilled to the same clocks;
//! * a slot no longer holds the history the materialization holds: a
//!   snapshot re-bootstrap mints fresh payloads, so each slot's last
//!   held node is compared by identity;
//! * a new node fills a placeholder (an edge into it arrived first);
//! * a new edge sorts before the last held one (an edge into an old
//!   node);
//! * the lattice was learned since.
//!
//! # Epoch vectors
//!
//! The merge's version is the **vector** of per-shard clocks
//! ([`clocks`](ShardMerge::clocks)); its scalar
//! [`version`](ShardMerge::version) — the sum — is monotone under ingestion and
//! serves as the service-layer epoch (a valid cache key). Query
//! responses stamped by a gather carry the full vector, so a client can
//! tell exactly how far into *each* shard's history an answer reflects.

use std::sync::Arc;

use parking_lot::RwLock;
use surrogate_core::graph::{Node, NodeId};
use surrogate_core::privilege::{PrivilegeId, PrivilegeLattice};
use surrogate_core::shard::{Partition, ShardMap};

use crate::codec::WalRecord;
use crate::codec::{self, FrameDecode, SnapshotData};
use crate::error::{Result, StoreError};
use crate::record::{EdgeRecord, NodeRecord, PolicyStatement};
use crate::store::{global_bound, lay_out_global, LogDelta, LogLengths, Materialized, SlotLengths};

/// One shard's contribution to the merge: its records in append order
/// and the clock they extend to. A node is kept as the payload every
/// materialization shares; its kind and timestamp are not served here.
#[derive(Debug, Clone, Default)]
struct ShardSlice {
    nodes: Vec<Arc<Node>>,
    edges: Vec<EdgeRecord>,
    policy: Vec<PolicyStatement>,
    clock: u64,
}

/// The gather-side union of every shard's record stream. See the
/// [module docs](self) for the merge semantics.
///
/// Not internally synchronized — wrap it in a [`MergedSource`] (or your
/// own lock) to share across feed threads.
#[derive(Debug)]
pub struct ShardMerge {
    map: ShardMap,
    slices: Vec<ShardSlice>,
    /// Lattice definition, learned from the first ingested snapshot and
    /// verified against every later one. Empty until then; the fallback
    /// materialization uses a single-"Public" lattice.
    lattice_names: Vec<String>,
    dominance: Vec<(PrivilegeId, PrivilegeId)>,
    /// Bumped by every [`reset_slot`](Self::reset_slot). A reset is the
    /// one operation that can rewind a clock, so `(generation,
    /// version)` — not `version` alone — identifies a merge state; the
    /// service layer folds the generation into its cache keys.
    generation: u64,
}

impl ShardMerge {
    /// An empty merge over `map.count()` shards.
    pub fn new(map: ShardMap) -> Self {
        Self {
            map,
            slices: (0..map.count()).map(|_| ShardSlice::default()).collect(),
            lattice_names: Vec::new(),
            dominance: Vec::new(),
            generation: 0,
        }
    }

    /// The keyspace map this merge gathers.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// The per-shard clock vector: element `i` is how many mutations of
    /// shard `i`'s history this merge reflects.
    pub fn clocks(&self) -> Vec<u64> {
        self.slices.iter().map(|s| s.clock).collect()
    }

    /// Shard `slot`'s clock — the resume cursor for its feed.
    ///
    /// # Panics
    /// Panics when `slot` is out of range.
    pub fn clock(&self, slot: u32) -> u64 {
        self.slices[slot as usize].clock
    }

    /// The scalar epoch: the sum of the per-shard clocks. Monotone
    /// under ingestion; only a [`reset_slot`](Self::reset_slot) can
    /// lower it, which is why cache keys pair it with
    /// [`generation`](Self::generation).
    pub fn version(&self) -> u64 {
        self.slices.iter().map(|s| s.clock).sum()
    }

    /// How many slot resets this merge has performed. `(generation,
    /// version)` uniquely identifies a merge state even across resets.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Discards everything ingested for shard `slot` and rewinds its
    /// clock to zero, returning the abandoned clock. This is the
    /// gather-side anti-entropy step: when a shard's feed resumes under
    /// a **higher fencing term**, the records this merge ingested from
    /// the deposed primary may include an unacknowledged tail the new
    /// primary never saw, and the only safe repair is to drop the slice
    /// and re-bootstrap from the new primary's snapshot (exactly as a
    /// rejoining replica truncates against the new term's history).
    ///
    /// Bumps [`generation`](Self::generation) so stale epoch-keyed
    /// cache entries can never be mistaken for post-reset state.
    pub fn reset_slot(&mut self, slot: u32) -> Result<u64> {
        let slice = self.slice_mut(slot)?;
        let abandoned = slice.clock;
        *slice = ShardSlice::default();
        self.generation += 1;
        Ok(abandoned)
    }

    fn slice_mut(&mut self, slot: u32) -> Result<&mut ShardSlice> {
        self.slices
            .get_mut(slot as usize)
            .ok_or(StoreError::ShardMismatch {
                slot,
                reason: "slot is outside the shard map",
            })
    }

    /// Replaces shard `slot`'s slice with a full snapshot — the cold
    /// (or post-prune) bootstrap of a feed. The snapshot must be
    /// stamped for exactly partition `slot` of this merge's map, and
    /// must agree with the lattice every other shard declared; a
    /// snapshot no newer than what the merge already holds is ignored.
    pub fn ingest_snapshot(&mut self, slot: u32, data: &SnapshotData) -> Result<()> {
        let count = self.map.count();
        match data.partition {
            Some(p) if p.index() == slot && p.count() == count => {}
            _ => {
                return Err(StoreError::ShardMismatch {
                    slot,
                    reason: "snapshot is not stamped for this shard slot",
                })
            }
        }
        if self.lattice_names.is_empty() {
            self.lattice_names = data.lattice_names.clone();
            self.dominance = data.dominance.clone();
        } else if self.lattice_names != data.lattice_names || self.dominance != data.dominance {
            return Err(StoreError::ShardMismatch {
                slot,
                reason: "shards disagree on the privilege lattice",
            });
        }
        let slice = self.slice_mut(slot)?;
        if data.clock <= slice.clock {
            // A stale snapshot (a feed reconnecting through an old
            // checkpoint) must not rewind history the merge already has,
            // and one at the held clock is that history again — within a
            // term, a clock names one history; a term bump resets the
            // slot first. Keeping the held payloads keeps the slot
            // extendable (`delta_since` compares them by identity).
            return Ok(());
        }
        slice.nodes = data
            .nodes
            .iter()
            .cloned()
            .map(NodeRecord::into_payload)
            .collect();
        slice.edges = data.edges.clone();
        slice.policy = data.policy.clone();
        slice.clock = data.clock;
        Ok(())
    }

    /// Applies one replicated mutation of shard `slot`, advancing its
    /// clock by one.
    pub fn apply_record(&mut self, slot: u32, record: WalRecord) -> Result<()> {
        let slice = self.slice_mut(slot)?;
        match record {
            WalRecord::AppendNode(node) => slice.nodes.push(node.into_payload()),
            WalRecord::AppendEdge(edge) => slice.edges.push(edge),
            WalRecord::ApplyPolicy(statement) => slice.policy.push(statement),
        }
        slice.clock += 1;
        Ok(())
    }

    /// Applies a run of concatenated sealed WAL frames from shard
    /// `slot`, contiguous in clock from `start_clock` — the body of one
    /// replication chunk. Frames at clocks the merge already reflects
    /// are skipped; a gap (frames starting beyond the slice's clock) is
    /// a [`StoreError::ReplicationGap`].
    pub fn apply_frames(&mut self, slot: u32, start_clock: u64, frames: &[u8]) -> Result<()> {
        let mut clock = start_clock;
        let mut pos = 0;
        while pos < frames.len() {
            match codec::decode_frame(&frames[pos..]) {
                FrameDecode::Complete { record, consumed } => {
                    let local = self.slice_mut(slot)?.clock;
                    if clock > local {
                        return Err(StoreError::ReplicationGap {
                            expected: local,
                            found: clock,
                        });
                    }
                    if clock == local {
                        self.apply_record(slot, record)?;
                    }
                    clock += 1;
                    pos += consumed;
                }
                // The wire frame around the chunk already passed its
                // checksum, so damage inside means a buggy or hostile
                // feeder, not line noise.
                FrameDecode::Torn | FrameDecode::Corrupt(_) => {
                    return Err(StoreError::ShardMismatch {
                        slot,
                        reason: "replication chunk holds a torn or corrupt frame",
                    });
                }
            }
        }
        Ok(())
    }

    fn lattice(&self) -> PrivilegeLattice {
        let mut builder = PrivilegeLattice::builder();
        if self.lattice_names.is_empty() {
            // No shard has shipped a snapshot yet; serve the degenerate
            // single-predicate lattice (the gather refuses queries until
            // every feed connects anyway).
            builder.add("Public").expect("fresh builder accepts a name");
        } else {
            let mut ids = Vec::with_capacity(self.lattice_names.len());
            for name in &self.lattice_names {
                ids.push(
                    builder
                        .add(name.clone())
                        .expect("snapshot lattice names are unique"),
                );
            }
            for &(hi, lo) in &self.dominance {
                builder.declare_dominates(ids[hi.0 as usize], ids[lo.0 as usize]);
            }
        }
        builder.finish().expect("snapshot lattice is well-formed")
    }

    /// Materializes the merged graph — the order-canonical union of
    /// every ingested record (see the [module docs](self)).
    pub fn materialize(&self) -> Materialized {
        let (lattice, log) = self.copy_log();
        build_canonical(lattice, log)
    }

    /// What every slot gained since `base` was materialized from this
    /// merge, in canonical order; apply it with
    /// [`Materialized::extend`] to bring `base` to
    /// [`version`](Self::version).
    ///
    /// `None` when `base` cannot be extended and the caller must
    /// [`materialize`](Self::materialize) afresh: see
    /// [Extending an epoch](self#extending-an-epoch).
    pub fn delta_since(&self, base: &Materialized) -> Option<LogDelta> {
        canonical_tail(base, self.copy_since(base)?)
    }

    /// The lattice and a copy of every slice's records — `Arc` bumps,
    /// `Copy` edges, the policy statements — with nodes laid out at their
    /// global ids and edges not yet in canonical order. This is all of
    /// [`materialize`](Self::materialize) that reads the merge;
    /// [`build_canonical`] does the rest without it.
    fn copy_log(&self) -> (PrivilegeLattice, LogDelta) {
        let lattice = self.lattice();
        let log = self.copy_past(LogLengths::default(), &[], lattice.public());
        (lattice, log)
    }

    /// [`copy_log`](Self::copy_log) past `base`, when `base` is a
    /// materialization of this merge that the slots' records extend: all
    /// of [`delta_since`](Self::delta_since) that reads the merge.
    fn copy_since(&self, base: &Materialized) -> Option<LogDelta> {
        let (since, had) = (base.reflects, &base.slots.lengths);
        let held = since.nodes as u32;
        let current = self.generation == base.slots.generation
            && had.len() == self.slices.len()
            // `graph` is a public field; a swapped one is no prefix.
            && base.graph.node_count() == since.nodes
            && base.graph.edge_count() == since.edges
            && self.materializes_with(&base.lattice);
        let extends = |(i, (slice, had)): (u32, (&ShardSlice, &LogLengths))| {
            let p = self.partition(i);
            let within = had.nodes <= slice.nodes.len()
                && had.edges <= slice.edges.len()
                && had.policy <= slice.policy.len();
            // The slot's history is the one `base` laid out: its last
            // held node is the very payload there.
            let same = had.nodes.checked_sub(1).map_or(true, |last| {
                let g = p.global(last as u32);
                g < held
                    && slice
                        .nodes
                        .get(last)
                        .is_some_and(|node| Arc::ptr_eq(node, base.graph.shared_node(NodeId(g))))
            });
            // A new node below the held count fills a placeholder.
            let past = slice.nodes.len() == had.nodes || p.global(had.nodes as u32) >= held;
            within && same && past
        };
        let extends = current && (0u32..).zip(self.slices.iter().zip(had)).all(extends);
        extends.then(|| self.copy_past(since, had, base.lattice.public()))
    }

    /// Every slot's records past its length in `had` (all of them where
    /// `had` has no entry), appended to a materialization of the lengths
    /// `since`: the nodes from `since.nodes` to the new bound laid out at
    /// their global ids, placeholders at `bottom`.
    fn copy_past(&self, since: LogLengths, had: &[LogLengths], bottom: PrivilegeId) -> LogDelta {
        let had = |i: usize| had.get(i).copied().unwrap_or_default();
        let suffixes = || (self.slices.iter().enumerate()).map(|(i, slice)| (slice, had(i)));
        let edges: Vec<EdgeRecord> = suffixes()
            .flat_map(|(slice, had)| slice.edges[had.edges..].iter().copied())
            .collect();
        // The graph covers every id any shard has assigned or
        // referenced: global ids equal graph node ids, with
        // placeholders at unassigned gaps.
        let assigned = (0u32..)
            .zip(&self.slices)
            .filter_map(|(i, slice)| {
                let last = (slice.nodes.len() as u32).checked_sub(1)?;
                Some(self.partition(i).global(last).saturating_add(1))
            })
            .fold(since.nodes as u32, u32::max);
        let ids = since.nodes as u32..global_bound(assigned, &edges);
        let nodes = lay_out_global(ids, bottom, |g| {
            let p = self.partition(self.map.shard_of(g));
            self.slices[p.index() as usize]
                .nodes
                .get(p.local(g) as usize)
        });
        let policy = suffixes()
            .flat_map(|(slice, had)| slice.policy[had.policy..].iter().cloned())
            .collect();
        let lengths = (self.slices.iter())
            .map(|slice| LogLengths {
                nodes: slice.nodes.len(),
                edges: slice.edges.len(),
                policy: slice.policy.len(),
            })
            .collect();
        LogDelta {
            since,
            clock: self.version(),
            nodes,
            edges,
            policy,
            slots: SlotLengths {
                generation: self.generation,
                lengths,
            },
        }
    }

    fn partition(&self, slot: u32) -> Partition {
        self.map
            .partition(slot)
            .expect("slices are indexed by the map")
    }

    /// Whether `lattice` is the one this merge materializes with — the
    /// fallback until a snapshot has declared one.
    fn materializes_with(&self, lattice: &PrivilegeLattice) -> bool {
        let names = lattice.names_in_order();
        if self.lattice_names.is_empty() {
            names == ["Public"]
        } else {
            names.iter().eq(self.lattice_names.iter())
        }
    }
}

/// The key of the canonical edge order: head, then tail (see the
/// [module docs](self)).
fn canonical_key(from: u32, to: u32) -> (u32, u32) {
    (to, from)
}

/// Builds the merged materialization from a [`ShardMerge::copy_log`],
/// its edges sorted by [`canonical_key`]. Each edge lives on its
/// from-id's owner, so the sort has no duplicates to break ties between.
fn build_canonical(lattice: PrivilegeLattice, mut log: LogDelta) -> Materialized {
    log.edges
        .sort_unstable_by_key(|e| canonical_key(e.from.0, e.to.0));
    Materialized::build(lattice, log)
}

/// Sorts a [`ShardMerge::copy_since`] by [`canonical_key`]; `None` unless
/// every new edge sorts after `base`'s last, where a rebuild puts it too.
fn canonical_tail(base: &Materialized, mut delta: LogDelta) -> Option<LogDelta> {
    delta
        .edges
        .sort_unstable_by_key(|e| canonical_key(e.from.0, e.to.0));
    let held = (base.graph.edge_count().checked_sub(1))
        .map(|i| base.graph.edge_at(i))
        .map(|(from, to)| canonical_key(from.0, to.0));
    let first = (delta.edges.first()).map(|e| canonical_key(e.from.0, e.to.0));
    match (held, first) {
        (Some(held), Some(first)) if first <= held => None,
        _ => Some(delta),
    }
}

/// A thread-safe [`ShardMerge`] handle: feed threads write through
/// [`update`](Self::update) while the service layer takes consistent
/// `(epoch, clocks, materialization)` reads.
#[derive(Debug)]
pub struct MergedSource {
    merge: RwLock<ShardMerge>,
}

impl MergedSource {
    /// An empty merge over `map`.
    pub fn new(map: ShardMap) -> Self {
        Self {
            merge: RwLock::new(ShardMerge::new(map)),
        }
    }

    /// The keyspace map.
    pub fn map(&self) -> ShardMap {
        self.merge.read().map()
    }

    /// The per-shard clock vector at this instant.
    pub fn clocks(&self) -> Vec<u64> {
        self.merge.read().clocks()
    }

    /// The scalar epoch (sum of clocks) at this instant.
    pub fn version(&self) -> u64 {
        self.merge.read().version()
    }

    /// The reset generation at this instant (see
    /// [`ShardMerge::generation`]).
    pub fn generation(&self) -> u64 {
        self.merge.read().generation()
    }

    /// `(generation, version)` read under one lock — the pair that
    /// uniquely identifies a merge state across slot resets.
    pub fn stamped_version(&self) -> (u64, u64) {
        let merge = self.merge.read();
        (merge.generation(), merge.version())
    }

    /// Runs `f` with exclusive access to the merge — the feed threads'
    /// ingestion entry point.
    pub fn update<R>(&self, f: impl FnOnce(&mut ShardMerge) -> R) -> R {
        f(&mut self.merge.write())
    }

    /// Drops shard `slot`'s ingested slice and rewinds its clock to
    /// zero (see [`ShardMerge::reset_slot`]), returning the abandoned
    /// clock.
    pub fn reset_slot(&self, slot: u32) -> Result<u64> {
        self.merge.write().reset_slot(slot)
    }

    /// One consistent read: the reset generation, the scalar epoch, the
    /// clock vector, and the materialization, all of the same instant
    /// (no ingestion can slip between them).
    ///
    /// Only the copy of the records happens under the merge's lock; the
    /// graph is built after it is released, so a feed fold never queues
    /// behind a materialization.
    pub fn materialize_stamped(&self) -> (u64, u64, Vec<u64>, Materialized) {
        let (generation, clocks, (lattice, log)) = {
            let merge = self.merge.read();
            (merge.generation(), merge.clocks(), merge.copy_log())
        };
        (generation, log.clock, clocks, build_canonical(lattice, log))
    }

    /// [`ShardMerge::delta_since`], stamped like
    /// [`materialize_stamped`](Self::materialize_stamped) with the state
    /// it brings `base` to. The delta is taken under the merge's lock —
    /// a copy of the new records and a sort of the new edges — and
    /// applied after it is released.
    pub(crate) fn delta_stamped(
        &self,
        base: &Materialized,
    ) -> Option<(u64, u64, Vec<u64>, LogDelta)> {
        let merge = self.merge.read();
        let delta = merge.delta_since(base)?;
        Some((merge.generation(), delta.clock, merge.clocks(), delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EdgeKind, NodeKind, RecordId};
    use crate::store::Store;
    use surrogate_core::feature::Features;

    fn node(label: &str) -> NodeRecord {
        NodeRecord {
            label: label.into(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: PrivilegeId(0),
            created_at: 0,
        }
    }

    fn edge(from: u32, to: u32) -> EdgeRecord {
        EdgeRecord {
            from: RecordId(from),
            to: RecordId(to),
            kind: EdgeKind::Related,
        }
    }

    #[test]
    fn merge_is_order_canonical() {
        // Two merges fed the same records in different interleavings
        // materialize identical graphs.
        let map = ShardMap::new(2).unwrap();
        let mut ab = ShardMerge::new(map);
        let mut ba = ShardMerge::new(map);
        // Shard 0 owns 0, 2; shard 1 owns 1, 3. Edge 2→1 lives on shard
        // 0 (owner of 2), edge 1→0 on shard 1.
        let shard0 = [
            WalRecord::AppendNode(node("zero")),
            WalRecord::AppendNode(node("two")),
            WalRecord::AppendEdge(edge(2, 1)),
        ];
        let shard1 = [
            WalRecord::AppendNode(node("one")),
            WalRecord::AppendNode(node("three")),
            WalRecord::AppendEdge(edge(1, 0)),
        ];
        for r in shard0.iter().chain(&shard1) {
            ab.apply_record(
                match r {
                    WalRecord::AppendEdge(e) => map.shard_of(e.from.0),
                    WalRecord::AppendNode(n) => {
                        if n.label == "zero" || n.label == "two" {
                            0
                        } else {
                            1
                        }
                    }
                    _ => unreachable!(),
                },
                r.clone(),
            )
            .unwrap();
        }
        for r in shard1.iter().chain(&shard0) {
            ba.apply_record(
                match r {
                    WalRecord::AppendEdge(e) => map.shard_of(e.from.0),
                    WalRecord::AppendNode(n) => {
                        if n.label == "zero" || n.label == "two" {
                            0
                        } else {
                            1
                        }
                    }
                    _ => unreachable!(),
                },
                r.clone(),
            )
            .unwrap();
        }
        assert_eq!(ab.clocks(), vec![3, 3]);
        assert_eq!(ab.clocks(), ba.clocks());
        let (ma, mb) = (ab.materialize(), ba.materialize());
        assert_eq!(ma.graph.node_count(), mb.graph.node_count());
        assert_eq!(ma.graph.node_count(), 4);
        assert_eq!(ma.graph.edge_count(), 2);
        for i in 0..4u32 {
            use surrogate_core::graph::NodeId;
            assert_eq!(
                ma.graph.node(NodeId(i)).label,
                mb.graph.node(NodeId(i)).label
            );
        }
    }

    #[test]
    fn merge_places_gaps_as_placeholders() {
        let map = ShardMap::new(2).unwrap();
        let mut merge = ShardMerge::new(map);
        // Only shard 1 has written: global ids 1 and 3. Ids 0 and 2 are
        // unassigned gaps the placeholder layout must cover.
        merge
            .apply_record(1, WalRecord::AppendNode(node("one")))
            .unwrap();
        merge
            .apply_record(1, WalRecord::AppendNode(node("three")))
            .unwrap();
        merge
            .apply_record(1, WalRecord::AppendEdge(edge(3, 1)))
            .unwrap();
        let m = merge.materialize();
        assert_eq!(m.graph.node_count(), 4);
        use surrogate_core::graph::NodeId;
        assert_eq!(m.graph.node(NodeId(0)).label, "");
        assert_eq!(m.graph.node(NodeId(1)).label, "one");
        assert_eq!(m.graph.node(NodeId(3)).label, "three");
        assert_eq!(m.graph.edge_count(), 1);
        assert_eq!(merge.version(), 3);
        assert_eq!(merge.clocks(), vec![0, 3]);
    }

    #[test]
    fn snapshot_ingest_bootstraps_and_verifies() {
        let map = ShardMap::new(2).unwrap();
        let mut merge = ShardMerge::new(map);
        // Build shard 0's snapshot through a real partitioned store.
        let store =
            Store::new_partitioned(&["Public", "High"], &[(1, 0)], map.partition(0).unwrap())
                .unwrap();
        let public = store.predicate("Public").unwrap();
        store.append_node("zero", NodeKind::Data, Features::new(), public);
        let data = codec::decode(&store.to_bytes()).unwrap();
        merge.ingest_snapshot(0, &data).unwrap();
        assert_eq!(merge.clocks(), vec![1, 0]);
        let m = merge.materialize();
        assert_eq!(m.lattice.len(), 2, "lattice learned from the snapshot");

        // A snapshot stamped for the wrong slot is refused.
        assert!(matches!(
            merge.ingest_snapshot(1, &data),
            Err(StoreError::ShardMismatch { slot: 1, .. })
        ));
        // A stale re-ingest (same clock) is idempotent, down to the
        // payloads: the held ones stay, so the slot stays extendable.
        let held = merge.slices[0].nodes[0].clone();
        merge.ingest_snapshot(0, &data).unwrap();
        assert_eq!(merge.clocks(), vec![1, 0]);
        assert!(Arc::ptr_eq(&held, &merge.slices[0].nodes[0]));
    }

    #[test]
    fn reset_slot_rewinds_and_bumps_generation() {
        let map = ShardMap::new(2).unwrap();
        let mut merge = ShardMerge::new(map);
        merge
            .apply_record(1, WalRecord::AppendNode(node("one")))
            .unwrap();
        merge
            .apply_record(1, WalRecord::AppendNode(node("three")))
            .unwrap();
        assert_eq!(merge.generation(), 0);
        assert_eq!(merge.reset_slot(1).unwrap(), 2, "abandoned clock");
        assert_eq!(merge.generation(), 1);
        assert_eq!(merge.clocks(), vec![0, 0]);
        assert_eq!(merge.materialize().graph.node_count(), 0);
        // After the reset the slot re-ingests from scratch — a snapshot
        // that would have been "stale" against the abandoned clock now
        // bootstraps normally.
        let store = Store::new_partitioned(&["Public"], &[], map.partition(1).unwrap()).unwrap();
        let public = store.predicate("Public").unwrap();
        store.append_node("one", NodeKind::Data, Features::new(), public);
        let data = codec::decode(&store.to_bytes()).unwrap();
        merge.ingest_snapshot(1, &data).unwrap();
        assert_eq!(merge.clocks(), vec![0, 1]);
        assert!(matches!(
            merge.reset_slot(9),
            Err(StoreError::ShardMismatch { slot: 9, .. })
        ));
        assert_eq!(merge.generation(), 1, "failed reset does not bump");
    }

    #[test]
    fn frames_apply_through_the_merge() {
        let map = ShardMap::new(2).unwrap();
        let mut merge = ShardMerge::new(map);
        let mut frames = Vec::new();
        frames.extend(codec::encode_frame(&WalRecord::AppendNode(node("one"))));
        frames.extend(codec::encode_frame(&WalRecord::AppendNode(node("three"))));
        merge.apply_frames(1, 0, &frames).unwrap();
        assert_eq!(merge.clocks(), vec![0, 2]);
        // Re-delivery is idempotent; a gap is typed.
        merge.apply_frames(1, 0, &frames).unwrap();
        assert_eq!(merge.clocks(), vec![0, 2]);
        assert!(matches!(
            merge.apply_frames(1, 5, &frames),
            Err(StoreError::ReplicationGap {
                expected: 2,
                found: 5
            })
        ));
    }
}
