//! An epoch built from its predecessor is the epoch a rebuild would have
//! produced. `AccountService::snapshot` brings the retired snapshot's
//! materialization forward with `Store::delta_since` (or, on a gather,
//! `ShardMerge::delta_since`) + `Materialized::extend`, and its index with
//! `Csr::extend`; `Store::materialize` or `ShardMerge::materialize` (the
//! whole log, from empty) is the oracle, and so is every account
//! generated from it and the index `Csr::build` makes of it.
//!
//! Each test names the one-line mutation it exists to catch.

use std::path::PathBuf;
use std::sync::Arc;

use graphgen::workflow::{generate as generate_workflow, WorkflowConfig};
use plus_store::codec::{SnapshotData, WalRecord};
use plus_store::{
    AccountService, DurabilityOptions, EdgeKind, EdgeRecord, Materialized, MergedSource, NodeKind,
    NodeRecord, PolicyStatement, RecordId, Store, Strategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate_core::account::ProtectedAccount;
use surrogate_core::feature::Features;
use surrogate_core::graph::{Csr, NodeId};
use surrogate_core::marking::{Marking, MarkingRule};
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::ShardMap;

const PUBLIC: PrivilegeId = PrivilegeId(0);
const RESTRICTED: PrivilegeId = PrivilegeId(1);
const OTHER: PrivilegeId = PrivilegeId(2);
const NAMES: [&str; 3] = ["Public", "Restricted", "Other"];
/// `Restricted` and `Other` each dominate `Public` and are incomparable,
/// so `{Restricted, Other}` is a genuine two-predicate high-water set.
const DOMINANCE: [(usize, usize); 2] = [(1, 0), (2, 0)];
const STRATEGIES: [Strategy; 3] = [
    Strategy::Surrogate,
    Strategy::HideEdges,
    Strategy::HideNodes,
];

fn high_water_sets() -> [Vec<PrivilegeId>; 2] {
    [vec![PUBLIC], vec![RESTRICTED, OTHER]]
}

/// One store write.
#[derive(Debug, Clone)]
enum Op {
    Node(String, Features, PrivilegeId),
    Edge(RecordId, RecordId),
    Policy(PolicyStatement),
}

impl Op {
    /// The highest node id the write names; it is valid once that node
    /// has been appended.
    fn needs(&self) -> u32 {
        match self {
            Op::Node(..) => 0,
            Op::Edge(from, to) => from.0.max(to.0),
            Op::Policy(PolicyStatement::MarkIncidence { node, from, to, .. }) => {
                node.0.max(from.0).max(to.0)
            }
            Op::Policy(PolicyStatement::MarkNode { node, .. })
            | Op::Policy(PolicyStatement::AddSurrogate { node, .. }) => node.0,
        }
    }

    fn apply(self, store: &Store) {
        match self {
            Op::Node(label, features, lowest) => {
                store.append_node(label, NodeKind::Data, features, lowest);
            }
            Op::Edge(from, to) => store.append_edge(from, to, EdgeKind::Related).unwrap(),
            Op::Policy(statement) => store.apply_policy(statement).unwrap(),
        }
    }
}

/// A workflow's whole protection setup as store writes, in a random
/// interleaving that only respects what the store validates: node ids
/// are append order, and an edge or statement follows the nodes it
/// names. All three `PolicyStatement` kinds occur — the workflow's own
/// `MarkNode`/`AddSurrogate`, plus one random `MarkIncidence` per third
/// edge, some of which overwrite each other.
fn interleaved_ops(config: WorkflowConfig) -> Vec<Op> {
    let wf = generate_workflow(config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
    let rid = |n: NodeId| RecordId(n.0);

    let mut dependent = Vec::new();
    for (from, to) in wf.graph.edges() {
        dependent.push(Op::Edge(rid(from), rid(to)));
        if rng.gen_range(0..3) == 0 {
            let predicates = [None, Some(PUBLIC), Some(OTHER)];
            let markings = [Marking::Visible, Marking::Surrogate, Marking::Hide];
            dependent.push(Op::Policy(PolicyStatement::MarkIncidence {
                node: rid(if rng.gen_bool(0.5) { from } else { to }),
                from: rid(from),
                to: rid(to),
                predicate: predicates[rng.gen_range(0..predicates.len())],
                marking: markings[rng.gen_range(0..markings.len())],
            }));
        }
    }
    for rule in wf.markings.rules() {
        let MarkingRule::NodePred {
            node,
            predicate,
            marking,
        } = rule
        else {
            unreachable!("workflows only mark whole nodes for one predicate");
        };
        dependent.push(Op::Policy(PolicyStatement::MarkNode {
            node: rid(node),
            predicate: Some(predicate),
            marking,
        }));
    }
    for n in wf.graph.node_ids() {
        for def in wf.catalog.for_node(n) {
            dependent.push(Op::Policy(PolicyStatement::AddSurrogate {
                node: rid(n),
                label: def.label.clone(),
                features: def.features.clone(),
                lowest: def.lowest,
                info_score: def.info_score,
            }));
        }
    }

    let mut ops = Vec::with_capacity(wf.graph.node_count() + dependent.len());
    let mut ready: Vec<Op> = Vec::new();
    let mut next_node = 0u32;
    let total = wf.graph.node_count() as u32;
    while next_node < total || !ready.is_empty() {
        if ready.is_empty() || (next_node < total && rng.gen_bool(0.4)) {
            let node = wf.graph.node(NodeId(next_node));
            // A sixth of the nodes move to the third predicate, so the
            // two-predicate account differs from the Restricted one.
            let lowest = match rng.gen_range(0..6) {
                0 => OTHER,
                _ => node.lowest,
            };
            ops.push(Op::Node(node.label.clone(), node.features.clone(), lowest));
            let (now, later) = std::mem::take(&mut dependent)
                .into_iter()
                .partition(|op| op.needs() == next_node);
            ready.extend::<Vec<Op>>(now);
            dependent = later;
            next_node += 1;
        } else {
            ops.push(ready.swap_remove(rng.gen_range(0..ready.len())));
        }
    }
    assert!(dependent.is_empty(), "every write was scheduled");
    ops
}

/// Field by field, everything a materialization exposes — in order,
/// because answers are compared row by row and edge lists in order.
fn assert_same_materialization(got: &Materialized, want: &Materialized) {
    assert_eq!(got.graph.node_count(), want.graph.node_count());
    assert_eq!(
        got.graph.edges().collect::<Vec<_>>(),
        want.graph.edges().collect::<Vec<_>>()
    );
    for n in want.graph.node_ids() {
        assert_eq!(got.graph.node(n), want.graph.node(n), "payload of {n}");
        assert_eq!(got.graph.out_neighbors(n), want.graph.out_neighbors(n));
        assert_eq!(got.graph.in_neighbors(n), want.graph.in_neighbors(n));
        assert_eq!(got.catalog.for_node(n), want.catalog.for_node(n));
    }
    for (i, edge) in want.graph.edges().enumerate() {
        assert_eq!(got.graph.edge_index(edge), Some(i));
    }
    assert_eq!(got.markings.rules(), want.markings.rules());
    assert_eq!(got.catalog.len(), want.catalog.len());
    assert_eq!(got.lattice.names_in_order(), want.lattice.names_in_order());
}

fn assert_same_account(got: &ProtectedAccount, want: &ProtectedAccount) {
    assert_eq!(got.high_water(), want.high_water());
    assert_eq!(got.strategy(), want.strategy());
    assert_eq!(got.graph().node_count(), want.graph().node_count());
    for n in want.graph().node_ids() {
        assert_eq!(got.graph().node(n), want.graph().node(n));
        assert_eq!(got.original_node(n), want.original_node(n));
        assert_eq!(got.correspondence(n), want.correspondence(n));
    }
    let edges = |a: &ProtectedAccount| -> Vec<_> {
        (a.graph().edges())
            .map(|e| (e, a.is_surrogate_edge(e)))
            .collect()
    };
    assert_eq!(edges(got), edges(want));
}

/// The served snapshot against both oracles: `store.materialize()`, and
/// every account of a fresh service over a reopened copy of the store.
/// Its index is the one its graph builds.
fn assert_serves_what_a_rebuild_would(service: &AccountService, store: &Store) {
    let snapshot = service.snapshot();
    assert_eq!(snapshot.epoch(), store.version());
    assert_same_materialization(&snapshot, &store.materialize());
    assert_eq!(snapshot.index().csr(), &Csr::build(&snapshot.graph));
    let reopened = AccountService::new(Arc::new(Store::from_bytes(&store.to_bytes()).unwrap()));
    for strategy in &STRATEGIES {
        for preds in &high_water_sets() {
            assert_same_account(
                &service.protect_at(&snapshot, preds, strategy).unwrap(),
                &reopened.protect(preds, strategy).unwrap(),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Catches: `extend` applying edges before nodes (an edge to a node of
    /// the same delta panics in `add_edge`); policy replayed from 0
    /// instead of from the recorded length (`AddSurrogate` lands twice, so
    /// `catalog.for_node` differs); a delta that skips or repeats a record
    /// (counts, order or payloads differ).
    #[test]
    fn extended_snapshot_equals_rebuild(
        stages in 1usize..4,
        width in 1usize..5,
        max_fan_in in 1usize..4,
        sensitive_tenths in 0u32..7,
        seed in any::<u64>(),
        every in 1usize..6,
        pin_mask in any::<u8>(),
    ) {
        let ops = interleaved_ops(WorkflowConfig {
            stages,
            width,
            max_fan_in,
            sensitive_fraction: f64::from(sensitive_tenths) / 10.0,
            seed,
        });
        let store = Arc::new(Store::new(&NAMES, &DOMINANCE).unwrap());
        let service = AccountService::new(store.clone());
        let mut snapshots = 0u64;
        let mut pin = None;
        for (written, op) in ops.into_iter().enumerate() {
            op.apply(&store);
            if (written + 1) % every != 0 {
                continue;
            }
            assert_serves_what_a_rebuild_would(&service, &store);
            // Some epochs stay pinned while their successor is built (the
            // clone path), the rest are the service's alone (the take
            // path).
            pin = (pin_mask >> (snapshots % 8) & 1 == 1).then(|| service.snapshot());
            snapshots += 1;
        }
        drop(pin);
        let (extended, rebuilt, _) = service.snapshot_stats();
        prop_assert_eq!(rebuilt, snapshots.min(1), "only the cold start rebuilds");
        prop_assert_eq!(extended + rebuilt, snapshots);
    }
}

fn two_node_store() -> (Arc<Store>, AccountService) {
    let store = Arc::new(Store::new(&NAMES, &DOMINANCE).unwrap());
    let a = store.append_node("a", NodeKind::Data, Features::new(), PUBLIC);
    let b = store.append_node("b", NodeKind::Data, Features::new(), RESTRICTED);
    store.append_edge(a, b, EdgeKind::Related).unwrap();
    let service = AccountService::new(store.clone());
    (store, service)
}

/// Catches: extending a pinned `Materialized` or its index in place (the
/// pin would grow a node and an edge, and its next `protect_at` would
/// see them).
#[test]
fn pinned_snapshot_is_untouched_by_its_successor() {
    let (store, service) = two_node_store();
    let pinned = service.snapshot();
    let before = service
        .protect_at(&pinned, &[RESTRICTED], &Strategy::Surrogate)
        .unwrap();
    assert_eq!(service.snapshot_stats().0, 0);

    let c = store.append_node("c", NodeKind::Data, Features::new(), PUBLIC);
    store
        .append_edge(RecordId(1), c, EdgeKind::Related)
        .unwrap();
    let successor = service.snapshot();
    assert_eq!(
        (successor.graph.node_count(), successor.graph.edge_count()),
        (3, 2)
    );
    assert_eq!(
        (pinned.graph.node_count(), pinned.graph.edge_count()),
        (2, 1)
    );
    assert_eq!(
        (pinned.index().node_count(), pinned.index().edge_count()),
        (2, 1)
    );
    // A different key, so this is generated from the pin now, not served
    // from its cache.
    let after = service
        .protect_at(&pinned, &[RESTRICTED, OTHER], &Strategy::Surrogate)
        .unwrap();
    assert_eq!(after.graph().node_count(), before.graph().node_count());
    assert_eq!(
        after.graph().edges().collect::<Vec<_>>(),
        before.graph().edges().collect::<Vec<_>>()
    );
    // Pinned or not, the successor was extended — and shares the payloads.
    assert_eq!(service.snapshot_stats().0, 1);
    let first = NodeId(0);
    assert!(Arc::ptr_eq(
        pinned.graph.shared_node(first),
        successor.graph.shared_node(first)
    ));

    // With no pin left, the next epoch takes the retired snapshot's
    // storage: nothing else holds it, and it is gone once the build is.
    let retired = Arc::downgrade(&successor);
    drop((pinned, successor));
    store.append_node("d", NodeKind::Data, Features::new(), PUBLIC);
    let next = service.snapshot();
    assert!(retired.upgrade().is_none());
    assert_eq!(next.graph.node_count(), 4);
    let (extended, rebuilt, _) = service.snapshot_stats();
    assert_eq!((extended, rebuilt), (2, 1));
    assert_serves_what_a_rebuild_would(&service, &store);
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("extended-snapshot-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Catches: the `ptr_eq`/length guard of `Store::delta_since` removed.
/// The installed history is longer than the served one in all three
/// lists but is not its extension, so a delta taken by lengths alone
/// would graft its tail onto the old prefix.
#[test]
fn install_snapshot_forces_a_rebuild() {
    let dir = temp_dir("install");
    let options = DurabilityOptions {
        fsync: false,
        ..Default::default()
    };
    let store = Arc::new(Store::create_durable_with(&dir, &NAMES, &DOMINANCE, options).unwrap());
    let a = store.append_node("stale-a", NodeKind::Data, Features::new(), PUBLIC);
    let b = store.append_node("stale-b", NodeKind::Data, Features::new(), PUBLIC);
    store.append_edge(b, a, EdgeKind::Related).unwrap();
    let service = AccountService::new(store.clone());
    assert_serves_what_a_rebuild_would(&service, &store);
    assert_eq!(service.snapshot_stats().1, 1);

    let (primary, _) = two_node_store();
    primary
        .apply_policy(PolicyStatement::MarkNode {
            node: RecordId(1),
            predicate: None,
            marking: Marking::Surrogate,
        })
        .unwrap();
    primary.append_node("c", NodeKind::Data, Features::new(), OTHER);
    store.install_snapshot(&primary.to_bytes()).unwrap();
    assert_serves_what_a_rebuild_would(&service, &store);
    assert_eq!(service.snapshot().graph.node(NodeId(a.0)).label, "a");
    let (extended, rebuilt, _) = service.snapshot_stats();
    assert_eq!((extended, rebuilt), (0, 2), "a swapped history is rebuilt");

    // The rebuilt epoch is this log's prefix again.
    store.append_node("d", NodeKind::Data, Features::new(), PUBLIC);
    assert_serves_what_a_rebuild_would(&service, &store);
    assert_eq!(service.snapshot_stats().0, 1);

    // A durable reopen starts cold and agrees with the same oracle.
    let served = service.snapshot();
    drop(service);
    drop(store);
    let reopened = Arc::new(Store::open(&dir).unwrap());
    let service = AccountService::new(reopened.clone());
    assert_same_materialization(&service.snapshot(), &served);
    assert_serves_what_a_rebuild_would(&service, &reopened);
    let (extended, rebuilt, _) = service.snapshot_stats();
    assert_eq!((extended, rebuilt), (0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A gather's view of shard logs: what each shard wrote, and the
/// merge and service a feed folds it into.
struct Gather {
    map: ShardMap,
    logs: Vec<Vec<WalRecord>>,
    merged: Arc<MergedSource>,
    service: AccountService,
}

impl Gather {
    /// Every slot bootstrapped from an empty snapshot, as a cold feed is.
    fn new(slots: u32) -> Self {
        let gather = Self::unbootstrapped(slots);
        for slot in 0..slots {
            gather.bootstrap(slot, 0);
        }
        gather
    }

    /// No slot has declared the lattice yet.
    fn unbootstrapped(slots: u32) -> Self {
        let map = ShardMap::new(slots).unwrap();
        let merged = Arc::new(MergedSource::new(map));
        Gather {
            map,
            logs: vec![Vec::new(); slots as usize],
            service: AccountService::sharded(merged.clone()),
            merged,
        }
    }

    /// Writes `op` to the shard that owns it: a node to the owner of the
    /// next global id, an edge to its tail's, a statement to its node's.
    fn write(&mut self, op: Op) {
        let (owner, record) = match op {
            Op::Node(label, features, lowest) => {
                let id = self.logs.iter().map(|log| nodes_in(log)).sum::<u32>();
                let record = NodeRecord {
                    label,
                    kind: NodeKind::Data,
                    features,
                    lowest,
                    created_at: 0,
                };
                (id, WalRecord::AppendNode(record))
            }
            Op::Edge(from, to) => (
                from.0,
                WalRecord::AppendEdge(EdgeRecord {
                    from,
                    to,
                    kind: EdgeKind::Related,
                }),
            ),
            Op::Policy(statement) => {
                let (PolicyStatement::MarkIncidence { node, .. }
                | PolicyStatement::MarkNode { node, .. }
                | PolicyStatement::AddSurrogate { node, .. }) = statement;
                (node.0, WalRecord::ApplyPolicy(statement))
            }
        };
        self.logs[self.map.shard_of(owner) as usize].push(record);
    }

    fn clock(&self, slot: u32) -> usize {
        self.merged.clocks()[slot as usize] as usize
    }

    /// Folds slot `slot`'s next `n` records, as a feed's frames.
    fn fold(&self, slot: u32, n: usize) {
        let from = self.clock(slot);
        let log = &self.logs[slot as usize];
        for record in &log[from..(from + n).min(log.len())] {
            (self.merged).update(|m| m.apply_record(slot, record.clone()).unwrap());
        }
    }

    /// Re-bootstraps slot `slot` from its shard's snapshot at `clock`.
    fn bootstrap(&self, slot: u32, clock: usize) {
        let log = &self.logs[slot as usize][..clock];
        let mut data = SnapshotData {
            lattice_names: NAMES.iter().map(|name| name.to_string()).collect(),
            dominance: (DOMINANCE.iter())
                .map(|&(hi, lo)| (PrivilegeId(hi as u16), PrivilegeId(lo as u16)))
                .collect(),
            nodes: Vec::new(),
            edges: Vec::new(),
            policy: Vec::new(),
            clock: clock as u64,
            partition: self.map.partition(slot),
        };
        for record in log.iter().cloned() {
            match record {
                WalRecord::AppendNode(node) => data.nodes.push(node),
                WalRecord::AppendEdge(edge) => data.edges.push(edge),
                WalRecord::ApplyPolicy(statement) => data.policy.push(statement),
            }
        }
        (self.merged).update(|m| m.ingest_snapshot(slot, &data).unwrap());
    }

    /// The served snapshot against the merge's own materialization, and
    /// every account against a generation from it. Node payloads are
    /// the merge's own: none is a copy, or left over from a history the
    /// merge dropped. The index is the one the graph builds.
    fn assert_serves_what_a_rebuild_would(&self) {
        let snapshot = self.service.snapshot();
        let oracle = self.merged.update(|m| m.materialize());
        assert_eq!(snapshot.shard_epochs(), self.merged.clocks());
        assert_same_materialization(&snapshot, &oracle);
        assert_eq!(snapshot.index().csr(), &Csr::build(&snapshot.graph));
        for n in (oracle.graph.node_ids()).filter(|&n| !oracle.graph.node(n).label.is_empty()) {
            assert!(
                Arc::ptr_eq(snapshot.graph.shared_node(n), oracle.graph.shared_node(n)),
                "payload of {n} is not the merge's"
            );
        }
        for strategy in &STRATEGIES {
            for preds in &high_water_sets() {
                assert_same_account(
                    &self.service.protect_at(&snapshot, preds, strategy).unwrap(),
                    &oracle.context().protect_set(preds, *strategy).unwrap(),
                );
            }
        }
    }

    /// `(extended, rebuilt)` snapshot builds so far.
    fn builds(&self) -> (u64, u64) {
        let (extended, rebuilt, _) = self.service.snapshot_stats();
        (extended, rebuilt)
    }
}

fn nodes_in(log: &[WalRecord]) -> u32 {
    log.iter()
        .filter(|record| matches!(record, WalRecord::AppendNode(_)))
        .count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Catches: a merge delta laid out from 0 instead of the held count
    /// (payloads differ, or `add_edge` panics); its edges left in log
    /// order (the edge order differs); each slot's statements replayed
    /// from 0 (a surrogate lands twice); the placeholder, payload or
    /// edge-order refusal of `ShardMerge::delta_since` removed. The named
    /// tests below catch each refusal deterministically, where this
    /// property's schedules reach it by chance.
    #[test]
    fn extended_merge_equals_rebuild(
        stages in 1usize..4,
        width in 1usize..5,
        max_fan_in in 1usize..4,
        sensitive_tenths in 0u32..7,
        seed in any::<u64>(),
        slots in 2u32..4,
        pin_mask in any::<u8>(),
    ) {
        let mut gather = Gather::new(slots);
        for op in interleaved_ops(WorkflowConfig {
            stages,
            width,
            max_fan_in,
            sensitive_fraction: f64::from(sensitive_tenths) / 10.0,
            seed,
        }) {
            gather.write(op);
        }
        // The feeds deliver in a random interleaving, so an edge often
        // arrives before its head node; now and then a slot re-bootstraps
        // from a later snapshot, or fails over and is reset.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let (mut folds, mut resets, mut pin) = (0u64, 0, None);
        let behind = |gather: &Gather| {
            (0..slots)
                .filter(|&slot| gather.clock(slot) < gather.logs[slot as usize].len())
                .collect::<Vec<_>>()
        };
        loop {
            let lagging = behind(&gather);
            let Some(&slot) = lagging.get(rng.gen_range(0..lagging.len().max(1))) else {
                break;
            };
            match rng.gen_range(0..20) {
                0 if resets < 2 => {
                    resets += 1;
                    gather.merged.reset_slot(slot).unwrap();
                }
                1..=2 => {
                    let held = gather.clock(slot);
                    let clock = rng.gen_range(held + 1..=gather.logs[slot as usize].len());
                    gather.bootstrap(slot, clock);
                }
                _ => gather.fold(slot, rng.gen_range(1..5)),
            }
            gather.assert_serves_what_a_rebuild_would();
            // Some epochs stay pinned while their successor is built.
            pin = (pin_mask >> (folds % 8) & 1 == 1).then(|| gather.service.snapshot());
            folds += 1;
        }
        drop(pin);
        let (extended, rebuilt) = gather.builds();
        prop_assert_eq!(extended + rebuilt, folds, "one build per fold");

        // One node appended past everything held, wired to the last: the
        // epoch every schedule must extend, snapshot and accounts alike.
        let last = gather.logs.iter().map(|log| nodes_in(log)).sum::<u32>() - 1;
        gather.write(Op::Node("appended".into(), Features::new(), PUBLIC));
        gather.write(Op::Edge(RecordId(last), RecordId(last + 1)));
        for slot in 0..slots {
            gather.fold(slot, 2);
        }
        gather.assert_serves_what_a_rebuild_would();
        let (after, _) = gather.builds();
        prop_assert_eq!(after, extended + 1, "the final append extends");
        let (accounts, _, _) = gather.service.protect_stats();
        prop_assert!(accounts > 0, "no account was extended");
    }
}

/// Slot 0 owns the even ids, slot 1 the odd ones. Nodes 0–3 and a chain
/// 0 → 1 → 2 → 3, all folded and served.
fn two_slot_chain() -> Gather {
    let mut gather = Gather::new(2);
    for i in 0..4u32 {
        gather.write(Op::Node(format!("n{i}"), Features::new(), PUBLIC));
    }
    for i in 0..3u32 {
        gather.write(Op::Edge(RecordId(i), RecordId(i + 1)));
    }
    for slot in 0..2 {
        gather.fold(slot, usize::MAX);
    }
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (0, 1));
    gather
}

/// Catches: `ShardMerge::delta_since` without its generation check. A
/// slot that held no node leaves the payload check nothing to compare,
/// so a reset slot refilled to its old clock with a different statement
/// would look unchanged.
#[test]
fn a_slot_reset_rebuilds_even_at_an_equal_vector() {
    let mut gather = Gather::new(2);
    let node = |label: &str| {
        WalRecord::AppendNode(NodeRecord {
            label: label.into(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: PUBLIC,
            created_at: 0,
        })
    };
    let mark = |marking| {
        vec![WalRecord::ApplyPolicy(PolicyStatement::MarkNode {
            node: RecordId(1),
            predicate: None,
            marking,
        })]
    };
    gather.logs[0] = vec![node("n0"), node("n2")];
    gather.logs[1] = mark(Marking::Hide);
    gather.fold(0, 2);
    gather.fold(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    let before = gather.service.snapshot();

    gather.merged.reset_slot(1).unwrap();
    gather.logs[1] = mark(Marking::Surrogate);
    gather.fold(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    let after = gather.service.snapshot();
    assert_eq!(
        after.shard_epochs(),
        before.shard_epochs(),
        "an equal vector"
    );
    assert_eq!(gather.builds(), (0, 2));
}

/// Catches: `ShardMerge::delta_since` without its placeholder check. An
/// edge into node 5 reaches the gather before node 5 does; the epoch
/// that brings the node would keep the placeholder.
#[test]
fn a_filled_placeholder_rebuilds() {
    let mut gather = two_slot_chain();
    gather.write(Op::Node("n4".into(), Features::new(), PUBLIC));
    gather.write(Op::Node("n5".into(), Features::new(), RESTRICTED));
    gather.write(Op::Edge(RecordId(4), RecordId(5)));
    gather.fold(0, 2);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.service.snapshot().graph.node(NodeId(5)).label, "");
    assert_eq!(gather.builds(), (1, 1), "a tail placeholder extends");

    gather.fold(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (1, 2), "filling it rebuilds");
}

/// Catches: `ShardMerge::delta_since` without its payload check. A
/// later snapshot of the same history replaces every payload of the
/// slot; an extension would keep serving the replaced ones.
#[test]
fn a_snapshot_rebootstrap_rebuilds() {
    let mut gather = two_slot_chain();
    gather.write(Op::Node("n4".into(), Features::new(), PUBLIC));
    gather.write(Op::Edge(RecordId(3), RecordId(4)));
    gather.bootstrap(0, gather.logs[0].len());
    gather.fold(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (0, 2));
}

/// Catches: `ShardMerge::delta_since` without its edge-order check. An
/// edge into node 2 sorts before the held edge into node 3, so
/// appending it would leave the edge list out of canonical order.
#[test]
fn an_edge_into_an_old_node_rebuilds() {
    let mut gather = two_slot_chain();
    gather.write(Op::Edge(RecordId(0), RecordId(2)));
    gather.fold(0, 1);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (0, 2));

    // Into an old node, but after every held edge: the snapshot extends,
    // and the accounts, which do not extend across it, generate.
    let protects = |gather: &Gather| {
        let (extended, generated, _) = gather.service.protect_stats();
        (extended, generated)
    };
    gather.write(Op::Node("n4".into(), Features::new(), PUBLIC));
    gather.fold(0, 1);
    gather.assert_serves_what_a_rebuild_would();
    let (extended, generated) = protects(&gather);
    gather.write(Op::Edge(RecordId(1), RecordId(4)));
    gather.fold(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (2, 2));
    assert_eq!(protects(&gather), (extended, generated + 6));
}

/// Catches: `ShardMerge::delta_since` without its lattice check. A
/// merge serves a one-predicate fallback lattice until a snapshot
/// declares the shards' own; the epoch that learns it must not keep the
/// fallback.
#[test]
fn a_learned_lattice_rebuilds() {
    let mut gather = Gather::unbootstrapped(2);
    gather.write(Op::Node("n0".into(), Features::new(), PUBLIC));
    gather.write(Op::Node("n1".into(), Features::new(), RESTRICTED));
    gather.fold(0, 1);
    assert_eq!(
        gather.service.snapshot().lattice.names_in_order(),
        ["Public"]
    );
    gather.bootstrap(1, 1);
    gather.assert_serves_what_a_rebuild_would();
    assert_eq!(gather.builds(), (0, 2));
}
