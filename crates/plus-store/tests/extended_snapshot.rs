//! An epoch built from its predecessor is the epoch a rebuild would have
//! produced. `AccountService::snapshot` brings the retired snapshot's
//! materialization forward with `Store::delta_since` +
//! `Materialized::extend`; `Store::materialize` (the whole log, from
//! empty) is the oracle, and so is every account generated from it.
//!
//! Each test names the one-line mutation it exists to catch.

use std::path::PathBuf;
use std::sync::Arc;

use graphgen::workflow::{generate as generate_workflow, WorkflowConfig};
use plus_store::{
    AccountService, DurabilityOptions, EdgeKind, Materialized, NodeKind, PolicyStatement, RecordId,
    Store, Strategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate_core::account::ProtectedAccount;
use surrogate_core::feature::Features;
use surrogate_core::graph::NodeId;
use surrogate_core::marking::{Marking, MarkingRule};
use surrogate_core::privilege::PrivilegeId;

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
fn assert_serves_what_a_rebuild_would(service: &AccountService, store: &Store) {
    let snapshot = service.snapshot();
    assert_eq!(snapshot.epoch(), store.version());
    assert_same_materialization(&snapshot, &store.materialize());
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

/// Catches: extending a pinned `Materialized` in place (the pin would
/// grow a node and an edge, and its next `protect_at` would see them).
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
