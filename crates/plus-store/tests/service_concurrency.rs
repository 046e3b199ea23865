//! Concurrency contract of `AccountService`: several reader threads
//! hammer `protect_at` / `query` while a writer applies mutations, and
//! every answer must be consistent with the epoch it claims.
//!
//! The store construction makes "consistent" checkable: after the base
//! fixture, **every mutation appends exactly one Public node**, so the
//! public account at epoch `e` must contain exactly
//! `base_nodes + (e - base_epoch)` nodes. An account served from a stale
//! cache entry, or generated from a materialization inconsistent with its
//! epoch stamp, fails that equation immediately.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use graphgen::workflow::{self, WorkflowConfig};
use plus_store::{
    AccountService, Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, Store,
};
use surrogate_core::account::Strategy;
use surrogate_core::credential::Consumer;
use surrogate_core::feature::Features;

const READERS: usize = 4;
const MUTATIONS: usize = 200;

/// secret(High, Public surrogate wired in place) → analysis → report.
fn base_store() -> Arc<Store> {
    let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)]).unwrap());
    let public = store.predicate("Public").unwrap();
    let high = store.predicate("High").unwrap();
    let secret = store.append_node("secret source", NodeKind::Agent, Features::new(), high);
    let analysis = store.append_node("analysis", NodeKind::Process, Features::new(), public);
    let report = store.append_node("report", NodeKind::Data, Features::new(), public);
    store
        .append_edge(secret, analysis, EdgeKind::InputTo)
        .unwrap();
    store
        .append_edge(analysis, report, EdgeKind::GeneratedBy)
        .unwrap();
    store
        .apply_policy(PolicyStatement::AddSurrogate {
            node: secret,
            label: "a trusted source".into(),
            features: Features::new(),
            lowest: public,
            info_score: 0.3,
        })
        .unwrap();
    store
}

#[test]
fn concurrent_mutations_never_serve_stale_epochs() {
    let store = base_store();
    let public = store.predicate("Public").unwrap();
    let service = Arc::new(AccountService::new(store.clone()));
    let base_epoch = store.version();
    let base_nodes = service
        .protect(&[public], &Strategy::Surrogate)
        .unwrap()
        .graph()
        .node_count() as u64;

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader in 0..READERS {
        let service = service.clone();
        let done = done.clone();
        readers.push(std::thread::spawn(move || {
            let consumer = Consumer::public(&service.snapshot().lattice);
            let mut last_epoch = 0u64;
            let mut iterations = 0u64;
            while !done.load(Ordering::Relaxed) || iterations == 0 {
                iterations += 1;
                // Account path: the served account must match the epoch of
                // the snapshot it was resolved against.
                let snapshot = service.snapshot();
                let epoch = snapshot.epoch();
                assert!(
                    epoch >= last_epoch,
                    "reader {reader}: epoch went backward ({last_epoch} -> {epoch})"
                );
                last_epoch = epoch;
                let account = service
                    .protect_at(&snapshot, &[public], &Strategy::Surrogate)
                    .expect("protection never fails on this workload");
                assert_eq!(
                    account.graph().node_count() as u64,
                    base_nodes + (epoch - base_epoch),
                    "reader {reader}: account inconsistent with epoch {epoch}"
                );

                // Query path: the response's stamped epoch must obey the
                // same equation, and the lineage answer itself is an
                // epoch-independent paper invariant (the appended nodes
                // are isolated, so upstream of `report` never changes).
                let response = service
                    .query(
                        &consumer,
                        &QueryRequest::new(
                            plus_store::RecordId(2),
                            Direction::Backward,
                            u32::MAX,
                            Strategy::Surrogate,
                        ),
                    )
                    .expect("public query is authorized");
                assert!(
                    response.epoch >= last_epoch,
                    "reader {reader}: response epoch went backward"
                );
                last_epoch = response.epoch;
                let labels: Vec<&str> = response.rows.iter().map(|r| r.label.as_str()).collect();
                assert_eq!(
                    labels,
                    ["analysis", "a trusted source"],
                    "reader {reader}: lineage answer drifted at epoch {}",
                    response.epoch
                );
                assert!(response.rows[1].surrogate, "surrogate flag preserved");
            }
            iterations
        }));
    }

    // Writer: one Public node per mutation, each bumping the version by 1.
    let writer = {
        let store = store.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            for i in 0..MUTATIONS {
                store.append_node(
                    format!("extra-{i}"),
                    NodeKind::Data,
                    Features::new(),
                    public,
                );
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    writer.join().unwrap();
    let iterations: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(iterations >= READERS as u64, "every reader ran");

    // Quiesced: the final epoch reflects every mutation.
    assert_eq!(store.version(), base_epoch + MUTATIONS as u64);
    let final_account = service.protect(&[public], &Strategy::Surrogate).unwrap();
    assert_eq!(
        final_account.graph().node_count() as u64,
        base_nodes + MUTATIONS as u64
    );
    // `cached_accounts` counts the live snapshot only, whatever readers
    // still pin: a fresh epoch starts cold and holds exactly the one
    // account requested from it.
    store.append_node("final", NodeKind::Data, Features::new(), public);
    let _ = service.protect(&[public], &Strategy::Surrogate).unwrap();
    assert_eq!(
        service.cached_accounts(),
        1,
        "only the live epoch remains cached after quiescence"
    );
}

#[test]
fn concurrent_policy_mutations_flip_visibility_atomically() {
    // The writer toggles the secret node's incidences between Hide and
    // Visible for the public; readers must only ever observe one of the
    // two legal account shapes — the surrogate wired in place (2 edges)
    // or cut off (1 edge) — never a torn mix, and the analysis → report
    // edge survives every flip.
    let store = base_store();
    let public = store.predicate("Public").unwrap();
    let service = Arc::new(AccountService::new(store.clone()));
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let service = service.clone();
        let done = done.clone();
        readers.push(std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let account = service.protect(&[public], &Strategy::Surrogate).unwrap();
                assert_eq!(account.graph().node_count(), 3, "node layer is stable");
                let edges = account.graph().edge_count();
                assert!(
                    edges == 1 || edges == 2,
                    "illegal account shape: {edges} edges"
                );
                let analysis = account
                    .account_node(surrogate_core::graph::NodeId(1))
                    .expect("analysis is public");
                let report = account
                    .account_node(surrogate_core::graph::NodeId(2))
                    .expect("report is public");
                assert!(
                    account.graph().has_edge(analysis, report),
                    "the public half of the chain survives every flip"
                );
            }
        }));
    }

    for i in 0..64 {
        let marking = if i % 2 == 0 {
            surrogate_core::marking::Marking::Hide
        } else {
            surrogate_core::marking::Marking::Visible
        };
        store
            .apply_policy(PolicyStatement::MarkNode {
                node: plus_store::RecordId(0),
                predicate: Some(public),
                marking,
            })
            .unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
}

/// A cold cache key under a thundering herd must trigger exactly one
/// account build: the first miss generates while holding the key's slot
/// in the snapshot, and the other fifteen block on it and are served
/// its account. The store is `spbench`'s G5k shape (4 860 nodes), where
/// one surrogate `protect` takes milliseconds — a real race window.
#[test]
fn cold_cache_misses_build_exactly_once_per_key() {
    const HERD: usize = 16;
    let wf = workflow::generate(WorkflowConfig {
        stages: 40,
        width: 60,
        max_fan_in: 3,
        sensitive_fraction: 0.15,
        seed: 1,
    });
    let store = plus_store::ingest(
        &wf.graph,
        &wf.lattice,
        &wf.markings,
        &wf.catalog,
        plus_store::IngestKinds::default(),
    )
    .unwrap();
    let service = AccountService::new(Arc::new(store));
    let snapshot = service.snapshot();
    let consumer = Consumer::public(&snapshot.lattice);
    let (_, protects_before, _) = service.protect_stats();

    let barrier = std::sync::Barrier::new(HERD);
    let accounts: Vec<_> = std::thread::scope(|scope| {
        let herd: Vec<_> = (0..HERD)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service
                        .get_account(&consumer, &Strategy::Surrogate)
                        .expect("the public account is always authorized")
                })
            })
            .collect();
        herd.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert_eq!(
        service.protect_stats().1 - protects_before,
        1,
        "thundering herd on one cold key must collapse to a single build"
    );
    // Every follower got the leader's account, not a private rebuild.
    for account in &accounts[1..] {
        assert!(Arc::ptr_eq(account, &accounts[0]));
    }
}
