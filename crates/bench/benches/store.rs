//! Criterion benches for the store substrate: snapshot encode/decode
//! ("DB access") and materialization ("build graph") — Fig. 10's
//! non-protection bars — what one epoch costs the serving layer,
//! rebuilt from the whole log or extended from its predecessor, and what
//! a durable replica pays to apply a shipped chunk.

use std::cell::RefCell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use plus_store::codec::WalRecord;
use plus_store::{AccountService, EdgeKind, NodeKind, NodeRecord, RecordId, Store};
use surrogate_bench::experiments::fig10::{build_store, Fig10Config};
use surrogate_core::feature::Features;
use surrogate_core::privilege::PrivilegeId;

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    for &(stages, width) in &[(5usize, 5usize), (25, 20)] {
        let store = build_store(Fig10Config {
            stages,
            width,
            sensitive_fraction: 0.15,
            iterations: 1,
            seed: 11,
            simulated_db_roundtrip_us: None,
        });
        let records = store.node_count();
        let bytes = store.to_bytes();

        group.bench_with_input(BenchmarkId::new("encode", records), &records, |b, _| {
            b.iter(|| store.to_bytes());
        });
        group.bench_with_input(BenchmarkId::new("decode", records), &records, |b, _| {
            b.iter(|| Store::from_bytes(&bytes).expect("decodes"));
        });
        group.bench_with_input(
            BenchmarkId::new("materialize", records),
            &records,
            |b, _| {
                b.iter(|| store.materialize());
            },
        );
    }
    group.finish();
}

/// `snapshot/{rebuild,extend,pin}/{1025n,4860n}`: `AccountService::snapshot`
/// (materialization plus index) on `spbench`'s G1k and G5k shapes.
/// `rebuild` is a cold service's first epoch. `extend` is the epoch after
/// a two-record write: a node, and an edge into it from the node the
/// write before appended, as a workflow grows step by step. `pin` is the
/// same epoch while a reader holds its predecessor, so the successor is
/// built on a clone of the materialization and its index; the pin is
/// dropped in the iteration. The written store is replaced by a fresh
/// copy every [`Growing::RESET`] writes, untimed, so the graph stays
/// within that many nodes of the stated size.
fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    for &(stages, width) in &[(20usize, 25usize), (40, 60)] {
        let store = Arc::new(build_store(Fig10Config {
            stages,
            width,
            sensitive_fraction: 0.15,
            iterations: 1,
            seed: 11,
            simulated_db_roundtrip_us: None,
        }));
        let size = format!("{}n", store.node_count());

        group.bench_function(BenchmarkId::new("rebuild", &size), |b| {
            b.iter(|| AccountService::new(store.clone()).snapshot());
        });

        let bytes = store.to_bytes();
        let growing = RefCell::new(Growing::new(&bytes));
        let reset = || {
            let mut growing = growing.borrow_mut();
            if growing.writes == Growing::RESET {
                *growing = Growing::new(&bytes);
            }
        };
        group.bench_function(BenchmarkId::new("extend", &size), |b| {
            b.iter_batched(
                reset,
                |()| {
                    let mut growing = growing.borrow_mut();
                    growing.write();
                    growing.service.snapshot()
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(BenchmarkId::new("pin", &size), |b| {
            b.iter_batched(
                reset,
                |()| {
                    let mut growing = growing.borrow_mut();
                    let pinned = growing.service.snapshot();
                    growing.write();
                    let successor = growing.service.snapshot();
                    drop(pinned);
                    successor
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// A served store that grows one workflow step per write.
struct Growing {
    store: Arc<Store>,
    service: AccountService,
    last: RecordId,
    writes: usize,
}

impl Growing {
    const RESET: usize = 128;

    /// A store decoded from `bytes`, with its first epoch built.
    fn new(bytes: &[u8]) -> Growing {
        let store = Arc::new(Store::from_bytes(bytes).expect("decodes"));
        let service = AccountService::new(store.clone());
        service.snapshot();
        let last = RecordId(store.node_count() as u32 - 1);
        Growing {
            store,
            service,
            last,
            writes: 0,
        }
    }

    /// Appends a node and an edge into it from the last one appended.
    fn write(&mut self) {
        let node = self
            .store
            .append_node("step", NodeKind::Data, Features::new(), PrivilegeId(0));
        self.store
            .append_edge(self.last, node, EdgeKind::InputTo)
            .expect("both nodes exist");
        self.last = node;
        self.writes += 1;
    }
}

/// `store/replica_apply/{per_record,chunk}`: a 256-record chunk applied
/// to a fresh durable replica with `fsync` on, one
/// `Store::apply_replicated` per record (a flush each) or one
/// `Store::apply_replicated_chunk` (one flush). Creating the replica is
/// not timed.
fn bench_replica_apply(c: &mut Criterion) {
    const CHUNK: u64 = 256;
    let records: Vec<WalRecord> = (0..CHUNK)
        .map(|clock| {
            WalRecord::AppendNode(NodeRecord {
                label: format!("n{clock}"),
                kind: NodeKind::Data,
                features: Features::new().with("clock", clock as i64),
                lowest: PrivilegeId(0),
                created_at: clock,
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("bench-replica-apply-{}", std::process::id()));
    let replica = || {
        let _ = std::fs::remove_dir_all(&dir);
        Store::create_durable(&dir, &["Public"], &[]).expect("creates a replica")
    };
    let mut group = c.benchmark_group("store/replica_apply");
    group.bench_function("per_record", |b| {
        b.iter_batched(
            replica,
            |store| {
                for record in &records {
                    store.apply_replicated(record.clone(), 0).expect("applies");
                }
                store
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("chunk", |b| {
        b.iter_batched(
            replica,
            |store| {
                store
                    .apply_replicated_chunk(0, records.clone(), 0)
                    .expect("applies");
                store
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store, bench_snapshot, bench_replica_apply);
criterion_main!(benches);
