//! The replicated-shard churn suite: per-shard fenced failover under a
//! gather, against a single-store oracle.
//!
//! The headline harness sweeps 100 seed-randomized kill/promote
//! schedules over a 2-shard deployment in which every shard primary has
//! its own WAL-shipping replica. Each seed:
//!
//! * routes an acknowledged prefix of a deterministic workload through
//!   a [`ShardRouter`] (a write counts as *acknowledged* only once the
//!   owning shard's replica has caught up past it),
//! * kills one shard primary, appends a small unreplicated fork to its
//!   store (the writes it lost the right to acknowledge), and promotes
//!   the shard's replica — mostly in-process, every 8th seed over the
//!   wire through the replica's fronting server (`spgraph promote`'s
//!   path),
//! * keeps writing through the router, which must fail the slot over to
//!   the promoted primary via the `NotWritable`/dead-socket discipline,
//! * polls the gather throughout and feeds every query-visible epoch
//!   vector into [`EpochVector::observe`] — a single regression, even
//!   mid-repair, fails the seed,
//! * finally diffs every root's traversal through the gather against an
//!   unsharded oracle that applied the same acknowledged operations —
//!   byte-identical, with the scalar epoch equal to the vector's sum,
//! * and (every 4th seed) restarts the deposed shard primary as a
//!   replica of the promoted one: the fork must be truncated by
//!   anti-entropy, the promoted term adopted, and the stores converge
//!   byte-for-byte.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use plus_store::wire::{WireErrorKind, WriteOp};
use plus_store::{
    AccountService, Direction, DurabilityOptions, EdgeKind, NodeKind, PolicyStatement,
    QueryRequest, QueryResponse, RecordId, ReplicaRole, Store, Strategy,
};
use server::{
    Client, ClientError, Gather, GatherConfig, Replica, ReplicaConfig, Server, ServerConfig,
    ShardRouter, Topology,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;
use surrogate_core::shard::{EpochVector, Partition};

const LATTICE: (&[&str], &[(usize, usize)]) = (&["Public", "Mid", "High"], &[(1, 0), (2, 1)]);
const SHARDS: u32 = 2;
const SYNC: Duration = Duration::from_secs(20);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shardfail-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast() -> DurabilityOptions {
    DurabilityOptions {
        fsync: false,
        ..Default::default()
    }
}

fn replica_config() -> ReplicaConfig {
    ReplicaConfig {
        durability: fast(),
        connect_attempts: 100,
        reconnect_backoff: Duration::from_millis(10),
        ..ReplicaConfig::default()
    }
}

fn gather_config() -> GatherConfig {
    GatherConfig {
        reconnect_backoff: Duration::from_millis(10),
        ..GatherConfig::default()
    }
}

fn shard_server_config(index: u32, topology: &Topology) -> ServerConfig {
    ServerConfig {
        role: server::Role::Shard {
            index,
            count: SHARDS,
            topology: topology.clone(),
            feed: None,
        },
        threads: 2,
        allow_replication: true,
        ..ServerConfig::default()
    }
}

fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

/// The deterministic workload, op by op: mostly node appends (which the
/// router round-robins, keeping global ids dense and oracle-comparable),
/// every 4th op a chain edge between the two most recent nodes (unique
/// pairs by construction, crossing shards by id parity), every 10th a
/// policy statement routed by its governed node.
fn op_at(i: usize, nodes: u32) -> WriteOp {
    if i % 10 == 9 && nodes > 0 {
        WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
            node: RecordId((i as u32 * 7 + 3) % nodes),
            predicate: None,
            marking: Marking::Hide,
        })
    } else if i % 4 == 3 && nodes >= 2 {
        WriteOp::AppendEdge {
            from: RecordId(nodes - 2),
            to: RecordId(nodes - 1),
            kind: [EdgeKind::InputTo, EdgeKind::GeneratedBy, EdgeKind::Related][i % 3],
        }
    } else {
        WriteOp::AppendNode {
            label: format!("n{i}"),
            kind: [NodeKind::Data, NodeKind::Process, NodeKind::Agent][i % 3],
            features: Features::new().with("i", i as i64),
            lowest: surrogate_core::privilege::PrivilegeId(0), // patched by the caller
        }
    }
}

/// Applies `op` to the unsharded oracle store.
fn oracle_apply(store: &Store, op: &WriteOp) {
    match op {
        WriteOp::AppendNode {
            label,
            kind,
            features,
            lowest,
        } => {
            store
                .try_append_node(label.clone(), *kind, features.clone(), *lowest)
                .unwrap();
        }
        WriteOp::AppendEdge { from, to, kind } => {
            store.append_edge(*from, *to, *kind).unwrap();
        }
        WriteOp::ApplyPolicy(statement) => {
            store.apply_policy(statement.clone()).unwrap();
        }
    }
}

/// One seed's deployment: two shard primaries, one replica each (with a
/// replication-enabled fronting server), a gather over the full
/// topology, and a router that knows the failover candidates.
struct Deployment {
    stores: Vec<Option<Arc<Store>>>,
    services: Vec<Option<Arc<AccountService>>>,
    servers: Vec<Option<Server>>,
    replicas: Vec<Option<Replica>>,
    replica_fronts: Vec<Option<Server>>,
    primary_dirs: Vec<PathBuf>,
    replica_dirs: Vec<PathBuf>,
    topology: Topology,
    gather: Option<Arc<Gather>>,
    front: Option<Server>,
}

impl Deployment {
    fn boot(seed: u64) -> Deployment {
        let mut stores = Vec::new();
        let mut services = Vec::new();
        let mut servers = Vec::new();
        let mut primary_dirs = Vec::new();
        let mut primaries = Vec::new();
        for index in 0..SHARDS {
            let dir = temp_dir(&format!("{seed}-p{index}"));
            let partition = Partition::new(index, SHARDS).unwrap();
            let store = Arc::new(
                Store::create_durable_partitioned(&dir, LATTICE.0, LATTICE.1, fast(), partition)
                    .unwrap(),
            );
            let service = Arc::new(AccountService::new(store.clone()));
            let server = Server::bind(
                service.clone(),
                "127.0.0.1:0",
                &shard_server_config(index, &Topology::default()),
            )
            .unwrap();
            primaries.push(server.local_addr().to_string());
            stores.push(Some(store));
            services.push(Some(service));
            servers.push(Some(server));
            primary_dirs.push(dir);
        }

        let mut replicas = Vec::new();
        let mut replica_fronts = Vec::new();
        let mut replica_dirs = Vec::new();
        let mut sites = Vec::new();
        for index in 0..SHARDS {
            let dir = temp_dir(&format!("{seed}-r{index}"));
            let replica =
                Replica::start_with(&primaries[index as usize], &dir, replica_config()).unwrap();
            // The replica's front speaks the same shard role (so a
            // promotion flips it to a writable shard primary in place)
            // with replication on (so the gather and rejoining peers can
            // follow the promoted feed).
            let front = Server::bind(
                replica.service().clone(),
                "127.0.0.1:0",
                &ServerConfig {
                    role: server::Role::Shard {
                        index,
                        count: SHARDS,
                        topology: Topology::default(),
                        feed: Some(replica.monitor()),
                    },
                    threads: 2,
                    allow_replication: true,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            sites.push(format!(
                "{}+{}",
                primaries[index as usize],
                front.local_addr()
            ));
            replicas.push(Some(replica));
            replica_fronts.push(Some(front));
            replica_dirs.push(dir);
        }

        let topology = Topology::parse(&sites.join(","))
            .unwrap()
            .with_consumer("writer", Vec::<String>::new());
        let gather = Arc::new(Gather::start_topology(&topology, gather_config()).unwrap());
        let front = Server::bind(
            gather.service().clone(),
            "127.0.0.1:0",
            &ServerConfig {
                role: server::Role::Gather {
                    gather: gather.clone(),
                },
                threads: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        Deployment {
            stores,
            services,
            servers,
            replicas,
            replica_fronts,
            primary_dirs,
            replica_dirs,
            topology,
            gather: Some(gather),
            front: Some(front),
        }
    }

    /// Every shard replica has caught up with its primary's clock: all
    /// writes so far are acknowledged.
    fn ack_barrier(&self, seed: u64) {
        for index in 0..SHARDS as usize {
            let clock = self.stores[index].as_ref().unwrap().clock();
            let replica = self.replicas[index].as_ref().unwrap();
            assert!(
                wait_until(SYNC, || replica.epoch() >= clock),
                "seed {seed}: shard {index} replica stuck at {} of {clock}: {:?}",
                replica.epoch(),
                replica.status()
            );
        }
    }

    fn teardown(mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        drop(self.gather.take());
        for front in self.replica_fronts.iter_mut().filter_map(Option::take) {
            front.shutdown();
        }
        for replica in self.replicas.iter_mut().filter_map(Option::take) {
            replica.shutdown();
        }
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
        for dir in self.primary_dirs.iter().chain(self.replica_dirs.iter()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Polls one gather answer and folds its epoch vector into the
/// monotonicity tracker. Typed refusals (`ShardUnavailable` mid-repair)
/// and transient socket errors are fine; a regressed vector is not.
fn observe_gather(
    front_addr: &str,
    tracker: &mut EpochVector,
    seed: u64,
    probe: &QueryRequest,
) -> Option<QueryResponse> {
    let mut client = match Client::connect(front_addr, "monitor", &[]) {
        Ok(client) => client,
        Err(_) => return None,
    };
    match client.query(probe) {
        Ok(response) => {
            assert_eq!(
                response.shard_epochs.iter().sum::<u64>(),
                response.epoch,
                "seed {seed}: gather epoch is not the vector sum"
            );
            tracker
                .observe(&response.shard_epochs)
                .unwrap_or_else(|e| panic!("seed {seed}: gather epoch vector regressed: {e}"));
            Some(response)
        }
        Err(ClientError::Remote(remote)) => {
            assert_eq!(
                remote.kind,
                WireErrorKind::ShardUnavailable,
                "seed {seed}: unexpected refusal {remote:?}"
            );
            None
        }
        Err(_) => None,
    }
}

#[test]
fn randomized_shard_primary_kills_preserve_acked_writes_and_epoch_order() {
    const SEEDS: u64 = 100;

    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deployment = Deployment::boot(seed);
        let front_addr = deployment.front.as_ref().unwrap().local_addr().to_string();
        let router = ShardRouter::new(&deployment.topology).unwrap();
        let public = router.pool(0).get().unwrap().predicate("Public").unwrap();

        // The oracle: one unsharded store applying the identical ops.
        let oracle = Store::new(LATTICE.0, LATTICE.1).unwrap();

        let mut tracker = EpochVector::new(SHARDS);
        let mut nodes = 0u32;
        let mut applied = 0usize;
        let apply = |router: &ShardRouter, oracle: &Store, i: usize, nodes: &mut u32| {
            let mut op = op_at(i, *nodes);
            if let WriteOp::AppendNode { lowest, .. } = &mut op {
                *lowest = public;
                *nodes += 1;
            }
            let (_, id) = router
                .write(op.clone())
                .unwrap_or_else(|e| panic!("seed {seed}: write {i} failed: {e}"));
            if let WriteOp::AppendNode { .. } = &op {
                assert_eq!(
                    id,
                    Some(RecordId(*nodes - 1)),
                    "seed {seed}: round-robin ids must stay dense"
                );
            }
            oracle_apply(oracle, &op);
        };

        // Phase 1: an acknowledged prefix.
        let k1 = rng.gen_range(4..=24usize);
        for i in 0..k1 {
            apply(&router, &oracle, i, &mut nodes);
            applied += 1;
        }
        deployment.ack_barrier(seed);

        let probe = QueryRequest::new(
            RecordId(0),
            Direction::Forward,
            u32::MAX,
            Strategy::Surrogate,
        );
        assert!(
            wait_until(SYNC, || {
                observe_gather(&front_addr, &mut tracker, seed, &probe)
                    .is_some_and(|r| r.epoch >= applied as u64)
            }),
            "seed {seed}: gather never reflected the acknowledged prefix"
        );

        // Kill one shard primary; append an unreplicated fork to its
        // store — the writes it would have lost the right to ack.
        let victim = rng.gen_range(0..SHARDS) as usize;
        deployment.servers[victim].take().unwrap().shutdown();
        let deposed_store = deployment.stores[victim].take().unwrap();
        let fork = rng.gen_range(0..4usize);
        for f in 0..fork {
            deposed_store.append_node(format!("fork-{f}"), NodeKind::Data, Features::new(), public);
        }

        // Promote the victim's replica: in-process mostly, every 8th
        // seed over the wire through its fronting server (the operator
        // runbook path).
        let old_term = deployment.replicas[victim]
            .as_ref()
            .unwrap()
            .store()
            .replication_term();
        let promoted_addr = deployment.replica_fronts[victim]
            .as_ref()
            .unwrap()
            .local_addr()
            .to_string();
        let term = if seed % 8 == 0 {
            let mut client = Client::connect(promoted_addr.as_str(), "op", &[]).unwrap();
            client.promote().unwrap()
        } else {
            deployment.replicas[victim]
                .as_ref()
                .unwrap()
                .promote()
                .unwrap()
        };
        assert_eq!(term, old_term + 1, "seed {seed}: promotion bumps the term");
        assert_eq!(
            deployment.replicas[victim].as_ref().unwrap().status().role,
            ReplicaRole::Primary,
            "seed {seed}"
        );

        // Phase 2: keep writing through the router. The victim slot must
        // fail over to the promoted primary; the live slot is untouched.
        let k2 = rng.gen_range(2..=8usize);
        for i in k1..k1 + k2 {
            apply(&router, &oracle, i, &mut nodes);
            applied += 1;
            observe_gather(&front_addr, &mut tracker, seed, &probe);
        }

        // The gather must re-resolve the promoted feed (term bump →
        // slot re-bootstrap) and converge on every acknowledged write.
        let gather = deployment.gather.as_ref().unwrap().clone();
        assert!(
            wait_until(SYNC, || gather.synced()),
            "seed {seed}: gather never resynced after the failover \
             (slot errors: {:?}, {:?})",
            gather.last_error(0),
            gather.last_error(1)
        );
        assert_eq!(
            gather.term(victim as u32),
            Some(term),
            "seed {seed}: the gather adopted the promoted term"
        );
        assert!(
            wait_until(SYNC, || {
                observe_gather(&front_addr, &mut tracker, seed, &probe)
                    .is_some_and(|r| r.epoch >= applied as u64)
            }),
            "seed {seed}: gather never reflected the post-failover writes"
        );

        // Oracle diff: every root, both directions, byte-identical rows
        // through the gather; the fork never appears.
        let oracle_server = Server::bind(
            Arc::new(AccountService::new(Arc::new(oracle))),
            "127.0.0.1:0",
            &ServerConfig::default(),
        )
        .unwrap();
        let mut via_gather = Client::connect(front_addr.as_str(), "auditor", &["High"]).unwrap();
        let mut via_oracle =
            Client::connect(oracle_server.local_addr(), "auditor", &["High"]).unwrap();
        for root in 0..nodes {
            for direction in [Direction::Backward, Direction::Forward] {
                let request =
                    QueryRequest::new(RecordId(root), direction, u32::MAX, Strategy::Surrogate);
                let sharded = via_gather.query(&request).unwrap();
                let single = via_oracle.query(&request).unwrap();
                tracker
                    .observe(&sharded.shard_epochs)
                    .unwrap_or_else(|e| panic!("seed {seed}: epoch vector regressed: {e}"));
                let mut flattened = sharded.clone();
                flattened.shard_epochs = Vec::new();
                assert_eq!(
                    flattened, single,
                    "seed {seed}: root {root} {direction:?} diverged from the oracle"
                );
            }
        }
        oracle_server.shutdown();

        // Every 4th seed: the deposed primary rejoins as a replica of
        // the promoted one — anti-entropy truncates the fork, the
        // promoted term is adopted, and the stores converge.
        if seed % 4 == 0 {
            drop(deployment.services[victim].take());
            drop(deposed_store);
            let rejoined = Replica::start_with(
                &promoted_addr,
                &deployment.primary_dirs[victim],
                replica_config(),
            )
            .unwrap();
            let promoted_clock = deployment.replicas[victim].as_ref().unwrap().epoch();
            assert!(
                wait_until(SYNC, || rejoined.epoch() >= promoted_clock),
                "seed {seed}: deposed shard primary never converged: {:?}",
                rejoined.status()
            );
            // Byte-identity with the promoted store proves the fork was
            // truncated: the promoted history never contained it.
            assert_eq!(
                rejoined.store().to_bytes(),
                deployment.replicas[victim]
                    .as_ref()
                    .unwrap()
                    .store()
                    .to_bytes(),
                "seed {seed}: rejoined store is not byte-identical to the promoted one"
            );
            assert_eq!(
                rejoined.store().replication_term(),
                term,
                "seed {seed}: the rejoined replica adopted the promoted term"
            );
            assert_eq!(rejoined.status().role, ReplicaRole::Replica);
            rejoined.shutdown();
        } else {
            drop(deposed_store);
        }

        deployment.teardown();
    }
}

/// A shard replica is the role that once needed two status requests:
/// its feed lived in one answer and its slot in another. Over the wire,
/// one `Status` now reports both — role `Replica` and the primary it
/// follows, then its shard index, epoch vector and the deployment's
/// primaries and replicas — and after a `Promote` the next `Status`
/// reads `Primary` at the bumped term, still in the same slot.
#[test]
fn a_shard_replica_answers_one_status_before_and_after_promotion() {
    let primary_dir = temp_dir("status-p");
    let replica_dir = temp_dir("status-r");
    let partition = Partition::new(0, SHARDS).unwrap();
    let store = Arc::new(
        Store::create_durable_partitioned(&primary_dir, LATTICE.0, LATTICE.1, fast(), partition)
            .unwrap(),
    );
    let primary = Server::bind(
        Arc::new(AccountService::new(store.clone())),
        "127.0.0.1:0",
        &shard_server_config(0, &Topology::default()),
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();
    for i in 0..3 {
        oracle_apply(&store, &op_at(i, 0));
    }
    let clock = store.clock();

    let replica = Replica::start_with(&primary_addr, &replica_dir, replica_config()).unwrap();
    assert!(
        wait_until(SYNC, || {
            let status = replica.status();
            status.connected && status.lag() == 0 && status.local_epoch == clock
        }),
        "replica never caught up: {:?}",
        replica.status()
    );
    let topology = Topology::parse(&format!("{primary_addr}+127.0.0.1:2,127.0.0.1:1")).unwrap();
    let front = Server::bind(
        replica.service().clone(),
        "127.0.0.1:0",
        &ServerConfig {
            role: server::Role::Shard {
                index: 0,
                count: SHARDS,
                topology: topology.clone(),
                feed: Some(replica.monitor()),
            },
            threads: 2,
            allow_replication: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(front.local_addr(), "op", &[]).unwrap();
    let (feed, slot) = client.status().unwrap();
    assert_eq!((feed.role, feed.connected), (ReplicaRole::Replica, true));
    assert_eq!(feed.primary_addr.as_deref(), Some(primary_addr.as_str()));
    assert_eq!(
        (feed.local_epoch, feed.primary_epoch, feed.term),
        (clock, clock, 0)
    );
    assert_eq!((slot.count, slot.index), (SHARDS, Some(0)));
    assert_eq!(slot.epochs, vec![clock, 0]);
    assert_eq!(slot.primaries, [primary_addr.as_str(), "127.0.0.1:1"]);
    assert_eq!(slot.replicas, topology.replica_table());

    primary.shutdown();
    assert_eq!(client.promote().unwrap(), 1);
    let (promoted, after) = client.status().unwrap();
    assert_eq!((promoted.role, promoted.term), (ReplicaRole::Primary, 1));
    assert_eq!(promoted.primary_addr, None, "a primary follows no one");
    assert!(promoted.connected && promoted.lag() == 0);
    assert_eq!(after, slot, "a promotion does not move the slot");

    front.shutdown();
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
