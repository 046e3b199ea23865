//! The failover fault-injection suite: fenced promotion, write
//! failover, and anti-entropy rejoin.
//!
//! The claims under test, against a single-store oracle
//! (`expected_prefixes`):
//!
//! * **No acknowledged write is ever lost.** Whenever the primary is
//!   killed and a replica promoted — at arbitrary, seed-randomized
//!   points, with appends racing the feed — the promoted store holds a
//!   byte-identical committed prefix covering every write the replica
//!   had acknowledged (caught up past) before the kill.
//! * **The deposed primary is fenced, not raced.** After promotion, a
//!   frame stamped with the old term is refused with a typed
//!   `DeposedPrimary` error and leaves no trace — never silently
//!   applied.
//! * **A deposed primary rejoins by truncating, not forking.** Restarted
//!   as a replica of the promoted node, its unreplicated tail is
//!   discarded by the anti-entropy pass and it converges byte-for-byte.
//! * **Dead links are detected, not waited on.** A half-open primary
//!   (accepts, handshakes, then goes silent — no heartbeats) flips the
//!   link down within the feed read deadline; `wait_caught_up` returns
//!   `false` instead of hanging, and shutdown stays prompt.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use plus_store::codec::WalRecord;
use plus_store::wire::{
    decode_request, encode_response, Request, Response, ServerHello, WireErrorKind,
    PROTOCOL_VERSION,
};
use plus_store::{
    AccountService, DurabilityOptions, EdgeKind, NodeKind, NodeRecord, PolicyStatement, RecordId,
    ReplicaRole, Store, StoreError,
};
use server::{
    read_frame, write_frame, Client, ClientError, ClientPool, Replica, ReplicaConfig, Server,
    ServerConfig,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;

const LATTICE: (&[&str], &[(usize, usize)]) = (&["Public", "Mid", "High"], &[(1, 0), (2, 1)]);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "failover-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies the `i`-th workload operation — the same deterministic shape
/// as the `replication.rs` harness, so `expected_prefixes` is a valid
/// oracle for any store that has applied ops `0..n` in order, whichever
/// process applied them.
fn apply_op(store: &Store, i: usize) {
    let preds = [
        store.predicate("Public").unwrap(),
        store.predicate("Mid").unwrap(),
        store.predicate("High").unwrap(),
    ];
    let nodes = store.node_count();
    if i >= 8 && i % 4 == 0 {
        let k = store.edge_count();
        assert!(k < 56, "workload exceeds the edge enumeration");
        let a = k / 7;
        let idx = k % 7;
        let b = if idx < a { idx } else { idx + 1 };
        store
            .append_edge(
                RecordId(a as u32),
                RecordId(b as u32),
                [EdgeKind::InputTo, EdgeKind::GeneratedBy, EdgeKind::Related][k % 3],
            )
            .unwrap();
    } else if i >= 8 && i % 9 == 0 && nodes > 0 {
        let node = RecordId((i % nodes) as u32);
        if i % 2 == 0 {
            store
                .apply_policy(PolicyStatement::MarkNode {
                    node,
                    predicate: (i % 3 > 0).then_some(preds[i % 3]),
                    marking: [Marking::Visible, Marking::Hide, Marking::Surrogate][i % 3],
                })
                .unwrap();
        } else {
            store
                .apply_policy(PolicyStatement::AddSurrogate {
                    node,
                    label: format!("s{i}"),
                    features: Features::new(),
                    lowest: preds[0],
                    info_score: (i % 10) as f64 / 10.0,
                })
                .unwrap();
        }
    } else {
        store.append_node(
            format!("n{i}"),
            [NodeKind::Data, NodeKind::Process, NodeKind::Agent][i % 3],
            Features::new().with("i", i as i64),
            preds[i % 3],
        );
    }
}

/// `expected[c]` is the committed state (snapshot bytes) at clock `c`.
fn expected_prefixes(ops: usize) -> Vec<Vec<u8>> {
    let store = Store::new(LATTICE.0, LATTICE.1).unwrap();
    let mut prefixes = vec![store.to_bytes()];
    for i in 0..ops {
        apply_op(&store, i);
        prefixes.push(store.to_bytes());
    }
    prefixes
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

fn primary_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        allow_replication: true,
        ..ServerConfig::default()
    }
}

fn boot_primary(dir: &PathBuf) -> (Arc<Store>, Arc<AccountService>, Server) {
    let store = Arc::new(Store::create_durable_with(dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    let service = Arc::new(AccountService::new(store.clone()));
    let server =
        Server::bind(service.clone(), "127.0.0.1:0", &primary_config()).expect("bind primary");
    (store, service, server)
}

/// Fronts a replica with a replication-enabled server via the unified
/// `Role::Replica` bind.
fn bind_replica_front(replica: &Replica) -> Server {
    let config = ServerConfig {
        role: server::Role::Replica {
            feed: replica.monitor(),
        },
        ..primary_config()
    };
    Server::bind(replica.service().clone(), "127.0.0.1:0", &config).unwrap()
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

const CATCH_UP: Duration = Duration::from_secs(20);

/// A frame the deposed primary might still try to ship: any valid
/// append, stamped with the pre-promotion term.
fn forked_record(store: &Store) -> WalRecord {
    WalRecord::AppendNode(NodeRecord {
        label: "forked-write".to_string(),
        kind: NodeKind::Data,
        features: Features::new(),
        lowest: store.predicate("Public").unwrap(),
        created_at: store.clock(),
    })
}

/// The headline churn harness: 100 seed-randomized kill/promote
/// schedules. Each seed boots a primary+replica pair, acknowledges a
/// random prefix of the workload, races a few more appends against the
/// feed, kills the primary at that arbitrary point, promotes the
/// replica (mostly in-process, every 8th seed over the wire through a
/// fronting server), and then proves, against the single-store oracle:
/// every acknowledged write survived byte-identically, the promoted
/// store accepts and correctly applies new writes, and a frame from the
/// deposed term is refused with `DeposedPrimary` without a trace.
#[test]
fn randomized_kill_promote_churn_preserves_acknowledged_writes() {
    const SEEDS: u64 = 100;
    const MAX_OPS: usize = 80;
    let expected = expected_prefixes(MAX_OPS);

    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let primary_dir = temp_dir(&format!("churn-primary-{seed}"));
        let replica_dir = temp_dir(&format!("churn-replica-{seed}"));
        let (store, _service, server) = boot_primary(&primary_dir);
        let addr = server.local_addr().to_string();
        let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();

        // Acknowledge a random prefix: apply, then wait until the
        // replica has caught up past it. Everything at or below k1 is an
        // acknowledged write and MUST survive the failover.
        let k1 = rng.gen_range(1..=60usize);
        for i in 0..k1 {
            apply_op(&store, i);
        }
        assert!(
            replica.wait_caught_up(CATCH_UP),
            "seed {seed}: replica never caught up to the acknowledged prefix"
        );
        assert!(wait_until(CATCH_UP, || replica.epoch() >= k1 as u64));

        // Race a few unacknowledged appends against the feed, then kill
        // the primary mid-stream at this arbitrary point.
        let k2 = rng.gen_range(0..8usize);
        for i in k1..k1 + k2 {
            apply_op(&store, i);
        }
        server.shutdown();

        let old_term = replica.store().replication_term();
        let term = if seed % 8 == 0 {
            // Wire promotion: the operator runbook path, through a
            // fronting server.
            let front = bind_replica_front(&replica);
            let mut client = Client::connect(front.local_addr(), "op", &[]).unwrap();
            let term = client.promote().unwrap();
            // Idempotent: a second promote through the server answers
            // with the current term instead of bumping again.
            assert_eq!(client.promote().unwrap(), term, "seed {seed}");
            front.shutdown();
            term
        } else {
            replica.promote().unwrap()
        };
        assert_eq!(term, old_term + 1, "seed {seed}: promotion bumps the term");
        assert_eq!(replica.status().role, ReplicaRole::Primary, "seed {seed}");

        // Oracle check: the promoted store sits at a committed prefix
        // covering every acknowledged write.
        let clock = replica.epoch() as usize;
        assert!(
            clock >= k1 && clock <= k1 + k2,
            "seed {seed}: promoted clock {clock} outside [{k1}, {}]",
            k1 + k2
        );
        assert_eq!(
            replica.store().to_bytes(),
            expected[clock],
            "seed {seed}: promoted state at clock {clock} is not the committed prefix"
        );

        // Fencing: a frame from the deposed term is refused, typed, and
        // leaves no trace.
        let refused = replica
            .store()
            .apply_replicated(forked_record(replica.store()), old_term);
        assert!(
            matches!(refused, Err(StoreError::DeposedPrimary { .. })),
            "seed {seed}: old-term frame was not refused: {refused:?}"
        );
        assert_eq!(
            replica.store().to_bytes(),
            expected[clock],
            "seed {seed}: a refused frame changed state"
        );

        // The promoted store is a writable primary: continue the
        // workload on it and stay on the oracle.
        let k3 = rng.gen_range(1..=10usize);
        for i in clock..clock + k3 {
            apply_op(replica.store(), i);
        }
        assert_eq!(
            replica.store().to_bytes(),
            expected[clock + k3],
            "seed {seed}: writes on the promoted primary diverged from the oracle"
        );

        replica.shutdown();
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }
}

/// The full availability loop: primary dies with an unreplicated tail,
/// the replica is promoted and moves on, the deposed primary restarts
/// pointed at the new primary — and rejoins as a replica by truncating
/// its fork instead of serving it.
#[test]
fn deposed_primary_rejoins_by_truncating_its_unreplicated_tail() {
    const ACKED: usize = 40;
    const TAIL: usize = 5; // unreplicated fork on the deposed primary
    const AFTER: usize = 7; // promoted history past the fork point
    let expected = expected_prefixes(ACKED + AFTER);

    let a_dir = temp_dir("rejoin-deposed");
    let b_dir = temp_dir("rejoin-promoted");
    let (store_a, service_a, server_a) = boot_primary(&a_dir);
    let addr_a = server_a.local_addr().to_string();
    let replica_b = Replica::start_with(&addr_a, &b_dir, replica_config()).unwrap();

    for i in 0..ACKED {
        apply_op(&store_a, i);
    }
    assert!(replica_b.wait_caught_up(CATCH_UP));
    assert!(wait_until(CATCH_UP, || replica_b.epoch() == ACKED as u64));

    // Kill A's server, then let A append a tail no replica ever saw —
    // the write it would have lost the right to acknowledge.
    server_a.shutdown();
    for i in ACKED..ACKED + TAIL {
        apply_op(&store_a, i);
    }
    assert_eq!(store_a.clock(), (ACKED + TAIL) as u64);

    // Promote B and continue the (diverging) promoted history.
    let term = replica_b.promote().unwrap();
    assert_eq!(term, 1);
    for i in ACKED..ACKED + AFTER {
        apply_op(replica_b.store(), i);
    }
    let server_b = bind_replica_front(&replica_b);
    let addr_b = server_b.local_addr().to_string();

    // Release A's directory (drop its store) and restart it as a
    // replica of B: anti-entropy must discard the forked tail, then the
    // feed re-ships the promoted history.
    drop(store_a);
    drop(service_a);
    let rejoined = Replica::start_with(&addr_b, &a_dir, replica_config()).unwrap();
    assert!(
        rejoined.wait_caught_up(CATCH_UP),
        "deposed primary never converged: {:?}",
        rejoined.status()
    );
    assert!(wait_until(CATCH_UP, || rejoined.epoch() == (ACKED + AFTER) as u64));
    assert_eq!(
        rejoined.store().to_bytes(),
        expected[ACKED + AFTER],
        "rejoined history is not the promoted history"
    );
    assert_eq!(
        rejoined.store().to_bytes(),
        replica_b.store().to_bytes(),
        "byte-for-byte convergence with the promoted primary"
    );
    assert_eq!(rejoined.status().role, ReplicaRole::Replica);
    assert_eq!(
        rejoined.store().replication_term(),
        1,
        "the rejoined replica adopted the promoted term"
    );

    rejoined.shutdown();
    server_b.shutdown();
    replica_b.shutdown();
    std::fs::remove_dir_all(&a_dir).ok();
    std::fs::remove_dir_all(&b_dir).ok();
}

/// A fake primary that accepts, handshakes, answers anti-entropy — and
/// then never sends a single subscription byte: the half-open peer a
/// power-lossed primary leaves behind.
fn spawn_silent_primary(epoch: u64) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut inbuf = Vec::new();
                let mut outbuf = Vec::new();
                loop {
                    let request = match read_frame(&mut stream, &mut inbuf) {
                        Ok(Some(payload)) => match decode_request(payload) {
                            Ok(request) => request,
                            Err(_) => return,
                        },
                        _ => return,
                    };
                    let response = match request {
                        Request::Hello { .. } => Response::Hello(ServerHello {
                            version: PROTOCOL_VERSION,
                            epoch,
                            nodes: 0,
                            shard_count: 0,
                            shard_index: None,
                            predicates: Vec::new(),
                            peers: Vec::new(),
                        }),
                        Request::LogDigests => Response::LogDigests {
                            term: 0,
                            segments: Vec::new(),
                        },
                        // Accept the subscription, then go silent
                        // forever — no chunk, no heartbeat, no FIN.
                        Request::Subscribe { .. } => loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        },
                        _ => return,
                    };
                    let payload = encode_response(&response).unwrap();
                    if write_frame(&mut stream, &payload, &mut outbuf).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Satellite regression: the feed socket carries a read deadline, so a
/// primary that handshakes and then never speaks again is detected as a
/// dead link — `connected` flips off, `wait_caught_up` returns `false`
/// promptly instead of hanging on the dead socket, and shutdown joins.
#[test]
fn silent_primary_is_a_dead_link_not_a_hang() {
    // Warm-seed the replica directory so start_with returns without
    // needing a bootstrap chunk the silent primary will never send.
    let dir = temp_dir("silent-primary");
    {
        let local = Store::create_durable_with(&dir, LATTICE.0, LATTICE.1, fast()).unwrap();
        for i in 0..10 {
            apply_op(&local, i);
        }
    }
    let addr = spawn_silent_primary(1_000);
    let config = ReplicaConfig {
        feed_read_timeout: Duration::from_millis(200),
        reconnect_backoff: Duration::from_millis(50),
        connect_attempts: 3,
        durability: fast(),
    };
    let replica = Replica::start_with(&addr, &dir, config).unwrap();

    // No chunk can ever land, so catch-up must report failure — within
    // the deadline's order of magnitude, not never.
    let began = Instant::now();
    assert!(
        !replica.wait_caught_up(Duration::from_secs(2)),
        "caught up against a primary that never sent a chunk?"
    );
    assert!(began.elapsed() < Duration::from_secs(10));
    assert!(
        wait_until(Duration::from_secs(5), || {
            let status = replica.status();
            !status.connected && status.last_error.is_some()
        }),
        "the dead link was never detected: {:?}",
        replica.status()
    );

    // And the apply thread is not parked on the dead socket: shutdown
    // joins promptly.
    let began = Instant::now();
    replica.shutdown();
    assert!(
        began.elapsed() < Duration::from_secs(3),
        "shutdown hung on the silent feed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a failed cold start returns after its last
/// attempt instead of sleeping one extra backoff into the error.
#[test]
fn bootstrap_does_not_sleep_after_its_final_attempt() {
    // A port that refuses: bound, resolved, then released.
    let refused = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let dir = temp_dir("bootstrap-timing");
    let config = ReplicaConfig {
        connect_attempts: 2,
        reconnect_backoff: Duration::from_millis(400),
        durability: fast(),
        ..ReplicaConfig::default()
    };
    let began = Instant::now();
    let result = Replica::start_with(&refused, &dir, config);
    let elapsed = began.elapsed();
    assert!(result.is_err(), "connected to a released port?");
    // Two refused dials bracket exactly one backoff: ~400ms. The old
    // behavior slept after the final attempt too (~800ms).
    assert!(
        elapsed < Duration::from_millis(700),
        "final failed attempt slept into the error: {elapsed:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a cold start's dials ride the follower's ramp
/// (0, 1ms, 2ms … up to `reconnect_backoff`), so a replica started a
/// moment before its primary listens is up milliseconds after it does.
/// The old bootstrap slept one full `reconnect_backoff` after its first
/// failed dial: two seconds here.
#[test]
fn cold_start_retries_on_the_ramp_not_on_the_cap() {
    let primary_dir = temp_dir("ramp-primary");
    let replica_dir = temp_dir("ramp-replica");
    // A stand-in on the primary's port proves the replica's first dial
    // happened and failed: it accepts that dial and hangs up on it.
    let standin = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = standin.local_addr().unwrap().to_string();
    let config = ReplicaConfig {
        connect_attempts: 100,
        reconnect_backoff: Duration::from_secs(2),
        durability: fast(),
        ..ReplicaConfig::default()
    };
    let starter = {
        let (addr, dir) = (addr.clone(), replica_dir.clone());
        std::thread::spawn(move || Replica::start_with(&addr, &dir, config))
    };
    let store =
        Arc::new(Store::create_durable_with(&primary_dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    for i in 0..5 {
        apply_op(&store, i);
    }
    let service = Arc::new(AccountService::new(store.clone()));
    // The ramp's next wait is never longer than all it has waited so
    // far, so the port changes hands with as little in between as
    // possible.
    drop(standin.accept().unwrap());
    drop(standin);
    let server = Server::bind(service, addr.as_str(), &primary_config()).expect("bind primary");
    let listening = Instant::now();
    let replica = starter.join().unwrap().expect("the cold start succeeds");
    let waited = listening.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "the replica came up {waited:?} after its primary did"
    );
    assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));
    replica.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Satellite regression: a raised stop flag interrupts the reconnect
/// backoff instead of sleeping through it.
#[test]
fn shutdown_interrupts_reconnect_backoff() {
    let primary_dir = temp_dir("interrupt-primary");
    let replica_dir = temp_dir("interrupt-replica");
    let (store, _service, server) = boot_primary(&primary_dir);
    let addr = server.local_addr().to_string();
    for i in 0..5 {
        apply_op(&store, i);
    }
    let config = ReplicaConfig {
        // A backoff far longer than the assertion bound: only an
        // interrupted sleep can pass.
        reconnect_backoff: Duration::from_secs(30),
        feed_read_timeout: Duration::from_millis(200),
        durability: fast(),
        ..ReplicaConfig::default()
    };
    let replica = Replica::start_with(&addr, &replica_dir, config).unwrap();
    assert!(replica.wait_caught_up(CATCH_UP));
    server.shutdown();
    assert!(
        wait_until(Duration::from_secs(5), || !replica.status().connected),
        "the kill was never noticed"
    );
    // The apply thread is now inside its 30s backoff.
    let began = Instant::now();
    replica.shutdown();
    assert!(
        began.elapsed() < Duration::from_secs(2),
        "shutdown slept through the reconnect backoff"
    );
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Write failover at the client: an unpromoted replica-fronted server
/// refuses writes with a typed `NotWritable` redirect carrying the
/// primary's address, and `ClientPool::writable` follows status
/// breadcrumbs to the current primary — before and after a failover.
#[test]
fn writes_redirect_and_the_pool_re_resolves_the_primary() {
    let primary_dir = temp_dir("redirect-primary");
    let replica_dir = temp_dir("redirect-replica");
    let (store, _service, server) = boot_primary(&primary_dir);
    let addr = server.local_addr().to_string();
    for i in 0..20 {
        apply_op(&store, i);
    }
    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();
    assert!(replica.wait_caught_up(CATCH_UP));
    let front = bind_replica_front(&replica);
    let front_addr = front.local_addr().to_string();

    // A write against the replica is a typed redirect, not a success
    // and not a generic refusal.
    let mut to_replica = Client::connect(front_addr.as_str(), "op", &[]).unwrap();
    let refused = to_replica.checkpoint().expect_err("replicas are read-only");
    let ClientError::Remote(remote) = &refused else {
        panic!("not a typed refusal: {refused}");
    };
    assert_eq!(remote.kind, WireErrorKind::NotWritable);
    assert_eq!(remote.message, addr, "the redirect names the primary");

    // A pool that only knows the replica follows the breadcrumb to the
    // primary, and the redirect error updates its cached route.
    let pool = ClientPool::new(front_addr.as_str(), "writer", &[]);
    {
        let mut writable = pool.writable().unwrap();
        assert_eq!(
            writable.replica_status().unwrap().role,
            ReplicaRole::Primary
        );
        assert_eq!(writable.epoch().unwrap(), store.clock());
    }
    assert!(pool.note_redirect(&refused), "a redirect updates the route");

    // Failover: kill the primary, promote the replica over the wire.
    server.shutdown();
    let mut client = Client::connect(front_addr.as_str(), "op", &[]).unwrap();
    let term = client.promote().unwrap();
    assert_eq!(term, 1);
    let status = client.replica_status().unwrap();
    assert_eq!(status.role, ReplicaRole::Primary);
    assert_eq!(status.term, 1);
    assert_eq!(status.primary_addr, None, "a primary follows no one");

    // A pool configured with the dead primary re-resolves to the
    // promoted node.
    let pool = ClientPool::new(addr.as_str(), "writer", &[]).with_replicas([front_addr.clone()]);
    {
        let mut writable = pool.writable().unwrap();
        let status = writable.replica_status().unwrap();
        assert_eq!(status.role, ReplicaRole::Primary);
        assert_eq!(status.term, 1);
    }

    front.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}
