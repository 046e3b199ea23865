//! The replication fault-injection suite — the WAL-shipping analogue of
//! `wal_recovery.rs`'s single-node proof.
//!
//! The claim under test: however and whenever the primary dies
//! mid-stream, every replica holds a **byte-identical prefix of the
//! primary's committed history** with a **monotone epoch**, and when the
//! primary comes back the replica catches up to byte-identical equality
//! — without ever refetching history it already holds.
//!
//! The kill switch here is `Server::shutdown`, which hard-closes every
//! live socket: from the replica's side that is indistinguishable from a
//! primary process dying mid-chunk (the CI replication-smoke step
//! additionally kills a real `spgraph serve` process with SIGKILL).
//! Byte-level stream damage is covered by the wire-properties suite:
//! torn prefixes and bit flips can never alter a replayed payload, only
//! end the connection — which is exactly the case exercised here.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plus_store::{
    AccountService, Direction, DurabilityOptions, EdgeKind, NodeKind, PolicyStatement,
    QueryRequest, RecordId, ReplicaRole, Store, Strategy,
};
use server::{
    Client, ClientError, ClientPool, OverloadReason, Replica, ReplicaConfig, ReplicaError, Server,
    ServerConfig,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;

const LATTICE: (&[&str], &[(usize, usize)]) = (&["Public", "Mid", "High"], &[(1, 0), (2, 1)]);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "replication-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies the `i`-th workload operation — same deterministic shape as
/// the `wal_recovery` harness: nodes, unique edges over the first 8
/// nodes, and policy statements, all always valid.
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

/// `expected[c]` is the committed state (snapshot bytes) at clock `c`:
/// the oracle every replica observation is checked against.
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

/// Creates a durable primary store and binds a replication-enabled
/// server in front of it.
fn boot_primary(dir: &PathBuf) -> (Arc<Store>, Arc<AccountService>, Server) {
    let store = Arc::new(Store::create_durable_with(dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    let service = Arc::new(AccountService::new(store.clone()));
    let server =
        Server::bind(service.clone(), "127.0.0.1:0", &primary_config()).expect("bind primary");
    (store, service, server)
}

/// Binds a server on a **fixed sub-ephemeral port** (below the OS's
/// `ip_local_port_range` floor of 32768). The kill/restart cycle below
/// leaves a replica re-dialing a fixed address while the primary is
/// down; if that address were an OS-assigned ephemeral port, the OS
/// could hand the freed port to a *different* test's `127.0.0.1:0`
/// server running in parallel, and the replica's handshake would bump
/// that server's connection counters (a real observed flake). Ephemeral
/// binds can never land below 32768, so these ports stay ours.
fn bind_fixed(service: Arc<AccountService>, config: ServerConfig) -> Server {
    let base = 21000 + (std::process::id() % 5000) as u16;
    for attempt in 0..64u16 {
        let addr = format!("127.0.0.1:{}", base + attempt * 31 % 6000);
        if let Ok(server) = Server::bind(service.clone(), addr.as_str(), &config) {
            return server;
        }
    }
    panic!("no free sub-ephemeral port after 64 attempts");
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

/// The headline sweep: the primary is killed at several arbitrary
/// points mid-stream (including mid-catch-up, with appends racing the
/// feed). After every kill the replica must sit at a byte-identical
/// committed prefix with a monotone epoch; after every restart it must
/// converge to byte-identical equality.
#[test]
fn primary_kills_mid_stream_leave_replicas_at_committed_prefixes() {
    const OPS: usize = 220;
    let expected = expected_prefixes(OPS);
    // Kill points chosen to land in distinct regimes: during cold
    // bootstrap, mid-burst, between bursts, and at the tail.
    let kill_points = [3usize, 57, 119, 220];

    let primary_dir = temp_dir("kill-primary");
    let replica_dir = temp_dir("kill-replica");
    let store =
        Arc::new(Store::create_durable_with(&primary_dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    let service = Arc::new(AccountService::new(store.clone()));
    // Fixed sub-ephemeral port: the replica re-dials this address across
    // every kill window (see `bind_fixed`).
    let mut server = Some(bind_fixed(service.clone(), primary_config()));
    let addr = server.as_ref().unwrap().local_addr().to_string();

    // One replica lives through every kill/restart cycle. Its local
    // address list never changes: the restarted primary rebinds the
    // same port.
    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();

    // Epoch monotonicity is asserted over *every* observation, not just
    // the settled states.
    let mut last_epoch = replica.epoch();
    let mut observe = |replica: &Replica| {
        let bytes = replica.store().to_bytes();
        let clock = plus_store::codec::decode(&bytes).unwrap().clock as usize;
        assert!(
            clock >= last_epoch as usize,
            "replica epoch went backward: {last_epoch} -> {clock}"
        );
        last_epoch = clock as u64;
        assert_eq!(
            bytes, expected[clock],
            "replica state at clock {clock} is not the committed prefix"
        );
        clock
    };

    let mut applied = 0usize;
    for &kill_at in &kill_points {
        // Stream live: appends race the feeder.
        while applied < kill_at {
            apply_op(&store, applied);
            applied += 1;
            if applied % 50 == 0 {
                observe(&replica);
            }
        }
        // Kill the primary mid-stream: every socket is hard-closed,
        // exactly what the replica sees when the process dies.
        server.take().unwrap().shutdown();
        std::thread::sleep(Duration::from_millis(30));

        // Orphaned replica: whatever it holds must be a committed
        // prefix — never a torn or reordered state.
        let at_kill = observe(&replica);
        assert!(at_kill <= store.clock() as usize);

        // Restart the primary on the same store and port; the replica
        // reconnects by itself and converges to full equality.
        let restarted = (0..100)
            .find_map(|_| {
                std::thread::sleep(Duration::from_millis(5));
                Server::bind(service.clone(), addr.as_str(), &primary_config()).ok()
            })
            .expect("rebind primary on its fixed port");
        assert!(
            replica.wait_caught_up(CATCH_UP),
            "replica never caught up after restart at op {kill_at}: {:?}",
            replica.status()
        );
        assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));
        let settled = observe(&replica);
        assert_eq!(settled as u64, store.clock(), "byte-identical convergence");
        server = Some(restarted);
    }

    assert_eq!(replica.epoch(), store.clock());
    assert_eq!(replica.store().to_bytes(), expected[applied]);
    replica.shutdown();
    server.take().unwrap().shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A restarted replica recovers from its **own** WAL and resumes the
/// subscription at its local clock: the primary ships only the delta,
/// never a second snapshot.
#[test]
fn restarted_replica_resumes_from_local_clock_without_refetching() {
    const OPS: usize = 120;
    let expected = expected_prefixes(OPS);
    let primary_dir = temp_dir("resume-primary");
    let replica_dir = temp_dir("resume-replica");
    let (store, service, server) = boot_primary(&primary_dir);
    let addr = server.local_addr().to_string();

    for i in 0..60 {
        apply_op(&store, i);
    }
    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();
    assert!(replica.wait_caught_up(CATCH_UP));
    assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));
    let clock_at_stop = replica.epoch();
    replica.shutdown();
    assert_eq!(
        server.stats().snapshots_shipped,
        1,
        "cold start costs exactly one snapshot"
    );

    // The primary moves on while the replica is down.
    for i in 60..OPS {
        apply_op(&store, i);
    }

    // Warm restart: local recovery first (same dir), then delta catch-up.
    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();
    assert!(
        replica.epoch() >= clock_at_stop.saturating_sub(0),
        "local WAL recovered the pre-restart clock"
    );
    assert!(replica.wait_caught_up(CATCH_UP));
    assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));
    assert_eq!(replica.store().to_bytes(), expected[OPS]);
    assert_eq!(
        server.stats().snapshots_shipped,
        1,
        "the warm subscription refetched no history"
    );
    assert!(server.stats().subscriptions >= 2);

    replica.shutdown();
    server.shutdown();
    drop(service);
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A cold replica attaching after the primary checkpointed (pruning the
/// early log) backfills from the snapshot, then streams the tail.
#[test]
fn cold_replica_backfills_from_snapshot_after_checkpoint() {
    const OPS: usize = 120;
    let expected = expected_prefixes(OPS);
    let primary_dir = temp_dir("backfill-primary");
    let replica_dir = temp_dir("backfill-replica");
    let (store, _service, server) = boot_primary(&primary_dir);
    let addr = server.local_addr().to_string();

    for i in 0..90 {
        apply_op(&store, i);
    }
    let stats = store.checkpoint().unwrap();
    assert!(stats.pruned_segments > 0, "the early log is gone");
    for i in 90..OPS {
        apply_op(&store, i);
    }

    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();
    assert!(
        replica.epoch() >= 90,
        "bootstrap snapshot fast-forwarded past the pruned history"
    );
    assert!(replica.wait_caught_up(CATCH_UP));
    assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));
    assert_eq!(replica.store().to_bytes(), expected[OPS]);
    assert_eq!(server.stats().snapshots_shipped, 1);

    replica.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Replication is owner-side only: a primary that did not opt in
/// refuses subscriptions, and an in-memory primary has nothing to ship.
#[test]
fn replication_requires_opt_in_and_a_durable_store() {
    // No opt-in.
    let primary_dir = temp_dir("optin-primary");
    let store =
        Arc::new(Store::create_durable_with(&primary_dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    let server = Server::bind(
        Arc::new(AccountService::new(store)),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let config = ReplicaConfig {
        connect_attempts: 1,
        ..replica_config()
    };
    let err = Replica::start_with(
        server.local_addr().to_string(),
        temp_dir("optin-replica"),
        config,
    )
    .expect_err("subscription must be refused");
    assert!(err.to_string().contains("replication is disabled"), "{err}");
    // The refusal is recoverable: the same server still answers queries.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    assert!(client.epoch().is_ok());
    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();

    // Opt-in, but no write-ahead log to stream.
    let in_memory = Arc::new(Store::new(LATTICE.0, LATTICE.1).unwrap());
    let server = Server::bind(
        Arc::new(AccountService::new(in_memory)),
        "127.0.0.1:0",
        &primary_config(),
    )
    .unwrap();
    let err = Replica::start_with(
        server.local_addr().to_string(),
        temp_dir("optin-replica2"),
        ReplicaConfig {
            connect_attempts: 1,
            ..replica_config()
        },
    )
    .expect_err("nothing durable to stream");
    assert!(matches!(err, ReplicaError::Client(_)), "{err}");
    server.shutdown();
}

/// A subscriber claiming a clock ahead of the primary replayed a
/// different history; feeding it would fork the replica set, so the
/// primary refuses.
#[test]
fn subscribers_ahead_of_the_primary_are_refused() {
    use plus_store::wire::{decode_response, encode_request, Request, Response, WireErrorKind};
    use server::{read_frame, write_frame};
    use std::net::TcpStream;

    let primary_dir = temp_dir("ahead-primary");
    let (store, _service, server) = boot_primary(&primary_dir);
    for i in 0..10 {
        apply_op(&store, i);
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let (mut inbuf, mut outbuf) = (Vec::new(), Vec::new());
    let hello = Request::Hello {
        version: plus_store::PROTOCOL_VERSION,
        consumer: "diverged".into(),
        claims: vec![],
    };
    write_frame(&mut stream, &encode_request(&hello).unwrap(), &mut outbuf).unwrap();
    read_frame(&mut stream, &mut inbuf).unwrap().unwrap();
    let subscribe = Request::Subscribe {
        from_clock: store.clock() + 1,
    };
    write_frame(
        &mut stream,
        &encode_request(&subscribe).unwrap(),
        &mut outbuf,
    )
    .unwrap();
    let payload = read_frame(&mut stream, &mut inbuf).unwrap().unwrap();
    let Response::Error(error) = decode_response(payload).unwrap() else {
        panic!("a diverged subscriber must get a typed refusal");
    };
    assert_eq!(error.kind, WireErrorKind::BadRequest);
    assert!(error.message.contains("ahead"), "{}", error.message);
    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
}

/// Replicas re-serve the query protocol: remote answers are identical
/// to the primary's at the same epoch, a fronting server reports
/// replica status, and a `ClientPool` spreads reads over the replica
/// set with primary fallback.
#[test]
fn replicas_serve_queries_status_and_pooled_reads() {
    const OPS: usize = 60;
    let primary_dir = temp_dir("serve-primary");
    let replica_dir = temp_dir("serve-replica");
    let (store, _service, server) = boot_primary(&primary_dir);
    let addr = server.local_addr().to_string();
    for i in 0..OPS {
        apply_op(&store, i);
    }
    let replica = Replica::start_with(&addr, &replica_dir, replica_config()).unwrap();
    assert!(replica.wait_caught_up(CATCH_UP));
    assert!(wait_until(CATCH_UP, || replica.epoch() == store.clock()));

    let replica_server = Server::bind(
        replica.service().clone(),
        "127.0.0.1:0",
        &ServerConfig {
            role: server::Role::Replica {
                feed: replica.monitor(),
            },
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let replica_addr = replica_server.local_addr().to_string();

    // Status: the primary self-identifies; the replica reports its link.
    let mut to_primary = Client::connect(addr.as_str(), "op", &[]).unwrap();
    let status = to_primary.status().unwrap().0;
    assert_eq!(status.role, ReplicaRole::Primary);
    assert_eq!(status.lag(), 0);
    let mut to_replica = Client::connect(replica_addr.as_str(), "op", &[]).unwrap();
    let status = to_replica.status().unwrap().0;
    assert_eq!(status.role, ReplicaRole::Replica);
    assert!(status.connected);
    assert_eq!(status.local_epoch, store.clock());

    // Same protected answers, same epoch, for an insider and Public.
    for claims in [vec![], vec!["High"]] {
        let claims: Vec<&str> = claims.to_vec();
        let mut a = Client::connect(addr.as_str(), "probe", &claims).unwrap();
        let mut b = Client::connect(replica_addr.as_str(), "probe", &claims).unwrap();
        for root in 0..store.node_count() as u32 {
            let request = QueryRequest::new(
                RecordId(root),
                Direction::Backward,
                u32::MAX,
                Strategy::Surrogate,
            );
            assert_eq!(
                a.query(&request).unwrap(),
                b.query(&request).unwrap(),
                "root {root} diverged between primary and replica"
            );
        }
    }

    // Replicas are read-only surfaces: a remote checkpoint is refused
    // by default like on any server.
    assert!(matches!(
        to_replica.checkpoint(),
        Err(ClientError::Remote(_))
    ));

    // Pooled reads: replicas first, primary as fallback once the
    // replica server goes away.
    let pool = ClientPool::new(addr.as_str(), "reader", &[]).with_replicas([replica_addr.clone()]);
    {
        let mut client = pool.get().unwrap();
        assert_eq!(client.epoch().unwrap(), store.clock());
    }
    let replica_connections = replica_server.stats().connections;
    assert!(replica_connections >= 1, "the pool read hit the replica");
    replica_server.shutdown();
    {
        // The pooled connection died with the replica server; the probe
        // drops it and the fallback dial reaches the primary.
        let mut client = pool.get().unwrap();
        assert_eq!(client.epoch().unwrap(), store.clock());
    }

    replica.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A bare subscriber: Hello, Subscribe from `from_clock`, then chunks —
/// what the feeder sees of any follower, with nothing applied.
struct RawFeed {
    stream: std::net::TcpStream,
    inbuf: Vec<u8>,
}

impl RawFeed {
    fn subscribe(server: &Server, from_clock: u64) -> RawFeed {
        use plus_store::wire::{encode_request, Request};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (mut inbuf, mut outbuf) = (Vec::new(), Vec::new());
        let hello = Request::Hello {
            version: plus_store::PROTOCOL_VERSION,
            consumer: "raw-feed".into(),
            claims: vec![],
        };
        server::write_frame(&mut stream, &encode_request(&hello).unwrap(), &mut outbuf).unwrap();
        server::read_frame(&mut stream, &mut inbuf)
            .unwrap()
            .unwrap();
        let subscribe = Request::Subscribe { from_clock };
        server::write_frame(
            &mut stream,
            &encode_request(&subscribe).unwrap(),
            &mut outbuf,
        )
        .unwrap();
        RawFeed { stream, inbuf }
    }

    fn next_chunk(&mut self) -> plus_store::WalChunk {
        use plus_store::wire::{decode_response, Response};
        let payload = server::read_frame(&mut self.stream, &mut self.inbuf)
            .expect("the feed stays readable")
            .expect("the feed stays open");
        match decode_response(payload).unwrap() {
            Response::WalChunk(chunk) => chunk,
            other => panic!("a subscription carries chunks, got {other:?}"),
        }
    }

    /// Reads up to and including the next heartbeat (an empty chunk).
    fn next_heartbeat(&mut self) -> plus_store::WalChunk {
        loop {
            let chunk = self.next_chunk();
            if chunk.frames.is_empty() && chunk.snapshot.is_none() {
                return chunk;
            }
        }
    }
}

/// The feeder waits on the log: an append is on the wire as soon as it
/// is in the log, both in a steady stream and after a quiet spell.
/// Mutations caught: a feeder that finds appends on a timer (200 round
/// trips at the old 10ms poll need 2s), and an append path that does
/// not wake a parked feeder (the chunk leaves at the next heartbeat,
/// up to 250ms late).
#[test]
fn appends_reach_a_subscriber_without_waiting_for_a_timer() {
    const ROUNDS: u32 = 200;
    let primary_dir = temp_dir("wake-primary");
    let (store, _service, server) = boot_primary(&primary_dir);
    for i in 0..10 {
        apply_op(&store, i);
    }
    let public = store.predicate("Public").unwrap();
    let mut feed = RawFeed::subscribe(&server, store.clock());
    // A closed loop: each append waits for the chunk carrying the last.
    let began = Instant::now();
    for i in 0..ROUNDS {
        store.append_node(
            format!("steady-{i}"),
            NodeKind::Data,
            Features::new(),
            public,
        );
        let clock = store.clock();
        let chunk = feed.next_chunk();
        assert!(!chunk.frames.is_empty(), "the append, not a heartbeat");
        assert_eq!(chunk.start_clock, clock - 1, "one chunk per append");
        assert_eq!(chunk.primary_epoch, clock);
    }
    let steady = began.elapsed();
    assert!(
        steady < Duration::from_secs(1),
        "{ROUNDS} round trips took {steady:?}"
    );

    // A heartbeat means the feeder has sat idle for a quarter second:
    // it is parked, and only a wake gets the next append out in time.
    feed.next_heartbeat();
    store.append_node("after-quiet", NodeKind::Data, Features::new(), public);
    let began = Instant::now();
    let chunk = feed.next_chunk();
    let woken = began.elapsed();
    assert!(!chunk.frames.is_empty());
    assert!(
        woken < Duration::from_millis(100),
        "a parked feeder shipped {woken:?} after the append"
    );

    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
}

/// Shutdown does not wait for a heartbeat: an idle feed owes nothing, so
/// the drain closes it at once. Mutation caught: a drain that spares
/// feeding connections from that close (they owe nothing, see no event,
/// and stay open until the drain timeout).
#[test]
fn shutdown_with_parked_subscribers_is_prompt() {
    let primary_dir = temp_dir("prompt-primary");
    let (store, _service, server) = boot_primary(&primary_dir);
    for i in 0..10 {
        apply_op(&store, i);
    }
    let mut feeds = [
        RawFeed::subscribe(&server, store.clock()),
        RawFeed::subscribe(&server, store.clock()),
    ];
    // Each feeder has just sent a heartbeat and parked for the next.
    for feed in &mut feeds {
        feed.next_heartbeat();
    }
    assert_eq!(server.stats().subscriptions, 2);
    let began = Instant::now();
    server.shutdown();
    let took = began.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "shutdown waited {took:?} on parked feeders"
    );
    std::fs::remove_dir_all(&primary_dir).ok();
}

/// A subscriber that stops reading is a stalled connection like any
/// other: once its socket buffers and the server's queue fill, the
/// write-stall sweep closes it and counts it, and the event loop it
/// shares with a query client never stops answering that client.
/// Mutation caught: a feed that writes through a blocking socket (it
/// waits on the dead reader forever and nothing is counted).
#[test]
fn a_subscriber_that_stops_reading_is_reaped_as_a_write_stall() {
    let primary_dir = temp_dir("stalled-subscriber");
    let store =
        Arc::new(Store::create_durable_with(&primary_dir, LATTICE.0, LATTICE.1, fast()).unwrap());
    let server = Server::bind(
        Arc::new(AccountService::new(store.clone())),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 1,
            allow_replication: true,
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let public = store.predicate("Public").unwrap();
    store.append_node("root", NodeKind::Data, Features::new(), public);
    let metrics = server.metrics();

    // One loop: the query client and the subscriber share it.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    let answers = |client: &mut Client| {
        let began = Instant::now();
        let epoch = client.epoch().expect("the query client is answered");
        assert!(began.elapsed() < Duration::from_secs(1), "a slow answer");
        epoch
    };
    answers(&mut client);
    let (open, active) = (
        metrics.connections_open.get(),
        metrics.subscriptions_active.get(),
    );
    let mut feed = RawFeed::subscribe(&server, store.clock());
    assert!(wait_until(CATCH_UP, || metrics.subscriptions_active.get()
        == active + 1));

    // 16 MiB of log: far past a subscriber's unread receive buffer, the
    // server's send buffer and its outbound queue together.
    let label = "x".repeat(64 << 10);
    for i in 0..256 {
        store.append_node(
            format!("{label}{i}"),
            NodeKind::Data,
            Features::new(),
            public,
        );
        if i % 16 == 0 {
            answers(&mut client);
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            answers(&mut client);
            metrics.overload_drops[OverloadReason::WriteStall as usize].get() == 1
                && metrics.subscriptions_active.get() == active
                && metrics.connections_open.get() == open
        }),
        "the stalled subscriber was reaped as a write stall: {} feeds, {} sockets",
        metrics.subscriptions_active.get(),
        metrics.connections_open.get()
    );
    assert_eq!(answers(&mut client), store.clock());

    // The subscriber sees what the kernel still held for it, then the end.
    if let Err(e) = std::io::copy(&mut feed.stream, &mut std::io::sink()) {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset,
            "not closed: {e}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
}
