//! The sharding adversarial suite — multi-primary writes, scatter-gather
//! reads, and the failure modes in between.
//!
//! The claims under test:
//!
//! 1. **Oracle equivalence.** A gather node's answer to a cross-shard
//!    traversal is *identical* — rows, labels, depths, epoch — to what a
//!    single unsharded store fed the same operation sequence would
//!    answer. Sharding is a deployment topology, not a semantics change.
//! 2. **No silent gaps.** Kill a shard mid-stream and the gather
//!    *refuses* queries with a typed `ShardUnavailable` error; it never
//!    serves an answer missing the dead shard's records.
//! 3. **Typed redirects.** A write landing on the wrong shard comes back
//!    as `WrongShard` naming the owner, and [`ShardRouter`] follows one
//!    redirect to success.
//! 4. **Concurrent primaries.** Writers hammering different shards at
//!    once never interleave destructively: every record lands, ids stay
//!    disjoint by congruence class, and the merged graph sees all of it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plus_store::wire::{WireErrorKind, WriteOp};
use plus_store::{
    AccountService, Direction, DurabilityOptions, EdgeKind, NodeKind, PolicyStatement,
    QueryRequest, QueryResponse, RecordId, Store, Strategy,
};
use server::{
    Client, ClientError, Gather, GatherConfig, Server, ServerConfig, ShardRouter, Topology,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;
use surrogate_core::shard::Partition;

const LATTICE: (&[&str], &[(usize, usize)]) = (&["Public", "Mid", "High"], &[(1, 0), (2, 1)]);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sharding-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shard primary plus the directory its store lives in.
struct ShardNode {
    server: Server,
    dir: PathBuf,
}

/// Boots `count` shard primaries (replication on, as a gather requires)
/// and returns them with their addresses. `peers_for` decides each
/// shard's redirect peer list; tests that don't care pass `|_| vec![]`
/// and get decimal-index redirects.
fn boot_shards(
    test: &str,
    count: u32,
    peers_for: impl Fn(u32, &[String]) -> Vec<String>,
) -> (Vec<ShardNode>, Vec<String>) {
    // Two passes would need the addresses before binding; instead bind
    // with port 0 one shard at a time, threading the addresses gathered
    // so far into `peers_for`.
    let mut nodes = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for index in 0..count {
        let dir = temp_dir(&format!("{test}-s{index}"));
        let partition = Partition::new(index, count).unwrap();
        let store = Store::create_durable_partitioned(
            &dir,
            LATTICE.0,
            LATTICE.1,
            DurabilityOptions::default(),
            partition,
        )
        .unwrap();
        let config = ServerConfig {
            allow_replication: true,
            ..ServerConfig::default()
        };
        let peers = peers_for(index, &addrs);
        let topology = if peers.is_empty() {
            Topology::default()
        } else {
            Topology::from_peers(peers).unwrap()
        };
        let config = ServerConfig {
            role: server::Role::Shard {
                index,
                count,
                topology,
                feed: None,
            },
            ..config
        };
        let server = Server::bind(
            Arc::new(AccountService::new(Arc::new(store))),
            "127.0.0.1:0",
            &config,
        )
        .unwrap();
        addrs.push(server.local_addr().to_string());
        nodes.push(ShardNode { server, dir });
    }
    (nodes, addrs)
}

fn boot_gather(addrs: &[String]) -> (Arc<Gather>, Server) {
    let topology = Topology::from_peers(addrs.iter().cloned()).unwrap();
    let gather = Arc::new(Gather::start_topology(&topology, GatherConfig::default()).unwrap());
    let config = ServerConfig {
        role: server::Role::Gather {
            gather: gather.clone(),
        },
        ..ServerConfig::default()
    };
    let front = Server::bind(gather.service().clone(), "127.0.0.1:0", &config).unwrap();
    (gather, front)
}

/// A writer-identity router over bare primaries, in the given order.
fn router_over(addrs: &[&str]) -> ShardRouter {
    let topology = Topology::from_peers(addrs.iter().copied())
        .unwrap()
        .with_consumer("writer", Vec::<String>::new());
    ShardRouter::new(&topology).unwrap()
}

/// Polls `client.epoch()` until it reaches `target` — the gather lags
/// the shards by one feed round-trip, so every read-after-write in this
/// suite syncs explicitly first.
fn wait_epoch(client: &mut Client, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let epoch = client.epoch().unwrap();
        if epoch >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gather stuck at epoch {epoch}, want {target}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn cleanup(nodes: Vec<ShardNode>) {
    for node in nodes {
        node.server.shutdown();
        let _ = std::fs::remove_dir_all(&node.dir);
    }
}

/// The deterministic cross-shard workload: applied through a
/// [`ShardRouter`] it round-robins node appends across the shards, which
/// makes the assigned global ids *dense* — exactly the ids an unsharded
/// store appending the same sequence would assign. That identity is what
/// lets the oracle test compare answers byte for byte.
fn workload(mut node: impl FnMut(&str, usize), mut edge: impl FnMut(u32, u32, EdgeKind)) -> u64 {
    let labels = [
        "source-a", "source-b", "filter", "merge", "report", "audit", "archive", "digest",
    ];
    for (i, label) in labels.iter().enumerate() {
        node(label, i % 3); // lowest predicate rotates Public/Mid/High
    }
    let edges = [
        (0u32, 2u32, EdgeKind::InputTo),
        (1, 2, EdgeKind::InputTo),
        (2, 3, EdgeKind::GeneratedBy),
        (3, 4, EdgeKind::GeneratedBy),
        (4, 5, EdgeKind::TriggeredBy),
        (3, 6, EdgeKind::Related),
        (6, 7, EdgeKind::GeneratedBy),
    ];
    for (from, to, kind) in edges {
        edge(from, to, kind);
    }
    (labels.len() + edges.len()) as u64
}

/// Claim 1: every traversal through the gather matches a single-store
/// oracle that applied the same operations — rows, depths, labels, and
/// the scalar epoch (the sum of the per-shard clocks) all byte-equal.
#[test]
fn cross_shard_traversals_match_single_store_oracle() {
    let (nodes, addrs) = boot_shards("oracle", 2, |_, _| vec![]);
    let (gather, front) = boot_gather(&addrs);

    // Sharded side: the workload through a router.
    let addr_refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let router = router_over(&addr_refs);
    let preds: Vec<_> = {
        let probe = Client::connect(&addrs[0], "probe", &[]).unwrap();
        LATTICE
            .0
            .iter()
            .map(|name| probe.predicate(name).unwrap())
            .collect()
    };
    let mut sharded_ids = Vec::new();
    let total = workload(
        |label, lowest| {
            let (_, id) = router
                .write(WriteOp::AppendNode {
                    label: label.to_string(),
                    kind: NodeKind::Data,
                    features: Features::new(),
                    lowest: preds[lowest],
                })
                .unwrap();
            sharded_ids.push(id.unwrap());
        },
        |from, to, kind| {
            let (_, id) = router
                .write(WriteOp::AppendEdge {
                    from: RecordId(from),
                    to: RecordId(to),
                    kind,
                })
                .unwrap();
            assert_eq!(id, None, "edge appends assign no id");
        },
    );
    // A policy statement routed by its governed node, for good measure.
    router
        .write(WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
            node: RecordId(3),
            predicate: Some(preds[2]),
            marking: Marking::Surrogate,
        }))
        .unwrap();

    // Round-robin across 2 shards must have produced dense ids 0..8.
    let expect: Vec<_> = (0..sharded_ids.len() as u32).map(RecordId).collect();
    assert_eq!(sharded_ids, expect, "sharded ids are dense and in order");

    // Oracle side: the identical sequence against one unsharded store.
    let oracle = Arc::new(Store::new(LATTICE.0, LATTICE.1).unwrap());
    workload(
        |label, lowest| {
            oracle
                .try_append_node(label, NodeKind::Data, Features::new(), preds[lowest])
                .unwrap();
        },
        |from, to, kind| {
            oracle
                .append_edge(RecordId(from), RecordId(to), kind)
                .unwrap();
        },
    );
    oracle
        .apply_policy(PolicyStatement::MarkNode {
            node: RecordId(3),
            predicate: Some(preds[2]),
            marking: Marking::Surrogate,
        })
        .unwrap();
    let oracle_server = Server::bind(
        Arc::new(AccountService::new(oracle)),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();

    // Compare every root, two directions, every strategy, through the
    // eyes of two differently-privileged consumers.
    for claims in [&["Mid"][..], &["High"][..]] {
        let mut via_gather = Client::connect(front.local_addr(), "auditor", claims).unwrap();
        let mut via_oracle =
            Client::connect(oracle_server.local_addr(), "auditor", claims).unwrap();
        wait_epoch(&mut via_gather, total + 1);
        for root in 0..8u32 {
            for direction in [Direction::Backward, Direction::Forward] {
                for strategy in [
                    Strategy::Surrogate,
                    Strategy::HideEdges,
                    Strategy::HideNodes,
                ] {
                    let request = QueryRequest::new(RecordId(root), direction, u32::MAX, strategy);
                    let sharded: QueryResponse = via_gather.query(&request).unwrap();
                    let single: QueryResponse = via_oracle.query(&request).unwrap();
                    assert_eq!(
                        sharded.shard_epochs.iter().sum::<u64>(),
                        sharded.epoch,
                        "gather epoch is the sum of its per-shard clocks"
                    );
                    assert_eq!(sharded.shard_epochs.len(), 2);
                    assert!(single.shard_epochs.is_empty(), "oracle is unsharded");
                    // The shard-epoch vector is the one legitimate
                    // difference; everything else must be identical.
                    let mut flattened = sharded.clone();
                    flattened.shard_epochs = Vec::new();
                    assert_eq!(
                        flattened, single,
                        "root {root} {direction:?} {strategy:?} diverged from the oracle"
                    );
                }
            }
        }
    }

    oracle_server.shutdown();
    front.shutdown();
    drop(gather);
    cleanup(nodes);
}

/// Claim 4: concurrent writers on *different* shards don't contend — all
/// records land, each shard's ids stay in its congruence class, and the
/// gather merges both chains completely.
#[test]
fn concurrent_writers_on_different_shards_all_land() {
    const K: u32 = 40;
    let (nodes, addrs) = boot_shards("concurrent", 2, |_, _| vec![]);
    let (gather, front) = boot_gather(&addrs);

    let writers: Vec<_> = (0..2u32)
        .map(|shard| {
            let addr = addrs[shard as usize].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, "writer", &[]).unwrap();
                let public = client.predicate("Public").unwrap();
                let mut prev: Option<RecordId> = None;
                for j in 0..K {
                    let (_, id) = client
                        .write(WriteOp::AppendNode {
                            label: format!("w{shard}-{j}"),
                            kind: NodeKind::Data,
                            features: Features::new(),
                            lowest: public,
                        })
                        .unwrap();
                    let id = id.unwrap();
                    assert_eq!(id.0 % 2, shard, "shard {shard} assigns its own class");
                    if let Some(prev) = prev {
                        client
                            .write(WriteOp::AppendEdge {
                                from: prev,
                                to: id,
                                kind: EdgeKind::InputTo,
                            })
                            .unwrap();
                    }
                    prev = Some(id);
                }
                prev.unwrap()
            })
        })
        .collect();
    let tails: Vec<RecordId> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    // Each shard applied K nodes + K-1 edges.
    let per_shard = (2 * K - 1) as u64;
    let mut client = Client::connect(front.local_addr(), "reader", &["Public"]).unwrap();
    wait_epoch(&mut client, 2 * per_shard);

    let status = client.status().unwrap().1;
    assert_eq!(status.count, 2);
    assert_eq!(status.index, None);
    assert_eq!(status.epochs, vec![per_shard, per_shard]);

    // Walking back from each chain's tail crosses the whole chain: all
    // K-1 ancestors present, labels intact, in BFS depth order.
    for (shard, tail) in tails.iter().enumerate() {
        let response = client
            .query(&QueryRequest::new(
                *tail,
                Direction::Backward,
                u32::MAX,
                Strategy::Surrogate,
            ))
            .unwrap();
        assert_eq!(
            response.rows.len(),
            (K - 1) as usize,
            "shard {shard} chain is complete in the merged graph"
        );
        for (depth, row) in response.rows.iter().enumerate() {
            assert_eq!(row.label, format!("w{shard}-{}", K as usize - 2 - depth));
        }
    }

    front.shutdown();
    drop(gather);
    cleanup(nodes);
}

/// Claim 2: a shard dying mid-stream turns the gather's answers into
/// typed `ShardUnavailable` refusals — never a response missing the dead
/// shard's records.
#[test]
fn killed_shard_yields_typed_refusal_never_a_gap() {
    let (mut nodes, addrs) = boot_shards("killed", 2, |_, _| vec![]);
    let (gather, front) = boot_gather(&addrs);

    // Seed a cross-shard chain 0 → 1 → 2 (ids alternate shards).
    let addr_refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let router = router_over(&addr_refs);
    let public = router.pool(0).get().unwrap().predicate("Public").unwrap();
    let mut ids = Vec::new();
    for label in ["a", "b", "c"] {
        let (_, id) = router
            .write(WriteOp::AppendNode {
                label: label.to_string(),
                kind: NodeKind::Data,
                features: Features::new(),
                lowest: public,
            })
            .unwrap();
        ids.push(id.unwrap());
    }
    for pair in ids.windows(2) {
        router
            .write(WriteOp::AppendEdge {
                from: pair[0],
                to: pair[1],
                kind: EdgeKind::GeneratedBy,
            })
            .unwrap();
    }

    let request = QueryRequest::new(ids[2], Direction::Backward, u32::MAX, Strategy::Surrogate);
    let mut client = Client::connect(front.local_addr(), "reader", &["Public"]).unwrap();
    wait_epoch(&mut client, 5);
    let baseline = client.query(&request).unwrap();
    assert_eq!(baseline.rows.len(), 2, "chain visible before the kill");

    // Kill shard 1 (owner of "b") and hammer the gather. Until the feed
    // notices, full answers are fine; after, only the typed refusal is —
    // an answer with fewer rows would be the silent gap this suite
    // exists to rule out.
    nodes.remove(1).server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let refusal = loop {
        match client.query(&request) {
            Ok(response) => {
                assert_eq!(
                    response.rows, baseline.rows,
                    "a pre-refusal answer must still be the complete one"
                );
            }
            Err(ClientError::Remote(remote)) => break remote,
            Err(other) => panic!("expected a typed refusal, got {other}"),
        }
        assert!(
            Instant::now() < deadline,
            "gather never noticed the dead shard"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(refusal.kind, WireErrorKind::ShardUnavailable);
    assert!(
        refusal.message.contains("shard 1"),
        "refusal names the dead shard: {}",
        refusal.message
    );
    // The connection survives a refusal; status still answers and shows
    // the feed down.
    assert!(!gather.connected(1));
    assert_eq!(gather.first_down(), Some(1));

    front.shutdown();
    drop(gather);
    cleanup(nodes);
}

/// Claim 3: mis-routed writes come back as `WrongShard` — the owner's
/// address when the shard knows its peers, its index in decimal when it
/// doesn't — and [`ShardRouter`] follows the address form once.
#[test]
fn misrouted_writes_redirect_to_the_owner() {
    // Shard 0 gets no peer list (decimal redirects); shard 1 learns
    // shard 0's address (its own slot is never the redirect target, so
    // any placeholder satisfies the length check).
    let (nodes, addrs) = boot_shards("redirect", 2, |index, known| {
        if index == 1 {
            vec![known[0].clone(), known[0].clone()]
        } else {
            vec![]
        }
    });

    let mut client0 = Client::connect(&addrs[0], "writer", &[]).unwrap();
    let mut client1 = Client::connect(&addrs[1], "writer", &[]).unwrap();
    assert_eq!(client0.status().unwrap().1.count, 2);
    assert_eq!(client0.status().unwrap().1.index, Some(0));
    let public = client0.predicate("Public").unwrap();

    let node = |label: &str| WriteOp::AppendNode {
        label: label.to_string(),
        kind: NodeKind::Data,
        features: Features::new(),
        lowest: public,
    };
    let (_, id0) = client0.write(node("even")).unwrap();
    let (_, id1) = client1.write(node("odd")).unwrap();
    let (id0, id1) = (id0.unwrap(), id1.unwrap());
    assert_eq!((id0, id1), (RecordId(0), RecordId(1)));

    // Peer-aware shard 1 redirects by address…
    let misroute = WriteOp::AppendEdge {
        from: id0,
        to: id1,
        kind: EdgeKind::InputTo,
    };
    match client1.write(misroute.clone()) {
        Err(ClientError::Remote(remote)) => {
            assert_eq!(remote.kind, WireErrorKind::WrongShard);
            assert_eq!(
                remote.message, addrs[0],
                "redirect names the owner's address"
            );
        }
        other => panic!("expected WrongShard, got {other:?}"),
    }
    // …peerless shard 0 by decimal index.
    match client0.write(WriteOp::AppendEdge {
        from: id1,
        to: id0,
        kind: EdgeKind::InputTo,
    }) {
        Err(ClientError::Remote(remote)) => {
            assert_eq!(remote.kind, WireErrorKind::WrongShard);
            assert_eq!(
                remote.message, "1",
                "peerless redirect is the owner's index"
            );
        }
        other => panic!("expected WrongShard, got {other:?}"),
    }

    // A router whose peer order is swapped relative to the real topology
    // mis-routes every id-routed write; the address-form redirect from
    // shard 1 carries it to the right place anyway.
    let swapped = router_over(&[&addrs[1], &addrs[0]]);
    let (clock, id) = swapped.write(misroute).unwrap();
    assert_eq!(id, None);
    assert_eq!(
        clock, 2,
        "the edge landed on the owning shard (node + edge)"
    );

    // The decimal form can't rescue a swapped router (the index maps
    // back to the same wrong pool); the second refusal surfaces instead
    // of bouncing forever.
    match swapped.write(WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
        node: id1,
        predicate: None,
        marking: Marking::Hide,
    })) {
        Err(ClientError::Remote(remote)) => {
            assert_eq!(remote.kind, WireErrorKind::WrongShard)
        }
        other => panic!("expected the second refusal to surface, got {other:?}"),
    }

    cleanup(nodes);
}

/// Shards serve point reads for owned ids, refuse traversals, and
/// redirect foreign roots; hellos and shard-status advertise the
/// topology from every role's point of view.
#[test]
fn shard_roles_point_reads_and_status() {
    let (nodes, addrs) = boot_shards("roles", 2, |_, _| vec![]);
    let (gather, front) = boot_gather(&addrs);

    let mut client0 = Client::connect(&addrs[0], "reader", &["Public"]).unwrap();
    let public = client0.predicate("Public").unwrap();
    client0
        .write(WriteOp::AppendNode {
            label: "only".to_string(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: public,
        })
        .unwrap();

    // Point read of an owned id: answered, with the shard's own slot
    // live in the epoch vector.
    let point = QueryRequest::new(RecordId(0), Direction::Backward, 0, Strategy::Surrogate);
    let response = client0.query(&point).unwrap();
    assert_eq!(response.shard_epochs, vec![1, 0]);
    let status = client0.status().unwrap().1;
    assert_eq!((status.count, status.index), (2, Some(0)));
    assert_eq!(status.epochs, vec![1, 0]);

    // A traversal is refused with a pointer at the gather tier…
    let traversal = QueryRequest::new(RecordId(0), Direction::Backward, 3, Strategy::Surrogate);
    match client0.query(&traversal) {
        Err(ClientError::Remote(remote)) => {
            assert_eq!(remote.kind, WireErrorKind::BadRequest);
            assert!(
                remote.message.contains("point reads only"),
                "{}",
                remote.message
            );
        }
        other => panic!("expected a traversal refusal, got {other:?}"),
    }
    // …and a foreign root with a WrongShard redirect.
    let foreign = QueryRequest::new(RecordId(1), Direction::Backward, 0, Strategy::Surrogate);
    match client0.query(&foreign) {
        Err(ClientError::Remote(remote)) => assert_eq!(remote.kind, WireErrorKind::WrongShard),
        other => panic!("expected WrongShard, got {other:?}"),
    }

    // The gather fronts all shards: hello says so, and it happily serves
    // the traversal the shard refused.
    let mut via_gather = Client::connect(front.local_addr(), "reader", &["Public"]).unwrap();
    assert_eq!(via_gather.status().unwrap().1.count, 2);
    assert_eq!(via_gather.status().unwrap().1.index, None);
    wait_epoch(&mut via_gather, 1);
    // The epoch shows shard 0's write; shard 1's feed may still be
    // connecting, and a traversal is refused until every feed is up.
    assert!(gather.wait_synced(Duration::from_secs(10)), "never synced");
    via_gather.query(&traversal).unwrap();

    // An unsharded server reports count 0 and its scalar epoch.
    let plain = Server::bind(
        Arc::new(AccountService::new(Arc::new(
            Store::new(LATTICE.0, LATTICE.1).unwrap(),
        ))),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let mut unsharded = Client::connect(plain.local_addr(), "reader", &[]).unwrap();
    assert_eq!(unsharded.status().unwrap().1.count, 0);
    assert_eq!(unsharded.status().unwrap().1.index, None);
    let status = unsharded.status().unwrap().1;
    assert_eq!((status.count, status.index), (0, None));
    assert_eq!(status.epochs, vec![0]);

    plain.shutdown();
    front.shutdown();
    drop(gather);
    cleanup(nodes);
}
