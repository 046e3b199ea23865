//! The metrics subsystem end to end: a real `GET /metrics` scrape over
//! HTTP, counter consistency against known traffic, and the in-process
//! instrument registry.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use plus_store::{
    AccountService, Direction, EdgeKind, NodeKind, QueryRequest, RecordId, Store, Strategy,
};
use server::{Client, Server, ServerConfig};
use surrogate_core::feature::Features;

fn setup() -> (Arc<Store>, RecordId) {
    let store = Arc::new(Store::new(&["Public"], &[]).unwrap());
    let public = store.predicate("Public").unwrap();
    let a = store.append_node("a", NodeKind::Data, Features::new(), public);
    let b = store.append_node("b", NodeKind::Data, Features::new(), public);
    store.append_edge(a, b, EdgeKind::InputTo).unwrap();
    (store, b)
}

/// One raw HTTP request against the scrape listener.
fn scrape(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("a complete HTTP response");
    (head.to_string(), body.to_string())
}

/// Extracts one sample's value from the exposition text.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|line| line.starts_with(name) && line[name.len()..].starts_with([' ', '{']))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name:?} in:\n{body}"))
}

#[test]
fn metrics_endpoint_serves_consistent_prometheus_text() {
    let (store, sink) = setup();
    let server = Server::bind(
        Arc::new(AccountService::new(store)),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 2,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener bound");

    // Known traffic: 5 identical queries (cache hits after the first),
    // 2 batches, 1 epoch probe, over one connection.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    let request = QueryRequest::new(sink, Direction::Backward, u32::MAX, Strategy::Surrogate);
    for _ in 0..5 {
        client.query(&request).unwrap();
    }
    for _ in 0..2 {
        client
            .query_batch(&[request.clone(), request.clone()])
            .unwrap();
    }
    client.epoch().unwrap();

    let (head, body) = scrape(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus exposition content type: {head}"
    );

    // Counter consistency against the traffic just generated.
    assert_eq!(sample(&body, "spgraph_requests_total{type=\"query\"}"), 5.0);
    assert_eq!(sample(&body, "spgraph_requests_total{type=\"batch\"}"), 2.0);
    assert_eq!(sample(&body, "spgraph_requests_total{type=\"epoch\"}"), 1.0);
    assert_eq!(sample(&body, "spgraph_connections_total"), 1.0);
    assert_eq!(sample(&body, "spgraph_connections_open"), 1.0);
    assert_eq!(
        sample(
            &body,
            "spgraph_request_latency_seconds_count{type=\"query\"}"
        ),
        5.0
    );
    assert_eq!(
        sample(&body, "spgraph_overload_drops_total{reason=\"conn_cap\"}"),
        0.0
    );
    // The repeat queries hit the sealed-frame cache; the scrape reads
    // the live service counters.
    assert!(sample(&body, "spgraph_frame_cache_hits_total") >= 4.0);
    assert!(sample(&body, "spgraph_frame_cache_hit_rate") > 0.0);
    assert!(sample(&body, "spgraph_bytes_written_total") > 0.0);
    assert!(sample(&body, "spgraph_epoch") >= 1.0);

    // The in-process registry agrees with the scrape.
    assert_eq!(server.stats().requests, 8);
    assert_eq!(server.metrics().connections_total.get(), 1);

    // Histograms are well-formed: cumulative buckets end at +Inf ==
    // _count.
    let inf = sample(
        &body,
        "spgraph_request_latency_seconds_bucket{type=\"query\",le=\"+Inf\"}",
    );
    assert_eq!(inf, 5.0);

    // Anything but /metrics is a 404, and the scrape listener survives
    // to answer again.
    let (head, _) = scrape(metrics_addr, "/wrong");
    assert!(head.starts_with("HTTP/1.1 404"), "bad status: {head}");
    let (head, body) = scrape(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert_eq!(sample(&body, "spgraph_connections_total"), 1.0);

    server.shutdown();
}

/// What a fresh read pays beyond a cached one — a snapshot build and a
/// protection — is on `/metrics`, and a cached read moves none of it.
#[test]
fn protect_cost_moves_on_a_fresh_read_only() {
    let (store, sink) = setup();
    let server = Server::bind(
        Arc::new(AccountService::new(store.clone())),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener bound");
    // (protects, their seconds, [extended, rebuilt] builds, their seconds)
    let fresh_read_cost = || {
        let (_, body) = scrape(metrics_addr, "/metrics");
        (
            ["extended", "generated"]
                .map(|kind| protects(&body, kind))
                .iter()
                .sum::<f64>(),
            sample(&body, "spgraph_account_protect_seconds_total"),
            ["extended", "rebuilt"].map(|kind| {
                sample(
                    &body,
                    &format!("spgraph_snapshot_builds_total{{kind=\"{kind}\"}}"),
                )
            }),
            sample(&body, "spgraph_snapshot_build_seconds_total"),
        )
    };
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    let request = QueryRequest::new(sink, Direction::Backward, u32::MAX, Strategy::Surrogate);
    client.query(&request).unwrap();
    let cold = fresh_read_cost();
    assert_eq!(cold.0, 1.0, "the first read makes the account");
    assert!(cold.1 > 0.0);
    assert_eq!(
        cold.2,
        [0.0, 1.0],
        "the first epoch is rebuilt from the log"
    );
    assert!(cold.3 > 0.0);

    // A cached read never reaches the strategy or the store.
    client.query(&request).unwrap();
    assert_eq!(fresh_read_cost(), cold);

    // A write makes the next read fresh: one more account, on an epoch
    // extended from the one it retires.
    let public = store.predicate("Public").unwrap();
    store.append_node("c", NodeKind::Data, Features::new(), public);
    client.query(&request).unwrap();
    let fresh = fresh_read_cost();
    assert_eq!(fresh.0, 2.0);
    assert!(fresh.1 > cold.1);
    assert_eq!(fresh.2, [1.0, 1.0]);
    assert!(fresh.3 > cold.3);

    server.shutdown();
}

/// `spgraph_account_protects_total{kind}` from one scrape.
fn protects(body: &str, kind: &str) -> f64 {
    sample(
        body,
        &format!("spgraph_account_protects_total{{kind=\"{kind}\"}}"),
    )
}

/// Which fresh reads extend the account the last epoch left, and which
/// generate: appends into new nodes extend, a statement about an old
/// node generates, and a cached read moves neither.
#[test]
fn account_protects_are_counted_by_kind() {
    let (store, sink) = setup();
    let server = Server::bind(
        Arc::new(AccountService::new(store.clone())),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener bound");
    let kinds = || {
        let (_, body) = scrape(metrics_addr, "/metrics");
        ["extended", "generated"].map(|kind| protects(&body, kind))
    };
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    let requests = [Strategy::Surrogate, Strategy::HideEdges]
        .map(|strategy| QueryRequest::new(sink, Direction::Backward, u32::MAX, strategy));
    let mut read_both = || {
        for request in &requests {
            client.query(request).unwrap();
        }
    };

    read_both();
    assert_eq!(kinds(), [0.0, 2.0], "a first read generates, once per key");
    read_both();
    assert_eq!(kinds(), [0.0, 2.0], "a cached read moves neither");

    let public = store.predicate("Public").unwrap();
    let c = store.append_node("c", NodeKind::Data, Features::new(), public);
    store.append_edge(sink, c, EdgeKind::InputTo).unwrap();
    read_both();
    assert_eq!(kinds(), [2.0, 2.0], "a node and an edge into it extend");

    store
        .apply_policy(plus_store::PolicyStatement::MarkNode {
            node: sink,
            predicate: None,
            marking: surrogate_core::marking::Marking::Surrogate,
        })
        .unwrap();
    read_both();
    assert_eq!(
        kinds(),
        [2.0, 4.0],
        "a statement about an old node generates"
    );

    server.shutdown();
}

#[test]
fn metrics_listener_is_optional_and_shut_down_cleanly() {
    let (store, _) = setup();
    let server = Server::bind(
        Arc::new(AccountService::new(store)),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(server.metrics_local_addr(), None);
    server.shutdown();
}

/// `spgraph_feed_chunks_total` says what the feed is doing: an idle
/// feed ships heartbeats and nothing else, and one append is exactly
/// one `frames` chunk per subscriber — not one per poll, and not one
/// shared between them.
#[test]
fn feed_chunks_are_counted_by_kind() {
    use plus_store::wire::{decode_response, encode_request, Request, Response};
    use plus_store::DurabilityOptions;

    let dir = std::env::temp_dir().join(format!("observability-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions {
        fsync: false,
        ..Default::default()
    };
    let store = Arc::new(Store::create_durable_with(&dir, &["Public"], &[], options).unwrap());
    let public = store.predicate("Public").unwrap();
    store.append_node("a", NodeKind::Data, Features::new(), public);
    let server = Server::bind(
        Arc::new(AccountService::new(store.clone())),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 1,
            allow_replication: true,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener bound");
    let chunks = |kind: &str| {
        let (_, body) = scrape(metrics_addr, "/metrics");
        sample(
            &body,
            &format!("spgraph_feed_chunks_total{{kind=\"{kind}\"}}"),
        )
    };

    // Two subscribers, already caught up (a non-zero clock: no snapshot).
    let mut feeds: Vec<(TcpStream, Vec<u8>)> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let (mut inbuf, mut outbuf) = (Vec::new(), Vec::new());
            let hello = Request::Hello {
                version: plus_store::PROTOCOL_VERSION,
                consumer: "feed".into(),
                claims: vec![],
            };
            server::write_frame(&mut stream, &encode_request(&hello).unwrap(), &mut outbuf)
                .unwrap();
            server::read_frame(&mut stream, &mut inbuf)
                .unwrap()
                .unwrap();
            let subscribe = Request::Subscribe {
                from_clock: store.clock(),
            };
            server::write_frame(
                &mut stream,
                &encode_request(&subscribe).unwrap(),
                &mut outbuf,
            )
            .unwrap();
            (stream, inbuf)
        })
        .collect();
    let mut next_chunk = |feed: usize| {
        let (stream, inbuf) = &mut feeds[feed];
        let payload = server::read_frame(stream, inbuf).unwrap().unwrap();
        match decode_response(payload).unwrap() {
            Response::WalChunk(chunk) => chunk,
            other => panic!("a subscription carries chunks, got {other:?}"),
        }
    };

    // An idle second: four heartbeats each, and nothing else.
    for feed in 0..2 {
        for _ in 0..4 {
            assert!(next_chunk(feed).frames.is_empty());
        }
    }
    assert!(chunks("heartbeat") >= 8.0);
    assert_eq!(chunks("frames"), 0.0);
    assert_eq!(chunks("snapshot"), 0.0);

    // One append: one frames chunk on each feed…
    store.append_node("b", NodeKind::Data, Features::new(), public);
    for feed in 0..2 {
        assert!(!next_chunk(feed).frames.is_empty());
    }
    // …and, once the next heartbeats show both feeders have moved on,
    // still exactly two on the counter.
    for feed in 0..2 {
        assert!(next_chunk(feed).frames.is_empty());
    }
    assert_eq!(chunks("frames"), 2.0);
    assert_eq!(chunks("snapshot"), 0.0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A gather's `/metrics` say what its merge is doing: its epochs extend
/// across writes into new nodes, accounts included, and a failover
/// repair — a slot reset — moves the generation and costs exactly one
/// rebuilt epoch.
#[test]
fn a_gather_exports_its_merge_and_feeds() {
    use plus_store::DurabilityOptions;
    use server::{Gather, GatherConfig, Role, Topology};
    use std::time::{Duration, Instant};
    use surrogate_core::shard::Partition;

    let dir = std::env::temp_dir().join(format!("observability-gather-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions {
        fsync: false,
        ..Default::default()
    };
    let (stores, shards): (Vec<Arc<Store>>, Vec<Server>) = (0..2)
        .map(|index| {
            let partition = Partition::new(index, 2).unwrap();
            let store = Arc::new(
                Store::create_durable_partitioned(
                    dir.join(format!("s{index}")),
                    &["Public"],
                    &[],
                    options,
                    partition,
                )
                .unwrap(),
            );
            let config = ServerConfig {
                threads: 1,
                allow_replication: true,
                role: Role::Shard {
                    index,
                    count: 2,
                    topology: Topology::default(),
                    feed: None,
                },
                ..ServerConfig::default()
            };
            let server = Server::bind(
                Arc::new(AccountService::new(store.clone())),
                "127.0.0.1:0",
                &config,
            )
            .unwrap();
            (store, server)
        })
        .unzip();
    let topology = Topology::from_peers(shards.iter().map(|s| s.local_addr().to_string())).unwrap();
    let gather = Arc::new(Gather::start_topology(&topology, GatherConfig::default()).unwrap());
    let front = Server::bind(
        gather.service().clone(),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            role: Role::Gather {
                gather: gather.clone(),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics_addr = front.metrics_local_addr().expect("metrics listener bound");
    let scrape_body = || scrape(metrics_addr, "/metrics").1;
    let kind = |body: &str, family: &str, kind: &str| {
        sample(body, &format!("spgraph_{family}_total{{kind=\"{kind}\"}}"))
    };
    // Waits until the gather has folded every write under each shard's
    // term.
    let settle = || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let folded = |slot: u32| {
            let store = &stores[slot as usize];
            gather.clocks()[slot as usize] == store.clock()
                && gather.term(slot) == Some(store.replication_term())
        };
        while !(gather.synced() && (0..2).all(folded)) {
            assert!(Instant::now() < deadline, "the gather never caught up");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let public = stores[0].predicate("Public").unwrap();
    let mut client = Client::connect(front.local_addr(), "reader", &[]).unwrap();
    let read = |client: &mut Client, root: RecordId| {
        let request = QueryRequest::new(root, Direction::Backward, u32::MAX, Strategy::Surrogate);
        client.query(&request).unwrap();
    };

    // Nodes 0 and 1 on their owners, and the edge 0 → 1 on node 0's.
    let a = stores[0].append_node("a", NodeKind::Data, Features::new(), public);
    let b = stores[1].append_node("b", NodeKind::Data, Features::new(), public);
    stores[0].append_edge(a, b, EdgeKind::InputTo).unwrap();
    settle();
    read(&mut client, b);
    let body = scrape_body();
    assert_eq!(sample(&body, "spgraph_gather_generation"), 0.0);
    for (slot, store) in stores.iter().enumerate() {
        let clock = store.clock() as f64;
        assert_eq!(
            sample(
                &body,
                &format!("spgraph_gather_slot_clock{{slot=\"{slot}\"}}")
            ),
            clock
        );
        assert_eq!(
            sample(
                &body,
                &format!("spgraph_gather_slot_term{{slot=\"{slot}\"}}")
            ),
            0.0
        );
        assert_eq!(
            sample(
                &body,
                &format!("spgraph_gather_slot_connected{{slot=\"{slot}\"}}")
            ),
            1.0
        );
    }
    assert_eq!(kind(&body, "snapshot_builds", "rebuilt"), 1.0);
    let cold = [
        kind(&body, "snapshot_builds", "extended"),
        kind(&body, "account_protects", "extended"),
    ];

    // Node 2, then the edge 1 → 2 from the other shard: writes into a
    // new node, so the epoch and its account both extend.
    let c = stores[0].append_node("c", NodeKind::Data, Features::new(), public);
    settle();
    stores[1].append_edge(b, c, EdgeKind::InputTo).unwrap();
    settle();
    read(&mut client, c);
    let body = scrape_body();
    assert_eq!(kind(&body, "snapshot_builds", "extended"), cold[0] + 1.0);
    assert_eq!(kind(&body, "account_protects", "extended"), cold[1] + 1.0);
    let rebuilt = kind(&body, "snapshot_builds", "rebuilt");

    // Shard 1 is promoted to term 1: the gather resets its slot and
    // re-bootstraps it, and the next epoch is rebuilt, once.
    stores[1].promote_term().unwrap();
    settle();
    read(&mut client, c);
    let body = scrape_body();
    assert_eq!(sample(&body, "spgraph_gather_generation"), 1.0);
    assert_eq!(sample(&body, "spgraph_gather_slot_term{slot=\"1\"}"), 1.0);
    assert_eq!(kind(&body, "snapshot_builds", "rebuilt"), rebuilt + 1.0);
    read(&mut client, b);
    assert_eq!(
        kind(&scrape_body(), "snapshot_builds", "rebuilt"),
        rebuilt + 1.0
    );

    drop(client);
    front.shutdown();
    drop(gather);
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes per flush can be read off a running server: every durable
/// write acknowledged with `fsync` on is counted once in
/// `spgraph_wal_flushed_writes_total`, and no flush is counted that
/// covered nothing. A page-cache store flushes nothing and exports 0.
/// Mutation caught: counting the inline publication of a store without
/// `fsync` as a flush (the page-cache store would export its writes).
#[test]
fn wal_flushes_are_counted_with_the_writes_they_cover() {
    const WRITES: usize = 24;
    let flush_counts = |store: Arc<Store>| {
        let server = Server::bind(
            Arc::new(AccountService::new(store)),
            "127.0.0.1:0",
            &ServerConfig {
                threads: 1,
                metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (_, body) = scrape(server.metrics_local_addr().unwrap(), "/metrics");
        server.shutdown();
        (
            sample(&body, "spgraph_wal_flushes_total"),
            sample(&body, "spgraph_wal_flushed_writes_total"),
        )
    };
    let write_from_two_threads = |store: &Arc<Store>| {
        let public = store.predicate("Public").unwrap();
        std::thread::scope(|scope| {
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..WRITES / 2 {
                        store.append_node(
                            format!("{t}-{i}"),
                            NodeKind::Data,
                            Features::new(),
                            public,
                        );
                    }
                });
            }
        });
    };

    let dir = std::env::temp_dir().join(format!("observability-flushes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Arc::new(Store::create_durable(&dir, &["Public"], &[]).unwrap());
    write_from_two_threads(&durable);
    // A checkpoint flushes too, and must count nothing it did not cover.
    durable.checkpoint().unwrap();
    let (flushes, flushed_writes) = flush_counts(durable);
    assert_eq!(
        flushed_writes, WRITES as f64,
        "every acked write counted once"
    );
    assert!(
        (1.0..=WRITES as f64).contains(&flushes),
        "{flushes} flushes for {WRITES} writes"
    );

    let (page_cache, _) = setup();
    write_from_two_threads(&page_cache);
    assert_eq!(flush_counts(page_cache), (0.0, 0.0));
    std::fs::remove_dir_all(&dir).ok();
}
