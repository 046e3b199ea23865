//! Adversarial-client tests: slow writers, slow readers, clients that
//! never speak, clients that stop draining responses, and dial storms
//! past the connection cap. Each must get bounded-memory treatment and a
//! typed error where a reply is possible — never a stuck server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plus_store::codec::seal_frame;
use plus_store::wire::{decode_response, encode_request, Request, Response};
use plus_store::{
    AccountService, Direction, EdgeKind, NodeKind, QueryRequest, RecordId, Store, Strategy,
    WireErrorKind,
};
use server::{Client, ClientError, Server, ServerConfig};
use surrogate_core::feature::Features;

/// A linear chain of `n` Public nodes, so a backward query from the tail
/// returns `n - 1` upstream rows — cheap way to make responses large.
fn chain_store(n: usize) -> (Arc<Store>, RecordId) {
    let store = Arc::new(Store::new(&["Public"], &[]).unwrap());
    let public = store.predicate("Public").unwrap();
    let mut prev = store.append_node("n0", NodeKind::Data, Features::new(), public);
    for i in 1..n {
        let node = store.append_node(format!("n{i}"), NodeKind::Data, Features::new(), public);
        store.append_edge(prev, node, EdgeKind::InputTo).unwrap();
        prev = node;
    }
    (store, prev)
}

fn serve(store: Arc<Store>, config: ServerConfig) -> Server {
    Server::bind(
        Arc::new(AccountService::new(store)),
        "127.0.0.1:0",
        &ServerConfig {
            threads: 2,
            ..config
        },
    )
    .expect("bind loopback")
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

/// A writer that dribbles its Hello one byte at a time must be buffered
/// patiently (level-triggered readiness, partial-frame accumulation) and
/// answered normally once the frame completes.
#[test]
fn one_byte_at_a_time_writer_completes_its_handshake() {
    let (store, _) = chain_store(3);
    let server = serve(store, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = seal_frame(
        &encode_request(&Request::Hello {
            version: plus_store::wire::PROTOCOL_VERSION,
            consumer: "dribbler".into(),
            claims: vec![],
        })
        .unwrap(),
    );
    for byte in &hello {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    let mut scratch = Vec::new();
    let payload = server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("a Hello answer");
    assert!(matches!(
        decode_response(payload).unwrap(),
        Response::Hello(_)
    ));
    assert_eq!(server.stats().connections, 1);
    assert_eq!(server.stats().hangups, 0);
    server.shutdown();
}

/// A reader that drains its response one byte at a time still gets the
/// whole, checksum-valid frame, and the connection stays serviceable.
#[test]
fn one_byte_at_a_time_reader_gets_the_whole_response() {
    let (store, tail) = chain_store(16);
    let server = serve(store, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let send = |stream: &mut TcpStream, request: &Request| {
        stream
            .write_all(&seal_frame(&encode_request(request).unwrap()))
            .unwrap();
    };
    send(
        &mut stream,
        &Request::Hello {
            version: plus_store::wire::PROTOCOL_VERSION,
            consumer: "sipper".into(),
            claims: vec![],
        },
    );
    let mut scratch = Vec::new();
    server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("hello answer");
    send(
        &mut stream,
        &Request::Query(QueryRequest::new(
            tail,
            Direction::Backward,
            u32::MAX,
            Strategy::Surrogate,
        )),
    );
    // Drain the response a byte at a time: first the 8-byte header…
    let read_byte = |stream: &mut TcpStream| {
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).expect("one more byte");
        byte[0]
    };
    let mut header = [0u8; 8];
    for slot in &mut header {
        *slot = read_byte(&mut stream);
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    assert!(len > 0);
    // …then the payload, checksum-verified by reassembling the frame.
    let mut payload = Vec::with_capacity(len);
    for _ in 0..len {
        payload.push(read_byte(&mut stream));
    }
    assert_eq!(
        plus_store::codec::crc32(&payload),
        u32::from_le_bytes(header[4..8].try_into().unwrap()),
        "frame survived the slow drain intact"
    );
    match decode_response(&payload).unwrap() {
        Response::Query(response) => assert_eq!(response.rows.len(), 15),
        other => panic!("expected a query response, got {other:?}"),
    }
    // The connection is still healthy after the crawl.
    send(&mut stream, &Request::Epoch);
    let payload = server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("epoch answer");
    assert!(matches!(
        decode_response(payload).unwrap(),
        Response::Epoch(_)
    ));
    server.shutdown();
}

/// A well-framed `Query` whose strategy byte is outside WIRE.md §5's
/// table does not decode, so it is a malformed frame like any other:
/// one `BadRequest`, then EOF, counted in `spgraph_hangups_total`.
/// Error kind 1 (`UnknownStrategy`) is reserved and never sent.
#[test]
fn unknown_strategy_tag_is_a_bad_request_and_a_hangup() {
    let (store, tail) = chain_store(3);
    let server = serve(store, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Request::Hello {
        version: plus_store::wire::PROTOCOL_VERSION,
        consumer: "time traveller".into(),
        claims: vec![],
    };
    stream
        .write_all(&seal_frame(&encode_request(&hello).unwrap()))
        .unwrap();
    let mut scratch = Vec::new();
    server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("hello answer");

    // tag u8 | root u32 | direction u8 | max_depth u32 | strategy u8 | …
    let query = Request::Query(QueryRequest::new(
        tail,
        Direction::Backward,
        u32::MAX,
        Strategy::HideNodes,
    ));
    let mut payload = encode_request(&query).unwrap();
    assert_eq!(payload[10], 2, "the strategy byte is where §5 puts it");
    payload[10] = 3;
    stream.write_all(&seal_frame(&payload)).unwrap();

    let answer = server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("one error frame before the hangup");
    match decode_response(answer).unwrap() {
        Response::Error(error) => assert_eq!(error.kind, WireErrorKind::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "EOF after the error frame");
    assert_eq!(server.stats().hangups, 1);
    server.shutdown();
}

/// Connect-and-never-Hello costs one fd for `handshake_timeout`, not
/// forever: the sweep reaps it and counts the reap.
#[test]
fn never_hello_connections_are_reaped() {
    let (store, _) = chain_store(3);
    let server = serve(
        store,
        ServerConfig {
            handshake_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server hangs up without a word (there is no protocol error to
    // report — the client never said anything).
    let mut rest = Vec::new();
    silent.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().idle_reaped >= 1),
        "the reap was counted"
    );
    assert_eq!(server.stats().hangups, 0, "a reap is not a hangup");
    // The server still serves.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    assert!(client.epoch().is_ok());
    server.shutdown();
}

/// A client that requests a flood and stops reading gets bounded-memory
/// treatment: past the outbound high-water mark the server stops reading
/// it, and after `write_stall_timeout` of zero progress the connection
/// is closed as an overload drop. Other connections never notice.
#[test]
fn stops_reading_mid_batch_is_shed_with_bounded_memory() {
    let (store, tail) = chain_store(2000);
    let server = serve(
        store,
        ServerConfig {
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&seal_frame(
            &encode_request(&Request::Hello {
                version: plus_store::wire::PROTOCOL_VERSION,
                consumer: "sinkhole".into(),
                claims: vec![],
            })
            .unwrap(),
        ))
        .unwrap();
    let mut scratch = Vec::new();
    server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("hello answer");
    // Pipeline 500 queries whose answers total tens of MiB — far past
    // anything the kernel's socket buffers can absorb — then stop
    // reading entirely. The overflow must park in the server's bounded
    // outbound queue, not grow without limit.
    let query = seal_frame(
        &encode_request(&Request::Query(QueryRequest::new(
            tail,
            Direction::Backward,
            u32::MAX,
            Strategy::Surrogate,
        )))
        .unwrap(),
    );
    for _ in 0..500 {
        stream.write_all(&query).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().overload_drops >= 1
        }),
        "the stalled connection was dropped as an overload shed"
    );
    // A well-behaved client is unaffected before, during, and after.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    assert!(client.epoch().is_ok());
    server.shutdown();
}

/// The subtler stall: a backlog small enough to be parsed and queued in
/// a single event, whose one flush pass makes *partial* progress (the
/// kernel buffer absorbs what it can). A client that then never reads
/// produces no further readiness events, so no later flush pass exists
/// to observe the stall — the sweep must reap from the write-progress
/// clock alone.
#[test]
fn stops_reading_after_partial_flush_is_still_shed() {
    let (store, tail) = chain_store(2000);
    let server = serve(
        store,
        ServerConfig {
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&seal_frame(
            &encode_request(&Request::Hello {
                version: plus_store::wire::PROTOCOL_VERSION,
                consumer: "half-reader".into(),
                claims: vec![],
            })
            .unwrap(),
        ))
        .unwrap();
    let mut scratch = Vec::new();
    server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("hello answer");
    // 200 tiny query frames in one write: the server parses them in
    // one read event and queues tens of MiB of responses (far past any
    // auto-tuned socket buffering), flushes with partial progress, and
    // then hears nothing from this socket again.
    let query = seal_frame(
        &encode_request(&Request::Query(QueryRequest::new(
            tail,
            Direction::Backward,
            u32::MAX,
            Strategy::Surrogate,
        )))
        .unwrap(),
    );
    let mut burst = Vec::new();
    for _ in 0..200 {
        burst.extend_from_slice(&query);
    }
    stream.write_all(&burst).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().overload_drops >= 1
        }),
        "the silent half-drained connection was reaped on the progress clock"
    );
    // A well-behaved client never notices.
    let mut client = Client::connect(server.local_addr(), "reader", &[]).unwrap();
    assert!(client.epoch().is_ok());
    server.shutdown();
}

/// Dials past `max_conns` are refused at accept with a typed,
/// retryable Overloaded frame — no shard ever owns the socket.
#[test]
fn connection_cap_refuses_with_typed_overloaded() {
    let (store, _) = chain_store(3);
    let server = serve(
        store,
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );
    let _a = Client::connect(server.local_addr(), "one", &[]).unwrap();
    let _b = Client::connect(server.local_addr(), "two", &[]).unwrap();
    let mut refused = TcpStream::connect(server.local_addr()).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut scratch = Vec::new();
    let payload = server::read_frame(&mut refused, &mut scratch)
        .unwrap()
        .expect("a refusal frame before the hangup");
    match decode_response(payload).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, WireErrorKind::Overloaded),
        other => panic!("expected an Overloaded error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(refused.read_to_end(&mut rest).unwrap(), 0, "then a close");
    assert!(server.stats().overload_drops >= 1);
    // Capacity freed = admission resumes.
    drop(_a);
    assert!(
        wait_until(Duration::from_secs(5), || {
            Client::connect(server.local_addr(), "three", &[]).is_ok()
        }),
        "a freed slot admits the next dial"
    );
    server.shutdown();
}

/// A consumer past its token bucket gets typed Overloaded refusals on a
/// connection that stays open, and is admitted again once the bucket
/// refills.
#[test]
fn rate_limited_consumers_get_retryable_refusals() {
    let (store, _) = chain_store(3);
    let server = serve(
        store,
        ServerConfig {
            rate_limit: Some(2), // burst floor of 8, then ~2/s
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr(), "greedy", &[]).unwrap();
    let mut admitted = 0u32;
    let mut refused = 0u32;
    for _ in 0..20 {
        match client.epoch() {
            Ok(_) => admitted += 1,
            Err(ClientError::Remote(e)) => {
                assert_eq!(e.kind, WireErrorKind::Overloaded);
                refused += 1;
            }
            Err(other) => panic!("expected a typed refusal, got {other}"),
        }
    }
    assert!(admitted >= 8, "the burst allowance was admitted");
    assert!(refused >= 1, "the flood was refused");
    assert!(server.stats().overload_drops >= u64::from(refused));
    // The bucket refills (~2 tokens/s) and the *same* connection serves
    // again — Overloaded is retryable, not a hangup.
    std::thread::sleep(Duration::from_millis(700));
    assert!(client.epoch().is_ok(), "refilled bucket admits again");
    server.shutdown();
}

/// Shutdown under load drains: responses already queued (but unread by
/// a lagging client) flush before the socket closes, bounded by the
/// drain deadline.
#[test]
fn shutdown_flushes_queued_responses() {
    let (store, tail) = chain_store(500);
    let server = serve(store, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&seal_frame(
            &encode_request(&Request::Hello {
                version: plus_store::wire::PROTOCOL_VERSION,
                consumer: "laggard".into(),
                claims: vec![],
            })
            .unwrap(),
        ))
        .unwrap();
    let mut scratch = Vec::new();
    server::read_frame(&mut stream, &mut scratch)
        .unwrap()
        .expect("hello answer");
    // Pipeline 100 large-answer queries without reading, and wait until
    // the server has *processed* them all (so every response is queued
    // or in flight — several MiB, far past the kernel buffers).
    let query = seal_frame(
        &encode_request(&Request::Query(QueryRequest::new(
            tail,
            Direction::Backward,
            u32::MAX,
            Strategy::Surrogate,
        )))
        .unwrap(),
    );
    for _ in 0..100 {
        stream.write_all(&query).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || server.stats().requests >= 100),
        "all requests executed before shutdown"
    );
    // Shut down while the responses sit unread, and read concurrently:
    // every one of them must arrive before the close.
    let shutter = std::thread::spawn(move || server.shutdown());
    let mut responses = 0usize;
    loop {
        match server::read_frame(&mut stream, &mut scratch) {
            Ok(Some(payload)) => match decode_response(payload).unwrap() {
                Response::Query(response) => {
                    assert_eq!(response.rows.len(), 499);
                    responses += 1;
                }
                other => panic!("expected a query response, got {other:?}"),
            },
            Ok(None) => break,
            Err(e) => panic!("torn read during drain: {e}"),
        }
    }
    assert_eq!(responses, 100, "the drain flushed every queued response");
    shutter.join().unwrap();
}
