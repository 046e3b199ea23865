//! Property tests for the wire protocol: arbitrary requests and
//! responses survive encode/decode unchanged, and no byte stream — torn,
//! bit-flipped, oversized, or pure garbage — can panic the decoders or
//! smuggle a different message through a checksum-valid frame.
//!
//! Mirrors the `wal_recovery.rs` frame-codec properties: the wire reuses
//! the WAL's `len | crc32 | payload` convention, so the same corruption
//! discipline is proven at the same boundary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use plus_store::codec::{open_frame, seal_frame, RawFrame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use plus_store::wire::{
    decode_request, decode_response, encode_request, encode_response, ReplicaRole, ReplicaStatus,
    Request, Response, ServerHello, ShardStatusInfo, WalChunk, WireError, WireErrorKind, WriteOp,
    MAX_BATCH, MAX_REPLICAS, MAX_SHARDS, MAX_WAL_CHUNK, PROTOCOL_VERSION,
};
use plus_store::{
    CheckpointStats, CodecError, EdgeKind, NodeKind, PolicyStatement, ProtectedLineageRow,
    QueryRequest, QueryResponse, RecordId, SegmentDigest, Strategy,
};
use surrogate_core::feature::{FeatureValue, Features};
use surrogate_core::marking::Marking;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::query::Direction;

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            // Bias toward ASCII but keep multi-byte UTF-8 in play.
            if rng.gen_bool(0.9) {
                rng.gen_range(b' '..=b'~') as char
            } else {
                ['é', 'ü', '界', '🦀'][rng.gen_range(0..4usize)]
            }
        })
        .collect()
}

fn random_query_request(rng: &mut StdRng) -> QueryRequest {
    let direction =
        [Direction::Backward, Direction::Forward, Direction::Both][rng.gen_range(0..3usize)];
    let strategy = [
        Strategy::Surrogate,
        Strategy::HideEdges,
        Strategy::HideNodes,
    ][rng.gen_range(0..3usize)];
    let mut request = QueryRequest::new(RecordId(rng.gen()), direction, rng.gen(), strategy);
    if rng.gen_bool(0.5) {
        request = request.with_predicate(PrivilegeId(rng.gen()));
    }
    request
}

fn random_query_response(rng: &mut StdRng) -> QueryResponse {
    let rows = (0..rng.gen_range(0..6usize))
        .map(|_| ProtectedLineageRow {
            record: RecordId(rng.gen()),
            label: random_string(rng, 24),
            depth: rng.gen(),
            surrogate: rng.gen_bool(0.3),
        })
        .collect();
    QueryResponse {
        epoch: rng.gen(),
        root: RecordId(rng.gen()),
        rows,
        shard_epochs: (0..rng.gen_range(0..4usize)).map(|_| rng.gen()).collect(),
    }
}

fn random_features(rng: &mut StdRng) -> Features {
    let mut features = Features::new();
    for _ in 0..rng.gen_range(0..3usize) {
        features.set(random_string(rng, 8), random_string(rng, 12));
    }
    features
}

fn random_write_op(rng: &mut StdRng) -> WriteOp {
    match rng.gen_range(0..3usize) {
        0 => WriteOp::AppendNode {
            label: random_string(rng, 16),
            kind: [NodeKind::Data, NodeKind::Process, NodeKind::Agent][rng.gen_range(0..3usize)],
            features: random_features(rng),
            lowest: PrivilegeId(rng.gen()),
        },
        1 => WriteOp::AppendEdge {
            from: RecordId(rng.gen()),
            to: RecordId(rng.gen()),
            kind: [
                EdgeKind::InputTo,
                EdgeKind::GeneratedBy,
                EdgeKind::TriggeredBy,
                EdgeKind::Related,
            ][rng.gen_range(0..4usize)],
        },
        _ => {
            let node = RecordId(rng.gen());
            let predicate = rng.gen_bool(0.5).then(|| PrivilegeId(rng.gen()));
            let marking =
                [Marking::Visible, Marking::Hide, Marking::Surrogate][rng.gen_range(0..3usize)];
            WriteOp::ApplyPolicy(match rng.gen_range(0..3usize) {
                0 => PolicyStatement::MarkIncidence {
                    node,
                    from: RecordId(rng.gen()),
                    to: RecordId(rng.gen()),
                    predicate,
                    marking,
                },
                1 => PolicyStatement::MarkNode {
                    node,
                    predicate,
                    marking,
                },
                _ => PolicyStatement::AddSurrogate {
                    node,
                    label: random_string(rng, 16),
                    features: random_features(rng),
                    lowest: PrivilegeId(rng.gen()),
                    info_score: f64::from(rng.gen::<u16>()),
                },
            })
        }
    }
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..10usize) {
        9 => Request::Write {
            op: random_write_op(rng),
        },
        0 => Request::Hello {
            version: rng.gen(),
            consumer: random_string(rng, 16),
            claims: (0..rng.gen_range(0..4usize))
                .map(|_| random_string(rng, 12))
                .collect(),
        },
        1 => Request::Query(random_query_request(rng)),
        2 => Request::Batch(
            (0..rng.gen_range(0..5usize))
                .map(|_| random_query_request(rng))
                .collect(),
        ),
        3 => Request::Epoch,
        4 => Request::Subscribe {
            from_clock: rng.gen(),
        },
        5 => Request::Status,
        6 => Request::LogDigests,
        7 => Request::Promote,
        _ => Request::Checkpoint,
    }
}

/// A chunk whose `frames` field is what a real feeder ships: whole
/// sealed frames of arbitrary payload bytes (the chunk codec treats
/// them as opaque; their inner validity is the replica's concern).
fn random_wal_chunk(rng: &mut StdRng) -> WalChunk {
    let mut frames = Vec::new();
    for _ in 0..rng.gen_range(0..4usize) {
        let len = rng.gen_range(0..64usize);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        frames.extend_from_slice(&seal_frame(&payload));
    }
    WalChunk {
        start_clock: rng.gen(),
        primary_epoch: rng.gen(),
        term: rng.gen(),
        snapshot: rng
            .gen_bool(0.3)
            .then(|| (0..rng.gen_range(0..128usize)).map(|_| rng.gen()).collect()),
        frames,
    }
}

fn random_addrs(rng: &mut StdRng, max: usize) -> Vec<String> {
    (0..rng.gen_range(0..=max))
        .map(|_| random_string(rng, 16))
        .collect()
}

fn random_status(rng: &mut StdRng) -> Response {
    Response::Status {
        replica: ReplicaStatus {
            role: [ReplicaRole::Primary, ReplicaRole::Replica][rng.gen_range(0..2usize)],
            local_epoch: rng.gen(),
            primary_epoch: rng.gen(),
            term: rng.gen(),
            connected: rng.gen_bool(0.5),
            last_error: rng.gen_bool(0.4).then(|| random_string(rng, 48)),
            primary_addr: rng.gen_bool(0.4).then(|| random_string(rng, 32)),
        },
        shards: ShardStatusInfo {
            count: rng.gen(),
            index: rng.gen_bool(0.5).then(|| rng.gen()),
            epochs: (0..rng.gen_range(0..5usize)).map(|_| rng.gen()).collect(),
            primaries: random_addrs(rng, 3),
            replicas: (0..rng.gen_range(0..4usize))
                .map(|_| random_addrs(rng, 2))
                .collect(),
        },
    }
}

fn random_log_digests(rng: &mut StdRng) -> Response {
    Response::LogDigests {
        term: rng.gen(),
        segments: (0..rng.gen_range(0..6usize))
            .map(|_| SegmentDigest {
                start_clock: rng.gen(),
                bytes: rng.gen(),
                crc: rng.gen(),
            })
            .collect(),
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..11usize) {
        6 => Response::WalChunk(random_wal_chunk(rng)),
        7 => random_status(rng),
        8 => random_log_digests(rng),
        9 => Response::Promoted { term: rng.gen() },
        10 => Response::Written {
            clock: rng.gen(),
            id: rng.gen_bool(0.5).then(|| RecordId(rng.gen())),
        },
        0 => Response::Hello(ServerHello {
            version: rng.gen(),
            epoch: rng.gen(),
            nodes: rng.gen(),
            predicates: (0..rng.gen_range(0..5usize))
                .map(|_| random_string(rng, 12))
                .collect(),
        }),
        1 => Response::Query(random_query_response(rng)),
        2 => Response::Batch(
            (0..rng.gen_range(0..4usize))
                .map(|_| random_query_response(rng))
                .collect(),
        ),
        3 => Response::Epoch(rng.gen()),
        4 => Response::Checkpoint(CheckpointStats {
            clock: rng.gen(),
            snapshot_bytes: rng.gen(),
            pruned_segments: rng.gen_range(0..1000),
            pruned_snapshots: rng.gen_range(0..1000),
        }),
        _ => Response::Error(WireError::new(
            [
                WireErrorKind::NotAuthorized,
                WireErrorKind::UnknownStrategy,
                WireErrorKind::UnknownPredicate,
                WireErrorKind::NotDurable,
                WireErrorKind::VersionMismatch,
                WireErrorKind::BadRequest,
                WireErrorKind::Internal,
                WireErrorKind::Overloaded,
                WireErrorKind::NotWritable,
                WireErrorKind::WrongShard,
                WireErrorKind::ShardUnavailable,
            ][rng.gen_range(0..11usize)],
            random_string(rng, 32),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request encode → decode is the identity, framed or bare.
    #[test]
    fn requests_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        let payload = encode_request(&request).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), request.clone());
        let framed = seal_frame(&payload);
        match open_frame(&framed) {
            RawFrame::Complete { payload: body, consumed } => {
                prop_assert_eq!(consumed, framed.len());
                prop_assert_eq!(decode_request(body).unwrap(), request);
            }
            other => prop_assert!(false, "sealed frame did not open: {other:?}"),
        }
    }

    /// Response encode → decode is the identity, framed or bare.
    #[test]
    fn responses_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = random_response(&mut rng);
        let payload = encode_response(&response).unwrap();
        prop_assert_eq!(decode_response(&payload).unwrap(), response.clone());
        let framed = seal_frame(&payload);
        match open_frame(&framed) {
            RawFrame::Complete { payload: body, consumed } => {
                prop_assert_eq!(consumed, framed.len());
                prop_assert_eq!(decode_response(body).unwrap(), response);
            }
            other => prop_assert!(false, "sealed frame did not open: {other:?}"),
        }
    }

    /// Torn write: every proper prefix of a sealed frame reads as Torn,
    /// never as a (different) complete message.
    #[test]
    fn torn_frames_never_complete(seed in any::<u64>(), cut in any::<u16>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = encode_request(&random_request(&mut rng)).unwrap();
        let framed = seal_frame(&payload);
        let cut = cut as usize % framed.len(); // proper prefix
        match open_frame(&framed[..cut]) {
            RawFrame::Torn | RawFrame::Corrupt(_) => {}
            RawFrame::Complete { .. } => prop_assert!(false, "prefix decoded as complete"),
        }
    }

    /// Bit flip: flipping any bit of a sealed frame can never yield a
    /// checksum-valid frame carrying a *different* payload — the CRC
    /// catches every single-bit change.
    #[test]
    fn bit_flips_never_alter_the_payload(seed in any::<u64>(), at in any::<u32>(), bit in 0u8..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = encode_request(&random_request(&mut rng)).unwrap();
        let mut framed = seal_frame(&payload);
        let at = at as usize % framed.len();
        framed[at] ^= 1 << bit;
        match open_frame(&framed) {
            RawFrame::Complete { payload: body, .. } => {
                // Only reachable if the flip landed in the length field
                // and the truncated/extended payload still checksummed —
                // CRC32 makes that impossible for one bit.
                prop_assert_eq!(body, payload.as_slice(), "flipped frame changed the payload");
            }
            RawFrame::Torn | RawFrame::Corrupt(_) => {}
        }
    }

    /// Oversized length fields are corruption, not an allocation.
    #[test]
    fn oversized_frames_are_corrupt(extra in 1u32..1000, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut framed = seal_frame(&encode_request(&random_request(&mut rng)).unwrap());
        framed[..4].copy_from_slice(&(MAX_FRAME_LEN + extra).to_le_bytes());
        prop_assert!(matches!(open_frame(&framed), RawFrame::Corrupt(_)));
    }

    /// Arbitrary garbage never panics any layer: the frame opener, the
    /// request decoder, or the response decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = open_frame(&bytes);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        if bytes.len() > FRAME_HEADER_LEN {
            if let RawFrame::Complete { payload, .. } = open_frame(&bytes) {
                let _ = decode_request(payload);
                let _ = decode_response(payload);
            }
        }
    }

    /// A batch count beyond MAX_BATCH is rejected before allocation.
    #[test]
    fn oversized_batch_counts_are_rejected(extra in 1u32..1000) {
        let mut payload = vec![2u8]; // Batch tag
        payload.extend_from_slice(&(MAX_BATCH + extra).to_le_bytes());
        prop_assert!(decode_request(&payload).is_err());
    }

    /// Counts exactly at each wire field's limit roundtrip; counts
    /// beyond it fail encoding with a typed overflow instead of being
    /// truncated by a bare cast (which would desynchronize the peer).
    #[test]
    fn counts_at_and_beyond_field_limits(over in 0usize..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Hello claims: u16 count field.
        let at_limit = Request::Hello {
            version: rng.gen(),
            consumer: random_string(&mut rng, 8),
            claims: vec![String::new(); u16::MAX as usize],
        };
        let payload = encode_request(&at_limit).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), at_limit);
        let beyond = Request::Hello {
            version: 0,
            consumer: String::new(),
            claims: vec![String::new(); u16::MAX as usize + 1 + over],
        };
        prop_assert!(matches!(
            encode_request(&beyond),
            Err(CodecError::CountOverflow { .. })
        ));
        // Request batches: bounded by MAX_BATCH on both wire sides.
        let request = random_query_request(&mut rng);
        let at_limit = Request::Batch(vec![request.clone(); MAX_BATCH as usize]);
        let payload = encode_request(&at_limit).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), at_limit);
        let beyond = Request::Batch(vec![request; MAX_BATCH as usize + 1 + over]);
        prop_assert!(matches!(
            encode_request(&beyond),
            Err(CodecError::CountOverflow { .. })
        ));
        // Response batches, same bound.
        let response = QueryResponse {
            epoch: rng.gen(),
            root: RecordId(rng.gen()),
            rows: vec![],
            shard_epochs: vec![],
        };
        let at_limit = Response::Batch(vec![response.clone(); MAX_BATCH as usize]);
        let payload = encode_response(&at_limit).unwrap();
        prop_assert_eq!(decode_response(&payload).unwrap(), at_limit);
        let beyond = Response::Batch(vec![response; MAX_BATCH as usize + 1 + over]);
        prop_assert!(matches!(
            encode_response(&beyond),
            Err(CodecError::CountOverflow { .. })
        ));
        // WalChunk frame bytes: bounded by MAX_WAL_CHUNK (the at-limit
        // case is covered cheaply: the bound is bytes, not elements, so
        // an exact-limit chunk is 4 MiB — encoded once, not per case).
        let chunk = WalChunk {
            start_clock: rng.gen(),
            primary_epoch: rng.gen(),
            term: rng.gen(),
            snapshot: None,
            frames: vec![0u8; MAX_WAL_CHUNK as usize + 1 + over],
        };
        prop_assert!(matches!(
            encode_response(&Response::WalChunk(chunk)),
            Err(CodecError::CountOverflow { .. })
        ));
    }

    // --- Replication chunk properties ---------------------------------
    // The stream a replica replays is WAL frames inside a wire frame:
    // both layers must uphold the same guarantees independently.

    /// Subscribe/WalChunk/Status roundtrip framed, like every
    /// other message (the generic roundtrips above include them too;
    /// this pins the replication shapes explicitly, snapshot and all).
    #[test]
    fn replication_messages_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let subscribe = Request::Subscribe { from_clock: rng.gen() };
        let payload = encode_request(&subscribe).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), subscribe);
        for response in [
            Response::WalChunk(random_wal_chunk(&mut rng)),
            random_status(&mut rng),
        ] {
            let payload = encode_response(&response).unwrap();
            prop_assert_eq!(decode_response(&payload).unwrap(), response.clone());
            let framed = seal_frame(&payload);
            let RawFrame::Complete { payload: body, .. } = open_frame(&framed) else {
                return Err(TestCaseError::fail("sealed chunk did not open"));
            };
            prop_assert_eq!(decode_response(body).unwrap(), response);
        }
    }

    /// A chunk torn at *every* byte prefix (the wire analogue of a
    /// primary dying mid-send) reads as Torn or Corrupt at one layer or
    /// another — never as a complete chunk, and never as a chunk whose
    /// inner frames decode past the damage.
    #[test]
    fn torn_chunk_prefixes_never_complete(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunk = random_wal_chunk(&mut rng);
        let framed = seal_frame(&encode_response(&Response::WalChunk(chunk)).unwrap());
        for cut in 0..framed.len() {
            match open_frame(&framed[..cut]) {
                RawFrame::Torn | RawFrame::Corrupt(_) => {}
                RawFrame::Complete { .. } => {
                    return Err(TestCaseError::fail(format!("prefix {cut} decoded as complete")));
                }
            }
        }
    }

    /// Bit flips anywhere in a sealed chunk can never alter the frames
    /// a replica would replay: either the outer CRC rejects the frame,
    /// or the payload is bit-identical (and if the flip evades the
    /// outer layer entirely — impossible for CRC32 and one bit — the
    /// inner per-frame CRCs would still catch it before replay).
    #[test]
    fn bit_flips_never_alter_replayed_payloads(seed in any::<u64>(), at in any::<u32>(), bit in 0u8..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunk = random_wal_chunk(&mut rng);
        let payload = encode_response(&Response::WalChunk(chunk.clone())).unwrap();
        let mut framed = seal_frame(&payload);
        let at = at as usize % framed.len();
        framed[at] ^= 1 << bit;
        match open_frame(&framed) {
            RawFrame::Torn | RawFrame::Corrupt(_) => {}
            RawFrame::Complete { payload: body, .. } => {
                let Ok(Response::WalChunk(decoded)) = decode_response(body) else {
                    return Err(TestCaseError::fail("flipped chunk decoded as another message"));
                };
                prop_assert_eq!(decoded.frames, chunk.frames, "replayed bytes changed");
                prop_assert_eq!(decoded.snapshot, chunk.snapshot, "snapshot bytes changed");
            }
        }
    }

    /// A declared chunk size beyond MAX_WAL_CHUNK is rejected before
    /// allocation, like oversized batches and frames.
    #[test]
    fn oversized_chunk_declarations_are_rejected(extra in 1u32..1000, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = vec![6u8]; // WalChunk tag
        payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes()); // start_clock
        payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes()); // primary_epoch
        payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes()); // term
        payload.push(0); // no snapshot
        payload.extend_from_slice(&(MAX_WAL_CHUNK + extra).to_le_bytes());
        prop_assert!(decode_response(&payload).is_err());
    }

    /// The anti-entropy and promotion messages roundtrip framed like
    /// every other shape (pinned explicitly, as the replication chunk
    /// shapes are above).
    #[test]
    fn failover_messages_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for request in [Request::LogDigests, Request::Promote] {
            let payload = encode_request(&request).unwrap();
            prop_assert_eq!(decode_request(&payload).unwrap(), request);
        }
        for response in [
            random_log_digests(&mut rng),
            Response::Promoted { term: rng.gen() },
        ] {
            let payload = encode_response(&response).unwrap();
            prop_assert_eq!(decode_response(&payload).unwrap(), response.clone());
            let framed = seal_frame(&payload);
            let RawFrame::Complete { payload: body, .. } = open_frame(&framed) else {
                return Err(TestCaseError::fail("sealed frame did not open"));
            };
            prop_assert_eq!(decode_response(body).unwrap(), response);
        }
    }
}

/// The version constant is part of the on-wire contract: changing it is
/// a compatibility break and must be deliberate. Version 2 added the
/// replication messages (`Subscribe` / `WalChunk` / `ReplicaStatus`);
/// version 3 added the `Overloaded` error kind (admission control);
/// version 4 added failover — fencing terms on `WalChunk` and
/// `ReplicaStatus`, `LogDigests` / `Promote`, and the `NotWritable`
/// redirect; version 5 added sharding — `Write` / `ShardStatus`, shard
/// fields on `ServerHello`, per-shard epoch vectors on `QueryResponse`,
/// and the `WrongShard` / `ShardUnavailable` error kinds; version 6
/// added topology announcements — peer lists on `ServerHello` and
/// per-shard replica lists on `ShardStatus`; version 7 folded
/// `ReplicaStatus`, `ShardStatus` and the Hello's shard fields into one
/// `Status` message.
#[test]
fn protocol_version_is_pinned() {
    assert_eq!(PROTOCOL_VERSION, 7);
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Every message version 7 kept from version 6 still encodes to the
/// exact bytes version 6 produced, and those bytes decode back to it.
/// The hex literals were captured from the version-6 encoder; a change
/// to any of them is a wire break that needs a version bump.
#[test]
fn surviving_messages_keep_their_bytes() {
    let query = |root, direction, depth, strategy| {
        QueryRequest::new(RecordId(root), direction, depth, strategy)
    };
    let write = |op| Request::Write { op };
    let requests = [
        (
            Request::Hello {
                version: 7,
                consumer: "alice".into(),
                claims: vec!["Public".into(), "High".into()],
            },
            "00070005000000616c6963650200060000005075626c69630400000048696768",
        ),
        (
            Request::Query(
                query(9, Direction::Backward, 3, Strategy::Surrogate)
                    .with_predicate(PrivilegeId(2)),
            ),
            "0109000000000300000000010200",
        ),
        (
            Request::Batch(vec![
                query(1, Direction::Forward, 1, Strategy::HideEdges),
                query(2, Direction::Both, u32::MAX, Strategy::HideNodes),
            ]),
            "020200000001000000010100000001000200000002ffffffff0200",
        ),
        (Request::Epoch, "03"),
        (Request::Checkpoint, "04"),
        (Request::Subscribe { from_clock: 258 }, "050201000000000000"),
        (Request::LogDigests, "07"),
        (Request::Promote, "08"),
        (
            write(WriteOp::AppendNode {
                label: "invoice".into(),
                kind: NodeKind::Data,
                features: Features::new().with("origin", "edi"),
                lowest: PrivilegeId(1),
            }),
            "090007000000696e766f6963650001000100060000006f726967696e0003000000656469",
        ),
        (
            write(WriteOp::AppendEdge {
                from: RecordId(4),
                to: RecordId(9),
                kind: EdgeKind::GeneratedBy,
            }),
            "0901040000000900000001",
        ),
        (
            write(WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
                node: RecordId(2),
                predicate: Some(PrivilegeId(1)),
                marking: Marking::Hide,
            })),
            "0902010200000001010001",
        ),
    ];
    for (request, hex) in requests {
        assert_eq!(encode_request(&request).unwrap(), unhex(hex), "{request:?}");
        assert_eq!(decode_request(&unhex(hex)).unwrap(), request);
    }
    let answer = |epoch, root, record, label: &str, surrogate| QueryResponse {
        epoch,
        root: RecordId(root),
        rows: vec![ProtectedLineageRow {
            record: RecordId(record),
            label: label.into(),
            depth: 2,
            surrogate,
        }],
        shard_epochs: vec![7, 9],
    };
    let responses = [
        (
            Response::Query(answer(3, 7, 2, "a trusted source", true)),
            "0103000000000000000700000001000000020000001000000061207472757374656420736f7572636502000000010200000007000000000000000900000000000000",
        ),
        (
            Response::Batch(vec![answer(16, 1, 0, "n0", false)]),
            "02010000001000000000000000010000000100000000000000020000006e3002000000000200000007000000000000000900000000000000",
        ),
        (Response::Epoch(0x0102_0304_0506_0708), "030807060504030201"),
        (
            Response::Checkpoint(CheckpointStats {
                clock: 17,
                snapshot_bytes: 4096,
                pruned_segments: 2,
                pruned_snapshots: 1,
            }),
            "041100000000000000001000000000000002000000000000000100000000000000",
        ),
        (
            Response::WalChunk(WalChunk {
                start_clock: 7,
                primary_epoch: 9,
                term: 2,
                snapshot: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                frames: seal_frame(b"opaque"),
            }),
            "060700000000000000090000000000000002000000000000000104000000deadbeef0e0000000600000086768b086f7061717565",
        ),
        (
            Response::LogDigests {
                term: 3,
                segments: vec![SegmentDigest {
                    start_clock: 40,
                    bytes: 4096,
                    crc: 0xdead_beef,
                }],
            },
            "0803000000000000000100000028000000000000000010000000000000efbeadde",
        ),
        (Response::Promoted { term: 2 }, "090200000000000000"),
        (
            Response::Written {
                clock: 19,
                id: Some(RecordId(6)),
            },
            "0a13000000000000000106000000",
        ),
        (
            Response::Error(WireError::new(WireErrorKind::NotWritable, "10.0.0.7:7655")),
            "05080d00000031302e302e302e373a37363535",
        ),
    ];
    for (response, hex) in responses {
        assert_eq!(
            encode_response(&response).unwrap(),
            unhex(hex),
            "{response:?}"
        );
        assert_eq!(decode_response(&unhex(hex)).unwrap(), response);
    }
}

/// The retired `ShardStatus` tags (request 10, response 11) are unknown
/// tags now, like any tag past the end of the table.
#[test]
fn retired_status_tags_are_invalid() {
    assert_eq!(
        decode_request(&[10]).unwrap_err(),
        CodecError::InvalidTag {
            what: "request",
            tag: 10
        }
    );
    assert_eq!(
        decode_response(&[11]).unwrap_err(),
        CodecError::InvalidTag {
            what: "response",
            tag: 11
        }
    );
}

fn status_with(epochs: Vec<u64>, primaries: Vec<String>, replicas: Vec<Vec<String>>) -> Response {
    Response::Status {
        replica: ReplicaStatus {
            role: ReplicaRole::Primary,
            local_epoch: 0,
            primary_epoch: 0,
            term: 0,
            connected: true,
            last_error: None,
            primary_addr: None,
        },
        shards: ShardStatusInfo {
            count: 2,
            index: None,
            epochs,
            primaries,
            replicas,
        },
    }
}

/// Overwrites the little-endian `u32` that ends `from_end` bytes before
/// the end of `bytes`.
fn inflate(bytes: &mut [u8], from_end: usize, count: u32) {
    let at = bytes.len() - from_end;
    bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
}

/// A declared shard-epoch vector beyond MAX_SHARDS is rejected before
/// allocation, on both the query-response tail and the status message.
#[test]
fn oversized_shard_epoch_declarations_are_rejected() {
    let response = status_with(vec![0; MAX_SHARDS as usize + 1], Vec::new(), Vec::new());
    assert!(matches!(
        encode_response(&response),
        Err(CodecError::CountOverflow { .. })
    ));
    // Empty epochs, primaries and replicas: the three counts end the
    // payload, epochs first.
    let mut bytes = encode_response(&status_with(Vec::new(), Vec::new(), Vec::new())).unwrap();
    inflate(&mut bytes, 12, MAX_SHARDS + 1);
    assert_eq!(
        decode_response(&bytes).unwrap_err(),
        CodecError::FrameTooLarge(MAX_SHARDS + 1)
    );
}

/// A node write whose features follow in the order `entries` gives them:
/// the request `encode_request` writes for a featureless node, with the
/// feature list (its last field) replaced. Values are `Int`s.
fn node_write_with_features(entries: &[(String, i64)]) -> Vec<u8> {
    let mut payload = encode_request(&Request::Write {
        op: WriteOp::AppendNode {
            label: "n".into(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest: PrivilegeId(0),
        },
    })
    .unwrap();
    assert_eq!(payload.split_off(payload.len() - 2), [0, 0]);
    payload.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for (key, value) in entries {
        payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        payload.push(1);
        payload.extend_from_slice(&value.to_le_bytes());
    }
    payload
}

fn decoded_features(payload: &[u8]) -> Features {
    match decode_request(payload).unwrap() {
        Request::Write {
            op: WriteOp::AppendNode { features, .. },
        } => features,
        other => panic!("not a node write: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Features a remote writer sends in reverse key order, some keys
    /// repeated, decode to what a `BTreeMap` of the same entries holds
    /// (the last value of each key), and re-encode in key order.
    #[test]
    fn reverse_ordered_features_roundtrip_in_key_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries: Vec<(String, i64)> = (0..rng.gen_range(0..40usize))
            .map(|_| (format!("k{:02}", rng.gen_range(0..24u32)), rng.gen_range(-9..9i64)))
            .collect();
        entries.sort_by(|a, b| b.0.cmp(&a.0));
        let model: std::collections::BTreeMap<String, i64> = entries.iter().cloned().collect();
        let features = decoded_features(&node_write_with_features(&entries));
        let got: Vec<(String, i64)> = features
            .iter()
            .map(|(k, v)| match v {
                FeatureValue::Int(i) => (k.to_string(), *i),
                other => panic!("decoded {other:?}"),
            })
            .collect();
        let sorted: Vec<(String, i64)> = model.into_iter().collect();
        prop_assert_eq!(&got, &sorted);
        let reencoded = encode_request(&Request::Write {
            op: WriteOp::AppendNode {
                label: "n".into(),
                kind: NodeKind::Data,
                features,
                lowest: PrivilegeId(0),
            },
        })
        .unwrap();
        prop_assert_eq!(reencoded, node_write_with_features(&sorted));
    }
}

/// A full `u16` of features in reverse key order decodes in one sort,
/// not one insertion each; one more does not encode.
#[test]
fn feature_counts_at_and_beyond_the_field_limit() {
    let entries: Vec<(String, i64)> = (0..u16::MAX as i64)
        .rev()
        .map(|i| (format!("f{i:05}"), i))
        .collect();
    let features = decoded_features(&node_write_with_features(&entries));
    assert_eq!(features.len(), u16::MAX as usize);
    let keys: Vec<&str> = features.iter().map(|(k, _)| k).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    let beyond = Request::Write {
        op: WriteOp::AppendNode {
            label: "n".into(),
            kind: NodeKind::Data,
            features: (0..=u16::MAX as i64)
                .map(|i| (format!("f{i:05}"), i))
                .collect(),
            lowest: PrivilegeId(0),
        },
    };
    assert!(matches!(
        encode_request(&beyond),
        Err(CodecError::CountOverflow { what: "features", count, .. }) if count == u16::MAX as usize + 1
    ));
}

/// The topology lists obey the same bounded-declaration discipline: a
/// primary or replica list beyond its bound is refused at decode time
/// before any allocation happens.
#[test]
fn oversized_topology_declarations_are_rejected() {
    let empty = encode_response(&status_with(Vec::new(), Vec::new(), Vec::new())).unwrap();
    // A primaries count beyond MAX_SHARDS.
    let mut bytes = empty.clone();
    inflate(&mut bytes, 8, MAX_SHARDS + 1);
    assert_eq!(
        decode_response(&bytes).unwrap_err(),
        CodecError::FrameTooLarge(MAX_SHARDS + 1)
    );
    // A replica-list count beyond MAX_SHARDS.
    let mut bytes = empty;
    inflate(&mut bytes, 4, MAX_SHARDS + 1);
    assert_eq!(
        decode_response(&bytes).unwrap_err(),
        CodecError::FrameTooLarge(MAX_SHARDS + 1)
    );
    // One shard's replica count beyond MAX_REPLICAS.
    let mut bytes =
        encode_response(&status_with(Vec::new(), Vec::new(), vec![Vec::new()])).unwrap();
    inflate(&mut bytes, 4, MAX_REPLICAS + 1);
    assert_eq!(
        decode_response(&bytes).unwrap_err(),
        CodecError::FrameTooLarge(MAX_REPLICAS + 1)
    );
}
