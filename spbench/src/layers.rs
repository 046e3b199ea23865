//! Per-layer attribution, measured from outside the program.
//!
//! A traced run makes two passes of the workload at a tenth of its
//! operation count — one without spans, one with a `client.call` span
//! around every round trip — and then a **layer replay**: against a
//! service rebuilt in this process from the same inputs, it calls the
//! same public functions the server calls, in the server's order, one
//! span each. Layers the round trip does not cross (the WAL, the
//! codecs, the scale series of `materialize` / `index` / `protect`,
//! and the replicated-fleet stages) are timed the same way on the
//! workload's own write stream, or on fixed fixtures where the layer
//! does not depend on the workload.

use std::sync::Arc;

use plus_store::codec::{self, FrameDecode, RawFrame, SnapshotData, WalRecord};
use plus_store::service::lineage_rows;
use plus_store::wal;
use plus_store::wire::{
    decode_batch_response_into, decode_request, decode_response, encode_batch_request,
    encode_request, encode_response, Request, Response, WriteOp,
};
use plus_store::{
    AccountService, DurabilityOptions, QueryRequest, QueryResponse, ShardMerge, SnapshotIndex,
    Store, Strategy,
};
use server::Client;
use surrogate_core::account::{reference, ProtectedAccount};
use surrogate_core::credential::Consumer;
use surrogate_core::measures::{average_protected_opacity, path_utility, OpacityModel};
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::{Partition, ShardMap};

use crate::check::Who;
use crate::graphs::{self, Shape, G300};
use crate::harness::{Node, Plan, Scratch};
use crate::report::Report;
use crate::spec::{Workload, SCALE_SERIES};
use crate::stats::{
    log_log_slope, median, median_ns, now_ns, quiet_median, quiet_rate, spread_pct,
};
use crate::trace::{self_nanos, Recorder, Span};
use crate::walio::{IoEvent, IoLog, RecordingIo};
use crate::workloads::{fleet, DrillStages, Observed};

/// Queries per replayed batch frame.
const BATCH: usize = 32;
/// Writes replayed through the span-recording WAL.
const WAL_WRITES: usize = 2_000;
/// Records applied through the replica path (each pays an fsync).
const REPLICA_RECORDS: usize = 500;
/// Bytes asked of `wal::read_frames` per tail chunk.
const TAIL_CHUNK: usize = 64 << 10;
/// Handshakes timed for `server.connect_hello_us`.
const CONNECTS: usize = 50;

/// Times `f` over `trials` runs; the median in milliseconds.
fn median_ms<R>(trials: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..trials)
        .map(|_| {
            let t0 = now_ns();
            std::hint::black_box(f());
            (now_ns() - t0) as f64 / 1e6
        })
        .collect();
    median(&samples).expect("at least one trial")
}

/// Records the median duration of the spans named `span` as metric
/// `metric`, in microseconds. Nothing is recorded when there are none.
fn put_span_median(report: &mut Report, spans: &[Span], span: &str, metric: &'static str) {
    let mut nanos: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == span)
        .map(Span::nanos)
        .collect();
    report.put_quantile(metric, &mut nanos, 0.5, 1e3);
}

/// The whole traced run's per-layer report.
pub fn attribute(
    plan: &Plan,
    base: &Observed,
    traced: &mut Observed,
    scratch: &Scratch,
) -> Result<(Report, Vec<Span>), String> {
    let mut report = Report::new(plan.workload);
    let mut recorder = Recorder::new(9);
    client_and_edge(&mut report, base, traced);
    let replay = Replay::build(plan, traced)?;
    replay.store_layer(&mut report, &mut recorder);
    replay.service_layer(&mut report, &mut recorder, traced)?;
    replay.wal_layer(&mut report, &mut recorder, scratch)?;
    scale_series(&mut report, plan)?;
    fleet_sheet(&mut report, plan, traced)?;
    Ok((report, recorder.spans))
}

/// `client.*`, `server.*` counters and the service's cache counters:
/// read off the two passes.
fn client_and_edge(report: &mut Report, base: &Observed, traced: &mut Observed) {
    report.put_median("client.call_p50_us", &traced.reads, 1e3);
    let mut reads = traced.reads.clone();
    report.put_quantile("client.read_p90_us", &mut reads, 0.9, 1e3);
    report.put_quantile("client.read_p99_us", &mut reads, 0.99, 1e3);
    report.put_quantile("client.write_p90_us", &mut traced.writes, 0.9, 1e3);
    report.put_quantile("client.write_p99_us", &mut traced.writes, 0.99, 1e3);
    report.put_quantile("client.fresh_read_p99_ms", &mut traced.fresh, 0.99, 1e6);
    report.put(
        "client.slice_spread_pct",
        spread_pct(&traced.read_rates),
        traced.read_rates.len() as u64,
    );
    if let (Some(with), Some(without)) = (median_ns(&traced.reads), median_ns(&base.reads)) {
        report.put(
            "client.trace_overhead_pct",
            (with as f64 - without as f64) / without as f64 * 100.0,
            reads.len() as u64,
        );
    }
    // What the untraced pass did in its quiet decile of blocks, beside
    // the medians the end-to-end metrics are: the distance between the
    // two is what interference cost.
    if let Some(quiet) = quiet_median(&base.reads) {
        report.put(
            "client.read_quiet_p50_us",
            quiet as f64 / 1e3,
            base.reads.len() as u64,
        );
    }
    if let Some(quiet) = quiet_rate(&base.read_rates) {
        report.put(
            "client.reads_quiet_per_s",
            quiet,
            base.read_rates.len() as u64,
        );
    }
    // The durable window in the sandbox's own units: device time.
    report.put_median("client.durable_write_p50_us", &base.durable_writes, 1e3);
    report.put(
        "client.durable_writes_per_s",
        base.durable_writes_per_s,
        base.durable_writes.len() as u64,
    );
    let edge = traced.edge;
    report.put("server.requests", edge.requests as f64, 1);
    report.put("server.overload_drops", edge.overload_drops as f64, 1);
    report.put("server.hangups", edge.hangups as f64, 1);
    report.put(
        "server.bytes_written_per_read",
        edge.window_bytes_written as f64 / edge.window_frames.max(1) as f64,
        edge.window_frames,
    );
    let probes = edge.window_frame_hits + edge.window_frame_misses;
    report.put(
        "service.frame_hit_rate",
        edge.window_frame_hits as f64 / probes.max(1) as f64,
        probes,
    );
    report.put(
        "service.cached_frames_end",
        edge.cached_frames_end as f64,
        1,
    );
    report.put(
        "service.cached_accounts_end",
        edge.cached_accounts_end as f64,
        1,
    );
}

/// The pass rebuilt in this process.
struct Replay {
    workload: Workload,
    shape: Shape,
    /// The starting graph's history followed by the workload's own
    /// writes.
    history: Vec<WriteOp>,
    /// How many of `history` are the starting graph.
    base_len: usize,
    /// Single-query frames and 32-query frames, with who sent each.
    singles: Vec<(Who, QueryRequest)>,
    batches: Vec<(Who, Vec<QueryRequest>)>,
    reads_follow_writes: bool,
}

fn empty_store() -> Store {
    Store::new(&["Public", "Restricted"], &[(1, 0)]).expect("two-level lattice is valid")
}

impl Replay {
    fn build(plan: &Plan, traced: &Observed) -> Result<Replay, String> {
        let input = &traced.replay;
        let mut history = input.base.clone();
        let base_len = history.len();
        history.extend(input.writes.iter().cloned());
        // Both frame kinds are replayed on every workload: single-query
        // workloads group their sample into batches, the batch workload
        // takes the head of each of its frames as a single.
        let mut singles = Vec::new();
        let mut batches = Vec::new();
        for who in [Who::Public, Who::Restricted] {
            let frames = input.reads.iter().filter(|(w, _)| *w == who);
            let mut loose: Vec<QueryRequest> = Vec::new();
            for (_, frame) in frames {
                if frame.len() == 1 {
                    singles.push((who, frame[0].clone()));
                    loose.push(frame[0].clone());
                    if loose.len() == BATCH {
                        batches.push((who, std::mem::take(&mut loose)));
                    }
                } else {
                    singles.push((who, frame[0].clone()));
                    batches.push((who, frame.clone()));
                }
            }
        }
        if singles.is_empty() {
            return Err("the traced pass kept no read frames to replay".to_string());
        }
        if batches.is_empty() {
            let (who, _) = singles[0];
            batches.push((who, singles.iter().map(|(_, q)| q.clone()).collect()));
        }
        Ok(Replay {
            workload: plan.workload,
            // Workloads that start from an empty store time generation
            // and ingest on the 300-node shape.
            shape: input.shape.unwrap_or(G300),
            history,
            base_len,
            singles,
            batches,
            reads_follow_writes: input.reads_follow_writes,
        })
    }

    /// A fresh in-memory store holding the first `upto` writes.
    fn store_with(&self, upto: usize) -> Result<Store, String> {
        let store = empty_store();
        for op in &self.history[..upto] {
            graphs::apply_op(&store, op)?;
        }
        Ok(store)
    }

    /// `graphgen`, `store` appends, snapshot codecs, `measures`.
    fn store_layer(&self, report: &mut Report, recorder: &mut Recorder) {
        report.put(
            "graphgen.generate_ms",
            median_ms(5, || graphs::generate(self.shape)),
            5,
        );
        let wf = graphs::generate(self.shape);
        report.put(
            "store.ingest_ms",
            median_ms(5, || {
                graphs::ingest(&wf).expect("generated workflows ingest")
            }),
            5,
        );
        // The generated graph's own history first, so that every kind of
        // write is timed even where the pass made none of it (a smoke
        // pass of `ingest` registers no surrogate); then the pass's.
        let fixture = graphs::store_ops(&graphs::ingest(&wf).expect("generated workflows ingest"))
            .expect("own snapshot decodes");
        let (generated, store) = (empty_store(), empty_store());
        let histories = [(&generated, &fixture[..]), (&store, &self.history[..])];
        for (lane, (target, ops)) in histories.into_iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let name = match op {
                    WriteOp::AppendNode { .. } => "store.append_node",
                    WriteOp::AppendEdge { .. } => "store.append_edge",
                    WriteOp::ApplyPolicy(_) => "store.apply_policy",
                };
                let request = recorder.request(((lane as u64) << 36) | i as u64);
                let (result, _) = recorder.time(0, request, name, || graphs::apply_op(target, op));
                result.expect("a store's own history replays");
            }
        }
        put_span_median(
            report,
            &recorder.spans,
            "store.append_node",
            "store.append_node_us",
        );
        put_span_median(
            report,
            &recorder.spans,
            "store.append_edge",
            "store.append_edge_us",
        );
        put_span_median(
            report,
            &recorder.spans,
            "store.apply_policy",
            "store.apply_policy_us",
        );
        let bytes = store.to_bytes();
        report.put(
            "codec.snapshot_encode_ms",
            median_ms(5, || store.to_bytes()),
            5,
        );
        report.put(
            "codec.snapshot_decode_ms",
            median_ms(5, || {
                Store::from_bytes(&bytes).expect("own snapshot decodes")
            }),
            5,
        );
    }

    /// The read path in the server's order, the miss path's siblings,
    /// the per-epoch rebuild, and the quality measures.
    fn service_layer(
        &self,
        report: &mut Report,
        recorder: &mut Recorder,
        traced: &Observed,
    ) -> Result<(), String> {
        // The per-epoch work, at points spread over the pass's writes:
        // apply the writes up to the point, then ask for the snapshot
        // (rebuild) and the Public account (miss).
        let live = Arc::new(self.store_with(self.base_len)?);
        let service = AccountService::new(live.clone());
        let lattice = service.snapshot().lattice.clone();
        let public = Consumer::public(&lattice);
        let restricted = Consumer::new("restricted", &lattice, &[PrivilegeId(1)]);
        let frontier = |who: Who| match who {
            Who::Public => public.frontier(&lattice),
            Who::Restricted => restricted.frontier(&lattice),
        };
        let consumer = |who: Who| match who {
            Who::Public => &public,
            Who::Restricted => &restricted,
        };
        let own = &self.history[self.base_len..];
        let points = if live.node_count() + own.len() > 3_000 {
            3
        } else {
            9
        };
        let mut applied = 0;
        for point in 1..=points {
            let target = own.len() * point / points;
            if target == applied {
                // Nothing of the pass's own to apply: bump the epoch.
                graphs::apply_op(
                    &live,
                    &WriteOp::AppendNode {
                        label: format!("epoch-{point}"),
                        kind: plus_store::NodeKind::Data,
                        features: surrogate_core::feature::Features::new(),
                        lowest: PrivilegeId(0),
                    },
                )?;
            }
            for op in &own[applied..target] {
                graphs::apply_op(&live, op)?;
            }
            applied = target;
            let request = recorder.request((1 << 32) | point as u64);
            recorder.time(0, request, "service.snapshot_rebuild", || {
                service.snapshot()
            });
            let (account, _) = recorder.time(0, request, "service.account_miss", || {
                service.protect(&frontier(Who::Public), &Strategy::Surrogate)
            });
            account.map_err(|e| format!("replay protect failed: {e}"))?;
        }
        let mut rebuilds: Vec<u64> = recorder
            .spans
            .iter()
            .filter(|s| s.name == "service.snapshot_rebuild")
            .map(Span::nanos)
            .collect();
        report.put_quantile("service.snapshot_rebuild_ms", &mut rebuilds, 0.5, 1e6);
        let mut misses: Vec<u64> = recorder
            .spans
            .iter()
            .filter(|s| s.name == "service.account_miss")
            .map(Span::nanos)
            .collect();
        report.put_quantile("service.account_miss_ms", &mut misses, 0.5, 1e6);

        // The quality measures, on the pass's final graph.
        let snapshot = service.snapshot();
        let account = service
            .protect(&frontier(Who::Public), &Strategy::Surrogate)
            .map_err(|e| format!("replay protect failed: {e}"))?;
        report.put(
            "measures.path_utility_ms",
            median_ms(5, || path_utility(&snapshot.graph, &account)),
            5,
        );
        report.put(
            "measures.opacity_ms",
            median_ms(5, || {
                average_protected_opacity(
                    &snapshot.graph,
                    &account,
                    OpacityModel::directional_normalized(),
                )
            }),
            5,
        );
        report.put(
            "account.surrogate_nodes",
            account.surrogate_node_count() as f64,
            1,
        );
        report.put(
            "account.surrogate_edges",
            account.surrogate_edge_count() as f64,
            1,
        );

        // The graph the sampled reads were answered on.
        let service = if self.reads_follow_writes {
            service
        } else {
            AccountService::new(Arc::new(self.store_with(self.base_len)?))
        };
        // Warm accounts and a cold frame cache, as after the workload's
        // own warm-up of a fresh epoch.
        for who in [Who::Public, Who::Restricted] {
            for strategy in [Strategy::Surrogate, Strategy::HideEdges] {
                service
                    .protect(&frontier(who), &strategy)
                    .map_err(|e| format!("replay protect failed: {e}"))?;
            }
        }

        let mut rows = 0usize;
        let (mut single_bytes, mut batch_bytes) = (Vec::new(), Vec::new());
        // Single-query frames: the first time through every key misses
        // the frame cache, the second time every key hits.
        for pass in ["miss", "hit"] {
            for (i, (who, query)) in self.singles.iter().enumerate() {
                let request = recorder.request((2 << 32) | i as u64);
                let (payload, _) = recorder.time(0, request, "wire.encode_request", || {
                    encode_request(&Request::Query(query.clone()))
                });
                let payload = payload.map_err(|e| e.to_string())?;
                let (decoded, _) = recorder.time(0, request, "wire.decode_request", || {
                    decode_request(&payload)
                });
                decoded.map_err(|e| e.to_string())?;
                recorder.time(0, request, "service.snapshot_hit", || service.snapshot());
                let (hits_before, _) = service.frame_cache_stats();
                let t0 = now_ns();
                let sealed = service
                    .query_sealed(consumer(*who), query)
                    .map_err(|e| format!("replay read failed: {e}"))?;
                let t1 = now_ns();
                let hit = service.frame_cache_stats().0 > hits_before;
                let sealed_span = recorder.record(
                    0,
                    request,
                    if hit {
                        "service.frame_hit"
                    } else {
                        "service.frame_miss"
                    },
                    t0,
                    t1,
                );
                let (payload, _) = recorder.time(0, request, "codec.open_frame", || {
                    match codec::open_frame(&sealed) {
                        RawFrame::Complete { payload, .. } => Some(payload.to_vec()),
                        _ => None,
                    }
                });
                let payload = payload.ok_or("a sealed frame did not open")?;
                let (response, _) = recorder.time(0, request, "wire.decode_response", || {
                    decode_response(&payload)
                });
                let Ok(Response::Query(response)) = response else {
                    return Err("a sealed frame did not decode to a query response".to_string());
                };
                if pass == "hit" {
                    continue;
                }
                // The miss path's parts, called as siblings of the miss:
                // they cannot nest inside `query_sealed` from outside.
                single_bytes.push(sealed.len() as u64);
                let (account, _) =
                    recorder.time(sealed_span, request, "service.account_hit", || {
                        service.protect(&frontier(*who), &query.strategy)
                    });
                let account = account.map_err(|e| e.to_string())?;
                let (lineage, _) =
                    recorder.time(sealed_span, request, "query.lineage_rows", || {
                        lineage_rows(&account, query.root, query.direction, query.max_depth)
                    });
                rows += lineage.len();
                if lineage != response.rows {
                    return Err(format!(
                        "the replayed rows for root {} differ from the sealed frame's",
                        query.root.0
                    ));
                }
                let rebuilt = Response::Query(QueryResponse {
                    epoch: response.epoch,
                    root: query.root,
                    rows: lineage,
                    shard_epochs: response.shard_epochs.clone(),
                });
                let (encoded, _) =
                    recorder.time(sealed_span, request, "wire.encode_response", || {
                        encode_response(&rebuilt)
                    });
                let encoded = encoded.map_err(|e| e.to_string())?;
                let (resealed, _) = recorder.time(sealed_span, request, "codec.seal_frame", || {
                    codec::seal_frame(&encoded)
                });
                // A frame assembled by the replay must be byte-identical
                // to `query_sealed`'s.
                if resealed[..] != sealed[..] {
                    return Err(format!(
                        "the replayed frame for root {} differs from query_sealed's bytes",
                        query.root.0
                    ));
                }
            }
        }
        // Batch frames: each is cached under its whole request bytes, so
        // distinct frames always miss.
        let mut out = Vec::new();
        for (i, (who, queries)) in self.batches.iter().enumerate() {
            let request = recorder.request((3 << 32) | i as u64);
            let (payload, _) = recorder.time(0, request, "wire.encode_batch_request", || {
                encode_batch_request(queries)
            });
            let payload = payload.map_err(|e| e.to_string())?;
            decode_request(&payload).map_err(|e| e.to_string())?;
            let (sealed, _) = recorder.time(0, request, "service.batch_miss", || {
                service.query_batch_sealed(consumer(*who), queries)
            });
            let sealed = sealed.map_err(|e| format!("replay batch failed: {e}"))?;
            batch_bytes.push(sealed.len() as u64);
            let RawFrame::Complete { payload, .. } = codec::open_frame(&sealed) else {
                return Err("a sealed batch frame did not open".to_string());
            };
            let (decoded, _) = recorder.time(0, request, "wire.decode_batch_response", || {
                decode_batch_response_into(payload, &mut out)
            });
            decoded.map_err(|e| e.to_string())?;
        }
        // The size of the frames this workload itself asks for.
        let mut frame_bytes = if self.workload == Workload::ReadScan {
            batch_bytes
        } else {
            single_bytes
        };

        let spans = &recorder.spans;
        for (span, metric) in [
            ("wire.encode_request", "wire.encode_request_us"),
            ("wire.decode_request", "wire.decode_request_us"),
            ("wire.encode_response", "wire.encode_response_us"),
            ("wire.decode_response", "wire.decode_response_us"),
            ("wire.encode_batch_request", "wire.encode_batch_request_us"),
            (
                "wire.decode_batch_response",
                "wire.decode_batch_response_us",
            ),
            ("service.snapshot_hit", "service.snapshot_hit_us"),
            ("service.account_hit", "service.account_hit_us"),
            ("service.frame_hit", "service.frame_hit_us"),
            ("service.frame_miss", "service.frame_miss_us"),
            ("service.batch_miss", "service.batch_miss_us"),
            ("query.lineage_rows", "query.lineage_rows_us"),
            ("codec.seal_frame", "codec.seal_frame_us"),
            ("codec.open_frame", "codec.open_frame_us"),
        ] {
            put_span_median(report, spans, span, metric);
        }
        report.put(
            "query.rows_per_query",
            rows as f64 / self.singles.len() as f64,
            self.singles.len() as u64,
        );
        report.put_quantile("service.frame_bytes_p50", &mut frame_bytes, 0.5, 1.0);
        // What `query_sealed` spends on a miss beyond its parts: the
        // miss span's self time, its children being the sibling calls.
        let mut overhead: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "service.frame_miss")
            .map(|s| self_nanos(s, spans))
            .collect();
        report.put_quantile("service.miss_overhead_us", &mut overhead, 0.5, 1e3);

        // The round trip, accounted for: what the client saw minus every
        // replayed layer on the path of this workload's own frames.
        let path: &[&str] = if self.workload == Workload::ReadScan {
            &[
                "wire.encode_batch_request_us",
                "wire.decode_request_us",
                "service.snapshot_hit_us",
                "service.batch_miss_us",
                "wire.decode_batch_response_us",
            ]
        } else {
            &[
                "wire.encode_request_us",
                "wire.decode_request_us",
                "service.snapshot_hit_us",
                "service.frame_hit_us",
                "codec.open_frame_us",
                "wire.decode_response_us",
            ]
        };
        let layers: f64 = path.iter().filter_map(|name| report.get(name)).sum();
        let call = report
            .get("client.call_p50_us")
            .ok_or("the traced pass timed no read")?;
        report.put(
            "server.residual_us",
            call - layers,
            traced.reads.len() as u64,
        );
        Ok(())
    }

    /// The write path: a span-recording `WalIo` under a durable store,
    /// then recovery, the tail reader, the frame codecs, the replica
    /// apply path, the shard merge, and a checkpoint.
    fn wal_layer(
        &self,
        report: &mut Report,
        recorder: &mut Recorder,
        scratch: &Scratch,
    ) -> Result<(), String> {
        let dir = scratch.dir("wal");
        let log = IoLog::default();
        let store = Store::create_durable_with_io(
            &dir,
            &["Public", "Restricted"],
            &[(1, 0)],
            DurabilityOptions::default(),
            Box::new(RecordingIo { log: log.clone() }),
        )
        .map_err(|e| format!("cannot create the replay store: {e}"))?;
        let writes = &self.history[..self.history.len().min(WAL_WRITES)];
        let (mut syncs, mut bytes) = (0u64, 0u64);
        for (i, op) in writes.iter().enumerate() {
            let request = recorder.request((4 << 32) | i as u64);
            // The write's trip over the wire, client side then server side.
            let (payload, _) = recorder.time(0, request, "wire.encode_write", || {
                encode_request(&Request::Write { op: op.clone() })
            });
            let payload = payload.map_err(|e| e.to_string())?;
            let (decoded, _) =
                recorder.time(0, request, "wire.decode_write", || decode_request(&payload));
            decoded.map_err(|e| e.to_string())?;
            let t0 = now_ns();
            graphs::apply_op(&store, op)?;
            let t1 = now_ns();
            let parent = recorder.record(0, request, "wal.durable_append", t0, t1);
            for event in log.lock().expect("no recorder panics").drain(..) {
                let IoEvent {
                    sync,
                    start,
                    end,
                    len,
                } = event;
                let name = if sync { "wal.sync" } else { "wal.append" };
                recorder.record(parent, request, name, start, end);
                syncs += u64::from(sync);
                bytes += len as u64;
            }
        }
        let spans = &recorder.spans;
        put_span_median(report, spans, "wire.encode_write", "wire.encode_write_us");
        put_span_median(report, spans, "wire.decode_write", "wire.decode_write_us");
        put_span_median(report, spans, "wal.append", "wal.append_us");
        put_span_median(report, spans, "wal.sync", "wal.sync_us");
        report.put(
            "wal.syncs_per_write",
            syncs as f64 / writes.len() as f64,
            writes.len() as u64,
        );
        report.put(
            "wal.bytes_per_write",
            bytes as f64 / writes.len() as f64,
            writes.len() as u64,
        );
        let mut own: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "wal.durable_append")
            .map(|s| self_nanos(s, spans))
            .collect();
        report.put_quantile("wal.durable_append_us", &mut own, 0.5, 1e3);
        let clock = store.clock();
        drop(store);

        // Recovery: reopen the directory, replaying every record.
        let opens: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = now_ns();
                let reopened = Store::open(&dir);
                let nanos = now_ns() - t0;
                reopened.map(|s| (s.clock(), nanos))
            })
            .map(|r| match r {
                Ok((recovered, nanos)) if recovered == clock => {
                    Ok(nanos as f64 / 1e3 / clock as f64)
                }
                Ok((recovered, _)) => Err(format!("recovered {recovered} of {clock} records")),
                Err(e) => Err(format!("cannot reopen the replay store: {e}")),
            })
            .collect::<Result<_, _>>()?;
        report.put(
            "wal.recovery_us_per_record",
            median(&opens).expect("three opens"),
            clock,
        );

        // The feed's read path, then the frame codecs on what it read.
        let mut from = 0;
        let mut chunks = Vec::new();
        while from < clock {
            let request = recorder.request((5 << 32) | from);
            let (chunk, _) = recorder.time(0, request, "wal.read_frames", || {
                wal::read_frames(&dir, from, clock, TAIL_CHUNK)
            });
            let chunk = chunk
                .map_err(|e| format!("tail read failed: {e}"))?
                .filter(|c| c.end_clock > c.start_clock)
                .ok_or("the tail reader lost the log")?;
            from = chunk.end_clock;
            chunks.push(chunk);
        }
        put_span_median(
            report,
            &recorder.spans,
            "wal.read_frames",
            "wal.read_frames_us",
        );
        let mut records: Vec<WalRecord> = Vec::with_capacity(clock as usize);
        for chunk in &chunks {
            let mut pos = 0;
            while pos < chunk.frames.len() {
                let request = recorder.request((6 << 32) | records.len() as u64);
                let (decoded, _) = recorder.time(0, request, "codec.decode_wal_frame", || {
                    codec::decode_frame(&chunk.frames[pos..])
                });
                let FrameDecode::Complete { record, consumed } = decoded else {
                    return Err("a shipped WAL frame did not decode".to_string());
                };
                pos += consumed;
                recorder.time(0, request, "codec.encode_wal_frame", || {
                    codec::encode_frame(&record)
                });
                records.push(record);
            }
        }
        put_span_median(
            report,
            &recorder.spans,
            "codec.decode_wal_frame",
            "codec.decode_wal_frame_us",
        );
        put_span_median(
            report,
            &recorder.spans,
            "codec.encode_wal_frame",
            "codec.encode_wal_frame_us",
        );

        // The replica apply path: the same records into a second durable
        // store, which logs (and syncs) each one itself.
        let replica =
            Store::create_durable(scratch.dir("replica"), &["Public", "Restricted"], &[(1, 0)])
                .map_err(|e| format!("cannot create the replica store: {e}"))?;
        for (i, record) in records.iter().take(REPLICA_RECORDS).enumerate() {
            let request = recorder.request((7 << 32) | i as u64);
            let (applied, _) = recorder.time(0, request, "replica.apply_record", || {
                replica.apply_replicated(record.clone(), 0)
            });
            applied.map_err(|e| format!("replica apply failed: {e}"))?;
        }
        put_span_median(
            report,
            &recorder.spans,
            "replica.apply_record",
            "replica.apply_record_us",
        );
        drop(replica);

        // The gather's fold of one shard's feed, and its materialization.
        let mut merge = ShardMerge::new(ShardMap::new(1).expect("one shard"));
        merge
            .ingest_snapshot(
                0,
                &SnapshotData {
                    lattice_names: vec!["Public".to_string(), "Restricted".to_string()],
                    dominance: vec![(PrivilegeId(1), PrivilegeId(0))],
                    nodes: Vec::new(),
                    edges: Vec::new(),
                    policy: Vec::new(),
                    clock: 0,
                    partition: Partition::new(0, 1),
                },
            )
            .map_err(|e| format!("merge bootstrap failed: {e}"))?;
        for chunk in &chunks {
            let request = recorder.request((8 << 32) | chunk.start_clock);
            let (folded, _) = recorder.time(0, request, "shard.apply_frames", || {
                merge.apply_frames(0, chunk.start_clock, &chunk.frames)
            });
            folded.map_err(|e| format!("merge fold failed: {e}"))?;
        }
        put_span_median(
            report,
            &recorder.spans,
            "shard.apply_frames",
            "shard.apply_frames_us",
        );
        report.put(
            "shard.materialize_ms",
            median_ms(5, || merge.materialize()),
            5,
        );

        // A served copy of the directory, for the handshake; then the
        // checkpoint, last, because it prunes the log read above.
        let node = Node::open(&dir)?;
        let addr = node.addr();
        let mut hellos: Vec<u64> = (0..CONNECTS)
            .map(|_| {
                let t0 = now_ns();
                let client = Client::connect(addr.as_str(), "spbench-hello", &[]);
                let nanos = now_ns() - t0;
                client
                    .map(|_| nanos)
                    .map_err(|e| format!("connect failed: {e}"))
            })
            .collect::<Result<_, _>>()?;
        report.put_quantile("server.connect_hello_us", &mut hellos, 0.5, 1e3);
        report.put(
            "wal.checkpoint_ms",
            median_ms(3, || {
                node.store
                    .checkpoint()
                    .expect("a durable store checkpoints")
            }),
            3,
        );
        node.stop();
        Ok(())
    }
}

/// Whether two accounts are the same graph with the same surrogates.
fn same_account(a: &ProtectedAccount, b: &ProtectedAccount) -> bool {
    a.graph().node_count() == b.graph().node_count()
        && a.graph().edges().eq(b.graph().edges())
        && a.graph()
            .node_ids()
            .all(|n| a.graph().node(n).label == b.graph().node(n).label)
        && a.graph()
            .edges()
            .all(|e| a.is_surrogate_edge(e) == b.is_surrogate_edge(e))
}

/// `materialize`, `SnapshotIndex::build` and `protect` at five graph
/// sizes, the scaling exponent of `protect`, and whether the served
/// generator equals the reference one. The same in every workload's
/// traced run: none of it depends on the workload.
fn scale_series(report: &mut Report, plan: &Plan) -> Result<(), String> {
    // `Report::put` takes catalogued `&'static str` names.
    fn name(prefix: &str, suffix: &str) -> &'static str {
        crate::spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix(prefix).and_then(|r| r.strip_prefix('.')) == Some(suffix))
            .expect("the scale series is catalogued")
    }
    let mut curve = Vec::new();
    let mut matches = true;
    for (suffix, stages, width) in SCALE_SERIES {
        let wf = graphs::generate(Shape { stages, width });
        let store = graphs::ingest(&wf)?;
        let nodes = store.node_count();
        // Three trials, one at the largest size (seconds each) and on a
        // smoke pass.
        let trials = if nodes > 9_000 { 1 } else { plan.reps(3) };
        report.put(
            name("store.materialize_ms", suffix),
            median_ms(trials, || store.materialize()),
            trials as u64,
        );
        let materialized = store.materialize();
        report.put(
            name("snapshot.index_build_ms", suffix),
            median_ms(trials, || SnapshotIndex::build(&materialized)),
            trials as u64,
        );
        let index = SnapshotIndex::build(&materialized);
        let ctx = materialized.context().with_csr(index.csr());
        let public = [materialized.lattice.public()];
        let protect = |strategy| {
            ctx.protect_set(&public, strategy)
                .expect("the generator accepts bench graphs")
        };
        let ms = median_ms(trials, || protect(Strategy::Surrogate));
        report.put(
            name("account.protect_surrogate_ms", suffix),
            ms,
            trials as u64,
        );
        curve.push((nodes as f64, ms));
        if matches!(suffix, "n1k" | "n4k9") {
            report.put(
                name("account.protect_hide_edges_ms", suffix),
                median_ms(trials, || protect(Strategy::HideEdges)),
                trials as u64,
            );
            report.put(
                name("account.protect_hide_nodes_ms", suffix),
                median_ms(trials, || protect(Strategy::HideNodes)),
                trials as u64,
            );
        }
        if matches!(suffix, "n300" | "n1k") {
            let spec = reference::generate_for_set(&materialized.context(), &public)
                .map_err(|e| format!("reference generator: {e}"))?;
            matches &= same_account(&protect(Strategy::Surrogate), &spec);
        }
    }
    report.put(
        "account.protect_scaling_exponent",
        log_log_slope(&curve),
        curve.len() as u64,
    );
    report.put("account.reference_match", f64::from(u8::from(matches)), 2);
    Ok(())
}

/// The replicated-fleet stages. On `fleet` they come from the traced
/// pass's own drills; every other workload runs the same drills on the
/// same fixture, because nothing of its own reaches these layers.
fn fleet_sheet(report: &mut Report, plan: &Plan, traced: &Observed) -> Result<(), String> {
    let (drills, mut lag, mut visible, regressions) = if plan.workload == Workload::Fleet {
        (
            traced.drills.clone(),
            traced.lag.clone(),
            traced.visible.clone(),
            traced.regressions,
        )
    } else {
        let scratch = fleet::drill_scratch(plan)?;
        let pass = plan.tenth();
        let (mut drills, mut lag, mut visible, mut regressions) =
            (Vec::new(), Vec::new(), Vec::new(), 0);
        for index in 0..fleet::traced_drills(&pass) {
            let outcome = fleet::drill(&pass, &scratch, index, true)?;
            if outcome.tally.failed > 0 {
                return Err(format!("a fixture drill failed: {:?}", outcome.tally.notes));
            }
            drills.push(outcome.stages);
            lag.extend(outcome.lag);
            visible.extend(outcome.visible);
            regressions += outcome.regressions;
        }
        (drills, lag, visible, traced.regressions + regressions)
    };
    let n = drills.len() as u64;
    let mut stage = |metric: &'static str, pick: &dyn Fn(&DrillStages) -> Option<f64>| {
        let values: Vec<f64> = drills.iter().filter_map(pick).collect();
        if let Some(mid) = median(&values) {
            report.put(metric, mid, values.len() as u64);
        }
    };
    stage("failover.detect_ms", &|d| d.detect_ms);
    stage("failover.promote_ms", &|d| Some(d.promote_ms));
    stage("failover.first_write_ms", &|d| Some(d.first_write_ms));
    stage("failover.gather_resync_ms", &|d| d.gather_resync_ms);
    stage("failover.first_read_ms", &|d| Some(d.first_read_ms));
    stage("replica.catchup_frames_per_s", &|d| {
        Some(d.catchup_frames_per_s)
    });
    stage("scatter.bootstrap_ms", &|d| Some(d.bootstrap_ms));
    report.put_quantile("replica.lag_p50_ms", &mut lag, 0.5, 1e6);
    report.put_quantile("scatter.visible_p50_ms", &mut visible, 0.5, 1e6);
    report.put("scatter.epoch_regressions", regressions as f64, n);
    Ok(())
}
