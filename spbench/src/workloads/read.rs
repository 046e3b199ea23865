//! `read-hot` and `read-scan`: the same served 4 860-node graph and the
//! same two consumers, read two opposite ways.
//!
//! `read-hot` sends single queries drawn from a hot set of 4 096 keys,
//! touched once beforehand, so every read in the window is a
//! sealed-frame cache hit. `read-scan` sends `Batch` frames of 32 keys
//! drawn from the whole universe of about 311 000 keys; a batch is
//! cached under its whole request bytes, so every frame misses and pays
//! 32 traversals, 32 row encodes and one seal.
//!
//! After the read window both run the same short tail, so that every
//! workload reports every end-to-end metric (the driver's contract, see
//! `spec::END_TO_END`): a few write-then-read cycles (each pays a full
//! `protect` of the graph), restart drills, and two writers on a store
//! of their own (`durable::two_writers`). The window's own metrics,
//! `peak_rss_mb` among them, are taken before it.

use plus_store::{Direction, QueryRequest, RecordId, Strategy};
use rand::Rng;
use server::Client;

use crate::check::{Facts, Oracle, Who};
use crate::graphs::{self, G5K, KEYS_PER_ROOT};
use crate::harness::{connect_pair, durability, Node, Plan, Scratch};
use crate::report::Report;
use crate::spec::Workload;
use crate::stats::now_ns;
use crate::workloads::{
    durable, finish, fresh_cycle, put_peak_rss, put_window, quality, read_window, replay_frames,
    restart_drill, verify_sampled, Keys, Observed, ReadJob, ReplayInput, Writer,
};

/// Single-query round trips in a full `read-hot` window.
const HOT_READS: u64 = 3_000_000;
/// Hot keys per consumer.
const HOT_KEYS: usize = 2_048;
/// `Batch` frames in a full `read-scan` window.
const SCAN_FRAMES: u64 = 150_000;
/// Queries per `read-scan` frame.
const SCAN_BATCH: usize = 32;
/// Writes of the tail's two writers in a full run: 20 000 in a round, a
/// seventh of a second.
const TAIL_WRITES: u64 = 200_000;
/// Write-then-read cycles in a round's tail: a third of a second each
/// on this graph, so few.
const FRESH_CYCLES: usize = 2;
/// Restart drills in a round; as costly, as few.
const DRILLS: usize = 2;

struct Rig {
    facts: Facts,
    wf: graphgen::workflow::Workflow,
    node: Node,
    clients: [Client; 2],
    hot: [Vec<QueryRequest>; 2],
}

/// Generate, ingest, save, open, bind, connect, warm.
fn boot(plan: &Plan, scratch: &Scratch, scan: bool) -> Result<Rig, String> {
    let wf = graphs::generate(G5K);
    let dir = scratch.dir("store");
    graphs::ingest(&wf)?
        .save_durable(&dir)
        .map_err(|e| format!("cannot save the store: {e}"))?;
    let node = Node::open(&dir)?;
    let mut clients = connect_pair(&node.server, [Who::Public, Who::Restricted])?;
    let hot = [
        graphs::hot_set(
            &mut graphs::rng(plan.seed, "hot-public"),
            G5K.nodes(),
            HOT_KEYS,
        ),
        graphs::hot_set(
            &mut graphs::rng(plan.seed, "hot-restricted"),
            G5K.nodes(),
            HOT_KEYS,
        ),
    ];
    for (client, keys) in clients.iter_mut().zip(&hot) {
        // `read-hot` touches every hot key, so the frame cache holds
        // them all; `read-scan` only needs the accounts built.
        let warm = if scan { &keys[..4] } else { &keys[..] };
        for key in warm {
            client
                .query(key)
                .map_err(|e| format!("warm-up read failed: {e}"))?;
        }
        if scan {
            for strategy in [Strategy::Surrogate, Strategy::HideEdges] {
                let key = QueryRequest::new(keys[0].root, Direction::Backward, 1, strategy);
                client
                    .query(&key)
                    .map_err(|e| format!("warm-up read failed: {e}"))?;
            }
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

pub fn run(plan: &Plan, traced: bool) -> Result<Observed, String> {
    let scan = plan.workload == Workload::ReadScan;
    let scratch = Scratch::new(plan)?;
    let mut report = Report::new(plan.workload);

    let t0 = now_ns();
    let Rig {
        mut facts,
        wf,
        node,
        clients: [mut public, mut restricted],
        hot,
    } = boot(plan, &scratch, scan)?;
    let setup_ns = now_ns() - t0;

    // --- The read window ------------------------------------------------
    let epoch = node.store.clock();
    let (frames, batch) = if scan {
        (plan.ops(SCAN_FRAMES), SCAN_BATCH)
    } else {
        (plan.ops(HOT_READS), 1)
    };
    let universe = G5K.nodes() as u64 * KEYS_PER_ROOT;
    let job = |who: Who, lane: u64, frames: usize| ReadJob {
        who,
        keys: if scan {
            Keys::Universe(universe)
        } else {
            Keys::Hot(&hot[lane as usize])
        },
        frames,
        batch,
        rng: graphs::rng(plan.seed, if lane == 0 { "load-0" } else { "load-1" }),
        facts: &facts,
        epoch: Some(epoch),
        lane: traced.then_some(lane + 1),
    };
    let ([run0, run1], mut edge) = read_window(
        (&node.server, &node.service),
        [&mut public, &mut restricted],
        [
            job(Who::Public, 0, frames - frames / 2),
            job(Who::Restricted, 1, frames / 2),
        ],
    );
    let (reads, read_rates) = put_window(
        &mut report,
        ("reads_per_s", "read_p50_us"),
        &[&run0.log, &run1.log],
        run0.start_ns.min(run1.start_ns),
        batch as f64,
    );
    put_peak_rss(&mut report)?;
    let dataset = quality(&node.service)?;

    // --- The tail: write-then-read cycles ----------------------------------
    drop(restricted);
    let mut writer = Writer::new(public, "tail", traced.then_some(3))?;
    let mut rng = graphs::rng(plan.seed, "tail");
    let mut fresh = Vec::new();
    let mut last_cycle = None;
    for i in 0..plan.reps(FRESH_CYCLES) {
        let from = RecordId(rng.gen_range(0..facts.len() as u32));
        if let Some(cycle) = fresh_cycle(&mut writer, &mut rng, &mut facts, from, i as u64) {
            fresh.push(cycle.fresh_ns);
            last_cycle = Some(cycle);
        }
    }
    report.put_median("fresh_read_p50_ms", &fresh, 1e6);

    // --- Restart drills -----------------------------------------------------
    let stats = node.server.stats();
    edge.requests = stats.requests;
    edge.overload_drops = stats.overload_drops;
    edge.hangups = stats.hangups;
    let Writer {
        client,
        ops,
        acks,
        tally: write_tally,
        recorder,
        ..
    } = writer;
    drop(client);
    let drill_request =
        QueryRequest::new(hot[0][0].root, Direction::Backward, 4, Strategy::Surrogate);
    let expect_clock = epoch + ops.len() as u64;
    let mut node = node;
    let mut recoveries = Vec::new();
    let mut drill_answers = Vec::new();
    for _ in 0..plan.reps(DRILLS) {
        let (reopened, nanos, answer) =
            restart_drill(node, &drill_request, expect_clock, &mut report.tally)?;
        node = reopened;
        recoveries.push(nanos);
        drill_answers.extend(answer);
    }
    report.put_median("recovery_p50_ms", &recoveries, 1e6);

    // --- Two writers on a store of their own ----------------------------------
    let served = quality(&node.service)?;
    node.stop();
    let writers = durable::two_writers(
        plan,
        durability(),
        plan.ops(TAIL_WRITES),
        traced.then_some([4, 5]),
    )?;
    let (writes, _) = put_window(
        &mut report,
        ("writes_per_s", "write_p50_us"),
        &[&writers.logs[0], &writers.logs[1]],
        writers.start_ns,
        1.0,
    );
    report.tally.merge(writers.tally);

    // --- The oracle ---------------------------------------------------------
    let mut oracle = None;
    if plan.verify {
        let oracle = oracle.insert(Oracle::of(&wf)?);
        verify_sampled(oracle, &run0.sampled, &mut report.tally);
        verify_sampled(oracle, &run1.sampled, &mut report.tally);
        for (op, (_, id)) in ops.iter().zip(&acks) {
            oracle.apply_acked(op, *id, &mut report.tally)?;
        }
        if let Some(cycle) = last_cycle.filter(|c| c.writes_before == ops.len()) {
            report
                .tally
                .check(oracle.verify(Who::Public, &cycle.request, &cycle.answer));
        }
        for answer in &drill_answers {
            report
                .tally
                .check(oracle.verify(Who::Public, &drill_request, answer));
        }
    }
    finish(&mut report, setup_ns, dataset, served.0, oracle.as_mut());

    let regressions = run0.watch.regressions + run1.watch.regressions;
    let replay_reads = replay_frames(&run0, &run1);
    report.tally.merge(run0.tally);
    report.tally.merge(run1.tally);
    report.tally.merge(write_tally);
    let mut spans = run0.spans;
    spans.extend(run1.spans);
    spans.extend(recorder.map(|r| r.spans).unwrap_or_default());
    spans.extend(writers.spans);
    Ok(Observed {
        report,
        spans,
        reads,
        read_rates,
        writes,
        fresh,
        edge,
        replay: ReplayInput {
            shape: Some(G5K),
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
