//! `ingest`: two writers against one write-ahead log, and no reads
//! while they write.
//!
//! An empty durable store (`Public ⊑ Restricted`) whose log goes
//! through the page cache (see `harness::durability`; the durable
//! window that follows every workload is where the log is flushed per
//! append). Two connections load the dataset's pairs: `node, node,
//! edge` between their own nodes, every 50th write a surrogate for one
//! of their `Restricted` nodes. What is written is the same in every
//! run; the seed drives the reads that follow. Nothing reads in the
//! window, so nothing materialises: the write path does the work. Then
//! the server is stopped and the directory recovered (the recovered
//! clock must equal the acked writes), the recovered store is read,
//! written and read again, and finally checkpointed.

use plus_store::wal::DiskIo;
use plus_store::wire::WriteOp;
use plus_store::{Direction, QueryRequest, RecordId, Store, Strategy};
use rand::Rng;

use crate::check::{Facts, Oracle, Who};
use crate::graphs;
use crate::harness::{connect_pair, durability, Node, Plan, Scratch};
use crate::report::Report;
use crate::stats::{median_ns, now_ns};
use crate::workloads::{
    finish, fresh_cycle, pin_second_load_thread, put_peak_rss, put_window, quality, read_window,
    replay_frames, restart_drill, verify_sampled, write_pairs, Keys, Observed, ReadJob,
    ReplayInput, Writer,
};

/// Writes in a full window, over both connections.
const WRITES: u64 = 80_000;
/// Every this-many-th write of a connection registers a surrogate.
const SURROGATE_EVERY: usize = 50;
/// Hot-set reads of the recovered store in a full run.
const READS: u64 = 1_500_000;
const HOT_KEYS: usize = 256;
/// Write-then-read cycles in a round.
const FRESH_CYCLES: usize = 8;
/// Restart drills in a round.
const DRILLS: usize = 6;
/// Writes that warm the write path during set-up.
const WARM_WRITES: usize = 2_000;
/// A set-up takes 25 ms, so a round times several and takes their
/// median.
const SETUPS: usize = 4;

/// A served empty store and the two writers connected to it.
struct Rig {
    node: Node,
    writers: [Writer; 2],
    facts: [Facts; 2],
}

/// Create, bind, connect, and warm the write path with a burst from
/// the first writer: the first writes open the log's first segment and
/// grow the store's tables. The burst also makes the creation of the
/// store (flushes to the sandbox's disk, which is twice as slow some
/// quarter-hours as others) a small share of `setup_s`.
fn boot(plan: &Plan, scratch: &Scratch, traced: bool) -> Result<Rig, String> {
    let dir = scratch.dir("store");
    let store = Store::create_durable_with_io(
        &dir,
        &["Public", "Restricted"],
        &[(1, 0)],
        durability(),
        Box::new(DiskIo),
    )
    .map_err(|e| format!("cannot create the store: {e}"))?;
    let node = Node::serve(store, &dir)?;
    let [first, second] = connect_pair(&node.server, [Who::Public, Who::Public])?;
    let mut writers = [
        Writer::new(first, "w0", traced.then_some(1))?,
        Writer::new(second, "w1", traced.then_some(2))?,
    ];
    let mut facts = [Facts::default(), Facts::default()];
    write_pairs(
        &mut writers[0],
        &mut graphs::dataset_rng("warm"),
        &mut facts[0],
        plan.reps(WARM_WRITES),
        Some(SURROGATE_EVERY),
    );
    Ok(Rig {
        node,
        writers,
        facts,
    })
}

pub fn run(plan: &Plan, traced: bool) -> Result<Observed, String> {
    let scratch = Scratch::new(plan)?;
    let mut report = Report::new(plan.workload);

    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..plan.reps(SETUPS) {
        if let Some(old) = rig.take() {
            drop(old.writers);
            old.node.stop();
        }
        let t0 = now_ns();
        rig = Some(boot(plan, &scratch, traced)?);
        setups.push(now_ns() - t0);
    }
    let Rig {
        node,
        mut writers,
        mut facts,
    } = rig.expect("at least one set-up");
    let warm = writers[0].log.len();

    // --- The write window -------------------------------------------------------
    let total = plan.ops(WRITES);
    let write_start = now_ns();
    std::thread::scope(|scope| {
        let [w0, w1] = &mut writers;
        let [f0, f1] = &mut facts;
        let a = scope.spawn(move || {
            write_pairs(
                w0,
                &mut graphs::dataset_rng("writer-0"),
                f0,
                total - total / 2,
                Some(SURROGATE_EVERY),
            )
        });
        let b = scope.spawn(move || {
            pin_second_load_thread();
            write_pairs(
                w1,
                &mut graphs::dataset_rng("writer-1"),
                f1,
                total / 2,
                Some(SURROGATE_EVERY),
            )
        });
        a.join().expect("load thread never panics");
        b.join().expect("load thread never panics");
    });
    let [w0, w1] = writers;
    let (mut writes, _) = put_window(
        &mut report,
        ("writes_per_s", "write_p50_us"),
        &[&w0.log[warm..], &w1.log],
        write_start,
        1.0,
    );
    put_peak_rss(&mut report)?;
    // The loaded dataset's quality: the first thing to materialise it.
    let dataset = quality(&node.service)?;
    let [mut facts, other] = facts;
    facts.absorb(other);
    // Both logs merged into one history the oracle can replay. The ack
    // clock is read after the store's lock is released, so with two
    // writers it is an upper bound on a write's position, not the
    // position. Node ids are positions, so node appends replay in id
    // order; every edge joins two nodes of one writer's own pair and
    // every policy statement covers a distinct node, so their order
    // among themselves changes no answer.
    // The first writer's nodes in its own order: which ids they got
    // depends on how the two writers' appends interleaved, which node of
    // the graph each is does not.
    let own_nodes: Vec<RecordId> = w0.acks.iter().filter_map(|(_, id)| *id).collect();
    let mut history: Vec<_> = w0
        .ops
        .into_iter()
        .zip(w0.acks)
        .chain(w1.ops.into_iter().zip(w1.acks))
        .collect();
    history.sort_by_key(|(op, (clock, id))| {
        let kind = match op {
            WriteOp::AppendNode { .. } => 0,
            WriteOp::AppendEdge { .. } => 1,
            WriteOp::ApplyPolicy(_) => 2,
        };
        (kind, id.map_or(*clock, |id| u64::from(id.0)))
    });
    report.tally.merge(w0.tally);
    report.tally.merge(w1.tally);
    let mut spans = w0.recorder.map(|r| r.spans).unwrap_or_default();
    spans.extend(w1.recorder.map(|r| r.spans).unwrap_or_default());
    drop((w0.client, w1.client));

    // --- Recovery: stop, reopen from the log, read -----------------------------------
    let acked = history.len() as u64;
    let drill_request = QueryRequest::new(
        *own_nodes.first().ok_or("no node append was acked")?,
        Direction::Forward,
        4,
        Strategy::Surrogate,
    );
    let mut node = node;
    let mut recoveries = Vec::new();
    let mut drill_answers = Vec::new();
    for _ in 0..plan.reps(DRILLS) {
        let (reopened, nanos, answer) =
            restart_drill(node, &drill_request, acked, &mut report.tally)?;
        node = reopened;
        recoveries.push(nanos);
        drill_answers.extend(answer);
    }
    report.put_median("recovery_p50_ms", &recoveries, 1e6);

    // --- Reads of the recovered store -------------------------------------------------
    let [mut public, mut restricted] = connect_pair(&node.server, [Who::Public, Who::Restricted])?;
    // Rooted at the first writer's nodes in its own order, like the
    // write-then-read cycles below, so the questions do not depend on
    // how the writers interleaved.
    let mut hot = graphs::hot_set(
        &mut graphs::rng(plan.seed, "hot"),
        own_nodes.len(),
        HOT_KEYS,
    );
    for key in &mut hot {
        key.root = own_nodes[key.root.index()];
    }
    for client in [&mut public, &mut restricted] {
        for key in &hot {
            client
                .query(key)
                .map_err(|e| format!("warm-up read failed: {e}"))?;
        }
    }
    let frames = plan.ops(READS);
    let job = |who: Who, lane: u64, frames: usize| ReadJob {
        who,
        keys: Keys::Hot(&hot),
        frames,
        batch: 1,
        rng: graphs::rng(plan.seed, if lane == 0 { "load-0" } else { "load-1" }),
        facts: &facts,
        epoch: Some(acked),
        lane: traced.then_some(lane + 3),
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
        1.0,
    );

    // --- Write-then-read cycles on the recovered store, then a checkpoint ---------------
    drop(restricted);
    let mut tail = Writer::new(public, "tail", traced.then_some(5))?;
    let mut rng = graphs::rng(plan.seed, "tail");
    let mut fresh = Vec::new();
    let mut last_cycle = None;
    for i in 0..plan.reps(FRESH_CYCLES) {
        let from = own_nodes[rng.gen_range(0..own_nodes.len())];
        if let Some(cycle) = fresh_cycle(&mut tail, &mut rng, &mut facts, from, i as u64) {
            fresh.push(cycle.fresh_ns);
            last_cycle = Some(cycle);
        }
    }
    report.put_median("fresh_read_p50_ms", &fresh, 1e6);
    report.tally.attempt(1);
    match node.store.checkpoint() {
        Ok(stats) if stats.clock == acked + tail.ops.len() as u64 => {}
        Ok(stats) => report.tally.fail(format!(
            "checkpoint at clock {} where {} writes were acked",
            stats.clock,
            acked + tail.ops.len() as u64
        )),
        Err(e) => report.tally.fail(format!("checkpoint failed: {e}")),
    }
    let stats = node.server.stats();
    edge.requests = stats.requests;
    edge.overload_drops = stats.overload_drops;
    edge.hangups = stats.hangups;

    // --- The oracle ---------------------------------------------------------------------
    let served = quality(&node.service)?;
    drop(tail.client);
    node.stop();
    let mut oracle = None;
    if plan.verify {
        let oracle = oracle.insert(Oracle::empty());
        for (op, (_, id)) in &history {
            oracle.apply_acked(op, *id, &mut report.tally)?;
        }
        for answer in &drill_answers {
            report
                .tally
                .check(oracle.verify(Who::Public, &drill_request, answer));
        }
        verify_sampled(oracle, &run0.sampled, &mut report.tally);
        verify_sampled(oracle, &run1.sampled, &mut report.tally);
        for (op, (_, id)) in tail.ops.iter().zip(&tail.acks) {
            oracle.apply_acked(op, *id, &mut report.tally)?;
        }
        if let Some(cycle) = last_cycle.filter(|c| c.writes_before == tail.ops.len()) {
            report
                .tally
                .check(oracle.verify(Who::Public, &cycle.request, &cycle.answer));
        }
    }
    let setup_ns = median_ns(&setups).expect("at least one set-up");
    finish(&mut report, setup_ns, dataset, served.0, oracle.as_mut());

    let regressions = run0.watch.regressions + run1.watch.regressions;
    let replay_reads = replay_frames(&run0, &run1);
    report.tally.merge(run0.tally);
    report.tally.merge(run1.tally);
    report.tally.merge(tail.tally);
    spans.extend(run0.spans);
    spans.extend(run1.spans);
    spans.extend(tail.recorder.map(|r| r.spans).unwrap_or_default());
    let mut all_writes: Vec<_> = history.into_iter().map(|(op, _)| op).collect();
    all_writes.extend(tail.ops);
    writes.extend(tail.log.iter().map(|s| s.nanos));
    Ok(Observed {
        report,
        spans,
        reads,
        read_rates,
        writes,
        fresh,
        edge,
        replay: ReplayInput {
            shape: None,
            base: Vec::new(),
            writes: all_writes,
            reads_follow_writes: true,
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
