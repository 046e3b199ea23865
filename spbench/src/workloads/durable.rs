//! The durable window: two writers against one log on the library's
//! default flush policy, a flush per append.
//!
//! A durable write is 97 % the device's flush, and the sandbox's flush
//! takes 190 us one second and 320 us a few seconds later, so in
//! microseconds a durable write says what the disk did that second and
//! nothing about the program. The store's I/O seam lets the bench time
//! every flush the log makes *during the window*, so the window is
//! reported in the device's own unit: acked writes per flush time, the
//! number of writes acked in the time one flush takes. With a flush
//! per append under the store's write lock it is just under 1 (the
//! device flushes 97 to 99 % of the window, one write each); a second
//! flush per write halves it, work added under the lock lowers it, and
//! a log that commits both writers' appends with one flush doubles it.
//! The device's speed cancels to first order: what is left is that the
//! 50 us a write spends outside the flush are a larger share of a faster
//! flush (0.75 at 150 us a flush, 0.86 at 300, 0.92 at 600).
//!
//! Every workload ends with this window on a store of its own, so that
//! every workload reports `durable_writes_per_sync`; nothing in it
//! depends on what ran before. After the window the directory is
//! recovered and must hold every acked write.
//!
//! The same two writers on the page-cache policy are the write tail of
//! the read workloads (`two_writers`): the served 4 860-node graph
//! cannot take a burst long enough to time without doubling the cost of
//! every `protect` after it.

use plus_store::{DurabilityOptions, Store};

use crate::check::{Facts, Tally, Who};
use crate::graphs;
use crate::harness::{connect_pair, Node, Plan, Scratch};
use crate::stats::{now_ns, side_by_side, Sample};
use crate::trace::Span;
use crate::walio::{IoLog, RecordingIo};
use crate::workloads::{pin_second_load_thread, write_pairs, Writer};

/// Writes in a full durable window, over both connections: 600 in a
/// round of two nominal seconds, a fifth of a second at 300 us a flush.
const WRITES: u64 = 6_000;
/// Writes before a window: the first opens the log's first segment.
const WARM_WRITES: usize = 16;

/// What two connections writing side by side into a store of their own
/// observed.
pub struct TwoWriters {
    /// When the window started, and each connection's acked writes.
    pub start_ns: u64,
    pub logs: [Vec<Sample>; 2],
    /// How long each flush of the log inside the window took, ns.
    flushes: Vec<(u64, u64)>,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// Serves a fresh empty store with flush policy `options`, and has two
/// connections push `total` writes into it side by side (`node, node,
/// edge` between the writer's own nodes). Afterwards the directory is
/// recovered and must hold every acked write. `lanes` are the span
/// lanes of a traced pass.
pub fn two_writers(
    plan: &Plan,
    options: DurabilityOptions,
    total: usize,
    lanes: Option<[u64; 2]>,
) -> Result<TwoWriters, String> {
    let scratch = Scratch::new(&Plan {
        data_dir: plan.data_dir.join("writers"),
        ..plan.clone()
    })?;
    let dir = scratch.dir("store");
    let io = IoLog::default();
    let store = Store::create_durable_with_io(
        &dir,
        &["Public", "Restricted"],
        &[(1, 0)],
        options,
        Box::new(RecordingIo { log: io.clone() }),
    )
    .map_err(|e| format!("cannot create the writers' store: {e}"))?;
    let node = Node::serve(store, &dir)?;
    let [first, second] = connect_pair(&node.server, [Who::Public, Who::Public])?;
    let mut writers = [
        Writer::new(first, "a", lanes.map(|l| l[0]))?,
        Writer::new(second, "b", lanes.map(|l| l[1]))?,
    ];
    let mut facts = [Facts::default(), Facts::default()];
    write_pairs(
        &mut writers[0],
        &mut graphs::rng(plan.seed, "writers-warm"),
        &mut facts[0],
        WARM_WRITES,
        None,
    );
    let warm = writers[0].log.len();

    let start_ns = now_ns();
    std::thread::scope(|scope| {
        let [w0, w1] = &mut writers;
        let [f0, f1] = &mut facts;
        let seed = plan.seed;
        let a = scope.spawn(move || {
            write_pairs(
                w0,
                &mut graphs::rng(seed, "writers-0"),
                f0,
                total - total / 2,
                None,
            )
        });
        let b = scope.spawn(move || {
            pin_second_load_thread();
            write_pairs(w1, &mut graphs::rng(seed, "writers-1"), f1, total / 2, None)
        });
        a.join().expect("load thread never panics");
        b.join().expect("load thread never panics");
    });
    let [mut w0, w1] = writers;
    let flushes = io
        .lock()
        .map_err(|_| "the I/O recorder's lock is poisoned")?
        .iter()
        .filter(|e| e.sync && e.start >= start_ns)
        .map(|e| (e.end, e.end - e.start))
        .collect();

    // Every acked write is in what reached the log.
    let mut tally = Tally::default();
    let acked = (w0.ops.len() + w1.ops.len()) as u64;
    let mut spans = w0.recorder.map(|r| r.spans).unwrap_or_default();
    spans.extend(w1.recorder.map(|r| r.spans).unwrap_or_default());
    tally.merge(w0.tally);
    tally.merge(w1.tally);
    drop((w0.client, w1.client));
    let dir = node.stop();
    tally.attempt(1);
    match Store::open(&dir) {
        Ok(recovered) if recovered.clock() == acked => {}
        Ok(recovered) => tally.fail(format!(
            "recovered clock {} where {acked} writes were acked",
            recovered.clock()
        )),
        Err(e) => tally.fail(format!("cannot recover the writers' store: {e}")),
    }
    Ok(TwoWriters {
        start_ns,
        logs: [w0.log.split_off(warm), w1.log],
        flushes,
        tally,
        spans,
    })
}

/// What the durable window observed.
pub struct Durable {
    /// Round trips of the window's writes, ns, in ack order.
    pub writes: Vec<u64>,
    pub writes_per_s: f64,
    /// Acked writes per mean flush time.
    pub writes_per_sync: f64,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

pub fn window(plan: &Plan, traced: bool) -> Result<Durable, String> {
    let run = two_writers(
        plan,
        DurabilityOptions::default(),
        plan.ops(WRITES),
        traced.then_some([6, 7]),
    )?;
    // The window ends when the first writer does: past that the other no
    // longer has anyone to share the log with.
    let merged = side_by_side(&[&run.logs[0], &run.logs[1]]);
    let end = merged.last().map_or(run.start_ns, |s| s.end_ns);
    let flushes: Vec<u64> = run
        .flushes
        .iter()
        .filter(|(flushed, _)| *flushed <= end)
        .map(|(_, nanos)| *nanos)
        .collect();
    if merged.is_empty() || flushes.is_empty() || end <= run.start_ns {
        return Err("the durable window acked no write or flushed nothing".to_string());
    }
    let window_ns = (end - run.start_ns) as f64;
    let flush_ns = flushes.iter().sum::<u64>() as f64 / flushes.len() as f64;
    Ok(Durable {
        writes_per_s: merged.len() as f64 * 1e9 / window_ns,
        writes_per_sync: merged.len() as f64 * flush_ns / window_ns,
        writes: merged.iter().map(|s| s.nanos).collect(),
        tally: run.tally,
        spans: run.spans,
    })
}
