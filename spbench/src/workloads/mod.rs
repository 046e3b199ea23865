//! The five workloads and the loops they share.
//!
//! Load is closed-loop: a connection sends its next request when the
//! previous one has been answered. Work is a fixed operation count
//! derived from `--seconds`, so counts repeat exactly for a seed.

pub mod churn;
pub mod durable;
pub mod fleet;
pub mod ingest;
pub mod read;

use plus_store::wire::WriteOp;
use plus_store::{
    Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, QueryResponse, RecordId, Strategy,
};
use rand::rngs::StdRng;
use rand::Rng;
use server::Client;
use surrogate_core::feature::Features;
use surrogate_core::measures::{average_protected_opacity, path_utility, OpacityModel};
use surrogate_core::privilege::PrivilegeId;

use crate::check::{leaked_row, stale_epoch, Facts, Oracle, Tally, VectorWatch, Who};
use crate::graphs::{self, Shape};
use crate::harness::{connect, guard_expired, peak_rss_mb, pin_here, Node, Plan};
use crate::report::Report;
use crate::spec::Workload;
use crate::stats::{block_rates, median, now_ns, side_by_side, Sample};
use crate::trace::{Recorder, Span};

/// Every 97th read answer is kept for the oracle.
pub const SAMPLE_STRIDE: usize = 97;
/// Share of appended nodes that only the Restricted consumer may see.
pub const RESTRICTED_SHARE: f64 = 0.15;
/// How many request frames each load connection keeps for the layer
/// replay; two connections make the 2 000-operation sample.
pub const REPLAY_FRAMES: usize = 1_000;

/// Runs one pass of the plan's workload, then the durable window every
/// workload ends with. The calling thread is load connection 0's from
/// here on, so it moves to lane 0; a second load thread moves itself to
/// lane 1.
pub fn run(plan: &Plan, traced: bool) -> Result<Observed, String> {
    pin_here(0)?;
    let mut observed = match plan.workload {
        Workload::ReadHot | Workload::ReadScan => read::run(plan, traced),
        Workload::Churn => churn::run(plan, traced),
        Workload::Ingest => ingest::run(plan, traced),
        Workload::Fleet => fleet::run(plan, traced),
    }?;
    let durable = durable::window(plan, traced)?;
    observed.report.put(
        "durable_writes_per_sync",
        durable.writes_per_sync,
        durable.writes.len() as u64,
    );
    observed.report.tally.merge(durable.tally);
    observed.spans.extend(durable.spans);
    observed.durable_writes = durable.writes;
    observed.durable_writes_per_s = durable.writes_per_s;
    Ok(observed)
}

/// Moves a second load thread to lane 1. `run` has put the calling
/// thread on lane 0 the same way, so this cannot fail where that did
/// not.
pub fn pin_second_load_thread() {
    pin_here(1).expect("lane 0 was pinned the same way");
}

/// Counters read off the serving edge and the service after the pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeCounters {
    pub requests: u64,
    pub overload_drops: u64,
    pub hangups: u64,
    /// Bytes written to query sockets during the read window.
    pub window_bytes_written: u64,
    /// Read frames answered during the read window.
    pub window_frames: u64,
    pub window_frame_hits: u64,
    pub window_frame_misses: u64,
    pub cached_frames_end: u64,
    pub cached_accounts_end: u64,
}

/// What the layer replay needs to rebuild the pass in this process.
#[derive(Debug, Clone, Default)]
pub struct ReplayInput {
    /// The generated graph's shape, where there is one.
    pub shape: Option<Shape>,
    /// The history the store started from, as writes.
    pub base: Vec<WriteOp>,
    /// The workload's own writes, in ack order.
    pub writes: Vec<WriteOp>,
    /// Whether the read sample was answered after the writes (on the
    /// final graph) or before them (on the starting graph).
    pub reads_follow_writes: bool,
    /// A sample of the read frames sent, with who sent each.
    pub reads: Vec<(Who, Vec<QueryRequest>)>,
}

/// The stages of one failover drill, in milliseconds since the kill.
/// The three a caller cannot see without polling the gather from a side
/// thread are `None` on untraced passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrillStages {
    pub detect_ms: Option<f64>,
    pub promote_ms: f64,
    pub first_write_ms: f64,
    pub gather_resync_ms: Option<f64>,
    pub first_read_ms: f64,
    /// Replica catch-up while the drill's fleet booted, frames/s.
    pub catchup_frames_per_s: f64,
    /// `Gather::start_topology` to `wait_synced`, ms.
    pub bootstrap_ms: f64,
}

/// Everything one pass observed.
#[derive(Debug)]
pub struct Observed {
    pub report: Report,
    pub spans: Vec<Span>,
    /// Round trips of read frames in the read window, ns, in arrival
    /// order.
    pub reads: Vec<u64>,
    /// Queries per second in each block of the read window.
    pub read_rates: Vec<f64>,
    pub writes: Vec<u64>,
    pub fresh: Vec<u64>,
    pub edge: EdgeCounters,
    pub replay: ReplayInput,
    pub drills: Vec<DrillStages>,
    /// Answers whose epoch vector regressed a slot.
    pub regressions: u64,
    /// Ack to the replica's epoch covering it, ns (`fleet`, traced).
    pub lag: Vec<u64>,
    /// Ack to the gather's clocks covering it, ns (`fleet`, traced).
    pub visible: Vec<u64>,
    /// Round trips of the durable window's writes, ns, and its acked
    /// writes per second; filled in by `run`.
    pub durable_writes: Vec<u64>,
    pub durable_writes_per_s: f64,
}

/// Where a read loop takes its keys from.
#[derive(Debug, Clone, Copy)]
pub enum Keys<'a> {
    /// Uniformly from a fixed set.
    Hot(&'a [QueryRequest]),
    /// Uniformly from the whole universe of this many keys.
    Universe(u64),
}

impl Keys<'_> {
    fn draw(&self, rng: &mut StdRng) -> QueryRequest {
        match self {
            Keys::Hot(keys) => keys[rng.gen_range(0..keys.len())].clone(),
            Keys::Universe(size) => graphs::key(rng.gen_range(0..*size)),
        }
    }
}

/// One connection's share of a read window.
pub struct ReadJob<'a> {
    pub who: Who,
    pub keys: Keys<'a>,
    /// Request frames to send.
    pub frames: usize,
    /// Queries per frame; 1 sends `Query`, more sends `Batch`.
    pub batch: usize,
    pub rng: StdRng,
    pub facts: &'a Facts,
    /// On a static store, the epoch every answer must carry.
    pub epoch: Option<u64>,
    /// Span lane; `None` records no spans.
    pub lane: Option<u64>,
}

/// A kept answer, for the oracle.
#[derive(Debug, Clone)]
pub struct Sampled {
    pub who: Who,
    pub requests: Vec<QueryRequest>,
    pub answers: Vec<QueryResponse>,
}

#[derive(Debug, Default)]
pub struct ReadRun {
    /// When the loop sent its first frame.
    pub start_ns: u64,
    /// Every answered frame, in order.
    pub log: Vec<Sample>,
    pub sampled: Vec<Sampled>,
    /// The first `REPLAY_FRAMES` frames sent.
    pub first: Vec<Vec<QueryRequest>>,
    pub tally: Tally,
    pub spans: Vec<Span>,
    pub watch: VectorWatch,
}

/// Checks that apply to every answer the moment it arrives.
pub(crate) fn check_answer(
    who: Who,
    facts: &Facts,
    epoch: Option<u64>,
    watch: &mut VectorWatch,
    answer: &QueryResponse,
    tally: &mut Tally,
) {
    if let Some(epoch) = epoch {
        if answer.epoch != epoch {
            tally.fail(format!(
                "a static store answered at epoch {} instead of {epoch}",
                answer.epoch
            ));
            return;
        }
    }
    if who == Who::Public {
        if let Some(why) = leaked_row(facts, answer) {
            tally.fail(why);
            return;
        }
    }
    if !answer.shard_epochs.is_empty() {
        tally.check(watch.observe(&answer.shard_epochs));
    }
}

/// Sends `job.frames` read frames back to back on one connection. `stop`
/// ends the loop early when it turns true (a side loop that runs until
/// another one finishes); frames not sent because the wall-clock guard
/// expired count as failed.
pub fn read_loop(
    client: &mut Client,
    mut job: ReadJob<'_>,
    stop: Option<&std::sync::atomic::AtomicBool>,
) -> ReadRun {
    let mut run = ReadRun {
        log: Vec::with_capacity(job.frames.min(1 << 22)),
        ..ReadRun::default()
    };
    let mut recorder = job.lane.map(Recorder::new);
    let mut requests: Vec<QueryRequest> = Vec::with_capacity(job.batch);
    let mut answers: Vec<QueryResponse> = Vec::with_capacity(job.batch);
    run.start_ns = now_ns();
    for i in 0..job.frames {
        if i % 256 == 0 {
            if stop.is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed)) {
                break;
            }
            if guard_expired(run.start_ns) {
                let unsent = ((job.frames - i) * job.batch) as u64;
                run.tally.fail_many(
                    unsent,
                    format!("guard expired with {unsent} queries unsent"),
                );
                break;
            }
        }
        requests.clear();
        requests.extend((0..job.batch).map(|_| job.keys.draw(&mut job.rng)));
        run.tally.attempt(job.batch as u64);
        let t0 = now_ns();
        let result = if job.batch == 1 {
            client.query(&requests[0]).map(|answer| {
                answers.clear();
                answers.push(answer);
            })
        } else {
            client.query_batch_into(&requests, &mut answers)
        };
        let t1 = now_ns();
        if let Some(rec) = recorder.as_mut() {
            rec.record(0, rec.request(i as u64), "client.call", t0, t1);
        }
        match result {
            Ok(()) if answers.len() == requests.len() => {
                run.log.push(Sample {
                    end_ns: t1,
                    nanos: t1 - t0,
                });
                for answer in &answers {
                    check_answer(
                        job.who,
                        job.facts,
                        job.epoch,
                        &mut run.watch,
                        answer,
                        &mut run.tally,
                    );
                }
                if i % SAMPLE_STRIDE == SAMPLE_STRIDE - 1 {
                    run.sampled.push(Sampled {
                        who: job.who,
                        requests: requests.clone(),
                        answers: answers.clone(),
                    });
                }
            }
            Ok(()) => {
                run.tally.failed += job.batch as u64 - 1;
                run.tally.fail(format!(
                    "{} answers to {} queries",
                    answers.len(),
                    requests.len()
                ));
            }
            Err(e) => {
                run.tally.failed += job.batch as u64 - 1;
                run.tally.fail(format!("read failed: {e}"));
                if !client.is_healthy() {
                    let unsent = ((job.frames - i - 1) * job.batch) as u64;
                    run.tally
                        .fail_many(unsent, "the connection died".to_string());
                    break;
                }
            }
        }
        if run.first.len() < REPLAY_FRAMES {
            run.first.push(requests.clone());
        }
    }
    run.spans = recorder.map(|r| r.spans).unwrap_or_default();
    run
}

/// The frames two side-by-side connections sent first, with who sent
/// each: the layer replay's sample.
pub fn replay_frames(public: &ReadRun, restricted: &ReadRun) -> Vec<(Who, Vec<QueryRequest>)> {
    [(Who::Public, public), (Who::Restricted, restricted)]
        .into_iter()
        .flat_map(|(who, run)| run.first.iter().map(move |frame| (who, frame.clone())))
        .collect()
}

/// Verifies kept answers against the oracle at its current clock.
pub fn verify_sampled(oracle: &mut Oracle, sampled: &[Sampled], tally: &mut Tally) {
    for kept in sampled {
        for (request, answer) in kept.requests.iter().zip(&kept.answers) {
            tally.check(oracle.verify(kept.who, request, answer));
        }
    }
}

/// Records `rate` and `p50` of loops that ran side by side from
/// `start_ns`, every sample being worth `weight` units: the rate of the
/// median block (blocks are equal spans of time, see `block_rates`) and
/// the median round trip. Returns the round trips in arrival order and
/// the block rates.
pub fn put_window(
    report: &mut Report,
    (rate, p50): (&'static str, &'static str),
    loops: &[&[Sample]],
    start_ns: u64,
    weight: f64,
) -> (Vec<u64>, Vec<f64>) {
    let merged = side_by_side(loops);
    let rates = block_rates(&merged, start_ns, weight);
    if let Some(mid) = median(&rates) {
        report.put(rate, mid, (merged.len() as f64 * weight) as u64);
    }
    let nanos: Vec<u64> = merged.iter().map(|s| s.nanos).collect();
    report.put_median(p50, &nanos, 1e3);
    (nanos, rates)
}

/// Two connections reading side by side, and what the serving edge and
/// the frame cache counted meanwhile.
pub fn read_window(
    node: (&server::Server, &plus_store::AccountService),
    clients: [&mut Client; 2],
    jobs: [ReadJob<'_>; 2],
) -> ([ReadRun; 2], EdgeCounters) {
    let (server, service) = node;
    let stats_before = server.stats();
    let bytes_before = server.metrics().bytes_written.get();
    let (hits_before, misses_before) = service.frame_cache_stats();
    let [first, second] = clients;
    let [job0, job1] = jobs;
    let runs = std::thread::scope(|scope| {
        let a = scope.spawn(|| read_loop(first, job0, None));
        let b = scope.spawn(|| {
            pin_second_load_thread();
            read_loop(second, job1, None)
        });
        [
            a.join().expect("load thread never panics"),
            b.join().expect("load thread never panics"),
        ]
    });
    let (hits, misses) = service.frame_cache_stats();
    let stats = server.stats();
    let edge = EdgeCounters {
        requests: stats.requests,
        overload_drops: stats.overload_drops,
        hangups: stats.hangups,
        window_bytes_written: server.metrics().bytes_written.get() - bytes_before,
        window_frames: stats.requests - stats_before.requests,
        window_frame_hits: hits - hits_before,
        window_frame_misses: misses - misses_before,
        cached_frames_end: service.cached_frames() as u64,
        cached_accounts_end: service.cached_accounts() as u64,
    };
    (runs, edge)
}

/// One connection that writes: every write is timed and logged, and the
/// facts about appended nodes are recorded as the acks come back.
pub struct Writer {
    pub client: Client,
    /// Acked writes in ack order.
    pub ops: Vec<WriteOp>,
    /// The ack clock and assigned id of each of `ops`.
    pub acks: Vec<(u64, Option<RecordId>)>,
    /// Every acked write, in order.
    pub log: Vec<Sample>,
    pub tally: Tally,
    pub recorder: Option<Recorder>,
    public: PrivilegeId,
    restricted: PrivilegeId,
    label: String,
    appended: u64,
}

impl Writer {
    /// `label` prefixes the labels of the nodes this writer appends.
    pub fn new(client: Client, label: &str, lane: Option<u64>) -> Result<Writer, String> {
        let predicate = |name: &str| {
            client
                .predicate(name)
                .ok_or_else(|| format!("the server's lattice has no {name} predicate"))
        };
        Ok(Writer {
            public: predicate("Public")?,
            restricted: predicate("Restricted")?,
            client,
            ops: Vec::new(),
            acks: Vec::new(),
            log: Vec::new(),
            tally: Tally::default(),
            recorder: lane.map(Recorder::new),
            label: label.to_string(),
            appended: 0,
        })
    }

    /// Sends one write. `Some((clock, id))` when it was acked.
    pub fn write(&mut self, op: WriteOp) -> Option<(u64, Option<RecordId>)> {
        self.tally.attempt(1);
        let t0 = now_ns();
        let result = self.client.write(op.clone());
        let t1 = now_ns();
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(0, rec.request(self.log.len() as u64), "client.call", t0, t1);
        }
        match result {
            Ok(ack) => {
                self.log.push(Sample {
                    end_ns: t1,
                    nanos: t1 - t0,
                });
                self.ops.push(op);
                self.acks.push(ack);
                Some(ack)
            }
            Err(e) => {
                self.tally.fail(format!("write failed: {e}"));
                None
            }
        }
    }

    /// Appends a node that is `Restricted` with the seeded share, and
    /// records what the bench knows about it.
    pub fn append_node(&mut self, rng: &mut StdRng, facts: &mut Facts) -> Option<Appended> {
        let sensitive = rng.gen_bool(RESTRICTED_SHARE);
        let label = format!("{}-{}", self.label, self.appended);
        self.appended += 1;
        let op = WriteOp::AppendNode {
            label: label.clone(),
            kind: NodeKind::Data,
            features: Features::new().with("kind", "data"),
            lowest: if sensitive {
                self.restricted
            } else {
                self.public
            },
        };
        let (clock, id) = self.write(op)?;
        let Some(id) = id else {
            self.tally
                .fail("a node append was acked without an id".to_string());
            return None;
        };
        facts.record(id, label, sensitive);
        Some(Appended {
            clock,
            id,
            sensitive,
        })
    }

    pub fn append_edge(&mut self, from: RecordId, to: RecordId) -> Option<u64> {
        self.write(WriteOp::AppendEdge {
            from,
            to,
            kind: EdgeKind::InputTo,
        })
        .map(|(clock, _)| clock)
    }
}

/// An acked node append.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    pub clock: u64,
    pub id: RecordId,
    /// Whether only the Restricted consumer may see the node.
    pub sensitive: bool,
}

/// One write-then-read cycle's timings.
#[derive(Debug)]
pub struct Cycle {
    /// Edge ack to the first answer that covers it, ns.
    pub fresh_ns: u64,
    pub request: QueryRequest,
    pub answer: QueryResponse,
    /// The writer's log length when the fresh read was answered: the
    /// oracle state the answer must match.
    pub writes_before: usize,
}

/// The fresh-read cycle of a single store: append a node, append an edge
/// to it from the existing node `from`, then read its ancestry
/// (Backward, depth 4) on the same connection, timed from the edge's
/// ack. The answer's epoch must cover the ack.
pub fn fresh_cycle(
    writer: &mut Writer,
    rng: &mut StdRng,
    facts: &mut Facts,
    from: RecordId,
    cycle_index: u64,
) -> Option<Cycle> {
    let node = writer.append_node(rng, facts)?.id;
    let ack_clock = writer.append_edge(from, node)?;
    let request = QueryRequest::new(node, Direction::Backward, 4, Strategy::Surrogate);
    writer.tally.attempt(1);
    let t0 = now_ns();
    let result = writer.client.query(&request);
    let t1 = now_ns();
    if let Some(rec) = writer.recorder.as_mut() {
        rec.record(
            0,
            rec.request((1 << 32) | cycle_index),
            "client.call",
            t0,
            t1,
        );
    }
    match result {
        Ok(answer) => {
            let verdict =
                stale_epoch(ack_clock, answer.epoch).or_else(|| leaked_row(facts, &answer));
            writer.tally.check(verdict);
            Some(Cycle {
                // The ack arrived at the previous write's end; the read
                // is sent back to back, so edge ack to answer is the
                // read's round trip.
                fresh_ns: t1 - t0,
                request,
                answer,
                writes_before: writer.ops.len(),
            })
        }
        Err(e) => {
            writer.tally.fail(format!("fresh read failed: {e}"));
            None
        }
    }
}

/// Nodes in pairs joined by an edge — `node, node, edge` repeating — the
/// write pattern of `ingest` and of `durable::two_writers`. With
/// `surrogate_every: Some(n)`, every `n`-th write instead registers a
/// surrogate for a `Restricted` node this writer appended and has not
/// yet covered.
pub fn write_pairs(
    writer: &mut Writer,
    rng: &mut StdRng,
    facts: &mut Facts,
    count: usize,
    surrogate_every: Option<usize>,
) {
    let mut pair: Vec<RecordId> = Vec::with_capacity(2);
    let mut uncovered: Vec<RecordId> = Vec::new();
    let started = now_ns();
    for i in 0..count {
        if i % 256 == 0 && guard_expired(started) {
            let unsent = (count - i) as u64;
            writer
                .tally
                .fail_many(unsent, format!("guard expired with {unsent} writes unsent"));
            break;
        }
        if surrogate_every.is_some_and(|n| i % n == n - 1) {
            if let Some(node) = uncovered.pop() {
                writer.write(WriteOp::ApplyPolicy(PolicyStatement::AddSurrogate {
                    node,
                    label: "redacted".to_string(),
                    features: Features::new(),
                    lowest: writer.public,
                    info_score: 0.1,
                }));
                continue;
            }
        }
        if pair.len() == 2 {
            writer.append_edge(pair[0], pair[1]);
            pair.clear();
        } else if let Some(node) = writer.append_node(rng, facts) {
            pair.push(node.id);
            if node.sensitive {
                uncovered.push(node.id);
            }
        }
    }
}

/// One restart drill on a single node: stop the server, recover the
/// store from its directory, serve it, connect, and read. Returns the
/// new node, kill to answer in ns, and the answer for the oracle.
pub fn restart_drill(
    node: Node,
    request: &QueryRequest,
    expect_clock: u64,
    tally: &mut Tally,
) -> Result<(Node, u64, Option<QueryResponse>), String> {
    tally.attempt(1);
    let t0 = now_ns();
    let dir = node.stop();
    let node = Node::open(&dir)?;
    if node.store.clock() != expect_clock {
        tally.fail(format!(
            "recovered clock {} where {expect_clock} writes were acked",
            node.store.clock()
        ));
    }
    let mut client = connect(&node.addr(), Who::Public)?;
    let answer = client.query(request);
    let nanos = now_ns() - t0;
    match answer {
        Ok(answer) => {
            tally.check(stale_epoch(expect_clock, answer.epoch));
            Ok((node, nanos, Some(answer)))
        }
        Err(e) => {
            tally.fail(format!("first read after a restart failed: {e}"));
            Ok((node, nanos, None))
        }
    }
}

/// The two quality measures of the Public consumer's `Surrogate` account
/// on the service's current graph, obtained through
/// `AccountService::protect`.
pub fn quality(service: &plus_store::AccountService) -> Result<(f64, f64), String> {
    let snapshot = service.snapshot();
    let public = snapshot.lattice.public();
    let account = service
        .protect(&[public], &Strategy::Surrogate)
        .map_err(|e| format!("cannot protect the final graph: {e}"))?;
    let utility = path_utility(&snapshot.graph, &account);
    let opacity = average_protected_opacity(
        &snapshot.graph,
        &account,
        OpacityModel::directional_normalized(),
    )
    .ok_or("the final graph has no protected edge, so opacity is undefined")?;
    Ok((utility, opacity))
}

/// Records the metrics every workload ends with: set-up time and the
/// two quality measures of the served dataset (read with `quality`
/// before the pass's own seeded writes). `final_utility` is the path
/// utility served on the final graph, which must equal the oracle's
/// own where there is one.
pub fn finish(
    report: &mut Report,
    setup_ns: u64,
    (utility, opacity): (f64, f64),
    final_utility: f64,
    oracle: Option<&mut Oracle>,
) {
    report.put("setup_s", setup_ns as f64 / 1e9, 1);
    report.put("path_utility", utility, 1);
    report.put("opacity", opacity, 1);
    if let Some(oracle) = oracle {
        report.tally.attempt(1);
        let expected = oracle.path_utility();
        if (expected - final_utility).abs() > 1e-9 {
            report.tally.fail(format!(
                "path utility {final_utility} where the oracle's account has {expected}"
            ));
        }
    }
}

/// Records `peak_rss_mb`: the high-water mark of this process, which
/// has run one set-up and one window (every round of a run is a process
/// of its own). Called when the window ends, before the tail that
/// measures what the window does not exercise and before the oracle, so
/// that neither is charged to it.
pub fn put_peak_rss(report: &mut Report) -> Result<(), String> {
    report.put("peak_rss_mb", peak_rss_mb()?, 1);
    Ok(())
}
