//! `fleet`: two replicated shards behind a gather.
//!
//! Two shard primaries over partitioned durable stores, one WAL-shipping
//! replica with a shard-role front per shard, and a gather following
//! every feed behind a gather-role front — all with library-default
//! tuning. One load thread writes through a `ShardRouter` and reads at
//! the gather: it appends a node and an edge, then re-issues the new
//! node's ancestry query until the answer's epoch vector covers both
//! writes. Then two connections read a hot set at the gather. Then five
//! failover drills, each on a freshly booted fleet: kill shard 0's
//! primary, promote its replica, and run the clock until a write routed
//! to shard 0 is acked and the gather answers at a vector covering it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use plus_store::wire::WriteOp;
use plus_store::{
    AccountService, Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, QueryResponse,
    RecordId, Store, Strategy,
};
use rand::rngs::StdRng;
use rand::Rng;
use server::{
    Client, Gather, GatherConfig, Replica, ReplicaConfig, Role, Server, ServerConfig, ShardRouter,
    Topology,
};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::Partition;

use crate::check::{leaked_row, Facts, Oracle, Tally, VectorWatch, Who};
use crate::graphs::{self, Shape, G300, G88};
use crate::harness::{
    align, connect, connect_pair, durability, guard_expired, place_server_threads, server_config,
    unpin, Plan, Scratch,
};
use crate::report::Report;
use crate::stats::{now_ns, Sample};
use crate::trace::Recorder;
use crate::workloads::{
    finish, put_peak_rss, put_window, quality, read_window, replay_frames, verify_sampled,
    DrillStages, Keys, Observed, ReadJob, ReplayInput, RESTRICTED_SHARE,
};

/// Shards in the deployment.
const SHARDS: u32 = 2;
/// Write-then-read cycles in a full window.
const CYCLES: u64 = 1_500;
/// Cycles run as part of set-up, before the window.
const WARM_CYCLES: usize = 10;
/// Hot-set reads at the gather in a full run.
const READS: u64 = 1_250_000;
const HOT_KEYS: usize = 256;
/// Writes a failover drill's fleet is preloaded with.
const DRILL_PRELOAD: usize = 200;
/// Failover drills behind the traced pass's `failover.*` stages.
const DRILLS: usize = 5;
/// Failover drills in an untraced round.
const ROUND_DRILLS: usize = 2;
/// Every this-many-th fresh read is kept for the oracle.
const FRESH_STRIDE: usize = 50;
/// Writes timed for replica lag and gather visibility on a traced pass.
const PROBE_WRITES: usize = 50;
/// How long anything in the fleet may take to converge.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running deployment.
pub struct Fleet {
    primaries: Vec<Option<Server>>,
    stores: Vec<Arc<Store>>,
    replicas: Vec<Replica>,
    replica_fronts: Vec<Server>,
    pub gather: Arc<Gather>,
    front: Server,
    pub router: ShardRouter,
    /// Replica catch-up at boot, frames/s over both replicas.
    pub catchup_frames_per_s: f64,
    /// `Gather::start_topology` to caught up, ms.
    pub bootstrap_ms: f64,
}

/// Spins, yielding to the sleep queue, until `done` or `PATIENCE` runs
/// out; whether it became done.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = now_ns() + PATIENCE.as_nanos() as u64;
    while !done() {
        if now_ns() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

fn shard_config(index: u32, feed: Option<Arc<server::ReplicationMonitor>>) -> ServerConfig {
    ServerConfig {
        role: Role::Shard {
            index,
            count: SHARDS,
            topology: Topology::default(),
            feed,
        },
        allow_replication: true,
        ..server_config()
    }
}

impl Fleet {
    /// Boots shard primaries, pushes `preload` through a router over
    /// them, then attaches a replica per shard and the gather, waiting
    /// for each to catch up.
    pub fn boot(scratch: &Scratch, preload: &[WriteOp]) -> Result<Fleet, String> {
        unpin()?;
        let mut primaries = Vec::new();
        let mut stores = Vec::new();
        let mut addrs = Vec::new();
        for index in 0..SHARDS {
            let partition = Partition::new(index, SHARDS).expect("index below count");
            let store = Arc::new(
                Store::create_durable_partitioned(
                    scratch.dir("shard"),
                    &["Public", "Restricted"],
                    &[(1, 0)],
                    durability(),
                    partition,
                )
                .map_err(|e| format!("cannot create shard {index}: {e}"))?,
            );
            let server = Server::bind(
                Arc::new(AccountService::new(store.clone())),
                "127.0.0.1:0",
                &shard_config(index, None),
            )
            .map_err(|e| format!("cannot bind shard {index}: {e}"))?;
            addrs.push(server.local_addr().to_string());
            primaries.push(Some(server));
            stores.push(store);
        }
        // The loader's connections are each primary's first, so loop 0
        // serves them; with the loops placed, the preload runs on lane 0.
        place_server_threads(primaries.len())?;
        let loader = ShardRouter::new(
            &Topology::from_peers(addrs.iter().cloned()).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        for op in preload {
            loader
                .write(op.clone())
                .map_err(|e| format!("preload write failed: {e}"))?;
        }
        drop(loader);

        unpin()?;
        let t0 = now_ns();
        let mut replicas = Vec::new();
        let mut replica_fronts = Vec::new();
        let mut sites = Vec::new();
        for index in 0..SHARDS {
            let replica = Replica::start_with(
                addrs[index as usize].as_str(),
                scratch.dir("replica"),
                ReplicaConfig {
                    durability: durability(),
                    ..ReplicaConfig::default()
                },
            )
            .map_err(|e| format!("shard {index} replica failed to start: {e}"))?;
            let front = Server::bind(
                replica.service().clone(),
                "127.0.0.1:0",
                &shard_config(index, Some(replica.monitor())),
            )
            .map_err(|e| format!("cannot bind shard {index} replica front: {e}"))?;
            sites.push(format!("{}+{}", addrs[index as usize], front.local_addr()));
            replicas.push(replica);
            replica_fronts.push(front);
        }
        let caught_up = wait_until(|| {
            replicas
                .iter()
                .zip(&stores)
                .all(|(replica, store)| replica.epoch() >= store.clock())
        });
        if !caught_up {
            return Err("a replica never caught up with its primary".to_string());
        }
        let frames: u64 = stores.iter().map(|s| s.clock()).sum();
        let catchup_frames_per_s = frames as f64 * 1e9 / (now_ns() - t0).max(1) as f64;

        let topology = Topology::parse(&sites.join(",")).map_err(|e| e.to_string())?;
        let t0 = now_ns();
        let gather = Arc::new(
            Gather::start_topology(&topology, GatherConfig::default())
                .map_err(|e| format!("gather failed to start: {e}"))?,
        );
        let synced = wait_until(|| {
            gather.synced()
                && gather
                    .clocks()
                    .iter()
                    .zip(&stores)
                    .all(|(clock, store)| *clock >= store.clock())
        });
        if !synced {
            return Err(format!(
                "the gather never synced (down: {:?})",
                gather.first_down()
            ));
        }
        let bootstrap_ms = (now_ns() - t0) as f64 / 1e6;
        let front = Server::bind(
            gather.service().clone(),
            "127.0.0.1:0",
            &ServerConfig {
                role: Role::Gather {
                    gather: gather.clone(),
                },
                ..server_config()
            },
        )
        .map_err(|e| format!("cannot bind the gather front: {e}"))?;
        place_server_threads(primaries.len() + replica_fronts.len() + 1)?;
        // Replicas and the gather have dialled the primaries meanwhile;
        // the router's connections must land on loop 0 again.
        for primary in primaries.iter().flatten() {
            align(primary)?;
        }
        let router = ShardRouter::new(&topology).map_err(|e| e.to_string())?;
        Ok(Fleet {
            primaries,
            stores,
            replicas,
            replica_fronts,
            gather,
            front,
            router,
            catchup_frames_per_s,
            bootstrap_ms,
        })
    }

    pub fn front_addr(&self) -> String {
        self.front.local_addr().to_string()
    }

    pub fn shutdown(self) {
        self.front.shutdown();
        for front in self.replica_fronts {
            front.shutdown();
        }
        for replica in self.replicas {
            replica.shutdown();
        }
        for primary in self.primaries.into_iter().flatten() {
            primary.shutdown();
        }
    }
}

/// Whether an answer's epoch vector covers every `(slot, clock)` ack.
fn covers(answer: &QueryResponse, acks: &[(u32, u64)]) -> bool {
    acks.iter().all(|&(slot, clock)| {
        answer
            .shard_epochs
            .get(slot as usize)
            .is_some_and(|&epoch| epoch >= clock)
    })
}

/// Re-issues `request` back to back until the answer covers `acks`.
/// `None` when patience runs out or the gather refuses for that long.
fn read_until_covered(
    client: &mut Client,
    request: &QueryRequest,
    acks: &[(u32, u64)],
    watch: &mut VectorWatch,
    tally: &mut Tally,
) -> Option<QueryResponse> {
    let deadline = now_ns() + PATIENCE.as_nanos() as u64;
    let mut last_error = String::new();
    loop {
        match client.query(request) {
            Ok(answer) => {
                tally.check(watch.observe(&answer.shard_epochs));
                if covers(&answer, acks) {
                    return Some(answer);
                }
            }
            // A gather mid-repair refuses instead of answering with a
            // gap; keep asking.
            Err(e) => {
                last_error = e.to_string();
                if !client.is_healthy() {
                    tally.fail(format!("the gather connection died: {last_error}"));
                    return None;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        if now_ns() > deadline {
            tally.fail(format!(
                "no answer covering {acks:?} within {PATIENCE:?} (last error: {last_error:?})"
            ));
            return None;
        }
    }
}

/// The router-side writer: node labels, the facts, the write log.
struct RouterWriter {
    public: PrivilegeId,
    restricted: PrivilegeId,
    ops: Vec<WriteOp>,
    log: Vec<Sample>,
    appended: u64,
}

impl RouterWriter {
    /// One routed write, timed; `Some((clock, id))` when acked.
    fn write(
        &mut self,
        router: &ShardRouter,
        op: WriteOp,
        tally: &mut Tally,
        recorder: Option<&mut Recorder>,
    ) -> Option<(u64, Option<RecordId>)> {
        tally.attempt(1);
        let t0 = now_ns();
        let result = router.write(op.clone());
        let t1 = now_ns();
        if let Some(rec) = recorder {
            rec.record(0, rec.request(self.log.len() as u64), "client.call", t0, t1);
        }
        match result {
            Ok(ack) => {
                self.log.push(Sample {
                    end_ns: t1,
                    nanos: t1 - t0,
                });
                self.ops.push(op);
                Some(ack)
            }
            Err(e) => {
                tally.fail(format!("routed write failed: {e}"));
                None
            }
        }
    }

    fn node_op(&mut self, rng: &mut StdRng) -> (WriteOp, String, bool) {
        let sensitive = rng.gen_bool(RESTRICTED_SHARE);
        let label = format!("fleet-{}", self.appended);
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
        (op, label, sensitive)
    }
}

/// A fresh read kept for the oracle: the answer and how many of the
/// load thread's writes it reflects.
struct KeptFresh {
    request: QueryRequest,
    answer: QueryResponse,
    writes_before: usize,
}

/// The preload of a fleet: the dataset's workflow of `shape`, its
/// history as writes.
fn preload_ops(shape: Shape) -> Result<(graphgen::workflow::Workflow, Vec<WriteOp>), String> {
    let wf = graphs::generate(shape);
    let ops = graphs::store_ops(&graphs::ingest(&wf)?)?;
    Ok((wf, ops))
}

/// How many drills a traced pass runs: all five (they are the sample
/// behind the `failover.*` stages) unless it is a smoke pass.
pub fn traced_drills(pass: &Plan) -> usize {
    DRILLS.min(pass.reps(10 * DRILLS))
}

/// What one failover drill observed.
pub struct Drill {
    pub stages: DrillStages,
    /// Kill to healed, ns.
    pub recovery_ns: u64,
    /// Ack to `Replica::epoch()` covering it, ns (traced passes, first
    /// drill only).
    pub lag: Vec<u64>,
    /// Ack to `Gather::clocks()` covering it, ns (same).
    pub visible: Vec<u64>,
    pub tally: Tally,
    pub regressions: u64,
}

/// What a side thread sees of the gather during a drill, as timestamps
/// (0 = not yet).
#[derive(Default)]
struct Sightings {
    stop: AtomicBool,
    /// The fencing term the promotion produced, plus one (0 = unknown).
    promoted_term: AtomicU64,
    detected_ns: AtomicU64,
    resynced_ns: AtomicU64,
}

/// One failover drill on a freshly booted fleet.
pub fn drill(plan: &Plan, scratch: &Scratch, index: usize, traced: bool) -> Result<Drill, String> {
    let (wf, mut ops) = preload_ops(G88)?;
    ops.truncate(DRILL_PRELOAD);
    let mut fleet = Fleet::boot(scratch, &ops)?;
    let mut tally = Tally::default();
    let mut oracle = Oracle::for_gather();
    for op in &ops {
        oracle.apply(op)?;
    }
    let public = PrivilegeId(0);
    let mut watch = VectorWatch::default();
    let mut client = connect(&fleet.front_addr(), Who::Public)?;
    let request = QueryRequest::new(
        RecordId(wf.outputs[0].0),
        Direction::Backward,
        4,
        Strategy::Surrogate,
    );
    // A write that must land on shard 0: policy routes by the node it
    // governs, and node 0 lives on shard 0.
    let shard0_write = |n: usize| {
        WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
            node: RecordId(0),
            predicate: Some(public),
            marking: if n % 2 == 0 {
                Marking::Visible
            } else {
                Marking::Surrogate
            },
        })
    };

    // Ack-to-replica and ack-to-gather visibility, with no query in the
    // way: poll the accessors after each ack.
    let (mut lag, mut visible) = (Vec::new(), Vec::new());
    if traced && index == 0 {
        for n in 0..plan.reps(PROBE_WRITES) {
            let op = shard0_write(n);
            tally.attempt(1);
            match fleet.router.write(op.clone()) {
                Ok((clock, _)) => {
                    let acked = now_ns();
                    oracle.apply(&op)?;
                    wait_until(|| fleet.replicas[0].epoch() >= clock);
                    lag.push(now_ns() - acked);
                    wait_until(|| fleet.gather.clocks()[0] >= clock);
                    visible.push(now_ns() - acked);
                }
                Err(e) => tally.fail(format!("probe write failed: {e}")),
            }
        }
    }
    let settled = wait_until(|| {
        fleet
            .stores
            .iter()
            .zip(&fleet.replicas)
            .zip(fleet.gather.clocks())
            .all(|((store, replica), clock)| {
                replica.epoch() >= store.clock() && clock >= store.clock()
            })
    });
    if !settled {
        return Err("the drill's fleet never settled before the kill".to_string());
    }

    let sightings = Arc::new(Sightings::default());
    let watcher = traced.then(|| {
        let (gather, sightings) = (fleet.gather.clone(), sightings.clone());
        std::thread::Builder::new()
            .name("spbench-watch".to_string())
            .spawn(move || {
                while !sightings.stop.load(Ordering::Relaxed) {
                    if sightings.detected_ns.load(Ordering::Relaxed) == 0 {
                        if !gather.connected(0) {
                            sightings.detected_ns.store(now_ns(), Ordering::Relaxed);
                        }
                    } else if sightings.resynced_ns.load(Ordering::Relaxed) == 0 {
                        let term = sightings.promoted_term.load(Ordering::Relaxed);
                        if term > 0 && gather.term(0) == Some(term - 1) && gather.synced() {
                            sightings.resynced_ns.store(now_ns(), Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .expect("the drill watcher starts")
    });

    // --- The kill -----------------------------------------------------------------
    tally.attempt(1);
    let killed = now_ns();
    fleet.primaries[0]
        .take()
        .expect("shard 0 has a primary")
        .shutdown();
    let t0 = now_ns();
    let term = fleet.replicas[0]
        .promote()
        .map_err(|e| format!("promotion failed: {e}"))?;
    let promote_ms = (now_ns() - t0) as f64 / 1e6;
    sightings.promoted_term.store(term + 1, Ordering::Relaxed);

    let op = shard0_write(usize::MAX - 1);
    let deadline = now_ns() + PATIENCE.as_nanos() as u64;
    let ack = loop {
        match fleet.router.write(op.clone()) {
            Ok((clock, _)) => break Some(clock),
            Err(e) if now_ns() > deadline => {
                tally.fail(format!("no write reached the promoted shard: {e}"));
                break None;
            }
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    };
    let first_write_ms = (now_ns() - killed) as f64 / 1e6;
    let mut healed = None;
    if let Some(clock) = ack {
        oracle.apply(&op)?;
        if let Some(answer) =
            read_until_covered(&mut client, &request, &[(0, clock)], &mut watch, &mut tally)
        {
            healed = Some(now_ns());
            tally.check(leaked_row(&Facts::of(&wf), &answer));
            tally.check(oracle.verify(Who::Public, &request, &answer));
        }
    }
    let recovery_ns = healed.unwrap_or_else(now_ns) - killed;
    // The gather's own view of being whole again may trail the first
    // covering answer by a poll; give the watcher a moment to see it.
    if traced {
        wait_until(|| sightings.resynced_ns.load(Ordering::Relaxed) != 0);
    }
    sightings.stop.store(true, Ordering::Relaxed);
    if let Some(watcher) = watcher {
        watcher.join().map_err(|_| "the drill watcher panicked")?;
    }
    let since_kill = |at: &AtomicU64| {
        let at = at.load(Ordering::Relaxed);
        (at != 0).then(|| at.saturating_sub(killed) as f64 / 1e6)
    };
    let stages = DrillStages {
        detect_ms: since_kill(&sightings.detected_ns),
        promote_ms,
        first_write_ms,
        gather_resync_ms: since_kill(&sightings.resynced_ns),
        first_read_ms: recovery_ns as f64 / 1e6,
        catchup_frames_per_s: fleet.catchup_frames_per_s,
        bootstrap_ms: fleet.bootstrap_ms,
    };
    drop(client);
    fleet.shutdown();
    Ok(Drill {
        stages,
        recovery_ns,
        lag,
        visible,
        tally,
        regressions: watch.regressions,
    })
}

pub fn run(plan: &Plan, traced: bool) -> Result<Observed, String> {
    let scratch = Scratch::new(plan)?;
    let mut report = Report::new(plan.workload);

    let t0 = now_ns();
    let (wf, preload) = preload_ops(G300)?;
    let fleet = Fleet::boot(&scratch, &preload)?;
    // The served dataset's quality, before the cycles append to it: one
    // `protect` of 300 nodes, a millisecond of set-up.
    let dataset = quality(fleet.gather.service())?;
    let mut facts = Facts::of(&wf);
    let mut recorder = traced.then(|| Recorder::new(1));

    // --- Write-then-read cycles ------------------------------------------------------
    let mut gather_client = connect(&fleet.front_addr(), Who::Public)?;
    let mut rng = graphs::rng(plan.seed, "cycles");
    let mut writer = RouterWriter {
        public: PrivilegeId(0),
        restricted: PrivilegeId(1),
        ops: Vec::new(),
        log: Vec::new(),
        appended: 0,
    };
    let cycles = plan.ops(CYCLES);
    let mut fresh = Vec::with_capacity(cycles);
    let mut kept = Vec::new();
    let mut watch = VectorWatch::default();
    // The first cycles are set-up: the router dials its shards on its
    // first writes and the gather builds its first account. They also
    // make a boot's handful of store creations (flushes to the
    // sandbox's disk, which is twice as slow some quarter-hours as
    // others) a small share of `setup_s`.
    let warm_cycles = plan.reps(WARM_CYCLES);
    let (mut setup_ns, mut started, mut warm_writes, mut warm_fresh) = (0, now_ns(), 0, 0);
    for i in 0..warm_cycles + cycles {
        if i == warm_cycles {
            started = now_ns();
            setup_ns = started - t0;
            (warm_writes, warm_fresh) = (writer.log.len(), fresh.len());
        }
        if guard_expired(started) {
            let unsent = ((warm_cycles + cycles - i) * 3) as u64;
            report.tally.fail_many(
                unsent,
                format!("guard expired with {unsent} operations unsent"),
            );
            break;
        }
        let (node_op, label, sensitive) = writer.node_op(&mut rng);
        let Some((node_clock, Some(node))) =
            writer.write(&fleet.router, node_op, &mut report.tally, recorder.as_mut())
        else {
            continue;
        };
        if node.index() != facts.len() {
            report.tally.fail(format!(
                "the router assigned id {} to append number {}",
                node.0,
                facts.len()
            ));
        }
        facts.record(node, label, sensitive);
        let from = RecordId(rng.gen_range(0..node.0));
        let edge_op = WriteOp::AppendEdge {
            from,
            to: node,
            kind: EdgeKind::InputTo,
        };
        let Some((edge_clock, _)) =
            writer.write(&fleet.router, edge_op, &mut report.tally, recorder.as_mut())
        else {
            continue;
        };
        let acks = [(node.0 % SHARDS, node_clock), (from.0 % SHARDS, edge_clock)];
        let request = QueryRequest::new(node, Direction::Backward, 4, Strategy::Surrogate);
        report.tally.attempt(1);
        let t0 = now_ns();
        let answer = read_until_covered(
            &mut gather_client,
            &request,
            &acks,
            &mut watch,
            &mut report.tally,
        );
        let t1 = now_ns();
        if let Some(rec) = recorder.as_mut() {
            rec.record(0, rec.request((1 << 32) | i as u64), "client.call", t0, t1);
        }
        if let Some(answer) = answer {
            fresh.push(t1 - t0);
            report.tally.check(leaked_row(&facts, &answer));
            if i % FRESH_STRIDE == FRESH_STRIDE - 1 {
                kept.push(KeptFresh {
                    request,
                    answer,
                    writes_before: writer.ops.len(),
                });
            }
        }
    }
    let (writes, _) = put_window(
        &mut report,
        ("writes_per_s", "write_p50_us"),
        &[&writer.log[warm_writes..]],
        started,
        1.0,
    );
    let fresh = fresh.split_off(warm_fresh);
    report.put_median("fresh_read_p50_ms", &fresh, 1e6);
    drop(gather_client);

    // --- Hot-set reads at the gather ---------------------------------------------------
    let [mut public, mut restricted] = connect_pair(&fleet.front, [Who::Public, Who::Restricted])?;
    let hot = graphs::hot_set(&mut graphs::rng(plan.seed, "hot"), facts.len(), HOT_KEYS);
    for client in [&mut public, &mut restricted] {
        for key in &hot {
            client
                .query(key)
                .map_err(|e| format!("warm-up read failed: {e}"))?;
        }
    }
    let epoch: u64 = fleet.gather.clocks().iter().sum();
    let frames = plan.ops(READS);
    let job = |who: Who, lane: u64, frames: usize| ReadJob {
        who,
        keys: Keys::Hot(&hot),
        frames,
        batch: 1,
        rng: graphs::rng(plan.seed, if lane == 0 { "load-0" } else { "load-1" }),
        facts: &facts,
        epoch: Some(epoch),
        lane: traced.then_some(lane + 2),
    };
    let ([run0, run1], edge) = read_window(
        (&fleet.front, fleet.gather.service()),
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
    let served = quality(fleet.gather.service())?;
    drop((public, restricted));
    fleet.shutdown();
    // The drills each boot a fleet of their own; the window's memory is
    // this one's.
    put_peak_rss(&mut report)?;

    // --- Failover drills, each on a fresh fleet ------------------------------------------
    let mut drills = Vec::new();
    let mut recoveries = Vec::new();
    let mut regressions = watch.regressions + run0.watch.regressions + run1.watch.regressions;
    let (mut lag, mut visible) = (Vec::new(), Vec::new());
    let drill_count = if traced {
        traced_drills(plan)
    } else {
        plan.reps(ROUND_DRILLS)
    };
    for index in 0..drill_count {
        let outcome = drill(plan, &scratch, index, traced)?;
        drills.push(outcome.stages);
        recoveries.push(outcome.recovery_ns);
        regressions += outcome.regressions;
        report.tally.merge(outcome.tally);
        lag.extend(outcome.lag);
        visible.extend(outcome.visible);
    }
    report.put_median("recovery_p50_ms", &recoveries, 1e6);

    // --- The oracle ------------------------------------------------------------------------
    let mut oracle = None;
    if plan.verify {
        let oracle = oracle.insert(Oracle::for_gather());
        for op in &preload {
            oracle.apply(op)?;
        }
        let mut applied = 0;
        for k in &kept {
            for op in &writer.ops[applied..k.writes_before] {
                oracle.apply(op)?;
            }
            applied = k.writes_before;
            report
                .tally
                .check(oracle.verify(Who::Public, &k.request, &k.answer));
        }
        for op in &writer.ops[applied..] {
            oracle.apply(op)?;
        }
        verify_sampled(oracle, &run0.sampled, &mut report.tally);
        verify_sampled(oracle, &run1.sampled, &mut report.tally);
    }
    finish(&mut report, setup_ns, dataset, served.0, oracle.as_mut());

    let replay_reads = replay_frames(&run0, &run1);
    report.tally.merge(run0.tally);
    report.tally.merge(run1.tally);
    let mut spans = recorder.map(|r| r.spans).unwrap_or_default();
    spans.extend(run0.spans);
    spans.extend(run1.spans);
    Ok(Observed {
        report,
        spans,
        reads,
        read_rates,
        writes,
        fresh,
        edge,
        replay: ReplayInput {
            shape: Some(G300),
            base: preload,
            writes: writer.ops,
            reads_follow_writes: true,
            reads: replay_reads,
        },
        drills,
        regressions,
        lag,
        visible,
        durable_writes: Vec::new(),
        durable_writes_per_s: 0.0,
    })
}

/// Scratch space for drills run outside the `fleet` workload (the layer
/// sheet of the other workloads' traced passes).
pub fn drill_scratch(plan: &Plan) -> Result<Scratch, String> {
    Scratch::new(&Plan {
        data_dir: plan.data_dir.join("drills"),
        ..plan.clone()
    })
}
