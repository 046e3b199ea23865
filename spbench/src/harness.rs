//! What every workload stands on: a scratch directory, a served durable
//! store, connections opened in a fixed order, and the run's plan.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use plus_store::{AccountService, DurabilityOptions, Store};
use server::{Client, Server, ServerConfig};

use crate::check::Who;
use crate::spec::{Workload, FULL_SECONDS};
use crate::stats::now_ns;

/// A workload stops issuing operations after this much wall clock and
/// counts the ones it did not issue as failed.
pub const GUARD_NS: u64 = 120_000_000_000;

/// One pass of one workload: from which seed, at what size.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal seconds of measured work; scales every operation count.
    pub seconds: f64,
    /// Where scratch directories go.
    pub data_dir: PathBuf,
    /// Whether kept answers are compared with the oracle. The checks
    /// made on every answer as it arrives run regardless.
    pub verify: bool,
}

/// A whole round is this many nominal seconds of the run.
const ROUND_SECONDS: f64 = 2.0;

impl Plan {
    /// `full` operations at `FULL_SECONDS`, scaled to this pass; at
    /// least one.
    pub fn ops(&self, full: u64) -> usize {
        ((full as f64 * self.seconds / FULL_SECONDS).round() as usize).max(1)
    }

    /// A repetition count for something that is not the measured window
    /// (drills, write-then-read cycles on a static graph): `full` in a
    /// whole round, fewer below so that smoke passes stay short.
    pub fn reps(&self, full: usize) -> usize {
        ((full as f64 * self.seconds / ROUND_SECONDS).round() as usize).clamp(1, full)
    }

    /// The same plan at a tenth of the work: the traced pass.
    pub fn tenth(&self) -> Plan {
        Plan {
            seconds: self.seconds / 10.0,
            ..self.clone()
        }
    }

    /// The rounds of an untraced run: the whole workload, set-up
    /// included, several times over (`Workload::rounds`) at a quarter of
    /// the nominal seconds each, with the same inputs every time, and
    /// each metric is the median of its rounds' (`Report::of_rounds`).
    /// Interference comes in bursts of seconds, so a phase that takes a
    /// second (a drill, a handful of 300 ms reads) is either inside one
    /// or not; spread over rounds several seconds apart, most
    /// repetitions of every phase run undisturbed, and set-up is timed
    /// several times in a run. Only the last round pays for the oracle:
    /// the inputs being the same, it vouches for the kept answers of one
    /// round as well as another's. A run shorter than its rounds is one
    /// round.
    pub fn rounds(&self) -> Vec<Plan> {
        let count = if self.seconds >= ROUND_SECONDS {
            self.workload.rounds()
        } else {
            1
        };
        (0..count)
            .map(|round| Plan {
                seconds: if count == 1 {
                    self.seconds
                } else {
                    self.seconds / 4.0
                },
                verify: self.verify && round + 1 == count,
                ..self.clone()
            })
            .collect()
    }
}

/// Whether the wall-clock guard has expired for a window that started
/// at `started_ns`.
pub fn guard_expired(started_ns: u64) -> bool {
    now_ns().saturating_sub(started_ns) > GUARD_NS
}

/// A per-invocation scratch directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    pub fn new(plan: &Plan) -> Result<Scratch, String> {
        let root = plan.data_dir.join(format!(
            "{}-{}-{}",
            plan.workload.name(),
            plan.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", root.display()))?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A fresh, not yet created, subdirectory path.
    pub fn dir(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The flush policy of the stores the workloads' own windows serve: the
/// log is written through the page cache and not flushed per append,
/// so `write_p50_us` and `writes_per_s` are the program's share of a
/// write. With the library default (a flush per append) a write is
/// 97 % the sandbox's virtual disk, whose flush takes 190 us one second
/// and 320 us a few seconds later: timed in microseconds, no write
/// metric held still. The default policy is measured end to end by the
/// durable window (`workloads::durable`), in units of the device's own
/// flush time.
pub fn durability() -> DurabilityOptions {
    DurabilityOptions {
        fsync: false,
        ..DurabilityOptions::default()
    }
}

/// Event loops per server the bench binds, one per load connection.
/// It is `ServerConfig::default().threads` on the two-core sandbox the
/// numbers come from; stated, so that which loop serves which
/// connection does not depend on the machine or on the affinity of
/// whoever calls `Server::bind`.
pub const LOOPS: usize = 2;

/// Library-default tuning with `LOOPS` event loops.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        threads: LOOPS,
        ..ServerConfig::default()
    }
}

/// A durable store served on a loopback port by an in-process server
/// with library-default tuning plus remote writes.
pub struct Node {
    pub dir: PathBuf,
    pub store: Arc<Store>,
    pub service: Arc<AccountService>,
    pub server: Server,
}

impl Node {
    /// Recovers the durable store under `dir` with the windows' flush
    /// policy (see `durability`) and serves it.
    pub fn open(dir: &Path) -> Result<Node, String> {
        let store = Store::open_with(dir, durability())
            .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        Node::serve(store, dir)
    }

    /// Serves an already attached durable store.
    pub fn serve(store: Store, dir: &Path) -> Result<Node, String> {
        let store = Arc::new(store);
        let service = Arc::new(AccountService::new(store.clone()));
        let config = ServerConfig {
            allow_remote_write: true,
            ..server_config()
        };
        unpin()?;
        let server = Server::bind(service.clone(), "127.0.0.1:0", &config)
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        place_server_threads(1)?;
        Ok(Node {
            dir: dir.to_path_buf(),
            store,
            service,
            server,
        })
    }

    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Stops the server and lets go of the store, so the directory can
    /// be reopened.
    pub fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.dir
    }
}

/// Connects as one of the two bench consumers.
pub fn connect(addr: &str, who: Who) -> Result<Client, String> {
    let name = match who {
        Who::Public => "spbench-public",
        Who::Restricted => "spbench-restricted",
    };
    Client::connect(addr, name, who.claims()).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Dials (and drops) connections until the next one the server accepts
/// is due on event loop 0: the accept loop deals sockets round-robin.
pub fn align(server: &Server) -> Result<(), String> {
    let addr = server.local_addr().to_string();
    while server.stats().connections % LOOPS as u64 != 0 {
        connect(&addr, Who::Public)?;
    }
    Ok(())
}

/// Opens the two load connections so that connection `i` is served by
/// event loop `i`, dialling them in order from the calling thread.
/// Racing the connects made throughput bimodal.
pub fn connect_pair(server: &Server, who: [Who; 2]) -> Result<[Client; 2], String> {
    align(server)?;
    let addr = server.local_addr().to_string();
    Ok([connect(&addr, who[0])?, connect(&addr, who[1])?])
}

// The C library's affinity calls; `std` links it on every Unix.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as a bit mask over the first 64.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Result<u64, String> {
    static ALLOWED: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut mask = 0u64;
            // SAFETY: `mask` is a live, writable 8-byte buffer and its
            // size is passed with it; pid 0 is the calling thread.
            let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
            (rc == 0 && mask != 0).then_some(mask)
        })
        .ok_or_else(|| "sched_getaffinity names no CPU this process may run on".to_string())
}

/// Restricts thread `tid` (0: the calling thread) to `mask`.
#[cfg(target_os = "linux")]
fn set_affinity(tid: i32, mask: u64) -> Result<(), String> {
    // SAFETY: `mask` is a live 8-byte buffer and its size is passed
    // with it; the call changes scheduling only.
    if unsafe { sched_setaffinity(tid, 8, &mask) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({tid}, {mask:#x}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The `lane`-th allowed CPU (wrapping), as a mask.
#[cfg(target_os = "linux")]
fn lane_mask(lane: usize) -> Result<u64, String> {
    let allowed = allowed_cpus()?;
    let cpus: Vec<u32> = (0..64).filter(|bit| allowed >> bit & 1 == 1).collect();
    Ok(1 << cpus[lane % cpus.len()])
}

/// Pins the calling thread to the `lane`-th allowed CPU. Load
/// connection `lane` is served by event loop `lane` (see
/// `connect_pair`), and `place_server_threads` puts that loop on the
/// same CPU, so a round trip is two context switches on one core. Left
/// to itself the guest scheduler wandered between that placement (10 us
/// a round trip), client and loop on different cores (50 us: a halted
/// vCPU is slow to wake on this hypervisor) and everything on one core
/// (half the throughput), for seconds at a time.
///
/// Placement is part of what is measured, so a failure to place is an
/// error that ends the pass, not a run on whatever the scheduler does.
/// Off Linux there is nothing to place with and nothing is placed.
pub fn pin_here(lane: usize) -> Result<(), String> {
    #[cfg(target_os = "linux")]
    set_affinity(0, lane_mask(lane)?)?;
    #[cfg(not(target_os = "linux"))]
    let _ = lane;
    Ok(())
}

/// Lets the calling thread run on every allowed CPU again. Threads
/// inherit the affinity of whoever spawns them, so servers are started
/// between `unpin` and `place_server_threads`.
pub fn unpin() -> Result<(), String> {
    #[cfg(target_os = "linux")]
    set_affinity(0, allowed_cpus()?)?;
    Ok(())
}

/// The name `Server::bind` gives event loop `i`. It is the server's,
/// not part of its interface: if it changes, `place_server_threads`
/// finds no loop and says so.
#[cfg(target_os = "linux")]
const LOOP_THREAD_PREFIX: &str = "spgraph-shard-";

/// Every thread of this process as `(tid, name)`.
#[cfg(target_os = "linux")]
fn threads() -> Vec<(i32, String)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, name.trim().to_string()))
        })
        .collect()
}

/// Puts event loop `i` of each of the `servers` servers running in this
/// process on the `i`-th allowed CPU, and the calling thread back on
/// lane 0. A thread carries its spawner's name until it has started and
/// named itself, so this polls until it sees `servers` loops of every
/// index below `LOOPS` (a starved thread has been seen to take longer
/// than 100 ms to get there), and is an error if five seconds do not
/// produce them or a loop cannot be pinned. Called after anything that
/// starts servers.
pub fn place_server_threads(servers: usize) -> Result<(), String> {
    place_within(servers, 5_000_000_000)
}

fn place_within(servers: usize, patience_ns: u64) -> Result<(), String> {
    #[cfg(target_os = "linux")]
    {
        let deadline = now_ns() + patience_ns;
        let loops = loop {
            let loops: Vec<(i32, usize)> = threads()
                .into_iter()
                .filter_map(|(tid, name)| {
                    let index = name.strip_prefix(LOOP_THREAD_PREFIX)?.parse().ok()?;
                    Some((tid, index))
                })
                .collect();
            let mut found = [0usize; LOOPS];
            for &(_, index) in &loops {
                *found.get_mut(index).ok_or_else(|| {
                    format!("a server runs event loop {index}; the bench binds {LOOPS}")
                })? += 1;
            }
            if found == [servers; LOOPS] {
                break loops;
            }
            if now_ns() > deadline {
                return Err(format!(
                    "found {found:?} threads named {LOOP_THREAD_PREFIX}0..{LOOPS} where {servers} \
                     servers run: event loops cannot be placed, so no timing would mean what \
                     it says"
                ));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        for (tid, index) in loops {
            set_affinity(tid, lane_mask(index)?)?;
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (servers, patience_ns);
    pin_here(0)
}

/// `VmHWM` of this process, in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seconds: f64) -> Plan {
        Plan {
            workload: Workload::ReadHot,
            seed: 1,
            seconds,
            data_dir: std::env::temp_dir(),
            verify: true,
        }
    }

    #[test]
    fn counts_scale_with_seconds() {
        assert_eq!(plan(20.0).ops(3_000_000), 3_000_000);
        assert_eq!(plan(8.0).ops(3_000_000), 1_200_000);
        assert_eq!(plan(0.2).ops(1_000), 10);
        assert_eq!(plan(0.001).ops(10), 1);
        assert_eq!(plan(8.0).reps(5), 5);
        assert_eq!(plan(0.8).reps(5), 2);
        assert_eq!(plan(0.2).reps(5), 1);
    }

    #[test]
    fn a_run_is_rounds_of_two_seconds_and_the_last_is_verified() {
        let rounds = plan(8.0).rounds();
        assert_eq!(rounds.len(), Workload::ReadHot.rounds());
        assert!(rounds.iter().all(|r| r.seconds == 2.0 && r.seed == 1));
        assert!(plan(20.0).rounds().iter().all(|r| r.seconds == 5.0));
        let verified = rounds.iter().filter(|r| r.verify).count();
        assert!(verified == 1 && rounds.last().unwrap().verify);
        let smoke = plan(0.2).rounds();
        assert!(smoke.len() == 1 && smoke[0].seconds == 0.2 && smoke[0].verify);
    }

    #[test]
    fn scratch_directories_are_removed_on_drop() {
        let scratch = Scratch::new(&plan(1.0)).unwrap();
        let (a, b) = (scratch.dir("store"), scratch.dir("store"));
        assert_ne!(a, b);
        std::fs::create_dir_all(&a).unwrap();
        let root = a.parent().unwrap().to_path_buf();
        drop(scratch);
        assert!(!root.exists());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn placement_fails_loudly_when_the_event_loops_are_not_found() {
        // No server runs in this process, so no thread carries an event
        // loop's name: the same as a server that renamed its threads.
        let error = place_within(1, 10_000_000).unwrap_err();
        assert!(error.contains("cannot be placed"), "{error}");
        assert!(pin_here(0).is_ok() && pin_here(1).is_ok() && unpin().is_ok());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
