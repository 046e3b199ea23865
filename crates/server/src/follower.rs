//! The one feed follower: how a [`Replica`](crate::Replica) and every
//! slot of a [`Gather`](crate::Gather) stay subscribed to a primary's
//! write-ahead-log stream.
//!
//! A [`FeedFollower`] is a loop over one [`FeedSink`]: dial a peer from
//! its [`Source`], subscribe from the sink's clock, fold every chunk in,
//! and when the stream ends decide from the [`Backoff`] rule how soon to
//! dial again. The two owners differ only in what they plug in:
//!
//! | owner | sink | source |
//! |---|---|---|
//! | `Replica` | apply into its durable `Store` (cold: install the bootstrap snapshot first) | the one configured address |
//! | `Gather` slot | fence by term, fold into the `ShardMerge` slot, raise the served floor | the shard's candidates through `topology::resolve_writable` |
//!
//! Every feed connection is a [`Client`] dialled with a read deadline
//! ([`Client::dial`]): the same handshake and framing as any consumer,
//! then `Subscribe` turns it into a one-way stream of chunks.
//!
//! The owner and the follower share a [`FeedLink`]: the follower writes
//! link health into it, the owner reads status out of it and
//! [`halt`](FeedLink::halt)s the follower through it — which hangs up the
//! live socket and interrupts a back-off wait, so stopping (or promoting)
//! never waits for a timer.

use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use plus_store::wire::WalChunk;

use crate::client::Client;
use crate::error::{ClientError, ReplicaError};
use crate::topology::resolve_writable;

/// Link state a follower shares with its owner (and, through the owner,
/// with the server fronting it).
#[derive(Debug, Default)]
pub(crate) struct FeedLink {
    connected: AtomicBool,
    /// The peer's epoch as last observed from its chunks.
    peer_epoch: AtomicU64,
    /// The address last subscribed to: dialled first on the next
    /// resolution, and the breadcrumb status answers hand to clients.
    addr: Mutex<Option<String>>,
    last_error: Mutex<Option<String>>,
    /// A clone of the live feed socket, so [`halt`](Self::halt) can
    /// unblock a read parked on it.
    live: Mutex<Option<TcpStream>>,
    /// Raised once by [`halt`](Self::halt); `wake` interrupts a back-off
    /// wait when it is.
    halted: std::sync::Mutex<bool>,
    wake: Condvar,
}

impl FeedLink {
    /// A link whose follower will dial `addr` first.
    pub(crate) fn to(addr: String) -> FeedLink {
        FeedLink {
            addr: Mutex::new(Some(addr)),
            ..FeedLink::default()
        }
    }

    /// Whether a chunk has landed on the current stream.
    pub(crate) fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// Takes the link out of service ahead of the stream ending (the
    /// gather does, the instant it resets a slot).
    pub(crate) fn mark_down(&self) {
        self.connected.store(false, Ordering::Relaxed);
    }

    pub(crate) fn peer_epoch(&self) -> u64 {
        self.peer_epoch.load(Ordering::Relaxed)
    }

    pub(crate) fn addr(&self) -> Option<String> {
        self.addr.lock().clone()
    }

    pub(crate) fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    pub(crate) fn record_error(&self, error: &ReplicaError) {
        *self.last_error.lock() = Some(error.to_string());
    }

    /// Stops the follower for good: raises the flag it re-reads before
    /// every chunk, hangs up the socket it may be parked on, and
    /// interrupts the back-off wait it may be in.
    pub(crate) fn halt(&self) {
        *self.halted.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
        if let Some(stream) = self.live.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_halted(&self) -> bool {
        *self.halted.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits out `wait`, or less if halted meanwhile; `true` when halted.
    pub(crate) fn pause(&self, wait: Duration) -> bool {
        let deadline = Instant::now() + wait;
        let mut halted = self.halted.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if *halted || left.is_zero() {
                return *halted;
            }
            halted = self
                .wake
                .wait_timeout(halted, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// How soon to dial again after a stream ended: at once when the stream
/// was worth having — it advanced the sink's clock (which a failover
/// repair's slot reset also does), or outlived the cap — then 1ms
/// doubling up to the cap while attempts keep failing. A detected hangup
/// therefore costs no wait, and a peer that accepts, ships one empty
/// chunk and hangs up cannot turn "at once" into a spin: it never resets
/// the ramp.
#[derive(Debug)]
pub(crate) struct Backoff {
    cap: Duration,
    next: Duration,
}

impl Backoff {
    /// The first wait of a ramp that has started.
    const FIRST: Duration = Duration::from_millis(1);

    pub(crate) fn new(cap: Duration) -> Backoff {
        Backoff {
            cap,
            next: Duration::ZERO,
        }
    }

    /// The wait before the next dial, after an attempt that lasted
    /// `lived` and did or did not advance the sink's clock.
    pub(crate) fn after(&mut self, advanced: bool, lived: Duration) -> Duration {
        if advanced || lived >= self.cap {
            self.next = Duration::ZERO;
        }
        let wait = self.next;
        self.next = (wait * 2).max(Self::FIRST).min(self.cap);
        wait
    }
}

/// Where a follower's chunks go.
pub(crate) trait FeedSink {
    /// The clock the next subscription resumes from.
    fn clock(&self) -> u64;

    /// Vets a resolved primary's fencing term before subscribing to it.
    /// The default admits: a sink whose store fences every chunk needs
    /// no second opinion.
    fn admit(&mut self, _addr: &str, _term: u64) -> Result<(), ReplicaError> {
        Ok(())
    }

    /// Folds one chunk from `addr` in. An error ends the stream.
    fn fold(&mut self, addr: &str, chunk: WalChunk) -> Result<(), ReplicaError>;
}

/// Whom a follower dials.
pub(crate) enum Source {
    /// This address, whatever role it plays.
    Fixed(String),
    /// Whichever of these candidates (or a node their breadcrumbs lead
    /// to) identifies as the writable primary.
    Writable(Vec<String>),
}

/// See the [module docs](self).
pub(crate) struct FeedFollower<S> {
    sink: S,
    source: Source,
    link: Arc<FeedLink>,
    read_timeout: Duration,
    backoff: Backoff,
    /// The stream [`establish`](Self::establish) left open for
    /// [`run`](Self::run), with the address it came from.
    pending: Option<(Client, String)>,
}

impl<S: FeedSink> FeedFollower<S> {
    /// `reconnect_cap` bounds the wait between consecutive failed dials;
    /// `read_timeout` is the silence after which a feed socket counts as
    /// dead.
    pub(crate) fn new(
        sink: S,
        source: Source,
        link: Arc<FeedLink>,
        reconnect_cap: Duration,
        read_timeout: Duration,
    ) -> FeedFollower<S> {
        FeedFollower {
            sink,
            source,
            link,
            read_timeout,
            backoff: Backoff::new(reconnect_cap),
            pending: None,
        }
    }

    pub(crate) fn sink(&self) -> &S {
        &self.sink
    }

    /// Follows the feed until the link is halted.
    pub(crate) fn run(mut self) {
        while !self.link.is_halted() {
            if let Err((_, wait)) = self.attempt(false) {
                self.link.pause(wait);
            }
        }
        self.link.mark_down();
    }

    /// Dials until one chunk has been folded, at most `attempts` times,
    /// and leaves the stream open for [`run`](Self::run): the cold start
    /// of a sink that cannot serve before its first chunk. No wait
    /// follows the last failure.
    pub(crate) fn establish(&mut self, attempts: usize) -> Result<(), ReplicaError> {
        let mut left = attempts.max(1);
        loop {
            let Err((error, wait)) = self.attempt(true) else {
                return Ok(());
            };
            left -= 1;
            if left == 0 || self.link.pause(wait) {
                return Err(error);
            }
        }
    }

    /// One dial and the stream it opens. `Ok` when halted (or, with
    /// `first_only`, when the first chunk is in); otherwise why the
    /// stream ended and how long to wait before the next attempt.
    fn attempt(&mut self, first_only: bool) -> Result<(), (ReplicaError, Duration)> {
        let began = Instant::now();
        let from = self.sink.clock();
        let ended = self.stream(first_only);
        if self.pending.is_none() {
            *self.link.live.lock() = None;
        }
        ended.map_err(|error| {
            self.link.mark_down();
            self.link.record_error(&error);
            let advanced = self.sink.clock() != from;
            (error, self.backoff.after(advanced, began.elapsed()))
        })
    }

    fn stream(&mut self, first_only: bool) -> Result<(), ReplicaError> {
        let (mut conn, addr) = match self.pending.take() {
            Some(open) => open,
            None => self.dial()?,
        };
        // Registered before the halt flag is read: `halt` raises the
        // flag and then hangs up whatever is registered, so either the
        // check below sees the flag or the read after it fails.
        *self.link.live.lock() = conn.socket().ok();
        loop {
            if self.link.is_halted() {
                return Ok(());
            }
            let chunk = conn.next_chunk()?;
            let peer_epoch = chunk.primary_epoch;
            self.sink.fold(&addr, chunk)?;
            self.link.peer_epoch.store(peer_epoch, Ordering::Relaxed);
            // Connected only once a chunk lands: a reconnect must not
            // report caught-up against a peer epoch that predates the
            // disconnect (the first chunk refreshes it).
            self.link.connected.store(true, Ordering::Relaxed);
            *self.link.last_error.lock() = None;
            if first_only {
                self.pending = Some((conn, addr));
                return Ok(());
            }
        }
    }

    /// Resolves a peer, lets the sink vet it, and subscribes from the
    /// sink's clock.
    fn dial(&mut self) -> Result<(Client, String), ReplicaError> {
        let read_timeout = self.read_timeout;
        let (mut conn, addr) = match &self.source {
            Source::Fixed(addr) => (Client::dial(addr, read_timeout)?, addr.clone()),
            Source::Writable(candidates) => {
                let (conn, addr, status) = resolve_writable(self.link.addr(), candidates, |addr| {
                    let mut conn = Client::dial(addr, read_timeout).map_err(|e| e.to_string())?;
                    let (status, _) = conn.status().map_err(|e| e.to_string())?;
                    Ok((conn, status))
                })
                .map_err(|e| ClientError::Io(io::Error::new(io::ErrorKind::NotConnected, e)))?;
                // Fencing at resolve time, ahead of the sink's per-chunk
                // check: a repair it triggers happens *before* the
                // subscription, whose clock is then the post-reset one.
                self.sink.admit(&addr, status.term)?;
                (conn, addr)
            }
        };
        conn.subscribe(self.sink.clock())?;
        *self.link.addr.lock() = Some(addr.clone());
        Ok((conn, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The back-off state machine, socket-free: each step is how one
    /// attempt ended (did it advance the sink's clock, how long did it
    /// live) and the wait that must follow, all in microseconds.
    /// Mutations caught: a first wait that is not zero (the 100ms
    /// failover floor is back), a ramp that does not double or
    /// overshoots the cap, a reset on any folded chunk rather than on an
    /// advanced clock (the hang-up peer spins), and no reset at all (a
    /// healthy stream inherits the last outage's wait).
    #[test]
    fn backoff_is_free_once_then_doubles_to_the_cap() {
        struct Case {
            name: &'static str,
            cap: u64,
            /// `(advanced, lived, expected wait)` per attempt, in order.
            attempts: &'static [(bool, u64, u64)],
        }
        let cases = [
            Case {
                name: "consecutive failures: 0, 1, 2, 4 … cap, cap",
                cap: 10_000,
                attempts: &[
                    (false, 0, 0),
                    (false, 0, 1_000),
                    (false, 0, 2_000),
                    (false, 0, 4_000),
                    (false, 0, 8_000),
                    (false, 0, 10_000),
                    (false, 0, 10_000),
                ],
            },
            Case {
                name: "a stream that advanced the clock resets the ramp",
                cap: 100_000,
                attempts: &[
                    (false, 0, 0),
                    (false, 0, 1_000),
                    (false, 0, 2_000),
                    (true, 3_000, 0),
                    (false, 0, 1_000),
                ],
            },
            Case {
                name: "so does one that outlived the cap without advancing",
                cap: 100_000,
                attempts: &[
                    (false, 0, 0),
                    (false, 0, 1_000),
                    (false, 100_000, 0),
                    (false, 99_000, 1_000),
                ],
            },
            Case {
                name: "accept, ship one empty chunk, hang up: no reset, no spin",
                cap: 100_000,
                attempts: &[
                    (false, 1_000, 0),
                    (false, 1_000, 1_000),
                    (false, 1_000, 2_000),
                    (false, 1_000, 4_000),
                ],
            },
            Case {
                name: "a cap below the first step is still the cap",
                cap: 500,
                attempts: &[(false, 0, 0), (false, 0, 500), (false, 0, 500)],
            },
        ];
        for case in cases {
            let mut backoff = Backoff::new(Duration::from_micros(case.cap));
            for (step, &(advanced, lived, expected)) in case.attempts.iter().enumerate() {
                assert_eq!(
                    backoff.after(advanced, Duration::from_micros(lived)),
                    Duration::from_micros(expected),
                    "{}: attempt {step}",
                    case.name
                );
            }
        }
    }

    /// `stop` and promotion both end in [`FeedLink::halt`] (see
    /// `ReplicationMonitor::note_promoted`), and a halt interrupts any
    /// wait, however long. Mutation caught: a `halt` that raises the
    /// flag without notifying — the pause sleeps out its minute.
    #[test]
    fn a_halt_interrupts_any_wait() {
        let link = Arc::new(FeedLink::default());
        assert!(!link.pause(Duration::ZERO), "not halted: a wait just ends");
        let waiter = {
            let link = link.clone();
            std::thread::spawn(move || {
                let began = Instant::now();
                (link.pause(Duration::from_secs(60)), began.elapsed())
            })
        };
        link.halt();
        let (halted, waited) = waiter.join().unwrap();
        assert!(halted);
        assert!(
            waited < Duration::from_secs(30),
            "interrupted after {waited:?}"
        );
        assert!(link.pause(Duration::from_secs(60)), "and stays halted");
        assert!(link.is_halted());
    }
}
