//! The readiness-based TCP query server.
//!
//! One blocking accept thread performs **admission control** (connection
//! cap, best-effort typed [`WireErrorKind::Overloaded`] refusals) and
//! hands admitted sockets round-robin to a small set of **event-loop
//! shards** ([`ServerConfig::threads`] of them). Each shard owns a
//! [`reactor::Poller`] and a slab of nonblocking per-connection state
//! machines; it only touches connections the kernel reports ready, so
//! ten thousand idle connections cost ten thousand fds and their
//! buffers — not ten thousand threads. Requests are answered inline on
//! the shard: the sealed-frame cache makes the hot path a lookup plus a
//! queued refcount, far cheaper than a cross-thread handoff.
//!
//! # Connection protocol
//!
//! A connection must open with [`Request::Hello`]; the server resolves
//! the claimed predicate names against its lattice, derives the
//! connection's [`Consumer`] (empty claims = Public), and answers with
//! its own Hello. Every later frame is a query, epoch probe, or
//! checkpoint request. Recoverable failures come back as typed
//! [`Response::Error`] frames and leave the connection open; a malformed
//! frame (bad checksum, oversized length, undecodable payload) gets a
//! best-effort error frame and a hangup — the server never guesses at
//! intent.
//!
//! # Admission control and backpressure
//!
//! Three levers keep an overloaded or hostile client from taking the
//! server down with it, each answering with the retryable
//! [`WireErrorKind::Overloaded`] where a reply is still possible:
//!
//! * **Connection cap** ([`ServerConfig::max_conns`]): past it the
//!   accept thread refuses the dial with a best-effort `Overloaded`
//!   frame and closes — no shard ever owns the socket.
//! * **Per-consumer rate limits** ([`ServerConfig::rate_limit`]): a
//!   token bucket per (peer IP, consumer name) pair — resolved at
//!   Hello, shared across that consumer's connections from that
//!   address; an exhausted bucket refuses the request but keeps the
//!   connection. Names arrive unauthenticated, so the source address
//!   in the key stops one client from draining a name it spoofed.
//! * **Write backpressure**: responses queue per connection (cached
//!   frames by refcount, never copied); past a high-water mark the shard
//!   stops *reading* that connection until the queue drains, so a slow
//!   reader's memory is bounded by roughly the mark plus one frame. A
//!   connection making no write progress for
//!   [`ServerConfig::write_stall_timeout`] is closed and counted as an
//!   overload drop.
//!
//! Connections that never complete a Hello are reaped after
//! [`ServerConfig::handshake_timeout`]; an optional
//! [`ServerConfig::idle_timeout`] reaps quiet post-handshake
//! connections.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (or drop) stops accepting and **drains**: every
//! in-flight request completes (requests run inline, so none are ever
//! abandoned half-executed), queued-but-unsent responses flush, all
//! bounded by [`ServerConfig::drain_timeout`]; then sockets close and
//! every thread joins. Idle connections close immediately.
//!
//! # Replication
//!
//! Replication subscriptions do not stay on the event loops: an accepted
//! [`Request::Subscribe`] *extracts* the socket from its shard, flips it
//! back to blocking, and hands it to a dedicated feeder thread for the
//! subscriber's lifetime — a feeder pushes a continuous WAL stream and
//! has none of the request/response rhythm the reactor is shaped for.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use plus_store::codec::{crc32, seal_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use plus_store::wal;
use plus_store::wire::{
    decode_request, encode_response, ReplicaRole, ReplicaStatus, Request, Response, ServerHello,
    ShardStatusInfo, WalChunk, WireError, WireErrorKind, WriteOp, PROTOCOL_VERSION,
};
use plus_store::{AccountService, CodecError, QueryRequest, Store, StoreError};
use reactor::{Events, Interest, Poller, Token, Waker};
use surrogate_core::credential::Consumer;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::Partition;

use crate::admission::RateLimiter;
use crate::metrics::{self, FeedChunkKind, OverloadReason, RequestType, ServerMetrics};
use crate::replica::ReplicationMonitor;
use crate::scatter::Gather;
use crate::topology::Topology;

/// What a server *is* in its deployment — the topology role the unified
/// [`Server::bind`] constructor serves under.
///
/// One server binary, four shapes. The role decides which requests are
/// honored, how queries are gated, and what the server announces about
/// the deployment in its `Status` answers:
///
/// * [`Primary`](Role::Primary) — an ordinary single-store server (the
///   default).
/// * [`Replica`](Role::Replica) — fronts a
///   [`Replica`](crate::Replica)'s store read-only, answering
///   `Status` with the live feed state and refusing writes with a
///   `NotWritable` redirect to the primary.
/// * [`Shard`](Role::Shard) — one shard primary of a partitioned
///   deployment: point reads and routed writes for the ids it owns,
///   typed `WrongShard` redirects for the rest. Composes with a
///   replication feed (`feed: Some(monitor)`) for a **shard replica**
///   that serves read-only until promoted.
/// * [`Gather`](Role::Gather) — fronts a [`Gather`]'s merged graph,
///   refusing cross-shard queries while any feed is down rather than
///   answering with a silent gap.
#[derive(Clone, Default)]
#[non_exhaustive]
pub enum Role {
    /// An ordinary single-store server: serves queries, owns its store.
    #[default]
    Primary,
    /// Fronts a replica store: read-only at the feed's (possibly
    /// lagging) epoch until the monitor is promoted.
    Replica {
        /// The replica's monitor, from
        /// [`Replica::monitor`](crate::Replica::monitor).
        feed: Arc<ReplicationMonitor>,
    },
    /// One shard primary (or shard replica) of a partitioned
    /// deployment. The bound service must be backed by a store
    /// partitioned exactly `index`/`count`
    /// ([`Store::create_durable_partitioned`]); remote writes are
    /// implied on.
    Shard {
        /// This server's shard slot.
        index: u32,
        /// The deployment's shard count.
        count: u32,
        /// The full deployment map (primaries and replica sets, in
        /// shard order), so `WrongShard` redirects carry the owner's
        /// address and `Status` announces the primaries and replica
        /// table. An empty (default) topology degrades redirects to
        /// decimal shard indexes.
        topology: Topology,
        /// `Some` when this shard server fronts a
        /// [`Replica`](crate::Replica) that has not been promoted yet —
        /// a **shard replica**: it refuses writes with `NotWritable`
        /// until promotion, then serves as the shard's new primary.
        feed: Option<Arc<ReplicationMonitor>>,
    },
    /// Fronts a [`Gather`]'s merged multi-shard graph. The bound
    /// service must be the gather's own ([`Gather::service`]).
    Gather {
        /// The running gather whose merge this server serves.
        gather: Arc<Gather>,
    },
}

impl std::fmt::Debug for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Primary => f.write_str("Primary"),
            Role::Replica { .. } => f.write_str("Replica"),
            Role::Shard { index, count, .. } => write!(f, "Shard({index}/{count})"),
            Role::Gather { .. } => f.write_str("Gather"),
        }
    }
}

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The topology role this server fills — see [`Role`]. Defaults to
    /// [`Role::Primary`].
    pub role: Role,
    /// Event-loop shards. Each owns its own poller and slab of
    /// connections; accepted sockets are dealt round-robin.
    pub threads: usize,
    /// Whether remote [`Request::Checkpoint`] frames are honored.
    /// Off by default: checkpointing is an operator action (it drives
    /// owner-side disk I/O), and the Hello handshake verifies nothing,
    /// so an open socket should not expose it to every consumer.
    pub allow_remote_checkpoint: bool,
    /// Whether [`Request::Subscribe`] frames are honored. Off by
    /// default — and **dangerous to enable on a consumer-facing
    /// socket**: the replication stream ships *raw* write-ahead-log
    /// records (original labels, features, policy), not protected
    /// views. Enable it only on a socket that stays inside the owner's
    /// trust domain (`spgraph serve --allow-replication`).
    pub allow_replication: bool,
    /// Whether [`Request::Write`] frames are honored. Off by default:
    /// the query socket serves *protected* views, and the Hello
    /// handshake verifies nothing, so writes over the wire belong only
    /// on sockets inside the owner's trust domain — the shard primaries
    /// of a partitioned deployment (`spgraph serve --shard i/n`, which
    /// implies it).
    pub allow_remote_write: bool,
    /// Most sockets the server will own at once (event loops plus
    /// feeders). Dials past the cap are refused at accept with a
    /// best-effort [`WireErrorKind::Overloaded`] frame.
    pub max_conns: usize,
    /// Per-consumer sustained request-frames-per-second budget (bursts
    /// up to one second's worth). `None` (the default) disables rate
    /// limiting. Buckets are keyed by (peer IP, consumer name as
    /// claimed at Hello), shared across all of that consumer's
    /// connections from that address — names are unauthenticated, so
    /// the address scope keeps a spoofed name from draining the real
    /// consumer's budget and gives anonymous clients per-address
    /// buckets instead of one shared one.
    pub rate_limit: Option<u64>,
    /// Where to serve the Prometheus `GET /metrics` endpoint; `None`
    /// (the default) disables it. Always a separate listener so
    /// observability survives query-socket saturation.
    pub metrics_addr: Option<SocketAddr>,
    /// How long a connection may sit without completing its Hello
    /// before being reaped (connect-and-never-speak costs one fd, not
    /// one forever).
    pub handshake_timeout: Duration,
    /// Reap a post-handshake connection after this much quiet. `None`
    /// (the default) keeps idle connections forever — connection pools
    /// rely on that.
    pub idle_timeout: Option<Duration>,
    /// How long a connection with queued responses may make zero write
    /// progress before it is closed as an overload drop (the
    /// stopped-reading client).
    pub write_stall_timeout: Duration,
    /// Shutdown grace: how long the drain (flushing queued responses)
    /// may take before remaining sockets are closed hard.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        Self {
            role: Role::Primary,
            threads,
            allow_remote_checkpoint: false,
            allow_replication: false,
            allow_remote_write: false,
            max_conns: 16 * 1024,
            rate_limit: None,
            metrics_addr: None,
            handshake_timeout: Duration::from_secs(10),
            idle_timeout: None,
            write_stall_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotone counters describing a server's lifetime traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections that completed a Hello handshake.
    pub connections: u64,
    /// Request frames answered (Hello excluded).
    pub requests: u64,
    /// Connections hung up on for a malformed frame or protocol
    /// violation.
    pub hangups: u64,
    /// Replication subscriptions accepted (feeder loops entered).
    pub subscriptions: u64,
    /// Snapshots shipped to backfilling subscribers. A warm subscriber
    /// resuming from its local clock never costs one.
    pub snapshots_shipped: u64,
    /// Connections or requests shed by admission control (connection
    /// cap, rate limit, write stall).
    pub overload_drops: u64,
    /// Connections reaped by the handshake or idle timeout.
    pub idle_reaped: u64,
}

/// Outbound queue high-water mark: a connection with more unsent bytes
/// than this stops being read until it drains (backpressure).
const OUT_HIGH_WATER: usize = 1 << 20;
/// Resume reading once the queue drains below this.
const OUT_LOW_WATER: usize = OUT_HIGH_WATER / 2;
/// Most bytes read from one connection per readiness event, so a
/// firehose cannot starve its shard-mates (level-triggered readiness
/// re-reports the rest immediately).
const READ_BUDGET: usize = 256 << 10;
/// How often a shard sweeps its slab for timed-out connections.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);
/// The waker's slot in each shard's token space.
const WAKE_TOKEN: Token = Token(u64::MAX);

/// A running query server. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the accept loop, drains live
/// connections, and joins all threads.
pub struct Server {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    inboxes: Vec<Arc<ShardInbox>>,
    shards: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    feeders: Arc<FeederSet>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Binds `addr` and starts serving `service` under
    /// [`ServerConfig::role`] — the **one** constructor every topology
    /// role goes through.
    ///
    /// * [`Role::Primary`] needs nothing else.
    /// * [`Role::Replica`] serves `replica.service().clone()` read-only;
    ///   pass `feed: replica.monitor()`.
    /// * [`Role::Shard`] requires `service` to be backed by a store
    ///   partitioned exactly `index`/`count`
    ///   ([`Store::create_durable_partitioned`]); a non-empty topology
    ///   must agree on the shard count. Remote writes are forced on.
    /// * [`Role::Gather`] requires `service` to be the gather's own
    ///   ([`Gather::service`]).
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] when the service and
    /// the role disagree.
    pub fn bind(
        service: Arc<AccountService>,
        addr: impl ToSocketAddrs,
        config: &ServerConfig,
    ) -> io::Result<Server> {
        let mut config = config.clone();
        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidInput, message);
        let (monitor, shard) = match config.role.clone() {
            Role::Primary => (None, None),
            Role::Replica { feed } => (Some(feed), None),
            Role::Shard {
                index,
                count,
                topology,
                feed,
            } => {
                let partition = service
                    .store()
                    .and_then(|store| store.partition())
                    .ok_or_else(|| {
                        invalid(
                            "Role::Shard needs a partitioned store \
                             (Store::create_durable_partitioned)"
                                .to_string(),
                        )
                    })?;
                if (partition.index(), partition.count()) != (index, count) {
                    return Err(invalid(format!(
                        "Role::Shard says shard {index}/{count} but the store is \
                         partitioned {}/{}",
                        partition.index(),
                        partition.count()
                    )));
                }
                if !topology.is_empty() && topology.shard_count() != count {
                    return Err(invalid(format!(
                        "topology names {} shards but the store is partitioned {count}-way",
                        topology.shard_count()
                    )));
                }
                config.allow_remote_write = true;
                let role = Arc::new(ShardRole::Shard {
                    partition,
                    peers: topology.primaries(),
                    replicas: topology.replica_table(),
                });
                (feed, Some(role))
            }
            Role::Gather { gather } => {
                if !Arc::ptr_eq(&service, gather.service()) {
                    return Err(invalid(
                        "Role::Gather must bind the gather's own service \
                         (pass gather.service().clone())"
                            .to_string(),
                    ));
                }
                (None, Some(Arc::new(ShardRole::Gather(gather))))
            }
        };
        Self::bind_inner(service, addr, config, monitor, shard)
    }

    fn bind_inner(
        service: Arc<AccountService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        monitor: Option<Arc<ReplicationMonitor>>,
        shard: Option<Arc<ShardRole>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_metrics = Arc::new(ServerMetrics::default());
        let feeders = Arc::new(FeederSet::default());

        let (metrics_addr, metrics_thread) = match config.metrics_addr {
            Some(addr) => {
                let (bound, handle) = metrics::spawn_metrics_listener(
                    addr,
                    server_metrics.clone(),
                    service.clone(),
                    monitor.clone(),
                    shutdown.clone(),
                )?;
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };

        let threads = config.threads.max(1);
        let max_conns = config.max_conns;
        let ctx = Arc::new(ShardCtx {
            service,
            metrics: server_metrics.clone(),
            limiter: config.rate_limit.map(RateLimiter::new),
            config,
            monitor,
            shutdown: shutdown.clone(),
            feeders: feeders.clone(),
            shard,
        });

        let mut inboxes = Vec::with_capacity(threads);
        let mut shards = Vec::with_capacity(threads);
        for i in 0..threads {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, WAKE_TOKEN)?;
            let inbox = Arc::new(ShardInbox {
                queue: Mutex::new(Vec::new()),
                waker,
            });
            inboxes.push(inbox.clone());
            let ctx = ctx.clone();
            shards.push(
                std::thread::Builder::new()
                    .name(format!("spgraph-shard-{i}"))
                    .spawn(move || {
                        Shard {
                            poller,
                            inbox,
                            ctx,
                            slab: Slab::default(),
                        }
                        .run()
                    })
                    .expect("spawn shard thread"),
            );
        }

        let accept = {
            let shutdown = shutdown.clone();
            let inboxes = inboxes.clone();
            let metrics = server_metrics.clone();
            std::thread::Builder::new()
                .name("spgraph-accept".into())
                .spawn(move || accept_loop(listener, shutdown, inboxes, metrics, max_conns))
                .expect("spawn accept thread")
        };

        Ok(Server {
            local_addr,
            metrics_addr,
            shutdown,
            metrics: server_metrics,
            inboxes,
            shards,
            accept: Some(accept),
            feeders,
            metrics_thread,
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The address the Prometheus `GET /metrics` endpoint actually
    /// bound (resolves `:0`); `None` when
    /// [`ServerConfig::metrics_addr`] was not set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The live instrument registry — every counter, gauge, and latency
    /// histogram the `/metrics` endpoint renders, readable in-process.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.metrics.connections_total.get(),
            requests: self.metrics.requests_total(),
            hangups: self.metrics.hangups.get(),
            subscriptions: self.metrics.subscriptions_total.get(),
            snapshots_shipped: self.metrics.snapshots_shipped.get(),
            overload_drops: self.metrics.overload_drops_total(),
            idle_reaped: self.metrics.idle_reaped.get(),
        }
    }

    /// Stops accepting, drains and hangs up every live connection
    /// (bounded by [`ServerConfig::drain_timeout`]), and joins all
    /// threads. Equivalent to dropping the server, but explicit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Shards poll with a bounded timeout, so a wake just shortens
        // the latency of noticing the flag.
        for inbox in &self.inboxes {
            let _ = inbox.waker.wake();
        }
        // Unblock the accept loop with a wake-up connection; it
        // re-checks the flag per accepted connection. A wildcard bind
        // (0.0.0.0 / ::) is not dialable on every platform, so rewrite
        // it to the matching loopback.
        let woke = TcpStream::connect_timeout(
            &dialable(self.local_addr),
            std::time::Duration::from_secs(1),
        )
        .is_ok();
        // A caught-up feeder is parked on its store's clock, not on its
        // socket: `close_all` wakes each one to re-read the flag raised
        // above, besides closing the socket a busy one is writing to.
        for feeder in self.feeders.close_all() {
            let _ = feeder.join();
        }
        // Shards drain (flush queued responses, bounded) and exit; they
        // never block indefinitely, so these joins always complete.
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        if woke {
            if let Some(accept) = self.accept.take() {
                let _ = accept.join();
            }
        } else {
            // The wake-up could not be delivered (e.g. a firewalled
            // self-connect): the accept thread stays parked in
            // `accept()`; detach it instead of deadlocking the caller.
            self.accept.take();
        }
        if let Some(handle) = self.metrics_thread.take() {
            // Same trick for the scrape listener's blocking accept.
            let addr = self.metrics_addr.expect("metrics thread implies addr");
            if TcpStream::connect_timeout(&dialable(addr), Duration::from_secs(1)).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Rewrites a wildcard address (0.0.0.0 / ::) to the matching loopback
/// so it can be dialed for a wake-up connection.
fn dialable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

// ---------------------------------------------------------------------------
// Accept thread: admission control and shard handoff
// ---------------------------------------------------------------------------

/// Where the accept thread parks admitted sockets for a shard, plus the
/// waker that tells the shard to look.
struct ShardInbox {
    queue: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

fn accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    inboxes: Vec<Arc<ShardInbox>>,
    metrics: Arc<ServerMetrics>,
    max_conns: usize,
) {
    let mut next_shard = 0usize;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            // A handful of per-connection errors (the peer aborted
            // mid-handshake) resolve themselves; anything else —
            // EMFILE/ENFILE above all, which is exactly what an fd
            // flood produces — persists, and retrying instantly would
            // pin a core at 100%. Back off briefly instead.
            Err(e) => {
                if !matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                ) {
                    std::thread::sleep(Duration::from_millis(50));
                }
                continue;
            }
        };
        // Admission: the connection cap bounds every socket the server
        // owns (event loops + feeders). Refusing *here* means no shard
        // ever spends a slab slot or a buffer on the socket.
        if metrics.connections_open.get() >= max_conns as i64 {
            metrics.count_overload(OverloadReason::ConnCap);
            shed_connection(stream, max_conns);
            continue;
        }
        metrics.connections_open.inc();
        // Per-round-trip latency is the product metric; never batch tiny
        // frames behind Nagle.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            metrics.connections_open.dec();
            continue;
        }
        let inbox = &inboxes[next_shard];
        next_shard = (next_shard + 1) % inboxes.len();
        inbox.queue.lock().push(stream);
        let _ = inbox.waker.wake();
    }
}

/// Best-effort typed refusal for a dial past the connection cap, then
/// close. Short write timeout: the server will not wait on a client it
/// is refusing.
fn shed_connection(mut stream: TcpStream, max_conns: usize) {
    let error = Response::Error(WireError::new(
        WireErrorKind::Overloaded,
        format!("connection cap ({max_conns}) reached; retry later or against a replica"),
    ));
    if let Ok(payload) = encode_response(&error) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = stream.write_all(&seal_frame(&payload));
    }
}

// ---------------------------------------------------------------------------
// Shards: the event loops
// ---------------------------------------------------------------------------

/// Everything a shard (or feeder) needs, shared across all of them.
struct ShardCtx {
    service: Arc<AccountService>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
    monitor: Option<Arc<ReplicationMonitor>>,
    shutdown: Arc<AtomicBool>,
    limiter: Option<RateLimiter>,
    feeders: Arc<FeederSet>,
    shard: Option<Arc<ShardRole>>,
}

/// What this server is in a partitioned deployment, when it is part of
/// one. (The event-loop "shards" above are an unrelated use of the
/// word: those split *connections* across threads, these split the
/// *keyspace* across servers.)
enum ShardRole {
    /// One shard primary: serves point reads for the ids its partition
    /// owns, accepts writes routed here, refuses the rest with typed
    /// redirects. `peers` (when non-empty) names every shard's address
    /// in shard order, so redirects can carry the owner's address.
    Shard {
        partition: Partition,
        peers: Vec<String>,
        /// Per-shard replica addresses (shard order, possibly empty) —
        /// announced in `Status` answers so clients and gathers can
        /// find promotion candidates without an out-of-band directory.
        replicas: Vec<Vec<String>>,
    },
    /// A gather node: serves cross-shard queries over the merged graph,
    /// redirects writes to the owning shard.
    Gather(Arc<Gather>),
}

/// Where a connection is in its protocol lifecycle.
enum Phase {
    /// Waiting for the opening Hello.
    AwaitHello,
    /// Handshake done; every request is answered through the session's
    /// protected account.
    Serving(Session),
}

/// The post-Hello identity a connection serves under. `Arc` fields so
/// request handling can hold the session while mutating the
/// connection's queues.
#[derive(Clone)]
struct Session {
    consumer: Arc<Consumer>,
    /// Rate-limit bucket key: peer IP plus resolved consumer name.
    /// Names arrive unauthenticated in the Hello, so a name alone would
    /// let a hostile client drain a victim's budget by claiming it —
    /// and would pool every anonymous client into one shared bucket.
    /// Scoping by source address keeps a consumer's budget shared
    /// across its own connections without either failure mode.
    limit_key: Arc<str>,
}

/// One queued response frame: either a refcounted sealed frame straight
/// from the service's cache (never copied per connection) or an owned
/// one-off encode.
enum OutFrame {
    Shared(Bytes),
    Owned(Vec<u8>),
}

impl OutFrame {
    fn bytes(&self) -> &[u8] {
        match self {
            OutFrame::Shared(b) => b,
            OutFrame::Owned(v) => v,
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    token: Token,
    phase: Phase,
    /// Unconsumed inbound bytes (at most one partial frame plus read
    /// slack once the parser has run).
    inbuf: Vec<u8>,
    outq: VecDeque<OutFrame>,
    /// Bytes of the front frame already written.
    out_head: usize,
    /// Total unwritten bytes across the queue.
    out_bytes: usize,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Backpressured: outbound queue above high water; reads paused.
    paused: bool,
    /// Close once the outbound queue drains (hangups flush their
    /// best-effort error frame first).
    close_after_flush: bool,
    /// The peer finished sending (EOF observed).
    eof: bool,
    opened: Instant,
    last_read: Instant,
    /// When the outbound queue last shrank (or first took on debt after
    /// being empty). The sweep reaps a connection still owing bytes
    /// whose clock is older than the write-stall timeout — a clock
    /// rather than a "stall observed" flag, because a stopped reader
    /// generates no further events for a flush pass to observe.
    last_write_progress: Instant,
}

impl Conn {
    fn queue(&mut self, frame: OutFrame) {
        if self.out_bytes == 0 {
            // New debt after a clean slate: the stall clock starts now,
            // not at whatever the last drain happened to leave behind.
            self.last_write_progress = Instant::now();
        }
        self.out_bytes += frame.bytes().len();
        self.outq.push_back(frame);
        if self.out_bytes > OUT_HIGH_WATER {
            self.paused = true;
        }
    }
}

/// What an event (or sweep) decided about a connection.
enum Verdict {
    Keep,
    Close,
    /// An accepted subscription: extract the socket for a feeder.
    Handoff(HandoffFeed),
}

/// A validated subscription handed from a shard to its feeder thread.
struct HandoffFeed {
    /// The durable store to tail, and the directory its log lives in.
    store: Arc<Store>,
    dir: PathBuf,
    from_clock: u64,
}

/// Generation-tagged connection slab. Tokens pack `generation << 32 |
/// index` so an event raced against a close (same index, new socket)
/// is detected and dropped instead of misdelivered.
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    next_gen: u32,
}

impl Slab {
    fn insert(&mut self, make: impl FnOnce(Token) -> Conn) -> &mut Conn {
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = Token((u64::from(gen) << 32) | idx as u64);
        self.conns[idx] = Some(make(token));
        self.conns[idx].as_mut().expect("just inserted")
    }

    /// The live connection a token refers to, if its generation still
    /// matches.
    fn get_mut(&mut self, token: Token) -> Option<&mut Conn> {
        let idx = (token.0 & 0xffff_ffff) as usize;
        match self.conns.get_mut(idx) {
            Some(Some(conn)) if conn.token == token => self.conns[idx].as_mut(),
            _ => None,
        }
    }

    fn remove(&mut self, token: Token) -> Option<Conn> {
        let idx = (token.0 & 0xffff_ffff) as usize;
        match self.conns.get(idx) {
            Some(Some(conn)) if conn.token == token => {
                self.free.push(idx as u32);
                self.conns[idx].take()
            }
            _ => None,
        }
    }

    fn is_empty(&self) -> bool {
        self.conns.iter().all(Option::is_none)
    }

    fn tokens(&self) -> Vec<Token> {
        self.conns.iter().flatten().map(|conn| conn.token).collect()
    }
}

struct Shard {
    poller: Poller,
    inbox: Arc<ShardInbox>,
    ctx: Arc<ShardCtx>,
    slab: Slab,
}

impl Shard {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            let timeout = if draining {
                Duration::from_millis(20)
            } else {
                SWEEP_INTERVAL
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller cannot serve; close everything.
                break;
            }
            if !draining && self.ctx.shutdown.load(Ordering::SeqCst) {
                draining = true;
                drain_deadline = Instant::now() + self.ctx.config.drain_timeout;
                self.begin_drain();
            }
            let mut saw_wake = false;
            for event in events.iter() {
                if event.token() == WAKE_TOKEN {
                    saw_wake = true;
                    continue;
                }
                let verdict = match self.slab.get_mut(event.token()) {
                    Some(conn) => {
                        if event.is_error() {
                            Verdict::Close
                        } else {
                            on_event(&self.poller, &self.ctx, conn, event.is_readable(), draining)
                        }
                    }
                    None => continue, // raced a close; stale token
                };
                self.settle(event.token(), verdict);
            }
            if saw_wake {
                self.inbox.waker.drain();
            }
            // Collect handed-off sockets every pass (cheap), not only on
            // wake events: a wake raced against the previous drain must
            // not strand a socket until the next timeout.
            self.adopt_new(draining);
            let now = Instant::now();
            if draining {
                if self.slab.is_empty() || now >= drain_deadline {
                    self.close_all();
                    break;
                }
            } else if now >= next_sweep {
                next_sweep = now + SWEEP_INTERVAL;
                self.sweep(now);
            }
        }
    }

    /// Moves sockets from the inbox into the slab (or drops them during
    /// drain — the accept thread has already stopped, these raced it).
    fn adopt_new(&mut self, draining: bool) {
        let streams: Vec<TcpStream> = {
            let mut queue = self.inbox.queue.lock();
            if queue.is_empty() {
                return;
            }
            queue.drain(..).collect()
        };
        for stream in streams {
            if draining {
                self.ctx.metrics.connections_open.dec();
                continue;
            }
            let now = Instant::now();
            let conn = self.slab.insert(|token| Conn {
                stream,
                token,
                phase: Phase::AwaitHello,
                inbuf: Vec::with_capacity(512),
                outq: VecDeque::new(),
                out_head: 0,
                out_bytes: 0,
                interest: Interest::READABLE,
                paused: false,
                close_after_flush: false,
                eof: false,
                opened: now,
                last_read: now,
                last_write_progress: now,
            });
            let token = conn.token;
            if self
                .poller
                .register(&conn.stream, token, Interest::READABLE)
                .is_err()
            {
                self.slab.remove(token);
                self.ctx.metrics.connections_open.dec();
            }
        }
    }

    fn settle(&mut self, token: Token, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {}
            Verdict::Close => self.close(token),
            Verdict::Handoff(feed) => self.handoff(token, feed),
        }
    }

    fn close(&mut self, token: Token) {
        if let Some(conn) = self.slab.remove(token) {
            let _ = self.poller.deregister(&conn.stream);
            self.ctx.metrics.connections_open.dec();
        }
    }

    /// Extracts an accepted subscriber from the event loop onto a
    /// dedicated blocking feeder thread (streaming WAL for its
    /// lifetime must not occupy the reactor).
    fn handoff(&mut self, token: Token, feed: HandoffFeed) {
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(&conn.stream);
        if conn.stream.set_nonblocking(false).is_err() {
            self.ctx.metrics.connections_open.dec();
            return;
        }
        self.ctx.metrics.subscriptions_total.inc();
        spawn_feeder(self.ctx.clone(), conn, feed);
    }

    /// Entering drain: stop reading everywhere, close already-flushed
    /// connections immediately, keep the rest only to flush.
    fn begin_drain(&mut self) {
        for token in self.slab.tokens() {
            let conn = self.slab.get_mut(token).expect("token just listed");
            if conn.out_bytes == 0 {
                self.close(token);
            } else {
                conn.close_after_flush = true;
                update_interest(&self.poller, conn, true);
            }
        }
    }

    fn close_all(&mut self) {
        for token in self.slab.tokens() {
            self.close(token);
        }
    }

    /// Reaps timed-out connections: unfinished handshakes, optional
    /// idle, and write-stalled peers.
    fn sweep(&mut self, now: Instant) {
        for token in self.slab.tokens() {
            let conn = self.slab.get_mut(token).expect("token just listed");
            let config = &self.ctx.config;
            let reap = if conn.out_bytes > 0 {
                // Owed bytes with no recent write progress: the peer
                // stopped reading. Judged from the progress clock, not
                // from flush passes — a stopped reader produces no
                // events, so no flush pass would run to observe it.
                let stalled = now.saturating_duration_since(conn.last_write_progress)
                    > config.write_stall_timeout;
                if stalled {
                    self.ctx.metrics.count_overload(OverloadReason::WriteStall);
                }
                stalled
            } else if matches!(conn.phase, Phase::AwaitHello) {
                let late = now.saturating_duration_since(conn.opened) > config.handshake_timeout;
                if late {
                    self.ctx.metrics.idle_reaped.inc();
                }
                late
            } else if let Some(idle) = config.idle_timeout {
                let quiet =
                    conn.out_bytes == 0 && now.saturating_duration_since(conn.last_read) > idle;
                if quiet {
                    self.ctx.metrics.idle_reaped.inc();
                }
                quiet
            } else {
                false
            };
            if reap {
                self.close(token);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection event handling
// ---------------------------------------------------------------------------

/// Drives one ready connection: read, parse/execute, flush, retune
/// interest. Returns what to do with it.
fn on_event(
    poller: &Poller,
    ctx: &ShardCtx,
    conn: &mut Conn,
    readable: bool,
    draining: bool,
) -> Verdict {
    if readable && !conn.paused && !conn.close_after_flush && !conn.eof && !draining {
        match fill_inbuf(ctx, conn) {
            Fill::Progress => conn.last_read = Instant::now(),
            Fill::Idle => {}
            Fill::Eof => conn.eof = true,
            Fill::Gone => return Verdict::Close,
        }
    }
    // Parse/flush cycle. Flushing below low water unpauses the
    // connection, and the bytes already sitting in `inbuf` will never
    // re-trigger level-triggered readiness — so a successful unpause
    // loops back to the parser.
    loop {
        if !conn.paused && !conn.close_after_flush && !draining {
            if let Parsed::Handoff(feed) = parse_frames(ctx, conn) {
                return Verdict::Handoff(feed);
            }
        }
        match flush_out(ctx, conn) {
            Flush::Gone => return Verdict::Close,
            Flush::Unpaused => continue,
            Flush::Settled => break,
        }
    }
    if conn.out_bytes == 0 && (conn.close_after_flush || conn.eof) {
        // Everything owed is on the wire (or nothing is owed and the
        // peer already left).
        return Verdict::Close;
    }
    if conn.eof {
        // The peer finished sending but responses are still queued —
        // one-shot clients half-close and read the tail.
        conn.close_after_flush = true;
    }
    update_interest(poller, conn, draining);
    Verdict::Keep
}

enum Fill {
    /// Bytes arrived.
    Progress,
    /// Nothing to read after all (a spurious readiness wakeup).
    Idle,
    /// The peer half-closed (a true zero-byte read).
    Eof,
    /// The peer is gone (read error).
    Gone,
}

/// Reads what the socket has (bounded per event) into the connection's
/// buffer.
fn fill_inbuf(ctx: &ShardCtx, conn: &mut Conn) -> Fill {
    let mut chunk = [0u8; 16 << 10];
    let mut total = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                return if total == 0 {
                    Fill::Eof
                } else {
                    Fill::Progress
                }
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                ctx.metrics.bytes_read.add(n as u64);
                total += n;
                if total >= READ_BUDGET {
                    return Fill::Progress;
                }
            }
            // EAGAIN is not EOF: with zero bytes read this was a
            // spurious wakeup, not a half-close — leave the
            // connection exactly as it was.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if total == 0 {
                    Fill::Idle
                } else {
                    Fill::Progress
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Gone,
        }
    }
}

enum Parsed {
    Ok,
    Handoff(HandoffFeed),
}

/// One inspected inbound frame.
enum Step {
    /// Not enough bytes yet.
    Incomplete,
    /// Protocol violation — oversized length or checksum failure.
    Malformed(String),
    /// A whole frame: its decode result and total wire size.
    Frame(Result<Request, CodecError>, usize),
}

fn next_frame(buf: &[u8]) -> Step {
    if buf.len() < FRAME_HEADER_LEN {
        return Step::Incomplete;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("len 4"));
    if len > MAX_FRAME_LEN {
        return Step::Malformed(CodecError::FrameTooLarge(len).to_string());
    }
    let total = FRAME_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Step::Incomplete;
    }
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().expect("len 4"));
    let payload = &buf[FRAME_HEADER_LEN..total];
    if crc32(payload) != stored_crc {
        return Step::Malformed(CodecError::ChecksumMismatch.to_string());
    }
    Step::Frame(decode_request(payload), total)
}

/// Parses and executes every complete frame buffered on the connection,
/// stopping early on backpressure, a hangup decision, or a subscription
/// handoff.
fn parse_frames(ctx: &ShardCtx, conn: &mut Conn) -> Parsed {
    let mut pos = 0usize;
    let result = loop {
        if conn.paused || conn.close_after_flush {
            break Parsed::Ok;
        }
        let (request, total) = match next_frame(&conn.inbuf[pos..]) {
            Step::Incomplete => break Parsed::Ok,
            Step::Malformed(detail) => {
                malformed_hangup(ctx, conn, &detail);
                break Parsed::Ok;
            }
            Step::Frame(request, total) => (request, total),
        };
        pos += total;
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                malformed_hangup(ctx, conn, &e.to_string());
                break Parsed::Ok;
            }
        };
        match handle_request(ctx, conn, request) {
            Handled::Continue => {}
            Handled::Handoff(feed) => break Parsed::Handoff(feed),
        }
    };
    conn.inbuf.drain(..pos);
    result
}

enum Flush {
    /// Wrote what the socket would take; nothing more to do now.
    Settled,
    /// Draining below low water resumed reading — reparse the buffer.
    Unpaused,
    /// The peer is gone (write failure).
    Gone,
}

/// Writes queued frames until the socket pushes back or the queue
/// empties.
fn flush_out(ctx: &ShardCtx, conn: &mut Conn) -> Flush {
    let mut progressed = false;
    while let Some(front) = conn.outq.front() {
        let bytes = front.bytes();
        match conn.stream.write(&bytes[conn.out_head..]) {
            Ok(0) => return Flush::Gone,
            Ok(n) => {
                conn.out_head += n;
                conn.out_bytes -= n;
                ctx.metrics.bytes_written.add(n as u64);
                progressed = true;
                if conn.out_head == bytes.len() {
                    conn.outq.pop_front();
                    conn.out_head = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Gone,
        }
    }
    if progressed {
        conn.last_write_progress = Instant::now();
    }
    if conn.paused && conn.out_bytes <= OUT_LOW_WATER {
        conn.paused = false;
        return Flush::Unpaused;
    }
    Flush::Settled
}

/// Re-registers the connection's poller interest if the desired set
/// changed: read while admitting, write while owing.
fn update_interest(poller: &Poller, conn: &mut Conn, draining: bool) {
    let wants_read = !conn.paused && !conn.close_after_flush && !conn.eof && !draining;
    let wants_write = conn.out_bytes > 0;
    let desired = match (wants_read, wants_write) {
        (true, true) => Interest::READABLE.add(Interest::WRITABLE),
        (true, false) => Interest::READABLE,
        (false, true) => Interest::WRITABLE,
        (false, false) => Interest::NONE,
    };
    if desired != conn.interest && poller.reregister(&conn.stream, conn.token, desired).is_ok() {
        conn.interest = desired;
    }
}

// ---------------------------------------------------------------------------
// Request execution (inline on the shard)
// ---------------------------------------------------------------------------

enum Handled {
    Continue,
    Handoff(HandoffFeed),
}

fn request_type(request: &Request) -> RequestType {
    match request {
        Request::Hello { .. } => RequestType::Hello,
        Request::Query(_) => RequestType::Query,
        Request::Batch(_) => RequestType::Batch,
        Request::Epoch => RequestType::Epoch,
        Request::Checkpoint => RequestType::Checkpoint,
        Request::Status => RequestType::Status,
        Request::Subscribe { .. } => RequestType::Subscribe,
        Request::LogDigests => RequestType::LogDigests,
        Request::Promote => RequestType::Promote,
        Request::Write { .. } => RequestType::Write,
    }
}

/// Why a query cannot be served at this node of a partitioned
/// deployment, if it cannot. `None` on an unsharded server, and on the
/// serving paths of a shard (owned point read) or gather (all feeds
/// up).
fn shard_query_refusal(ctx: &ShardCtx, query: &QueryRequest) -> Option<WireError> {
    match ctx.shard.as_deref()? {
        ShardRole::Shard {
            partition, peers, ..
        } => {
            if query.max_depth > 0 {
                // A traversal stopped at the shard boundary would be a
                // silently truncated answer; only a gather node sees
                // every shard's edges.
                return Some(WireError::new(
                    WireErrorKind::BadRequest,
                    format!(
                        "shard {}/{} serves point reads only (max_depth 0); send traversals to a gather node",
                        partition.index(),
                        partition.count()
                    ),
                ));
            }
            if partition.owns(query.root.0) {
                return None;
            }
            let owner = partition.map().shard_of(query.root.0);
            Some(wrong_shard(owner, peers))
        }
        ShardRole::Gather(gather) => {
            let slot = gather.first_down()?;
            Some(WireError::new(
                WireErrorKind::ShardUnavailable,
                format!(
                    "shard {slot} ({}) is unreachable; a cross-shard answer would be missing its records",
                    gather.peers()[slot as usize]
                ),
            ))
        }
    }
}

/// The gather merge's repair generation when this server fronts one;
/// `None` on every other role. Captured before an answer is computed
/// and re-checked after, so an answer that straddles a slot repair is
/// refused rather than served with a rewound epoch vector.
fn gather_generation(ctx: &ShardCtx) -> Option<u64> {
    match ctx.shard.as_deref() {
        Some(ShardRole::Gather(gather)) => Some(gather.generation()),
        _ => None,
    }
}

/// The retryable refusal for an answer invalidated by a concurrent feed
/// repair.
fn repaired_mid_answer() -> WireError {
    WireError::new(
        WireErrorKind::ShardUnavailable,
        "a shard feed was repaired while the answer was being computed; retry",
    )
}

/// The typed redirect for a record owned elsewhere. The message is the
/// owner's address when the peer list names it (mirroring NotWritable's
/// address-in-message convention, so pools re-route without a topology
/// refresh), else the owner's shard index in decimal.
fn wrong_shard(owner: u32, peers: &[String]) -> WireError {
    let target = match peers.get(owner as usize) {
        Some(addr) => addr.clone(),
        None => owner.to_string(),
    };
    WireError::new(WireErrorKind::WrongShard, target)
}

fn handle_request(ctx: &ShardCtx, conn: &mut Conn, request: Request) -> Handled {
    let session = match &conn.phase {
        Phase::AwaitHello => {
            // Handshake frames are deliberately absent from the request
            // counters: completed handshakes are `connections_total`,
            // and the `type="hello"` series counts only misplaced
            // in-session Hellos (a protocol-violation signal).
            handle_hello(ctx, conn, request);
            return Handled::Continue;
        }
        Phase::Serving(session) => session.clone(),
    };
    let consumer = session.consumer;
    let kind = request_type(&request);
    ctx.metrics.count_request(kind);
    if let Some(limiter) = &ctx.limiter {
        if !limiter.admit(&session.limit_key, Instant::now()) {
            ctx.metrics.count_overload(OverloadReason::RateLimit);
            queue_response(
                conn,
                &Response::Error(WireError::new(
                    WireErrorKind::Overloaded,
                    format!(
                        "rate limit exhausted for consumer {:?}; retry after backoff",
                        consumer.name()
                    ),
                )),
            );
            return Handled::Continue;
        }
    }
    let start = Instant::now();
    let handled = match request {
        // Zero-copy fast path: queries are answered from the service's
        // sealed-frame cache, whose entries are the exact framed bytes
        // (`len | crc32 | payload`) a fresh encode-and-seal would
        // produce — a repeat query queues the cached allocation by
        // refcount, never a copy.
        Request::Query(query) => {
            if let Some(error) = shard_query_refusal(ctx, &query) {
                queue_response(conn, &Response::Error(error));
                ctx.metrics.observe_latency(kind, start.elapsed());
                return Handled::Continue;
            }
            // Pin the merge's repair generation across the answer: a
            // feed repair (slot reset) between the refusal check and the
            // computed frame could hand out an epoch vector that rewinds
            // a slot. Refuse (retryable) instead of regressing.
            let pinned_gen = gather_generation(ctx);
            match ctx.service.query_sealed(&consumer, &query) {
                Ok(frame) => {
                    if gather_generation(ctx) != pinned_gen {
                        queue_response(conn, &Response::Error(repaired_mid_answer()));
                    } else {
                        conn.queue(OutFrame::Shared(frame));
                    }
                }
                Err(StoreError::Codec(CodecError::FrameTooLarge(_))) => queue_oversize(conn),
                Err(e) => queue_response(conn, &Response::Error(wire_error(&e))),
            }
            Handled::Continue
        }
        Request::Batch(queries) => {
            // All-or-nothing, like every other batch failure: one
            // unservable query refuses the batch rather than answering
            // a subset.
            if let Some(error) = queries.iter().find_map(|q| shard_query_refusal(ctx, q)) {
                queue_response(conn, &Response::Error(error));
                ctx.metrics.observe_latency(kind, start.elapsed());
                return Handled::Continue;
            }
            let pinned_gen = gather_generation(ctx);
            match ctx.service.query_batch_sealed(&consumer, &queries) {
                Ok(frame) => {
                    if gather_generation(ctx) != pinned_gen {
                        queue_response(conn, &Response::Error(repaired_mid_answer()));
                    } else {
                        conn.queue(OutFrame::Shared(frame));
                    }
                }
                Err(StoreError::Codec(CodecError::FrameTooLarge(_))) => queue_oversize(conn),
                Err(e) => queue_response(conn, &Response::Error(wire_error(&e))),
            }
            Handled::Continue
        }
        // Subscribe converts the connection into a one-way replication
        // stream owned by a dedicated feeder thread. A refused
        // subscription is recoverable, like a refused checkpoint: the
        // connection can still query.
        Request::Subscribe { from_clock } => match check_subscription(ctx, from_clock) {
            Ok(feed) => return Handled::Handoff(feed),
            Err(error) => {
                queue_response(conn, &Response::Error(error));
                Handled::Continue
            }
        },
        other => {
            let (response, outcome) = answer(ctx, &consumer, other);
            queue_response(conn, &response);
            if let Outcome::HangUp = outcome {
                ctx.metrics.hangups.inc();
                conn.close_after_flush = true;
            }
            Handled::Continue
        }
    };
    ctx.metrics.observe_latency(kind, start.elapsed());
    handled
}

/// The opening-frame state: only a version-matched Hello with resolvable
/// claims moves the connection to `Serving`.
fn handle_hello(ctx: &ShardCtx, conn: &mut Conn, request: Request) {
    let (version, consumer_name, claims) = match request {
        Request::Hello {
            version,
            consumer,
            claims,
        } => (version, consumer, claims),
        _ => {
            protocol_hangup(
                ctx,
                conn,
                WireErrorKind::BadRequest,
                "the first frame on a connection must be Hello".to_string(),
            );
            return;
        }
    };
    if version != PROTOCOL_VERSION {
        protocol_hangup(
            ctx,
            conn,
            WireErrorKind::VersionMismatch,
            format!("server speaks protocol version {PROTOCOL_VERSION}, not {version}"),
        );
        return;
    }
    let snapshot = ctx.service.snapshot();
    let mut granted: Vec<PrivilegeId> = Vec::with_capacity(claims.len());
    for claim in &claims {
        match snapshot.lattice.by_name(claim) {
            Some(p) => granted.push(p),
            None => {
                protocol_hangup(
                    ctx,
                    conn,
                    WireErrorKind::UnknownPredicate,
                    format!("predicate {claim:?} is not in the server's lattice"),
                );
                return;
            }
        }
    }
    let consumer = if granted.is_empty() {
        Consumer::public(&snapshot.lattice)
    } else {
        Consumer::new(consumer_name, &snapshot.lattice, &granted)
    };
    let hello = ServerHello {
        version: PROTOCOL_VERSION,
        epoch: snapshot.epoch(),
        nodes: snapshot.graph.node_count() as u64,
        predicates: snapshot
            .lattice
            .ids()
            .map(|p| snapshot.lattice.name(p).to_string())
            .collect(),
    };
    // Count the connection *before* the Hello answer is queued: once a
    // client observes the handshake complete, the counter must already
    // reflect it.
    ctx.metrics.connections_total.inc();
    queue_response(conn, &Response::Hello(hello));
    // A failed peer_addr() (the socket died mid-handshake) still needs
    // *a* key; the connection is about to error out anyway, so the
    // shared fallback bucket is harmless.
    let peer_ip = conn
        .stream
        .peer_addr()
        .map(|addr| addr.ip().to_string())
        .unwrap_or_else(|_| "unknown".into());
    conn.phase = Phase::Serving(Session {
        limit_key: format!("{peer_ip}|{}", consumer.name()).into(),
        consumer: Arc::new(consumer),
    });
}

/// Best-effort typed error, then close after it flushes: the
/// protocol-violation path (misplaced Hello, version mismatch, unknown
/// predicate).
fn protocol_hangup(ctx: &ShardCtx, conn: &mut Conn, kind: WireErrorKind, detail: String) {
    ctx.metrics.hangups.inc();
    queue_response(conn, &Response::Error(WireError::new(kind, detail)));
    conn.close_after_flush = true;
}

/// Best-effort typed error, then close: the malformed-frame path.
fn malformed_hangup(ctx: &ShardCtx, conn: &mut Conn, detail: &str) {
    protocol_hangup(
        ctx,
        conn,
        WireErrorKind::BadRequest,
        format!("malformed frame: {detail}"),
    );
}

/// Encodes and queues one response frame. An answer too large for the
/// wire — caught at encode time (a count overflowing its field) or at
/// seal time (payload past the frame bound) — is reported to the client
/// as a typed error instead of desynchronizing the stream; the
/// connection stays usable.
fn queue_response(conn: &mut Conn, response: &Response) {
    match encode_response(response) {
        Ok(payload) if payload.len() as u64 <= MAX_FRAME_LEN as u64 => {
            conn.queue(OutFrame::Owned(seal_frame(&payload)));
        }
        _ => queue_oversize(conn),
    }
}

/// The "split the batch" error frame for answers that cannot travel in
/// one frame.
fn queue_oversize(conn: &mut Conn) {
    let error = Response::Error(WireError::new(
        WireErrorKind::BadRequest,
        "response exceeds the maximum frame size; split the batch or bound max_depth",
    ));
    if let Ok(payload) = encode_response(&error) {
        conn.queue(OutFrame::Owned(seal_frame(&payload)));
    }
}

/// Maps a service failure to what may cross the wire: the kind plus the
/// error's display form (which never includes raw graph content).
fn wire_error(e: &StoreError) -> WireError {
    let kind = match e {
        StoreError::NotAuthorized { .. } => WireErrorKind::NotAuthorized,
        StoreError::UnknownPredicate(_) => WireErrorKind::UnknownPredicate,
        StoreError::NotDurable => WireErrorKind::NotDurable,
        StoreError::UnknownRecord(_) => WireErrorKind::BadRequest,
        StoreError::WrongShard { .. } => WireErrorKind::WrongShard,
        _ => WireErrorKind::Internal,
    };
    WireError::new(kind, e.to_string())
}

enum Outcome {
    /// Keep serving this connection.
    Continue,
    /// Protocol violation: hang up (after the best-effort error frame).
    HangUp,
}

/// Computes the response for one decoded in-session request (the
/// non-fast-path types).
fn answer(ctx: &ShardCtx, consumer: &Consumer, request: Request) -> (Response, Outcome) {
    let service = &ctx.service;
    match request {
        Request::Hello { .. } => (
            Response::Error(WireError::new(
                WireErrorKind::BadRequest,
                "connection is already past its Hello",
            )),
            Outcome::HangUp,
        ),
        Request::Query(query) => match service.query(consumer, &query) {
            Ok(response) => (Response::Query(response), Outcome::Continue),
            Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
        },
        Request::Batch(queries) => match service.query_batch(consumer, &queries) {
            Ok(responses) => (Response::Batch(responses), Outcome::Continue),
            Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
        },
        Request::Epoch => (Response::Epoch(service.epoch()), Outcome::Continue),
        Request::Checkpoint => {
            // A checkpoint is a write-side operator action; on a replica
            // the caller almost certainly wanted the primary.
            if let Some(refusal) = not_writable(ctx) {
                return (Response::Error(refusal), Outcome::Continue);
            }
            if !ctx.config.allow_remote_checkpoint {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotAuthorized,
                        "remote checkpoints are disabled on this server",
                    )),
                    Outcome::Continue,
                );
            }
            let result = match service.store() {
                Some(store) => store.checkpoint(),
                None => Err(StoreError::NotDurable),
            };
            match result {
                Ok(stats) => (Response::Checkpoint(stats), Outcome::Continue),
                Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
            }
        }
        // Handled (or refused) before `answer` — a subscription owns the
        // connection and never produces a single response.
        Request::Subscribe { .. } => (
            Response::Error(WireError::new(
                WireErrorKind::Internal,
                "subscription requests are handled by the feeder",
            )),
            Outcome::HangUp,
        ),
        Request::Status => (status(ctx), Outcome::Continue),
        // Anti-entropy: a peer comparing logs. Gated exactly like
        // Subscribe — digests reveal history shape (clock ranges, sizes)
        // and exist only to support replication inside the owner's
        // trust domain.
        Request::LogDigests => {
            if !ctx.config.allow_replication {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotAuthorized,
                        "replication is disabled on this server; its operator must opt in (--allow-replication)",
                    )),
                    Outcome::Continue,
                );
            }
            let dir = service.store().and_then(|store| store.durable_dir());
            let (Some(store), Some(dir)) = (service.store(), dir) else {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotDurable,
                        "this server has no write-ahead log to digest; anti-entropy needs a durable store",
                    )),
                    Outcome::Continue,
                );
            };
            match wal::segment_digests(&dir) {
                Ok(segments) => (
                    Response::LogDigests {
                        term: store.replication_term(),
                        segments,
                    },
                    Outcome::Continue,
                ),
                Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
            }
        }
        // Live promotion over the wire (`spgraph promote <addr>`).
        // Owner-side like Subscribe; idempotent on a node that is
        // already primary (answers the standing term without bumping).
        Request::Promote => {
            if !ctx.config.allow_replication {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotAuthorized,
                        "promotion is disabled on this server; its operator must opt in (--allow-replication)",
                    )),
                    Outcome::Continue,
                );
            }
            let Some(store) = service.store() else {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotDurable,
                        "this server has no durable store; the fencing term has nowhere to live",
                    )),
                    Outcome::Continue,
                );
            };
            match ctx.monitor.as_deref() {
                Some(monitor) if !monitor.is_promoted() => match monitor.promote(store) {
                    Ok(term) => {
                        ctx.metrics.promotions.inc();
                        (Response::Promoted { term }, Outcome::Continue)
                    }
                    Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
                },
                _ => (
                    Response::Promoted {
                        term: store.replication_term(),
                    },
                    Outcome::Continue,
                ),
            }
        }
        // A remote write, routed to a shard primary by the client
        // (edges by their source, policy by the governed node). Gated
        // like Checkpoint: a replica redirects to its primary, and the
        // operator must have opted in — the Hello verifies nothing, so
        // a write-open socket belongs inside the owner's trust domain.
        Request::Write { op } => {
            if let Some(refusal) = not_writable(ctx) {
                return (Response::Error(refusal), Outcome::Continue);
            }
            if !ctx.config.allow_remote_write {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::NotAuthorized,
                        "remote writes are disabled on this server; its operator must opt in (--shard or --allow-remote-write)",
                    )),
                    Outcome::Continue,
                );
            }
            // A gather owns no partition — every write belongs on a
            // shard primary; redirect to the owner when the op names
            // one (an AppendNode routes anywhere, so the message is
            // empty and the client picks a shard itself).
            if let Some(ShardRole::Gather(gather)) = ctx.shard.as_deref() {
                let target = op
                    .routing_id()
                    .map(|id| gather.peer_of(id.0).to_string())
                    .unwrap_or_default();
                return (
                    Response::Error(WireError::new(WireErrorKind::WrongShard, target)),
                    Outcome::Continue,
                );
            }
            let Some(store) = service.store() else {
                return (
                    Response::Error(WireError::new(
                        WireErrorKind::BadRequest,
                        "this server serves a frozen graph; it has no writable store",
                    )),
                    Outcome::Continue,
                );
            };
            let result = match op {
                WriteOp::AppendNode {
                    label,
                    kind,
                    features,
                    lowest,
                } => store
                    .try_append_node(label, kind, features, lowest)
                    .map(Some),
                WriteOp::AppendEdge { from, to, kind } => {
                    store.append_edge(from, to, kind).map(|()| None)
                }
                WriteOp::ApplyPolicy(statement) => store.apply_policy(statement).map(|()| None),
            };
            match result {
                Ok(id) => (
                    Response::Written {
                        clock: store.version(),
                        id,
                    },
                    Outcome::Continue,
                ),
                // The store's ownership check names the owner; put the
                // owner's *address* in the message when the peer list
                // knows it, so the client re-routes without a topology
                // refresh (the NotWritable convention).
                Err(StoreError::WrongShard { owner, .. }) => {
                    let peers: &[String] = match ctx.shard.as_deref() {
                        Some(ShardRole::Shard { peers, .. }) => peers,
                        _ => &[],
                    };
                    (
                        Response::Error(wrong_shard(owner, peers)),
                        Outcome::Continue,
                    )
                }
                Err(e) => (Response::Error(wire_error(&e)), Outcome::Continue),
            }
        }
    }
}

/// The refusal a replica that has not been promoted answers write-side
/// requests with. The NotWritable message carries the writable address
/// (when known) so client pools re-resolve after a failover instead of
/// restarting.
fn not_writable(ctx: &ShardCtx) -> Option<WireError> {
    let monitor = ctx.monitor.as_deref().filter(|m| !m.is_promoted())?;
    let addr = monitor.status(ctx.service.epoch()).primary_addr;
    Some(WireError::new(
        WireErrorKind::NotWritable,
        addr.unwrap_or_default(),
    ))
}

/// The answer to `Status`: the replication half, then the shard half.
fn status(ctx: &ShardCtx) -> Response {
    let service = &ctx.service;
    let local_epoch = service.epoch();
    let replica = match ctx.monitor.as_deref() {
        Some(monitor) => monitor.status(local_epoch),
        // A plain server (a gather included) *is* the primary of
        // whatever it serves: its epoch is authoritative by definition.
        None => ReplicaStatus {
            role: ReplicaRole::Primary,
            local_epoch,
            primary_epoch: local_epoch,
            term: service.store().map_or(0, |store| store.replication_term()),
            connected: true,
            last_error: None,
            primary_addr: None,
        },
    };
    let shards = match ctx.shard.as_deref() {
        Some(ShardRole::Shard {
            partition,
            peers,
            replicas,
        }) => shard_slice(local_epoch, *partition, peers.clone(), replicas.clone()),
        Some(ShardRole::Gather(gather)) => ShardStatusInfo {
            count: gather.shard_count(),
            index: None,
            epochs: gather.clocks(),
            primaries: gather.peers().to_vec(),
            replicas: gather.replicas(),
        },
        // A plain server in front of a partitioned store still reports
        // its slice; a truly unsharded one answers the degenerate
        // topology (count 0, its version as the one epoch).
        None => match service.store().and_then(|store| store.partition()) {
            Some(partition) => shard_slice(local_epoch, partition, Vec::new(), Vec::new()),
            None => ShardStatusInfo {
                count: 0,
                index: None,
                epochs: vec![local_epoch],
                primaries: Vec::new(),
                replicas: Vec::new(),
            },
        },
    };
    Response::Status { replica, shards }
}

/// A shard knows one live epoch — its own; its status vector carries
/// zeros in the slots only a gather observes.
fn shard_slice(
    epoch: u64,
    partition: Partition,
    primaries: Vec<String>,
    replicas: Vec<Vec<String>>,
) -> ShardStatusInfo {
    let mut epochs = vec![0u64; partition.count() as usize];
    epochs[partition.index() as usize] = epoch;
    ShardStatusInfo {
        count: partition.count(),
        index: Some(partition.index()),
        epochs,
        primaries,
        replicas,
    }
}

// ---------------------------------------------------------------------------
// Replication feeders (dedicated blocking threads)
// ---------------------------------------------------------------------------

/// Live feeder threads, with a clone of each one's socket and the store
/// it tails, so shutdown can unblock a feeder wherever it is parked: in a
/// blocking write, or waiting for the clock to move.
#[derive(Default)]
struct FeederSet {
    inner: Mutex<FeederInner>,
}

#[derive(Default)]
struct FeederInner {
    closed: bool,
    next_id: u64,
    streams: HashMap<u64, (TcpStream, Arc<Store>)>,
    handles: Vec<JoinHandle<()>>,
}

impl FeederSet {
    /// Registers a feeder's socket and store; `None` once the set is
    /// closed (the caller must drop the stream instead of serving it).
    fn register(&self, stream: &TcpStream, store: &Arc<Store>) -> Option<u64> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        // No clone means close_all() could never hang this feeder up and
        // shutdown would block on the join — refuse instead (fd
        // exhaustion is the typical cause, so shedding is right anyway).
        let clone = stream.try_clone().ok()?;
        inner.streams.insert(id, (clone, store.clone()));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.inner.lock().streams.remove(&id);
    }

    fn adopt(&self, handle: JoinHandle<()>) {
        let mut inner = self.inner.lock();
        // Reap finished feeders (reconnecting subscribers create one per
        // attempt) so the registry only grows with *live* streams; a
        // finished handle drops detached, which is a no-op join.
        inner.handles.retain(|h| !h.is_finished());
        inner.handles.push(handle);
    }

    /// Marks the set closed, shuts every feeder socket down (unblocking
    /// parked writes), wakes every feeder parked on its store's clock,
    /// and returns the handles for joining. The caller has raised the
    /// shutdown flag the woken feeders re-read.
    fn close_all(&self) -> Vec<JoinHandle<()>> {
        let mut inner = self.inner.lock();
        inner.closed = true;
        for (stream, store) in inner.streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
            store.wake_clock_waiters();
        }
        inner.streams.clear();
        std::mem::take(&mut inner.handles)
    }
}

/// Moves an extracted (blocking again) subscriber connection onto its
/// dedicated feeder thread: flush whatever the reactor still owed it,
/// then stream WAL.
fn spawn_feeder(ctx: Arc<ShardCtx>, conn: Conn, feed: HandoffFeed) {
    let Some(id) = ctx.feeders.register(&conn.stream, &feed.store) else {
        // Shutting down: the subscription dies with the server.
        ctx.metrics.connections_open.dec();
        return;
    };
    let thread_ctx = ctx.clone();
    let handle = std::thread::Builder::new()
        .name("spgraph-feeder".into())
        .spawn(move || {
            let ctx = thread_ctx;
            ctx.metrics.subscriptions_active.inc();
            let mut stream = conn.stream;
            let mut head = conn.out_head;
            let mut delivered = true;
            for frame in &conn.outq {
                if stream.write_all(&frame.bytes()[head..]).is_err() {
                    delivered = false;
                    break;
                }
                head = 0;
            }
            if delivered {
                let mut outbuf = Vec::with_capacity(4096);
                serve_subscription(&feed, &ctx.metrics, &ctx.shutdown, &mut stream, &mut outbuf);
            }
            let _ = stream.shutdown(Shutdown::Both);
            ctx.feeders.deregister(id);
            ctx.metrics.subscriptions_active.dec();
            ctx.metrics.connections_open.dec();
        });
    match handle {
        Ok(handle) => ctx.feeders.adopt(handle),
        // Out of threads: shed the subscriber.
        Err(_) => {
            ctx.feeders.deregister(id);
            ctx.metrics.connections_open.dec();
        }
    }
}

/// Validates a subscription request, returning the durable store the
/// feeder will tail — or the typed refusal to send.
fn check_subscription(ctx: &ShardCtx, from_clock: u64) -> Result<HandoffFeed, WireError> {
    if !ctx.config.allow_replication {
        return Err(WireError::new(
            WireErrorKind::NotAuthorized,
            "replication is disabled on this server; its operator must opt in (--allow-replication)",
        ));
    }
    let durable = ctx
        .service
        .store()
        .and_then(|store| Some((store.clone(), store.durable_dir()?)));
    let Some((store, dir)) = durable else {
        return Err(WireError::new(
            WireErrorKind::NotDurable,
            "this server has no write-ahead log to stream; replication needs a durable store",
        ));
    };
    let epoch = ctx.service.epoch();
    if from_clock > epoch {
        // A subscriber ahead of its primary replayed a different
        // history; feeding it would silently fork the replica set.
        return Err(WireError::new(
            WireErrorKind::BadRequest,
            format!("subscriber clock {from_clock} is ahead of this primary's epoch {epoch}"),
        ));
    }
    Ok(HandoffFeed {
        store,
        dir,
        from_clock,
    })
}

/// Target sealed-frame bytes per [`Response::WalChunk`]; chunks stop at
/// the first frame boundary past this.
const FEED_CHUNK_BYTES: usize = 256 << 10;
/// How long a feeder lets the writer finish a segment rotation it raced
/// before reading the log again.
const FEED_ROTATION_RETRY: Duration = Duration::from_millis(10);
/// How often a caught-up feeder sends an empty heartbeat chunk — the
/// subscriber's lag/liveness signal, the feeder's only way to notice a
/// dead peer while idle, and the only timer a quiet feeder runs on:
/// between heartbeats it is parked on the store's clock.
const FEED_HEARTBEAT: Duration = Duration::from_millis(250);
/// How long after shipping frames a caught-up feeder expects more, and
/// naps [`FEED_NAP`] at a time instead of parking. Waking a parked
/// thread is not free for the *writer*: measured here (2 vCPUs, the
/// parked thread's CPU halted) `notify_all` for two feeders costs the
/// appending thread 12µs at the median and 25µs at p90, a third of a
/// routed write, on every append of a steady stream. A napping feeder is
/// not a registered waiter, so that stream pays one atomic load per
/// append and its chunks leave at most a nap late; the first append
/// after a quiet spell pays the wake and leaves at once.
const FEED_LINGER: Duration = Duration::from_millis(5);
/// One nap of a feeder that shipped within [`FEED_LINGER`].
const FEED_NAP: Duration = Duration::from_micros(100);

/// Writes `payload` as one sealed frame over a blocking stream.
fn write_blocking_frame(stream: &mut TcpStream, payload: &[u8], scratch: &mut Vec<u8>) -> bool {
    crate::frame::write_frame(stream, payload, scratch).is_ok()
}

/// The feeder loop: streams [`Response::WalChunk`] frames until the
/// subscriber hangs up, the server shuts down, or the log becomes
/// unreadable. Runs on a dedicated per-subscriber thread. A feeder that
/// is behind ships chunk after chunk without parking, so a burst of
/// appends coalesces into chunks and wakes nobody; one that has caught
/// up naps while the log is busy ([`FEED_LINGER`]) and then parks on the
/// store's clock until an append, the next heartbeat or a shutdown.
fn serve_subscription(
    feed: &HandoffFeed,
    metrics: &ServerMetrics,
    shutdown: &AtomicBool,
    stream: &mut TcpStream,
    outbuf: &mut Vec<u8>,
) {
    let (store, dir) = (&*feed.store, feed.dir.as_path());
    let mut next = feed.from_clock;
    // A subscriber at clock 0 has nothing — not even the lattice, which
    // frames cannot rebuild — so its stream opens with a snapshot. A
    // non-zero clock proves a snapshot was already installed once.
    let mut snapshot_due = next == 0;
    // The cursor keeps each chunk O(chunk): without it every read
    // re-scans the covering segment from its header.
    let mut tail = wal::TailCursor::default();
    let mut last_send = Instant::now();
    // Until when this feeder naps instead of parking (not yet: nothing
    // shipped).
    let mut hot_until = last_send;
    let send = |stream: &mut TcpStream, chunk: WalChunk, outbuf: &mut Vec<u8>| {
        let Ok(payload) = encode_response(&Response::WalChunk(chunk)) else {
            return false; // chunk cannot be framed: end the feed
        };
        write_blocking_frame(stream, &payload, outbuf)
    };
    let send_error = |stream: &mut TcpStream, error: WireError, outbuf: &mut Vec<u8>| {
        if let Ok(payload) = encode_response(&Response::Error(error)) {
            let _ = write_blocking_frame(stream, &payload, outbuf);
        }
    };
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let current = store.version();
        // Re-read per chunk, not once: a promotion of *this* node (or a
        // higher term adopted from upstream) must reach subscribers with
        // the next chunk, so their fencing state tracks the feeder's.
        let term = store.replication_term();
        if snapshot_due {
            // Backfill: the subscriber's clock predates the retained
            // log. The newest snapshot both bootstraps cold replicas
            // and fast-forwards badly lagged ones.
            let Ok((clock, bytes)) = wal::read_newest_snapshot(dir) else {
                send_error(
                    stream,
                    WireError::new(
                        WireErrorKind::Internal,
                        "the primary's log no longer covers this subscriber and no snapshot decodes",
                    ),
                    outbuf,
                );
                return;
            };
            if clock < next {
                // The snapshot is *behind* the subscriber yet the log
                // does not cover it either: diverged history.
                send_error(
                    stream,
                    WireError::new(
                        WireErrorKind::Internal,
                        format!(
                            "retained history restarts at clock {clock}, behind subscriber clock {next}"
                        ),
                    ),
                    outbuf,
                );
                return;
            }
            // A snapshot too large for one frame would make the frame
            // writer refuse the chunk and the replica retry forever with
            // no diagnosis; tell it the real problem instead. (Chunked
            // snapshot shipping is the fix if stores ever grow there.)
            if bytes.len() as u64 + 256 > MAX_FRAME_LEN as u64 {
                send_error(
                    stream,
                    WireError::new(
                        WireErrorKind::Internal,
                        format!(
                            "the {}-byte backfill snapshot exceeds the wire frame bound; \
                             this store is too large to bootstrap a replica over this protocol",
                            bytes.len()
                        ),
                    ),
                    outbuf,
                );
                return;
            }
            let chunk = WalChunk {
                start_clock: clock,
                primary_epoch: current,
                term,
                snapshot: Some(bytes),
                frames: Vec::new(),
            };
            if !send(stream, chunk, outbuf) {
                return;
            }
            metrics.snapshots_shipped.inc();
            metrics.count_feed_chunk(FeedChunkKind::Snapshot);
            last_send = Instant::now();
            next = clock;
            snapshot_due = false;
            continue;
        }
        if next < current {
            match wal::read_frames_with(dir, next, current, FEED_CHUNK_BYTES, &mut tail) {
                Ok(Some(chunk)) if chunk.end_clock > next => {
                    let end = chunk.end_clock;
                    let frame_chunk = WalChunk {
                        start_clock: chunk.start_clock,
                        primary_epoch: current,
                        term,
                        snapshot: None,
                        frames: chunk.frames,
                    };
                    if !send(stream, frame_chunk, outbuf) {
                        return;
                    }
                    metrics.count_feed_chunk(FeedChunkKind::Frames);
                    last_send = Instant::now();
                    hot_until = last_send + FEED_LINGER;
                    next = end;
                }
                // Covered but empty: the covering segment is mid-write
                // (rotation race). Let the writer finish.
                Ok(Some(_)) => std::thread::sleep(FEED_ROTATION_RETRY),
                // A checkpoint pruned past the subscriber mid-stream.
                Ok(None) => snapshot_due = true,
                Err(_) => {
                    send_error(
                        stream,
                        WireError::new(
                            WireErrorKind::Internal,
                            "the primary's write-ahead log became unreadable",
                        ),
                        outbuf,
                    );
                    return;
                }
            }
        } else if last_send.elapsed() >= FEED_HEARTBEAT {
            let heartbeat = WalChunk {
                start_clock: next,
                primary_epoch: current,
                term,
                snapshot: None,
                frames: Vec::new(),
            };
            if !send(stream, heartbeat, outbuf) {
                return;
            }
            metrics.count_feed_chunk(FeedChunkKind::Heartbeat);
            last_send = Instant::now();
        } else if Instant::now() < hot_until {
            std::thread::sleep(FEED_NAP);
        } else {
            let until_heartbeat = FEED_HEARTBEAT.saturating_sub(last_send.elapsed());
            store.wait_clock_past(next, until_heartbeat, shutdown);
        }
    }
}
