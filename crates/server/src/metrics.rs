//! First-class observability for the serving edge: cheap atomic
//! [`Counter`]s / [`Gauge`]s, fixed-bucket latency [`Histogram`]s, and a
//! Prometheus text-exposition endpoint.
//!
//! Every hot-path instrument is a relaxed atomic — one `fetch_add` per
//! observation, no locks, no allocation — so instrumentation costs
//! nanoseconds against a ~40µs request round trip. Rendering walks the
//! atomics at scrape time and serializes the
//! [text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! (`text/plain; version=0.0.4`), the format every Prometheus-compatible
//! scraper speaks.
//!
//! The endpoint listens on a **separate** listener from the query
//! protocol ([`ServerConfig::metrics_addr`](crate::ServerConfig)):
//! operators scrape it with plain HTTP (`GET /metrics`), and a saturated
//! query socket cannot starve observability (nor can a scraper consume a
//! query-connection slot).
//!
//! What the server exposes, by family:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `spgraph_connections_open` | gauge | sockets currently owned by the server (event loops + feeders) |
//! | `spgraph_connections_total` | counter | completed Hello handshakes |
//! | `spgraph_subscriptions_active` | gauge | live replication feeders |
//! | `spgraph_requests_total{type=…}` | counter | request frames answered, per type |
//! | `spgraph_request_latency_seconds{type=…}` | histogram | service time per request type |
//! | `spgraph_overload_drops_total{reason=…}` | counter | admission-control sheds (`conn_cap`, `rate_limit`, `write_stall`) |
//! | `spgraph_idle_reaped_total` | counter | connections reaped by idle/handshake timeouts |
//! | `spgraph_hangups_total` | counter | protocol-violation hangups |
//! | `spgraph_frame_cache_{hits,misses}_total` | counter | sealed-frame cache traffic |
//! | `spgraph_frame_cache_hit_rate` | gauge | hits / (hits + misses), for humans |
//! | `spgraph_account_protects_total{kind=…}` | counter | account-cache misses: `extended` from the account an earlier epoch left, or `generated` by a protection strategy |
//! | `spgraph_account_protect_seconds_total` | counter | total time those misses took to make their accounts |
//! | `spgraph_snapshot_builds_total{kind=…}` | counter | epochs materialized: `extended` from the retired snapshot by the log's delta, or `rebuilt` from the whole log |
//! | `spgraph_snapshot_build_seconds_total` | counter | total time those builds took, index build included |
//! | `spgraph_bytes_{read,written}_total` | counter | query-socket traffic volume |
//! | `spgraph_epoch` | gauge | the served store's current epoch |
//! | `spgraph_snapshots_shipped_total` | counter | replica backfill snapshots |
//! | `spgraph_feed_chunks_total{kind=…}` | counter | replication chunks shipped to subscribers (`frames`, `heartbeat`, `snapshot`) |
//! | `spgraph_replication_term` | gauge | the fencing term this node has observed (promotion generation) |
//! | `spgraph_replication_lag` | gauge | mutations behind the primary (0 on a primary; stale lower bound while disconnected) |
//! | `spgraph_promotions_total` | counter | replica-to-primary promotions served by this process |

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use plus_store::AccountService;

use crate::replica::ReplicationMonitor;

/// A monotone event count. Relaxed atomics: totals are exact, momentary
/// cross-counter skew is acceptable (standard scrape semantics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (open connections, live feeders).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs) of the latency histogram buckets, chosen to bracket
/// the serving edge: cache hits land around tens of µs, cold protections
/// at ms, and the top buckets catch pathological stalls. Fixed at compile
/// time so `observe` is a linear scan of 16 integers — no allocation, no
/// float math on the hot path.
const LATENCY_BUCKETS_US: [u64; 16] = [
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    1_000_000, 5_000_000,
];

/// A fixed-bucket latency histogram (cumulative at render time, like
/// Prometheus expects; stored per-bucket so `observe` touches exactly
/// one bucket counter).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [Counter; LATENCY_BUCKETS_US.len()],
    /// Observations above the last bound (rendered into `+Inf`).
    overflow: Counter,
    sum_us: Counter,
    count: Counter,
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        match LATENCY_BUCKETS_US.iter().position(|&bound| us <= bound) {
            Some(i) => self.buckets[i].inc(),
            None => self.overflow.inc(),
        }
        self.sum_us.add(us);
        self.count.inc();
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// An approximate quantile (0.0–1.0) in µs, resolved to the upper
    /// bound of the bucket the quantile falls in — good enough for
    /// alerting and the load-smoke assertions, cheap enough to compute
    /// in-process.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count.get();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.get();
            if seen >= rank {
                return LATENCY_BUCKETS_US[i];
            }
        }
        u64::MAX
    }

    fn render(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.get();
            let le = LATENCY_BUCKETS_US[i] as f64 / 1e6;
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.overflow.get();
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(
            out,
            "{name}_sum{{{labels_trimmed}}} {sum}",
            labels_trimmed = labels.trim_end_matches(','),
            sum = self.sum_us.get() as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{name}_count{{{labels_trimmed}}} {count}",
            labels_trimmed = labels.trim_end_matches(','),
            count = self.count.get()
        );
    }
}

/// The request types the server distinguishes in its counters and
/// latency histograms (the `type` label of `spgraph_requests_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestType {
    /// A (misplaced, in-session) `Hello`.
    Hello,
    /// A single lineage query.
    Query,
    /// A batched query frame.
    Batch,
    /// An epoch probe.
    Epoch,
    /// A checkpoint request.
    Checkpoint,
    /// A status probe.
    Status,
    /// A subscription request.
    Subscribe,
    /// An anti-entropy digest exchange.
    LogDigests,
    /// A live promotion request.
    Promote,
    /// A remote write (sharded deployments).
    Write,
}

/// All request types, in render order.
pub const REQUEST_TYPES: [RequestType; 10] = [
    RequestType::Hello,
    RequestType::Query,
    RequestType::Batch,
    RequestType::Epoch,
    RequestType::Checkpoint,
    RequestType::Status,
    RequestType::Subscribe,
    RequestType::LogDigests,
    RequestType::Promote,
    RequestType::Write,
];

impl RequestType {
    /// The `type` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestType::Hello => "hello",
            RequestType::Query => "query",
            RequestType::Batch => "batch",
            RequestType::Epoch => "epoch",
            RequestType::Checkpoint => "checkpoint",
            RequestType::Status => "status",
            RequestType::Subscribe => "subscribe",
            RequestType::LogDigests => "log_digests",
            RequestType::Promote => "promote",
            RequestType::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Why the server shed work (the `reason` label of
/// `spgraph_overload_drops_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The connection cap was reached; the dial was refused.
    ConnCap,
    /// A consumer exhausted its token bucket; the request was refused.
    RateLimit,
    /// A connection stopped draining its responses; it was closed.
    WriteStall,
}

impl OverloadReason {
    fn as_str(self) -> &'static str {
        match self {
            OverloadReason::ConnCap => "conn_cap",
            OverloadReason::RateLimit => "rate_limit",
            OverloadReason::WriteStall => "write_stall",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a replication chunk carried (the `kind` label of
/// `spgraph_feed_chunks_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedChunkKind {
    /// Sealed WAL frames: an append reached this subscriber.
    Frames,
    /// Nothing: the idle feeder's liveness beat.
    Heartbeat,
    /// A backfill snapshot.
    Snapshot,
}

impl FeedChunkKind {
    fn as_str(self) -> &'static str {
        match self {
            FeedChunkKind::Frames => "frames",
            FeedChunkKind::Heartbeat => "heartbeat",
            FeedChunkKind::Snapshot => "snapshot",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Every instrument the serving edge maintains. One instance per
/// [`Server`](crate::Server), shared by the accept thread, the event
/// loop shards, the feeders, and the metrics endpoint.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Sockets currently owned by the server: event-loop connections in any
    /// state plus replication feeder threads.
    pub connections_open: Gauge,
    /// Completed Hello handshakes, ever.
    pub connections_total: Counter,
    /// Live replication feeder threads.
    pub subscriptions_active: Gauge,
    /// Accepted subscriptions, ever.
    pub subscriptions_total: Counter,
    /// Backfill snapshots shipped to subscribers, ever.
    pub snapshots_shipped: Counter,
    /// Chunks shipped to subscribers, per [`FeedChunkKind`].
    pub feed_chunks: [Counter; 3],
    /// Request frames answered, per [`RequestType`].
    pub requests: [Counter; REQUEST_TYPES.len()],
    /// Service time per [`RequestType`].
    pub latency: [Histogram; REQUEST_TYPES.len()],
    /// Admission-control sheds, per [`OverloadReason`].
    pub overload_drops: [Counter; 3],
    /// Connections reaped by the handshake or idle timeout.
    pub idle_reaped: Counter,
    /// Protocol-violation hangups (malformed frames, misplaced Hello…).
    pub hangups: Counter,
    /// Bytes read off query sockets.
    pub bytes_read: Counter,
    /// Bytes written to query sockets.
    pub bytes_written: Counter,
    /// Replica-to-primary promotions served (`Request::Promote` frames
    /// that actually bumped the term — idempotent re-asks are free).
    pub promotions: Counter,
}

impl ServerMetrics {
    /// Counts one answered request frame of `t`.
    pub fn count_request(&self, t: RequestType) {
        self.requests[t.index()].inc();
    }

    /// Records the service time of one request of `t`.
    pub fn observe_latency(&self, t: RequestType, elapsed: Duration) {
        self.latency[t.index()].observe(elapsed);
    }

    /// Counts one chunk of `kind` shipped to a subscriber.
    pub fn count_feed_chunk(&self, kind: FeedChunkKind) {
        self.feed_chunks[kind.index()].inc();
    }

    /// Counts one shed for `reason`.
    pub fn count_overload(&self, reason: OverloadReason) {
        self.overload_drops[reason.index()].inc();
    }

    /// Request frames answered across all types — the
    /// [`ServerStats::requests`](crate::ServerStats) aggregate.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// Sheds across all reasons — the
    /// [`ServerStats::overload_drops`](crate::ServerStats) aggregate.
    pub fn overload_drops_total(&self) -> u64 {
        self.overload_drops.iter().map(Counter::get).sum()
    }

    /// Serializes the full Prometheus text exposition. `service` supplies
    /// the scrape-time store facts (epoch, sealed-frame cache counters);
    /// `monitor` — present when the server fronts a replica — supplies
    /// the replication link facts (observed term, lag).
    pub fn render_prometheus(
        &self,
        service: &AccountService,
        monitor: Option<&ReplicationMonitor>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(8192);

        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "spgraph_connections_total",
            "Completed Hello handshakes.",
            self.connections_total.get(),
        );
        counter(
            "spgraph_subscriptions_total",
            "Accepted replication subscriptions.",
            self.subscriptions_total.get(),
        );
        counter(
            "spgraph_snapshots_shipped_total",
            "Backfill snapshots shipped to subscribers.",
            self.snapshots_shipped.get(),
        );
        counter(
            "spgraph_idle_reaped_total",
            "Connections reaped by the handshake or idle timeout.",
            self.idle_reaped.get(),
        );
        counter(
            "spgraph_hangups_total",
            "Connections hung up on for protocol violations.",
            self.hangups.get(),
        );
        counter(
            "spgraph_bytes_read_total",
            "Bytes read off query sockets.",
            self.bytes_read.get(),
        );
        counter(
            "spgraph_bytes_written_total",
            "Bytes written to query sockets.",
            self.bytes_written.get(),
        );
        let (hits, misses) = service.frame_cache_stats();
        counter(
            "spgraph_frame_cache_hits_total",
            "Sealed-frame cache hits.",
            hits,
        );
        counter(
            "spgraph_frame_cache_misses_total",
            "Sealed-frame cache misses.",
            misses,
        );
        counter(
            "spgraph_promotions_total",
            "Replica-to-primary promotions served by this process.",
            self.promotions.get(),
        );
        let (extended_accounts, generated, protect_time) = service.protect_stats();
        let (extended, rebuilt, build_time) = service.snapshot_stats();
        // Counters in seconds: fractional, so not through `counter`.
        for (name, help, time) in [
            (
                "spgraph_account_protect_seconds_total",
                "Total time account-cache misses took to make their accounts.",
                protect_time,
            ),
            (
                "spgraph_snapshot_build_seconds_total",
                "Total time snapshot builds took, index build included.",
                build_time,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", time.as_secs_f64());
        }

        for (name, help, kinds) in [
            (
                "spgraph_account_protects_total",
                "Account-cache misses, by how the account was made.",
                [("extended", extended_accounts), ("generated", generated)],
            ),
            (
                "spgraph_snapshot_builds_total",
                "Epochs materialized, by kind.",
                [("extended", extended), ("rebuilt", rebuilt)],
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (kind, count) in kinds {
                let _ = writeln!(out, "{name}{{kind=\"{kind}\"}} {count}");
            }
        }

        let _ = writeln!(
            out,
            "# HELP spgraph_requests_total Request frames answered, by type."
        );
        let _ = writeln!(out, "# TYPE spgraph_requests_total counter");
        for t in REQUEST_TYPES {
            let _ = writeln!(
                out,
                "spgraph_requests_total{{type=\"{}\"}} {}",
                t.as_str(),
                self.requests[t.index()].get()
            );
        }

        let _ = writeln!(
            out,
            "# HELP spgraph_overload_drops_total Requests or connections shed by admission control, by reason."
        );
        let _ = writeln!(out, "# TYPE spgraph_overload_drops_total counter");
        for reason in [
            OverloadReason::ConnCap,
            OverloadReason::RateLimit,
            OverloadReason::WriteStall,
        ] {
            let _ = writeln!(
                out,
                "spgraph_overload_drops_total{{reason=\"{}\"}} {}",
                reason.as_str(),
                self.overload_drops[reason.index()].get()
            );
        }

        let _ = writeln!(
            out,
            "# HELP spgraph_feed_chunks_total Replication chunks shipped to subscribers, by kind."
        );
        let _ = writeln!(out, "# TYPE spgraph_feed_chunks_total counter");
        for kind in [
            FeedChunkKind::Frames,
            FeedChunkKind::Heartbeat,
            FeedChunkKind::Snapshot,
        ] {
            let _ = writeln!(
                out,
                "spgraph_feed_chunks_total{{kind=\"{}\"}} {}",
                kind.as_str(),
                self.feed_chunks[kind.index()].get()
            );
        }

        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "spgraph_connections_open",
            "Sockets currently owned by the server (event loops + feeders).",
            self.connections_open.get() as f64,
        );
        gauge(
            "spgraph_subscriptions_active",
            "Live replication feeders.",
            self.subscriptions_active.get() as f64,
        );
        gauge(
            "spgraph_epoch",
            "Current epoch of the served store.",
            service.epoch() as f64,
        );
        // The term a replica-fronting server reports is the monitor's
        // (refreshed by the feed without locking the store); a plain
        // primary reads its store directly.
        let term = match monitor {
            Some(monitor) => monitor.term(),
            None => service
                .store()
                .map(|store| store.replication_term())
                .unwrap_or(0),
        };
        gauge(
            "spgraph_replication_term",
            "The replication fencing term this node has observed (promotion generation).",
            term as f64,
        );
        gauge(
            "spgraph_replication_lag",
            "Mutations behind the primary (0 on a primary; a stale lower bound while disconnected).",
            monitor
                .map(|monitor| monitor.status(service.epoch()).lag())
                .unwrap_or(0) as f64,
        );
        let total = hits + misses;
        gauge(
            "spgraph_frame_cache_hit_rate",
            "Sealed-frame cache hits / (hits + misses).",
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        );

        let _ = writeln!(
            out,
            "# HELP spgraph_request_latency_seconds Service time per request frame, by type."
        );
        let _ = writeln!(out, "# TYPE spgraph_request_latency_seconds histogram");
        for t in REQUEST_TYPES {
            self.latency[t.index()].render(
                &mut out,
                "spgraph_request_latency_seconds",
                &format!("type=\"{}\",", t.as_str()),
            );
        }
        out
    }
}

/// Longest request head the scrape listener reads before answering; a
/// scraper that sends more gets a 400 and a hangup.
const MAX_SCRAPE_REQUEST: usize = 8 << 10;

/// Serves `GET /metrics` (HTTP/1.x, `Connection: close`) until
/// `shutdown` flips. One sequential thread: scrapes are rare, tiny, and
/// must never compete with query serving for event-loop capacity.
pub(crate) fn serve_metrics(
    listener: TcpListener,
    metrics: Arc<ServerMetrics>,
    service: Arc<AccountService>,
    monitor: Option<Arc<ReplicationMonitor>>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A stuck scraper must not wedge observability for the next one.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let _ = answer_scrape(stream, &metrics, &service, monitor.as_deref());
    }
}

fn answer_scrape(
    mut stream: TcpStream,
    metrics: &ServerMetrics,
    service: &AccountService,
    monitor: Option<&ReplicationMonitor>,
) -> std::io::Result<()> {
    let mut head = [0u8; MAX_SCRAPE_REQUEST];
    let mut got = 0usize;
    // Read until the header terminator; tolerate curl-style dribble.
    while got < head.len() && !head[..got].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&head[..got]);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = if target == "/metrics" || target.starts_with("/metrics?") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics.render_prometheus(service, monitor),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "only /metrics lives here\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Binds the scrape listener and spawns its serving thread; returns the
/// actually-bound address (resolving `:0`) with the join handle.
pub(crate) fn spawn_metrics_listener(
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    service: Arc<AccountService>,
    monitor: Option<Arc<ReplicationMonitor>>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("spgraph-metrics".into())
        .spawn(move || serve_metrics(listener, metrics, service, monitor, shutdown))?;
    Ok((bound, handle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0, "empty histogram");
        for us in [5u64, 30, 30, 90, 400, 2_000_000, 99_000_000] {
            h.observe(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        // p50 of 7 samples is the 4th (90µs) → bucket bound 100µs.
        assert_eq!(h.quantile_us(0.50), 100);
        // The 99µs-over-everything sample overflows into +Inf.
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        let mut out = String::new();
        h.render(&mut out, "test_seconds", "type=\"t\",");
        assert!(out.contains("test_seconds_bucket{type=\"t\",le=\"+Inf\"} 7"));
        assert!(out.contains("test_seconds_count{type=\"t\"} 7"));
        // Cumulative counts are monotone.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn exposition_is_well_formed() {
        let metrics = ServerMetrics::default();
        metrics.count_request(RequestType::Query);
        metrics.observe_latency(RequestType::Query, Duration::from_micros(42));
        metrics.count_overload(OverloadReason::RateLimit);
        metrics.connections_open.inc();
        metrics.promotions.inc();
        let store = plus_store::Store::new(&["Public"], &[]).unwrap();
        let service = AccountService::new(std::sync::Arc::new(store));
        let text = metrics.render_prometheus(&service, None);
        for needle in [
            "spgraph_requests_total{type=\"query\"} 1",
            "spgraph_requests_total{type=\"promote\"} 0",
            "spgraph_requests_total{type=\"log_digests\"} 0",
            "spgraph_overload_drops_total{reason=\"rate_limit\"} 1",
            "spgraph_overload_drops_total{reason=\"conn_cap\"} 0",
            "spgraph_connections_open 1",
            "spgraph_frame_cache_hits_total 0",
            "spgraph_frame_cache_hit_rate 0",
            "spgraph_replication_term 0",
            "spgraph_replication_lag 0",
            "spgraph_promotions_total 1",
            "spgraph_account_protects_total{kind=\"extended\"} 0",
            "spgraph_account_protects_total{kind=\"generated\"} 0",
            "spgraph_account_protect_seconds_total 0",
            "spgraph_snapshot_builds_total{kind=\"extended\"} 0",
            "spgraph_request_latency_seconds_bucket{type=\"query\",le=\"0.00005\"} 1",
            "spgraph_request_latency_seconds_count{type=\"query\"} 1",
            "# TYPE spgraph_request_latency_seconds histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every non-comment line is `name{labels} value` with a numeric
        // value — the shape scrapers require.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample {line:?}");
        }
    }
}
