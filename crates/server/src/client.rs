//! The blocking client and connection pool.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use plus_store::wire::{
    decode_batch_response_into, decode_response, encode_batch_request, encode_request,
    ReplicaStatus, Request, Response, ServerHello, ShardStatusInfo, WalChunk, WireErrorKind,
    WriteOp, PROTOCOL_VERSION,
};
use plus_store::{CheckpointStats, QueryRequest, QueryResponse, RecordId, SegmentDigest};
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::ShardMap;

use crate::error::ClientError;
use crate::frame::{read_frame, write_frame};
use crate::topology::{resolve_writable, Topology};

/// A blocking connection to a query server.
///
/// One request is in flight at a time (the protocol is strict
/// request/response); clone connections or use a [`ClientPool`] for
/// parallelism. Connecting performs the Hello handshake, so a
/// constructed client is always usable and knows the server's lattice
/// ([`ServerHello::predicates`]) without ever seeing the graph.
pub struct Client {
    stream: TcpStream,
    hello: ServerHello,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    healthy: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .field("epoch_at_connect", &self.hello.epoch)
            .field("healthy", &self.healthy)
            .finish()
    }
}

impl Client {
    /// Connects and handshakes as `consumer`, claiming `claims`
    /// predicates by name (empty = the Public consumer).
    pub fn connect(
        addr: impl ToSocketAddrs,
        consumer: &str,
        claims: &[&str],
    ) -> Result<Client, ClientError> {
        Client::handshake(TcpStream::connect(addr)?, consumer, claims)
    }

    /// Connects as the Public consumer `replica` with a read deadline on
    /// the socket, set before the Hello: a peer that accepts and goes
    /// silent fails the handshake instead of hanging it, and later a read
    /// that sees no bytes for `read_timeout` fails like a hangup — without
    /// it a feed follower would park forever on a half-open socket while
    /// status kept reporting it connected. How feed followers and the
    /// anti-entropy pass reach a primary.
    pub(crate) fn dial(addr: &str, read_timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
        Client::handshake(stream, "replica", &[])
    }

    fn handshake(
        stream: TcpStream,
        consumer: &str,
        claims: &[&str],
    ) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            // Replaced by the server's answer below.
            hello: ServerHello::default(),
            inbuf: Vec::with_capacity(512),
            outbuf: Vec::with_capacity(512),
            healthy: true,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            consumer: consumer.to_string(),
            claims: claims.iter().map(|c| c.to_string()).collect(),
        };
        match client.call(&hello)? {
            Response::Hello(hello) => {
                if hello.version != PROTOCOL_VERSION {
                    return Err(ClientError::VersionMismatch {
                        server: hello.version,
                    });
                }
                client.hello = hello;
                Ok(client)
            }
            // A typed refusal (unknown predicate claim, version skew):
            // surface the server's own words.
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("non-Hello")),
        }
    }

    /// What the server announced at handshake time.
    pub fn hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Resolves a predicate name against the server's lattice.
    pub fn predicate(&self, name: &str) -> Option<PrivilegeId> {
        self.hello.predicate(name)
    }

    /// Whether the connection is still believed usable. Typed server
    /// errors do not poison a client; transport and framing failures do.
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// One framed round trip. Typed error frames come back as
    /// `Ok(Response::Error(_))`; the public wrappers turn them into
    /// [`ClientError::Remote`].
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        // An unencodable request never touches the wire, so it refuses
        // only itself: the connection stays healthy and in sync.
        let payload = encode_request(request).map_err(ClientError::Unencodable)?;
        self.send(&payload)?;
        self.response()
    }

    /// Writes one request frame. A transport failure poisons the client.
    fn send(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload, &mut self.outbuf).map_err(|e| {
            self.healthy = false;
            ClientError::Io(e)
        })
    }

    /// Reads one frame's payload. A transport or framing failure, or a
    /// hangup, poisons the client.
    fn receive(&mut self) -> Result<&[u8], ClientError> {
        match read_frame(&mut self.stream, &mut self.inbuf) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => {
                self.healthy = false;
                Err(ClientError::Disconnected)
            }
            Err(e) => {
                self.healthy = false;
                Err(e.into())
            }
        }
    }

    /// Reads and decodes one response frame.
    fn response(&mut self) -> Result<Response, ClientError> {
        let decoded = decode_response(self.receive()?);
        decoded.map_err(|e| {
            self.healthy = false;
            ClientError::Malformed(e)
        })
    }

    /// Answers one lineage query remotely.
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        match self.call(&Request::Query(request.clone()))? {
            Response::Query(response) => Ok(response),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Query"))
            }
        }
    }

    /// Answers many lineage queries against one pinned server epoch.
    pub fn query_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>, ClientError> {
        let mut responses = Vec::with_capacity(requests.len());
        self.query_batch_into(requests, &mut responses)?;
        Ok(responses)
    }

    /// [`query_batch`](Self::query_batch), decoding into `out` and
    /// reusing its allocations — the response vector, each response's
    /// rows, and each row's label buffer are overwritten in place. A
    /// closed loop that drains batch after batch through one `out`
    /// buffer performs no per-round heap allocation on the receive
    /// path; see the module docs of [`plus_store::wire`].
    pub fn query_batch_into(
        &mut self,
        requests: &[QueryRequest],
        out: &mut Vec<QueryResponse>,
    ) -> Result<(), ClientError> {
        let payload = encode_batch_request(requests).map_err(ClientError::Unencodable)?;
        self.send(&payload)?;
        let decoded = decode_batch_response_into(self.receive()?, out);
        match decoded {
            Ok(None) => Ok(()),
            Ok(Some(remote)) => Err(ClientError::Remote(remote)),
            Err(e) => {
                self.healthy = false;
                Err(ClientError::Malformed(e))
            }
        }
    }

    /// The server's current epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Epoch)? {
            Response::Epoch(epoch) => Ok(epoch),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Epoch"))
            }
        }
    }

    /// Asks the server to checkpoint its durable store.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, ClientError> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpoint(stats) => Ok(stats),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Checkpoint"))
            }
        }
    }

    /// The server's status: its replication half (role, epochs,
    /// fencing term, lag, link health, the primary it follows) and its
    /// shard half (its place in the topology, the shard primaries and
    /// replicas it knows, and the per-shard epochs — its own slot live
    /// on a shard, the full merge vector on a gather, the degenerate
    /// single-epoch answer on an unsharded server). Safe against any
    /// server.
    pub fn status(&mut self) -> Result<(ReplicaStatus, ShardStatusInfo), ClientError> {
        match self.call(&Request::Status)? {
            Response::Status { replica, shards } => Ok((replica, shards)),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Status"))
            }
        }
    }

    /// The server's fencing term and per-segment WAL digests — the
    /// anti-entropy exchange (owner-side: the server must have
    /// replication enabled).
    pub(crate) fn log_digests(&mut self) -> Result<(u64, Vec<SegmentDigest>), ClientError> {
        match self.call(&Request::LogDigests)? {
            Response::LogDigests { term, segments } => Ok((term, segments)),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-LogDigests"))
            }
        }
    }

    /// Converts the connection into a one-way subscription stream from
    /// `from_clock`. After this, only [`next_chunk`](Self::next_chunk)
    /// is valid.
    pub(crate) fn subscribe(&mut self, from_clock: u64) -> Result<(), ClientError> {
        let payload =
            encode_request(&Request::Subscribe { from_clock }).map_err(ClientError::Unencodable)?;
        self.send(&payload)
    }

    /// The next chunk of a subscription stream. A typed error frame (the
    /// primary refusing or failing the feed) is terminal, and so is a
    /// read-deadline expiry: the primary heartbeats far more often than
    /// the deadline, so silence *is* a dead link.
    pub(crate) fn next_chunk(&mut self) -> Result<WalChunk, ClientError> {
        match self.response()? {
            Response::WalChunk(chunk) => Ok(chunk),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-WalChunk"))
            }
        }
    }

    /// A second handle on the socket, so another thread can hang it up
    /// (see `FeedLink::halt`).
    pub(crate) fn socket(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Asks the server to promote the replica it fronts to primary,
    /// bumping the fencing term (owner-side: the server must have
    /// replication enabled). Idempotent — an already-primary server
    /// answers with its current term.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Promote)? {
            Response::Promoted { term } => Ok(term),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Promoted"))
            }
        }
    }

    /// Applies one write on the server (owner-side: the server must
    /// have remote writes enabled, as a shard primary does). Returns
    /// the server's store clock after the write and, for an
    /// [`WriteOp::AppendNode`], the assigned global id.
    ///
    /// A write routed to the wrong shard of a partitioned deployment
    /// fails with a typed [`WireErrorKind::WrongShard`] refusal whose
    /// message names the owner; [`ShardRouter::write`] does the routing
    /// and the redirect retry for you.
    pub fn write(&mut self, op: WriteOp) -> Result<(u64, Option<RecordId>), ClientError> {
        match self.call(&Request::Write { op })? {
            Response::Written { clock, id } => Ok((clock, id)),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => {
                self.healthy = false;
                Err(ClientError::Unexpected("non-Written"))
            }
        }
    }
}

/// A pool of [`Client`] connections to one logical service — a primary
/// and, optionally, its read replicas — for callers that fan requests
/// out across threads.
///
/// [`get`](ClientPool::get) hands out an idle connection or dials a new
/// one. Every acquisition **probes** the connection with a cheap
/// `Epoch` round trip first: a server restart leaves dead sockets in
/// the idle set (the peer's FIN is only visible on the next I/O), and
/// without the probe those dead connections would be redealt and fail
/// mid-request. Stale entries are dropped and replaced by a fresh dial.
/// The guard returns the connection on drop if it is still
/// [healthy](Client::is_healthy), so transport failures age out of the
/// pool instead of being redealt.
///
/// With [`with_replicas`](Self::with_replicas), fresh dials spread
/// round-robin across the replica addresses and **fall back to the
/// primary** when a replica is down. Replica answers may lag the
/// primary by a few epochs (each response says which); pin reads that
/// must be fresh to a primary-only pool.
pub struct ClientPool {
    addr: String,
    replicas: Vec<String>,
    next_replica: AtomicUsize,
    consumer: String,
    claims: Vec<String>,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
    /// Where writes last landed: the address [`writable`](Self::writable)
    /// resolved, or a `NotWritable` redirect target. Tried first on the
    /// next resolution.
    writable_addr: Mutex<Option<String>>,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("addr", &self.addr)
            .field("replicas", &self.replicas)
            .field("consumer", &self.consumer)
            .field("idle", &self.idle.lock().len())
            .finish()
    }
}

impl ClientPool {
    /// A pool dialing `addr` as `consumer` with `claims`. No connection
    /// is opened until the first [`get`](Self::get).
    pub fn new(addr: impl Into<String>, consumer: impl Into<String>, claims: &[&str]) -> Self {
        Self {
            addr: addr.into(),
            replicas: Vec::new(),
            next_replica: AtomicUsize::new(0),
            consumer: consumer.into(),
            claims: claims.iter().map(|c| c.to_string()).collect(),
            idle: Mutex::new(Vec::new()),
            max_idle: 16,
            writable_addr: Mutex::new(None),
        }
    }

    /// Caps how many idle connections the pool retains (default 16).
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle;
        self
    }

    /// Adds read-replica addresses: fresh dials round-robin across them
    /// and fall back to the primary when none answers. Accepts any
    /// iterable of string-likes — `&["a:1"]`, `vec!["a:1".to_string()]`,
    /// or a [`Topology`](crate::Topology) slot's
    /// [`replicas`](crate::Topology::replicas).
    pub fn with_replicas(mut self, addrs: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.replicas = addrs.into_iter().map(Into::into).collect();
        self
    }

    /// Checks out a connection, dialing if none is idle. Idle
    /// connections are probed (one `Epoch` round trip) before being
    /// handed out; a probe failure drops the stale entry and the next
    /// candidate — or a fresh dial — takes its place.
    pub fn get(&self) -> Result<PooledClient<'_>, ClientError> {
        loop {
            let candidate = self.idle.lock().pop();
            let Some(mut client) = candidate else { break };
            // The probe also rechecks the health flag: epoch() poisons
            // the client on any transport or framing failure.
            if client.is_healthy() && client.epoch().is_ok() {
                return Ok(PooledClient {
                    pool: self,
                    client: Some(client),
                });
            }
            // Stale (a restarted or dead peer): drop and keep looking.
        }
        let client = self.dial()?;
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }

    /// Dials replicas round-robin, then the primary as the fallback.
    /// With no replicas configured, dials the primary directly.
    fn dial(&self) -> Result<Client, ClientError> {
        let claims: Vec<&str> = self.claims.iter().map(String::as_str).collect();
        if !self.replicas.is_empty() {
            let start = self.next_replica.fetch_add(1, Ordering::Relaxed);
            for i in 0..self.replicas.len() {
                let addr = &self.replicas[(start + i) % self.replicas.len()];
                if let Ok(client) = Client::connect(addr.as_str(), &self.consumer, &claims) {
                    return Ok(client);
                }
            }
            // Every replica refused: the primary serves the read.
        }
        Client::connect(self.addr.as_str(), &self.consumer, &claims)
    }

    /// Idle connections currently held.
    pub fn idle(&self) -> usize {
        self.idle.lock().len()
    }

    /// Resolves the **writable** endpoint: dials candidates — the last
    /// known writable address, the configured primary, then the replica
    /// list — asks each for its [`status`](Client::status),
    /// and returns the first that identifies as a primary. Replicas that
    /// answer contribute their `primary_addr` hint to the candidate
    /// list, so after a failover the pool follows the breadcrumbs to the
    /// promoted node even when it was never configured. The resolved
    /// address is cached and tried first next time.
    ///
    /// Fails with [`ClientError::NoWritable`] when every candidate is
    /// down or read-only.
    pub fn writable(&self) -> Result<PooledClient<'_>, ClientError> {
        let claims: Vec<&str> = self.claims.iter().map(String::as_str).collect();
        let last_good = self.writable_addr.lock().clone();
        let candidates = std::iter::once(&self.addr).chain(&self.replicas);
        let (client, addr, _) = resolve_writable(last_good, candidates, |addr| {
            let mut client =
                Client::connect(addr, &self.consumer, &claims).map_err(|e| e.to_string())?;
            let (status, _) = client.status().map_err(|e| e.to_string())?;
            Ok((client, status))
        })
        .map_err(|_| ClientError::NoWritable)?;
        *self.writable_addr.lock() = Some(addr);
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }

    /// Feeds a write failure back into the pool's routing: a
    /// `NotWritable` refusal carries the writable primary's address when
    /// the refusing replica knows it. Returns `true` when the error was
    /// a redirect and the cached writable address was updated — retry
    /// via [`writable`](Self::writable); on any other error, `false`.
    pub fn note_redirect(&self, error: &ClientError) -> bool {
        let ClientError::Remote(remote) = error else {
            return false;
        };
        if remote.kind != WireErrorKind::NotWritable || remote.message.is_empty() {
            return false;
        }
        *self.writable_addr.lock() = Some(remote.message.clone());
        true
    }
}

/// A checked-out pool connection; dereferences to [`Client`] and returns
/// to the pool on drop when still healthy.
pub struct PooledClient<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl std::ops::Deref for PooledClient<'_> {
    type Target = Client;

    fn deref(&self) -> &Client {
        self.client.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("present until drop")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            if client.healthy {
                let mut idle = self.pool.idle.lock();
                if idle.len() < self.pool.max_idle {
                    idle.push(client);
                }
            }
        }
    }
}

/// Shard-aware routing over a partitioned deployment: one [`ClientPool`]
/// per shard primary, writes and point reads steered to the owner.
///
/// Routing is stateless arithmetic (shard `i` of `N` owns ids ≡ `i` mod
/// `N`; see [`surrogate_core::shard`]): no directory service, no
/// topology refresh. Node appends have no routing id — the store assigns
/// the id — so they round-robin across shards, which keeps the keyspace
/// dense everywhere. Edges route by their source's owner, policy by the
/// governed node's owner.
///
/// A write the router mis-steered (say, the operator re-ordered the peer
/// list) comes back as a typed [`WireErrorKind::WrongShard`] refusal
/// whose message names the owner — its address when the refusing server
/// knows the peer list, its shard index in decimal otherwise. The router
/// follows that redirect **once**; a second refusal is surfaced, because
/// two disagreeing servers mean the topology itself is misconfigured and
/// retrying would bounce forever.
///
/// When the [`Topology`] names replicas for a shard, the router also
/// survives that shard's **primary dying**: a dead connection or a
/// [`WireErrorKind::NotWritable`] refusal makes it re-resolve the
/// slot's writable endpoint through
/// [`ClientPool::writable`](ClientPool::writable) — the replica set
/// plus any redirect breadcrumbs — and retry the write once against the
/// promoted primary.
///
/// Traversals (`max_depth > 0`) need every shard's edges and belong on a
/// gather node's pool, not here — shard primaries refuse them.
pub struct ShardRouter {
    pools: Vec<ClientPool>,
    map: ShardMap,
    next_node: AtomicUsize,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.pools.len())
            .finish()
    }
}

impl ShardRouter {
    /// A router over the deployment `topology`: one pool per shard, in
    /// shard order, each dialing that shard's primary with its replicas
    /// as read spill-over and failover candidates, handshaking as the
    /// topology's consumer. Fails with [`ClientError::BadTopology`]
    /// when the topology names no shards.
    pub fn new(topology: &Topology) -> Result<Self, ClientError> {
        let map = topology.map()?;
        let claims: Vec<&str> = topology.claims().iter().map(String::as_str).collect();
        Ok(Self {
            pools: topology
                .shards()
                .iter()
                .map(|site| {
                    ClientPool::new(site.primary.clone(), topology.consumer(), &claims)
                        .with_replicas(site.replicas.iter().cloned())
                })
                .collect(),
            map,
            next_node: AtomicUsize::new(0),
        })
    }

    /// How many shards the router spreads over.
    pub fn shard_count(&self) -> u32 {
        self.map.count()
    }

    /// The shard that owns global id `id`.
    pub fn shard_of(&self, id: u32) -> u32 {
        self.map.shard_of(id)
    }

    /// The pool for shard `slot`, for callers that need to pin one
    /// (epoch probes, shard status, per-shard maintenance).
    pub fn pool(&self, slot: u32) -> &ClientPool {
        &self.pools[slot as usize]
    }

    /// Applies one write on the owning shard: edges to their source's
    /// owner, policy to the governed node's owner, node appends
    /// round-robin. Follows one [`WireErrorKind::WrongShard`] redirect.
    /// Returns the answering shard's clock and, for a node append, the
    /// assigned global id.
    ///
    /// A dead shard primary or a [`WireErrorKind::NotWritable`] refusal
    /// triggers **failover**: the slot's writable endpoint is
    /// re-resolved through [`ClientPool::writable`] (replica set plus
    /// redirect breadcrumbs) and the write retried once against the
    /// promoted primary. The original error is surfaced when no
    /// candidate identifies as writable.
    pub fn write(&self, op: WriteOp) -> Result<(u64, Option<RecordId>), ClientError> {
        let slot = match op.routing_id() {
            Some(id) => self.map.shard_of(id.0),
            None => (self.next_node.fetch_add(1, Ordering::Relaxed) % self.pools.len()) as u32,
        };
        let pool = &self.pools[slot as usize];
        let error = match pool.get().and_then(|mut client| client.write(op.clone())) {
            Ok(ack) => return Ok(ack),
            Err(error) => error,
        };
        if Self::failover_worthy(&error) {
            // A redirect breadcrumb seeds the resolution when present;
            // otherwise writable() walks the replica set itself.
            pool.note_redirect(&error);
            return match pool.writable() {
                Ok(mut client) => client.write(op),
                Err(_) => Err(error),
            };
        }
        let Some(target) = self.redirect_slot(&error) else {
            return Err(error);
        };
        self.pools[target as usize].get()?.write(op)
    }

    /// Whether a write failure means "the shard primary is gone or
    /// deposed" — the cases worth a failover resolution — rather than a
    /// refusal that would just repeat (authorization, encoding, wrong
    /// shard).
    fn failover_worthy(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) | ClientError::Disconnected => true,
            ClientError::Remote(remote) => remote.kind == WireErrorKind::NotWritable,
            _ => false,
        }
    }

    /// Answers a point read (`max_depth == 0`) on the shard that owns
    /// the root. Traversals belong on a gather pool.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        let slot = self.map.shard_of(request.root.0);
        self.pools[slot as usize].get()?.query(request)
    }

    /// Decodes a [`WireErrorKind::WrongShard`] refusal into the slot to
    /// retry on: the message is the owner's address when the server knew
    /// its peers, else the owner's index in decimal.
    fn redirect_slot(&self, error: &ClientError) -> Option<u32> {
        let ClientError::Remote(remote) = error else {
            return None;
        };
        if remote.kind != WireErrorKind::WrongShard || remote.message.is_empty() {
            return None;
        }
        if let Some(slot) = self
            .pools
            .iter()
            .position(|pool| pool.addr == remote.message)
        {
            return Some(slot as u32);
        }
        remote
            .message
            .parse::<u32>()
            .ok()
            .filter(|&slot| slot < self.map.count())
    }
}
