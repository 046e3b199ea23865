//! The safe reactor surface: [`Poller`], [`Events`], [`Waker`].

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, OwnedFd};
use std::time::Duration;

use crate::sys;
use crate::{Interest, Token};

/// One `epoll` instance. Register nonblocking sockets with a [`Token`]
/// and an [`Interest`]; [`wait`](Poller::wait) reports which are ready.
///
/// Registration methods take `&self`: the kernel serializes `epoll_ctl`
/// against `epoll_wait`, so a [`Waker`]-owning thread may register while
/// another waits. (The server keeps one poller per event-loop shard and
/// never shares registrations across shards.)
pub struct Poller {
    epfd: OwnedFd,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epfd.as_raw_fd())
            .finish()
    }
}

fn interest_bits(interest: Interest) -> u32 {
    let mut bits = sys::EPOLLRDHUP; // peer hangups are always relevant
    if interest.is_readable() {
        bits |= sys::EPOLLIN;
    }
    if interest.is_writable() {
        bits |= sys::EPOLLOUT;
    }
    bits
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
        })
    }

    /// Starts watching `fd` for `interest`, tagging its events with
    /// `token`. The fd should already be nonblocking; registration does
    /// not change its modes. Registering the same fd twice is an error
    /// (`EEXIST`) — use [`reregister`](Self::reregister).
    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_add(&self.epfd, fd.as_raw_fd(), interest_bits(interest), token.0)
    }

    /// Replaces the interest set (and token) of an already-registered
    /// fd — how a connection flips write readiness on and off.
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        sys::epoll_mod(&self.epfd, fd.as_raw_fd(), interest_bits(interest), token.0)
    }

    /// Stops watching `fd`. Safe to call on an fd about to be closed;
    /// events already collected for it may still be delivered from the
    /// current [`wait`](Self::wait) batch (tag tokens with a generation
    /// to detect that).
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_del(&self.epfd, fd.as_raw_fd())
    }

    /// Blocks until a registered fd is ready (or `timeout` passes, or a
    /// [`Waker`] fires), filling `events`. Returns the number of events
    /// delivered; `0` means the timeout elapsed. `EINTR` retries
    /// internally.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.len = sys::epoll_wait_into(&self.epfd, &mut events.buf, timeout)?;
        Ok(events.len)
    }
}

/// A reusable buffer of readiness [`Event`]s filled by [`Poller::wait`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events")
            .field("capacity", &self.buf.len())
            .field("len", &self.len)
            .finish()
    }
}

impl Events {
    /// A buffer that can carry up to `capacity` events per wait (at
    /// least 1).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| Event {
            // Copy out of the (possibly packed) kernel record before
            // reading fields.
            bits: { *raw }.events,
            token: Token({ *raw }.data),
        })
    }

    /// How many events the last wait delivered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait delivered none (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    bits: u32,
    token: Token,
}

impl Event {
    /// The token the ready fd was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Ready to read — bytes available, a pending accept, or a peer
    /// close (a read will observe the EOF).
    pub fn is_readable(&self) -> bool {
        self.bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
    }

    /// Ready to accept more outgoing bytes.
    pub fn is_writable(&self) -> bool {
        self.bits & sys::EPOLLOUT != 0
    }

    /// The fd is in an error state (e.g. a connection reset); reads and
    /// writes will surface the specific error.
    pub fn is_error(&self) -> bool {
        self.bits & sys::EPOLLERR != 0
    }

    /// The peer closed (fully, or its write half): after draining any
    /// buffered bytes, the connection is over.
    pub fn is_hangup(&self) -> bool {
        self.bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0
    }
}

/// Wakes a [`Poller::wait`] from another thread — an `eventfd`
/// registered like any socket, delivered as a readable [`Event`] with
/// the token chosen at construction.
///
/// Cross-thread handoff pattern: the sender queues work somewhere
/// shared, then calls [`wake`](Waker::wake); the event loop sees the
/// waker's token, [`drain`](Waker::drain)s it, and picks the work up.
pub struct Waker {
    fd: File,
    token: Token,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("fd", &self.fd.as_raw_fd())
            .field("token", &self.token)
            .finish()
    }
}

impl Waker {
    /// Creates a waker and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        let fd = File::from(sys::eventfd_create()?);
        poller.register(&fd, token, Interest::READABLE)?;
        Ok(Waker { fd, token })
    }

    /// The token this waker's events carry.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Makes the poller's current (or next) wait return. Cheap, safe
    /// from any thread, and coalescing: many wakes before a drain still
    /// produce one readable event.
    pub fn wake(&self) -> io::Result<()> {
        match (&self.fd).write(&1u64.to_ne_bytes()) {
            Ok(_) => Ok(()),
            // Counter saturated: the poller is provably wake-pending.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Clears pending wake-ups; the event loop calls this when it sees
    /// the waker's token, before collecting the handed-off work.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // One read empties an eventfd counter entirely.
        let _ = (&self.fd).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const T_LISTENER: Token = Token(1);
    const T_CONN: Token = Token(2);
    const T_WAKER: Token = Token(99);

    #[test]
    fn readiness_roundtrip_over_loopback() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(&listener, T_LISTENER, Interest::READABLE)
            .unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(8);

        // The pending accept surfaces as listener readability.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == T_LISTENER && e.is_readable()));
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(&conn, T_CONN, Interest::READABLE).unwrap();

        // Payload from the client surfaces as connection readability.
        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut saw_conn = false;
        while !saw_conn && std::time::Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            saw_conn = events
                .iter()
                .any(|e| e.token() == T_CONN && e.is_readable());
        }
        assert!(saw_conn, "payload readiness was never delivered");

        // Level-triggered: unread bytes keep the event coming.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == T_CONN && e.is_readable()));

        // Flipping to write interest reports writability instead.
        poller
            .reregister(&conn, T_CONN, Interest::WRITABLE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == T_CONN && e.is_writable()));

        // Deregistered fds go quiet.
        poller.deregister(&conn).unwrap();
        poller.deregister(&listener).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_is_reported() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(&conn, T_CONN, Interest::READABLE).unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events
            .iter()
            .find(|e| e.token() == T_CONN)
            .expect("an event for the closed peer");
        assert!(event.is_hangup());
        assert!(event.is_readable(), "the EOF is readable");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, T_WAKER).unwrap());
        let from_thread = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            from_thread.wake().unwrap();
        });
        let mut events = Events::with_capacity(8);
        let started = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "wake was lost");
        assert!(events.iter().any(|e| e.token() == T_WAKER));
        waker.drain();
        handle.join().unwrap();

        // Drained: the next wait times out instead of spinning.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        // Coalescing: two wakes, one event, one drain.
        waker.wake().unwrap();
        waker.wake().unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            events.iter().filter(|e| e.token() == T_WAKER).count(),
            1,
            "wakes coalesce"
        );
        waker.drain();
    }
}
