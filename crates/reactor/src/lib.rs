//! # reactor
//!
//! A vendored, std-only mini-reactor: the readiness-multiplexing core
//! under the query server's event loops. It wraps Linux `epoll` behind a
//! safe [`Poller`] / [`Token`] / [`Interest`] API — the shape `mio`
//! popularized, shrunk to exactly what a readiness-based TCP server
//! needs — so the rest of the workspace keeps its no-external-deps,
//! no-`unsafe` discipline (`unsafe` lives only in this crate's [`sys`]
//! FFI module, behind safe wrappers).
//!
//! # Model
//!
//! * A [`Poller`] owns one `epoll` instance. Sockets are
//!   [registered](Poller::register) with a caller-chosen [`Token`] and an
//!   [`Interest`] set (readable and/or writable).
//! * [`Poller::wait`] blocks (optionally bounded by a timeout) until at
//!   least one registered socket is ready, filling an [`Events`] buffer.
//!   Each [`Event`] reports the token and what it is ready for.
//! * Readiness is **level-triggered**: a socket with unread bytes (or
//!   writable space) keeps reporting ready until the condition clears,
//!   so a handler that processes *some* of the data is never stranded.
//! * A [`Waker`] lets any thread interrupt a blocked [`Poller::wait`] —
//!   the handoff point for cross-thread work injection (e.g. an accept
//!   thread passing new connections to an event-loop shard).
//!
//! # Quick start
//!
//! ```no_run
//! use reactor::{Events, Interest, Poller, Token};
//! use std::net::TcpListener;
//!
//! # fn main() -> std::io::Result<()> {
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! listener.set_nonblocking(true)?;
//!
//! let poller = Poller::new()?;
//! const ACCEPT: Token = Token(0);
//! poller.register(&listener, ACCEPT, Interest::READABLE)?;
//!
//! let mut events = Events::with_capacity(64);
//! loop {
//!     poller.wait(&mut events, None)?;
//!     for event in events.iter() {
//!         if event.token() == ACCEPT && event.is_readable() {
//!             while let Ok((conn, _)) = listener.accept() {
//!                 conn.set_nonblocking(true)?;
//!                 // register `conn` with its own token …
//!             }
//!         }
//!     }
//! }
//! # }
//! ```
//!
//! # Scope and portability
//!
//! Linux-only by construction (`epoll`, `eventfd`): the workspace's
//! build and CI targets. The FFI surface is five syscalls
//! (`epoll_pwait2`, for timeouts finer than a millisecond, falls back to
//! `epoll_wait`) plus the `rlimit` pair behind [`sys::raise_nofile_limit`]; everything else —
//! fd lifetimes, nonblocking modes, reads and writes — goes through
//! `std`. There is deliberately no timer wheel, no task system, and no
//! I/O abstraction: callers bring their own state machines.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod sys;

mod poller;

pub use poller::{Event, Events, Poller, Waker};

/// An opaque identifier a caller attaches to each registered socket;
/// [`Event`]s report it back. Typical servers pack a slab index (and a
/// generation counter, to catch events raced against a close) into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// What readiness a registration asks to be told about.
///
/// Combine with [`Interest::add`] (the type is a tiny const-friendly
/// bitset): `Interest::READABLE.add(Interest::WRITABLE)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Ask for no readiness at all — errors and peer hangups are still
    /// delivered (epoll always reports them). How a server parks a
    /// backpressured connection it has stopped reading from while still
    /// noticing the peer leave.
    pub const NONE: Interest = Interest(0);
    /// Wake when the socket has bytes to read (or a pending accept, or
    /// a peer hangup — hangups are delivered even if not asked for).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the socket can accept more outgoing bytes.
    pub const WRITABLE: Interest = Interest(0b10);

    /// The union of two interest sets.
    #[must_use]
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether this set asks for read readiness.
    pub const fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Whether this set asks for write readiness.
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}
