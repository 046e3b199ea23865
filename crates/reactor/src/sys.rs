//! The crate's entire `unsafe` surface: thin FFI declarations for the
//! syscalls the reactor needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait2` with `epoll_wait` as its fallback, `eventfd`) plus the
//! `rlimit` pair, each wrapped in a
//! safe function that owns the fd lifetime through [`OwnedFd`] and turns
//! `-1` into [`io::Error::last_os_error`]. Nothing above this module
//! touches a raw pointer or a raw fd it does not own.
//!
//! The declarations mirror the Linux kernel ABI (the `libc` crate's
//! definitions, vendored down to what is used). `epoll_event` is
//! `packed` on x86 — the kernel declares it so — and naturally aligned
//! elsewhere.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// --- epoll constants (uapi/linux/eventpoll.h) ---------------------------

/// `EPOLLIN`: readable (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition; always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup; always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EFD_CLOEXEC: c_int = 0x8_0000;
const EFD_NONBLOCK: c_int = 0x800;

const RLIMIT_NOFILE: c_int = 7;

/// `epoll_pwait2`'s syscall number: syscalls added since Linux 5.1 share
/// one number on every architecture.
const SYS_EPOLL_PWAIT2: c_long = 441;

/// One readiness record, kernel layout. `data` round-trips the caller's
/// token verbatim.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-state bit set (`EPOLL*` constants above).
    pub events: u32,
    /// The token registered with the fd.
    pub data: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn syscall(number: c_long, ...) -> c_long;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (`CLOEXEC`), owned: dropping the fd closes
/// it.
pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: epoll_create1 returned a fresh fd we now uniquely own.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Creates a nonblocking `eventfd` (`CLOEXEC`), owned — the wake-up
/// channel a [`Waker`](crate::Waker) writes into.
pub fn eventfd_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    // SAFETY: eventfd returned a fresh fd we now uniquely own.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn ctl(epfd: &OwnedFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut event = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `event` outlives the call; the kernel copies it. The fds
    // are live for the duration (epfd borrowed, fd is the caller's).
    cvt(unsafe { epoll_ctl(epfd.as_raw_fd(), op, fd, &mut event) })?;
    Ok(())
}

/// `EPOLL_CTL_ADD`.
pub fn epoll_add(epfd: &OwnedFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

/// `EPOLL_CTL_MOD`.
pub fn epoll_mod(epfd: &OwnedFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

/// `EPOLL_CTL_DEL`.
pub fn epoll_del(epfd: &OwnedFd, fd: RawFd) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Set once `epoll_pwait2` is found missing (a kernel before 5.11, or a
/// sandbox that refuses it); waits then fall back to `epoll_wait`.
static NO_PWAIT2: AtomicBool = AtomicBool::new(false);

/// Waits for readiness, filling `buf` from the front; returns how many
/// records landed. `None` blocks indefinitely. `epoll_pwait2` honours the
/// timeout to the microsecond; the `epoll_wait` fallback rounds it up to
/// whole milliseconds, so a 1ns timeout cannot spin as 0ms. `EINTR` is
/// retried here so callers never see a spurious zero.
pub fn epoll_wait_into(
    epfd: &OwnedFd,
    buf: &mut [EpollEvent],
    timeout: Option<Duration>,
) -> io::Result<usize> {
    use io::ErrorKind::{PermissionDenied, Unsupported};
    let maxevents = buf.len().min(c_int::MAX as usize) as c_int;
    loop {
        let pwait2 = !NO_PWAIT2.load(Ordering::Relaxed);
        let n = if pwait2 {
            // The kernel's 64-bit `timespec`: seconds, then nanoseconds.
            let timespec: Option<[i64; 2]> = timeout.map(|t| {
                [
                    t.as_secs().min(i64::MAX as u64) as i64,
                    i64::from(t.subsec_nanos()),
                ]
            });
            let timespec = timespec.as_ref().map_or(std::ptr::null(), |t| t.as_ptr());
            // SAFETY: as above for `buf`; `timespec` is null or points to
            // two live `i64`s, and a null signal mask makes the kernel
            // ignore the mask size.
            unsafe {
                syscall(
                    SYS_EPOLL_PWAIT2,
                    c_long::from(epfd.as_raw_fd()),
                    buf.as_mut_ptr(),
                    c_long::from(maxevents),
                    timespec,
                    std::ptr::null::<u8>(),
                    0 as c_long,
                ) as c_int
            }
        } else {
            let timeout_ms = match timeout {
                Some(t) => t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                    .min(i32::MAX as u128) as i32,
                None => -1,
            };
            // SAFETY: `buf` is valid for `maxevents` records for the
            // call's duration; the kernel writes at most that many.
            unsafe { epoll_wait(epfd.as_raw_fd(), buf.as_mut_ptr(), maxevents, timeout_ms) }
        };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // ENOSYS, or EPERM from a seccomp filter that predates it.
            Err(e) if pwait2 && matches!(e.kind(), Unsupported | PermissionDenied) => {
                NO_PWAIT2.store(true, Ordering::Relaxed);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Best-effort raise of this process's open-file limit toward `target`
/// (serving tens of thousands of sockets needs more than the common
/// 1024-fd default). Returns the resulting soft limit. Never fails the
/// caller: an `EPERM` (hard limit lower than `target`, no privilege)
/// just leaves the limit where it was.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid out-pointer for the call's duration.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = Rlimit {
        rlim_cur: target.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    // SAFETY: `want` is a valid in-pointer for the call's duration.
    if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
        Ok(want.rlim_cur)
    } else {
        Ok(lim.rlim_cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_instance_creates_and_closes() {
        let fd = epoll_create().unwrap();
        assert!(fd.as_raw_fd() >= 0);
    }

    /// A feed's 100µs nap must not become a whole millisecond. Mutation
    /// caught: waiting through the millisecond `epoll_wait` every time.
    #[test]
    fn sub_millisecond_timeouts_are_neither_early_nor_rounded_up() {
        let (epfd, timeout) = (epoll_create().unwrap(), Duration::from_micros(200));
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        let mut waits: Vec<Duration> = (0..21)
            .map(|_| {
                let began = std::time::Instant::now();
                assert_eq!(epoll_wait_into(&epfd, &mut buf, Some(timeout)).unwrap(), 0);
                began.elapsed()
            })
            .collect();
        waits.sort();
        assert!(waits[0] >= timeout, "returned early: {waits:?}");
        let rounded = waits[10] >= Duration::from_millis(1);
        assert!(!rounded || NO_PWAIT2.load(Ordering::Relaxed), "{waits:?}");
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let current = raise_nofile_limit(1024).unwrap();
        assert!(current >= 256, "limit {current} is implausibly low");
    }
}
