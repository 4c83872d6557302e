//! Minimal Linux syscall surface for the readiness event loop.
//!
//! The workspace builds against offline dependency shims only, so there is
//! no `libc`/`mio` crate to lean on — but the Rust standard library already
//! links the platform libc, which makes direct `extern "C"` declarations
//! free. This module binds exactly the four facilities the reactor needs:
//!
//! * `epoll` — edge-triggered readiness notification ([`Epoll`]);
//! * `eventfd` — a cross-thread wakeup the loop can poll alongside its
//!   sockets ([`WakeFd`]);
//! * `writev` — vectored writes so queued frames flush in one syscall
//!   ([`writev_fd`]);
//! * `fcntl`-free nonblocking mode comes from
//!   `std::net::TcpStream::set_nonblocking`, so it is not bound here.
//!
//! Everything else (socket reads, dialing, listening) stays on `std`.
//! The transport is Linux-only at runtime, like the rest of the harness.

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;

/// Readable readiness (data, EOF, or an incoming connection).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (socket send buffer drained below its watermark).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the descriptor (always reported, never armed).
pub const EPOLLERR: u32 = 0x008;
/// Hangup: the peer closed both directions.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: one event per readiness *transition*.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One `epoll_wait` result slot. Matches the kernel ABI: packed on x86 so
/// the 12-byte layout lines up (the kernel struct has no padding there).
#[derive(Clone, Copy)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token, handed back verbatim.
    pub data: u64,
}

/// One scatter/gather slice for `writev` (the C `struct iovec`).
#[repr(C)]
struct IoVec {
    base: *const c_void,
    len: usize,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance. Closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes a flag word and touches no memory
        // of ours; a failure comes back as -1, which `cvt` turns into an error.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagging its results with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live, kernel-layout `epoll_event` the call only
        // reads; `self.fd` is our open epoll instance, and a bad `fd` is an
        // error return, not undefined behaviour.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`: `ev` is valid for the call (which ignores it
        // for `EPOLL_CTL_DEL`) and `self.fd` is our open epoll instance.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Wait for events, up to `timeout_ms` (`-1` blocks indefinitely).
    /// Returns how many slots of `events` were filled. `EINTR` is retried.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the kernel writes at most `events.len()` slots, all
            // inside the exclusively borrowed slice, and `EpollEvent` has the
            // kernel's layout (packed on x86, as the ABI requires).
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the descriptor `new` opened, owned by this
        // value alone and closed only here, once.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used to kick the reactor out of `epoll_wait` from
/// other threads. Closed on drop.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Create a nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: `eventfd` takes two integers and touches no memory of
        // ours; a failure comes back as -1, which `cvt` turns into an error.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signal the reactor (adds 1 to the eventfd counter). Safe from any
    /// thread; failures are ignored — a missed wake is recovered by the
    /// loop's next tick.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: the kernel reads exactly 8 bytes from `one`, a live `u64`;
        // `self.fd` is the eventfd this value owns.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consume all pending wakes (reads the counter down to zero).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the kernel writes at most 8 bytes into `buf`, which has 8;
        // `self.fd` is the eventfd this value owns.
        unsafe { read(self.fd, buf.as_mut_ptr().cast(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the descriptor `new` opened, owned by this
        // value alone and closed only here, once.
        unsafe { close(self.fd) };
    }
}

/// Vectored write: submit every slice in `bufs` to the kernel in a single
/// syscall. Returns the byte count accepted (which may split a slice, or
/// stop short of the last ones). `EINTR` is retried; `EAGAIN` surfaces as
/// [`io::ErrorKind::WouldBlock`].
pub fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    let iov: Vec<IoVec> =
        bufs.iter().map(|b| IoVec { base: b.as_ptr().cast(), len: b.len() }).collect();
    loop {
        // SAFETY: every `IoVec` points at a slice of `bufs`, borrowed for
        // the whole call, with that slice's length; the kernel only reads
        // them. A bad `fd` is an error return, not undefined behaviour.
        let n = unsafe { writev(fd, iov.as_ptr(), iov.len() as c_int) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wakefd_round_trip_and_epoll_sees_it() {
        let ep = Epoll::new().unwrap();
        let wk = WakeFd::new().unwrap();
        ep.add(wk.fd(), 7, EPOLLIN).unwrap();
        let mut evs = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: times out empty.
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
        wk.wake();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        let (events, data) = (evs[0].events, evs[0].data);
        assert_eq!(data, 7);
        assert!(events & EPOLLIN != 0);
        wk.drain();
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0, "drain must clear readiness");
    }

    #[test]
    fn writev_coalesces_slices_over_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = std::net::TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let n = writev_fd(tx.as_raw_fd(), &[b"hel", b"lo ", b"world"]).unwrap();
        assert_eq!(n, 11);
        let mut got = [0u8; 11];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
    }
}
