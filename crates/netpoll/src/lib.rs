//! # retroweb-netpoll — a std-only readiness-polling event loop core
//!
//! No async runtime and no network crates are available in this build
//! environment, so this crate supplies the minimal substrate an evented
//! server front end needs, over nothing but `std` and one inline FFI
//! declaration for `poll(2)`:
//!
//! - **Registration** of raw file descriptors under caller-chosen
//!   [`Token`]s with [`Interest`] flags (readable / writable / both /
//!   none — a registration with empty interest still reports errors and
//!   hangups, which is how a parked connection's death is noticed).
//! - **Deadlines**: one optional [`Instant`] per token
//!   ([`Poller::set_deadline`]); an expired deadline surfaces as an
//!   [`Event`] with [`Event::timed_out`] set and is one-shot (cleared
//!   when it fires). The nearest deadline bounds the poll timeout, so
//!   timers need no extra wakeups.
//! - **A wakeup channel** ([`wake_pair`]): a nonblocking socketpair
//!   whose read end is registered like any other fd, so other threads
//!   can interrupt a blocked [`Poller::wait`] without FFI (`pipe(2)` is
//!   not needed; `UnixStream::pair` is std).
//!
//! Each wait rebuilds a `pollfd` array from the registrations and calls
//! `poll(2)`: O(fds) per call, which is fine up to the tens of
//! thousands of sockets this workspace targets, with no kernel-side
//! state to keep in step.
//!
//! Tokens should be small dense integers (a slab index): the poller
//! stores registrations in a vector indexed by token, exactly like the
//! connection tables that sit on top of it.

#![forbid(unsafe_op_in_unsafe_fn)]

use std::io;
use std::time::{Duration, Instant};

#[cfg(unix)]
pub use std::os::unix::io::RawFd;
/// Fallback fd alias so the crate still type-checks off-unix; every
/// operation returns [`io::ErrorKind::Unsupported`] there.
#[cfg(not(unix))]
pub type RawFd = i32;

pub mod sys;

/// Which readiness a registration asks to be woken for. Errors and
/// hangups are always reported, interest or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    pub const NONE: Interest = Interest(0);
    pub const READABLE: Interest = Interest(1);
    pub const WRITABLE: Interest = Interest(2);
    pub const BOTH: Interest = Interest(3);

    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// Union of two interests.
    #[must_use]
    pub fn with(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// Caller-chosen registration identity; use small dense values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// One readiness (or deadline-expiry) notification from [`Poller::wait`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up (POLLHUP).
    pub hangup: bool,
    /// Error condition on the fd (POLLERR / POLLNVAL).
    pub error: bool,
    /// The registration's deadline expired (and was cleared).
    pub timed_out: bool,
}

impl Default for Token {
    fn default() -> Token {
        Token(usize::MAX)
    }
}

#[derive(Debug)]
struct Registration {
    fd: RawFd,
    interest: Interest,
    deadline: Option<Instant>,
}

/// The event loop core: a token-indexed registration table polled with
/// `poll(2)`, with per-token deadlines folded into the poll timeout.
#[derive(Debug, Default)]
pub struct Poller {
    /// Indexed by `Token.0`; `None` slots are free.
    regs: Vec<Option<Registration>>,
    registered: usize,
    /// Scratch reused across waits, parallel to each other.
    pollfds: Vec<sys::pollfd>,
    tokens: Vec<Token>,
}

impl Poller {
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Registered fd count.
    pub fn len(&self) -> usize {
        self.registered
    }

    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Register `fd` under `token`. Fails with `AlreadyExists` if the
    /// token is taken — stale-token bugs should be loud, not silent
    /// re-registrations.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if self.regs.len() <= token.0 {
            self.regs.resize_with(token.0 + 1, || None);
        }
        let slot = &mut self.regs[token.0];
        if slot.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("token {} is already registered", token.0),
            ));
        }
        *slot = Some(Registration { fd, interest, deadline: None });
        self.registered += 1;
        Ok(())
    }

    /// Replace the interest set for `token`.
    pub fn set_interest(&mut self, token: Token, interest: Interest) -> io::Result<()> {
        self.reg_mut(token)?.interest = interest;
        Ok(())
    }

    pub fn interest(&self, token: Token) -> Option<Interest> {
        self.reg(token).map(|r| r.interest)
    }

    /// Drop the registration (and any pending deadline) for `token`.
    pub fn deregister(&mut self, token: Token) -> io::Result<()> {
        self.regs.get_mut(token.0).and_then(Option::take).ok_or_else(|| unknown_token(token))?;
        self.registered -= 1;
        Ok(())
    }

    /// Arm (or move) the one-shot deadline for `token`: a wait running
    /// past it yields an [`Event`] with `timed_out` set and clears it.
    pub fn set_deadline(&mut self, token: Token, at: Instant) -> io::Result<()> {
        self.reg_mut(token)?.deadline = Some(at);
        Ok(())
    }

    pub fn clear_deadline(&mut self, token: Token) -> io::Result<()> {
        self.reg_mut(token)?.deadline = None;
        Ok(())
    }

    /// Block until readiness, a deadline, or `timeout`; `None` waits
    /// indefinitely (deadlines still bound the sleep). Clears and
    /// refills `events`; returns the number delivered. Zero events
    /// after a bounded wait means the caller's own timeout elapsed.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.pollfds.clear();
        self.tokens.clear();
        let mut nearest: Option<Instant> = None;
        for (idx, reg) in self.regs.iter().enumerate() {
            let Some(reg) = reg else { continue };
            let mut mask: i16 = 0;
            if reg.interest.readable() {
                mask |= sys::POLLIN;
            }
            if reg.interest.writable() {
                mask |= sys::POLLOUT;
            }
            // An empty mask still reports POLLERR/POLLHUP/POLLNVAL.
            self.pollfds.push(sys::pollfd { fd: reg.fd, events: mask, revents: 0 });
            self.tokens.push(Token(idx));
            if let Some(deadline) = reg.deadline {
                nearest = Some(match nearest {
                    Some(cur) => cur.min(deadline),
                    None => deadline,
                });
            }
        }
        let now = Instant::now();
        let timeout_ms = effective_timeout_ms(now, timeout, nearest);
        if sys::poll(&mut self.pollfds, timeout_ms)? > 0 {
            for (pfd, &token) in self.pollfds.iter().zip(&self.tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: pfd.revents & sys::POLLIN != 0,
                    writable: pfd.revents & sys::POLLOUT != 0,
                    hangup: pfd.revents & sys::POLLHUP != 0,
                    error: pfd.revents & (sys::POLLERR | sys::POLLNVAL) != 0,
                    timed_out: false,
                });
            }
        }
        // Fire expired deadlines (one-shot). Checked after the poll so a
        // deadline that passed while we slept is delivered on this wait.
        if nearest.is_some() {
            let now = Instant::now();
            for (idx, reg) in self.regs.iter_mut().enumerate() {
                let Some(reg) = reg else { continue };
                if reg.deadline.is_some_and(|d| d <= now) {
                    reg.deadline = None;
                    events.push(Event { token: Token(idx), timed_out: true, ..Event::default() });
                }
            }
        }
        Ok(events.len())
    }

    fn reg(&self, token: Token) -> Option<&Registration> {
        self.regs.get(token.0).and_then(Option::as_ref)
    }

    fn reg_mut(&mut self, token: Token) -> io::Result<&mut Registration> {
        self.regs.get_mut(token.0).and_then(Option::as_mut).ok_or_else(|| unknown_token(token))
    }
}

fn unknown_token(token: Token) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("token {} is not registered", token.0))
}

/// Fold the caller timeout and the nearest deadline into poll's
/// millisecond argument: `-1` = infinite, otherwise ceil-to-ms so a
/// deadline is never declared expired before it actually is.
fn effective_timeout_ms(now: Instant, timeout: Option<Duration>, nearest: Option<Instant>) -> i32 {
    let until_deadline = nearest.map(|at| at.saturating_duration_since(now));
    let bound = match (timeout, until_deadline) {
        (None, None) => return -1,
        (Some(t), None) => t,
        (None, Some(d)) => d,
        (Some(t), Some(d)) => t.min(d),
    };
    let ms = bound.as_millis().min(i32::MAX as u128 - 1) as i32;
    // Round up: a 0ms sleep for a 300µs-away deadline would busy-spin.
    if bound > Duration::from_millis(ms as u64) {
        ms + 1
    } else {
        ms
    }
}

// ---- wakeup channel -------------------------------------------------------

/// Thread-safe handle that interrupts a blocked [`Poller::wait`] by
/// making its paired [`WakeReader`] readable. Cloneable and cheap;
/// coalesces naturally (the reader drains everything at once).
#[derive(Clone, Debug)]
pub struct Waker {
    #[cfg(unix)]
    tx: retroweb_sync::Arc<std::os::unix::net::UnixStream>,
}

/// Read end of the wakeup channel; register its fd with the poller and
/// [`drain`](WakeReader::drain) it on readability.
#[derive(Debug)]
pub struct WakeReader {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

/// Build a wakeup channel: a nonblocking `UnixStream` pair.
#[cfg(unix)]
pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: retroweb_sync::Arc::new(tx) }, WakeReader { rx }))
}

#[cfg(not(unix))]
pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "netpoll wake_pair requires unix"))
}

impl Waker {
    /// Make the reader readable. A full socket buffer means a wakeup is
    /// already pending — success either way.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&*self.tx).write(&[1]);
        }
    }
}

impl WakeReader {
    #[cfg(unix)]
    pub fn as_raw_fd(&self) -> RawFd {
        std::os::unix::io::AsRawFd::as_raw_fd(&self.rx)
    }

    #[cfg(not(unix))]
    pub fn as_raw_fd(&self) -> RawFd {
        -1
    }

    /// Consume all pending wakeups (call on readability).
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    #[test]
    fn readable_readiness_is_delivered() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(0), Interest::READABLE).unwrap();
        let mut events = Vec::new();

        // Nothing to read yet: a bounded wait returns zero events.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);

        b.write_all(b"x").unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(0));
        assert!(events[0].readable);
        assert!(!events[0].writable);
        assert!(!events[0].timed_out);
    }

    #[test]
    fn writable_interest_and_interest_changes() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(3), Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        // A fresh socket has buffer space: immediately writable.
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(3) && e.writable));

        // Dropping interest to NONE silences it (no readiness, no spin).
        poller.set_interest(Token(3), Interest::NONE).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn empty_interest_still_reports_hangup() {
        let (a, b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(0), Interest::NONE).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == Token(0) && e.hangup),
            "peer close must surface as hangup even with empty interest: {events:?}"
        );
    }

    #[test]
    fn deadlines_fire_once_and_bound_the_sleep() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(0), Interest::READABLE).unwrap();
        poller.set_deadline(Token(0), Instant::now() + Duration::from_millis(30)).unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        // Infinite wait: only the deadline can end it.
        poller.wait(&mut events, None).unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "woke early: {:?}",
            started.elapsed()
        );
        assert!(events.iter().any(|e| e.token == Token(0) && e.timed_out));
        // One-shot: it must not fire again.
        let n = poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(!events.iter().any(|e| e.timed_out), "deadline fired twice");
        assert_eq!(n, events.len());
    }

    #[test]
    fn cleared_deadline_does_not_fire() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(0), Interest::READABLE).unwrap();
        poller.set_deadline(Token(0), Instant::now() + Duration::from_millis(10)).unwrap();
        poller.clear_deadline(Token(0)).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(40))).unwrap();
        assert!(events.is_empty(), "cleared deadline fired: {events:?}");
    }

    #[test]
    fn registration_errors_are_loud() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(1), Interest::READABLE).unwrap();
        let dup = poller.register(a.as_raw_fd(), Token(1), Interest::READABLE);
        assert_eq!(dup.unwrap_err().kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(
            poller.set_interest(Token(9), Interest::NONE).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        poller.deregister(Token(1)).unwrap();
        assert_eq!(poller.deregister(Token(1)).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert!(poller.is_empty());
    }

    #[test]
    fn deregistered_fd_is_not_polled() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(0), Interest::READABLE).unwrap();
        poller.deregister(Token(0)).unwrap();
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let (waker, reader) = wake_pair().unwrap();
        let mut poller = Poller::new();
        poller.register(reader.as_raw_fd(), Token(0), Interest::READABLE).unwrap();
        // Keep `waker` alive past the drain: dropping the last clone
        // closes the write end, which reads as permanent EOF-readability.
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces
        });
        let mut events = Vec::new();
        let started = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "waker did not interrupt the wait");
        assert!(events.iter().any(|e| e.token == Token(0) && e.readable));
        handle.join().unwrap();
        reader.drain();
        // Drained: the next wait goes back to sleep.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn multiple_registrations_map_back_to_their_tokens() {
        let (a, mut peer_a) = pair();
        let (b, mut peer_b) = pair();
        let mut poller = Poller::new();
        poller.register(a.as_raw_fd(), Token(5), Interest::READABLE).unwrap();
        poller.register(b.as_raw_fd(), Token(11), Interest::READABLE).unwrap();
        peer_b.write_all(b"y").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(11) && e.readable));
        assert!(!events.iter().any(|e| e.token == Token(5)));
        peer_a.write_all(b"z").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(5) && e.readable));
        // Drain so the sockets stay alive to the end of the test.
        let mut sink = [0u8; 8];
        let _ = (&a).read(&mut sink);
        let _ = (&b).read(&mut sink);
    }
}
