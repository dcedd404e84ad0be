//! The [`Reactor`]: a readiness multiplexer over `poll(2)`.
//!
//! Callers register raw fds under caller-chosen [`Token`]s with an
//! [`Interest`] (readable, writable, both, or neither — error and hangup
//! conditions are always reported). Each [`poll`](Reactor::poll) call
//! rebuilds the `pollfd` array from the registration table — an O(n) cost
//! that *is* the cost model of `poll(2)` itself, so there is nothing to
//! save by caching it — blocks until readiness or timeout, and translates
//! kernel `revents` into [`Event`]s.
//!
//! A [`Waker`] lets other threads interrupt a blocked `poll` (the classic
//! self-pipe trick, here a `UnixStream` pair so no FFI is needed): a
//! thread that begins a shutdown raises its flag, then
//! [`wake`](Waker::wake)s the loop so it observes the flag now. Wakeups are
//! level-coalesced — a thousand `wake` calls while the loop is busy cost
//! one pipe byte and one drain.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// Caller-chosen identifier for one registered fd; echoed back in every
/// [`Event`]. The reactor never interprets the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would not block.
    pub readable: bool,
    /// Report when a write would not block.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither — only errors and hangups are reported. This is how a
    /// connection under backpressure stays registered (so its death is
    /// still observed) without being read from.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn poll_bits(self) -> i16 {
        let mut bits = 0;
        if self.readable {
            bits |= POLLIN;
        }
        if self.writable {
            bits |= POLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration this readiness belongs to.
    pub token: Token,
    /// A read would not block (or EOF/hangup is observable by reading).
    pub readable: bool,
    /// A write would not block.
    pub writable: bool,
    /// The fd is in an error state (`POLLERR`/`POLLNVAL`); the owner
    /// should close it.
    pub error: bool,
    /// The peer hung up. Data may still be buffered — read until EOF.
    pub hangup: bool,
}

impl Event {
    /// True when the connection is dead or dying: error, or hangup with
    /// nothing readable left.
    pub fn is_fatal(&self) -> bool {
        self.error || (self.hangup && !self.readable)
    }
}

/// Cross-thread handle that interrupts a blocked [`Reactor::poll`].
/// Cheap to clone; wakes are coalesced.
#[derive(Debug, Clone)]
pub struct Waker {
    pipe: Arc<UnixStream>,
}

impl Waker {
    /// Interrupts the reactor's current (or next) `poll`. Never blocks:
    /// if the pipe is already full a wakeup is already pending, which is
    /// all a wake means.
    pub fn wake(&self) {
        let _ = (&*self.pipe).write(&[1u8]);
    }
}

struct Registration {
    fd: RawFd,
    token: Token,
    interest: Interest,
}

/// A readiness multiplexer over `poll(2)`. See the module docs.
pub struct Reactor {
    registrations: Vec<Registration>,
    /// Token → index into `registrations`, for O(1) modify/deregister.
    index: std::collections::HashMap<Token, usize>,
    /// Receive half of the self-pipe; always polled readable.
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    /// Scratch `pollfd` array, reused across polls.
    scratch: Vec<PollFd>,
    /// Times a poll returned because the waker fired.
    wakeups: u64,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("registrations", &self.registrations.len())
            .field("wakeups", &self.wakeups)
            .finish_non_exhaustive()
    }
}

impl Reactor {
    /// Creates a reactor and its internal wake pipe.
    ///
    /// # Errors
    ///
    /// I/O failure creating the socket pair.
    pub fn new() -> io::Result<Reactor> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Reactor {
            registrations: Vec::new(),
            index: std::collections::HashMap::new(),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            scratch: Vec::new(),
            wakeups: 0,
        })
    }

    /// A cloneable cross-thread wake handle for this reactor.
    pub fn waker(&self) -> Waker {
        Waker {
            pipe: Arc::clone(&self.wake_tx),
        }
    }

    /// Registered fd count (the waker pipe is not counted).
    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }

    /// How many polls returned due to a [`Waker::wake`] so far.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Starts watching `fd` under `token`.
    ///
    /// The caller keeps ownership of the fd and must [`deregister`]
    /// (or drop the whole reactor) before closing it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AlreadyExists`] if the token is in use.
    ///
    /// [`deregister`]: Reactor::deregister
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if self.index.contains_key(&token) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        self.index.insert(token, self.registrations.len());
        self.registrations.push(Registration {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    /// Changes what `token` is interested in.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] if the token is not registered.
    pub fn set_interest(&mut self, token: Token, interest: Interest) -> io::Result<()> {
        let &idx = self
            .index
            .get(&token)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token not registered"))?;
        self.registrations[idx].interest = interest;
        Ok(())
    }

    /// Stops watching `token`'s fd.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] if the token is not registered.
    pub fn deregister(&mut self, token: Token) -> io::Result<()> {
        let idx = self
            .index
            .remove(&token)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token not registered"))?;
        self.registrations.swap_remove(idx);
        if let Some(moved) = self.registrations.get(idx) {
            self.index.insert(moved.token, idx);
        }
        Ok(())
    }

    /// Blocks until readiness, a wakeup, or `timeout` (`None` = forever);
    /// appends one [`Event`] per ready registration to `events` (which is
    /// cleared first). Wakeup bytes are drained internally and counted in
    /// [`wakeups`](Reactor::wakeups), not surfaced as events.
    ///
    /// # Errors
    ///
    /// Kernel `poll` failures other than `EINTR` (which is retried).
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.scratch.clear();
        // Slot 0 is always the wake pipe.
        self.scratch.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for reg in &self.registrations {
            self.scratch.push(PollFd {
                fd: reg.fd,
                events: reg.interest.poll_bits(),
                revents: 0,
            });
        }
        let ready = poll_fds(&mut self.scratch, timeout)?;
        if ready == 0 {
            return Ok(());
        }
        if self.scratch[0].revents & POLLIN != 0 {
            self.wakeups += 1;
            let mut sink = [0u8; 64];
            while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        for (slot, reg) in self.scratch[1..].iter().zip(&self.registrations) {
            let revents = slot.revents;
            if revents == 0 {
                continue;
            }
            events.push(Event {
                token: reg.token,
                readable: revents & POLLIN != 0,
                writable: revents & POLLOUT != 0,
                error: revents & (POLLERR | POLLNVAL) != 0,
                hangup: revents & POLLHUP != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn registration_lifecycle_and_duplicate_tokens() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(a.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();
        assert_eq!(reactor.len(), 1);
        let dup = reactor.register(a.as_raw_fd(), Token(7), Interest::NONE);
        assert_eq!(dup.unwrap_err().kind(), io::ErrorKind::AlreadyExists);
        reactor.deregister(Token(7)).unwrap();
        assert!(reactor.is_empty());
        assert_eq!(
            reactor.deregister(Token(7)).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn poll_reports_readable_registration() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(b.as_raw_fd(), Token(1), Interest::READABLE)
            .unwrap();
        a.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(1));
        assert!(events[0].readable);
        assert!(!events[0].is_fatal());
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesced
        });
        let mut events = Vec::new();
        let started = Instant::now();
        reactor
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "wake was lost");
        assert!(events.is_empty(), "wakeups are not surfaced as events");
        assert_eq!(reactor.wakeups(), 1);
        handle.join().unwrap();
        // A wake with no poll in flight is remembered (level, not edge).
        let waker = reactor.waker();
        waker.wake();
        let started = Instant::now();
        reactor
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn interest_none_suppresses_readable_but_reports_hangup() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(b.as_raw_fd(), Token(3), Interest::NONE)
            .unwrap();
        a.write_all(b"pending").unwrap();
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "NONE must not report plain readability");
        drop(a);
        reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].hangup || events[0].error);
    }

    #[test]
    fn deregister_middle_keeps_other_tokens_working() {
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let mut reactor = Reactor::new().unwrap();
        for (i, (_, rx)) in pairs.iter().enumerate() {
            reactor
                .register(rx.as_raw_fd(), Token(i), Interest::READABLE)
                .unwrap();
        }
        reactor.deregister(Token(0)).unwrap(); // swap_remove moves Token(2)
        let mut tx2 = &pairs[2].0;
        tx2.write_all(b"z").unwrap();
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(2));
    }
}
