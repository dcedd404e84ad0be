//! [`accept_until`]: a thread-per-connection accept loop that blocks in a
//! [`Reactor`] instead of polling the listener on a timer.
//!
//! The loop sleeps in `poll` until the listener is readable or the
//! reactor's [`Waker`](crate::Waker) fires, so a new connection waits on
//! nothing and an idle loop costs no CPU. Whoever stops the loop stores
//! `true` in its stop flag *then* wakes the reactor; a wake is level, not
//! edge, so one that lands before the loop reaches `poll` is not lost.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::reactor::{Interest, Reactor, Token};

/// Accepts connections on `listener` and hands each to `on_accept` until
/// `stop` reads `true`. Blocks in `reactor` between bursts and accepts
/// until `WouldBlock` after each readiness report, so the listener is
/// switched to nonblocking mode here.
///
/// # Errors
///
/// Registering the listener, a failed `poll`, or an `accept` error other
/// than `WouldBlock` and `Interrupted`; each ends the loop.
pub fn accept_until(
    listener: &TcpListener,
    mut reactor: Reactor,
    stop: &AtomicBool,
    mut on_accept: impl FnMut(TcpStream),
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    reactor.register(listener.as_raw_fd(), Token(0), Interest::READABLE)?;
    let mut events = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        reactor.poll(&mut events, None)?;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => on_accept(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn accepts_each_connection_then_stops_on_a_wake() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let (accepted_tx, accepted_rx) = std::sync::mpsc::channel();
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            accept_until(&listener, reactor, &loop_stop, |stream| {
                accepted_tx.send(stream).unwrap();
            })
        });
        let _clients: Vec<_> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for _ in 0..3 {
            accepted_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        waker.wake();
        handle.join().unwrap().unwrap();
    }
}
