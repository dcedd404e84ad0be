//! # mhp-net — dependency-free readiness reactor
//!
//! A [`Reactor`] multiplexing nonblocking sockets over `poll(2)`
//! (declared by direct FFI against the libc every binary already links —
//! no external crates), and a [`Waker`] that interrupts a blocked poll
//! from another thread.
//!
//! The crate is deliberately mechanism-only: it knows nothing about the
//! profiling wire protocol. Two kinds of caller build on it:
//! [`accept_until`] gives thread-per-connection servers (mhp-server's
//! front end, mhp-agg's query plane) an accept loop that blocks until a
//! connection or a shutdown wake arrives, and mhp-server's multiplexed
//! load generator drives thousands of client sessions from one thread.
//!
//! ## Shape of a loop
//!
//! ```no_run
//! use mhp_net::{Interest, Reactor, Token};
//! use std::time::Duration;
//!
//! let mut reactor = Reactor::new().unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! listener.set_nonblocking(true).unwrap();
//! const LISTENER: Token = Token(usize::MAX);
//! {
//!     use std::os::fd::AsRawFd;
//!     reactor.register(listener.as_raw_fd(), LISTENER, Interest::READABLE).unwrap();
//! }
//! let mut events = Vec::new();
//! loop {
//!     reactor.poll(&mut events, Some(Duration::from_millis(100))).unwrap();
//!     for event in &events {
//!         if event.token == LISTENER {
//!             // accept until WouldBlock, register each conn …
//!         } else {
//!             // drive the connection behind event.token …
//!         }
//!     }
//! }
//! ```
//!
//! All `unsafe` lives in the private `sys` module (the single `poll`
//! declaration); the rest of the crate — and everything downstream —
//! stays safe Rust.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accept;
mod reactor;
mod sys;

pub use accept::accept_until;
pub use reactor::{Event, Interest, Reactor, Token, Waker};
