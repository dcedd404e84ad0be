//! # mhp-net — dependency-free readiness-based event loop
//!
//! The building blocks that let one thread hold thousands of profiling
//! connections: a [`Reactor`] multiplexing nonblocking sockets over
//! `poll(2)` (declared by direct FFI against the libc every binary
//! already links — no external crates), a [`Waker`] for cross-thread
//! loop interrupts, a hashed [`TimerWheel`] for per-connection deadlines,
//! a [`Conn`] trait for per-connection state machines, and a
//! generation-tagged [`Slab`] to own them.
//!
//! The crate is deliberately mechanism-only: it knows nothing about the
//! profiling wire protocol. mhp-server composes these pieces into its
//! `--event-loop` front end; the loadgen in mhp-client reuses the same
//! reactor to multiplex thousands of client sessions; and
//! [`accept_until`] gives thread-per-connection servers (mhp-server's
//! threaded front end, mhp-agg's query plane) an accept loop that blocks
//! until a connection or a shutdown wake arrives.
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
//!             // route to the Conn state machine behind event.token …
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
mod conn;
mod reactor;
mod sys;
mod timer;

pub use accept::accept_until;
pub use conn::{Conn, Slab, Step};
pub use reactor::{Event, Interest, Reactor, Token, Waker};
pub use timer::TimerWheel;
