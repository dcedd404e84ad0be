//! Bounded single-producer/single-consumer ring channel for batch handoff.
//!
//! The sharded engine hands a whole sub-batch (thousands of events) across
//! this channel at a time, so the per-operation cost is amortised over the
//! batch. That lets us keep the crate's `#![forbid(unsafe_code)]` guarantee:
//! each slot is a `Mutex<Option<T>>`, and the SPSC protocol (the producer
//! only ever touches the `tail` slot, the consumer only the `head` slot,
//! and the atomic counters fence the ownership handoff) means those slot
//! locks are never contended in practice.
//!
//! Semantics match what the dispatch plane needs:
//!
//! - [`Sender::try_send`] returns the value back on a full ring or a dead
//!   consumer, so the caller can count a stall and fall back to blocking.
//! - [`Sender::send`] parks on a condvar until a slot frees, returning the
//!   value only if the consumer disconnected.
//! - [`Receiver::recv`] drains every message that was sent before the
//!   producer disconnected, then reports [`RecvError`].
//! - Dropping either end wakes the peer immediately.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Error returned by [`Sender::try_send`]; carries the value back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring is at capacity. Retry later or fall back to [`Sender::send`].
    Full(T),
    /// The receiver was dropped; no further send can succeed.
    Disconnected(T),
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// The sender was dropped and the ring is drained.
    Disconnected,
}

/// Error returned by [`Receiver::recv`] once the channel is dead and dry.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct Shared<T> {
    slots: Vec<Mutex<Option<T>>>,
    /// Monotonic count of completed pushes (not reduced modulo capacity).
    tail: AtomicU64,
    /// Monotonic count of completed pops.
    head: AtomicU64,
    sender_alive: AtomicBool,
    receiver_alive: AtomicBool,
    /// Guards nothing by itself; exists so the condvars have a lock to pair
    /// with. State lives in the atomics above.
    park: Mutex<()>,
    /// Signalled when a slot frees up or the receiver disconnects.
    producer_cv: Condvar,
    /// Signalled when a message lands or the sender disconnects.
    consumer_cv: Condvar,
}

impl<T> Shared<T> {
    fn len(&self) -> u64 {
        self.tail.load(Ordering::Acquire) - self.head.load(Ordering::Acquire)
    }
}

/// Producing half of the ring. Not cloneable: strictly single-producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming half of the ring. Not cloneable: strictly single-consumer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Sender")
            .field("len", &self.shared.len())
            .field("capacity", &self.shared.slots.len())
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Receiver")
            .field("len", &self.shared.len())
            .field("capacity", &self.shared.slots.len())
            .finish()
    }
}

/// Create a bounded SPSC ring holding at most `capacity` messages.
///
/// # Panics
///
/// Panics if `capacity` is zero; a rendezvous ring has no slot to park a
/// batch in and the engine never asks for one.
pub fn ring<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "ring capacity must be at least 1");
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        tail: AtomicU64::new(0),
        head: AtomicU64::new(0),
        sender_alive: AtomicBool::new(true),
        receiver_alive: AtomicBool::new(true),
        park: Mutex::new(()),
        producer_cv: Condvar::new(),
        consumer_cv: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Upper bound on a single park. The protocol re-checks state on every
/// wakeup, so this is pure robustness against a lost notify, not a
/// correctness requirement.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

impl<T> Sender<T> {
    /// Attempt to enqueue without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let shared = &self.shared;
        if !shared.receiver_alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        let tail = shared.tail.load(Ordering::Relaxed);
        if tail - shared.head.load(Ordering::Acquire) >= shared.slots.len() as u64 {
            return Err(TrySendError::Full(value));
        }
        let slot = (tail % shared.slots.len() as u64) as usize;
        *shared.slots[slot].lock().expect("ring slot poisoned") = Some(value);
        shared.tail.store(tail + 1, Ordering::Release);
        drop(shared.park.lock().expect("ring park poisoned"));
        shared.consumer_cv.notify_one();
        Ok(())
    }

    /// Enqueue, parking until a slot frees. Returns the value back only if
    /// the receiver disconnected before the message could be enqueued.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(v),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    let shared = &self.shared;
                    let guard = shared.park.lock().expect("ring park poisoned");
                    // Re-check under the lock so a concurrent pop's notify
                    // cannot slip between the check and the wait.
                    if shared.len() >= shared.slots.len() as u64
                        && shared.receiver_alive.load(Ordering::Acquire)
                    {
                        let _ = shared
                            .producer_cv
                            .wait_timeout(guard, PARK_TIMEOUT)
                            .expect("ring park poisoned");
                    }
                }
            }
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.len() as usize
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while the receiving half is still alive.
    pub fn receiver_alive(&self) -> bool {
        self.shared.receiver_alive.load(Ordering::Acquire)
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.sender_alive.store(false, Ordering::Release);
        drop(self.shared.park.lock().expect("ring park poisoned"));
        self.shared.consumer_cv.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Attempt to dequeue without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &self.shared;
        let head = shared.head.load(Ordering::Relaxed);
        if shared.tail.load(Ordering::Acquire) == head {
            if !shared.sender_alive.load(Ordering::Acquire) {
                // Re-check: the sender may have pushed between the tail
                // load and the alive load.
                if shared.tail.load(Ordering::Acquire) == head {
                    return Err(TryRecvError::Disconnected);
                }
            } else {
                return Err(TryRecvError::Empty);
            }
        }
        let slot = (head % shared.slots.len() as u64) as usize;
        let value = shared.slots[slot]
            .lock()
            .expect("ring slot poisoned")
            .take()
            .expect("ring protocol violation: published slot was empty");
        shared.head.store(head + 1, Ordering::Release);
        drop(shared.park.lock().expect("ring park poisoned"));
        shared.producer_cv.notify_one();
        Ok(value)
    }

    /// Dequeue, parking until a message arrives. Drains messages already
    /// queued even after the sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {
                    let shared = &self.shared;
                    let guard = shared.park.lock().expect("ring park poisoned");
                    if shared.len() == 0 && shared.sender_alive.load(Ordering::Acquire) {
                        let _ = shared
                            .consumer_cv
                            .wait_timeout(guard, PARK_TIMEOUT)
                            .expect("ring park poisoned");
                    }
                }
            }
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.len() as usize
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receiver_alive.store(false, Ordering::Release);
        drop(self.shared.park.lock().expect("ring park poisoned"));
        self.shared.producer_cv.notify_one();
    }
}

impl<T> Iterator for Receiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn round_trips_in_order() {
        let (tx, rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(99), Err(TrySendError::Full(99)));
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn capacity_one_alternates() {
        let (tx, rx) = ring::<&'static str>(1);
        tx.try_send("a").unwrap();
        assert_eq!(tx.try_send("b"), Err(TrySendError::Full("b")));
        assert_eq!(rx.try_recv(), Ok("a"));
        tx.try_send("b").unwrap();
        assert_eq!(rx.try_recv(), Ok("b"));
    }

    #[test]
    fn receiver_drop_fails_sends() {
        let (tx, rx) = ring::<u8>(2);
        drop(rx);
        assert_eq!(tx.try_send(7), Err(TrySendError::Disconnected(7)));
        assert_eq!(tx.send(7), Err(7));
        assert!(!tx.receiver_alive());
    }

    #[test]
    fn sender_drop_drains_then_disconnects() {
        let (tx, rx) = ring::<u8>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn blocking_send_waits_for_space() {
        let (tx, rx) = ring::<u64>(1);
        tx.try_send(0).unwrap();
        let producer = thread::spawn(move || {
            for i in 1..64 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..64 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_stress_preserves_order() {
        let (tx, rx) = ring::<u64>(8);
        let n = 10_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send(i).unwrap();
            }
        });
        let mut expected = 0;
        for value in rx {
            assert_eq!(value, expected);
            expected += 1;
        }
        assert_eq!(expected, n);
        producer.join().unwrap();
    }

    #[test]
    fn len_tracks_depth() {
        let (tx, rx) = ring::<u8>(3);
        assert!(tx.is_empty() && rx.is_empty());
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.try_recv().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = ring::<u8>(0);
    }
}
