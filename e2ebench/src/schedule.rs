//! Open-loop due-time accounting.
//!
//! An open-loop client sends request `i` when it is due — `start + i ×
//! period` — whether or not earlier requests have come back. Its latency
//! is measured from the due time, not the send time, so a stall that
//! delays later sends is charged to every request it delayed instead of
//! vanishing from the samples. How late the generator itself sent
//! (`sent − due`) is recorded beside it, which shows whether the
//! latencies can be trusted.

use std::time::{Duration, Instant};

/// A fixed-rate send schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// Request `i` is due at `start + i × period`.
    pub fn new(start: Instant, period: Duration) -> Schedule {
        assert!(!period.is_zero(), "an open-loop period must be positive");
        Schedule { start, period }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        let offset = u32::try_from(i)
            .ok()
            .and_then(|i| self.period.checked_mul(i))
            .expect("schedule index overflow");
        self.start + offset
    }
}

/// One request's timing against its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Due time to completion, in microseconds.
    pub latency_us: f64,
    /// Due time to send, in microseconds: how late the generator ran.
    pub lateness_us: f64,
}

impl Timing {
    /// Times a request that was due at `due`, sent at `sent` and completed
    /// at `done`. A send earlier than due (impossible for a correct
    /// generator) counts as on time.
    pub fn of(due: Instant, sent: Instant, done: Instant) -> Timing {
        Timing {
            latency_us: micros(done.saturating_duration_since(due)),
            lateness_us: micros(sent.saturating_duration_since(due)),
        }
    }
}

/// A duration in microseconds, with all its digits.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}
