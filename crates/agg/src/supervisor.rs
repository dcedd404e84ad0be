//! Per-upstream pull supervision: deadlines, exponential backoff, and a
//! circuit breaker.
//!
//! Each upstream of an aggregator gets its own supervisor-owned worker
//! thread (see `node.rs`), so a dead, slow, or flapping upstream costs its
//! own slot and nothing else. This module holds the *policy* half of that
//! design — pure state machines with injected clocks, unit-testable
//! without sockets or sleeps:
//!
//! * [`PullPolicy`] — the deadline and breaker knobs for one node (the
//!   pause after a failed pull is fixed: 25 ms doubling to 500 ms, with
//!   jitter).
//! * [`CircuitBreaker`] — closed → open (quarantine) → half-open (trial
//!   probe) per upstream, driven by pull outcomes.
//! * [`UpstreamStatus`] — lock-free per-upstream health shared between the
//!   worker, the metrics gauges, the `stats` text, and the protocol's
//!   session-listing health block.
//!
//! The state machine (DESIGN §18):
//!
//! ```text
//!            success                    failure < threshold
//!          ┌─────────┐                  ┌──────────────────┐
//!          ▼         │                  ▼                  │
//!       CLOSED ──────┴───────────── (backoff) ─────────────┘
//!          │  consecutive_failures >= threshold
//!          ▼
//!        OPEN ── quarantine elapses ──► HALF-OPEN ── probe ok ──► CLOSED
//!          ▲                               │
//!          └────────── probe fails ────────┘
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use mhp_server::{backoff, BreakerPhase, UpstreamHealth};

/// Deadline and breaker tuning for every pull worker of one aggregator.
#[derive(Debug, Clone)]
pub struct PullPolicy {
    /// TCP connect deadline per pull attempt.
    pub connect_timeout: Duration,
    /// Socket read deadline on the pull connection: an upstream that
    /// accepts but never answers fails at the next frame boundary instead
    /// of wedging the worker forever.
    pub read_timeout: Duration,
    /// Whole-pull budget: checked between in-pull operations, so a
    /// dribbling upstream (every read just under the read timeout) cannot
    /// hold a pull open indefinitely. The harvest completed before the
    /// budget tripped is still applied.
    pub pull_budget: Duration,
    /// Consecutive failures that open the breaker (quarantine).
    pub breaker_threshold: u32,
    /// How long an opened breaker quarantines its upstream before
    /// half-opening for a trial probe.
    pub quarantine: Duration,
}

impl Default for PullPolicy {
    fn default() -> Self {
        PullPolicy {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(250),
            pull_budget: Duration::from_secs(2),
            breaker_threshold: 3,
            quarantine: Duration::from_millis(1_000),
        }
    }
}

/// First post-failure pause of a pull worker.
const PULL_BACKOFF_BASE: Duration = Duration::from_millis(25);
/// Ceiling of a pull worker's backoff (before jitter).
const PULL_BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Seed of the pull workers' backoff jitter.
const PULL_JITTER_SEED: u64 = 0xA66_5EED;

/// The pause before upstream `upstream_index`'s next pull attempt after
/// `consecutive_failures` failures (1-based): the reconnecting ingest
/// client's [`backoff`] discipline, from 25 ms up to 500 ms, with the
/// jitter seed mixed with the upstream index so a fleet of workers does
/// not thunder in lockstep.
pub(crate) fn pull_backoff(consecutive_failures: u32, upstream_index: usize) -> Duration {
    let seed = PULL_JITTER_SEED ^ (upstream_index as u64).wrapping_mul(0x9E37);
    backoff(
        consecutive_failures,
        PULL_BACKOFF_BASE,
        PULL_BACKOFF_MAX,
        seed,
    )
}

/// What the supervisor should do with the upcoming pull slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullDecision {
    /// Breaker closed: pull normally.
    Pull,
    /// Quarantine elapsed: pull once as a half-open trial probe.
    Probe,
    /// Quarantined: skip, re-check after the given remaining time.
    Skip(Duration),
}

/// The outcome [`CircuitBreaker::on_failure`] reports, so the caller can
/// bump the right counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// The breaker transitioned to open on this failure (a fresh
    /// quarantine — either the threshold tripped or a half-open probe
    /// failed).
    pub quarantined: bool,
}

/// Per-upstream circuit breaker. Owned by one worker thread; the clock is
/// passed in so tests can drive it without sleeping.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    quarantine: Duration,
    phase: BreakerPhase,
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// and quarantines for `quarantine` per opening.
    pub fn new(threshold: u32, quarantine: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            quarantine,
            phase: BreakerPhase::Closed,
            consecutive_failures: 0,
            open_until: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BreakerPhase {
        self.phase
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Decides what to do with the upcoming pull slot. An open breaker
    /// half-opens here once its quarantine has elapsed.
    pub fn decide(&mut self, now: Instant) -> PullDecision {
        match self.phase {
            BreakerPhase::Closed => PullDecision::Pull,
            BreakerPhase::HalfOpen => PullDecision::Probe,
            BreakerPhase::Open => {
                let until = self.open_until.expect("open breaker has a deadline");
                if now >= until {
                    self.phase = BreakerPhase::HalfOpen;
                    PullDecision::Probe
                } else {
                    PullDecision::Skip(until - now)
                }
            }
        }
    }

    /// Records a successful pull. Returns `true` when this closed a
    /// non-closed breaker (a recovery worth counting).
    pub fn on_success(&mut self) -> bool {
        let recovered = self.phase != BreakerPhase::Closed;
        self.phase = BreakerPhase::Closed;
        self.consecutive_failures = 0;
        self.open_until = None;
        recovered
    }

    /// Records a failed pull attempt at `now`.
    pub fn on_failure(&mut self, now: Instant) -> FailureOutcome {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let quarantined = match self.phase {
            // A failed half-open probe re-opens immediately: the upstream
            // is still bad, start a fresh quarantine.
            BreakerPhase::HalfOpen => true,
            BreakerPhase::Closed => self.consecutive_failures >= self.threshold,
            // Unreachable in practice (no attempts while open), but a
            // failure reported here just extends the quarantine.
            BreakerPhase::Open => true,
        };
        if quarantined {
            self.phase = BreakerPhase::Open;
            self.open_until = Some(now + self.quarantine);
        }
        FailureOutcome { quarantined }
    }
}

/// Epoch sentinel in [`UpstreamHealth::last_success_epoch`] for an
/// upstream that has never completed a pull.
pub const NEVER: u64 = u64::MAX;

/// Lock-free per-upstream health, shared between the worker thread that
/// writes it and the query/stats/metrics paths that read it.
#[derive(Debug)]
pub struct UpstreamStatus {
    /// The upstream's address, as configured.
    pub addr: String,
    healthy: AtomicBool,
    phase: AtomicU8,
    last_success_cycle: AtomicU64,
    last_success_epoch: AtomicU64,
    consecutive_failures: AtomicU64,
}

impl UpstreamStatus {
    /// A fresh status: healthy until proven otherwise, never succeeded.
    pub fn new(addr: String) -> UpstreamStatus {
        UpstreamStatus {
            addr,
            healthy: AtomicBool::new(true),
            phase: AtomicU8::new(BreakerPhase::Closed.as_u8()),
            last_success_cycle: AtomicU64::new(NEVER),
            last_success_epoch: AtomicU64::new(NEVER),
            consecutive_failures: AtomicU64::new(0),
        }
    }

    /// Records a completed pull: healthy, failures reset, success marks.
    pub fn record_success(&self, cycle: u64, epoch: u64) {
        self.healthy.store(true, Ordering::Release);
        self.phase
            .store(BreakerPhase::Closed.as_u8(), Ordering::Release);
        self.last_success_cycle.store(cycle, Ordering::Release);
        self.last_success_epoch.store(epoch, Ordering::Release);
        self.consecutive_failures.store(0, Ordering::Release);
    }

    /// Records a failed pull attempt and the breaker phase it left the
    /// supervisor in. `healthy` stays true until the breaker opens: a
    /// single blip is not unhealth, a quarantine is.
    pub fn record_failure(&self, consecutive_failures: u32, phase: BreakerPhase) {
        self.phase.store(phase.as_u8(), Ordering::Release);
        self.consecutive_failures
            .store(u64::from(consecutive_failures), Ordering::Release);
        if phase != BreakerPhase::Closed {
            self.healthy.store(false, Ordering::Release);
        }
    }

    /// Marks the half-open transition so health readers see the probe
    /// phase rather than a stale `open`.
    pub fn record_phase(&self, phase: BreakerPhase) {
        self.phase.store(phase.as_u8(), Ordering::Release);
    }

    /// Whether the last completed attempt left the upstream healthy.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// The cycle count at the last successful pull ([`NEVER`] if none).
    pub fn last_success_cycle(&self) -> u64 {
        self.last_success_cycle.load(Ordering::Acquire)
    }

    /// Pull cycles of staleness at cycle `now`: 0 right after a success,
    /// `now` if this upstream has never completed a pull.
    pub fn staleness_cycles(&self, now: u64) -> u64 {
        match self.last_success_cycle.load(Ordering::Acquire) {
            NEVER => now,
            last => now.saturating_sub(last),
        }
    }

    /// Snapshot for the wire/stats health block at cycle `now`.
    pub fn health(&self, now: u64) -> UpstreamHealth {
        UpstreamHealth {
            addr: self.addr.clone(),
            healthy: self.healthy(),
            phase: BreakerPhase::from_u8(self.phase.load(Ordering::Acquire))
                .unwrap_or(BreakerPhase::Closed),
            staleness_cycles: self.staleness_cycles(now),
            last_success_epoch: self.last_success_epoch.load(Ordering::Acquire),
            consecutive_failures: self.consecutive_failures.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_quarantine() {
        let mut b = CircuitBreaker::new(3, Duration::from_secs(1));
        let t0 = Instant::now();
        assert_eq!(b.decide(t0), PullDecision::Pull);
        assert!(!b.on_failure(t0).quarantined);
        assert!(!b.on_failure(t0).quarantined);
        assert_eq!(
            b.decide(t0),
            PullDecision::Pull,
            "still closed below threshold"
        );
        assert!(b.on_failure(t0).quarantined, "third failure quarantines");
        assert_eq!(b.phase(), BreakerPhase::Open);
        match b.decide(t0 + Duration::from_millis(500)) {
            PullDecision::Skip(remaining) => {
                assert!(remaining <= Duration::from_millis(500));
            }
            other => panic!("expected Skip, got {other:?}"),
        }
        assert_eq!(b.decide(t0 + Duration::from_secs(1)), PullDecision::Probe);
        assert_eq!(b.phase(), BreakerPhase::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens_successful_probe_recovers() {
        let mut b = CircuitBreaker::new(1, Duration::from_secs(1));
        let t0 = Instant::now();
        assert!(b.on_failure(t0).quarantined);
        assert_eq!(b.decide(t0 + Duration::from_secs(1)), PullDecision::Probe);
        // Probe fails: immediately re-quarantined for a fresh window.
        assert!(b.on_failure(t0 + Duration::from_secs(1)).quarantined);
        assert_eq!(b.phase(), BreakerPhase::Open);
        assert!(matches!(
            b.decide(t0 + Duration::from_millis(1_500)),
            PullDecision::Skip(_)
        ));
        // Next probe succeeds: recovery.
        assert_eq!(b.decide(t0 + Duration::from_secs(2)), PullDecision::Probe);
        assert!(b.on_success(), "half-open -> closed counts as recovery");
        assert_eq!(b.phase(), BreakerPhase::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        assert!(!b.on_success(), "closed -> closed is not a recovery");
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let mut b = CircuitBreaker::new(0, Duration::from_secs(1));
        assert!(b.on_failure(Instant::now()).quarantined);
    }

    #[test]
    fn backoff_grows_caps_and_differs_per_upstream() {
        let b1 = pull_backoff(1, 0);
        let b4 = pull_backoff(4, 0);
        assert!(b4 > b1, "backoff grows with consecutive failures");
        assert!(b4 <= PULL_BACKOFF_MAX + PULL_BACKOFF_MAX / 2 + Duration::from_millis(1));
        // Different upstream indices draw different jitter.
        assert_ne!(pull_backoff(1, 0), pull_backoff(1, 1));
        // Deterministic per (attempt, upstream).
        assert_eq!(pull_backoff(3, 2), pull_backoff(3, 2));
    }

    #[test]
    fn status_tracks_success_failure_and_staleness() {
        let s = UpstreamStatus::new("127.0.0.1:9".into());
        assert!(s.healthy(), "healthy until proven otherwise");
        assert_eq!(s.staleness_cycles(5), 5, "never succeeded = stale forever");
        s.record_failure(1, BreakerPhase::Closed);
        assert!(s.healthy(), "one blip under the threshold is not unhealth");
        s.record_failure(3, BreakerPhase::Open);
        assert!(!s.healthy());
        let h = s.health(7);
        assert_eq!(h.phase, BreakerPhase::Open);
        assert_eq!(h.consecutive_failures, 3);
        assert_eq!(h.last_success_epoch, NEVER);
        assert_eq!(h.staleness_cycles, 7);
        s.record_success(9, 4);
        assert!(s.healthy());
        assert_eq!(s.staleness_cycles(9), 0);
        assert_eq!(s.staleness_cycles(12), 3);
        let h = s.health(12);
        assert_eq!(h.phase, BreakerPhase::Closed);
        assert_eq!(h.last_success_epoch, 4);
        assert_eq!(h.consecutive_failures, 0);
    }
}
