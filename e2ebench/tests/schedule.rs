//! Open-loop due-time accounting: latency runs from when a request was
//! due, so a stall is charged to every request it delayed.

use std::time::{Duration, Instant};

use e2ebench::schedule::{micros, Schedule, Timing};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn requests_fall_due_on_a_fixed_period() {
    let t0 = Instant::now();
    let schedule = Schedule::new(t0, ms(2));
    assert_eq!(schedule.due(0), t0);
    assert_eq!(schedule.due(1), t0 + ms(2));
    assert_eq!(schedule.due(3), t0 + ms(6));
}

#[test]
fn a_stall_is_charged_to_every_request_it_delayed() {
    let t0 = Instant::now();
    let schedule = Schedule::new(t0, ms(2));
    // Request 0 is sent on time and takes 7 ms; requests 1–3, due at 2, 4
    // and 6 ms, can only go out once it has returned.
    let stalled = Timing::of(schedule.due(0), t0, t0 + ms(7));
    assert_eq!(stalled.latency_us, 7_000.0);
    assert_eq!(stalled.lateness_us, 0.0);

    let next = Timing::of(schedule.due(1), t0 + ms(7), t0 + us(7_100));
    assert_eq!(next.latency_us, 5_100.0);
    assert_eq!(next.lateness_us, 5_000.0);

    let last_late = Timing::of(schedule.due(3), t0 + us(7_200), t0 + us(7_300));
    assert_eq!(last_late.latency_us, 1_300.0);
    assert_eq!(last_late.lateness_us, 1_200.0);

    // Back on schedule: due at 8 ms, sent on time, served in 100 µs.
    let caught_up = Timing::of(schedule.due(4), t0 + ms(8), t0 + us(8_100));
    assert_eq!(caught_up.latency_us, 100.0);
    assert_eq!(caught_up.lateness_us, 0.0);
}

#[test]
fn an_early_send_counts_as_on_time() {
    let t0 = Instant::now();
    let due = t0 + ms(2);
    let timing = Timing::of(due, t0 + ms(1), t0 + us(2_500));
    assert_eq!(timing.lateness_us, 0.0);
    assert_eq!(timing.latency_us, 500.0);
}

#[test]
fn micros_keeps_sub_microsecond_digits() {
    assert_eq!(micros(Duration::from_nanos(1_234)), 1.234);
}
