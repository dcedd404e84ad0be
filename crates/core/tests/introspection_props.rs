//! Property tests for the introspection layer: the per-interval counts a
//! [`SketchSnapshot`] reports must be *consistent* with the accumulator
//! state the profiler actually reached.
//!
//! The load-bearing invariant: within one interval the accumulator starts
//! with the entries retained from the previous interval, every promotion
//! adds exactly one entry (either into an empty slot or by evicting a
//! replaceable resident), so at interval end
//!
//! ```text
//! accumulator_len[i] == retained[i-1] + promotions[i] - evictions[i]
//! ```
//!
//! with `retained[-1] = 0`. This holds for every architecture and every
//! combination of the paper's optimizations (shielding, retaining,
//! resetting, conservative update).

use std::sync::Arc;

use mhp_core::{
    CollectingSink, EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler,
    SingleHashConfig, SketchSnapshot, Tuple,
};
use proptest::prelude::*;

/// Checks every cross-snapshot invariant over a profiler run's snapshots.
fn check_invariants(snapshots: &[SketchSnapshot]) {
    let mut prev_retained = 0u64;
    for (i, snap) in snapshots.iter().enumerate() {
        prop_assert_eq!(
            snap.interval_index,
            i as u64,
            "snapshots arrive in interval order"
        );
        prop_assert_eq!(
            snap.accumulator_len,
            prev_retained + snap.promotions - snap.evictions,
            "interval {}: len {} != retained {} + promotions {} - evictions {}",
            i,
            snap.accumulator_len,
            prev_retained,
            snap.promotions,
            snap.evictions
        );
        prop_assert!(
            snap.accumulator_len <= snap.accumulator_capacity,
            "accumulator never exceeds its capacity"
        );
        prop_assert!(
            snap.retained <= snap.accumulator_len,
            "can only retain entries that are resident"
        );
        prop_assert!(
            snap.counters_occupied <= snap.counters_total,
            "occupancy is bounded by the table size"
        );
        prop_assert!(
            snap.shield_hits + snap.promotions + snap.promotions_dropped <= snap.events,
            "every tallied event was observed"
        );
        prev_retained = snap.retained;
    }
}

/// Drives `profiler` over `events` (flushing any trailing partial interval)
/// and returns the snapshots its sink collected.
fn run_collecting<P: EventProfiler>(profiler: &mut P, events: &[Tuple]) -> Vec<SketchSnapshot> {
    let sink = Arc::new(CollectingSink::new());
    profiler.set_introspection_sink(Some(sink.clone()));
    for &t in events {
        profiler.observe(t);
    }
    if profiler.events_in_current_interval() > 0 {
        profiler.finish_interval();
    }
    sink.snapshots()
}

fn tuples(raw: &[(u64, u64)]) -> Vec<Tuple> {
    raw.iter().map(|&(pc, v)| Tuple::new(pc, v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multi_hash_counts_are_consistent_with_accumulator_state(
        raw in prop::collection::vec((0u64..32, 0u64..3), 1..2_000),
        interval_len in 16u64..400,
        shielding in any::<bool>(),
        retaining in any::<bool>(),
        resetting in any::<bool>(),
        conservative in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let events = tuples(&raw);
        let interval = IntervalConfig::new(interval_len, 0.05).unwrap();
        let config = MultiHashConfig::new(64, 4)
            .unwrap()
            .with_shielding(shielding)
            .with_retaining(retaining)
            .with_resetting(resetting)
            .with_conservative_update(conservative);
        let mut profiler = MultiHashProfiler::new(interval, config, seed).unwrap();
        let snapshots = run_collecting(&mut profiler, &events);
        prop_assert!(!snapshots.is_empty());
        check_invariants(&snapshots);
        if !retaining {
            prop_assert!(snapshots.iter().all(|s| s.retained == 0));
        }
    }

    #[test]
    fn single_hash_counts_are_consistent_with_accumulator_state(
        raw in prop::collection::vec((0u64..32, 0u64..3), 1..2_000),
        interval_len in 16u64..400,
        shielding in any::<bool>(),
        retaining in any::<bool>(),
        resetting in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let events = tuples(&raw);
        let interval = IntervalConfig::new(interval_len, 0.05).unwrap();
        let config = SingleHashConfig::new(64)
            .unwrap()
            .with_shielding(shielding)
            .with_retaining(retaining)
            .with_resetting(resetting);
        let mut profiler = MultiHashProfiler::single_hash(interval, config, seed).unwrap();
        let snapshots = run_collecting(&mut profiler, &events);
        prop_assert!(!snapshots.is_empty());
        check_invariants(&snapshots);
    }

    #[test]
    fn batched_and_per_event_observation_tally_identically(
        raw in prop::collection::vec((0u64..24, 0u64..3), 1..1_200),
        interval_len in 16u64..300,
        seed in any::<u64>(),
    ) {
        let events = tuples(&raw);
        let interval = IntervalConfig::new(interval_len, 0.05).unwrap();
        let config = MultiHashConfig::best();

        let mut per_event = MultiHashProfiler::new(interval, config, seed).unwrap();
        let a = run_collecting(&mut per_event, &events);

        let sink = Arc::new(CollectingSink::new());
        let mut batched = MultiHashProfiler::new(interval, config, seed).unwrap();
        batched.set_introspection_sink(Some(sink.clone()));
        for chunk in events.chunks(97) {
            batched.observe_batch(chunk);
        }
        if batched.events_in_current_interval() > 0 {
            batched.finish_interval();
        }
        let b = sink.snapshots();

        prop_assert_eq!(a, b, "batch path and per-event path report identical snapshots");
    }
}
