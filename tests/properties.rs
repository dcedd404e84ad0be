//! Property-based tests over the core invariants, driven by proptest.

use std::collections::HashMap;

use proptest::prelude::*;

use mhp::core::hash::{xor_fold, HashFamily};
use mhp::prelude::*;
use mhp::{compare_interval, run_comparison};

/// Strategy: a stream of tuples drawn from a bounded universe, so that both
/// heavy hitters and noise occur.
fn tuple_stream(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..64, 0u64..16), 1..max_len)
        .prop_map(|pairs| pairs.into_iter().map(|(pc, v)| Tuple::new(pc, v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sketch never under-counts: before a tuple is promoted, its
    /// minimum counter is at least its true occurrence count this interval.
    #[test]
    fn sketch_never_undercounts(stream in tuple_stream(400), conservative in any::<bool>()) {
        let interval = IntervalConfig::new(1_000, 0.5).unwrap(); // huge threshold: no promotion
        let config = MultiHashConfig::new(64, 4).unwrap()
            .with_conservative_update(conservative);
        let mut p = MultiHashProfiler::new(interval, config, 1).unwrap();
        let mut truth: HashMap<Tuple, u64> = HashMap::new();
        for &t in &stream {
            p.observe(t);
            *truth.entry(t).or_insert(0) += 1;
            let estimate = p.sketch_estimate(t);
            prop_assert!(
                estimate >= truth[&t],
                "estimate {} < true {} for {}", estimate, truth[&t], t
            );
        }
    }

    /// Conservative update never produces larger counters than plain update.
    #[test]
    fn conservative_update_is_bounded_by_plain(stream in tuple_stream(400)) {
        let interval = IntervalConfig::new(100_000, 0.9).unwrap();
        let mk = |c| {
            MultiHashProfiler::new(
                interval,
                MultiHashConfig::new(64, 4).unwrap().with_conservative_update(c),
                3,
            ).unwrap()
        };
        let mut plain = mk(false);
        let mut cons = mk(true);
        for &t in &stream {
            plain.observe(t);
            cons.observe(t);
        }
        for (vp, vc) in plain.counters().iter().zip(cons.counters().iter()) {
            prop_assert!(vc <= vp);
        }
    }

    /// The accumulator never exceeds its capacity, for any stream.
    #[test]
    fn accumulator_respects_capacity(stream in tuple_stream(600)) {
        let interval = IntervalConfig::new(50, 0.1).unwrap(); // capacity 10
        let mut p = MultiHashProfiler::new(interval, MultiHashConfig::new(32, 2).unwrap(), 5)
            .unwrap();
        for &t in &stream {
            p.observe(t);
            prop_assert!(p.accumulator().len() <= 10);
        }
    }

    /// The perfect profiler is exactly a hash map.
    #[test]
    fn perfect_profiler_matches_reference(stream in tuple_stream(300)) {
        let interval = IntervalConfig::new(stream.len() as u64, 0.05).unwrap();
        let mut perfect = PerfectProfiler::new(interval);
        let mut reference: HashMap<Tuple, u64> = HashMap::new();
        let mut exact = None;
        for &t in &stream {
            *reference.entry(t).or_insert(0) += 1;
            if let Some(e) = perfect.observe_exact(t) {
                exact = Some(e);
            }
        }
        let exact = exact.expect("one interval completes");
        prop_assert_eq!(exact.distinct_tuples(), reference.len());
        for (&t, &c) in &reference {
            prop_assert_eq!(exact.count_of(t), c);
        }
    }

    /// Comparing a perfect profile against itself yields zero error.
    #[test]
    fn self_comparison_has_zero_error(stream in tuple_stream(300)) {
        let interval = IntervalConfig::new(stream.len() as u64, 0.05).unwrap();
        let mut perfect = PerfectProfiler::new(interval);
        let mut exact = None;
        for &t in &stream {
            if let Some(e) = perfect.observe_exact(t) {
                exact = Some(e);
            }
        }
        let exact = exact.unwrap();
        let err = compare_interval(&exact, &exact.profile());
        prop_assert_eq!(err.total(), 0.0);
    }

    /// Every candidate a hardware profiler reports carries at least the
    /// threshold count, and the error metric never goes negative.
    #[test]
    fn reported_candidates_meet_threshold(stream in tuple_stream(500), seed in 0u64..1000) {
        let interval = IntervalConfig::new(100, 0.05).unwrap();
        let mut p = MultiHashProfiler::new(interval, MultiHashConfig::new(64, 2).unwrap(), seed)
            .unwrap();
        for &t in &stream {
            if let Some(profile) = p.observe(t) {
                for c in profile.candidates() {
                    prop_assert!(c.count >= interval.threshold_count());
                }
            }
        }
    }

    /// Error series totals are always non-negative and finite.
    #[test]
    fn error_rates_are_finite(stream in tuple_stream(500)) {
        let interval = IntervalConfig::new(100, 0.1).unwrap();
        let mut p =
            MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 2).unwrap();
        let result = run_comparison(&mut p, stream.iter().copied());
        for e in result.series().intervals() {
            prop_assert!(e.total() >= 0.0);
            prop_assert!(e.total().is_finite());
        }
    }

    /// No phantom candidates: every tuple a hardware profiler reports must
    /// actually have occurred in the stream (promotion requires at least
    /// one occurrence, and retained entries only re-report after
    /// re-crossing the threshold).
    #[test]
    fn profilers_never_report_unseen_tuples(stream in tuple_stream(600), seed in 0u64..100) {
        let interval = IntervalConfig::new(100, 0.05).unwrap();
        let mut single =
            MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), seed).unwrap();
        let mut multi = MultiHashProfiler::new(interval, MultiHashConfig::new(64, 2).unwrap(), seed)
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for &t in &stream {
            seen.insert(t);
            for profile in [single.observe(t), multi.observe(t)].into_iter().flatten() {
                for c in profile.candidates() {
                    prop_assert!(seen.contains(&c.tuple), "phantom tuple {}", c.tuple);
                }
            }
        }
    }

    /// xor_fold always stays within the requested bit width.
    #[test]
    fn xor_fold_in_range(v in any::<u64>(), bits in 1u32..=32) {
        prop_assert!(xor_fold(v, bits) < (1u64 << bits));
    }

    /// Hash families map every tuple into every table's range.
    #[test]
    fn hash_family_indices_in_range(pc in any::<u64>(), value in any::<u64>(), seed in any::<u64>()) {
        let family = HashFamily::new(4, 256, seed).unwrap();
        for idx in family.indices(Tuple::new(pc, value)) {
            prop_assert!(idx < 256);
        }
    }

    /// A profiler observed the same stream twice (after reset) produces the
    /// same profiles — reset really is complete.
    #[test]
    fn reset_restores_determinism(stream in tuple_stream(400)) {
        let interval = IntervalConfig::new(100, 0.1).unwrap();
        let mut p = MultiHashProfiler::new(interval, MultiHashConfig::best(), 6).unwrap();
        let run = |p: &mut MultiHashProfiler, stream: &[Tuple]| {
            let mut out = Vec::new();
            for &t in stream {
                if let Some(profile) = p.observe(t) {
                    out.push(profile.candidates().to_vec());
                }
            }
            out
        };
        let first = run(&mut p, &stream);
        p.reset();
        let second = run(&mut p, &stream);
        prop_assert_eq!(first, second);
    }
}
