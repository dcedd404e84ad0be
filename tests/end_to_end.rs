//! Cross-crate integration tests: profilers × workloads × analysis.

use mhp::prelude::*;
use mhp::{run_comparison, ErrorCategory};

/// A small interval configuration that keeps debug-mode tests fast while
/// still completing many intervals.
fn small_interval() -> IntervalConfig {
    IntervalConfig::new(10_000, 0.01).expect("valid interval")
}

#[test]
fn multi_hash_profiles_every_benchmark_with_low_error() {
    for bench in Benchmark::ALL {
        let mut profiler =
            MultiHashProfiler::new(small_interval(), MultiHashConfig::best(), 9).unwrap();
        let result = run_comparison(&mut profiler, bench.value_stream(9).take(100_000));
        assert_eq!(result.series().len(), 10);
        // Skip the cold-start interval, as the harness does.
        let steady: mhp::ErrorSeries = result
            .series()
            .intervals()
            .iter()
            .skip(1)
            .cloned()
            .collect();
        assert!(
            steady.mean_total_percent() < 5.0,
            "{}: steady-state error {:.2}% too high",
            bench.name(),
            steady.mean_total_percent()
        );
    }
}

#[test]
fn multi_hash_beats_plain_single_hash_on_gcc() {
    let events = || Benchmark::Gcc.value_stream(5).take(200_000);
    let mut single = MultiHashProfiler::single_hash(
        small_interval(),
        SingleHashConfig::new(2048).unwrap(), // P0 R0 baseline
        5,
    )
    .unwrap();
    let mut multi = MultiHashProfiler::new(small_interval(), MultiHashConfig::best(), 5).unwrap();
    let single_err = run_comparison(&mut single, events())
        .series()
        .mean_total_percent();
    let multi_err = run_comparison(&mut multi, events())
        .series()
        .mean_total_percent();
    assert!(
        multi_err < single_err,
        "multi-hash {multi_err:.3}% should beat plain single hash {single_err:.3}%"
    );
}

#[test]
fn conservative_update_reduces_error_under_pressure() {
    // Severe pressure: long intervals relative to table size.
    let interval = IntervalConfig::new(100_000, 0.001).unwrap();
    let events = || Benchmark::Gcc.value_stream(4).take(400_000);
    let run = |conservative: bool| {
        let config = MultiHashConfig::new(256, 4)
            .unwrap()
            .with_conservative_update(conservative);
        let mut p = MultiHashProfiler::new(interval, config, 4).unwrap();
        run_comparison(&mut p, events())
            .series()
            .mean_total_percent()
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with < without,
        "conservative update should reduce error: C1 {with:.2}% vs C0 {without:.2}%"
    );
}

#[test]
fn resetting_trades_false_positives_for_false_negatives() {
    // On the plain single hash, resetting must lower FP error; the paper
    // notes it can raise FN error.
    let events = || Benchmark::Go.value_stream(11).take(200_000);
    let run = |resetting: bool| {
        let config = SingleHashConfig::new(2048)
            .unwrap()
            .with_resetting(resetting);
        let mut p = MultiHashProfiler::single_hash(small_interval(), config, 11).unwrap();
        run_comparison(&mut p, events())
            .into_series()
            .mean_breakdown()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with.false_positive <= without.false_positive,
        "resetting should not raise FP: {} vs {}",
        with.false_positive,
        without.false_positive
    );
}

#[test]
fn stratified_baseline_needs_software_but_multi_hash_does_not() {
    let interval = small_interval();
    let config = StratifiedConfig::new(2048)
        .unwrap()
        .with_sampling_threshold(16);
    let mut stratified = StratifiedSampler::new(interval, config, 2).unwrap();
    let _ = run_comparison(&mut stratified, Benchmark::Li.value_stream(2).take(100_000));
    assert!(
        stratified.overhead().interrupts > 0,
        "the baseline must interrupt software"
    );
    // The multi-hash profiler has no software-facing state at all: its whole
    // output is the accumulator table contents.
}

#[test]
fn edge_profiling_works_across_architectures() {
    for bench in [Benchmark::Gcc, Benchmark::M88ksim] {
        let mut single =
            MultiHashProfiler::single_hash(small_interval(), SingleHashConfig::best(), 3).unwrap();
        let mut multi =
            MultiHashProfiler::new(small_interval(), MultiHashConfig::best(), 3).unwrap();
        let single_err = run_comparison(&mut single, bench.edge_stream(3).take(100_000))
            .series()
            .mean_total_percent();
        let multi_err = run_comparison(&mut multi, bench.edge_stream(3).take(100_000))
            .series()
            .mean_total_percent();
        assert!(
            single_err < 50.0,
            "{}: single-hash edge error {single_err}",
            bench.name()
        );
        assert!(
            multi_err < 10.0,
            "{}: multi-hash edge error {multi_err}",
            bench.name()
        );
    }
}

#[test]
fn hardware_profile_counts_are_never_below_threshold() {
    let mut profiler =
        MultiHashProfiler::new(small_interval(), MultiHashConfig::best(), 1).unwrap();
    let mut checked = 0;
    for t in Benchmark::Vortex.value_stream(1).take(100_000) {
        if let Some(profile) = profiler.observe(t) {
            for c in profile.candidates() {
                assert!(c.count >= profile.threshold_count());
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "some candidates must have been captured");
}

#[test]
fn false_negatives_are_counted_against_missing_tuples() {
    // A profiler with a hopeless configuration (tiny tables, resetting off)
    // must show its misses as FN/FP, never panic.
    let interval = IntervalConfig::new(50_000, 0.001).unwrap();
    let config = MultiHashConfig::new(16, 2).unwrap();
    let mut p = MultiHashProfiler::new(interval, config, 8).unwrap();
    let result = run_comparison(&mut p, Benchmark::Gcc.value_stream(8).take(100_000));
    let series = result.series();
    assert_eq!(series.len(), 2);
    let fp = series.total_count_in(ErrorCategory::FalsePositive);
    let exact = series.total_count_in(ErrorCategory::Exact);
    assert!(fp + exact > 0, "classification must run");
}

#[test]
fn profiles_are_reproducible_across_runs() {
    let collect = || {
        let mut p = MultiHashProfiler::new(small_interval(), MultiHashConfig::best(), 77).unwrap();
        let mut out = Vec::new();
        for t in Benchmark::Sis.value_stream(77).take(50_000) {
            if let Some(profile) = p.observe(t) {
                out.push(profile);
            }
        }
        out
    };
    let a = collect();
    let b = collect();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.candidates(), y.candidates());
    }
}
