//! Ablation benches for the design choices DESIGN.md calls out: what each
//! optimization costs in per-event time (its *accuracy* effect is measured
//! by the `repro` harness, not here).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mhp_core::{
    EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler, SingleHashConfig, Tuple,
};
use mhp_trace::Benchmark;

const EVENTS: usize = 100_000;

fn stream() -> Vec<Tuple> {
    Benchmark::Gcc.value_stream(5).take(EVENTS).collect()
}

fn drive<P: EventProfiler>(profiler: &mut P, events: &[Tuple]) -> usize {
    let mut intervals = 0;
    for &t in events {
        if profiler.observe(black_box(t)).is_some() {
            intervals += 1;
        }
    }
    intervals
}

/// Conservative update reads all counters before deciding which to bump;
/// plain update just bumps. Measure the delta.
fn bench_update_policy(c: &mut Criterion) {
    let events = stream();
    let interval = IntervalConfig::short();
    let mut group = c.benchmark_group("ablation_update_policy");
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(20);
    for (label, conservative) in [("plain_update", false), ("conservative_update", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = MultiHashConfig::new(2048, 4)
                    .unwrap()
                    .with_conservative_update(conservative);
                let mut p = MultiHashProfiler::new(interval, config, 1).unwrap();
                drive(&mut p, &events)
            })
        });
    }
    group.finish();
}

/// Retaining changes the end-of-interval sweep and keeps the accumulator
/// populated (more shield hits, fewer hash updates).
fn bench_retaining(c: &mut Criterion) {
    let events = stream();
    let interval = IntervalConfig::short();
    let mut group = c.benchmark_group("ablation_retaining");
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(20);
    for (label, retaining) in [("without_retaining", false), ("with_retaining", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = MultiHashConfig::new(2048, 4)
                    .unwrap()
                    .with_retaining(retaining);
                let mut p = MultiHashProfiler::new(interval, config, 1).unwrap();
                drive(&mut p, &events)
            })
        });
    }
    group.finish();
}

/// Accumulator capacity drives the shield-lookup hash-map size: the paper's
/// 100-entry (1%) vs 1,000-entry (0.1%) designs.
fn bench_accumulator_capacity(c: &mut Criterion) {
    let events = stream();
    let mut group = c.benchmark_group("ablation_accumulator_capacity");
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(20);
    for (label, threshold) in [("capacity_100", 0.01), ("capacity_1000", 0.001)] {
        let interval = IntervalConfig::new(10_000, threshold).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut p =
                    MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 1).unwrap();
                drive(&mut p, &events)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_update_policy,
    bench_retaining,
    bench_accumulator_capacity
);
criterion_main!(benches);
