//! Per-event cost of each profiling architecture on a gcc-like stream —
//! the software-simulation analogue of the paper's "no performance
//! overhead" claim (in hardware these updates are off the critical path;
//! here they bound simulation speed).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mhp_core::{
    EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler, PerfectProfiler,
    SingleHashConfig, Tuple,
};
use mhp_stratified::{StratifiedConfig, StratifiedSampler};
use mhp_trace::Benchmark;

const EVENTS: usize = 100_000;

fn stream() -> Vec<Tuple> {
    Benchmark::Gcc.value_stream(7).take(EVENTS).collect()
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

fn bench_architectures(c: &mut Criterion) {
    let events = stream();
    let interval = IntervalConfig::short();
    let mut group = c.benchmark_group("profiler_observe");
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(20);

    group.bench_function("single_hash_best", |b| {
        b.iter(|| {
            let mut p =
                MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 1).unwrap();
            drive(&mut p, &events)
        })
    });

    for tables in [1usize, 2, 4, 8, 16] {
        group.bench_function(format!("multi_hash_{tables}_tables"), |b| {
            b.iter(|| {
                let config = MultiHashConfig::new(2048, tables).unwrap();
                let mut p = MultiHashProfiler::new(interval, config, 1).unwrap();
                drive(&mut p, &events)
            })
        });
    }

    group.bench_function("stratified_sampler", |b| {
        b.iter(|| {
            let config = StratifiedConfig::new(2048)
                .unwrap()
                .with_sampling_threshold(16)
                .with_tags(10, 64);
            let mut p = StratifiedSampler::new(interval, config, 1).unwrap();
            drive(&mut p, &events)
        })
    });

    group.bench_function("perfect_profiler", |b| {
        b.iter(|| {
            let mut p = PerfectProfiler::new(interval);
            drive(&mut p, &events)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_architectures);
criterion_main!(benches);
