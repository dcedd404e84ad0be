//! The `mhp-bench hotpath` runner: sustained events/sec through the sketch
//! hot path, per-event vs batched, plus the sharded engine end to end.
//!
//! This is the perf-regression harness for the batched
//! [`observe_batch`](mhp_core::EventProfiler::observe_batch) path: it times
//! the same deterministic stream through each profiler both ways and
//! reports the best of `samples` passes, so a regression in the batched
//! loop (or the flattened counter block behind it) shows up as a drop in
//! `events_per_sec` rather than a silently slower CI.
//!
//! The output is a small hand-rolled JSON document (`BENCH_hotpath.json`
//! at the repo root, by convention) — stable keys, no external
//! serialization dependency.

use std::sync::Arc;
use std::time::Instant;

use mhp_core::{
    CollectingSink, EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler,
    PerfectProfiler, SingleHashConfig, SketchSnapshot, Tuple,
};
use mhp_pipeline::{EngineConfig, ProfilerSpec, ShardedEngine};
use mhp_trace::Benchmark;

/// Knobs for a hotpath run.
#[derive(Debug, Clone)]
pub struct HotpathOptions {
    /// Events in the timed stream.
    pub events: u64,
    /// Stream seed; the same seed reproduces every number's workload.
    pub seed: u64,
    /// Events per `observe_batch` call (and per engine chunk).
    pub batch: usize,
    /// Timed passes per case; the best (lowest wall time) is reported.
    pub samples: usize,
    /// Shard counts to run the end-to-end engine at.
    pub shards: Vec<usize>,
}

impl Default for HotpathOptions {
    fn default() -> Self {
        HotpathOptions {
            events: 2_000_000,
            seed: 0xCAFE,
            batch: 4_096,
            samples: 3,
            shards: vec![1, 4, 8],
        }
    }
}

/// One timed configuration: a profiler (or engine) in one ingest mode.
#[derive(Debug, Clone)]
pub struct HotpathCase {
    /// Profiler under test: `multi-hash`, `single-hash`, `perfect`, or
    /// `engine-<n>shard`.
    pub name: String,
    /// `per-event` (one `observe` call per tuple) or `batched`
    /// (`observe_batch` over `batch`-sized slices).
    pub mode: String,
    /// Events pushed through the profiler in one timed pass.
    pub events: u64,
    /// Best wall time over the configured samples, in seconds.
    pub best_secs: f64,
    /// `events / best_secs` — the headline throughput number.
    pub events_per_sec: f64,
    /// Interval profiles the run emitted (a cheap cross-check that the
    /// timed work actually happened and matched between modes).
    pub intervals: u64,
}

/// The full result set of one hotpath run.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Options the run was configured with.
    pub options: HotpathOptions,
    /// CPUs available to this run (`available_parallelism`). The scaling
    /// numbers are meaningless without it: on a 1-CPU box even a perfect
    /// 8-shard engine cannot beat 1× speedup.
    pub cpus: usize,
    /// One entry per (profiler, mode) configuration, in run order.
    pub cases: Vec<HotpathCase>,
}

/// Shard-scaling summary: the widest engine case against the 1-shard
/// baseline, normalized by how many cores were physically available.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// The widest shard count measured (8, with default options).
    pub shards: usize,
    /// `engine-<shards>shard` ÷ `engine-1shard` throughput — the raw
    /// speedup, bounded above by the core count, not the shard count.
    pub speedup: f64,
    /// CPUs available during the run.
    pub cpus: usize,
    /// `speedup ÷ min(shards, cpus)` — fraction of the physically
    /// achievable linear speedup realized. 1.0 is perfect scaling on the
    /// hardware at hand; comparing raw speedup to the shard count would
    /// report a phantom regression on machines with fewer cores.
    pub efficiency: f64,
}

/// Times `pass` `samples` times and returns the best seconds plus the
/// interval count the last pass reported (identical across passes — the
/// stream and profiler construction are deterministic).
fn best_of(samples: usize, mut pass: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut intervals = 0;
    for _ in 0..samples.max(1) {
        let started = Instant::now();
        intervals = pass();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, intervals)
}

fn case(
    name: &str,
    mode: &str,
    events: u64,
    samples: usize,
    pass: impl FnMut() -> u64,
) -> HotpathCase {
    let (best_secs, intervals) = best_of(samples, pass);
    HotpathCase {
        name: name.to_string(),
        mode: mode.to_string(),
        events,
        best_secs,
        events_per_sec: events as f64 / best_secs.max(f64::MIN_POSITIVE),
        intervals,
    }
}

/// Runs every configuration and collects the report.
///
/// The stream is materialized once (`Benchmark::Li` value tuples) so every
/// case times pure profiler work over identical input, not stream
/// generation.
pub fn run(opts: &HotpathOptions) -> HotpathReport {
    let stream: Vec<Tuple> = Benchmark::Li
        .value_stream(opts.seed)
        .take(opts.events as usize)
        .collect();
    let events = stream.len() as u64;
    // Scale the interval so ~20 intervals complete at any --events, so the
    // timed loop exercises promotion, interval cuts, and resets — not just
    // counter bumps.
    let interval_len = (opts.events / 20).max(1_000);
    let interval = IntervalConfig::new(interval_len, 0.01).expect("valid interval config");
    let multi = MultiHashConfig::best();
    let single = SingleHashConfig::best();
    let mut cases = Vec::new();

    cases.push(case(
        "multi-hash",
        "per-event",
        events,
        opts.samples,
        || {
            let mut p = MultiHashProfiler::new(interval, multi, opts.seed).expect("valid profiler");
            let mut intervals = 0u64;
            for &t in &stream {
                intervals += u64::from(p.observe(t).is_some());
            }
            intervals
        },
    ));
    cases.push(case("multi-hash", "batched", events, opts.samples, || {
        let mut p = MultiHashProfiler::new(interval, multi, opts.seed).expect("valid profiler");
        let mut intervals = 0u64;
        for chunk in stream.chunks(opts.batch.max(1)) {
            intervals += p.observe_batch(chunk).len() as u64;
        }
        intervals
    }));
    cases.push(case(
        "single-hash",
        "per-event",
        events,
        opts.samples,
        || {
            let mut p = MultiHashProfiler::single_hash(interval, single, opts.seed)
                .expect("valid profiler");
            let mut intervals = 0u64;
            for &t in &stream {
                intervals += u64::from(p.observe(t).is_some());
            }
            intervals
        },
    ));
    cases.push(case("single-hash", "batched", events, opts.samples, || {
        let mut p =
            MultiHashProfiler::single_hash(interval, single, opts.seed).expect("valid profiler");
        let mut intervals = 0u64;
        for chunk in stream.chunks(opts.batch.max(1)) {
            intervals += p.observe_batch(chunk).len() as u64;
        }
        intervals
    }));
    cases.push(case("perfect", "batched", events, opts.samples, || {
        let mut p = PerfectProfiler::new(interval);
        let mut intervals = 0u64;
        for chunk in stream.chunks(opts.batch.max(1)) {
            intervals += p.observe_batch(chunk).len() as u64;
        }
        intervals
    }));

    for &shards in &opts.shards {
        let name = format!("engine-{shards}shard");
        cases.push(case(&name, "batched", events, opts.samples, || {
            let engine = ShardedEngine::new(
                EngineConfig::new(shards).with_batch_events(opts.batch.max(1)),
                interval,
                ProfilerSpec::MultiHash(multi),
                opts.seed,
            );
            let mut session = engine.start().expect("engine starts");
            // The bulk dispatch path: partition-and-append without the
            // per-event interval bookkeeping, same as server ingest.
            session.push_slice(&stream).expect("workers stay alive");
            let report = session.finish().expect("engine finishes");
            report.intervals
        }));
    }

    HotpathReport {
        options: opts.clone(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cases,
    }
}

impl HotpathReport {
    /// The shard-scaling summary, when the run measured a multi-shard
    /// engine case alongside the 1-shard baseline.
    pub fn scaling(&self) -> Option<Scaling> {
        let shards = self
            .options
            .shards
            .iter()
            .copied()
            .max()
            .filter(|&s| s > 1)?;
        let base = self.events_per_sec("engine-1shard", "batched")?;
        let wide = self.events_per_sec(&format!("engine-{shards}shard"), "batched")?;
        let speedup = wide / base.max(f64::MIN_POSITIVE);
        let achievable = shards.min(self.cpus).max(1);
        Some(Scaling {
            shards,
            speedup,
            cpus: self.cpus,
            efficiency: speedup / achievable as f64,
        })
    }

    /// The report as a JSON document with stable keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"hotpath\",\n");
        out.push_str(&format!("  \"events\": {},\n", self.options.events));
        out.push_str(&format!("  \"seed\": {},\n", self.options.seed));
        out.push_str(&format!("  \"batch\": {},\n", self.options.batch));
        out.push_str(&format!("  \"samples\": {},\n", self.options.samples));
        out.push_str(&format!("  \"cpus\": {},\n", self.cpus));
        match self.scaling() {
            Some(s) => out.push_str(&format!(
                "  \"scaling\": {{\"shards\": {}, \"speedup\": {:.3}, \"cpus\": {}, \
                 \"scaling_efficiency\": {:.3}}},\n",
                s.shards, s.speedup, s.cpus, s.efficiency
            )),
            None => out.push_str("  \"scaling\": null,\n"),
        }
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mode\": \"{}\", \"events\": {}, \
                 \"best_secs\": {:.6}, \"events_per_sec\": {:.0}, \"intervals\": {}}}{}\n",
                c.name,
                c.mode,
                c.events,
                c.best_secs,
                c.events_per_sec,
                c.intervals,
                if i + 1 == self.cases.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// An aligned human-readable table for stdout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "hotpath: {} events, seed {}, batch {}, best of {}\n",
            self.options.events, self.options.seed, self.options.batch, self.options.samples
        );
        out.push_str(&format!(
            "{:<16} {:<10} {:>12} {:>10} {:>10}\n",
            "profiler", "mode", "events/sec", "secs", "intervals"
        ));
        for c in &self.cases {
            out.push_str(&format!(
                "{:<16} {:<10} {:>12.0} {:>10.4} {:>10}\n",
                c.name, c.mode, c.events_per_sec, c.best_secs, c.intervals
            ));
        }
        if let Some(s) = self.scaling() {
            out.push_str(&format!(
                "scaling: {} shards vs 1 -> {:.2}x speedup on {} cpu(s); \
                 efficiency {:.2} (speedup / min(shards, cpus))\n",
                s.shards, s.speedup, s.cpus, s.efficiency
            ));
        }
        out
    }

    /// Looks up one case's throughput by `(name, mode)`.
    pub fn events_per_sec(&self, name: &str, mode: &str) -> Option<f64> {
        self.cases
            .iter()
            .find(|c| c.name == name && c.mode == mode)
            .map(|c| c.events_per_sec)
    }
}

/// Sketch-health totals for one profiler, aggregated from the per-interval
/// [`SketchSnapshot`]s of an *untimed* introspection run over the same
/// stream the timed cases use.
///
/// The run is deliberately separate from the timed passes so the headline
/// `events_per_sec` numbers keep measuring the sink-free hot path; this is
/// the companion "was the sketch healthy while it was that fast" report.
#[derive(Debug, Clone)]
pub struct SketchHealth {
    /// Profiler name (`multi-hash` or `single-hash`).
    pub name: String,
    /// Completed intervals the sink observed.
    pub intervals: u64,
    /// Events across those intervals.
    pub events: u64,
    /// Events absorbed by a resident accumulator entry.
    pub shield_hits: u64,
    /// Tuples promoted into the accumulator.
    pub promotions: u64,
    /// Promotions dropped for want of a replaceable entry.
    pub promotions_dropped: u64,
    /// Promotions that evicted a resident entry.
    pub evictions: u64,
    /// Candidates retained across interval boundaries.
    pub retained: u64,
    /// Events whose minimum counter sat at the saturation ceiling.
    pub saturations: u64,
    /// Mean end-of-interval hash-counter occupancy, in [0, 1].
    pub mean_counter_occupancy: f64,
    /// Mean end-of-interval accumulator fill, in [0, 1].
    pub mean_accumulator_fill: f64,
}

fn health_from(name: &str, snapshots: &[SketchSnapshot]) -> SketchHealth {
    let n = snapshots.len().max(1) as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    SketchHealth {
        name: name.to_string(),
        intervals: snapshots.len() as u64,
        events: snapshots.iter().map(|s| s.events).sum(),
        shield_hits: snapshots.iter().map(|s| s.shield_hits).sum(),
        promotions: snapshots.iter().map(|s| s.promotions).sum(),
        promotions_dropped: snapshots.iter().map(|s| s.promotions_dropped).sum(),
        evictions: snapshots.iter().map(|s| s.evictions).sum(),
        retained: snapshots.iter().map(|s| s.retained).sum(),
        saturations: snapshots.iter().map(|s| s.saturations).sum(),
        mean_counter_occupancy: snapshots
            .iter()
            .map(|s| ratio(s.counters_occupied, s.counters_total))
            .sum::<f64>()
            / n,
        mean_accumulator_fill: snapshots
            .iter()
            .map(|s| ratio(s.accumulator_len, s.accumulator_capacity))
            .sum::<f64>()
            / n,
    }
}

/// Runs the sketch profilers once each (batched, untimed) with a
/// [`CollectingSink`] installed and aggregates the per-interval snapshots.
///
/// Uses the same stream, interval scaling and configs as [`run`], so the
/// health numbers describe exactly the workload the timed cases measured.
pub fn sketch_health(opts: &HotpathOptions) -> Vec<SketchHealth> {
    let stream: Vec<Tuple> = Benchmark::Li
        .value_stream(opts.seed)
        .take(opts.events as usize)
        .collect();
    let interval_len = (opts.events / 20).max(1_000);
    let interval = IntervalConfig::new(interval_len, 0.01).expect("valid interval config");

    let mut out = Vec::new();
    let collect = |profiler: &mut dyn EventProfiler| {
        let sink = Arc::new(CollectingSink::new());
        profiler.set_introspection_sink(Some(sink.clone()));
        for chunk in stream.chunks(opts.batch.max(1)) {
            profiler.observe_batch(chunk);
        }
        sink.take()
    };

    let mut multi = MultiHashProfiler::new(interval, MultiHashConfig::best(), opts.seed)
        .expect("valid profiler");
    out.push(health_from("multi-hash", &collect(&mut multi)));

    let mut single = MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), opts.seed)
        .expect("valid profiler");
    out.push(health_from("single-hash", &collect(&mut single)));

    out
}

/// Renders the sketch-health report as a JSON document with stable keys
/// (written next to the hotpath JSON as `*_telemetry.json`).
pub fn telemetry_json(health: &[SketchHealth]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"hotpath_telemetry\",\n  \"profilers\": [\n");
    for (i, h) in health.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"intervals\": {}, \"events\": {}, \
             \"shield_hits\": {}, \"promotions\": {}, \"promotions_dropped\": {}, \
             \"evictions\": {}, \"retained\": {}, \"saturations\": {}, \
             \"mean_counter_occupancy\": {:.4}, \"mean_accumulator_fill\": {:.4}}}{}\n",
            h.name,
            h.intervals,
            h.events,
            h.shield_hits,
            h.promotions,
            h.promotions_dropped,
            h.evictions,
            h.retained,
            h.saturations,
            h.mean_counter_occupancy,
            h.mean_accumulator_fill,
            if i + 1 == health.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathOptions {
        HotpathOptions {
            events: 30_000,
            seed: 7,
            batch: 1_024,
            samples: 1,
            shards: vec![1],
        }
    }

    #[test]
    fn runs_every_case_and_reports_positive_throughput() {
        let report = run(&tiny());
        assert_eq!(report.cases.len(), 6); // 5 profiler cases + 1 engine
        for c in &report.cases {
            assert!(
                c.events_per_sec > 0.0,
                "{}/{} has no throughput",
                c.name,
                c.mode
            );
            assert_eq!(c.events, 30_000);
        }
    }

    #[test]
    fn per_event_and_batched_modes_emit_the_same_intervals() {
        let report = run(&tiny());
        for name in ["multi-hash", "single-hash"] {
            let per_event = report
                .cases
                .iter()
                .find(|c| c.name == name && c.mode == "per-event")
                .unwrap();
            let batched = report
                .cases
                .iter()
                .find(|c| c.name == name && c.mode == "batched")
                .unwrap();
            assert_eq!(per_event.intervals, batched.intervals, "{name}");
            assert!(per_event.intervals > 0, "{name} never cut an interval");
        }
    }

    #[test]
    fn json_has_stable_keys_and_every_case() {
        let report = run(&tiny());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"benchmark\"",
            "\"events\"",
            "\"seed\"",
            "\"cpus\"",
            "\"scaling\"",
            "\"cases\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"multi-hash\""));
        assert!(json.contains("\"engine-1shard\""));
        assert_eq!(json.matches("\"best_secs\"").count(), report.cases.len());
        // A 1-shard-only run has no scaling ratio to report.
        assert!(json.contains("\"scaling\": null"));
    }

    #[test]
    fn multi_shard_runs_report_a_cores_normalized_scaling_summary() {
        let report = run(&HotpathOptions {
            shards: vec![1, 2],
            ..tiny()
        });
        let scaling = report.scaling().expect("1-vs-2-shard run has a ratio");
        assert_eq!(scaling.shards, 2);
        assert_eq!(scaling.cpus, report.cpus);
        assert!(scaling.speedup > 0.0);
        // The normalizer is the *achievable* parallelism, so efficiency
        // compares against min(shards, cpus) — never the raw shard count
        // on a narrower machine.
        let achievable = scaling.shards.min(scaling.cpus).max(1) as f64;
        let expected = scaling.speedup / achievable;
        assert!((scaling.efficiency - expected).abs() < 1e-9);
        let json = report.to_json();
        assert!(json.contains("\"scaling_efficiency\""));
        assert!(report.render().contains("scaling: 2 shards vs 1"));
    }

    #[test]
    fn sketch_health_covers_both_sketches_and_the_whole_stream() {
        let opts = tiny();
        let health = sketch_health(&opts);
        assert_eq!(health.len(), 2);
        for h in &health {
            // 30k events / 1.5k interval = 20 complete intervals.
            assert_eq!(h.intervals, 20, "{}", h.name);
            assert_eq!(h.events, 30_000, "{}", h.name);
            assert!(h.promotions > 0, "{} never promoted", h.name);
            assert!(h.mean_counter_occupancy > 0.0 && h.mean_counter_occupancy <= 1.0);
            assert!(h.mean_accumulator_fill > 0.0 && h.mean_accumulator_fill <= 1.0);
        }
        let json = telemetry_json(&health);
        assert!(json.contains("\"hotpath_telemetry\""));
        assert!(json.contains("\"multi-hash\"") && json.contains("\"single-hash\""));
        assert_eq!(json.matches("\"promotions\"").count(), 2);
    }

    #[test]
    fn render_mentions_every_case_name() {
        let report = run(&tiny());
        let text = report.render();
        assert!(text.contains("multi-hash"));
        assert!(text.contains("perfect"));
        assert!(text.contains("events/sec"));
    }
}
