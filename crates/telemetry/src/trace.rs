//! Per-request stage tracing: a [`Trace`] stamps one operation (a server
//! request, an aggregator pull) with a per-stage timing breakdown.
//!
//! The design splits cost two ways:
//!
//! * **Every** finished trace records each touched stage into a per-stage
//!   [`Histogram`] on the shared [`Registry`] (named
//!   `{prefix}_stage_{stage}_us`), so stage quantiles cover the full
//!   population, not a sample. Recording is the histogram's three relaxed
//!   `fetch_add`s per stage.
//! * A **sample** of traces is kept whole: a bounded reservoir of the
//!   slowest 32, rendered as JSONL by [`Tracer::render_jsonl`]. Only
//!   sampled traces allocate.
//!
//! Stage durations are accumulated in relaxed atomics, so a [`StageTimer`]
//! needs only `&Trace` — timers for different stages may overlap or run on
//! different threads, and re-entering a stage adds to its total. The
//! carrier itself is a fixed-size struct with no per-request allocation.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::registry::{Counter, Registry};

/// Maximum number of stages one [`Tracer`] can carry; [`Trace`] stores
/// stage accumulators inline (no allocation), so this is a hard cap.
pub const MAX_STAGES: usize = 8;

/// How many slowest traces the slow reservoir retains.
const SLOW_CAPACITY: usize = 32;

/// Static configuration for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Metric name prefix: stage histograms register as
    /// `{prefix}_stage_{stage}_us`.
    pub prefix: &'static str,
    /// Stage taxonomy, in pipeline order. At most [`MAX_STAGES`] entries;
    /// call sites refer to stages by index into this slice.
    pub stages: &'static [&'static str],
    /// Whether tracing records anything at all. A disabled tracer still
    /// registers its metrics (so exposition shape is stable) but
    /// [`Trace`]s become no-ops that never read the clock — the overhead
    /// baseline for benchmarking.
    pub enabled: bool,
}

/// One fully-sampled trace, as kept in the slow reservoir and rendered to
/// JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Trace sequence number (0-based, per tracer).
    pub seq: u64,
    /// The operation kind (request opcode name, `"pull"`, ...).
    pub kind: &'static str,
    /// Free-form numeric detail (e.g. upstream index); 0 if unset.
    pub detail: u64,
    /// Start, in microseconds since the tracer was created.
    pub start_us: u64,
    /// Whole-operation span in microseconds (includes lead time added via
    /// [`Trace::add_lead`]).
    pub total_us: u64,
    /// Per-stage durations in taxonomy order — every stage is present,
    /// untouched ones as 0, so consumers never see a missing field.
    pub stages: Vec<(&'static str, u64)>,
}

/// Point-in-time quantile summary of one stage histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage name, or `"total"` for the whole-operation histogram.
    pub stage: &'static str,
    /// Operations that touched this stage.
    pub count: u64,
    /// Median, in microseconds (upper bucket bound).
    pub p50_us: u64,
    /// 99th percentile, in microseconds (upper bucket bound).
    pub p99_us: u64,
    /// 99.9th percentile, in microseconds (upper bucket bound).
    pub p999_us: u64,
}

#[derive(Debug)]
struct TracerInner {
    stages: &'static [&'static str],
    enabled: bool,
    stage_histograms: Vec<Histogram>,
    total_histogram: Histogram,
    traces_total: Counter,
    traces_sampled: Counter,
    epoch: Instant,
    seq: AtomicU64,
    /// Smallest `total_us` in the slow reservoir once it is full; 0 while
    /// filling. Checked relaxed before taking the sample lock, so the
    /// common fast-and-unsampled trace never contends.
    slow_floor: AtomicU64,
    /// The slow reservoir: at most [`SLOW_CAPACITY`] records, unordered.
    slow: Mutex<Vec<TraceRecord>>,
}

/// A stage-trace collector: hands out [`Trace`]s, owns the per-stage
/// histograms and the slow-trace reservoir. Cloning shares the same
/// collector.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates a tracer and registers its metrics on `registry`:
    /// `{prefix}_stage_{stage}_us` histograms (one per stage),
    /// `{prefix}_stage_total_us`, `{prefix}_traces_total`, and
    /// `{prefix}_traces_sampled_total`.
    ///
    /// # Panics
    ///
    /// If the taxonomy is empty or longer than [`MAX_STAGES`].
    pub fn new(registry: &Registry, config: TraceConfig) -> Self {
        assert!(
            !config.stages.is_empty() && config.stages.len() <= MAX_STAGES,
            "stage taxonomy must have 1..={MAX_STAGES} entries"
        );
        let prefix = config.prefix;
        let stage_histograms = config
            .stages
            .iter()
            .map(|stage| registry.histogram(&format!("{prefix}_stage_{stage}_us")))
            .collect();
        Tracer {
            inner: Arc::new(TracerInner {
                stages: config.stages,
                enabled: config.enabled,
                stage_histograms,
                total_histogram: registry.histogram(&format!("{prefix}_stage_total_us")),
                traces_total: registry.counter(&format!("{prefix}_traces_total")),
                traces_sampled: registry.counter(&format!("{prefix}_traces_sampled_total")),
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                slow_floor: AtomicU64::new(0),
                slow: Mutex::new(Vec::with_capacity(SLOW_CAPACITY)),
            }),
        }
    }

    /// Starts a trace for one operation of the given kind. Time the
    /// operation's stages with [`Trace::stage`] / [`Trace::add`] and call
    /// [`Trace::finish`] when the operation completes; a trace dropped
    /// without finishing (an aborted connection) records nothing.
    pub fn begin(&self, kind: &'static str) -> Trace {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        let enabled = self.inner.enabled;
        let seq = if enabled {
            self.inner.seq.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Trace {
            tracer: self.clone(),
            kind,
            enabled,
            seq,
            start: Instant::now(),
            lead_us: AtomicU64::new(0),
            detail: AtomicU64::new(0),
            durs: [ZERO; MAX_STAGES],
            touched: AtomicU32::new(0),
        }
    }

    /// Quantile summaries for every stage histogram, in taxonomy order,
    /// followed by one for the whole-operation (`"total"`) histogram.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let summarize = |stage: &'static str, h: &Histogram| StageSummary {
            stage,
            count: h.count(),
            p50_us: h.quantile(0.50),
            p99_us: h.quantile(0.99),
            p999_us: h.quantile(0.999),
        };
        let inner = &*self.inner;
        let mut out: Vec<StageSummary> = inner
            .stages
            .iter()
            .zip(inner.stage_histograms.iter())
            .map(|(&stage, h)| summarize(stage, h))
            .collect();
        out.push(summarize("total", &inner.total_histogram));
        out
    }

    /// A copy of every currently-sampled trace, slowest first.
    pub fn sampled(&self) -> Vec<TraceRecord> {
        let mut slow = self
            .inner
            .slow
            .lock()
            .expect("trace samples poisoned")
            .clone();
        slow.sort_by_key(|r| std::cmp::Reverse(r.total_us));
        slow
    }

    /// Renders the tracer's state as JSONL: one `"stage_summary"` line per
    /// stage (with p50/p99/p999 in microseconds), then one `"trace"` line
    /// per sampled trace with every stage field present.
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.stage_summaries() {
            let _ = writeln!(
                out,
                "{{\"type\":\"stage_summary\",\"stage\":\"{}\",\"count\":{},\
                 \"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
                s.stage, s.count, s.p50_us, s.p99_us, s.p999_us
            );
        }
        for record in self.sampled() {
            let mut stages = String::new();
            for (name, us) in &record.stages {
                if !stages.is_empty() {
                    stages.push(',');
                }
                let _ = write!(stages, "\"{name}\":{us}");
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"trace\",\"seq\":{},\"kind\":\"{}\",\
                 \"detail\":{},\"start_us\":{},\"total_us\":{},\"stages\":{{{stages}}}}}",
                record.seq, record.kind, record.detail, record.start_us, record.total_us
            );
        }
        out
    }

    /// Finishes `trace`: records stage histograms and decides sampling.
    fn finish_trace(&self, trace: &Trace) {
        let inner = &*self.inner;
        let elapsed_us = u64::try_from(trace.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let total_us = elapsed_us.saturating_add(trace.lead_us.load(Ordering::Relaxed));
        inner.traces_total.incr();
        inner.total_histogram.record(total_us);
        let touched = trace.touched.load(Ordering::Relaxed);
        for (i, histogram) in inner.stage_histograms.iter().enumerate() {
            if touched & (1 << i) != 0 {
                histogram.record(trace.durs[i].load(Ordering::Relaxed));
            }
        }

        // Cheap pre-check: only a trace slower than the reservoir's
        // current floor (or any trace while it fills) takes the lock.
        let floor = inner.slow_floor.load(Ordering::Relaxed);
        if floor != 0 && total_us <= floor {
            return;
        }

        let start_us = {
            let since_epoch = u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
            since_epoch.saturating_sub(total_us)
        };
        let stages: Vec<(&'static str, u64)> = inner
            .stages
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, trace.durs[i].load(Ordering::Relaxed)))
            .collect();
        let record = TraceRecord {
            seq: trace.seq,
            kind: trace.kind,
            detail: trace.detail.load(Ordering::Relaxed),
            start_us,
            total_us,
            stages,
        };
        let kept = {
            let mut slow = inner.slow.lock().expect("trace samples poisoned");
            Self::offer_slow(inner, &mut slow, record)
        };
        if kept {
            inner.traces_sampled.incr();
        }
    }

    /// Offers a record to the slow reservoir; returns whether it was kept.
    /// Caller holds the reservoir lock.
    fn offer_slow(inner: &TracerInner, slow: &mut Vec<TraceRecord>, record: TraceRecord) -> bool {
        if slow.len() < SLOW_CAPACITY {
            slow.push(record);
            if slow.len() == SLOW_CAPACITY {
                Self::refresh_floor(inner, slow);
            }
            return true;
        }
        let (min_idx, min_total) = slow
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.total_us)
            .map(|(i, r)| (i, r.total_us))
            .expect("slow reservoir non-empty");
        if record.total_us <= min_total {
            return false;
        }
        slow[min_idx] = record;
        Self::refresh_floor(inner, slow);
        true
    }

    fn refresh_floor(inner: &TracerInner, slow: &[TraceRecord]) {
        let floor = slow.iter().map(|r| r.total_us).min().unwrap_or(0);
        inner.slow_floor.store(floor, Ordering::Relaxed);
    }
}

/// One in-flight traced operation. Stage durations accumulate in relaxed
/// atomics, so timing needs only `&Trace` — timers may overlap, nest, or
/// run on other threads, and the carrier can move through queues whole.
#[derive(Debug)]
pub struct Trace {
    tracer: Tracer,
    kind: &'static str,
    enabled: bool,
    seq: u64,
    start: Instant,
    /// Time that elapsed *before* `start` but belongs to this operation
    /// (e.g. admission parking before the first frame); extends the span.
    lead_us: AtomicU64,
    detail: AtomicU64,
    durs: [AtomicU64; MAX_STAGES],
    touched: AtomicU32,
}

impl Trace {
    /// Starts timing one stage; the elapsed time is added to the stage
    /// when the returned timer drops (or is [`StageTimer::finish`]ed).
    /// On a disabled tracer this never reads the clock.
    pub fn stage(&self, stage: usize) -> StageTimer<'_> {
        debug_assert!(stage < self.tracer.inner.stages.len());
        StageTimer {
            trace: self,
            stage,
            started: self.enabled.then(Instant::now),
        }
    }

    /// Adds an externally-measured duration to a stage (e.g. queue wait
    /// measured across a thread handoff).
    pub fn add(&self, stage: usize, duration: Duration) {
        if !self.enabled {
            return;
        }
        debug_assert!(stage < self.tracer.inner.stages.len());
        let us = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
        self.durs[stage].fetch_add(us, Ordering::Relaxed);
        self.touched.fetch_or(1 << stage, Ordering::Relaxed);
    }

    /// As [`add`](Self::add), for time spent *before* the trace began
    /// (admission wait on a parked connection): the duration both counts
    /// toward the stage and extends the whole-operation span backward, so
    /// stage sums never exceed the span.
    pub fn add_lead(&self, stage: usize, duration: Duration) {
        if !self.enabled {
            return;
        }
        self.add(stage, duration);
        let us = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
        self.lead_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Attaches a free-form numeric detail (upstream index, shard id, ...)
    /// carried into sampled records.
    pub fn set_detail(&self, detail: u64) {
        self.detail.store(detail, Ordering::Relaxed);
    }

    /// The operation kind this trace was begun with.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Completes the operation: records every touched stage into its
    /// histogram and offers the trace to the sample reservoirs. Dropping
    /// a trace without calling this records nothing.
    pub fn finish(self) {
        if self.enabled {
            self.tracer.finish_trace(&self);
        }
    }
}

/// RAII timer for one stage of a [`Trace`]: measures from creation to drop
/// and adds the elapsed time to the stage.
#[derive(Debug)]
pub struct StageTimer<'a> {
    trace: &'a Trace,
    stage: usize,
    started: Option<Instant>,
}

impl StageTimer<'_> {
    /// Stops the timer now (equivalent to dropping it, but explicit).
    pub fn finish(self) {}
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.trace.add(self.stage, started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: &[&str] = &["alpha", "beta", "gamma"];

    fn tracer_with(enabled: bool) -> (Registry, Tracer) {
        let registry = Registry::new();
        let config = TraceConfig {
            prefix: "test",
            stages: STAGES,
            enabled,
        };
        let tracer = Tracer::new(&registry, config);
        (registry, tracer)
    }

    fn tracer() -> (Registry, Tracer) {
        tracer_with(true)
    }

    /// Finishes one trace whose span is `lead_us` plus its (tiny) real
    /// elapsed time.
    fn finish_with_lead(tracer: &Tracer, lead_us: u64) {
        let trace = tracer.begin("op");
        trace.add_lead(0, Duration::from_micros(lead_us));
        trace.finish();
    }

    #[test]
    fn stages_record_into_their_histograms_and_exposition() {
        let (registry, tracer) = tracer();
        let trace = tracer.begin("op");
        trace.add(0, Duration::from_micros(10));
        trace.add(2, Duration::from_micros(100));
        trace.finish();
        let summaries = tracer.stage_summaries();
        assert_eq!(summaries.len(), STAGES.len() + 1);
        assert_eq!(summaries[0].count, 1);
        assert_eq!(summaries[1].count, 0, "untouched stage stays empty");
        assert_eq!(summaries[2].count, 1);
        assert_eq!(summaries[3].stage, "total");
        assert_eq!(summaries[3].count, 1);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE test_stage_alpha_us histogram"));
        assert!(text.contains("# TYPE test_stage_total_us histogram"));
        assert!(text.contains("test_traces_total 1"));
    }

    #[test]
    fn sampled_traces_have_every_stage_field() {
        let (registry, tracer) = tracer();
        let trace = tracer.begin("op");
        trace.add(1, Duration::from_micros(5));
        trace.finish();
        let sampled = tracer.sampled();
        assert_eq!(sampled.len(), 1, "the first trace is always sampled");
        let record = &sampled[0];
        assert_eq!(record.stages.len(), STAGES.len());
        assert_eq!(record.stages[1], ("beta", 5));
        assert_eq!(
            record.stages[0],
            ("alpha", 0),
            "untouched stage present as 0"
        );
        let jsonl = tracer.render_jsonl();
        let trace_lines: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"trace\""))
            .collect();
        assert_eq!(trace_lines.len(), 1);
        for stage in STAGES {
            assert!(trace_lines[0].contains(&format!("\"{stage}\":")));
        }
        assert!(registry
            .render_prometheus()
            .contains("test_traces_sampled_total 1"));
    }

    #[test]
    fn slow_reservoir_keeps_the_slowest_n() {
        let (_registry, tracer) = tracer();
        // Spans one second apart, in a scrambled order (37 is coprime to
        // 100), so real elapsed time cannot reorder them.
        const SECOND: u64 = 1_000_000;
        for i in 0..100u64 {
            finish_with_lead(&tracer, (i * 37 % 100) * SECOND);
        }
        let mut slow: Vec<u64> = tracer
            .sampled()
            .into_iter()
            .map(|r| r.total_us / SECOND)
            .collect();
        slow.sort_unstable();
        let slowest: Vec<u64> = (100 - SLOW_CAPACITY as u64..100).collect();
        assert_eq!(slow, slowest, "kept exactly the slowest N");
    }

    #[test]
    fn dropping_a_trace_without_finish_records_nothing() {
        let (_registry, tracer) = tracer();
        let trace = tracer.begin("op");
        trace.add(0, Duration::from_micros(10));
        drop(trace);
        assert!(tracer.sampled().is_empty());
        assert_eq!(tracer.stage_summaries()[0].count, 0);
    }

    #[test]
    fn disabled_tracer_is_a_no_op_but_keeps_exposition_shape() {
        let (registry, tracer) = tracer_with(false);
        let trace = tracer.begin("op");
        trace.stage(0).finish();
        trace.add(1, Duration::from_micros(10));
        trace.finish();
        assert!(tracer.sampled().is_empty());
        assert_eq!(tracer.stage_summaries()[0].count, 0);
        assert!(registry
            .render_prometheus()
            .contains("# TYPE test_stage_alpha_us histogram"));
    }

    /// Satellite: concurrent `StageTimer`s — nested on one thread and
    /// overlapping across threads — all accumulate into their stages.
    #[test]
    fn concurrent_stage_timers_nest_and_overlap() {
        let (_registry, tracer) = tracer();
        let trace = tracer.begin("op");
        {
            let outer = trace.stage(0);
            let inner = trace.stage(1); // nested while outer is open
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let trace = &trace;
                    scope.spawn(move || {
                        let t = trace.stage(2);
                        std::thread::sleep(Duration::from_millis(1));
                        t.finish();
                    });
                }
            });
            inner.finish();
            outer.finish();
        }
        trace.finish();
        let record = &tracer.sampled()[0];
        let by_name: std::collections::HashMap<_, _> = record.stages.iter().copied().collect();
        // Four 1ms+ timers accumulated into gamma.
        assert!(by_name["gamma"] >= 4_000, "gamma = {}", by_name["gamma"]);
        // Outer covers at least the nested threads' wall time.
        assert!(by_name["alpha"] >= 1_000);
        assert!(by_name["beta"] >= 1_000);
    }

    /// Satellite proptest: for stages timed sequentially with real timers,
    /// the recorded stage durations always sum to at most the recorded
    /// whole-operation span (floor(a) + floor(b) <= floor(a + b), and the
    /// stages partition a subset of the span).
    #[test]
    fn stage_sums_never_exceed_the_span() {
        proptest::run_cases("stage_sums_never_exceed_the_span", 32, |rng| {
            let (_registry, tracer) = tracer();
            let trace = tracer.begin("op");
            let segments = 1 + rng.below(6);
            for _ in 0..segments {
                let stage = rng.below(STAGES.len() as u64) as usize;
                let spin_us = rng.below(120);
                let timer = trace.stage(stage);
                let until = Instant::now() + Duration::from_micros(spin_us);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                timer.finish();
            }
            trace.finish();
            let record = tracer.sampled().pop().expect("first trace is sampled");
            let sum: u64 = record.stages.iter().map(|&(_, us)| us).sum();
            assert!(
                sum <= record.total_us,
                "stage sum {sum} exceeds span {}",
                record.total_us
            );
        });
    }
}
