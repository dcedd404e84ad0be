//! The repository's end-to-end benchmark.
//!
//! One generator process (at most two threads, two connections) drives a
//! server child process running in its **default** configuration over
//! loopback TCP; while rounds run, both are confined to one CPU
//! ([`cpu`]). Three workloads stress different layers (see
//! [`workload::Workload`] for why each exists). An untraced run repeats
//! rounds of one workload for the requested time and reports the
//! end-to-end metrics; a traced run alternates traced and untraced rounds
//! and adds the per-crate ladder ([`ladder`]), reporting per-layer
//! metrics.
//!
//! Every round checks its outputs: each session's served intervals and
//! live top-k must equal an offline `ShardedEngine` run bit for bit, and
//! the aggregator's per-tenant tables must equal the offline `AggState`
//! merge. A mismatch fails the run and counts every request as failed.

pub mod cpu;
pub mod drive;
pub mod ladder;
pub mod schedule;
pub mod server_proc;
pub mod stats;
pub mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use drive::{Round, Span};
use stats::{interquartile_mean, median, Latency};
use workload::{Inputs, Scale, Workload};

/// Fewest rounds per run (per kind in a traced run); raised to the
/// number of input sets, so every set is served and checked.
const MIN_ROUNDS: usize = 3;

/// Timed passes per ladder rung.
const LADDER_REPS: usize = 3;

/// Rounds are summarised in up to this many consecutive windows, and
/// every end-to-end figure is the median across windows. On a shared
/// host, interference from other tenants comes in bursts of seconds; a
/// burst spanning fewer than half the windows then moves no figure,
/// where a statistic pooled over the whole run would follow it.
const WINDOWS: usize = 5;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long rounds are repeated for.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// The executable whose `serve` subcommand runs the server.
    pub exe: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no request failed.
    pub correct: bool,
    /// Requests the generator sent.
    pub attempted: u64,
    /// Requests that failed or were refused; every request when an
    /// output check failed.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Output-check failures and errors.
    pub mismatches: Vec<String>,
    /// Spans of the traced rounds.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The last line of a run's output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs rounds until `seconds` have passed and at least `min_rounds` are
/// done, stopping early at the first failed round. `traced(i)` says
/// whether round `i` records spans.
fn repeat_rounds(
    inputs: &Inputs,
    cfg: &RunConfig,
    min_rounds: usize,
    traced: impl Fn(usize) -> bool,
) -> Vec<(bool, Round)> {
    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < cfg.seconds {
        let trace = traced(rounds.len());
        // Each kind of round cycles through every input set in turn.
        let of_kind = rounds.iter().filter(|(t, _)| *t == trace).count();
        let set = &inputs.sets[of_kind % inputs.sets.len()];
        let round = drive::run_round(&inputs.shape, set, &cfg.exe, trace);
        let failed = !round.mismatches.is_empty() || round.failed > 0;
        rounds.push((trace, round));
        if failed {
            break;
        }
    }
    rounds
}

/// Runs one benchmark run.
///
/// # Errors
///
/// In a run whose checks passed: a latency with too few samples to
/// report its 99th percentile (the workload is sized wrong), or a ladder
/// failure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let inputs = Inputs::generate(cfg.workload, Scale::Full, cfg.seed);
    // Every round runs on one CPU (see [`cpu`] for why), on a thread of
    // its own: input generation before it and the ladder after it keep
    // both, so the ladder's server rung stays uncontended.
    let (warm_up, rounds) = std::thread::scope(|scope| {
        scope
            .spawn(|| -> Result<_, String> {
                cpu::pin_to_one_cpu()?;
                // One round outside the measurement lets the first server
                // process start warm; its checks count.
                let warm_up = drive::run_round(&inputs.shape, &inputs.sets[0], &cfg.exe, false);
                // Every set is served at least once, so every interval the
                // error is averaged over was checked against the server.
                let min_rounds = MIN_ROUNDS.max(inputs.sets.len());
                let rounds = if cfg.traced {
                    repeat_rounds(&inputs, cfg, 2 * min_rounds, |i| i % 2 == 1)
                } else {
                    repeat_rounds(&inputs, cfg, min_rounds, |_| false)
                };
                Ok((warm_up, rounds))
            })
            .join()
            .expect("round thread")
    })?;

    let mut out = Outcome::default();
    for round in std::iter::once(&warm_up).chain(rounds.iter().map(|(_, r)| r)) {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.mismatches.extend(round.mismatches.iter().cloned());
    }
    out.correct = out.mismatches.is_empty() && out.failed == 0;
    if !out.correct {
        out.failed = out.attempted.max(1);
        out.attempted = out.attempted.max(1);
    }
    let (traced, untraced): (Vec<&Round>, Vec<&Round>) = {
        let (t, u): (Vec<_>, Vec<_>) = rounds.iter().partition(|(t, _)| *t);
        (
            t.into_iter().map(|(_, r)| r).collect(),
            u.into_iter().map(|(_, r)| r).collect(),
        )
    };

    let measured = if cfg.traced {
        per_layer_metrics(&mut out, &inputs, &cfg.exe, &traced, &untraced)
    } else {
        end_to_end_metrics(&mut out, &inputs, &untraced)
    };
    // A failed run still reports what it measured; its rounds may have
    // stopped too early for every figure.
    match measured {
        Err(err) if out.correct => return Err(err),
        Err(err) => out.mismatches.push(err),
        Ok(()) => {}
    }
    out.spans = rounds
        .into_iter()
        .filter(|(t, _)| *t)
        .flat_map(|(_, r)| r.spans)
        .collect();
    Ok(out)
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Splits `rounds` into `n` consecutive windows of near-equal size.
fn split<'a, 'r>(rounds: &'a [&'r Round], n: usize) -> Vec<&'a [&'r Round]> {
    let len = rounds.len();
    let n = n.clamp(1, len.max(1));
    (0..n)
        .map(|i| &rounds[i * len / n..(i + 1) * len / n])
        .collect()
}

/// The median across windows of `f` over each window.
fn windowed(rounds: &[&Round], f: impl Fn(&[&Round]) -> f64) -> f64 {
    let per_window: Vec<f64> = split(rounds, WINDOWS).into_iter().map(f).collect();
    median(&per_window).unwrap_or(0.0)
}

/// Events acknowledged across `rounds` over their summed ingest time.
fn events_per_s(rounds: &[&Round]) -> f64 {
    let events: u64 = rounds.iter().map(|r| r.ingest_events).sum();
    let secs: f64 = rounds.iter().map(|r| r.ingest_s).sum();
    events as f64 / secs
}

/// Interquartile mean of every aggregator convergence in `rounds`: the
/// times are quantised by the generator's polling period, which makes
/// their median jump between steps.
fn agg_converge_s(rounds: &[&Round]) -> f64 {
    interquartile_mean(&pooled(rounds, &|r: &Round| &r.agg_converge_s)).unwrap_or(0.0)
}

fn pooled(rounds: &[&Round], f: &impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// A latency's median and 99th percentile, each the median across as many
/// windows (at most [`WINDOWS`]) as hold enough samples to report their
/// own 99th percentile, with the total sample count.
fn tail(
    name: &str,
    rounds: &[&Round],
    f: impl Fn(&Round) -> &[f64],
) -> Result<(f64, f64, usize), String> {
    let total: usize = rounds.iter().map(|r| f(r).len()).sum();
    for n in (1..=WINDOWS).rev() {
        let windows: Vec<Latency> = split(rounds, n)
            .into_iter()
            .map(|w| Latency::of(&pooled(w, &f)))
            .collect();
        let p50: Option<Vec<f64>> = windows.iter().map(|l| l.p50).collect();
        let p99: Option<Vec<f64>> = windows.iter().map(|l| l.p99).collect();
        if let (Some(p50), Some(p99)) = (p50, p99) {
            let med = |v: &[f64]| median(v).unwrap_or(0.0);
            return Ok((med(&p50), med(&p99), total));
        }
    }
    Err(format!(
        "{name}: {total} samples are too few to report a 99th percentile"
    ))
}

fn end_to_end_metrics(out: &mut Outcome, inputs: &Inputs, rounds: &[&Round]) -> Result<(), String> {
    let n = rounds.len();
    out.push("setup_s", median_of(rounds, |r| r.setup_s), "s", n);
    out.push(
        "ingest_events_per_s",
        windowed(rounds, events_per_s),
        "events/s",
        n,
    );
    let (p50, p99, samples) = tail("ingest_rtt", rounds, |r| &r.ingest_rtt_us)?;
    out.push("ingest_rtt_p50_us", p50, "us", samples);
    out.push("ingest_rtt_p99_us", p99, "us", samples);
    // The query p99 is reported by traced runs only: the open-loop
    // dashboard's tail follows the host's interference too closely to
    // gate on.
    let (p50, _, samples) = tail("query_rtt", rounds, |r| &r.query_rtt_us)?;
    out.push("query_rtt_p50_us", p50, "us", samples);
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.push("ok_ratio", ok, "ratio", out.attempted as usize);
    out.push(
        "weighted_error_pct",
        inputs.weighted_error_pct,
        "%",
        inputs.scored_intervals,
    );
    out.push("agg_converge_s", windowed(rounds, agg_converge_s), "s", n);
    out.push(
        "peak_rss_mb",
        median_of(rounds, |r| r.peak_rss_mb),
        "MiB",
        n,
    );
    Ok(())
}

fn per_layer_metrics(
    out: &mut Outcome,
    inputs: &Inputs,
    exe: &std::path::Path,
    traced: &[&Round],
    untraced: &[&Round],
) -> Result<(), String> {
    let first = &inputs.sets[0];
    let ladder = ladder::run(&inputs.shape, first, exe, LADDER_REPS)?;
    let r = &ladder.rungs;
    let events = first.total_events() as usize;
    let reps = LADDER_REPS;
    out.push("core.observe_ns_per_event", r.core_ns, "ns", reps);
    out.push(
        "core.promotion_drop_ratio",
        ladder.promotion_drop_ratio,
        "ratio",
        events,
    );
    out.push(
        "core.counter_occupancy",
        ladder.counter_occupancy,
        "ratio",
        events,
    );
    out.push("pipeline.decode_ns_per_event", ladder.decode_ns, "ns", reps);
    out.push(
        "pipeline.ingest_chunk_ns_per_event",
        r.ingest_chunk_ns,
        "ns",
        reps,
    );
    out.push("pipeline.handoff_ns_per_event", r.handoff_ns(), "ns", reps);
    out.push(
        "pipeline.handoff_wait_ns_per_event",
        ladder.handoff_wait_ns,
        "ns",
        reps,
    );
    out.push(
        "pipeline.ring_stalls",
        ladder.ring_stalls as f64,
        "count",
        1,
    );
    out.push(
        "pipeline.session_start_us",
        ladder.session_start_us,
        "us",
        reps,
    );
    out.push(
        "pipeline.session_finish_us",
        ladder.session_finish_us,
        "us",
        reps,
    );
    out.push("pipeline.top_k_us", ladder.top_k_us, "us", 1);
    out.push("server.ingest_rtt_us", r.server_rtt_us, "us", 1);
    out.push(
        "server.request_overhead_us",
        r.request_overhead_us(),
        "us",
        1,
    );
    out.push("server.attach_rtt_us", ladder.attach_rtt_us, "us", 1);
    out.push("server.open_session_us", ladder.open_session_us, "us", 1);
    out.push("server.query_service_us", ladder.query_service_us, "us", 1);
    let rounds = traced.len();
    let threads = traced.iter().map(|r| r.server_threads).max().unwrap_or(0);
    out.push("server.threads", threads as f64, "count", rounds);
    out.push(
        "agg.cycles_to_converge",
        median_of(traced, |r| r.agg_cycles as f64),
        "count",
        rounds,
    );
    let pull_errors: u64 = traced.iter().map(|r| r.agg_pull_errors).sum();
    out.push("agg.pull_errors", pull_errors as f64, "count", rounds);
    let (_, query_p99, samples) = tail("query_rtt", traced, |r| &r.query_rtt_us)?;
    out.push("bench.query_rtt_p99_us", query_p99, "us", samples);
    let (_, lateness_p99, samples) = tail("query_lateness", traced, |r| &r.query_lateness_us)?;
    out.push("bench.query_lateness_p99_us", lateness_p99, "us", samples);
    let plain = events_per_s(untraced);
    let with_spans = events_per_s(traced);
    out.push(
        "bench.trace_overhead_pct",
        (plain - with_spans) / plain * 100.0,
        "%",
        rounds + untraced.len(),
    );
    Ok(())
}
