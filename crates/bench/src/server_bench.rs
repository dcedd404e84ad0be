//! The `mhp-bench server` runner: concurrent-session scaling of the
//! profiling service.
//!
//! Each row binds a fresh in-process server on an ephemeral loopback
//! port, drives it with the multiplexed load generator
//! ([`mhp_server::mux_loadgen`]) at a fixed concurrent-session count — a
//! small active subset streaming ingest chunks, the rest idling attached,
//! the fleet-realistic mix — and records acknowledged ingest throughput
//! plus request round-trip latency quantiles. The server runs one handler
//! thread per connection (and each session its shard workers), so the
//! large rows show what that thread count costs.
//!
//! Output is the same hand-rolled stable-key JSON as the other benches
//! (`BENCH_server.json` at the repo root, by convention).

use std::time::Duration;

use mhp_server::{mux_loadgen, Client, MuxConfig, Server, ServerConfig};
use mhp_telemetry::StageSummary;

/// Knobs for a server-scaling run.
#[derive(Debug, Clone)]
pub struct ServerBenchOptions {
    /// Concurrent-session counts, one row each.
    pub sessions: Vec<usize>,
    /// Sessions per row that actively stream (the rest idle attached).
    pub active: usize,
    /// Events each active session streams.
    pub events_per_session: usize,
    /// Events per ingest chunk.
    pub chunk_events: usize,
    /// Per-row wall-clock cap before the run is declared stuck.
    pub deadline: Duration,
    /// Session count for the paired tracing-on/tracing-off overhead
    /// probe (run back to back so machine drift cancels). `None` skips
    /// the probe.
    pub overhead_probe_sessions: Option<usize>,
}

impl Default for ServerBenchOptions {
    fn default() -> Self {
        ServerBenchOptions {
            sessions: vec![8, 32, 256, 1024, 2048],
            active: 8,
            events_per_session: 100_000,
            chunk_events: 4_096,
            deadline: Duration::from_secs(300),
            overhead_probe_sessions: Some(8),
        }
    }
}

/// One session-count measurement.
#[derive(Debug, Clone)]
pub struct ServerBenchRow {
    /// Concurrent sessions held open for the whole row.
    pub sessions: usize,
    /// How many of them streamed events.
    pub active: usize,
    /// Events acknowledged across the row.
    pub events: u64,
    /// Failed requests the generator counted (see
    /// [`MuxReport::errors`](mhp_server::MuxReport::errors)).
    pub errors: u64,
    /// Wall-clock for the row, connect to last ack.
    pub elapsed_secs: f64,
    /// Acknowledged ingest throughput.
    pub events_per_sec: f64,
    /// Median request round-trip, microseconds.
    pub p50_us: u64,
    /// Tail request round-trip, microseconds.
    pub p99_us: u64,
    /// Extreme-tail request round-trip, microseconds.
    pub p999_us: u64,
    /// Server-side per-stage latency quantiles for the row, in trace
    /// taxonomy order with a trailing `"total"` entry. They include the
    /// one `close_session` request per session the generator sends after
    /// its clock stops.
    pub stages: Vec<StageSummary>,
}

/// One paired tracing-on/tracing-off throughput comparison.
#[derive(Debug, Clone)]
pub struct OverheadProbe {
    /// Concurrent sessions both halves of the pair ran with.
    pub sessions: usize,
    /// Acknowledged throughput with request tracing enabled.
    pub traced_events_per_sec: f64,
    /// Acknowledged throughput with request tracing disabled.
    pub untraced_events_per_sec: f64,
    /// `(untraced - traced) / untraced`, as a percentage; negative means
    /// the traced half was faster (run-to-run noise).
    pub overhead_pct: f64,
}

/// The full result set of one `mhp-bench server` run.
#[derive(Debug, Clone)]
pub struct ServerBenchReport {
    /// Options the run was configured with.
    pub options: ServerBenchOptions,
    /// One row per session count, in run order.
    pub rows: Vec<ServerBenchRow>,
    /// The paired tracing overhead probe, if it ran.
    pub overhead: Option<OverheadProbe>,
}

fn bench_one(sessions: usize, opts: &ServerBenchOptions, tracing: bool) -> ServerBenchRow {
    let config = ServerConfig {
        max_connections: sessions + 16,
        tracing,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind bench server");
    let report = mux_loadgen(
        server.local_addr(),
        &MuxConfig {
            sessions,
            active: opts.active.min(sessions),
            events_per_session: opts.events_per_session,
            chunk_events: opts.chunk_events,
            session_prefix: format!("bench-{sessions}"),
            deadline: opts.deadline,
            ..MuxConfig::default()
        },
    )
    .expect("mux loadgen run");
    assert_eq!(
        report.opened, sessions,
        "{sessions}: not every session opened"
    );
    let stages = server.stage_summaries();
    let mut probe = Client::connect(server.local_addr()).expect("probe connect");
    probe.shutdown_server().expect("shutdown");
    server.join();

    ServerBenchRow {
        sessions,
        active: report.active,
        events: report.events,
        errors: report.errors,
        elapsed_secs: report.elapsed.as_secs_f64(),
        events_per_sec: report.events_per_sec(),
        p50_us: report.latency.quantile(0.50),
        p99_us: report.latency.quantile(0.99),
        p999_us: report.latency.quantile(0.999),
        stages,
    }
}

fn overhead_probe(sessions: usize, opts: &ServerBenchOptions) -> OverheadProbe {
    // Longer runs (4x the row workload) and three interleaved pairs,
    // best-of each side: the table rows finish in ~0.1s, where single
    // runs swing well over 10% on a shared box. Slowdowns are one-sided
    // noise, so comparing the best traced run against the best untraced
    // run isolates the systematic cost from the scheduler lottery.
    let probe_opts = ServerBenchOptions {
        events_per_session: opts.events_per_session * 4,
        ..opts.clone()
    };
    let mut traced = f64::MIN;
    let mut untraced = f64::MIN;
    for _ in 0..3 {
        traced = traced.max(bench_one(sessions, &probe_opts, true).events_per_sec);
        untraced = untraced.max(bench_one(sessions, &probe_opts, false).events_per_sec);
    }
    OverheadProbe {
        sessions,
        traced_events_per_sec: traced,
        untraced_events_per_sec: untraced,
        overhead_pct: (untraced - traced) / untraced * 100.0,
    }
}

/// Runs every configured session-count row and collects the table.
pub fn run(opts: &ServerBenchOptions) -> ServerBenchReport {
    let rows = opts
        .sessions
        .iter()
        .map(|&sessions| bench_one(sessions, opts, true))
        .collect();
    let overhead = opts
        .overhead_probe_sessions
        .map(|sessions| overhead_probe(sessions, opts));
    ServerBenchReport {
        options: opts.clone(),
        rows,
        overhead,
    }
}

impl ServerBenchReport {
    /// Stable-key JSON document, matching the other `BENCH_*.json` files.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"server\",\n");
        out.push_str(&format!("  \"active\": {},\n", self.options.active));
        out.push_str(&format!(
            "  \"events_per_session\": {},\n",
            self.options.events_per_session
        ));
        out.push_str(&format!(
            "  \"chunk_events\": {},\n",
            self.options.chunk_events
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let stages: Vec<String> = r
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{{\"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \
                         \"p99_us\": {}, \"p999_us\": {}}}",
                        s.stage, s.count, s.p50_us, s.p99_us, s.p999_us
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"sessions\": {}, \"active\": {}, \
                 \"events\": {}, \"errors\": {}, \"elapsed_secs\": {:.3}, \
                 \"events_per_sec\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"p999_us\": {},\n     \"stages\": [{}]}}{}\n",
                r.sessions,
                r.active,
                r.events,
                r.errors,
                r.elapsed_secs,
                r.events_per_sec,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                stages.join(", "),
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        match &self.overhead {
            Some(p) => out.push_str(&format!(
                "  \"tracing_overhead\": {{\"sessions\": {}, \
                 \"traced_events_per_sec\": {:.0}, \
                 \"untraced_events_per_sec\": {:.0}, \
                 \"overhead_pct\": {:.2}}}\n",
                p.sessions, p.traced_events_per_sec, p.untraced_events_per_sec, p.overhead_pct,
            )),
            None => out.push_str("  \"tracing_overhead\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Whether the tracing-overhead probe came in under `threshold_pct`.
    /// Vacuously true when the probe was disabled.
    pub fn overhead_ok(&self, threshold_pct: f64) -> bool {
        self.overhead
            .as_ref()
            .is_none_or(|p| p.overhead_pct < threshold_pct)
    }

    /// Human-readable table for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "server scaling: {} active stream(s) x {} events, chunk {}\n",
            self.options.active, self.options.events_per_session, self.options.chunk_events
        ));
        out.push_str(&format!(
            "{:>8} {:>12} {:>9} {:>9} {:>9} {:>7}\n",
            "sessions", "events/sec", "p50_us", "p99_us", "p999_us", "errors"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>8} {:>12.0} {:>9} {:>9} {:>9} {:>7}\n",
                r.sessions, r.events_per_sec, r.p50_us, r.p99_us, r.p999_us, r.errors
            ));
        }
        for r in &self.rows {
            out.push_str(&format!("stages {} sessions:\n", r.sessions));
            for s in &r.stages {
                out.push_str(&format!(
                    "  {:<16} count {:>8} p50_us {:>7} p99_us {:>7} p999_us {:>7}\n",
                    s.stage, s.count, s.p50_us, s.p99_us, s.p999_us
                ));
            }
        }
        if let Some(p) = &self.overhead {
            out.push_str(&format!(
                "tracing overhead at {} sessions: {:.2}% (traced {:.0} ev/s vs untraced {:.0} ev/s) {}\n",
                p.sessions,
                p.overhead_pct,
                p.traced_events_per_sec,
                p.untraced_events_per_sec,
                if p.overhead_pct < 5.0 { "PASS" } else { "FAIL" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_one_row_per_session_count() {
        let opts = ServerBenchOptions {
            sessions: vec![2, 4],
            active: 2,
            events_per_session: 4_096,
            chunk_events: 4_096,
            deadline: Duration::from_secs(60),
            overhead_probe_sessions: None,
        };
        let report = run(&opts);
        let sessions: Vec<usize> = report.rows.iter().map(|r| r.sessions).collect();
        assert_eq!(sessions, [2, 4]);
        for row in &report.rows {
            assert!(row.events > 0, "{}: no events acked", row.sessions);
            assert!(row.events_per_sec > 0.0);
            assert!(row.p999_us >= row.p99_us);
            let ingest = row
                .stages
                .iter()
                .find(|s| s.stage == "ingest")
                .expect("ingest stage summary");
            assert!(ingest.count > 0, "{}: no traced ingests", row.sessions);
            assert_eq!(row.stages.last().map(|s| s.stage), Some("total"));
        }
        assert!(report.overhead.is_none());
        assert!(report.overhead_ok(5.0), "vacuous with probe disabled");
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"server\""));
        assert!(json.contains("\"sessions\": 4"));
        assert!(json.contains("\"p999_us\""));
        assert!(json.contains("\"stage\": \"ingest\""));
        assert!(json.contains("\"tracing_overhead\": null"));
        assert!(report.render().contains("stages 4 sessions:"));
        assert!(report.render().contains("p999_us"));
    }

    #[test]
    fn overhead_probe_pairs_traced_and_untraced_runs() {
        let opts = ServerBenchOptions {
            sessions: vec![],
            active: 2,
            events_per_session: 4_096,
            chunk_events: 4_096,
            deadline: Duration::from_secs(60),
            overhead_probe_sessions: Some(2),
        };
        let report = run(&opts);
        assert!(report.rows.is_empty());
        let probe = report.overhead.as_ref().expect("probe ran");
        assert_eq!(probe.sessions, 2);
        assert!(probe.traced_events_per_sec > 0.0);
        assert!(probe.untraced_events_per_sec > 0.0);
        assert!(probe.overhead_pct.is_finite());
        assert!(report.to_json().contains("\"overhead_pct\""));
    }
}
