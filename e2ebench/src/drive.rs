//! One measured round of a workload against a fresh server process.
//!
//! A round is: spawn the server and open every session (set-up), stream
//! every chunk (ingest), let an aggregator pull the server until its
//! per-tenant tables equal the offline merge (convergence), then read
//! back every interval and the live top-k and compare them bit for bit
//! with the offline engine (output check). At most two generator threads
//! and two connections drive the server; the aggregator only starts once
//! ingest is over.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mhp_agg::{AggConfig, Aggregator};
use mhp_server::{Client, Request, Response};

use crate::schedule::{micros, Schedule, Timing};
use crate::server_proc::ServerProcess;
use crate::workload::{InputSet, SessionInput, Shape, TOP_K};

/// The dashboard's open-loop period on `mixed` (see
/// [`Workload::Mixed`](crate::workload::Workload::Mixed) for why 5 ms).
pub const DASHBOARD_PERIOD: Duration = Duration::from_millis(5);

/// How long the aggregator may take to converge before the round fails.
const AGG_DEADLINE: Duration = Duration::from_secs(30);

/// Aggregators that converge on the server, one after the other, per
/// round. One convergence takes a few milliseconds, so a single sample
/// per round leaves too few per run for a steady figure.
const AGG_REPEATS: usize = 8;

/// How often the generator compares the aggregate with the offline merge.
const AGG_POLL: Duration = Duration::from_micros(200);

/// One generator-side span: a call the benchmark made into the system,
/// with the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within a round.
    pub id: u64,
    /// The enclosing span's id; `0` for a root.
    pub parent: u64,
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the round began.
    pub start_ns: u64,
    /// End, in nanoseconds since the round began.
    pub end_ns: u64,
}

/// Span recording for one connection; a no-op unless the round is traced.
struct Spans {
    enabled: bool,
    epoch: Instant,
    base: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Spans {
    fn new(enabled: bool, epoch: Instant, connection: usize) -> Spans {
        Spans {
            enabled,
            epoch,
            base: (connection as u64 + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded first.
    fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        self.base | self.next
    }

    fn record(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    fn leaf(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.open();
        self.record(id, parent, name, start, end);
    }
}

/// What one connection saw.
struct ConnLog {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    events: u64,
    first_send: Option<Instant>,
    last_ack: Option<Instant>,
    ingest_rtt_us: Vec<f64>,
    query: Vec<Timing>,
    spans: Spans,
}

impl ConnLog {
    fn new(spans: Spans) -> ConnLog {
        ConnLog {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            events: 0,
            first_send: None,
            last_ack: None,
            ingest_rtt_us: Vec::new(),
            query: Vec::new(),
            spans,
        }
    }

    /// Sends one request; an error response or transport failure counts
    /// as a failed request.
    fn call(&mut self, client: &mut Client, request: &Request) -> Result<Response, String> {
        self.attempted += 1;
        match client.call(request) {
            Ok(Response::Error { code, message }) => {
                self.failed += 1;
                Err(format!("{code:?}: {message}"))
            }
            Ok(response) => Ok(response),
            Err(err) => {
                self.failed += 1;
                Err(err.to_string())
            }
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Server spawn and bind through every session open and attached.
    pub setup_s: f64,
    /// Events acknowledged during ingest.
    pub ingest_events: u64,
    /// First chunk sent to last chunk acknowledged, across connections.
    pub ingest_s: f64,
    /// Per-chunk round trips (including the `attach` on multi-session
    /// connections), in microseconds.
    pub ingest_rtt_us: Vec<f64>,
    /// Query round trips from their due time, in microseconds: the
    /// dashboard's reads, or else the ingest connections' live top-k reads.
    pub query_rtt_us: Vec<f64>,
    /// How late each query was sent, in microseconds.
    pub query_lateness_us: Vec<f64>,
    /// Aggregator bind until its per-tenant tables equal the offline
    /// merge, once per aggregator.
    pub agg_converge_s: Vec<f64>,
    /// Most aggregator clock cycles any aggregator took to converge.
    pub agg_cycles: u64,
    /// Aggregator pull attempts that failed, over every aggregator.
    pub agg_pull_errors: u64,
    /// The server's peak resident set, in MiB.
    pub peak_rss_mb: f64,
    /// The server's OS threads with every session open.
    pub server_threads: u64,
    /// Requests the generator sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Output-check failures and errors, one line each.
    pub mismatches: Vec<String>,
    /// Generator spans, when traced.
    pub spans: Vec<Span>,
}

impl Round {
    fn absorb(&mut self, log: ConnLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.mismatches.extend(log.mismatches);
        self.ingest_rtt_us.extend(log.ingest_rtt_us);
        for t in log.query {
            self.query_rtt_us.push(t.latency_us);
            self.query_lateness_us.push(t.lateness_us);
        }
        self.spans.extend(log.spans.spans);
    }
}

/// A generator thread's part in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Opens and feeds the sessions of one ingest connection.
    Ingest(usize),
    /// Attaches to the first session and reads it on a schedule.
    Dashboard,
}

/// Runs one round of input set `inputs` against a fresh `exe serve`
/// process.
pub fn run_round(shape: &Shape, inputs: &InputSet, exe: &Path, traced: bool) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    let server = match ServerProcess::spawn(exe) {
        Ok(server) => server,
        Err(err) => {
            round.mismatches.push(err);
            return round;
        }
    };
    if let Err(err) = drive(shape, inputs, &server, traced, start, &mut round) {
        round.mismatches.push(err);
    }
    if let Err(err) = server.stop() {
        round.mismatches.push(err);
    }
    round
}

fn drive(
    shape: &Shape,
    inputs: &InputSet,
    server: &ServerProcess,
    traced: bool,
    start: Instant,
    round: &mut Round,
) -> Result<(), String> {
    let addr = server.addr();
    let mut roles: Vec<Role> = (0..shape.ingest_connections).map(Role::Ingest).collect();
    if shape.dashboard {
        roles.push(Role::Dashboard);
    }
    assert!(
        roles.len() <= 2,
        "the generator drives at most two connections"
    );

    // Phase 1 opens sessions, phase 2 attaches readers to them; the
    // second barrier marks the end of set-up for every thread at once.
    let opened = Barrier::new(roles.len());
    let ready = Barrier::new(roles.len());
    let ingest_over = AtomicBool::new(false);
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = roles[1..]
            .iter()
            .enumerate()
            .map(|(i, &role)| {
                let (opened, ready, ingest_over) = (&opened, &ready, &ingest_over);
                scope.spawn(move || {
                    let spans = Spans::new(traced, start, i + 1);
                    ingest_phase(shape, inputs, addr, role, spans, opened, ready, ingest_over)
                })
            })
            .collect();
        let first = ingest_phase(
            shape,
            inputs,
            addr,
            roles[0],
            Spans::new(traced, start, 0),
            &opened,
            &ready,
            &ingest_over,
        );
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread")),
            )
            .collect()
    });

    round.setup_s = workers
        .iter()
        .map(|w| w.ready_at)
        .max()
        .map_or(0.0, |t| (t - start).as_secs_f64());
    let first_send = workers.iter().filter_map(|w| w.log.first_send).min();
    let last_ack = workers.iter().filter_map(|w| w.log.last_ack).max();
    if let (Some(first), Some(last)) = (first_send, last_ack) {
        round.ingest_s = (last - first).as_secs_f64();
    }
    round.ingest_events = workers.iter().map(|w| w.log.events).sum();
    round.server_threads = server.threads()?;

    let ingested_all = round.ingest_events == inputs.total_events();
    if !ingested_all || workers.iter().any(|w| w.client.is_none()) {
        for w in workers {
            round.absorb(w.log);
        }
        return Err(format!(
            "ingest stopped early: {} of {} events acknowledged",
            round.ingest_events,
            inputs.total_events()
        ));
    }

    converge(inputs, addr, round)?;

    // Output check: each connection reads back its own sessions, one
    // connection after the other, so one request is in flight at a time.
    for worker in workers {
        round.absorb(check_phase(inputs, worker));
    }
    round.peak_rss_mb = server.peak_rss_mb()?;
    Ok(())
}

/// A generator thread's connection and log after ingest.
struct Worker {
    role: Role,
    client: Option<Client>,
    ready_at: Instant,
    log: ConnLog,
}

#[allow(clippy::too_many_arguments)]
fn ingest_phase(
    shape: &Shape,
    inputs: &InputSet,
    addr: SocketAddr,
    role: Role,
    spans: Spans,
    opened: &Barrier,
    ready: &Barrier,
    ingest_over: &AtomicBool,
) -> Worker {
    let mut log = ConnLog::new(spans);
    let setup = log.spans.open();
    let setup_start = Instant::now();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
    if let (Ok(c), Role::Ingest(conn)) = (&mut client, role) {
        for session in inputs.sessions_of(conn) {
            let open = Request::Open {
                name: session.name.clone(),
                config: session.config.clone(),
            };
            let t = Instant::now();
            if let Err(err) = log.call(c, &open) {
                log.mismatch(format!("open {}: {err}", session.name));
                break;
            }
            log.spans.leaf(setup, "open", t, Instant::now());
        }
    }
    opened.wait();
    if let (Ok(c), Role::Dashboard) = (&mut client, role) {
        let first = &inputs.sessions[0];
        let t = Instant::now();
        if let Err(err) = log.call(c, &first.attach) {
            log.mismatch(format!("dashboard attach: {err}"));
        }
        log.spans.leaf(setup, "attach", t, Instant::now());
    }
    ready.wait();
    let ready_at = Instant::now();
    log.spans.record(setup, 0, "setup", setup_start, ready_at);

    let client = match client {
        Ok(c) if log.mismatches.is_empty() => Some(c),
        Ok(_) => None,
        Err(err) => {
            log.mismatch(err);
            None
        }
    };
    let Some(mut client) = client else {
        ingest_over.store(true, Ordering::SeqCst);
        return Worker {
            role,
            client: None,
            ready_at,
            log,
        };
    };
    let ok = match role {
        Role::Ingest(conn) => {
            let sessions: Vec<&SessionInput> = inputs.sessions_of(conn).collect();
            let result = ingest(&mut client, &sessions, !shape.dashboard, &mut log);
            if shape.dashboard {
                ingest_over.store(true, Ordering::SeqCst);
            }
            result
        }
        Role::Dashboard => dashboard(&mut client, &inputs.sessions[0], &mut log, ingest_over),
    };
    if let Err(err) = ok {
        log.mismatch(err);
        ingest_over.store(true, Ordering::SeqCst);
    }
    Worker {
        role,
        client: Some(client),
        ready_at,
        log,
    }
}

/// On workloads without a dashboard, each ingest connection reads the
/// live top-k of the session it just fed after every this many chunks;
/// these reads are the query samples. Such a read waits for the
/// session's shard ring to drain, so its latency is set by the workload,
/// not by the host's sub-millisecond scheduling hiccups.
const PEEK_EVERY: usize = 16;

/// Streams every chunk of `sessions` round-robin, closed loop. With more
/// than one session the connection re-attaches before every chunk. With
/// `peek`, it also reads the live top-k after every [`PEEK_EVERY`]
/// chunks, each read due when the chunk before it was acknowledged.
fn ingest(
    client: &mut Client,
    sessions: &[&SessionInput],
    peek: bool,
    log: &mut ConnLog,
) -> Result<(), String> {
    let reattach = sessions.len() > 1;
    let top_k = Request::TopK { n: TOP_K };
    let mut chunks = 0usize;
    let steps = sessions.iter().map(|s| s.chunks.len()).max().unwrap_or(0);
    let mut acked = vec![0u64; sessions.len()];
    let phase = log.spans.open();
    let phase_start = Instant::now();
    log.first_send = Some(phase_start);
    for step in 0..steps {
        for (k, session) in sessions.iter().enumerate() {
            let Some(chunk) = session.chunks.get(step) else {
                continue;
            };
            let parent = log.spans.open();
            let sent = Instant::now();
            if reattach {
                log.call(client, &session.attach)
                    .map_err(|e| format!("attach {}: {e}", session.name))?;
                log.spans.leaf(parent, "attach", sent, Instant::now());
            }
            let before_ingest = Instant::now();
            let response = log
                .call(client, chunk)
                .map_err(|e| format!("ingest {} chunk {step}: {e}", session.name))?;
            let done = Instant::now();
            log.spans.leaf(parent, "ingest", before_ingest, done);
            log.spans.record(parent, phase, "chunk", sent, done);
            acked[k] += session.chunk_events[step] as u64;
            match response {
                Response::Ingested { events, .. } if events == acked[k] => {}
                other => {
                    return Err(format!(
                        "ingest {} chunk {step}: expected {} events acked, got {other:?}",
                        session.name, acked[k]
                    ))
                }
            }
            log.events += session.chunk_events[step] as u64;
            log.ingest_rtt_us.push(micros(done - sent));
            chunks += 1;
            if peek && chunks.is_multiple_of(PEEK_EVERY) {
                let read = Instant::now();
                let response = log
                    .call(client, &top_k)
                    .map_err(|e| format!("top-k {}: {e}", session.name))?;
                let read_done = Instant::now();
                log.spans.leaf(phase, "top_k", read, read_done);
                if !matches!(&response, Response::TopK(c) if c.len() <= TOP_K as usize) {
                    return Err(format!("top-k {}: got {response:?}", session.name));
                }
                log.query.push(Timing::of(done, read, read_done));
            }
        }
    }
    let end = Instant::now();
    log.last_ack = Some(end);
    log.spans.record(phase, 0, "ingest_phase", phase_start, end);
    Ok(())
}

/// Reads `top_k(16)` + `snapshot(latest)` from `session` every
/// [`DASHBOARD_PERIOD`], open loop, until ingest is over. Each served
/// snapshot must equal the offline profile of the interval it names.
fn dashboard(
    client: &mut Client,
    session: &SessionInput,
    log: &mut ConnLog,
    ingest_over: &AtomicBool,
) -> Result<(), String> {
    let schedule = Schedule::new(Instant::now(), DASHBOARD_PERIOD);
    let top_k = Request::TopK { n: TOP_K };
    let latest = Request::Snapshot { interval: u64::MAX };
    let phase = log.spans.open();
    let phase_start = Instant::now();
    let mut i = 0;
    while !ingest_over.load(Ordering::SeqCst) {
        let due = schedule.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let parent = log.spans.open();
        let sent = Instant::now();
        log.call(client, &top_k)
            .map_err(|e| format!("dashboard top-k: {e}"))?;
        let between = Instant::now();
        log.spans.leaf(parent, "top_k", sent, between);
        let snapshot = log
            .call(client, &latest)
            .map_err(|e| format!("dashboard snapshot: {e}"))?;
        let done = Instant::now();
        log.spans.leaf(parent, "snapshot", between, done);
        log.spans.record(parent, phase, "query", sent, done);
        log.query.push(Timing::of(due, sent, done));
        match snapshot {
            Response::NoProfile => {}
            Response::Profile(p) if session.expected.get(p.interval_index as usize) == Some(&p) => {
            }
            other => {
                return Err(format!(
                    "dashboard snapshot differs from the offline run: {other:?}"
                ))
            }
        }
        i += 1;
    }
    log.spans
        .record(phase, 0, "dashboard_phase", phase_start, Instant::now());
    Ok(())
}

/// Lets [`AGG_REPEATS`] fresh aggregators, one after the other, each pull
/// the server until every tenant's table equals the offline `AggState`
/// merge.
fn converge(inputs: &InputSet, addr: SocketAddr, round: &mut Round) -> Result<(), String> {
    for _ in 0..AGG_REPEATS {
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            AggConfig {
                upstreams: vec![addr.to_string()],
                ..AggConfig::default()
            },
        )
        .map_err(|e| format!("bind aggregator: {e}"))?;
        let started = Instant::now();
        let converged = loop {
            if inputs
                .expected_agg
                .iter()
                .all(|(tenant, want)| agg.top_k(tenant, usize::MAX) == *want)
            {
                break true;
            }
            if started.elapsed() > AGG_DEADLINE {
                break false;
            }
            std::thread::sleep(AGG_POLL);
        };
        round.agg_converge_s.push(started.elapsed().as_secs_f64());
        round.agg_cycles = round.agg_cycles.max(agg.cycles());
        round.agg_pull_errors += metric_sum(&agg.metrics(), "agg_pull_errors_total");
        agg.join();
        if !converged {
            return Err("aggregate never equalled the offline merge".into());
        }
    }
    Ok(())
}

/// Sums every sample of a (possibly labeled) counter family in a
/// Prometheus exposition.
fn metric_sum(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| {
            line.starts_with(family)
                && matches!(line.as_bytes().get(family.len()), Some(b' ' | b'{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Reads back every interval and the live top-k of the worker's sessions
/// and compares them with the offline engine.
fn check_phase(inputs: &InputSet, worker: Worker) -> ConnLog {
    let Worker {
        role,
        client,
        mut log,
        ..
    } = worker;
    let (Role::Ingest(conn), Some(mut client)) = (role, client) else {
        return log;
    };
    let phase = log.spans.open();
    let phase_start = Instant::now();
    for session in inputs.sessions_of(conn) {
        if let Err(err) = check_session(&mut client, session, phase, &mut log) {
            log.mismatch(err);
            break;
        }
    }
    log.spans
        .record(phase, 0, "check_phase", phase_start, Instant::now());
    log
}

/// Reads back one session: attach, every interval and then one past the
/// last, and the live top-k.
fn check_session(
    client: &mut Client,
    session: &SessionInput,
    phase: u64,
    log: &mut ConnLog,
) -> Result<(), String> {
    log.call(client, &session.attach)
        .map_err(|e| format!("attach {}: {e}", session.name))?;
    for i in 0..=session.expected.len() as u64 {
        let sent = Instant::now();
        let response = log
            .call(client, &Request::Snapshot { interval: i })
            .map_err(|e| format!("snapshot {} #{i}: {e}", session.name))?;
        log.spans.leaf(phase, "snapshot", sent, Instant::now());
        let ok = match (&response, session.expected.get(i as usize)) {
            (Response::Profile(got), Some(want)) => got == want,
            (Response::NoProfile, None) => true,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "{} interval {i} differs from the offline run",
                session.name
            ));
        }
    }
    match log.call(client, &Request::TopK { n: TOP_K }) {
        Ok(Response::TopK(got)) if got == session.expected_top_k => Ok(()),
        other => Err(format!(
            "{} live top-k differs from the offline run: {other:?}",
            session.name
        )),
    }
}
