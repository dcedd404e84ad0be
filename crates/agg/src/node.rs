//! The aggregator node: fault-isolated per-upstream pull workers that
//! drain upstream servers (and child aggregators) into the merge tree,
//! plus a TCP serving loop that answers the same framed query protocol an
//! `mhp-server` speaks — which is exactly what lets aggregators stack.
//!
//! Each upstream is owned by one supervisor thread (deadlines, backoff,
//! circuit breaker — see [`crate::supervisor`] and DESIGN §18), so a
//! dead, slow, or flapping upstream costs its own slot and nothing else.
//! A clock thread ticks the shared cycle counter, advances the epoch when
//! any worker made progress, and checkpoints.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mhp_core::Candidate;
use mhp_faults::{FaultHook, PullAction};
use mhp_net::{Reactor, Waker};
use mhp_server::protocol::{read_frame_until, write_frame, write_frame_until};
use mhp_server::{
    tenant_of, BreakerPhase, Client, ErrorCode, ProfileData, ProfilerKind, Request, Response,
    ServerError, SessionConfig, SessionInfo, UpstreamHealth,
};
use mhp_telemetry::{Counter, CounterVec, Gauge, Registry, Trace, TraceConfig, Tracer};

use crate::state::{AggState, CUMULATIVE_SUFFIX};
use crate::supervisor::{
    pull_backoff, CircuitBreaker, PullDecision, PullPolicy, UpstreamStatus, NEVER,
};

/// The aggregator's pull-cycle stage taxonomy, in pipeline order; the
/// tracer registers one `agg_stage_{name}_us` histogram per entry.
pub const AGG_STAGES: &[&str] = &[
    "connect",
    "list_sessions",
    "snapshot",
    "apply",
    "checkpoint",
];

/// Connecting to an upstream.
const AGG_STAGE_CONNECT: usize = 0;
/// Listing the upstream's sessions.
const AGG_STAGE_LIST_SESSIONS: usize = 1;
/// Attaching to sessions and pulling their interval snapshots.
const AGG_STAGE_SNAPSHOT: usize = 2;
/// Merging the harvest into the tree under the state lock.
const AGG_STAGE_APPLY: usize = 3;
/// Encoding and atomically writing the cycle's checkpoint.
const AGG_STAGE_CHECKPOINT: usize = 4;

/// `snapshot` requests a pull keeps in flight on its connection: one
/// window costs one round trip, so draining `n` intervals costs about
/// `n / PULL_WINDOW` round trips instead of `n`.
const PULL_WINDOW: u64 = 64;

/// Tuning for an [`Aggregator`].
#[derive(Debug, Clone)]
pub struct AggConfig {
    /// Upstream addresses to pull from: `mhp-server`s, other
    /// aggregators, or a mix. Sessions whose name ends in
    /// `/__cumulative__` are treated as child-aggregator exports
    /// (replace semantics); everything else is a leaf session (additive
    /// interval pulls).
    pub upstreams: Vec<String>,
    /// Pause between a worker's successful pulls, and the clock thread's
    /// tick (one tick = one cycle for epoch/staleness accounting).
    pub pull_interval: Duration,
    /// When set, the merge tree is checkpointed here (atomically, in the
    /// shared CRC-guarded snapshot envelope) after every progressing
    /// cycle and restored on the next start — a kill -9'd aggregator
    /// resumes with its cursors intact and never double-counts an
    /// interval.
    pub state_path: Option<PathBuf>,
    /// Per-connection read and write timeout on the serving side: a
    /// silent peer, or one that stops reading its replies, is dropped
    /// within one timeout of shutdown.
    pub read_timeout: Duration,
    /// Deadline and circuit-breaker tuning for the pull workers.
    pub policy: PullPolicy,
    /// Concurrent query connections served before new ones are rejected
    /// with a retryable `overloaded` answer.
    pub max_query_conns: usize,
    /// Armed fault plan for chaos testing: consulted once per pull
    /// attempt (`conn-drop` fails the attempt, `upstream-stall` wedges
    /// then fails) and once per in-pull operation (`slow-read` delays
    /// it). Errors land in `agg_pull_errors_total{upstream=...}`.
    pub fault_hook: Option<FaultHook>,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            upstreams: Vec::new(),
            pull_interval: Duration::from_millis(200),
            state_path: None,
            read_timeout: Duration::from_millis(200),
            policy: PullPolicy::default(),
            max_query_conns: 64,
            fault_hook: None,
        }
    }
}

/// Aggregator-side counters, on one shared registry so the `metrics`
/// query exposes the whole picture — per-tenant and per-upstream series
/// included.
struct AggTelemetry {
    registry: Registry,
    pull_cycles: Counter,
    /// Failed pull attempts, labeled by upstream address — a flapping
    /// upstream is attributable from the metrics endpoint alone.
    pull_errors: CounterVec,
    quarantines: CounterVec,
    recoveries: CounterVec,
    partial_harvests: Counter,
    checkpoints: Counter,
    checkpoint_errors: Counter,
    restores: Counter,
    busy_rejections: Counter,
    tenant_profiles_merged: CounterVec,
    tenant_events_merged: CounterVec,
    /// Per-pull stage tracing: one `"pull"` trace per attempt (detail =
    /// upstream index) plus one `"checkpoint"` trace per progressing
    /// cycle, behind the same `traces` query the server answers.
    tracer: Tracer,
}

impl AggTelemetry {
    fn new() -> AggTelemetry {
        let registry = Registry::new();
        AggTelemetry {
            pull_cycles: registry.counter("agg_pull_cycles_total"),
            pull_errors: CounterVec::new(&registry, "agg_pull_errors_total", "upstream"),
            quarantines: CounterVec::new(&registry, "agg_upstream_quarantines_total", "upstream"),
            recoveries: CounterVec::new(&registry, "agg_upstream_recoveries_total", "upstream"),
            partial_harvests: registry.counter("agg_partial_harvests_total"),
            checkpoints: registry.counter("agg_checkpoints_total"),
            checkpoint_errors: registry.counter("agg_checkpoint_errors_total"),
            restores: registry.counter("agg_restore_total"),
            busy_rejections: registry.counter("agg_query_busy_rejections_total"),
            tenant_profiles_merged: CounterVec::new(
                &registry,
                "agg_tenant_profiles_merged_total",
                "tenant",
            ),
            tenant_events_merged: CounterVec::new(
                &registry,
                "agg_tenant_events_merged_total",
                "tenant",
            ),
            tracer: Tracer::new(
                &registry,
                TraceConfig {
                    prefix: "agg",
                    stages: AGG_STAGES,
                    enabled: true,
                },
            ),
            registry,
        }
    }
}

/// One upstream's runtime: shared health state plus its metric handles,
/// all owned by `Inner` so every thread sees the same series.
struct UpstreamRuntime {
    status: UpstreamStatus,
    healthy_gauge: Gauge,
    staleness_gauge: Gauge,
    errors: Counter,
    quarantines: Counter,
    recoveries: Counter,
}

/// Shared state between the pull workers, the clock, the serving loop,
/// and the handle.
struct Inner {
    config: AggConfig,
    state: Mutex<AggState>,
    telemetry: AggTelemetry,
    upstreams: Vec<UpstreamRuntime>,
    /// Clock ticks since start; the unit of staleness accounting.
    cycles: AtomicU64,
    /// Set by any worker that applied a harvest (or completed an empty
    /// pull); consumed by the clock thread, which then advances the
    /// epoch and checkpoints.
    progress: AtomicBool,
    /// Whether the last checkpoint write failed — gates the
    /// once-per-transition stderr log.
    checkpoint_failing: AtomicBool,
    /// Raised once by [`Inner::begin_shutdown`]; every loop polls it.
    shutdown: AtomicBool,
    /// Wakes the query plane's accept loop, which blocks in its reactor
    /// until a connection arrives or this fires.
    waker: Waker,
}

impl Inner {
    /// Shared state for `config`, with one upstream runtime per configured
    /// upstream, every series on `telemetry`'s registry.
    fn new(config: AggConfig, state: AggState, telemetry: AggTelemetry, waker: Waker) -> Inner {
        let upstreams = config
            .upstreams
            .iter()
            .map(|addr| {
                let labels = &[("upstream", addr.as_str())];
                let runtime = UpstreamRuntime {
                    status: UpstreamStatus::new(addr.clone()),
                    healthy_gauge: telemetry
                        .registry
                        .gauge_with_labels("agg_upstream_healthy", labels),
                    staleness_gauge: telemetry
                        .registry
                        .gauge_with_labels("agg_upstream_staleness_cycles", labels),
                    errors: telemetry.pull_errors.with_label(addr),
                    quarantines: telemetry.quarantines.with_label(addr),
                    recoveries: telemetry.recoveries.with_label(addr),
                };
                runtime.healthy_gauge.set(1);
                runtime
            })
            .collect();
        Inner {
            config,
            state: Mutex::new(state),
            telemetry,
            upstreams,
            cycles: AtomicU64::new(0),
            progress: AtomicBool::new(false),
            checkpoint_failing: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            waker,
        }
    }

    /// The one way to stop the aggregator: raise the shutdown flag, then
    /// wake the accept loop so it observes the flag now.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// The aggregation node. [`bind`](Aggregator::bind) it to get a
/// [`RunningAggregator`] handle.
#[derive(Debug)]
pub struct Aggregator;

impl Aggregator {
    /// Binds `addr`, restores any checkpoint at
    /// [`AggConfig::state_path`], and starts one pull worker per
    /// upstream, the clock thread, and the serving loop on background
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the address cannot be bound, or a snapshot
    /// error if an existing checkpoint file is corrupt (a corrupt
    /// checkpoint is a loud failure, not silent data loss).
    pub fn bind(addr: &str, config: AggConfig) -> Result<RunningAggregator, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::new()?;

        let telemetry = AggTelemetry::new();
        let mut state = AggState::new();
        if let Some(path) = &config.state_path {
            match std::fs::read(path) {
                Ok(bytes) => {
                    state = AggState::decode(&bytes)
                        .map_err(|e| ServerError::protocol_owned(format!("checkpoint: {e}")))?;
                    telemetry.restores.incr();
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(ServerError::Io(e)),
            }
        }

        let inner = Arc::new(Inner::new(config, state, telemetry, reactor.waker()));

        let mut pull_handles = Vec::with_capacity(inner.config.upstreams.len() + 1);
        for index in 0..inner.config.upstreams.len() {
            let worker_inner = Arc::clone(&inner);
            pull_handles.push(std::thread::spawn(move || {
                upstream_worker(&worker_inner, index);
            }));
        }
        let clock_inner = Arc::clone(&inner);
        pull_handles.push(std::thread::spawn(move || clock_loop(&clock_inner)));
        let serve_inner = Arc::clone(&inner);
        let serve_handle =
            std::thread::spawn(move || accept_loop(&listener, &serve_inner, reactor));

        Ok(RunningAggregator {
            local_addr,
            inner,
            pull_handles,
            serve_handle: Some(serve_handle),
        })
    }
}

/// A bound, running aggregator.
#[derive(Debug)]
pub struct RunningAggregator {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
    pull_handles: Vec<JoinHandle<()>>,
    serve_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RunningAggregator {
    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Progressing pull cycles so far (the epoch of the merge tree).
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().expect("state lock poisoned").epoch
    }

    /// Clock ticks since start — the denominator of staleness.
    pub fn cycles(&self) -> u64 {
        self.inner.cycles.load(Ordering::SeqCst)
    }

    /// Per-upstream supervisor health, in configuration order — the same
    /// block the session listing carries on the wire.
    pub fn upstream_health(&self) -> Vec<UpstreamHealth> {
        let now = self.cycles();
        self.inner
            .upstreams
            .iter()
            .map(|up| up.status.health(now))
            .collect()
    }

    /// The global top-k for one tenant, straight from the merge tree.
    pub fn top_k(&self, tenant: &str, k: usize) -> Vec<Candidate> {
        self.inner
            .state
            .lock()
            .expect("state lock poisoned")
            .top_k(tenant, k)
    }

    /// Prometheus exposition of the aggregator's metrics.
    pub fn metrics(&self) -> String {
        self.inner.telemetry.registry.render_prometheus()
    }

    /// The pull-cycle trace stream as JSONL — stage summaries followed by
    /// sampled traces — same text the `traces` query returns.
    pub fn traces_jsonl(&self) -> String {
        self.inner.telemetry.tracer.render_jsonl()
    }

    /// Requests a graceful shutdown. Returns immediately; use
    /// [`join`](Self::join) to wait.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits for every loop to finish. Implies [`shutdown`](Self::shutdown).
    pub fn join(mut self) {
        self.shutdown();
        self.reap();
    }

    /// Blocks until the aggregator shuts down (e.g. a client `shutdown`
    /// request) without triggering the shutdown itself.
    pub fn wait(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(handle) = self.serve_handle.take() {
            let _ = handle.join();
        }
        self.inner.begin_shutdown();
        for handle in self.pull_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningAggregator {
    fn drop(&mut self) {
        self.shutdown();
        self.reap();
    }
}

/// One upstream's harvest, collected off-lock (the pulls are network I/O)
/// and applied to the merge tree in one short critical section. A pull
/// that errors mid-way still returns the harvest it completed: each
/// session's cursor entry covers exactly the snapshots that landed in
/// `leaf_profiles`, so applying a partial harvest is idempotent — the
/// next successful pull resumes from the committed cursor and never
/// double-counts.
#[derive(Default)]
struct Harvest {
    /// Leaf profiles: `(tenant, candidates)`, in pull order.
    leaf_profiles: Vec<(String, Vec<Candidate>)>,
    /// Cursor advances: `(session, next_interval)`.
    cursors: Vec<(String, u64)>,
    /// Child-aggregator exports: `(tenant, full cumulative table)`.
    children: Vec<(String, Vec<Candidate>)>,
}

impl Harvest {
    fn is_empty(&self) -> bool {
        self.leaf_profiles.is_empty() && self.cursors.is_empty() && self.children.is_empty()
    }
}

/// Sleeps up to `total`, polling the shutdown flag in small slices so
/// shutdown never waits out a backoff or quarantine.
fn sleep_responsive(inner: &Inner, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The supervisor loop for one upstream: pull on the interval while
/// healthy, back off exponentially on failure, quarantine after the
/// breaker threshold, probe half-open, recover. Nothing here blocks any
/// other upstream.
fn upstream_worker(inner: &Inner, index: usize) {
    let policy = inner.config.policy.clone();
    let up = &inner.upstreams[index];
    let mut breaker = CircuitBreaker::new(policy.breaker_threshold, policy.quarantine);
    while !inner.shutdown.load(Ordering::SeqCst) {
        match breaker.decide(Instant::now()) {
            PullDecision::Skip(remaining) => {
                // Quarantined: nap until the quarantine elapses (capped so
                // shutdown and health reads stay fresh), then re-decide.
                sleep_responsive(inner, remaining.min(inner.config.pull_interval));
                continue;
            }
            PullDecision::Probe => up.status.record_phase(BreakerPhase::HalfOpen),
            PullDecision::Pull => {}
        }

        // Injected pull faults: a conn-drop fails the attempt without
        // touching the network; an upstream-stall wedges the worker for
        // the fault's duration, then fails — exactly what a real stalled
        // upstream does to a deadline-bounded pull.
        let action = inner
            .config
            .fault_hook
            .as_ref()
            .map_or(PullAction::Proceed, FaultHook::on_pull);

        // One trace per pull attempt, tagged with the upstream's index;
        // an errored pull still finishes (its connect/list time is real
        // work worth attributing).
        let trace = inner.telemetry.tracer.begin("pull");
        trace.set_detail(index as u64);
        let result = match action {
            PullAction::Drop => Err(ServerError::protocol("injected pull connection drop")),
            PullAction::Stall(wedge) => {
                sleep_responsive(inner, wedge);
                Err(ServerError::protocol("injected upstream stall"))
            }
            PullAction::Proceed => {
                let (harvest, result) = pull_upstream(inner, index, &trace);
                if !harvest.is_empty() {
                    let apply = trace.stage(AGG_STAGE_APPLY);
                    apply_harvest(inner, &up.status.addr, harvest);
                    apply.finish();
                    if result.is_err() {
                        // Partial harvest: the error cut the pull short,
                        // but everything collected before it is applied
                        // with matching cursors.
                        inner.telemetry.partial_harvests.incr();
                    }
                    inner.progress.store(true, Ordering::SeqCst);
                } else if result.is_ok() {
                    inner.progress.store(true, Ordering::SeqCst);
                }
                result
            }
        };
        trace.finish();

        match result {
            Ok(()) => {
                if breaker.on_success() {
                    up.recoveries.incr();
                }
                let cycle = inner.cycles.load(Ordering::SeqCst);
                let epoch = inner.state.lock().expect("state lock poisoned").epoch;
                up.status.record_success(cycle, epoch);
                up.healthy_gauge.set(1);
                up.staleness_gauge.set(0);
                sleep_responsive(inner, inner.config.pull_interval);
            }
            Err(_) => {
                up.errors.incr();
                let outcome = breaker.on_failure(Instant::now());
                up.status
                    .record_failure(breaker.consecutive_failures(), breaker.phase());
                if outcome.quarantined {
                    up.quarantines.incr();
                    up.healthy_gauge.set(0);
                    // The quarantine nap happens via Skip on the next
                    // decide(); no extra sleep here.
                } else {
                    sleep_responsive(inner, pull_backoff(breaker.consecutive_failures(), index));
                }
            }
        }
    }
}

/// The clock: one tick per [`AggConfig::pull_interval`]. Each tick bumps
/// the cycle counter, refreshes staleness gauges, and — when any worker
/// made progress since the last tick — advances the epoch and
/// checkpoints.
fn clock_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        sleep_responsive(inner, inner.config.pull_interval);
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let cycle = inner.cycles.fetch_add(1, Ordering::SeqCst) + 1;
        for up in &inner.upstreams {
            up.staleness_gauge.set(up.status.staleness_cycles(cycle));
        }
        if inner.progress.swap(false, Ordering::SeqCst) {
            checkpoint_cycle(inner);
        }
        inner.telemetry.pull_cycles.incr();
    }
    // A final checkpoint so shutdown never strands an applied harvest in
    // memory only.
    if inner.progress.swap(false, Ordering::SeqCst) {
        checkpoint_cycle(inner);
    }
}

/// Advances the epoch and atomically writes the checkpoint. Write
/// failures are loud: counted in `agg_checkpoint_errors_total` and logged
/// to stderr once per transition (one line when writes start failing, one
/// when they recover) so a full disk cannot silently turn checkpointing
/// off.
fn checkpoint_cycle(inner: &Inner) {
    let trace = inner.telemetry.tracer.begin("checkpoint");
    let timer = trace.stage(AGG_STAGE_CHECKPOINT);
    let mut state = inner.state.lock().expect("state lock poisoned");
    state.epoch += 1;
    let snapshot = inner.config.state_path.as_ref().map(|_| state.encode());
    drop(state);
    if let (Some(path), Some(bytes)) = (&inner.config.state_path, snapshot) {
        match write_atomically(path, &bytes) {
            Ok(()) => {
                inner.telemetry.checkpoints.incr();
                if inner.checkpoint_failing.swap(false, Ordering::SeqCst) {
                    eprintln!("mhp-agg: checkpoint writes to {} recovered", path.display());
                }
            }
            Err(err) => {
                inner.telemetry.checkpoint_errors.incr();
                if !inner.checkpoint_failing.swap(true, Ordering::SeqCst) {
                    eprintln!(
                        "mhp-agg: checkpoint write to {} failed: {err}",
                        path.display()
                    );
                }
            }
        }
    }
    timer.finish();
    trace.finish();
}

/// Connects to one upstream and drains everything new: every completed,
/// not-yet-pulled interval of every leaf session, and the full cumulative
/// table of every child-aggregator export.
///
/// A leaf session's snapshots are pipelined in windows of up to
/// [`PULL_WINDOW`] requests on the one connection, and pulled until the
/// first interval that does not exist yet, so intervals that complete
/// during the pull are still taken.
///
/// Always returns the harvest collected so far, even alongside an error —
/// cursors in the harvest cover exactly the snapshots that completed, so
/// the caller can apply a partial harvest without double-counting. Every
/// operation is deadline-bounded (connect timeout, per-read timeout) and
/// the whole pull is budgeted: a dribbling upstream trips the budget
/// before each reply is read instead of holding the worker hostage.
fn pull_upstream(inner: &Inner, index: usize, trace: &Trace) -> (Harvest, Result<(), ServerError>) {
    let upstream = &inner.config.upstreams[index];
    let policy = &inner.config.policy;
    let started = Instant::now();
    let mut harvest = Harvest::default();

    let over_budget = || -> Result<(), ServerError> {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::protocol("shutting down"));
        }
        if started.elapsed() > policy.pull_budget {
            return Err(ServerError::protocol("pull budget exhausted"));
        }
        Ok(())
    };
    // Injected slow-read: delay the next in-pull operation.
    let read_delay = || {
        if let Some(hook) = &inner.config.fault_hook {
            if let Some(delay) = hook.on_pull_op() {
                std::thread::sleep(delay);
            }
        }
    };

    let result = (|| -> Result<(), ServerError> {
        let connect = trace.stage(AGG_STAGE_CONNECT);
        let mut client = Client::connect_timeout(upstream.as_str(), policy.connect_timeout)?;
        client.set_read_timeout(Some(policy.read_timeout))?;
        connect.finish();
        let list = trace.stage(AGG_STAGE_LIST_SESSIONS);
        read_delay();
        let sessions = client.list_sessions()?;
        list.finish();
        for info in sessions {
            over_budget()?;
            read_delay();
            // Attach round-trips count toward the snapshot stage: they
            // exist only to scope the pulls that follow.
            if let Some(tenant) = info.name.strip_suffix(CUMULATIVE_SUFFIX) {
                let timer = trace.stage(AGG_STAGE_SNAPSHOT);
                client.attach(&info.name)?;
                let profile = client.snapshot(u64::MAX)?;
                timer.finish();
                if let Some(profile) = profile {
                    harvest
                        .children
                        .push((tenant.to_string(), profile.candidates));
                }
                continue;
            }
            let tenant = tenant_of(&info.name).to_string();
            let mut cursor = {
                let state = inner.state.lock().expect("state lock poisoned");
                state.cursor(upstream, &info.name)
            };
            if cursor >= info.intervals {
                continue; // nothing new; skip the attach round-trip
            }
            let timer = trace.stage(AGG_STAGE_SNAPSHOT);
            let start_cursor = cursor;
            let mut session_result = client.attach(&info.name).map(|_| ());
            let mut caught_up = false;
            while session_result.is_ok() && !caught_up {
                // The listed intervals not pulled yet, plus one probe for
                // an interval that completed since the listing.
                let window = info
                    .intervals
                    .saturating_add(1)
                    .saturating_sub(cursor)
                    .clamp(1, PULL_WINDOW);
                session_result = client.pipelined_snapshots(
                    cursor..cursor + window,
                    || {
                        over_budget()?;
                        read_delay();
                        Ok(())
                    },
                    |reply| match reply {
                        Some(profile) => {
                            harvest
                                .leaf_profiles
                                .push((tenant.clone(), profile.candidates));
                            cursor += 1;
                            true
                        }
                        None => {
                            caught_up = true;
                            false
                        }
                    },
                );
            }
            timer.finish();
            // Commit the cursor exactly as far as the snapshots actually
            // harvested — a mid-session error keeps profile data and
            // cursor consistent.
            if cursor > start_cursor {
                harvest.cursors.push((info.name, cursor));
            }
            session_result?;
        }
        Ok(())
    })();
    (harvest, result)
}

/// Applies one upstream's harvest under the state lock.
fn apply_harvest(inner: &Inner, upstream: &str, harvest: Harvest) {
    let mut state = inner.state.lock().expect("state lock poisoned");
    for (tenant, candidates) in &harvest.leaf_profiles {
        let added = state.add_leaf_profile(tenant, candidates);
        inner.telemetry.tenant_profiles_merged.incr(tenant);
        inner.telemetry.tenant_events_merged.add(tenant, added);
    }
    for (session, cursor) in &harvest.cursors {
        state.set_cursor(upstream, session, *cursor);
    }
    for (tenant, candidates) in &harvest.children {
        state.set_child(upstream, tenant, candidates);
    }
}

/// Atomic file replacement, same discipline as the server's checkpoints:
/// complete on disk before it takes the live name.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Decrements the active-connection count when a connection thread exits,
/// panics included.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts query connections until shutdown. One thread per connection —
/// aggregator query fan-in is dashboards and parent aggregators, not the
/// firehose the ingest path handles. [`mhp_net::accept_until`] blocks
/// until a connection arrives or [`Inner::begin_shutdown`] wakes it.
/// Finished handles are reaped as connections are accepted (not hoarded
/// until shutdown), and arrivals beyond [`AggConfig::max_query_conns`]
/// get a typed retryable `overloaded` rejection instead of a thread.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>, reactor: Reactor) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let active = Arc::new(AtomicUsize::new(0));
    let _ = mhp_net::accept_until(listener, reactor, &inner.shutdown, |stream| {
        handles.retain(|handle| !handle.is_finished());
        if active.load(Ordering::SeqCst) >= inner.config.max_query_conns {
            inner.telemetry.busy_rejections.incr();
            reject_busy(stream);
            return;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(&active));
        let inner = Arc::clone(inner);
        handles.push(std::thread::spawn(move || {
            let _guard = guard;
            handle_connection(stream, &inner);
        }));
    });
    for handle in handles {
        let _ = handle.join();
    }
}

/// Answers one over-capacity connection with a retryable `overloaded`
/// error and hangs up.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(stream);
    let response = Response::Error {
        code: ErrorCode::Overloaded,
        message: "aggregator query plane at connection capacity; retry".into(),
    };
    let _ = write_frame(&mut writer, &response.encode());
    let _ = std::io::Write::flush(&mut writer);
}

/// Serves one query connection until EOF, a violation, or shutdown.
fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    // Replies to a peer that stops reading wake at the same cadence, so
    // `write_frame_until` sees shutdown within one timeout.
    let _ = stream.set_write_timeout(Some(inner.config.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    // The tenant this connection attached to, if any.
    let mut attached: Option<String> = None;

    loop {
        // `None` is a clean EOF, or shutdown seen at a read timeout, which
        // also ends a read stalled partway through a frame.
        let body = match read_frame_until(&mut reader, &inner.shutdown) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(err) => {
                respond(&mut stream, &error_response(&err), inner);
                return;
            }
        };
        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(err) => {
                respond(&mut stream, &error_response(&err), inner);
                return;
            }
        };
        let response = handle_request(request, &mut attached, inner);
        if !respond(&mut stream, &response, inner) {
            return;
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response, inner: &Inner) -> bool {
    write_frame_until(stream, &response.encode_frame(), &inner.shutdown).is_ok()
}

fn error_response(err: &ServerError) -> Response {
    Response::Error {
        code: err.code(),
        message: err.wire_message(),
    }
}

/// The placeholder session configuration cumulative exports carry: zero
/// interval length and threshold mark the "session" as a cumulative
/// table, not an interval profiler.
fn cumulative_config() -> SessionConfig {
    SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 0,
        interval_len: 0,
        threshold: 0.0,
        seed: 0,
    }
}

/// Dispatches one request against the merge tree. The aggregator speaks
/// the server's protocol but is read-only: every mutating op gets a typed
/// `bad-request` answer.
fn handle_request(request: Request, attached: &mut Option<String>, inner: &Inner) -> Response {
    let state = || inner.state.lock().expect("state lock poisoned");
    let read_only = || Response::Error {
        code: ErrorCode::BadRequest,
        message: "aggregators are read-only; stream to an mhp-server".into(),
    };
    match request {
        Request::Attach { name } => {
            // Accept both the bare tenant name and the full cumulative
            // session name a parent copies from our own listing.
            let tenant = name.strip_suffix(CUMULATIVE_SUFFIX).unwrap_or(&name);
            let guard = state();
            if guard.tenant_table(tenant).is_none() {
                return Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: format!("no tenant named {tenant:?} aggregated here"),
                };
            }
            let info = tenant_info(&guard, tenant);
            drop(guard);
            *attached = Some(tenant.to_string());
            Response::Session(info)
        }
        Request::ListSessions => {
            let now = inner.cycles.load(Ordering::SeqCst);
            let guard = state();
            let sessions = guard
                .tenant_names()
                .iter()
                .map(|tenant| tenant_info(&guard, tenant))
                .collect();
            drop(guard);
            // The listing doubles as the fleet health endpoint: parents
            // and dashboards see which upstreams are stale without
            // scraping metrics.
            let upstreams = inner
                .upstreams
                .iter()
                .map(|up| up.status.health(now))
                .collect();
            Response::SessionList {
                sessions,
                upstreams,
            }
        }
        Request::TopK { n } => match &attached {
            Some(tenant) => Response::TopK(state().top_k(tenant, n as usize)),
            None => read_only_attach_error(),
        },
        Request::Snapshot { .. } => match &attached {
            // The full cumulative table, hottest first — what a parent
            // aggregator swallows whole each cycle. The interval argument
            // is ignored: there is exactly one cumulative view.
            Some(tenant) => {
                let guard = state();
                let candidates = guard.top_k(tenant, usize::MAX);
                Response::Profile(ProfileData {
                    interval_index: guard.epoch,
                    interval_len: 0,
                    threshold: 0.0,
                    candidates,
                })
            }
            None => read_only_attach_error(),
        },
        Request::Stats => {
            let now = inner.cycles.load(Ordering::SeqCst);
            let guard = state();
            let mut text = format!("epoch {}\n", guard.epoch);
            for tenant in guard.tenant_names() {
                text.push_str(&format!(
                    "tenant {tenant} events {}\n",
                    guard.tenant_events(&tenant)
                ));
            }
            drop(guard);
            text.push_str(&format!("cycles {now}\n"));
            for up in &inner.upstreams {
                let health = up.status.health(now);
                let last_success = if health.last_success_epoch == NEVER {
                    "never".to_string()
                } else {
                    health.last_success_epoch.to_string()
                };
                text.push_str(&format!(
                    "upstream {} healthy {} phase {} staleness_cycles {} \
                     last_success_epoch {} consecutive_failures {}\n",
                    health.addr,
                    u8::from(health.healthy),
                    health.phase.name(),
                    health.staleness_cycles,
                    last_success,
                    health.consecutive_failures,
                ));
            }
            Response::Stats(text)
        }
        Request::Metrics => Response::Metrics(inner.telemetry.registry.render_prometheus()),
        Request::Traces => Response::Traces(inner.telemetry.tracer.render_jsonl()),
        Request::Shutdown => {
            inner.begin_shutdown();
            Response::Done
        }
        Request::Open { .. }
        | Request::Ingest { .. }
        | Request::IngestSeq { .. }
        | Request::Resume
        | Request::Cut
        | Request::CloseSession => read_only(),
    }
}

fn read_only_attach_error() -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: "attach to a tenant first".into(),
    }
}

/// The [`SessionInfo`] a tenant's cumulative view exports: named
/// `<tenant>/__cumulative__`, with the pull epoch in `intervals` so
/// downstream consumers can watch progress.
fn tenant_info(state: &AggState, tenant: &str) -> SessionInfo {
    SessionInfo {
        name: format!("{tenant}{CUMULATIVE_SUFFIX}"),
        config: cumulative_config(),
        events: state.tenant_events(tenant),
        intervals: state.epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhp_core::Tuple;
    use mhp_faults::{FaultKind, FaultPlan};
    use mhp_pipeline::{EngineConfig, ShardedEngine};
    use mhp_server::{Server, ServerConfig};
    use mhp_trace::{Benchmark, StreamKind, StreamSpec};

    /// A pull torn mid-window keeps exactly the replies it read: the
    /// cursor it commits equals its profile count, and the next pull
    /// resumes there and converges on the offline merge.
    #[test]
    fn a_pull_torn_mid_window_commits_exactly_the_replies_read() {
        let config = SessionConfig {
            interval_len: 1_000,
            seed: 5,
            ..SessionConfig::default_multi_hash()
        };
        // Thirty completed intervals, so the first window holds all
        // thirty requests plus the probe.
        let events: Vec<Tuple> = StreamSpec::new(Benchmark::Gcc, StreamKind::Value, 5)
            .events()
            .take(30_500)
            .collect();
        // The server counts decoded requests: open and ingest, then the
        // pull's listing and attach, so request 15 is the 11th snapshot.
        let hook = FaultPlan::new(1)
            .with_fault(FaultKind::TruncateFrame, 15)
            .arm();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                fault_hook: Some(hook.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut recorder = Client::connect(server.local_addr()).unwrap();
        recorder.open_session("acme/torn", config.clone()).unwrap();
        recorder.ingest(&events).unwrap();

        let upstream = server.local_addr().to_string();
        let inner = Inner::new(
            AggConfig {
                upstreams: vec![upstream.clone()],
                ..AggConfig::default()
            },
            AggState::new(),
            AggTelemetry::new(),
            Reactor::new().unwrap().waker(),
        );
        let trace = inner.telemetry.tracer.begin("pull");
        let (torn, result) = pull_upstream(&inner, 0, &trace);
        assert!(result.is_err(), "the torn reply must fail the pull");
        assert_eq!(hook.injected(FaultKind::TruncateFrame), 1);
        assert_eq!(torn.leaf_profiles.len(), 10);
        assert_eq!(torn.cursors, [("acme/torn".to_string(), 10)]);
        apply_harvest(&inner, &upstream, torn);

        let (rest, result) = pull_upstream(&inner, 0, &trace);
        result.unwrap();
        assert_eq!(rest.leaf_profiles.len(), 20);
        assert_eq!(rest.cursors, [("acme/torn".to_string(), 30)]);
        apply_harvest(&inner, &upstream, rest);

        let interval =
            mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
        let report = ShardedEngine::new(
            EngineConfig::new(1),
            interval,
            config.kind.spec(),
            config.seed,
        )
        .run(events.iter().copied())
        .unwrap();
        let mut expected = AggState::new();
        for profile in &report.profiles {
            expected.add_leaf_profile("acme", profile.candidates());
        }
        let state = inner.state.lock().unwrap();
        assert_eq!(
            state.top_k("acme", usize::MAX),
            expected.top_k("acme", usize::MAX)
        );
        drop(state);
        recorder.shutdown_server().unwrap();
        drop(recorder);
        server.join();
    }
}
