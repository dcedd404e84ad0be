//! The profiling service itself: a TCP listener, one handler thread per
//! accepted connection, and a registry of named sessions, each wrapping a
//! live [`EngineSession`].
//!
//! ## Session lifecycle
//!
//! Sessions are *server-resident* and named: `open` creates one and
//! attaches the connection; any other connection may `attach` to it by
//! name (e.g. a dashboard issuing `topk` while a recorder streams chunks).
//! A session outlives the connections using it and dies only on
//! `close-session` or server shutdown, when remaining sessions are drained
//! (their shard workers joined) before the process exits.
//!
//! ## Robustness
//!
//! * Connections past `max_connections` receive a retryable `overloaded`
//!   error response and are closed immediately — a graceful rejection,
//!   not a hang.
//! * Reads and reply writes carry a timeout, and each timeout re-checks
//!   the shutdown flag, so once shutdown begins a handler stops waiting on
//!   a peer — idle between requests, stalled partway through a frame, or
//!   no longer reading its replies — within one timeout.
//! * The accept loop blocks in an [`mhp_net::Reactor`] until a connection
//!   arrives or shutdown wakes it, so an idle server spends no CPU and a
//!   new connection waits on nothing.
//! * A protocol violation gets a best-effort error response, then the
//!   connection is dropped (counted in `protocol_errors`).
//!
//! ## Durability
//!
//! With [`ServerConfig::state_dir`] set, a background thread periodically
//! checkpoints every live session — a CRC-guarded
//! [`KIND_SERVER_SESSION`] snapshot carrying the session's name, its
//! configuration, its last acknowledged ingest sequence, and the full
//! engine state — to `state_dir`, atomically (write-to-temp + rename). A
//! freshly bound server scans that directory and restores every snapshot
//! it finds before accepting connections, so a restored session answers
//! `snapshot`/`topk` bit-identically to the pre-crash one. Sequenced
//! ingest ([`Request::IngestSeq`]) gives
//! reconnecting clients idempotent resume: a replayed chunk is
//! acknowledged without being re-applied, and
//! [`Request::Resume`] reports the last applied
//! sequence. Admission control sheds ingest with a typed
//! [`ErrorCode::Overloaded`] response once live connections exceed
//! [`ServerConfig::overload_connection_watermark`].

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mhp_net::{Reactor, Waker};

use mhp_telemetry::{CounterVec, StageSummary, Trace, TraceConfig, Tracer};

use mhp_core::state::{SnapshotReader, SnapshotWriter, KIND_SERVER_SESSION};
use mhp_core::{IntervalConfig, IntrospectionSink, SnapshotError};
use mhp_faults::{ConnAction, FaultHook};
use mhp_pipeline::{
    declared_chunk_len, EngineConfig, EngineSession, EngineTelemetry, RegistrySink, ShardedEngine,
};

use crate::error::{ErrorCode, ServerError};
use crate::metrics::{Counter, Metrics};
use crate::protocol::{
    read_frame_until, write_frame_until, ProfileData, ProfilerKind, Request, Response,
    SessionConfig, SessionInfo, MAX_NAME_BYTES,
};

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently, one handler thread each; an
    /// arrival past the limit gets a retryable `overloaded` rejection.
    pub max_connections: usize,
    /// Per-connection read and write timeout. Idle connections, and
    /// replies to a peer that stops reading, wake at this cadence to
    /// observe the shutdown flag (see [`write_frame_until`]).
    pub read_timeout: Duration,
    /// When set, a background thread appends one JSON metrics snapshot per
    /// [`metrics_export_interval`](Self::metrics_export_interval) to this
    /// file (JSONL), plus a final snapshot at shutdown.
    pub metrics_export_path: Option<PathBuf>,
    /// Cadence of the JSONL metrics export.
    pub metrics_export_interval: Duration,
    /// When set, every live session is checkpointed to this directory at
    /// [`checkpoint_interval`](Self::checkpoint_interval) cadence (plus
    /// once at graceful shutdown), and a freshly bound server restores
    /// every snapshot found there before accepting connections.
    pub state_dir: Option<PathBuf>,
    /// Cadence of session checkpoints when
    /// [`state_dir`](Self::state_dir) is set.
    pub checkpoint_interval: Duration,
    /// Admission-control watermark: once more than this many connections
    /// are live, ingest requests are shed with
    /// [`ErrorCode::Overloaded`] instead of queueing further load.
    /// `usize::MAX` (the default) never sheds.
    pub overload_connection_watermark: usize,
    /// Armed fault plan for chaos testing: consulted per request
    /// (connection drops, torn response frames), per ingested chunk
    /// (corruption, stalls) and per shard-worker batch (panics, stalls).
    /// `None` (the default) compiles the hooks to a single branch.
    pub fault_hook: Option<FaultHook>,
    /// Per-tenant admission quotas. The default is unlimited.
    pub tenant_quotas: TenantQuotas,
    /// Total estimated session memory (see
    /// [`EngineSession::approx_memory_bytes`]) the server keeps resident.
    /// When set, a housekeeping thread evicts least-recently-used idle
    /// sessions (checkpointing them first when
    /// [`state_dir`](Self::state_dir) is set, so a later `attach` restores
    /// them transparently) until the total is back under budget. `None`
    /// (the default) never evicts.
    pub session_memory_budget: Option<u64>,
    /// Per-request stage tracing (see [`crate::Request::Traces`]). On by
    /// default; turning it off keeps the `server_stage_*` metrics
    /// registered (exposition shape is stable) but makes every trace a
    /// no-op that never reads the clock — the baseline for measuring
    /// tracing overhead.
    pub tracing: bool,
}

/// The server's request stage taxonomy, in pipeline order. Stage indices
/// below index into this slice; the tracer registers one
/// `server_stage_{name}_us` histogram per entry.
pub const SERVER_STAGES: &[&str] = &[
    "admission_wait",
    "frame_decode",
    "dispatch",
    "ingest",
    "reply_write",
];

/// The ingest admission check against the connection watermark.
const STAGE_ADMISSION_WAIT: usize = 0;
/// Decoding the request frame into a [`Request`].
const STAGE_FRAME_DECODE: usize = 1;
/// Handing ingest batches to the shard rings, blocking stalls included.
const STAGE_DISPATCH: usize = 2;
/// Engine ingest: chunk decode, partition, and sketch updates, minus the
/// ring handoff counted under `dispatch`.
const STAGE_INGEST: usize = 3;
/// Writing the reply to the socket.
const STAGE_REPLY_WRITE: usize = 4;

/// Per-tenant admission quotas, enforced when the request arrives —
/// rejections are typed [`ErrorCode::QuotaExceeded`] responses and count
/// in `server_tenant_quota_rejections_total{tenant="..."}`.
///
/// The tenant of a session is the prefix of its name before the first
/// `/` (see [`tenant_of`]); sessions without a namespace share the
/// `default` tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Live sessions one tenant may hold open at once. `usize::MAX` (the
    /// default) never rejects.
    pub max_sessions: usize,
    /// Sustained ingest budget per tenant in bytes/second, enforced as a
    /// token bucket with one second of burst. `u64::MAX` (the default)
    /// never rejects.
    pub max_bytes_per_sec: u64,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_sessions: usize::MAX,
            max_bytes_per_sec: u64::MAX,
        }
    }
}

/// The tenant a session name belongs to: the prefix before the first `/`
/// (`acme/web-42` → `acme`), or `default` for an un-namespaced name.
///
/// # Examples
///
/// ```
/// use mhp_server::tenant_of;
/// assert_eq!(tenant_of("acme/web-42"), "acme");
/// assert_eq!(tenant_of("gcc-run"), "default");
/// assert_eq!(tenant_of("/odd"), "default");
/// ```
pub fn tenant_of(name: &str) -> &str {
    match name.split_once('/') {
        Some((tenant, _)) if !tenant.is_empty() => tenant,
        _ => "default",
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 32,
            read_timeout: Duration::from_millis(200),
            metrics_export_path: None,
            metrics_export_interval: Duration::from_secs(10),
            state_dir: None,
            checkpoint_interval: Duration::from_secs(5),
            overload_connection_watermark: usize::MAX,
            fault_hook: None,
            tenant_quotas: TenantQuotas::default(),
            session_memory_budget: None,
            tracing: true,
        }
    }
}

/// One named, server-resident profiling session.
struct Session {
    config: SessionConfig,
    /// The session's tenant, derived from its name once at open/restore.
    tenant: String,
    /// Milliseconds since the server epoch of the last request that
    /// targeted this session; the LRU key for eviction.
    last_touch_ms: AtomicU64,
    /// Connections currently attached. Eviction only considers sessions
    /// at zero — an attached session is in use by definition.
    attachments: AtomicU64,
    /// The live engine plus resume bookkeeping, under one lock so a
    /// sequence check and the ingest it guards are atomic.
    state: Mutex<SessionState>,
}

/// What the session lock protects.
struct SessionState {
    /// The live engine; `None` once the session has been drained.
    engine: Option<EngineSession>,
    /// Highest contiguous sequence number applied via sequenced ingest
    /// (`0` before any); replays at or below it are acknowledged without
    /// being re-applied.
    last_seq: u64,
}

/// The engine every session runs: the session's spec wired to the shared
/// telemetry, introspection sink, and (when configured) fault hook.
fn engine_builder(config: &SessionConfig, shared: &Shared) -> Result<ShardedEngine, ServerError> {
    let interval = IntervalConfig::new(config.interval_len, config.threshold)
        .map_err(mhp_pipeline::Error::Config)?;
    let mut engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    )
    .with_telemetry(shared.engine_telemetry.clone())
    .with_introspection_sink(Arc::clone(&shared.sketch_sink));
    if let Some(hook) = &shared.config.fault_hook {
        engine = engine.with_fault_hook(hook.clone());
    }
    Ok(engine)
}

impl Session {
    fn open(name: &str, config: &SessionConfig, shared: &Shared) -> Result<Session, ServerError> {
        let engine = engine_builder(config, shared)?.start()?;
        Ok(Session {
            config: config.clone(),
            tenant: tenant_of(name).to_string(),
            last_touch_ms: AtomicU64::new(shared.now_ms()),
            attachments: AtomicU64::new(0),
            state: Mutex::new(SessionState {
                engine: Some(engine),
                last_seq: 0,
            }),
        })
    }

    /// Marks the session as just used, for LRU eviction ordering.
    fn touch(&self, shared: &Shared) {
        self.last_touch_ms.store(shared.now_ms(), Ordering::Relaxed);
    }

    /// Runs `f` with the session lock held (engine plus sequence state).
    fn with_state<T>(
        &self,
        f: impl FnOnce(&mut SessionState) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut guard = self.state.lock().expect("session lock poisoned");
        f(&mut guard)
    }

    /// Runs `f` against the live engine, failing cleanly if the session
    /// has been drained under us.
    fn with_engine<T>(
        &self,
        f: impl FnOnce(&mut EngineSession) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        self.with_state(|state| match state.engine.as_mut() {
            Some(engine) => f(engine),
            None => Err(drained()),
        })
    }

    fn info(&self, name: &str) -> Result<SessionInfo, ServerError> {
        self.with_engine(|engine| {
            Ok(SessionInfo {
                name: name.to_string(),
                config: self.config.clone(),
                events: engine.events(),
                intervals: engine.intervals(),
            })
        })
    }

    /// Stops the shard workers. Idempotent.
    fn drain(&self) {
        let engine = self
            .state
            .lock()
            .expect("session lock poisoned")
            .engine
            .take();
        if let Some(engine) = engine {
            // finish() joins the workers; the report is discarded — the
            // profiles were queryable while the session lived.
            let _ = engine.finish();
        }
    }
}

/// A connection's hold on a session. The count is what shields a session
/// from eviction, so the hold is released in `Drop` — every exit path of
/// the connection handler, clean or not, decrements it.
struct Attachment {
    name: String,
    session: Arc<Session>,
}

impl Attachment {
    fn new(name: String, session: Arc<Session>) -> Attachment {
        session.attachments.fetch_add(1, Ordering::AcqRel);
        Attachment { name, session }
    }
}

impl Drop for Attachment {
    fn drop(&mut self) {
        self.session.attachments.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The error a request against a drained session gets.
fn drained() -> ServerError {
    ServerError::Remote {
        code: ErrorCode::ShuttingDown,
        message: "session was drained".into(),
    }
}

type Registry = Mutex<HashMap<String, Arc<Session>>>;

/// Durability and fault-tolerance counters. Registered on the shared
/// registry (so they appear in the Prometheus exposition) but deliberately
/// not in the legacy `stats` text, whose shape is frozen.
#[derive(Debug, Clone)]
struct Durability {
    /// Ingest requests shed by admission control.
    shed_total: Counter,
    /// Sessions restored from on-disk checkpoints at bind.
    restore_total: Counter,
    /// Snapshot files that failed to restore (corrupt or incompatible).
    restore_errors_total: Counter,
    /// Session checkpoints written successfully.
    checkpoints_total: Counter,
    /// Checkpoint attempts that failed (engine or filesystem).
    checkpoint_errors_total: Counter,
    /// Replayed sequenced chunks acknowledged without re-applying.
    dedup_total: Counter,
}

impl Durability {
    fn on_registry(registry: &mhp_telemetry::Registry) -> Self {
        Durability {
            shed_total: registry.counter("server_shed_total"),
            restore_total: registry.counter("server_restore_total"),
            restore_errors_total: registry.counter("server_restore_errors_total"),
            checkpoints_total: registry.counter("server_checkpoints_total"),
            checkpoint_errors_total: registry.counter("server_checkpoint_errors_total"),
            dedup_total: registry.counter("server_dedup_chunks_total"),
        }
    }
}

/// Token bucket for one tenant's ingest bytes/s quota: capacity is one
/// second of the sustained rate, refilled continuously.
struct TokenBucket {
    tokens: u64,
    last_refill: Instant,
}

impl TokenBucket {
    fn new(rate: u64) -> Self {
        TokenBucket {
            tokens: rate,
            last_refill: Instant::now(),
        }
    }

    /// Takes `cost` tokens if available (refilling first), else refuses.
    fn charge(&mut self, rate: u64, cost: u64) -> bool {
        let elapsed = self.last_refill.elapsed();
        self.last_refill = Instant::now();
        let refill = (elapsed.as_micros().min(u128::from(u64::MAX)) as u64 / 1_000)
            .saturating_mul(rate)
            / 1_000;
        self.tokens = self.tokens.saturating_add(refill).min(rate);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

/// Per-tenant accounting: quota state plus the labeled counters that make
/// tenancy observable in the shared registry's Prometheus exposition.
struct Tenancy {
    quotas: TenantQuotas,
    /// One ingest token bucket per tenant, created on first ingest.
    buckets: Mutex<HashMap<String, TokenBucket>>,
    sessions_opened: CounterVec,
    events_ingested: CounterVec,
    bytes_ingested: CounterVec,
    quota_rejections: CounterVec,
    evictions: CounterVec,
}

impl Tenancy {
    fn on_registry(registry: &mhp_telemetry::Registry, quotas: TenantQuotas) -> Self {
        Tenancy {
            quotas,
            buckets: Mutex::new(HashMap::new()),
            sessions_opened: CounterVec::new(
                registry,
                "server_tenant_sessions_opened_total",
                "tenant",
            ),
            events_ingested: CounterVec::new(
                registry,
                "server_tenant_events_ingested_total",
                "tenant",
            ),
            bytes_ingested: CounterVec::new(
                registry,
                "server_tenant_bytes_ingested_total",
                "tenant",
            ),
            quota_rejections: CounterVec::new(
                registry,
                "server_tenant_quota_rejections_total",
                "tenant",
            ),
            evictions: CounterVec::new(registry, "server_tenant_evictions_total", "tenant"),
        }
    }

    /// Charges `bytes` against the tenant's ingest budget.
    fn charge_ingest(&self, tenant: &str, bytes: u64) -> bool {
        let rate = self.quotas.max_bytes_per_sec;
        if rate == u64::MAX {
            return true;
        }
        let mut buckets = self.buckets.lock().expect("bucket lock poisoned");
        buckets
            .entry(tenant.to_string())
            .or_insert_with(|| TokenBucket::new(rate))
            .charge(rate, bytes)
    }
}

/// Shared state every connection handler sees.
struct Shared {
    config: ServerConfig,
    sessions: Registry,
    metrics: Metrics,
    durability: Durability,
    tenancy: Tenancy,
    /// Engine metric handles every session's engine reports through; on
    /// the same registry as [`Shared::metrics`].
    engine_telemetry: EngineTelemetry,
    /// Sketch introspection sink installed on every session's shard
    /// profilers; also feeds the shared registry.
    sketch_sink: Arc<dyn IntrospectionSink>,
    /// Per-request stage tracing: histograms and the sample reservoirs
    /// behind the `traces` query.
    tracer: Tracer,
    /// Zero point for session last-touch timestamps.
    epoch: Instant,
    /// Raised once by [`Shared::begin_shutdown`]; every loop polls it.
    shutdown: AtomicBool,
    /// Wakes the accept thread's reactor, which blocks until a connection
    /// arrives or this fires.
    waker: Waker,
}

impl Shared {
    /// The one way to stop the server: raise the shutdown flag, then wake
    /// the accept thread so it observes the flag now rather than at the
    /// next connection.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Milliseconds since the server epoch, for LRU timestamps.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }
}

/// The profiling service. [`bind`](Server::bind) it to get a
/// [`RunningServer`] handle.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<RunningServer, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::new()?;

        let metrics = Metrics::new();
        let durability = Durability::on_registry(metrics.registry());
        let tenancy = Tenancy::on_registry(metrics.registry(), config.tenant_quotas);
        let engine_telemetry = EngineTelemetry::new(metrics.registry());
        let sketch_sink: Arc<dyn IntrospectionSink> =
            Arc::new(RegistrySink::new(metrics.registry()));
        let tracer = Tracer::new(
            metrics.registry(),
            TraceConfig {
                prefix: "server",
                stages: SERVER_STAGES,
                enabled: config.tracing,
            },
        );
        let shared = Arc::new(Shared {
            config,
            sessions: Mutex::new(HashMap::new()),
            metrics,
            durability,
            tenancy,
            engine_telemetry,
            sketch_sink,
            tracer,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            waker: reactor.waker(),
        });

        // Restore checkpointed sessions before the first connection can
        // race a fresh `open` against them.
        if let Some(dir) = shared.config.state_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            restore_sessions(&dir, &shared);
        }

        let export_handle = shared.config.metrics_export_path.clone().map(|path| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || export_loop(&path, &shared))
        });
        let checkpoint_handle = shared.config.state_dir.clone().map(|dir| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || checkpoint_loop(&dir, &shared))
        });
        let eviction_handle = shared.config.session_memory_budget.map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || eviction_loop(&shared))
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle =
            std::thread::spawn(move || accept_loop(&listener, &accept_shared, reactor));

        Ok(RunningServer {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
            export_handle,
            checkpoint_handle,
            eviction_handle,
        })
    }
}

/// Appends one JSON metrics snapshot per export interval (and a final one
/// at shutdown) to `path`, one object per line. Polls the shutdown flag at
/// a ~50 ms cadence so shutdown never waits out a long interval.
fn export_loop(path: &std::path::Path, shared: &Shared) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    let Ok(file) = file else { return };
    let mut writer = BufWriter::new(file);
    let mut last = Instant::now();
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down || last.elapsed() >= shared.config.metrics_export_interval {
            let _ = writer.write_all(shared.metrics.registry().snapshot_json().as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
            last = Instant::now();
        }
        if shutting_down {
            // The final snapshot is followed by the trace stream — stage
            // summaries plus every sampled trace — so a postmortem read of
            // the export file has the whole observability picture.
            let _ = writer.write_all(shared.tracer.render_jsonl().as_bytes());
            let _ = writer.flush();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Checkpoints every live session each interval. Polls the shutdown flag
/// at a ~50 ms cadence; the final durable checkpoint at graceful shutdown
/// is taken by the accept loop's drain, which still owns live engines.
fn checkpoint_loop(dir: &Path, shared: &Shared) {
    let mut last = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if last.elapsed() >= shared.config.checkpoint_interval {
            let sessions: Vec<(String, Arc<Session>)> = {
                let registry = shared.sessions.lock().expect("registry lock poisoned");
                registry
                    .iter()
                    .map(|(name, session)| (name.clone(), Arc::clone(session)))
                    .collect()
            };
            for (name, session) in sessions {
                checkpoint_session(dir, &name, &session, &shared.durability);
            }
            last = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Enforces the session memory budget: sweeps at a ~100 ms cadence and
/// evicts least-recently-used *idle* sessions until the estimated total is
/// back under budget.
fn eviction_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        evict_over_budget(shared);
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One eviction sweep. Sessions are sized with
/// [`EngineSession::approx_memory_bytes`]; while the total exceeds the
/// budget, the least-recently-touched session with no attached connection
/// is checkpointed (when a state dir is configured — a later `attach`
/// then restores it transparently) and drained. Attached sessions are
/// never evicted, so a fully attached over-budget server stays over
/// budget rather than breaking live connections.
fn evict_over_budget(shared: &Shared) {
    let Some(budget) = shared.config.session_memory_budget else {
        return;
    };
    let sessions: Vec<(String, Arc<Session>)> = {
        let registry = shared.sessions.lock().expect("registry lock poisoned");
        registry
            .iter()
            .map(|(name, session)| (name.clone(), Arc::clone(session)))
            .collect()
    };
    let mut total = 0u64;
    let mut sized: Vec<(u64, String, Arc<Session>, u64)> = Vec::with_capacity(sessions.len());
    for (name, session) in sessions {
        let bytes = session
            .with_engine(|engine| Ok(engine.approx_memory_bytes()))
            .unwrap_or(0);
        total = total.saturating_add(bytes);
        let touched = session.last_touch_ms.load(Ordering::Relaxed);
        sized.push((touched, name, session, bytes));
    }
    if total <= budget {
        return;
    }
    // Oldest touch first; name breaks ties so sweeps are deterministic.
    sized.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    for (_, name, session, bytes) in sized {
        if total <= budget {
            break;
        }
        if session.attachments.load(Ordering::Acquire) > 0 {
            continue;
        }
        if let Some(dir) = &shared.config.state_dir {
            checkpoint_session(dir, &name, &session, &shared.durability);
        }
        // Unregister only if it is still this session and still idle; an
        // attach that raced past the check above simply sees a drained
        // session and re-attaches (restoring from the checkpoint).
        let removed = {
            let mut registry = shared.sessions.lock().expect("registry lock poisoned");
            match registry.get(&name) {
                Some(current)
                    if Arc::ptr_eq(current, &session)
                        && session.attachments.load(Ordering::Acquire) == 0 =>
                {
                    registry.remove(&name);
                    true
                }
                _ => false,
            }
        };
        if removed {
            session.drain();
            total = total.saturating_sub(bytes);
            shared.tenancy.evictions.incr(&session.tenant);
            shared.metrics.sessions_closed.incr();
        }
    }
}

/// The snapshot file for a session: the name hex-encoded (so arbitrary
/// session names stay filesystem-safe) plus `.snap`.
fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    use std::fmt::Write as _;
    let mut file = String::with_capacity(name.len() * 2 + 5);
    for byte in name.as_bytes() {
        let _ = write!(file, "{byte:02x}");
    }
    file.push_str(".snap");
    dir.join(file)
}

/// Serializes one session checkpoint: name, configuration, last applied
/// ingest sequence, and the engine snapshot, in a CRC-guarded envelope.
fn encode_checkpoint(
    name: &str,
    config: &SessionConfig,
    last_seq: u64,
    engine_blob: &[u8],
) -> Vec<u8> {
    let mut w = SnapshotWriter::new(KIND_SERVER_SESSION);
    w.put_bytes(name.as_bytes());
    w.put_u8(config.kind.as_u8());
    w.put_u32(u32::from(config.shards));
    w.put_u64(config.interval_len);
    w.put_f64(config.threshold);
    w.put_u64(config.seed);
    w.put_u64(last_seq);
    w.put_bytes(engine_blob);
    w.finish()
}

/// Parses a session checkpoint back into its parts, validating the
/// envelope (magic, version, kind, CRC) and every field.
fn decode_checkpoint(bytes: &[u8]) -> Result<(String, SessionConfig, u64, Vec<u8>), ServerError> {
    let corrupt = |context| {
        ServerError::from(mhp_pipeline::Error::Snapshot(SnapshotError::Corrupt {
            context,
        }))
    };
    let mut r = SnapshotReader::open(bytes, KIND_SERVER_SESSION)
        .map_err(|e| ServerError::from(mhp_pipeline::Error::Snapshot(e)))?;
    let snap = |e| ServerError::from(mhp_pipeline::Error::Snapshot(e));
    let name = String::from_utf8(r.take_bytes("session name").map_err(snap)?.to_vec())
        .map_err(|_| corrupt("session name utf-8"))?;
    if name.is_empty() || name.len() > MAX_NAME_BYTES {
        return Err(corrupt("session name length"));
    }
    let kind = ProfilerKind::from_u8(r.take_u8("profiler kind").map_err(snap)?)
        .ok_or_else(|| corrupt("profiler kind"))?;
    let shards = u16::try_from(r.take_u32("shard count").map_err(snap)?)
        .map_err(|_| corrupt("shard count"))?;
    let config = SessionConfig {
        kind,
        shards,
        interval_len: r.take_u64("interval length").map_err(snap)?,
        threshold: r.take_f64("threshold fraction").map_err(snap)?,
        seed: r.take_u64("hash seed").map_err(snap)?,
    };
    let last_seq = r.take_u64("last ingest sequence").map_err(snap)?;
    let blob = r.take_bytes("engine snapshot").map_err(snap)?.to_vec();
    r.expect_end().map_err(snap)?;
    Ok((name, config, last_seq, blob))
}

/// Atomic file replacement: the snapshot is complete on disk before it
/// takes the live name, so a crash mid-checkpoint leaves the previous
/// snapshot intact.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Takes one session checkpoint: snapshots the engine under the session
/// lock (a barrier across the shard workers), then atomically replaces
/// the on-disk file. A drained session is skipped, not an error.
fn checkpoint_session(dir: &Path, name: &str, session: &Session, durability: &Durability) {
    let snapshot = session.with_state(|state| {
        let Some(engine) = state.engine.as_mut() else {
            return Ok(None);
        };
        let blob = engine.save_state().map_err(ServerError::from)?;
        Ok(Some(encode_checkpoint(
            name,
            &session.config,
            state.last_seq,
            &blob,
        )))
    });
    match snapshot {
        Ok(None) => {}
        Ok(Some(bytes)) => {
            if write_atomically(&snapshot_path(dir, name), &bytes).is_ok() {
                durability.checkpoints_total.incr();
            } else {
                durability.checkpoint_errors_total.incr();
            }
        }
        Err(_) => durability.checkpoint_errors_total.incr(),
    }
}

/// Restores every `*.snap` in `dir` into the session registry, in sorted
/// path order so restart behaviour is deterministic. A snapshot that fails
/// to parse or restore is counted and skipped — one bad file must not take
/// the healthy sessions down with it.
fn restore_sessions(dir: &Path, shared: &Shared) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    paths.sort();
    for path in paths {
        let restored = std::fs::read(&path)
            .map_err(ServerError::from)
            .and_then(|bytes| restore_one(&bytes, shared));
        if restored.is_ok() {
            shared.durability.restore_total.incr();
            shared.metrics.sessions_opened.incr();
        } else {
            shared.durability.restore_errors_total.incr();
        }
    }
}

/// Rebuilds one session from checkpoint bytes and registers it.
fn restore_one(bytes: &[u8], shared: &Shared) -> Result<(), ServerError> {
    let (name, config, last_seq, blob) = decode_checkpoint(bytes)?;
    let engine = engine_builder(&config, shared)?.restore(&blob)?;
    let session = Arc::new(Session {
        config,
        tenant: tenant_of(&name).to_string(),
        last_touch_ms: AtomicU64::new(shared.now_ms()),
        attachments: AtomicU64::new(0),
        state: Mutex::new(SessionState {
            engine: Some(engine),
            last_seq,
        }),
    });
    let mut registry = shared.sessions.lock().expect("registry lock poisoned");
    if registry.contains_key(&name) {
        return Err(ServerError::protocol("duplicate session snapshot"));
    }
    registry.insert(name, session);
    Ok(())
}

/// A bound, running server: inspect its address, trigger shutdown, wait
/// for it to drain.
#[derive(Debug)]
pub struct RunningServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    export_handle: Option<JoinHandle<()>>,
    checkpoint_handle: Option<JoinHandle<()>>,
    eviction_handle: Option<JoinHandle<()>>,
}

// Shared holds no Debug members worth printing; keep the derive honest.
impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RunningServer {
    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Rendered metrics, same text the `stats` query returns.
    pub fn stats(&self) -> String {
        self.shared.metrics.render()
    }

    /// How many sessions were restored from on-disk checkpoints at bind.
    pub fn restored_sessions(&self) -> u64 {
        self.shared.durability.restore_total.get()
    }

    /// Prometheus text exposition of every metric, same text the
    /// `metrics` query returns.
    pub fn metrics(&self) -> String {
        self.shared.metrics.registry().render_prometheus()
    }

    /// Quantile summaries of the per-request stage histograms, in
    /// [`SERVER_STAGES`] order plus a final `"total"` entry.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.shared.tracer.stage_summaries()
    }

    /// The request-trace stream as JSONL — stage summaries followed by
    /// sampled traces — same text the `traces` query returns.
    pub fn traces_jsonl(&self) -> String {
        self.shared.tracer.render_jsonl()
    }

    /// Requests a graceful shutdown: stop accepting, let in-flight
    /// connections finish, drain every session. Returns immediately; use
    /// [`join`](Self::join) to wait.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the accept loop and every connection to finish and all
    /// sessions to be drained. Implies [`shutdown`](Self::shutdown).
    pub fn join(mut self) {
        self.shutdown();
        self.reap();
    }

    /// Blocks until the server shuts down — via a client `shutdown`
    /// request or a concurrent [`shutdown`](Self::shutdown) call —
    /// without triggering the shutdown itself.
    pub fn wait(mut self) {
        self.reap();
    }

    /// Joins the accept loop and (if running) the metrics exporter and
    /// checkpointer.
    fn reap(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The accept loop is gone, so the server is down even if nothing
        // raised the flag (e.g. a hard listener error); make sure the
        // exporter observes that and writes its final snapshot.
        self.shared.begin_shutdown();
        if let Some(handle) = self.export_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.checkpoint_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.eviction_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
        self.reap();
    }
}

/// Accepts until shutdown, then waits for live handlers and drains
/// sessions. [`mhp_net::accept_until`] blocks until a connection arrives
/// or [`Shared::begin_shutdown`] wakes it. The live count is the
/// `connections_active` gauge, which each handler lowers as it exits, so
/// the cap check sees every connection that closed while the loop was
/// blocked.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, reactor: Reactor) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let _ = mhp_net::accept_until(listener, reactor, &shared.shutdown, |stream| {
        handles.retain(|handle| !handle.is_finished());
        let live = shared.metrics.connections_active.get();
        if live >= shared.config.max_connections as u64 {
            shared.metrics.connections_rejected.incr();
            reject_overloaded(stream);
            return;
        }
        shared.metrics.connections_accepted.incr();
        shared.metrics.connections_active.incr();
        let shared = Arc::clone(shared);
        handles.push(std::thread::spawn(move || {
            handle_connection(stream, &shared);
            shared.metrics.connections_active.decr();
        }));
    });
    // Graceful drain: handlers observe the flag via read timeouts and
    // exit; then each session is checkpointed (when a state dir is
    // configured) while its engine is still live, and its shard workers
    // are joined.
    for handle in handles {
        let _ = handle.join();
    }
    drain_sessions(shared);
}

/// Final session teardown: checkpoint every session while its engine is
/// still live (when a state dir is configured), then join its shard
/// workers.
fn drain_sessions(shared: &Shared) {
    let sessions: Vec<(String, Arc<Session>)> = {
        let mut registry = shared.sessions.lock().expect("registry lock poisoned");
        registry.drain().collect()
    };
    for (name, session) in sessions {
        if let Some(dir) = &shared.config.state_dir {
            checkpoint_session(dir, &name, &session, &shared.durability);
        }
        session.drain();
        shared.metrics.sessions_closed.incr();
    }
}

/// Best-effort rejection of an over-limit connection with the retryable
/// `Overloaded` code, so a `ReconnectingClient` backs off and tries again
/// instead of giving up (being at the connection cap is transient by
/// nature). The write is bounded: a peer that cannot even absorb one tiny
/// frame is not worth waiting on.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(&error_frame(
        ErrorCode::Overloaded,
        "server is at its connection limit; back off and retry".into(),
    ));
}

/// The one encoder of error replies: a whole `Response::Error` frame.
fn error_frame(code: ErrorCode, message: String) -> Vec<u8> {
    Response::Error { code, message }.encode_frame()
}

/// Serves one connection until EOF, a protocol violation, or shutdown,
/// with blocking reads and writes. Each frame becomes a request, the
/// request becomes reply bytes, and the reply is written whole:
///
/// * A framing error (an oversized or truncated frame, a peer stalled
///   mid-frame) or a malformed body is a protocol error: error reply,
///   then close. Once shutdown begins, a new request is refused with
///   `shutting-down`.
/// * The trace is named for the decoded opcode and takes the decode time
///   as lead. The connection fault hook may cut the connection before the
///   request applies (`Drop`: a replayed chunk must then be re-applied) or
///   apply it and tear the reply (`TruncateResponse`: the replay must then
///   dedup); together they cover both halves of idempotent resume.
/// * A handler error becomes a `Response::Error` counted in
///   `errors_total`. Only a reply written whole finishes the trace and
///   records `request_latency`, from the start of frame decode.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    // Replies to a peer that stops reading wake at the same cadence, so
    // `write_frame_until` sees shutdown within one timeout.
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let stop = &shared.shutdown;
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    // The session this connection opened or attached to, if any. Dropping
    // the hold (replacement, close, or any handler exit) releases the
    // session back to the eviction sweep.
    let mut attached: Option<Attachment> = None;

    // `None` is a clean EOF, or shutdown seen at a read timeout.
    while let Some(frame) = read_frame_until(&mut reader, stop).transpose() {
        let body = match frame {
            Ok(body) => body,
            Err(err) => {
                shared.metrics.protocol_errors.incr();
                let error = error_frame(err.code(), err.wire_message());
                let _ = write_frame_until(&mut stream, &error, stop);
                return;
            }
        };
        if stop.load(Ordering::SeqCst) {
            let refusal = error_frame(ErrorCode::ShuttingDown, "server is shutting down".into());
            let _ = write_frame_until(&mut stream, &refusal, stop);
            return;
        }
        shared.metrics.requests_total.incr();
        let started = Instant::now();
        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(err) => {
                shared.metrics.protocol_errors.incr();
                shared.metrics.errors_total.incr();
                let error = error_frame(err.code(), err.wire_message());
                let _ = write_frame_until(&mut stream, &error, stop);
                return;
            }
        };
        // The trace kind is the decoded opcode, so it begins *after*
        // decode; the decode time lands as lead so the span still covers
        // it. A trace dropped on any abort path records nothing.
        let trace = shared.tracer.begin(request.op_name());
        trace.add_lead(STAGE_FRAME_DECODE, started.elapsed());
        let fault = match &shared.config.fault_hook {
            Some(hook) => hook.on_request(),
            None => ConnAction::Proceed,
        };
        if fault == ConnAction::Drop {
            return;
        }
        let mut reply = match handle_request(request, &mut attached, shared, &trace) {
            Ok(response) => response.encode_frame(),
            Err(err) => {
                shared.metrics.errors_total.incr();
                error_frame(err.code(), err.wire_message())
            }
        };
        if fault == ConnAction::TruncateResponse {
            // The length prefix and half the body, then hang up: exactly
            // what a server crashing mid-write produces.
            reply.truncate(4 + (reply.len() - 4) / 2);
            let _ = write_frame_until(&mut stream, &reply, stop);
            return;
        }
        let write_timer = trace.stage(STAGE_REPLY_WRITE);
        let written = write_frame_until(&mut stream, &reply, stop).is_ok();
        write_timer.finish();
        if !written {
            return;
        }
        trace.finish();
        shared
            .metrics
            .request_latency
            .record_duration(started.elapsed());
    }
}

/// Dispatches one decoded request against the shared state, on the
/// connection's own thread.
fn handle_request(
    request: Request,
    attached: &mut Option<Attachment>,
    shared: &Shared,
    trace: &Trace,
) -> Result<Response, ServerError> {
    match request {
        Request::Open { name, config } => {
            if name.is_empty() || name.len() > MAX_NAME_BYTES {
                return Err(ServerError::protocol("session name must be 1..=256 bytes"));
            }
            // An unusable config (zero shards, say) is a permanent
            // `bad-request`, not an `ingest` failure a client would retry.
            let session = Session::open(&name, &config, shared).map_err(|err| {
                ServerError::protocol_owned(format!("unusable session config: {err}"))
            })?;
            let session = Arc::new(session);
            let tenant = session.tenant.clone();
            {
                let mut registry = shared.sessions.lock().expect("registry lock poisoned");
                if registry.contains_key(&name) {
                    return Err(ServerError::Remote {
                        code: ErrorCode::SessionExists,
                        message: format!("session {name:?} already exists"),
                    });
                }
                // The session-count quota is checked under the registry
                // lock so two racing opens cannot both slip under it. The
                // rejected engine's workers are reaped when the Arc drops.
                let quota = shared.config.tenant_quotas.max_sessions;
                if quota != usize::MAX {
                    let held = registry.values().filter(|s| s.tenant == tenant).count();
                    if held >= quota {
                        shared.tenancy.quota_rejections.incr(&tenant);
                        return Err(ServerError::Remote {
                            code: ErrorCode::QuotaExceeded,
                            message: format!("tenant {tenant:?} is at its session quota ({quota})"),
                        });
                    }
                }
                registry.insert(name.clone(), Arc::clone(&session));
            }
            shared.metrics.sessions_opened.incr();
            shared.tenancy.sessions_opened.incr(&tenant);
            let info = session.info(&name)?;
            *attached = Some(Attachment::new(name, session));
            Ok(Response::Session(info))
        }
        Request::Attach { name } => {
            let session = lookup_or_restore(&name, shared)?;
            session.touch(shared);
            let info = session.info(&name)?;
            *attached = Some(Attachment::new(name, session));
            Ok(Response::Session(info))
        }
        Request::Ingest { mut chunk } => {
            let session = admit_chunk(attached, &mut chunk, shared, trace)?;
            reject_trailing_bytes(&chunk)?;
            session
                .with_engine(|engine| apply_chunk(engine, &chunk, &session.tenant, shared, trace))
        }
        Request::IngestSeq { seq, mut chunk } => {
            let session = admit_chunk(attached, &mut chunk, shared, trace)?;
            if seq == 0 {
                return Err(ServerError::protocol("ingest sequence numbers are 1-based"));
            }
            // The sequence check and the ingest it guards happen under
            // one lock acquisition, so two connections replaying the same
            // chunk cannot both apply it.
            session.with_state(|state| {
                let engine = state.engine.as_mut().ok_or_else(drained)?;
                if seq <= state.last_seq {
                    shared.durability.dedup_total.incr();
                    return Ok(Response::Ingested {
                        events: engine.events(),
                        intervals: engine.intervals(),
                    });
                }
                if seq != state.last_seq + 1 {
                    return Err(ServerError::Remote {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "ingest sequence gap: got {seq}, expected {}",
                            state.last_seq + 1
                        ),
                    });
                }
                reject_trailing_bytes(&chunk)?;
                let reply = apply_chunk(engine, &chunk, &session.tenant, shared, trace)?;
                state.last_seq = seq;
                Ok(reply)
            })
        }
        Request::Resume => {
            let session = require_attached(attached, shared)?;
            let last_seq = session.with_state(|state| Ok(state.last_seq))?;
            Ok(Response::Resume { last_seq })
        }
        Request::Cut => {
            let session = require_attached(attached, shared)?;
            let profile = session.with_engine(|engine| {
                let before = engine.intervals();
                let profile = engine.cut()?;
                shared
                    .metrics
                    .intervals_completed
                    .add(engine.intervals() - before);
                Ok(profile)
            })?;
            Ok(match profile {
                Some(profile) => Response::Profile(ProfileData::from_profile(&profile)),
                None => Response::NoProfile,
            })
        }
        Request::Snapshot { interval } => {
            let session = require_attached(attached, shared)?;
            let profile = session.with_engine(|engine| {
                let profiles = engine.profiles()?;
                let index = if interval == u64::MAX {
                    profiles.len().checked_sub(1)
                } else {
                    usize::try_from(interval).ok()
                };
                Ok(index
                    .and_then(|i| profiles.get(i))
                    .map(ProfileData::from_profile))
            })?;
            Ok(match profile {
                Some(profile) => Response::Profile(profile),
                None => Response::NoProfile,
            })
        }
        Request::TopK { n } => {
            let session = require_attached(attached, shared)?;
            let candidates = session.with_engine(|engine| Ok(engine.top_k(n as usize)?))?;
            Ok(Response::TopK(candidates))
        }
        Request::ListSessions => {
            let sessions: Vec<(String, Arc<Session>)> = {
                let registry = shared.sessions.lock().expect("registry lock poisoned");
                registry
                    .iter()
                    .map(|(name, session)| (name.clone(), Arc::clone(session)))
                    .collect()
            };
            let mut infos: Vec<SessionInfo> = Vec::with_capacity(sessions.len());
            for (name, session) in sessions {
                // A session drained mid-listing is omitted, not an error.
                if let Ok(info) = session.info(&name) {
                    infos.push(info);
                }
            }
            infos.sort_by(|a, b| a.name.cmp(&b.name));
            Ok(Response::SessionList {
                sessions: infos,
                upstreams: Vec::new(),
            })
        }
        Request::Stats => Ok(Response::Stats(shared.metrics.render())),
        Request::Metrics => Ok(Response::Metrics(
            shared.metrics.registry().render_prometheus(),
        )),
        Request::Traces => Ok(Response::Traces(shared.tracer.render_jsonl())),
        Request::CloseSession => {
            let hold = attached.take().ok_or_else(|| {
                ServerError::protocol("close-session requires an attached session")
            })?;
            shared
                .sessions
                .lock()
                .expect("registry lock poisoned")
                .remove(&hold.name);
            hold.session.drain();
            // The session was destroyed on purpose; it must not resurrect
            // on the next restart.
            if let Some(dir) = &shared.config.state_dir {
                let _ = std::fs::remove_file(snapshot_path(dir, &hold.name));
            }
            shared.metrics.sessions_closed.incr();
            Ok(Response::Done)
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            Ok(Response::Done)
        }
    }
}

/// What both ingest requests run before their chunk reaches the engine,
/// in order: the attached session, the connection watermark (timed as
/// `admission_wait`), the tenant's byte budget, then the chunk fault hook.
fn admit_chunk<'a>(
    attached: &'a Option<Attachment>,
    chunk: &mut [u8],
    shared: &Shared,
    trace: &Trace,
) -> Result<&'a Arc<Session>, ServerError> {
    let session = require_attached(attached, shared)?;
    let admission = trace.stage(STAGE_ADMISSION_WAIT);
    ingest_admission(shared)?;
    admission.finish();
    charge_tenant_ingest(session, chunk.len(), shared)?;
    apply_chunk_faults(shared, chunk);
    Ok(session)
}

/// Applies one checked chunk to `engine` under the caller's session lock
/// and accounts for it; both ingest requests run exactly this. The ring
/// handoff (blocking stalls included) is split out as `dispatch`, so
/// `ingest` is pure decode and sketch work.
fn apply_chunk(
    engine: &mut EngineSession,
    chunk: &[u8],
    tenant: &str,
    shared: &Shared,
    trace: &Trace,
) -> Result<Response, ServerError> {
    // Partition-while-decoding: the engine routes records into per-shard
    // batches straight out of the varint decoder, so the chunk is never
    // materialized in a flat buffer and re-scanned. Header and CRC are
    // verified before any record is ingested, so a corrupt chunk (fault
    // injection included) is rejected whole.
    let decode_started = Instant::now();
    let events_before = engine.events();
    let intervals_before = engine.intervals();
    let consumed = engine.ingest_chunk(chunk)?;
    let handoff = engine.take_handoff_time();
    let decode_elapsed = decode_started.elapsed();
    debug_assert_eq!(
        consumed,
        chunk.len(),
        "pre-checked by reject_trailing_bytes"
    );
    shared.metrics.chunk_decode.record_duration(decode_elapsed);
    trace.add(STAGE_DISPATCH, handoff);
    trace.add(STAGE_INGEST, decode_elapsed.saturating_sub(handoff));
    let (events, intervals) = (engine.events(), engine.intervals());
    let ingested = events - events_before;
    shared
        .metrics
        .intervals_completed
        .add(intervals - intervals_before);
    shared.metrics.chunks_ingested.incr();
    shared.metrics.events_ingested.add(ingested);
    shared.tenancy.events_ingested.add(tenant, ingested);
    shared
        .tenancy
        .bytes_ingested
        .add(tenant, chunk.len() as u64);
    Ok(Response::Ingested { events, intervals })
}

/// Admission control for ingest: sheds with a typed `Overloaded` response
/// once live connections exceed the watermark. The shed is explicit and
/// cheap — the alternative is queueing work the engine cannot keep up
/// with until memory or latency gives out.
fn ingest_admission(shared: &Shared) -> Result<(), ServerError> {
    let live = shared.metrics.connections_active.get();
    if live > shared.config.overload_connection_watermark as u64 {
        shared.durability.shed_total.incr();
        return Err(ServerError::Remote {
            code: ErrorCode::Overloaded,
            message: "server is over its load watermark; back off and retry".into(),
        });
    }
    Ok(())
}

/// Consults the armed fault plan (if any) for this chunk: may flip one
/// byte in place (caught downstream by the chunk CRC) and/or stall the
/// consumer. Disarmed or absent plans cost one branch.
fn apply_chunk_faults(shared: &Shared, chunk: &mut [u8]) {
    if let Some(hook) = &shared.config.fault_hook {
        let fault = hook.on_ingest_chunk(chunk);
        if let Some(pause) = fault.stall {
            std::thread::sleep(pause);
        }
    }
}

/// Rejects an ingest buffer with bytes beyond its one declared chunk,
/// *before* anything reaches the engine: the error is a protocol error the
/// client will retry, so a half-applied chunk would double-ingest every
/// event (and skew the ingest counters, which the error path skips).
///
/// Only the trailing-garbage case is decided here, from the header's
/// declared length alone. Every other malformed-header shape (truncated,
/// implausible sizes, payload shorter than declared) is left to the
/// decoder's own gauntlet, which also fires before any record is ingested
/// and keeps its existing error codes.
fn reject_trailing_bytes(chunk: &[u8]) -> Result<(), ServerError> {
    if declared_chunk_len(chunk).is_ok_and(|len| len < chunk.len()) {
        return Err(ServerError::protocol("trailing bytes after ingest chunk"));
    }
    Ok(())
}

/// The attached session, freshly touched — every session-targeted request
/// resets its place in the LRU eviction order.
fn require_attached<'a>(
    attached: &'a Option<Attachment>,
    shared: &Shared,
) -> Result<&'a Arc<Session>, ServerError> {
    let hold = attached.as_ref().ok_or_else(|| {
        ServerError::protocol("this request requires an open or attached session")
    })?;
    hold.session.touch(shared);
    Ok(&hold.session)
}

/// Charges an ingest chunk against the session tenant's bytes/s budget.
/// The charge lands on arrival — the bytes crossed the wire whether or
/// not the chunk later turns out to be a replay.
fn charge_tenant_ingest(
    session: &Session,
    bytes: usize,
    shared: &Shared,
) -> Result<(), ServerError> {
    if shared.tenancy.charge_ingest(&session.tenant, bytes as u64) {
        return Ok(());
    }
    shared.tenancy.quota_rejections.incr(&session.tenant);
    Err(ServerError::Remote {
        code: ErrorCode::QuotaExceeded,
        message: format!(
            "tenant {:?} is over its ingest byte budget; back off and retry",
            session.tenant
        ),
    })
}

/// Finds a live session by name; on a miss with a state dir configured,
/// tries to restore it from its on-disk checkpoint — the other half of
/// budget eviction, which checkpoints before it drains.
fn lookup_or_restore(name: &str, shared: &Shared) -> Result<Arc<Session>, ServerError> {
    let lookup = || {
        shared
            .sessions
            .lock()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    };
    if let Some(session) = lookup() {
        return Ok(session);
    }
    if let Some(dir) = &shared.config.state_dir {
        if let Ok(bytes) = std::fs::read(snapshot_path(dir, name)) {
            if restore_one(&bytes, shared).is_ok() {
                shared.durability.restore_total.incr();
                shared.metrics.sessions_opened.incr();
            }
            // Re-lookup either way: losing a restore race to a concurrent
            // attach is success, not corruption.
            if let Some(session) = lookup() {
                return Ok(session);
            }
            shared.durability.restore_errors_total.incr();
        }
    }
    Err(ServerError::Remote {
        code: ErrorCode::UnknownSession,
        message: format!("no session named {name:?}"),
    })
}
