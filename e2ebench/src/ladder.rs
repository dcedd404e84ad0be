//! The traced ladder: the public entry point of each crate timed on the
//! workload's own seeded inputs, one rung on top of the next.
//!
//! 1. `core`: bare `MultiHashProfiler::observe_batch`.
//! 2. `pipeline`: `EngineSession::push_slice` (rung 1 plus the engine
//!    handoff to its shard thread).
//! 3. `pipeline`: `EngineSession::ingest_chunk` from the encoded bytes
//!    (rung 2 with decode and partition in place of a ready slice).
//! 4. `server`: one uncontended loopback connection to a fresh
//!    default-configured server.
//!
//! Rung 5, the aggregator pull, is measured in the workload rounds
//! themselves. Each rung's cost is reported as its delta from the rung
//! below ([`Rungs`]).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mhp_core::{CollectingSink, EventProfiler, IntrospectionSink, MultiHashProfiler};
use mhp_pipeline::{decode_chunk_into, EngineConfig, EngineSession, ProfilerSpec, ShardedEngine};
use mhp_server::{Client, Request, Response};

use crate::schedule::micros;
use crate::server_proc::ServerProcess;
use crate::stats::median;
use crate::workload::{InputSet, SessionInput, Shape, TOP_K};

/// Live-query and attach samples taken per rung.
const QUERY_SAMPLES: usize = 256;

/// The rung costs, with the delta arithmetic between them.
///
/// Rungs 1–3 are CPU time summed over every thread of the process, per
/// event: from rung 2 on, the sketch work runs on the engine's shard
/// thread in parallel with the caller, so wall time would hide the
/// handoff's cost behind that parallelism — a cost the server pays in
/// full once both CPUs are busy. Rung 4 is a round trip, so it is
/// compared with rung 3's wall time per chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rungs {
    /// Rung 1: `observe_batch`, CPU ns per event.
    pub core_ns: f64,
    /// Rung 2: `push_slice` through the engine, CPU ns per event.
    pub push_slice_ns: f64,
    /// Rung 3: `ingest_chunk` from encoded bytes, CPU ns per event.
    pub ingest_chunk_ns: f64,
    /// Rung 3: wall time per chunk, µs.
    pub ingest_chunk_wall_us: f64,
    /// Rung 4: mean ingest round trip of one chunk, µs — the mean, like
    /// rung 3's wall time per chunk, because a chunk that finds the shard
    /// ring full waits for it to drain, so round trips are bimodal.
    pub server_rtt_us: f64,
}

impl Rungs {
    /// Rung 2 − rung 1: what handing events to the shard thread costs on
    /// top of the sketch work, CPU ns per event.
    pub fn handoff_ns(&self) -> f64 {
        self.push_slice_ns - self.core_ns
    }

    /// Rung 4 − rung 3 per chunk: the request's cost outside the engine
    /// (framing, socket, dispatch, reply), µs.
    pub fn request_overhead_us(&self) -> f64 {
        self.server_rtt_us - self.ingest_chunk_wall_us
    }
}

/// Everything the ladder measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReport {
    /// The rung costs.
    pub rungs: Rungs,
    /// Promotions dropped ÷ promotions attempted, from an untimed
    /// `CollectingSink` pass.
    pub promotion_drop_ratio: f64,
    /// Occupied ÷ total hash counters at interval end, same pass.
    pub counter_occupancy: f64,
    /// `decode_chunk_into`, ns per event.
    pub decode_ns: f64,
    /// `EngineSession::take_handoff_time` over rung 2, ns per event.
    pub handoff_wait_ns: f64,
    /// Full-ring stalls over one rung-2 pass (`shard_stats`).
    pub ring_stalls: u64,
    /// Median `ShardedEngine::start`, µs.
    pub session_start_us: f64,
    /// Median `EngineSession::finish` after a session's events, µs.
    pub session_finish_us: f64,
    /// Median `EngineSession::top_k(16)` mid-stream, µs.
    pub top_k_us: f64,
    /// Median `open` round trip on the uncontended connection, µs.
    pub open_session_us: f64,
    /// Median `attach` round trip, µs.
    pub attach_rtt_us: f64,
    /// Median `top_k(16)` + `snapshot(latest)` from send, µs.
    pub query_service_us: f64,
}

/// Runs every rung on input set `inputs` (which must keep its raw
/// events), repeating each timed pass `reps` times and reporting the
/// median pass.
pub fn run(
    shape: &Shape,
    inputs: &InputSet,
    exe: &Path,
    reps: usize,
) -> Result<LadderReport, String> {
    let events = inputs.total_events() as f64;
    let chunks: usize = inputs.sessions.iter().map(|s| s.chunks.len()).sum();

    let core = median_pass(reps, || rung_core(shape, inputs));
    let (promotion_drop_ratio, counter_occupancy) = sketch_health(shape, inputs);

    let mut starts = Vec::new();
    let mut finishes = Vec::new();
    let mut handoff_wait = Vec::new();
    let mut ring_stalls = Vec::new();
    let push_slice = median_pass(reps, || {
        let pass = engine_pass(shape, inputs, Feed::Slice, &mut starts, &mut finishes);
        handoff_wait.push(pass.handoff_wait_ns);
        ring_stalls.push(pass.stalls as f64);
        pass.busy
    });
    let decode = median_pass(reps, || rung_decode(shape, inputs));
    let ingest_chunk = median_pass(reps, || {
        engine_pass(shape, inputs, Feed::Chunk, &mut starts, &mut finishes).busy
    });
    let top_k_us = engine_top_k_us(&inputs.sessions[0])?;

    let server = server_rung(inputs, exe)?;
    Ok(LadderReport {
        rungs: Rungs {
            core_ns: core.cpu_ns / events,
            push_slice_ns: push_slice.cpu_ns / events,
            ingest_chunk_ns: ingest_chunk.cpu_ns / events,
            ingest_chunk_wall_us: ingest_chunk.wall_ns / 1_000.0 / chunks as f64,
            server_rtt_us: server.ingest_rtt_us,
        },
        promotion_drop_ratio,
        counter_occupancy,
        decode_ns: decode.cpu_ns / events,
        handoff_wait_ns: median(&handoff_wait).unwrap_or(0.0) / events,
        ring_stalls: median(&ring_stalls).unwrap_or(0.0) as u64,
        session_start_us: median(&starts).unwrap_or(0.0),
        session_finish_us: median(&finishes).unwrap_or(0.0),
        top_k_us,
        open_session_us: server.open_us,
        attach_rtt_us: server.attach_us,
        query_service_us: server.query_us,
    })
}

/// CPU time consumed so far by every live thread of this process, in
/// nanoseconds (`/proc/self/task/*/schedstat`, first field).
fn process_cpu_ns() -> u64 {
    // The kernel folds a running thread's current slice into that figure
    // only when it passes through the scheduler; yielding makes the
    // calling thread's own count current instead of up to a tick stale.
    std::thread::yield_now();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// The cost of one timed pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Busy {
    /// CPU time across every thread of the process, ns.
    cpu_ns: f64,
    /// Wall time, ns.
    wall_ns: f64,
}

impl Busy {
    /// Times `work`. Every thread that does the work must still be alive
    /// when it returns: a thread that has exited takes its CPU time out
    /// of `/proc/self/task`.
    fn of(work: impl FnOnce()) -> Busy {
        let (cpu, wall) = (process_cpu_ns(), Instant::now());
        work();
        Busy {
            wall_ns: nanos(wall.elapsed()),
            cpu_ns: process_cpu_ns().saturating_sub(cpu) as f64,
        }
    }

    fn add(&mut self, other: Busy) {
        self.cpu_ns += other.cpu_ns;
        self.wall_ns += other.wall_ns;
    }
}

/// The median CPU and wall time of `reps` runs of `pass`.
fn median_pass(reps: usize, mut pass: impl FnMut() -> Busy) -> Busy {
    let passes: Vec<Busy> = (0..reps.max(1)).map(|_| pass()).collect();
    let med = |f: fn(&Busy) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Busy {
        cpu_ns: med(|b| b.cpu_ns).expect("at least one pass"),
        wall_ns: med(|b| b.wall_ns).expect("at least one pass"),
    }
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// A bare profiler built exactly as the engine builds a session's shard.
fn bare_profiler(session: &SessionInput) -> MultiHashProfiler {
    let ProfilerSpec::MultiHash(config) = session.config.kind.spec() else {
        unreachable!("every workload session is multi-hash")
    };
    MultiHashProfiler::new(session.interval(), config, session.config.seed)
        .expect("workload profiler config is valid")
}

/// Rung 1: `observe_batch` over every session's events, in the same
/// slices the sessions receive as chunks. Profiler construction is
/// outside the timer.
fn rung_core(shape: &Shape, inputs: &InputSet) -> Busy {
    let mut busy = Busy::default();
    for session in &inputs.sessions {
        let mut profiler = bare_profiler(session);
        busy.add(Busy::of(|| {
            for chunk in session.events.chunks(shape.chunk_events) {
                black_box(profiler.observe_batch(black_box(chunk)));
            }
        }));
    }
    busy
}

/// The untimed introspection pass: per-interval sketch snapshots of the
/// same profilers as rung 1.
fn sketch_health(shape: &Shape, inputs: &InputSet) -> (f64, f64) {
    let sink = Arc::new(CollectingSink::new());
    for session in &inputs.sessions {
        let mut profiler = bare_profiler(session);
        profiler.set_introspection_sink(Some(Arc::clone(&sink) as Arc<dyn IntrospectionSink>));
        for chunk in session.events.chunks(shape.chunk_events) {
            profiler.observe_batch(chunk);
        }
    }
    let (mut dropped, mut promoted, mut occupied, mut counters) = (0u64, 0u64, 0u64, 0u64);
    for s in sink.snapshots() {
        dropped += s.promotions_dropped;
        promoted += s.promotions;
        occupied += s.counters_occupied;
        counters += s.counters_total;
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    (
        ratio(dropped, dropped + promoted),
        ratio(occupied, counters),
    )
}

/// `decode_chunk_into` over every encoded chunk.
fn rung_decode(shape: &Shape, inputs: &InputSet) -> Busy {
    let mut buf = Vec::with_capacity(shape.chunk_events);
    Busy::of(|| {
        for session in &inputs.sessions {
            for i in 0..session.chunks.len() {
                buf.clear();
                decode_chunk_into(black_box(session.chunk_bytes(i)), &mut buf)
                    .expect("pre-encoded chunk decodes");
                black_box(&buf);
            }
        }
    })
}

/// How an engine pass feeds its sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// `push_slice` of the raw events, chunk by chunk (rung 2).
    Slice,
    /// `ingest_chunk` of the encoded bytes (rung 3).
    Chunk,
}

struct EnginePass {
    busy: Busy,
    handoff_wait_ns: f64,
    stalls: u64,
}

fn start_session(session: &SessionInput) -> EngineSession {
    ShardedEngine::new(
        EngineConfig::new(session.config.shards as usize),
        session.interval(),
        session.config.kind.spec(),
        session.config.seed,
    )
    .start()
    .expect("engine session starts")
}

/// One pass of every session through a live `EngineSession`. Start and
/// finish are timed on their own; the busy time runs from the first event
/// to the last interval's merged profile — every session ends on an
/// interval boundary, so that waits for all shard work — while the shard
/// thread is still alive to be counted.
fn engine_pass(
    shape: &Shape,
    inputs: &InputSet,
    feed: Feed,
    starts: &mut Vec<f64>,
    finishes: &mut Vec<f64>,
) -> EnginePass {
    let mut pass = EnginePass {
        busy: Busy::default(),
        handoff_wait_ns: 0.0,
        stalls: 0,
    };
    for session in &inputs.sessions {
        let t = Instant::now();
        let mut engine = start_session(session);
        starts.push(micros(t.elapsed()));
        pass.busy.add(Busy::of(|| {
            match feed {
                Feed::Slice => {
                    for chunk in session.events.chunks(shape.chunk_events) {
                        engine.push_slice(chunk).expect("push_slice");
                    }
                }
                Feed::Chunk => {
                    for i in 0..session.chunks.len() {
                        engine
                            .ingest_chunk(session.chunk_bytes(i))
                            .expect("ingest_chunk");
                    }
                }
            }
            black_box(engine.profiles().expect("profiles"));
        }));
        pass.handoff_wait_ns += nanos(engine.take_handoff_time());
        pass.stalls += engine.shard_stats().iter().map(|s| s.stalls).sum::<u64>();
        let t = Instant::now();
        engine.finish().expect("finish");
        finishes.push(micros(t.elapsed()));
    }
    pass
}

/// Median `top_k(16)` on a live session, sampled after each of its first
/// chunks.
fn engine_top_k_us(session: &SessionInput) -> Result<f64, String> {
    let mut engine = start_session(session);
    let mut samples = Vec::new();
    for i in 0..session.chunks.len().min(QUERY_SAMPLES) {
        engine
            .ingest_chunk(session.chunk_bytes(i))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        black_box(engine.top_k(TOP_K as usize).map_err(|e| e.to_string())?);
        samples.push(micros(t.elapsed()));
    }
    engine.finish().map_err(|e| e.to_string())?;
    median(&samples).ok_or_else(|| "no top-k samples".into())
}

struct ServerRung {
    open_us: f64,
    attach_us: f64,
    ingest_rtt_us: f64,
    query_us: f64,
}

/// Rung 4: the workload's requests, one at a time, on a single
/// connection to a fresh server.
fn server_rung(inputs: &InputSet, exe: &Path) -> Result<ServerRung, String> {
    let server = ServerProcess::spawn(exe)?;
    let result = server_requests(inputs, server.addr());
    server.stop()?;
    result
}

fn server_requests(inputs: &InputSet, addr: std::net::SocketAddr) -> Result<ServerRung, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut timed = |request: &Request| -> Result<f64, String> {
        let t = Instant::now();
        match client.call(request).map_err(|e| e.to_string())? {
            Response::Error { code, message } => Err(format!("{code:?}: {message}")),
            _ => Ok(micros(t.elapsed())),
        }
    };

    let mut opens = Vec::new();
    for session in &inputs.sessions {
        let open = Request::Open {
            name: session.name.clone(),
            config: session.config.clone(),
        };
        opens.push(timed(&open)?);
    }

    let sessions = &inputs.sessions;
    let reattach = sessions.len() > 1;
    let mut attaches = Vec::new();
    let mut ingests = Vec::new();
    let steps = sessions.iter().map(|s| s.chunks.len()).max().unwrap_or(0);
    for step in 0..steps {
        for session in sessions {
            let Some(chunk) = session.chunks.get(step) else {
                continue;
            };
            if reattach {
                attaches.push(timed(&session.attach)?);
            }
            ingests.push(timed(chunk)?);
        }
    }
    // Single-session workloads attach only at set-up; sample it here.
    while attaches.len() < QUERY_SAMPLES {
        let session = &sessions[attaches.len() % sessions.len()];
        attaches.push(timed(&session.attach)?);
    }

    timed(&sessions[0].attach)?;
    let top_k = Request::TopK { n: TOP_K };
    let latest = Request::Snapshot { interval: u64::MAX };
    let mut queries = Vec::new();
    for _ in 0..QUERY_SAMPLES {
        let t = Instant::now();
        timed(&top_k)?;
        timed(&latest)?;
        queries.push(micros(t.elapsed()));
    }
    // Workloads with few sessions open a few more, so the median is not
    // one cold open.
    while opens.len() < QUERY_SAMPLES / 4 {
        let probe = Request::Open {
            name: format!("probe/{}", opens.len()),
            config: sessions[0].config.clone(),
        };
        opens.push(timed(&probe)?);
    }
    let med = |v: &[f64]| median(v).ok_or_else(|| "no samples".to_string());
    Ok(ServerRung {
        open_us: med(&opens)?,
        attach_us: med(&attaches)?,
        ingest_rtt_us: ingests.iter().sum::<f64>() / ingests.len().max(1) as f64,
        query_us: med(&queries)?,
    })
}
