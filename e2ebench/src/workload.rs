//! The three workloads, why each exists, and their seeded inputs.
//!
//! Every input is generated, encoded and checked offline during set-up,
//! outside every timer: the server receives only pre-encoded chunks, and
//! the expected answers (offline `ShardedEngine` profiles, the offline
//! `AggState` merge, and the Eq. 1 error against `PerfectProfiler`) are
//! ready before the first request is sent.

use mhp_agg::AggState;
use mhp_analysis::compare_interval;
use mhp_core::{Candidate, IntervalConfig, PerfectProfiler, Tuple};
use mhp_pipeline::{encode_chunk, EngineConfig, ShardedEngine};
use mhp_server::{ProfileData, Request, SessionConfig};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

/// Live top-k width the dashboard and the output checks ask for.
pub const TOP_K: u32 = 16;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections, each streaming its own long session in
    /// 4096-event chunks, closed loop, and reading the session's live
    /// top-k after every 16th chunk.
    ///
    /// Why: the work is almost all sketch updates, chunk decode and
    /// partition, and the engine handoff; per-request and per-session
    /// costs are amortised to almost nothing. A faster `observe_batch`,
    /// decoder or ring shows here first.
    Stream,
    /// Two connections × 256 sessions (one tenant per connection). Each
    /// connection cycles `attach` + one 512-event chunk round-robin over
    /// its sessions, closed loop; every session ends on an interval
    /// boundary, and an aggregator then pulls all ~2k completed intervals.
    ///
    /// Why: per-request and per-session costs dominate — attach, the
    /// session registry, and one engine thread per session — while sketch
    /// work per request is 8× smaller than on `stream`. Turning sessions
    /// into state rather than threads should move this workload and leave
    /// `stream` alone.
    ///
    /// Not listed in `BENCHMARK.json` yet: with ~516 server threads its
    /// figures vary from run to run by up to a fifth of their median even
    /// on one CPU, too close to the benchmark's widest bound. Run it by
    /// name.
    Fanout,
    /// One recorder connection streams one session in 4096-event chunks,
    /// closed loop, while one dashboard connection attached to the same
    /// session sends `top_k(16)` + `snapshot(latest)` on a fixed 5 ms
    /// schedule (open loop, latency from the due time).
    ///
    /// Why: reads and writes share one session's state. A change that
    /// speeds ingest by holding the session longer shows up here as read
    /// latency. A read waits for the session's shard ring to drain, about
    /// 1.5 ms here; at a 2 ms period the single dashboard connection runs
    /// near saturation and its p50 swings threefold from run to run.
    Mixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Fanout, Workload::Mixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Fanout => "fanout",
            Workload::Mixed => "mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size at `scale`.
    pub fn shape(self, scale: Scale) -> Shape {
        let full = scale == Scale::Full;
        match self {
            // Session lengths are whole numbers of intervals, so every
            // session ends on an interval boundary.
            Workload::Stream => Shape {
                ingest_connections: 2,
                sessions_per_connection: 1,
                sessions_per_stream: 1,
                events_per_session: if full { 1_000_000 } else { 40_960 },
                chunk_events: 4_096,
                interval_len: if full { 10_000 } else { 2_048 },
                dashboard: false,
                input_sets: if full { 8 } else { 2 },
            },
            Workload::Fanout => Shape {
                ingest_connections: 2,
                sessions_per_connection: if full { 256 } else { 8 },
                sessions_per_stream: if full { 64 } else { 4 },
                events_per_session: if full { 8_192 } else { 4_096 },
                chunk_events: 512,
                interval_len: 2_048,
                dashboard: false,
                input_sets: if full { 8 } else { 2 },
            },
            Workload::Mixed => Shape {
                ingest_connections: 1,
                sessions_per_connection: 1,
                sessions_per_stream: 1,
                events_per_session: if full { 1_000_000 } else { 40_960 },
                chunk_events: 4_096,
                interval_len: if full { 10_000 } else { 2_048 },
                dashboard: true,
                input_sets: if full { 16 } else { 2 },
            },
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few chunks per session, for tests.
    Tiny,
}

/// A workload's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Connections that open sessions and stream chunks.
    pub ingest_connections: usize,
    /// Sessions each ingest connection opens and feeds.
    pub sessions_per_connection: usize,
    /// Consecutive sessions of one connection cut from the same gcc
    /// stream, like many profiling sessions of one long-running program.
    pub sessions_per_stream: usize,
    /// Events streamed into every session.
    pub events_per_session: usize,
    /// Events per encoded chunk (one ingest request).
    pub chunk_events: usize,
    /// Interval length of every session.
    pub interval_len: u64,
    /// Whether a dashboard connection reads the first session on a
    /// schedule while it is fed.
    pub dashboard: bool,
    /// Distinct input sets generated per run; round `i` of a run serves
    /// set `i mod input_sets`. Eq. 1 error is rare at these sizes — on
    /// `fanout` about one interval in forty errs at all — and differs
    /// from one gcc stream to the next, so every run averages it over
    /// 16 or more streams; with fewer, `weighted_error_pct` swings with
    /// the seed.
    pub input_sets: usize,
}

/// One session's inputs and its expected answers.
#[derive(Debug)]
pub struct SessionInput {
    /// Registry name, `tenant/...`.
    pub name: String,
    /// The tenant the name places the session in.
    pub tenant: String,
    /// The ingest connection that opens and feeds the session.
    pub connection: usize,
    /// Session configuration: the multi-hash default with the workload's
    /// interval length.
    pub config: SessionConfig,
    /// The raw events; kept only in the first input set, for the
    /// ladder's in-process rungs.
    pub events: Vec<Tuple>,
    /// The session's `Attach` request, built once.
    pub attach: Request,
    /// One pre-encoded `Ingest` request per chunk.
    pub chunks: Vec<Request>,
    /// Events in each chunk.
    pub chunk_events: Vec<usize>,
    /// Every completed interval of an offline `ShardedEngine` run.
    pub expected: Vec<ProfileData>,
    /// The offline engine's live top-k once every event is in.
    pub expected_top_k: Vec<Candidate>,
}

impl SessionInput {
    /// The encoded chunk bytes of request `i`.
    pub fn chunk_bytes(&self, i: usize) -> &[u8] {
        match &self.chunks[i] {
            Request::Ingest { chunk } => chunk,
            other => unreachable!("chunk list holds {other:?}"),
        }
    }

    /// The session's interval configuration.
    pub fn interval(&self) -> IntervalConfig {
        IntervalConfig::new(self.config.interval_len, self.config.threshold)
            .expect("workload interval config is valid")
    }
}

/// One input set: every session of one round, with the expected
/// aggregate.
#[derive(Debug)]
pub struct InputSet {
    /// Every session, grouped by connection in order.
    pub sessions: Vec<SessionInput>,
    /// Per-tenant full tables of the offline `AggState` merge of every
    /// session's completed intervals.
    pub expected_agg: Vec<(String, Vec<Candidate>)>,
}

impl InputSet {
    /// Sessions fed by ingest connection `connection`.
    pub fn sessions_of(&self, connection: usize) -> impl Iterator<Item = &SessionInput> {
        self.sessions
            .iter()
            .filter(move |s| s.connection == connection)
    }

    /// Total events across every session.
    pub fn total_events(&self) -> u64 {
        self.sessions
            .iter()
            .flat_map(|s| &s.chunk_events)
            .map(|&n| n as u64)
            .sum()
    }
}

/// Everything a run needs, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload's dimensions.
    pub shape: Shape,
    /// The input sets rounds cycle through. Only the first keeps its raw
    /// events, for the ladder.
    pub sets: Vec<InputSet>,
    /// Mean Eq. 1 error (percent) over every set's expected — and so,
    /// once the output checks pass, served — profiles against
    /// `PerfectProfiler` on the same events.
    pub weighted_error_pct: f64,
    /// Intervals the error is averaged over.
    pub scored_intervals: usize,
}

/// splitmix64: derives independent stream seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Inputs {
    /// Generates, encodes and checks offline every input of `workload`,
    /// two sets at a time.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let shape = workload.shape(scale);
        let mut scored: Vec<(f64, usize)> = Vec::new();
        let mut sets: Vec<InputSet> = Vec::new();
        for pair in (0..shape.input_sets).collect::<Vec<_>>().chunks(2) {
            let done: Vec<(InputSet, (f64, usize))> = std::thread::scope(|scope| {
                let handles: Vec<_> = pair
                    .iter()
                    .map(|&set| scope.spawn(move || input_set(workload, &shape, seed, set)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("input generation thread"))
                    .collect()
            });
            for (set, score) in done {
                sets.push(set);
                scored.push(score);
            }
        }
        for set in &mut sets[1..] {
            for session in &mut set.sessions {
                session.events = Vec::new();
            }
        }
        let total: f64 = scored.iter().map(|s| s.0).sum();
        let scored_intervals: usize = scored.iter().map(|s| s.1).sum();
        assert!(scored_intervals > 0, "no completed interval to score");
        Inputs {
            shape,
            sets,
            weighted_error_pct: total / scored_intervals as f64,
            scored_intervals,
        }
    }
}

/// Input set `set`: every `sessions_per_stream` consecutive sessions of
/// a connection are consecutive slices of one seeded gcc value stream.
fn input_set(workload: Workload, shape: &Shape, seed: u64, set: usize) -> (InputSet, (f64, usize)) {
    let config = SessionConfig {
        interval_len: shape.interval_len,
        ..SessionConfig::default_multi_hash()
    };
    let mut sessions = Vec::new();
    let mut streams = 0u64;
    for connection in 0..shape.ingest_connections {
        let mut stream = None;
        for s in 0..shape.sessions_per_connection {
            if s % shape.sessions_per_stream == 0 {
                streams += 1;
                let salt = ((set as u64) << 32) | streams;
                stream = Some(
                    StreamSpec::new(Benchmark::Gcc, StreamKind::Value, mix(seed, salt)).events(),
                );
            }
            let stream = stream.as_mut().expect("a stream is open");
            let name = match workload {
                Workload::Stream => format!("c{connection}/stream"),
                Workload::Fanout => format!("c{connection}/s{s:03}"),
                Workload::Mixed => "c0/recorder".to_string(),
            };
            let events: Vec<Tuple> = stream.take(shape.events_per_session).collect();
            sessions.push(session_input(
                name,
                connection,
                config.clone(),
                events,
                shape,
            ));
        }
    }

    let mut merge = AggState::new();
    for session in &sessions {
        for profile in &session.expected {
            merge.add_leaf_profile(&session.tenant, &profile.candidates);
        }
    }
    let mut expected_agg: Vec<(String, Vec<Candidate>)> = sessions
        .iter()
        .map(|s| (s.tenant.clone(), merge.top_k(&s.tenant, usize::MAX)))
        .collect();
    expected_agg.dedup_by(|a, b| a.0 == b.0);
    let score = eq1_error(&sessions);
    (
        InputSet {
            sessions,
            expected_agg,
        },
        score,
    )
}

fn session_input(
    name: String,
    connection: usize,
    config: SessionConfig,
    events: Vec<Tuple>,
    shape: &Shape,
) -> SessionInput {
    let tenant = mhp_server::tenant_of(&name).to_string();
    let chunk_events: Vec<usize> = events.chunks(shape.chunk_events).map(<[_]>::len).collect();
    let chunks = events
        .chunks(shape.chunk_events)
        .map(|chunk| Request::Ingest {
            chunk: encode_chunk(chunk),
        })
        .collect();
    let interval = IntervalConfig::new(config.interval_len, config.threshold)
        .expect("workload interval config is valid");
    let mut offline = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    )
    .start()
    .expect("offline engine starts");
    offline.push_slice(&events).expect("offline ingest");
    let expected_top_k = offline.top_k(TOP_K as usize).expect("offline top-k");
    let expected = offline
        .profiles()
        .expect("offline profiles")
        .iter()
        .map(ProfileData::from_profile)
        .collect();
    offline.finish().expect("offline engine drains");
    SessionInput {
        attach: Request::Attach { name: name.clone() },
        name,
        tenant,
        connection,
        config,
        events,
        chunks,
        chunk_events,
        expected,
        expected_top_k,
    }
}

/// Summed Eq. 1 error (percent) of every session's expected intervals
/// against a `PerfectProfiler` fed the same events, and the number of
/// intervals summed.
fn eq1_error(sessions: &[SessionInput]) -> (f64, usize) {
    let mut total = 0.0;
    let mut intervals = 0usize;
    for session in sessions {
        let interval = session.interval();
        let mut perfect = PerfectProfiler::new(interval);
        let mut next = 0usize;
        for &tuple in &session.events {
            if let Some(exact) = perfect.observe_exact(tuple) {
                let served = &session.expected[next];
                let profile = mhp_core::IntervalProfile::from_candidates(
                    served.interval_index,
                    interval,
                    served.candidates.clone(),
                );
                total += compare_interval(&exact, &profile).total_percent();
                intervals += 1;
                next += 1;
            }
        }
    }
    (total, intervals)
}
