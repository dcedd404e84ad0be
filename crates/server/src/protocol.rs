//! The wire protocol spoken between `mhp-client` and `mhp-server`.
//!
//! ## Framing
//!
//! Every message in either direction is one *frame*:
//!
//! ```text
//! ┌───────────────┬──────────────────────────┐
//! │ len: u32 (LE) │ body: len bytes          │
//! └───────────────┴──────────────────────────┘
//! ```
//!
//! A request body is an opcode byte followed by an opcode-specific payload;
//! a response body is a tag byte followed by a tag-specific payload, so a
//! client can decode any response without remembering what it asked.
//! Integers are little-endian throughout, matching the trace format.
//! Frames are bounded by [`MAX_FRAME_BYTES`]; an oversized declared length
//! is a protocol error, rejected before any allocation.
//!
//! Ingest reuses the trace chunk encoding verbatim: an [`Request::Ingest`]
//! payload is exactly one [`mhp_pipeline::encode_chunk`] chunk, so a
//! recorded trace file can be replayed onto a server chunk by chunk without
//! re-encoding (and the CRC travels with the data, end to end).

use std::io::{Read, Write};

use mhp_core::{Candidate, Tuple};

use crate::error::{ErrorCode, ServerError};

/// Hard upper bound on a frame body, request or response. Slightly above
/// [`mhp_pipeline::MAX_CHUNK_BYTES`] so a maximal ingest chunk still fits
/// with its opcode byte.
pub const MAX_FRAME_BYTES: usize = mhp_pipeline::MAX_CHUNK_BYTES + 64;

/// Read-timeout periods a peer may stay silent partway through a frame
/// before it is declared stalled — [`read_frame`]'s retry budget and the
/// event loop's stall timer alike. With the server's read timeout this
/// bounds a half-written frame to roughly a minute, instead of forever.
pub(crate) const MAX_MID_FRAME_TIMEOUTS: u32 = 300;

/// Which profiler architecture a session runs; the wire form of
/// [`mhp_pipeline::ProfilerSpec`] (always the paper's best configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerKind {
    /// Multi-hash profiler, §6 best configuration.
    MultiHash,
    /// Single-table baseline, §5 best configuration.
    SingleHash,
    /// Exact reference profiler.
    Perfect,
}

impl ProfilerKind {
    /// Wire encoding of the kind.
    pub fn as_u8(self) -> u8 {
        match self {
            ProfilerKind::MultiHash => 0,
            ProfilerKind::SingleHash => 1,
            ProfilerKind::Perfect => 2,
        }
    }

    /// Decodes a wire kind byte.
    pub fn from_u8(value: u8) -> Option<Self> {
        match value {
            0 => Some(ProfilerKind::MultiHash),
            1 => Some(ProfilerKind::SingleHash),
            2 => Some(ProfilerKind::Perfect),
            _ => None,
        }
    }

    /// The kind's lowercase name, matching [`mhp_pipeline::ProfilerSpec`].
    pub fn name(self) -> &'static str {
        match self {
            ProfilerKind::MultiHash => "multi-hash",
            ProfilerKind::SingleHash => "single-hash",
            ProfilerKind::Perfect => "perfect",
        }
    }

    /// The engine-side spec this kind names.
    pub fn spec(self) -> mhp_pipeline::ProfilerSpec {
        match self {
            ProfilerKind::MultiHash => {
                mhp_pipeline::ProfilerSpec::MultiHash(mhp_core::MultiHashConfig::best())
            }
            ProfilerKind::SingleHash => {
                mhp_pipeline::ProfilerSpec::SingleHash(mhp_core::SingleHashConfig::best())
            }
            ProfilerKind::Perfect => mhp_pipeline::ProfilerSpec::Perfect,
        }
    }
}

impl std::str::FromStr for ProfilerKind {
    type Err = ServerError;

    fn from_str(s: &str) -> Result<Self, ServerError> {
        match s {
            "multi-hash" | "multihash" => Ok(ProfilerKind::MultiHash),
            "single-hash" | "singlehash" => Ok(ProfilerKind::SingleHash),
            "perfect" => Ok(ProfilerKind::Perfect),
            _ => Err(ServerError::protocol(
                "unknown profiler (expected multi-hash, single-hash or perfect)",
            )),
        }
    }
}

/// Everything needed to build a session's engine; carried by
/// [`Request::Open`] and echoed back in [`Response::Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Profiler architecture each shard runs.
    pub kind: ProfilerKind,
    /// Shard (worker thread) count.
    pub shards: u16,
    /// Global interval length, in events.
    pub interval_len: u64,
    /// Candidate threshold as a fraction of the interval.
    pub threshold: f64,
    /// Hash seed for the shard profilers.
    pub seed: u64,
}

impl SessionConfig {
    /// A small default: multi-hash, 1 shard, 10 000-event intervals, 1 %.
    pub fn default_multi_hash() -> Self {
        SessionConfig {
            kind: ProfilerKind::MultiHash,
            shards: 1,
            interval_len: 10_000,
            threshold: 0.01,
            seed: 0xCAFE,
        }
    }
}

/// Summary of a live session, echoed on open/attach.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The session's registry name.
    pub name: String,
    /// The configuration the session was opened with.
    pub config: SessionConfig,
    /// Events ingested so far.
    pub events: u64,
    /// Intervals completed so far.
    pub intervals: u64,
}

/// The circuit-breaker phase an aggregator's upstream supervisor is in,
/// as carried in [`UpstreamHealth`]. Mirrors the supervisor state machine
/// (DESIGN §18) without this crate depending on the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Pulling normally.
    Closed,
    /// Quarantined: pulls are skipped until the quarantine elapses.
    Open,
    /// Quarantine elapsed: the next pull is a trial probe.
    HalfOpen,
}

impl BreakerPhase {
    /// Wire byte for this phase.
    pub fn as_u8(self) -> u8 {
        match self {
            BreakerPhase::Closed => 0,
            BreakerPhase::Open => 1,
            BreakerPhase::HalfOpen => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_u8(byte: u8) -> Option<BreakerPhase> {
        match byte {
            0 => Some(BreakerPhase::Closed),
            1 => Some(BreakerPhase::Open),
            2 => Some(BreakerPhase::HalfOpen),
            _ => None,
        }
    }

    /// Stable lowercase name, for `stats` text and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half-open",
        }
    }
}

/// Per-upstream health as reported by an aggregator in its session
/// listing, so parents and dashboards can see which children are stale
/// without scraping metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpstreamHealth {
    /// The upstream's address, as configured.
    pub addr: String,
    /// Whether the last completed pull attempt succeeded.
    pub healthy: bool,
    /// Circuit-breaker phase of the upstream's supervisor.
    pub phase: BreakerPhase,
    /// Pull cycles since this upstream last completed a pull (equals the
    /// total cycle count if it never has).
    pub staleness_cycles: u64,
    /// Aggregator epoch at the last successful pull (`u64::MAX` if it has
    /// never succeeded).
    pub last_success_epoch: u64,
    /// Consecutive failed pull attempts (resets on success).
    pub consecutive_failures: u64,
}

/// A profile on the wire: one completed (or force-cut) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileData {
    /// Zero-based index of the interval.
    pub interval_index: u64,
    /// Interval length the profile was cut under.
    pub interval_len: u64,
    /// Candidate threshold fraction.
    pub threshold: f64,
    /// Candidates, hottest first.
    pub candidates: Vec<Candidate>,
}

impl ProfileData {
    /// Flattens an engine profile for the wire.
    pub fn from_profile(profile: &mhp_core::IntervalProfile) -> Self {
        ProfileData {
            interval_index: profile.interval_index(),
            interval_len: profile.config().interval_len(),
            threshold: profile.config().threshold_fraction(),
            candidates: profile.candidates().to_vec(),
        }
    }
}

/// A client request. See the module docs for framing.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Creates a named session and attaches this connection to it.
    Open {
        /// Registry name; at most [`MAX_NAME_BYTES`] UTF-8 bytes.
        name: String,
        /// Engine configuration for the session.
        config: SessionConfig,
    },
    /// Attaches this connection to an existing named session.
    Attach {
        /// Registry name of the session.
        name: String,
    },
    /// Feeds one trace chunk ([`mhp_pipeline::encode_chunk`] bytes) into
    /// the attached session.
    Ingest {
        /// The encoded chunk, header included.
        chunk: Vec<u8>,
    },
    /// Like [`Request::Ingest`], but sequence-numbered for idempotent
    /// resume: the session remembers the highest contiguous sequence it
    /// has applied, a replayed (`seq <= last`) chunk is acknowledged
    /// without being re-applied, and a gap (`seq > last + 1`) is rejected.
    /// Sequences are 1-based per session.
    IngestSeq {
        /// This chunk's 1-based sequence number.
        seq: u64,
        /// The encoded chunk, header included.
        chunk: Vec<u8>,
    },
    /// Asks the attached session for the last sequence number it has
    /// applied, so a reconnecting client knows where to replay from.
    Resume,
    /// Forces the attached session's global interval to end now.
    Cut,
    /// Fetches the merged profile of one completed interval;
    /// `u64::MAX` means the latest.
    Snapshot {
        /// Interval index, or `u64::MAX` for the most recent.
        interval: u64,
    },
    /// The hottest `n` tuples of the current partial interval.
    TopK {
        /// How many tuples to return.
        n: u32,
    },
    /// Server metrics as text.
    Stats,
    /// Server, engine and sketch metrics in Prometheus text exposition
    /// format.
    Metrics,
    /// Sampled request traces with per-stage timing breakdowns, as JSONL
    /// (see [`Response::Traces`]). Requires no attached session.
    Traces,
    /// Lists every live session on the server (sorted by name), so an
    /// aggregator can discover what to pull without static configuration.
    /// Requires no attached session.
    ListSessions,
    /// Destroys the attached session and detaches.
    CloseSession,
    /// Asks the server to shut down gracefully.
    Shutdown,
}

/// Maximum session-name length on the wire, in bytes.
pub const MAX_NAME_BYTES: usize = 256;

const OP_OPEN: u8 = 0x01;
const OP_ATTACH: u8 = 0x02;
const OP_INGEST: u8 = 0x03;
const OP_CUT: u8 = 0x04;
const OP_SNAPSHOT: u8 = 0x05;
const OP_TOPK: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_CLOSE_SESSION: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;
const OP_METRICS: u8 = 0x0A;
const OP_INGEST_SEQ: u8 = 0x0B;
const OP_RESUME: u8 = 0x0C;
const OP_LIST_SESSIONS: u8 = 0x0D;
const OP_TRACES: u8 = 0x0E;

/// A server response. The leading tag byte makes every response
/// self-describing.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded and has no payload.
    Done,
    /// A session was opened or attached.
    Session(SessionInfo),
    /// A chunk was ingested; running session totals follow.
    Ingested {
        /// Events ingested by the session so far.
        events: u64,
        /// Intervals completed by the session so far.
        intervals: u64,
    },
    /// A merged interval profile.
    Profile(ProfileData),
    /// The requested interval does not exist (yet).
    NoProfile,
    /// The hottest tuples of the current partial interval.
    TopK(Vec<Candidate>),
    /// The last sequence number the attached session has applied (`0` if
    /// no sequenced chunk has ever been ingested).
    Resume {
        /// Highest contiguous applied sequence number.
        last_seq: u64,
    },
    /// Every live session, sorted by name.
    SessionList {
        /// The sessions.
        sessions: Vec<SessionInfo>,
        /// Per-upstream supervisor health, when the answering node is an
        /// aggregator. Leaf servers report none, and an empty list is
        /// omitted from the wire encoding entirely, so their listings are
        /// byte-identical to the pre-health protocol.
        upstreams: Vec<UpstreamHealth>,
    },
    /// Server metrics, one `key value` per line.
    Stats(String),
    /// Server metrics in Prometheus text exposition format.
    Metrics(String),
    /// Stage-attributed request traces as JSONL: one `stage_summary` line
    /// per stage (p50/p99/p999 in microseconds) followed by one `trace`
    /// line per sampled request, each carrying every stage field.
    Traces(String),
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const TAG_DONE: u8 = 0x00;
const TAG_SESSION: u8 = 0x01;
const TAG_INGESTED: u8 = 0x02;
const TAG_PROFILE: u8 = 0x03;
const TAG_NO_PROFILE: u8 = 0x04;
const TAG_TOPK: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_METRICS: u8 = 0x07;
const TAG_RESUME: u8 = 0x08;
const TAG_SESSION_LIST: u8 = 0x09;
const TAG_TRACES: u8 = 0x0A;
const TAG_ERROR: u8 = 0x7F;

// ---------------------------------------------------------------- encoding

/// Little-endian byte-cursor over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| ServerError::protocol("frame body is truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ServerError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServerError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, ServerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ServerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ServerError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn name(&mut self) -> Result<String, ServerError> {
        let len = self.u16()? as usize;
        if len > MAX_NAME_BYTES {
            return Err(ServerError::protocol("session name is too long"));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ServerError::protocol("session name is not utf-8"))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    fn finish(&self) -> Result<(), ServerError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ServerError::protocol("frame body has trailing bytes"))
        }
    }
}

fn push_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(name.len() <= MAX_NAME_BYTES);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

fn push_candidates(out: &mut Vec<u8>, candidates: &[Candidate]) {
    out.extend_from_slice(&(candidates.len() as u32).to_le_bytes());
    for c in candidates {
        out.extend_from_slice(&c.tuple.pc().as_u64().to_le_bytes());
        out.extend_from_slice(&c.tuple.value().as_u64().to_le_bytes());
        out.extend_from_slice(&c.count.to_le_bytes());
    }
}

fn push_session_info(out: &mut Vec<u8>, info: &SessionInfo) {
    push_name(out, &info.name);
    out.push(info.config.kind.as_u8());
    out.extend_from_slice(&info.config.shards.to_le_bytes());
    out.extend_from_slice(&info.config.interval_len.to_le_bytes());
    out.extend_from_slice(&info.config.threshold.to_le_bytes());
    out.extend_from_slice(&info.config.seed.to_le_bytes());
    out.extend_from_slice(&info.events.to_le_bytes());
    out.extend_from_slice(&info.intervals.to_le_bytes());
}

/// Smallest possible encoded [`SessionInfo`]: empty name plus the fixed
/// fields. Used to reject lying list counts before allocating.
const MIN_SESSION_INFO_BYTES: usize = 2 + 1 + 2 + 8 * 5;

fn push_upstream_health(out: &mut Vec<u8>, health: &UpstreamHealth) {
    push_name(out, &health.addr);
    out.push(u8::from(health.healthy));
    out.push(health.phase.as_u8());
    out.extend_from_slice(&health.staleness_cycles.to_le_bytes());
    out.extend_from_slice(&health.last_success_epoch.to_le_bytes());
    out.extend_from_slice(&health.consecutive_failures.to_le_bytes());
}

/// Smallest possible encoded [`UpstreamHealth`]: empty addr plus the
/// fixed fields.
const MIN_UPSTREAM_HEALTH_BYTES: usize = 2 + 1 + 1 + 8 * 3;

fn read_upstream_health(cursor: &mut Cursor<'_>) -> Result<UpstreamHealth, ServerError> {
    let addr = cursor.name()?;
    let healthy = match cursor.u8()? {
        0 => false,
        1 => true,
        _ => return Err(ServerError::protocol("bad healthy flag")),
    };
    let phase = BreakerPhase::from_u8(cursor.u8()?)
        .ok_or_else(|| ServerError::protocol("unknown breaker phase"))?;
    Ok(UpstreamHealth {
        addr,
        healthy,
        phase,
        staleness_cycles: cursor.u64()?,
        last_success_epoch: cursor.u64()?,
        consecutive_failures: cursor.u64()?,
    })
}

fn read_session_info(cursor: &mut Cursor<'_>) -> Result<SessionInfo, ServerError> {
    let name = cursor.name()?;
    let kind = ProfilerKind::from_u8(cursor.u8()?)
        .ok_or_else(|| ServerError::protocol("unknown profiler kind"))?;
    Ok(SessionInfo {
        name,
        config: SessionConfig {
            kind,
            shards: cursor.u16()?,
            interval_len: cursor.u64()?,
            threshold: cursor.f64()?,
            seed: cursor.u64()?,
        },
        events: cursor.u64()?,
        intervals: cursor.u64()?,
    })
}

fn read_candidates(cursor: &mut Cursor<'_>) -> Result<Vec<Candidate>, ServerError> {
    let count = cursor.u32()? as usize;
    // 24 bytes per candidate must actually be present — reject a lying
    // count before allocating for it.
    if count > cursor.bytes.len().saturating_sub(cursor.pos) / 24 {
        return Err(ServerError::protocol("candidate count exceeds frame"));
    }
    let mut candidates = Vec::with_capacity(count);
    for _ in 0..count {
        let pc = cursor.u64()?;
        let value = cursor.u64()?;
        let count = cursor.u64()?;
        candidates.push(Candidate::new(Tuple::new(pc, value), count));
    }
    Ok(candidates)
}

impl Request {
    /// Encodes the request into a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Open { name, config } => {
                out.push(OP_OPEN);
                push_name(&mut out, name);
                out.push(config.kind.as_u8());
                out.extend_from_slice(&config.shards.to_le_bytes());
                out.extend_from_slice(&config.interval_len.to_le_bytes());
                out.extend_from_slice(&config.threshold.to_le_bytes());
                out.extend_from_slice(&config.seed.to_le_bytes());
            }
            Request::Attach { name } => {
                out.push(OP_ATTACH);
                push_name(&mut out, name);
            }
            Request::Ingest { chunk } => {
                out.push(OP_INGEST);
                out.extend_from_slice(chunk);
            }
            Request::IngestSeq { seq, chunk } => {
                out.push(OP_INGEST_SEQ);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(chunk);
            }
            Request::Resume => out.push(OP_RESUME),
            Request::Cut => out.push(OP_CUT),
            Request::Snapshot { interval } => {
                out.push(OP_SNAPSHOT);
                out.extend_from_slice(&interval.to_le_bytes());
            }
            Request::TopK { n } => {
                out.push(OP_TOPK);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Request::Stats => out.push(OP_STATS),
            Request::Metrics => out.push(OP_METRICS),
            Request::Traces => out.push(OP_TRACES),
            Request::ListSessions => out.push(OP_LIST_SESSIONS),
            Request::CloseSession => out.push(OP_CLOSE_SESSION),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Decodes a frame body into a request.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-class [`ServerError`] on any malformed
    /// body: unknown opcode, truncation, trailing bytes, bad names.
    pub fn decode(body: &[u8]) -> Result<Request, ServerError> {
        let mut cursor = Cursor::new(body);
        let request = match cursor.u8()? {
            OP_OPEN => {
                let name = cursor.name()?;
                let kind = ProfilerKind::from_u8(cursor.u8()?)
                    .ok_or_else(|| ServerError::protocol("unknown profiler kind"))?;
                Request::Open {
                    name,
                    config: SessionConfig {
                        kind,
                        shards: cursor.u16()?,
                        interval_len: cursor.u64()?,
                        threshold: cursor.f64()?,
                        seed: cursor.u64()?,
                    },
                }
            }
            OP_ATTACH => Request::Attach {
                name: cursor.name()?,
            },
            OP_INGEST => Request::Ingest {
                chunk: cursor.rest().to_vec(),
            },
            OP_INGEST_SEQ => Request::IngestSeq {
                seq: cursor.u64()?,
                chunk: cursor.rest().to_vec(),
            },
            OP_RESUME => Request::Resume,
            OP_CUT => Request::Cut,
            OP_SNAPSHOT => Request::Snapshot {
                interval: cursor.u64()?,
            },
            OP_TOPK => Request::TopK { n: cursor.u32()? },
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            OP_TRACES => Request::Traces,
            OP_LIST_SESSIONS => Request::ListSessions,
            OP_CLOSE_SESSION => Request::CloseSession,
            OP_SHUTDOWN => Request::Shutdown,
            op => {
                return Err(ServerError::protocol_owned(format!(
                    "unknown request opcode {op:#04x}"
                )))
            }
        };
        cursor.finish()?;
        Ok(request)
    }

    /// The request's stable lowercase opcode name — the label request
    /// traces are filed under.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Attach { .. } => "attach",
            Request::Ingest { .. } => "ingest",
            Request::IngestSeq { .. } => "ingest_seq",
            Request::Resume => "resume",
            Request::Cut => "cut",
            Request::Snapshot { .. } => "snapshot",
            Request::TopK { .. } => "topk",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Traces => "traces",
            Request::ListSessions => "list_sessions",
            Request::CloseSession => "close_session",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Response {
    /// Encodes the response into a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the response as one whole frame, length prefix included,
    /// in a single buffer: what a server puts on the wire.
    pub(crate) fn encode_frame(&self) -> Vec<u8> {
        // Small replies (acks, errors) fit without regrowing the buffer.
        let mut frame = Vec::with_capacity(64);
        frame.extend_from_slice(&[0; 4]);
        self.encode_into(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame
    }

    /// Appends the response body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => out.push(TAG_DONE),
            Response::Session(info) => {
                out.push(TAG_SESSION);
                push_session_info(out, info);
            }
            Response::SessionList {
                sessions,
                upstreams,
            } => {
                out.push(TAG_SESSION_LIST);
                out.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
                for info in sessions {
                    push_session_info(out, info);
                }
                // The health block is strictly optional on the wire: leaf
                // servers (empty list) encode nothing after the sessions,
                // keeping their listings decodable by pre-health clients.
                if !upstreams.is_empty() {
                    out.extend_from_slice(&(upstreams.len() as u32).to_le_bytes());
                    for health in upstreams {
                        push_upstream_health(out, health);
                    }
                }
            }
            Response::Ingested { events, intervals } => {
                out.push(TAG_INGESTED);
                out.extend_from_slice(&events.to_le_bytes());
                out.extend_from_slice(&intervals.to_le_bytes());
            }
            Response::Profile(profile) => {
                out.push(TAG_PROFILE);
                out.extend_from_slice(&profile.interval_index.to_le_bytes());
                out.extend_from_slice(&profile.interval_len.to_le_bytes());
                out.extend_from_slice(&profile.threshold.to_le_bytes());
                push_candidates(out, &profile.candidates);
            }
            Response::NoProfile => out.push(TAG_NO_PROFILE),
            Response::TopK(candidates) => {
                out.push(TAG_TOPK);
                push_candidates(out, candidates);
            }
            Response::Resume { last_seq } => {
                out.push(TAG_RESUME);
                out.extend_from_slice(&last_seq.to_le_bytes());
            }
            Response::Stats(text) => {
                out.push(TAG_STATS);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
            Response::Metrics(text) => {
                out.push(TAG_METRICS);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
            Response::Traces(text) => {
                out.push(TAG_TRACES);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
            Response::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(code.as_u8());
                let message = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
                out.extend_from_slice(&(message.len() as u16).to_le_bytes());
                out.extend_from_slice(message);
            }
        }
    }

    /// Decodes a frame body into a response.
    ///
    /// # Errors
    ///
    /// A protocol-class [`ServerError`] on any malformed body.
    pub fn decode(body: &[u8]) -> Result<Response, ServerError> {
        let mut cursor = Cursor::new(body);
        let response = match cursor.u8()? {
            TAG_DONE => Response::Done,
            TAG_SESSION => Response::Session(read_session_info(&mut cursor)?),
            TAG_SESSION_LIST => {
                let count = cursor.u32()? as usize;
                if count > cursor.bytes.len().saturating_sub(cursor.pos) / MIN_SESSION_INFO_BYTES {
                    return Err(ServerError::protocol("session count exceeds frame"));
                }
                let mut sessions = Vec::with_capacity(count);
                for _ in 0..count {
                    sessions.push(read_session_info(&mut cursor)?);
                }
                // Optional trailing health block (aggregators only).
                let mut upstreams = Vec::new();
                if cursor.pos < cursor.bytes.len() {
                    let count = cursor.u32()? as usize;
                    if count
                        > cursor.bytes.len().saturating_sub(cursor.pos) / MIN_UPSTREAM_HEALTH_BYTES
                    {
                        return Err(ServerError::protocol("upstream count exceeds frame"));
                    }
                    upstreams.reserve(count);
                    for _ in 0..count {
                        upstreams.push(read_upstream_health(&mut cursor)?);
                    }
                }
                Response::SessionList {
                    sessions,
                    upstreams,
                }
            }
            TAG_INGESTED => Response::Ingested {
                events: cursor.u64()?,
                intervals: cursor.u64()?,
            },
            TAG_PROFILE => Response::Profile(ProfileData {
                interval_index: cursor.u64()?,
                interval_len: cursor.u64()?,
                threshold: cursor.f64()?,
                candidates: read_candidates(&mut cursor)?,
            }),
            TAG_NO_PROFILE => Response::NoProfile,
            TAG_TOPK => Response::TopK(read_candidates(&mut cursor)?),
            TAG_RESUME => Response::Resume {
                last_seq: cursor.u64()?,
            },
            TAG_STATS => {
                let len = cursor.u32()? as usize;
                Response::Stats(
                    String::from_utf8(cursor.take(len)?.to_vec())
                        .map_err(|_| ServerError::protocol("stats text is not utf-8"))?,
                )
            }
            TAG_METRICS => {
                let len = cursor.u32()? as usize;
                Response::Metrics(
                    String::from_utf8(cursor.take(len)?.to_vec())
                        .map_err(|_| ServerError::protocol("metrics text is not utf-8"))?,
                )
            }
            TAG_TRACES => {
                let len = cursor.u32()? as usize;
                Response::Traces(
                    String::from_utf8(cursor.take(len)?.to_vec())
                        .map_err(|_| ServerError::protocol("traces text is not utf-8"))?,
                )
            }
            TAG_ERROR => {
                let code = ErrorCode::from_u8(cursor.u8()?);
                let len = cursor.u16()? as usize;
                Response::Error {
                    code,
                    message: String::from_utf8_lossy(cursor.take(len)?).into_owned(),
                }
            }
            tag => {
                return Err(ServerError::protocol_owned(format!(
                    "unknown response tag {tag:#04x}"
                )))
            }
        };
        cursor.finish()?;
        Ok(response)
    }
}

// ----------------------------------------------------------------- framing

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O failures from the writer; an over-[`MAX_FRAME_BYTES`] body is a
/// protocol error (nothing is written).
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), ServerError> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(ServerError::protocol("frame body exceeds MAX_FRAME_BYTES"));
    }
    writer.write_all(&(body.len() as u32).to_le_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame body. Returns `None` on a clean EOF at
/// a frame boundary (the peer hung up between requests).
///
/// # Errors
///
/// I/O failures (including read timeouts, surfaced as
/// [`std::io::ErrorKind::WouldBlock`] / `TimedOut`), a declared length
/// over [`MAX_FRAME_BYTES`] (rejected before allocation), or truncation
/// inside a frame.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, ServerError> {
    // Fills `buf` completely. `frame_started` distinguishes an idle
    // timeout at a frame boundary (surfaced to the caller, no bytes lost)
    // from a timeout mid-frame (retried here, because returning would
    // drop the bytes already consumed and desync the stream).
    let mut fill = |buf: &mut [u8],
                    mut frame_started: bool,
                    what: &'static str|
     -> Result<bool, ServerError> {
        let mut filled = 0;
        let mut timeouts = 0u32;
        while filled < buf.len() {
            match reader.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 && !frame_started => return Ok(false), // clean EOF
                Ok(0) => return Err(ServerError::protocol(what)),
                Ok(n) => {
                    filled += n;
                    frame_started = true;
                    timeouts = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if filled == 0 && !frame_started {
                        return Err(ServerError::Io(e)); // idle at a boundary
                    }
                    timeouts += 1;
                    if timeouts > MAX_MID_FRAME_TIMEOUTS {
                        return Err(ServerError::protocol("peer stalled mid-frame"));
                    }
                }
                Err(e) => return Err(ServerError::Io(e)),
            }
        }
        Ok(true)
    };

    let mut len_bytes = [0u8; 4];
    if !fill(&mut len_bytes, false, "frame truncated in length prefix")? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServerError::protocol("peer declared an oversized frame"));
    }
    let mut body = vec![0u8; len];
    fill(&mut body, true, "frame truncated in body")?;
    Ok(Some(body))
}

/// Incremental frame decoder for nonblocking connections: bytes go in as
/// they arrive off the socket, complete frame bodies come out. This is the
/// event-loop counterpart of [`read_frame`] — where the blocking reader
/// parks the thread until a frame completes, the decoder buffers a partial
/// frame across readiness events and resumes mid-frame on the next one.
///
/// The declared length is validated against [`MAX_FRAME_BYTES`] as soon as
/// the 4-byte prefix is available, before the body is buffered, so an
/// attacker declaring a 4 GiB frame costs nothing.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Unconsumed bytes: zero or more complete frames followed by at most
    /// one partial frame. `pos` marks how far parsing has consumed;
    /// consumed prefix is reclaimed between pushes.
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffers `bytes` exactly as received off the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its unparsed bytes.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, or `None` when the buffered
    /// bytes end at a frame boundary or inside an incomplete frame.
    ///
    /// # Errors
    ///
    /// A protocol-class [`ServerError`] when the buffered length prefix
    /// declares a frame over [`MAX_FRAME_BYTES`]; the connection is
    /// unrecoverable past this point (the stream cannot be resynced).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ServerError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ServerError::protocol("peer declared an oversized frame"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }

    /// True when the buffered bytes stop partway through a frame — a
    /// readiness event arriving now resumes mid-frame rather than starting
    /// a fresh one.
    pub fn mid_frame(&self) -> bool {
        !self.buf[self.pos..].is_empty()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let body = request.encode();
        assert_eq!(Request::decode(&body).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let body = response.encode();
        assert_eq!(Response::decode(&body).unwrap(), response);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Open {
            name: "gcc-run".into(),
            config: SessionConfig::default_multi_hash(),
        });
        roundtrip_request(Request::Attach { name: "x".into() });
        roundtrip_request(Request::Ingest {
            chunk: mhp_pipeline::encode_chunk(&[Tuple::new(1, 2), Tuple::new(3, 4)]),
        });
        roundtrip_request(Request::IngestSeq {
            seq: 17,
            chunk: mhp_pipeline::encode_chunk(&[Tuple::new(5, 6)]),
        });
        roundtrip_request(Request::Resume);
        roundtrip_request(Request::Cut);
        roundtrip_request(Request::Snapshot { interval: u64::MAX });
        roundtrip_request(Request::TopK { n: 10 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Traces);
        roundtrip_request(Request::ListSessions);
        roundtrip_request(Request::CloseSession);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Done);
        roundtrip_response(Response::Session(SessionInfo {
            name: "gcc-run".into(),
            config: SessionConfig {
                kind: ProfilerKind::Perfect,
                shards: 8,
                interval_len: 5_000,
                threshold: 0.001,
                seed: 7,
            },
            events: 123,
            intervals: 4,
        }));
        roundtrip_response(Response::Ingested {
            events: 10,
            intervals: 2,
        });
        roundtrip_response(Response::Profile(ProfileData {
            interval_index: 3,
            interval_len: 10_000,
            threshold: 0.01,
            candidates: vec![
                Candidate::new(Tuple::new(0x40, 7), 900),
                Candidate::new(Tuple::new(0x44, 9), 120),
            ],
        }));
        roundtrip_response(Response::NoProfile);
        roundtrip_response(Response::TopK(vec![Candidate::new(Tuple::new(1, 1), 1)]));
        roundtrip_response(Response::Resume { last_seq: 0 });
        roundtrip_response(Response::Resume { last_seq: u64::MAX });
        roundtrip_response(Response::Stats("requests_total 5\n".into()));
        roundtrip_response(Response::Metrics(
            "# TYPE server_requests_total counter\nserver_requests_total 5\n".into(),
        ));
        roundtrip_response(Response::Traces(
            "{\"type\":\"trace\",\"seq\":0,\"stages\":{\"frame_decode\":3}}\n".into(),
        ));
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownSession,
            message: "no session named gcc".into(),
        });
        let info = |name: &str, events: u64| SessionInfo {
            name: name.into(),
            config: SessionConfig::default_multi_hash(),
            events,
            intervals: events / 10_000,
        };
        roundtrip_response(Response::SessionList {
            sessions: Vec::new(),
            upstreams: Vec::new(),
        });
        roundtrip_response(Response::SessionList {
            sessions: vec![info("acme/web", 120_000), info("beta/batch", 5)],
            upstreams: Vec::new(),
        });
        roundtrip_response(Response::SessionList {
            sessions: vec![info("acme/web", 7)],
            upstreams: vec![
                UpstreamHealth {
                    addr: "10.0.0.1:7070".into(),
                    healthy: true,
                    phase: BreakerPhase::Closed,
                    staleness_cycles: 0,
                    last_success_epoch: 42,
                    consecutive_failures: 0,
                },
                UpstreamHealth {
                    addr: "10.0.0.2:7070".into(),
                    healthy: false,
                    phase: BreakerPhase::Open,
                    staleness_cycles: 17,
                    last_success_epoch: u64::MAX,
                    consecutive_failures: 9,
                },
            ],
        });
    }

    #[test]
    fn session_list_without_health_block_is_byte_stable() {
        // A leaf server's listing must not grow any trailing bytes: the
        // health block is encoded only when non-empty.
        let listing = Response::SessionList {
            sessions: vec![SessionInfo {
                name: "acme/web".into(),
                config: SessionConfig::default_multi_hash(),
                events: 10,
                intervals: 1,
            }],
            upstreams: Vec::new(),
        };
        let body = listing.encode();
        let expected_len = 1 + 4 + (2 + "acme/web".len() + 1 + 2 + 8 * 5);
        assert_eq!(body.len(), expected_len, "unexpected trailing bytes");
    }

    #[test]
    fn lying_upstream_health_count_is_rejected_without_allocation() {
        let mut body = Response::SessionList {
            sessions: Vec::new(),
            upstreams: Vec::new(),
        }
        .encode();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn breaker_phase_round_trips() {
        for phase in [
            BreakerPhase::Closed,
            BreakerPhase::Open,
            BreakerPhase::HalfOpen,
        ] {
            assert_eq!(BreakerPhase::from_u8(phase.as_u8()), Some(phase));
        }
        assert_eq!(BreakerPhase::from_u8(3), None);
    }

    #[test]
    fn lying_session_list_count_is_rejected_without_allocation() {
        let mut body = vec![TAG_SESSION_LIST];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn unknown_opcodes_and_tags_are_rejected() {
        assert!(Request::decode(&[0xEE]).is_err());
        assert!(Response::decode(&[0x70]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Cut.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn lying_candidate_count_is_rejected_without_allocation() {
        let mut body = vec![TAG_TOPK];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn oversized_names_are_rejected() {
        let mut body = vec![OP_ATTACH];
        body.extend_from_slice(&u16::MAX.to_le_bytes());
        body.extend_from_slice(&[b'a'; 1024]);
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        write_frame(&mut wire, &Request::Cut.encode()).unwrap();
        let mut reader = wire.as_slice();
        let first = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(Request::decode(&first).unwrap(), Request::Stats);
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(Request::decode(&second).unwrap(), Request::Cut);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_declared_frame_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        assert!(read_frame(&mut &wire[..2]).is_err(), "inside the prefix");
        assert!(
            read_frame(&mut &wire[..4]).is_err(),
            "prefix only, body missing"
        );
    }

    #[test]
    fn frame_decoder_pops_complete_frames_in_order() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        write_frame(&mut wire, &Request::Cut.encode()).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        assert_eq!(
            Request::decode(&decoder.next_frame().unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert!(decoder.mid_frame());
        assert_eq!(
            Request::decode(&decoder.next_frame().unwrap().unwrap()).unwrap(),
            Request::Cut
        );
        assert!(decoder.next_frame().unwrap().is_none());
        assert!(!decoder.mid_frame(), "all bytes consumed: at a boundary");
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn frame_decoder_resumes_one_byte_drips() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Request::Attach {
                name: "drip".into(),
            }
            .encode(),
        )
        .unwrap();
        let mut decoder = FrameDecoder::new();
        for byte in &wire {
            assert!(decoder.next_frame().unwrap().is_none());
            decoder.push(std::slice::from_ref(byte));
            assert!(decoder.mid_frame());
        }
        let body = decoder.next_frame().unwrap().unwrap();
        assert_eq!(
            Request::decode(&body).unwrap(),
            Request::Attach {
                name: "drip".into()
            }
        );
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn frame_decoder_rejects_oversized_declared_length_before_buffering() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_le_bytes());
        assert!(decoder.next_frame().is_err());
    }

    /// Satellite property: framed requests split at arbitrary byte
    /// boundaries (including 1-byte drips) decode to exactly the frames
    /// that whole-frame delivery yields.
    #[test]
    fn frame_decoder_is_split_invariant() {
        proptest::run_cases("frame_decoder_is_split_invariant", 64, |rng| {
            // A random batch of requests, including large ingest chunks so
            // splits land mid-body, mid-prefix, everywhere.
            let mut requests = Vec::new();
            let count = 1 + rng.below(6) as usize;
            for _ in 0..count {
                let request = match rng.below(4) {
                    0 => Request::Stats,
                    1 => Request::TopK {
                        n: rng.below(100) as u32,
                    },
                    2 => Request::Attach {
                        name: format!("s-{}", rng.below(1000)),
                    },
                    _ => {
                        let events: Vec<Tuple> = (0..rng.below(500))
                            .map(|i| Tuple::new(i, rng.below(64)))
                            .collect();
                        Request::Ingest {
                            chunk: mhp_pipeline::encode_chunk(&events),
                        }
                    }
                };
                requests.push(request);
            }
            let mut wire = Vec::new();
            for request in &requests {
                write_frame(&mut wire, &request.encode()).unwrap();
            }

            // Whole-frame delivery: one push of the entire stream.
            let mut whole = FrameDecoder::new();
            whole.push(&wire);
            let mut expected = Vec::new();
            while let Some(body) = whole.next_frame().unwrap() {
                expected.push(body);
            }
            assert_eq!(expected.len(), requests.len());

            // Split delivery: random cut points, biased toward tiny drips.
            let mut split = FrameDecoder::new();
            let mut got = Vec::new();
            let mut offset = 0usize;
            while offset < wire.len() {
                let remaining = wire.len() - offset;
                let step = if rng.below(3) == 0 {
                    1 // 1-byte drip
                } else {
                    1 + rng.below(remaining.min(700) as u64) as usize
                };
                let step = step.min(remaining);
                split.push(&wire[offset..offset + step]);
                offset += step;
                while let Some(body) = split.next_frame().unwrap() {
                    got.push(body);
                }
            }
            assert_eq!(got, expected, "split delivery diverged");
            assert!(!split.mid_frame());
        });
    }
}
