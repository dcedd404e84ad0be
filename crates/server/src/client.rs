//! Client library for the profiling service: a blocking [`Client`] wrapping
//! one TCP connection, plus the [`loadgen`] harness that drives a server
//! with many concurrent recorders and reports throughput and latency.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::{Duration, Instant};

use mhp_core::{Candidate, Tuple};
use mhp_pipeline::encode_chunk;

use crate::error::{ErrorCode, ServerError};
use crate::metrics::Histogram;
use crate::protocol::{
    read_frame, write_frame, ProfileData, Request, Response, SessionConfig, SessionInfo,
    UpstreamHealth,
};

/// A blocking connection to an `mhp-server`.
///
/// Every method but [`pipelined_snapshots`](Self::pipelined_snapshots)
/// has one request in flight at a time: it sends a frame and waits for
/// the response. Error responses surface as
/// [`ServerError::Remote`]; unexpected-but-valid responses (a server
/// newer than this client) surface as protocol errors.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServerError> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects to a server, failing if the TCP handshake has not
    /// completed within `timeout`. A plain [`connect`](Self::connect)
    /// blocks at the OS's pleasure (minutes against a black-holed peer);
    /// supervised callers like the aggregator's pull workers need the
    /// bound.
    ///
    /// When `addr` resolves to several addresses, each is tried with the
    /// full `timeout` until one succeeds.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if no address accepts within the deadline, or
    /// if `addr` resolves to nothing.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ServerError> {
        let mut last_err: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Client::from_stream(stream),
                Err(err) => last_err = Some(err),
            }
        }
        Err(ServerError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            )
        })))
    }

    fn from_stream(stream: TcpStream) -> Result<Client, ServerError> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sets (or clears) the read timeout on the underlying socket. A
    /// server that accepts but never answers then surfaces as a
    /// [`ServerError::Io`] timeout at the next frame boundary instead of
    /// blocking forever.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServerError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O and protocol failures; an error *response* is returned as
    /// `Ok(Response::Error { .. })` for callers that want to inspect it.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServerError> {
        write_frame(&mut self.writer, &request.encode())?;
        self.read_response()
    }

    /// Reads and decodes the next response frame.
    fn read_response(&mut self) -> Result<Response, ServerError> {
        let body = read_frame(&mut self.reader)?
            .ok_or_else(|| ServerError::protocol("server hung up before responding"))?;
        Response::decode(&body)
    }

    /// Like [`call`](Self::call), but converts an error response into
    /// [`ServerError::Remote`].
    fn call_ok(&mut self, request: &Request) -> Result<Response, ServerError> {
        match self.call(request)? {
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            response => Ok(response),
        }
    }

    /// Opens a named session and attaches this connection to it.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::SessionExists`] if the name is taken, plus the usual
    /// transport failures.
    pub fn open_session(
        &mut self,
        name: &str,
        config: SessionConfig,
    ) -> Result<SessionInfo, ServerError> {
        match self.call_ok(&Request::Open {
            name: name.to_string(),
            config,
        })? {
            Response::Session(info) => Ok(info),
            other => Err(unexpected(&other)),
        }
    }

    /// Attaches to an existing named session.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownSession`] if no such session exists.
    pub fn attach(&mut self, name: &str) -> Result<SessionInfo, ServerError> {
        match self.call_ok(&Request::Attach {
            name: name.to_string(),
        })? {
            Response::Session(info) => Ok(info),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams raw events to the attached session as one encoded chunk.
    /// Returns the session's running `(events, intervals)` totals.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Ingest`] if the server rejected the chunk.
    pub fn ingest(&mut self, events: &[Tuple]) -> Result<(u64, u64), ServerError> {
        self.ingest_chunk(encode_chunk(events))
    }

    /// Sends an already-encoded trace chunk (e.g. straight out of a trace
    /// file) to the attached session.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_chunk(&mut self, chunk: Vec<u8>) -> Result<(u64, u64), ServerError> {
        match self.call_ok(&Request::Ingest { chunk })? {
            Response::Ingested { events, intervals } => Ok((events, intervals)),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends an encoded chunk under a 1-based sequence number. A replay
    /// (`seq` at or below the session's last applied sequence) is
    /// acknowledged without being re-applied, which makes retrying after
    /// a torn connection safe.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest), plus
    /// [`ErrorCode::BadRequest`] on a
    /// sequence gap.
    pub fn ingest_seq(&mut self, seq: u64, chunk: Vec<u8>) -> Result<(u64, u64), ServerError> {
        match self.call_ok(&Request::IngestSeq { seq, chunk })? {
            Response::Ingested { events, intervals } => Ok((events, intervals)),
            other => Err(unexpected(&other)),
        }
    }

    /// The last sequence number the attached session has applied (`0` if
    /// none) — the point a reconnecting sender should replay from.
    ///
    /// # Errors
    ///
    /// Transport failures, or a protocol error if no session is attached.
    pub fn resume(&mut self) -> Result<u64, ServerError> {
        match self.call_ok(&Request::Resume)? {
            Response::Resume { last_seq } => Ok(last_seq),
            other => Err(unexpected(&other)),
        }
    }

    /// Forces the session's global interval to end; `None` if it was empty.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side engine error.
    pub fn cut(&mut self) -> Result<Option<ProfileData>, ServerError> {
        match self.call_ok(&Request::Cut)? {
            Response::Profile(profile) => Ok(Some(profile)),
            Response::NoProfile => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the merged profile of a completed interval; `None` if that
    /// interval does not exist (yet). Pass [`u64::MAX`] for the latest.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side engine error.
    pub fn snapshot(&mut self, interval: u64) -> Result<Option<ProfileData>, ServerError> {
        match self.call_ok(&Request::Snapshot { interval })? {
            Response::Profile(profile) => Ok(Some(profile)),
            Response::NoProfile => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// [`snapshot`](Self::snapshot) for a run of intervals, pipelined:
    /// writes one request per interval with a single flush, then reads the
    /// replies in request order (a server answers one connection's frames
    /// strictly in order) and hands each to `on_reply` — the profile, or
    /// `None` for an interval that does not exist (yet). `before_read`
    /// runs before each reply is read; its error ends the run. Once
    /// `on_reply` returns `false`, the rest of the run is read and
    /// discarded, so the connection stays in step.
    ///
    /// # Errors
    ///
    /// Transport failures, an error response, or an error from
    /// `before_read`. Replies may still be in flight after one, so drop
    /// the connection.
    pub fn pipelined_snapshots(
        &mut self,
        intervals: Range<u64>,
        mut before_read: impl FnMut() -> Result<(), ServerError>,
        mut on_reply: impl FnMut(Option<ProfileData>) -> bool,
    ) -> Result<(), ServerError> {
        let mut frames = Vec::new();
        for interval in intervals.clone() {
            write_frame(&mut frames, &Request::Snapshot { interval }.encode())?;
        }
        self.writer.write_all(&frames)?;
        self.writer.flush()?;
        let mut wanted = true;
        for _ in intervals {
            before_read()?;
            let reply = match self.read_response()? {
                Response::Profile(profile) => Some(profile),
                Response::NoProfile => None,
                Response::Error { code, message } => {
                    return Err(ServerError::Remote { code, message })
                }
                other => return Err(unexpected(&other)),
            };
            wanted = wanted && on_reply(reply);
        }
        Ok(())
    }

    /// The hottest `n` tuples of the session's current partial interval.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side engine error.
    pub fn top_k(&mut self, n: u32) -> Result<Vec<Candidate>, ServerError> {
        match self.call_ok(&Request::TopK { n })? {
            Response::TopK(candidates) => Ok(candidates),
            other => Err(unexpected(&other)),
        }
    }

    /// Every session resident on the server, sorted by name. Works
    /// without an attached session — this is how aggregators and
    /// dashboards discover what a server is holding.
    ///
    /// # Errors
    ///
    /// Transport failures only; the listing always succeeds server-side.
    pub fn list_sessions(&mut self) -> Result<Vec<SessionInfo>, ServerError> {
        Ok(self.list_sessions_with_health()?.0)
    }

    /// Like [`list_sessions`](Self::list_sessions), but also returns the
    /// per-upstream health block an aggregator attaches to its listing
    /// (empty when the peer is a leaf server).
    ///
    /// # Errors
    ///
    /// As [`list_sessions`](Self::list_sessions).
    pub fn list_sessions_with_health(
        &mut self,
    ) -> Result<(Vec<SessionInfo>, Vec<UpstreamHealth>), ServerError> {
        match self.call_ok(&Request::ListSessions)? {
            Response::SessionList {
                sessions,
                upstreams,
            } => Ok((sessions, upstreams)),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's metrics as `key value` text.
    ///
    /// # Errors
    ///
    /// Transport failures only; stats always succeed server-side.
    pub fn stats(&mut self) -> Result<String, ServerError> {
        match self.call_ok(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's full metric registry (server, engine and sketch
    /// metrics) in Prometheus text exposition format.
    ///
    /// # Errors
    ///
    /// Transport failures only; the metrics query always succeeds
    /// server-side.
    pub fn metrics(&mut self) -> Result<String, ServerError> {
        match self.call_ok(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's request-trace stream as JSONL: `stage_summary` lines
    /// (per-stage p50/p99/p999) followed by sampled `trace` lines. Parse
    /// the summaries with [`parse_stage_latencies`].
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] from a
    /// server predating the `traces` op (the unknown-opcode answer), plus
    /// transport failures.
    pub fn traces(&mut self) -> Result<String, ServerError> {
        match self.call_ok(&Request::Traces)? {
            Response::Traces(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Destroys the attached session.
    ///
    /// # Errors
    ///
    /// A protocol error if no session is attached.
    pub fn close_session(&mut self) -> Result<(), ServerError> {
        match self.call_ok(&Request::CloseSession)? {
            Response::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown_server(&mut self) -> Result<(), ServerError> {
        match self.call_ok(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ServerError {
    ServerError::protocol_owned(format!("unexpected response {response:?}"))
}

/// One per-stage latency row scraped from a server's trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Stage name (`"total"` for the whole-request histogram).
    pub stage: String,
    /// Requests that touched this stage.
    pub count: u64,
    /// Median, in microseconds.
    pub p50_us: u64,
    /// 99th percentile, in microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, in microseconds.
    pub p999_us: u64,
}

/// Extracts the value of a numeric `"key":123` field from one JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// Extracts the value of a string `"key":"..."` field from one JSON line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    rest.split('"').next()
}

/// Parses the `stage_summary` lines out of a `traces` JSONL stream (see
/// [`Client::traces`]) into per-stage latency rows, in stream order.
/// Non-summary lines (sampled traces) and malformed lines are skipped.
pub fn parse_stage_latencies(jsonl: &str) -> Vec<StageLatency> {
    jsonl
        .lines()
        .filter(|line| line.contains("\"type\":\"stage_summary\""))
        .filter_map(|line| {
            Some(StageLatency {
                stage: json_str(line, "stage")?.to_string(),
                count: json_u64(line, "count")?,
                p50_us: json_u64(line, "p50_us")?,
                p99_us: json_u64(line, "p99_us")?,
                p999_us: json_u64(line, "p999_us")?,
            })
        })
        .collect()
}

/// Retry and backoff policy for [`ReconnectingClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per operation beyond the first attempt (`0` fails on the
    /// first error).
    pub max_retries: u32,
    /// First backoff; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter mixed into each backoff, so
    /// reconnecting fleets do not thunder in lockstep while tests stay
    /// reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry `attempt` (1-based): exponential from
    /// [`base_backoff`](Self::base_backoff), capped at
    /// [`max_backoff`](Self::max_backoff), plus deterministic jitter of
    /// up to half the pause. Public so other supervised retry loops (the
    /// aggregator's pull workers) share the exact same discipline.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let backoff = self
            .base_backoff
            .saturating_mul(1 << doublings)
            .min(self.max_backoff);
        let jitter_range = (backoff.as_millis() as u64 / 2).max(1);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % jitter_range;
        backoff + Duration::from_millis(jitter)
    }
}

/// SplitMix64 finalizer, for deterministic backoff jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether an error is worth a reconnect-and-retry: transport failures
/// and torn frames (the server or network died under us), `overloaded`
/// sheds (the server asked us to back off), `quota-exceeded` ingest
/// rejections (the tenant's token bucket refills within a second, so
/// backing off clears them), and `ingest` rejections (covers transient
/// corruption caught by the chunk CRC — a sequenced replay of the same
/// chunk is idempotent, so retrying is safe). Every other remote
/// rejection is a permanent answer, not a transient fault.
fn retryable(error: &ServerError) -> bool {
    match error {
        ServerError::Io(_) | ServerError::Protocol(_) => true,
        ServerError::Remote { code, .. } => {
            matches!(
                code,
                ErrorCode::Overloaded | ErrorCode::Ingest | ErrorCode::QuotaExceeded
            )
        }
        ServerError::Pipeline(_) => false,
    }
}

/// A [`Client`] wrapper that survives disconnects, server restarts and
/// overload sheds: every chunk is sent under a sequence number and
/// retained, so after a reconnect the wrapper asks the server where it
/// got to (`resume`) and replays exactly the missing suffix. The server
/// deduplicates replays, so a chunk whose acknowledgement was lost is
/// never double-counted.
#[derive(Debug)]
pub struct ReconnectingClient {
    addr: std::net::SocketAddr,
    session: String,
    config: SessionConfig,
    policy: RetryPolicy,
    client: Option<Client>,
    /// Every chunk sent so far; index `i` holds sequence `i + 1`. Retained
    /// so a restart from an older checkpoint can be replayed from any
    /// resume point the server reports.
    sent: Vec<Vec<u8>>,
    /// Highest sequence the server has acknowledged applying.
    acked: u64,
    retries: u64,
    connects: u64,
}

impl ReconnectingClient {
    /// Connects and opens (or, if it already exists — e.g. restored from
    /// a checkpoint after a server restart — attaches to) the named
    /// session, retrying per `policy`.
    ///
    /// # Errors
    ///
    /// The last connection error once retries are exhausted, or a
    /// non-retryable server rejection.
    pub fn open(
        addr: std::net::SocketAddr,
        session: &str,
        config: SessionConfig,
        policy: RetryPolicy,
    ) -> Result<ReconnectingClient, ServerError> {
        let mut this = ReconnectingClient {
            addr,
            session: session.to_string(),
            config,
            policy,
            client: None,
            sent: Vec::new(),
            acked: 0,
            retries: 0,
            connects: 0,
        };
        this.retry_loop(Self::ensure_connected)?;
        Ok(this)
    }

    /// Streams raw events as the next sequenced chunk; returns the
    /// session's `(events, intervals)` totals once acknowledged.
    ///
    /// # Errors
    ///
    /// As [`ingest_chunk`](Self::ingest_chunk).
    pub fn ingest(&mut self, events: &[Tuple]) -> Result<(u64, u64), ServerError> {
        self.ingest_chunk(encode_chunk(events))
    }

    /// Sends an already-encoded chunk under the next sequence number,
    /// reconnecting and replaying from the server's resume point as
    /// needed until it is acknowledged or retries are exhausted.
    ///
    /// # Errors
    ///
    /// The last error once retries are exhausted, or a non-retryable
    /// server rejection.
    pub fn ingest_chunk(&mut self, chunk: Vec<u8>) -> Result<(u64, u64), ServerError> {
        self.sent.push(chunk);
        let target = self.sent.len() as u64;
        self.retry_loop(|this| this.drive_to(target))
    }

    /// The hottest `n` tuples of the current partial interval, with
    /// reconnect-and-retry.
    ///
    /// # Errors
    ///
    /// As [`ingest_chunk`](Self::ingest_chunk).
    pub fn top_k(&mut self, n: u32) -> Result<Vec<Candidate>, ServerError> {
        self.retry_loop(|this| {
            this.ensure_connected()?;
            this.client.as_mut().expect("connected").top_k(n)
        })
    }

    /// The merged profile of a completed interval (`u64::MAX` for the
    /// latest), with reconnect-and-retry.
    ///
    /// # Errors
    ///
    /// As [`ingest_chunk`](Self::ingest_chunk).
    pub fn snapshot(&mut self, interval: u64) -> Result<Option<ProfileData>, ServerError> {
        self.retry_loop(|this| {
            this.ensure_connected()?;
            this.client.as_mut().expect("connected").snapshot(interval)
        })
    }

    /// Destroys the session. Best-effort idempotent: an `unknown-session`
    /// answer after a retried transport failure means a previous attempt
    /// already won, and is success.
    ///
    /// # Errors
    ///
    /// As [`ingest_chunk`](Self::ingest_chunk).
    pub fn close_session(&mut self) -> Result<(), ServerError> {
        let result = self.retry_loop(|this| {
            this.ensure_connected()?;
            this.client.as_mut().expect("connected").close_session()
        });
        match result {
            Err(ServerError::Remote {
                code: ErrorCode::UnknownSession,
                ..
            }) => Ok(()),
            other => other,
        }
    }

    /// Highest sequence number the server has acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Retry attempts performed so far, across all operations.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections established so far (1 for an undisturbed stream).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Runs `op`, reconnecting with exponential backoff on retryable
    /// failures until it succeeds or the retry budget is spent.
    fn retry_loop<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Ok(value) => return Ok(value),
                Err(error) if !retryable(&error) => return Err(error),
                Err(error) => {
                    if attempt >= self.policy.max_retries {
                        return Err(error);
                    }
                    attempt += 1;
                    self.retries += 1;
                    // The stream may be desynced mid-frame; start fresh.
                    self.client = None;
                    std::thread::sleep(self.policy.backoff(attempt));
                }
            }
        }
    }

    /// Connects, attaches-or-opens the session, and resyncs the ack
    /// cursor from the server's authoritative resume point. No-op when
    /// already connected.
    fn ensure_connected(&mut self) -> Result<(), ServerError> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut client = Client::connect(self.addr)?;
        match client.attach(&self.session) {
            Ok(_) => {
                // A restart from an older checkpoint lowers the resume
                // point; replaying from there is what makes the restored
                // session converge on the uninterrupted result.
                self.acked = client.resume()?;
            }
            Err(ServerError::Remote {
                code: ErrorCode::UnknownSession,
                ..
            }) => {
                client.open_session(&self.session, self.config.clone())?;
                self.acked = 0;
            }
            Err(error) => return Err(error),
        }
        self.connects += 1;
        self.client = Some(client);
        Ok(())
    }

    /// Replays sequences `acked + 1 ..= target` (or just `target`, as an
    /// idempotent ack-fetch, when everything is already applied) and
    /// returns the session totals from the last acknowledgement.
    fn drive_to(&mut self, target: u64) -> Result<(u64, u64), ServerError> {
        self.ensure_connected()?;
        let client = self.client.as_mut().expect("connected");
        let start = (self.acked + 1).min(target);
        let mut totals = (0, 0);
        for seq in start..=target {
            let chunk = self.sent[(seq - 1) as usize].clone();
            totals = client.ingest_seq(seq, chunk)?;
            self.acked = self.acked.max(seq);
        }
        Ok(totals)
    }
}

/// Configuration for [`loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections, each with its own session.
    pub clients: usize,
    /// Events each client streams.
    pub events_per_client: usize,
    /// Events per ingest chunk.
    pub chunk_events: usize,
    /// Session configuration every client opens with.
    pub session: SessionConfig,
    /// Prefix for the per-client session names (`{prefix}-{i}`).
    pub session_prefix: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 8,
            events_per_client: 100_000,
            chunk_events: 4_096,
            session: SessionConfig::default_multi_hash(),
            session_prefix: "loadgen".to_string(),
        }
    }
}

/// What [`loadgen`] measured.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Events streamed across all clients.
    pub events: u64,
    /// Ingest requests issued across all clients.
    pub requests: u64,
    /// Error responses received (any of these is a failed run).
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-ingest-request round-trip latency.
    pub latency: Histogram,
    /// Per-stage server-side latency breakdown, scraped from the server's
    /// trace stream after the run; `None` against a server predating the
    /// `traces` op (the probe degrades gracefully to client-side
    /// percentiles only).
    pub stages: Option<Vec<StageLatency>>,
}

impl LoadgenReport {
    /// Aggregate ingest throughput, events per second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Renders the human-readable summary the CLI prints: the client-side
    /// totals and percentiles, then — when the server advertises tracing —
    /// one line per server-side stage.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "events {}\nrequests {}\nerrors {}\nelapsed_ms {}\nevents_per_sec {:.0}\n\
             latency_p50_us {}\nlatency_p90_us {}\nlatency_p99_us {}\n",
            self.events,
            self.requests,
            self.errors,
            self.elapsed.as_millis(),
            self.events_per_sec(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.90),
            self.latency.quantile(0.99),
        );
        if let Some(stages) = &self.stages {
            for s in stages {
                let _ = writeln!(
                    out,
                    "stage_{} count {} p50_us {} p99_us {} p999_us {}",
                    s.stage, s.count, s.p50_us, s.p99_us, s.p999_us
                );
            }
        }
        out
    }
}

/// Probes the server once for its per-stage trace summaries. An older
/// server answers the unknown `traces` opcode with `bad-request` (and
/// hangs up), which degrades to `None` — loadgen then reports client-side
/// percentiles only. Any other failure also degrades rather than failing
/// a finished run.
fn fetch_stage_latencies(addr: std::net::SocketAddr) -> Option<Vec<StageLatency>> {
    let mut client = Client::connect(addr).ok()?;
    match client.traces() {
        Ok(jsonl) => Some(parse_stage_latencies(&jsonl)),
        Err(ServerError::Remote {
            code: ErrorCode::BadRequest,
            ..
        }) => None,
        Err(_) => None,
    }
}

/// Drives `config.clients` concurrent connections against `addr`: each
/// opens its own session, streams a deterministic synthetic workload in
/// chunks, closes the session, and records per-request latency.
///
/// Distinct per-client stream seeds keep the shard hashes from colliding
/// into lockstep; distinct session names keep the registry honest under
/// concurrent opens.
///
/// # Errors
///
/// Connection-establishment failures. Request-level failures do not abort
/// the run; they are counted in [`LoadgenReport::errors`].
pub fn loadgen(
    addr: std::net::SocketAddr,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, ServerError> {
    use std::sync::atomic::{AtomicU64, Ordering};

    let latency = Histogram::new();
    let errors = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let started = Instant::now();

    std::thread::scope(|scope| -> Result<(), ServerError> {
        let mut handles = Vec::new();
        for client_idx in 0..config.clients {
            let latency = &latency;
            let errors = &errors;
            let requests = &requests;
            handles.push(scope.spawn(move || -> Result<(), ServerError> {
                let mut client = Client::connect(addr)?;
                let name = format!("{}-{client_idx}", config.session_prefix);
                let mut session = config.session.clone();
                session.seed = session.seed.wrapping_add(client_idx as u64);
                client.open_session(&name, session)?;

                let spec = mhp_trace::StreamSpec::new(
                    mhp_trace::Benchmark::Gcc,
                    mhp_trace::StreamKind::Value,
                    0x10AD ^ client_idx as u64,
                );
                let events: Vec<Tuple> = spec.events().take(config.events_per_client).collect();
                for chunk in events.chunks(config.chunk_events.max(1)) {
                    let sent = Instant::now();
                    let outcome = client.call(&Request::Ingest {
                        chunk: encode_chunk(chunk),
                    });
                    latency.record_duration(sent.elapsed());
                    requests.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(Response::Ingested { .. }) => {}
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                client.close_session()?;
                Ok(())
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(_)) | Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    })?;

    let elapsed = started.elapsed();
    Ok(LoadgenReport {
        events: (config.clients * config.events_per_client) as u64,
        requests: requests.into_inner(),
        errors: errors.into_inner(),
        elapsed,
        latency,
        // Probed after the clock stops, so the extra round trip never
        // skews the throughput figure.
        stages: fetch_stage_latencies(addr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_stage_latencies_reads_summary_lines_and_skips_the_rest() {
        let jsonl = concat!(
            "{\"type\":\"stage_summary\",\"stage\":\"ingest\",\"count\":80,",
            "\"p50_us\":120,\"p99_us\":900,\"p999_us\":2500}\n",
            "{\"type\":\"stage_summary\",\"stage\":\"total\",\"count\":80,",
            "\"p50_us\":140,\"p99_us\":1100,\"p999_us\":3000}\n",
            "{\"type\":\"trace\",\"sample\":\"slow\",\"seq\":7,\"kind\":\"ingest\",",
            "\"detail\":0,\"start_us\":12,\"total_us\":999,\"stages\":{\"ingest\":999}}\n",
            "not json at all\n",
        );
        let stages = parse_stage_latencies(jsonl);
        assert_eq!(
            stages,
            vec![
                StageLatency {
                    stage: "ingest".to_string(),
                    count: 80,
                    p50_us: 120,
                    p99_us: 900,
                    p999_us: 2500,
                },
                StageLatency {
                    stage: "total".to_string(),
                    count: 80,
                    p50_us: 140,
                    p99_us: 1100,
                    p999_us: 3000,
                },
            ]
        );
    }

    #[test]
    fn parse_stage_latencies_skips_summary_lines_with_missing_fields() {
        let jsonl = concat!(
            "{\"type\":\"stage_summary\",\"stage\":\"ingest\"}\n",
            "{\"type\":\"stage_summary\",\"stage\":\"reply_write\",\"count\":9,",
            "\"p50_us\":1,\"p99_us\":2,\"p999_us\":3}\n",
        );
        let stages = parse_stage_latencies(jsonl);
        assert_eq!(stages.len(), 1, "truncated line dropped, full line kept");
        assert_eq!(stages[0].stage, "reply_write");
    }
}
