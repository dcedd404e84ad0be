//! Client library for the profiling service: a blocking [`Client`] wrapping
//! one TCP connection, and a [`ReconnectingClient`] that survives
//! disconnects by replaying sequenced chunks. Load generation lives in
//! [`crate::mux`].

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

use mhp_core::{Candidate, Tuple};
use mhp_pipeline::encode_chunk;

use crate::error::{ErrorCode, ServerError};
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
    /// (per-stage p50/p99/p999) followed by sampled `trace` lines.
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

/// Retries per operation, beyond the first attempt, that a
/// [`ReconnectingClient`] is usually given; the load generator
/// ([`mux_loadgen`](crate::mux_loadgen)) re-sends a request at most this
/// many times in a row.
pub const DEFAULT_MAX_RETRIES: u32 = 5;

/// First pause of the client-side retry backoff.
pub(crate) const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(25);
/// Ceiling of the client-side retry backoff (before jitter).
pub(crate) const RETRY_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Seed of the client-side retry backoff jitter.
pub(crate) const RETRY_JITTER_SEED: u64 = 0x5EED;

/// The pause before retry `attempt` (1-based): exponential from `base`,
/// capped at `max`, plus deterministic jitter of up to half the pause
/// drawn from `jitter_seed`, so reconnecting fleets do not thunder in
/// lockstep while tests stay reproducible. The one backoff discipline of
/// the reconnecting client, the load generator and the aggregator's pull
/// workers.
pub fn backoff(attempt: u32, base: Duration, max: Duration, jitter_seed: u64) -> Duration {
    let doublings = attempt.saturating_sub(1).min(16);
    let pause = base.saturating_mul(1 << doublings).min(max);
    let jitter_range = (pause.as_millis() as u64 / 2).max(1);
    let jitter = splitmix64(jitter_seed ^ u64::from(attempt)) % jitter_range;
    pause + Duration::from_millis(jitter)
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
pub(crate) fn retryable(error: &ServerError) -> bool {
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
    /// Retries per operation beyond the first attempt (`0` fails on the
    /// first error).
    max_retries: u32,
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
    /// session. Each operation is retried up to `max_retries` times
    /// (usually [`DEFAULT_MAX_RETRIES`]) after a retryable failure, with
    /// a [`backoff`] pause from 25 ms up to 1 s before each retry.
    ///
    /// # Errors
    ///
    /// The last connection error once retries are exhausted, or a
    /// non-retryable server rejection.
    pub fn open(
        addr: std::net::SocketAddr,
        session: &str,
        config: SessionConfig,
        max_retries: u32,
    ) -> Result<ReconnectingClient, ServerError> {
        let mut this = ReconnectingClient {
            addr,
            session: session.to_string(),
            config,
            max_retries,
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
                    if attempt >= self.max_retries {
                        return Err(error);
                    }
                    attempt += 1;
                    self.retries += 1;
                    // The stream may be desynced mid-frame; start fresh.
                    self.client = None;
                    std::thread::sleep(backoff(
                        attempt,
                        RETRY_BACKOFF_BASE,
                        RETRY_BACKOFF_MAX,
                        RETRY_JITTER_SEED,
                    ));
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
