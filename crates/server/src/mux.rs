//! Load generation: many concurrent client sessions driven by one thread
//! over nonblocking connections and an [`mhp_net::Reactor`], reading
//! replies with a [`FrameDecoder`]. It is the engine behind
//! `mhp-client loadgen`, `mhp-bench server` and the c10k smoke; the server
//! holds each session on its own handler thread, so its `max_connections`
//! must exceed the session count.
//!
//! Each connection runs a tiny state machine: open a named session, then
//! either stream ingest chunks request-by-request (an *active* session)
//! or sit attached and idle (an *idle* session — the fleet-realistic case
//! where most producers are quiet at any instant). All sessions stay open
//! until the run completes, so the peak concurrency the server saw equals
//! the session count. Then the clock stops and every opened session is
//! closed. A retryable error reply is answered like the
//! [`ReconnectingClient`](crate::ReconnectingClient) answers it: the
//! request goes again after a [`backoff`] pause, at most
//! [`DEFAULT_MAX_RETRIES`] times in a row.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use mhp_net::{Interest, Reactor, Token};
use mhp_pipeline::encode_chunk;

use crate::client::{
    backoff, retryable, DEFAULT_MAX_RETRIES, RETRY_BACKOFF_BASE, RETRY_BACKOFF_MAX,
    RETRY_JITTER_SEED,
};
use crate::error::ServerError;
use crate::metrics::Histogram;
use crate::protocol::{FrameDecoder, Request, Response, SessionConfig};

/// Configuration for [`mux_loadgen`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Concurrent sessions, one nonblocking connection each.
    pub sessions: usize,
    /// How many of them actively stream events; the rest open their
    /// session and idle. Clamped to `sessions`, so the default
    /// (`usize::MAX`) streams on every session.
    pub active: usize,
    /// Events each active session streams.
    pub events_per_session: usize,
    /// Events per ingest chunk; a session's last chunk carries the
    /// remainder when `events_per_session` is not a multiple of it.
    pub chunk_events: usize,
    /// Session configuration every connection opens with.
    pub session: SessionConfig,
    /// Prefix for the per-connection session names (`{prefix}-{i}`).
    pub session_prefix: String,
    /// Abort the run (with an error) if it has not completed by then.
    pub deadline: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            sessions: 8,
            active: usize::MAX,
            events_per_session: 100_000,
            chunk_events: 4_096,
            session: SessionConfig::default_multi_hash(),
            session_prefix: "mux".to_string(),
            deadline: Duration::from_secs(300),
        }
    }
}

/// What [`mux_loadgen`] measured.
#[derive(Debug)]
pub struct MuxReport {
    /// Sessions requested.
    pub sessions: usize,
    /// Sessions that opened successfully (all of them, on a passing run).
    pub opened: usize,
    /// Sessions that streamed events.
    pub active: usize,
    /// Events acknowledged across all active sessions.
    pub events: u64,
    /// Ingest requests acknowledged.
    pub requests: u64,
    /// Failed requests: every error reply (a retryable one is retried up
    /// to [`DEFAULT_MAX_RETRIES`] times in a row) plus connections lost
    /// before their session was closed, to a reply out of turn or a
    /// dropped connection. Non-zero fails the run.
    pub errors: u64,
    /// Wall-clock duration from first connect to last acknowledgement;
    /// the close pass after it is not timed.
    pub elapsed: Duration,
    /// Per-request round-trip latency (open and ingest; not close).
    pub latency: Histogram,
}

impl MuxReport {
    /// Aggregate acknowledged ingest throughput, events per second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Renders the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        format!(
            "sessions {}\nopened {}\nactive {}\nevents {}\nrequests {}\nerrors {}\n\
             elapsed_ms {}\nevents_per_sec {:.0}\n\
             latency_p50_us {}\nlatency_p90_us {}\nlatency_p99_us {}\n",
            self.sessions,
            self.opened,
            self.active,
            self.events,
            self.requests,
            self.errors,
            self.elapsed.as_millis(),
            self.events_per_sec(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.90),
            self.latency.quantile(0.99),
        )
    }
}

/// Where one multiplexed session is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `open` sent, waiting for the session echo.
    Opening,
    /// Streaming chunks; one request in flight at a time.
    Ingesting,
    /// Idle, finished streaming, or failed mid-stream: holding the
    /// session until the run ends, sending nothing.
    Holding,
    /// The run is over; `close` sent, waiting for its acknowledgement.
    Closing,
    /// Session closed, or never opened; nothing further to send.
    Closed,
}

struct MuxConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    write_buf: Vec<u8>,
    write_pos: usize,
    phase: Phase,
    /// Index into the shared payload pool for this connection's chunks.
    chunk: usize,
    chunks_target: usize,
    chunks_acked: usize,
    /// Retryable error replies in a row to the request in flight.
    retries: u32,
    request_sent: Instant,
    dead: bool,
}

impl MuxConn {
    /// Queues one request frame and starts its round-trip clock.
    fn send(&mut self, body: &[u8]) {
        self.write_buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(body);
        self.request_sent = Instant::now();
    }

    fn flush(&mut self) {
        while !self.dead && self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: !self.dead,
            writable: self.write_pos < self.write_buf.len(),
        }
    }

    /// True once this connection needs nothing further from the current
    /// pass: the run (streams finished, idlers holding) or the close pass.
    fn settled(&self) -> bool {
        self.dead || matches!(self.phase, Phase::Holding | Phase::Closed)
    }
}

/// One slice of a generated stream, encoded once and shared by every
/// session that sends it.
struct Payload {
    /// A full chunk, sent by every ingest request but a session's last.
    chunk: Vec<u8>,
    /// A session's last chunk: the head of the same slice, as many
    /// events as are left of `events_per_session`.
    last: Vec<u8>,
}

/// The state of one [`mux_loadgen`] run, shared by the run itself and the
/// close pass after it.
struct Run<'a> {
    config: &'a MuxConfig,
    payloads: Vec<Payload>,
    reactor: Reactor,
    conns: Vec<MuxConn>,
    ready: Vec<mhp_net::Event>,
    /// Requests waiting out a backoff pause: `(when to resend, connection)`.
    backlog: Vec<(Instant, usize)>,
    latency: Histogram,
    errors: u64,
    requests: u64,
    opened: usize,
}

impl Run<'_> {
    /// The request connection `idx` has in flight in `phase`, encoded.
    fn request(&self, idx: usize, phase: Phase) -> Vec<u8> {
        match phase {
            Phase::Opening => {
                let mut session = self.config.session.clone();
                session.seed = session.seed.wrapping_add(idx as u64);
                Request::Open {
                    name: format!("{}-{idx}", self.config.session_prefix),
                    config: session,
                }
            }
            Phase::Closing => Request::CloseSession,
            _ => {
                let conn = &self.conns[idx];
                let payload = &self.payloads[conn.chunk];
                let chunk = if conn.chunks_acked + 1 == conn.chunks_target {
                    &payload.last
                } else {
                    &payload.chunk
                };
                Request::Ingest {
                    chunk: chunk.clone(),
                }
            }
        }
        .encode()
    }

    /// Flushes `idx`'s queued bytes. A connection that dies before its
    /// session is closed counts as one error, here and only here.
    fn flush(&mut self, idx: usize) -> Result<(), ServerError> {
        let conn = &mut self.conns[idx];
        conn.flush();
        if conn.dead {
            if conn.phase != Phase::Closed {
                self.errors += 1;
            }
            let _ = self.reactor.deregister(Token(idx));
        } else {
            self.reactor.set_interest(Token(idx), conn.interest())?;
        }
        Ok(())
    }

    fn settled(&self) -> bool {
        self.conns.iter().all(MuxConn::settled)
    }

    /// Waits up to one poll period, advances every ready connection and
    /// resends the requests whose backoff pause is over.
    fn poll(&mut self) -> Result<(), ServerError> {
        self.reactor
            .poll(&mut self.ready, Some(Duration::from_millis(20)))?;
        for i in 0..self.ready.len() {
            let event = self.ready[i];
            let idx = event.token.0;
            if self.conns[idx].dead {
                continue;
            }
            if event.error {
                self.conns[idx].dead = true;
            } else if event.readable || event.hangup {
                self.read(idx);
            }
            self.flush(idx)?;
        }
        let now = Instant::now();
        while let Some(i) = self.backlog.iter().position(|&(at, _)| at <= now) {
            let (_, idx) = self.backlog.swap_remove(i);
            if !self.conns[idx].dead {
                let body = self.request(idx, self.conns[idx].phase);
                self.conns[idx].send(&body);
                self.flush(idx)?;
            }
        }
        Ok(())
    }

    /// Drains `idx`'s socket and advances its state machine through every
    /// complete reply.
    fn read(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.decoder.push(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        // Replies that arrived before a hangup still count.
        loop {
            let conn = &mut self.conns[idx];
            let body = match conn.decoder.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            };
            let phase = conn.phase;
            if phase != Phase::Closing {
                self.latency.record_duration(conn.request_sent.elapsed());
            }
            match (phase, Response::decode(&body)) {
                (Phase::Opening, Ok(Response::Session(_))) => {
                    self.opened += 1;
                    self.stream_next(idx);
                }
                (Phase::Ingesting, Ok(Response::Ingested { .. })) => {
                    self.requests += 1;
                    self.conns[idx].chunks_acked += 1;
                    self.stream_next(idx);
                }
                (Phase::Closing, Ok(Response::Done)) => self.conns[idx].phase = Phase::Closed,
                (phase, Ok(Response::Error { code, message })) => {
                    self.errors += 1;
                    let conn = &mut self.conns[idx];
                    if retryable(&ServerError::Remote { code, message })
                        && conn.retries < DEFAULT_MAX_RETRIES
                    {
                        // A shed or a transient rejection: repeat the
                        // request in flight after a pause.
                        conn.retries += 1;
                        let pause = backoff(
                            conn.retries,
                            RETRY_BACKOFF_BASE,
                            RETRY_BACKOFF_MAX,
                            RETRY_JITTER_SEED ^ idx as u64,
                        );
                        self.backlog.push((Instant::now() + pause, idx));
                    } else {
                        // A permanent answer, or a transient one that
                        // did not clear, fails the request in flight. A
                        // failed stream's session is still closed after
                        // the run; a failed open or close needs nothing
                        // more.
                        conn.phase = if phase == Phase::Ingesting {
                            Phase::Holding
                        } else {
                            Phase::Closed
                        };
                    }
                }
                // A reply out of turn, or an undecodable one.
                _ => self.conns[idx].dead = true,
            }
            if self.conns[idx].dead {
                break;
            }
        }
    }

    /// After an `open` or ingest acknowledgement: sends the next chunk, or
    /// holds the session once its stream (if any) is done.
    fn stream_next(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        conn.retries = 0;
        if conn.chunks_acked >= conn.chunks_target {
            conn.phase = Phase::Holding;
            return;
        }
        conn.phase = Phase::Ingesting;
        let body = self.request(idx, Phase::Ingesting);
        self.conns[idx].send(&body);
    }
}

/// Drives `config.sessions` concurrent sessions against `addr` from a
/// single thread, multiplexed over nonblocking connections. See the
/// module docs for the shape of the run. Once every stream is done the
/// clock stops, and then every opened session is closed, so the report
/// times the run alone and a repeat run against the same server starts
/// clean.
///
/// # Errors
///
/// Connection-establishment failures, or blowing
/// [`deadline`](MuxConfig::deadline). Request-level failures are counted
/// in [`MuxReport::errors`] rather than aborting the run: a retryable
/// error reply (see [`ReconnectingClient`](crate::ReconnectingClient)'s
/// rule) sends the request again after a pause, and any other one, or
/// one more than [`DEFAULT_MAX_RETRIES`] in a row, ends its session's
/// stream.
pub fn mux_loadgen(addr: SocketAddr, config: &MuxConfig) -> Result<MuxReport, ServerError> {
    let sessions = config.sessions.max(1);
    let active = config.active.min(sessions);
    let chunk_events = config.chunk_events.max(1);
    let chunks_target = config.events_per_session.div_ceil(chunk_events);
    let last_events = config.events_per_session - chunks_target.saturating_sub(1) * chunk_events;

    // A small pool of pre-encoded chunks shared across sessions: encoding
    // is done once, not per session per send, so the loadgen thread spends
    // its cycles on I/O, not on re-serializing identical payloads.
    let pool_size = 8usize.min(active.max(1));
    let payloads: Vec<Payload> = (0..pool_size)
        .map(|i| {
            let spec = mhp_trace::StreamSpec::new(
                mhp_trace::Benchmark::Gcc,
                mhp_trace::StreamKind::Value,
                0x10AD ^ i as u64,
            );
            let events: Vec<mhp_core::Tuple> = spec.events().take(chunk_events).collect();
            Payload {
                chunk: encode_chunk(&events),
                last: encode_chunk(&events[..last_events]),
            }
        })
        .collect();

    let started = Instant::now();
    let hard_deadline = started + config.deadline;
    let mut run = Run {
        config,
        payloads,
        reactor: Reactor::new()?,
        conns: Vec::with_capacity(sessions),
        ready: Vec::new(),
        backlog: Vec::new(),
        latency: Histogram::new(),
        errors: 0,
        requests: 0,
        opened: 0,
    };
    let blown = || ServerError::protocol("mux loadgen blew its deadline");

    // Ramp up in batches: connect (blocking — loopback connects resolve
    // immediately), queue the open, and poll between batches so the
    // server's accept queue and our handshakes overlap.
    const CONNECT_BATCH: usize = 64;
    loop {
        let batch_end = (run.conns.len() + CONNECT_BATCH).min(sessions);
        for idx in run.conns.len()..batch_end {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true)?;
            run.reactor
                .register(stream.as_raw_fd(), Token(idx), Interest::NONE)?;
            run.conns.push(MuxConn {
                stream,
                decoder: FrameDecoder::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                phase: Phase::Opening,
                chunk: idx % pool_size,
                chunks_target: if idx < active { chunks_target } else { 0 },
                chunks_acked: 0,
                retries: 0,
                request_sent: Instant::now(),
                dead: false,
            });
            let open = run.request(idx, Phase::Opening);
            run.conns[idx].send(&open);
            run.flush(idx)?;
        }
        run.poll()?;
        if run.conns.len() == sessions && run.settled() {
            break;
        }
        if Instant::now() > hard_deadline {
            return Err(blown());
        }
    }
    let elapsed = started.elapsed();

    // The close pass: off the clock, and without latency samples.
    for idx in 0..sessions {
        if !run.conns[idx].dead && run.conns[idx].phase == Phase::Holding {
            run.conns[idx].phase = Phase::Closing;
            let close = run.request(idx, Phase::Closing);
            run.conns[idx].send(&close);
            run.flush(idx)?;
        }
    }
    while !run.settled() {
        if Instant::now() > hard_deadline {
            return Err(blown());
        }
        run.poll()?;
    }

    Ok(MuxReport {
        sessions,
        opened: run.opened,
        active,
        // Every acknowledged chunk was full but a session's last.
        events: run
            .conns
            .iter()
            .map(|conn| (conn.chunks_acked * chunk_events).min(config.events_per_session) as u64)
            .sum(),
        requests: run.requests,
        errors: run.errors,
        elapsed,
        latency: run.latency,
    })
}
