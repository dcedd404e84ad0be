//! Multiplexed load generation: thousands of concurrent client sessions
//! driven by one thread over nonblocking connections and an
//! [`mhp_net::Reactor`], reading replies with a [`FrameDecoder`]. It is
//! the engine behind `mhp-client loadgen --sessions`, `mhp-bench server`
//! and the c10k smoke; the server holds each session on its own handler
//! thread, so its `max_connections` must exceed the session count.
//!
//! Each connection runs a tiny state machine: open a named session, then
//! either stream ingest chunks request-by-request (an *active* session)
//! or sit attached and idle (an *idle* session — the fleet-realistic case
//! where most producers are quiet at any instant). All sessions stay open
//! until the run completes, so the peak concurrency the server saw equals
//! the session count.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use mhp_net::{Interest, Reactor, Token};
use mhp_pipeline::encode_chunk;

use crate::error::ServerError;
use crate::metrics::Histogram;
use crate::protocol::{FrameDecoder, Request, Response, SessionConfig};

/// Configuration for [`mux_loadgen`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Concurrent sessions, one nonblocking connection each.
    pub sessions: usize,
    /// How many of them actively stream events; the rest open their
    /// session and idle. Clamped to `sessions`.
    pub active: usize,
    /// Events each active session streams.
    pub events_per_session: usize,
    /// Events per ingest chunk.
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
            sessions: 1024,
            active: 64,
            events_per_session: 50_000,
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
    /// Error responses received (retries after `Overloaded` count here
    /// too, but do not abort the run).
    pub errors: u64,
    /// Wall-clock duration from first connect to last acknowledgement.
    pub elapsed: Duration,
    /// Per-request round-trip latency (open and ingest).
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
    /// Opened and holding the session, sending nothing.
    Idle,
    /// Finished streaming; holding the session until the run ends.
    Done,
}

struct MuxConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    write_buf: Vec<u8>,
    write_pos: usize,
    phase: Phase,
    /// Index into the shared chunk pool for this connection's payload.
    chunk: usize,
    chunks_target: usize,
    chunks_acked: usize,
    request_sent: Instant,
    dead: bool,
}

impl MuxConn {
    fn push_frame(&mut self, body: &[u8]) {
        self.write_buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(body);
    }

    fn flush(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
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

    /// True once this connection needs nothing further from the run.
    fn settled(&self) -> bool {
        self.dead || matches!(self.phase, Phase::Idle | Phase::Done)
    }
}

/// Drives `config.sessions` concurrent sessions against `addr` from a
/// single thread, multiplexed over nonblocking connections. See the
/// module docs for the shape of the run.
///
/// # Errors
///
/// Connection-establishment failures, or blowing
/// [`deadline`](MuxConfig::deadline). Request-level errors are counted,
/// and the affected chunk retried, rather than aborting the run.
pub fn mux_loadgen(addr: SocketAddr, config: &MuxConfig) -> Result<MuxReport, ServerError> {
    let sessions = config.sessions.max(1);
    let active = config.active.min(sessions);
    let chunk_events = config.chunk_events.max(1);
    let chunks_target = config.events_per_session.div_ceil(chunk_events);

    // A small pool of pre-encoded chunks shared across sessions: encoding
    // is done once, not per session per send, so the loadgen thread spends
    // its cycles on I/O, not on re-serializing identical payloads.
    let pool_size = 8usize.min(active.max(1));
    let chunk_pool: Vec<Vec<u8>> = (0..pool_size)
        .map(|i| {
            let spec = mhp_trace::StreamSpec::new(
                mhp_trace::Benchmark::Gcc,
                mhp_trace::StreamKind::Value,
                0x10AD ^ i as u64,
            );
            let events: Vec<mhp_core::Tuple> = spec.events().take(chunk_events).collect();
            encode_chunk(&events)
        })
        .collect();

    let latency = Histogram::new();
    let mut errors = 0u64;
    let mut requests = 0u64;
    let mut opened = 0usize;
    let started = Instant::now();
    let hard_deadline = started + config.deadline;

    let mut reactor = Reactor::new()?;
    let mut conns: Vec<MuxConn> = Vec::with_capacity(sessions);
    let mut events_buf = Vec::new();

    // Ramp up in batches: connect (blocking — loopback connects resolve
    // immediately), queue the open, and poll between batches so the
    // server's accept queue and our handshakes overlap.
    let mut pending_connect: VecDeque<usize> = (0..sessions).collect();
    const CONNECT_BATCH: usize = 64;

    loop {
        for _ in 0..CONNECT_BATCH {
            let Some(idx) = pending_connect.pop_front() else {
                break;
            };
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true)?;
            let fd = stream.as_raw_fd();
            let mut session = config.session.clone();
            session.seed = session.seed.wrapping_add(idx as u64);
            let open = Request::Open {
                name: format!("{}-{idx}", config.session_prefix),
                config: session,
            }
            .encode();
            let mut conn = MuxConn {
                stream,
                decoder: FrameDecoder::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                phase: Phase::Opening,
                chunk: idx % pool_size,
                chunks_target: if idx < active { chunks_target } else { 0 },
                chunks_acked: 0,
                request_sent: Instant::now(),
                dead: false,
            };
            conn.push_frame(&open);
            conn.flush();
            let token = Token(idx);
            reactor.register(fd, token, conn.interest())?;
            conns.push(conn);
        }

        let all_connected = pending_connect.is_empty();
        let mut outstanding = false;
        reactor.poll(&mut events_buf, Some(Duration::from_millis(20)))?;
        for event in &events_buf {
            let idx = event.token.0;
            let conn = &mut conns[idx];
            if conn.dead {
                continue;
            }
            if event.error {
                conn.dead = true;
                errors += 1;
                let _ = reactor.deregister(event.token);
                continue;
            }
            if event.readable || event.hangup {
                let mut scratch = [0u8; 16 * 1024];
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            // Hangup mid-run is an error unless we are done.
                            if !conn.settled() {
                                errors += 1;
                            }
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
                // Decode every complete response and advance the machine.
                loop {
                    let body = match conn.decoder.next_frame() {
                        Ok(Some(body)) => body,
                        Ok(None) => break,
                        Err(_) => {
                            conn.dead = true;
                            errors += 1;
                            break;
                        }
                    };
                    latency.record_duration(conn.request_sent.elapsed());
                    let response = Response::decode(&body);
                    match (conn.phase, response) {
                        (Phase::Opening, Ok(Response::Session(_))) => {
                            opened += 1;
                            if conn.chunks_target == 0 {
                                conn.phase = Phase::Idle;
                            } else {
                                conn.phase = Phase::Ingesting;
                                let chunk = chunk_pool[conn.chunk].clone();
                                let body = Request::Ingest { chunk }.encode();
                                conn.push_frame(&body);
                                conn.request_sent = Instant::now();
                            }
                        }
                        (Phase::Ingesting, Ok(Response::Ingested { .. })) => {
                            requests += 1;
                            conn.chunks_acked += 1;
                            if conn.chunks_acked >= conn.chunks_target {
                                conn.phase = Phase::Done;
                            } else {
                                let chunk = chunk_pool[conn.chunk].clone();
                                let body = Request::Ingest { chunk }.encode();
                                conn.push_frame(&body);
                                conn.request_sent = Instant::now();
                            }
                        }
                        (phase, Ok(Response::Error { .. })) => {
                            // Retryable shed (or a real failure): count it
                            // and repeat the in-flight request.
                            errors += 1;
                            let body = match phase {
                                Phase::Opening => {
                                    let mut session = config.session.clone();
                                    session.seed = session.seed.wrapping_add(idx as u64);
                                    Request::Open {
                                        name: format!("{}-{idx}", config.session_prefix),
                                        config: session,
                                    }
                                    .encode()
                                }
                                _ => Request::Ingest {
                                    chunk: chunk_pool[conn.chunk].clone(),
                                }
                                .encode(),
                            };
                            conn.push_frame(&body);
                            conn.request_sent = Instant::now();
                        }
                        (_, _) => {
                            errors += 1;
                            conn.dead = true;
                        }
                    }
                    if conn.dead {
                        break;
                    }
                }
            }
            conn.flush();
            if conn.dead {
                let _ = reactor.deregister(event.token);
            } else {
                reactor.set_interest(event.token, conn.interest())?;
            }
        }

        for conn in &conns {
            if !conn.settled() {
                outstanding = true;
                break;
            }
        }
        if all_connected && !outstanding {
            break;
        }
        if Instant::now() > hard_deadline {
            return Err(ServerError::protocol("mux loadgen blew its deadline"));
        }
    }

    Ok(MuxReport {
        sessions,
        opened,
        active,
        events: requests * chunk_events as u64,
        requests,
        errors,
        elapsed: started.elapsed(),
        latency,
    })
}
