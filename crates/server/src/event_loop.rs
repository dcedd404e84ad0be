//! The readiness-based front end: one socket thread multiplexing every
//! connection over an [`mhp_net::Reactor`], plus a small worker pool for
//! the sketch work, so the service holds thousands of concurrent
//! connections instead of one thread each.
//!
//! ## Architecture
//!
//! ```text
//!                     ┌────────────────────────────────────┐
//!   accept ─┐         │  loop thread: poll(2) readiness    │
//!   conn ───┤ Reactor │  · FrameDecoder resumes mid-frame  │
//!   conn ───┤         │  · dispatch → bounded job queue ───┼──► worker pool
//!   conn ───┘         │  · completions → write buffers     │◄── (respond)
//!                     └────────────────────────────────────┘      + waker
//! ```
//!
//! Each connection is a state machine (`EConn`, implementing
//! [`mhp_net::Conn`]): bytes arriving on a readiness event feed an
//! incremental [`FrameDecoder`] that resumes partial frames across events;
//! complete frames go through the same request path as the threaded front
//! end (`start_request`, then `respond` on a worker, then
//! `Ticket::complete` once the reply is flushed). Only socket I/O is this
//! module's own: requests become jobs on a bounded queue (the connection's
//! session attachment moves into the job and comes back with the
//! completion — one job in flight per connection keeps request order and
//! makes the move exclusive), and replies append to a bounded write buffer
//! flushed as the socket accepts it.
//!
//! ## Backpressure, in order of escalation
//!
//! 1. **Admission pacing**: accepted connections are parked — registered
//!    with the reactor (so errors and hangups are still observed) but
//!    without read interest — and admitted only as the worker queue has
//!    headroom. An open burst therefore ramps in at the queue's drain
//!    rate instead of slamming it and eating `Overloaded` sheds. Each
//!    admission holds a queue *reservation* until the connection's first
//!    request reaches the dispatch point, so a burst of first requests
//!    can never overflow the queue, no matter how the bytes race the
//!    admissions. Reservations are deadline-bounded: an admitted
//!    connection that sends no first request within the admission grace
//!    releases its slot (and stays admitted), so idle connections cannot
//!    starve later arrivals out of admission.
//! 2. **Busy connection**: while a job is in flight the connection's read
//!    interest is dropped — the kernel's receive buffer, and eventually
//!    the client's send buffer, absorb the pushback. No unbounded queues.
//! 3. **Full worker queue**: a further request from an already-admitted
//!    connection that finds the queue full is answered immediately with
//!    the retryable `Overloaded` error instead of being queued. After
//!    pacing, this is the fallback for pipelined requests, not the
//!    steady-state response to a connection ramp.
//! 4. **Write buffer over its cap** (client not draining responses): the
//!    response is shed for a tiny retryable `Overloaded` error; if even
//!    that cannot fit, the connection is closed.
//!
//! A peer stalling mid-frame is bounded by the same budget as the threaded
//! front end (`MAX_MID_FRAME_TIMEOUTS` × read timeout), enforced by the
//! reactor's timer wheel instead of per-read timeouts.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mhp_net::{Conn, Event, Interest, Reactor, Slab, Step, TimerWheel, Token, Waker};
use mhp_telemetry::{Counter, Gauge};

use crate::error::ErrorCode;
use crate::protocol::{FrameDecoder, Request, MAX_FRAME_BYTES, MAX_MID_FRAME_TIMEOUTS};
use crate::server::{
    drain_sessions, error_frame, reject_overloaded, respond, start_request, Attachment, Shared,
    Start, Ticket, STAGE_ADMISSION_WAIT, STAGE_QUEUE_WAIT, STAGE_REPLY_WRITE,
};

/// Tuning for the event-loop front end. The defaults suit a small host;
/// all three knobs trade memory for tolerance of slow clients.
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Worker threads running requests. Socket I/O stays on the loop
    /// thread regardless.
    pub workers: usize,
    /// Bounded job queue depth shared by the workers; a full queue answers
    /// `Overloaded` instead of queueing.
    pub worker_queue_depth: usize,
    /// Per-connection write buffer cap, in bytes; responses that would
    /// overflow it are shed with `Overloaded`.
    pub max_write_buffer_bytes: usize,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            workers: 2,
            worker_queue_depth: 256,
            // Two maximal frames: one response mid-flush plus one queued.
            max_write_buffer_bytes: 2 * (MAX_FRAME_BYTES + 4),
        }
    }
}

/// Reactor/connection telemetry on the shared registry (satellite of the
/// event-loop work): scraped through the same `metrics` query /
/// Prometheus exposition as everything else.
#[derive(Clone)]
struct NetMetrics {
    /// Connections currently registered with the reactor.
    open_connections: Gauge,
    /// Times the reactor's poll returned due to a cross-thread wakeup
    /// (worker completions, mostly).
    wakeups_total: Counter,
    /// Readiness events that resumed a partially received frame.
    partial_frame_resumes: Counter,
    /// Responses shed because a connection's write buffer was over cap.
    write_sheds: Counter,
    /// Requests answered `Overloaded` because the worker queue was full.
    queue_sheds: Counter,
    /// Jobs sitting in the worker queue right now.
    worker_queue_depth: Gauge,
    /// Accepted connections parked, awaiting admission.
    pending_admissions: Gauge,
    /// Admitted connections still holding their first-dispatch queue
    /// reservation.
    admission_reservations: Gauge,
    /// Connections whose admission was deferred because the worker queue
    /// had no headroom — the pacing actually paced. Counted once per
    /// connection, at its first deferred pass, not once per loop pass.
    admission_deferrals: Counter,
}

impl NetMetrics {
    fn on_registry(registry: &mhp_telemetry::Registry) -> Self {
        NetMetrics {
            open_connections: registry.gauge("server_net_open_connections"),
            wakeups_total: registry.counter("server_net_wakeups_total"),
            partial_frame_resumes: registry.counter("server_net_partial_frame_resumes_total"),
            write_sheds: registry.counter("server_net_write_sheds_total"),
            queue_sheds: registry.counter("server_net_queue_sheds_total"),
            worker_queue_depth: registry.gauge("server_net_worker_queue_depth"),
            pending_admissions: registry.gauge("server_net_pending_admissions"),
            admission_reservations: registry.gauge("server_net_admission_reservations"),
            admission_deferrals: registry.counter("server_net_admission_deferrals_total"),
        }
    }
}

/// An admitted connection must land its first request within this many
/// read-timeout periods, or its worker-queue reservation is released (the
/// connection stays admitted; a late first request takes the normal
/// full-queue shed path). Without this bound, `worker_queue_depth`
/// connections that connect and send nothing — a client pool pre-opening
/// sockets, say — would hold every reservable slot forever and park all
/// later arrivals indefinitely.
const RESERVATION_BUDGET: u32 = 20;

/// One request moved off the loop thread.
struct Job {
    token: Token,
    request: Request,
    /// The connection's session hold, moved into the job and back.
    attached: Option<Attachment>,
    /// The request's ticket (trace included), riding the queue handoff.
    ticket: Ticket,
    /// When the job was queued: from here to worker pickup is the
    /// `queue_wait` stage.
    queued: Instant,
}

/// A finished job, headed back to the loop thread.
struct Completion {
    token: Token,
    /// The reply bytes to send.
    reply: Vec<u8>,
    attached: Option<Attachment>,
    ticket: Ticket,
}

/// Per-connection state machine. `Interest::NONE`-style backpressure and
/// all protocol work live here; the loop only routes.
struct EConn {
    stream: TcpStream,
    /// This connection's slab token, for tagging jobs.
    token: Token,
    decoder: FrameDecoder,
    /// Pending response bytes; `write_pos..` is unflushed.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The session hold; `None` while a job carries it.
    attached: Option<Attachment>,
    /// Past admission pacing: parked connections (`false`) are not read
    /// until the worker queue has headroom for them.
    admitted: bool,
    /// Still holding an admission reservation: one worker-queue slot is
    /// spoken for until this connection's first request reaches dispatch
    /// or the admission grace ([`RESERVATION_BUDGET`]) expires.
    reserved: bool,
    /// Already counted in `admission_deferrals`; keeps that counter at one
    /// per deferred connection rather than one per deferred pass.
    deferral_counted: bool,
    /// When the connection was accepted (and parked), for attributing the
    /// admission wait to its first request.
    accepted_at: Instant,
    /// Parked time, set at admission and consumed by the first dispatched
    /// request's trace as its `admission_wait` stage.
    admission_wait: Option<Duration>,
    /// A job is in flight; read interest is dropped until it completes.
    busy: bool,
    /// Peer sent EOF; close once buffered frames and writes are done.
    read_closed: bool,
    /// Close as soon as the write buffer drains.
    close_after_flush: bool,
    /// Close immediately, discarding buffered writes.
    close_now: bool,
    shared: Arc<Shared>,
    net: NetMetrics,
    jobs: SyncSender<Job>,
    write_cap: usize,
}

impl EConn {
    /// Releases this connection's admission reservation, if it still holds
    /// one: the first request has reached the dispatch point (or never
    /// will), so the reserved worker-queue slot is either consumed for
    /// real or freed for the next parked connection.
    fn release_reservation(&mut self) {
        if self.reserved {
            self.reserved = false;
            self.net.admission_reservations.decr();
        }
    }

    fn buffered_writes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Queues one reply frame, shedding it for a retryable `Overloaded`
    /// error if the write buffer is over its cap (the client is not
    /// draining replies).
    fn queue_reply(&mut self, reply: &[u8]) {
        if self.buffered_writes() + reply.len() <= self.write_cap {
            self.write_buf.extend_from_slice(reply);
            return;
        }
        self.net.write_sheds.incr();
        self.shared.metrics.errors_total.incr();
        let shed = error_frame(
            ErrorCode::Overloaded,
            "write buffer over capacity; back off and retry".into(),
        );
        if self.buffered_writes() + shed.len() <= self.write_cap {
            self.write_buf.extend_from_slice(&shed);
        } else {
            // Not draining even tiny error frames: cut the connection.
            self.close_now = true;
        }
    }

    /// Reads everything the socket has, feeding the decoder.
    fn drain_socket(&mut self) {
        let resumed_partial = self.decoder.mid_frame();
        let mut scratch = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    any = true;
                    self.decoder.push(&scratch[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_now = true;
                    break;
                }
            }
        }
        if any && resumed_partial {
            self.net.partial_frame_resumes.incr();
        }
    }

    /// Pops buffered frames and dispatches them until a job is in flight,
    /// the frames run out, or the connection is marked for close.
    fn dispatch_frames(&mut self) {
        while !self.busy && !self.close_now && !self.close_after_flush {
            let Some(frame) = self.decoder.next_frame().transpose() else {
                break;
            };
            let (request, ticket) = match start_request(frame, &self.shared) {
                Start::Run(request, ticket) => (request, ticket),
                Start::Close(Some(reply)) => {
                    self.queue_reply(&reply);
                    self.close_after_flush = true;
                    break;
                }
                Start::Close(None) => {
                    self.close_now = true;
                    break;
                }
            };
            // The connection's parked time lands on its first request.
            if let Some(parked) = self.admission_wait.take() {
                ticket.trace.add_lead(STAGE_ADMISSION_WAIT, parked);
            }
            let job = Job {
                token: self.token,
                request,
                attached: self.attached.take(),
                ticket,
                queued: Instant::now(),
            };
            // The queue slot the admission reserved is consumed (or the
            // shed fallback below answers) right now.
            self.release_reservation();
            match self.jobs.try_send(job) {
                Ok(()) => {
                    self.net.worker_queue_depth.incr();
                    self.busy = true;
                }
                Err(TrySendError::Full(job)) => {
                    // Backpressure, escalation 2: the pool is saturated.
                    // Hand the state back and answer retryably.
                    self.attached = job.attached;
                    self.net.queue_sheds.incr();
                    self.shared.metrics.errors_total.incr();
                    self.queue_reply(&error_frame(
                        ErrorCode::Overloaded,
                        "worker queue is full; back off and retry".into(),
                    ));
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.close_now = true;
                }
            }
        }
    }

    /// Flushes buffered writes until the socket pushes back.
    fn flush_writes(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.close_now = true;
                    break;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_now = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            // Reclaim the flushed prefix of a long-lived buffer.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
    }

    /// The step this connection wants from the loop right now.
    fn settle(&mut self) -> Step {
        if self.close_now {
            return Step::Close;
        }
        let flushed = self.buffered_writes() == 0;
        if flushed && self.close_after_flush {
            return Step::Close;
        }
        // EOF with nothing in flight: a clean hangup between requests, or
        // — if bytes stop partway through a frame — a truncated one.
        if flushed && self.read_closed && !self.busy {
            if self.decoder.mid_frame() {
                self.shared.metrics.protocol_errors.incr();
            }
            return Step::Close;
        }
        Step::Continue(Interest {
            // Backpressure, escalations 1 and 2: a parked connection is
            // not read until admitted; a busy one not until completion.
            readable: self.admitted && !self.busy && !self.read_closed && !self.close_after_flush,
            writable: !flushed,
        })
    }

    /// Folds a completed job back in: restore the moved state, send the
    /// reply, complete the ticket, and dispatch any frames that buffered
    /// while the job ran — or close once flushed if the ticket says so.
    fn on_completion(&mut self, completion: Completion) {
        self.net.worker_queue_depth.decr();
        self.busy = false;
        self.attached = completion.attached;
        self.queue_reply(&completion.reply);
        // `reply_write` covers the synchronous flush attempt only: a
        // backpressured tail drains on later writability events, off this
        // trace (see DESIGN §17).
        let write_timer = completion.ticket.trace.stage(STAGE_REPLY_WRITE);
        self.flush_writes();
        write_timer.finish();
        if completion.ticket.complete(!self.close_now, &self.shared) {
            self.dispatch_frames();
            self.flush_writes();
        } else {
            self.close_after_flush = true;
        }
    }
}

impl Conn for EConn {
    fn on_ready(&mut self, event: &Event) -> Step {
        if event.error {
            return Step::Close;
        }
        // While parked or busy, readiness is left in the kernel buffer:
        // POLLIN is not subscribed, and a POLLHUP (unmaskable) is
        // re-examined at admission or after the in-flight job completes —
        // reading here would race the job for the connection's state, or
        // dispatch ahead of the admission pacing.
        if self.admitted && !self.busy && (event.readable || event.hangup) {
            self.drain_socket();
            self.dispatch_frames();
        }
        self.flush_writes();
        self.settle()
    }

    fn on_timer(&mut self, _now: Instant) -> Step {
        // While the reservation is held, the only timer armed is the
        // admission grace (finish_step defers the stall clock until the
        // reservation resolves) — so firing here means the grace expired
        // without a first request. Release the reserved slot so idle
        // admitted connections cannot starve the pending queue; the
        // connection itself stays admitted and readable, and if it is
        // mid-frame the settle below arms a fresh stall budget.
        if self.reserved {
            self.release_reservation();
            return self.settle();
        }
        // Armed only while a partial frame is pending; if it still is, the
        // peer stalled mid-frame past the budget.
        if !self.busy && self.decoder.mid_frame() {
            self.shared.metrics.protocol_errors.incr();
            return Step::Close;
        }
        self.settle()
    }
}

/// The worker-pool thread body: run jobs through the shared [`respond`],
/// push the completion, wake the loop.
fn worker(
    jobs: Arc<Mutex<Receiver<Job>>>,
    shared: Arc<Shared>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
) {
    loop {
        let job = {
            let guard = jobs.lock().expect("job queue lock poisoned");
            guard.recv()
        };
        let Ok(Job {
            token,
            request,
            mut attached,
            ticket,
            queued,
        }) = job
        else {
            return;
        };
        // Enqueue-to-pickup, measured across the thread handoff.
        ticket.trace.add(STAGE_QUEUE_WAIT, queued.elapsed());
        let reply = respond(request, &mut attached, &shared, &ticket);
        completions
            .lock()
            .expect("completion queue lock poisoned")
            .push(Completion {
                token,
                reply,
                attached,
                ticket,
            });
        waker.wake();
    }
}

/// Sentinel token for the listener registration. Collides with a slab
/// token only at generation `u32::MAX`, index `u32::MAX` — unreachable.
const LISTENER: Token = Token(usize::MAX);

/// Runs the event loop until shutdown: the `--event-loop` counterpart of
/// `accept_loop`, owning the listener, every connection, the timer wheel
/// and the worker pool. `reactor` is the one whose waker
/// [`Shared::begin_shutdown`] fires. Returns after flushing in-flight
/// work (bounded grace) and draining every session.
pub(crate) fn run(listener: &TcpListener, shared: &Arc<Shared>, mut reactor: Reactor) {
    let config = shared
        .config
        .event_loop
        .clone()
        .expect("event_loop::run without event-loop config");
    let net = NetMetrics::on_registry(shared.metrics.registry());

    if listener.set_nonblocking(true).is_err()
        || reactor
            .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .is_err()
    {
        return;
    }

    let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(config.worker_queue_depth.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let jobs = Arc::clone(&job_rx);
            let shared = Arc::clone(shared);
            let completions = Arc::clone(&completions);
            let waker = reactor.waker();
            std::thread::spawn(move || worker(jobs, shared, completions, waker))
        })
        .collect();

    let mut slab: Slab<EConn> = Slab::new();
    // Accepted-but-parked connections, in arrival order, awaiting
    // worker-queue headroom (backpressure escalation 1).
    let mut pending: VecDeque<Token> = VecDeque::new();
    let tick = Duration::from_millis(50);
    let mut wheel = TimerWheel::new(tick, 256);
    let mut events: Vec<Event> = Vec::new();
    let mut fired: Vec<Token> = Vec::new();
    let mut done: Vec<Completion> = Vec::new();
    // Set when shutdown is first observed; the drain grace deadline.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let wakeups_before = reactor.wakeups();
        let _ = reactor.poll(&mut events, Some(tick));
        net.wakeups_total.add(reactor.wakeups() - wakeups_before);
        let now = Instant::now();

        // Completions first: they free connections to take buffered work.
        done.clear();
        std::mem::swap(
            &mut done,
            &mut completions.lock().expect("completion queue lock poisoned"),
        );
        for completion in done.drain(..) {
            let token = completion.token;
            let Some(conn) = slab.get_mut(token) else {
                // The connection died mid-job; dropping the completion
                // releases its session attachment.
                continue;
            };
            conn.on_completion(completion);
            apply_step(
                token,
                &mut reactor,
                &mut wheel,
                &mut slab,
                &net,
                shared,
                now,
            );
        }

        for event in &events {
            let event = *event;
            if event.token == LISTENER {
                accept_ready(
                    listener,
                    shared,
                    &net,
                    &config,
                    &job_tx,
                    &mut reactor,
                    &mut slab,
                    &mut pending,
                );
                continue;
            }
            let Some(conn) = slab.get_mut(event.token) else {
                continue; // closed earlier this batch
            };
            let step = conn.on_ready(&event);
            finish_step(
                step,
                event.token,
                &mut reactor,
                &mut wheel,
                &mut slab,
                &net,
                shared,
                now,
            );
        }

        wheel.expire(now, &mut fired);
        for token in fired.drain(..) {
            let Some(conn) = slab.get_mut(token) else {
                continue;
            };
            let step = conn.on_timer(now);
            finish_step(
                step,
                token,
                &mut reactor,
                &mut wheel,
                &mut slab,
                &net,
                shared,
                now,
            );
        }

        // Admission pacing: with completions folded in and fresh accepts
        // parked, the queue depth is current — admit as much of the parked
        // backlog as the headroom covers.
        admit_pending(
            &mut pending,
            &config,
            &mut reactor,
            &mut wheel,
            &mut slab,
            &net,
            shared,
            now,
        );

        if shared.shutdown.load(Ordering::SeqCst) {
            let deadline = *drain_deadline.get_or_insert_with(|| {
                // Stop accepting; existing connections get a bounded grace
                // to finish in-flight work and drain their write buffers.
                let _ = reactor.deregister(LISTENER);
                now + Duration::from_secs(2)
            });
            // Close every connection with nothing left in flight.
            for token in slab.tokens() {
                let conn = slab.get_mut(token).expect("live token");
                if !conn.busy && conn.buffered_writes() == 0 {
                    close_conn(token, &mut reactor, &mut wheel, &mut slab, &net, shared);
                }
            }
            if slab.is_empty() || now >= deadline {
                break;
            }
        }
    }

    // Force-close stragglers, discarding their buffered writes.
    for token in slab.tokens() {
        close_conn(token, &mut reactor, &mut wheel, &mut slab, &net, shared);
    }
    // Workers exit once every sender is gone (connections held clones,
    // but the slab is empty now).
    drop(job_tx);
    for handle in workers {
        let _ = handle.join();
    }
    drain_sessions(shared);
}

/// Applies a connection's settle() outcome outside `on_ready`/`on_timer`
/// call sites (completions), where no Step was produced by the trait.
fn apply_step(
    token: Token,
    reactor: &mut Reactor,
    wheel: &mut TimerWheel,
    slab: &mut Slab<EConn>,
    net: &NetMetrics,
    shared: &Arc<Shared>,
    now: Instant,
) {
    let Some(conn) = slab.get_mut(token) else {
        return;
    };
    let step = conn.settle();
    finish_step(step, token, reactor, wheel, slab, net, shared, now);
}

/// Routes a [`Step`] back into the reactor: update interest and the stall
/// timer, or tear the connection down.
#[allow(clippy::too_many_arguments)]
fn finish_step(
    step: Step,
    token: Token,
    reactor: &mut Reactor,
    wheel: &mut TimerWheel,
    slab: &mut Slab<EConn>,
    net: &NetMetrics,
    shared: &Arc<Shared>,
    now: Instant,
) {
    match step {
        Step::Continue(interest) => {
            let _ = reactor.set_interest(token, interest);
            let conn = slab.get_mut(token).expect("continuing conn is live");
            if conn.reserved {
                // The admission-grace deadline armed by admit_pending stays
                // put: activity short of a dispatched first request (write
                // readiness, dribbled partial bytes) must not extend the
                // reservation's hold on its worker-queue slot. The stall
                // clock takes over once the reservation resolves.
            } else if !conn.busy && conn.decoder.mid_frame() {
                // The stall clock runs only while a partial frame is
                // pending; fresh bytes re-arm it, completion cancels it.
                let stall = shared
                    .config
                    .read_timeout
                    .saturating_mul(MAX_MID_FRAME_TIMEOUTS)
                    .max(Duration::from_millis(50));
                wheel.schedule(token, now, stall);
            } else {
                wheel.cancel(token);
            }
        }
        Step::Close => close_conn(token, reactor, wheel, slab, net, shared),
    }
}

/// Deregisters, unschedules and drops one connection. Dropping the
/// [`EConn`] releases its session attachment (if any) back to eviction.
fn close_conn(
    token: Token,
    reactor: &mut Reactor,
    wheel: &mut TimerWheel,
    slab: &mut Slab<EConn>,
    net: &NetMetrics,
    shared: &Arc<Shared>,
) {
    if let Some(conn) = slab.remove(token) {
        // A connection dying before admission (or before its first
        // dispatch) gives its place back; its stale token in the pending
        // queue is skipped when admission reaches it.
        if !conn.admitted {
            net.pending_admissions.decr();
        }
        if conn.reserved {
            net.admission_reservations.decr();
        }
        let _ = reactor.deregister(token);
        wheel.cancel(token);
        net.open_connections.decr();
        shared.metrics.connections_active.decr();
    }
}

/// Admits parked connections, oldest first, while the worker queue has
/// headroom for their first requests. Each admission both counts live
/// jobs and the reservations of admitted connections whose first request
/// has not reached dispatch yet, so a connection burst is physically
/// unable to overflow the queue — the shed path remains only for
/// pipelined requests beyond the first. Each reservation is bounded by an
/// admission-grace deadline ([`RESERVATION_BUDGET`] read-timeouts) so a
/// connection that sends nothing gives its slot back instead of deferring
/// later arrivals forever.
#[allow(clippy::too_many_arguments)]
fn admit_pending(
    pending: &mut VecDeque<Token>,
    config: &EventLoopConfig,
    reactor: &mut Reactor,
    wheel: &mut TimerWheel,
    slab: &mut Slab<EConn>,
    net: &NetMetrics,
    shared: &Arc<Shared>,
    now: Instant,
) {
    let cap = config.worker_queue_depth.max(1) as u64;
    while let Some(&token) = pending.front() {
        if net.worker_queue_depth.get() + net.admission_reservations.get() >= cap {
            // The pacing actually paced: somebody waits for the drain.
            // Count each connection's transition into the deferred state
            // once, not once per 50ms pass. New arrivals sit at the back
            // and counted connections only leave from the front, so
            // walking back-to-front and stopping at the first counted one
            // touches each connection O(1) times across its parked life.
            for &parked in pending.iter().rev() {
                let Some(conn) = slab.get_mut(parked) else {
                    continue; // died while parked; skipped at pop too
                };
                if conn.deferral_counted {
                    break;
                }
                conn.deferral_counted = true;
                net.admission_deferrals.incr();
            }
            break;
        }
        pending.pop_front();
        let Some(conn) = slab.get_mut(token) else {
            continue; // died while parked; close_conn settled the gauges
        };
        net.pending_admissions.decr();
        conn.admitted = true;
        // The parked interval ends here; the first dispatched request
        // claims it as its admission wait.
        conn.admission_wait = Some(conn.accepted_at.elapsed());
        conn.reserved = true;
        net.admission_reservations.incr();
        // The reservation is deadline-bounded: if no first request has
        // reached dispatch when this fires, on_timer releases the slot
        // back to the parked queue. While the reservation is held this is
        // the only timer armed for the connection (see finish_step), so
        // an idle or dribbling peer cannot extend it.
        let grace = shared
            .config
            .read_timeout
            .saturating_mul(RESERVATION_BUDGET)
            .max(Duration::from_millis(50));
        wheel.schedule(token, now, grace);
        // Pull whatever arrived while parked: in a burst the request is
        // usually already here, so it dispatches — consuming this
        // admission's reserved slot — before the next parked connection
        // is considered.
        conn.drain_socket();
        conn.dispatch_frames();
        conn.flush_writes();
        apply_step(token, reactor, wheel, slab, net, shared, now);
    }
}

/// Accepts every pending connection: over-capacity peers get the
/// retryable `Overloaded` rejection, the rest join the reactor *parked* —
/// registered for errors and hangups only — until [`admit_pending`] finds
/// worker-queue headroom for them.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    net: &NetMetrics,
    config: &EventLoopConfig,
    job_tx: &SyncSender<Job>,
    reactor: &mut Reactor,
    slab: &mut Slab<EConn>,
    pending: &mut VecDeque<Token>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if slab.len() >= shared.config.max_connections {
                    shared.metrics.connections_rejected.incr();
                    reject_overloaded(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let fd = stream.as_raw_fd();
                shared.metrics.connections_accepted.incr();
                shared.metrics.connections_active.incr();
                net.open_connections.incr();
                let token = slab.insert(EConn {
                    stream,
                    token: Token(0), // patched below, once known
                    decoder: FrameDecoder::new(),
                    write_buf: Vec::new(),
                    write_pos: 0,
                    attached: None,
                    admitted: false,
                    reserved: false,
                    deferral_counted: false,
                    accepted_at: Instant::now(),
                    admission_wait: None,
                    busy: false,
                    read_closed: false,
                    close_after_flush: false,
                    close_now: false,
                    shared: Arc::clone(shared),
                    net: net.clone(),
                    jobs: job_tx.clone(),
                    write_cap: config.max_write_buffer_bytes.max(MAX_FRAME_BYTES + 4),
                });
                slab.get_mut(token).expect("just inserted").token = token;
                if reactor.register(fd, token, Interest::NONE).is_err() {
                    slab.remove(token);
                    net.open_connections.decr();
                    shared.metrics.connections_active.decr();
                    continue;
                }
                net.pending_admissions.incr();
                pending.push_back(token);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}
