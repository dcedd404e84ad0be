//! Event-loop acceptance tests: the readiness-based front end behind
//! `--event-loop` must be observationally identical to the threaded one —
//! bit-for-bit snapshots, the same typed errors, the same fault-injection
//! recovery story — while multiplexing every connection onto one reactor
//! thread plus a small worker pool.

use std::io::Write;
use std::time::Duration;

use mhp_core::Tuple;
use mhp_faults::{FaultKind, FaultPlan};
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{
    mux_loadgen, Client, ErrorCode, EventLoopConfig, MuxConfig, ProfileData, ProfilerKind,
    ReconnectingClient, RetryPolicy, Server, ServerConfig, SessionConfig,
};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

fn workload(seed: u64, n: usize) -> Vec<Tuple> {
    StreamSpec::new(Benchmark::Gcc, StreamKind::Value, seed)
        .events()
        .take(n)
        .collect()
}

fn offline_profiles(config: &SessionConfig, events: &[Tuple]) -> Vec<ProfileData> {
    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let report = engine.run(events.iter().copied()).unwrap();
    report
        .profiles
        .iter()
        .map(ProfileData::from_profile)
        .collect()
}

fn event_loop_config() -> ServerConfig {
    ServerConfig {
        event_loop: Some(EventLoopConfig::default()),
        ..ServerConfig::default()
    }
}

/// Value of an unlabelled metric in the Prometheus text exposition.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

/// The tentpole equivalence criterion, now against the reactor: a workload
/// streamed over the event-loop server yields snapshots bit-identical to
/// an offline single-process run.
#[test]
fn event_loop_snapshots_match_offline_runs_exactly() {
    let server = Server::bind("127.0.0.1:0", event_loop_config()).unwrap();
    let events = workload(42, 25_000);

    let configs = [
        SessionConfig {
            kind: ProfilerKind::MultiHash,
            shards: 1,
            interval_len: 5_000,
            threshold: 0.01,
            seed: 7,
        },
        SessionConfig {
            kind: ProfilerKind::Perfect,
            shards: 4,
            interval_len: 5_000,
            threshold: 0.01,
            seed: 7,
        },
    ];
    for (idx, config) in configs.iter().enumerate() {
        let expected = offline_profiles(config, &events);
        assert_eq!(expected.len(), 5);

        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .open_session(&format!("equiv-{idx}"), config.clone())
            .unwrap();
        let mut totals = (0, 0);
        for chunk in events.chunks(1_024) {
            totals = client.ingest(chunk).unwrap();
        }
        assert_eq!(totals, (25_000, 5), "{}", config.kind.name());

        for (interval, reference) in expected.iter().enumerate() {
            let got = client.snapshot(interval as u64).unwrap().unwrap();
            assert_eq!(
                got,
                *reference,
                "{} interval {interval}",
                config.kind.name()
            );
        }
        client.close_session().unwrap();
    }

    let mut probe = Client::connect(server.local_addr()).unwrap();
    probe.shutdown_server().unwrap();
    server.join();
}

/// A request dripped one byte at a time must decode exactly as a request
/// delivered whole: the connection state machine parks mid-frame between
/// readiness events and resumes without losing bytes. The reactor's
/// partial-frame-resume counter proves the slow path actually ran.
#[test]
fn dripped_requests_resume_mid_frame() {
    let server = Server::bind("127.0.0.1:0", event_loop_config()).unwrap();

    // Hand-roll the drip on a raw socket so nothing buffers for us.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let body = mhp_server::Request::Stats.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    for byte in &wire {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = mhp_server::protocol::read_frame(&mut raw)
        .unwrap()
        .expect("server closed instead of answering the dripped request");
    match mhp_server::Response::decode(&response).unwrap() {
        mhp_server::Response::Stats(text) => assert!(text.contains("requests_total")),
        other => panic!("expected stats, got {other:?}"),
    }
    drop(raw);

    let mut probe = Client::connect(server.local_addr()).unwrap();
    let exposition = probe.metrics().unwrap();
    assert!(
        metric_value(&exposition, "server_net_partial_frame_resumes_total") > 0,
        "dripped request never exercised the mid-frame resume path"
    );
    probe.shutdown_server().unwrap();
    server.join();
}

/// Connection-level fault injection behaves identically under the event
/// loop: dropped connections and truncated response frames are survived by
/// a reconnecting client, and results stay bit-identical to an
/// uninterrupted run.
#[test]
fn conn_faults_recover_bit_identically_under_event_loop() {
    let events = workload(11, 25_000);
    let config = SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 1,
        interval_len: 5_000,
        threshold: 0.01,
        seed: 7,
    };
    let expected = offline_profiles(&config, &events);

    for kind in [FaultKind::DropConnection, FaultKind::TruncateFrame] {
        let hook = FaultPlan::new(0xC0FFEE).with_fault(kind, 4).arm();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                fault_hook: Some(hook.clone()),
                ..event_loop_config()
            },
        )
        .unwrap();

        let mut client = ReconnectingClient::open(
            server.local_addr(),
            &format!("chaos-{}", kind.name()),
            config.clone(),
            RetryPolicy::default(),
        )
        .unwrap();
        for chunk in events.chunks(1_000) {
            client.ingest(chunk).unwrap();
        }
        for (interval, reference) in expected.iter().enumerate() {
            let got = client.snapshot(interval as u64).unwrap().unwrap();
            assert_eq!(got, *reference, "{} interval {interval}", kind.name());
        }
        client.close_session().unwrap();
        assert_eq!(hook.injected(kind), 1, "{}: fault never fired", kind.name());
        assert!(client.connects() >= 2, "{}: never reconnected", kind.name());

        let mut probe = Client::connect(server.local_addr()).unwrap();
        probe.shutdown_server().unwrap();
        server.join();
    }
}

/// One scripted raw-socket run: every reply exactly as it arrived (length
/// prefix included, cut short where the server hung up), and the deltas of
/// the request counters the script caused.
struct ScriptRun {
    replies: Vec<Vec<u8>>,
    counters: Vec<(&'static str, u64)>,
}

/// Sends `frames` on one fresh connection, one at a time, collecting each
/// reply; the server must hang up after the last one.
fn run_connection(addr: std::net::SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = Vec::new();
    for frame in frames {
        stream.write_all(frame).unwrap();
        let mut reply = vec![0u8; 4];
        stream.read_exact(&mut reply).unwrap();
        let len = u32::from_le_bytes(reply[..4].try_into().unwrap());
        (&mut stream)
            .take(u64::from(len))
            .read_to_end(&mut reply)
            .unwrap();
        replies.push(reply);
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the last reply: {rest:?}");
    replies
}

/// Runs the parity script against a fresh server: ordinary requests, a torn
/// reply, a handler error, a malformed request and an oversized frame.
fn run_parity_script(config: ServerConfig) -> ScriptRun {
    const COUNTERS: [&str; 4] = [
        "requests_total",
        "errors_total",
        "protocol_errors",
        "request_latency_count",
    ];
    // The fourth decoded request — the opening stats read is the first —
    // gets a torn reply.
    let hook = FaultPlan::new(0x5EED)
        .with_fault(FaultKind::TruncateFrame, 4)
        .arm();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fault_hook: Some(hook),
            ..config
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let framed = |body: Vec<u8>| {
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    };
    let session = SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 1,
        interval_len: 1_000,
        threshold: 0.01,
        seed: 7,
    };
    let chunk = mhp_pipeline::encode_chunk(&workload(3, 2_500));
    let attach = |name: &str| {
        framed(
            mhp_server::Request::Attach {
                name: name.to_string(),
            }
            .encode(),
        )
    };

    // Counters are read on one connection before and after the script, so
    // each read's own request lands in the deltas the same way in both
    // front ends.
    let mut probe = Client::connect(addr).unwrap();
    let count = |stats: &str, name: &str| mhp_server::stat_value(stats, name).unwrap();
    let before = probe.stats().unwrap();

    let mut replies = run_connection(
        addr,
        &[
            framed(
                mhp_server::Request::Open {
                    name: "parity".into(),
                    config: session,
                }
                .encode(),
            ),
            framed(mhp_server::Request::Ingest { chunk }.encode()),
            framed(mhp_server::Request::TopK { n: 4 }.encode()),
        ],
    );
    replies.extend(run_connection(
        addr,
        &[
            attach("parity"),
            attach("missing"),
            framed(mhp_server::Request::Snapshot { interval: u64::MAX }.encode()),
            framed(vec![0xEE]), // unknown opcode
        ],
    ));
    replies.extend(run_connection(addr, &[u32::MAX.to_le_bytes().to_vec()]));

    let after = probe.stats().unwrap();
    probe.shutdown_server().unwrap();
    server.join();
    ScriptRun {
        replies,
        counters: COUNTERS
            .iter()
            .map(|&name| (name, count(&after, name) - count(&before, name)))
            .collect(),
    }
}

/// Both front ends run one request path, so the same script gets the same
/// reply bytes and moves the request counters the same way. In particular
/// a torn reply is not a completed request in either: `request_latency`
/// counts only replies that were sent whole.
#[test]
fn front_ends_agree_on_replies_and_request_accounting() {
    let threaded = run_parity_script(ServerConfig::default());
    let event_loop = run_parity_script(event_loop_config());
    assert_eq!(threaded.replies.len(), 8);
    let torn = &threaded.replies[2];
    let declared = u32::from_le_bytes(torn[..4].try_into().unwrap()) as usize;
    assert!(torn.len() - 4 < declared, "third reply is torn: {torn:?}");
    for (i, (a, b)) in threaded.replies.iter().zip(&event_loop.replies).enumerate() {
        assert_eq!(a, b, "reply {} differs between front ends", i + 1);
    }
    assert_eq!(threaded.counters, event_loop.counters);
    // Seven scripted requests plus the closing stats read; two errors (the
    // unknown session and the malformed request); two protocol errors (the
    // malformed request and the oversized frame); latency for the five
    // whole scripted replies plus the opening stats read.
    assert_eq!(
        threaded.counters,
        [
            ("requests_total", 8),
            ("errors_total", 2),
            ("protocol_errors", 2),
            ("request_latency_count", 6),
        ]
    );
}

/// Reads one reply frame, length prefix included.
fn read_reply(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut reply = vec![0u8; 4];
    stream.read_exact(&mut reply).unwrap();
    let len = u32::from_le_bytes(reply[..4].try_into().unwrap());
    stream.take(u64::from(len)).read_to_end(&mut reply).unwrap();
    reply
}

/// Sends `frames` on one fresh connection and collects one reply per
/// frame: all frames written back to back when `pipelined`, else each
/// after the previous reply.
fn exchange(addr: std::net::SocketAddr, frames: &[Vec<u8>], pipelined: bool) -> Vec<Vec<u8>> {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    if pipelined {
        stream.write_all(&frames.concat()).unwrap();
        return frames.iter().map(|_| read_reply(&mut stream)).collect();
    }
    frames
        .iter()
        .map(|frame| {
            stream.write_all(frame).unwrap();
            read_reply(&mut stream)
        })
        .collect()
}

/// Both front ends answer one connection's frames strictly in order, so a
/// client may pipeline: `snapshot` and `topk` frames written back to back
/// get, byte for byte, the replies they get one at a time.
#[test]
fn pipelined_requests_are_answered_in_order_on_both_front_ends() {
    let framed = |request: mhp_server::Request| {
        let body = request.encode();
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    };
    let session = SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 2,
        interval_len: 1_000,
        threshold: 0.01,
        seed: 7,
    };
    // Twelve completed intervals and a partial one; the last snapshots
    // ask past the end and get no-profile replies.
    let mut frames = vec![framed(mhp_server::Request::Attach {
        name: "pipelined".into(),
    })];
    for i in 0..15u64 {
        frames.push(framed(mhp_server::Request::Snapshot { interval: i }));
        frames.push(framed(mhp_server::Request::TopK { n: 1 + i as u32 }));
    }

    let mut per_front_end = Vec::new();
    for config in [ServerConfig::default(), event_loop_config()] {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let mut recorder = Client::connect(server.local_addr()).unwrap();
        recorder.open_session("pipelined", session.clone()).unwrap();
        recorder.ingest(&workload(9, 12_500)).unwrap();

        let one_at_a_time = exchange(server.local_addr(), &frames, false);
        let pipelined = exchange(server.local_addr(), &frames, true);
        assert_eq!(pipelined.len(), frames.len());
        for (i, (a, b)) in one_at_a_time.iter().zip(&pipelined).enumerate() {
            assert_eq!(a, b, "reply {} differs when pipelined", i + 1);
        }
        let profiles = pipelined[1..].iter().step_by(2);
        let no_profile = mhp_server::Response::NoProfile.encode();
        assert_eq!(
            profiles
                .filter(|reply| reply[4..] != no_profile[..])
                .count(),
            12,
            "twelve completed intervals, then no-profile replies"
        );
        recorder.shutdown_server().unwrap();
        drop(recorder);
        server.join();
        per_front_end.push(pipelined);
    }
    assert_eq!(per_front_end[0], per_front_end[1], "front ends disagree");
}

/// Beyond `max_connections` the event loop answers with a retryable
/// `overloaded` rejection, exactly like the threaded front end.
#[test]
fn event_loop_rejects_over_capacity_with_overloaded() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..event_loop_config()
        },
    )
    .unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    first
        .open_session("holder", SessionConfig::default_multi_hash())
        .unwrap();

    let mut second = Client::connect(server.local_addr()).unwrap();
    match second.call(&mhp_server::Request::Stats) {
        Ok(mhp_server::Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded rejection, got {other:?}"),
    }
    drop(second);

    first.close_session().unwrap();
    first.shutdown_server().unwrap();
    server.join();
}

/// An open burst is paced through admission instead of shed: with a
/// worker queue of depth 1, eight clients that connect and then fire a
/// request simultaneously must all be answered without a single queue
/// shed — the reactor parks the accepts and admits each connection only
/// as the queue drains, instead of dispatching the whole burst into a
/// shower of `Overloaded` retries.
#[test]
fn open_burst_is_admitted_without_queue_sheds() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            event_loop: Some(EventLoopConfig {
                workers: 1,
                worker_queue_depth: 1,
                ..EventLoopConfig::default()
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Connect everyone first, then fire every request at once — the worst
    // case for an accept path that admits faster than the queue drains.
    let mut socks: Vec<std::net::TcpStream> = (0..8)
        .map(|_| {
            let sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
            sock.set_nodelay(true).unwrap();
            sock
        })
        .collect();
    let body = mhp_server::Request::Stats.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    for sock in &mut socks {
        sock.write_all(&wire).unwrap();
        sock.flush().unwrap();
    }
    for sock in &mut socks {
        let frame = mhp_server::protocol::read_frame(sock)
            .unwrap()
            .expect("server closed instead of answering a burst request");
        match mhp_server::Response::decode(&frame).unwrap() {
            mhp_server::Response::Stats(_) => {}
            other => panic!("expected stats, got {other:?}"),
        }
    }
    drop(socks);

    let mut probe = Client::connect(server.local_addr()).unwrap();
    let exposition = probe.metrics().unwrap();
    assert_eq!(
        metric_value(&exposition, "server_net_queue_sheds_total"),
        0,
        "the burst was shed instead of paced"
    );
    let deferrals = metric_value(&exposition, "server_net_admission_deferrals_total");
    assert!(deferrals > 0, "the burst never exercised admission pacing");
    assert!(
        deferrals <= 8,
        "deferrals must count connections, not pacing passes; got {deferrals}"
    );
    assert_eq!(
        metric_value(&exposition, "server_net_pending_admissions"),
        0,
        "admission backlog gauge did not drain back to zero"
    );
    assert_eq!(
        metric_value(&exposition, "server_net_admission_reservations"),
        0,
        "reservation gauge did not drain back to zero"
    );
    probe.shutdown_server().unwrap();
    server.join();
}

/// An admitted connection that never sends its first request must not hold
/// its worker-queue reservation forever: with a queue of depth 1, one
/// client that connects and goes silent would otherwise keep
/// `reservations + depth >= cap` true on every admission pass and park all
/// later connections indefinitely — a total denial of service. The
/// admission grace releases the idle reservation, the second client is
/// admitted and served, and the idler itself stays admitted (a late first
/// request still gets an answer).
#[test]
fn idle_connection_cannot_starve_admissions() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            // Admission grace = RESERVATION_BUDGET (20) × 10ms = 200ms.
            read_timeout: Duration::from_millis(10),
            event_loop: Some(EventLoopConfig {
                workers: 1,
                worker_queue_depth: 1,
                ..EventLoopConfig::default()
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Connects, gets admitted, takes the only reservation — then nothing.
    let mut idle = std::net::TcpStream::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Let the loop admit the idler before the real client arrives, so the
    // reservation is genuinely held when the contender shows up.
    std::thread::sleep(Duration::from_millis(120));

    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = mhp_server::Request::Stats.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    sock.write_all(&wire).unwrap();
    sock.flush().unwrap();
    let frame = mhp_server::protocol::read_frame(&mut sock)
        .unwrap()
        .expect("server closed instead of answering past the idle holder");
    match mhp_server::Response::decode(&frame).unwrap() {
        mhp_server::Response::Stats(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }
    drop(sock);

    // The idler stayed admitted: its (late) first request is still served.
    idle.write_all(&wire).unwrap();
    idle.flush().unwrap();
    let frame = mhp_server::protocol::read_frame(&mut idle)
        .unwrap()
        .expect("idle connection was cut instead of kept admitted");
    match mhp_server::Response::decode(&frame).unwrap() {
        mhp_server::Response::Stats(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }
    drop(idle);

    let mut probe = Client::connect(server.local_addr()).unwrap();
    let exposition = probe.metrics().unwrap();
    assert!(
        metric_value(&exposition, "server_net_admission_deferrals_total") > 0,
        "the second connection was never actually deferred behind the idler"
    );
    assert_eq!(
        metric_value(&exposition, "server_net_admission_reservations"),
        0,
        "reservation gauge did not drain after the grace released the idler"
    );
    probe.shutdown_server().unwrap();
    server.join();
}

/// The multiplexed load generator holds hundreds of concurrent sessions
/// open against the reactor from a single thread; every session opens, the
/// active subset streams to completion, and the server's gauges agree.
#[test]
fn mux_loadgen_holds_hundreds_of_concurrent_sessions() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 4_096,
            ..event_loop_config()
        },
    )
    .unwrap();

    let report = mux_loadgen(
        server.local_addr(),
        &MuxConfig {
            sessions: 256,
            active: 16,
            events_per_session: 8_192,
            chunk_events: 4_096,
            session_prefix: "mux-e2e".to_string(),
            deadline: Duration::from_secs(120),
            ..MuxConfig::default()
        },
    )
    .unwrap();

    assert_eq!(report.opened, 256, "every session must open");
    assert_eq!(report.requests, 16 * 2, "2 chunks per active session");
    assert_eq!(report.events, 16 * 8_192);

    // The server really did see them all: every one of the 256 sessions
    // opened (mux holds every connection until the run completes, so the
    // peak concurrency equals the session count).
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let exposition = probe.metrics().unwrap();
    assert_eq!(
        metric_value(&exposition, "server_sessions_opened_total"),
        256
    );
    assert!(metric_value(&exposition, "server_net_wakeups_total") > 0);
    probe.shutdown_server().unwrap();
    server.join();
}

/// Request tracing under the reactor: every stage of the taxonomy —
/// including `queue_wait`, which only the event loop's worker handoff
/// populates — shows up in the `traces` stream and the Prometheus
/// exposition after real multiplexed traffic.
#[test]
fn event_loop_traces_attribute_every_stage() {
    let server = Server::bind("127.0.0.1:0", event_loop_config()).unwrap();
    let report = mux_loadgen(
        server.local_addr(),
        &MuxConfig {
            sessions: 16,
            active: 4,
            events_per_session: 8_192,
            chunk_events: 2_048,
            session_prefix: "el-tr".to_string(),
            ..MuxConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.opened, 16);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let traces = client.traces().unwrap();
    for stage in mhp_server::SERVER_STAGES {
        assert!(
            traces.contains(&format!("\"stage\":\"{stage}\"")),
            "missing stage summary for {stage}"
        );
    }
    let summaries = mhp_server::parse_stage_latencies(&traces);
    let queue_wait = summaries
        .iter()
        .find(|s| s.stage == "queue_wait")
        .expect("queue_wait summary");
    assert!(
        queue_wait.count > 0,
        "worker handoff populated queue_wait: {summaries:?}"
    );
    assert!(
        traces.lines().any(|l| l.contains("\"type\":\"trace\"")),
        "sampled traces present"
    );

    let exposition = client.metrics().unwrap();
    assert!(exposition.contains("# TYPE server_stage_queue_wait_us histogram"));
    assert!(metric_value(&exposition, "server_traces_total") > 0);
    client.shutdown_server().unwrap();
    server.join();
}
