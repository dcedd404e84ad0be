//! Fleet-level acceptance tests: real servers, real aggregators, real
//! TCP in between, and equivalence against offline merges.

use std::time::{Duration, Instant};

use mhp_agg::{AggConfig, AggState, Aggregator, CUMULATIVE_SUFFIX};
use mhp_core::{Candidate, Tuple};
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{Client, ErrorCode, Server, ServerConfig, ServerError, SessionConfig};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

const INTERVAL_LEN: u64 = 5_000;
const EVENTS: usize = 20_000; // 4 completed intervals per session

fn session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        interval_len: INTERVAL_LEN,
        seed,
        ..SessionConfig::default_multi_hash()
    }
}

fn stream(seed: u64) -> Vec<Tuple> {
    StreamSpec::new(Benchmark::Gcc, StreamKind::Value, seed)
        .events()
        .take(EVENTS)
        .collect()
}

/// Feeds `events` into a fresh session on `addr` and leaves it resident.
fn feed(addr: std::net::SocketAddr, name: &str, seed: u64, events: &[Tuple]) {
    let mut client = Client::connect(addr).unwrap();
    client.open_session(name, session_config(seed)).unwrap();
    for chunk in events.chunks(2_048) {
        client.ingest(chunk).unwrap();
    }
}

/// The offline reference for one member: completed-interval profiles from
/// an identically configured engine fed the same events directly.
fn offline_fold(state: &mut AggState, tenant: &str, seed: u64, events: &[Tuple]) {
    let interval = mhp_core::IntervalConfig::new(INTERVAL_LEN, 0.01).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(1),
        interval,
        mhp_server::ProfilerKind::MultiHash.spec(),
        seed,
    );
    let report = engine.run(events.iter().copied()).unwrap();
    for profile in &report.profiles {
        state.add_leaf_profile(tenant, profile.candidates());
    }
}

/// Polls `f` until it returns true or the deadline passes.
fn eventually(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// The tentpole acceptance test: two servers with multi-tenant sessions,
/// a child aggregator over both, and a parent aggregator over the child —
/// the parent's per-tenant global top-k must converge on exactly the
/// offline merge of the same streams, through two protocol hops.
#[test]
fn two_level_fleet_matches_offline_merge_exactly() {
    let server_a = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let server_b = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    // Two tenants spread across both servers.
    let members: [(&str, u64); 4] = [
        ("acme/web", 11),
        ("acme/api", 22),
        ("beta/db", 33),
        ("beta/cache", 44),
    ];
    let mut expected = AggState::new();
    for (name, seed) in members {
        let events = stream(seed);
        let addr = if seed % 2 == 1 {
            server_a.local_addr()
        } else {
            server_b.local_addr()
        };
        feed(addr, name, seed, &events);
        offline_fold(&mut expected, mhp_server::tenant_of(name), seed, &events);
    }

    let child = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![
                server_a.local_addr().to_string(),
                server_b.local_addr().to_string(),
            ],
            pull_interval: Duration::from_millis(25),
            ..AggConfig::default()
        },
    )
    .unwrap();
    let parent = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![child.local_addr().to_string()],
            pull_interval: Duration::from_millis(25),
            ..AggConfig::default()
        },
    )
    .unwrap();

    for tenant in ["acme", "beta"] {
        let want = expected.top_k(tenant, 50);
        assert!(!want.is_empty());
        assert!(
            eventually(Duration::from_secs(10), || parent.top_k(tenant, 50) == want),
            "parent never converged for {tenant}: got {:?}, want {want:?}",
            parent.top_k(tenant, 50)
        );
    }

    // The wire path answers identically to the in-process handle, and the
    // cumulative listing carries the tenants.
    let mut query = Client::connect(parent.local_addr()).unwrap();
    let listed = query.list_sessions().unwrap();
    let names: Vec<&str> = listed.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(
        names,
        [
            format!("acme{CUMULATIVE_SUFFIX}"),
            format!("beta{CUMULATIVE_SUFFIX}")
        ]
    );
    query.attach("acme").unwrap();
    let wire: Vec<Candidate> = query.top_k(50).unwrap();
    assert_eq!(wire, expected.top_k("acme", 50));

    // Aggregators are read-only on the wire.
    match query.open_session("x/y", SessionConfig::default_multi_hash()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected read-only rejection, got {other:?}"),
    }

    parent.join();
    child.join();
    server_a.join();
    server_b.join();
}

/// Crash recovery: an aggregator is torn down mid-flight (its state file
/// survives), a replacement restores from the checkpoint, and converges
/// on the same global answer without double-counting any interval.
#[test]
fn aggregator_restores_from_checkpoint_without_double_counting() {
    let dir = std::env::temp_dir().join(format!("mhp-agg-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state_path = dir.join("agg.snap");

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let first_half = stream(7);
    feed(server.local_addr(), "acme/web", 7, &first_half[..10_000]);

    let config = AggConfig {
        upstreams: vec![server.local_addr().to_string()],
        pull_interval: Duration::from_millis(25),
        state_path: Some(state_path.clone()),
        ..AggConfig::default()
    };
    let agg = Aggregator::bind("127.0.0.1:0", config.clone()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || agg.epoch() > 2
            && !agg.top_k("acme", 5).is_empty()),
        "first aggregator never pulled"
    );
    // Simulate the crash: drop the aggregator without any graceful
    // handoff. The checkpoint on disk is whatever the last cycle wrote.
    let epoch_before = agg.epoch();
    drop(agg);

    // More data lands while the aggregator is down.
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.attach("acme/web").unwrap();
        for chunk in first_half[10_000..].chunks(2_048) {
            client.ingest(chunk).unwrap();
        }
    }

    let restored = Aggregator::bind("127.0.0.1:0", config).unwrap();
    assert!(restored.epoch() >= epoch_before.saturating_sub(1));

    let mut expected = AggState::new();
    offline_fold(&mut expected, "acme", 7, &first_half);
    let want = expected.top_k("acme", 50);
    assert!(
        eventually(Duration::from_secs(10), || restored.top_k("acme", 50)
            == want),
        "restored aggregator diverged: got {:?}, want {want:?}",
        restored.top_k("acme", 50)
    );

    restored.join();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pull faults (dropped upstream connections) delay convergence but never
/// corrupt it: with a fault plan injecting drops, the aggregator still
/// reaches the exact offline answer.
#[test]
fn pull_faults_delay_but_do_not_corrupt() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = stream(99);
    feed(server.local_addr(), "acme/web", 99, &events);

    let plan = mhp_faults::FaultPlan::parse("conn-drop@3", 0xFEED).unwrap();
    let agg = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![server.local_addr().to_string()],
            pull_interval: Duration::from_millis(25),
            fault_hook: Some(plan.arm()),
            ..AggConfig::default()
        },
    )
    .unwrap();

    let mut expected = AggState::new();
    offline_fold(&mut expected, "acme", 99, &events);
    let want = expected.top_k("acme", 50);
    assert!(
        eventually(Duration::from_secs(10), || agg.top_k("acme", 50) == want),
        "aggregator never converged under faults"
    );
    let metrics = agg.metrics();
    assert!(
        metrics.contains("agg_pull_errors_total"),
        "missing pull-error counter:\n{metrics}"
    );
    agg.join();
    server.join();
}

/// Runs `stop` on its own thread and reports whether it returned within
/// one second. The query plane's accept loop blocks until a connection or
/// a shutdown wake arrives, so a lost wake shows up here as a hang.
fn returns_within_a_second(stop: impl FnOnce() + Send + 'static) -> bool {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(1)).is_ok()
}

/// `join` wakes a query plane that never saw a connection.
#[test]
fn join_stops_an_idle_aggregator_promptly() {
    let agg = Aggregator::bind("127.0.0.1:0", AggConfig::default()).unwrap();
    assert!(returns_within_a_second(move || agg.join()));
}

/// A `shutdown` request wakes the query plane's accept loop, so an
/// otherwise idle aggregator stops without another connection arriving.
#[test]
fn shutdown_request_stops_an_idle_aggregator_promptly() {
    let agg = Aggregator::bind("127.0.0.1:0", AggConfig::default()).unwrap();
    let mut client = Client::connect(agg.local_addr()).unwrap();
    client.shutdown_server().unwrap();
    drop(client);
    assert!(returns_within_a_second(move || agg.wait()));
}

/// A query peer that pipelines requests and never reads a reply leaves
/// its handler blocked in a reply write. That write gives up at its next
/// write timeout once shutdown begins, so `join` returns promptly (before
/// the write followed the shutdown flag, it never returned at all).
#[test]
fn join_is_not_held_by_a_peer_that_stops_reading() {
    use std::io::Write;
    let agg = Aggregator::bind("127.0.0.1:0", AggConfig::default()).unwrap();
    let deaf = std::net::TcpStream::connect(agg.local_addr()).unwrap();
    let body = mhp_server::Request::Metrics.encode();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    let requests = frame.repeat(20_000);
    let mut sender = deaf.try_clone().unwrap();
    let sending = std::thread::spawn(move || {
        let _ = sender.write_all(&requests);
    });
    // Wait until the replies stop arriving: the handler is blocked in a
    // write. Peeking measures the unread replies without draining them.
    let mut unread = vec![0u8; 64 << 20];
    let mut queued = 0;
    let waited = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = deaf.peek(&mut unread).unwrap();
        if now > 0 && now == queued {
            break;
        }
        queued = now;
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "handler never blocked"
        );
    }
    assert!(returns_within_a_second(move || agg.join()));
    // The handler hung up, so the sender's blocked write fails.
    sending.join().unwrap();
    drop(deaf);
}

/// A query peer that sends part of a frame and then goes silent does not
/// hold up shutdown: its handler gives up on the frame at the next read
/// timeout once shutdown begins, instead of waiting out the stall budget
/// (300 read timeouts, a minute at the default 200 ms).
#[test]
fn join_is_not_held_by_a_peer_stalled_mid_frame() {
    use std::io::Write;
    let agg = Aggregator::bind("127.0.0.1:0", AggConfig::default()).unwrap();
    let mut stalled = std::net::TcpStream::connect(agg.local_addr()).unwrap();
    // One whole request first, so the handler is up and reading.
    let body = mhp_server::Request::ListSessions.encode();
    stalled
        .write_all(&(body.len() as u32).to_le_bytes())
        .unwrap();
    stalled.write_all(&body).unwrap();
    mhp_server::protocol::read_frame(&mut stalled)
        .unwrap()
        .expect("a session listing");
    // Two bytes of the next length prefix, then silence.
    stalled.write_all(&[8, 0]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(returns_within_a_second(move || agg.join()));
    drop(stalled);
}
