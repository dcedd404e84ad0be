//! End-to-end acceptance tests: a real server on an ephemeral port, real
//! TCP clients, and equivalence against offline engine runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mhp_core::Tuple;
use mhp_faults::{FaultKind, FaultPlan};
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{
    mux_loadgen, stat_value, Client, ErrorCode, MuxConfig, ProfileData, ProfilerKind, Request,
    Response, Server, ServerConfig, ServerError, SessionConfig, SessionInfo,
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

/// The core acceptance criterion: a workload streamed chunk-by-chunk over
/// TCP yields snapshots identical to an offline single-process run — exact
/// for the perfect profiler across shards, exact for multi-hash on one
/// shard (where the engine is literally the single-threaded computation).
#[test]
fn streamed_snapshots_match_offline_runs_exactly() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
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
        let name = format!("equiv-{idx}");
        client.open_session(&name, config.clone()).unwrap();
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
        // u64::MAX resolves to the newest completed interval.
        let latest = client.snapshot(u64::MAX).unwrap().unwrap();
        assert_eq!(latest, expected[4]);
        assert!(client.snapshot(5).unwrap().is_none(), "only 5 intervals");
        client.close_session().unwrap();
    }
    server.join();
}

/// Live top-k over the wire equals the offline engine's live top-k, and a
/// forced cut returns the partial interval's profile.
#[test]
fn top_k_and_forced_cut_match_the_offline_engine() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(9, 7_500); // 5 000-interval => 2 500 partial
    let config = SessionConfig {
        kind: ProfilerKind::Perfect,
        shards: 2,
        interval_len: 5_000,
        threshold: 0.01,
        seed: 1,
    };

    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(2),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let mut offline = engine.start().unwrap();
    offline.push_all(events.iter().copied()).unwrap();
    let expected_topk = offline.top_k(10).unwrap();
    let expected_cut = offline.cut().unwrap().unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.open_session("livetopk", config).unwrap();
    for chunk in events.chunks(512) {
        client.ingest(chunk).unwrap();
    }
    let got_topk = client.top_k(10).unwrap();
    assert_eq!(got_topk, expected_topk);
    let got_cut = client.cut().unwrap().unwrap();
    assert_eq!(got_cut, ProfileData::from_profile(&expected_cut));
    // Nothing pending now: cutting again is a clean no-op.
    assert!(client.cut().unwrap().is_none());
    server.join();
}

/// A second connection can attach to a session by name and observe the
/// state the first connection built.
#[test]
fn sessions_are_shared_across_connections() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(3, 12_000);

    let mut recorder = Client::connect(server.local_addr()).unwrap();
    recorder
        .open_session("shared", SessionConfig::default_multi_hash())
        .unwrap();
    for chunk in events.chunks(2_048) {
        recorder.ingest(chunk).unwrap();
    }

    let mut dashboard = Client::connect(server.local_addr()).unwrap();
    let info = dashboard.attach("shared").unwrap();
    assert_eq!(info.events, 12_000);
    assert_eq!(info.intervals, 1);
    assert!(dashboard.snapshot(u64::MAX).unwrap().is_some());

    // Unknown names are a typed error, not a hang or a disconnect.
    let mut stranger = Client::connect(server.local_addr()).unwrap();
    match stranger.attach("nope") {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown-session, got {other:?}"),
    }
    // Re-opening a taken name is refused.
    match stranger.open_session("shared", SessionConfig::default_multi_hash()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::SessionExists),
        other => panic!("expected session-exists, got {other:?}"),
    }
    server.join();
}

/// Eight concurrent loadgen sessions complete with zero protocol errors,
/// and the server's metrics show the traffic: non-zero counters and
/// populated latency histograms.
#[test]
fn loadgen_eight_clients_clean_and_stats_populated() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let config = MuxConfig {
        sessions: 8,
        events_per_session: 20_000,
        chunk_events: 2_048,
        session_prefix: "lg".to_string(),
        ..MuxConfig::default()
    };
    let report = mux_loadgen(server.local_addr(), &config).unwrap();
    assert_eq!(report.errors, 0, "no protocol errors under concurrency");
    assert_eq!(report.opened, 8);
    assert_eq!(report.events, 160_000);
    assert_eq!(report.requests, 8 * 10);
    assert!(report.events_per_sec() > 0.0);
    assert!(report.latency.count() >= 80);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "events_ingested"), Some(160_000));
    assert_eq!(stat_value(&stats, "chunks_ingested"), Some(80));
    assert_eq!(stat_value(&stats, "sessions_opened"), Some(8));
    assert_eq!(stat_value(&stats, "sessions_closed"), Some(8));
    assert!(stat_value(&stats, "requests_total").unwrap() >= 80);
    assert!(stat_value(&stats, "connections_accepted").unwrap() >= 8);
    assert!(stat_value(&stats, "request_latency_count").unwrap() >= 80);
    assert!(stat_value(&stats, "request_latency_p99_us").unwrap() > 0);
    assert!(stat_value(&stats, "chunk_decode_count").unwrap() >= 80);
    assert_eq!(stat_value(&stats, "protocol_errors"), Some(0));

    // The Prometheus exposition covers the same traffic across all three
    // layers: server counters, engine dispatch, sketch introspection.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("# TYPE server_requests_total counter"));
    assert_eq!(
        stat_value(&metrics, "server_events_ingested_total"),
        Some(160_000)
    );
    assert_eq!(stat_value(&metrics, "engine_events_total"), Some(160_000));
    assert!(stat_value(&metrics, "engine_cuts_total").unwrap() >= 8);
    assert!(stat_value(&metrics, "sketch_intervals_total").unwrap() >= 8);
    assert!(stat_value(&metrics, "sketch_promotions_total").unwrap() > 0);
    assert!(metrics.contains("# TYPE server_request_latency_us histogram"));
    assert!(metrics.contains("server_request_latency_us_bucket{le=\"+Inf\"}"));
    server.join();
}

/// The JSONL metrics exporter writes at least a final snapshot at
/// shutdown, and each line is a self-contained JSON object.
#[test]
fn metrics_export_writes_jsonl_snapshots() {
    let dir = std::env::temp_dir().join(format!("mhp-metrics-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&path);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            metrics_export_path: Some(path.clone()),
            metrics_export_interval: std::time::Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("export", SessionConfig::default_multi_hash())
        .unwrap();
    client.ingest(&workload(11, 12_000)).unwrap();
    client.shutdown_server().unwrap();
    drop(client);
    server.wait();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least the shutdown snapshot");
    // Registry snapshots first, then the shutdown trace stream: every
    // line is a self-contained JSON object, snapshots carry a wall-clock
    // stamp, trace lines carry a type tag.
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: {line}"
        );
        assert!(
            line.contains("\"ts_ms\":")
                || line.contains("\"type\":\"stage_summary\"")
                || line.contains("\"type\":\"trace\""),
            "neither snapshot nor trace line: {line}"
        );
    }
    // The final snapshot saw the session's traffic.
    let last_snapshot = lines.iter().rfind(|l| l.contains("\"ts_ms\":")).unwrap();
    assert!(
        last_snapshot.contains("\"server_events_ingested_total\":12000"),
        "{last_snapshot}"
    );
    // The trailing trace stream attributes the ingest stage.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"stage_summary\"") && l.contains("\"stage\":\"ingest\"")),
        "trace stream missing from export"
    );
    let _ = std::fs::remove_file(&path);
}

/// Connections beyond the limit receive a graceful, retryable
/// `overloaded` error response instead of hanging or being reset.
#[test]
fn over_limit_connections_are_rejected_gracefully() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    first
        .open_session("holder", SessionConfig::default_multi_hash())
        .unwrap();

    // The accept loop is single-threaded, so after the first client's
    // request round-trips, a second connection must see `overloaded` —
    // a retryable code, so well-behaved clients back off and reconnect.
    let mut second = Client::connect(server.local_addr()).unwrap();
    match second.call(&mhp_server::Request::Stats) {
        Ok(mhp_server::Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded rejection, got {other:?}"),
    }
    drop(second);
    drop(first);
    server.join();
}

/// A connection that closed while the accept loop was blocked frees its
/// slot for the next arrival: at `max_connections = 1`, ten sequential
/// connect → request → close cycles are all served, and none is refused.
#[test]
fn closed_connections_free_their_slot_for_the_next_arrival() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    for cycle in 0..10 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .list_sessions()
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        drop(client);
        // The handler lowers the live count once it sees the hang-up; the
        // next arrival must find the slot free from then on.
        let deadline = Instant::now() + Duration::from_secs(10);
        while stat_value(&server.stats(), "connections_active") != Some(0) {
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: handler never exited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(stat_value(&server.stats(), "connections_rejected"), Some(0));
    assert_eq!(
        stat_value(&server.stats(), "connections_accepted"),
        Some(10)
    );
    server.join();
}

/// Runs `stop` on its own thread and reports whether it returned within
/// one second. The accept loop blocks until a connection or a shutdown
/// wake arrives, so a lost wake shows up here as a hang.
fn returns_within_a_second(stop: impl FnOnce() + Send + 'static) -> bool {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(1)).is_ok()
}

/// `join` wakes an accept loop that never saw a connection.
#[test]
fn join_stops_an_idle_server_promptly() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    assert!(returns_within_a_second(move || server.join()));
}

/// A `shutdown` request wakes the accept loop, so an otherwise idle server
/// stops without another connection arriving.
#[test]
fn shutdown_request_stops_an_idle_server_promptly() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.shutdown_server().unwrap();
    drop(client);
    assert!(returns_within_a_second(move || server.wait()));
}

/// A peer that sends part of a frame and then goes silent does not hold
/// up shutdown: its handler gives up on the frame at the next read
/// timeout once shutdown begins, instead of waiting out the stall budget
/// (300 read timeouts, a minute at the default 200 ms).
#[test]
fn join_is_not_held_by_a_peer_stalled_mid_frame() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    // One whole request first, so the handler is up and reading.
    stalled.write_all(&framed(Request::Stats.encode())).unwrap();
    read_reply(&mut stalled);
    // Two bytes of the next length prefix, then silence.
    stalled.write_all(&[8, 0]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(returns_within_a_second(move || server.join()));
    drop(stalled);
}

/// A peer that pipelines requests and never reads a reply leaves its
/// handler blocked in a reply write. That write gives up at its next write
/// timeout once shutdown begins, so `join` is not held for a fixed write
/// timeout (30 s before the write followed the shutdown flag).
#[test]
fn join_is_not_held_by_a_peer_that_stops_reading() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let deaf = TcpStream::connect(server.local_addr()).unwrap();
    // Each `metrics` reply is a few KiB, so the replies overfill both
    // socket buffers long before the last request is answered.
    let requests = framed(Request::Metrics.encode()).repeat(20_000);
    let mut sender = deaf.try_clone().unwrap();
    let sending = std::thread::spawn(move || {
        let _ = sender.write_all(&requests);
    });
    // Wait until the handler stops taking requests: it is blocked in a
    // write.
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let mut taken = 0;
    for polls in 1u64.. {
        std::thread::sleep(Duration::from_millis(100));
        // Every request but the probe's own `stats` polls is a `metrics`.
        let now = stat_value(&probe.stats().unwrap(), "requests_total").unwrap() - polls;
        if now > 0 && now == taken {
            break;
        }
        taken = now;
        assert!(polls < 200, "handler never blocked");
    }
    drop(probe);
    assert!(returns_within_a_second(move || server.join()));
    // The handler hung up, so the sender's blocked write fails.
    sending.join().unwrap();
    drop(deaf);
}

/// Malformed bytes get an error response and the connection is dropped;
/// the server survives and keeps serving others.
#[test]
fn protocol_violations_are_contained() {
    use std::io::Write as _;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // An oversized declared frame: 4 GiB of nothing.
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    // The server answers with an error frame and hangs up.
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let body = mhp_server::protocol::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    match mhp_server::Response::decode(&body).unwrap() {
        mhp_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }

    // A fresh, well-behaved client still gets served.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stat_value(&stats, "protocol_errors").unwrap() >= 1);
    server.join();
}

/// Graceful shutdown over the wire: in-flight sessions are drained, the
/// accept loop exits, and the server process (here: thread) terminates.
#[test]
fn shutdown_request_drains_sessions_and_stops_the_server() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client
        .open_session("draining", SessionConfig::default_multi_hash())
        .unwrap();
    client.ingest(&workload(5, 3_000)).unwrap();
    client.shutdown_server().unwrap();
    drop(client);

    // wait() returns only when the accept loop has drained everything.
    server.wait();

    // The port is closed: new connections are refused.
    assert!(std::net::TcpStream::connect(addr).is_err());
}

/// `sessions` lists every resident session, sorted by name, without an
/// attached session — the discovery primitive an aggregator polls.
#[test]
fn session_listing_reports_every_resident_session_sorted() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.list_sessions().unwrap().is_empty());

    for name in ["acme/web", "acme/api", "beta/db"] {
        let mut opener = Client::connect(server.local_addr()).unwrap();
        opener
            .open_session(name, SessionConfig::default_multi_hash())
            .unwrap();
        opener.ingest(&workload(9, 2_000)).unwrap();
    }

    let listed = client.list_sessions().unwrap();
    let names: Vec<&str> = listed.iter().map(|info| info.name.as_str()).collect();
    assert_eq!(names, ["acme/api", "acme/web", "beta/db"]);
    for info in &listed {
        assert_eq!(info.events, 2_000);
    }
    server.join();
}

/// Per-tenant session quota: the tenant at its limit gets a typed
/// `quota-exceeded` rejection (visible in the Prometheus exposition as a
/// labeled counter) while other tenants keep opening sessions.
#[test]
fn tenant_session_quota_rejects_with_labeled_counter() {
    let config = ServerConfig {
        tenant_quotas: mhp_server::TenantQuotas {
            max_sessions: 2,
            max_bytes_per_sec: u64::MAX,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let mut holders = Vec::new();
    for name in ["acme/one", "acme/two"] {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .open_session(name, SessionConfig::default_multi_hash())
            .unwrap();
        holders.push(client);
    }
    let mut third = Client::connect(server.local_addr()).unwrap();
    match third.open_session("acme/three", SessionConfig::default_multi_hash()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // A different tenant is unaffected by acme's quota.
    third
        .open_session("beta/one", SessionConfig::default_multi_hash())
        .unwrap();

    let exposition = third.metrics().unwrap();
    assert!(
        exposition.contains("server_tenant_quota_rejections_total{tenant=\"acme\"} 1"),
        "missing quota counter in:\n{exposition}"
    );
    assert!(
        exposition.contains("server_tenant_sessions_opened_total{tenant=\"acme\"} 2"),
        "missing opened counter in:\n{exposition}"
    );
    assert!(
        exposition.contains("server_tenant_sessions_opened_total{tenant=\"beta\"} 1"),
        "missing beta counter in:\n{exposition}"
    );
    server.join();
}

/// Per-tenant ingest byte budget: a tiny token bucket rejects the second
/// chunk with `quota-exceeded`, and the rejection clears as the bucket
/// refills — the error is transient, not a dead end.
#[test]
fn tenant_byte_budget_throttles_and_recovers() {
    let config = ServerConfig {
        tenant_quotas: mhp_server::TenantQuotas {
            max_sessions: usize::MAX,
            // One 1k-event chunk (~6.7 KB varint-encoded) fits; two do
            // not.
            max_bytes_per_sec: 10_000,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("acme/throttled", SessionConfig::default_multi_hash())
        .unwrap();

    let events = workload(3, 2_000);
    client.ingest(&events[..1_000]).unwrap();
    match client.ingest(&events[1_000..]) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        other => panic!("expected throttle, got {other:?}"),
    }
    // The bucket refills continuously; within ~1s the same chunk goes
    // through.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match client.ingest(&events[1_000..]) {
            Ok(_) => break,
            Err(ServerError::Remote {
                code: ErrorCode::QuotaExceeded,
                ..
            }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("throttle never cleared: {other:?}"),
        }
    }

    let exposition = client.metrics().unwrap();
    assert!(
        exposition.contains("server_tenant_quota_rejections_total{tenant=\"acme\"}"),
        "missing rejection counter in:\n{exposition}"
    );
    server.join();
}

/// Memory-budget eviction: with a tiny budget, idle sessions are
/// checkpointed and evicted LRU-first (counted per tenant), and a later
/// attach restores the evicted session transparently with its data
/// intact.
#[test]
fn idle_sessions_evict_under_memory_budget_and_restore_on_attach() {
    let dir = std::env::temp_dir().join(format!("mhp-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        // Far below one engine's ~64 KiB/shard floor: every idle session
        // is over budget.
        session_memory_budget: Some(1),
        // Keep the periodic checkpointer quiet; eviction checkpoints on
        // its own.
        checkpoint_interval: std::time::Duration::from_secs(3_600),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let events = workload(11, 12_000);
    let expected_topk = {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .open_session("acme/evictee", SessionConfig::default_multi_hash())
            .unwrap();
        client.ingest(&events).unwrap();
        client.top_k(5).unwrap()
        // Dropping the connection releases the attachment; the session
        // becomes evictable.
    };

    // The sweep runs every ~100ms; wait for the eviction counter.
    let mut query = Client::connect(server.local_addr()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let exposition = query.metrics().unwrap();
        if exposition.contains("server_tenant_evictions_total{tenant=\"acme\"}") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never happened:\n{exposition}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Attach restores the checkpointed session with its state intact.
    let mut back = Client::connect(server.local_addr()).unwrap();
    let info = back.attach("acme/evictee").unwrap();
    assert_eq!(info.events, 12_000);
    assert_eq!(back.top_k(5).unwrap(), expected_topk);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chunk with trailing garbage is rejected *before* anything reaches the
/// engine: the request fails with a protocol error, no event or counter
/// moves, and a retry with the clean chunk lands exactly once — the
/// half-ingested-then-rejected state would make every client retry a
/// double ingest.
#[test]
fn trailing_garbage_chunk_is_rejected_before_ingest() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(3, 1_000);

    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("trailing", SessionConfig::default_multi_hash())
        .unwrap();

    let mut dirty = mhp_pipeline::encode_chunk(&events);
    dirty.extend_from_slice(b"trailing garbage");
    match client.ingest_chunk(dirty.clone()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a protocol rejection, got {other:?}"),
    }

    // Nothing was applied and nothing was counted: the engine and the
    // ingest counters agree the rejected chunk never happened.
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "events_ingested"), Some(0));
    assert_eq!(stat_value(&stats, "chunks_ingested"), Some(0));

    // The retry (the clean prefix of the same bytes) lands exactly once.
    let clean = mhp_pipeline::encode_chunk(&events);
    let (total, _intervals) = client.ingest_chunk(clean).unwrap();
    assert_eq!(total, 1_000, "retry after rejection must not double-ingest");

    // The sequenced path pre-checks identically.
    let (total, _intervals) = match client.ingest_seq(1, dirty) {
        Err(ServerError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            client
                .ingest_seq(1, mhp_pipeline::encode_chunk(&events))
                .unwrap()
        }
        other => panic!("expected a protocol rejection, got {other:?}"),
    };
    assert_eq!(total, 2_000);

    client.close_session().unwrap();
    client.shutdown_server().unwrap();
    server.join();
}

/// Runs `mhp-client loadgen` against `addr` with `args`, failing the test
/// if it has not exited within `bound`.
fn run_loadgen_cli(addr: SocketAddr, args: &[&str], bound: Duration) -> std::process::Output {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mhp-client"))
        .args(["loadgen", "--addr", &addr.to_string()])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > bound {
            let _ = child.kill();
            panic!("loadgen {args:?} still running after {bound:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().unwrap()
}

/// `mhp-client loadgen` closes every session it opened, so a second run
/// against the same server succeeds too; a run whose opens are rejected
/// for good exits non-zero at once instead of retrying until its deadline.
#[test]
fn loadgen_cli_reruns_cleanly_and_fails_fast_on_a_rejected_open() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    for run in 0..2 {
        let args = ["--sessions", "8", "--events", "20000"];
        let output = run_loadgen_cli(addr, &args, Duration::from_secs(60));
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "run {run}: {stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(stdout.contains("opened 8\n"), "run {run}: {stdout}");
        assert!(stdout.contains("events 160000\n"), "run {run}: {stdout}");
        assert!(stdout.contains("errors 0\n"), "run {run}: {stdout}");
    }
    let args = ["--sessions", "2", "--shards", "0"];
    let output = run_loadgen_cli(addr, &args, Duration::from_secs(5));
    assert!(!output.status.success(), "a zero-shard open must fail");

    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stat_value(&stats, "sessions_opened"), Some(16));
    assert_eq!(stat_value(&stats, "sessions_closed"), Some(16));
    probe.shutdown_server().unwrap();
    server.join();
}

/// A session whose shard worker died answers every later chunk with the
/// retryable `ingest` error. `mhp-client loadgen` retries it a few times
/// with a pause, then fails the run instead of re-sending until its
/// deadline; the failed session is still closed, so the next run against
/// the same server starts clean. The worker dies on its first batch and
/// each session streams more events than its ring holds (64 batches of
/// 1,024), so the failing session meets the dead worker however the
/// threads are scheduled.
#[test]
fn loadgen_cli_gives_up_on_a_dead_worker_and_closes_its_session() {
    let hook = FaultPlan::new(0)
        .with_fault(FaultKind::WorkerPanic, 1)
        .arm();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fault_hook: Some(hook),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let args = ["--sessions", "2", "--events", "200000"];
    let output = run_loadgen_cli(addr, &args, Duration::from_secs(10));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "a dead worker must fail: {stdout}"
    );
    assert!(stdout.contains("errors 6\n"), "5 retries, then: {stdout}");
    assert!(stdout.contains("opened 2\n"), "{stdout}");

    let output = run_loadgen_cli(addr, &args, Duration::from_secs(60));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "the rerun is clean: {stdout}");

    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stat_value(&stats, "sessions_opened"), Some(4));
    assert_eq!(stat_value(&stats, "sessions_closed"), Some(4));
    probe.shutdown_server().unwrap();
    server.join();
}

/// Request tracing end to end: after a loadgen run the `traces` query
/// returns a summary for every stage of the taxonomy, with the ingest
/// stage populated, the sampled trace records carry every stage field,
/// and the stage histograms reach the Prometheus exposition.
#[test]
fn traces_expose_stage_quantiles_and_sampled_records() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let config = MuxConfig {
        sessions: 4,
        events_per_session: 20_000,
        chunk_events: 2_048,
        session_prefix: "tr".to_string(),
        ..MuxConfig::default()
    };
    let report = mux_loadgen(server.local_addr(), &config).unwrap();
    assert_eq!(report.errors, 0);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let traces = client.traces().unwrap();
    for stage in mhp_server::SERVER_STAGES {
        assert!(
            traces.contains(&format!("\"stage\":\"{stage}\"")),
            "missing stage summary for {stage}"
        );
    }
    assert!(traces.contains("\"stage\":\"total\""));
    let trace_lines: Vec<&str> = traces
        .lines()
        .filter(|l| l.contains("\"type\":\"trace\""))
        .collect();
    assert!(!trace_lines.is_empty(), "sampled traces present");
    for line in &trace_lines {
        for stage in mhp_server::SERVER_STAGES {
            assert!(
                line.contains(&format!("\"{stage}\":")),
                "trace line missing {stage}: {line}"
            );
        }
    }
    let ingest = traces
        .lines()
        .find(|l| l.contains("\"type\":\"stage_summary\",\"stage\":\"ingest\""))
        .expect("an ingest stage summary");
    assert!(
        !ingest.contains("\"count\":0,"),
        "ingest stage populated: {ingest}"
    );

    let metrics = client.metrics().unwrap();
    for stage in mhp_server::SERVER_STAGES {
        assert!(
            metrics.contains(&format!("# TYPE server_stage_{stage}_us histogram")),
            "missing server_stage_{stage}_us exposition"
        );
    }
    assert!(stat_value(&metrics, "server_traces_total").unwrap() > 0);
    assert!(stat_value(&metrics, "server_traces_sampled_total").unwrap() > 0);
    client.shutdown_server().unwrap();
    server.join();
}

/// A server that predates the `traces` opcode answers it with a
/// non-retryable bad-request error, which `Client::traces` surfaces as a
/// typed remote error.
#[test]
fn traces_query_against_older_server_degrades_gracefully() {
    use mhp_server::protocol::{read_frame, write_frame};
    use std::net::TcpListener;

    // Fake "older server": answers every frame the way the real request
    // decoder answers an unknown opcode — a BadRequest error response.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        // One connection is all the test sends.
        if let Some(stream) = listener.incoming().next() {
            let mut stream = stream.unwrap();
            while let Ok(Some(_body)) = read_frame(&mut stream) {
                let reply = mhp_server::Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "unknown request opcode 0x0e".to_string(),
                }
                .encode();
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
        }
    });

    let mut client = Client::connect(addr).unwrap();
    match client.traces() {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected remote BadRequest, got {other:?}"),
    }
    drop(client);
    old_server.join().unwrap();
}

/// `body` behind its little-endian length prefix.
fn framed(body: Vec<u8>) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Reads one reply frame, length prefix included, or as much of it as
/// arrives before the server hangs up.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut reply = vec![0u8; 4];
    stream.read_exact(&mut reply).unwrap();
    let len = u32::from_le_bytes(reply[..4].try_into().unwrap());
    stream.take(u64::from(len)).read_to_end(&mut reply).unwrap();
    reply
}

/// A request dripped one byte at a time decodes exactly as a request
/// delivered whole: the handler's reader keeps its place partway through
/// the frame across reads.
#[test]
fn dripped_requests_resume_mid_frame() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    // Hand-roll the drip on a raw socket so nothing buffers for us.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    for byte in framed(Request::Stats.encode()) {
        raw.write_all(&[byte]).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = mhp_server::protocol::read_frame(&mut raw)
        .unwrap()
        .expect("server closed instead of answering the dripped request");
    match Response::decode(&response).unwrap() {
        Response::Stats(text) => assert!(text.contains("requests_total")),
        other => panic!("expected stats, got {other:?}"),
    }
    drop(raw);
    server.join();
}

/// Sends `frames` on one fresh connection, one at a time, collecting each
/// reply exactly as it arrived; the server must hang up after the last.
fn run_connection(addr: SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = Vec::new();
    for frame in frames {
        stream.write_all(frame).unwrap();
        replies.push(read_reply(&mut stream));
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the last reply: {rest:?}");
    replies
}

/// A scripted raw-socket run — ordinary requests, a torn reply, a handler
/// error, a malformed request and an oversized frame — gets exactly the
/// expected reply bytes and moves the request counters exactly so. A torn
/// reply is not a completed request: `request_latency` counts only replies
/// sent whole.
#[test]
fn scripted_replies_and_request_accounting_are_exact() {
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
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let session = SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 1,
        interval_len: 1_000,
        threshold: 0.01,
        seed: 7,
    };
    let events = workload(3, 2_500);
    let attach = |name: &str| {
        framed(
            Request::Attach {
                name: name.to_string(),
            }
            .encode(),
        )
    };

    // Counters are read on one connection before and after the script, so
    // each read's own request lands in the deltas.
    let mut probe = Client::connect(addr).unwrap();
    let count = |stats: &str, name: &str| stat_value(stats, name).unwrap();
    let before = probe.stats().unwrap();

    let mut replies = run_connection(
        addr,
        &[
            framed(
                Request::Open {
                    name: "parity".into(),
                    config: session.clone(),
                }
                .encode(),
            ),
            framed(
                Request::Ingest {
                    chunk: mhp_pipeline::encode_chunk(&events),
                }
                .encode(),
            ),
            framed(Request::TopK { n: 4 }.encode()),
        ],
    );
    replies.extend(run_connection(
        addr,
        &[
            attach("parity"),
            attach("missing"),
            framed(Request::Snapshot { interval: u64::MAX }.encode()),
            framed(vec![0xEE]), // unknown opcode
        ],
    ));
    replies.extend(run_connection(addr, &[u32::MAX.to_le_bytes().to_vec()]));

    let after = probe.stats().unwrap();
    probe.shutdown_server().unwrap();
    server.join();

    // The same stream through an offline engine gives the live top-k and
    // the latest profile the server must have sent.
    let interval = mhp_core::IntervalConfig::new(session.interval_len, session.threshold).unwrap();
    let mut offline = ShardedEngine::new(
        EngineConfig::new(1),
        interval,
        session.kind.spec(),
        session.seed,
    )
    .start()
    .unwrap();
    offline.push_all(events.iter().copied()).unwrap();
    let top_k = offline.top_k(4).unwrap();
    let latest = ProfileData::from_profile(offline.profiles().unwrap().last().unwrap());
    offline.finish().unwrap();

    let info = |events, intervals| {
        Response::Session(SessionInfo {
            name: "parity".into(),
            config: session.clone(),
            events,
            intervals,
        })
    };
    let error = |err: ServerError| Response::Error {
        code: err.code(),
        message: err.wire_message(),
    };
    let mut torn = framed(Response::TopK(top_k).encode());
    torn.truncate(4 + (torn.len() - 4) / 2);
    let expected = vec![
        framed(info(0, 0).encode()),
        framed(
            Response::Ingested {
                events: 2_500,
                intervals: 2,
            }
            .encode(),
        ),
        torn,
        framed(info(2_500, 2).encode()),
        framed(
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: "no session named \"missing\"".into(),
            }
            .encode(),
        ),
        framed(Response::Profile(latest).encode()),
        framed(error(Request::decode(&[0xEE]).unwrap_err()).encode()),
        framed(
            error(mhp_server::protocol::read_frame(&mut &u32::MAX.to_le_bytes()[..]).unwrap_err())
                .encode(),
        ),
    ];
    assert_eq!(replies.len(), 8);
    for (i, (got, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "reply {}", i + 1);
    }
    let declared = u32::from_le_bytes(replies[2][..4].try_into().unwrap()) as usize;
    assert!(replies[2].len() - 4 < declared, "third reply is torn");
    // Seven scripted requests plus the closing stats read; two errors (the
    // unknown session and the malformed request); two protocol errors (the
    // malformed request and the oversized frame); latency for the five
    // whole scripted replies plus the opening stats read.
    let deltas: Vec<(&str, u64)> = COUNTERS
        .iter()
        .map(|&name| (name, count(&after, name) - count(&before, name)))
        .collect();
    assert_eq!(
        deltas,
        [
            ("requests_total", 8),
            ("errors_total", 2),
            ("protocol_errors", 2),
            ("request_latency_count", 6),
        ]
    );
}

/// Sends `frames` on one fresh connection and collects one reply per
/// frame: all frames written back to back when `pipelined`, else each
/// after the previous reply.
fn exchange(addr: SocketAddr, frames: &[Vec<u8>], pipelined: bool) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
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

/// One connection's frames are answered strictly in order, so a client may
/// pipeline: `snapshot` and `topk` frames written back to back get, byte
/// for byte, the replies they get one at a time.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let session = SessionConfig {
        kind: ProfilerKind::MultiHash,
        shards: 2,
        interval_len: 1_000,
        threshold: 0.01,
        seed: 7,
    };
    // Twelve completed intervals and a partial one; the last snapshots
    // ask past the end and get no-profile replies.
    let mut frames = vec![framed(
        Request::Attach {
            name: "pipelined".into(),
        }
        .encode(),
    )];
    for i in 0..15u64 {
        frames.push(framed(Request::Snapshot { interval: i }.encode()));
        frames.push(framed(Request::TopK { n: 1 + i as u32 }.encode()));
    }

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut recorder = Client::connect(server.local_addr()).unwrap();
    recorder.open_session("pipelined", session).unwrap();
    recorder.ingest(&workload(9, 12_500)).unwrap();

    let one_at_a_time = exchange(server.local_addr(), &frames, false);
    let pipelined = exchange(server.local_addr(), &frames, true);
    assert_eq!(pipelined.len(), frames.len());
    for (i, (a, b)) in one_at_a_time.iter().zip(&pipelined).enumerate() {
        assert_eq!(a, b, "reply {} differs when pipelined", i + 1);
    }
    let no_profile = Response::NoProfile.encode();
    assert_eq!(
        pipelined[1..]
            .iter()
            .step_by(2)
            .filter(|reply| reply[4..] != no_profile[..])
            .count(),
        12,
        "twelve completed intervals, then no-profile replies"
    );
    recorder.shutdown_server().unwrap();
    drop(recorder);
    server.join();
}

/// The multiplexed load generator holds hundreds of concurrent sessions
/// open from a single thread, one server handler thread each; every
/// session opens, the active subset streams to completion, and the
/// server's counters agree.
#[test]
fn mux_loadgen_holds_hundreds_of_concurrent_sessions() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 320,
            ..ServerConfig::default()
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
    assert_eq!(report.errors, 0);
    assert_eq!(report.requests, 16 * 2, "2 chunks per active session");
    assert_eq!(report.events, 16 * 8_192);

    // The server really did see them all: mux holds every connection until
    // the run completes, so the peak concurrency equals the session count.
    // Then every session is closed.
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stat_value(&stats, "sessions_opened"), Some(256));
    assert_eq!(stat_value(&stats, "sessions_closed"), Some(256));
    assert_eq!(stat_value(&stats, "connections_rejected"), Some(0));
    probe.shutdown_server().unwrap();
    server.join();
}
