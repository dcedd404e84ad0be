//! Chaos and durability acceptance tests: checkpoint/restore across a
//! server restart, sequenced-ingest resume semantics, deterministic fault
//! injection for every [`FaultKind`], admission control, and corrupt
//! checkpoint handling. The bar everywhere is the tentpole criterion:
//! every fault either recovers to *bit-identical* results or fails with a
//! typed error — no panic escapes, and the server keeps serving.

use std::time::Duration;

use mhp_core::Tuple;
use mhp_faults::{FaultKind, FaultPlan, ALL_FAULT_KINDS};
use mhp_pipeline::{encode_chunk, EngineConfig, ShardedEngine};
use mhp_server::{
    Client, ErrorCode, ProfileData, ProfilerKind, ReconnectingClient, Server, ServerConfig,
    ServerError, SessionConfig, DEFAULT_MAX_RETRIES,
};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

fn workload(seed: u64, n: usize) -> Vec<Tuple> {
    StreamSpec::new(Benchmark::Gcc, StreamKind::Value, seed)
        .events()
        .take(n)
        .collect()
}

/// The two shapes whose streamed results are exactly reproducible offline
/// (see `e2e.rs`): multi-hash on one shard, perfect across shards.
fn exact_configs() -> [SessionConfig; 2] {
    [
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
    ]
}

/// Completed-interval profiles and live top-k of an uninterrupted
/// single-process run — the reference every recovery is compared against.
fn offline_reference(
    config: &SessionConfig,
    events: &[Tuple],
) -> (Vec<ProfileData>, Vec<mhp_core::Candidate>) {
    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let mut session = engine.start().unwrap();
    session.push_all(events.iter().copied()).unwrap();
    let topk = session.top_k(10).unwrap();
    let profiles = session
        .profiles()
        .unwrap()
        .iter()
        .map(ProfileData::from_profile)
        .collect();
    (profiles, topk)
}

/// Value of an unlabelled counter in the Prometheus text exposition.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mhp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The kill-and-restore acceptance test: stream half a workload, shut the
/// server down (its drain takes the durable checkpoint), restart from the
/// same state directory, resume the stream, and demand results
/// bit-identical to a run that was never interrupted.
#[test]
fn restart_from_checkpoints_is_bit_identical() {
    let dir = scratch_dir("restart");
    let events = workload(42, 25_000);
    let chunks: Vec<Vec<u8>> = events.chunks(1_000).map(encode_chunk).collect();
    let split = 13; // "crash" after 13 of 25 chunks

    let config_a = ServerConfig {
        state_dir: Some(dir.clone()),
        // Rely on the drain-time checkpoint alone; the periodic loop is
        // exercised separately.
        checkpoint_interval: Duration::from_secs(3_600),
        ..ServerConfig::default()
    };
    let server_a = Server::bind("127.0.0.1:0", config_a).unwrap();
    for (idx, config) in exact_configs().iter().enumerate() {
        let mut client = Client::connect(server_a.local_addr()).unwrap();
        client
            .open_session(&format!("restore-{idx}"), config.clone())
            .unwrap();
        for (i, chunk) in chunks.iter().take(split).enumerate() {
            client.ingest_seq((i + 1) as u64, chunk.clone()).unwrap();
        }
    }
    let mut admin = Client::connect(server_a.local_addr()).unwrap();
    admin.shutdown_server().unwrap();
    server_a.join();

    let config_b = ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server_b = Server::bind("127.0.0.1:0", config_b).unwrap();
    assert_eq!(server_b.restored_sessions(), 2);

    for (idx, config) in exact_configs().iter().enumerate() {
        let (expected_profiles, expected_topk) = offline_reference(config, &events);
        let mut client = Client::connect(server_b.local_addr()).unwrap();
        let info = client.attach(&format!("restore-{idx}")).unwrap();
        assert_eq!(
            info.events,
            (split * 1_000) as u64,
            "{}",
            config.kind.name()
        );
        assert_eq!(client.resume().unwrap(), split as u64);

        // Replay from the last acked chunk — the overlap must dedup, not
        // double-count — then stream the remainder.
        for (i, chunk) in chunks.iter().enumerate().skip(split - 1) {
            client.ingest_seq((i + 1) as u64, chunk.clone()).unwrap();
        }
        for (interval, reference) in expected_profiles.iter().enumerate() {
            let got = client.snapshot(interval as u64).unwrap().unwrap();
            assert_eq!(
                got,
                *reference,
                "{} interval {interval}",
                config.kind.name()
            );
        }
        assert!(client
            .snapshot(expected_profiles.len() as u64)
            .unwrap()
            .is_none());
        assert_eq!(
            client.top_k(10).unwrap(),
            expected_topk,
            "{}",
            config.kind.name()
        );
        client.close_session().unwrap();
    }
    // CloseSession removed both checkpoint files.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

    let mut admin = Client::connect(server_b.local_addr()).unwrap();
    let metrics = admin.metrics().unwrap();
    assert_eq!(metric_value(&metrics, "server_restore_total"), 2);
    assert_eq!(metric_value(&metrics, "server_restore_errors_total"), 0);
    admin.shutdown_server().unwrap();
    server_b.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequenced_ingest_dedups_replays_and_rejects_gaps() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(7, 3_000);
    let chunks: Vec<Vec<u8>> = events.chunks(1_000).map(encode_chunk).collect();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("seq", exact_configs()[0].clone())
        .unwrap();
    let first = client.ingest_seq(1, chunks[0].clone()).unwrap();
    assert_eq!(first.0, 1_000);

    // A replay is acknowledged with the *current* totals, not re-applied.
    let replay = client.ingest_seq(1, chunks[0].clone()).unwrap();
    assert_eq!(replay, first);

    let gap = client.ingest_seq(3, chunks[2].clone()).unwrap_err();
    assert!(
        matches!(
            gap,
            ServerError::Remote {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "gap: {gap}"
    );
    let zero = client.ingest_seq(0, chunks[1].clone()).unwrap_err();
    assert!(
        matches!(
            zero,
            ServerError::Remote {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "zero: {zero}"
    );

    assert_eq!(client.resume().unwrap(), 1);
    let second = client.ingest_seq(2, chunks[1].clone()).unwrap();
    assert_eq!(second.0, 2_000);

    let metrics = client.metrics().unwrap();
    assert_eq!(metric_value(&metrics, "server_dedup_chunks_total"), 1);
    client.shutdown_server().unwrap();
    server.join();
}

/// One pass per fault kind. Retryable faults must end in results
/// bit-identical to the uninterrupted offline run; the one fault that
/// kills the engine (a worker panic) must surface as a typed remote error
/// after retries are exhausted. In every case the server itself survives
/// and keeps serving fresh sessions.
#[test]
fn every_fault_kind_recovers_bit_identically_or_fails_typed() {
    let events = workload(11, 25_000);
    let config = exact_configs()[0].clone();
    let (expected_profiles, expected_topk) = offline_reference(&config, &events);

    for kind in ALL_FAULT_KINDS {
        // Each hook counts in its own units: worker faults in events,
        // connection faults in requests, chunk faults in ingest chunks.
        // All land mid-stream of the 25-chunk workload.
        let at = match kind {
            FaultKind::WorkerPanic | FaultKind::WorkerStall => 8_000,
            FaultKind::DropConnection | FaultKind::TruncateFrame => 4,
            FaultKind::CorruptChunk | FaultKind::SlowConsumer => 3,
            // Pull-plane faults fire only in an aggregator's pull hooks
            // (see crates/agg tests); a leaf server never consults them.
            FaultKind::UpstreamStall | FaultKind::SlowRead => continue,
        };
        let hook = FaultPlan::new(0xC0FFEE).with_fault(kind, at).arm();
        let server_config = ServerConfig {
            fault_hook: Some(hook.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", server_config).unwrap();

        let mut client = ReconnectingClient::open(
            server.local_addr(),
            &format!("chaos-{}", kind.name()),
            config.clone(),
            DEFAULT_MAX_RETRIES,
        )
        .unwrap();
        // Worker faults fire asynchronously on the shard thread, so a
        // failure may surface during the stream *or* at the first query
        // that forces a worker round-trip. Either way the whole pass is
        // one fallible outcome.
        let outcome = (|| -> Result<(Vec<ProfileData>, Vec<mhp_core::Candidate>), ServerError> {
            for chunk in events.chunks(1_000) {
                client.ingest(chunk)?;
            }
            let mut profiles = Vec::new();
            for interval in 0..expected_profiles.len() {
                match client.snapshot(interval as u64)? {
                    Some(profile) => profiles.push(profile),
                    None => panic!("{}: interval {interval} missing", kind.name()),
                }
            }
            let topk = client.top_k(10)?;
            client.close_session()?;
            Ok((profiles, topk))
        })();

        assert_eq!(hook.injected(kind), 1, "{}: fault never fired", kind.name());
        match outcome {
            Ok((profiles, topk)) => {
                assert_ne!(
                    kind,
                    FaultKind::WorkerPanic,
                    "a panicked worker cannot answer queries"
                );
                for (interval, (got, reference)) in
                    profiles.iter().zip(&expected_profiles).enumerate()
                {
                    assert_eq!(got, reference, "{} interval {interval}", kind.name());
                }
                assert_eq!(topk, expected_topk, "{}", kind.name());
            }
            Err(err) => {
                // Containment, not recovery: only the engine-killing fault
                // may fail, and only with a typed remote error.
                assert_eq!(
                    kind,
                    FaultKind::WorkerPanic,
                    "{}: unexpected failure {err}",
                    kind.name()
                );
                assert!(
                    matches!(err, ServerError::Remote { .. }),
                    "worker panic leaked an untyped error: {err}"
                );
            }
        }

        // The server survives the fault: a fresh session still works.
        let mut probe = Client::connect(server.local_addr()).unwrap();
        probe.open_session("probe", config.clone()).unwrap();
        probe.ingest(&events[..1_000]).unwrap();
        probe.close_session().unwrap();
        probe.shutdown_server().unwrap();
        server.join();
    }
}

/// The server acks a chunk before its shard worker runs it, so
/// `mhp-client record-and-send` ends with a barrier through every shard
/// worker. Here the worker stalls on its first batch and panics at event
/// 5000; all five 4096-event acks of the 20000-event stream return before
/// it gets there, and only the barrier can report the dead worker. Both
/// client paths, plain and reconnecting, must exit with an error.
#[test]
fn record_and_send_fails_when_a_worker_dies_behind_the_acks() {
    for retries in [None, Some("3")] {
        let hook = FaultPlan::parse("worker-stall@1,worker-panic@5000", 0)
            .unwrap()
            .arm();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                fault_hook: Some(hook.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_mhp-client"));
        command.args([
            "record-and-send",
            "--addr",
            &addr,
            "--session",
            "behind-the-acks",
            "--events",
            "20000",
        ]);
        if let Some(retries) = retries {
            command.args(["--retries", retries]);
        }
        let output = command.output().unwrap();
        assert!(
            !output.status.success(),
            "retries {retries:?}: stream into a panicked worker succeeded: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        assert_eq!(hook.injected(FaultKind::WorkerPanic), 1);

        // The server survives the panic: a fresh session still works.
        let mut probe = Client::connect(server.local_addr()).unwrap();
        probe
            .open_session("probe", SessionConfig::default_multi_hash())
            .unwrap();
        probe.ingest(&workload(3, 1_000)).unwrap();
        probe.shutdown_server().unwrap();
        drop(probe);
        server.join();
    }
}

#[test]
fn overload_watermark_sheds_ingest_with_typed_error() {
    let server_config = ServerConfig {
        overload_connection_watermark: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config).unwrap();
    let events = workload(3, 2_000);

    let mut holder = Client::connect(server.local_addr()).unwrap();
    holder
        .open_session("shed", exact_configs()[0].clone())
        .unwrap();
    // A single connection sits at the watermark, not over it.
    holder.ingest(&events[..1_000]).unwrap();

    let mut second = Client::connect(server.local_addr()).unwrap();
    second.attach("shed").unwrap();
    let err = second.ingest(&events[1_000..]).unwrap_err();
    assert!(
        matches!(
            err,
            ServerError::Remote {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "shed: {err}"
    );
    // Only ingest is shed; queries still answer under pressure.
    let metrics = second.metrics().unwrap();
    assert!(metric_value(&metrics, "server_shed_total") >= 1);

    // Once the held connection goes away the retry goes through — the
    // back-off-and-retry contract the Overloaded code promises.
    drop(holder);
    let mut recovered = false;
    for _ in 0..100 {
        match second.ingest(&events[1_000..]) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(ServerError::Remote {
                code: ErrorCode::Overloaded,
                ..
            }) => std::thread::sleep(Duration::from_millis(20)),
            Err(other) => panic!("unexpected error while shedding: {other}"),
        }
    }
    assert!(recovered, "ingest kept shedding after the load dropped");
    second.shutdown_server().unwrap();
    server.join();
}

#[test]
fn periodic_checkpoints_are_written_and_removed_on_close() {
    let dir = scratch_dir("periodic");
    let server_config = ServerConfig {
        state_dir: Some(dir.clone()),
        checkpoint_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("periodic", exact_configs()[0].clone())
        .unwrap();
    client.ingest(&workload(1, 1_000)).unwrap();

    let snap_count = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
                    .count()
            })
            .unwrap_or(0)
    };
    let mut checkpointed = false;
    for _ in 0..100 {
        if snap_count(&dir) == 1 {
            checkpointed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(checkpointed, "no checkpoint appeared within 2s");
    let metrics = client.metrics().unwrap();
    assert!(metric_value(&metrics, "server_checkpoints_total") >= 1);

    client.close_session().unwrap();
    assert_eq!(snap_count(&dir), 0, "close left the checkpoint behind");
    client.shutdown_server().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose CRCs are valid but whose engine claims a position at
/// the interval length (where the session would already have cut) must be
/// refused and counted, not restored into a session that never cuts again.
#[test]
fn checkpoint_with_an_impossible_interval_position_is_counted() {
    use mhp_core::state::crc32;
    let dir = scratch_dir("position");
    let server_config = ServerConfig {
        state_dir: Some(dir.clone()),
        checkpoint_interval: Duration::from_secs(3_600),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("pos", exact_configs()[0].clone())
        .unwrap();
    client.ingest(&workload(3, 7_000)).unwrap();
    client.shutdown_server().unwrap();
    server.join();

    // Server envelope header, the 3-byte name with its length, kind, shard
    // count, interval length, threshold, seed, last sequence and the
    // engine blob's length; then the engine's own header and three u64s.
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&path).unwrap();
    let blob = 11 + 8 + 3 + 1 + 4 + 8 + 8 + 8 + 8 + 8;
    let at = blob + 11 + 3 * 8;
    assert_eq!(bytes[at..at + 8], 2_000u64.to_le_bytes());
    bytes[at..at + 8].copy_from_slice(&5_000u64.to_le_bytes());
    let blob_end = bytes.len() - 4;
    let inner = crc32(&bytes[blob..blob_end - 4]);
    bytes[blob_end - 4..blob_end].copy_from_slice(&inner.to_le_bytes());
    let outer = crc32(&bytes[..blob_end]);
    bytes[blob_end..].copy_from_slice(&outer.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let server = Server::bind("127.0.0.1:0", server_config).unwrap();
    assert_eq!(server.restored_sessions(), 0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric_value(&metrics, "server_restore_errors_total"), 1);
    client.shutdown_server().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoints_are_skipped_and_counted() {
    let dir = scratch_dir("badsnap");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("deadbeef.snap"), b"this is not a snapshot").unwrap();

    let server_config = ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config).unwrap();
    assert_eq!(server.restored_sessions(), 0);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric_value(&metrics, "server_restore_errors_total"), 1);

    // A poisoned state directory does not stop fresh sessions.
    client
        .open_session("fresh", exact_configs()[0].clone())
        .unwrap();
    client.ingest(&workload(1, 1_000)).unwrap();
    client.close_session().unwrap();
    client.shutdown_server().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
