//! Chaos acceptance tests for the fault-isolated pull plane: stalled,
//! flapping, and dead upstreams must cost only their own slot — the
//! healthy rest of the fleet converges on the exact offline answer on
//! its usual schedule, and broken upstreams are quarantined, surfaced in
//! the health block, and recovered via half-open probes.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mhp_agg::{AggConfig, AggState, Aggregator, PullPolicy};
use mhp_core::Tuple;
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{
    BreakerPhase, Client, ErrorCode, Server, ServerConfig, ServerError, SessionConfig,
};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

const INTERVAL_LEN: u64 = 5_000;
const EVENTS: usize = 20_000;

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

fn feed(addr: std::net::SocketAddr, name: &str, seed: u64, events: &[Tuple]) {
    let mut client = Client::connect(addr).unwrap();
    client.open_session(name, session_config(seed)).unwrap();
    for chunk in events.chunks(2_048) {
        client.ingest(chunk).unwrap();
    }
}

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

/// A black hole: accepts TCP connections and never writes a byte —
/// exactly what a wedged server looks like from the pull plane. Holds
/// the accepted sockets open until dropped.
struct StallListener {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StallListener {
    fn bind() -> StallListener {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut held: Vec<TcpStream> = Vec::new();
            while !thread_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        StallListener {
            addr,
            stop,
            handle: Some(handle),
        }
    }

    /// Stops accepting and releases the port (held sockets close too).
    fn shut_down(mut self) -> std::net::SocketAddr {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.addr
    }
}

impl Drop for StallListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Fast supervisor tuning for tests: tight deadlines, quick quarantine.
fn test_policy() -> PullPolicy {
    PullPolicy {
        connect_timeout: Duration::from_millis(200),
        read_timeout: Duration::from_millis(100),
        pull_budget: Duration::from_secs(2),
        breaker_threshold: 3,
        quarantine: Duration::from_millis(300),
    }
}

/// The isolation guarantee (and the test a serial pull loop fails): an
/// upstream that accepts TCP but never answers `list_sessions` must not
/// delay the healthy upstream's convergence beyond its own deadline
/// budget. With the old serial loop — one unbounded `Client::connect`
/// per upstream per cycle — the stalled socket wedges the whole plane
/// and the healthy tenant never converges.
#[test]
fn stalled_upstream_does_not_delay_healthy_convergence() {
    let healthy = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let stalled = StallListener::bind();

    let events = stream(7);
    feed(healthy.local_addr(), "acme/web", 7, &events);
    let mut expected = AggState::new();
    offline_fold(&mut expected, "acme", 7, &events);
    let want = expected.top_k("acme", 50);
    assert!(!want.is_empty());

    let agg = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![healthy.local_addr().to_string(), stalled.addr.to_string()],
            pull_interval: Duration::from_millis(25),
            policy: test_policy(),
            ..AggConfig::default()
        },
    )
    .unwrap();

    // The healthy tenant converges on its usual schedule; the 10s bound
    // is two orders of magnitude above the healthy pull path and far
    // below "waits out the stalled socket".
    assert!(
        eventually(Duration::from_secs(10), || agg.top_k("acme", 50) == want),
        "healthy upstream was delayed by the stalled one"
    );

    // The stalled upstream trips the breaker within the threshold (three
    // deadline-bounded failures) and is flagged unhealthy in the health
    // block, with staleness accruing.
    assert!(
        eventually(Duration::from_secs(10), || {
            let health = agg.upstream_health();
            !health[1].healthy && health[1].phase != BreakerPhase::Closed
        }),
        "stalled upstream was never marked unhealthy: {:?}",
        agg.upstream_health()
    );
    let health = agg.upstream_health();
    assert!(health[0].healthy, "healthy upstream flagged: {health:?}");
    assert!(health[1].consecutive_failures >= 3);
    assert!(
        health[1].staleness_cycles > 0,
        "stalled upstream shows no staleness: {health:?}"
    );

    // The health block also rides the wire in the session listing.
    let mut query = Client::connect(agg.local_addr()).unwrap();
    let (_sessions, upstreams) = query.list_sessions_with_health().unwrap();
    assert_eq!(upstreams.len(), 2);
    assert_eq!(upstreams[1].addr, stalled.addr.to_string());
    assert!(!upstreams[1].healthy);

    agg.join();
    healthy.join();
}

/// The full chaos scenario: one upstream stalls (then dies, then comes
/// back as a real server), another drops half its pull connections. The
/// stalled upstream is quarantined and later recovered via a half-open
/// probe; the flapping one never corrupts the merge; and the final
/// aggregate equals the offline merge of both servers' streams exactly —
/// no double-counting through any of it.
#[test]
fn quarantined_upstream_recovers_and_aggregate_stays_exact() {
    let flaky = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let flaky_events = stream(11);
    feed(flaky.local_addr(), "acme/web", 11, &flaky_events);

    let stalled = StallListener::bind();
    let stalled_addr = stalled.addr;

    // 50% of pull attempts (across both upstreams) drop their connection
    // before touching the network — flapping, deterministic per seed.
    let plan = mhp_faults::FaultPlan::parse("conn-drop%50", 0xC0FFEE).unwrap();
    let agg = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![flaky.local_addr().to_string(), stalled_addr.to_string()],
            pull_interval: Duration::from_millis(25),
            policy: test_policy(),
            fault_hook: Some(plan.arm()),
            ..AggConfig::default()
        },
    )
    .unwrap();

    // Phase 1: the stalled upstream is quarantined (breaker leaves
    // Closed) while the flaky one still converges through its drops.
    assert!(
        eventually(Duration::from_secs(10), || {
            !agg.upstream_health()[1].healthy
        }),
        "stalled upstream never quarantined: {:?}",
        agg.upstream_health()
    );
    let mut expected = AggState::new();
    offline_fold(&mut expected, "acme", 11, &flaky_events);
    assert!(
        eventually(Duration::from_secs(10), || {
            agg.top_k("acme", 50) == expected.top_k("acme", 50)
        }),
        "flaky upstream never converged through 50% connection drops"
    );

    // Phase 2: the dead upstream restarts as a real server on the same
    // address, with data of its own. The half-open probe finds it, the
    // breaker closes, and the upstream is healthy again.
    let addr = stalled.shut_down();
    let revived = Server::bind(addr, ServerConfig::default()).unwrap();
    let revived_events = stream(22);
    feed(revived.local_addr(), "beta/db", 22, &revived_events);
    offline_fold(&mut expected, "beta", 22, &revived_events);

    assert!(
        eventually(Duration::from_secs(15), || {
            let health = agg.upstream_health();
            health[1].healthy && health[1].phase == BreakerPhase::Closed
        }),
        "quarantined upstream never recovered: {:?}",
        agg.upstream_health()
    );

    // Phase 3: byte-exact equivalence against the offline merge of both
    // streams, and the supervisor counters tell the story.
    for tenant in ["acme", "beta"] {
        let want = expected.top_k(tenant, 50);
        assert!(
            eventually(Duration::from_secs(10), || agg.top_k(tenant, 50) == want),
            "aggregate diverged for {tenant} after recovery"
        );
    }
    let metrics = agg.metrics();
    for needle in [
        "agg_upstream_quarantines_total",
        "agg_upstream_recoveries_total",
        "agg_pull_errors_total",
        "agg_upstream_healthy",
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }

    agg.join();
    flaky.join();
    revived.join();
}

/// The query plane's connection cap: arrivals beyond `max_query_conns`
/// get a typed retryable `overloaded` rejection instead of a thread, and
/// capacity frees as soon as a connection closes.
#[test]
fn query_connections_beyond_cap_get_typed_busy_rejection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    feed(server.local_addr(), "acme/web", 5, &stream(5)[..6_000]);

    let agg = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![server.local_addr().to_string()],
            pull_interval: Duration::from_millis(25),
            max_query_conns: 1,
            ..AggConfig::default()
        },
    )
    .unwrap();

    // Occupy the only slot.
    let mut first = Client::connect(agg.local_addr()).unwrap();
    first.list_sessions().unwrap();

    // The next connection is answered with `overloaded` — a typed,
    // retryable error, not a hang or a silent close.
    let rejected = eventually(Duration::from_secs(5), || {
        let mut second = match Client::connect(agg.local_addr()) {
            Ok(client) => client,
            Err(_) => return false,
        };
        matches!(
            second.list_sessions(),
            Err(ServerError::Remote {
                code: ErrorCode::Overloaded,
                ..
            })
        )
    });
    assert!(
        rejected,
        "over-cap connection was not rejected as overloaded"
    );
    assert!(
        agg.metrics().contains("agg_query_busy_rejections_total"),
        "busy rejections not counted:\n{}",
        agg.metrics()
    );

    // Capacity frees when the resident connection hangs up.
    drop(first);
    assert!(
        eventually(Duration::from_secs(5), || {
            Client::connect(agg.local_addr())
                .and_then(|mut c| c.list_sessions())
                .is_ok()
        }),
        "slot never freed after the first connection closed"
    );

    agg.join();
    server.join();
}

/// Checkpoint write failures are counted, not swallowed: pointing the
/// state path into a directory that does not exist makes every cycle's
/// checkpoint fail, and `agg_checkpoint_errors_total` says so while the
/// in-memory aggregate keeps serving.
#[test]
fn checkpoint_write_failures_are_counted() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = stream(13);
    feed(server.local_addr(), "acme/web", 13, &events);

    let agg = Aggregator::bind(
        "127.0.0.1:0",
        AggConfig {
            upstreams: vec![server.local_addr().to_string()],
            pull_interval: Duration::from_millis(25),
            state_path: Some(
                std::env::temp_dir()
                    .join(format!("mhp-agg-missing-{}", std::process::id()))
                    .join("nested")
                    .join("agg.snap"),
            ),
            ..AggConfig::default()
        },
    )
    .unwrap();

    let mut expected = AggState::new();
    offline_fold(&mut expected, "acme", 13, &events);
    let want = expected.top_k("acme", 50);
    assert!(
        eventually(Duration::from_secs(10), || agg.top_k("acme", 50) == want),
        "aggregate stopped serving under checkpoint failures"
    );
    assert!(
        eventually(Duration::from_secs(5), || {
            agg.metrics().lines().any(|line| {
                line.starts_with("agg_checkpoint_errors_total") && !line.ends_with(" 0")
            })
        }),
        "checkpoint failures not counted:\n{}",
        agg.metrics()
    );

    agg.join();
    server.join();
}
