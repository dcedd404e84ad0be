//! `mhp-client` — record to, query, verify and load-test an `mhp-server`.
//!
//! ```text
//! mhp-client record-and-send --addr A --session NAME --stream gcc:value:42 --events 100000
//! mhp-client query --addr A --session NAME --op topk --n 10
//! mhp-client loadgen --addr A --clients 8 --events 100000
//! mhp-client loadgen --addr A --sessions 2048 --active 64 --events 50000
//! mhp-client verify --addr A --stream gcc:value:42 --events 50000
//! mhp-client traces --addr A
//! mhp-client shutdown --addr A
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use mhp_core::Tuple;
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{
    loadgen, mux_loadgen, Client, LoadgenConfig, MuxConfig, ProfileData, ProfilerKind,
    ReconnectingClient, RetryPolicy, ServerError, SessionConfig,
};
use mhp_trace::StreamSpec;

const USAGE: &str = "\
usage: mhp-client <command> [options]

commands:
  record-and-send --addr A --session NAME [--stream B:K:S] [--events N]
                  [--profiler P] [--shards N] [--interval-len N]
                  [--threshold F] [--seed S] [--chunk-events N] [--close]
                  [--retries N]
  query           --addr A --session NAME --op OP [--n N] [--interval I]
                  (OP: snapshot, topk, cut, resume, stats, metrics,
                   sessions, close; stats, metrics and sessions are
                   server-wide, no --session)
  loadgen         --addr A [--clients N] [--events N] [--chunk-events N]
                  [--profiler P] [--shards N] [--interval-len N]
                  [--sessions N] [--active N] [--deadline-secs N]
                  (--sessions N switches to the multiplexed generator:
                   N concurrent sessions over nonblocking connections on
                   one thread, --active of them streaming --events each,
                   the rest idling attached — pair with a server running
                   --event-loop)
  verify          --addr A [--stream B:K:S] [--events N] [--profiler P]
                  [--shards N] [--interval-len N] [--threshold F] [--seed S]
                  [--retries N]
  traces          --addr A
                  (the server's request-trace stream as JSONL: per-stage
                   p50/p99/p999 summaries, then sampled slow/head traces)
  shutdown        --addr A

streams are benchmark:kind:seed, e.g. gcc:value:42 or li:edge:7
profilers: multi-hash (default), single-hash, perfect
defaults: --stream gcc:value:42 --events 100000 --profiler multi-hash
          --shards 1 --interval-len 10000 --threshold 0.01 --seed 51966
          --chunk-events 4096 --clients 8 --retries 0

--retries N > 0 streams with sequence-numbered chunks through a
reconnecting client: chunks are retained and replayed from the server's
resume point across disconnects or restarts, with exponential backoff.";

fn usage_error(msg: &str) -> ServerError {
    ServerError::protocol_owned(msg.to_string())
}

/// Hand-rolled flag parser: every option takes exactly one value, except
/// the listed boolean switches.
struct Options {
    pairs: Vec<(String, String)>,
}

const SWITCHES: &[&str] = &["close"];

impl Options {
    fn parse(args: &[String]) -> Result<Options, ServerError> {
        let mut pairs = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(usage_error(&format!("unexpected argument {flag:?}")));
            };
            if SWITCHES.contains(&name) {
                pairs.push((name.to_string(), "true".to_string()));
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(usage_error(&format!("--{name} needs a value")));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Options { pairs })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let idx = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(idx).1)
    }

    fn take_parsed<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, ServerError> {
        match self.take(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| usage_error(&format!("invalid value {raw:?} for --{name}"))),
        }
    }

    fn require(&mut self, name: &str) -> Result<String, ServerError> {
        self.take(name)
            .ok_or_else(|| usage_error(&format!("--{name} is required")))
    }

    fn finish(self) -> Result<(), ServerError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((name, _)) => Err(usage_error(&format!("unknown option --{name}"))),
        }
    }
}

fn session_config_from(opts: &mut Options) -> Result<SessionConfig, ServerError> {
    let kind: ProfilerKind = match opts.take("profiler") {
        None => ProfilerKind::MultiHash,
        Some(raw) => raw.parse()?,
    };
    Ok(SessionConfig {
        kind,
        shards: opts.take_parsed("shards", 1u16)?,
        interval_len: opts.take_parsed("interval-len", 10_000u64)?,
        threshold: opts.take_parsed("threshold", 0.01f64)?,
        seed: opts.take_parsed("seed", 51_966u64)?,
    })
}

fn stream_from(opts: &mut Options) -> Result<StreamSpec, ServerError> {
    let raw = opts
        .take("stream")
        .unwrap_or_else(|| "gcc:value:42".to_string());
    raw.parse()
        .map_err(|e| usage_error(&format!("invalid --stream: {e}")))
}

fn print_profile(profile: &ProfileData, top: usize) {
    println!(
        "interval {} (len {}, threshold {}): {} candidates",
        profile.interval_index,
        profile.interval_len,
        profile.threshold,
        profile.candidates.len()
    );
    for candidate in profile.candidates.iter().take(top) {
        println!(
            "  {:#x}:{} = {}",
            candidate.tuple.pc().as_u64(),
            candidate.tuple.value().as_u64(),
            candidate.count
        );
    }
}

fn retry_policy_from(opts: &mut Options) -> Result<Option<RetryPolicy>, ServerError> {
    let retries: u32 = opts.take_parsed("retries", 0)?;
    Ok((retries > 0).then(|| RetryPolicy {
        max_retries: retries,
        ..RetryPolicy::default()
    }))
}

fn cmd_record_and_send(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    let session = opts.require("session")?;
    let spec = stream_from(&mut opts)?;
    let events: usize = opts.take_parsed("events", 100_000)?;
    let chunk_events: usize = opts.take_parsed("chunk-events", 4_096)?;
    let config = session_config_from(&mut opts)?;
    let policy = retry_policy_from(&mut opts)?;
    let close = opts.take("close").is_some();
    opts.finish()?;

    let all: Vec<Tuple> = spec.events().take(events).collect();
    let mut totals = (0, 0);
    // The server acks a chunk before its shard worker has run it, so the
    // stream ends with a `topk` barrier: it waits on every shard worker
    // and fails if one of them died behind the acks.
    if let Some(policy) = policy {
        let mut client = ReconnectingClient::open(resolve(&addr)?, &session, config, policy)?;
        for chunk in all.chunks(chunk_events.max(1)) {
            totals = client.ingest(chunk)?;
        }
        client.top_k(1)?;
        if client.retries() > 0 {
            println!(
                "recovered from {} fault(s) across {} connection(s)",
                client.retries(),
                client.connects()
            );
        }
        if close {
            client.close_session()?;
        }
    } else {
        let mut client = Client::connect(addr.as_str())?;
        client.open_session(&session, config)?;
        for chunk in all.chunks(chunk_events.max(1)) {
            totals = client.ingest(chunk)?;
        }
        client.top_k(1)?;
        if close {
            client.close_session()?;
        }
    }
    println!(
        "session {session}: sent {events} events from {spec}; \
         server totals: {} events, {} intervals",
        totals.0, totals.1
    );
    if close {
        println!("session {session} closed");
    }
    Ok(())
}

fn cmd_query(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    let op = opts.require("op")?;
    // `stats`, `metrics` and `sessions` are server-wide; every other op
    // targets a named session.
    let server_wide = op == "stats" || op == "metrics" || op == "sessions";
    let session = if server_wide {
        opts.take("session").unwrap_or_default()
    } else {
        opts.require("session")?
    };
    let n: u32 = opts.take_parsed("n", 10)?;
    let interval: u64 = opts.take_parsed("interval", u64::MAX)?;
    opts.finish()?;

    let mut client = Client::connect(addr.as_str())?;
    if !server_wide {
        client.attach(&session)?;
    }
    match op.as_str() {
        "snapshot" => match client.snapshot(interval)? {
            Some(profile) => print_profile(&profile, n as usize),
            None => println!("no such completed interval"),
        },
        "topk" => {
            for candidate in client.top_k(n)? {
                println!(
                    "{:#x}:{} = {}",
                    candidate.tuple.pc().as_u64(),
                    candidate.tuple.value().as_u64(),
                    candidate.count
                );
            }
        }
        "cut" => match client.cut()? {
            Some(profile) => print_profile(&profile, n as usize),
            None => println!("interval was empty; nothing cut"),
        },
        "resume" => println!("last_seq {}", client.resume()?),
        "stats" => print!("{}", client.stats()?),
        "metrics" => print!("{}", client.metrics()?),
        "sessions" => {
            for info in client.list_sessions()? {
                println!(
                    "{} kind={} shards={} events={} intervals={}",
                    info.name,
                    info.config.kind.name(),
                    info.config.shards,
                    info.events,
                    info.intervals
                );
            }
        }
        "close" => {
            client.close_session()?;
            println!("session {session} closed");
        }
        other => return Err(usage_error(&format!("unknown query op {other:?}"))),
    }
    Ok(())
}

fn cmd_loadgen(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    if let Some(raw) = opts.take("sessions") {
        let sessions: usize = raw
            .parse()
            .map_err(|_| usage_error(&format!("invalid value {raw:?} for --sessions")))?;
        let mut config = MuxConfig {
            sessions,
            active: opts.take_parsed("active", 64)?,
            events_per_session: opts.take_parsed("events", 50_000)?,
            chunk_events: opts.take_parsed("chunk-events", 4_096)?,
            deadline: std::time::Duration::from_secs(opts.take_parsed("deadline-secs", 300)?),
            ..MuxConfig::default()
        };
        config.session = session_config_from(&mut opts)?;
        opts.finish()?;

        let report = mux_loadgen(resolve(&addr)?, &config)?;
        print!("{}", report.render());
        if report.opened < config.sessions.max(1) {
            return Err(ServerError::protocol_owned(format!(
                "only {} of {} sessions opened",
                report.opened, config.sessions
            )));
        }
        return Ok(());
    }
    let mut config = LoadgenConfig {
        clients: opts.take_parsed("clients", 8)?,
        events_per_client: opts.take_parsed("events", 100_000)?,
        chunk_events: opts.take_parsed("chunk-events", 4_096)?,
        ..LoadgenConfig::default()
    };
    config.session = session_config_from(&mut opts)?;
    opts.finish()?;

    let addr = resolve(&addr)?;
    let report = loadgen(addr, &config)?;
    print!("{}", report.render());
    if report.errors > 0 {
        return Err(ServerError::protocol_owned(format!(
            "loadgen saw {} error(s)",
            report.errors
        )));
    }
    Ok(())
}

/// Streams a workload to the server and checks every completed interval
/// (and the live top-k) against an offline [`ShardedEngine`] run of the
/// same events — the end-to-end equivalence check the CI smoke test runs.
fn cmd_verify(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    let spec = stream_from(&mut opts)?;
    let events: usize = opts.take_parsed("events", 50_000)?;
    let chunk_events: usize = opts.take_parsed("chunk-events", 4_096)?;
    let config = session_config_from(&mut opts)?;
    let policy = retry_policy_from(&mut opts)?;
    opts.finish()?;

    let all: Vec<Tuple> = spec.events().take(events).collect();

    // Offline reference: same engine shape, fed directly.
    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold)
        .map_err(mhp_pipeline::Error::Config)?;
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let mut offline = engine.start()?;
    offline.push_all(all.iter().copied())?;
    let expected_topk = offline.top_k(10)?;
    let expected: Vec<ProfileData> = offline
        .profiles()?
        .iter()
        .map(ProfileData::from_profile)
        .collect();

    // Server run: stream the same events over the wire. With `--retries`,
    // a sequence-numbered reconnecting client survives faults mid-stream —
    // the comparison against the offline run must still be bit-identical.
    let name = format!("verify-{}-{}", config.kind.name(), config.seed);
    let mut retry_client;
    let mut plain_client;
    enum Verifier<'a> {
        Retrying(&'a mut ReconnectingClient),
        Plain(&'a mut Client),
    }
    let mut verifier = if let Some(policy) = policy {
        retry_client = ReconnectingClient::open(resolve(&addr)?, &name, config.clone(), policy)?;
        Verifier::Retrying(&mut retry_client)
    } else {
        plain_client = Client::connect(addr.as_str())?;
        plain_client.open_session(&name, config.clone())?;
        Verifier::Plain(&mut plain_client)
    };
    for chunk in all.chunks(chunk_events.max(1)) {
        match &mut verifier {
            Verifier::Retrying(client) => {
                client.ingest(chunk)?;
            }
            Verifier::Plain(client) => {
                client.ingest(chunk)?;
            }
        }
    }
    let got_topk = match &mut verifier {
        Verifier::Retrying(client) => client.top_k(10)?,
        Verifier::Plain(client) => client.top_k(10)?,
    };

    let mut mismatches = 0usize;
    for (index, reference) in expected.iter().enumerate() {
        let got = match &mut verifier {
            Verifier::Retrying(client) => client.snapshot(index as u64)?,
            Verifier::Plain(client) => client.snapshot(index as u64)?,
        };
        match got {
            Some(profile) if profile == *reference => {}
            Some(_) => {
                mismatches += 1;
                eprintln!("interval {index}: server profile differs from offline run");
            }
            None => {
                mismatches += 1;
                eprintln!("interval {index}: missing on the server");
            }
        }
    }
    let extra = match &mut verifier {
        Verifier::Retrying(client) => client.snapshot(expected.len() as u64)?,
        Verifier::Plain(client) => client.snapshot(expected.len() as u64)?,
    };
    if extra.is_some() {
        mismatches += 1;
        eprintln!("server reports more intervals than the offline run");
    }
    if got_topk != expected_topk {
        mismatches += 1;
        eprintln!("live top-k differs from the offline engine");
    }
    match verifier {
        Verifier::Retrying(client) => {
            if client.retries() > 0 {
                println!(
                    "recovered from {} fault(s) across {} connection(s)",
                    client.retries(),
                    client.connects()
                );
            }
            client.close_session()?;
        }
        Verifier::Plain(client) => client.close_session()?,
    }

    if mismatches == 0 {
        println!(
            "verify ok: {} intervals + live top-k identical across {} events ({})",
            expected.len(),
            events,
            config.kind.name()
        );
        Ok(())
    } else {
        Err(ServerError::protocol_owned(format!(
            "verify failed: {mismatches} mismatch(es)"
        )))
    }
}

fn cmd_traces(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    opts.finish()?;
    let mut client = Client::connect(addr.as_str())?;
    print!("{}", client.traces()?);
    Ok(())
}

fn cmd_shutdown(mut opts: Options) -> Result<(), ServerError> {
    let addr = opts.require("addr")?;
    opts.finish()?;
    let mut client = Client::connect(addr.as_str())?;
    client.shutdown_server()?;
    println!("shutdown requested");
    Ok(())
}

fn resolve(addr: &str) -> Result<std::net::SocketAddr, ServerError> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| usage_error(&format!("cannot resolve {addr:?}")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("mhp-client: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "record-and-send" => cmd_record_and_send(opts),
        "query" => cmd_query(opts),
        "loadgen" => cmd_loadgen(opts),
        "verify" => cmd_verify(opts),
        "traces" => cmd_traces(opts),
        "shutdown" => cmd_shutdown(opts),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mhp-client: {e}");
            ExitCode::FAILURE
        }
    }
}
