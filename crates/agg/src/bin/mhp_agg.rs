//! `mhp-agg` — serve, query, and offline-verify the aggregation tier.
//!
//! ```text
//! mhp-agg serve --addr 127.0.0.1:7170 --upstream HOST:PORT [--upstream ...]
//!               [--pull-interval-ms 200] [--state FILE]
//!               [--connect-timeout-ms 250] [--read-timeout-ms 250]
//!               [--pull-budget-ms 2000] [--breaker-threshold 3]
//!               [--quarantine-ms 1000] [--max-query-conns 64]
//!               [--fault-plan SPEC] [--fault-seed N]
//! mhp-agg query --addr A --op topk --tenant T [--n N]
//! mhp-agg query --addr A --op sessions|stats|metrics
//! mhp-agg query --addr A --op shutdown
//! mhp-agg offline --member NAME=BENCH:KIND:SEED [--member ...] [--events N]
//!                 [--profiler P] [--shards N] [--interval-len N]
//!                 [--threshold F] [--seed S] [--n N]
//! ```
//!
//! `offline` is the reference path: it runs the same engines on the same
//! synthetic streams in-process, folds completed intervals per tenant
//! exactly as the aggregation tier does, and prints per-tenant top-k in
//! the same format `query --op topk` uses — so a fleet smoke test can
//! diff the two outputs byte for byte.

use std::process::ExitCode;
use std::time::Duration;

use mhp_agg::{AggConfig, AggState, Aggregator, PullPolicy};
use mhp_core::Candidate;
use mhp_faults::FaultPlan;
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{tenant_of, Client, ProfilerKind, ServerError, SessionConfig};
use mhp_trace::StreamSpec;

const USAGE: &str = "\
usage: mhp-agg <command> [options]

commands:
  serve    --addr A --upstream HOST:PORT [--upstream ...]
           [--pull-interval-ms 200] [--state FILE]
           [--connect-timeout-ms 250] [--read-timeout-ms 250]
           [--pull-budget-ms 2000] [--breaker-threshold 3]
           [--quarantine-ms 1000] [--max-query-conns 64]
           [--fault-plan SPEC] [--fault-seed N]
  query    --addr A --op OP [--tenant T] [--n N]
           (OP: topk, snapshot, sessions, stats, metrics, shutdown;
            topk and snapshot need --tenant)
  offline  --member NAME=BENCH:KIND:SEED [--member ...] [--events 100000]
           [--profiler multi-hash] [--shards 1] [--interval-len 10000]
           [--threshold 0.01] [--seed 51966] [--n 10]

upstreams may be mhp-servers or other mhp-agg nodes; sessions named
<tenant>/__cumulative__ are child-aggregator exports and are merged with
replace semantics. offline members are session-name=stream pairs, e.g.
acme/web=gcc:value:42.";

fn fail(msg: &str) -> ServerError {
    ServerError::protocol_owned(msg.to_string())
}

fn print_top_k(tenant: &str, candidates: &[Candidate]) {
    println!("tenant {tenant}");
    for c in candidates {
        println!(
            "  {:#x}:{} = {}",
            c.tuple.pc().as_u64(),
            c.tuple.value().as_u64(),
            c.count
        );
    }
}

/// Pull-one-value flag parser; `--upstream` and `--member` repeat.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, ServerError> {
        let mut pairs = Vec::new();
        let mut iter = raw.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(fail(&format!("unexpected argument {flag:?}")));
            };
            let Some(value) = iter.next() else {
                return Err(fail(&format!("--{name} needs a value")));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let idx = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(idx).1)
    }

    fn take_all(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        while let Some(value) = self.take(name) {
            values.push(value);
        }
        values
    }

    fn take_parsed<T: std::str::FromStr>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, ServerError> {
        match self.take(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| fail(&format!("invalid value {raw:?} for --{name}"))),
        }
    }

    fn require(&mut self, name: &str) -> Result<String, ServerError> {
        self.take(name)
            .ok_or_else(|| fail(&format!("--{name} is required")))
    }

    fn finish(self) -> Result<(), ServerError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((name, _)) => Err(fail(&format!("unknown option --{name}"))),
        }
    }
}

fn cmd_serve(mut args: Args) -> Result<(), ServerError> {
    let addr = args.require("addr")?;
    let upstreams = args.take_all("upstream");
    if upstreams.is_empty() {
        return Err(fail("serve needs at least one --upstream"));
    }
    let pull_ms: u64 = args.take_parsed("pull-interval-ms", 200)?;
    let state_path = args.take("state").map(Into::into);
    let defaults = PullPolicy::default();
    let policy = PullPolicy {
        connect_timeout: Duration::from_millis(args.take_parsed(
            "connect-timeout-ms",
            defaults.connect_timeout.as_millis() as u64,
        )?),
        read_timeout: Duration::from_millis(
            args.take_parsed("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?,
        ),
        pull_budget: Duration::from_millis(
            args.take_parsed("pull-budget-ms", defaults.pull_budget.as_millis() as u64)?,
        ),
        breaker_threshold: args.take_parsed("breaker-threshold", defaults.breaker_threshold)?,
        quarantine: Duration::from_millis(
            args.take_parsed("quarantine-ms", defaults.quarantine.as_millis() as u64)?,
        ),
    };
    let max_query_conns: usize =
        args.take_parsed("max-query-conns", AggConfig::default().max_query_conns)?;
    let fault_plan = args.take("fault-plan");
    let fault_seed: u64 = args.take_parsed("fault-seed", 0)?;
    args.finish()?;

    let mut config = AggConfig {
        upstreams,
        pull_interval: Duration::from_millis(pull_ms.max(1)),
        state_path,
        policy,
        max_query_conns,
        ..AggConfig::default()
    };
    if let Some(spec) = fault_plan {
        let plan = FaultPlan::parse(&spec, fault_seed).map_err(|e| fail(&e.to_string()))?;
        config.fault_hook = Some(plan.arm());
    }
    let agg = Aggregator::bind(&addr, config)?;
    // The restore line comes first: a script that has scraped the address
    // line below may check for it at once, while the pull workers already
    // contend for the state lock that `epoch` takes.
    let epoch = agg.epoch();
    if epoch > 0 {
        println!("restored checkpoint at epoch {epoch}");
    }
    // Smoke scripts scrape this exact line for the resolved port.
    println!("aggregating on {}", agg.local_addr());
    agg.wait();
    println!("shut down cleanly");
    Ok(())
}

fn cmd_query(mut args: Args) -> Result<(), ServerError> {
    let addr = args.require("addr")?;
    let op = args.require("op")?;
    let tenant = args.take("tenant");
    let n: u32 = args.take_parsed("n", 10)?;
    args.finish()?;

    let mut client = Client::connect(addr.as_str())?;
    let need_tenant = || tenant.clone().ok_or_else(|| fail("--tenant is required"));
    match op.as_str() {
        "topk" => {
            let tenant = need_tenant()?;
            client.attach(&tenant)?;
            print_top_k(&tenant, &client.top_k(n)?);
        }
        "snapshot" => {
            let tenant = need_tenant()?;
            client.attach(&tenant)?;
            match client.snapshot(u64::MAX)? {
                Some(profile) => print_top_k(&tenant, &profile.candidates),
                None => println!("tenant {tenant}: empty"),
            }
        }
        "sessions" => {
            let (sessions, upstreams) = client.list_sessions_with_health()?;
            for info in sessions {
                println!(
                    "{} events={} epoch={}",
                    info.name, info.events, info.intervals
                );
            }
            // Aggregators append their per-upstream supervisor health to
            // the listing; leaf servers send none.
            for health in upstreams {
                println!(
                    "upstream {} healthy={} phase={} staleness_cycles={} consecutive_failures={}",
                    health.addr,
                    u8::from(health.healthy),
                    health.phase.name(),
                    health.staleness_cycles,
                    health.consecutive_failures
                );
            }
        }
        "stats" => print!("{}", client.stats()?),
        "metrics" => print!("{}", client.metrics()?),
        "shutdown" => {
            client.shutdown_server()?;
            println!("shutdown requested");
        }
        other => return Err(fail(&format!("unknown query op {other:?}"))),
    }
    Ok(())
}

/// The offline reference: per member session, run the engine in-process
/// on its stream, fold the completed intervals into the owning tenant's
/// table, and print every tenant's top-k — what the aggregation tier
/// must converge on, computed without a single network hop.
fn cmd_offline(mut args: Args) -> Result<(), ServerError> {
    let members = args.take_all("member");
    if members.is_empty() {
        return Err(fail("offline needs at least one --member"));
    }
    let events: usize = args.take_parsed("events", 100_000)?;
    let kind: ProfilerKind = match args.take("profiler") {
        None => ProfilerKind::MultiHash,
        Some(raw) => raw.parse()?,
    };
    let config = SessionConfig {
        kind,
        shards: args.take_parsed("shards", 1u16)?,
        interval_len: args.take_parsed("interval-len", 10_000u64)?,
        threshold: args.take_parsed("threshold", 0.01f64)?,
        seed: args.take_parsed("seed", 51_966u64)?,
    };
    let n: usize = args.take_parsed("n", 10)?;
    args.finish()?;

    let mut state = AggState::new();
    for member in &members {
        let (name, stream) = member
            .split_once('=')
            .ok_or_else(|| fail(&format!("--member {member:?} is not NAME=BENCH:KIND:SEED")))?;
        let spec: StreamSpec = stream
            .parse()
            .map_err(|e| fail(&format!("invalid stream {stream:?}: {e}")))?;
        let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold)
            .map_err(mhp_pipeline::Error::Config)?;
        let engine = ShardedEngine::new(
            EngineConfig::new(config.shards as usize),
            interval,
            config.kind.spec(),
            config.seed,
        );
        let report = engine.run(spec.events().take(events))?;
        let tenant = tenant_of(name);
        for profile in &report.profiles {
            state.add_leaf_profile(tenant, profile.candidates());
        }
    }
    for tenant in state.tenant_names() {
        print_top_k(&tenant, &state.top_k(&tenant, n));
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mhp-agg: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(args),
        "query" => cmd_query(args),
        "offline" => cmd_offline(args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mhp-agg: {e}");
            ExitCode::FAILURE
        }
    }
}
