//! `mhp-bench` — perf-regression harness for the profiling hot path.
//!
//! ```text
//! mhp-bench hotpath [--events N] [--seed S] [--batch B] [--samples K] [--out PATH]
//! mhp-bench profile [--tool auto|perf|samply] [--events N] [--seed S]
//!                   [--batch B] [--samples K] [--out PATH]
//! mhp-bench server  [--sessions LIST] [--active N] [--events N] [--chunk B]
//!                   [--out PATH]
//! mhp-bench fleet   [--servers LIST] [--sessions-per-server N]
//!                   [--fault-rates LIST] [--events N] [--out PATH]
//! ```
//!
//! `hotpath` pushes a deterministic workload through each profiler
//! per-event and batched (plus the sharded engine at 1/4/8 shards), prints
//! an events/sec table, and writes the numbers as JSON (default
//! `BENCH_hotpath.json`). A separate *untimed* introspection pass collects
//! sketch-health telemetry (promotions, evictions, occupancy — see
//! `mhp_core::SketchSnapshot`) for the same workload and writes it next to
//! the timing JSON as `*_telemetry.json`. CI runs a scaled-down pass as a
//! non-gating smoke check; the JSON at the repo root is the committed
//! reference run.

use std::process::ExitCode;

use mhp_bench::fleet_bench::{self, FleetBenchOptions};
use mhp_bench::hotpath::{self, HotpathOptions};
use mhp_bench::profile::{self, ProfileOptions, ProfileTool};
use mhp_bench::server_bench::{self, ServerBenchOptions};

fn print_usage() {
    eprintln!(
        "usage: mhp-bench hotpath [--events N] [--seed S] [--batch B] [--samples K] [--out PATH]\n\
         defaults: --events 2000000 --seed 51966 --batch 4096 --samples 3 --out BENCH_hotpath.json\n\
         \n\
         usage: mhp-bench profile [--tool auto|perf|samply] [--events N] [--seed S]\n\
         \x20                     [--batch B] [--samples K] [--out PATH]\n\
         (profile: run the hotpath workload under perf record / samply record;\n\
         \x20default --out is perf.data or profile.json, per tool)\n\
         \n\
         usage: mhp-bench server [--sessions LIST] [--active N] [--events N]\n\
         \x20                    [--chunk B] [--out PATH]\n\
         defaults: --sessions 8,32,256,1024,2048 --active 8 --events 100000\n\
         \x20         --chunk 4096 --out BENCH_server.json\n\
         (server: concurrent-session scaling of the thread-per-connection\n\
         \x20server, driven by the multiplexed load generator)\n\
         \n\
         usage: mhp-bench fleet [--servers LIST] [--sessions-per-server N]\n\
         \x20                   [--fault-rates LIST] [--events N]\n\
         \x20                   [--clean-budget-cycles N] [--out PATH]\n\
         defaults: --servers 2,4 --sessions-per-server 2 --fault-rates 0,25,50\n\
         \x20         --events 20000 --clean-budget-cycles 200 --out BENCH_fleet.json\n\
         (fleet: aggregation-tier convergence lag vs injected pull-fault rate;\n\
         \x20exits nonzero if a fault-free row misses the cycle budget)"
    );
}

fn run_profile(mut args: std::iter::Skip<std::env::Args>) -> ExitCode {
    let mut opts = ProfileOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tool" => match args.next().as_deref().and_then(ProfileTool::parse) {
                Some(tool) => opts.tool = tool,
                None => {
                    eprintln!("--tool needs one of: auto, perf, samply");
                    return ExitCode::FAILURE;
                }
            },
            "--events" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.hotpath.events = n,
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => opts.hotpath.seed = s,
                _ => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(b)) if b > 0 => opts.hotpath.batch = b,
                _ => {
                    eprintln!("--batch needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--samples" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(k)) if k > 0 => opts.hotpath.samples = k,
                _ => {
                    eprintln!("--samples needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => opts.out = Some(path),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    match profile::run(&opts) {
        Ok(out) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("profile: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_session_list(raw: &str) -> Option<Vec<usize>> {
    let list: Result<Vec<usize>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    list.ok().filter(|l| !l.is_empty())
}

fn run_server_bench(mut args: std::iter::Skip<std::env::Args>) -> ExitCode {
    let mut opts = ServerBenchOptions::default();
    let mut out_path = String::from("BENCH_server.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => match args.next().as_deref().and_then(parse_session_list) {
                Some(list) => opts.sessions = list,
                None => {
                    eprintln!("--sessions needs a comma-separated list of counts");
                    return ExitCode::FAILURE;
                }
            },
            "--active" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.active = n,
                _ => {
                    eprintln!("--active needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--events" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.events_per_session = n,
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--chunk" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.chunk_events = n,
                _ => {
                    eprintln!("--chunk needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let report = server_bench::run(&opts);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn parse_rate_list(raw: &str) -> Option<Vec<u8>> {
    let list: Result<Vec<u8>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    list.ok()
        .filter(|l| !l.is_empty() && l.iter().all(|&r| r <= 100))
}

fn run_fleet_bench(mut args: std::iter::Skip<std::env::Args>) -> ExitCode {
    let mut opts = FleetBenchOptions::default();
    let mut out_path = String::from("BENCH_fleet.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--servers" => match args.next().as_deref().and_then(parse_session_list) {
                Some(list) => opts.servers = list,
                None => {
                    eprintln!("--servers needs a comma-separated list of counts");
                    return ExitCode::FAILURE;
                }
            },
            "--sessions-per-server" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.sessions_per_server = n,
                _ => {
                    eprintln!("--sessions-per-server needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--fault-rates" => match args.next().as_deref().and_then(parse_rate_list) {
                Some(list) => opts.fault_rates = list,
                None => {
                    eprintln!("--fault-rates needs a comma-separated list of 0..=100");
                    return ExitCode::FAILURE;
                }
            },
            "--events" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.events_per_session = n,
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--clean-budget-cycles" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.clean_budget_cycles = n,
                _ => {
                    eprintln!("--clean-budget-cycles needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let report = fleet_bench::run(&opts);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if !report.clean_ok() {
        eprintln!(
            "fleet: clean-run regression — a fault-free row missed the {}-cycle budget",
            opts.clean_budget_cycles
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("hotpath") => {}
        Some("profile") => return run_profile(args),
        Some("server") => return run_server_bench(args),
        Some("fleet") => return run_fleet_bench(args),
        Some("--help") | Some("-h") => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            print_usage();
            return ExitCode::FAILURE;
        }
    }

    let mut opts = HotpathOptions::default();
    let mut out_path = String::from("BENCH_hotpath.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.events = n,
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => opts.seed = s,
                _ => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(b)) if b > 0 => opts.batch = b,
                _ => {
                    eprintln!("--batch needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--samples" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(k)) if k > 0 => opts.samples = k,
                _ => {
                    eprintln!("--samples needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let report = hotpath::run(&opts);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    // Untimed introspection pass: sketch health for the same workload,
    // written next to the timing numbers.
    let telemetry_path = telemetry_path_for(&out_path);
    let health = hotpath::sketch_health(&opts);
    if let Err(e) = std::fs::write(&telemetry_path, hotpath::telemetry_json(&health)) {
        eprintln!("failed to write {telemetry_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {telemetry_path}");
    ExitCode::SUCCESS
}

/// `BENCH_hotpath.json` -> `BENCH_hotpath_telemetry.json` (and any other
/// path gets `_telemetry` spliced in before a trailing `.json`).
fn telemetry_path_for(out_path: &str) -> String {
    match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}_telemetry.json"),
        None => format!("{out_path}_telemetry"),
    }
}
