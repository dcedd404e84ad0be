//! `e2ebench` — run one benchmark run, or serve as the server under test.
//!
//! ```text
//! e2ebench --workload stream|fanout|mixed --seed N --seconds S --trace 0|1
//! e2ebench serve
//! ```
//!
//! A run prints one `# name = value unit (n=samples)` line per metric and,
//! as its last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer ones and writes the traced rounds'
//! spans as JSONL under the Cargo target directory.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use e2ebench::workload::Workload;
use e2ebench::{run, Outcome, RunConfig};

const USAGE: &str =
    "usage: e2ebench --workload stream|fanout|mixed --seed N --seconds S --trace 0|1\n       e2ebench serve";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        exe: std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?,
    })
}

/// Writes the traced rounds' spans as JSONL beside the build output.
fn write_spans(cfg: &RunConfig, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "e2ebench/target".into()),
    )
    .join("e2ebench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &outcome.spans {
        writeln!(
            file,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    file.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match e2ebench::server_proc::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("e2ebench serve: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("e2ebench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("e2ebench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for mismatch in &outcome.mismatches {
        eprintln!("e2ebench: check failed: {mismatch}");
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    if cfg.traced {
        match write_spans(&cfg, &outcome) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(err) => eprintln!("e2ebench: writing spans: {err}"),
        }
    }
    for m in &outcome.metrics {
        println!("# {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
