//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <live-memory|audit-outofcore> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics, with `--trace 1` the per-layer ones; both lists
//! and their units come from `BENCHMARK.json`. Every run checks its
//! oracles and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed oracle makes the run
//! exit with code 1. `benchmark/README.md` explains the workloads and
//! metrics.

mod audit;
mod env;
mod live;
mod redrive;
mod rows;
mod stats;

use shard_obs::{Json, ObjWriter};
use stats::{ratio, Metrics};
use std::process::ExitCode;

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures; any makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts a live sub-run's submissions.
    fn count(&mut self, c: &live::Checked) {
        self.attempted += c.attempted as u64;
        self.failed += c.attempted.saturating_sub(c.executed) as u64;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The `(name, unit)` lists of `BENCHMARK.json` for one mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = shard_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("BENCHMARK.json: malformed {key} entry"))
        })
        .collect()
}

/// Orders `reported` as `declared`, failing on a metric missing from
/// either side or reported with another unit. Per-layer metrics of
/// layers the workload does not exercise read 0.
fn finalize(
    reported: Metrics,
    declared: &[(String, String)],
    trace: bool,
) -> Result<Metrics, String> {
    for (name, _, unit) in &reported.0 {
        match declared.iter().find(|(n, _)| n == name) {
            None => return Err(format!("metric {name} is not declared in BENCHMARK.json")),
            Some((_, u)) if u != unit => {
                return Err(format!("metric {name}: unit {unit}, declared {u}"))
            }
            Some(_) => {}
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in declared {
        match reported.0.iter().find(|(n, _, _)| n == name) {
            Some((_, v, _)) => out.put(name, *v, unit),
            None if trace => out.put(name, 0.0, unit),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let declared = declared(args.trace)?;
    let dir = env::RunDir::create().map_err(|e| format!("store directory: {e}"))?;
    let prov = env::provenance(&args.workload, args.seed, dir.path())
        .map_err(|e| format!("provenance: {e}"))?;
    println!("{{\"provenance\": {prov}}}");
    let (s, seed) = (args.seconds, args.seed);
    let measured = match (args.workload.as_str(), args.trace) {
        ("live-memory", false) => live::measure(seed, s, &dir),
        ("live-memory", true) => Ok(live::trace(seed, s)),
        ("audit-outofcore", false) => audit::measure(seed, &dir),
        ("audit-outofcore", true) => audit::trace(seed, &dir),
        (w, _) => return Err(format!("unknown workload {w}")),
    };
    let mut outcome = measured.map_err(|e| format!("I/O error: {e}"))?;
    if !args.trace {
        outcome
            .metrics
            .put("peak_rss_mb", env::peak_rss_mb(), "MiB");
    }
    println!(
        "failed_frac {} ({} of {} not executed)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    outcome.metrics = finalize(std::mem::take(&mut outcome.metrics), &declared, args.trace)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(rows::RESTART_CHILD) {
        return match rows::restart_child(&argv[2..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.failures {
        println!("ORACLE FAILED: {f}");
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        ObjWriter::new()
            .bool("correct", correct)
            .u64("attempted", outcome.attempted.max(1))
            .u64("failed", outcome.failed)
            .raw("metrics", &outcome.metrics.to_json())
            .finish()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
