//! The repo's benchmark: live training rounds, end to end and layer by layer.
//!
//! ```text
//! garfield-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! garfield-benchmark all [--seed <n>] [--runs <k>] [--quick]
//! garfield-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload, one
//! process, metrics printed as `workload metric value unit` lines and then,
//! as the last line, one JSON object. `all` runs that form for every
//! workload in fresh child processes and writes `results/latest.json`;
//! `compare` sets two such files side by side. See `README.md`.

#![forbid(unsafe_code)]

mod bench;
mod catalogue;
mod live;
mod micro;
mod procfs;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use garfield_aggregation::Engine;
use garfield_core::json::Value;
use report::ChildRun;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str =
    "usage: garfield-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       garfield-benchmark all [--seed <n>] [--runs <k>] [--quick]
       garfield-benchmark compare <a.json> <b.json>";

/// Seconds one run measures under `all` (`BENCHMARK.json`'s `run_seconds`),
/// and under `all --quick`, the smoke run.
const RUN_SECONDS: u64 = 10;
const QUICK_SECONDS: u64 = 1;

/// The value following `flag`, parsed.
fn option<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot read '{raw}'"))
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    option(args, flag)?.ok_or_else(|| format!("missing {flag}\n{USAGE}"))
}

/// One workload, one process: what the driver runs.
fn run_one(args: &[String]) -> Result<bool, String> {
    let name: String = required(args, "--workload")?;
    let workload = workloads::by_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: u64 = required(args, "--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let traced = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };

    let started = Instant::now();
    let outcome = if traced {
        bench::per_layer(&workload, seed, seconds)?
    } else {
        bench::end_to_end(&workload, seed, seconds)?
    };
    for metric in &outcome.metrics {
        print!(
            "{} {} {} {}",
            workload.name, metric.spec.name, metric.value, metric.spec.unit
        );
        if metric.min != metric.max {
            print!(" (min {} max {})", metric.min, metric.max);
        }
        println!();
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "{}",
        report::detail_line(&outcome, started.elapsed().as_secs_f64())
    );
    println!("{}", report::result_line(&outcome));
    Ok(outcome.correct)
}

/// Standard output of `program args...`, trimmed; `unknown` when it cannot
/// run (the driver's checkout is not a git repository).
fn tool_output(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs this binary again for one workload and reads its result back.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning the run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    ChildRun::parse(&stdout).map_err(|e| format!("{workload}: {e}"))
}

/// Every workload, each run in a fresh process so that peak memory, the
/// process-wide metrics registry and allocator state start clean.
fn run_all(args: &[String]) -> Result<bool, String> {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    report::check_manifest(&package.join("../BENCHMARK.json"))?;
    let seed: u64 = option(args, "--seed")?.unwrap_or(42);
    let runs: usize = option(args, "--runs")?.unwrap_or(1).max(1);
    let quick = args.iter().any(|a| a == "--quick");
    let seconds = if quick { QUICK_SECONDS } else { RUN_SECONDS };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        println!("WARNING: {cores} core - runtime.parallel_gain is not meaningful");
    }

    let started = Instant::now();
    let mut entries = Vec::new();
    let mut correct = true;
    for workload in workloads::all() {
        let untraced: Vec<ChildRun> = (0..runs)
            .map(|_| child(workload.name, seed, seconds, false))
            .collect::<Result<_, _>>()?;
        let traced = child(workload.name, seed, seconds, true)?;
        correct &= untraced.iter().chain([&traced]).all(ChildRun::correct);
        entries.push(report::workload_entry(&workload, &untraced, &traced)?);
    }

    let number = |n: usize| Value::Number(n as f64);
    let env = report::object([
        (
            "commit",
            Value::String(tool_output("git", &["rev-parse", "HEAD"], package)),
        ),
        (
            "rustc",
            Value::String(tool_output("rustc", &["-V"], package)),
        ),
        ("available_parallelism", number(cores)),
        ("engine_threads", number(Engine::auto().threads())),
        (
            "profile",
            Value::String("release, lto = thin, codegen-units = 1".into()),
        ),
        ("seed", Value::String(seed.to_string())),
        ("run_seconds", number(seconds as usize)),
        ("runs_per_workload", number(runs)),
        (
            "total_wall_s",
            Value::Number(started.elapsed().as_secs_f64()),
        ),
    ]);
    let results = bench::results_dir();
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let file = results.join(if quick {
        "latest-quick.json"
    } else {
        "latest.json"
    });
    std::fs::write(&file, report::result_file(env, entries))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args),
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        Some(first) if first.starts_with("--") => run_one(&args),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("garfield-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
