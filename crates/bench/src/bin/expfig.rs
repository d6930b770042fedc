//! `expfig` — regenerate the tables and figures of the Garfield paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p garfield-bench --bin expfig -- <experiment> [...]
//! cargo run --release -p garfield-bench --bin expfig -- all
//! cargo run --release -p garfield-bench --bin expfig -- perf \
//!     [--quick] [--out BENCH_aggregation.json] \
//!     [--check results/perf_baseline.json] [--tolerance 0.20] \
//!     [--merge-baseline results/perf_baseline.json] \
//!     [--threads N] [--require-baseline] [--obs-gate]
//! cargo run --release -p garfield-bench --bin expfig -- trace <flight-dir>
//! cargo run --release -p garfield-bench --bin expfig -- watch <spec> \
//!     [--interval-ms 1000] [--csv results/watch.csv] [--once]
//! ```
//!
//! Recognised experiment ids: `table1`, `fig3a`, `fig3b`, `fig4a`, `fig4b`,
//! `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`, `fig12`,
//! `fig13`, `fig14`, `fig15`, `fig16`, `table2`, `variance`, `dec-scaling`.
//! Each prints its rows and writes `results/<id>.csv`.
//!
//! `perf` is the GAR-engine micro-benchmark: it times the distance kernels
//! (scalar / chunked / blocked), sweeps every GAR over d × n on the
//! sequential and parallel engines, asserts bit-identical outputs, and
//! writes `BENCH_aggregation.json` stamped with the effective thread count.
//!
//! With `--check` it gates against a baseline file holding one recorded
//! report per `(threads, quick)` key: entries recorded at a *different*
//! thread count are never compared (throughput is not comparable across
//! machine shapes) — if the file has no entry for this machine's thread
//! count the gate prints a notice and passes (or, with `--require-baseline`,
//! fails with recording instructions — the CI arming step), and
//! `--merge-baseline PATH` records the current report into the file so CI
//! can capture a multi-core baseline as an artifact. On multi-thread runs
//! the gate additionally fails if `Engine::auto` lost to
//! `Engine::sequential` by more than 10% on any cell (the fan-out heuristic
//! regression assertion). `--threads N` pins the parallel engine's thread
//! count (for recording a baseline under another machine shape's key; the
//! fan-out gate is skipped, since an oversubscribed engine tells you
//! nothing about the heuristic). `--obs-gate` additionally times a
//! representative aggregation cell with the `garfield-obs` layer disabled
//! vs enabled and fails if the instrumentation costs more than 2% of
//! aggregation throughput.
//!
//! `trace <dir>` merges the `flight-*.jsonl` dumps that `garfield-node
//! --flight-dir` processes wrote into one per-round cross-node timeline
//! (who was slow, which pulls were re-asked, how the round split between
//! gathering the quorum and the aggregate/apply tail, and which sender rode
//! the round's worst wire hop), printed and written to `results/trace.csv`;
//! the cross-round per-sender one-way-delay profile from the wire-header
//! stamps lands in `results/trace_peers.csv`.
//!
//! `watch <spec>` is the live cluster view: the spec maps node ids to the
//! `--metrics-addr` endpoints, and the command polls `/healthz` +
//! `/metrics` per node, rendering a refreshing table (round, rounds/s,
//! round-latency p50/p99, queue depth, drops, top-suspicion peers) while
//! appending every poll to the CSV sink. `--once` scrapes once and prints
//! one JSON object per node instead — the machine-readable face for tests
//! and scripts. The watch exits on its own when every node that was up has
//! gone down.

use garfield_bench::figures;
use garfield_bench::perf;
use garfield_bench::report::{print_table, write_csv, Row};
use garfield_bench::trace;
use garfield_bench::watch;
use garfield_net::Device;
use std::time::{Duration, Instant};

fn run_one(id: &str) -> Option<(String, Vec<Row>)> {
    let rows = match id {
        "table1" => figures::table1(),
        "fig3a" => figures::fig3a(100_000),
        "fig3b" => figures::fig3b(1_000_000),
        // Fig. 4a (TensorFlow / CPU / asynchronous Bulyan-style) and 4b
        // (PyTorch / GPU / synchronous Multi-Krum) differ in synchrony here;
        // Fig. 11 is the same data plotted against simulated time, which the
        // rows already contain.
        "fig4a" | "fig11a" => figures::fig4(false),
        "fig4b" | "fig11b" => figures::fig4(true),
        "fig5" => figures::fig5(),
        "fig6" | "fig6a" => figures::fig6(Device::Cpu),
        "fig6b" | "fig15" => figures::fig6(Device::Gpu),
        "fig7" => figures::fig7(Device::Cpu),
        "fig16" => figures::fig7(Device::Gpu),
        "fig8" | "fig8a" => figures::fig8(Device::Cpu),
        "fig8b" => figures::fig8(Device::Gpu),
        "fig9" => figures::fig9(),
        "fig10" | "fig10a" | "fig10b" | "fig13" | "fig14" => figures::fig10(Device::Cpu),
        "table2" => figures::table2(),
        "fig12" => figures::fig12(),
        "variance" => figures::variance_report(),
        "dec-scaling" => figures::decentralized_scaling(),
        other => {
            eprintln!("unknown experiment '{other}'");
            return None;
        }
    };
    Some((id.to_string(), rows))
}

/// Runs the `perf` subcommand; returns the process exit code.
fn run_perf(args: &[String]) -> i32 {
    let mut config = perf::PerfConfig::full();
    let mut out_path = String::from("BENCH_aggregation.json");
    let mut check_path: Option<String> = None;
    let mut merge_path: Option<String> = None;
    let mut tolerance = perf::DEFAULT_TOLERANCE;
    let mut threads_override: Option<usize> = None;
    let mut require_baseline = false;
    let mut obs_gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = perf::PerfConfig::quick(),
            "--threads" => match it.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(t) if t >= 1 => threads_override = Some(t),
                _ => {
                    eprintln!("--threads requires an integer ≥ 1");
                    return 2;
                }
            },
            "--require-baseline" => require_baseline = true,
            "--obs-gate" => obs_gate = true,
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out requires a path");
                    return 2;
                }
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("--check requires a baseline path");
                    return 2;
                }
            },
            "--merge-baseline" => match it.next() {
                Some(p) => merge_path = Some(p.clone()),
                None => {
                    eprintln!("--merge-baseline requires a path");
                    return 2;
                }
            },
            "--tolerance" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => {
                    eprintln!("--tolerance requires a fraction in [0, 1)");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown perf flag '{other}'");
                return 2;
            }
        }
    }

    // The effective engine shape, logged and recorded in the report so every
    // entry is self-describing: Engine::with_threads clamps a requested 0 to
    // 1 in exactly one place, so what it reports here is what every sweep
    // cell actually ran with.
    let engine = match threads_override {
        Some(t) => garfield_aggregation::Engine::with_threads(t),
        None => garfield_aggregation::Engine::auto(),
    };
    println!(
        "perf sweep: {} mode, effective engine: {} thread{} ({}), d={:?}, n={:?}",
        if config.quick { "quick" } else { "full" },
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" },
        if threads_override.is_some() {
            "--threads override"
        } else {
            "Engine::auto"
        },
        config.dims,
        config.ns
    );
    let report = perf::run_report_with(&config, &engine);
    print_table(
        "kernels (pairwise distance fill, 1 thread)",
        &perf::kernel_rows(&report.kernels),
    );
    print_table(
        "perf (GAR engine, parallel vs sequential)",
        &perf::as_rows(&report.entries),
    );

    let divergent: Vec<&perf::PerfPoint> = report.entries.iter().filter(|p| !p.identical).collect();
    for p in &divergent {
        eprintln!(
            "ENGINE MISMATCH: {} n={} d={} — parallel output differs from sequential",
            p.gar, p.n, p.d
        );
    }

    let json = perf::report_to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("could not write {out_path}: {e}");
        return 1;
    }
    println!("(written to {out_path})");

    if !divergent.is_empty() {
        return 1;
    }

    // The fan-out sanity gate needs no baseline: parallel vs sequential is
    // measured within this very sweep. Skipped under a --threads override —
    // a pinned thread count can oversubscribe this machine, and losing to
    // sequential then says nothing about the `threads_for` heuristic.
    let fanout = if threads_override.is_some() {
        println!("fan-out gate skipped under --threads override");
        Vec::new()
    } else {
        perf::parallel_regressions(&report, perf::PARALLEL_LOSS_TOLERANCE)
    };
    if !fanout.is_empty() {
        eprintln!(
            "parallel-engine fan-out regression (Engine::auto must stay within {:.0}% of \
             sequential):",
            perf::PARALLEL_LOSS_TOLERANCE * 100.0
        );
        for p in &fanout {
            eprintln!("  {p}");
        }
        return 1;
    }

    if obs_gate {
        let m = perf::obs_overhead(&config);
        println!(
            "obs overhead ({} n={} d={}): disabled {:.3} ms, enabled {:.3} ms — {:+.2}%",
            m.gar,
            m.n,
            m.d,
            m.disabled_secs * 1e3,
            m.enabled_secs * 1e3,
            m.overhead() * 100.0
        );
        if m.overhead() > perf::OBS_OVERHEAD_TOLERANCE {
            eprintln!(
                "obs gate FAILED: enabled observability costs {:.2}% of aggregation \
                 throughput (limit {:.0}%)",
                m.overhead() * 100.0,
                perf::OBS_OVERHEAD_TOLERANCE * 100.0
            );
            return 1;
        }
        println!(
            "obs gate passed: instrumentation overhead within {:.0}%",
            perf::OBS_OVERHEAD_TOLERANCE * 100.0
        );
    }

    let mut code = 0;
    if let Some(baseline_path) = check_path {
        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("could not read baseline {baseline_path}: {e}");
                return 1;
            }
        };
        let baselines = match perf::parse_baselines(&baseline_text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("malformed baseline {baseline_path}: {e}");
                return 1;
            }
        };
        match perf::matching_baseline(&baselines, &report) {
            None => {
                // Refuse to compare across machine shapes: a 1-core baseline
                // says nothing about an 8-core run. Without
                // --require-baseline this is not an error — record a
                // baseline for this shape with --merge-baseline.
                let shapes: Vec<String> = baselines
                    .iter()
                    .map(|b| {
                        format!(
                            "{} thread{}/{}",
                            b.threads,
                            if b.threads == 1 { "" } else { "s" },
                            if b.quick { "quick" } else { "full" }
                        )
                    })
                    .collect();
                let notice = format!(
                    "{baseline_path} has no baseline recorded at {} threads ({} mode); \
                     recorded shapes: [{}]. Refusing to compare across thread counts — \
                     run `expfig perf --quick --merge-baseline {baseline_path}` on this \
                     machine (or `--threads {} --merge-baseline …` elsewhere) and commit \
                     the result to record one.",
                    report.threads,
                    if report.quick { "quick" } else { "full" },
                    shapes.join(", "),
                    report.threads,
                );
                if require_baseline {
                    eprintln!("perf gate UNARMED (--require-baseline): {notice}");
                    code = 1;
                } else {
                    println!("perf gate SKIPPED: {notice}");
                }
            }
            Some(base) => {
                let mut problems = perf::regressions(&report.entries, &base.entries, tolerance);
                problems.extend(perf::kernel_regressions(
                    &report.kernels,
                    &base.kernels,
                    tolerance,
                ));
                if !problems.is_empty() {
                    eprintln!(
                        "perf regression vs {baseline_path} at {} threads (tolerance {:.0}%):",
                        base.threads,
                        tolerance * 100.0
                    );
                    for p in &problems {
                        eprintln!("  {p}");
                    }
                    code = 1;
                } else {
                    println!(
                        "perf gate passed: no GAR or kernel regressed more than {:.0}% vs \
                         {baseline_path} at {} threads",
                        tolerance * 100.0,
                        base.threads
                    );
                }
            }
        }
    }

    if let Some(merge_path) = merge_path {
        let mut baselines = match std::fs::read_to_string(&merge_path) {
            Ok(text) => match perf::parse_baselines(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("malformed baseline {merge_path}: {e}");
                    return 1;
                }
            },
            Err(_) => Vec::new(), // new file
        };
        perf::merge_baseline(&mut baselines, report);
        if let Err(e) = std::fs::write(&merge_path, perf::baselines_to_json(&baselines)) {
            eprintln!("could not write {merge_path}: {e}");
            return 1;
        }
        println!(
            "(baseline for {} recorded into {merge_path})",
            baselines
                .iter()
                .map(|b| format!("{}t", b.threads))
                .collect::<Vec<_>>()
                .join("+")
        );
    }
    code
}

/// Runs the `trace` subcommand: merge a directory of flight dumps into a
/// per-round cross-node timeline. Returns the process exit code.
fn run_trace(args: &[String]) -> i32 {
    let Some(dir) = args.first() else {
        eprintln!("usage: expfig trace <dir with flight-*.jsonl dumps>");
        return 2;
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return 1;
        }
    };
    let mut files: Vec<std::path::PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("no .jsonl flight dumps in {dir} (run nodes with --flight-dir {dir})");
        return 1;
    }
    let mut dumps = Vec::new();
    for path in &files {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| trace::parse_dump(&text));
        match parsed {
            Ok(dump) => {
                println!(
                    "{}: {} events (pid {})",
                    path.display(),
                    dump.events.len(),
                    dump.pid
                );
                dumps.push(dump);
            }
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return 1;
            }
        }
    }
    let merged = trace::merge(&dumps);
    let rows = trace::as_rows(&trace::rounds(&merged));
    print_table(
        &format!("trace ({} dumps, {} events)", dumps.len(), merged.len()),
        &rows,
    );
    if let Err(e) = write_csv("results/trace.csv", &rows) {
        eprintln!("could not write results/trace.csv: {e}");
        return 1;
    }
    println!("(written to results/trace.csv)");

    // The cross-round network view: every sender's one-way delay profile
    // from the wire-header stamps (empty when the dumps predate v2 headers).
    let peer_rows = trace::as_peer_rows(&trace::peer_delays(&merged));
    if !peer_rows.is_empty() {
        print_table("per-peer one-way delay (wire stamps)", &peer_rows);
        if let Err(e) = write_csv("results/trace_peers.csv", &peer_rows) {
            eprintln!("could not write results/trace_peers.csv: {e}");
            return 1;
        }
        println!("(written to results/trace_peers.csv)");
    }
    0
}

/// Runs the `watch` subcommand: poll every node's scrape endpoint and
/// render a refreshing per-node cluster table. Returns the exit code.
fn run_watch(args: &[String]) -> i32 {
    let mut spec_path: Option<&String> = None;
    let mut interval = Duration::from_millis(1_000);
    let mut once = false;
    let mut csv_path = String::from("results/watch.csv");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 100 => interval = Duration::from_millis(ms),
                _ => {
                    eprintln!("--interval-ms requires an integer ≥ 100");
                    return 2;
                }
            },
            "--csv" => match it.next() {
                Some(p) => csv_path = p.clone(),
                None => {
                    eprintln!("--csv requires a path");
                    return 2;
                }
            },
            other if spec_path.is_none() && !other.starts_with('-') => spec_path = Some(arg),
            other => {
                eprintln!("unknown watch flag '{other}'");
                return 2;
            }
        }
    }
    let Some(spec_path) = spec_path else {
        eprintln!(
            "usage: expfig watch <spec: 'node-id metrics-host:port' lines> \
             [--interval-ms N] [--csv PATH] [--once]"
        );
        return 2;
    };
    let spec_text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return 1;
        }
    };
    let timeout = Duration::from_millis(500.min(interval.as_millis() as u64));

    if once {
        // Machine-readable: one JSON object per node on stdout, nothing else.
        return match watch::watch_once(&spec_text, timeout) {
            Ok(lines) => {
                println!("{lines}");
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }

    let targets = match watch::parse_spec(&spec_text) {
        Ok(t) if !t.is_empty() => t,
        Ok(_) => {
            eprintln!("{spec_path} names no node");
            return 2;
        }
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut csv: Option<std::fs::File> = None;
    let mut previous: Option<(Vec<garfield_bench::watch::NodeView>, Instant)> = None;
    let mut seen_up = false;
    for poll_index in 0u64.. {
        let views = watch::poll(&targets, timeout);
        let now = Instant::now();
        let rates: Vec<f64> = views
            .iter()
            .map(|v| {
                let prev = previous.as_ref().and_then(|(vs, at)| {
                    vs.iter()
                        .find(|p| p.node == v.node)
                        .map(|p| (p, at.elapsed().as_secs_f64()))
                });
                match prev {
                    Some((p, elapsed)) => watch::rounds_per_sec(Some(p), v, elapsed),
                    None => 0.0,
                }
            })
            .collect();

        // CSV sink: lazily created so a spec typo never leaves an empty file.
        if csv.is_none() {
            if let Some(parent) = std::path::Path::new(&csv_path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::File::create(&csv_path) {
                Ok(mut file) => {
                    use std::io::Write as _;
                    let _ = writeln!(file, "{}", watch::csv_header());
                    csv = Some(file);
                }
                Err(e) => {
                    eprintln!("could not write {csv_path}: {e}");
                    return 1;
                }
            }
        }
        if let Some(file) = &mut csv {
            use std::io::Write as _;
            for (v, rate) in views.iter().zip(&rates) {
                let _ = writeln!(file, "{}", watch::csv_line(poll_index, v, *rate));
            }
        }

        // Refresh the screen in place: clear, home, redraw.
        print!("\x1b[2J\x1b[H");
        println!(
            "garfield watch — {} nodes, every {} ms (Ctrl-C to stop, CSV → {csv_path})\n",
            targets.len(),
            interval.as_millis()
        );
        print!("{}", watch::render_table(&views, &rates));
        let _ = std::io::Write::flush(&mut std::io::stdout());

        // The watch outlives any one node, but not the cluster: once every
        // node that was up has gone down, the run is over.
        let any_up = views.iter().any(|v| v.up);
        seen_up |= any_up;
        if seen_up && !any_up {
            println!("\nevery node is down — run over, exiting");
            return 0;
        }
        previous = Some((views, now));
        std::thread::sleep(interval);
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: expfig <experiment id ...> | all | perf [flags] | trace <dir> | watch <spec> [flags]   (see --help in the doc comment)");
        std::process::exit(2);
    }
    if args[0] == "perf" {
        std::process::exit(run_perf(&args[1..]));
    }
    if args[0] == "trace" {
        std::process::exit(run_trace(&args[1..]));
    }
    if args[0] == "watch" {
        std::process::exit(run_watch(&args[1..]));
    }
    let quick_all = [
        "table1",
        "fig3a",
        "fig3b",
        "fig4a",
        "fig4b",
        "fig5",
        "fig6",
        "fig6b",
        "fig7",
        "fig8",
        "fig8b",
        "fig9",
        "fig10",
        "fig12",
        "fig16",
        "table2",
        "variance",
        "dec-scaling",
    ];
    let ids: Vec<String> = if args.len() == 1 && args[0] == "all" {
        quick_all.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let mut failures = 0;
    for id in ids {
        match run_one(&id) {
            Some((name, rows)) => {
                print_table(&name, &rows);
                let path = format!("results/{name}.csv");
                if let Err(e) = write_csv(&path, &rows) {
                    eprintln!("could not write {path}: {e}");
                } else {
                    println!("(written to {path})");
                }
            }
            None => failures += 1,
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
