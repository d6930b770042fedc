//! `expfig` — regenerate the tables and figures of the Garfield paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p garfield-bench --bin expfig -- <experiment> [...]
//! cargo run --release -p garfield-bench --bin expfig -- all
//! cargo run --release -p garfield-bench --bin expfig -- perf [--quick] [--out BENCH_aggregation.json]
//! cargo run --release -p garfield-bench --bin expfig -- trace <flight-dir>
//! cargo run --release -p garfield-bench --bin expfig -- watch <spec> \
//!     [--interval-ms 1000] [--csv results/watch.csv] [--once]
//! ```
//!
//! Recognised experiment ids: `table1`, `fig3a`, `fig3b`, `fig4a` (alias
//! `fig11a`), `fig4b` (`fig11b`), `fig5`, `fig6` (`fig6a`), `fig7`, `fig8`
//! (`fig8a`), `fig9`, `fig10` (`fig10a`, `fig10b`, `fig13`, `fig14`),
//! `fig12`, `table2`, `variance`, `dec-scaling`. Each prints its rows and
//! writes `results/<id>.csv`. The paper's GPU figures (6b/15, 8b, 16) have
//! no id: no GPU was ever measured here.
//!
//! `perf` is the GAR-engine micro-benchmark: it times the distance kernels
//! (scalar / chunked / blocked), sweeps every GAR over d × n on the
//! sequential and parallel engines, and writes `BENCH_aggregation.json`
//! stamped with `Engine::auto`'s thread count. `--quick` runs the CI sweep,
//! `--out` names the report file. Timings are printed and recorded, never
//! gated: the command exits 1 only when some cell's engines produced
//! outputs that are not bit-identical.
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
use garfield_transport::ClusterSpec;
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
        "fig6" | "fig6a" => figures::fig6(),
        "fig7" => figures::fig7(),
        "fig8" | "fig8a" => figures::fig8(),
        "fig9" => figures::fig9(),
        "fig10" | "fig10a" | "fig10b" | "fig13" | "fig14" => figures::fig10(),
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

/// Runs the `perf` subcommand; returns the process exit code: 1 when any
/// cell's engines diverged or the report could not be written, 2 on a bad
/// flag.
fn run_perf(args: &[String]) -> i32 {
    let mut config = perf::PerfConfig::full();
    let mut out_path = String::from("BENCH_aggregation.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = perf::PerfConfig::quick(),
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out requires a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown perf flag '{other}'");
                return 2;
            }
        }
    }

    let threads = garfield_aggregation::Engine::auto().threads();
    println!(
        "perf sweep: {} mode, Engine::auto: {threads} thread{}, d={:?}, n={:?}",
        if config.quick { "quick" } else { "full" },
        if threads == 1 { "" } else { "s" },
        config.dims,
        config.ns
    );
    let report = perf::run_report(&config);
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

    if let Err(e) = std::fs::write(&out_path, perf::report_to_json(&report)) {
        eprintln!("could not write {out_path}: {e}");
        return 1;
    }
    println!("(written to {out_path})");
    if divergent.is_empty() {
        0
    } else {
        1
    }
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

    let spec = match ClusterSpec::parse(&spec_text) {
        Ok(spec) if !spec.is_empty() => spec,
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
        let views = watch::poll(&spec, timeout);
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
            spec.len(),
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
        eprintln!("usage: expfig <experiment id ...> | all | perf [--quick] [--out PATH] | trace <dir> | watch <spec> [flags]   (see the doc comment)");
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
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig12",
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
