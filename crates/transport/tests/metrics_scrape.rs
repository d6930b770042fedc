//! Live-scrape smoke test: a real multi-process run serves `/metrics` while
//! it trains.
//!
//! One `garfield-node` server is started with `--metrics-addr 127.0.0.1:0`
//! and `--flight-dir`; the test discovers the bound port from the node's
//! stderr announcement, scrapes the endpoint *mid-training* (polling until
//! at least one round has completed while the process is still alive), and
//! asserts the metric families an operator dashboards on are present and
//! non-empty. After the run it checks every node left a flight dump behind.
//!
//! The second test runs the cluster with an *injected Byzantine worker* and
//! asserts the forensic families (`garfield_peer_suspicion`,
//! `garfield_gar_excluded_total`) carry live samples, drives the
//! `expfig watch --once` machine-readable pass against the same endpoint,
//! and checks the `--out` JSON records the bound metrics address.

use garfield_attacks::AttackKind;
use garfield_core::ExperimentConfig;
use garfield_transport::ClusterSpec;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

#[path = "support/cluster.rs"]
mod cluster;
use cluster::{announced_metrics_addr, dump_logs, poll_until, scratch_dir};

/// Per-request delay of the one paced worker (see [`spawn_workers`]).
const PACE_MS: u64 = 30;

/// SSMW over Multi-Krum, tiny model, full quorum: with one worker paced at
/// [`PACE_MS`] per request the run cannot finish in under
/// `iterations × PACE_MS` = 6 s, however fast the machine is — the window in
/// which the tests dial in, scrape and run the watcher.
fn config(nw: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = nw;
    cfg.fw = 1; // Multi-Krum needs 2f + 3 = 5 inputs
    cfg.nps = 1;
    cfg.fps = 0;
    cfg.iterations = 200;
    cfg.eval_every = 200;
    cfg
}

/// Starts one node that keeps a flight dump in `flight/`.
fn spawn_node(dir: &Path, role: &str, rank: usize, system: &str, extra: &[&str]) -> Child {
    let flags = [
        "--round-deadline-ms",
        "20000",
        "--idle-timeout-ms",
        "30000",
        "--flight-dir",
        "flight",
    ];
    cluster::spawn_node(dir, role, rank, system, &[&flags[..], extra].concat())
}

/// Starts every worker; rank 0 (always honest — the deployment marks the
/// *last* workers Byzantine) is a straggler via `--delay-ms`. The servers wait
/// for all `nw` gradients each round, so this one flag gives the run a
/// guaranteed *lower bound* on its duration: a mid-training scrape no longer
/// races a run that can finish first.
fn spawn_workers(dir: &Path, nw: usize, system: &str) -> Vec<Child> {
    let pace = PACE_MS.to_string();
    (0..nw)
        .map(|j| {
            let extra: &[&str] = if j == 0 { &["--delay-ms", &pace] } else { &[] };
            spawn_node(dir, "worker", j, system, extra)
        })
        .collect()
}

/// Waits for the server's stderr announcement (`garfield-node: metrics on
/// http://ADDR/metrics`) and returns `ADDR`.
fn discover_metrics_addr(log: &Path, deadline: Duration) -> String {
    poll_until(
        "the metrics announcement",
        deadline,
        Duration::from_millis(10),
        || announced_metrics_addr(log),
    )
}

/// One HTTP/1.1 GET against the node's scrape endpoint.
fn scrape(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// True when the exposition has at least one *sample* line (not a comment)
/// for `family` — presence of the `# HELP` header alone is not enough.
fn has_sample(exposition: &str, family: &str) -> bool {
    exposition
        .lines()
        .any(|l| l.starts_with(family) && l.contains(' '))
}

/// The first sample value of `family` (any label set), if present.
fn sample_value(exposition: &str, family: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .next()
}

#[test]
fn live_run_serves_metrics_mid_training_and_dumps_flight_records() {
    let cfg = config(5);
    let dir = scratch_dir("metrics-scrape");
    std::fs::create_dir_all(dir.join("flight")).unwrap();
    ClusterSpec::localhost(1 + cfg.nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let mut workers = spawn_workers(&dir, cfg.nw, "ssmw");
    let mut server = spawn_node(
        &dir,
        "server",
        0,
        "ssmw",
        &["--metrics-addr", "127.0.0.1:0", "--out", "result.json"],
    );

    // Port 0 means the OS picked: read the bound address off the node's own
    // announcement, exactly as an operator (or service discovery) would.
    let addr = discover_metrics_addr(&dir.join("server0.log"), Duration::from_secs(20));

    // Poll until the run is demonstrably *mid-training*: the scrape
    // succeeds, at least one round has finished, and the server process is
    // still alive at that moment.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut mid_training = None;
    while Instant::now() < deadline {
        let Ok(response) = scrape(&addr, "/metrics") else {
            break; // server exited and took the endpoint with it
        };
        if sample_value(&response, "garfield_rounds_total").is_some_and(|v| v >= 1.0)
            && server.try_wait().expect("poll server").is_none()
        {
            mid_training = Some(response);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let Some(exposition) = mid_training else {
        dump_logs(&dir);
        panic!("never captured a mid-training scrape");
    };

    // The exposition is a real HTTP response carrying Prometheus text.
    assert!(
        exposition.starts_with("HTTP/1.1 200"),
        "bad status line: {}",
        exposition.lines().next().unwrap_or("")
    );
    assert!(exposition.contains("text/plain; version=0.0.4"));

    // The families the issue calls out, each with a live sample: round
    // spans, per-peer queue depth, kernel throughput.
    for family in [
        "garfield_round_seconds_count",
        "garfield_phase_seconds_bucket",
        "garfield_outbound_queue_depth",
        "garfield_kernel_gelem_s",
        "garfield_rounds_total",
    ] {
        assert!(
            has_sample(&exposition, family),
            "family {family} missing or empty in mid-training scrape:\n{exposition}"
        );
    }
    // Round spans must be live, not just registered.
    assert!(sample_value(&exposition, "garfield_round_seconds_count").unwrap() >= 1.0);

    // The flight-recorder dump is also served over HTTP while training.
    let flight = scrape(&addr, "/flight").expect("GET /flight");
    assert!(flight.contains("garfield-obs/flight-v1"), "{flight}");

    let status = server.wait().expect("server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("server failed: {status}");
    }
    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker failed: {status}");
    }

    // Every node flushed a flight dump on exit; the server's contains the
    // round markers `expfig trace` reconstructs timelines from.
    for rank in 0..cfg.nw {
        let dump = dir.join(format!("flight/flight-worker{rank}.jsonl"));
        assert!(dump.exists(), "missing {}", dump.display());
    }
    let server_dump =
        std::fs::read_to_string(dir.join("flight/flight-server0.jsonl")).expect("server dump");
    assert!(server_dump.contains("garfield-obs/flight-v1"));
    assert!(
        server_dump.contains("\"kind\":\"round_start\""),
        "no round_start events"
    );
    assert!(
        server_dump.contains("\"kind\":\"round_end\""),
        "no round_end events"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_attacked_run_exports_suspicion_and_the_watcher_sees_it() {
    let mut cfg = config(5);
    // The deployment marks the *last* `actual_byzantine_workers` workers
    // Byzantine, so worker rank 4 — node 5 in the servers-first layout —
    // runs the config-level reversed-gradient attack: the forensic signal
    // the suspicion ledger must turn into live metrics.
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(AttackKind::Reversed);
    let attacked_node = cfg.nps + cfg.nw - 1; // last worker id, servers first
    let dir = scratch_dir("suspicion-scrape");
    std::fs::create_dir_all(dir.join("flight")).unwrap();
    ClusterSpec::localhost(1 + cfg.nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let mut workers = spawn_workers(&dir, cfg.nw, "ssmw");
    let mut server = spawn_node(
        &dir,
        "server",
        0,
        "ssmw",
        &["--metrics-addr", "127.0.0.1:0", "--out", "result.json"],
    );
    let addr = discover_metrics_addr(&dir.join("server0.log"), Duration::from_secs(20));

    // Poll until the attacked peer's exclusion counter has moved
    // mid-training: the fact asserted below, not merely any forensic sample.
    let attacked_exclusions = format!("garfield_gar_excluded_total{{peer=\"{attacked_node}\"}}");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut forensic = None;
    while Instant::now() < deadline {
        let Ok(response) = scrape(&addr, "/metrics") else {
            break;
        };
        if sample_value(&response, &attacked_exclusions).is_some_and(|v| v >= 1.0)
            && server.try_wait().expect("poll server").is_none()
        {
            forensic = Some(response);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Multi-Krum refuses the attacked node's reversed gradient every
    // round, so its exclusion counter moves mid-training.
    let Some(exposition) = forensic else {
        dump_logs(&dir);
        panic!("attacked peer {attacked_node} had no exclusions mid-training");
    };
    assert!(
        has_sample(&exposition, "garfield_peer_suspicion"),
        "suspicion gauges missing:\n{exposition}"
    );
    assert!(
        has_sample(&exposition, "garfield_gar_excluded_total"),
        "exclusion counters missing:\n{exposition}"
    );

    // `expfig watch --once` over the same endpoint: the machine-readable
    // pass sees a live node and its suspicion ranking.
    let spec_text = format!("0 {addr}\n");
    let once = garfield_bench::watch::watch_once(&spec_text, Duration::from_secs(5))
        .expect("watch --once pass");
    assert!(once.starts_with("{\"node\":0,"), "{once}");
    let doc = garfield_core::json::parse(&once).expect("watch JSON parses");
    assert_eq!(
        doc.get("up").and_then(garfield_core::json::Value::as_bool),
        Some(true),
        "{once}"
    );
    // Suspects are sorted by descending score: the attacked node must hold
    // the top rank — the reversed gradient dominates every honest z-score
    // from the first scored round.
    assert!(
        once.contains(&format!("\"suspects\":[{{\"peer\":{attacked_node},")),
        "attacked peer {attacked_node} not the top suspect: {once}"
    );

    let status = server.wait().expect("server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("server failed: {status}");
    }
    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker failed: {status}");
    }

    // The --out JSON records the bound endpoint — launchers never parse
    // stderr for it.
    let out = std::fs::read_to_string(dir.join("result.json")).expect("result.json");
    assert!(
        out.contains(&format!("\"metrics_addr\":\"{addr}\"")),
        "metrics_addr missing from --out JSON: {}",
        &out[..out.len().min(300)]
    );

    let _ = std::fs::remove_dir_all(&dir);
}
