//! Multi-process integration tests: real `garfield-node` child processes
//! training over TCP on localhost.
//!
//! These are the system-level claims of the transport layer:
//!
//! * a full-quorum, fault-free run across ≥ 5 OS processes converges and
//!   produces a final model **bit-identical** to the in-process
//!   [`LiveExecutor`] run of the same seed;
//! * with `q = n − f`, the deployment survives `f` workers being *killed*
//!   (`SIGKILL`, not a polite crash message) mid-run;
//! * decentralized learning, one replica and one worker process per node,
//!   ends in the in-process run's model bit for bit;
//! * an argument that is no known flag is a usage error, not a default.

use garfield_aggregation::GarKind;
use garfield_core::{json, ExperimentConfig, SystemKind};
use garfield_runtime::{FaultPlan, LiveExecutor, LiveOptions};
use garfield_transport::ClusterSpec;
use std::path::Path;
use std::process::{Child, Command, Stdio};

#[path = "support/cluster.rs"]
mod cluster;
use cluster::{dump_logs, final_model_bits, scratch_dir, NODE_BIN};

/// The shared experiment: SSMW over Multi-Krum, tiny model, short run.
fn config(nw: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = nw;
    cfg.fw = 1; // Multi-Krum needs 2f + 3 = 5 inputs
    cfg.nps = 1;
    cfg.fps = 0;
    cfg.iterations = 10;
    cfg.eval_every = 5;
    cfg
}

/// Starts one node with generous deadlines: CI machines stall under load,
/// and the correctness claims are about quorums, not about speed.
fn spawn_node(dir: &Path, role: &str, rank: usize, system: &str, extra: &[&str]) -> Child {
    let deadlines = ["--round-deadline-ms", "20000", "--idle-timeout-ms", "30000"];
    cluster::spawn_node(dir, role, rank, system, &[&deadlines[..], extra].concat())
}

#[test]
fn five_process_full_quorum_run_matches_in_process_executor_bit_for_bit() {
    let cfg = config(5); // 1 server + 5 workers = 6 garfield-node processes
    let dir = scratch_dir("full-quorum");
    ClusterSpec::localhost(1 + cfg.nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let mut workers: Vec<Child> = (0..cfg.nw)
        .map(|j| spawn_node(&dir, "worker", j, "ssmw", &[]))
        .collect();
    let mut server = spawn_node(&dir, "server", 0, "ssmw", &["--out", "result.json"]);

    let status = server.wait().expect("server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("server process failed: {status}");
    }
    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker failed: {status}");
    }

    // Parse the multi-process result: exact f32 bit patterns.
    let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
    let doc = json::parse(&result).unwrap();
    assert_eq!(
        doc.get("iterations").and_then(json::Value::as_usize),
        Some(cfg.iterations)
    );
    let tcp_bits = final_model_bits(&doc);
    let tcp_accuracy = doc
        .get("final_accuracy")
        .and_then(json::Value::as_f64)
        .expect("final_accuracy") as f32;

    // Same seed, in-process substrate: must agree bit for bit.
    let report = LiveExecutor::new(cfg)
        .run_live(SystemKind::Ssmw)
        .expect("in-process run");
    let live_bits: Vec<u32> = report.final_models[0]
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        tcp_bits.len(),
        live_bits.len(),
        "model dimensions must agree"
    );
    assert_eq!(
        tcp_bits, live_bits,
        "full-quorum same-seed TCP and in-process runs must produce bit-identical models"
    );
    assert_eq!(
        tcp_accuracy.to_bits(),
        report.trace.final_accuracy().to_bits()
    );
    assert!(
        tcp_accuracy > 0.5,
        "the shared model must have learned something (accuracy {tcp_accuracy})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decentralized_processes_match_the_in_process_executor_bit_for_bit() {
    // nw = 4 peers, fw = 1: 4 replica and 4 worker processes. Median on the
    // gradient path (Multi-Krum would need 2f + 3 = 5 inputs).
    let mut cfg = config(4);
    cfg.gradient_gar = GarKind::Median;
    let nw = cfg.nw;
    let dir = scratch_dir("decentralized");
    ClusterSpec::localhost(2 * nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let system = "decentralized";
    let mut workers: Vec<Child> = (0..nw)
        .map(|j| spawn_node(&dir, "worker", j, system, &[]))
        .collect();
    let mut servers: Vec<Child> = (0..nw)
        .map(|i| match i {
            0 => spawn_node(&dir, "server", 0, system, &["--out", "result.json"]),
            _ => spawn_node(&dir, "server", i, system, &[]),
        })
        .collect();
    for (i, server) in servers.iter_mut().enumerate() {
        let status = server.wait().expect("server exits");
        if !status.success() {
            dump_logs(&dir);
            panic!("server {i} failed: {status}");
        }
    }
    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker failed: {status}");
    }

    let report = LiveExecutor::new(cfg)
        .run_live(SystemKind::Decentralized)
        .expect("in-process run");
    assert_eq!(report.final_models.len(), nw);
    let live_bits: Vec<u32> = report.final_models[0]
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
    assert_eq!(
        final_model_bits(&json::parse(&result).unwrap()),
        live_bits,
        "replica 0 over TCP must end where the in-process replica 0 does"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_run_survives_f_killed_workers_at_q_equals_n_minus_f() {
    // n = 6 workers, f = 1: q = 5 keeps Multi-Krum satisfied (2f + 3 = 5)
    // while tolerating one dead worker. 8 processes total.
    let cfg = config(6);
    let n = cfg.nw;
    let f = 1usize;
    let dir = scratch_dir("kill-worker");
    ClusterSpec::localhost(1 + n)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let quorum = (n - f).to_string();
    let mut workers: Vec<Child> = (0..n)
        .map(|j| spawn_node(&dir, "worker", j, "ssmw", &["--gradient-quorum", &quorum]))
        .collect();

    // SIGKILL `f` workers once they are up — no crash message, no socket
    // shutdown handshake — *before* the server starts: every single round
    // must then ride out the dead peers through the q = n − f quorum (a
    // later kill could race training to completion and prove nothing).
    std::thread::sleep(std::time::Duration::from_millis(200));
    let victim = workers.last_mut().expect("f workers to kill");
    victim.kill().expect("kill worker");
    victim.wait().expect("reap killed worker");

    let mut server = spawn_node(
        &dir,
        "server",
        0,
        "ssmw",
        &["--gradient-quorum", &quorum, "--out", "result.json"],
    );

    let status = server.wait().expect("server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("server did not survive {f} killed worker(s) at q = n - f: {status}");
    }
    for worker in workers.iter_mut().take(n - f) {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "surviving worker failed: {status}");
    }

    let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
    let doc = json::parse(&result).unwrap();
    assert_eq!(
        doc.get("iterations").and_then(json::Value::as_usize),
        Some(cfg.iterations),
        "every iteration must complete despite the killed worker"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_tcp_run_with_a_killed_worker_matches_the_unsharded_in_process_run() {
    // The sharded acceptance case, over real sockets: 2 shard servers + 6
    // workers (8 OS processes), q = n − f, one worker SIGKILLed before the
    // servers start. Each shard server writes its *slice* to its own --out
    // file; stitching the slices in rank order must reproduce the unsharded
    // in-process run of the same seed bit for bit.
    let shards = 2usize;
    let mut cfg = config(6);
    // Median decomposes per coordinate — the sharded contract's requirement.
    cfg.gradient_gar = GarKind::Median;
    let (n, f) = (cfg.nw, 1usize);
    let dir = scratch_dir("sharded-kill");
    ClusterSpec::localhost(shards + n)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    // The processes deploy the sharded config; the in-process reference
    // below runs `cfg` itself, unsharded.
    let sharded = ExperimentConfig {
        shards,
        ..cfg.clone()
    };
    std::fs::write(dir.join("config.json"), sharded.to_json()).unwrap();

    let quorum = (n - f).to_string();
    let common = ["--gradient-quorum", &quorum];
    let mut workers: Vec<Child> = (0..n)
        .map(|j| spawn_node(&dir, "worker", j, "ssmw", &common))
        .collect();

    // SIGKILL the last worker before any server starts: every round on every
    // shard must then ride out the dead peer through the q = n − f quorum.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let victim = workers.last_mut().expect("a worker to kill");
    victim.kill().expect("kill worker");
    victim.wait().expect("reap killed worker");

    let mut servers: Vec<Child> = (0..shards)
        .map(|rank| {
            let out = format!("result{rank}.json");
            let mut extra = common.to_vec();
            extra.extend_from_slice(&["--out", &out]);
            spawn_node(&dir, "server", rank, "ssmw", &extra)
        })
        .collect();

    for (rank, server) in servers.iter_mut().enumerate() {
        let status = server.wait().expect("shard server exits");
        if !status.success() {
            dump_logs(&dir);
            panic!("shard server {rank} failed at q = n - f: {status}");
        }
    }
    for worker in workers.iter_mut().take(n - f) {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "surviving worker failed: {status}");
    }

    // Stitch the per-shard slices in rank order: servers own contiguous
    // coordinate ranges in rank order, so concatenation is reassembly.
    let mut tcp_bits: Vec<u32> = Vec::new();
    for rank in 0..shards {
        let result = std::fs::read_to_string(dir.join(format!("result{rank}.json"))).unwrap();
        let doc = json::parse(&result).unwrap();
        assert_eq!(
            doc.get("iterations").and_then(json::Value::as_usize),
            Some(cfg.iterations),
            "shard {rank} must complete every iteration despite the killed worker"
        );
        tcp_bits.extend(final_model_bits(&doc));
    }

    // Same seed, unsharded, in-process, with the same worker dead from
    // round 0: the flagship bit-identity contract, across substrates.
    let report = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            gradient_quorum: Some(n - f),
            ..LiveOptions::default()
        })
        .with_faults(FaultPlan::new().crash_worker_at(n - 1, 0))
        .run_live(SystemKind::Ssmw)
        .expect("in-process run");
    let live_bits: Vec<u32> = report.final_models[0]
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(tcp_bits.len(), live_bits.len(), "stitched dimension");
    assert_eq!(
        tcp_bits, live_bits,
        "stitched sharded TCP model must equal the unsharded in-process model bit for bit"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_flag_is_a_usage_error_before_the_config_is_read() {
    // A misspelt `--checkpoint` must not run without checkpoints, nor a
    // trailing flag run with its default: both are bad usage (exit 2),
    // caught before the (missing) config is read, which would exit 1.
    for (extra, message) in [
        (
            &["--checkpont", "/no/such/dir"][..],
            "unknown flag --checkpont",
        ),
        (&["--out"][..], "flag --out requires a value"),
    ] {
        let output = Command::new(NODE_BIN)
            .args([
                "--role",
                "server",
                "--rank",
                "0",
                "--cluster",
                "no-such-cluster.txt",
                "--config",
                "no-such-config.json",
                "--system",
                "ssmw",
            ])
            .args(extra)
            .stdin(Stdio::null())
            .output()
            .expect("run garfield-node");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
    }
}
