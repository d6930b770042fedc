//! Crash-recovery integration tests: real `garfield-node` processes are
//! SIGKILLed mid-training and *come back*.
//!
//! These pin the recovery subsystem's two system-level claims:
//!
//! * a worker killed mid-run and respawned rejoins the cluster and keeps
//!   contributing — at **full quorum**, so every one of the remaining rounds
//!   provably includes the rejoined worker, and the final model is
//!   **bit-identical** to an uninterrupted same-seed in-process run;
//! * a server killed mid-run and respawned with `--resume` picks its state
//!   back up from the on-disk checkpoint (model, optimizer, round) and the
//!   resumed run's final model is **bit-identical** to an uninterrupted
//!   same-seed run.

use garfield_bench::watch::{http_get, parse_exposition};
use garfield_core::{json, Checkpoint, ExperimentConfig, SystemKind};
use garfield_runtime::LiveExecutor;
use garfield_transport::ClusterSpec;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Child;
use std::time::Duration;

#[path = "support/cluster.rs"]
mod cluster;
use cluster::{announced_metrics_addr, dump_logs, final_model_bits, scratch_dir};

/// The shared experiment: SSMW over Multi-Krum, tiny model, with momentum so
/// the optimizer velocity is real state the checkpoint must carry.
fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 5;
    cfg.fw = 1; // Multi-Krum needs 2f + 3 = 5 inputs
    cfg.nps = 1;
    cfg.fps = 0;
    cfg.momentum = 0.5;
    cfg.iterations = 12;
    cfg.eval_every = 4;
    cfg
}

/// Starts one SSMW node with generous deadlines: CI machines stall under
/// load, and the claims are about recovery, not speed. The retry interval
/// is what bounds how long a round waits on the killed node.
fn spawn_node(dir: &Path, role: &str, rank: usize, extra: &[&str]) -> Child {
    let deadlines = [
        "--round-deadline-ms",
        "60000",
        "--idle-timeout-ms",
        "120000",
        "--retry-ms",
        "300",
    ];
    cluster::spawn_node(dir, role, rank, "ssmw", &[&deadlines[..], extra].concat())
}

/// Milliseconds of straggler delay injected into worker 0: paces every
/// full-quorum round so the kill below provably lands *mid*-training (a
/// tiny-model round otherwise completes in microseconds and the whole run
/// can finish between two polls). Delay changes round *timing* only, never
/// reply contents, so bit-identity against the undelayed in-process
/// reference run still holds.
const PACE_MS: u64 = 150;

/// Polls `done` every 20 ms until it yields a value; the deadline only
/// bounds a failure.
fn poll_until<T>(what: &str, done: impl FnMut() -> Option<T>) -> T {
    cluster::poll_until(
        what,
        Duration::from_secs(120),
        Duration::from_millis(20),
        done,
    )
}

/// Polls the checkpoint directory until the server has completed at least
/// `round` rounds (the cadence is every iteration), so a kill lands
/// provably *mid*-training.
fn wait_for_checkpoint_round(dir: &Path, round: u64) -> Checkpoint {
    poll_until(&format!("checkpoint round {round}"), || {
        Checkpoint::load_if_present(dir)
            .ok()
            .flatten()
            .filter(|cp| cp.round >= round)
    })
}

/// Polls the scrape endpoint the server announced in its log
/// (`--metrics-addr 127.0.0.1:0`) until it has re-asked a silent peer.
fn wait_for_a_pull_retry(log: &Path) {
    let addr: SocketAddr = poll_until("the metrics announcement", || {
        announced_metrics_addr(log)?.parse().ok()
    });
    poll_until("a pull retry", || {
        let body = http_get(addr, "/metrics", Duration::from_secs(5)).ok()?;
        let retries: f64 = parse_exposition(&body)
            .iter()
            .filter(|s| s.name == "garfield_pull_retries_total")
            .map(|s| s.value)
            .sum();
        (retries >= 1.0).then_some(())
    })
}

/// The final model of the uninterrupted same-seed in-process run, as exact
/// bit patterns.
fn uninterrupted_bits(cfg: &ExperimentConfig) -> Vec<u32> {
    let report = LiveExecutor::new(cfg.clone())
        .run_live(SystemKind::Ssmw)
        .expect("in-process reference run");
    report.final_models[0]
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn result_doc(dir: &Path) -> json::Value {
    let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
    json::parse(&result).unwrap()
}

fn field(doc: &json::Value, key: &str) -> usize {
    doc.get(key)
        .and_then(json::Value::as_usize)
        .unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn sigkilled_worker_respawns_rejoins_and_the_run_stays_bit_identical() {
    let cfg = config();
    let dir = scratch_dir("kill-respawn-worker");
    ClusterSpec::localhost(1 + cfg.nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let pace = PACE_MS.to_string();
    let mut workers: Vec<Child> = (0..cfg.nw)
        .map(|j| {
            let extra: &[&str] = if j == 0 { &["--delay-ms", &pace] } else { &[] };
            spawn_node(&dir, "worker", j, extra)
        })
        .collect();
    // The server checkpoints every round — both the recovery feature under
    // test on the server side and this test's "training is mid-flight now"
    // signal for timing the kill. Its scrape endpoint tells when it re-asks.
    let mut server = spawn_node(
        &dir,
        "server",
        0,
        &[
            "--checkpoint",
            "ckpt",
            "--out",
            "result.json",
            "--metrics-addr",
            "127.0.0.1:0",
        ],
    );

    // Kill the last worker once training is provably mid-run, hold it down
    // until the server has re-asked a silent peer (the full-quorum run
    // cannot end without the victim), then respawn it — the
    // respawn-after-SIGKILL flow, same command line.
    wait_for_checkpoint_round(&dir.join("ckpt"), 4);
    let victim = &mut workers[cfg.nw - 1];
    victim.kill().expect("kill worker");
    victim.wait().expect("reap killed worker");
    wait_for_a_pull_retry(&dir.join("server0.log"));
    workers[cfg.nw - 1] = spawn_node(&dir, "worker", cfg.nw - 1, &["--resume", "ckpt"]);

    let status = server.wait().expect("server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("server failed after the worker kill+respawn: {status}");
    }
    for (rank, worker) in workers.iter_mut().enumerate() {
        let status = worker.wait().expect("worker exits");
        assert!(
            status.success(),
            "worker {rank} (respawned: {}) failed: {status}",
            rank == cfg.nw - 1
        );
    }

    let doc = result_doc(&dir);
    // Every iteration completed at FULL quorum (q = nw for SSMW): each of
    // the remaining rounds therefore contains the rejoined worker's reply —
    // that is what "contributing again" means at q = n.
    assert_eq!(field(&doc, "iterations"), cfg.iterations);
    assert_eq!(field(&doc, "resumed_from"), 0, "the server never resumed");
    assert!(
        field(&doc, "requests_retried") > 0,
        "the server must have re-asked the dead worker"
    );
    // And the rejoined replies are the *same bits* an uninterrupted worker
    // would have sent: the final model matches the in-process run exactly.
    assert_eq!(
        final_model_bits(&doc),
        uninterrupted_bits(&cfg),
        "kill+respawn must not change a single bit of the final model"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_server_resumes_from_checkpoint_bit_identically() {
    let cfg = config();
    let dir = scratch_dir("kill-resume-server");
    ClusterSpec::localhost(1 + cfg.nw)
        .unwrap()
        .save(dir.join("cluster.txt"))
        .unwrap();
    std::fs::write(dir.join("config.json"), cfg.to_json()).unwrap();

    let pace = PACE_MS.to_string();
    let mut workers: Vec<Child> = (0..cfg.nw)
        .map(|j| {
            let extra: &[&str] = if j == 0 { &["--delay-ms", &pace] } else { &[] };
            spawn_node(&dir, "worker", j, extra)
        })
        .collect();
    // `--resume` on the very first launch exercises the fresh-start path:
    // the respawn below uses the *identical* command line.
    let server_args = [
        "--checkpoint",
        "ckpt",
        "--resume",
        "ckpt",
        "--out",
        "result.json",
    ];
    let mut server = spawn_node(&dir, "server", 0, &server_args);

    // SIGKILL the server mid-run — no flush, no goodbye; the atomic
    // write-rename is what guarantees the checkpoint on disk is intact.
    let cp = wait_for_checkpoint_round(&dir.join("ckpt"), 3);
    assert!(cp.round < cfg.iterations as u64, "killed too late");
    server.kill().expect("kill server");
    server.wait().expect("reap killed server");
    let mut server = spawn_node(&dir, "server", 0, &server_args);

    let status = server.wait().expect("resumed server exits");
    if !status.success() {
        dump_logs(&dir);
        panic!("resumed server failed: {status}");
    }
    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "worker failed: {status}");
    }

    let doc = result_doc(&dir);
    let resumed_from = field(&doc, "resumed_from");
    assert!(
        resumed_from >= 3,
        "the respawned server must resume from the checkpoint, got round {resumed_from}"
    );
    assert!(resumed_from < cfg.iterations, "nothing left to resume");
    // The resumed segment runs the remaining iterations...
    assert_eq!(field(&doc, "iterations"), cfg.iterations - resumed_from);
    assert!(field(&doc, "checkpoints_written") > 0);
    // ...and lands on the exact bits of the uninterrupted run: model,
    // optimizer step count and momentum velocity all survived the kill.
    assert_eq!(
        final_model_bits(&doc),
        uninterrupted_bits(&cfg),
        "kill+--resume must reproduce the uninterrupted final model bit for bit"
    );

    // A supervisor blindly restarting after the run completed: the
    // checkpoint is at round == iterations, so the server must exit cleanly
    // *without* clobbering the recorded result with an empty trace.
    let before = std::fs::read_to_string(dir.join("result.json")).unwrap();
    let status = spawn_node(&dir, "server", 0, &server_args)
        .wait()
        .expect("no-op restart exits");
    assert!(status.success(), "restart after completion must exit 0");
    assert_eq!(
        std::fs::read_to_string(dir.join("result.json")).unwrap(),
        before,
        "restart after completion must not rewrite --out"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
