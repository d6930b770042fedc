//! The `garfield-node` cluster harness the multi-process tests share: one
//! scratch directory per test, node spawning, log dumps, polling, and the two
//! things a node writes that the tests read back — its `/metrics`
//! announcement and the final model of its `--out` document.
//!
//! Include it in a test crate with
//! `#[path = "support/cluster.rs"] mod cluster;`. Each crate uses only part
//! of it, so unused helpers are no warning.

#![allow(dead_code)]

use garfield_core::json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The node binary Cargo built for this test crate.
pub const NODE_BIN: &str = env!("CARGO_BIN_EXE_garfield-node");

/// A fresh scratch directory for one test's spec, config and result files.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garfield-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Starts one node in `dir`, which holds the `cluster.txt` spec and the
/// `config.json` experiment, with its stderr in `<role><rank>.log`. `flags`
/// follow the node's identity flags (role, rank, spec, config, system).
pub fn spawn_node(dir: &Path, role: &str, rank: usize, system: &str, flags: &[&str]) -> Child {
    let log = std::fs::File::create(dir.join(format!("{role}{rank}.log"))).unwrap();
    Command::new(NODE_BIN)
        .current_dir(dir)
        .args([
            "--role",
            role,
            "--rank",
            &rank.to_string(),
            "--cluster",
            "cluster.txt",
            "--config",
            "config.json",
            "--system",
            system,
        ])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .expect("spawn garfield-node")
}

/// Prints every node log in `dir` to stderr, for a test about to fail.
pub fn dump_logs(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "log") {
            eprintln!("--- {}", entry.path().display());
            eprintln!(
                "{}",
                std::fs::read_to_string(entry.path()).unwrap_or_default()
            );
        }
    }
}

/// Polls `done` every `every` until it yields a value; `within` only bounds
/// a failure.
pub fn poll_until<T>(
    what: &str,
    within: Duration,
    every: Duration,
    mut done: impl FnMut() -> Option<T>,
) -> T {
    let deadline = Instant::now() + within;
    loop {
        if let Some(value) = done() {
            return value;
        }
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(every);
    }
}

/// The address of the scrape endpoint a node announced in its `log`
/// (`garfield-node: metrics on http://ADDR/metrics`), once the line is
/// written up to its `/metrics` terminator.
pub fn announced_metrics_addr(log: &Path) -> Option<String> {
    let text = std::fs::read_to_string(log).ok()?;
    let rest = text.split("metrics on http://").nth(1)?;
    Some(rest.split_once("/metrics")?.0.trim().to_string())
}

/// The final model a server's `--out` document records, as exact `f32` bit
/// patterns.
pub fn final_model_bits(doc: &json::Value) -> Vec<u32> {
    doc.get("final_model_bits")
        .and_then(json::Value::as_array)
        .expect("final_model_bits array")
        .iter()
        .map(|v| v.as_usize().expect("u32 bit pattern") as u32)
        .collect()
}
