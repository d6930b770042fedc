//! Runs a workload on the live runtime, through public API only.
//!
//! Router workloads go through [`LiveExecutor::run_live`]. The TCP workload
//! has no in-process executor in the program, so this module assembles one
//! the way `garfield-node` assembles a single node: [`Deployment`] parts,
//! [`NodeLayout`] ids and [`fault_rng_streams`], then [`ServerNode::run`] /
//! [`WorkerNode::run`] over [`TcpTransport`] endpoints bound on loopback.
//! The only threads are the program's: one per node, plus the transport's
//! I/O threads.

use crate::procfs;
use crate::stats::{self, Segmented};
use crate::workloads::{Fabric, Workload};
use garfield_core::{
    CoreError, CoreResult, Deployment, ExperimentConfig, RuntimeTelemetry, SystemKind,
};
use garfield_net::Transport;
use garfield_runtime::node::fault_rng_streams;
use garfield_runtime::{LiveExecutor, LiveOptions, LiveReport, NodeLayout, ServerNode, WorkerNode};
use garfield_transport::{ClusterSpec, TcpOptions, TcpTransport};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One completed live run and what it cost the process.
pub struct LiveRun {
    pub report: LiveReport,
    /// Rounds the run was configured for.
    pub rounds: usize,
    /// Wall-clock seconds of the whole run, set-up and wind-down included.
    pub wall_s: f64,
    /// Process CPU milliseconds (user + system, every thread) over the run.
    pub cpu_ms: f64,
    /// `TcpTransport::bind` milliseconds, one per endpoint (TCP only).
    pub bind_ms: Vec<f64>,
    /// Live threads of the process midway through the run, when sampled.
    pub threads: Option<u64>,
}

impl LiveRun {
    fn latencies(&self) -> &[f64] {
        &self.report.telemetry.round_latencies
    }

    /// Latencies of the timed rounds (warm-up excluded), in seconds.
    pub fn timed(&self) -> &[f64] {
        stats::timed(self.latencies())
    }

    /// Median server round latency in milliseconds: the median segment.
    pub fn round_p50_ms(&self) -> Segmented {
        stats::segmented(self.timed(), |s| stats::median(s) * 1e3)
    }

    /// Wall time not spent inside a round: deployment build, bind and dial,
    /// thread spawn, join and wind-down.
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.latencies().iter().sum::<f64>()
    }

    /// On-wire bytes all nodes sent, per round.
    pub fn wire_bytes_per_round(&self) -> f64 {
        self.report.telemetry.total_wire_bytes() as f64 / self.rounds as f64
    }

    /// FNV-1a 64 over the bits of the observer's final model.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self.report.final_models[0].data())
    }
}

/// FNV-1a 64 over the little-endian bits of `values`: equal fingerprints
/// mean bit-identical models.
pub fn fingerprint(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs `config` live on the workload's fabric. With `sample_threads_after`
/// a sleeping helper thread reads the process's thread count once, that long
/// into the run (traced runs only; it is subtracted from the count).
pub fn run(
    workload: &Workload,
    config: &ExperimentConfig,
    sample_threads_after: Option<Duration>,
) -> Result<LiveRun, String> {
    let (stop, stopped) = mpsc::channel::<()>();
    let sampler = sample_threads_after.map(|delay| {
        std::thread::spawn(move || match stopped.recv_timeout(delay) {
            // Still running: every thread but this one belongs to the run.
            Err(mpsc::RecvTimeoutError::Timeout) => procfs::threads().ok().map(|n| n - 1),
            _ => None,
        })
    });

    let cpu_before = procfs::cpu_ms()?;
    let started = Instant::now();
    let outcome = match workload.fabric {
        Fabric::Router => LiveExecutor::new(config.clone())
            .run_live(workload.system)
            .map(|report| (report, Vec::new())),
        Fabric::Tcp => run_tcp(workload.system, config),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = procfs::cpu_ms()? - cpu_before;

    drop(stop);
    let threads = match sampler {
        Some(handle) => handle.join().map_err(|_| "thread sampler panicked")?,
        None => None,
    };
    let (report, bind_ms) = outcome.map_err(|e| format!("{}: {e}", workload.name))?;
    Ok(LiveRun {
        report,
        rounds: config.iterations,
        wall_s,
        cpu_ms,
        bind_ms,
        threads,
    })
}

/// The single-server systems over loopback TCP, every endpoint in this
/// process. Server 0 winds the workers down, as in a `garfield-node` cluster.
fn run_tcp(system: SystemKind, config: &ExperimentConfig) -> CoreResult<(LiveReport, Vec<f64>)> {
    config.validate(system)?;
    let parts = Deployment::new(config.clone())?.into_live_parts();
    let layout = NodeLayout::of(system, config);
    if layout.server_ids.len() != 1 {
        return Err(CoreError::InvalidConfig(
            "the benchmark's TCP fabric runs single-server systems".into(),
        ));
    }
    let options = LiveOptions::default();
    let spec = ClusterSpec::localhost(layout.len())?;
    let mut bind_ms = Vec::with_capacity(layout.len());
    let mut bind = |id| -> CoreResult<Box<dyn Transport>> {
        let started = Instant::now();
        let endpoint = TcpTransport::bind(&spec, id, TcpOptions::default())?;
        bind_ms.push(started.elapsed().as_secs_f64() * 1e3);
        Ok(Box::new(endpoint))
    };
    let server_transport = bind(layout.server_ids[0])?;
    let worker_transports: Vec<_> = layout
        .worker_ids
        .iter()
        .map(|&id| bind(id))
        .collect::<CoreResult<_>>()?;

    let (worker_rngs, mut server_rngs) = fault_rng_streams(config, 1);
    let worker_threads: Vec<_> = parts
        .workers
        .into_iter()
        .zip(worker_transports)
        .zip(worker_rngs)
        .map(|((worker, transport), fault_rng)| {
            let node = WorkerNode {
                worker,
                fault: None,
                fault_rng,
                idle_timeout: options.idle_timeout,
                shards: 1,
                dimension: parts.dimension,
            };
            std::thread::spawn(move || node.run(transport))
        })
        .collect();
    let server = ServerNode {
        index: 0,
        server: parts
            .servers
            .into_iter()
            .next()
            .expect("a deployment has a server"),
        system,
        config: config.clone(),
        worker_ids: layout.worker_ids.clone(),
        peer_ids: Vec::new(),
        shard: None,
        shard_siblings: Vec::new(),
        gradient_quorum: config.gradient_quorum(system),
        round_deadline: options.round_deadline,
        fault: None,
        fault_rng: server_rngs.remove(0),
        test_batch: Some(parts.test_batch),
        shutdown_targets: layout.worker_ids.clone(),
        request_retry: options.request_retry,
        checkpoint: None,
        resume: None,
    };
    let server_thread = std::thread::spawn(move || server.run(server_transport));

    let panicked = |who: &str| CoreError::Net(format!("a {who} thread panicked"));
    let served = server_thread.join().map_err(|_| panicked("server"));
    // The server's exit shut the workers down (also on its error paths).
    let mut nodes = Vec::with_capacity(layout.len());
    for thread in worker_threads {
        nodes.push(thread.join().map_err(|_| panicked("worker"))?);
    }
    let run = served??;
    nodes.insert(0, run.telemetry);
    let report = LiveReport {
        trace: run.trace,
        telemetry: RuntimeTelemetry {
            nodes,
            round_latencies: run.round_latencies,
        },
        final_models: vec![run.final_model],
        suspicion: run.suspicion,
    };
    Ok((report, bind_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_tell_bit_patterns_apart() {
        assert_eq!(fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(&[1.0, 2.0]), fingerprint(&[1.0, 2.0]));
        assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
        // Equal as floats, different as bits: the fingerprint sees bits.
        assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
    }
}
