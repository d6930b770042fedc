//! The live executor: spawn every node, train over real messages, join.

use crate::fault::FaultPlan;
use crate::node::{self, LiveNodes, ServerRun};
use garfield_aggregation::PeerSuspicion;
use garfield_core::{
    deployed_config, CoreError, CoreResult, Executor, ExperimentConfig, NodeTelemetry,
    RuntimeTelemetry, SystemKind, TrainingTrace,
};
use garfield_net::{NodeId, Router, RouterTransport, Transport};
use garfield_tensor::Tensor;
use std::time::Duration;

/// Tuning knobs of a live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveOptions {
    /// Wall-clock deadline of each pull phase: a server that cannot gather
    /// its quorum within this window reports a liveness failure instead of
    /// blocking forever (the paper's RPC timeout).
    pub round_deadline: Duration,
    /// How long a worker waits on an empty inbox before assuming the run is
    /// over (a backstop; the executor normally shuts workers down explicitly).
    pub idle_timeout: Duration,
    /// Overrides the number of gradient replies a server waits for. `None`
    /// uses [`ExperimentConfig::gradient_quorum`]; tests use `Some(n - f)` to
    /// exercise the asynchronous liveness condition on any system.
    pub gradient_quorum: Option<usize>,
    /// How long a pull waits before re-sending its (idempotent) request to
    /// peers that have not replied. Far above a healthy round time, so the
    /// re-ask only ever fires when a peer is stalled, dead — or dead and
    /// *respawned*, which is the case it exists for: the respawned peer can
    /// only contribute to the in-flight round if someone asks it again.
    pub request_retry: Duration,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            round_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(10),
            gradient_quorum: None,
            request_retry: Duration::from_millis(1250),
        }
    }
}

/// Everything a live run produces beyond the trace.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// The observer replica's training trace (server 0, always honest).
    pub trace: TrainingTrace,
    /// Per-node message/byte counters and per-round wall-clock latencies.
    pub telemetry: RuntimeTelemetry,
    /// Final model of every *honest* server replica, in index order. Used by
    /// determinism checks (same seed ⇒ identical models) and replica
    /// agreement checks (contracted replicas stay close).
    pub final_models: Vec<Tensor>,
    /// The observer replica's Byzantine forensics: final per-peer suspicion
    /// state (sorted by peer id), accumulated from every GAR selection.
    pub suspicion: Vec<PeerSuspicion>,
}

/// The threaded executor: each worker and server replica of the experiment
/// runs as its own OS thread, exchanging
/// [`WireMessage`](garfield_net::WireMessage)s over a [`Router`].
///
/// Construction of the node objects is shared with the sim path (see
/// [`node::assemble`]), so a fault-free live run reproduces the sim
/// executor's learning trajectory — same shards, same initial model, same
/// aggregation inputs — while actually moving every gradient and model over
/// the wire.
pub struct LiveExecutor {
    config: ExperimentConfig,
    options: LiveOptions,
    faults: FaultPlan,
}

impl LiveExecutor {
    /// Creates a live executor with default options and no injected faults.
    pub fn new(config: ExperimentConfig) -> Self {
        LiveExecutor {
            config,
            options: LiveOptions::default(),
            faults: FaultPlan::new(),
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_options(mut self, options: LiveOptions) -> Self {
        self.options = options;
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The configuration this executor runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the named system live and returns the full report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for configs [`node::assemble`]
    /// rejects and [`CoreError::Net`] when a quorum cannot be gathered
    /// before the deadline (a liveness violation: fewer than `q` live
    /// repliers).
    pub fn run_live(&mut self, system: SystemKind) -> CoreResult<LiveReport> {
        let LiveNodes {
            layout,
            workers,
            servers,
            shard_map,
        } = node::assemble(system, &self.config, &self.options, &self.faults)?;
        let nps = layout.server_ids.len();
        let nw = layout.worker_ids.len();

        // Every endpoint registers before any thread starts: a round-0
        // broadcast must never race a peer's registration.
        let router = Router::new();
        let connect = |id: NodeId| -> CoreResult<Box<dyn Transport>> {
            Ok(Box::new(
                RouterTransport::connect(&router, id).map_err(CoreError::from)?,
            ))
        };
        let server_transports: Vec<_> = layout
            .server_ids
            .iter()
            .map(|&id| connect(id))
            .collect::<CoreResult<_>>()?;
        let worker_transports: Vec<_> = layout
            .worker_ids
            .iter()
            .map(|&id| connect(id))
            .collect::<CoreResult<_>>()?;

        let worker_threads: Vec<_> = workers
            .into_iter()
            .zip(worker_transports)
            .map(|(node, transport)| std::thread::spawn(move || node.run(transport)))
            .collect();
        let server_threads: Vec<_> = servers
            .into_iter()
            .zip(server_transports)
            .map(|(node, transport)| {
                std::thread::spawn(move || {
                    let index = node.index;
                    node.run(transport).map(|run| (index, run))
                })
            })
            .collect();

        // Join the replicas, then wind the workers down regardless of outcome.
        let mut outcomes: Vec<(usize, ServerRun)> = Vec::with_capacity(nps);
        let mut first_error: Option<CoreError> = None;
        for thread in server_threads {
            match thread.join() {
                Ok(Ok(outcome)) => outcomes.push(outcome),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error.get_or_insert(CoreError::Net("a server thread panicked".into()));
                }
            }
        }
        // No assembled server carries `shutdown_targets`: closing a worker's
        // inbox ends its loop once the requests still queued are served.
        for &id in &layout.worker_ids {
            router.close(id);
        }
        let mut node_telemetry: Vec<NodeTelemetry> = Vec::with_capacity(nps + nw);
        let mut worker_telemetry = Vec::with_capacity(nw);
        for thread in worker_threads {
            match thread.join() {
                Ok(telemetry) => worker_telemetry.push(telemetry),
                Err(_) => {
                    first_error.get_or_insert(CoreError::Net("a worker thread panicked".into()));
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }

        outcomes.sort_by_key(|&(index, _)| index);
        let observer = outcomes
            .iter()
            .find(|&&(index, _)| index == 0)
            .map(|(_, run)| run)
            .ok_or_else(|| CoreError::Net("live run produced no observer trace".into()))?;
        for (_, run) in &outcomes {
            node_telemetry.push(run.telemetry.clone());
        }
        node_telemetry.extend(worker_telemetry);

        // Peer-to-peer, the Byzantine workers are Byzantine replicas too.
        let byzantine = deployed_config(system, self.config.clone()).actual_byzantine_servers;
        let honest_servers = nps - byzantine.min(nps.saturating_sub(1));
        let final_models = if let Some(map) = &shard_map {
            // Stitch the shard slices back into the one full model of the
            // deployment — bit-identical to the unsharded same-seed run when
            // every round formed a full quorum.
            let slices: Vec<Vec<f32>> = outcomes
                .iter()
                .map(|(_, run)| run.final_model.data().to_vec())
                .collect();
            vec![Tensor::from_slice(&map.reassemble(&slices)?)]
        } else {
            outcomes
                .iter()
                .take(honest_servers)
                .map(|(_, run)| run.final_model.clone())
                .collect()
        };
        Ok(LiveReport {
            trace: observer.trace.clone(),
            telemetry: RuntimeTelemetry {
                nodes: node_telemetry,
                round_latencies: observer.round_latencies.clone(),
            },
            final_models,
            suspicion: observer.suspicion.clone(),
        })
    }
}

impl Executor for LiveExecutor {
    fn run(&mut self, system: SystemKind) -> CoreResult<TrainingTrace> {
        self.run_live(system).map(|report| report.trace)
    }
}

impl std::fmt::Debug for LiveExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveExecutor")
            .field("nw", &self.config.nw)
            .field("nps", &self.config.nps)
            .field("faults", &self.faults.fault_count())
            .finish()
    }
}
