//! Per-node entry points: run *one* worker or server replica of an
//! experiment over any [`Transport`].
//!
//! The [`LiveExecutor`](crate::LiveExecutor) uses these to spawn every node
//! as a thread over the in-process router; the `garfield-node` binary
//! (`garfield-transport`) uses the very same entry points to run a single
//! node per OS process over TCP. Both get their nodes from [`assemble`] —
//! the one place that knows the id layout, the RNG derivation, the shard
//! map and who is whose peer — so a fault-free full-quorum multi-process
//! run produces a final model bit-identical to the in-process run of the
//! same seed.

use crate::actors::{ServerActor, WorkerActor};
use crate::executor::LiveOptions;
use crate::fault::{Fault, FaultPlan};
use garfield_core::{
    shard_server, ByzantineServer, ByzantineWorker, Checkpoint, CheckpointPolicy, CoreError,
    CoreResult, Deployment, ExperimentConfig, NodeTelemetry, ShardMap, SystemKind, SystemPlan,
    Topology, TrainingTrace,
};
use garfield_ml::Batch;
use garfield_net::{NodeId, Transport};
use garfield_tensor::{Tensor, TensorRng};
use std::time::Duration;

/// The node-id layout of a live deployment: server replicas first
/// (`0..servers`), workers after (`servers..servers + nw`).
///
/// Every substrate must use this layout — reply collection sorts by node id,
/// so the aggregation input (and with it the final model) depends on ids
/// being assigned identically in-process and across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLayout {
    /// Ids of the server replicas, in replica-index order.
    pub server_ids: Vec<NodeId>,
    /// Ids of the workers, in worker-index order.
    pub worker_ids: Vec<NodeId>,
}

impl NodeLayout {
    /// Computes the layout of `config` under `system`.
    ///
    /// Single-server systems deploy one trusted server no matter what
    /// `config.nps` says — unless the model is parameter-sharded
    /// (`config.shards > 1`), in which case one server per shard runs;
    /// replicated systems run every replica.
    pub fn of(system: SystemKind, config: &ExperimentConfig) -> NodeLayout {
        let servers = live_server_count(system, config);
        let workers = config.nw;
        NodeLayout {
            server_ids: (0..servers).map(|i| NodeId(i as u32)).collect(),
            worker_ids: (0..workers).map(|j| NodeId((servers + j) as u32)).collect(),
        }
    }

    /// Total number of nodes in the layout.
    pub fn len(&self) -> usize {
        self.server_ids.len() + self.worker_ids.len()
    }

    /// Whether the layout holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Number of server replicas that actually run live under `system`: every
/// replica of a replicated server, otherwise one server per parameter shard
/// (one, when the model is unsharded). Config validation rejects
/// `shards > 1` on replicated systems, so the two arms never compete.
pub fn live_server_count(system: SystemKind, config: &ExperimentConfig) -> usize {
    let plan = SystemPlan::of(system, config);
    if plan.topology == Topology::ReplicatedServer {
        plan.servers
    } else {
        config.shards.max(1)
    }
}

/// Replays the executor's per-node RNG derivation.
///
/// [`TensorRng::derive`] advances the parent generator, so the stream a node
/// receives depends on the *order* of derivation. A `garfield-node` process
/// hosts a single node but must hand it the exact stream the in-process
/// executor would: this helper re-derives all of them (workers first, then
/// the live servers) so both substrates agree.
pub fn fault_rng_streams(
    config: &ExperimentConfig,
    live_servers: usize,
) -> (Vec<TensorRng>, Vec<TensorRng>) {
    let mut seed_rng = TensorRng::seed_from(config.seed ^ 0x4c49_5645); // "LIVE"
    let workers = (0..config.nw)
        .map(|j| seed_rng.derive(7_000 + j as u64))
        .collect();
    let servers = (0..live_servers)
        .map(|i| seed_rng.derive(8_000 + i as u64))
        .collect();
    (workers, servers)
}

/// Every node of a live deployment, assembled and ready to run: what
/// [`assemble`] returns.
pub struct LiveNodes {
    /// Which node id each server and worker runs under.
    pub layout: NodeLayout,
    /// The workers, in worker-index order.
    pub workers: Vec<WorkerNode>,
    /// The server replicas — or, when the model is parameter-sharded, the
    /// shard servers — in index order.
    pub servers: Vec<ServerNode>,
    /// The shard map the servers were sliced by (`None` when unsharded):
    /// stitches their final slices back into the one full model.
    pub shard_map: Option<ShardMap>,
}

/// Assembles every node of `config` under `system`: the one description of
/// a live deployment every substrate runs. The in-process executor spawns
/// all of what this returns; a `garfield-node` process keeps the node of its
/// rank and sets only what is its own — `shutdown_targets`, `checkpoint`,
/// `resume` and its `--delay-ms` fault.
///
/// Node objects come from the sim path's construction
/// ([`Deployment::new`] → [`Deployment::into_live_parts`]), so a fault-free
/// live run starts from the sim executor's shards and initial model. With
/// `config.shards > 1` one server per shard replaces the full-model server
/// (validation already confined sharding to the single-server systems with
/// coordinate-decomposable GARs), each sliced out of the template server's
/// initial model. Shard servers are not replicas — no model pulls, no state
/// serving between them, only the sticky-OR speculation-trip channel — so
/// the other server ids are their `shard_siblings`, not their `peer_ids`;
/// and since accuracy evaluation needs the full model, only an unsharded
/// server 0 gets the test batch (a sharded run's trace carries losses but
/// no accuracy points).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for systems the live runtime does
/// not implement (see [`garfield_core::live_supported`]) and for configs
/// that fail [`ExperimentConfig::validate`].
pub fn assemble(
    system: SystemKind,
    config: &ExperimentConfig,
    options: &LiveOptions,
    faults: &FaultPlan,
) -> CoreResult<LiveNodes> {
    if !garfield_core::live_supported(system) {
        return Err(CoreError::InvalidConfig(format!(
            "the live runtime implements {} (requested {system})",
            garfield_core::system_names(|plan| plan.live)
        )));
    }
    config.validate(system)?;
    let parts = Deployment::new(config.clone())?.into_live_parts();
    let layout = NodeLayout::of(system, config);
    let shard_map = (config.shards > 1)
        .then(|| ShardMap::new(parts.dimension, config.shards))
        .transpose()?;
    let gradient_quorum = options
        .gradient_quorum
        .unwrap_or_else(|| config.gradient_quorum(system));
    let (worker_rngs, server_rngs) = fault_rng_streams(config, layout.server_ids.len());

    let workers = parts
        .workers
        .into_iter()
        .zip(worker_rngs)
        .enumerate()
        .map(|(j, (worker, fault_rng))| WorkerNode {
            worker,
            fault: faults.worker(j),
            fault_rng,
            idle_timeout: options.idle_timeout,
            shards: config.shards.max(1),
            dimension: parts.dimension,
        })
        .collect();

    let mut servers = parts.servers;
    if let Some(map) = &shard_map {
        let template = servers
            .first()
            .ok_or_else(|| CoreError::InvalidConfig("deployment produced no server".into()))?;
        let initial = template.honest().parameters();
        servers = map
            .specs()
            .iter()
            .map(|&spec| shard_server(spec, initial.data(), config))
            .collect();
    }
    let servers = servers
        .into_iter()
        .zip(server_rngs)
        .enumerate()
        .map(|(i, (server, fault_rng))| {
            let others: Vec<NodeId> = layout
                .server_ids
                .iter()
                .copied()
                .filter(|&id| id != layout.server_ids[i])
                .collect();
            let (peer_ids, shard_siblings) = match shard_map {
                Some(_) => (Vec::new(), others),
                None => (others, Vec::new()),
            };
            ServerNode {
                index: i,
                server,
                system,
                config: config.clone(),
                worker_ids: layout.worker_ids.clone(),
                peer_ids,
                shard: shard_map.as_ref().map(|map| map.spec(i)),
                shard_siblings,
                gradient_quorum,
                round_deadline: options.round_deadline,
                fault: faults.server(i),
                fault_rng,
                test_batch: (i == 0 && shard_map.is_none()).then(|| parts.test_batch.clone()),
                shutdown_targets: Vec::new(),
                request_retry: options.request_retry,
                checkpoint: None,
                resume: None,
            }
        })
        .collect();
    Ok(LiveNodes {
        layout,
        workers,
        servers,
        shard_map,
    })
}

/// One worker replica, ready to run over a transport.
pub struct WorkerNode {
    /// The (possibly Byzantine) worker object, from
    /// [`Deployment::into_live_parts`](garfield_core::Deployment::into_live_parts).
    pub worker: ByzantineWorker,
    /// The injected fault, if any.
    pub fault: Option<Fault>,
    /// RNG stream for fault-plan attacks (see [`fault_rng_streams`]).
    pub fault_rng: TensorRng,
    /// How long the worker waits on an empty inbox before assuming the run
    /// is over.
    pub idle_timeout: Duration,
    /// Number of parameter shards the server side is split into (1 means
    /// unsharded). Sharded requests carry model *slices*; the worker buffers
    /// them and computes once per round on the assembled vector.
    pub shards: usize,
    /// Full model dimension, needed to assemble sharded slices.
    pub dimension: usize,
}

impl WorkerNode {
    /// Runs the worker loop to completion (blocking) and returns the node's
    /// network counters, including the transport's per-peer on-wire bytes.
    pub fn run(self, transport: Box<dyn Transport>) -> NodeTelemetry {
        WorkerActor::new(self, transport).run()
    }
}

/// One server replica, ready to run over a transport.
pub struct ServerNode {
    /// Replica index (0 is the observer: it evaluates accuracy).
    pub index: usize,
    /// The (possibly Byzantine) server object.
    pub server: ByzantineServer,
    /// Which Garfield system drives the replica's loop.
    pub system: SystemKind,
    /// The experiment being run.
    pub config: ExperimentConfig,
    /// Ids of all workers (see [`NodeLayout`]).
    pub worker_ids: Vec<NodeId>,
    /// Ids of the peer replicas (the layout's server ids minus this one).
    pub peer_ids: Vec<NodeId>,
    /// The parameter shard this server owns when the model is split across
    /// server shards (`None`: this server holds the full vector).
    pub shard: Option<garfield_core::ShardSpec>,
    /// The other shard servers of a sharded deployment (empty otherwise):
    /// recipients of this server's `SpeculationTrip` sticky-OR broadcast.
    pub shard_siblings: Vec<NodeId>,
    /// Gradient replies to wait for each round.
    pub gradient_quorum: usize,
    /// Wall-clock deadline of each pull phase.
    pub round_deadline: Duration,
    /// The injected fault, if any.
    pub fault: Option<Fault>,
    /// RNG stream for fault-plan attacks (see [`fault_rng_streams`]).
    pub fault_rng: TensorRng,
    /// Held-out batch for accuracy evaluation (observer only).
    pub test_batch: Option<Batch>,
    /// Workers this replica sends `Shutdown` to when it exits. Empty under
    /// the in-process executor (its controller winds workers down); the
    /// coordinating server of a multi-process deployment names every worker
    /// here, since no controller process exists.
    pub shutdown_targets: Vec<NodeId>,
    /// How long a pull waits before re-asking peers that have not replied
    /// (see [`LiveOptions::request_retry`](crate::LiveOptions)).
    pub request_retry: Duration,
    /// Where and how often this replica persists its training state to disk
    /// (`None` disables checkpointing).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Checkpointed state to resume from: training starts at its `round`
    /// with its model/optimizer/RNG state instead of from scratch
    /// (`garfield-node --resume`).
    pub resume: Option<Checkpoint>,
}

/// What one server replica produced.
#[derive(Debug, Clone)]
pub struct ServerRun {
    /// The replica's training trace.
    pub trace: TrainingTrace,
    /// Its final model vector.
    pub final_model: Tensor,
    /// Its network counters (totals plus per-peer on-wire counts).
    pub telemetry: NodeTelemetry,
    /// Wall-clock seconds per training iteration.
    pub round_latencies: Vec<f64>,
    /// The round a disk checkpoint resumed training at, if this run resumed
    /// (`None` for runs that started from scratch).
    pub resumed_from: Option<usize>,
    /// Byzantine forensics: final per-peer suspicion state (sorted by peer
    /// id), accumulated from every GAR selection this replica performed.
    pub suspicion: Vec<garfield_aggregation::PeerSuspicion>,
}

impl ServerNode {
    /// Runs the replica's training loop to completion (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`](garfield_core::CoreError::Net) when a
    /// quorum cannot be gathered before the round deadline, and propagates
    /// ML/aggregation errors. The shutdown duty (if any) is discharged even
    /// on the error paths.
    pub fn run(self, transport: Box<dyn Transport>) -> CoreResult<ServerRun> {
        ServerActor::from_node(self, transport)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_places_servers_before_workers() {
        let mut cfg = ExperimentConfig::small();
        cfg.nw = 4;
        cfg.nps = 3;
        let msmw = NodeLayout::of(SystemKind::Msmw, &cfg);
        assert_eq!(msmw.server_ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            msmw.worker_ids,
            vec![NodeId(3), NodeId(4), NodeId(5), NodeId(6)]
        );
        assert_eq!(msmw.len(), 7);
        assert!(!msmw.is_empty());

        // Single trusted server for the non-replicated systems.
        let ssmw = NodeLayout::of(SystemKind::Ssmw, &cfg);
        assert_eq!(ssmw.server_ids, vec![NodeId(0)]);
        assert_eq!(ssmw.worker_ids[0], NodeId(1));
        assert_eq!(live_server_count(SystemKind::Vanilla, &cfg), 1);

        // One server per parameter shard for the sharded single-replica
        // systems; workers still come after every server.
        cfg.shards = 3;
        let sharded = NodeLayout::of(SystemKind::Ssmw, &cfg);
        assert_eq!(sharded.server_ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sharded.worker_ids[0], NodeId(3));
        assert_eq!(live_server_count(SystemKind::Vanilla, &cfg), 3);
        // MSMW replica count is untouched by the shard setting.
        assert_eq!(live_server_count(SystemKind::Msmw, &cfg), 3);
    }

    #[test]
    fn fault_rng_streams_are_order_independent_reproducible() {
        let cfg = ExperimentConfig::small();
        let (workers_a, servers_a) = fault_rng_streams(&cfg, 3);
        let (workers_b, servers_b) = fault_rng_streams(&cfg, 3);
        assert_eq!(workers_a.len(), cfg.nw);
        assert_eq!(servers_a.len(), 3);
        // Same config ⇒ same streams, node by node.
        for (mut a, mut b) in workers_a.into_iter().zip(workers_b) {
            assert_eq!(a.uniform01(), b.uniform01());
        }
        for (mut a, mut b) in servers_a.into_iter().zip(servers_b) {
            assert_eq!(a.uniform01(), b.uniform01());
        }
    }
}
