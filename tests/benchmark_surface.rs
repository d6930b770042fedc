//! Compile-time guard for the API the benchmark package is written against.
//!
//! `benchmark/` (see `BENCHMARK.json`) is a package of its own, outside this
//! workspace: `cargo test` here never builds it, and a PR may not edit it.
//! It builds `WorkerNode`, `ServerNode`, `LiveReport` and `RuntimeTelemetry`
//! as struct literals and calls the functions below with these exact
//! signatures, so a new field, a renamed function or a changed argument that
//! every in-workspace caller was updated for still breaks the benchmark —
//! after the PR has left. This file spells out the same literals and
//! signatures; nothing here runs.
//!
//! **If this file stops compiling, `benchmark/src/{live,replay,bench,micro}.rs`
//! stopped compiling too.** Restore the old name or signature, or make the
//! change in a benchmark-archetype PR that may touch `benchmark/`.
//! `benchmark/Cargo.lock` also pins the crate graph: `vendor/{bytes,
//! crossbeam,parking_lot,rand,rand_distr}` and every crate-to-crate edge
//! among the `garfield-*` crates must stay as they are.

#![allow(dead_code, clippy::type_complexity)]

use bytes::Bytes;
use garfield::aggregation::{
    build_gar, Engine, Gar, GarKind, PeerSuspicion, SelectionOutcome, SuspicionLedger,
};
use garfield::core::{
    self, ByzantineServer, ByzantineWorker, Checkpoint, CheckpointPolicy, CoreResult, Deployment,
    Executor, ExperimentConfig, LiveParts, NodeTelemetry, ParameterServer, RuntimeTelemetry,
    ShardSpec, SimExecutor, SystemKind, TrainingTrace,
};
use garfield::ml::Batch;
use garfield::net::{
    stamp_trace, unix_micros, Envelope, MsgKind, NetResult, NodeId, PayloadPool, Router,
    RouterTransport, Transport, WireHeader, WireMessage, WIRE_HEADER_BYTES,
};
use garfield::runtime::node::fault_rng_streams;
use garfield::runtime::{
    Fault, LiveExecutor, LiveOptions, LiveReport, NodeLayout, ServerNode, ServerRun, WorkerNode,
};
use garfield::tensor::{GradientView, Tensor, TensorRng};
use garfield::transport::{ClusterSpec, TcpOptions, TcpTransport};
use std::time::Duration;

/// `benchmark/src/live.rs::run_tcp`: every field of both node literals.
fn node_literals(
    parts: LiveParts,
    layout: &NodeLayout,
    options: LiveOptions,
    mut rngs: (Vec<TensorRng>, Vec<TensorRng>),
    system: SystemKind,
) -> (WorkerNode, ServerNode) {
    let LiveParts {
        config,
        mut workers,
        mut servers,
        test_batch,
        dimension,
    } = parts;
    let worker: ByzantineWorker = workers.remove(0);
    let server: ByzantineServer = servers.remove(0);
    let test_batch: Batch = test_batch;
    let no_fault: Option<Fault> = None;
    let no_shard: Option<ShardSpec> = None;
    let no_policy: Option<CheckpointPolicy> = None;
    let no_resume: Option<Checkpoint> = None;
    let worker = WorkerNode {
        worker,
        fault: no_fault,
        fault_rng: rngs.0.remove(0),
        idle_timeout: options.idle_timeout,
        shards: 1,
        dimension,
    };
    let server = ServerNode {
        index: 0,
        server,
        system,
        gradient_quorum: config.gradient_quorum(system),
        config,
        worker_ids: layout.worker_ids.clone(),
        peer_ids: Vec::new(),
        shard: no_shard,
        shard_siblings: Vec::new(),
        round_deadline: options.round_deadline,
        fault: no_fault,
        fault_rng: rngs.1.remove(0),
        test_batch: Some(test_batch),
        shutdown_targets: layout.worker_ids.clone(),
        request_retry: options.request_retry,
        checkpoint: no_policy,
        resume: no_resume,
    };
    (worker, server)
}

/// `benchmark/src/live.rs::run_tcp`: a `LiveReport` assembled from a `ServerRun`.
fn report_literal(run: ServerRun, mut nodes: Vec<NodeTelemetry>) -> LiveReport {
    let ServerRun {
        trace,
        final_model,
        telemetry,
        round_latencies,
        resumed_from: _,
        suspicion,
    } = run;
    let trace: TrainingTrace = trace;
    let suspicion: Vec<PeerSuspicion> = suspicion;
    nodes.insert(0, telemetry);
    LiveReport {
        trace,
        telemetry: RuntimeTelemetry {
            nodes,
            round_latencies,
        },
        final_models: vec![final_model],
        suspicion,
    }
}

/// The free functions and methods the benchmark calls, as the function
/// pointer types it relies on.
fn signatures() {
    let _: fn(SystemKind, &ExperimentConfig) -> NodeLayout = NodeLayout::of;
    let _: fn(&NodeLayout) -> usize = NodeLayout::len;
    let _: fn(&ExperimentConfig, usize) -> (Vec<TensorRng>, Vec<TensorRng>) = fault_rng_streams;
    let _: fn(SystemKind, &ExperimentConfig) -> (GarKind, usize) = core::gradient_gar;
    let _: fn(SystemKind) -> bool = core::live_supported;
    let _: fn(ExperimentConfig) -> CoreResult<Deployment> = Deployment::new;
    let _: fn(Deployment) -> LiveParts = Deployment::into_live_parts;
    let _: fn(&ExperimentConfig, SystemKind) -> CoreResult<()> = ExperimentConfig::validate;
    let _: fn(&ExperimentConfig, SystemKind) -> usize = ExperimentConfig::gradient_quorum;
    let _: fn(ExperimentConfig) -> SimExecutor = SimExecutor::new;
    let _: fn(&mut SimExecutor, SystemKind) -> CoreResult<TrainingTrace> = Executor::run;
    let _: fn(ExperimentConfig) -> LiveExecutor = LiveExecutor::new;
    let _: fn(&mut LiveExecutor, SystemKind) -> CoreResult<LiveReport> = LiveExecutor::run_live;
    let _: fn(WorkerNode, Box<dyn Transport>) -> NodeTelemetry = WorkerNode::run;
    let _: fn(ServerNode, Box<dyn Transport>) -> CoreResult<ServerRun> = ServerNode::run;
    let _: fn() -> LiveOptions = LiveOptions::default;
    let _: fn(&RuntimeTelemetry) -> u64 = RuntimeTelemetry::total_wire_bytes;

    let _: fn(usize) -> NetResult<ClusterSpec> = ClusterSpec::localhost;
    let _: fn(&ClusterSpec, NodeId, TcpOptions) -> NetResult<TcpTransport> = TcpTransport::bind;
    let _: fn(&Router, NodeId) -> NetResult<RouterTransport> = RouterTransport::connect;
    let _: fn(&TcpTransport, NodeId, u64, Bytes) -> NetResult<()> = Transport::send;
    let _: fn(&RouterTransport, Duration) -> NetResult<Envelope> = Transport::recv_timeout;

    let _: fn(MsgKind, u64, f32, Vec<f32>) -> WireMessage = WireMessage::new;
    let _: fn(MsgKind, u64) -> WireMessage = WireMessage::control;
    let _: fn(&WireMessage) -> Vec<u8> = WireMessage::encode_vec;
    let _: fn(&[u8]) -> NetResult<WireHeader> = WireMessage::peek;
    let _: fn(&[u8], &mut Vec<f32>) -> NetResult<WireHeader> = WireMessage::decode_into;
    let _: fn(&mut [u8], u32, u64, u64) = stamp_trace;
    let _: fn() -> u64 = unix_micros;
    let _: usize = WIRE_HEADER_BYTES;
    let _: fn(&mut PayloadPool) -> Vec<f32> = PayloadPool::checkout;
    let _: fn(&mut PayloadPool, Vec<f32>) = PayloadPool::restore;
    let _: fn(Vec<u8>) -> Bytes = Bytes::from;

    let _: fn(&GarKind, usize, usize) -> Result<Box<dyn Gar>, _> = build_gar;
    let _: fn(&mut SuspicionLedger, u64, &[u32], &SelectionOutcome) =
        SuspicionLedger::observe_round;
    let _: fn(&SelectionOutcome) -> Vec<usize> = SelectionOutcome::excluded;
    let _: fn(&mut ByzantineWorker, &Tensor, usize) -> CoreResult<(f32, Tensor)> =
        ByzantineWorker::honest_compute;
    let _: fn(&mut ByzantineWorker, Tensor, &[Tensor]) -> Tensor = ByzantineWorker::sent_gradient;
    let _: fn(&ByzantineWorker) -> bool = ByzantineWorker::is_byzantine;
    let _: fn(&mut ByzantineServer, &[Tensor]) -> Tensor = ByzantineServer::served_model;
}

/// `benchmark/src/replay.rs`: the observed aggregation on both the server
/// object and the bare rule, over borrowed views.
fn observed_aggregation(
    server: &ParameterServer,
    gar: &dyn Gar,
    inputs: &[GradientView<'_>],
    engine: &Engine,
    outcome: &mut SelectionOutcome,
) -> CoreResult<Tensor> {
    let _: Tensor = gar
        .aggregate_views_observed(inputs, engine, outcome)
        .map_err(core::CoreError::from)?;
    server.aggregate_views_observed(gar, inputs, engine, outcome)
}

/// The envelope's payload is what `peek` / `decode_into` read.
fn envelope_payload(envelope: &Envelope) -> &[u8] {
    &envelope.payload
}

#[test]
fn the_benchmark_surface_compiles() {
    // Compiling this file is the test.
}
