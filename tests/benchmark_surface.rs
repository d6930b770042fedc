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
//! **If this file stops compiling, `benchmark/src/{live,replay,bench,micro,
//! main,report}.rs` stopped compiling too.** Restore the old name or signature, or make the
//! change in a benchmark-archetype PR that may touch `benchmark/`.
//! `benchmark/Cargo.lock` also pins the crate graph: `vendor/{bytes,
//! crossbeam,parking_lot,rand,rand_distr}` and every crate-to-crate edge
//! among the `garfield-*` crates must stay as they are.

#![allow(dead_code, clippy::type_complexity)]

use bytes::Bytes;
use garfield::aggregation::{
    build_gar, DistanceCache, Engine, Gar, GarKind, PeerSuspicion, SelectionOutcome,
    SuspicionLedger,
};
use garfield::core::json::{self, Value};
use garfield::core::{
    self, ByzantineServer, ByzantineWorker, Checkpoint, CheckpointPolicy, CoreResult, Deployment,
    Executor, ExperimentConfig, LiveParts, NodeTelemetry, ParameterServer, RuntimeTelemetry,
    ShardSpec, SimExecutor, SystemKind, TrainingTrace,
};
use garfield::ml::{Batch, DatasetKind, Mlp};
use garfield::net::{
    stamp_trace, unix_micros, Envelope, MsgKind, NetResult, NodeId, PayloadPool, Router,
    RouterTransport, Transport, WireHeader, WireMessage, WIRE_HEADER_BYTES,
};
use garfield::runtime::node::fault_rng_streams;
use garfield::runtime::{
    Fault, LiveExecutor, LiveOptions, LiveReport, NodeLayout, ServerNode, ServerRun, WorkerNode,
};
use garfield::tensor::{squared_l2_distance_slices, GradientView, Tensor, TensorRng};
use garfield::transport::frame::{read_frame, write_frame};
use garfield::transport::{ClusterSpec, TcpOptions, TcpTransport};
use garfield_obs::flight::{self, EventKind};
use garfield_obs::Histogram;
use std::collections::BTreeMap;
use std::path::Path;
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

/// `benchmark/src/replay.rs`: the replayed server's model state and update
/// calls, and the views its GARs read.
fn replay_calls(own: &Tensor, replies: &[Vec<f32>]) {
    let _: fn(&ByzantineServer) -> &ParameterServer = ByzantineServer::honest;
    let _: fn(&mut ByzantineServer) -> &mut ParameterServer = ByzantineServer::honest_mut;
    let _: fn(&ParameterServer) -> Tensor = ParameterServer::parameters;
    let _: fn(&mut ParameterServer, &Tensor) -> CoreResult<()> = ParameterServer::update_model;
    let _: fn(&mut ParameterServer, &Tensor) -> CoreResult<()> = ParameterServer::write_model;
    let _: fn(&ParameterServer, &Batch) -> f32 = ParameterServer::compute_accuracy;
    let _: fn(&[f32]) -> Tensor = Tensor::from_slice;
    let _: fn(&Tensor) -> &[f32] = Tensor::data;
    let _: fn(Tensor) -> Vec<f32> = Tensor::into_vec;
    let _: [GradientView<'_>; 2] = [GradientView::from(own), GradientView::from(&replies[0])];
}

/// `benchmark/src/micro.rs`: the single calls it times.
fn micro_calls(
    gradients: &[Vec<f32>],
    encoded: &[u8],
    model: &[f32],
    dir: &Path,
) -> Result<(), Box<dyn std::error::Error>> {
    let dims: Vec<usize> = Mlp::cifarnet_lite(&mut TensorRng::seed_from(0)).dims();
    let kind = DatasetKind::MnistLike;
    let (features, width): (usize, usize) = (kind.features(), kind.classes());
    let mut rng = TensorRng::seed_from(1);
    let inputs: Tensor = rng.normal_tensor((dims[0], features));
    let weights: Tensor = rng.normal_tensor((features, width));
    let _: Tensor = inputs.matmul(&weights)?;
    let _: f32 = squared_l2_distance_slices(&gradients[0], &gradients[1]);
    let views: Vec<GradientView<'_>> = gradients.iter().map(GradientView::from).collect();
    let _: DistanceCache = DistanceCache::build(&views, &Engine::auto());

    let mut wire = Vec::with_capacity(encoded.len() + 64);
    let _: usize = write_frame(&mut wire, NodeId(1), 7, encoded)?;
    let _: (NodeId, u64, Bytes, usize) = read_frame(&mut wire.as_slice())?;

    let checkpoint = Checkpoint {
        system: "ssmw".into(),
        seed: 1,
        round: 1,
        opt_steps: 1,
        model: model.to_vec(),
        velocity: None,
        fault_rng: None,
        attack_rng: None,
    };
    checkpoint.save(dir)?;
    let _: Checkpoint = Checkpoint::load(dir)?;

    let _: fn() = garfield_obs::enable;
    let _: fn() = garfield_obs::disable;
    let _: fn(EventKind, u64, Option<u32>, f64) = flight::record;
    let probe: Histogram = garfield_obs::metrics::histogram("probe_seconds", "A probe.", &[]);
    probe.observe(0.0123);
    let _: fn() -> String = garfield_obs::metrics::render;
    Ok(())
}

/// `benchmark/src/{main,report}.rs`: the engine width it records and the
/// JSON it writes and reads back.
fn report_calls() {
    let _: usize = Engine::auto().threads();
    let _: fn(&str) -> Result<Value, String> = json::parse;
    let _: fn(&mut String, &Value) = json::write_value;
    let _: [Value; 6] = [
        Value::Null,
        Value::Bool(true),
        Value::Number(1.0),
        Value::String(String::new()),
        Value::Array(Vec::new()),
        Value::Object(BTreeMap::new()),
    ];
    let _: fn(&Value) -> Option<f64> = Value::as_f64;
    let _: fn(&Value) -> Option<usize> = Value::as_usize;
    let _: fn(&Value) -> Option<bool> = Value::as_bool;
    let _: fn(&Value) -> Option<&str> = Value::as_str;
    let _: fn(&Value) -> Option<&[Value]> = Value::as_array;
    let _: for<'a> fn(&'a Value, &str) -> Option<&'a Value> = Value::get;
    let _: fn(&Value) -> Value = Value::clone;
}

/// The envelope's payload is what `peek` / `decode_into` read.
fn envelope_payload(envelope: &Envelope) -> &[u8] {
    &envelope.payload
}

#[test]
fn the_benchmark_surface_compiles() {
    // Compiling this file is the test.
}
