//! Hostile frames: what a Byzantine node can put on a server's or a
//! worker's inbox must cost the receiver a `recv` and nothing else — be it
//! a malformed reply, a stranger's flood, or a request or `Shutdown` that
//! only a server may send, whatever id the sender holds.
//!
//! Every scenario runs real [`WorkerNode`](garfield_runtime::WorkerNode)s and
//! a real server over the in-process router, plus one hand-driven endpoint
//! that speaks the wire format but not the protocol, and compare the final
//! model bit for bit against the same-seed run without the intruder.

use garfield_core::{ExperimentConfig, SystemKind};
use garfield_net::{MsgKind, NodeId, Router, RouterTransport, Transport, WireMessage};
use garfield_runtime::node::{assemble, LiveNodes};
use garfield_runtime::{FaultPlan, LiveExecutor, LiveOptions, ServerRun};
use garfield_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const ITERATIONS: usize = 6;

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 6;
    cfg.fw = 1;
    cfg.nps = 1;
    cfg.fps = 0;
    cfg.iterations = ITERATIONS;
    cfg.eval_every = 0;
    cfg
}

fn bits(model: &Tensor) -> Vec<u32> {
    model.data().iter().map(|v| v.to_bits()).collect()
}

fn connect(router: &Router, id: NodeId) -> RouterTransport {
    RouterTransport::connect(router, id).unwrap()
}

/// Runs the single SSMW server of `nodes` to completion over `router`, with
/// every assembled worker except `absent` (whose id the caller drives by
/// hand). The server winds the workers down itself, as a `garfield-node`
/// coordinator would.
fn run_server(router: &Router, nodes: LiveNodes, absent: Option<usize>) -> ServerRun {
    let LiveNodes {
        layout,
        workers,
        mut servers,
        ..
    } = nodes;
    let mut server = servers.remove(0);
    server.shutdown_targets = layout.worker_ids.clone();
    let server_transport = Box::new(connect(router, layout.server_ids[0]));
    let worker_threads: Vec<JoinHandle<_>> = workers
        .into_iter()
        .zip(&layout.worker_ids)
        .enumerate()
        .filter(|(rank, _)| Some(*rank) != absent)
        .map(|(_, (node, &id))| {
            let transport = Box::new(connect(router, id));
            std::thread::spawn(move || node.run(transport))
        })
        .collect();
    let run = server.run(server_transport);
    for thread in worker_threads {
        thread.join().unwrap();
    }
    run.expect("the server must finish every iteration")
}

#[test]
fn a_wrong_length_reply_costs_its_sender_the_round_not_the_run() {
    let cfg = config();
    let hostile_rank = cfg.nw - 1;
    let options = LiveOptions {
        gradient_quorum: Some(cfg.nw - cfg.fw),
        ..LiveOptions::default()
    };

    // The reference: the same worker silent from the first round on.
    let reference = LiveExecutor::new(cfg.clone())
        .with_options(options)
        .with_faults(FaultPlan::new().crash_worker_at(hostile_rank, 0))
        .run_live(SystemKind::Ssmw)
        .unwrap();

    let nodes = assemble(SystemKind::Ssmw, &cfg, &options, &FaultPlan::new()).unwrap();
    let router = Router::new();
    // The hostile worker answers every request at once — always inside the
    // fastest q — with three values where the model has hundreds.
    let endpoint = connect(&router, nodes.layout.worker_ids[hostile_rank]);
    let hostile = std::thread::spawn(move || {
        let mut answered = 0usize;
        while let Ok(envelope) = endpoint.recv_timeout(Duration::from_secs(10)) {
            let header = WireMessage::peek(&envelope.payload).unwrap();
            match header.kind {
                MsgKind::Shutdown => break,
                MsgKind::GradientRequest => {
                    let reply =
                        WireMessage::new(MsgKind::GradientReply, header.round, 0.0, vec![0.5; 3]);
                    // The server may already have closed the last round on
                    // q honest replies and dropped its inbox: a failed send
                    // is what a real worker tolerates too.
                    let _ = endpoint.send(envelope.from, header.round, reply.encode());
                    answered += 1;
                }
                _ => {}
            }
        }
        answered
    });

    let run = run_server(&router, nodes, Some(hostile_rank));
    assert!(hostile.join().unwrap() >= ITERATIONS);
    assert_eq!(run.trace.len(), ITERATIONS);
    assert_eq!(bits(&run.final_model), bits(&reference.final_models[0]));
}

#[test]
fn a_stranger_flooding_well_formed_replies_never_enters_a_quorum() {
    let cfg = config();
    let slow_rank = cfg.nw - 1;
    let options = LiveOptions::default(); // full quorum: q = nw
    let faults = FaultPlan::new().delay_worker(slow_rank, 40);

    let reference = LiveExecutor::new(cfg.clone())
        .with_options(options)
        .with_faults(faults.clone())
        .run_live(SystemKind::Ssmw)
        .unwrap();

    let nodes = assemble(SystemKind::Ssmw, &cfg, &options, &faults).unwrap();
    let server_id = nodes.layout.server_ids[0];
    let dimension = nodes.workers[0].dimension;
    let router = Router::new();
    // Not a worker, not a peer: node 99 sweeps a well-formed, right-sized
    // `GradientReply` for every round of the run every millisecond, so one
    // for the *current* round always lands before the paced honest worker's.
    let stranger = connect(&router, NodeId(99));
    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for round in 0..ITERATIONS as u64 {
                    let reply =
                        WireMessage::new(MsgKind::GradientReply, round, 0.0, vec![1e3; dimension]);
                    let _ = stranger.send(server_id, round, reply.encode());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let run = run_server(&router, nodes, None);
    stop.store(true, Ordering::SeqCst);
    flood.join().unwrap();

    // The flood reached the server (the router counts every sender), so
    // the asserts below show admission dropped it, not that it never came.
    let landed = run
        .telemetry
        .peers
        .iter()
        .find(|p| p.peer == NodeId(99))
        .map_or(0, |p| p.messages_received);
    assert!(landed > 0, "no stranger frame reached the server");
    assert_eq!(run.trace.len(), ITERATIONS);
    assert_eq!(bits(&run.final_model), bits(&reference.final_models[0]));
    let scored: Vec<u32> = run.suspicion.iter().map(|peer| peer.peer).collect();
    assert!(!scored.contains(&99), "the stranger was scored: {scored:?}");
    assert_eq!(scored.len(), cfg.nw, "every worker is scored: {scored:?}");
}

#[test]
fn a_worker_asking_a_worker_for_a_gradient_gets_no_reply() {
    let cfg = config();
    let hostile_rank = cfg.nw - 1;
    let options = LiveOptions {
        gradient_quorum: Some(cfg.nw - cfg.fw),
        ..LiveOptions::default()
    };

    // The asked worker is paced, so the run outlasts the hostile's requests.
    let paced = FaultPlan::new().delay_worker(0, 20);

    // The reference: the hostile worker silent from the first round on.
    let reference = LiveExecutor::new(cfg.clone())
        .with_options(options)
        .with_faults(paced.clone().crash_worker_at(hostile_rank, 0))
        .run_live(SystemKind::Ssmw)
        .unwrap();

    let nodes = assemble(SystemKind::Ssmw, &cfg, &options, &paced).unwrap();
    let honest = nodes.layout.worker_ids[0];
    let dimension = nodes.workers[0].dimension;
    let router = Router::new();
    // The hostile worker never answers the server. On every request it gets,
    // it asks an honest worker for that round's gradient at a model of its
    // own choosing, and counts the replies that come back.
    let endpoint = connect(&router, nodes.layout.worker_ids[hostile_rank]);
    let hostile = std::thread::spawn(move || {
        let (mut asked, mut replies) = (0usize, 0usize);
        while let Ok(envelope) = endpoint.recv_timeout(Duration::from_secs(10)) {
            let header = WireMessage::peek(&envelope.payload).unwrap();
            match header.kind {
                MsgKind::Shutdown => break,
                MsgKind::GradientRequest => {
                    let request = WireMessage::new(
                        MsgKind::GradientRequest,
                        header.round,
                        0.0,
                        vec![0.25; dimension],
                    );
                    // The last round's request may find the worker shut down.
                    if endpoint
                        .send(honest, header.round, request.encode())
                        .is_ok()
                    {
                        asked += 1;
                    }
                }
                MsgKind::GradientReply => replies += 1,
                _ => {}
            }
        }
        (asked, replies)
    });

    let run = run_server(&router, nodes, Some(hostile_rank));
    let (asked, replies) = hostile.join().unwrap();
    assert!(asked > 0);
    assert_eq!(replies, 0, "an honest worker computed for a worker");
    assert_eq!(run.trace.len(), ITERATIONS);
    assert_eq!(bits(&run.final_model), bits(&reference.final_models[0]));
}

#[test]
fn a_worker_forging_shutdown_cannot_stop_an_honest_worker() {
    let cfg = config();
    let hostile_rank = cfg.nw - 1;
    let options = LiveOptions {
        gradient_quorum: Some(cfg.nw - cfg.fw),
        ..LiveOptions::default()
    };

    // The target is paced, so every forged `Shutdown` reaches its inbox
    // while it still has rounds to serve.
    let paced = FaultPlan::new().delay_worker(0, 20);

    // The reference: the hostile worker silent from the first round on.
    let reference = LiveExecutor::new(cfg.clone())
        .with_options(options)
        .with_faults(paced.clone().crash_worker_at(hostile_rank, 0))
        .run_live(SystemKind::Ssmw)
        .unwrap();

    let nodes = assemble(SystemKind::Ssmw, &cfg, &options, &paced).unwrap();
    let honest = nodes.layout.worker_ids[0];
    let router = Router::new();
    // The hostile worker never answers the server. On every request it gets,
    // it tells the honest worker to shut down. Were that obeyed, only
    // nw − 2 workers would be left for a quorum of nw − 1.
    let endpoint = connect(&router, nodes.layout.worker_ids[hostile_rank]);
    let hostile = std::thread::spawn(move || {
        let mut forged = 0usize;
        while let Ok(envelope) = endpoint.recv_timeout(Duration::from_secs(10)) {
            let header = WireMessage::peek(&envelope.payload).unwrap();
            match header.kind {
                MsgKind::Shutdown => break,
                MsgKind::GradientRequest => {
                    let shutdown = WireMessage::control(MsgKind::Shutdown, header.round);
                    if endpoint
                        .send(honest, header.round, shutdown.encode())
                        .is_ok()
                    {
                        forged += 1;
                    }
                }
                _ => {}
            }
        }
        forged
    });

    let run = run_server(&router, nodes, Some(hostile_rank));
    assert!(hostile.join().unwrap() > 0);
    assert_eq!(run.trace.len(), ITERATIONS);
    assert_eq!(bits(&run.final_model), bits(&reference.final_models[0]));
}

#[test]
fn shutdown_from_the_highest_node_id_cannot_stop_an_honest_worker() {
    let cfg = config();
    let options = LiveOptions::default(); // full quorum: q = nw
                                          // The target is paced, so the forged `Shutdown`s reach its inbox while
                                          // it still has rounds to serve.
    let paced = FaultPlan::new().delay_worker(0, 20);

    let reference = LiveExecutor::new(cfg.clone())
        .with_options(options)
        .with_faults(paced.clone())
        .run_live(SystemKind::Ssmw)
        .unwrap();

    let nodes = assemble(SystemKind::Ssmw, &cfg, &options, &paced).unwrap();
    let honest = nodes.layout.worker_ids[0];
    let router = Router::new();
    // No layout assigns u32::MAX, and no id outside the servers may stop a
    // worker. Were it obeyed, the server would miss the paced worker's
    // replies and never gather its full quorum.
    let intruder = connect(&router, NodeId(u32::MAX));
    let stop = Arc::new(AtomicBool::new(false));
    let forger = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut forged = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let shutdown = WireMessage::control(MsgKind::Shutdown, 0);
                if intruder.send(honest, 0, shutdown.encode()).is_ok() {
                    forged += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            forged
        })
    };

    let run = run_server(&router, nodes, None);
    stop.store(true, Ordering::SeqCst);
    assert!(forger.join().unwrap() > 0);
    assert_eq!(run.trace.len(), ITERATIONS);
    assert_eq!(bits(&run.final_model), bits(&reference.final_models[0]));
}
