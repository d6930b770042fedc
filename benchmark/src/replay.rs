//! The layer replay: a single-threaded re-enactment of a workload's rounds
//! through the same public calls the actors make, one span per call.
//!
//! The program has no spans of its own, so its layers are measured from
//! outside: this module does, on the driver thread and in node-id order, what
//! `ServerActor::train` and `WorkerActor::run` do on their threads — snapshot
//! the model, encode, hop, decode, compute, corrupt, aggregate, score,
//! update, and on MSMW pull and merge the peer models — and times each call.
//! At full quorum the actors sort replies by node id, so the serial order
//! feeds every GAR the inputs the live run feeds it and the final model must
//! come out **bit for bit** equal; the caller checks that, which is what
//! shows the replay does the program's work.
//!
//! Not replayed: the per-round `StateChunk` an MSMW replica builds for
//! recovering peers. It runs between rounds, outside the round latency.

use crate::live::fingerprint;
use crate::spans::{Recorder, Span};
use crate::workloads::{Fabric, Workload};
use bytes::Bytes;
use garfield_aggregation::{build_gar, Engine, Gar, SelectionOutcome, SuspicionLedger};
use garfield_core::{ByzantineServer, ByzantineWorker, Deployment, ExperimentConfig, SystemKind};
use garfield_net::{
    stamp_trace, unix_micros, Envelope, MsgKind, NodeId, PayloadPool, Router, RouterTransport,
    Transport, WireMessage,
};
use garfield_runtime::NodeLayout;
use garfield_tensor::{GradientView, Tensor};
use garfield_transport::{ClusterSpec, TcpOptions, TcpTransport};
use std::time::{Duration, Instant};

/// Name of the span around one whole replayed round (the root of its tree).
pub const ROUND: &str = "round";

/// How many of its own honest gradients a Byzantine worker keeps as the
/// attack's estimation view (`ATTACK_HISTORY_ROUNDS` in the actors).
const ATTACK_HISTORY_ROUNDS: usize = 4;

/// What a replay produced.
pub struct Replay {
    pub spans: Vec<Span>,
    pub rounds: usize,
    /// Model dimension `d`.
    pub dimension: usize,
    /// FNV-1a 64 of the observer's final model bits.
    pub fingerprint: u64,
    /// `Deployment::new` milliseconds.
    pub deployment_build_ms: f64,
    /// `compute_accuracy` on the held-out batch, milliseconds.
    pub eval_ms: f64,
    /// Inputs the observer's gradient GAR rejected, summed over rounds.
    pub excluded: u64,
    /// Rounds in which the observer's GAR rejected the Byzantine worker.
    pub byzantine_excluded_rounds: u64,
    /// The observer's last-round GAR inputs (real gradients for the kernel
    /// timings).
    pub gradients: Vec<Vec<f32>>,
}

struct ServerState {
    server: ByzantineServer,
    gar: Box<dyn Gar>,
    ledger: SuspicionLedger,
    outcome: SelectionOutcome,
    pool: PayloadPool,
    seq: u64,
    served: Option<Tensor>,
}

struct WorkerState {
    worker: ByzantineWorker,
    history: Vec<Tensor>,
    values: Vec<f32>,
    seq: u64,
}

/// The endpoints of every node, indexed by node id, on one thread.
struct Endpoints {
    nodes: Vec<Box<dyn Transport>>,
    hop: &'static str,
}

impl Endpoints {
    /// One message from `from` to `to`: `Transport::send`, then the peer's
    /// `recv_timeout`.
    fn hop(
        &self,
        rec: &mut Recorder,
        from: u32,
        to: u32,
        tag: u64,
        payload: Bytes,
    ) -> Result<Envelope, String> {
        let span = rec.open(self.hop, from);
        let sent = self.nodes[from as usize].send(NodeId(to), tag, payload);
        let received =
            sent.and_then(|()| self.nodes[to as usize].recv_timeout(Duration::from_secs(5)));
        rec.close(span);
        received.map_err(|e| format!("replay hop {from} -> {to}: {e}"))
    }
}

/// `encode_stamped` of the actors: encode, stamp the trace header, freeze.
fn encode_stamped(msg: &WireMessage, origin: u32, seq: &mut u64) -> Bytes {
    *seq += 1;
    let mut buf = msg.encode_vec();
    stamp_trace(&mut buf, origin, *seq, unix_micros());
    Bytes::from(buf)
}

/// Replays `config.iterations` rounds of `workload`.
pub fn run(workload: &Workload, config: &ExperimentConfig) -> Result<Replay, String> {
    let err = |e: &dyn std::fmt::Display| format!("replay of {}: {e}", workload.name);
    let system = workload.system;
    config.validate(system).map_err(|e| err(&e))?;

    let started = Instant::now();
    let deployment = Deployment::new(config.clone()).map_err(|e| err(&e))?;
    let deployment_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let parts = deployment.into_live_parts();
    let layout = NodeLayout::of(system, config);
    let nps = layout.server_ids.len();

    let endpoints = match workload.fabric {
        Fabric::Router => {
            let router = Router::new();
            let nodes = (0..layout.len() as u32)
                .map(|id| {
                    RouterTransport::connect(&router, NodeId(id))
                        .map(|t| Box::new(t) as Box<dyn Transport>)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| err(&e))?;
            Endpoints {
                nodes,
                hop: "net.router_hop",
            }
        }
        Fabric::Tcp => {
            let spec = ClusterSpec::localhost(layout.len()).map_err(|e| err(&e))?;
            let mut nodes: Vec<Box<dyn Transport>> = Vec::with_capacity(layout.len());
            for id in 0..layout.len() as u32 {
                let endpoint = TcpTransport::bind(&spec, NodeId(id), TcpOptions::default())
                    .map_err(|e| err(&e))?;
                nodes.push(Box::new(endpoint));
            }
            Endpoints {
                nodes,
                hop: "transport.hop",
            }
        }
    };

    let quorum = config.gradient_quorum(system);
    let (gar_kind, gar_f) = garfield_core::gradient_gar(system, config);
    let mut servers: Vec<ServerState> = Vec::with_capacity(nps);
    for server in parts.servers.into_iter().take(nps) {
        servers.push(ServerState {
            server,
            gar: build_gar(&gar_kind, quorum, gar_f).map_err(|e| err(&e))?,
            ledger: SuspicionLedger::default(),
            outcome: SelectionOutcome::default(),
            pool: PayloadPool::default(),
            seq: 0,
            served: None,
        });
    }
    let mut workers: Vec<WorkerState> = parts
        .workers
        .into_iter()
        .map(|worker| WorkerState {
            worker,
            history: Vec::new(),
            values: Vec::new(),
            seq: 0,
        })
        .collect();
    let byzantine = workload.byzantine_worker();
    let engine = Engine::auto();

    let mut rec = Recorder::new();
    let mut excluded = 0u64;
    let mut byzantine_excluded_rounds = 0u64;
    let mut gradients: Vec<Vec<f32>> = Vec::new();

    for round in 0..config.iterations as u64 {
        rec.set_round(round);
        let root = rec.open(ROUND, 0);

        // --- get_gradients(): each replica broadcasts its model and
        // aggregates what every worker sends back.
        for (s, state) in servers.iter_mut().enumerate() {
            let sid = s as u32;
            let values = rec.span("core.params_snapshot", sid, || {
                state.server.honest().parameters().data().to_vec()
            });
            let request = rec.span("net.encode", sid, || {
                let msg = WireMessage::new(MsgKind::GradientRequest, round, 0.0, values);
                encode_stamped(&msg, sid, &mut state.seq)
            });
            let mut replies: Vec<(u32, Vec<f32>)> = Vec::with_capacity(workers.len());
            for (j, lane) in workers.iter_mut().enumerate() {
                let wid = (nps + j) as u32;
                let envelope = endpoints.hop(&mut rec, sid, wid, round, request.clone())?;
                rec.span("net.decode", wid, || {
                    WireMessage::peek(&envelope.payload)
                        .and_then(|_| WireMessage::decode_into(&envelope.payload, &mut lane.values))
                })
                .map_err(|e| err(&e))?;
                let params = rec.span("runtime.copy", wid, || Tensor::from_slice(&lane.values));
                let (loss, honest) = rec
                    .span("ml.gradient", wid, || {
                        lane.worker.honest_compute(&params, round as usize)
                    })
                    .map_err(|e| err(&e))?;
                let sent = if lane.worker.is_byzantine() {
                    let view = rec.span("runtime.copy", wid, || honest.clone());
                    let sent = rec.span("attacks.corrupt", wid, || {
                        lane.worker.sent_gradient(view, &lane.history)
                    });
                    if lane.history.len() >= ATTACK_HISTORY_ROUNDS {
                        lane.history.remove(0);
                    }
                    lane.history.push(honest);
                    sent
                } else {
                    honest
                };
                let reply = rec.span("net.encode", wid, || {
                    let msg =
                        WireMessage::new(MsgKind::GradientReply, round, loss, sent.into_vec());
                    encode_stamped(&msg, wid, &mut lane.seq)
                });
                let envelope = endpoints.hop(&mut rec, wid, sid, round, reply)?;
                let decoded = rec
                    .span("net.decode", sid, || {
                        let mut values = state.pool.checkout();
                        WireMessage::peek(&envelope.payload)
                            .and_then(|_| WireMessage::decode_into(&envelope.payload, &mut values))
                            .map(|_| values)
                    })
                    .map_err(|e| err(&e))?;
                replies.push((wid, decoded));
            }

            // Replies arrive in worker order here, which is the sender-id
            // order `collect` sorts them into.
            let peers: Vec<u32> = replies.iter().map(|(id, _)| *id).collect();
            let aggregated = {
                let views: Vec<GradientView<'_>> = replies
                    .iter()
                    .map(|(_, values)| GradientView::from(values))
                    .collect();
                rec.span("aggregation.gar", sid, || {
                    state.server.honest().aggregate_views_observed(
                        state.gar.as_ref(),
                        &views,
                        &engine,
                        &mut state.outcome,
                    )
                })
                .map_err(|e| err(&e))?
            };
            rec.span("aggregation.suspicion", sid, || {
                state.ledger.observe_round(round, &peers, &state.outcome)
            });
            rec.span("ml.update", sid, || {
                state.server.honest_mut().update_model(&aggregated)
            })
            .map_err(|e| err(&e))?;

            if s == 0 {
                let rejected = state.outcome.excluded();
                excluded += rejected.len() as u64;
                if byzantine.is_some_and(|b| rejected.contains(&b)) {
                    byzantine_excluded_rounds += 1;
                }
                if round + 1 == config.iterations as u64 {
                    gradients = replies.iter().map(|(_, values)| values.clone()).collect();
                }
            }
            for (_, values) in replies {
                state.pool.restore(values);
            }
            if nps > 1 {
                // The post-update state this replica serves to its peers.
                state.served = Some(rec.span("core.serve_snapshot", sid, || {
                    state.server.served_model(&[])
                }));
            }
        }

        // --- get_models(): each replica pulls every peer's post-update
        // snapshot and merges it with its own model (MSMW only).
        if system == SystemKind::Msmw && nps > 1 {
            for s in 0..nps {
                let sid = s as u32;
                let request = rec.span("net.encode", sid, || {
                    let msg = WireMessage::control(MsgKind::ModelRequest, round);
                    encode_stamped(&msg, sid, &mut servers[s].seq)
                });
                let mut replies: Vec<(u32, Vec<f32>)> = Vec::with_capacity(nps - 1);
                for p in (0..nps).filter(|&p| p != s) {
                    let pid = p as u32;
                    let envelope = endpoints.hop(&mut rec, sid, pid, round, request.clone())?;
                    rec.span("net.decode", pid, || WireMessage::peek(&envelope.payload))
                        .map_err(|e| err(&e))?;
                    let model = rec.span("runtime.copy", pid, || {
                        servers[p].served.clone().expect("snapshot taken above")
                    });
                    let reply = rec.span("net.encode", pid, || {
                        let msg =
                            WireMessage::new(MsgKind::ModelReply, round, 0.0, model.into_vec());
                        encode_stamped(&msg, pid, &mut servers[p].seq)
                    });
                    let envelope = endpoints.hop(&mut rec, pid, sid, round, reply)?;
                    let decoded = rec
                        .span("net.decode", sid, || {
                            let mut values = servers[s].pool.checkout();
                            WireMessage::peek(&envelope.payload)
                                .and_then(|_| {
                                    WireMessage::decode_into(&envelope.payload, &mut values)
                                })
                                .map(|_| values)
                        })
                        .map_err(|e| err(&e))?;
                    replies.push((pid, decoded));
                }
                let state = &mut servers[s];
                let own = rec.span("core.params_snapshot", sid, || {
                    state.server.honest().parameters()
                });
                let mut peers: Vec<u32> = replies.iter().map(|(id, _)| *id).collect();
                peers.push(sid);
                let merged = {
                    let mut inputs: Vec<GradientView<'_>> = replies
                        .iter()
                        .map(|(_, values)| GradientView::from(values))
                        .collect();
                    inputs.push(GradientView::from(&own));
                    rec.span("aggregation.model_gar", sid, || {
                        let gar = build_gar(&config.model_gar, inputs.len(), config.fps)?;
                        gar.aggregate_views_observed(&inputs, &engine, &mut state.outcome)
                    })
                    .map_err(|e| err(&e))?
                };
                rec.span("aggregation.suspicion", sid, || {
                    state.ledger.observe_round(round, &peers, &state.outcome)
                });
                rec.span("ml.write_model", sid, || {
                    state.server.honest_mut().write_model(&merged)
                })
                .map_err(|e| err(&e))?;
                for (_, values) in replies {
                    state.pool.restore(values);
                }
            }
        }
        rec.close(root);
    }

    let observer = servers[0].server.honest();
    let started = Instant::now();
    std::hint::black_box(observer.compute_accuracy(&parts.test_batch));
    let eval_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(Replay {
        spans: rec.into_spans(),
        rounds: config.iterations,
        dimension: parts.dimension,
        fingerprint: fingerprint(observer.parameters().data()),
        deployment_build_ms,
        eval_ms,
        excluded,
        byzantine_excluded_rounds,
        gradients,
    })
}
