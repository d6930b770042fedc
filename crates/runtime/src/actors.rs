//! The worker and server actors: one actor per node, real messages only.
//!
//! Workers are passive repliers (the paper's `Worker` object): they wait for
//! a [`MsgKind::GradientRequest`] carrying the requesting server's model,
//! compute a real gradient on their own shard and send it back. Server
//! replicas drive the training loop: broadcast the model, unblock on the
//! fastest `q` gradient replies, robustly aggregate, update — and, in MSMW,
//! pull peer models the same way. All payloads travel as
//! [`WireMessage`]-encoded bytes through a
//! [`Transport`](garfield_net::Transport) — the in-process router when the
//! [`LiveExecutor`](crate::LiveExecutor) spawns one thread per node, a TCP
//! socket mesh when `garfield-node` runs each actor in its own OS process.
//!
//! Each step of the round is written once: [`Endpoint`] is the only place a
//! frame leaves a transport or is stamped and sent onto one, [`Fault::step`]
//! the only fault gate, [`admit`] the only place a server decides whether to
//! look at a frame, `ServerActor::receive` the only server receive loop —
//! the pull, the catch-up and the linger are three calls of it — and
//! `ServerActor::aggregate_observed` the only path into a GAR.

use crate::admission::{admit, Pull, ServerView, Verdict};
use crate::fault::{Fault, Step};
use crate::node::{ServerNode, ServerRun, WorkerNode};
use garfield_aggregation::{build_gar, Engine, Gar, SelectionOutcome, SuspicionLedger};
use garfield_core::{
    AccuracyPoint, Checkpoint, CoreError, CoreResult, IterationTiming, NodeTelemetry, ShardMap,
    SystemPlan, TrainingTrace,
};
use garfield_net::{
    Envelope, MsgKind, NetError, NetResult, NodeId, PayloadPool, Role, Transport, WireHeader,
    WireMessage, WIRE_HEADER_BYTES,
};
use garfield_obs::flight::{self, EventKind};
use garfield_tensor::{GradientView, Tensor};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Cached `garfield-obs` handles for the actor hot loop: one registry lookup
/// per process, relaxed-atomic updates per round, a load and a branch when
/// observability is disabled. The four phase series are the paper's cost
/// breakdown (Figs. 7/16) measured live instead of post-hoc.
struct ActorObs {
    phase_compute: garfield_obs::Histogram,
    phase_communication: garfield_obs::Histogram,
    phase_aggregation: garfield_obs::Histogram,
    phase_checkpoint: garfield_obs::Histogram,
    round_seconds: garfield_obs::Histogram,
    rounds_total: garfield_obs::Counter,
    pull_retries: garfield_obs::Counter,
    checkpoints_written: garfield_obs::Counter,
    state_chunks_served: garfield_obs::Counter,
}

fn actor_obs() -> &'static ActorObs {
    static OBS: std::sync::OnceLock<ActorObs> = std::sync::OnceLock::new();
    let phase = |name| {
        garfield_obs::metrics::histogram(
            "garfield_phase_seconds",
            "Per-round phase latency (the paper's compute/communication/\
             aggregation breakdown, plus checkpointing), by phase.",
            &[("phase", name)],
        )
    };
    OBS.get_or_init(|| ActorObs {
        phase_compute: phase("compute"),
        phase_communication: phase("communication"),
        phase_aggregation: phase("aggregation"),
        phase_checkpoint: phase("checkpoint"),
        round_seconds: garfield_obs::metrics::histogram(
            "garfield_round_seconds",
            "End-to-end server round latency.",
            &[],
        ),
        rounds_total: garfield_obs::metrics::counter(
            "garfield_rounds_total",
            "Training rounds completed by this endpoint.",
            &[],
        ),
        pull_retries: garfield_obs::metrics::counter(
            "garfield_pull_retries_total",
            "Pull requests re-sent to silent peers.",
            &[],
        ),
        checkpoints_written: garfield_obs::metrics::counter(
            "garfield_checkpoints_written_total",
            "Checkpoints persisted to disk.",
            &[],
        ),
        state_chunks_served: garfield_obs::metrics::counter(
            "garfield_state_chunks_served_total",
            "State-transfer chunks served to recovering peers.",
            &[],
        ),
    })
}

/// One node's end of the wire: its transport, its counters, its per-sender
/// sequence number and its one restart. Both actors take, stamp, send and
/// count every frame through it.
struct Endpoint {
    transport: Box<dyn Transport>,
    telemetry: NodeTelemetry,
    /// Per-sender wire sequence number (trace header fields).
    seq: u64,
    /// Whether a `RestartAt` fault already fired (one restart per run).
    restarted: bool,
}

impl Endpoint {
    fn new(transport: Box<dyn Transport>, role: Role) -> Self {
        Endpoint {
            telemetry: NodeTelemetry::new(transport.local_id().0, role),
            transport,
            seq: 0,
            restarted: false,
        }
    }

    /// Takes the next frame off the transport, waiting at most `wait`: counts
    /// it and peeks its header without materialising the payload. `Ok(None)`
    /// is a frame whose header does not parse — garbage on the wire, which a
    /// correct node drops at the cost of the `recv`.
    fn recv(&mut self, wait: Duration) -> NetResult<Option<(Envelope, WireHeader)>> {
        let envelope = self.transport.recv_timeout(wait)?;
        self.telemetry.record_recv(envelope.payload.len());
        let header = WireMessage::peek(&envelope.payload).ok();
        Ok(header.map(|header| (envelope, header)))
    }

    /// The one stamp-and-send path: stamps an encoded `frame`'s trace fields
    /// (origin node, per-sender sequence number, send timestamp) once and
    /// sends the bytes to every node in `to`. Every recipient of one logical
    /// message observes the same `(origin, seq)` — `expfig trace` can
    /// attribute all of a broadcast's per-peer one-way delays to a single
    /// send. Returns the stamped bytes: retried requests reuse the original
    /// stamp, so the inflated delay a late replier then reports *is* the
    /// silence it rode out.
    fn send(&mut self, to: &[NodeId], round: u64, mut frame: Vec<u8>) -> bytes::Bytes {
        self.seq += 1;
        let (origin, now) = (self.transport.local_id().0, garfield_net::unix_micros());
        garfield_net::stamp_trace(&mut frame, origin, self.seq, now);
        let payload = bytes::Bytes::from(frame);
        for &to in to {
            self.send_bytes(to, round, payload.clone());
        }
        payload
    }

    /// Sends bytes as they are, counting them; per-peer failures are
    /// tolerated (a crashed recipient is exactly what quorums exist for).
    fn send_bytes(&mut self, to: NodeId, tag: u64, payload: bytes::Bytes) {
        let bytes = payload.len();
        if self.transport.send(to, tag, payload).is_ok() {
            self.telemetry.record_send(bytes);
        }
    }

    /// Dies for real and comes back as a fresh incarnation: envelopes
    /// addressed to the dead one are dropped and counted by the transport.
    /// `false` when the substrate cannot rejoin in place (it rejoins by
    /// process respawn): the node stays crashed.
    fn restart(&mut self) -> bool {
        self.transport.crash();
        self.restarted = self.transport.rejoin().is_ok();
        if self.restarted {
            self.telemetry.resumes += 1;
        }
        self.restarted
    }

    /// Lets an asynchronous transport put the queued tail on the wire, then
    /// snapshots the per-peer counters, so they cover every message sent.
    fn flush(&mut self) {
        self.transport.flush(Duration::from_secs(5));
        self.telemetry.peers = self.transport.peer_counters();
    }
}

/// How many sharded rounds a worker keeps in the slice-assembly buffer
/// before evicting the oldest (guards against shard servers that die
/// mid-round and leave a round forever incomplete).
const PENDING_SLICE_ROUNDS: usize = 8;

/// How many served sharded rounds stay re-sliceable for retries. Matches the
/// deepest plausible retry horizon: a shard server only retries its *current*
/// round, and shard servers drift by at most the rounds still in flight.
const SENT_CACHE_ROUNDS: usize = 4;

/// One in-flight sharded round on a worker: the round number plus one slot
/// per shard, each holding the requesting shard server, its coordinate
/// offset and its parameter slice once that shard's request has landed.
type PendingShardRound = (u64, Vec<Option<(NodeId, usize, Vec<f32>)>>);

/// A worker's last full-vector request and what it computed for it:
/// `(round, request wire bytes, loss, honest gradient)`.
type GradientMemo = (u64, bytes::Bytes, f32, Tensor);

/// A worker node running over a transport: the [`WorkerNode`] description
/// plus the loop's own state.
pub(crate) struct WorkerActor {
    node: WorkerNode,
    link: Endpoint,
    /// The number of servers, `local id − worker index` under the
    /// [`NodeLayout`](crate::node::NodeLayout) convention: only ids below it
    /// may ask this worker for a gradient, and only they may stop it.
    servers: u32,
    /// The partition of the model over the shard servers: a sharded request
    /// must carry exactly its shard's coordinate range.
    shard_map: Option<ShardMap>,
    /// Sharded rounds in flight. The gradient is computed once, when the last
    /// slice of a round lands and the full parameter vector can be assembled.
    pending_slices: Vec<PendingShardRound>,
    /// Recently served sharded rounds: `(round, loss, sent gradient)`. A
    /// shard server's retry is answered by re-slicing this cache — never by
    /// recomputing, which would double-draw the attack RNG streams.
    sent_cache: Vec<(u64, f32, Tensor)>,
    /// The last full-vector request and its honest gradient: MSMW replicas
    /// asking for the same round at the same model reuse it (see
    /// `serve_full`).
    memo: Option<GradientMemo>,
}

impl WorkerActor {
    pub fn new(node: WorkerNode, transport: Box<dyn Transport>) -> Self {
        WorkerActor {
            shard_map: ShardMap::new(node.dimension, node.shards).ok(),
            servers: transport
                .local_id()
                .0
                .saturating_sub(node.worker.index() as u32),
            link: Endpoint::new(transport, Role::Worker),
            node,
            pending_slices: Vec::new(),
            sent_cache: Vec::new(),
            memo: None,
        }
    }

    /// The worker loop: serve gradient requests until shutdown, crash or
    /// prolonged silence. Returns the node's network counters.
    pub fn run(mut self) -> NodeTelemetry {
        flight::set_thread_node(self.link.transport.local_id().0);
        // One payload buffer, reused for every decoded shard slice. A
        // full-vector request is decoded straight into the replica.
        let mut values: Vec<f32> = Vec::new();
        // Exits on shutdown/crash, or when the inbox stays silent past the
        // idle timeout (transport gone or run abandoned).
        while let Ok(frame) = self.link.recv(self.node.idle_timeout) {
            let Some((envelope, header)) = frame else {
                continue;
            };
            match header.kind {
                // Only a server may stop a worker: a Byzantine worker must
                // not silence an honest one. (The in-process executor closes
                // the inbox instead, which ends this loop.)
                MsgKind::Shutdown if self.obeys_shutdown_from(envelope.from) => break,
                // A request from a non-server is dropped: a Byzantine worker
                // must not collect honest gradients at a model of its choosing.
                MsgKind::GradientRequest if envelope.from.0 < self.servers => {
                    let round = header.round as usize;
                    match Fault::step(self.node.fault, round, self.link.restarted) {
                        // Go silent: peers must survive via quorums, not errors.
                        Step::Crash => {
                            self.link.transport.crash();
                            break;
                        }
                        // This request dies with the old incarnation.
                        Step::Restart(_) => {
                            if self.link.restart() {
                                continue;
                            }
                            break; // substrate rejoins by process respawn
                        }
                        // Respawned but not yet rejoined: observationally
                        // dead — peers ride the silence out via quorums and
                        // re-requests.
                        Step::Skip => continue,
                        Step::Run(delay) => std::thread::sleep(delay),
                    }
                    if self.node.shards > 1 && header.coord_len != 0 {
                        // Parameter-sharded request: a slice, not the model.
                        if WireMessage::decode_into(&envelope.payload, &mut values).is_ok() {
                            self.serve_shard_slice(envelope.from, &header, &values);
                        }
                    } else {
                        self.serve_full(envelope.from, header.round, envelope.payload);
                    }
                }
                _ => {} // server-to-server traffic never addresses a worker
            }
        }
        self.link.flush();
        self.link.telemetry
    }

    /// Whether `from` may stop this worker: only a server. `Shutdown` comes
    /// once per run, so the check stays out of line: inlined into the
    /// serving loop, it cost `ssmw_router_small` about 8 % more CPU per
    /// round (2-vCPU x86-64 VM).
    #[cold]
    #[inline(never)]
    fn obeys_shutdown_from(&self, from: NodeId) -> bool {
        from.0 < self.servers
    }

    /// Handles one shard server's `GradientRequest` carrying a parameter
    /// *slice* (wire header `coord_len != 0`). Slices are buffered until all
    /// `shards` of a round arrived; the full vector is then assembled, the
    /// gradient computed **once** and corrupted **once** — a Byzantine
    /// worker's RNG trajectory is bit-identical to the unsharded run — and
    /// sent back re-sliced, each shard server receiving exactly the
    /// coordinate range it asked for. Retries of already-served rounds
    /// re-slice the bounded sent-gradient cache instead of recomputing,
    /// which would double-draw the attack streams.
    fn serve_shard_slice(&mut self, from: NodeId, header: &WireHeader, slice: &[f32]) {
        let round = header.round;
        let shard = header.shard as usize;
        let offset = header.coord_offset as usize;
        let expected = self
            .shard_map
            .as_ref()
            .and_then(|map| map.specs().get(shard));
        if expected.map(|spec| (spec.offset, spec.len)) != Some((offset, slice.len())) {
            return; // mis-tagged request: a correct node ignores it
        }
        if let Some((_, loss, sent)) = self.sent_cache.iter().find(|(r, _, _)| *r == round) {
            let triple = (header.shard, header.coord_offset, header.coord_len);
            let values = &sent.data()[offset..offset + slice.len()];
            let reply =
                WireMessage::encode_parts(MsgKind::GradientReply, round, *loss, triple, values);
            self.link.send(&[from], round, reply);
            return;
        }
        if !self.pending_slices.iter().any(|(r, _)| *r == round) {
            // Bound the in-flight rounds: a crashed shard server must not
            // leak assembly buffers for the rest of the run.
            if self.pending_slices.len() >= PENDING_SLICE_ROUNDS {
                if let Some(pos) =
                    (0..self.pending_slices.len()).min_by_key(|&i| self.pending_slices[i].0)
                {
                    self.pending_slices.remove(pos);
                }
            }
            self.pending_slices
                .push((round, vec![None; self.node.shards]));
        }
        let pos = self
            .pending_slices
            .iter()
            .position(|(r, _)| *r == round)
            .expect("entry inserted above");
        let slots = &mut self.pending_slices[pos].1;
        slots[shard] = Some((from, offset, slice.to_vec()));
        if !slots.iter().all(|s| s.is_some()) {
            return; // wait for the round's remaining slices
        }
        let (_, slots) = self.pending_slices.remove(pos);
        // Every slot holds its own shard's range, so together they tile
        // `[0, d)` exactly: each is copied into the replica once.
        let assemble = |own: &mut [f32]| {
            for slot in &slots {
                let (_, off, vals) = slot.as_ref().expect("all slots filled");
                own[*off..*off + vals.len()].copy_from_slice(vals);
            }
        };
        let Some((loss, honest)) = self.compute(round, assemble) else {
            return;
        };
        let worker = &mut self.node.worker;
        let sent = worker.attack(&honest, round as usize).unwrap_or(honest);
        for (k, slot) in slots.iter().enumerate() {
            let (requester, off, vals) = slot.as_ref().expect("all slots filled");
            let triple = (k as u16, *off as u32, vals.len() as u32);
            let values = &sent.data()[*off..*off + vals.len()];
            let reply =
                WireMessage::encode_parts(MsgKind::GradientReply, round, loss, triple, values);
            self.link.send(&[*requester], round, reply);
        }
        self.sent_cache.push((round, loss, sent));
        if self.sent_cache.len() > SENT_CACHE_ROUNDS {
            self.sent_cache.remove(0);
        }
    }

    /// Answers one full-vector `GradientRequest` (wire bytes `request`,
    /// which the receive path's `peek` accepted). A request for the
    /// memoised round whose payload bytes equal the memoised request's
    /// reuses its honest gradient: at full quorum every MSMW replica asks at
    /// the same merged model, so a worker computes once per round instead of
    /// once per replica. Only the payload is compared — the header's trace
    /// stamps differ per sender — and byte for byte: a hash could be
    /// collided by a Byzantine server, and f32 `==` would equate `0.0` with
    /// `-0.0` and never a NaN with itself. Only a miss decodes the request,
    /// straight into the replica's parameters with
    /// [`WireMessage::payload_values`] (the conversion `decode_into` uses,
    /// so the bits are the same): the model is written once, with no buffer
    /// in between. A Byzantine worker still corrupts once per request, with
    /// its peers' gradients at the model in its replica. A request of the
    /// wrong dimension is dropped before the memo is touched, so no node can
    /// evict it with one.
    fn serve_full(&mut self, from: NodeId, round: u64, request: bytes::Bytes) {
        if request.len() != WIRE_HEADER_BYTES + 4 * self.node.dimension {
            return;
        }
        let same = |(r, memo, ..): &GradientMemo| {
            *r == round && memo[WIRE_HEADER_BYTES..] == request[WIRE_HEADER_BYTES..]
        };
        let memo = match self.memo.take() {
            Some(memo) if same(&memo) => {
                self.link.telemetry.gradients_reused += 1;
                memo
            }
            stale => {
                drop(stale); // never hold two gradients at once
                let decode = |own: &mut [f32]| {
                    // The length check above makes the payload exactly
                    // `dimension` values, the replica's length (`compute`).
                    for (dst, v) in own.iter_mut().zip(WireMessage::payload_values(&request)) {
                        *dst = v;
                    }
                };
                let Some((loss, honest)) = self.compute(round, decode) else {
                    return;
                };
                (round, request, loss, honest)
            }
        };
        let (_, _, loss, honest) = &memo;
        let sent = self.node.worker.attack(honest, round as usize);
        let values = sent.as_ref().unwrap_or(honest).data();
        let reply =
            WireMessage::encode_parts(MsgKind::GradientReply, round, *loss, (0, 0, 0), values);
        self.memo = Some(memo);
        self.link.send(&[from], round, reply);
    }

    /// The one compute step of both request shapes: `write` puts the
    /// requested model into the replica, then the honest gradient is
    /// computed there on the `round`-th mini-batch (timed as the compute
    /// phase, the write included). `write` fills `dimension` values, so
    /// `None` when the replica holds another number (a node built with the
    /// wrong `dimension`: no gradient at a half-written model) or when the
    /// shard yields no batch: the request is dropped.
    fn compute(&mut self, round: u64, write: impl FnOnce(&mut [f32])) -> Option<(f32, Tensor)> {
        if self.node.worker.honest().parameters().len() != self.node.dimension {
            return None;
        }
        let compute_span = garfield_obs::span_start();
        let computed = self
            .node
            .worker
            .honest_compute_with(round as usize, write)
            .ok()?;
        garfield_obs::span_end(compute_span, &actor_obs().phase_compute);
        Some(computed)
    }
}

/// One collected reply: sender, aux scalar (loss), payload values.
pub(crate) type Reply = (NodeId, f32, Vec<f32>);

/// A request the server receive loop re-sends every `request_retry` to the
/// recipients that have not answered yet: its stamped bytes, its round and
/// its recipients.
type Ask<'a> = (&'a bytes::Bytes, u64, &'a [NodeId]);

/// What the server receive loop waits for.
#[derive(Clone, Copy)]
enum Until<'a> {
    /// The given number of replies of the given kind to a pull's request.
    Replies(MsgKind, usize, Ask<'a>),
    /// A `StateChunk` at or past the given round, polled for with a
    /// `StateRequest` (the rejoin catch-up).
    Chunk(usize, Ask<'a>),
    /// A `ServerDone` from every peer (the linger).
    PeersDone,
}

/// A server replica running over a transport: the [`ServerNode`] description
/// plus the loop's own state.
pub(crate) struct ServerActor {
    /// The node as assembled (its `resume` record is consumed at start-up).
    node: ServerNode,
    link: Endpoint,
    /// First iteration to run (non-zero after a `--resume` restore).
    start_round: usize,
    /// The state this replica serves to recovering peers, captured at each
    /// iteration boundary and encoded only when a `StateRequest` asks.
    recovery_state: Option<Checkpoint>,
    // Zero-copy aggregation machinery: decoded payloads live in pooled
    // buffers and the GAR reads them through borrowed views under the
    // machine-sized engine (bit-identical to the sequential engine, so
    // full-quorum reproducibility guarantees are unaffected).
    engine: Engine,
    pool: PayloadPool,
    /// The gradient GAR, built once over the gradient quorum.
    gradient_gar: Box<dyn Gar>,
    /// The model merge this replica runs after the gradient update, where it
    /// has peers to pull from (shard servers and a lone replica have none):
    /// the peer quorum, and the merge GAR built once over the `quorum + 1`
    /// models it aggregates (the peers' and its own).
    merge: Option<(usize, Box<dyn Gar>)>,
    // Protocol state.
    round: usize,
    phase1_done: bool,
    /// The models this replica serves to peers, `(round, model)`, for its
    /// last two rounds: snapshotted once per round, right after the gradient
    /// update and before the model merge, so a request for round `r` always
    /// observes the same post-update state no matter when it arrives
    /// relative to this replica's own progress. Round `r` stays servable
    /// after round `r + 1`'s update, because a peer descheduled between
    /// serving its own round-`r` model and asking for ours can still be
    /// merging round `r` by then.
    served_snapshots: Vec<(u64, Tensor)>,
    deferred_requests: Vec<(NodeId, u64)>,
    done_peers: HashSet<NodeId>,
    /// The replies the pull in flight collected so far: what admission
    /// checks for duplicates and the retry skips.
    replies: Vec<Reply>,
    round_latencies: Vec<f64>,
    /// Byzantine forensics: per-peer suspicion accumulated from every GAR
    /// selection this replica performs (gradients and MSMW model merges).
    ledger: SuspicionLedger,
    /// Reused selection report — steady state allocates nothing.
    outcome: SelectionOutcome,
}

impl ServerActor {
    /// Builds the actor from its public description and a transport
    /// endpoint, restoring checkpointed state when the node carries a resume
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the resume checkpoint
    /// belongs to a different experiment, and [`CoreError::Ml`] when its
    /// model does not fit this deployment.
    pub fn from_node(mut node: ServerNode, transport: Box<dyn Transport>) -> CoreResult<Self> {
        let plan = SystemPlan::of(node.system, &node.config);
        let gradient_gar = build_gar(&plan.gradient_gar, node.gradient_quorum, plan.gradient_f)?;
        let merge = match plan.merge.filter(|_| !node.peer_ids.is_empty()) {
            Some(merge) => {
                let gar = build_gar(&merge.gar, merge.quorum + 1, merge.f)?;
                Some((merge.quorum, gar))
            }
            None => None,
        };
        let resume = node.resume.take();
        let mut actor = ServerActor {
            link: Endpoint::new(transport, Role::Server),
            merge,
            node,
            start_round: 0,
            recovery_state: None,
            engine: Engine::auto(),
            pool: PayloadPool::default(),
            gradient_gar,
            round: 0,
            phase1_done: false,
            served_snapshots: Vec::new(),
            deferred_requests: Vec::new(),
            done_peers: HashSet::new(),
            replies: Vec::new(),
            round_latencies: Vec::new(),
            ledger: SuspicionLedger::default(),
            outcome: SelectionOutcome::default(),
        };
        if let Some(cp) = resume {
            cp.validate_for(actor.node.system.as_str(), actor.node.config.seed)?;
            actor.adopt_state(&cp, true)?;
            actor.start_round = cp.round as usize;
            actor.link.telemetry.resumes += 1;
        }
        Ok(actor)
    }

    /// Installs a checkpoint's training state: model, optimizer, and — for a
    /// disk resume of this node's *own* state (`own = true`) — the attack
    /// RNG stream. Live catch-up adopts a *peer's* chunk, whose stream
    /// belongs to that peer and is skipped. The record's `fault_rng` is
    /// ignored: no live node draws from a fault-plan stream.
    fn adopt_state(&mut self, cp: &Checkpoint, own: bool) -> CoreResult<()> {
        let server = self.node.server.honest_mut();
        server.write_model(&Tensor::from_slice(&cp.model))?;
        server
            .optimizer_mut()
            .restore(cp.opt_steps, cp.velocity.as_deref().map(Tensor::from_slice));
        if let Some(words) = cp.attack_rng.filter(|_| own) {
            self.node.server.set_rng_state(words);
        }
        Ok(())
    }

    /// Serializes this replica's current training state as of the completed
    /// iteration `iteration` (the checkpoint resumes at `iteration + 1`).
    fn build_checkpoint(&self, iteration: usize) -> Checkpoint {
        let server = self.node.server.honest();
        Checkpoint {
            system: self.node.system.as_str().to_string(),
            seed: self.node.config.seed,
            round: (iteration + 1) as u64,
            opt_steps: server.optimizer().steps(),
            model: server.parameters().into_vec(),
            velocity: server.optimizer().velocity().map(|v| v.data().to_vec()),
            fault_rng: None, // no live node draws from a fault-plan stream
            attack_rng: Some(self.node.server.rng_state()),
        }
    }

    /// Runs the replica to completion: the training loop, then — success or
    /// liveness failure alike — the worker wind-down this replica owns.
    pub fn run(mut self) -> CoreResult<ServerRun> {
        flight::set_thread_node(self.link.transport.local_id().0);
        let result = self.train();
        // Shutdown is best-effort and unconditional: after a liveness
        // failure the surviving worker processes must not be left waiting
        // out their idle timeout.
        let targets = std::mem::take(&mut self.node.shutdown_targets);
        if !targets.is_empty() {
            let last = self.node.config.iterations as u64;
            let shutdown = WireMessage::control(MsgKind::Shutdown, last).encode_vec();
            self.link.send(&targets, last, shutdown);
        }
        self.link.flush();
        let trace = result?;
        Ok(ServerRun {
            trace,
            final_model: self.node.server.honest().parameters(),
            telemetry: self.link.telemetry,
            round_latencies: self.round_latencies,
            resumed_from: (self.start_round > 0).then_some(self.start_round),
            suspicion: self.ledger.snapshot(),
        })
    }

    /// The replica's training loop.
    fn train(&mut self) -> CoreResult<TrainingTrace> {
        // Sharded replicas export their round as a per-shard gauge so
        // `expfig watch` can show how far the slowest/fastest shard has got.
        let shard_round_gauge = self.node.shard.as_ref().map(|spec| {
            garfield_obs::metrics::gauge(
                "garfield_shard_round",
                "Current training round, per parameter shard.",
                &[("shard", &spec.index.to_string())],
            )
        });
        let iterations = self.node.config.iterations;
        let mut trace = TrainingTrace::new(
            self.node.system.as_str(),
            self.node.config.effective_batch(),
        );
        let merge_quorum = self.merge.as_ref().map(|(quorum, _)| *quorum);

        let mut iteration = self.start_round;
        while iteration < iterations {
            self.round = iteration;
            self.phase1_done = false;
            match Fault::step(self.node.fault, iteration, self.link.restarted) {
                Step::Crash => {
                    self.link.transport.crash();
                    return Ok(trace);
                }
                // Come back and catch up from the fastest live peer's
                // StateChunk — or, where the substrate rejoins by process
                // respawn, stay crashed.
                Step::Restart(rejoin) => {
                    if !self.link.restart() {
                        return Ok(trace);
                    }
                    iteration = self.catch_up(rejoin.max(iteration))?;
                    continue;
                }
                Step::Run(delay) => std::thread::sleep(delay),
                Step::Skip => {} // unreachable: catch-up resumes at or past `rejoin`
            }
            let round_start = Instant::now();
            flight::record(EventKind::RoundStart, iteration as u64, None, 0.0);
            garfield_obs::http::set_health_round(iteration as u64);
            if let Some(gauge) = &shard_round_gauge {
                gauge.set(iteration as f64);
            }

            // --- get_gradients(iteration, q): broadcast the model (a shard
            // server's model is its slice, tagged with the coordinate range
            // so workers can assemble the full vector), unblock on the
            // fastest q gradient replies, aggregate, update.
            let (kind, round) = (MsgKind::GradientRequest, iteration as u64);
            let model = self.node.server.honest().parameters();
            let request =
                WireMessage::encode_parts(kind, round, 0.0, self.shard_triple(), model.data());
            let workers = self.node.worker_ids.clone();
            let replies = self.pull(request, kind, round, &workers, self.node.gradient_quorum)?;
            let mut loss_sum = 0.0f32;
            for (_, loss, _) in &replies {
                loss_sum += loss;
            }
            let mean_loss = loss_sum / replies.len() as f32;
            let mut communication = round_start.elapsed().as_secs_f64();

            let aggregate_start = Instant::now();
            let aggregated = self.aggregate_observed(replies, false)?;
            self.node.server.honest_mut().update_model(&aggregated)?;
            let mut aggregation = aggregate_start.elapsed().as_secs_f64();

            self.end_update();

            // --- get_models(q): the same pull over the peer replicas, merged
            // with this replica's own model and written (not stepped) back.
            if let Some(quorum) = merge_quorum {
                let pull_start = Instant::now();
                let kind = MsgKind::ModelRequest;
                let request = WireMessage::control(kind, iteration as u64).encode_vec();
                let peers = self.node.peer_ids.clone();
                let models = self.pull(request, kind, iteration as u64, &peers, quorum)?;
                communication += pull_start.elapsed().as_secs_f64();

                let merge_start = Instant::now();
                let merged = self.aggregate_observed(models, true)?;
                self.node.server.honest_mut().write_model(&merged)?;
                aggregation += merge_start.elapsed().as_secs_f64();
            }

            // Live timing is wall-clock: the server cannot separate its
            // workers' compute from transfer, so the whole pull shows up as
            // communication and only the local GAR time is split out.
            trace.iterations.push(IterationTiming {
                computation: 0.0,
                communication,
                aggregation,
            });
            let round_latency = round_start.elapsed().as_secs_f64();
            self.round_latencies.push(round_latency);
            let obs = actor_obs();
            obs.phase_communication.observe(communication);
            obs.phase_aggregation.observe(aggregation);
            obs.round_seconds.observe(round_latency);
            obs.rounds_total.inc();
            flight::record(EventKind::RoundEnd, iteration as u64, None, round_latency);

            if let Some(test) = &self.node.test_batch {
                let every = self.node.config.eval_every;
                let last = iteration + 1 == iterations;
                if every != 0 && (iteration.is_multiple_of(every) || last) {
                    let accuracy = self.node.server.honest().compute_accuracy(test);
                    trace.accuracy.push(AccuracyPoint {
                        iteration,
                        sim_time: trace.total_time(),
                        accuracy,
                        loss: mean_loss,
                    });
                }
            }

            // The iteration boundary is the recoverable state: refresh the
            // record a StateChunk serves to catching-up peers and, on the
            // configured cadence, persist the same record to disk.
            self.record_recovery_state(iteration)?;
            iteration += 1;
        }
        self.linger();
        Ok(trace)
    }

    /// The shard triple `(shard, coord_offset, coord_len)` this server tags
    /// its requests with and requires on replies: its own coordinate range,
    /// `(0, 0, 0)` when it holds the full vector.
    fn shard_triple(&self) -> (u16, u32, u32) {
        self.node.shard.map_or((0, 0, 0), |spec| {
            (spec.index as u16, spec.offset as u32, spec.len as u32)
        })
    }

    /// The paper's `get_gradients()` / `get_models()`: sends the encoded
    /// `request` (of `kind`, for `round`) to `recipients` and receives until
    /// `want` replies arrived or the round deadline passed.
    ///
    /// Requests are idempotent (a worker answers the same round at the same
    /// model with the same gradient; model pulls answer from snapshots), so
    /// the receive loop's re-asking never changes what a live peer
    /// contributes — it exists for the peer whose first request died with a
    /// crashed incarnation and who can only contribute to this round if
    /// asked again.
    ///
    /// The result is sorted by sender id, which makes the aggregation input
    /// independent of message arrival *order*. Note the quorum *membership*
    /// is still arrival-driven when `want` is below the number of live
    /// repliers: full-quorum (synchronous) runs are bit-reproducible,
    /// sub-quorum asynchronous runs are live but not.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when fewer than `want` replies arrived in
    /// time — a liveness violation.
    fn pull(
        &mut self,
        request: Vec<u8>,
        kind: MsgKind,
        round: u64,
        recipients: &[NodeId],
        want: usize,
    ) -> CoreResult<Vec<Reply>> {
        let (reply, what) = match kind {
            MsgKind::GradientRequest => (MsgKind::GradientReply, "gradient"),
            _ => (MsgKind::ModelReply, "model"),
        };
        let request = self.link.send(recipients, round, request);
        flight::record(EventKind::PullIssued, round, None, want as f64);
        self.receive(Until::Replies(reply, want, (&request, round, recipients)));
        let mut replies = std::mem::take(&mut self.replies);
        replies.sort_by_key(|(id, _, _)| *id);
        flight::record(EventKind::QuorumFormed, round, None, replies.len() as f64);
        if replies.len() < want {
            return Err(self.liveness_error(what, round as usize, replies.len(), want));
        }
        Ok(replies)
    }

    /// The one server receive loop: services admitted frames until `until`
    /// is met or the round deadline passes, handing protocol traffic to
    /// [`handle_protocol`](Self::handle_protocol) along the way. Every
    /// `request_retry`, the already-stamped request of `until`, if any, is
    /// re-sent to those of its recipients not yet in `self.replies`; a pull
    /// counts these as retries. A pull's replies are decoded into
    /// `self.replies`.
    ///
    /// Returns the adopted checkpoint when catching up, `None` otherwise:
    /// each caller judges its own outcome.
    fn receive(&mut self, until: Until<'_>) -> Option<Checkpoint> {
        let deadline = Instant::now() + self.node.round_deadline;
        let mut next_ask = Instant::now() + self.node.request_retry;
        let (pull, ask) = match until {
            Until::Replies(kind, _, ask) => (Some(kind), Some(ask)),
            Until::Chunk(_, ask) => (None, Some(ask)),
            Until::PeersDone => (None, None),
        };
        loop {
            let met = match until {
                Until::Replies(_, want, _) => self.replies.len() >= want,
                Until::Chunk(..) => false,
                Until::PeersDone => self.done_peers.len() >= self.node.peer_ids.len(),
            };
            let now = Instant::now();
            if met || now >= deadline {
                return None;
            }
            if now >= next_ask {
                if let Some((request, round, recipients)) = ask {
                    for &to in recipients {
                        if self.replies.iter().any(|(id, _, _)| *id == to) {
                            continue;
                        }
                        self.link.send_bytes(to, round, request.clone());
                        if pull.is_some() {
                            self.link.telemetry.requests_retried += 1;
                            actor_obs().pull_retries.inc();
                            flight::record(EventKind::PullRetried, round, Some(to.0), 0.0);
                        }
                    }
                }
                next_ask = now + self.node.request_retry;
            }
            let wait = deadline.min(next_ask).saturating_duration_since(now);
            let (envelope, header) = match self.link.recv(wait) {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(NetError::Timeout) => continue,
                Err(_) => return None,
            };
            let view = ServerView {
                pull: pull.zip(ask).map(|(kind, (_, round, recipients))| Pull {
                    kind,
                    round,
                    recipients,
                    collected: &self.replies,
                }),
                shard: self.shard_triple(),
                dimension: self.node.server.honest().dimension(),
                peers: &self.node.peer_ids,
            };
            match (admit(envelope.from, &header, &view), until) {
                (Verdict::Drop, _) => {}
                (Verdict::Reply, _) => {
                    let mut values = self.pool.checkout();
                    if WireMessage::decode_into(&envelope.payload, &mut values).is_ok() {
                        self.replies.push((envelope.from, header.aux, values));
                        let from = Some(envelope.from.0);
                        flight::record(EventKind::PullSatisfied, header.round, from, 0.0);
                    } else {
                        self.pool.restore(values); // unreachable: peek accepted
                    }
                }
                (_, Until::Chunk(min_round, _)) if header.kind == MsgKind::StateChunk => {
                    // A chunk is adopted only if it survives every shape
                    // check a Byzantine peer could fail: decodable state,
                    // experiment identity, model and velocity dimensions,
                    // freshness (a peer not there yet: keep polling). A
                    // hostile chunk must cost this replica nothing but the
                    // poll — never an aborted run.
                    let d = self.node.server.honest().dimension();
                    let fresh = WireMessage::decode(&envelope.payload)
                        .ok()
                        .and_then(|chunk| Checkpoint::from_wire_words(&chunk.values).ok())
                        .filter(|cp| {
                            cp.validate_for(self.node.system.as_str(), self.node.config.seed)
                                .is_ok()
                                && cp.model.len() == d
                                && cp.velocity.as_ref().is_none_or(|v| v.len() == d)
                                && cp.round as usize >= min_round
                        });
                    if fresh.is_some() {
                        self.link.telemetry.state_chunks_received += 1;
                        return fresh;
                    }
                }
                (_, _) => self.handle_protocol(envelope.from, header.kind, header.round),
            }
        }
    }

    /// Aggregates one pull's `replies` straight from the decoded wire
    /// payloads — the GAR reads the pooled buffers through borrowed views,
    /// no per-reply `Tensor` on the hot path — and scores every contributor
    /// in the suspicion ledger. A gradient pull runs the replica's gradient
    /// GAR over the replies alone; a model pull (`models`) runs the merge
    /// GAR over the replies plus this replica's own model, which takes the
    /// last index.
    fn aggregate_observed(&mut self, replies: Vec<Reply>, models: bool) -> CoreResult<Tensor> {
        // Replies are sorted by sender id (see `pull`), so view index `i` of
        // the outcome belongs to `peers[i]`.
        let mut peers: Vec<u32> = replies.iter().map(|(id, _, _)| id.0).collect();
        let mut views: Vec<GradientView<'_>> = replies
            .iter()
            .map(|(_, _, values)| GradientView::from(values))
            .collect();
        let own = models.then(|| self.node.server.honest().parameters());
        if let Some(own) = &own {
            peers.push(self.link.transport.local_id().0);
            views.push(GradientView::from(own));
        }
        let gar = match &self.merge {
            Some((_, model_gar)) if models => model_gar.as_ref(),
            _ => self.gradient_gar.as_ref(),
        };
        let aggregated = self.node.server.honest().aggregate_views_observed(
            gar,
            &views,
            &self.engine,
            &mut self.outcome,
        )?;
        drop(views);
        self.ledger
            .observe_round(self.round as u64, &peers, &self.outcome);
        for (_, _, values) in replies {
            self.pool.restore(values);
        }
        Ok(aggregated)
    }

    /// Handles admitted protocol traffic. Only the header matters: requests
    /// and done-markers carry no payload.
    fn handle_protocol(&mut self, from: NodeId, kind: MsgKind, round: u64) {
        match kind {
            MsgKind::ModelRequest => {
                // Serve the post-update state of the requested round: a
                // request for a round this replica has not yet updated for
                // (its own round, pre-update, or a future round a fast peer
                // raced into) is deferred until the matching snapshot exists
                // — sim semantics, where get_models() always observes peers
                // after their gradient step of the same round.
                let requested = round as usize;
                if requested < self.round || (requested == self.round && self.phase1_done) {
                    self.serve_model(from, round);
                } else {
                    self.deferred_requests.push((from, round));
                }
            }
            MsgKind::ServerDone => {
                self.done_peers.insert(from);
            }
            MsgKind::StateRequest => {
                // A recovering peer wants to catch up. Serve the latest
                // iteration-boundary state; `round` names the lowest round
                // the requester will accept, but serving an older one is
                // harmless — the requester keeps polling until the cluster
                // has advanced far enough.
                if let Some(cp) = &self.recovery_state {
                    let next_round = cp.round;
                    let message = WireMessage::new(
                        MsgKind::StateChunk,
                        next_round,
                        0.0, // chunk index: state fits a single frame today
                        cp.to_wire_words(),
                    );
                    // Deliberately unstamped (zero trace fields): every
                    // request for one boundary gets the same bytes, the
                    // record's encoding and nothing else. Transports skip
                    // unstamped payloads when recording wire trace events.
                    self.link.send_bytes(from, next_round, message.encode());
                    self.link.telemetry.state_chunks_served += 1;
                    actor_obs().state_chunks_served.inc();
                    flight::record(EventKind::StateChunkServed, next_round, Some(from.0), 0.0);
                }
            }
            _ => {} // a `StateChunk` nobody is catching up on
        }
    }

    /// Refreshes the recovery artefacts at the boundary of the completed
    /// `iteration`: the in-memory state served to catching-up peers (only
    /// where peers exist to request it) and, on the configured cadence, the
    /// on-disk checkpoint.
    fn record_recovery_state(&mut self, iteration: usize) -> CoreResult<()> {
        let serve_peers = !self.node.peer_ids.is_empty();
        let disk = self.node.checkpoint.as_ref().filter(|p| p.due(iteration));
        if !serve_peers && disk.is_none() {
            return Ok(());
        }
        // One state capture feeds both transports: the model (and velocity)
        // copy is the expensive part at large d, so never take it twice.
        let cp = self.build_checkpoint(iteration);
        if let Some(policy) = disk {
            let span = garfield_obs::span_start();
            cp.save(policy.dir.clone())?;
            let spent = garfield_obs::span_end(span, &actor_obs().phase_checkpoint);
            self.link.telemetry.checkpoints_written += 1;
            actor_obs().checkpoints_written.inc();
            flight::record(
                EventKind::CheckpointWritten,
                iteration as u64,
                None,
                spent.map(|d| d.as_secs_f64()).unwrap_or(0.0),
            );
        }
        if serve_peers {
            self.recovery_state = Some(cp);
        }
        Ok(())
    }

    /// The rejoin catch-up: poll live peers with `StateRequest` until one
    /// serves a `StateChunk` at or past `min_round`, adopt its model and
    /// optimizer state, and return the round training resumes at.
    ///
    /// While catching up the replica is not silent: it keeps answering peer
    /// model requests with its (stale) crash-time snapshot — a straggler's
    /// behaviour, covered by the model GAR's `fps` tolerance — so peers at
    /// full model quorum are not stalled by the recovery.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when no peer serves a fresh-enough chunk
    /// before the round deadline.
    fn catch_up(&mut self, min_round: usize) -> CoreResult<usize> {
        // Every model request now counts as "past round" (as in `linger`):
        // served at once from the stale snapshot rather than deferred. The
        // training loop resets both fields when it resumes.
        self.round = usize::MAX;
        self.phase1_done = true;
        let (peers, round) = (self.node.peer_ids.clone(), min_round as u64);
        let request = WireMessage::control(MsgKind::StateRequest, round).encode_vec();
        let request = self.link.send(&peers, round, request);
        let Some(adopted) = self.receive(Until::Chunk(min_round, (&request, round, &peers))) else {
            return Err(self.liveness_error("state", min_round, 0, 1));
        };
        self.adopt_state(&adopted, false)?;
        Ok((adopted.round as usize).min(self.node.config.iterations))
    }

    /// Marks this round's gradient update done. The model is now the
    /// post-update state of the round: a replica with a merge phase
    /// snapshots it as the vector served to peers (one Byzantine corruption
    /// per round, so the served content is scheduling-independent), then
    /// answers any get_models() that raced ahead of it. Only the merge
    /// phase asks for models, so a replica without one (crash-tolerant,
    /// shard servers) snapshots nothing.
    fn end_update(&mut self) {
        self.phase1_done = true;
        if self.merge.is_some() {
            self.refresh_served_snapshot();
        }
        self.flush_deferred();
    }

    /// Recomputes the vector this replica serves to peers (corrupted inside
    /// [`ByzantineServer::served_model`](garfield_core::ByzantineServer::served_model)
    /// if the replica is Byzantine).
    fn refresh_served_snapshot(&mut self) {
        let served = self.node.server.served_model(&[]);
        if self.served_snapshots.len() == 2 {
            self.served_snapshots.remove(0);
        }
        self.served_snapshots.push((self.round as u64, served));
    }

    /// Replies to a peer's `get_models()` with the model snapshotted for the
    /// requested round, encoded straight from the snapshot.
    ///
    /// Requests for a round no longer kept (possible only in sub-quorum
    /// asynchronous regimes, where a replica can outrun a slow peer) are
    /// answered with the latest snapshot — the freshest state the replica
    /// can still offer.
    fn serve_model(&mut self, to: NodeId, round: u64) {
        let snapshots = &self.served_snapshots;
        let Some((_, model)) = snapshots
            .iter()
            .find(|(r, _)| *r == round)
            .or(snapshots.last())
        else {
            return; // no completed phase 1 yet: the peer's deadline handles it
        };
        let reply =
            WireMessage::encode_parts(MsgKind::ModelReply, round, 0.0, (0, 0, 0), model.data());
        self.link.send(&[to], round, reply);
    }

    /// Serves the deferred model requests whose round this replica has now
    /// updated for, keeping later ones deferred.
    fn flush_deferred(&mut self) {
        let current = self.round;
        let pending = std::mem::take(&mut self.deferred_requests);
        for (to, round) in pending {
            if round as usize <= current {
                self.serve_model(to, round);
            } else {
                self.deferred_requests.push((to, round));
            }
        }
    }

    /// After the last iteration, keep serving peer model requests until every
    /// peer announced completion (or the deadline passes), so slower replicas
    /// can finish their final `get_models()` round. Replicas without a merge
    /// phase linger too: the same loop serves `StateChunk`s to a peer that
    /// restarts late and is still catching up.
    fn linger(&mut self) {
        if self.node.peer_ids.is_empty() {
            return;
        }
        self.round = usize::MAX; // every request now counts as "past round"
        self.phase1_done = true;
        self.flush_deferred();
        let last = self.node.config.iterations as u64;
        let done = WireMessage::control(MsgKind::ServerDone, last).encode_vec();
        self.link.send(&self.node.peer_ids, last, done);
        self.receive(Until::PeersDone);
    }

    fn liveness_error(&self, what: &str, iteration: usize, got: usize, want: usize) -> CoreError {
        CoreError::Net(format!(
            "live {}: server {} collected only {got}/{want} {what} replies for iteration \
             {iteration} within {:?} — deploy n ≥ q + f nodes to preserve liveness",
            self.node.system, self.node.index, self.node.round_deadline
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{assemble, LiveNodes};
    use crate::{FaultPlan, LiveOptions};
    use garfield_core::{ExperimentConfig, ShardSpec, SystemKind};
    use garfield_net::{Router, RouterTransport};

    /// The nodes of a one-worker deployment split over `shards` shard
    /// servers.
    fn sharded_nodes(shards: usize) -> LiveNodes {
        let mut cfg = ExperimentConfig::small();
        cfg.nw = 1;
        cfg.fw = 0;
        cfg.shards = shards;
        cfg.gradient_gar = garfield_aggregation::GarKind::Median;
        cfg.iterations = 2;
        let options = LiveOptions::default();
        assemble(SystemKind::Ssmw, &cfg, &options, &FaultPlan::new()).unwrap()
    }

    #[test]
    fn a_model_request_is_served_the_snapshot_of_its_round() {
        let cfg = ExperimentConfig::small();
        let options = LiveOptions::default();
        let mut nodes = assemble(SystemKind::Msmw, &cfg, &options, &FaultPlan::new()).unwrap();
        let router = Router::new();
        let peer = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(0)).unwrap());
        let mut actor = ServerActor::from_node(nodes.servers.swap_remove(0), transport).unwrap();
        // This replica finished round 3's update while a descheduled peer
        // still merges round 2 (full quorum, no fault: just a late request).
        actor.served_snapshots = vec![
            (2, Tensor::from_slice(&[2.0])),
            (3, Tensor::from_slice(&[3.0])),
        ];
        actor.round = 3;
        actor.phase1_done = true;
        // A kept round gets its own snapshot; one no longer kept the latest.
        for (asked, served) in [(2, 2.0), (3, 3.0), (0, 3.0)] {
            actor.handle_protocol(NodeId(1), MsgKind::ModelRequest, asked);
            let env = peer.recv_timeout(Duration::from_secs(1)).unwrap();
            let reply = WireMessage::decode(&env.payload).unwrap();
            assert_eq!((reply.kind, reply.round), (MsgKind::ModelReply, asked));
            assert_eq!(reply.values, vec![served]);
        }
    }

    #[test]
    fn only_a_replica_with_a_merge_phase_snapshots_its_model() {
        let cfg = ExperimentConfig::small();
        let options = LiveOptions::default();
        for (system, snapshots) in [(SystemKind::CrashTolerant, 0), (SystemKind::Msmw, 1)] {
            let mut nodes = assemble(system, &cfg, &options, &FaultPlan::new()).unwrap();
            let router = Router::new();
            let transport = Box::new(RouterTransport::connect(&router, NodeId(0)).unwrap());
            let mut actor =
                ServerActor::from_node(nodes.servers.swap_remove(0), transport).unwrap();
            assert!(!actor.node.peer_ids.is_empty(), "{system:?} has peers");
            actor.round = 1;
            actor.end_update();
            assert_eq!(actor.served_snapshots.len(), snapshots, "{system:?}");
        }
    }

    #[test]
    fn a_state_chunk_holds_the_boundary_state() {
        let cfg = ExperimentConfig::small();
        let options = LiveOptions::default();
        let mut nodes = assemble(SystemKind::Msmw, &cfg, &options, &FaultPlan::new()).unwrap();
        let router = Router::new();
        let peer = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(0)).unwrap());
        let mut actor = ServerActor::from_node(nodes.servers.swap_remove(0), transport).unwrap();
        actor.record_recovery_state(3).unwrap();
        let boundary = actor.build_checkpoint(3).encode();
        // The model moves on before any peer asks.
        let dimension = actor.node.server.honest().parameters().len();
        let step = Tensor::from_slice(&vec![0.5; dimension]);
        actor.node.server.honest_mut().update_model(&step).unwrap();
        assert_ne!(actor.build_checkpoint(3).encode(), boundary);

        actor.handle_protocol(NodeId(1), MsgKind::StateRequest, 4);
        let env = peer.recv_timeout(Duration::from_secs(1)).unwrap();
        let header = WireMessage::peek(&env.payload).unwrap();
        assert_eq!((header.kind, header.round), (MsgKind::StateChunk, 4));
        assert_eq!((header.origin, header.seq, header.sent_unix_us), (0, 0, 0));
        let reply = WireMessage::decode(&env.payload).unwrap();
        let served = Checkpoint::from_wire_words(&reply.values).unwrap();
        assert_eq!(served.encode(), boundary);
        assert_eq!(actor.link.telemetry.state_chunks_served, 1);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn worker_assembles_slices_computes_once_and_reslices_replies_bit_exactly() {
        let LiveNodes {
            mut workers,
            servers,
            ..
        } = sharded_nodes(2);
        let specs: Vec<ShardSpec> = servers.iter().map(|s| s.shard.unwrap()).collect();
        // The full initial model, stitched from the shard servers' slices.
        let initial: Vec<f32> = servers
            .iter()
            .flat_map(|s| s.server.honest().parameters().into_vec())
            .collect();

        // The unsharded reference: an identically-constructed worker
        // computing on the full parameter vector.
        let mut reference = sharded_nodes(2).workers.remove(0).worker;
        let (ref_loss, ref_grad) = reference
            .honest_compute(&Tensor::from_slice(&initial), 0)
            .unwrap();

        let router = Router::new();
        let s0 = RouterTransport::connect(&router, NodeId(0)).unwrap();
        let s1 = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut node = workers.remove(0);
        node.idle_timeout = Duration::from_secs(5);
        let actor = WorkerActor::new(node, transport);
        let handle = std::thread::spawn(move || actor.run());

        let send_slice = |t: &RouterTransport, spec: ShardSpec, round: u64| {
            let msg = WireMessage::new(
                MsgKind::GradientRequest,
                round,
                0.0,
                spec.slice(&initial).to_vec(),
            )
            .with_shard(spec.index as u16, spec.offset as u32, spec.len as u32);
            t.send(NodeId(2), round, msg.encode()).unwrap();
        };
        let recv_reply = |t: &RouterTransport, spec: ShardSpec| -> (f32, Vec<f32>) {
            let env = t.recv_timeout(Duration::from_secs(5)).unwrap();
            let header = WireMessage::peek(&env.payload).unwrap();
            assert_eq!(header.kind, MsgKind::GradientReply);
            assert_eq!(header.round, 0);
            assert_eq!(header.shard as usize, spec.index);
            assert_eq!(header.coord_offset as usize, spec.offset);
            assert_eq!(header.coord_len as usize, spec.len);
            let msg = WireMessage::decode(&env.payload).unwrap();
            (header.aux, msg.values)
        };

        // No reply until the round's *last* slice lands.
        send_slice(&s0, specs[0], 0);
        assert!(matches!(
            s0.recv_timeout(Duration::from_millis(150)),
            Err(garfield_net::NetError::Timeout)
        ));
        send_slice(&s1, specs[1], 0);
        let (loss0, slice0) = recv_reply(&s0, specs[0]);
        let (loss1, slice1) = recv_reply(&s1, specs[1]);

        // Both shards observe the same loss, and the stitched slices are the
        // unsharded gradient, bit for bit.
        assert_eq!(loss0.to_bits(), ref_loss.to_bits());
        assert_eq!(loss1.to_bits(), ref_loss.to_bits());
        let mut stitched = slice0;
        stitched.extend_from_slice(&slice1);
        assert_eq!(bits(&stitched), bits(ref_grad.data()));

        // A retry re-slices the sent cache bit-exactly (no recompute).
        send_slice(&s1, specs[1], 0);
        let (retry_loss, retry_slice) = recv_reply(&s1, specs[1]);
        assert_eq!(retry_loss.to_bits(), ref_loss.to_bits());
        assert_eq!(bits(&retry_slice), bits(&stitched[specs[1].range()]));

        s0.send(
            NodeId(2),
            1,
            WireMessage::control(MsgKind::Shutdown, 1).encode(),
        )
        .unwrap();
        let telemetry = handle.join().unwrap();
        assert_eq!(
            telemetry.messages_sent, 3,
            "two first replies plus one cached retry"
        );
    }

    #[test]
    fn worker_ignores_a_slice_tagged_with_another_shards_range() {
        let LiveNodes {
            mut workers,
            servers,
            ..
        } = sharded_nodes(2);
        let specs: Vec<ShardSpec> = servers.iter().map(|s| s.shard.unwrap()).collect();
        let initial: Vec<f32> = servers
            .iter()
            .flat_map(|s| s.server.honest().parameters().into_vec())
            .collect();
        let router = Router::new();
        let s0 = RouterTransport::connect(&router, NodeId(0)).unwrap();
        let s1 = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut node = workers.remove(0);
        node.idle_timeout = Duration::from_secs(5);
        let handle = std::thread::spawn(move || WorkerActor::new(node, transport).run());
        // Shard `spec`'s values, tagged as starting at coordinate `offset`.
        let request = |spec: ShardSpec, offset: usize| {
            WireMessage::new(
                MsgKind::GradientRequest,
                0,
                0.0,
                spec.slice(&initial).to_vec(),
            )
            .with_shard(spec.index as u16, offset as u32, spec.len as u32)
            .encode()
        };

        // Shard 1's slice tagged at shard 0's offset: the lengths still sum
        // to d, but the assembled vector would overwrite shard 0's range and
        // leave shard 1's coordinates zero. Nobody is answered.
        s0.send(NodeId(2), 0, request(specs[0], specs[0].offset))
            .unwrap();
        s1.send(NodeId(2), 0, request(specs[1], specs[0].offset))
            .unwrap();
        for server in [&s0, &s1] {
            assert!(matches!(
                server.recv_timeout(Duration::from_millis(150)),
                Err(garfield_net::NetError::Timeout)
            ));
        }
        // The correctly tagged slice completes the round for both servers.
        s1.send(NodeId(2), 0, request(specs[1], specs[1].offset))
            .unwrap();
        for (server, spec) in [(&s0, specs[0]), (&s1, specs[1])] {
            let env = server.recv_timeout(Duration::from_secs(5)).unwrap();
            let header = WireMessage::peek(&env.payload).unwrap();
            assert_eq!(header.kind, MsgKind::GradientReply);
            assert_eq!(header.coord_offset as usize, spec.offset);
        }

        s0.send(
            NodeId(2),
            1,
            WireMessage::control(MsgKind::Shutdown, 1).encode(),
        )
        .unwrap();
        assert_eq!(handle.join().unwrap().messages_sent, 2);
    }

    /// Runs a fresh unsharded worker, sends it each `(server, params, seq)`
    /// as a round-0 `GradientRequest` from node `server` stamped with `seq`,
    /// and returns its `(loss, gradient)` replies in order plus its
    /// telemetry. A request of the wrong dimension gets no reply, so none is
    /// awaited.
    fn serve_requests(requests: &[(u32, &[f32], u64)]) -> (Vec<(f32, Vec<f32>)>, NodeTelemetry) {
        let router = Router::new();
        let servers: Vec<_> = (0..2)
            .map(|id| RouterTransport::connect(&router, NodeId(id)).unwrap())
            .collect();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut node = sharded_nodes(1).workers.remove(0);
        node.idle_timeout = Duration::from_secs(5);
        let dimension = node.dimension;
        let handle = std::thread::spawn(move || WorkerActor::new(node, transport).run());
        let replies = requests
            .iter()
            .filter_map(|&(server, params, seq)| {
                let request = WireMessage::new(MsgKind::GradientRequest, 0, 0.0, params.to_vec());
                let mut buf = request.encode_vec();
                garfield_net::stamp_trace(&mut buf, server, seq, seq);
                let from = &servers[server as usize];
                from.send(NodeId(2), 0, buf.into()).unwrap();
                if params.len() != dimension {
                    return None;
                }
                let env = from.recv_timeout(Duration::from_secs(5)).unwrap();
                let reply = WireMessage::decode(&env.payload).unwrap();
                assert_eq!((reply.kind, reply.coord_len), (MsgKind::GradientReply, 0));
                Some((reply.aux, reply.values))
            })
            .collect();
        let shutdown = WireMessage::control(MsgKind::Shutdown, 1).encode();
        servers[0].send(NodeId(2), 1, shutdown).unwrap();
        (replies, handle.join().unwrap())
    }

    #[test]
    fn worker_reuses_a_gradient_only_for_a_byte_identical_request_payload() {
        let initial = sharded_nodes(1).servers[0]
            .server
            .honest()
            .parameters()
            .into_vec();
        let with = |head: &[f32]| {
            let mut params = initial.clone();
            params[..head.len()].copy_from_slice(head);
            params
        };
        let mut reference = sharded_nodes(1).workers.remove(0).worker;
        let mut fresh = |params: &[f32]| {
            let (loss, grad) = reference
                .honest_compute(&Tensor::from_slice(params), 0)
                .unwrap();
            (loss.to_bits(), bits(grad.data()))
        };
        let got = |(loss, grad): &(f32, Vec<f32>)| (loss.to_bits(), bits(grad));

        // Two same-round requests a keyed memo would confuse: f32 `==`
        // calls 0.0 and -0.0 equal, and the two 12-byte heads below are a
        // forged FNV-1a 64 collision (the whole payloads hash equal, since
        // they share every later byte). Each must be computed afresh.
        let forged = |words: [u32; 3]| with(&words.map(f32::from_bits));
        let pairs = [
            (with(&[0.0]), with(&[-0.0])),
            (
                forged([0x3e06_0fe6, 0x3e14_53ff, 0x3e15_3dfb]),
                forged([0x3e34_7eb6, 0x3e1e_2931, 0x3e17_0b14]),
            ),
        ];
        for (a, b) in &pairs {
            let (replies, telemetry) = serve_requests(&[(0, a, 1), (1, b, 1)]);
            assert_eq!(telemetry.gradients_reused, 0);
            assert_eq!(got(&replies[0]), fresh(a));
            assert_eq!(got(&replies[1]), fresh(b));
        }

        // Two NaN payloads differ, and `==` equates no NaN with itself: the
        // second payload again, under another sender's stamps, is the one
        // reuse, answered with the identical reply.
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let (a, b) = (with(&[nan(1)]), with(&[nan(2)]));
        let (replies, telemetry) = serve_requests(&[(0, &a, 1), (1, &b, 1), (0, &b, 2)]);
        assert_eq!(telemetry.gradients_reused, 1);
        assert_eq!(got(&replies[0]), fresh(&a));
        assert_eq!(got(&replies[1]), fresh(&b));
        assert_eq!(got(&replies[2]), got(&replies[1]));
    }

    #[test]
    fn a_request_is_decoded_into_the_replica_bit_for_bit() {
        let mut params = sharded_nodes(1).servers[0]
            .server
            .honest()
            .parameters()
            .into_vec();
        // NaNs with payload bits (quiet and signalling, both signs), -0.0
        // and both infinities: each must reach the replica unchanged.
        let hostile = [0x7fc0_1234, 0xffc0_0001, 0x7f80_0001, 0x8000_0000]
            .map(f32::from_bits)
            .into_iter()
            .chain([f32::INFINITY, f32::NEG_INFINITY]);
        for (slot, v) in params.iter_mut().step_by(7).zip(hostile.cycle()) {
            *slot = v;
        }
        let mut request =
            WireMessage::encode_parts(MsgKind::GradientRequest, 0, 0.0, (0, 0, 0), &params);
        garfield_net::stamp_trace(&mut request, 0, 1, 1);
        let mut decoded = Vec::new();
        WireMessage::decode_into(&request, &mut decoded).unwrap();
        let decoded = Tensor::from(decoded);
        let mut reference = sharded_nodes(1).workers.remove(0).worker;
        let (loss, grad) = reference.honest_compute(&decoded, 0).unwrap();

        let router = Router::new();
        let server = RouterTransport::connect(&router, NodeId(0)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut actor = WorkerActor::new(sharded_nodes(1).workers.remove(0), transport);
        actor.serve_full(NodeId(0), 0, request.into());
        let reply =
            WireMessage::decode(&server.recv_timeout(Duration::from_secs(1)).unwrap().payload)
                .unwrap();
        assert_eq!(
            (reply.aux.to_bits(), bits(&reply.values)),
            (loss.to_bits(), bits(grad.data()))
        );
        let replica = actor.node.worker.honest().parameters();
        assert_eq!(bits(replica.data()), bits(decoded.data()));
        assert_eq!(bits(replica.data()), bits(&params));
        assert_eq!(
            bits(reference.honest().parameters().data()),
            bits(decoded.data())
        );
    }

    #[test]
    fn a_node_whose_dimension_disagrees_with_its_replica_drops_requests() {
        // A `dimension` one longer than the replica: the request passes the
        // frame-length check but must not be half-written into the model.
        let mut params = sharded_nodes(1).servers[0]
            .server
            .honest()
            .parameters()
            .into_vec();
        params.push(1.0);
        let request =
            WireMessage::encode_parts(MsgKind::GradientRequest, 0, 0.0, (0, 0, 0), &params);
        let router = Router::new();
        let server = RouterTransport::connect(&router, NodeId(0)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut node = sharded_nodes(1).workers.remove(0);
        let before = bits(node.worker.honest().parameters().data());
        node.dimension += 1;
        let mut actor = WorkerActor::new(node, transport);
        actor.serve_full(NodeId(0), 0, request.into());
        assert!(server.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(bits(actor.node.worker.honest().parameters().data()), before);
    }

    #[test]
    fn a_wrong_length_request_leaves_the_gradient_memo_in_place() {
        // Server 1 first sends a well-framed request one value short: it is
        // dropped unanswered, and server 1's valid request after it still
        // reuses the gradient memoised for server 0.
        let params = sharded_nodes(1).servers[0]
            .server
            .honest()
            .parameters()
            .into_vec();
        let short = &params[..params.len() - 1];
        let (replies, telemetry) =
            serve_requests(&[(0, &params, 1), (1, short, 1), (1, &params, 2)]);
        assert_eq!(telemetry.gradients_reused, 1);
        let (loss, grad) = sharded_nodes(1)
            .workers
            .remove(0)
            .worker
            .honest_compute(&Tensor::from_slice(&params), 0)
            .unwrap();
        assert_eq!(replies.len(), 2);
        for (l, g) in &replies {
            assert_eq!((l.to_bits(), bits(g)), (loss.to_bits(), bits(grad.data())));
        }
    }
}
