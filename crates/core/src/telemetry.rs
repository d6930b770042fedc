//! Per-iteration timing breakdown and training traces.
//!
//! Every application records, for each iteration, how much simulated time was
//! spent computing gradients, moving vectors over the network and running the
//! GAR. These are exactly the three bars of the paper's overhead-breakdown
//! figures (Fig. 7 and Fig. 16), and throughput figures are derived from their
//! sum.

use crate::json;
use garfield_net::{PeerCounters, Role};

/// Simulated time spent in each phase of one training iteration, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationTiming {
    /// Gradient-estimation time (the slowest worker whose reply was used).
    pub computation: f64,
    /// Communication time: model broadcasts, gradient pulls, model pulls.
    pub communication: f64,
    /// Robust-aggregation time (gradients and, where applicable, models).
    pub aggregation: f64,
}

impl IterationTiming {
    /// Total simulated duration of the iteration.
    pub fn total(&self) -> f64 {
        self.computation + self.communication + self.aggregation
    }

    /// Adds another iteration's timing into this one (used for averaging).
    pub fn accumulate(&mut self, other: &IterationTiming) {
        self.computation += other.computation;
        self.communication += other.communication;
        self.aggregation += other.aggregation;
    }

    /// Divides every component by `n` (used for averaging).
    pub fn scaled(&self, factor: f64) -> IterationTiming {
        IterationTiming {
            computation: self.computation * factor,
            communication: self.communication * factor,
            aggregation: self.aggregation * factor,
        }
    }
}

/// One accuracy evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// Iteration at which the evaluation happened.
    pub iteration: usize,
    /// Simulated time (seconds) at which the evaluation happened.
    pub sim_time: f64,
    /// Top-1 accuracy on the held-out test batch.
    pub accuracy: f32,
    /// Training loss observed at that iteration (mean over used gradients).
    pub loss: f32,
}

/// The full record of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingTrace {
    /// Name of the system that produced the trace (e.g. `"ssmw"`).
    pub system: String,
    /// Per-iteration timing breakdowns.
    pub iterations: Vec<IterationTiming>,
    /// Accuracy evaluations over the course of training.
    pub accuracy: Vec<AccuracyPoint>,
    /// Effective batch size processed per iteration (workers × local batch).
    pub effective_batch: usize,
}

impl TrainingTrace {
    /// Creates an empty trace for the named system.
    pub fn new(system: impl Into<String>, effective_batch: usize) -> Self {
        TrainingTrace {
            system: system.into(),
            iterations: Vec::new(),
            accuracy: Vec::new(),
            effective_batch,
        }
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Whether the trace holds no iterations.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// Total simulated training time in seconds.
    pub fn total_time(&self) -> f64 {
        self.iterations.iter().map(IterationTiming::total).sum()
    }

    /// Mean per-iteration timing breakdown.
    pub fn mean_timing(&self) -> IterationTiming {
        if self.iterations.is_empty() {
            return IterationTiming::default();
        }
        let mut acc = IterationTiming::default();
        for it in &self.iterations {
            acc.accumulate(it);
        }
        acc.scaled(1.0 / self.iterations.len() as f64)
    }

    /// Model updates per simulated second (the paper's *throughput* metric).
    pub fn updates_per_second(&self) -> f64 {
        let t = self.total_time();
        if t <= 0.0 {
            0.0
        } else {
            self.iterations.len() as f64 / t
        }
    }

    /// The last recorded accuracy (0.0 if never evaluated).
    pub fn final_accuracy(&self) -> f32 {
        self.accuracy.last().map(|p| p.accuracy).unwrap_or(0.0)
    }

    /// The highest recorded accuracy (0.0 if never evaluated).
    pub fn best_accuracy(&self) -> f32 {
        self.accuracy.iter().map(|p| p.accuracy).fold(0.0, f32::max)
    }

    /// Serializes the trace to JSON, in the same shape `serde_json` would
    /// produce for these structs (used by the experiment reports).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.iterations.len());
        out.push_str("{\"system\":");
        json::write_string(&mut out, &self.system);
        out.push_str(",\"iterations\":[");
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"computation\":");
            json::write_f64(&mut out, it.computation);
            out.push_str(",\"communication\":");
            json::write_f64(&mut out, it.communication);
            out.push_str(",\"aggregation\":");
            json::write_f64(&mut out, it.aggregation);
            out.push('}');
        }
        out.push_str("],\"accuracy\":[");
        for (i, p) in self.accuracy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"iteration\":");
            json::write_f64(&mut out, p.iteration as f64);
            out.push_str(",\"sim_time\":");
            json::write_f64(&mut out, p.sim_time);
            out.push_str(",\"accuracy\":");
            json::write_f32(&mut out, p.accuracy);
            out.push_str(",\"loss\":");
            json::write_f32(&mut out, p.loss);
            out.push('}');
        }
        out.push_str("],\"effective_batch\":");
        json::write_f64(&mut out, self.effective_batch as f64);
        out.push('}');
        out
    }
}

/// Network counters of one live-runtime node (a worker or server thread).
///
/// The simulated path charges an analytic [cost model](garfield_net::cost)
/// instead of moving bytes; the live runtime actually routes every gradient
/// and model over the wire, and these counters are the proof — they must be
/// nonzero for every participating node after a live run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTelemetry {
    /// Raw node id on the router.
    pub node: u32,
    /// Whether this node ran the server or the worker actor loop.
    pub role: Role,
    /// Messages this node put on the wire.
    pub messages_sent: u64,
    /// Messages this node received from its inbox.
    pub messages_received: u64,
    /// Payload bytes this node put on the wire.
    pub bytes_sent: u64,
    /// Payload bytes this node received.
    pub bytes_received: u64,
    /// Per-peer *on-wire* counters reported by the node's transport, sorted
    /// by peer id. For the in-process router these equal payload bytes; for
    /// TCP they include frame headers, so `wire_bytes_sent() ≥ bytes_sent`
    /// minus any backpressure drops.
    pub peers: Vec<PeerCounters>,
    /// Times this node came back from a crash (a `RestartAt` rejoin in
    /// process, or a disk-checkpoint resume in `garfield-node --resume`).
    pub resumes: u64,
    /// Checkpoints this node persisted to disk.
    pub checkpoints_written: u64,
    /// `StateChunk` messages this node served to recovering peers.
    pub state_chunks_served: u64,
    /// `StateChunk` messages this node adopted while catching up.
    pub state_chunks_received: u64,
    /// Requests this node re-sent to peers that had not replied yet (the
    /// idempotent re-ask that lets a respawned peer contribute to a round
    /// whose original request died with its previous incarnation).
    pub requests_retried: u64,
    /// Gradient requests this worker answered from its previous request's
    /// gradient instead of recomputing it (an MSMW replica asking for the
    /// same round at byte-identical model parameters as the one before).
    pub gradients_reused: u64,
}

impl NodeTelemetry {
    /// Creates zeroed counters for a node.
    pub fn new(node: u32, role: Role) -> Self {
        NodeTelemetry {
            node,
            role,
            messages_sent: 0,
            messages_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
            peers: Vec::new(),
            resumes: 0,
            checkpoints_written: 0,
            state_chunks_served: 0,
            state_chunks_received: 0,
            requests_retried: 0,
            gradients_reused: 0,
        }
    }

    /// Total on-wire bytes this node's transport put on the wire, summed
    /// over peers (0 when the transport reported no per-peer counters).
    pub fn wire_bytes_sent(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes_sent).sum()
    }

    /// Messages this node's transport dropped under backpressure (bounded
    /// outbound queue full — the signature of a slow or dead peer).
    pub fn messages_dropped(&self) -> u64 {
        self.peers.iter().map(|p| p.messages_dropped).sum()
    }

    /// Records one outbound message of `bytes` payload bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Records one inbound message of `bytes` payload bytes.
    pub fn record_recv(&mut self, bytes: usize) {
        self.messages_received += 1;
        self.bytes_received += bytes as u64;
    }

    /// Whether this node both sent and received at least one message.
    pub fn is_active(&self) -> bool {
        self.messages_sent > 0 && self.messages_received > 0
    }
}

/// Aggregate telemetry of one live run: per-node counters plus the observer
/// server's wall-clock round latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeTelemetry {
    /// One entry per node, servers first then workers, in id order.
    pub nodes: Vec<NodeTelemetry>,
    /// Wall-clock seconds per training iteration, measured by server 0.
    pub round_latencies: Vec<f64>,
}

impl RuntimeTelemetry {
    /// Total messages sent across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.messages_sent).sum()
    }

    /// Total payload bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total *on-wire* bytes sent across all nodes, from the per-peer
    /// transport counters (includes frame headers on framed substrates).
    pub fn total_wire_bytes(&self) -> u64 {
        self.nodes.iter().map(NodeTelemetry::wire_bytes_sent).sum()
    }

    /// Total messages dropped under backpressure across all nodes.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(NodeTelemetry::messages_dropped).sum()
    }

    /// Total crash-recovery rejoins/resumes across all nodes (0 on an
    /// uninterrupted run).
    pub fn total_resumes(&self) -> u64 {
        self.nodes.iter().map(|n| n.resumes).sum()
    }

    /// Total requests re-sent to silent peers across all nodes (0 when every
    /// peer answered its first request in time).
    pub fn total_requests_retried(&self) -> u64 {
        self.nodes.iter().map(|n| n.requests_retried).sum()
    }

    /// The nodes that played the given role.
    pub fn nodes_with_role(&self, role: Role) -> impl Iterator<Item = &NodeTelemetry> {
        self.nodes.iter().filter(move |n| n.role == role)
    }

    /// Whether every node both sent and received messages (the liveness
    /// signature of a healthy run; crashed nodes may legitimately fail this).
    pub fn all_nodes_active(&self) -> bool {
        !self.nodes.is_empty() && self.nodes.iter().all(NodeTelemetry::is_active)
    }

    /// Mean wall-clock seconds per iteration (0.0 before any round completes).
    pub fn mean_round_latency(&self) -> f64 {
        if self.round_latencies.is_empty() {
            return 0.0;
        }
        self.round_latencies.iter().sum::<f64>() / self.round_latencies.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> TrainingTrace {
        let mut t = TrainingTrace::new("test", 64);
        for i in 0..4 {
            t.iterations.push(IterationTiming {
                computation: 1.0,
                communication: 2.0,
                aggregation: 0.5,
            });
            t.accuracy.push(AccuracyPoint {
                iteration: i,
                sim_time: 3.5 * (i + 1) as f64,
                accuracy: 0.2 * (i + 1) as f32,
                loss: 1.0 / (i + 1) as f32,
            });
        }
        t
    }

    /// The `key` number of every element of the `list` array in `doc`.
    fn column(doc: &json::Value, list: &str, key: &str) -> Vec<json::Value> {
        let items = doc.get(list).and_then(json::Value::as_array).unwrap();
        items
            .iter()
            .map(|item| item.get(key).unwrap().clone())
            .collect()
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let t = trace();
        let doc = json::parse(&t.to_json()).unwrap();
        assert_eq!(
            doc.get("system").and_then(json::Value::as_str),
            Some("test")
        );
        let batch = doc.get("effective_batch").and_then(json::Value::as_usize);
        assert_eq!(batch, Some(t.effective_batch));
        let numbers = |list, key| -> Vec<f64> {
            let values = column(&doc, list, key);
            values.iter().map(|v| v.as_f64().unwrap()).collect()
        };
        let computation: Vec<f64> = t.iterations.iter().map(|it| it.computation).collect();
        assert_eq!(numbers("iterations", "computation"), computation);
        assert_eq!(numbers("iterations", "aggregation"), vec![0.5; 4]);
        let sim_time: Vec<f64> = t.accuracy.iter().map(|p| p.sim_time).collect();
        assert_eq!(numbers("accuracy", "sim_time"), sim_time);
        for (read, point) in numbers("accuracy", "loss").into_iter().zip(&t.accuracy) {
            assert_eq!((read as f32).to_bits(), point.loss.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_survive_a_json_round_trip_as_nan() {
        // A diverging run can record NaN losses; the writer emits `null`
        // (like serde_json), and the document stays valid JSON.
        let mut t = trace();
        t.accuracy[0].loss = f32::NAN;
        t.iterations[0].computation = f64::INFINITY;
        let doc = json::parse(&t.to_json()).unwrap();
        assert_eq!(column(&doc, "accuracy", "loss")[0], json::Value::Null);
        assert_eq!(
            column(&doc, "iterations", "computation")[0],
            json::Value::Null
        );
        assert_eq!(column(&doc, "iterations", "communication").len(), t.len());
    }

    #[test]
    fn totals_and_means() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert!((t.total_time() - 14.0).abs() < 1e-9);
        let mean = t.mean_timing();
        assert!((mean.computation - 1.0).abs() < 1e-9);
        assert!((mean.total() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_metrics() {
        let t = trace();
        assert!((t.updates_per_second() - 4.0 / 14.0).abs() < 1e-9);
        assert_eq!(TrainingTrace::new("x", 1).updates_per_second(), 0.0);
    }

    #[test]
    fn accuracy_queries() {
        let t = trace();
        assert!((t.final_accuracy() - 0.8).abs() < 1e-6);
        assert!((t.best_accuracy() - 0.8).abs() < 1e-6);
        assert_eq!(TrainingTrace::new("x", 1).final_accuracy(), 0.0);
    }

    #[test]
    fn node_telemetry_counts_and_activity() {
        let mut n = NodeTelemetry::new(3, Role::Worker);
        assert!(!n.is_active());
        n.record_send(100);
        n.record_send(50);
        n.record_recv(10);
        assert_eq!(n.messages_sent, 2);
        assert_eq!(n.bytes_sent, 150);
        assert_eq!(n.messages_received, 1);
        assert_eq!(n.bytes_received, 10);
        assert!(n.is_active());
    }

    #[test]
    fn runtime_telemetry_aggregates_across_nodes() {
        let mut server = NodeTelemetry::new(0, Role::Server);
        server.record_send(1000);
        server.record_recv(2000);
        let mut worker = NodeTelemetry::new(1, Role::Worker);
        worker.record_send(2000);
        worker.record_recv(1000);
        let telemetry = RuntimeTelemetry {
            nodes: vec![server, worker],
            round_latencies: vec![0.5, 1.5],
        };
        assert_eq!(telemetry.total_messages(), 2);
        assert_eq!(telemetry.total_bytes(), 3000);
        assert_eq!(telemetry.nodes_with_role(Role::Server).count(), 1);
        assert!(telemetry.all_nodes_active());
        assert!((telemetry.mean_round_latency() - 1.0).abs() < 1e-12);
        assert!(!RuntimeTelemetry::default().all_nodes_active());
        assert_eq!(RuntimeTelemetry::default().mean_round_latency(), 0.0);
    }

    #[test]
    fn per_peer_wire_counters_aggregate() {
        use garfield_net::NodeId;
        let mut node = NodeTelemetry::new(0, Role::Server);
        assert_eq!(node.wire_bytes_sent(), 0);
        let mut toward_1 = PeerCounters::new(NodeId(1));
        toward_1.messages_sent = 2;
        toward_1.bytes_sent = 64;
        toward_1.messages_dropped = 1;
        let mut toward_2 = PeerCounters::new(NodeId(2));
        toward_2.bytes_sent = 36;
        toward_2.bytes_received = 12;
        node.peers = vec![toward_1, toward_2];
        assert_eq!(node.wire_bytes_sent(), 100);
        assert_eq!(node.messages_dropped(), 1);
        let telemetry = RuntimeTelemetry {
            nodes: vec![node],
            round_latencies: vec![],
        };
        assert_eq!(telemetry.total_wire_bytes(), 100);
        assert_eq!(telemetry.total_dropped(), 1);
    }

    #[test]
    fn timing_arithmetic() {
        let a = IterationTiming {
            computation: 1.0,
            communication: 2.0,
            aggregation: 3.0,
        };
        assert_eq!(a.total(), 6.0);
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(b.total(), 12.0);
        assert_eq!(b.scaled(0.5).total(), 6.0);
    }
}
