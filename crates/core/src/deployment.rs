//! The simulated deployment: real servers/workers plus a cost-modelled fabric.
//!
//! A [`Deployment`] instantiates every node of an [`ExperimentConfig`] as a
//! real in-process object (workers compute real gradients, servers run real
//! GARs and SGD updates, Byzantine nodes run real attacks), and charges every
//! data movement and computation to the simulated clock through the
//! [`CostModel`]. The [`Trainer`](crate::Trainer) drives iterations through the
//! two pull primitives — [`Deployment::gradient_round`] and
//! [`Deployment::model_round`] — which are the paper's `get_gradients()` /
//! `get_models()` abstractions.

use crate::server::{ByzantineServer, ParameterServer};
use crate::worker::{ByzantineWorker, Worker};
use crate::{CoreError, CoreResult, ExperimentConfig};
use garfield_ml::{zoo, Batch, Dataset, Sgd};
use garfield_net::{Cluster, CostModel, Device, NodeId, PullRound};
use garfield_tensor::{Tensor, TensorRng};

/// Result of one `get_gradients()` round as seen by one server.
#[derive(Debug, Clone)]
pub struct GradientRound {
    /// The gradient vectors actually collected (fastest `q`).
    pub gradients: Vec<Tensor>,
    /// Mean training loss reported by the *honest* workers this round.
    pub mean_loss: f32,
    /// Simulated computation time: the slowest gradient among those collected.
    pub computation_time: f64,
    /// Simulated communication time: model broadcast plus gradient pulls.
    pub communication_time: f64,
}

/// Result of one `get_models()` round as seen by one server.
#[derive(Debug, Clone)]
pub struct ModelRound {
    /// The model vectors collected from peer replicas (fastest `q`).
    pub models: Vec<Tensor>,
    /// Simulated communication time of the pulls.
    pub communication_time: f64,
}

/// The real node objects of a deployment, extracted so the live runtime
/// (`garfield-runtime`) can move each one onto its own OS thread.
///
/// Construction goes through [`Deployment::new`] first, so the live and sim
/// substrates share byte-identical initial state: same data shards, same
/// model initialisation, same attack installation — only the execution
/// substrate differs.
pub struct LiveParts {
    /// The experiment configuration the nodes were built from.
    pub config: ExperimentConfig,
    /// One (possibly Byzantine) worker per `config.nw`, in index order.
    pub workers: Vec<ByzantineWorker>,
    /// One (possibly Byzantine) server replica per `config.nps`, in index order.
    pub servers: Vec<ByzantineServer>,
    /// The held-out evaluation batch (never shown to any worker).
    pub test_batch: Batch,
    /// Model dimension `d`.
    pub dimension: usize,
}

/// A fully instantiated simulated deployment.
pub struct Deployment {
    config: ExperimentConfig,
    cluster: Cluster,
    cost: CostModel,
    workers: Vec<ByzantineWorker>,
    worker_ids: Vec<NodeId>,
    servers: Vec<ByzantineServer>,
    server_ids: Vec<NodeId>,
    test_batch: Batch,
    dimension: usize,
    rng: TensorRng,
}

impl Deployment {
    /// Builds every node of the configured deployment.
    ///
    /// The last `actual_byzantine_workers` workers and the last
    /// `actual_byzantine_servers` server replicas are the Byzantine ones, so
    /// index 0 of each group is always honest (the paper reports the fastest
    /// *correct* machine).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] / [`CoreError::Ml`] when the
    /// configuration cannot be instantiated.
    pub fn new(config: ExperimentConfig) -> CoreResult<Self> {
        let mut rng = TensorRng::seed_from(config.seed);
        let kind = zoo::dataset_for(&config.model)?;
        // Train and test are carved from one generation so they share the same
        // class structure; the test samples are never given to any worker.
        let combined = Dataset::synthetic(
            kind,
            config.dataset_samples + config.test_samples.max(1),
            &mut rng,
        );
        let (train, test) = combined.split_at(config.dataset_samples)?;
        let test_batch = test.full_batch()?;

        // One reference model defines the (identical) initial state everywhere.
        let reference = zoo::trainable_model(&config.model, &mut rng)?;
        let dimension = reference.num_parameters();

        let cluster = Cluster::builder()
            .servers(config.nps.max(1), config.device)
            .workers(config.nw, config.device)
            .build();
        let server_ids = cluster.servers();
        let worker_ids = cluster.workers();

        // Workers: shard the data, clone the reference model as the replica.
        let shards = train.shard(config.nw, config.shard_strategy)?;
        let mut workers = Vec::with_capacity(config.nw);
        let byz_worker_start = config.nw - config.actual_byzantine_workers;
        for (i, shard) in shards.into_iter().enumerate() {
            let worker = Worker::new(i, reference.clone_boxed(), shard.data, config.batch_size)?;
            let attack = if i >= byz_worker_start {
                config.worker_attack.map(|kind| kind.build())
            } else {
                None
            };
            workers.push(ByzantineWorker::new(
                worker,
                attack,
                rng.derive(1_000 + i as u64),
            ));
        }

        // Server replicas: identical initial model, identical optimizer.
        let nps = config.nps.max(1);
        let mut servers = Vec::with_capacity(nps);
        let byz_server_start = nps - config.actual_byzantine_servers.min(nps);
        for s in 0..nps {
            let optimizer = Sgd::new(config.learning_rate).with_momentum(config.momentum);
            let ps = ParameterServer::new(s, reference.clone_boxed(), optimizer);
            let attack = if s >= byz_server_start && config.actual_byzantine_servers > 0 {
                config.server_attack.map(|kind| kind.build())
            } else {
                None
            };
            servers.push(ByzantineServer::new(
                ps,
                attack,
                rng.derive(2_000 + s as u64),
            ));
        }

        Ok(Deployment {
            config,
            cluster,
            cost: CostModel::default(),
            workers,
            worker_ids,
            servers,
            server_ids,
            test_batch,
            dimension,
            rng,
        })
    }

    /// The experiment configuration this deployment was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Model dimension `d` (number of parameters).
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The device class of the deployment.
    pub fn device(&self) -> Device {
        self.config.device
    }

    /// The cost model used to charge simulated time.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the cost model (used by sensitivity/ablation benches).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Mutable access to the cluster fault state (crash, partition, stragglers).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Read access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of server replicas.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Access to one server replica.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range — deployment code always iterates
    /// over `0..server_count()`.
    pub fn server(&self, index: usize) -> &ByzantineServer {
        &self.servers[index]
    }

    /// Mutable access to one server replica.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    pub fn server_mut(&mut self, index: usize) -> &mut ByzantineServer {
        &mut self.servers[index]
    }

    /// Crashes the `index`-th worker (it stops replying to pulls).
    pub fn crash_worker(&mut self, index: usize) {
        if let Some(&id) = self.worker_ids.get(index) {
            self.cluster.crash(id);
        }
    }

    /// Crashes the `index`-th server replica.
    pub fn crash_server(&mut self, index: usize) {
        if let Some(&id) = self.server_ids.get(index) {
            self.cluster.crash(id);
        }
    }

    /// Whether the `index`-th server replica is currently crashed.
    pub fn server_crashed(&self, index: usize) -> bool {
        self.server_ids
            .get(index)
            .is_some_and(|&id| self.cluster.is_crashed(id))
    }

    /// Marks the `index`-th worker as a straggler with the given slowdown factor.
    pub fn set_worker_straggler(&mut self, index: usize, factor: f64) {
        if let Some(&id) = self.worker_ids.get(index) {
            let _ = self.cluster.set_straggler(id, factor);
        }
    }

    /// One `get_gradients(t, q)` round from the point of view of `server_index`.
    ///
    /// Every live worker computes a real gradient at the server's current
    /// model state; Byzantine workers corrupt theirs. Reply arrival times are
    /// simulated (computation × straggler factor + transfer + jitter) and the
    /// fastest `quorum` replies are returned. `server_fanout` is the number of
    /// server replicas every worker must serve this round (1 for a single
    /// trusted server; `nps` when the server is replicated), which multiplies
    /// the per-worker upload cost.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when fewer than `quorum` live workers exist,
    /// and [`CoreError::Ml`] when a gradient computation fails.
    pub fn gradient_round(
        &mut self,
        server_index: usize,
        iteration: usize,
        quorum: usize,
        server_fanout: usize,
    ) -> CoreResult<GradientRound> {
        let params = self.servers[server_index].honest().parameters();
        let device = self.config.device;
        let fanout = server_fanout.max(1);

        // First pass: honest gradients (visible to an omniscient adversary).
        let mut honest_gradients = Vec::with_capacity(self.workers.len());
        let mut losses = Vec::with_capacity(self.workers.len());
        for (i, worker) in self.workers.iter_mut().enumerate() {
            if self.cluster.is_crashed(self.worker_ids[i]) {
                honest_gradients.push(None);
                continue;
            }
            let (loss, grad) = worker.honest_compute(&params, iteration)?;
            losses.push(loss);
            honest_gradients.push(Some(grad));
        }
        let peer_view: Vec<Tensor> = honest_gradients.iter().flatten().cloned().collect();

        // Second pass: the vectors actually sent, plus simulated arrival times.
        let mut replies: Vec<(NodeId, f64)> = Vec::new();
        let mut sent: Vec<Option<Tensor>> = vec![None; self.workers.len()];
        for (i, worker) in self.workers.iter_mut().enumerate() {
            let Some(honest) = honest_gradients[i].clone() else {
                continue;
            };
            let vector = worker.sent_gradient(honest, &peer_view);
            let info = self.cluster.info(self.worker_ids[i])?;
            let compute = self
                .cost
                .gradient_time(self.dimension, self.config.batch_size, device)
                * info.straggler_factor;
            let upload = self.cost.vector_transfer_time(self.dimension, device) * fanout as f64;
            let jitter = 1.0 + 0.05 * self.rng.uniform01() as f64;
            replies.push((self.worker_ids[i], (compute + upload) * jitter));
            sent[i] = Some(vector);
        }

        let round = PullRound::new(replies);
        let (chosen, _) = round
            .try_fastest(quorum.min(round.len()).max(1))
            .map_err(CoreError::from)?;
        if round.len() < quorum {
            return Err(CoreError::Net(format!(
                "only {} live workers can reply, {} required",
                round.len(),
                quorum
            )));
        }

        // Collect the chosen gradients in worker order (aggregation is order-insensitive).
        let chosen_set: std::collections::HashSet<NodeId> = chosen.into_iter().collect();
        let mut gradients = Vec::with_capacity(quorum);
        let mut computation_time = 0.0f64;
        for (i, vector) in sent.into_iter().enumerate() {
            let Some(vector) = vector else { continue };
            if chosen_set.contains(&self.worker_ids[i]) {
                let info = self.cluster.info(self.worker_ids[i])?;
                let compute =
                    self.cost
                        .gradient_time(self.dimension, self.config.batch_size, device)
                        * info.straggler_factor;
                computation_time = computation_time.max(compute);
                gradients.push(vector);
            }
        }

        // Communication: the server broadcasts its model to every live worker
        // and pulls `quorum` gradients back, both over its own shared link.
        // When the server is replicated the workers upload to all `fanout`
        // replicas at once: the latency overlaps, the bytes do not.
        let live_workers = gradients.len().max(quorum);
        let communication_time = self
            .cost
            .parallel_pull_time(self.dimension, live_workers, device)
            + self
                .cost
                .fanout_pull_time(self.dimension, quorum, fanout, device);

        let mean_loss = if losses.is_empty() {
            0.0
        } else {
            losses.iter().sum::<f32>() / losses.len() as f32
        };
        Ok(GradientRound {
            gradients,
            mean_loss,
            computation_time,
            communication_time,
        })
    }

    /// One `get_models(q)` round: `server_index` pulls the model vectors served
    /// by its peer replicas and returns the fastest `quorum` of them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when fewer than `quorum` live peers exist.
    pub fn model_round(&mut self, server_index: usize, quorum: usize) -> CoreResult<ModelRound> {
        let device = self.config.device;
        let peer_models_honest: Vec<Tensor> = (0..self.servers.len())
            .filter(|&s| s != server_index)
            .map(|s| self.servers[s].honest().parameters())
            .collect();

        let mut replies: Vec<(NodeId, f64)> = Vec::new();
        let mut served: Vec<(NodeId, Tensor)> = Vec::new();
        for s in 0..self.servers.len() {
            if s == server_index || self.cluster.is_crashed(self.server_ids[s]) {
                continue;
            }
            let model = self.servers[s].served_model(&peer_models_honest);
            let transfer = self.cost.vector_transfer_time(self.dimension, device);
            let jitter = 1.0 + 0.05 * self.rng.uniform01() as f64;
            replies.push((self.server_ids[s], transfer * jitter));
            served.push((self.server_ids[s], model));
        }
        let round = PullRound::new(replies);
        if round.len() < quorum {
            return Err(CoreError::Net(format!(
                "only {} live server peers can reply, {} required",
                round.len(),
                quorum
            )));
        }
        let (chosen, _) = round.fastest(quorum.max(1));
        let chosen_set: std::collections::HashSet<NodeId> = chosen.into_iter().collect();
        let models: Vec<Tensor> = served
            .into_iter()
            .filter(|(id, _)| chosen_set.contains(id))
            .map(|(_, m)| m)
            .collect();
        let communication_time = self.cost.parallel_pull_time(self.dimension, quorum, device);
        Ok(ModelRound {
            models,
            communication_time,
        })
    }

    /// Evaluates the `server_index`-th replica's model on the held-out test batch.
    pub fn evaluate(&self, server_index: usize) -> (f32, f32) {
        let server = self.servers[server_index].honest();
        (
            server.compute_accuracy(&self.test_batch),
            server.compute_loss(&self.test_batch),
        )
    }

    /// Consumes the deployment and hands out its node objects for the live
    /// runtime, which runs each of them on its own thread.
    pub fn into_live_parts(self) -> LiveParts {
        LiveParts {
            config: self.config,
            workers: self.workers,
            servers: self.servers,
            test_batch: self.test_batch,
            dimension: self.dimension,
        }
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("workers", &self.workers.len())
            .field("servers", &self.servers.len())
            .field("dimension", &self.dimension)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;
    use garfield_attacks::AttackKind;

    fn deployment(cfg: ExperimentConfig) -> Deployment {
        cfg.validate(SystemKind::Ssmw).unwrap();
        Deployment::new(cfg).unwrap()
    }

    #[test]
    fn construction_creates_identical_initial_models() {
        let d = deployment(ExperimentConfig::small());
        let p0 = d.server(0).honest().parameters();
        for s in 1..d.server_count() {
            assert_eq!(d.server(s).honest().parameters(), p0);
        }
        assert_eq!(p0.len(), d.dimension());
    }

    #[test]
    fn gradient_round_collects_the_requested_quorum() {
        let mut d = deployment(ExperimentConfig::small());
        let nw = d.config().nw;
        let round = d.gradient_round(0, 0, nw, 1).unwrap();
        assert_eq!(round.gradients.len(), nw);
        assert!(round.mean_loss > 0.0);
        assert!(round.computation_time > 0.0);
        assert!(round.communication_time > 0.0);

        let partial = d.gradient_round(0, 1, nw - 2, 1).unwrap();
        assert_eq!(partial.gradients.len(), nw - 2);
    }

    #[test]
    fn crashed_workers_reduce_available_replies() {
        let mut d = deployment(ExperimentConfig::small());
        let nw = d.config().nw;
        d.crash_worker(0);
        d.crash_worker(1);
        assert!(d.gradient_round(0, 0, nw, 1).is_err());
        let ok = d.gradient_round(0, 0, nw - 2, 1).unwrap();
        assert_eq!(ok.gradients.len(), nw - 2);
    }

    #[test]
    fn byzantine_workers_corrupt_only_their_own_replies() {
        let mut cfg = ExperimentConfig::small();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(AttackKind::Reversed);
        let mut d = deployment(cfg);
        let nw = d.config().nw;
        let round = d.gradient_round(0, 0, nw, 1).unwrap();
        // The reversed-and-amplified gradient has a much larger norm than honest ones.
        let norms: Vec<f32> = round.gradients.iter().map(|g| g.norm()).collect();
        let max = norms.iter().cloned().fold(0.0, f32::max);
        let median = {
            let mut s = norms.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(
            max > 10.0 * median,
            "expected one amplified outlier, norms {norms:?}"
        );
    }

    #[test]
    fn model_round_excludes_the_requester_and_respects_crashes() {
        let mut d = deployment(ExperimentConfig::small());
        let round = d.model_round(0, d.server_count() - 1).unwrap();
        assert_eq!(round.models.len(), d.server_count() - 1);
        d.crash_server(1);
        assert!(d.model_round(0, d.server_count() - 1).is_err());
        let ok = d.model_round(0, d.server_count() - 2).unwrap();
        assert_eq!(ok.models.len(), d.server_count() - 2);
    }

    #[test]
    fn stragglers_are_left_behind_by_partial_quorums() {
        let mut d = deployment(ExperimentConfig::small());
        let nw = d.config().nw;
        d.set_worker_straggler(0, 50.0);
        let round = d.gradient_round(0, 0, nw - 1, 1).unwrap();
        // The straggler's compute time would dominate; since it is excluded,
        // computation time stays near the nominal per-worker cost.
        let nominal =
            d.cost_model()
                .gradient_time(d.dimension(), d.config().batch_size, d.device());
        assert!(round.computation_time < nominal * 2.0);
    }

    #[test]
    fn evaluate_returns_probabilities_and_finite_loss() {
        let d = deployment(ExperimentConfig::small());
        let (acc, loss) = d.evaluate(0);
        assert!((0.0..=1.0).contains(&acc));
        assert!(loss.is_finite());
    }

    #[test]
    fn server_fanout_increases_communication_cost() {
        let mut d = deployment(ExperimentConfig::small());
        let nw = d.config().nw;
        let single = d.gradient_round(0, 0, nw, 1).unwrap();
        let fanned = d.gradient_round(0, 0, nw, 3).unwrap();
        assert!(fanned.communication_time > single.communication_time);
    }
}
