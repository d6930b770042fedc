//! The simulated deployment: real servers and workers, and the vectors that
//! move between them.
//!
//! A [`Deployment`] instantiates every node of an [`ExperimentConfig`] as a
//! real in-process object (workers compute real gradients, servers run real
//! GARs and SGD updates, Byzantine nodes run real attacks). The
//! [`Trainer`](crate::Trainer) drives iterations through the two pull
//! primitives — [`Deployment::gradient_round`] and
//! [`Deployment::model_round`] — which are the paper's `get_gradients()` /
//! `get_models()` abstractions. They decide *which* replies make a quorum and
//! nothing else: simulated seconds are computed in one place,
//! [`SystemPlan::timing`](crate::system::SystemPlan::timing).

use crate::server::{ByzantineServer, ParameterServer};
use crate::worker::{ByzantineWorker, Worker};
use crate::{CoreError, CoreResult, ExperimentConfig};
use garfield_ml::{zoo, Batch, Dataset, Sgd};
use garfield_net::{NodeId, PullRound};
use garfield_tensor::{Tensor, TensorRng};

/// Result of one `get_gradients()` round as seen by one server.
#[derive(Debug, Clone)]
pub struct GradientRound {
    /// The gradient vectors actually collected (fastest `q`).
    pub gradients: Vec<Tensor>,
    /// Mean training loss reported by the *honest* workers this round.
    pub mean_loss: f32,
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
    workers: Vec<ByzantineWorker>,
    servers: Vec<ByzantineServer>,
    /// Per replica: whether it has crashed and stopped serving pulls.
    crashed: Vec<bool>,
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
            workers,
            servers,
            crashed: vec![false; nps],
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

    /// Crashes the `index`-th server replica: it stops serving model pulls.
    pub fn crash_server(&mut self, index: usize) {
        if let Some(crashed) = self.crashed.get_mut(index) {
            *crashed = true;
        }
    }

    /// Whether the `index`-th server replica is currently crashed.
    pub fn server_crashed(&self, index: usize) -> bool {
        self.crashed.get(index).copied().unwrap_or(false)
    }

    /// One `get_gradients(t, q)` round from the point of view of `server_index`.
    ///
    /// Every worker computes a real gradient at the server's current model
    /// state; Byzantine workers corrupt theirs. Every reply nominally takes
    /// the same time, so one jitter draw per worker ranks the arrivals and
    /// the fastest `quorum` replies are returned, in worker order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when fewer than `quorum` workers exist, and
    /// [`CoreError::Ml`] when a gradient computation fails.
    pub fn gradient_round(
        &mut self,
        server_index: usize,
        iteration: usize,
        quorum: usize,
    ) -> CoreResult<GradientRound> {
        let params = self.servers[server_index].honest().parameters();

        // First pass: honest gradients (visible to an omniscient adversary).
        let mut honest = Vec::with_capacity(self.workers.len());
        let mut losses = Vec::with_capacity(self.workers.len());
        for worker in &mut self.workers {
            let (loss, gradient) = worker.honest_compute(&params, iteration)?;
            losses.push(loss);
            honest.push(gradient);
        }

        // Second pass: the vectors actually sent, plus their arrival rank.
        let mut sent = Vec::with_capacity(self.workers.len());
        for (worker, gradient) in self.workers.iter_mut().zip(&honest) {
            sent.push(worker.sent_gradient(gradient.clone(), &honest));
        }
        let gradients = self.fastest(sent, quorum, "workers")?;
        let mean_loss = losses.iter().sum::<f32>() / losses.len() as f32;
        Ok(GradientRound {
            gradients,
            mean_loss,
        })
    }

    /// One `get_models(q)` round: `server_index` pulls the model vectors served
    /// by its live peer replicas and returns the fastest `quorum` of them, in
    /// replica order. Byzantine replicas serve corrupted vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when fewer than `quorum` live peers exist.
    pub fn model_round(&mut self, server_index: usize, quorum: usize) -> CoreResult<Vec<Tensor>> {
        let peer_models_honest: Vec<Tensor> = (0..self.servers.len())
            .filter(|&s| s != server_index)
            .map(|s| self.servers[s].honest().parameters())
            .collect();
        let mut served = Vec::with_capacity(self.servers.len());
        for s in 0..self.servers.len() {
            if s != server_index && !self.crashed[s] {
                served.push(self.servers[s].served_model(&peer_models_honest));
            }
        }
        self.fastest(served, quorum, "server peers")
    }

    /// The `quorum` fastest of `replies`, in the order given. Every reply
    /// nominally arrives at the same time, scaled by up to 5% of jitter, so
    /// the jitter draw alone — one per reply, in order — ranks the arrivals.
    fn fastest(
        &mut self,
        replies: Vec<Tensor>,
        quorum: usize,
        who: &str,
    ) -> CoreResult<Vec<Tensor>> {
        if replies.len() < quorum {
            return Err(CoreError::Net(format!(
                "only {} live {who} can reply, {quorum} required",
                replies.len()
            )));
        }
        let arrivals = (0..replies.len() as u32)
            .map(|position| (NodeId(position), f64::from(self.rng.uniform01())))
            .collect();
        let mut chosen = vec![false; replies.len()];
        for NodeId(position) in PullRound::new(arrivals).fastest(quorum.max(1)).0 {
            chosen[position as usize] = true;
        }
        let kept = replies
            .into_iter()
            .zip(chosen)
            .filter(|&(_, chosen)| chosen);
        Ok(kept.map(|(vector, _)| vector).collect())
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
        let round = d.gradient_round(0, 0, nw).unwrap();
        assert_eq!(round.gradients.len(), nw);
        assert!(round.mean_loss > 0.0);

        let partial = d.gradient_round(0, 1, nw - 2).unwrap();
        assert_eq!(partial.gradients.len(), nw - 2);
        assert!(d.gradient_round(0, 2, nw + 1).is_err());
    }

    #[test]
    fn byzantine_workers_corrupt_only_their_own_replies() {
        let mut cfg = ExperimentConfig::small();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(AttackKind::Reversed);
        let mut d = deployment(cfg);
        let nw = d.config().nw;
        let round = d.gradient_round(0, 0, nw).unwrap();
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
        assert_eq!(round.len(), d.server_count() - 1);
        d.crash_server(1);
        assert!(d.model_round(0, d.server_count() - 1).is_err());
        let ok = d.model_round(0, d.server_count() - 2).unwrap();
        assert_eq!(ok.len(), d.server_count() - 2);
    }

    #[test]
    fn evaluate_returns_probabilities_and_finite_loss() {
        let d = deployment(ExperimentConfig::small());
        let (acc, loss) = d.evaluate(0);
        assert!((0.0..=1.0).contains(&acc));
        assert!(loss.is_finite());
    }
}
