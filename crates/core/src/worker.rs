//! The Garfield `Worker` object and its Byzantine variant.

use crate::{CoreError, CoreResult};
use garfield_attacks::Attack;
use garfield_ml::{Batch, Dataset, Model};
use garfield_tensor::{Tensor, TensorRng};

/// An honest worker: owns a data shard and a model replica, and computes
/// gradient estimates on request (the paper's passive `Worker` object, §3.2).
#[derive(Clone)]
pub struct Worker {
    index: usize,
    replica: Box<dyn Model>,
    data: Dataset,
    batch_size: usize,
}

impl Worker {
    /// Creates a worker from its data shard and a model replica.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero batch size or an empty shard.
    pub fn new(
        index: usize,
        replica: Box<dyn Model>,
        data: Dataset,
        batch_size: usize,
    ) -> CoreResult<Self> {
        if batch_size == 0 {
            return Err(CoreError::InvalidConfig(
                "worker batch size must be positive".into(),
            ));
        }
        if data.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "worker {index} has an empty data shard"
            )));
        }
        Ok(Worker {
            index,
            replica,
            data,
            batch_size,
        })
    }

    /// The worker's index within the deployment.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker's local batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The replica's parameters: the model of the last gradient computed.
    pub fn parameters(&self) -> &Tensor {
        self.replica.parameters()
    }

    /// Computes a gradient estimate at the given model state, using the
    /// `iteration`-th mini-batch of this worker's shard: copies `params`
    /// into the replica (length-checked) and runs
    /// [`Worker::compute_gradient_with`] there.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] when `params` does not match the replica.
    pub fn compute_gradient(
        &mut self,
        params: &Tensor,
        iteration: usize,
    ) -> CoreResult<(f32, Tensor)> {
        self.replica.set_parameters(params)?;
        self.compute_gradient_with(iteration, |_| {})
    }

    /// The one compute path: `write` sets the replica's flat parameters in
    /// place (every value; the slice holds the previous model), then the
    /// gradient is computed there on the `iteration`-th mini-batch. A
    /// receiver writes a request's payload straight into the replica this
    /// way, with no model buffer in between.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the shard cannot produce a batch.
    pub fn compute_gradient_with(
        &mut self,
        iteration: usize,
        write: impl FnOnce(&mut [f32]),
    ) -> CoreResult<(f32, Tensor)> {
        write(self.replica.parameters_mut());
        let batch = self.batch(iteration)?;
        Ok(self.replica.gradient(&batch))
    }

    /// The mini-batch this worker would use at `iteration`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the shard cannot produce a batch.
    pub fn batch(&self, iteration: usize) -> CoreResult<Batch> {
        Ok(self.data.batch(iteration, self.batch_size)?)
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("index", &self.index)
            .field("batch_size", &self.batch_size)
            .field("shard", &self.data.len())
            .finish()
    }
}

/// A worker that may behave arbitrarily.
///
/// `ByzantineWorker` *inherits* the honest behaviour (it owns a real
/// [`Worker`]) and, when an [`Attack`] is installed, substitutes the gradient
/// it sends with the attack's output — mirroring the paper's
/// `Byzantine Worker` object that derives from `Worker`.
///
/// The adversary is omniscient on both substrates: an attacker whose attack
/// reads the round's honest gradients ([`AttackKind::reads_peers`]) keeps a
/// copy of every worker of the deployment and recomputes their gradients at
/// the model it was asked for ([`ByzantineWorker::attack`]). Batches are
/// indexed by iteration, so that view is exactly the round's honest
/// gradients, in the sim and on a live node alike.
///
/// [`AttackKind::reads_peers`]: garfield_attacks::AttackKind::reads_peers
pub struct ByzantineWorker {
    inner: Worker,
    attack: Option<Box<dyn Attack>>,
    rng: TensorRng,
    /// Every worker of the deployment, in index order, when the attack reads
    /// the round's honest gradients; empty otherwise. Filled by
    /// [`Deployment::new`](crate::Deployment::new).
    pub(crate) peers: Vec<Worker>,
}

impl ByzantineWorker {
    /// Wraps an honest worker with an optional attack.
    pub fn new(inner: Worker, attack: Option<Box<dyn Attack>>, rng: TensorRng) -> Self {
        ByzantineWorker {
            inner,
            attack,
            rng,
            peers: Vec::new(),
        }
    }

    /// The worker's index within the deployment.
    pub fn index(&self) -> usize {
        self.inner.index()
    }

    /// Whether this worker currently behaves Byzantine.
    pub fn is_byzantine(&self) -> bool {
        self.attack.is_some()
    }

    /// Access to the honest worker underneath.
    pub fn honest(&self) -> &Worker {
        &self.inner
    }

    /// The honest gradient this worker computes, bypassing any installed attack.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] when `params` does not match the replica.
    pub fn honest_compute(
        &mut self,
        params: &Tensor,
        iteration: usize,
    ) -> CoreResult<(f32, Tensor)> {
        self.inner.compute_gradient(params, iteration)
    }

    /// [`ByzantineWorker::honest_compute`] at the model `write` puts into the
    /// replica (see [`Worker::compute_gradient_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the shard cannot produce a batch.
    pub fn honest_compute_with(
        &mut self,
        iteration: usize,
        write: impl FnOnce(&mut [f32]),
    ) -> CoreResult<(f32, Tensor)> {
        self.inner.compute_gradient_with(iteration, write)
    }

    /// What this worker sends instead of `honest`, its gradient of the
    /// `iteration`-th batch at the model its replica holds; `None` on an
    /// honest worker, which sends `honest` and does no further work. The
    /// attack sees every peer's honest gradient at that same model, when it
    /// reads them, and draws the attack RNG stream once.
    pub fn attack(&mut self, honest: &Tensor, iteration: usize) -> Option<Tensor> {
        let attack = self.attack.as_ref()?;
        let params = self.inner.parameters();
        let mut view = Vec::with_capacity(self.peers.len());
        for peer in &mut self.peers {
            // A peer is a copy of a worker of this deployment: its replica
            // has this one's shape, and its shard is not empty.
            let computed = peer.compute_gradient(params, iteration);
            view.push(computed.expect("a peer computes").1);
        }
        Some(attack.corrupt(honest, &view, &mut self.rng))
    }

    /// The vector this worker sends, given its honest gradient and the
    /// gradients `peers` the attack corrupts with.
    pub fn sent_gradient(&mut self, honest: Tensor, peers: &[Tensor]) -> Tensor {
        match &self.attack {
            Some(attack) => attack.corrupt(&honest, peers, &mut self.rng),
            None => honest,
        }
    }
}

impl std::fmt::Debug for ByzantineWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzantineWorker")
            .field("index", &self.inner.index)
            .field("byzantine", &self.is_byzantine())
            .finish()
    }
}

#[cfg(test)]
impl Worker {
    /// Test helper: gradient at `params` on batch 0 without mutating iteration state.
    fn replica_gradient_for_test(&self, params: &Tensor) -> (f32, Tensor) {
        let mut replica = self.replica.clone_boxed();
        replica
            .set_parameters(params)
            .expect("test params are valid");
        let batch = self.data.batch(0, self.batch_size).expect("test batch");
        replica.gradient(&batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_attacks::{FallOfEmpiresAttack, ReversedVectorAttack};
    use garfield_ml::{DatasetKind, Mlp};

    fn setup() -> (Worker, Tensor) {
        let mut rng = TensorRng::seed_from(3);
        let data = Dataset::synthetic(DatasetKind::Tiny, 64, &mut rng);
        let model = Mlp::tiny(&mut rng);
        let params = model.parameters().clone();
        (Worker::new(0, Box::new(model), data, 8).unwrap(), params)
    }

    #[test]
    fn construction_validates_inputs() {
        let mut rng = TensorRng::seed_from(3);
        let data = Dataset::synthetic(DatasetKind::Tiny, 16, &mut rng);
        let model = Mlp::tiny(&mut rng);
        assert!(Worker::new(0, Box::new(model.clone()), data.clone(), 0).is_err());
        let empty = Dataset::from_samples(DatasetKind::Tiny, vec![], vec![]).unwrap();
        assert!(Worker::new(0, Box::new(model), empty, 4).is_err());
    }

    #[test]
    fn honest_worker_computes_finite_gradients() {
        let (mut worker, params) = setup();
        let (loss, grad) = worker.compute_gradient(&params, 0).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(grad.len(), params.len());
        assert!(grad.is_finite());
        assert_eq!(worker.batch_size(), 8);
        assert_eq!(worker.index(), 0);
    }

    #[test]
    fn different_iterations_use_different_batches() {
        let (mut worker, params) = setup();
        let (_, g0) = worker.compute_gradient(&params, 0).unwrap();
        let (_, g1) = worker.compute_gradient(&params, 1).unwrap();
        assert_ne!(
            g0, g1,
            "different mini-batches should give different gradients"
        );
    }

    #[test]
    fn wrong_parameter_length_is_an_error() {
        let (mut worker, _) = setup();
        assert!(worker.compute_gradient(&Tensor::zeros(3usize), 0).is_err());
    }

    #[test]
    fn byzantine_worker_without_attack_is_honest() {
        let (worker, params) = setup();
        let mut byz = ByzantineWorker::new(worker, None, TensorRng::seed_from(1));
        assert!(!byz.is_byzantine());
        let (_, honest) = byz.honest_compute(&params, 0).unwrap();
        assert_eq!(byz.sent_gradient(honest.clone(), &[]), honest);
    }

    #[test]
    fn byzantine_worker_with_reversed_attack_flips_the_gradient() {
        let (worker, params) = setup();
        let attack = Box::new(ReversedVectorAttack::amplified(100.0));
        let mut byz = ByzantineWorker::new(worker, Some(attack), TensorRng::seed_from(1));
        assert!(byz.is_byzantine());
        let (_, computed) = byz.honest_compute(&params, 0).unwrap();
        let sent = byz.sent_gradient(computed, &[]);
        let (_, honest) = byz.honest().replica_gradient_for_test(&params);
        for (s, h) in sent.iter().zip(honest.iter()) {
            assert!((s + 100.0 * h).abs() < 1e-3);
        }
    }

    #[test]
    fn attack_corrupts_with_every_peer_gradient_at_the_replica_model() {
        let (worker, params) = setup();
        let mut rng = TensorRng::seed_from(4);
        let other = Worker::new(
            1,
            Box::new(Mlp::tiny(&mut rng)),
            Dataset::synthetic(DatasetKind::Tiny, 32, &mut rng),
            8,
        )
        .unwrap();
        let mut peers = vec![worker.clone(), other];
        let view: Vec<Tensor> = peers
            .iter_mut()
            .map(|peer| peer.compute_gradient(&params, 2).unwrap().1)
            .collect();

        let mut honest = ByzantineWorker::new(worker.clone(), None, TensorRng::seed_from(1));
        honest.peers = peers.clone();
        let (_, own) = honest.honest_compute(&params, 2).unwrap();
        assert!(honest.attack(&own, 2).is_none());

        let attack = Box::new(FallOfEmpiresAttack::default());
        let mut byz = ByzantineWorker::new(worker, Some(attack), TensorRng::seed_from(1));
        byz.peers = peers;
        let (_, own) = byz.honest_compute(&params, 2).unwrap();
        let want =
            FallOfEmpiresAttack::default().corrupt(&own, &view, &mut TensorRng::seed_from(1));
        assert_eq!(byz.attack(&own, 2).unwrap(), want);
        assert_eq!(byz.sent_gradient(own, &view), want);
    }
}
