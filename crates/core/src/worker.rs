//! The Garfield `Worker` object and its Byzantine variant.

use crate::{CoreError, CoreResult};
use garfield_attacks::Attack;
use garfield_ml::{Batch, Dataset, Model};
use garfield_tensor::{Tensor, TensorRng};

/// An honest worker: owns a data shard and a model replica, and computes
/// gradient estimates on request (the paper's passive `Worker` object, §3.2).
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

    /// Computes a gradient estimate at the given model state, using the
    /// `iteration`-th mini-batch of this worker's shard.
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
pub struct ByzantineWorker {
    inner: Worker,
    attack: Option<Box<dyn Attack>>,
    rng: TensorRng,
}

impl ByzantineWorker {
    /// Wraps an honest worker with an optional attack.
    pub fn new(inner: Worker, attack: Option<Box<dyn Attack>>, rng: TensorRng) -> Self {
        ByzantineWorker { inner, attack, rng }
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
    /// Used by the deployment to build the omniscient adversary's view of the
    /// round, and by the live runtime to maintain the non-omniscient
    /// adversary's *self*-history (its own honest trajectory stands in for
    /// the peer view the collusion attacks estimate moments from).
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

    /// The vector this worker actually sends, given its honest gradient and
    /// the gradient view the adversary estimates moments from (the peers'
    /// honest gradients when omniscient, the worker's own recent honest
    /// gradients when not).
    pub fn sent_gradient(&mut self, honest: Tensor, peers: &[Tensor]) -> Tensor {
        self.corrupted(&honest, peers).unwrap_or(honest)
    }

    /// What this worker sends instead of `honest` (see
    /// [`ByzantineWorker::sent_gradient`]), read from a borrowed gradient;
    /// `None` when no attack is installed and the honest vector goes out.
    pub fn corrupted(&mut self, honest: &Tensor, peers: &[Tensor]) -> Option<Tensor> {
        let attack = self.attack.as_ref()?;
        Some(attack.corrupt(honest, peers, &mut self.rng))
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
    use garfield_attacks::ReversedVectorAttack;
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
}
