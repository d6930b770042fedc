//! The Garfield `Server` object and its Byzantine variant.

use crate::CoreResult;
use garfield_aggregation::{Engine, Gar, SelectionOutcome};
use garfield_attacks::Attack;
use garfield_ml::{Batch, Model, Sgd};
use garfield_tensor::{GradientView, Tensor, TensorRng};

/// A parameter-server replica: owns the model state, updates it with
/// aggregated gradients, rewrites it from aggregated peer models and evaluates
/// accuracy (the paper's `Server` object, §3.2).
pub struct ParameterServer {
    index: usize,
    model: Box<dyn Model>,
    optimizer: Sgd,
}

impl ParameterServer {
    /// Creates a server replica around a model and an SGD optimizer.
    pub fn new(index: usize, model: Box<dyn Model>, optimizer: Sgd) -> Self {
        ParameterServer {
            index,
            model,
            optimizer,
        }
    }

    /// The server's index within the deployment.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The current flat model state (what `get_models()` serves to peers).
    pub fn parameters(&self) -> Tensor {
        self.model.parameters().clone()
    }

    /// Number of model parameters.
    pub fn dimension(&self) -> usize {
        self.model.num_parameters()
    }

    /// The optimizer's current state (read by the checkpoint writer).
    pub fn optimizer(&self) -> &Sgd {
        &self.optimizer
    }

    /// Mutable optimizer access (used to restore checkpointed state).
    pub fn optimizer_mut(&mut self) -> &mut Sgd {
        &mut self.optimizer
    }

    /// Applies one SGD step with an (already aggregated) gradient.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`](crate::CoreError::Ml) when the gradient length is wrong.
    pub fn update_model(&mut self, aggregated_gradient: &Tensor) -> CoreResult<()> {
        self.optimizer
            .step(self.model.as_mut(), aggregated_gradient)?;
        Ok(())
    }

    /// Overwrites the model state (used after aggregating peer models in MSMW
    /// and decentralized deployments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`](crate::CoreError::Ml) when the parameter length is wrong.
    pub fn write_model(&mut self, params: &Tensor) -> CoreResult<()> {
        self.model.set_parameters(params)?;
        Ok(())
    }

    /// Zero-copy aggregation that also reports which inputs the GAR kept
    /// and each input's distance to the surviving set (see
    /// [`SelectionOutcome`]) for per-peer suspicion scoring: scores and
    /// selects over borrowed gradient views (e.g. decoded wire payloads)
    /// under the given engine. Outputs are bit-identical to
    /// [`Gar::aggregate_views`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aggregation`](crate::CoreError::Aggregation)
    /// when the GAR rejects the inputs.
    pub fn aggregate_views_observed(
        &self,
        gar: &dyn Gar,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: &mut SelectionOutcome,
    ) -> CoreResult<Tensor> {
        Ok(gar.aggregate_views_observed(inputs, engine, outcome)?)
    }

    /// Top-1 accuracy of the current model on a held-out batch.
    pub fn compute_accuracy(&self, test: &Batch) -> f32 {
        self.model.evaluate_accuracy(test)
    }
}

impl std::fmt::Debug for ParameterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParameterServer")
            .field("index", &self.index)
            .field("dimension", &self.dimension())
            .finish()
    }
}

/// A server replica that may behave arbitrarily.
///
/// Like the paper's `Byzantine Server`, it performs the honest computation but
/// corrupts the model vector it *serves to peers*; its local state stays
/// consistent so the attack is undetectable from its own behaviour alone.
pub struct ByzantineServer {
    inner: ParameterServer,
    attack: Option<Box<dyn Attack>>,
    rng: TensorRng,
}

impl ByzantineServer {
    /// Wraps an honest server with an optional attack.
    pub fn new(inner: ParameterServer, attack: Option<Box<dyn Attack>>, rng: TensorRng) -> Self {
        ByzantineServer { inner, attack, rng }
    }

    /// Whether this server currently behaves Byzantine.
    pub fn is_byzantine(&self) -> bool {
        self.attack.is_some()
    }

    /// The honest server underneath.
    pub fn honest(&self) -> &ParameterServer {
        &self.inner
    }

    /// Mutable access to the honest server underneath (it still performs the
    /// normal update protocol locally).
    pub fn honest_mut(&mut self) -> &mut ParameterServer {
        &mut self.inner
    }

    /// The attack RNG's internal state (checkpointed so a resumed Byzantine
    /// replica keeps corrupting with the stream it would have used).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state_words()
    }

    /// Restores the attack RNG from checkpointed state words.
    pub fn set_rng_state(&mut self, words: [u64; 4]) {
        self.rng = TensorRng::from_state_words(words);
    }

    /// The model vector this replica *serves* when peers call `get_models()`.
    ///
    /// Honest replicas serve their true state; Byzantine replicas serve the
    /// attack's output.
    pub fn served_model(&mut self, peer_models: &[Tensor]) -> Tensor {
        let honest = self.inner.parameters();
        match &self.attack {
            None => honest,
            Some(attack) => attack.corrupt(&honest, peer_models, &mut self.rng),
        }
    }
}

impl std::fmt::Debug for ByzantineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzantineServer")
            .field("index", &self.inner.index)
            .field("byzantine", &self.is_byzantine())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_aggregation::{build_gar, GarKind};
    use garfield_attacks::RandomVectorAttack;
    use garfield_ml::{Dataset, DatasetKind, Mlp};

    fn server() -> (ParameterServer, Dataset) {
        let mut rng = TensorRng::seed_from(4);
        let data = Dataset::synthetic(DatasetKind::Tiny, 64, &mut rng);
        let model = Mlp::tiny(&mut rng);
        (
            ParameterServer::new(0, Box::new(model), Sgd::new(0.1)),
            data,
        )
    }

    #[test]
    fn update_moves_parameters_and_validates_length() {
        let (mut ps, _) = server();
        let before = ps.parameters();
        let grad = Tensor::ones(ps.dimension());
        ps.update_model(&grad).unwrap();
        assert_ne!(ps.parameters(), before);
        assert!(ps.update_model(&Tensor::ones(3usize)).is_err());
    }

    #[test]
    fn write_model_overwrites_state() {
        let (mut ps, _) = server();
        let zeros = Tensor::zeros(ps.dimension());
        ps.write_model(&zeros).unwrap();
        assert_eq!(ps.parameters(), zeros);
        assert!(ps.write_model(&Tensor::zeros(1usize)).is_err());
    }

    #[test]
    fn aggregate_delegates_to_the_gar() {
        let (ps, _) = server();
        let gar = build_gar(&GarKind::Median, 3, 1).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::full(4usize, i as f32)).collect();
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let (engine, mut outcome) = (Engine::sequential(), SelectionOutcome::default());
        let out = ps
            .aggregate_views_observed(gar.as_ref(), &views, &engine, &mut outcome)
            .unwrap();
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0]);
        assert!(ps
            .aggregate_views_observed(gar.as_ref(), &views[..2], &engine, &mut outcome)
            .is_err());
    }

    #[test]
    fn accuracy_is_a_probability() {
        let (ps, data) = server();
        let test = data.full_batch().unwrap();
        assert!((0.0..=1.0).contains(&ps.compute_accuracy(&test)));
    }

    #[test]
    fn byzantine_server_serves_corrupted_models_but_keeps_local_state() {
        let (ps, _) = server();
        let honest_params = ps.parameters();
        let mut byz = ByzantineServer::new(
            ps,
            Some(Box::new(RandomVectorAttack::default())),
            TensorRng::seed_from(9),
        );
        assert!(byz.is_byzantine());
        let served = byz.served_model(&[]);
        assert_ne!(
            served, honest_params,
            "attack should corrupt the served model"
        );
        assert_eq!(
            byz.honest().parameters(),
            honest_params,
            "local state untouched"
        );
    }

    #[test]
    fn honest_byzantine_wrapper_serves_truth() {
        let (ps, _) = server();
        let expected = ps.parameters();
        let mut wrapper = ByzantineServer::new(ps, None, TensorRng::seed_from(1));
        assert!(!wrapper.is_byzantine());
        assert_eq!(wrapper.served_model(&[]), expected);
    }
}
