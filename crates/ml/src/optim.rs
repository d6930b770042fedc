//! Optimizers applying aggregated gradients to model parameters.

use crate::{MlError, MlResult, Model};
use garfield_tensor::Tensor;

/// An optimizer that updates a [`Model`] in place from a flat gradient.
pub trait Optimizer: Send {
    /// Applies one update step with the given flat gradient.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterMismatch`] when the gradient length does
    /// not match the model's parameter count.
    fn step(&mut self, model: &mut dyn Model, gradient: &Tensor) -> MlResult<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain SGD with optional Polyak momentum.
///
/// ```rust
/// use garfield_ml::{Sgd, Optimizer};
/// let opt = Sgd::new(0.1).with_momentum(0.9);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f32,
    momentum: f32,
    steps: u64,
    velocity: Option<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate and no momentum.
    pub fn new(learning_rate: f32) -> Self {
        Sgd {
            learning_rate,
            momentum: 0.0,
            steps: 0,
            velocity: None,
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The accumulated momentum velocity, if any step has built one.
    pub fn velocity(&self) -> Option<&Tensor> {
        self.velocity.as_ref()
    }

    /// Restores the optimizer's mutable state (step count and velocity) from
    /// a checkpoint.
    ///
    /// The hyper-parameters (learning rate, momentum) are *not*
    /// restored: they are derived from the experiment configuration when the
    /// optimizer is rebuilt, and a resumed run must use the same config. With
    /// the state restored, the next [`Sgd::step`] is bit-identical to the one
    /// the original optimizer would have taken.
    pub fn restore(&mut self, steps: u64, velocity: Option<Tensor>) {
        self.steps = steps;
        self.velocity = velocity;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Model, gradient: &Tensor) -> MlResult<()> {
        let mut params = model.parameters();
        if gradient.len() != params.len() {
            return Err(MlError::ParameterMismatch {
                expected: params.len(),
                got: gradient.len(),
            });
        }
        let lr = self.learning_rate;
        let update = if self.momentum > 0.0 {
            let mut v = match self.velocity.take() {
                Some(v) if v.len() == gradient.len() => v,
                _ => Tensor::zeros(gradient.len()),
            };
            v.scale_inplace(self.momentum);
            v.axpy(1.0, gradient)
                .expect("velocity and gradient share length");
            &*self.velocity.insert(v)
        } else {
            gradient
        };
        params.axpy(-lr, update).expect("length checked above");
        model.set_parameters(&params)?;
        self.steps += 1;
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.learning_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, DatasetKind};
    use crate::model::Mlp;
    use garfield_tensor::TensorRng;

    #[test]
    fn sgd_moves_parameters_against_the_gradient() {
        let mut rng = TensorRng::seed_from(5);
        let mut model = Mlp::tiny(&mut rng);
        let before = model.parameters();
        let grad = Tensor::ones(model.num_parameters());
        let mut opt = Sgd::new(0.5);
        opt.step(&mut model, &grad).unwrap();
        let after = model.parameters();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - 0.5 - a).abs() < 1e-6);
        }
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn sgd_rejects_wrong_gradient_length() {
        let mut rng = TensorRng::seed_from(5);
        let mut model = Mlp::tiny(&mut rng);
        let mut opt = Sgd::new(0.1);
        assert!(opt.step(&mut model, &Tensor::zeros(3usize)).is_err());
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut rng = TensorRng::seed_from(5);
        let mut model = Mlp::tiny(&mut rng);
        let n = model.num_parameters();
        let before = model.parameters();
        let grad = Tensor::ones(n);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        opt.step(&mut model, &grad).unwrap();
        opt.step(&mut model, &grad).unwrap();
        // After two steps: first update 0.1, second 0.1 * (1 + 0.9) = 0.19.
        let after = model.parameters();
        let moved = before.data()[0] - after.data()[0];
        assert!((moved - 0.29).abs() < 1e-5, "moved {moved}");
    }

    #[test]
    fn restored_optimizer_steps_bit_identically() {
        // Run 3 steps, checkpoint (steps + velocity), rebuild a fresh
        // optimizer from the same hyper-parameters, restore, run 2 more
        // steps on both: the parameter trajectories must agree bit for bit.
        let mut rng = TensorRng::seed_from(17);
        let mut model_a = Mlp::tiny(&mut rng);
        let mut model_b = model_a.clone();
        let n = model_a.num_parameters();
        let grads: Vec<Tensor> = (0..5)
            .map(|k| Tensor::full(n, 0.25 * (k as f32 + 1.0)))
            .collect();

        let mut opt_a = Sgd::new(0.1).with_momentum(0.9);
        for g in &grads[..3] {
            opt_a.step(&mut model_a, g).unwrap();
        }
        let steps = opt_a.steps();
        let velocity = opt_a.velocity().cloned();

        let mut opt_b = Sgd::new(0.1).with_momentum(0.9);
        model_b.set_parameters(&model_a.parameters()).unwrap();
        opt_b.restore(steps, velocity);

        for g in &grads[3..] {
            opt_a.step(&mut model_a, g).unwrap();
            opt_b.step(&mut model_b, g).unwrap();
        }
        let bits_a: Vec<u32> = model_a
            .parameters()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let bits_b: Vec<u32> = model_b
            .parameters()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits_a, bits_b);
        assert_eq!(opt_a.steps(), opt_b.steps());
    }

    #[test]
    fn sgd_trains_the_tiny_task() {
        let mut rng = TensorRng::seed_from(13);
        let ds = Dataset::synthetic(DatasetKind::Tiny, 128, &mut rng);
        let mut model = Mlp::tiny(&mut rng);
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        let eval = ds.full_batch().unwrap();
        let before = model.evaluate_accuracy(&eval);
        for step in 0..80 {
            let batch = ds.batch(step, 32).unwrap();
            let (_, grad) = model.gradient(&batch);
            opt.step(&mut model, &grad).unwrap();
        }
        let after = model.evaluate_accuracy(&eval);
        assert!(after > before.max(0.5), "accuracy {before} -> {after}");
    }
}
