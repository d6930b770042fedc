//! The [`Model`] trait and its concrete implementations.
//!
//! A model is anything that can (1) lend out its parameters as one flat
//! [`Tensor`], (2) let that vector be written in place, and (3) compute a loss
//! and flat gradient on a mini-batch. The whole Byzantine-resilience stack —
//! GARs, servers, workers, attacks — operates only on those flat vectors,
//! mirroring how the paper's library wraps TensorFlow / PyTorch models.

use crate::data::Batch;
use crate::layers::{Activation, DenseLayer};
use crate::loss::softmax_cross_entropy;
use crate::DatasetKind;
use garfield_tensor::{Tensor, TensorRng};
use std::fmt;

/// Result alias for the ml crate.
pub type MlResult<T> = Result<T, MlError>;

/// Errors produced by models, datasets and optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// A flat parameter / gradient vector had the wrong length.
    ParameterMismatch {
        /// Expected number of scalars.
        expected: usize,
        /// Number of scalars received.
        got: usize,
    },
    /// Dataset or batch construction was given inconsistent data.
    InvalidData(String),
    /// An unknown model name was requested from the zoo.
    UnknownModel(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ParameterMismatch { expected, got } => {
                write!(
                    f,
                    "parameter vector length mismatch: expected {expected}, got {got}"
                )
            }
            MlError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            MlError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
        }
    }
}

impl std::error::Error for MlError {}

/// A trainable model operating on flat parameter vectors.
pub trait Model: Send {
    /// Total number of trainable scalars.
    fn num_parameters(&self) -> usize {
        self.parameters().len()
    }

    /// The current parameters as one flat vector.
    fn parameters(&self) -> &Tensor;

    /// The current parameters, writable in place.
    fn parameters_mut(&mut self) -> &mut [f32];

    /// Overwrites the parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterMismatch`] when the length is wrong.
    fn set_parameters(&mut self, params: &Tensor) -> MlResult<()> {
        let own = self.parameters_mut();
        if own.len() != params.len() {
            return Err(MlError::ParameterMismatch {
                expected: own.len(),
                got: params.len(),
            });
        }
        own.copy_from_slice(params.data());
        Ok(())
    }

    /// Computes `(loss, flat_gradient)` on a mini-batch at the current parameters.
    fn gradient(&self, batch: &Batch) -> (f32, Tensor);

    /// Computes class logits for a batch of inputs (one row per sample).
    fn predict(&self, inputs: &Tensor) -> Tensor;

    /// Mean loss over a batch at the current parameters.
    fn loss(&self, batch: &Batch) -> f32 {
        self.gradient(batch).0
    }

    /// Top-1 accuracy over a batch at the current parameters.
    fn evaluate_accuracy(&self, batch: &Batch) -> f32 {
        crate::metrics::top1_accuracy(&self.predict(&batch.inputs), &batch.labels)
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Clones the model into a boxed trait object.
    fn clone_boxed(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// A multi-layer perceptron with ReLU hidden layers and a linear output layer;
/// with no hidden layer, multinomial logistic regression.
///
/// All parameters live in one flat vector, in the order the wire, the GARs
/// and the checkpoints see them: layer by layer, each layer's row-major
/// weights and then its bias.
///
/// The small trainable models standing in for the paper's MNIST CNN and
/// CifarNet are [`Mlp::mnist_cnn_lite`] and [`Mlp::cifarnet_lite`].
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    params: Tensor,
    name: String,
}

impl Mlp {
    /// Builds an MLP with the given layer widths: Xavier-initialised
    /// weights, drawn layer by layer, and zero biases.
    ///
    /// `dims` must contain at least an input and an output width; hidden
    /// layers use ReLU and the final layer is linear (logits).
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn new(name: impl Into<String>, dims: &[usize], rng: &mut TensorRng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers: Vec<DenseLayer> = (0..dims.len() - 1)
            .map(|i| {
                let activation = if i + 2 == dims.len() {
                    Activation::Linear
                } else {
                    Activation::Relu
                };
                DenseLayer::new(dims[i], dims[i + 1], activation)
            })
            .collect();
        let mut params = Vec::with_capacity(layers.iter().map(DenseLayer::num_parameters).sum());
        for layer in &layers {
            layer.init_parameters(rng, &mut params);
        }
        Mlp {
            layers,
            params: Tensor::from(params),
            name: name.into(),
        }
    }

    /// Small trainable stand-in for the paper's `MNIST_CNN` (Table 1).
    pub fn mnist_cnn_lite(rng: &mut TensorRng) -> Self {
        Mlp::new(
            "mnist-cnn-lite",
            &[DatasetKind::MnistLike.features(), 32, 10],
            rng,
        )
    }

    /// Small trainable stand-in for the paper's `CifarNet` (Table 1).
    pub fn cifarnet_lite(rng: &mut TensorRng) -> Self {
        Mlp::new(
            "cifarnet-lite",
            &[DatasetKind::CifarLike.features(), 48, 10],
            rng,
        )
    }

    /// Small trainable model for the `Tiny` dataset used by fast tests.
    pub fn tiny(rng: &mut TensorRng) -> Self {
        Mlp::new(
            "tiny-mlp",
            &[DatasetKind::Tiny.features(), 8, DatasetKind::Tiny.classes()],
            rng,
        )
    }

    /// The layer widths, input first.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].input_dim()];
        dims.extend(self.layers.iter().map(|l| l.output_dim()));
        dims
    }
}

/// Back-propagation through `layers`, whose parameters are `params`, from
/// `input`: forward through every layer (each cache borrows its input,
/// which lives in this frame or the caller's), softmax cross-entropy on the
/// logits, then backward, writing each layer's weight and bias gradients
/// into its slice of `grad`. Returns the loss and — only when `input_grad`
/// asks — the gradient w.r.t. `input`.
fn backprop(
    layers: &[DenseLayer],
    params: &[f32],
    grad: &mut [f32],
    input: &Tensor,
    labels: &[usize],
    input_grad: bool,
) -> (f32, Option<Tensor>) {
    let (layer, rest) = layers.split_first().expect("an MLP has at least one layer");
    let (own, rest_params) = params.split_at(layer.num_parameters());
    let (own_grad, rest_grad) = grad.split_at_mut(layer.num_parameters());
    let (out, cache) = layer
        .forward(own, input)
        .expect("inputs match the model's feature count");
    let (loss, upstream) = if rest.is_empty() {
        softmax_cross_entropy(&out, labels)
    } else {
        let (loss, upstream) = backprop(rest, rest_params, rest_grad, &out, labels, true);
        (loss, upstream.expect("requested above"))
    };
    let gx = layer.backward(own, &cache, &upstream, own_grad, input_grad);
    (loss, gx)
}

impl Model for Mlp {
    fn parameters(&self) -> &Tensor {
        &self.params
    }

    fn parameters_mut(&mut self) -> &mut [f32] {
        self.params.data_mut()
    }

    fn gradient(&self, batch: &Batch) -> (f32, Tensor) {
        let mut grad = vec![0.0f32; self.params.len()];
        let (loss, _) = backprop(
            &self.layers,
            self.params.data(),
            &mut grad,
            &batch.inputs,
            &batch.labels,
            false,
        );
        (loss, Tensor::from(grad))
    }

    fn predict(&self, inputs: &Tensor) -> Tensor {
        let mut activ: Option<Tensor> = None;
        let mut rest = self.params.data();
        for layer in &self.layers {
            let (own, tail) = rest.split_at(layer.num_parameters());
            rest = tail;
            let (out, _) = layer
                .forward(own, activ.as_ref().unwrap_or(inputs))
                .expect("inputs match the model's feature count");
            activ = Some(out);
        }
        activ.expect("an MLP has at least one layer")
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, DatasetKind};

    fn tiny_setup() -> (Dataset, Mlp) {
        let mut rng = TensorRng::seed_from(7);
        let ds = Dataset::synthetic(DatasetKind::Tiny, 120, &mut rng);
        let model = Mlp::tiny(&mut rng);
        (ds, model)
    }

    #[test]
    fn parameter_round_trip_mlp() {
        let (_, mut model) = tiny_setup();
        let p = model.parameters().clone();
        assert_eq!(p.len(), model.num_parameters());
        let doubled = p.scale(2.0);
        model.set_parameters(&doubled).unwrap();
        assert_eq!(model.parameters(), &doubled);
        assert!(model.set_parameters(&Tensor::zeros(3usize)).is_err());
    }

    #[test]
    fn linear_model_param_count_matches_formula() {
        let mut rng = TensorRng::seed_from(1);
        let m = Mlp::new("linear-20x5", &[20, 5], &mut rng);
        assert_eq!(m.num_parameters(), 20 * 5 + 5);
        assert_eq!(m.parameters().len(), 105);
    }

    #[test]
    fn mlp_gradient_has_parameter_length_and_finite_values() {
        let (ds, model) = tiny_setup();
        let batch = ds.batch(0, 16).unwrap();
        let (loss, grad) = model.gradient(&batch);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(grad.len(), model.num_parameters());
        assert!(grad.is_finite());
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let (ds, mut model) = tiny_setup();
        let batch = ds.batch(0, 64).unwrap();
        let initial = model.loss(&batch);
        for _ in 0..30 {
            let (_, grad) = model.gradient(&batch);
            let mut p = model.parameters().clone();
            p.axpy(-0.1, &grad).unwrap();
            model.set_parameters(&p).unwrap();
        }
        let after = model.loss(&batch);
        assert!(
            after < initial * 0.8,
            "loss did not decrease: {initial} -> {after}"
        );
    }

    #[test]
    fn training_improves_accuracy_above_chance() {
        let (ds, mut model) = tiny_setup();
        let eval = ds.full_batch().unwrap();
        for step in 0..60 {
            let batch = ds.batch(step, 32).unwrap();
            let (_, grad) = model.gradient(&batch);
            let mut p = model.parameters().clone();
            p.axpy(-0.1, &grad).unwrap();
            model.set_parameters(&p).unwrap();
        }
        let acc = model.evaluate_accuracy(&eval);
        assert!(
            acc > 0.5,
            "accuracy after training should beat chance, got {acc}"
        );
    }

    #[test]
    fn mlp_gradient_matches_finite_differences_on_a_few_coordinates() {
        let mut rng = TensorRng::seed_from(11);
        let ds = Dataset::synthetic(DatasetKind::Tiny, 32, &mut rng);
        let model = Mlp::new("fd-check", &[16, 6, 4], &mut rng);
        let batch = ds.batch(0, 8).unwrap();
        let (_, grad) = model.gradient(&batch);
        let base = model.parameters();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates spread across the vector.
        for &i in &[0usize, 17, 49, base.len() - 1] {
            let mut plus = model.clone();
            let mut p = base.clone();
            p.data_mut()[i] += eps;
            plus.set_parameters(&p).unwrap();
            let mut minus = model.clone();
            let mut m = base.clone();
            m.data_mut()[i] -= eps;
            minus.set_parameters(&m).unwrap();
            let numeric = (plus.loss(&batch) - minus.loss(&batch)) / (2.0 * eps);
            let analytic = grad.data()[i];
            assert!(
                (numeric - analytic).abs() < 0.05 + 0.1 * analytic.abs(),
                "coordinate {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn boxed_model_clone_is_independent() {
        let (_, model) = tiny_setup();
        let boxed: Box<dyn Model> = Box::new(model);
        let mut copy = boxed.clone();
        let zero = Tensor::zeros(copy.num_parameters());
        copy.set_parameters(&zero).unwrap();
        assert_ne!(boxed.parameters(), copy.parameters());
    }
}
