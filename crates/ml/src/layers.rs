//! Dense layers and activation functions with manual back-propagation.

use crate::{MlError, MlResult};
use garfield_tensor::{Initializer, Shape, Tensor, TensorRng};

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no non-linearity); used by the output layer.
    Linear,
    /// Rectified linear unit `max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Linear => x.clone(),
            Activation::Relu => x.map(|v| v.max(0.0)),
        }
    }

    /// Multiplies an upstream gradient by the activation derivative, evaluated
    /// at the *pre-activation* input `x`.
    pub fn backward(self, x: &Tensor, upstream: &Tensor) -> Tensor {
        let deriv = match self {
            Activation::Linear => return upstream.clone(),
            Activation::Relu => x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
        };
        upstream
            .try_mul(&deriv)
            .expect("activation gradients share the layer shape")
    }
}

/// A fully connected layer `y = x W + b` followed by an [`Activation`].
///
/// The layer holds no parameters: its [`DenseLayer::num_parameters`] values
/// are a slice of the model's flat vector, the `(input_dim, output_dim)`
/// weights in row-major order and then the `output_dim` bias.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    input_dim: usize,
    output_dim: usize,
    activation: Activation,
}

/// Cached forward-pass values needed by the backward pass.
#[derive(Debug, Clone)]
pub struct DenseCache<'a> {
    /// Layer input `(batch, input_dim)`, borrowed from the caller.
    pub input: &'a Tensor,
    /// Pre-activation output `(batch, output_dim)`.
    pub pre_activation: Tensor,
}

impl DenseLayer {
    /// Describes a layer of the given widths and activation.
    pub fn new(input_dim: usize, output_dim: usize, activation: Activation) -> Self {
        DenseLayer {
            input_dim,
            output_dim,
            activation,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters (`weights + bias`).
    pub fn num_parameters(&self) -> usize {
        self.input_dim * self.output_dim + self.output_dim
    }

    /// Appends the layer's initial parameters to `params`: Xavier weights
    /// drawn from `rng`, then a zero bias.
    pub(crate) fn init_parameters(&self, rng: &mut TensorRng, params: &mut Vec<f32>) {
        let shape = Shape::matrix(self.input_dim, self.output_dim);
        let init = Initializer::Xavier {
            fan_in: self.input_dim,
            fan_out: self.output_dim,
        };
        params.extend_from_slice(rng.tensor(shape, init).data());
        params.resize(params.len() + self.output_dim, 0.0);
    }

    /// Forward pass over a batch at the layer's parameters `params`,
    /// returning the activated output and the cache required by
    /// [`DenseLayer::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterMismatch`] if the input's column count is
    /// not `input_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not hold [`DenseLayer::num_parameters`] values.
    pub fn forward<'a>(
        &self,
        params: &[f32],
        input: &'a Tensor,
    ) -> MlResult<(Tensor, DenseCache<'a>)> {
        let (_, cols) = input
            .matrix_dims()
            .map_err(|_| MlError::InvalidData("dense layer input must be a matrix".into()))?;
        if cols != self.input_dim {
            return Err(MlError::ParameterMismatch {
                expected: self.input_dim,
                got: cols,
            });
        }
        let (weights, bias) = self.split(params);
        let mut pre = input
            .matmul_slice(weights, self.input_dim, self.output_dim)
            .expect("dimensions validated");
        // broadcast-add bias over rows
        for row in pre.data_mut().chunks_exact_mut(self.output_dim) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        let activated = self.activation.forward(&pre);
        Ok((
            activated,
            DenseCache {
                input,
                pre_activation: pre,
            },
        ))
    }

    /// Backward pass at the layer's parameters `params`: given the gradient
    /// of the loss w.r.t. this layer's activated output, computes
    /// `(grad_weights, grad_bias, grad_input)`. `grad_input` is computed only
    /// when `input_grad` asks for it: a network's first layer has no upstream
    /// layer to pass it to.
    pub fn backward(
        &self,
        params: &[f32],
        cache: &DenseCache<'_>,
        upstream: &Tensor,
        input_grad: bool,
    ) -> (Tensor, Tensor, Option<Tensor>) {
        // d pre-activation
        let dpre = self.activation.backward(&cache.pre_activation, upstream);
        let grad_weights = cache
            .input
            .matmul_tn(&dpre)
            .expect("dims agree by construction");
        let grad_bias = dpre.sum_rows().expect("dpre is a matrix");
        let grad_input = input_grad.then(|| {
            let (weights, _) = self.split(params);
            let shape = Shape::matrix(self.input_dim, self.output_dim);
            let weights =
                Tensor::from_vec(weights.to_vec(), shape).expect("split checked the length");
            dpre.matmul(&weights.transpose().expect("weights are a matrix"))
                .expect("dims agree by construction")
        });
        (grad_weights, grad_bias, grad_input)
    }

    /// Splits the layer's parameters into its weights and its bias.
    fn split<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "a dense layer's parameter slice"
        );
        params.split_at(self.input_dim * self.output_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer and its initial parameters.
    fn layer_with_params(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> (DenseLayer, Vec<f32>) {
        let layer = DenseLayer::new(input_dim, output_dim, activation);
        let mut params = Vec::new();
        layer.init_parameters(&mut TensorRng::seed_from(seed), &mut params);
        (layer, params)
    }

    #[test]
    fn activation_forward_values() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(Activation::Linear.forward(&x).data(), x.data());
    }

    #[test]
    fn relu_backward_masks_negative_inputs() {
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let up = Tensor::from_slice(&[5.0, 5.0]);
        assert_eq!(Activation::Relu.backward(&x, &up).data(), &[0.0, 5.0]);
    }

    #[test]
    fn dense_layer_shapes_and_param_count() {
        let (layer, params) = layer_with_params(4, 3, Activation::Relu, 1);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        let x = Tensor::from_vec(vec![0.5; 8], Shape::matrix(2, 4)).unwrap();
        let (y, cache) = layer.forward(&params, &x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(cache.pre_activation.shape().dims(), &[2, 3]);
    }

    #[test]
    fn dense_layer_rejects_wrong_input_width() {
        let (layer, params) = layer_with_params(4, 3, Activation::Relu, 1);
        let x = Tensor::from_vec(vec![0.5; 6], Shape::matrix(2, 3)).unwrap();
        assert!(layer.forward(&params, &x).is_err());
    }

    #[test]
    fn numerical_gradient_check_linear_layer() {
        // For a Linear activation and a scalar loss L = sum(y), the analytic
        // gradient of the weights is X^T * ones.
        let (layer, params) = layer_with_params(3, 2, Activation::Linear, 3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let (_, cache) = layer.forward(&params, &x).unwrap();
        let upstream = Tensor::ones(Shape::matrix(2, 2));
        let (gw, gb, gx) = layer.backward(&params, &cache, &upstream, true);
        // grad bias = column sums of upstream = [2, 2]
        assert_eq!(gb.data(), &[2.0, 2.0]);
        // grad weights = X^T * upstream
        let expected_gw = x.transpose().unwrap().matmul(&upstream).unwrap();
        assert_eq!(gw, expected_gw);
        assert_eq!(gx.expect("requested").shape().dims(), &[2, 3]);
        assert!(layer
            .backward(&params, &cache, &upstream, false)
            .2
            .is_none());
    }
}
