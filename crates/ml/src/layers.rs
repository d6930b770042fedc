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
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Linear => x.clone(),
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Tanh => x.map(f32::tanh),
            Activation::Sigmoid => x.map(|v| 1.0 / (1.0 + (-v).exp())),
        }
    }

    /// Multiplies an upstream gradient by the activation derivative, evaluated
    /// at the *pre-activation* input `x`.
    pub fn backward(self, x: &Tensor, upstream: &Tensor) -> Tensor {
        let deriv = match self {
            Activation::Linear => return upstream.clone(),
            Activation::Relu => x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => x.map(|v| 1.0 - v.tanh() * v.tanh()),
            Activation::Sigmoid => x.map(|v| {
                let s = 1.0 / (1.0 + (-v).exp());
                s * (1.0 - s)
            }),
        };
        upstream
            .try_mul(&deriv)
            .expect("activation gradients share the layer shape")
    }
}

/// A fully connected layer `y = x W + b` followed by an [`Activation`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    input_dim: usize,
    output_dim: usize,
    activation: Activation,
    /// Weights, `(input_dim, output_dim)`.
    weights: Tensor,
    /// Bias, length `output_dim`.
    bias: Tensor,
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
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut TensorRng,
    ) -> Self {
        let weights = rng.tensor(
            Shape::matrix(input_dim, output_dim),
            Initializer::Xavier {
                fan_in: input_dim,
                fan_out: output_dim,
            },
        );
        let bias = Tensor::zeros(output_dim);
        DenseLayer {
            input_dim,
            output_dim,
            activation,
            weights,
            bias,
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

    /// Appends the layer parameters (weights then bias) to `out`.
    pub fn write_parameters(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.data());
        out.extend_from_slice(self.bias.data());
    }

    /// Reads the layer parameters back from a flat slice, returning how many
    /// values were consumed.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterMismatch`] if the slice is too short.
    pub fn read_parameters(&mut self, flat: &[f32]) -> MlResult<usize> {
        let need = self.num_parameters();
        if flat.len() < need {
            return Err(MlError::ParameterMismatch {
                expected: need,
                got: flat.len(),
            });
        }
        let w = self.input_dim * self.output_dim;
        self.weights = Tensor::from_vec(
            flat[..w].to_vec(),
            Shape::matrix(self.input_dim, self.output_dim),
        )
        .expect("length checked above");
        self.bias = Tensor::from(flat[w..need].to_vec());
        Ok(need)
    }

    /// Forward pass over a batch, returning the activated output and the cache
    /// required by [`DenseLayer::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterMismatch`] if the input's column count is
    /// not `input_dim`.
    pub fn forward<'a>(&self, input: &'a Tensor) -> MlResult<(Tensor, DenseCache<'a>)> {
        let (_, cols) = input
            .matrix_dims()
            .map_err(|_| MlError::InvalidData("dense layer input must be a matrix".into()))?;
        if cols != self.input_dim {
            return Err(MlError::ParameterMismatch {
                expected: self.input_dim,
                got: cols,
            });
        }
        let mut pre = input.matmul(&self.weights).expect("dimensions validated");
        // broadcast-add bias over rows
        let (rows, out_cols) = pre.matrix_dims().expect("matmul yields a matrix");
        for r in 0..rows {
            for c in 0..out_cols {
                let idx = r * out_cols + c;
                pre.data_mut()[idx] += self.bias.data()[c];
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

    /// Backward pass: given the gradient of the loss w.r.t. this layer's
    /// activated output, computes `(grad_weights, grad_bias, grad_input)`.
    /// `grad_input` is computed only when `input_grad` asks for it: a
    /// network's first layer has no upstream layer to pass it to.
    pub fn backward(
        &self,
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
            dpre.matmul(&self.weights.transpose().expect("weights are a matrix"))
                .expect("dims agree by construction")
        });
        (grad_weights, grad_bias, grad_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_forward_values() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(Activation::Linear.forward(&x).data(), x.data());
        let s = Activation::Sigmoid.forward(&Tensor::from_slice(&[0.0]));
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        let t = Activation::Tanh.forward(&Tensor::from_slice(&[0.0]));
        assert!(t.data()[0].abs() < 1e-6);
    }

    #[test]
    fn relu_backward_masks_negative_inputs() {
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let up = Tensor::from_slice(&[5.0, 5.0]);
        assert_eq!(Activation::Relu.backward(&x, &up).data(), &[0.0, 5.0]);
    }

    #[test]
    fn dense_layer_shapes_and_param_count() {
        let mut rng = TensorRng::seed_from(1);
        let layer = DenseLayer::new(4, 3, Activation::Relu, &mut rng);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        let x = Tensor::from_vec(vec![0.5; 8], Shape::matrix(2, 4)).unwrap();
        let (y, cache) = layer.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(cache.pre_activation.shape().dims(), &[2, 3]);
    }

    #[test]
    fn dense_layer_rejects_wrong_input_width() {
        let mut rng = TensorRng::seed_from(1);
        let layer = DenseLayer::new(4, 3, Activation::Relu, &mut rng);
        let x = Tensor::from_vec(vec![0.5; 6], Shape::matrix(2, 3)).unwrap();
        assert!(layer.forward(&x).is_err());
    }

    #[test]
    fn parameter_round_trip() {
        let mut rng = TensorRng::seed_from(2);
        let layer = DenseLayer::new(5, 2, Activation::Tanh, &mut rng);
        let mut flat = Vec::new();
        layer.write_parameters(&mut flat);
        assert_eq!(flat.len(), layer.num_parameters());

        let mut other = DenseLayer::new(5, 2, Activation::Tanh, &mut rng);
        assert_ne!(other, layer);
        let consumed = other.read_parameters(&flat).unwrap();
        assert_eq!(consumed, flat.len());
        assert_eq!(other, layer);
        assert!(other.read_parameters(&flat[..3]).is_err());
    }

    #[test]
    fn numerical_gradient_check_linear_layer() {
        // For a Linear activation and a scalar loss L = sum(y), the analytic
        // gradient of the weights is X^T * ones.
        let mut rng = TensorRng::seed_from(3);
        let layer = DenseLayer::new(3, 2, Activation::Linear, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let (_, cache) = layer.forward(&x).unwrap();
        let upstream = Tensor::ones(Shape::matrix(2, 2));
        let (gw, gb, gx) = layer.backward(&cache, &upstream, true);
        // grad bias = column sums of upstream = [2, 2]
        assert_eq!(gb.data(), &[2.0, 2.0]);
        // grad weights = X^T * upstream
        let expected_gw = x.transpose().unwrap().matmul(&upstream).unwrap();
        assert_eq!(gw, expected_gw);
        assert_eq!(gx.expect("requested").shape().dims(), &[2, 3]);
        assert!(layer.backward(&cache, &upstream, false).2.is_none());
    }
}
