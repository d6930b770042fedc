//! `Mlp::gradient` is pinned bit for bit to back-propagation written the
//! straightforward way: a plain ikj matmul with the zero skip, materialised
//! transposes for `inputᵀ · dpre` and `dpre · Wᵀ`, and the first layer's
//! input gradient computed and then dropped. The fast path reads transposes
//! in place and never computes that input gradient; neither may change a
//! bit of the loss or of the gradient.

use garfield_ml::{softmax_cross_entropy, Dataset, DatasetKind, Mlp, Model};
use garfield_tensor::{Shape, Tensor, TensorRng};

/// The plain ikj loop with the zero skip.
fn ikj(a: &Tensor, b: &Tensor) -> Tensor {
    let (r, k) = a.matrix_dims().unwrap();
    let (_, c) = b.matrix_dims().unwrap();
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for kk in 0..k {
            let coeff = a.data()[i * k + kk];
            if coeff == 0.0 {
                continue;
            }
            for j in 0..c {
                out[i * c + j] += coeff * b.data()[kk * c + j];
            }
        }
    }
    Tensor::from_vec(out, Shape::matrix(r, c)).unwrap()
}

/// `(loss, flat gradient)` of an MLP with ReLU hidden layers and a linear
/// output layer, from its layer widths and flat parameters.
fn reference_gradient(
    dims: &[usize],
    params: &[f32],
    inputs: &Tensor,
    labels: &[usize],
) -> (f32, Vec<f32>) {
    let mut layers = Vec::new();
    let mut offset = 0;
    for w in dims.windows(2) {
        let (fan_in, fan_out) = (w[0], w[1]);
        let weights = Tensor::from_vec(
            params[offset..offset + fan_in * fan_out].to_vec(),
            Shape::matrix(fan_in, fan_out),
        )
        .unwrap();
        offset += fan_in * fan_out;
        let bias = params[offset..offset + fan_out].to_vec();
        offset += fan_out;
        layers.push((weights, bias));
    }
    assert_eq!(offset, params.len());

    // Forward, keeping each layer's input and pre-activation.
    let last = layers.len() - 1;
    let mut activ = inputs.clone();
    let mut caches = Vec::new();
    for (l, (weights, bias)) in layers.iter().enumerate() {
        let mut pre = ikj(&activ, weights);
        let out_cols = bias.len();
        for (idx, v) in pre.data_mut().iter_mut().enumerate() {
            *v += bias[idx % out_cols];
        }
        let out = if l == last {
            pre.clone()
        } else {
            pre.map(|v| v.max(0.0))
        };
        caches.push((activ, pre));
        activ = out;
    }
    let (loss, mut upstream) = softmax_cross_entropy(&activ, labels);

    // Backward, every layer alike: layer 0's input gradient is computed too.
    let mut grads = Vec::new();
    for (l, ((weights, _), (input, pre))) in layers.iter().zip(&caches).enumerate().rev() {
        let dpre = if l == last {
            upstream.clone()
        } else {
            upstream
                .try_mul(&pre.map(|v| if v > 0.0 { 1.0 } else { 0.0 }))
                .unwrap()
        };
        let grad_weights = ikj(&input.transpose().unwrap(), &dpre);
        let grad_bias = dpre.sum_rows().unwrap();
        upstream = ikj(&dpre, &weights.transpose().unwrap());
        grads.push((grad_weights, grad_bias));
    }
    let mut flat = Vec::new();
    for (gw, gb) in grads.iter().rev() {
        flat.extend_from_slice(gw.data());
        flat.extend_from_slice(gb.data());
    }
    (loss, flat)
}

#[test]
fn mlp_gradient_is_bit_identical_to_the_materialised_transpose_reference() {
    let mut rng = TensorRng::seed_from(42);
    let mnist = DatasetKind::MnistLike;
    let models = [
        (Mlp::tiny(&mut rng), DatasetKind::Tiny),
        (
            Mlp::new(
                "linear-mnist",
                &[mnist.features(), mnist.classes()],
                &mut rng,
            ),
            mnist,
        ),
        (Mlp::cifarnet_lite(&mut rng), DatasetKind::CifarLike),
    ];
    for (model, kind) in &models {
        let data = Dataset::synthetic(*kind, 128, &mut rng);
        let params = model.parameters();
        // The batch is the forward products' row count: these leave every
        // remainder 1..=5 after the kernel's 6-row groups, with 0, 1, 2 and
        // 10 full groups before it.
        for (step, batch_size) in [1, 2, 3, 5, 7, 8, 13, 64, 65].into_iter().enumerate() {
            let batch = data.batch(step, batch_size).unwrap();
            let (loss, grad) = model.gradient(&batch);
            let (want_loss, want) =
                reference_gradient(&model.dims(), params.data(), &batch.inputs, &batch.labels);
            let what = format!("{} at batch {batch_size}", model.name());
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss");
            assert_eq!(grad.len(), want.len(), "{what}: gradient length");
            for (idx, (g, w)) in grad.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what}: coordinate {idx}: {g} vs {w}"
                );
            }
        }
    }
}
