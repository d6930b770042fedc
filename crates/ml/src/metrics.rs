//! Evaluation metrics.

use garfield_tensor::Tensor;

/// Top-1 accuracy: the fraction of logit rows whose argmax equals the label.
/// A row holding a NaN logit has no argmax and is never correct.
///
/// This is the paper's "accuracy" metric (§6.1). Returns 0.0 for empty input.
pub fn top1_accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let Ok((rows, cols)) = logits.matrix_dims() else {
        return 0.0;
    };
    if rows == 0 || labels.is_empty() {
        return 0.0;
    }
    let n = rows.min(labels.len());
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate().take(n) {
        let row = &logits.data()[r * cols..(r + 1) * cols];
        if row.iter().any(|v| v.is_nan()) {
            continue;
        }
        let mut best = 0usize;
        for (c, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = c;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct as f32 / n as f32
}

/// Alias for [`top1_accuracy`], matching the paper's terminology.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    top1_accuracy(logits, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::Shape;

    #[test]
    fn perfect_and_zero_accuracy() {
        let logits =
            Tensor::from_vec(vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0], Shape::matrix(2, 3)).unwrap();
        assert_eq!(top1_accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(top1_accuracy(&logits, &[2, 2]), 0.0);
        assert_eq!(top1_accuracy(&logits, &[0, 2]), 0.5);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(top1_accuracy(&Tensor::from_slice(&[1.0]), &[0]), 0.0);
        let logits = Tensor::zeros(Shape::matrix(1, 3));
        assert_eq!(top1_accuracy(&logits, &[]), 0.0);
    }

    #[test]
    fn a_row_holding_a_nan_is_never_correct() {
        let logits = Tensor::from_vec(
            vec![f32::NAN, f32::NAN, 1.0, f32::NAN, 0.0, 1.0],
            Shape::matrix(3, 2),
        )
        .unwrap();
        assert_eq!(top1_accuracy(&logits, &[0, 0, 1]), 1.0 / 3.0);
        assert_eq!(top1_accuracy(&logits, &[1, 1, 0]), 0.0);
    }

    #[test]
    fn ties_resolve_to_first_maximum() {
        let logits = Tensor::from_vec(vec![1.0, 1.0], Shape::matrix(1, 2)).unwrap();
        assert_eq!(top1_accuracy(&logits, &[0]), 1.0);
        assert_eq!(top1_accuracy(&logits, &[1]), 0.0);
    }
}
