//! Plain averaging — the vanilla baseline GAR.

use crate::engine::average_views;
use crate::gar::report_selection;
use crate::{validate_views, AggregationError, AggregationResult, Engine, Gar, SelectionOutcome};
use garfield_tensor::{GradientView, Tensor};

/// Coordinate-wise arithmetic mean of the inputs.
///
/// This is what vanilla TensorFlow / PyTorch parameter servers do. It has no
/// Byzantine resilience whatsoever — a single corrupted input can move the
/// output arbitrarily — and serves as the paper's vanilla baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Average {
    n: usize,
}

impl Average {
    /// Creates an averaging rule over `n` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] when `n == 0`.
    pub fn new(n: usize) -> AggregationResult<Self> {
        if n == 0 {
            return Err(AggregationError::ResilienceViolated {
                rule: "average",
                n,
                f: 0,
                requirement: "n >= 1",
            });
        }
        Ok(Average { n })
    }
}

impl Gar for Average {
    fn name(&self) -> &'static str {
        "average"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn f(&self) -> usize {
        0
    }

    fn aggregate_views_with(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: Option<&mut SelectionOutcome>,
    ) -> AggregationResult<Tensor> {
        validate_views(inputs, self.n)?;
        report_selection(outcome, inputs, None);
        Ok(Tensor::from(average_views(inputs, engine)))
    }

    fn is_byzantine_resilient(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_inputs_coordinate_wise() {
        let avg = Average::new(3).unwrap();
        let inputs = vec![
            Tensor::from_slice(&[1.0, 2.0]),
            Tensor::from_slice(&[3.0, 4.0]),
            Tensor::from_slice(&[5.0, 6.0]),
        ];
        assert_eq!(avg.aggregate(&inputs).unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn rejects_zero_inputs_and_wrong_counts() {
        assert!(Average::new(0).is_err());
        let avg = Average::new(2).unwrap();
        assert!(avg.aggregate(&[]).is_err());
        assert!(avg.aggregate(&[Tensor::from_slice(&[1.0])]).is_err());
    }

    #[test]
    fn rejects_heterogeneous_shapes() {
        let avg = Average::new(2).unwrap();
        let inputs = vec![Tensor::from_slice(&[1.0]), Tensor::from_slice(&[1.0, 2.0])];
        assert_eq!(
            avg.aggregate(&inputs).unwrap_err(),
            AggregationError::HeterogeneousShapes
        );
    }

    #[test]
    fn a_single_outlier_corrupts_the_average() {
        // Documents *why* the paper replaces averaging: one Byzantine input
        // shifts the output arbitrarily far from the honest values.
        let avg = Average::new(3).unwrap();
        let inputs = vec![
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.0e9]),
        ];
        let out = avg.aggregate(&inputs).unwrap();
        assert!(out.data()[0] > 1.0e8);
    }
}
