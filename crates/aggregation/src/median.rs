//! Coordinate-wise Median GAR.

use crate::column_sort::map_sorted_columns;
use crate::gar::report_selection;
use crate::{validate_views, AggregationError, AggregationResult, Engine, Gar, SelectionOutcome};
use garfield_tensor::{total_order_unkey_f32, GradientView, Tensor};

/// The coordinate-wise median GAR (Xie et al., referenced as \[55\] in the paper).
///
/// Requires `n ≥ 2f + 1`. Complexity `O(n log² n · d)`: every coordinate's
/// column goes through one sorting network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Median {
    n: usize,
    f: usize,
}

impl Median {
    /// Creates a Median rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 2f + 1`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 2 * f + 1 {
            return Err(AggregationError::ResilienceViolated {
                rule: "median",
                n,
                f,
                requirement: "n >= 2f + 1",
            });
        }
        Ok(Median { n, f })
    }
}

impl Gar for Median {
    fn name(&self) -> &'static str {
        "median"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn f(&self) -> usize {
        self.f
    }

    fn aggregate_views_with(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: Option<&mut SelectionOutcome>,
    ) -> AggregationResult<Tensor> {
        validate_views(inputs, self.n)?;
        report_selection(outcome, inputs, None);
        Ok(coordinate_wise_median_views(inputs, engine))
    }
}

/// Coordinate-wise median of a non-empty, equal-length set of views: row
/// `(n − 1) / 2` of [`map_sorted_columns`]' sorted tile, so the selected
/// element (NaN placement included) is exactly what
/// `select_nth_unstable_by(total_cmp_f32)` returns on each column.
pub(crate) fn coordinate_wise_median_views(inputs: &[GradientView<'_>], engine: &Engine) -> Tensor {
    let rows: Vec<&[f32]> = inputs.iter().map(|v| v.data()).collect();
    let mid = (rows.len() - 1) / 2;
    map_sorted_columns(&rows, engine, |tile, out| {
        for (slot, &key) in out.iter_mut().zip(&tile[mid]) {
            *slot = total_order_unkey_f32(key);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirement_is_2f_plus_1() {
        assert!(Median::new(3, 1).is_ok());
        assert!(Median::new(2, 1).is_err());
        assert!(Median::new(7, 3).is_ok());
        assert!(Median::new(6, 3).is_err());
    }

    #[test]
    fn median_of_odd_inputs_is_exact() {
        let median = Median::new(5, 2).unwrap();
        let inputs: Vec<Tensor> = [5.0, 1.0, 3.0, 2.0, 4.0]
            .iter()
            .map(|&v| Tensor::from_slice(&[v, -v]))
            .collect();
        let out = median.aggregate(&inputs).unwrap();
        assert_eq!(out.data(), &[3.0, -3.0]);
    }

    #[test]
    fn median_of_three_follows_the_total_order() {
        // In `total_cmp_f32` order, +NaN sorts above every number, so the
        // column [NaN, 1, 2] has median 2. A `>`-based three-element sort
        // treats NaN as incomparable and returned 1.
        let median = Median::new(3, 1).unwrap();
        let inputs: Vec<Tensor> = [f32::NAN, 1.0, 2.0]
            .iter()
            .map(|&v| Tensor::from_slice(&[v, -v]))
            .collect();
        let out = median.aggregate(&inputs).unwrap();
        assert_eq!(out.data()[0].to_bits(), 2.0f32.to_bits());
        // -NaN sorts below every number: the column [-NaN, -1, -2] has
        // median -2.
        assert_eq!(out.data()[1].to_bits(), (-2.0f32).to_bits());
    }

    #[test]
    fn median_ignores_f_extreme_outliers() {
        let median = Median::new(5, 2).unwrap();
        let mut inputs: Vec<Tensor> = vec![
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.1]),
            Tensor::from_slice(&[0.9]),
        ];
        inputs.push(Tensor::from_slice(&[1e9]));
        inputs.push(Tensor::from_slice(&[-1e9]));
        let out = median.aggregate(&inputs).unwrap();
        assert!((0.9..=1.1).contains(&out.data()[0]));
    }

    #[test]
    fn median_output_is_within_input_range_per_coordinate() {
        let median = Median::new(3, 1).unwrap();
        let inputs = vec![
            Tensor::from_slice(&[1.0, -5.0, 2.0]),
            Tensor::from_slice(&[2.0, 0.0, 8.0]),
            Tensor::from_slice(&[3.0, 5.0, -4.0]),
        ];
        let out = median.aggregate(&inputs).unwrap();
        for (c, &v) in out.data().iter().enumerate() {
            let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
            let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(v >= min && v <= max);
        }
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let median = Median::new(3, 1).unwrap();
        let two = vec![Tensor::from_slice(&[1.0]), Tensor::from_slice(&[2.0])];
        assert!(matches!(
            median.aggregate(&two),
            Err(AggregationError::WrongInputCount {
                expected: 3,
                got: 2
            })
        ));
    }
}
