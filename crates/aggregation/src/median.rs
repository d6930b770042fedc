//! Coordinate-wise Median GAR and the branchless 3-element ordering primitive.

use crate::gar::report_selection;
use crate::{validate_views, AggregationError, AggregationResult, Engine, Gar, SelectionOutcome};
use garfield_tensor::{GradientView, Tensor};

/// Orders three values without data-dependent branching.
///
/// This mirrors the SIMT-friendly selection-instruction primitive of §4.3 of
/// the paper: the three comparisons are converted to integers and combined
/// arithmetically into the output indices, so a GPU warp executing it never
/// diverges. On the CPU it is used as the building block of the small-`n`
/// median path and is exercised directly by the micro-benchmarks.
pub fn sort3_branchless(v: [f32; 3]) -> [f32; 3] {
    let c = [
        usize::from(v[0] > v[1]),
        usize::from(v[0] > v[2]),
        usize::from(v[1] > v[2]),
    ];
    // Index of the smallest and largest element, computed arithmetically
    // (same spirit as the paper's formula built on the selection instruction).
    let i0 = (1 + c[0] + 2 * c[1] + c[2] - (c[1] ^ c[2])) / 2;
    let i1 = (4 - c[0] - 2 * c[1] - c[2] + (c[0] ^ c[1])) / 2;
    [v[i0], v[3 - i0 - i1], v[i1]]
}

/// The coordinate-wise median GAR (Xie et al., referenced as \[55\] in the paper).
///
/// Requires `n ≥ 2f + 1`. Complexity `O(n d)` in the best case.
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

/// Coordinate-wise median of a non-empty, equal-length set of views, chunked
/// across threads by coordinate range (each chunk owns private scratch;
/// every coordinate runs the same scalar kernel on any engine).
///
/// Columns are gathered as [`total_order_key_f32`] integer keys and the
/// median selected with native `u32` quickselect — the keying is a monotone
/// bijection of the workspace's `total_cmp_f32` order, so the selected
/// element (NaN placement included) is exactly what
/// `median_inplace`/`select_nth_unstable_by(total_cmp_f32)` would return,
/// without spending the whole coordinate budget on comparator calls.
///
/// Gathering goes through an L2-resident transpose tile of
/// [`COLUMN_TILE`](crate::engine::COLUMN_TILE) coordinates: reading a column
/// straight from `n` multi-megabyte inputs is `n` concurrent strided
/// streams, so each input's tile segment is copied sequentially first and
/// the column then read contiguously. The median is a pure function of the
/// column multiset, so tile/chunk boundaries (which differ across engines)
/// cannot change the output bits.
pub(crate) fn coordinate_wise_median_views(inputs: &[GradientView<'_>], engine: &Engine) -> Tensor {
    use crate::engine::COLUMN_TILE;
    use garfield_tensor::{total_order_key_f32, total_order_unkey_f32};
    let d = inputs[0].len();
    let n = inputs.len();
    let mid = (n - 1) / 2;
    let mut out = vec![0.0f32; d];
    engine.fill_chunks(&mut out, n, |base, chunk| {
        if n == 3 {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let coord = base + k;
                *slot = sort3_branchless([
                    inputs[0].data()[coord],
                    inputs[1].data()[coord],
                    inputs[2].data()[coord],
                ])[1];
            }
            return;
        }
        let mut tile: Vec<u32> = vec![0; n * COLUMN_TILE];
        let mut t0 = 0;
        while t0 < chunk.len() {
            let t_len = COLUMN_TILE.min(chunk.len() - t0);
            for (i, input) in inputs.iter().enumerate() {
                let src = &input.data()[base + t0..base + t0 + t_len];
                for (t, &v) in src.iter().enumerate() {
                    tile[t * n + i] = total_order_key_f32(v);
                }
            }
            for (t, slot) in chunk[t0..t0 + t_len].iter_mut().enumerate() {
                let col = &mut tile[t * n..t * n + n];
                let (_, m, _) = col.select_nth_unstable(mid);
                *slot = total_order_unkey_f32(*m);
            }
            t0 += t_len;
        }
    });
    Tensor::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort3_orders_every_permutation() {
        let perms = [
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [2.0, 1.0, 3.0],
            [2.0, 3.0, 1.0],
            [3.0, 1.0, 2.0],
            [3.0, 2.0, 1.0],
        ];
        for p in perms {
            assert_eq!(sort3_branchless(p), [1.0, 2.0, 3.0], "failed on {p:?}");
        }
    }

    #[test]
    fn sort3_handles_duplicates() {
        assert_eq!(sort3_branchless([2.0, 2.0, 1.0]), [1.0, 2.0, 2.0]);
        assert_eq!(sort3_branchless([5.0, 5.0, 5.0]), [5.0, 5.0, 5.0]);
        assert_eq!(sort3_branchless([1.0, 2.0, 2.0]), [1.0, 2.0, 2.0]);
    }

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
