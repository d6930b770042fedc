//! MDA — Minimum-Diameter Averaging (Rousseeuw 1985, as used by the paper).

use crate::gar::report_selection;
use crate::{
    validate_inputs, validate_views, AggregationError, AggregationResult, DistanceCache, Engine,
    Gar, SelectionOutcome,
};
use garfield_tensor::{GradientView, Tensor};

/// Minimum-Diameter Averaging.
///
/// MDA enumerates every subset of size `n - f`, finds the one with the
/// smallest diameter (the maximum pairwise distance inside the subset) and
/// returns the average of that subset. Its worst-case cost is exponential in
/// `f` (`C(n, f)` subsets), which the paper's Fig. 3 discussion notes is only
/// visible for large `f`; the pairwise-distance matrix is computed once
/// (`O(n² d)`) and reused across subsets.
///
/// Requires `n ≥ 2f + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mda {
    n: usize,
    f: usize,
}

impl Mda {
    /// Creates an MDA rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 2f + 1`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 2 * f + 1 {
            return Err(AggregationError::ResilienceViolated {
                rule: "mda",
                n,
                f,
                requirement: "n >= 2f + 1",
            });
        }
        Ok(Mda { n, f })
    }

    /// Returns the indices of the minimum-diameter subset of size `n - f`.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate`].
    pub fn select_indices(&self, inputs: &[Tensor]) -> AggregationResult<Vec<usize>> {
        validate_inputs(inputs, self.n)?;
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        self.select_indices_views(&views, &Engine::auto())
    }

    /// Zero-copy selection: the minimum-diameter subset over borrowed views.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate_views`].
    pub fn select_indices_views(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
    ) -> AggregationResult<Vec<usize>> {
        validate_views(inputs, self.n)?;
        let cache = DistanceCache::build(inputs, engine);
        Ok(self.select_cached(&cache))
    }

    /// Minimum-diameter subset selection over a prebuilt distance cache.
    ///
    /// The `C(n, f)` subset enumeration itself is sequential (it is a tiny
    /// scan over cached scalars once the `O(n² d)` distance work is paid) and
    /// keeps the original incumbent-pruned lexicographic order, so every
    /// engine selects the same subset.
    pub fn select_cached(&self, cache: &DistanceCache) -> Vec<usize> {
        let n = self.n;
        let keep = n - self.f;
        let dist = |i: usize, j: usize| cache.get(i, j);

        let mut best: Option<(f32, Vec<usize>)> = None;
        let mut subset: Vec<usize> = (0..keep).collect();
        loop {
            // Diameter of the current subset.
            let mut diameter = 0.0f32;
            'outer: for a in 0..keep {
                for b in (a + 1)..keep {
                    let d = dist(subset[a], subset[b]);
                    if d > diameter {
                        diameter = d;
                        if let Some((best_d, _)) = &best {
                            if diameter >= *best_d {
                                break 'outer; // cannot beat the incumbent
                            }
                        }
                    }
                }
            }
            match &best {
                Some((best_d, _)) if diameter >= *best_d => {}
                _ => best = Some((diameter, subset.clone())),
            }

            // Advance to the next k-combination in lexicographic order.
            let mut i = keep;
            loop {
                if i == 0 {
                    return best.expect("at least one subset was evaluated").1;
                }
                i -= 1;
                if subset[i] != i + n - keep {
                    break;
                }
            }
            subset[i] += 1;
            for j in i + 1..keep {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }
}

impl Gar for Mda {
    fn name(&self) -> &'static str {
        "mda"
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
        let cache = DistanceCache::build(inputs, engine);
        let selected = self.select_cached(&cache);
        report_selection(outcome, inputs, Some((&cache, &selected)));
        let mut out = Vec::new();
        crate::engine::average_indices_into(inputs, &selected, engine, &mut out);
        Ok(Tensor::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::TensorRng;

    #[test]
    fn requirement_is_2f_plus_1() {
        assert!(Mda::new(3, 1).is_ok());
        assert!(Mda::new(2, 1).is_err());
        assert!(Mda::new(7, 3).is_ok());
    }

    #[test]
    fn selects_the_tight_cluster_and_excludes_outliers() {
        let mut inputs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::from_slice(&[1.0 + 0.01 * i as f32, 2.0]))
            .collect();
        inputs.push(Tensor::from_slice(&[100.0, -100.0]));
        let mda = Mda::new(5, 1).unwrap();
        let selected = mda.select_indices(&inputs).unwrap();
        assert_eq!(selected.len(), 4);
        assert!(!selected.contains(&4));
        let out = mda.aggregate(&inputs).unwrap();
        assert!((out.data()[0] - 1.015).abs() < 1e-3);
        assert!((out.data()[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn with_f_zero_mda_is_exactly_the_average() {
        let mut rng = TensorRng::seed_from(9);
        let inputs: Vec<Tensor> = (0..4).map(|_| rng.normal_tensor(6usize)).collect();
        let mda = Mda::new(4, 0).unwrap();
        let out = mda.aggregate(&inputs).unwrap();
        let mut avg = Tensor::zeros(6usize);
        for t in &inputs {
            avg.add_assign_checked(t).unwrap();
        }
        avg.scale_inplace(0.25);
        for (a, b) in out.iter().zip(avg.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn tolerates_f_byzantine_inputs_up_to_the_bound() {
        let mut rng = TensorRng::seed_from(10);
        let mut inputs: Vec<Tensor> = (0..5)
            .map(|_| {
                Tensor::ones(8usize)
                    .try_add(&rng.normal_tensor(8usize).scale(0.05))
                    .unwrap()
            })
            .collect();
        inputs.push(Tensor::full(8usize, 1e7));
        inputs.push(Tensor::full(8usize, -1e7));
        let mda = Mda::new(7, 2).unwrap();
        let out = mda.aggregate(&inputs).unwrap();
        assert!(out.data().iter().all(|&v| (0.5..1.5).contains(&v)), "{out}");
    }

    #[test]
    fn output_stays_in_convex_hull_of_honest_inputs_when_attack_fails() {
        // All inputs honest: the output must stay within the coordinate-wise
        // min/max envelope since it is an average of a subset.
        let mut rng = TensorRng::seed_from(11);
        let inputs: Vec<Tensor> = (0..5).map(|_| rng.normal_tensor(4usize)).collect();
        let mda = Mda::new(5, 1).unwrap();
        let out = mda.aggregate(&inputs).unwrap();
        for c in 0..4 {
            let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
            let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(out.data()[c] >= min - 1e-5 && out.data()[c] <= max + 1e-5);
        }
    }

    #[test]
    fn validation_errors() {
        let mda = Mda::new(3, 1).unwrap();
        assert!(mda.aggregate(&[]).is_err());
        assert!(mda
            .aggregate(&[Tensor::zeros(2usize), Tensor::zeros(2usize)])
            .is_err());
    }
}
