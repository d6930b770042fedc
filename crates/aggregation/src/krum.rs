//! Krum and Multi-Krum GARs (Blanchard et al., NeurIPS 2017).
//!
//! Both rules run on the zero-copy engine: the `O(n² d)` pairwise-distance
//! matrix is built once into a [`DistanceCache`] (chunked across threads by
//! the [`Engine`]) and every scoring decision reads from it. Selection
//! returns *indices*; the only data copied is the output vector.

use crate::engine::{krum_best_cached, multi_krum_cached};
use crate::gar::report_selection;
use crate::{
    validate_inputs, validate_views, AggregationError, AggregationResult, DistanceCache, Engine,
    Gar, SelectionOutcome, SelectionScratch,
};
use garfield_tensor::{GradientView, Tensor};

/// Krum: selects the single gradient with the smallest score.
///
/// Requires `n ≥ 2f + 3`. Complexity `O(n² d)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Krum {
    n: usize,
    f: usize,
}

impl Krum {
    /// Creates a Krum rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 2f + 3`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 2 * f + 3 {
            return Err(AggregationError::ResilienceViolated {
                rule: "krum",
                n,
                f,
                requirement: "n >= 2f + 3",
            });
        }
        Ok(Krum { n, f })
    }

    /// Returns the index of the gradient Krum would select.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate`].
    pub fn select_index(&self, inputs: &[Tensor]) -> AggregationResult<usize> {
        validate_inputs(inputs, self.n)?;
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        self.select_index_views(&views, &Engine::auto())
    }

    /// Zero-copy selection: the index Krum selects among `inputs`.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate_views`].
    pub fn select_index_views(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
    ) -> AggregationResult<usize> {
        validate_views(inputs, self.n)?;
        let cache = DistanceCache::build(inputs, engine);
        Ok(self.select_cached(&cache, &mut SelectionScratch::new()))
    }

    /// Allocation-free selection over a prebuilt cache: after one warm-up
    /// call the scratch buffers are sized and repeated calls perform zero
    /// heap allocations (asserted by the counting-allocator test).
    pub fn select_cached(&self, cache: &DistanceCache, scratch: &mut SelectionScratch) -> usize {
        krum_best_cached(cache, self.f, scratch)
    }
}

impl Gar for Krum {
    fn name(&self) -> &'static str {
        "krum"
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
        let idx = self.select_cached(&cache, &mut SelectionScratch::new());
        report_selection(outcome, inputs, Some((&cache, &[idx])));
        Ok(inputs[idx].to_tensor())
    }
}

/// Multi-Krum: averages the `n - f - 2` smallest-scoring gradients.
///
/// This is the variant AggregaThor and the paper's MSMW synchronous setup use;
/// it converges faster than Krum because it keeps more honest gradients.
/// Requires `n ≥ 2f + 3`. Complexity `O(n² d)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiKrum {
    n: usize,
    f: usize,
    m: usize,
}

impl MultiKrum {
    /// Creates a Multi-Krum rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// The selection-set size defaults to `n - f - 2`.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 2f + 3`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 2 * f + 3 {
            return Err(AggregationError::ResilienceViolated {
                rule: "multi-krum",
                n,
                f,
                requirement: "n >= 2f + 3",
            });
        }
        Ok(MultiKrum { n, f, m: n - f - 2 })
    }

    /// Number of gradients averaged by the selection phase.
    pub fn selection_size(&self) -> usize {
        self.m
    }

    /// Returns the indices of the gradients Multi-Krum selects, best first.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate`].
    pub fn select_indices(&self, inputs: &[Tensor]) -> AggregationResult<Vec<usize>> {
        validate_inputs(inputs, self.n)?;
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        self.select_indices_views(&views, &Engine::auto())
    }

    /// Zero-copy selection: the indices Multi-Krum selects, best first.
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
        Ok(self
            .select_cached(&cache, &mut SelectionScratch::new())
            .to_vec())
    }

    /// Allocation-free selection over a prebuilt cache: the selected indices
    /// are left in the scratch's order buffer (best first) and returned as a
    /// slice.
    pub fn select_cached<'s>(
        &self,
        cache: &DistanceCache,
        scratch: &'s mut SelectionScratch,
    ) -> &'s [usize] {
        multi_krum_cached(cache, self.f, self.m, scratch);
        scratch.order()
    }
}

impl Gar for MultiKrum {
    fn name(&self) -> &'static str {
        "multi-krum"
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
        let mut scratch = SelectionScratch::new();
        let selected = self.select_cached(&cache, &mut scratch);
        report_selection(outcome, inputs, Some((&cache, selected)));
        let mut out = Vec::new();
        crate::engine::average_indices_into(inputs, selected, engine, &mut out);
        Ok(Tensor::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::TensorRng;

    fn honest_cluster(n: usize, d: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = TensorRng::seed_from(seed);
        (0..n)
            .map(|_| {
                let noise = rng.normal_tensor(d).scale(0.1);
                Tensor::ones(d).try_add(&noise).unwrap()
            })
            .collect()
    }

    /// Krum scores of owned tensors, through the cache path.
    fn krum_scores(inputs: &[Tensor], f: usize) -> Vec<f32> {
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let cache = DistanceCache::build(&views, &Engine::sequential());
        let mut scratch = SelectionScratch::new();
        crate::engine::krum_scores_cached(&cache, f, &mut scratch);
        scratch.scores().to_vec()
    }

    #[test]
    fn requirement_is_2f_plus_3() {
        assert!(Krum::new(5, 1).is_ok());
        assert!(Krum::new(4, 1).is_err());
        assert!(MultiKrum::new(9, 3).is_ok());
        assert!(MultiKrum::new(8, 3).is_err());
    }

    #[test]
    fn krum_selects_an_honest_gradient_under_attack() {
        let mut inputs = honest_cluster(4, 8, 1);
        inputs.push(Tensor::full(8usize, 1e6)); // Byzantine outlier
        let krum = Krum::new(5, 1).unwrap();
        let idx = krum.select_index(&inputs).unwrap();
        assert!(idx < 4, "Krum selected the Byzantine input");
        let out = krum.aggregate(&inputs).unwrap();
        assert!(out.data().iter().all(|&v| v.abs() < 10.0));
    }

    #[test]
    fn krum_output_is_one_of_the_inputs() {
        let inputs = honest_cluster(5, 4, 2);
        let krum = Krum::new(5, 1).unwrap();
        let out = krum.aggregate(&inputs).unwrap();
        assert!(inputs.iter().any(|t| t == &out));
    }

    #[test]
    fn multi_krum_selection_size_and_robustness() {
        let mut inputs = honest_cluster(6, 8, 3);
        inputs.push(Tensor::full(8usize, -1e6));
        let mk = MultiKrum::new(7, 1).unwrap();
        assert_eq!(mk.selection_size(), 4);
        let selected = mk.select_indices(&inputs).unwrap();
        assert_eq!(selected.len(), 4);
        assert!(
            !selected.contains(&6),
            "Multi-Krum kept the Byzantine input"
        );
        let out = mk.aggregate(&inputs).unwrap();
        assert!(out.data().iter().all(|&v| (0.0..2.0).contains(&v)));
    }

    #[test]
    fn multi_krum_without_byzantine_inputs_is_close_to_the_mean() {
        let inputs = honest_cluster(7, 16, 4);
        let mk = MultiKrum::new(7, 1).unwrap();
        let out = mk.aggregate(&inputs).unwrap();
        let mean = out.mean();
        assert!((mean - 1.0).abs() < 0.2, "mean of selection {mean}");
    }

    #[test]
    fn scores_are_permutation_consistent() {
        let inputs = honest_cluster(5, 4, 5);
        let scores = krum_scores(&inputs, 1);
        let mut reversed: Vec<Tensor> = inputs.clone();
        reversed.reverse();
        let mut scores_rev = krum_scores(&reversed, 1);
        scores_rev.reverse();
        for (a, b) in scores.iter().zip(scores_rev.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn view_and_tensor_selection_agree() {
        let inputs = honest_cluster(7, 32, 6);
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let krum = Krum::new(7, 1).unwrap();
        assert_eq!(
            krum.select_index(&inputs).unwrap(),
            krum.select_index_views(&views, &Engine::sequential())
                .unwrap()
        );
        let mk = MultiKrum::new(7, 1).unwrap();
        assert_eq!(
            mk.select_indices(&inputs).unwrap(),
            mk.select_indices_views(&views, &Engine::with_threads(3))
                .unwrap()
        );
    }

    #[test]
    fn validation_errors_propagate() {
        let krum = Krum::new(5, 1).unwrap();
        assert!(krum.aggregate(&[]).is_err());
        let bad: Vec<Tensor> = (0..5)
            .map(|i| {
                if i == 0 {
                    Tensor::zeros(2usize)
                } else {
                    Tensor::zeros(3usize)
                }
            })
            .collect();
        assert_eq!(
            krum.aggregate(&bad).unwrap_err(),
            AggregationError::HeterogeneousShapes
        );
    }
}
