//! Krum and Multi-Krum GARs (Blanchard et al., NeurIPS 2017).
//!
//! Both rules run on the zero-copy engine: the `O(n² d)` pairwise-distance
//! matrix is built once into a [`DistanceCache`] (chunked across threads by
//! the [`Engine`]) and every scoring decision reads from it. Selection
//! returns *indices*; the only data copied is the output vector.

use crate::engine::{average_indices_into, multi_krum_cached, with_scratch, with_selected};
use crate::gar::report_selection;
use crate::{
    validate_views, AggregationError, AggregationResult, DistanceCache, Engine, Gar,
    SelectionOutcome,
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

    /// The index Krum selects over a prebuilt cache. After one warm-up call
    /// on a thread, repeated calls perform zero heap allocations (asserted
    /// by the counting-allocator test).
    pub fn select_cached(&self, cache: &DistanceCache) -> usize {
        with_scratch(|scratch| {
            multi_krum_cached(cache, self.f, 1, scratch);
            scratch.order[0]
        })
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
        let idx = self.select_cached(&cache);
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

    /// Allocation-free selection over a prebuilt cache (steady state): the
    /// selected indices are written into `selected`, best first.
    pub fn select_cached(&self, cache: &DistanceCache, selected: &mut Vec<usize>) {
        with_scratch(|scratch| {
            multi_krum_cached(cache, self.f, self.m, scratch);
            selected.clear();
            selected.extend_from_slice(&scratch.order);
        });
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
        let mut out = Vec::new();
        with_selected(|selected| {
            self.select_cached(&cache, selected);
            report_selection(outcome, inputs, Some((&cache, selected)));
            average_indices_into(inputs, selected, engine, &mut out);
        });
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

    /// The distance cache of owned tensors under `engine`.
    fn cache_of(inputs: &[Tensor], engine: &Engine) -> DistanceCache {
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        DistanceCache::build(&views, engine)
    }

    /// Krum scores of owned tensors, through the cache path.
    fn krum_scores(inputs: &[Tensor], f: usize) -> Vec<f32> {
        let cache = cache_of(inputs, &Engine::sequential());
        with_scratch(|scratch| {
            multi_krum_cached(&cache, f, 1, scratch);
            scratch.scores.clone()
        })
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
        let idx = krum.select_cached(&cache_of(&inputs, &Engine::sequential()));
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
        let mut selected = Vec::new();
        mk.select_cached(&cache_of(&inputs, &Engine::sequential()), &mut selected);
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
        let (seq, par) = (
            cache_of(&inputs, &Engine::sequential()),
            cache_of(&inputs, &Engine::with_threads(3)),
        );
        let krum = Krum::new(7, 1).unwrap();
        let idx = krum.select_cached(&seq);
        assert_eq!(krum.aggregate(&inputs).unwrap(), inputs[idx]);
        let mk = MultiKrum::new(7, 1).unwrap();
        let (mut from_seq, mut from_par) = (Vec::new(), Vec::new());
        mk.select_cached(&seq, &mut from_seq);
        mk.select_cached(&par, &mut from_par);
        assert_eq!(from_seq, from_par);
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
