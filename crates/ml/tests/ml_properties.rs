//! Property-based tests for the ML substrate.

use garfield_ml::{softmax, softmax_cross_entropy, Dataset, DatasetKind, Mlp, Model};
use garfield_tensor::{Shape, Tensor, TensorRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn softmax_rows_are_probability_distributions(
        rows in 1usize..5,
        cols in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let logits = rng.normal_tensor(Shape::matrix(rows, cols)).scale(3.0);
        let p = softmax(&logits);
        for r in 0..rows {
            let row = &p.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cross_entropy_loss_is_nonnegative(seed in 0u64..1000, label in 0usize..4) {
        let mut rng = TensorRng::seed_from(seed);
        let logits = rng.normal_tensor(Shape::matrix(1, 4));
        let (loss, grad) = softmax_cross_entropy(&logits, &[label]);
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax probabilities minus one-hot).
        let sum: f32 = grad.data().iter().sum();
        prop_assert!(sum.abs() < 1e-4);
    }

    #[test]
    fn model_parameter_round_trip_is_identity(seed in 0u64..500) {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = Mlp::tiny(&mut rng);
        let original = model.parameters().clone();
        model.set_parameters(&original).unwrap();
        prop_assert_eq!(model.parameters(), &original);
    }

    #[test]
    fn gradient_is_zero_only_if_loss_is_flat(seed in 0u64..200) {
        let mut rng = TensorRng::seed_from(seed);
        let ds = Dataset::synthetic(DatasetKind::Tiny, 32, &mut rng);
        let model = Mlp::tiny(&mut rng);
        let batch = ds.batch(0, 8).unwrap();
        let (loss, grad) = model.gradient(&batch);
        prop_assert!(loss.is_finite());
        prop_assert!(grad.is_finite());
        prop_assert_eq!(grad.len(), model.num_parameters());
    }

    #[test]
    fn sharding_partitions_all_samples_exactly_once(
        samples in 8usize..100,
        shards in 1usize..8,
        seed in 0u64..500,
    ) {
        prop_assume!(shards <= samples);
        let mut rng = TensorRng::seed_from(seed);
        let ds = Dataset::synthetic(DatasetKind::Tiny, samples, &mut rng);
        for strategy in [garfield_ml::ShardStrategy::Iid, garfield_ml::ShardStrategy::ByLabel] {
            let parts = ds.shard(shards, strategy).unwrap();
            let total: usize = parts.iter().map(|p| p.data.len()).sum();
            prop_assert_eq!(total, samples);
            prop_assert!(parts.iter().all(|p| !p.data.is_empty()));
        }
    }

    #[test]
    fn scaling_gradient_scales_update_linearly(seed in 0u64..200) {
        use garfield_ml::Sgd;
        let mut rng = TensorRng::seed_from(seed);
        let model_a = Mlp::tiny(&mut rng);
        let mut model_b = model_a.clone();
        let mut model_c = model_a.clone();
        let grad = Tensor::ones(model_a.num_parameters());
        Sgd::new(0.1).step(&mut model_b, &grad).unwrap();
        Sgd::new(0.2).step(&mut model_c, &grad).unwrap();
        let da = model_a.parameters();
        let db = model_b.parameters();
        let dc = model_c.parameters();
        for i in 0..da.len() {
            let step_b = da.data()[i] - db.data()[i];
            let step_c = da.data()[i] - dc.data()[i];
            prop_assert!((step_c - 2.0 * step_b).abs() < 1e-5);
        }
    }
}
