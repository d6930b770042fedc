//! Property-based tests for the Byzantine-resilience invariants of every GAR.
//!
//! The key property (mirroring the theoretical guarantees of §3.1): with at
//! most `f` Byzantine inputs, the output of a Byzantine-resilient GAR stays
//! within (or very near) the envelope of the honest inputs, no matter what
//! the Byzantine vectors contain.

use garfield_aggregation::{build_gar, GarKind};
use garfield_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

/// Generates a cluster of `honest` similar vectors plus `byz` adversarial
/// ones, placed after the honest ones or, with `byz_first`, before them.
fn adversarial_setup(
    honest: usize,
    byz: usize,
    d: usize,
    seed: u64,
    byz_value: f32,
    byz_first: bool,
) -> (Vec<Tensor>, f32, f32) {
    let mut rng = TensorRng::seed_from(seed);
    let mut inputs: Vec<Tensor> = (0..honest)
        .map(|_| {
            Tensor::ones(d)
                .try_add(&rng.normal_tensor(d).scale(0.1))
                .unwrap()
        })
        .collect();
    let honest_min = inputs.iter().map(|t| t.min()).fold(f32::INFINITY, f32::min);
    let honest_max = inputs
        .iter()
        .map(|t| t.max())
        .fold(f32::NEG_INFINITY, f32::max);
    let attackers = (0..byz).map(|_| Tensor::full(d, byz_value));
    if byz_first {
        inputs.splice(0..0, attackers);
    } else {
        inputs.extend(attackers);
    }
    (inputs, honest_min, honest_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resilient_gars_bound_the_output_under_attack(
        f in 1usize..3,
        d in 1usize..24,
        seed in 0u64..10_000,
        // Quiet NaNs of both signs with a payload, and both infinities: a
        // NaN or inf attacker must rank worst, whatever its bits.
        byz_value in prop_oneof![
            Just(1e9f32),
            Just(-1e9f32),
            Just(1e4f32),
            Just(f32::from_bits(0x7fc0_0001)),
            Just(f32::from_bits(0xffc0_0001)),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY)
        ],
        byz_first in prop_oneof![Just(false), Just(true)],
    ) {
        for kind in [GarKind::Median, GarKind::Krum, GarKind::MultiKrum, GarKind::Mda, GarKind::Bulyan] {
            let n = kind.minimum_inputs(f).max(2 * f + 3);
            let honest = n - f;
            let (inputs, lo, hi) = adversarial_setup(honest, f, d, seed, byz_value, byz_first);
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            // The output must stay within a small margin of the honest envelope.
            let margin = (hi - lo).abs() + 1.0;
            for &v in out.data() {
                prop_assert!(
                    v >= lo - margin && v <= hi + margin,
                    "{kind}: output coordinate {v} escaped honest range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn gars_are_permutation_invariant(
        seed in 0u64..10_000,
        d in 1usize..16,
    ) {
        let f = 1usize;
        // Average, Median and Multi-Krum are exactly permutation invariant.
        // MDA and Bulyan break ties (equal diameters / equal Krum scores) by
        // input position, like the reference implementation — ties are generic
        // for MDA (several subsets can share the minimum diameter) — so for
        // them we only require the reordered output to stay inside the
        // per-coordinate input envelope.
        for kind in [GarKind::Average, GarKind::Median, GarKind::MultiKrum] {
            let n = kind.minimum_inputs(f).max(5);
            let mut rng = TensorRng::seed_from(seed);
            let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            let mut reversed = inputs.clone();
            reversed.reverse();
            let out_rev = gar.aggregate(&reversed).unwrap();
            for (a, b) in out.iter().zip(out_rev.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "{kind} is not permutation invariant");
            }
        }
        for kind in [GarKind::Mda, GarKind::Bulyan] {
            let n = kind.minimum_inputs(f).max(5);
            let mut rng = TensorRng::seed_from(seed);
            let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let mut reversed = inputs.clone();
            reversed.reverse();
            for out in [gar.aggregate(&inputs).unwrap(), gar.aggregate(&reversed).unwrap()] {
                for c in 0..d {
                    let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
                    let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
                    let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    prop_assert!(out.data()[c] >= min - 1e-5 && out.data()[c] <= max + 1e-5);
                }
            }
        }
    }

    #[test]
    fn identical_inputs_are_a_fixed_point(
        seed in 0u64..10_000,
        d in 1usize..32,
        f in 0usize..2,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let v = rng.normal_tensor(d);
        for kind in GarKind::all() {
            let n = kind.minimum_inputs(f).max(3);
            let inputs = vec![v.clone(); n];
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            for (a, b) in out.iter().zip(v.iter()) {
                prop_assert!((a - b).abs() < 1e-4, "{kind} moved a unanimous input");
            }
        }
    }

    #[test]
    fn average_is_linear_in_its_inputs(
        seed in 0u64..10_000,
        k in 0.1f32..5.0,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..4).map(|_| rng.normal_tensor(8usize)).collect();
        let scaled: Vec<Tensor> = inputs.iter().map(|t| t.scale(k)).collect();
        let gar = build_gar(&GarKind::Average, 4, 0).unwrap();
        let base = gar.aggregate(&inputs).unwrap();
        let out = gar.aggregate(&scaled).unwrap();
        for (a, b) in out.iter().zip(base.iter()) {
            prop_assert!((a - k * b).abs() < 1e-3);
        }
    }

    #[test]
    fn median_output_per_coordinate_is_an_input_value_for_odd_n(
        seed in 0u64..10_000,
        d in 1usize..12,
    ) {
        let n = 5usize;
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        let gar = build_gar(&GarKind::Median, n, 2).unwrap();
        let out = gar.aggregate(&inputs).unwrap();
        for c in 0..d {
            let v = out.data()[c];
            prop_assert!(
                inputs.iter().any(|t| (t.data()[c] - v).abs() < 1e-6),
                "median coordinate {c} is not one of the inputs"
            );
        }
    }

    #[test]
    fn krum_always_returns_one_of_its_inputs(seed in 0u64..10_000, d in 1usize..16) {
        let n = 6usize;
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        let gar = build_gar(&GarKind::Krum, n, 1).unwrap();
        let out = gar.aggregate(&inputs).unwrap();
        prop_assert!(inputs.iter().any(|t| t == &out));
    }

    #[test]
    fn gar_kinds_round_trip_through_display_and_from_str(
        kind in prop_oneof![
            Just(GarKind::Average),
            Just(GarKind::Median),
            Just(GarKind::Krum),
            Just(GarKind::MultiKrum),
            Just(GarKind::Mda),
            Just(GarKind::Bulyan),
        ],
    ) {
        let text = kind.to_string();
        let parsed: GarKind = text.parse().unwrap();
        prop_assert_eq!(&parsed, &kind, "'{}' did not round-trip", text);
        // Parsing is case- and whitespace-tolerant; Display is canonical.
        let shouted: GarKind = text.to_uppercase().trim().parse().unwrap();
        prop_assert_eq!(&shouted, &kind);
        prop_assert_eq!(parsed.to_string(), text);
    }
}
