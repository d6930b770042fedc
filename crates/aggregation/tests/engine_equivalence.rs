//! Property tests: the parallel and sequential aggregation engines are
//! observationally identical.
//!
//! For every GAR, random `(n, f, d)` and random payloads — including NaN and
//! ±inf values a Byzantine node may deliberately send — both engines must
//! select the same indices, produce **bit-equal** aggregates, and reject
//! malformed inputs with identical errors.

use garfield_aggregation::{
    build_gar, Bulyan, DistanceCache, Engine, GarKind, Krum, Mda, MultiKrum, SelectionOutcome,
};
use garfield_tensor::GradientView;
use proptest::prelude::*;

/// Deterministic pseudo-random payload with optional special values mixed in
/// on a seed-dependent subset of coordinates: ±inf, `-0.0`, and NaNs of both
/// signs, quiet and signalling, with seed-dependent payloads — everything a
/// Byzantine sender can put on the wire.
fn payloads(n: usize, d: usize, seed: u64, non_finite: bool) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: cheap, deterministic, good enough for test payloads.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    let r = next();
                    if non_finite && r % 31 == 0 {
                        let sign = ((r >> 40) as u32 & 1) << 31;
                        // A nonzero payload below the quiet bit: a
                        // signalling NaN, or a quiet one with the bit set.
                        let snan = sign | 0x7f80_0000 | ((r >> 8) as u32 & 0x3f_ffff).max(1);
                        match r % 5 {
                            0 => f32::from_bits(snan | 0x40_0000),
                            1 => f32::from_bits(snan),
                            2 => f32::INFINITY,
                            3 => f32::NEG_INFINITY,
                            _ => -0.0,
                        }
                    } else {
                        ((r % 10_000) as f32 - 5_000.0) / 250.0
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bits64(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The proptests' shapes sit below the engine's fan-out floor (every spawned
/// thread must carry 2^18 operations), so there the parallel engine runs the
/// sequential path. At n = 15, d = 2^16 every rule's fills — the 105-pair
/// distance matrix and the d-wide coordinate passes — split across threads.
/// Both engines must agree on the output and on the whole observed outcome:
/// the selection, and the bits of every distance and norm. The NaN-laden
/// set replaces two of the finite inputs with payloads full of NaNs and
/// ±inf, so the rules that select must leave them out.
#[test]
fn engines_agree_at_a_shape_that_fans_out() {
    let (n, d) = (15, 1 << 16);
    let finite = payloads(n, d, 0xfa0_0075, false);
    let mut nan_laden = finite.clone();
    for (slot, row) in [1, 6].into_iter().zip(payloads(2, d, 0x0bad_f00d, true)) {
        nan_laden[slot] = row;
    }
    let par = Engine::with_threads(4);
    let seq = Engine::sequential();
    for (what, data) in [("finite", &finite), ("NaN-laden", &nan_laden)] {
        let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
        for kind in GarKind::all() {
            let f = if kind == GarKind::Average { 0 } else { 2 };
            let gar = build_gar(&kind, n, f).unwrap();
            let (mut from_seq, mut from_par) =
                (SelectionOutcome::default(), SelectionOutcome::default());
            let a = gar
                .aggregate_views_observed(&views, &seq, &mut from_seq)
                .unwrap();
            let b = gar
                .aggregate_views_observed(&views, &par, &mut from_par)
                .unwrap();
            let at = format!("{kind} on {what} input at n={n}, f={f}, d={d}");
            assert!(bits(a.data()) == bits(b.data()), "{at}: outputs diverged");
            assert_eq!(from_seq.selected, from_par.selected, "{at}: selected");
            assert_eq!(
                bits64(&from_seq.distance),
                bits64(&from_par.distance),
                "{at}: distance"
            );
            assert_eq!(bits64(&from_seq.norm), bits64(&from_par.norm), "{at}: norm");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engines_produce_bit_equal_aggregates(
        f in 0usize..3,
        d in 1usize..96,
        seed in 0u64..100_000,
        threads in 2usize..6,
        non_finite in prop_oneof![Just(true), Just(false)],
    ) {
        let par = Engine::with_threads(threads);
        let seq = Engine::sequential();
        for (ki, kind) in GarKind::all().into_iter().enumerate() {
            let n = kind.minimum_inputs(f).max(f + 3);
            let data = payloads(n, d, seed ^ (ki as u64) << 8, non_finite);
            let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let a = gar.aggregate_views(&views, &seq).unwrap();
            let b = gar.aggregate_views(&views, &par).unwrap();
            prop_assert_eq!(
                bits(a.data()),
                bits(b.data()),
                "{} diverged between engines (n={}, f={}, d={}, non_finite={})",
                kind, n, f, d, non_finite
            );
        }
    }

    #[test]
    fn engines_select_the_same_indices(
        f in 1usize..3,
        d in 1usize..64,
        seed in 0u64..100_000,
        non_finite in prop_oneof![Just(true), Just(false)],
    ) {
        let par = Engine::with_threads(4);
        let seq = Engine::sequential();

        let n = 4 * f + 3; // satisfies every selection rule at once
        let data = payloads(n, d, seed, non_finite);
        let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();

        let (from_seq, from_par) = (
            DistanceCache::build(&views, &seq),
            DistanceCache::build(&views, &par),
        );

        let krum = Krum::new(n, f).unwrap();
        prop_assert_eq!(krum.select_cached(&from_seq), krum.select_cached(&from_par));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mk = MultiKrum::new(n, f).unwrap();
        mk.select_cached(&from_seq, &mut a);
        mk.select_cached(&from_par, &mut b);
        prop_assert_eq!(&a, &b);
        let mda = Mda::new(n, f).unwrap();
        mda.select_cached(&from_seq, &mut a);
        mda.select_cached(&from_par, &mut b);
        prop_assert_eq!(&a, &b);
        let bulyan = Bulyan::new(n, f).unwrap();
        bulyan.select_cached(&from_seq, &mut a);
        bulyan.select_cached(&from_par, &mut b);
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn engines_reject_malformed_inputs_identically(
        seed in 0u64..100_000,
        d in 1usize..16,
    ) {
        let par = Engine::with_threads(4);
        let seq = Engine::sequential();
        for kind in GarKind::all() {
            let n = kind.minimum_inputs(1).max(4);
            let gar = build_gar(&kind, n, 1).unwrap();

            // Wrong count.
            let short = payloads(n - 1, d, seed, false);
            let short_views: Vec<GradientView<'_>> = short.iter().map(GradientView::from).collect();
            prop_assert_eq!(
                gar.aggregate_views(&short_views, &seq).unwrap_err(),
                gar.aggregate_views(&short_views, &par).unwrap_err()
            );

            // Heterogeneous lengths.
            let mut ragged = payloads(n, d, seed, false);
            ragged[n - 1].push(1.0);
            let ragged_views: Vec<GradientView<'_>> = ragged.iter().map(GradientView::from).collect();
            prop_assert_eq!(
                gar.aggregate_views(&ragged_views, &seq).unwrap_err(),
                gar.aggregate_views(&ragged_views, &par).unwrap_err()
            );

            // Empty input set.
            prop_assert_eq!(
                gar.aggregate_views(&[], &seq).unwrap_err(),
                gar.aggregate_views(&[], &par).unwrap_err()
            );
        }
    }

    #[test]
    fn view_aggregation_matches_tensor_aggregation(
        f in 0usize..2,
        d in 1usize..48,
        seed in 0u64..100_000,
    ) {
        // The owned-tensor API is a thin wrapper over views: same bits.
        for kind in GarKind::all() {
            let n = kind.minimum_inputs(f).max(3);
            let data = payloads(n, d, seed ^ 0xabcd, false);
            let tensors: Vec<garfield_tensor::Tensor> = data
                .iter()
                .map(|v| garfield_tensor::Tensor::from_slice(v))
                .collect();
            let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let from_tensors = gar.aggregate(&tensors).unwrap();
            let from_views = gar.aggregate_views(&views, &Engine::auto()).unwrap();
            prop_assert_eq!(bits(from_tensors.data()), bits(from_views.data()));
        }
    }
}
