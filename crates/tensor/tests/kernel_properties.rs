//! Property tests pinning the chunked distance kernels to their documented
//! accumulation order.
//!
//! The kernel contract is *not* "close to the naive sum" — it is an exact,
//! bit-level definition: element `k` accumulates into lane
//! `k % KERNEL_LANES`, lanes reduce with the fixed halving tree. These tests
//! pin the optimized `chunks_exact` implementation to an independently
//! written lane-ordered reference across every remainder length and across
//! NaN/±inf payloads, and pin blocked evaluation (what the aggregation
//! engine's cache-sized `d`-sweeps do) to one-shot evaluation.
//!
//! Results are compared bit for bit, except that any two NaNs are equal:
//! Rust does not specify which NaN payload (or sign) an operation returns.
//! Optimised builds return different ones for the same lane order: the
//! compiler may commute an addition, which changes which NaN operand x86
//! passes through, and `inf - inf` makes the hardware's default NaN (sign
//! bit set on x86) where another NaN would be passed through unchanged.

use garfield_tensor::{
    accumulate_dot, accumulate_squared_l2, dot_slices, reduce_kernel_lanes,
    squared_l2_distance_slices, squared_norm_slices, KERNEL_LANES,
};
use proptest::prelude::*;

/// The bits of `v`, with every NaN mapped to one canonical NaN.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// The kernel's definition, written the slow obvious way.
fn reference_squared_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; KERNEL_LANES];
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let d = x - y;
        acc[k % KERNEL_LANES] += d * d;
    }
    reduce_kernel_lanes(acc)
}

fn reference_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; KERNEL_LANES];
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        acc[k % KERNEL_LANES] += x * y;
    }
    reduce_kernel_lanes(acc)
}

proptest! {
    /// Every length from empty through several chunks plus every possible
    /// remainder, random payloads including NaN/±inf: the optimized kernel
    /// must reproduce the lane-ordered reference bit for bit.
    #[test]
    fn chunked_squared_l2_is_bit_identical_to_lane_reference(
        len in 0usize..(4 * KERNEL_LANES + 3),
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = deterministic_pair(len, seed);
        prop_assert_eq!(
            bits(squared_l2_distance_slices(&a, &b)),
            bits(reference_squared_l2(&a, &b)),
            "len {}", len
        );
    }

    #[test]
    fn chunked_dot_is_bit_identical_to_lane_reference(
        len in 0usize..(4 * KERNEL_LANES + 3),
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = deterministic_pair(len, seed);
        prop_assert_eq!(
            bits(dot_slices(&a, &b)),
            bits(reference_dot(&a, &b)),
            "len {}", len
        );
        prop_assert_eq!(
            bits(squared_norm_slices(&a)),
            bits(reference_dot(&a, &a))
        );
    }

    /// Random payloads (non-finite values included) at a fixed multi-chunk
    /// length.
    #[test]
    fn chunked_kernels_match_reference_on_adversarial_payloads(
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = deterministic_pair(3 * KERNEL_LANES + 5, seed);
        prop_assert_eq!(
            bits(squared_l2_distance_slices(&a, &b)),
            bits(reference_squared_l2(&a, &b))
        );
        prop_assert_eq!(
            bits(dot_slices(&a, &b)),
            bits(reference_dot(&a, &b))
        );
    }

    /// Splitting the input into KERNEL_LANES-aligned blocks and folding each
    /// into a persistent lane array must be bit-identical to one whole-slice
    /// call — the property the engine's cache-blocked pairwise fill relies
    /// on (its block boundaries are always lane-aligned).
    #[test]
    fn lane_aligned_blocking_never_changes_the_bits(
        blocks in prop::collection::vec(1usize..5, 1..6),
        tail in 0usize..KERNEL_LANES,
        seed in 0u64..u64::MAX,
    ) {
        let cuts: Vec<usize> = blocks.iter().map(|b| b * KERNEL_LANES).collect();
        let len = cuts.iter().sum::<usize>() + tail;
        let (a, b) = deterministic_pair(len, seed);

        let mut acc_l2 = [0.0f32; KERNEL_LANES];
        let mut acc_dot = [0.0f32; KERNEL_LANES];
        let mut start = 0;
        for &c in &cuts {
            accumulate_squared_l2(&a[start..start + c], &b[start..start + c], &mut acc_l2);
            accumulate_dot(&a[start..start + c], &b[start..start + c], &mut acc_dot);
            start += c;
        }
        accumulate_squared_l2(&a[start..], &b[start..], &mut acc_l2);
        accumulate_dot(&a[start..], &b[start..], &mut acc_dot);

        prop_assert_eq!(
            bits(reduce_kernel_lanes(acc_l2)),
            bits(squared_l2_distance_slices(&a, &b))
        );
        prop_assert_eq!(
            bits(reduce_kernel_lanes(acc_dot)),
            bits(dot_slices(&a, &b))
        );
    }
}

/// Seeded payload with NaN/±inf sprinkled on seed-dependent coordinates, so
/// the exhaustive-length tests cover non-finite values too.
fn deterministic_pair(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut gen = |_k: usize| {
        let r = next();
        if r % 23 == 0 {
            match r % 3 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => f32::NEG_INFINITY,
            }
        } else {
            ((r % 100_000) as f32 - 50_000.0) / 7.0
        }
    };
    let a = (0..len).map(&mut gen).collect();
    let b = (0..len).map(&mut gen).collect();
    (a, b)
}
