//! Distance and similarity kernels used by the gradient aggregation rules.
//!
//! # The chunked multi-lane kernel
//!
//! The pairwise squared-L2 fill is the `O(n² d)` hot spot of every
//! distance-based GAR, and a naive `zip().map().sum()` compiles to a *serial*
//! dependent chain of `f32` adds — float addition is not associative, so the
//! autovectorizer must preserve the left-to-right order and emits one scalar
//! `addss` per element, bounded by FP-add latency (~4–5 cycles/element).
//!
//! The kernels below fix the accumulation order by *definition* instead:
//! element `k` accumulates into lane `k % KERNEL_LANES` of an independent
//! accumulator array, and the lanes are combined at the end with the fixed
//! reduction tree of [`reduce_kernel_lanes`]. That order is explicitly
//! data-parallel — the compiler keeps [`KERNEL_LANES`] independent dependency
//! chains in SIMD registers (or unrolled scalar registers on any ISA) — and it
//! is **deterministic**: the same inputs produce the same bits on every call,
//! every thread, and every block decomposition whose block length is a
//! multiple of [`KERNEL_LANES`] (see [`accumulate_squared_l2`]).
//!
//! Two accumulation primitives are exposed so callers can run the kernels
//! *blocked* over cache-sized `d`-ranges without changing the result:
//! [`accumulate_squared_l2`] and [`accumulate_dot`] fold a block into a
//! caller-held lane array; [`squared_l2_distance_slices`] and [`dot_slices`]
//! are the one-shot wrappers.

use crate::Tensor;

/// Number of independent accumulator lanes of the chunked distance kernels.
///
/// Element `k` of an input pair always accumulates into lane
/// `k % KERNEL_LANES`; the lane array is reduced with
/// [`reduce_kernel_lanes`]. Sixteen `f32` lanes fill two AVX2 registers on
/// the workspace's x86-64-v3 build (four SSE2 registers on a portable x86-64
/// build): enough independent FP-add dependency chains to cover the
/// 3–4-cycle add latency that kept the old scalar kernel at ~1 element per
/// 4–5 cycles. (Measured on the perf container: 16 lanes beat both 8 and 32.)
pub const KERNEL_LANES: usize = 16;

/// Reduces a lane accumulator array with a fixed halving binary tree:
/// `a[l] += a[l + width]` for `width = LANES/2, LANES/4, …, 1`.
///
/// The tree shape is part of the kernel contract — it is what makes blocked
/// and unblocked evaluations bit-identical — so it is exposed for reference
/// implementations and tests.
#[inline]
pub fn reduce_kernel_lanes(acc: [f32; KERNEL_LANES]) -> f32 {
    let mut a = acc;
    let mut width = KERNEL_LANES / 2;
    while width > 0 {
        for l in 0..width {
            a[l] += a[l + width];
        }
        width /= 2;
    }
    a[0]
}

/// Folds one block of squared differences into a caller-held lane array:
/// `acc[k % KERNEL_LANES] += (a[k] - b[k])²` for ascending `k`.
///
/// Blocked evaluation is bit-identical to a single whole-slice call provided
/// every block except the last has a length that is a multiple of
/// [`KERNEL_LANES`]: element `k` then lands in the same lane, in the same
/// order, regardless of the block decomposition. This is what lets the
/// aggregation engine sweep cache-sized `d`-blocks of *all* inputs while
/// preserving the sequential/parallel bit-identity contract.
///
/// Mismatched lengths accumulate over the common prefix (callers in this
/// workspace always pass equal-length blocks).
#[inline]
pub fn accumulate_squared_l2(a: &[f32], b: &[f32], acc: &mut [f32; KERNEL_LANES]) {
    let mut chunks_a = a.chunks_exact(KERNEL_LANES);
    let mut chunks_b = b.chunks_exact(KERNEL_LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        // Fixed-size views: the compiler sees eight independent lanes with no
        // bounds checks and keeps them in vector registers.
        let ca: &[f32; KERNEL_LANES] = ca.try_into().expect("chunks_exact length");
        let cb: &[f32; KERNEL_LANES] = cb.try_into().expect("chunks_exact length");
        for l in 0..KERNEL_LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    for (l, (&x, &y)) in chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .enumerate()
    {
        let d = x - y;
        acc[l] += d * d;
    }
}

/// Folds one block of products into a caller-held lane array:
/// `acc[k % KERNEL_LANES] += a[k] * b[k]` for ascending `k`.
///
/// Same blocking contract as [`accumulate_squared_l2`].
#[inline]
pub fn accumulate_dot(a: &[f32], b: &[f32], acc: &mut [f32; KERNEL_LANES]) {
    let mut chunks_a = a.chunks_exact(KERNEL_LANES);
    let mut chunks_b = b.chunks_exact(KERNEL_LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        let ca: &[f32; KERNEL_LANES] = ca.try_into().expect("chunks_exact length");
        let cb: &[f32; KERNEL_LANES] = cb.try_into().expect("chunks_exact length");
        for l in 0..KERNEL_LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    for (l, (&x, &y)) in chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .enumerate()
    {
        acc[l] += x * y;
    }
}

/// Squared Euclidean distance between two tensors viewed as flat vectors.
///
/// The two tensors must have the same number of elements; trailing elements of
/// the longer tensor are ignored otherwise (callers in this workspace always
/// pass equal-length gradients).
///
/// ```rust
/// use garfield_tensor::{Tensor, squared_l2_distance};
/// let a = Tensor::from_slice(&[0.0, 0.0]);
/// let b = Tensor::from_slice(&[3.0, 4.0]);
/// assert_eq!(squared_l2_distance(&a, &b), 25.0);
/// ```
pub fn squared_l2_distance(a: &Tensor, b: &Tensor) -> f32 {
    squared_l2_distance_slices(a.data(), b.data())
}

/// Squared Euclidean distance between two flat slices — the chunked
/// multi-lane kernel (see the module docs for the accumulation contract).
///
/// This is the allocation-free kernel behind [`squared_l2_distance`] and the
/// zero-copy aggregation engine's `DistanceCache`. Each input pair is
/// evaluated with a fixed, lane-structured accumulation order, so sequential
/// and thread-chunked engines that compute each *pair* on one thread produce
/// bit-identical results, and so does the engine's cache-blocked fill
/// (blocks are [`KERNEL_LANES`]-aligned).
pub fn squared_l2_distance_slices(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; KERNEL_LANES];
    accumulate_squared_l2(a, b, &mut acc);
    reduce_kernel_lanes(acc)
}

/// The retained scalar reference kernel: a single left-to-right pass.
///
/// This is what `squared_l2_distance_slices` compiled to before the chunked
/// rewrite. It is kept for the `scalar` row of `expfig perf`'s kernel sweep
/// (scalar vs chunked vs blocked) and as an independently-auditable reference
/// in tests; production call sites all use the chunked kernel. Note the *values* differ from the
/// chunked kernel by float non-associativity (within rounding error); the
/// bit-exact reference for the chunked kernel is lane-ordered accumulation,
/// pinned by the proptests in `tests/kernel_properties.rs`.
pub fn squared_l2_distance_scalar(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Dot product of two flat slices with the chunked multi-lane kernel.
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; KERNEL_LANES];
    accumulate_dot(a, b, &mut acc);
    reduce_kernel_lanes(acc)
}

/// Squared L2 norm of a flat slice (`‖a‖² = a·a`), chunked kernel.
pub fn squared_norm_slices(a: &[f32]) -> f32 {
    dot_slices(a, a)
}

/// Euclidean distance between two tensors viewed as flat vectors.
pub fn l2_distance(a: &Tensor, b: &Tensor) -> f32 {
    squared_l2_distance(a, b).sqrt()
}

/// Cosine similarity (`cos φ`) between two tensors viewed as flat vectors.
///
/// Returns 0.0 when either vector has zero norm. This is the quantity the
/// paper reports in its Table 2 parameter-vector alignment study.
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> f32 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot = dot_slices(a.data(), b.data());
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_computed_values() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 6.0, 3.0]);
        assert_eq!(squared_l2_distance(&a, &b), 9.0 + 16.0);
        assert!((l2_distance(&a, &b) - 5.0).abs() < 1e-6);
        assert_eq!(squared_l2_distance(&a, &a), 0.0);
    }

    #[test]
    fn chunked_kernel_handles_every_remainder_length() {
        // Exact values over small integers are order-independent: the chunked
        // kernel must agree with the scalar reference exactly for lengths
        // spanning several chunk boundaries.
        for len in 0..(4 * KERNEL_LANES + 3) {
            let a: Vec<f32> = (0..len).map(|k| k as f32).collect();
            let b: Vec<f32> = (0..len).map(|k| (k as f32) - 2.0).collect();
            assert_eq!(
                squared_l2_distance_slices(&a, &b),
                squared_l2_distance_scalar(&a, &b),
                "length {len}"
            );
            assert_eq!(squared_l2_distance_slices(&a, &a), 0.0);
        }
    }

    #[test]
    fn blocked_accumulation_is_bit_identical_to_one_shot() {
        let d = 3 * KERNEL_LANES * 5 + 5; // several blocks plus a ragged tail
        let a: Vec<f32> = (0..d).map(|k| ((k * 37) as f32 * 0.01).sin()).collect();
        let b: Vec<f32> = (0..d).map(|k| ((k * 11) as f32 * 0.02).cos()).collect();
        let whole = squared_l2_distance_slices(&a, &b);
        // Any KERNEL_LANES-aligned block decomposition must reproduce it.
        for block in [KERNEL_LANES, 2 * KERNEL_LANES, 5 * KERNEL_LANES] {
            let mut acc = [0.0f32; KERNEL_LANES];
            let mut start = 0;
            while start < d {
                let end = (start + block).min(d);
                accumulate_squared_l2(&a[start..end], &b[start..end], &mut acc);
                start = end;
            }
            assert_eq!(
                reduce_kernel_lanes(acc).to_bits(),
                whole.to_bits(),
                "block {block}"
            );
        }
    }

    #[test]
    fn dot_and_norm_kernels_match_hand_values() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [2.0f32, -1.0, 0.5, 1.0];
        assert_eq!(dot_slices(&a, &b), 2.0 - 2.0 + 1.5 + 4.0);
        assert_eq!(squared_norm_slices(&a), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(dot_slices(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal_vectors() {
        let a = Tensor::from_slice(&[1.0, 0.0]);
        let b = Tensor::from_slice(&[2.0, 0.0]);
        let c = Tensor::from_slice(&[0.0, 5.0]);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &c).abs() < 1e-6);
        assert!((cosine_similarity(&a, &(-&b)) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let z = Tensor::zeros(3usize);
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(cosine_similarity(&z, &a), 0.0);
    }
}
