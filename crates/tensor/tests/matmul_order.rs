//! Property tests pinning `Tensor::matmul`, `Tensor::matmul_slice` and
//! `Tensor::matmul_tn` to their documented summation order.
//!
//! The contract is exact: every output element is `0.0` plus
//! `a[i][k] * b[k][j]` for `k` ascending, zero coefficients skipped, each
//! product rounded before it is added (no fused multiply-add). That is the
//! plain ikj loop, written out below as the reference; `matmul_slice` must
//! equal it too, and `matmul_tn` must write what `transpose()` followed by
//! it gives, over whatever its buffer held.
//! Shapes cover output widths below, at and above the kernel's 16-column
//! block, every row count through two full 6-row groups plus one, and
//! zero-sized dimensions. Inputs are half
//! zeros (ReLU-like), with `-0.0` and ±inf/NaN mixed in; the kernel's
//! branch-free path for `k` values whose coefficients are all nonzero gets
//! its own cases, with no zeros in `A` at all and with dense and sparse `k`
//! values alternating in one row group. Results are compared
//! bit for bit except that any two NaNs are equal, because Rust does not
//! specify NaN payloads (see `kernel_properties.rs`).

use garfield_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// The plain ikj loop with the zero skip.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (r, k) = a.matrix_dims().unwrap();
    let (_, c) = b.matrix_dims().unwrap();
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for kk in 0..k {
            let coeff = a.data()[i * k + kk];
            if coeff == 0.0 {
                continue;
            }
            for j in 0..c {
                out[i * c + j] += coeff * b.data()[kk * c + j];
            }
        }
    }
    out
}

/// The bits of `v`, with every NaN mapped to one canonical NaN.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn assert_same(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (&g, &w)) in got.data().iter().zip(want).enumerate() {
        assert_eq!(bits(g), bits(w), "{what}: element {idx} is {g}, want {w}");
    }
}

/// A seeded `(rows, cols)` matrix: about half exact zeros, some `-0.0`,
/// some ±inf and NaN, the rest finite values of both signs.
fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            match r % 64 {
                0..=31 => 0.0,
                32..=34 => -0.0,
                35 => f32::NAN,
                36 => f32::INFINITY,
                37 => f32::NEG_INFINITY,
                _ => ((r >> 16) % 100_000) as f32 / 997.0 - 50.0,
            }
        })
        .collect();
    Tensor::from_vec(data, Shape::matrix(rows, cols)).unwrap()
}

fn check(r: usize, k: usize, c: usize, seed: u64) {
    let a = matrix(r, k, seed);
    let b = matrix(k, c, seed.wrapping_add(1));
    let stored = matrix(k, r, seed.wrapping_add(2));
    check_operands(&a, &b, &stored, &format!("seed {seed}"));
}

/// All three entry points against the reference: `a * b`, the same with `b`
/// borrowed, and `storedᵀ * b` (`stored` is `k x r`) into a buffer.
fn check_operands(a: &Tensor, b: &Tensor, stored: &Tensor, what: &str) {
    let (r, k) = a.matrix_dims().unwrap();
    let (_, c) = b.matrix_dims().unwrap();
    let shape = format!("{r}x{k} * {k}x{c}, {what}");
    assert_same(&a.matmul(b).unwrap(), &reference_matmul(a, b), &shape);
    let borrowed = a.matmul_slice(b.data(), k, c).unwrap();
    assert_same(
        &borrowed,
        &reference_matmul(a, b),
        &format!("borrowed {shape}"),
    );

    let want = reference_matmul(&stored.transpose().unwrap(), b);
    let got = Tensor::from_vec(tn(stored, b), Shape::matrix(r, c)).unwrap();
    assert_same(&got, &want, &format!("transposed {shape}"));
}

/// `storedᵀ * b` through `matmul_tn`, over a buffer of stale NaNs.
fn tn(stored: &Tensor, b: &Tensor) -> Vec<f32> {
    let (_, r) = stored.matrix_dims().unwrap();
    let (_, c) = b.matrix_dims().unwrap();
    let mut out = vec![f32::from_bits(0x7fc0_beef); r * c];
    stored.matmul_tn(b, &mut out).unwrap();
    out
}

/// A seeded `(rows, cols)` matrix with no zero: finite values of both signs
/// and, when `special`, about one ±inf or NaN in 16.
fn dense_matrix(rows: usize, cols: usize, seed: u64, special: bool) -> Tensor {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let magnitude = ((r >> 16) % 100_000 + 1) as f32 / 997.0;
            match r % 64 {
                0 if special => f32::NAN,
                1 if special => f32::INFINITY,
                2 if special => f32::NEG_INFINITY,
                v if v % 2 == 0 => magnitude,
                _ => -magnitude,
            }
        })
        .collect();
    Tensor::from_vec(data, Shape::matrix(rows, cols)).unwrap()
}

/// `(rows, cols)`, every entry ±inf, NaN, `0.0` or `-0.0`: a `b` in which
/// every product with a zero coefficient that is not skipped shows.
fn hostile_matrix(rows: usize, cols: usize) -> Tensor {
    let values = [f32::INFINITY, f32::NAN, -0.0, f32::NEG_INFINITY, 0.0];
    let data = (0..rows * cols)
        .map(|idx| values[(idx * 7 + idx / 3) % values.len()])
        .collect();
    Tensor::from_vec(data, Shape::matrix(rows, cols)).unwrap()
}

/// Row counts through two full 6-row groups plus one (full groups, the
/// 2-row remainder and an odd last row, whose zero padding makes every `k`
/// of its pair sparse), `k` values, and output widths below, at and above
/// the 16-column block.
const DENSE_ROWS: std::ops::RangeInclusive<usize> = 1..=13;
const DENSE_K: [usize; 4] = [1, 2, 7, 64];
const DENSE_WIDTHS: [usize; 5] = [3, 15, 16, 17, 35];

/// `A` with no zero coefficient, so every full group takes the branch-free
/// path: finite, and with ±inf/NaN coefficients, against a `b` that mixes
/// finite values with ±inf/NaN and `-0.0`.
#[test]
fn a_without_zeros_follows_the_ikj_order() {
    for r in DENSE_ROWS {
        for k in DENSE_K {
            for c in DENSE_WIDTHS {
                let seed = (r * 1009 + k * 31 + c) as u64;
                for special in [false, true] {
                    let a = dense_matrix(r, k, seed, special);
                    let stored = dense_matrix(k, r, seed + 2, special);
                    for b in [matrix(k, c, seed + 1), hostile_matrix(k, c)] {
                        check_operands(&a, &b, &stored, &format!("dense, special {special}"));
                    }
                }
            }
        }
    }
}

/// Within one row group, `k` values whose coefficients are all nonzero
/// alternate with `k` values holding a zero (`0.0` or `-0.0`, one row at a
/// time), against a `b` where multiplying that zero instead of skipping it
/// gives NaN.
#[test]
fn dense_and_sparse_k_rows_alternate_in_one_group() {
    for r in DENSE_ROWS {
        for k in DENSE_K {
            for c in DENSE_WIDTHS {
                let seed = (r * 7919 + k * 17 + c) as u64;
                let mut a = dense_matrix(r, k, seed, false).into_vec();
                for kk in (1..k).step_by(2) {
                    a[(kk / 2) % r * k + kk] = if kk % 4 == 1 { 0.0 } else { -0.0 };
                }
                let a = Tensor::from_vec(a, Shape::matrix(r, k)).unwrap();
                let stored = a.transpose().unwrap();
                for b in [hostile_matrix(k, c), dense_matrix(k, c, seed + 1, true)] {
                    check_operands(&a, &b, &stored, "alternating");
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn matmul_and_matmul_tn_follow_the_ikj_order(
        r in 1usize..71,
        k in 1usize..71,
        c in 1usize..71,
        seed in 0u64..u64::MAX,
    ) {
        check(r, k, c, seed);
    }
}

/// Every output width from 1 through three blocks, at one and three rows
/// (a single row and an odd last row both pair with themselves).
#[test]
fn every_block_width_and_odd_row_counts_follow_the_ikj_order() {
    for c in 1..=49 {
        for r in [1, 2, 3] {
            for k in [1, 7] {
                check(r, k, c, (c * 131 + r * 7 + k) as u64);
            }
        }
    }
}

/// Every row count from 1 through two full row groups of the kernel (6 rows
/// each) plus one, so full groups, pairs and an odd last row all run, at
/// output widths below, at and above one 16-column block.
#[test]
fn every_row_group_remainder_follows_the_ikj_order() {
    for r in 1..=13 {
        for k in [1, 2, 7, 64] {
            for c in [3, 16, 35] {
                check(r, k, c, (r * 1009 + k * 31 + c) as u64);
            }
        }
    }
}

/// A zero-sized `r`, `k` or `c` gives an `r x c` result, all zeros when
/// `k = 0`, for every entry point; into `matmul_tn`'s buffer, `k = 0`
/// overwrites what it held with `0.0`.
#[test]
fn zero_sized_dims_give_the_right_shape() {
    for (r, k, c) in [(0, 3, 5), (4, 0, 5), (4, 3, 0), (0, 0, 0), (7, 0, 21)] {
        check(r, k, c, 11);
        let b = matrix(k, c, 12);
        let got = matrix(r, k, 13).matmul(&b).unwrap();
        assert_eq!(got.shape().dims(), &[r, c], "{r}x{k} * {k}x{c}");
        assert!(got.data().iter().all(|&v| v.to_bits() == 0));
        let into = tn(&matrix(k, r, 14), &b);
        assert_eq!(into.len(), r * c, "{r}x{k} * {k}x{c} into a buffer");
        assert!(into.iter().all(|&v| v.to_bits() == 0));
    }
}

/// A row of zero coefficients (all skipped) leaves its output row `0.0` in
/// `matmul_tn`'s buffer, not the stale value.
#[test]
fn matmul_tn_overwrites_rows_of_zero_coefficients() {
    for (k, r, c) in [(3, 1, 5), (7, 13, 35), (64, 6, 16)] {
        let stored = Tensor::from_vec(vec![0.0; k * r], Shape::matrix(k, r)).unwrap();
        let b = matrix(k, c, 21);
        assert!(tn(&stored, &b).iter().all(|&v| v.to_bits() == 0));
    }
}

#[test]
fn matmul_tn_rejects_bad_dims() {
    let a = Tensor::from_vec(vec![1.0; 6], Shape::matrix(2, 3)).unwrap();
    let b = Tensor::from_vec(vec![1.0; 6], Shape::matrix(3, 2)).unwrap();
    assert!(a.matmul_tn(&b, &mut [0.0; 4]).is_err());
    assert!(Tensor::from_slice(&[1.0, 2.0])
        .matmul_tn(&b, &mut [0.0; 4])
        .is_err());
    for len in [3, 5] {
        assert!(b.matmul_tn(&b, &mut vec![0.0; len]).is_err());
    }
    assert!(b.matmul_tn(&b, &mut [0.0; 4]).is_ok());
}
