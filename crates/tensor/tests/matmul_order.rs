//! Property tests pinning `Tensor::matmul` and `Tensor::matmul_tn` to their
//! documented summation order.
//!
//! The contract is exact: every output element is `0.0` plus
//! `a[i][k] * b[k][j]` for `k` ascending, zero coefficients skipped, each
//! product rounded before it is added (no fused multiply-add). That is the
//! plain ikj loop, written out below as the reference; `matmul_tn` must equal
//! `transpose()` followed by it. Shapes cover output widths below, at and
//! above the kernel's 16-column block, and odd row counts. Inputs are half
//! zeros (ReLU-like), with `-0.0` and ±inf/NaN mixed in. Results are compared
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
    let shape = format!("{r}x{k} * {k}x{c}, seed {seed}");
    assert_same(&a.matmul(&b).unwrap(), &reference_matmul(&a, &b), &shape);

    let stored = matrix(k, r, seed.wrapping_add(2));
    let want = reference_matmul(&stored.transpose().unwrap(), &b);
    let got = stored.matmul_tn(&b).unwrap();
    assert_eq!(got.shape().dims(), &[r, c]);
    assert_same(&got, &want, &format!("transposed {shape}"));
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

#[test]
fn matmul_tn_rejects_bad_dims() {
    let a = Tensor::from_vec(vec![1.0; 6], Shape::matrix(2, 3)).unwrap();
    let b = Tensor::from_vec(vec![1.0; 6], Shape::matrix(3, 2)).unwrap();
    assert!(a.matmul_tn(&b).is_err());
    assert!(Tensor::from_slice(&[1.0, 2.0]).matmul_tn(&b).is_err());
    assert_eq!(b.matmul_tn(&b).unwrap().shape().dims(), &[2, 2]);
}
