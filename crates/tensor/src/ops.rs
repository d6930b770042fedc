//! Element-wise arithmetic, reductions and matrix multiplication.

use crate::{Shape, Tensor, TensorError, TensorResult};
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

impl Tensor {
    /// Element-wise addition of two tensors with identical shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn try_add(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn try_sub(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn try_mul(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Applies a binary function element-wise to two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> TensorResult<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign_checked(&mut self, other: &Tensor) -> TensorResult<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `scale * other` into `self` in place (an `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> TensorResult<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Applies a unary function to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.shape().clone()).expect("map preserves length")
    }

    /// Applies a unary function to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Multiplies every element by `scalar`, returning a new tensor.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_inplace(&mut self, scalar: f32) {
        self.map_inplace(|v| v * scalar);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Largest element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element, or `None` for empty tensors.
    pub fn argmax(&self) -> Option<usize> {
        self.data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the element counts differ.
    pub fn dot(&self, other: &Tensor) -> TensorResult<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Matrix multiplication `self (r x k) * other (k x c) -> (r x c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non rank-2 operands and
    /// [`TensorError::MatmulMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> TensorResult<Tensor> {
        matmul_kernel(self, false, other)
    }

    /// Transposed-left matrix multiplication `selfᵀ (r x k) * other (k x c)
    /// -> (r x c)` for `self` stored as `(k x r)`, without materialising the
    /// transpose. Bit-identical to `self.transpose()?.matmul(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non rank-2 operands and
    /// [`TensorError::MatmulMismatch`] when the row counts disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> TensorResult<Tensor> {
        matmul_kernel(self, true, other)
    }

    /// Matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non rank-2 tensors.
    pub fn transpose(&self) -> TensorResult<Tensor> {
        let (r, c) = self.matrix_dims()?;
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data()[i * c + j];
            }
        }
        Tensor::from_vec(out, Shape::matrix(c, r))
    }

    /// Sums matrix rows, producing a vector of length `cols`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non rank-2 tensors.
    pub fn sum_rows(&self) -> TensorResult<Tensor> {
        let (r, c) = self.matrix_dims()?;
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            for (acc, &v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Ok(Tensor::from(out))
    }
}

/// Column-block width of [`matmul_kernel`]: a block of an output row lives
/// in a local `[f32; MATMUL_BLOCK]`, which the optimiser keeps in registers
/// across the whole `k` loop instead of loading and storing the output row
/// once per `k`.
const MATMUL_BLOCK: usize = 16;

/// The one matrix-multiplication kernel: `A (r x k) * b (k x c)` with `A`
/// the matrix `a`, or its transpose read in place when `transposed`.
///
/// Summation-order contract: every output element starts at `0.0` and adds
/// `A[i][k] * b[k][j]` for `k` ascending, skipping zero `A[i][k]`, with a
/// separate multiply and add (no fused multiply-add). That is the plain ikj
/// loop's order, so the blocking below never changes a bit, and `matmul_tn`
/// equals `transpose` followed by `matmul`.
///
/// Output rows go two at a time, so each `b` block loaded serves both; an odd
/// last row is paired with itself.
fn matmul_kernel(a: &Tensor, transposed: bool, b: &Tensor) -> TensorResult<Tensor> {
    let (a_rows, a_cols) = a.matrix_dims()?;
    let (k2, c) = b.matrix_dims()?;
    // `A[i][k]` is `a.data()[i * row_step + k * k_step]`.
    let (r, k, row_step, k_step) = if transposed {
        (a_cols, a_rows, 1, a_cols)
    } else {
        (a_rows, a_cols, a_cols, 1)
    };
    if k != k2 {
        return Err(TensorError::MatmulMismatch {
            left: a.shape().dims().to_vec(),
            right: b.shape().dims().to_vec(),
        });
    }
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; r * c];
    if k == 0 {
        return Tensor::from_vec(out, Shape::matrix(r, c));
    }
    // Full blocks are read from `b` in place; a narrow last block is copied
    // into zero-padded full-width rows first.
    let full = c - c % MATMUL_BLOCK;
    let mut tail = Vec::new();
    if full < c {
        tail = vec![0.0f32; k * MATMUL_BLOCK];
        for (lanes, b_row) in tail.chunks_exact_mut(MATMUL_BLOCK).zip(b.chunks_exact(c)) {
            lanes[..c - full].copy_from_slice(&b_row[full..]);
        }
    }
    let (tail_rows, _) = tail.as_chunks::<MATMUL_BLOCK>();
    let coeffs = |i: usize| a[i * row_step..].iter().step_by(k_step);
    for i0 in (0..r).step_by(2) {
        let i1 = (i0 + 1).min(r - 1);
        for j0 in (0..full).step_by(MATMUL_BLOCK) {
            let b_rows = b.chunks_exact(c).map(|b_row| {
                <&[f32; MATMUL_BLOCK]>::try_from(&b_row[j0..j0 + MATMUL_BLOCK])
                    .expect("a full block")
            });
            let [acc0, acc1] = accumulate_row_pair(coeffs(i0), coeffs(i1), b_rows);
            out[i0 * c + j0..][..MATMUL_BLOCK].copy_from_slice(&acc0);
            out[i1 * c + j0..][..MATMUL_BLOCK].copy_from_slice(&acc1);
        }
        if full < c {
            let [acc0, acc1] = accumulate_row_pair(coeffs(i0), coeffs(i1), tail_rows.iter());
            out[i0 * c + full..(i0 + 1) * c].copy_from_slice(&acc0[..c - full]);
            out[i1 * c + full..(i1 + 1) * c].copy_from_slice(&acc1[..c - full]);
        }
    }
    Tensor::from_vec(out, Shape::matrix(r, c))
}

/// One column block of two output rows: `acc[lane] += coeff * b_row[lane]`
/// over the rows of `b` in `k` order, skipping each zero coefficient.
#[inline(always)]
fn accumulate_row_pair<'a>(
    coeffs0: impl Iterator<Item = &'a f32>,
    coeffs1: impl Iterator<Item = &'a f32>,
    b_rows: impl Iterator<Item = &'a [f32; MATMUL_BLOCK]>,
) -> [[f32; MATMUL_BLOCK]; 2] {
    let mut acc0 = [0.0f32; MATMUL_BLOCK];
    let mut acc1 = [0.0f32; MATMUL_BLOCK];
    for ((&x0, &x1), b_row) in coeffs0.zip(coeffs1).zip(b_rows) {
        if x0 != 0.0 {
            for (lane, &bv) in acc0.iter_mut().zip(b_row) {
                *lane += x0 * bv;
            }
        }
        if x1 != 0.0 {
            for (lane, &bv) in acc1.iter_mut().zip(b_row) {
                *lane += x1 * bv;
            }
        }
    }
    [acc0, acc1]
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics when the shapes differ; use [`Tensor::try_add`] for a fallible version.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.try_add(rhs)
            .expect("tensor addition requires identical shapes")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics when the shapes differ; use [`Tensor::try_sub`] for a fallible version.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.try_sub(rhs)
            .expect("tensor subtraction requires identical shapes")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// # Panics
    ///
    /// Panics when the shapes differ; use [`Tensor::add_assign_checked`] for a
    /// fallible version.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_assign_checked(rhs)
            .expect("tensor += requires identical shapes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub_mul_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.try_add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.try_sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.try_mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(a.try_add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0])).unwrap();
        assert_eq!(a.data(), &[7.0, 9.0]);
        a.add_assign_checked(&t(&[1.0, 1.0])).unwrap();
        assert_eq!(a.data(), &[8.0, 10.0]);
        assert!(a.axpy(1.0, &t(&[1.0])).is_err());
    }

    #[test]
    fn scale_map_and_neg() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, -6.0]);
        assert_eq!((-&a).data(), &[-1.0, 2.0]);
        assert_eq!(a.map(|v| v.abs()).data(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|v| v + 1.0);
        assert_eq!(b.data(), &[2.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.argmax(), Some(3));
        assert_eq!(Tensor::from(Vec::<f32>::new()).argmax(), None);
    }

    #[test]
    fn dot_and_norm() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.dot(&a).unwrap(), 25.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let id = Tensor::eye(3);
        assert_eq!(a.matmul(&id).unwrap().data(), a.data());

        let b =
            Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], Shape::matrix(3, 2)).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
        assert_eq!(c.shape().dims(), &[2, 2]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::from_vec(vec![1.0; 6], Shape::matrix(2, 3)).unwrap();
        let b = Tensor::from_vec(vec![1.0; 4], Shape::matrix(2, 2)).unwrap();
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulMismatch { .. })
        ));
        let v = t(&[1.0, 2.0]);
        assert!(matches!(v.matmul(&a), Err(TensorError::NotAMatrix { .. })));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, a);
        assert_eq!(a.transpose().unwrap().at(0, 1).unwrap(), 4.0);
    }

    #[test]
    fn sum_rows_collapses_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        assert_eq!(a.sum_rows().unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn operator_add_panics_on_mismatch() {
        let _ = &t(&[1.0]) + &t(&[1.0, 2.0]);
    }
}
