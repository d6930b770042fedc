//! The dense `f32` tensor type.

use crate::{Shape, TensorError, TensorResult};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// This is the single numeric currency of the workspace: model parameters,
/// gradient estimates and aggregated updates are all flattened `Tensor`s.
///
/// ```rust
/// use garfield_tensor::Tensor;
/// let g = Tensor::from_slice(&[1.0, -2.0, 3.0]);
/// assert_eq!(g.len(), 3);
/// assert!((g.norm() - (14.0f32).sqrt()).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataShapeMismatch`] if `data.len()` differs from
    /// the number of elements described by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> TensorResult<Self> {
        if data.len() != shape.len() {
            return Err(TensorError::DataShapeMismatch {
                data_len: data.len(),
                shape_len: shape.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a 1-D tensor by copying a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::vector(data.len()),
            data: data.to_vec(),
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![1.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(Shape::matrix(n, n));
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of scalar elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at flat index `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `i >= self.len()`.
    pub fn get(&self, i: usize) -> TensorResult<f32> {
        self.data
            .get(i)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds {
                index: i,
                len: self.data.len(),
            })
    }

    /// Sets the element at flat index `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: f32) -> TensorResult<()> {
        let len = self.data.len();
        match self.data.get_mut(i) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds { index: i, len }),
        }
    }

    /// Returns element `(row, col)` of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non rank-2 tensors and
    /// [`TensorError::IndexOutOfBounds`] for out-of-range indices.
    pub fn at(&self, row: usize, col: usize) -> TensorResult<f32> {
        let (rows, cols) = self.matrix_dims()?;
        if row >= rows || col >= cols {
            return Err(TensorError::IndexOutOfBounds {
                index: row * cols + col,
                len: self.data.len(),
            });
        }
        Ok(self.data[row * cols + col])
    }

    /// Reinterprets the tensor with a new shape holding the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> TensorResult<Tensor> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: shape.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Returns a flattened (rank-1) view of this tensor as a new tensor.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: Shape::vector(self.data.len()),
        }
    }

    /// Interprets the tensor as a matrix and returns `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank 2.
    pub fn matrix_dims(&self) -> TensorResult<(usize, usize)> {
        match (self.shape.rows(), self.shape.cols()) {
            (Some(r), Some(c)) => Ok((r, c)),
            _ => Err(TensorError::NotAMatrix {
                rank: self.shape.rank(),
            }),
        }
    }

    /// Iterates over the scalar elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Approximate number of bytes occupied by the tensor payload.
    ///
    /// Used by the simulated network fabric to charge bandwidth costs, mirroring
    /// the serialized-tensor sizes the paper reports in Table 1.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Returns `true` when every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 8;
        write!(f, "Tensor{}[", self.shape)?;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        Tensor {
            shape: Shape::vector(data.len()),
            data,
        }
    }
}

impl From<&[f32]> for Tensor {
    fn from(data: &[f32]) -> Self {
        Tensor::from_slice(data)
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Tensor::from(data)
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], Shape::matrix(1, 2)).is_ok());
        let err = Tensor::from_vec(vec![1.0, 2.0], Shape::matrix(2, 2)).unwrap_err();
        assert_eq!(
            err,
            TensorError::DataShapeMismatch {
                data_len: 2,
                shape_len: 4
            }
        );
    }

    #[test]
    fn zeros_ones_full_eye() {
        assert!(Tensor::zeros(3usize).iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(3usize).iter().all(|&v| v == 1.0));
        assert!(Tensor::full(4usize, 2.5).iter().all(|&v| v == 2.5));
        let eye = Tensor::eye(3);
        assert_eq!(eye.at(0, 0).unwrap(), 1.0);
        assert_eq!(eye.at(0, 1).unwrap(), 0.0);
        assert_eq!(eye.at(2, 2).unwrap(), 1.0);
    }

    #[test]
    fn get_set_bounds_checked() {
        let mut t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.get(1).unwrap(), 2.0);
        t.set(1, 9.0).unwrap();
        assert_eq!(t.get(1).unwrap(), 9.0);
        assert!(t.get(3).is_err());
        assert!(t.set(3, 0.0).is_err());
    }

    #[test]
    fn reshape_preserves_data_and_checks_len() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let m = t.reshape((2usize, 2usize)).unwrap();
        assert_eq!(m.at(1, 0).unwrap(), 3.0);
        assert!(t.reshape(3usize).is_err());
    }

    #[test]
    fn flatten_keeps_elements() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap();
        let v = m.flatten();
        assert_eq!(v.shape().rank(), 1);
        assert_eq!(v.data(), m.data());
    }

    #[test]
    fn matrix_dims_errors_on_vectors() {
        let v = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(
            v.matrix_dims().unwrap_err(),
            TensorError::NotAMatrix { rank: 1 }
        );
    }

    #[test]
    fn size_bytes_counts_f32() {
        assert_eq!(Tensor::zeros(10usize).size_bytes(), 40);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Tensor::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Tensor::from_slice(&[1.0, f32::NAN]).is_finite());
        assert!(!Tensor::from_slice(&[f32::INFINITY]).is_finite());
    }

    #[test]
    fn collect_from_iterator() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_truncates_long_tensors() {
        let t = Tensor::zeros(100usize);
        let s = t.to_string();
        assert!(s.contains('…'));
    }

    #[test]
    fn clone_preserves_equality() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap();
        let back = t.clone();
        assert_eq!(back, t);
    }
}
