//! Borrowed, zero-copy views over gradient storage.
//!
//! The aggregation hot path used to materialise one [`Tensor`] per candidate
//! gradient — a full `Vec<f32>` clone of every wire payload before the GAR
//! even looked at it. A [`GradientView`] is the zero-copy alternative: a flat
//! `&[f32]` borrowed straight from wherever the values already live (a decoded
//! wire payload, a tensor's storage, a pooled scratch buffer). GARs score and
//! select over views and copy *only* the winning data into their output.

use crate::Tensor;

/// A borrowed flat `f32` vector: the zero-copy currency of the GAR engine.
///
/// Views are `Copy` — passing them around moves two words, never data. The
/// underlying slice is row-major flattened storage; aggregation rules treat
/// every input as a flat vector regardless of the tensor shape it came from
/// (the paper aggregates gradients and models alike).
///
/// ```rust
/// use garfield_tensor::{GradientView, Tensor};
/// let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
/// let v = GradientView::from(&t);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.data(), t.data()); // same memory, no copy
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientView<'a> {
    data: &'a [f32],
}

impl<'a> GradientView<'a> {
    /// Wraps a flat slice of values.
    pub fn new(data: &'a [f32]) -> Self {
        GradientView { data }
    }

    /// The borrowed values.
    pub fn data(self) -> &'a [f32] {
        self.data
    }

    /// Number of scalar elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.data.len()
    }

    /// Whether the view holds no elements.
    pub fn is_empty(self) -> bool {
        self.data.is_empty()
    }

    /// Materialises the view into an owned flat [`Tensor`] — the *single*
    /// copy a zero-copy aggregation performs, at the very end.
    pub fn to_tensor(self) -> Tensor {
        Tensor::from_slice(self.data)
    }

    /// Returns `true` when every element is finite (no NaN / infinity).
    pub fn is_finite(self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl<'a> From<&'a Tensor> for GradientView<'a> {
    fn from(t: &'a Tensor) -> Self {
        GradientView { data: t.data() }
    }
}

impl<'a> From<&'a [f32]> for GradientView<'a> {
    fn from(data: &'a [f32]) -> Self {
        GradientView { data }
    }
}

impl<'a> From<&'a Vec<f32>> for GradientView<'a> {
    fn from(data: &'a Vec<f32>) -> Self {
        GradientView { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_memory_with_their_source() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let v = GradientView::from(&t);
        assert_eq!(v.data().as_ptr(), t.data().as_ptr());
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn to_tensor_copies_once_and_preserves_values() {
        let data = vec![3.0f32, -1.0, 0.5];
        let v = GradientView::from(&data);
        let t = v.to_tensor();
        assert_eq!(t.data(), &data[..]);
        assert_ne!(t.data().as_ptr(), data.as_ptr());
    }

    #[test]
    fn finiteness_matches_tensor_semantics() {
        assert!(GradientView::new(&[1.0, 2.0]).is_finite());
        assert!(!GradientView::new(&[1.0, f32::NAN]).is_finite());
        assert!(!GradientView::new(&[f32::NEG_INFINITY]).is_finite());
    }
}
