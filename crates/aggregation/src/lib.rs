//! # garfield-aggregation
//!
//! Statistically robust gradient aggregation rules (GARs) from
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021),
//! §3.1, behind the paper's uniform `init()` / `aggregate()` interface.
//!
//! Implemented rules:
//!
//! | Rule | Requirement | Complexity |
//! |------|-------------|------------|
//! | [`Average`] | none (not Byzantine-resilient) | `O(n d)` |
//! | [`Median`] | `n ≥ 2f + 1` | `O(n log² n · d)` |
//! | [`Krum`] / [`MultiKrum`] | `n ≥ 2f + 3` | `O(n² d)` |
//! | [`Mda`] | `n ≥ 2f + 1` | `O(C(n, f) + n² d)` |
//! | [`Bulyan`] | `n ≥ 4f + 3` | `O(n² d)` |
//!
//! All rules consume a slice of equally-shaped [`Tensor`]s (gradients *or*
//! models — the paper aggregates both) and produce one output tensor with the
//! statistical guarantees described in the paper.
//!
//! Under the hood every rule runs on the zero-copy [`engine`]: inputs are
//! borrowed [`GradientView`](garfield_tensor::GradientView)s (wire payloads,
//! tensor storage), the `O(n² d)` pairwise-distance matrix is computed once
//! into a shared [`DistanceCache`] — chunked across OS threads by the
//! [`Engine`] — and selection returns indices, so the only copy a rule makes
//! is its output. Sequential and parallel engines are bit-identical.
//!
//! The crate also ships the paper's `measure_variance.py` equivalent: a
//! [`variance::VarianceProbe`] that empirically checks the bounded-variance
//! condition each GAR needs.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_aggregation::{Gar, GarKind, build_gar};
//! use garfield_tensor::Tensor;
//!
//! let gar = build_gar(&GarKind::Median, 5, 1).unwrap();
//! let inputs: Vec<Tensor> = (0..5).map(|i| Tensor::from_slice(&[i as f32])).collect();
//! let out = gar.aggregate(&inputs).unwrap();
//! assert_eq!(out.data(), &[2.0]);
//! ```
//!
//! [`Tensor`]: garfield_tensor::Tensor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod average;
mod bulyan;
mod column_sort;
pub mod engine;
mod error;
mod gar;
mod krum;
mod mda;
mod median;
mod speculative;
pub mod suspicion;
pub mod variance;

pub use average::Average;
pub use bulyan::Bulyan;
pub use engine::{
    average_and_square_norms, average_views, fused_average_sweep, DistanceCache, Engine,
    FusedSweep, SelectionScratch,
};
pub use error::{AggregationError, AggregationResult};
pub use gar::{build_gar, Gar, GarKind, SelectionOutcome};
pub use krum::{Krum, MultiKrum};
pub use mda::Mda;
pub use median::Median;
pub use speculative::SpeculativeGar;
pub use suspicion::{PeerSuspicion, SuspicionLedger};
pub use variance::{VarianceProbe, VarianceReport, VarianceStep};

/// Validates that all inputs exist, share one shape, and match the expected count.
pub(crate) fn validate_inputs(
    inputs: &[garfield_tensor::Tensor],
    expected: usize,
) -> AggregationResult<()> {
    if inputs.is_empty() {
        return Err(AggregationError::EmptyInput);
    }
    if inputs.len() != expected {
        return Err(AggregationError::WrongInputCount {
            expected,
            got: inputs.len(),
        });
    }
    let shape = inputs[0].shape();
    if inputs.iter().any(|t| t.shape() != shape) {
        return Err(AggregationError::HeterogeneousShapes);
    }
    Ok(())
}

/// Validates that all views exist, share one length, and match the expected count.
pub(crate) fn validate_views(
    inputs: &[garfield_tensor::GradientView<'_>],
    expected: usize,
) -> AggregationResult<()> {
    if inputs.is_empty() {
        return Err(AggregationError::EmptyInput);
    }
    if inputs.len() != expected {
        return Err(AggregationError::WrongInputCount {
            expected,
            got: inputs.len(),
        });
    }
    let d = inputs[0].len();
    if inputs.iter().any(|v| v.len() != d) {
        return Err(AggregationError::HeterogeneousShapes);
    }
    Ok(())
}
