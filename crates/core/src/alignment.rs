//! Parameter-vector alignment study (paper appendix, Table 2).
//!
//! The MSMW correctness argument relies on the difference vectors between
//! correct replicas' models being *aligned* (angle close to 0°) once training
//! has progressed. The paper measures this by taking, every 20 steps, the two
//! largest-norm difference vectors among correct replicas and reporting
//! `cos(φ)` between them together with their norms.

use garfield_tensor::{cosine_similarity, Tensor};

/// One row of the Table 2 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentSample {
    /// Training step at which the sample was taken.
    pub step: usize,
    /// `cos(φ)` between the two largest-norm difference vectors.
    pub cosine: f32,
    /// Largest difference-vector norm.
    pub max_diff1: f32,
    /// Second-largest difference-vector norm.
    pub max_diff2: f32,
}

/// Computes one alignment sample from the correct replicas' parameter vectors.
///
/// Returns `None` when fewer than three replicas are available (fewer than two
/// distinct difference vectors exist) or when a difference vector has zero norm.
pub fn alignment_sample(step: usize, replica_params: &[Tensor]) -> Option<AlignmentSample> {
    if replica_params.len() < 3 {
        return None;
    }
    // All pairwise difference vectors with their norms.
    let mut diffs: Vec<(f32, Tensor)> = Vec::new();
    for i in 0..replica_params.len() {
        for j in (i + 1)..replica_params.len() {
            let d = replica_params[i].try_sub(&replica_params[j]).ok()?;
            diffs.push((d.norm(), d));
        }
    }
    diffs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let (n1, d1) = &diffs[0];
    let (n2, d2) = &diffs[1];
    if *n1 == 0.0 || *n2 == 0.0 {
        return None;
    }
    Some(AlignmentSample {
        step,
        cosine: cosine_similarity(d1, d2),
        max_diff1: *n1,
        max_diff2: *n2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_at_least_three_replicas_and_nonzero_differences() {
        let a = Tensor::from_slice(&[1.0, 0.0]);
        let b = Tensor::from_slice(&[2.0, 0.0]);
        assert!(alignment_sample(0, &[a.clone(), b.clone()]).is_none());
        assert!(alignment_sample(0, &[a.clone(), a.clone(), a.clone()]).is_none());
    }

    #[test]
    fn aligned_replicas_give_cosine_near_one() {
        // Three replicas spread along one direction: all difference vectors are parallel.
        let base = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let r1 = base.clone();
        let r2 = base.try_add(&Tensor::from_slice(&[0.1, 0.2, 0.3])).unwrap();
        let r3 = base.try_add(&Tensor::from_slice(&[0.2, 0.4, 0.6])).unwrap();
        let s = alignment_sample(40, &[r1, r2, r3]).unwrap();
        assert!(s.cosine > 0.999, "cos {}", s.cosine);
        assert!(s.max_diff1 >= s.max_diff2);
        assert_eq!(s.step, 40);
    }

    #[test]
    fn orthogonal_spreads_give_small_cosine() {
        let r1 = Tensor::from_slice(&[0.0, 0.0]);
        let r2 = Tensor::from_slice(&[1.0, 0.0]);
        let r3 = Tensor::from_slice(&[0.0, 1.0]);
        let s = alignment_sample(0, &[r1, r2, r3]).unwrap();
        assert!(s.cosine.abs() < 0.9);
    }
}
