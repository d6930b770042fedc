//! The `measure_variance` tool of §3.1.
//!
//! Each GAR is only provably Byzantine-resilient while the workers' gradient
//! variance is small relative to the true gradient norm:
//!
//! ```text
//! ∃ κ > 1 :  κ · Δ(GAR) · sqrt(E‖g_i − E g_i‖²)  ≤  ‖∇L(θ)‖
//! ```
//!
//! where `Δ` depends on the GAR and on `(n, f)`. The paper ships a small
//! script (`measure_variance.py`) that runs a few training steps, estimates
//! the true gradient with a huge batch, and reports how often the condition
//! holds. [`VarianceProbe`] is the Rust equivalent.

use crate::{average_views, Engine, GarKind};
use garfield_ml::{Dataset, Model, Optimizer, Sgd};
use garfield_tensor::{squared_l2_distance_slices, GradientView, Tensor};

/// The GAR-specific factor `Δ` of the bounded-variance condition (§3.1).
///
/// Returns `None` for GARs the paper gives no formula for (Average, Bulyan);
/// Bulyan inherits Multi-Krum's condition through its selection phase, which
/// callers can request explicitly. A speculative shape inherits its
/// fallback's condition — the fallback is what must hold when it matters.
pub fn delta_factor(gar: &GarKind, n: usize, f: usize) -> Option<f64> {
    if let GarKind::Speculative { fallback } = gar {
        return delta_factor(fallback, n, f);
    }
    let n = n as f64;
    let f = f as f64;
    match gar {
        GarKind::Mda => {
            if n - f <= 0.0 {
                None
            } else {
                Some(2.0 * (2.0_f64).sqrt() * f / (n - f))
            }
        }
        GarKind::Krum | GarKind::MultiKrum => {
            let denom = n - 2.0 * f - 2.0;
            if denom <= 0.0 {
                None
            } else {
                let inner = n - f + (f * (n - f - 2.0) + f * f * (n - f - 1.0)) / denom;
                Some((2.0 * inner).sqrt())
            }
        }
        GarKind::Median => Some((n - f).max(0.0).sqrt()),
        GarKind::Average | GarKind::Bulyan | GarKind::Speculative { .. } => None,
    }
}

/// The outcome of one probed training step.
#[derive(Debug, Clone)]
pub struct VarianceStep {
    /// Training step index.
    pub step: usize,
    /// Norm of the large-batch "true" gradient `‖∇L(θ)‖`.
    pub true_gradient_norm: f64,
    /// Empirical `sqrt(E‖g_i − E g_i‖²)` across the simulated workers.
    pub gradient_std: f64,
    /// Whether `Δ · gradient_std ≤ true_gradient_norm` for each probed GAR,
    /// stored as `(gar, satisfied)` pairs.
    pub satisfied: Vec<(GarKind, bool)>,
}

/// Aggregate report over all probed steps.
#[derive(Debug, Clone)]
pub struct VarianceReport {
    /// Number of workers assumed by the probe.
    pub n: usize,
    /// Number of Byzantine workers assumed by the probe.
    pub f: usize,
    /// Per-worker batch size used for the noisy gradient estimates.
    pub batch_size: usize,
    /// Per-step measurements.
    pub steps: Vec<VarianceStep>,
}

impl VarianceReport {
    /// Fraction of probed steps in which the named GAR's condition held.
    pub fn satisfied_fraction(&self, gar: &GarKind) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let hits = self
            .steps
            .iter()
            .filter(|s| s.satisfied.iter().any(|(g, ok)| g == gar && *ok))
            .count();
        hits as f64 / self.steps.len() as f64
    }
}

/// Configuration of the variance measurement tool.
#[derive(Debug, Clone)]
pub struct VarianceProbe {
    /// Number of workers.
    pub n: usize,
    /// Declared number of Byzantine workers.
    pub f: usize,
    /// Per-worker batch size.
    pub batch_size: usize,
    /// Number of training steps to probe.
    pub steps: usize,
    /// Learning rate of the probe's SGD steps.
    pub learning_rate: f32,
    /// GARs whose condition should be checked.
    pub gars: Vec<GarKind>,
}

impl Default for VarianceProbe {
    fn default() -> Self {
        VarianceProbe {
            n: 10,
            f: 2,
            batch_size: 32,
            steps: 10,
            learning_rate: 0.05,
            gars: vec![GarKind::Median, GarKind::Krum, GarKind::Mda],
        }
    }
}

impl VarianceProbe {
    /// Runs the probe: trains `model` on `dataset` for a few steps and checks
    /// the bounded-variance condition of each configured GAR at every step.
    ///
    /// The "true" gradient is estimated on the full dataset (the paper uses a
    /// huge batch); worker gradients are estimated on independent mini-batches.
    pub fn run(&self, model: &mut dyn Model, dataset: &Dataset) -> VarianceReport {
        let mut opt = Sgd::new(self.learning_rate);
        let mut steps = Vec::with_capacity(self.steps);
        let full = dataset.full_batch().expect("dataset is non-empty");
        let engine = Engine::auto();
        for step in 0..self.steps {
            // Per-worker noisy gradients.
            let mut grads: Vec<Tensor> = Vec::with_capacity(self.n);
            for w in 0..self.n {
                let batch = dataset
                    .batch(step * self.n + w, self.batch_size)
                    .expect("batch size validated");
                grads.push(model.gradient(&batch).1);
            }
            // Empirical mean and deviation of worker gradients, through the
            // engine's zero-copy averaging and slice-distance kernels.
            let views: Vec<GradientView<'_>> = grads.iter().map(GradientView::from).collect();
            let mean = Tensor::from(average_views(&views, &engine));
            let var: f64 = views
                .iter()
                .map(|g| squared_l2_distance_slices(g.data(), mean.data()) as f64)
                .sum::<f64>()
                / views.len() as f64;
            let gradient_std = var.sqrt();

            // Large-batch "true" gradient.
            let (_, true_grad) = model.gradient(&full);
            let true_norm = true_grad.norm() as f64;

            let satisfied = self
                .gars
                .iter()
                .map(|gar| {
                    let ok = delta_factor(gar, self.n, self.f)
                        .map(|delta| delta * gradient_std <= true_norm)
                        .unwrap_or(false);
                    (gar.clone(), ok)
                })
                .collect();
            steps.push(VarianceStep {
                step,
                true_gradient_norm: true_norm,
                gradient_std,
                satisfied,
            });

            // Advance the model with the mean gradient so later steps probe new states.
            opt.step(model, &mean)
                .expect("gradient matches parameter count");
        }
        VarianceReport {
            n: self.n,
            f: self.f,
            batch_size: self.batch_size,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_ml::{DatasetKind, Mlp};
    use garfield_tensor::TensorRng;

    #[test]
    fn delta_factors_match_the_paper_formulas() {
        // MDA: 2*sqrt(2)*f/(n-f) with n=10, f=2 -> 2*1.4142*2/8
        let mda = delta_factor(&GarKind::Mda, 10, 2).unwrap();
        assert!((mda - 2.0 * 2.0_f64.sqrt() * 2.0 / 8.0).abs() < 1e-9);
        // Median: sqrt(n - f)
        let med = delta_factor(&GarKind::Median, 10, 2).unwrap();
        assert!((med - 8.0_f64.sqrt()).abs() < 1e-9);
        // Krum formula, n=10, f=2: sqrt(2*(8 + (2*6 + 4*7)/4)) = sqrt(2*18)
        let krum = delta_factor(&GarKind::Krum, 10, 2).unwrap();
        assert!((krum - (36.0_f64).sqrt()).abs() < 1e-9);
        assert!(delta_factor(&GarKind::Average, 10, 2).is_none());
        assert!(delta_factor(&GarKind::Krum, 6, 2).is_none());
        // The speculative shape inherits the fallback's condition.
        let spec = GarKind::Speculative {
            fallback: Box::new(GarKind::Krum),
        };
        assert_eq!(
            delta_factor(&spec, 10, 2),
            delta_factor(&GarKind::Krum, 10, 2)
        );
    }

    #[test]
    fn larger_f_makes_the_condition_harder() {
        let small = delta_factor(&GarKind::Mda, 20, 1).unwrap();
        let large = delta_factor(&GarKind::Mda, 20, 5).unwrap();
        assert!(large > small);
    }

    #[test]
    fn probe_runs_and_reports_sane_numbers() {
        let mut rng = TensorRng::seed_from(21);
        let ds = Dataset::synthetic(DatasetKind::Tiny, 256, &mut rng);
        let mut model = Mlp::tiny(&mut rng);
        let probe = VarianceProbe {
            n: 6,
            f: 1,
            batch_size: 16,
            steps: 3,
            learning_rate: 0.05,
            gars: vec![GarKind::Median, GarKind::Mda, GarKind::Krum],
        };
        let report = probe.run(&mut model, &ds);
        assert_eq!(report.steps.len(), 3);
        for step in &report.steps {
            assert!(step.true_gradient_norm.is_finite() && step.true_gradient_norm > 0.0);
            assert!(step.gradient_std.is_finite() && step.gradient_std >= 0.0);
            assert_eq!(step.satisfied.len(), 3);
        }
        // MDA has the loosest Δ, so it should hold at least as often as Krum.
        assert!(
            report.satisfied_fraction(&GarKind::Mda) >= report.satisfied_fraction(&GarKind::Krum)
        );
        // Fractions are valid probabilities.
        for gar in [GarKind::Median, GarKind::Mda, GarKind::Krum] {
            let fr = report.satisfied_fraction(&gar);
            assert!((0.0..=1.0).contains(&fr));
        }
    }

    #[test]
    fn empty_report_yields_zero_fraction() {
        let report = VarianceReport {
            n: 5,
            f: 1,
            batch_size: 8,
            steps: vec![],
        };
        assert_eq!(report.satisfied_fraction(&GarKind::Median), 0.0);
    }
}
