//! The [`Gar`] trait and the paper's `init()`-style factory.

use crate::{
    AggregationError, AggregationResult, Average, Bulyan, DistanceCache, Engine, Krum, Mda, Median,
    MultiKrum,
};
use garfield_tensor::{GradientView, Tensor};
use std::fmt;
use std::str::FromStr;

/// What a GAR's selection phase observed about its inputs, for forensics.
///
/// Filled by [`Gar::aggregate_views_observed`]. The distance-based rules
/// (Krum, Multi-Krum, MDA, Bulyan) report which inputs survived selection and
/// how far every input sits from the surviving set; rules without a selection
/// phase (Average, Median) report all inputs as selected with zero distances.
/// Every rule reports per-input squared norms — the magnitude channel that
/// catches attacks the distance channel cannot (a zeroed gradient near
/// convergence sits *inside* the honest noise ball, closer to everyone than
/// the honest inputs are to each other, yet its norm gives it away).
///
/// The vectors are reused across rounds — callers keep one outcome alive and
/// pass it to every aggregation, so the steady state allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionOutcome {
    /// Indices of the inputs the rule kept, in the rule's selection order.
    pub selected: Vec<usize>,
    /// Per-input mean squared L2 distance to the selected inputs (excluding
    /// the input itself). `0.0` when the rule exposes no distance signal.
    pub distance: Vec<f64>,
    /// Per-input squared L2 norm (may be empty when the outcome was built by
    /// hand; the observed aggregation paths always fill it).
    ///
    /// On finite inputs every rule reports the bits of
    /// [`squared_norm_slices`](garfield_tensor::squared_norm_slices),
    /// whether the norm came from the rule's distance fill or from a
    /// stand-alone pass. A NaN norm is the canonical `f64::NAN` on every
    /// path, engine and build profile.
    pub norm: Vec<f64>,
}

impl SelectionOutcome {
    /// Marks every one of `n` inputs as selected with a zero distance
    /// profile — the outcome of a rule without a selection phase.
    pub fn fill_all_selected(&mut self, n: usize) {
        self.selected.clear();
        self.selected.extend(0..n);
        self.distance.clear();
        self.distance.resize(n, 0.0);
        self.norm.clear();
    }

    /// Indices of the inputs the rule rejected, ascending.
    pub fn excluded(&self) -> Vec<usize> {
        (0..self.distance.len())
            .filter(|i| !self.selected.contains(i))
            .collect()
    }
}

/// Fills `out[i]` with the mean squared distance from input `i` to the
/// selected inputs (skipping `i` itself), read from the prebuilt cache.
///
/// This is `O(n · |selected|)` scalar reads on top of the `O(n² d)` distance
/// work the rule already paid — the forensic profile is effectively free.
fn fill_distance_profile(cache: &DistanceCache, selected: &[usize], out: &mut Vec<f64>) {
    let n = cache.n();
    out.clear();
    out.resize(n, 0.0);
    for (i, slot) in out.iter_mut().enumerate() {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for &j in selected {
            if j != i {
                sum += f64::from(cache.get(i, j));
                count += 1;
            }
        }
        if count > 0 {
            *slot = sum / count as f64;
        }
    }
}

/// Fills `out[i]` with the squared L2 norm of input `i` — the forensic
/// magnitude channel — in a stand-alone `O(n · d)` pass. Only the rules
/// without a distance cache (Average, Median) pay it; the distance-based
/// rules read the norms their fill already took.
/// A NaN norm is stored canonical, as [`DistanceCache`] stores it.
fn fill_norm_profile(inputs: &[GradientView<'_>], out: &mut Vec<f64>) {
    out.clear();
    out.extend(inputs.iter().map(|v| {
        let norm = garfield_tensor::squared_norm_slices(v.data());
        if norm.is_nan() {
            f64::NAN
        } else {
            f64::from(norm)
        }
    }));
}

/// Writes a rule's forensic report, when the caller asked for one: the
/// inputs the rule selected with every input's mean distance to them, and
/// every input's squared norm, all read from the rule's own distance cache
/// (`selection`). Rules without a selection phase pass `None`, report every
/// input selected at distance zero, and pay a stand-alone `O(n · d)` norm
/// pass. With `outcome` absent this does nothing, so the unobserved path
/// costs exactly the rule.
pub(crate) fn report_selection(
    outcome: Option<&mut SelectionOutcome>,
    inputs: &[GradientView<'_>],
    selection: Option<(&DistanceCache, &[usize])>,
) {
    let Some(outcome) = outcome else { return };
    match selection {
        Some((cache, selected)) => {
            outcome.selected.clear();
            outcome.selected.extend_from_slice(selected);
            fill_distance_profile(cache, selected, &mut outcome.distance);
            outcome.norm.clear();
            outcome
                .norm
                .extend(cache.norms().iter().map(|&v| f64::from(v)));
        }
        None => {
            outcome.fill_all_selected(inputs.len());
            fill_norm_profile(inputs, &mut outcome.norm);
        }
    }
}

/// A gradient aggregation rule: a function `(R^d)^n -> R^d`.
///
/// This is the paper's uniform `aggregate()` interface (§3.2, *Aggregation*):
/// construction corresponds to `init(name, n, f)` via [`build_gar`], and the
/// rule is agnostic to whether its inputs are gradients or model vectors.
///
/// Each rule is written once, as [`Gar::aggregate_views_with`]: it scores and
/// selects over borrowed `&[f32]` slices, copies only the output, and fills
/// the forensic [`SelectionOutcome`] when handed one. The zero-copy
/// [`Gar::aggregate_views`] / [`Gar::aggregate_views_observed`] pair and the
/// owned-tensor [`Gar::aggregate`] (which preserves the input shape on the
/// output) are provided methods that forward to it.
pub trait Gar: Send + Sync {
    /// The rule's short name (e.g. `"median"`).
    fn name(&self) -> &'static str;

    /// Total number of input vectors the rule was configured for.
    fn n(&self) -> usize;

    /// Declared maximum number of Byzantine input vectors.
    fn f(&self) -> usize;

    /// The rule: aggregates exactly `n` equal-length flat input views into
    /// one output under the given execution [`Engine`], reporting into
    /// `outcome` (when present) which inputs the selection phase kept, how
    /// far each input sits from the surviving set, and every input's squared
    /// norm — see [`SelectionOutcome`]. Inputs are borrowed — the only copy
    /// a rule performs is into its output tensor.
    ///
    /// The output does not depend on whether an outcome was asked for, and
    /// sequential and parallel engines produce **bit-identical** outputs.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::WrongInputCount`],
    /// [`AggregationError::HeterogeneousShapes`] (unequal view lengths) or
    /// [`AggregationError::EmptyInput`] when the inputs are malformed.
    fn aggregate_views_with(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: Option<&mut SelectionOutcome>,
    ) -> AggregationResult<Tensor>;

    /// [`Gar::aggregate_views_with`] without the forensic report (and, for
    /// Average and Median, without their `O(n · d)` norm pass).
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate_views_with`].
    fn aggregate_views(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
    ) -> AggregationResult<Tensor> {
        self.aggregate_views_with(inputs, engine, None)
    }

    /// Aggregates exactly `n` equally-shaped input tensors into one output
    /// of the same shape, using the machine-sized engine.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::WrongInputCount`],
    /// [`AggregationError::HeterogeneousShapes`] or
    /// [`AggregationError::EmptyInput`] when the inputs are malformed.
    fn aggregate(&self, inputs: &[Tensor]) -> AggregationResult<Tensor> {
        crate::validate_inputs(inputs, self.n())?;
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let flat = self.aggregate_views(&views, &Engine::auto())?;
        Ok(flat
            .reshape(inputs[0].shape().clone())
            .expect("aggregation preserves the element count"))
    }

    /// [`Gar::aggregate_views_with`] with the forensic report, for per-peer
    /// suspicion scoring. Outputs are **bit-identical** to
    /// [`Gar::aggregate_views`]; the distance-based rules derive the whole
    /// report, norms included, from the pairwise-distance cache they already
    /// built, so the observation costs `O(n · |selected|)` scalar reads.
    /// Average and Median add a stand-alone `O(n · d)` norm pass.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate_views_with`].
    fn aggregate_views_observed(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: &mut SelectionOutcome,
    ) -> AggregationResult<Tensor> {
        self.aggregate_views_with(inputs, engine, Some(outcome))
    }

    /// Whether the rule provides Byzantine resilience (everything except `Average`).
    fn is_byzantine_resilient(&self) -> bool {
        true
    }
}

/// The aggregation rules shipped with Garfield.
///
/// `GarKind` is the single source of truth for GAR construction: CLI flags,
/// config JSON and bench sweeps all parse into it (via [`FromStr`]) and
/// [`build_gar`] consumes it. The canonical text form round-trips through
/// [`fmt::Display`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GarKind {
    /// Plain averaging (the vanilla, non-resilient baseline).
    Average,
    /// Coordinate-wise median.
    Median,
    /// Krum: returns the single smallest-scoring gradient.
    Krum,
    /// Multi-Krum: averages the `n - f - 2` smallest-scoring gradients.
    MultiKrum,
    /// Minimum-Diameter Averaging.
    Mda,
    /// Bulyan of Multi-Krum.
    Bulyan,
}

impl GarKind {
    /// All kinds, in the order the paper's micro-benchmark (Fig. 3) plots
    /// them.
    pub fn all() -> [GarKind; 6] {
        [
            GarKind::Bulyan,
            GarKind::Mda,
            GarKind::MultiKrum,
            GarKind::Median,
            GarKind::Krum,
            GarKind::Average,
        ]
    }

    /// The canonical lowercase name, as [`fmt::Display`] writes it.
    pub fn as_str(&self) -> &'static str {
        match self {
            GarKind::Average => "average",
            GarKind::Median => "median",
            GarKind::Krum => "krum",
            GarKind::MultiKrum => "multi-krum",
            GarKind::Mda => "mda",
            GarKind::Bulyan => "bulyan",
        }
    }

    /// Whether the rule decomposes coordinate-wise: applying it to each
    /// contiguous slice of the inputs independently equals slicing its output
    /// on the full vectors, bit for bit, given identical input membership.
    ///
    /// This is the soundness condition for the sharded parameter server —
    /// only decomposable rules may run with `shards > 1`. Average (a
    /// per-coordinate mean) and Median (per-coordinate by definition)
    /// qualify; the distance-based rules (Krum, Multi-Krum, MDA, Bulyan)
    /// score whole vectors by pairwise L2 distances, so their selection on a
    /// slice can differ from their selection on the full vector.
    pub fn is_coordinate_decomposable(&self) -> bool {
        match self {
            GarKind::Average | GarKind::Median => true,
            GarKind::Krum | GarKind::MultiKrum | GarKind::Mda | GarKind::Bulyan => false,
        }
    }

    /// The minimum number of inputs required to tolerate `f` Byzantine ones.
    pub fn minimum_inputs(&self, f: usize) -> usize {
        match self {
            GarKind::Average => 1,
            GarKind::Median | GarKind::Mda => 2 * f + 1,
            GarKind::Krum | GarKind::MultiKrum => 2 * f + 3,
            GarKind::Bulyan => 4 * f + 3,
        }
    }
}

impl fmt::Display for GarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for GarKind {
    type Err = AggregationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "average" | "mean" => Ok(GarKind::Average),
            "median" => Ok(GarKind::Median),
            "krum" => Ok(GarKind::Krum),
            "multi-krum" | "multikrum" | "multi_krum" => Ok(GarKind::MultiKrum),
            "mda" => Ok(GarKind::Mda),
            "bulyan" => Ok(GarKind::Bulyan),
            other => Err(AggregationError::UnknownRule(other.to_string())),
        }
    }
}

/// A transparent [`Gar`] wrapper counting aggregations into the
/// `garfield_gar_selections_total{gar=...}` metric family. Pure delegation
/// otherwise: outputs are bit-identical to the wrapped rule, and with
/// observability disabled the count is a load and a branch.
struct CountedGar {
    inner: Box<dyn Gar>,
    selections: garfield_obs::Counter,
}

impl Gar for CountedGar {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn f(&self) -> usize {
        self.inner.f()
    }

    fn aggregate_views_with(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: Option<&mut SelectionOutcome>,
    ) -> AggregationResult<Tensor> {
        self.selections.inc();
        self.inner.aggregate_views_with(inputs, engine, outcome)
    }

    fn is_byzantine_resilient(&self) -> bool {
        self.inner.is_byzantine_resilient()
    }
}

/// Builds a GAR from its kind, total input count `n` and Byzantine bound `f`.
///
/// This is the paper's `init(name, n, f)`, typed: callers parse whatever
/// string they hold into a [`GarKind`] first (CLI, JSON, sweeps), so the
/// name↔rule mapping lives in exactly one place.
///
/// # Errors
///
/// Returns [`AggregationError::ResilienceViolated`] when `(n, f)` does not
/// satisfy the rule's requirement.
///
/// ```rust
/// use garfield_aggregation::{build_gar, GarKind};
/// let gar = build_gar(&GarKind::Bulyan, 7, 1).unwrap();
/// assert_eq!(gar.name(), "bulyan");
/// assert!(build_gar(&GarKind::Bulyan, 6, 1).is_err());
/// ```
pub fn build_gar(kind: &GarKind, n: usize, f: usize) -> AggregationResult<Box<dyn Gar>> {
    let inner: Box<dyn Gar> = match kind {
        GarKind::Average => Box::new(Average::new(n)?),
        GarKind::Median => Box::new(Median::new(n, f)?),
        GarKind::Krum => Box::new(Krum::new(n, f)?),
        GarKind::MultiKrum => Box::new(MultiKrum::new(n, f)?),
        GarKind::Mda => Box::new(Mda::new(n, f)?),
        GarKind::Bulyan => Box::new(Bulyan::new(n, f)?),
    };
    let selections = garfield_obs::metrics::counter(
        "garfield_gar_selections_total",
        "Aggregations performed, by GAR.",
        &[("gar", kind.as_str())],
    );
    Ok(Box::new(CountedGar { inner, selections }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_parse_and_display_round_trip() {
        for kind in GarKind::all() {
            let parsed: GarKind = kind.as_str().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("nonsense".parse::<GarKind>().is_err());
        assert!("speculative(multi-krum)".parse::<GarKind>().is_err());
        assert_eq!("MultiKrum".parse::<GarKind>().unwrap(), GarKind::MultiKrum);
    }

    #[test]
    fn minimum_inputs_match_the_paper() {
        assert_eq!(GarKind::Median.minimum_inputs(3), 7);
        assert_eq!(GarKind::Mda.minimum_inputs(3), 7);
        assert_eq!(GarKind::Krum.minimum_inputs(3), 9);
        assert_eq!(GarKind::MultiKrum.minimum_inputs(3), 9);
        assert_eq!(GarKind::Bulyan.minimum_inputs(3), 15);
        assert_eq!(GarKind::Average.minimum_inputs(3), 1);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in GarKind::all() {
            let n = kind.minimum_inputs(1).max(3);
            let gar = build_gar(&kind, n, 1).unwrap();
            assert_eq!(gar.n(), n);
            assert_eq!(gar.name(), kind.as_str());
        }
    }

    #[test]
    fn factory_rejects_insufficient_n() {
        assert!(build_gar(&GarKind::Krum, 4, 1).is_err());
        assert!(build_gar(&GarKind::Bulyan, 6, 1).is_err());
        assert!(build_gar(&GarKind::Median, 2, 1).is_err());
        assert!(build_gar(&"median".parse::<GarKind>().unwrap(), 3, 1).is_ok());
        assert!("wat".parse::<GarKind>().is_err());
    }

    #[test]
    fn observed_aggregation_is_bit_identical_and_flags_the_outlier() {
        use garfield_tensor::TensorRng;
        let mut rng = TensorRng::seed_from(77);
        for kind in GarKind::all() {
            let f = 1;
            let n = kind.minimum_inputs(f).max(7);
            let mut inputs: Vec<Tensor> = (0..n - 1)
                .map(|_| {
                    Tensor::ones(16usize)
                        .try_add(&rng.normal_tensor(16usize).scale(0.05))
                        .unwrap()
                })
                .collect();
            inputs.push(Tensor::full(16usize, 1e4)); // Byzantine outlier at n-1
            let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let engine = Engine::sequential();

            let plain = gar.aggregate_views(&views, &engine).unwrap();
            let mut outcome = SelectionOutcome::default();
            let observed = gar
                .aggregate_views_observed(&views, &engine, &mut outcome)
                .unwrap();
            let plain_bits: Vec<u32> = plain.data().iter().map(|v| v.to_bits()).collect();
            let observed_bits: Vec<u32> = observed.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(plain_bits, observed_bits, "{kind} observed output differs");

            assert_eq!(outcome.distance.len(), n, "{kind} profile length");
            assert!(!outcome.selected.is_empty(), "{kind} selected nothing");
            // Every rule reports the magnitude channel, and the outlier's
            // huge vector dominates it.
            assert_eq!(outcome.norm.len(), n, "{kind} norm profile length");
            let max_norm = (0..n)
                .max_by(|&a, &b| outcome.norm[a].total_cmp(&outcome.norm[b]))
                .unwrap();
            assert_eq!(max_norm, n - 1, "{kind} norms: {:?}", outcome.norm);
            match kind {
                // Distance-based rules: the outlier is excluded and carries
                // the largest distance to the selected set.
                GarKind::Krum | GarKind::MultiKrum | GarKind::Mda | GarKind::Bulyan => {
                    assert!(
                        !outcome.selected.contains(&(n - 1)),
                        "{kind} selected the outlier"
                    );
                    assert!(outcome.excluded().contains(&(n - 1)));
                    let max_idx = (0..n)
                        .max_by(|&a, &b| outcome.distance[a].total_cmp(&outcome.distance[b]))
                        .unwrap();
                    assert_eq!(max_idx, n - 1, "{kind} distances: {:?}", outcome.distance);
                }
                // Selection-free rules: everything selected, zero profile.
                GarKind::Average | GarKind::Median => {
                    assert_eq!(outcome.selected, (0..n).collect::<Vec<_>>());
                    assert!(outcome.distance.iter().all(|&d| d == 0.0));
                    assert!(outcome.excluded().is_empty());
                }
            }
        }
    }

    #[test]
    fn coordinate_decomposability_matches_the_rules_math() {
        assert!(GarKind::Average.is_coordinate_decomposable());
        assert!(GarKind::Median.is_coordinate_decomposable());
        for kind in [
            GarKind::Krum,
            GarKind::MultiKrum,
            GarKind::Mda,
            GarKind::Bulyan,
        ] {
            assert!(!kind.is_coordinate_decomposable(), "{kind}");
        }
    }

    #[test]
    fn average_is_not_byzantine_resilient_but_others_are() {
        assert!(!build_gar(&GarKind::Average, 3, 0)
            .unwrap()
            .is_byzantine_resilient());
        assert!(build_gar(&GarKind::Median, 3, 1)
            .unwrap()
            .is_byzantine_resilient());
        assert!(build_gar(&GarKind::Bulyan, 7, 1)
            .unwrap()
            .is_byzantine_resilient());
    }
}
