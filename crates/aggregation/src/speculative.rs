//! Speculative fast-path aggregation (arXiv:1911.07537).
//!
//! The robust GARs pay their full `O(n² d)` cost every round even when nobody
//! is attacking. [`SpeculativeGar`] bets on the common case instead: each
//! round runs the cheap average kernel plus a cheap consistency check over
//! the same inputs, and the first time the check trips it **permanently**
//! yields to the configured robust fallback rule — a sticky latch, so an
//! adversary cannot alternate between poisoned and clean rounds to stay
//! under the radar.
//!
//! Determinism is the contract that makes speculation safe to reason about:
//!
//! * the fast path produces *exactly* the bits of
//!   [`Average`](crate::Average): the average half of the fused sweep
//!   ([`fused_average_sweep`]) accumulates each coordinate in the same
//!   order as [`average_views`](crate::average_views), so a run in which
//!   the check never trips is **bit-identical** to a vanilla run;
//! * on suspicion the round is replayed through the fallback rule **on the
//!   same inputs**, so from the fallback round onward the run is
//!   **bit-identical** to a run of the pure robust rule;
//! * the check is deterministic in the inputs alone — the norms come from
//!   the fused kernel's fixed tile grid (engine-independent by
//!   construction) and the sampled channels are a fixed sequential scalar
//!   pass over exact copies of the sampled values, no RNG — so sequential
//!   and parallel engines, and the simulated and live substrates, all make
//!   the same trip decision.
//!
//! At large `d` everything here is memory-bound, which is why the average,
//! the norm channel, and the sample gather share one fused sweep
//! ([`fused_average_sweep`]) instead of three passes: the fast path reads
//! the `n·d` gradient payload once per round — and samples it while each
//! tile is still cache-hot — where the robust rules read it `O(n)` times.
//!
//! The check watches four cheap channels, each scale-free (ratios against
//! the per-round median, so no absolute threshold needs tuning per model):
//!
//! 1. **magnitude** — any non-finite squared norm, or a squared norm more
//!    than [`NORM_RATIO`]× above (or below) the median, trips. Catches
//!    dropped/zeroed gradients and large-variance noise injection.
//! 2. **deviation** — on a deterministic stride sample of at most
//!    [`SAMPLE_TARGET`] coordinates, an input whose squared deviation from
//!    the coordinate-wise mean exceeds [`DEV_RATIO`]× the median deviation
//!    trips. Catches partial drops and other off-cluster payloads.
//! 3. **direction** — an input whose inner product with the coordinate-wise
//!    mean falls below `-DOT_MARGIN×` the median inner product trips.
//!    Catches the reflection family (sign flip, fall-of-empires) whose
//!    norms and deviations can hide inside the honest envelope. The channel
//!    disarms itself when the consensus direction is too weak relative to
//!    the honest spread for the sign of an inner product to mean anything
//!    (`mean²·S ≤ 16·median deviation`), so noise-dominated late rounds
//!    cannot false-trip it.
//! 4. **coordinated shift** — an input that lands on the *same side* of the
//!    coordinate-wise mean in at least [`SIGN_FRAC`] of the sampled
//!    coordinates trips. Honest gradients scatter around the mean with
//!    per-coordinate signs near 50/50; a little-is-enough payload shifts
//!    *every* coordinate by `-z·σ_j` (a positive scale times a positive
//!    spread), so its deviation sign is uniform — the one signature the
//!    attack cannot randomize away without losing its bias. The channel
//!    disarms below [`SIGN_MIN_COORDS`] decided coordinates, where a
//!    uniform sign can happen by chance.
//! 5. **zero excess** — an input whose fraction of *exactly zero* sampled
//!    coordinates exceeds the round's median zero fraction by more than
//!    [`ZERO_EXCESS`] trips. Dense honest gradients only carry structural
//!    zeros (dead units), which every replica shares and the median
//!    subtracts out; a partial-drop payload zeroes coordinates the other
//!    inputs disagree on, a shape that keeps its norm, deviation and
//!    direction all inside the honest envelope. (Models with legitimately
//!    batch-sparse gradients — per-row embedding updates — would need this
//!    margin widened.)

use crate::engine::{fused_average_sweep, FusedSweep};
use crate::gar::report_selection;
use crate::{validate_views, AggregationResult, Engine, Gar, SelectionOutcome};
use garfield_tensor::{GradientView, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Trip when an input's squared norm strays this factor from the median.
pub const NORM_RATIO: f64 = 16.0;

/// Trip when an input's sampled squared deviation from the coordinate-wise
/// mean exceeds this factor times the median deviation.
pub const DEV_RATIO: f64 = 8.0;

/// Trip when an input's inner product with the coordinate-wise mean falls
/// below `-DOT_MARGIN` times the median inner product. The margin only has
/// to absorb rounding, not honest spread: while the channel's arming gate
/// holds, an honest inner product sits many standard deviations above zero.
pub const DOT_MARGIN: f64 = 0.1;

/// Trip when an input's exact-zero fraction exceeds the round's median zero
/// fraction by more than this margin.
pub const ZERO_EXCESS: f64 = 0.25;

/// Trip when an input sits on one side of the coordinate-wise mean in at
/// least this fraction of the sampled coordinates that decided a side.
pub const SIGN_FRAC: f64 = 0.98;

/// The coordinated-shift channel disarms below this many decided
/// coordinates, where a uniform deviation sign can happen by chance.
pub const SIGN_MIN_COORDS: usize = 24;

/// Upper bound on the number of coordinates the deviation/direction channels
/// sample (a deterministic stride over the gradient).
pub const SAMPLE_TARGET: usize = 4096;

/// The speculative rule: average fast path, suspicion-gated robust fallback.
///
/// Built by [`build_gar`](crate::build_gar) from the composite
/// [`GarKind::Speculative`](crate::GarKind::Speculative) shape
/// (`"speculative(<fallback>)"`).
pub struct SpeculativeGar {
    n: usize,
    f: usize,
    fallback: Box<dyn Gar>,
    /// Sticky latch: once the check trips, every later round takes the
    /// fallback path. Relaxed ordering suffices — rounds are sequential per
    /// server, and a racing reader only delays the switch by one fast round
    /// that the check re-validates anyway.
    tripped: AtomicBool,
    fallbacks: garfield_obs::Counter,
    fast_seconds: garfield_obs::Histogram,
}

impl SpeculativeGar {
    /// Wraps an already-validated fallback rule.
    pub(crate) fn new(fallback: Box<dyn Gar>, n: usize, f: usize) -> Self {
        SpeculativeGar {
            n,
            f,
            fallback,
            tripped: AtomicBool::new(false),
            fallbacks: garfield_obs::metrics::counter(
                "garfield_speculation_fallback_total",
                "Rounds in which the speculative check tripped and the robust fallback ran.",
                &[],
            ),
            fast_seconds: garfield_obs::metrics::histogram(
                "garfield_speculation_fast_seconds",
                "Wall time of speculative fast-path aggregations (check + average).",
                &[],
            ),
        }
    }

    fn trip(&self) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            self.fallbacks.inc();
        }
    }

    /// The consistency check. `true` means at least one input looks
    /// Byzantine and the round must be replayed through the fallback.
    ///
    /// Consumes the [`FusedSweep`] the fast path already computed: the norm
    /// channel reads the sweep's fixed-tile squared norms and channels 2–5
    /// walk its compact sample gather in a fixed sequential `f64` scalar
    /// pass — both engine-independent, so the trip decision is too.
    fn suspicious(&self, sweep: &FusedSweep) -> bool {
        let n = sweep.square_norms.len();
        if n < 2 || sweep.samples.is_empty() {
            return false;
        }
        let norms = &sweep.square_norms;

        // Channel 1: magnitude band around the median squared norm.
        if norms.iter().any(|x| !x.is_finite()) {
            return true;
        }
        let med_norm = median(norms);
        let max_norm = norms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min_norm = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        if max_norm > NORM_RATIO * med_norm || min_norm * NORM_RATIO < med_norm {
            return true;
        }

        // Channels 2–5 over the sampled coordinates (one gathered row of
        // all n inputs per sampled coordinate, ascending).
        let mut dev = vec![0.0f64; n];
        let mut dot = vec![0.0f64; n];
        let mut below = vec![0usize; n];
        let mut above = vec![0usize; n];
        let mut zeros = vec![0usize; n];
        let mut mean_sq = 0.0f64;
        let mut sampled = 0usize;
        for row in sweep.samples.chunks_exact(n) {
            let mut m = 0.0f64;
            for &x in row {
                m += f64::from(x);
            }
            m /= n as f64;
            mean_sq += m * m;
            for (i, &raw) in row.iter().enumerate() {
                let x = f64::from(raw);
                let e = x - m;
                dev[i] += e * e;
                dot[i] += x * m;
                if e < 0.0 {
                    below[i] += 1;
                } else if e > 0.0 {
                    above[i] += 1;
                }
                if x == 0.0 {
                    zeros[i] += 1;
                }
            }
            sampled += 1;
        }

        let med_dev = median(&dev);
        let max_dev = dev.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if max_dev > DEV_RATIO * med_dev {
            return true;
        }

        // Channel 4: a deviation whose sign is (near-)uniform across the
        // sample is a coordinated shift, not honest scatter.
        for i in 0..n {
            let decided = below[i] + above[i];
            if decided >= SIGN_MIN_COORDS
                && below[i].max(above[i]) as f64 >= SIGN_FRAC * decided as f64
            {
                return true;
            }
        }

        // Channel 5: zeros the other inputs disagree on (median-relative,
        // so shared structural zeros don't count against anyone).
        let zero_fracs: Vec<f64> = zeros.iter().map(|&z| z as f64 / sampled as f64).collect();
        let med_zero = median(&zero_fracs);
        if zero_fracs.iter().any(|&z| z > med_zero + ZERO_EXCESS) {
            return true;
        }

        // The direction channel only means something while the consensus
        // direction stands out of the honest spread (see module docs).
        let med_dot = median(&dot);
        if med_dot > 0.0 && mean_sq * sampled as f64 > 16.0 * med_dev {
            let min_dot = dot.iter().cloned().fold(f64::INFINITY, f64::min);
            if min_dot < -DOT_MARGIN * med_dot {
                return true;
            }
        }
        false
    }
}

/// The deterministic sample stride: at most [`SAMPLE_TARGET`] coordinates,
/// evenly spaced from coordinate 0.
fn sample_stride(inputs: &[GradientView<'_>]) -> usize {
    (inputs[0].len() / SAMPLE_TARGET).max(1)
}

/// Upper median (index `len / 2`) by total order; `values` must be finite.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

impl Gar for SpeculativeGar {
    fn name(&self) -> &'static str {
        "speculative"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn f(&self) -> usize {
        self.f
    }

    fn aggregate_views_with(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
        outcome: Option<&mut SelectionOutcome>,
    ) -> AggregationResult<Tensor> {
        if self.tripped.load(Ordering::Relaxed) {
            return self.fallback.aggregate_views_with(inputs, engine, outcome);
        }
        validate_views(inputs, self.n)?;
        let start = garfield_obs::enabled().then(Instant::now);
        // One fused sweep yields the speculative output *and* everything the
        // check consumes; on a trip the average is discarded — wasted once,
        // since the latch short-circuits every later round.
        let sweep = fused_average_sweep(inputs, engine, sample_stride(inputs));
        if self.suspicious(&sweep) {
            self.trip();
            return self.fallback.aggregate_views_with(inputs, engine, outcome);
        }
        let out = Tensor::from(sweep.average);
        if let Some(t) = start {
            self.fast_seconds.observe_duration(t.elapsed());
        }
        // The fast path reports what Average does: everything selected.
        report_selection(outcome, inputs, None);
        Ok(out)
    }

    fn fell_back(&self) -> Option<bool> {
        Some(self.tripped.load(Ordering::Relaxed))
    }

    /// The sticky-OR receiving end: a sibling shard's check tripped, so this
    /// replica latches onto the fallback exactly as if its own check had.
    fn force_fallback(&self) {
        self.trip();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::average_views;
    use crate::{build_gar, GarKind};
    use garfield_tensor::{Tensor, TensorRng};

    fn spec_kind(fallback: GarKind) -> GarKind {
        GarKind::Speculative {
            fallback: Box::new(fallback),
        }
    }

    /// A tight honest cluster: ones + small noise.
    fn honest_inputs(n: usize, d: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = TensorRng::seed_from(seed);
        (0..n)
            .map(|_| {
                Tensor::ones(d)
                    .try_add(&rng.normal_tensor(d).scale(0.05))
                    .unwrap()
            })
            .collect()
    }

    fn views(inputs: &[Tensor]) -> Vec<GradientView<'_>> {
        inputs.iter().map(GradientView::from).collect()
    }

    #[test]
    fn fault_free_fast_path_is_bit_identical_to_average() {
        let n = 9;
        let inputs = honest_inputs(n, 64, 11);
        let v = views(&inputs);
        for engine in [Engine::sequential(), Engine::with_threads(4)] {
            let spec = build_gar(&spec_kind(GarKind::MultiKrum), n, 1).unwrap();
            let avg = build_gar(&GarKind::Average, n, 0).unwrap();
            let fast = spec.aggregate_views(&v, &engine).unwrap();
            let plain = avg.aggregate_views(&v, &engine).unwrap();
            let fast_bits: Vec<u32> = fast.data().iter().map(|x| x.to_bits()).collect();
            let plain_bits: Vec<u32> = plain.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(fast_bits, plain_bits);
            assert_eq!(spec.fell_back(), Some(false));
        }
    }

    #[test]
    fn sticky_latch_replays_through_the_fallback_forever() {
        let n = 9;
        let f = 1;
        let d = 64;
        let spec = build_gar(&spec_kind(GarKind::MultiKrum), n, f).unwrap();
        let robust = build_gar(&GarKind::MultiKrum, n, f).unwrap();
        let engine = Engine::sequential();

        // Round 0: attacked — must fall back, bit-identical to the pure rule.
        let mut attacked = honest_inputs(n - 1, d, 7);
        attacked.push(Tensor::full(d, 1e6));
        let va = views(&attacked);
        let out = spec.aggregate_views(&va, &engine).unwrap();
        let pure = robust.aggregate_views(&va, &engine).unwrap();
        assert_eq!(spec.fell_back(), Some(true));
        let out_bits: Vec<u32> = out.data().iter().map(|x| x.to_bits()).collect();
        let pure_bits: Vec<u32> = pure.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(out_bits, pure_bits);

        // Round 1: clean inputs, but the latch is sticky — still the fallback.
        let clean = honest_inputs(n, d, 8);
        let vc = views(&clean);
        let out = spec.aggregate_views(&vc, &engine).unwrap();
        let pure = robust.aggregate_views(&vc, &engine).unwrap();
        let out_bits: Vec<u32> = out.data().iter().map(|x| x.to_bits()).collect();
        let pure_bits: Vec<u32> = pure.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(out_bits, pure_bits);
        assert_eq!(spec.fell_back(), Some(true));
    }

    #[test]
    fn check_trips_on_the_classic_payload_shapes() {
        let n = 9;
        let d = 256;
        let engine = Engine::sequential();
        let base = honest_inputs(n - 1, d, 21);
        let mean = Tensor::from(average_views(&views(&base), &engine));
        let payloads: Vec<(&str, Tensor)> = vec![
            ("drop", Tensor::zeros(d)),
            ("random", {
                let mut rng = TensorRng::seed_from(4);
                rng.normal_tensor(d).scale(10.0)
            }),
            ("reversed", mean.scale(-100.0)),
            ("sign-flip", mean.scale(-1.0)),
            ("fall-of-empires", mean.scale(-1.1)),
            ("label-flip", mean.scale(-0.6)),
            // Little-is-enough with an omniscient view: a small uniform
            // shift below the honest mean, inside the norm/dev/dot envelope.
            (
                "little-is-enough",
                mean.try_add(&Tensor::full(d, -0.1)).unwrap(),
            ),
            ("partial-drop", {
                let mut t = mean.clone();
                for (i, x) in t.data_mut().iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *x = 0.0;
                    }
                }
                t
            }),
            ("non-finite", Tensor::full(d, f32::NAN)),
        ];
        for (name, payload) in payloads {
            let spec = build_gar(&spec_kind(GarKind::MultiKrum), n, 1).unwrap();
            let mut inputs = base.clone();
            inputs.push(payload);
            spec.aggregate_views(&views(&inputs), &engine).unwrap();
            assert_eq!(spec.fell_back(), Some(true), "{name} payload not caught");
        }
    }

    #[test]
    fn check_does_not_trip_on_honest_spread() {
        let engine = Engine::sequential();
        for seed in 0..20u64 {
            let n = 9;
            let inputs = honest_inputs(n, 128, 1000 + seed);
            let spec = build_gar(&spec_kind(GarKind::Median), n, 1).unwrap();
            spec.aggregate_views(&views(&inputs), &engine).unwrap();
            assert_eq!(spec.fell_back(), Some(false), "false trip at seed {seed}");
        }
    }

    #[test]
    fn observed_fast_path_matches_averages_observed_path() {
        let n = 7;
        let inputs = honest_inputs(n, 32, 3);
        let v = views(&inputs);
        let engine = Engine::sequential();
        let spec = build_gar(&spec_kind(GarKind::Median), n, 1).unwrap();
        let avg = build_gar(&GarKind::Average, n, 0).unwrap();
        let mut spec_out = SelectionOutcome::default();
        let mut avg_out = SelectionOutcome::default();
        let a = spec
            .aggregate_views_observed(&v, &engine, &mut spec_out)
            .unwrap();
        let b = avg
            .aggregate_views_observed(&v, &engine, &mut avg_out)
            .unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(spec_out, avg_out);
    }
}
