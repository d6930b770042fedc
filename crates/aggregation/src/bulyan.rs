//! Bulyan GAR (El Mhamdi et al., ICML 2018).

use crate::column_sort::map_sorted_columns;
use crate::engine::bulyan_select_cached;
use crate::gar::report_selection;
use crate::{
    validate_views, AggregationError, AggregationResult, DistanceCache, Engine, Gar,
    SelectionOutcome, SelectionScratch,
};
use garfield_tensor::{total_order_unkey_f32, GradientView, Tensor};

/// Bulyan of Multi-Krum.
///
/// Bulyan proceeds in two phases, matching §3.1 of the paper:
///
/// 1. **Selection**: iterate a Byzantine-resilient GAR (Multi-Krum here)
///    `k = n - 2f` times; at each iteration the selected gradient is moved
///    from the candidate pool into the selection set.
/// 2. **Aggregation**: for every coordinate, take the `k' = k - 2f` values of
///    the selection set closest to the selection set's coordinate-wise median
///    and average them.
///
/// The per-coordinate trimming is what lets Bulyan sustain high-dimensional
/// models against the "hidden vulnerability" attack. Requires `n ≥ 4f + 3`.
///
/// The selection loop runs on the shared [`DistanceCache`]: distances are
/// computed once (`O(n² d)`, thread-chunked) and each repeated-Krum round is
/// an incremental score update over pre-sorted neighbour lists — the old
/// implementation cloned the full candidate pool and re-ran Krum from raw
/// tensors every round. Phase 2 is chunked across threads by coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bulyan {
    n: usize,
    f: usize,
}

impl Bulyan {
    /// Creates a Bulyan rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 4f + 3`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 4 * f + 3 {
            return Err(AggregationError::ResilienceViolated {
                rule: "bulyan",
                n,
                f,
                requirement: "n >= 4f + 3",
            });
        }
        Ok(Bulyan { n, f })
    }

    /// Size of the selection set produced by the first phase (`n - 2f`).
    pub fn selection_size(&self) -> usize {
        self.n - 2 * self.f
    }

    /// Number of values averaged per coordinate in the second phase
    /// (`selection_size - 2f` = `n - 4f`, at least 3).
    pub fn trimmed_size(&self) -> usize {
        self.selection_size() - 2 * self.f
    }

    /// Zero-copy selection phase: the chosen input indices, in selection
    /// order.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`Gar::aggregate_views`].
    pub fn select_indices_views(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
    ) -> AggregationResult<Vec<usize>> {
        validate_views(inputs, self.n)?;
        let cache = DistanceCache::build(inputs, engine);
        let mut scratch = SelectionScratch::new();
        let mut selected = Vec::with_capacity(self.selection_size());
        self.select_cached(&cache, &mut scratch, &mut selected);
        Ok(selected)
    }

    /// Allocation-free selection over a prebuilt cache (steady state): the
    /// selected indices are written into `selected` in selection order.
    pub fn select_cached(
        &self,
        cache: &DistanceCache,
        scratch: &mut SelectionScratch,
        selected: &mut Vec<usize>,
    ) {
        bulyan_select_cached(cache, self.f, self.selection_size(), scratch, selected);
    }

    /// Phase 2 over an already-selected set: per-coordinate trimmed average
    /// around the selection set's median, on the sorted tiles of
    /// [`map_sorted_columns`] (chunked across threads by coordinate range).
    ///
    /// The keys are `total_order_key_f32`, the workspace-wide total order,
    /// so a NaN coordinate lands in the same position here as in every other
    /// GAR sort. The median is row `mid`. "The β values closest to the
    /// median" are a *contiguous window* of the sorted column, so the trim is
    /// a β−1-step greedy two-pointer expansion around the median. Each step
    /// compares the raw bits of the two candidate distances `|v − m|`; they
    /// are non-negative (or NaN), so that IS the total order. A side that has
    /// run out offers `u32::MAX`, which no distance reaches. Ties pick the
    /// left (smaller-key) candidate. The sum accumulates in expansion order
    /// and is divided by β.
    ///
    /// The walk runs eight coordinates at a time (`TRIM_LANES`), every
    /// lane's state in a `[_; TRIM_LANES]` local: the median `m`, the
    /// left-step count `j`, the sum, and the two candidates. A lane that has
    /// stepped left `j` times has its window at rows
    /// `mid − j ..= mid − j + taken − 1`, so at step `taken` its candidates
    /// are rows `mid − j − 1` and `mid − j + taken`. The step reads those
    /// rows for every `j` a lane can have and blends them in by mask,
    /// `(a & m) | (b & !m)`: no gather, no branch on data.
    ///
    /// NaN rule: a NaN value replaces the sum with its quieted bits, and any
    /// other value is added, `sum + v`. With at most one NaN operand the add
    /// keeps that NaN whichever operand order codegen picks, so the output
    /// bits, NaN payloads included, are fixed by this code.
    ///
    /// The expansion must stay greedy: NaN distances are not monotone along
    /// one side (on x86-64 a nearer `-sNaN 0xff800001` yields distance bits
    /// `0x7fc00001`, a farther `-qNaN 0xffc00000` yields `0x7fc00000`), so a
    /// formula that ranks all distances at once picks other values, or sums
    /// them in another order, on Byzantine input.
    fn trimmed_average(
        &self,
        inputs: &[GradientView<'_>],
        selected: &[usize],
        engine: &Engine,
    ) -> Tensor {
        let rows: Vec<&[f32]> = selected.iter().map(|&i| inputs[i].data()).collect();
        let beta = self.trimmed_size();
        let last = rows.len() - 1;
        let mid = last / 2;
        map_sorted_columns(&rows, engine, |tile, out| {
            for (block, slots) in out.chunks_mut(TRIM_LANES).enumerate() {
                let row = |r: usize| -> [u32; TRIM_LANES] {
                    *tile[r][block * TRIM_LANES..]
                        .first_chunk()
                        .expect("TRIM_LANES divides the tile width")
                };
                let m = row(mid).map(total_order_unkey_f32);
                let (mut steps, mut sum) = ([0u32; TRIM_LANES], m);
                for taken in 1..beta {
                    // Every lane has j < taken and j ≤ mid. A side that has
                    // run out reads a clamped row, masked to u32::MAX below:
                    // the left in lanes with j = mid, the right in lanes with
                    // j < first_right (mid − j + taken > last). One loop for
                    // both sides: with a loop per side, LLVM scalarised the
                    // right one into per-lane branches.
                    let (mut left, mut right) = ([0u32; TRIM_LANES], [0u32; TRIM_LANES]);
                    for j in 0..taken.min(mid + 1) {
                        let at_j = steps.map(|s| mask(s == j as u32));
                        left = blend(at_j, row((mid - j).saturating_sub(1)), left);
                        right = blend(at_j, row((mid + taken - j).min(last)), right);
                    }
                    let first_right = (mid + taken).saturating_sub(last);
                    let (lv, rv) = (
                        left.map(total_order_unkey_f32),
                        right.map(total_order_unkey_f32),
                    );
                    for t in 0..TRIM_LANES {
                        let l_bits = (lv[t] - m[t]).abs().to_bits() | mask(steps[t] == mid as u32);
                        let r_bits =
                            (rv[t] - m[t]).abs().to_bits() | mask(steps[t] < first_right as u32);
                        let go_left = mask(l_bits <= r_bits);
                        steps[t] += go_left & 1;
                        let v = select(go_left, lv[t].to_bits(), rv[t].to_bits());
                        let nan = mask(f32::from_bits(v).is_nan());
                        let added = (sum[t] + f32::from_bits(v)).to_bits();
                        sum[t] = f32::from_bits(select(nan, v | QUIET_BIT, added));
                    }
                }
                for (slot, s) in slots.iter_mut().zip(sum.map(|s| s / beta as f32)) {
                    *slot = s;
                }
            }
        })
    }
}

/// Coordinates per block of Bulyan's trim: one AVX2 register of `u32`s.
const TRIM_LANES: usize = 8;

/// The bit that makes a NaN quiet.
const QUIET_BIT: u32 = 0x0040_0000;

/// All ones when `b`, zero otherwise.
fn mask(b: bool) -> u32 {
    u32::from(b).wrapping_neg()
}

/// `a` where `m` is all ones, `b` where it is zero.
fn select(m: u32, a: u32, b: u32) -> u32 {
    (a & m) | (b & !m)
}

/// `a` in the lanes where `m` is all ones, `b` in the others.
fn blend(m: [u32; TRIM_LANES], a: [u32; TRIM_LANES], b: [u32; TRIM_LANES]) -> [u32; TRIM_LANES] {
    std::array::from_fn(|t| select(m[t], a[t], b[t]))
}

impl Gar for Bulyan {
    fn name(&self) -> &'static str {
        "bulyan"
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
        validate_views(inputs, self.n)?;
        let cache = DistanceCache::build(inputs, engine);
        let mut selected = Vec::with_capacity(self.selection_size());
        self.select_cached(&cache, &mut SelectionScratch::new(), &mut selected);
        report_selection(outcome, inputs, Some((&cache, &selected)));
        Ok(self.trimmed_average(inputs, &selected, engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::TensorRng;

    fn honest_cluster(n: usize, d: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = TensorRng::seed_from(seed);
        (0..n)
            .map(|_| {
                Tensor::ones(d)
                    .try_add(&rng.normal_tensor(d).scale(0.1))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn requirement_is_4f_plus_3() {
        assert!(Bulyan::new(7, 1).is_ok());
        assert!(Bulyan::new(6, 1).is_err());
        assert!(Bulyan::new(15, 3).is_ok());
        assert!(Bulyan::new(14, 3).is_err());
    }

    #[test]
    fn selection_and_trim_sizes() {
        let b = Bulyan::new(11, 2).unwrap();
        assert_eq!(b.selection_size(), 7);
        assert_eq!(b.trimmed_size(), 3);
    }

    #[test]
    fn resists_large_outliers() {
        let mut inputs = honest_cluster(6, 16, 1);
        inputs.push(Tensor::full(16usize, 1e8));
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.aggregate(&inputs).unwrap();
        assert!(out.data().iter().all(|&v| (0.0..2.0).contains(&v)), "{out}");
    }

    #[test]
    fn resists_the_single_coordinate_attack() {
        // The "hidden vulnerability": a Byzantine input that looks honest in
        // every coordinate except one, where it is far off. Bulyan's
        // coordinate-wise trimming must suppress that coordinate.
        let mut inputs = honest_cluster(6, 8, 2);
        let mut sneaky = Tensor::ones(8usize);
        sneaky.set(3, 1e6).unwrap();
        inputs.push(sneaky);
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.aggregate(&inputs).unwrap();
        assert!(
            out.data()[3] < 10.0,
            "coordinate attack leaked through: {}",
            out.data()[3]
        );
    }

    #[test]
    fn output_without_byzantine_inputs_tracks_the_mean() {
        let inputs = honest_cluster(7, 32, 3);
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.aggregate(&inputs).unwrap();
        assert!((out.mean() - 1.0).abs() < 0.2);
    }

    #[test]
    fn output_stays_within_per_coordinate_input_range() {
        let mut rng = TensorRng::seed_from(8);
        let inputs: Vec<Tensor> = (0..7).map(|_| rng.normal_tensor(5usize)).collect();
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.aggregate(&inputs).unwrap();
        for c in 0..5 {
            let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
            let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(out.data()[c] >= min - 1e-5 && out.data()[c] <= max + 1e-5);
        }
    }

    #[test]
    fn selection_does_not_clone_the_pool_and_agrees_across_engines() {
        let inputs = honest_cluster(11, 24, 12);
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let b = Bulyan::new(11, 2).unwrap();
        let seq = b
            .select_indices_views(&views, &Engine::sequential())
            .unwrap();
        let par = b
            .select_indices_views(&views, &Engine::with_threads(4))
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), b.selection_size());
        // Selection returns distinct input indices.
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seq.len());
    }

    #[test]
    fn nan_column_is_trimmed_identically_on_every_engine() {
        // A Byzantine input that is honest everywhere except one coordinate,
        // which it sets to NaN. Phase 2 sorts that column through the shared
        // total-order comparator, so the trimmed window — and therefore the
        // output bits — must be identical between the sequential and the
        // parallel engine, and stable across repeated calls.
        let mut inputs = honest_cluster(7, 16, 21);
        let mut poisoned = Tensor::ones(16usize);
        poisoned.set(5, f32::NAN).unwrap();
        inputs.push(poisoned);
        // n = 8 won't satisfy 4f + 3 with the poisoned input counted in f;
        // drop one honest input to stay at n = 7, f = 1.
        inputs.remove(0);
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let b = Bulyan::new(7, 1).unwrap();
        let seq = b.aggregate_views(&views, &Engine::sequential()).unwrap();
        let par = b.aggregate_views(&views, &Engine::with_threads(4)).unwrap();
        let seq_bits: Vec<u32> = seq.data().iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u32> = par.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, par_bits, "NaN column scrambled across engines");
        let again = b.aggregate_views(&views, &Engine::sequential()).unwrap();
        let again_bits: Vec<u32> = again.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, again_bits, "NaN column order is unstable");
        // Every non-poisoned coordinate still aggregates to a finite value.
        for (c, v) in seq.data().iter().enumerate() {
            if c != 5 {
                assert!(v.is_finite(), "coordinate {c} became {v}");
            }
        }
    }

    #[test]
    fn trim_window_grows_greedily_through_non_monotone_nan_distances() {
        // Sorted column around m = 1: -qNaN 0xffc00001 (distance bits
        // 0x7fc00001), -sNaN 0xff800009 (0x7fc00009), 1, 2 (0x3f800000),
        // +qNaN 0x7fc00005 (0x7fc00005). β = 3: the greedy expansion takes
        // 2, then compares 0x7fc00009 with 0x7fc00005 and takes +qNaN.
        // Ranking all distances at once would take the farther -qNaN
        // instead. One NaN enters the sum, so its payload is exact.
        let column = [
            0x7fc0_0005u32,
            0x3f80_0000,
            0xffc0_0001,
            0x4000_0000,
            0xff80_0009,
        ];
        let inputs: Vec<Tensor> = column
            .iter()
            .chain(&[0, 0])
            .map(|&b| Tensor::from_slice(&[f32::from_bits(b)]))
            .collect();
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.trimmed_average(&views, &[0, 1, 2, 3, 4], &Engine::sequential());
        assert_eq!(out.data()[0].to_bits(), 0x7fc0_0005);
    }

    #[test]
    fn a_nan_entering_the_window_replaces_the_sum_with_its_quieted_bits() {
        // Sorted column around m = 1: -qNaN 0xffc00010, -sNaN 0xff800003
        // (distance bits 0x7fc00003), 1, +qNaN 0x7fc00001 (0x7fc00001),
        // +qNaN 0x7fc00020. β = 3: the walk takes +qNaN 0x7fc00001, then
        // compares 0x7fc00003 with 0x7fc00020 and takes the -sNaN. Two NaNs
        // enter the sum; the output is the last one, quieted, whatever
        // operand order the add compiles to.
        let column = [
            0x7fc0_0020u32,
            0xff80_0003,
            0x3f80_0000,
            0xffc0_0010,
            0x7fc0_0001,
        ];
        let inputs: Vec<Tensor> = column
            .iter()
            .chain(&[0, 0])
            .map(|&b| Tensor::from_slice(&[f32::from_bits(b)]))
            .collect();
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let b = Bulyan::new(7, 1).unwrap();
        let out = b.trimmed_average(&views, &[0, 1, 2, 3, 4], &Engine::sequential());
        assert_eq!(out.data()[0].to_bits(), 0xffc0_0003);
    }

    #[test]
    fn validation_errors() {
        let b = Bulyan::new(7, 1).unwrap();
        assert!(b.aggregate(&[]).is_err());
        assert!(matches!(
            b.aggregate(&honest_cluster(6, 4, 5)),
            Err(AggregationError::WrongInputCount {
                expected: 7,
                got: 6
            })
        ));
    }
}
