//! Pins the coordinate-wise kernels — `Median` and Bulyan's phase-2 trimmed
//! mean — bit for bit to their plain per-column algorithm.
//!
//! The reference below takes each coordinate's column on its own: it maps
//! the values to `total_order_key_f32` keys, `sort_unstable`s them, and then
//! reads the median index (Median) or runs the greedy two-pointer expansion
//! around it (Bulyan: β − 1 steps, each taking the side whose next distance
//! `|v − m|` has the smaller bits, ties to the left, a side that has run out
//! never chosen, summed in expansion order and divided by β). A NaN value
//! replaces the sum with its quieted bits; any other value is added, so no
//! add ever has two NaN operands and the NaN an output carries is fixed by
//! the algorithm, not by codegen. Bulyan's reference runs on the rows its
//! own selection phase picked.
//!
//! Payloads mix ±0, ±inf, subnormals, small integers (duplicates and tied
//! distances) and NaNs of both signs, quiet and signalling, with distinct
//! payloads. Shapes cover n = 3..=51 with every valid f, and d on both sides
//! of the kernels' 256-coordinate tile, on the sequential and a 4-thread
//! engine. Results are compared bit for bit, NaN payloads included.

use garfield_aggregation::{Bulyan, DistanceCache, Engine, Gar, Median};
use garfield_tensor::{total_order_key_f32, total_order_unkey_f32, GradientView};
use proptest::prelude::*;

/// Special values drawn by [`value`]: ±0, ±inf, subnormals, and NaNs of
/// both signs, quiet and signalling.
const SPECIAL: [u32; 15] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x807f_ffff,
    0x7fc0_0000,
    0xffc0_0000,
    0x7fc0_0001,
    0x7f80_0001,
    0xff80_0001,
    0x7fa0_0000,
    0xffbf_ffff,
];

/// One seeded value: a special value or a random-payload NaN one time in
/// `one_in`, otherwise a small integer (a third of the time) or a finite
/// value of either sign.
fn value(r: u64, one_in: u64) -> f32 {
    let x = (r >> 16) as u32;
    if r.is_multiple_of(one_in) {
        if x.is_multiple_of(2) {
            f32::from_bits(SPECIAL[(x / 2) as usize % SPECIAL.len()])
        } else {
            f32::from_bits(x & 0x8000_0000 | 0x7f80_0000 | x & 0x7f_ffff)
        }
    } else if x.is_multiple_of(3) {
        (x / 3 % 9) as f32 - 4.0
    } else {
        (x % 200_001) as f32 / 1000.0 - 100.0
    }
}

fn payloads(n: usize, d: usize, seed: u64, one_in: u64) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..n)
        .map(|_| (0..d).map(|_| value(next(), one_in)).collect())
        .collect()
}

/// Column `c` of `rows`, sorted in the total order.
fn sorted_column(rows: &[&[f32]], c: usize) -> Vec<f32> {
    let mut keys: Vec<u32> = rows.iter().map(|r| total_order_key_f32(r[c])).collect();
    keys.sort_unstable();
    keys.into_iter().map(total_order_unkey_f32).collect()
}

fn reference_median(rows: &[&[f32]]) -> Vec<f32> {
    (0..rows[0].len())
        .map(|c| sorted_column(rows, c)[(rows.len() - 1) / 2])
        .collect()
}

fn reference_trimmed_mean(rows: &[&[f32]], beta: usize) -> Vec<f32> {
    (0..rows[0].len())
        .map(|c| {
            let col = sorted_column(rows, c);
            let mid = (col.len() - 1) / 2;
            let m = col[mid];
            let distance = |i: usize| (col[i] - m).abs().to_bits();
            let (mut lo, mut hi, mut sum) = (mid, mid, m);
            for _ in 1..beta {
                let left = if lo == 0 {
                    false
                } else if hi + 1 == col.len() {
                    true
                } else {
                    distance(lo - 1) <= distance(hi + 1)
                };
                let v = if left {
                    lo -= 1;
                    col[lo]
                } else {
                    hi += 1;
                    col[hi]
                };
                sum = if v.is_nan() {
                    f32::from_bits(v.to_bits() | 0x0040_0000)
                } else {
                    sum + v
                };
            }
            sum / beta as f32
        })
        .collect()
}

fn hex(v: f32) -> String {
    format!("{v} ({:#010x})", v.to_bits())
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (c, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: coordinate {c} is {}, want {}",
            hex(g),
            hex(w)
        );
    }
}

/// Median and (where `n ≥ 4f + 3`) Bulyan against the reference.
fn check(n: usize, f: usize, data: &[Vec<f32>], engine: &Engine, what: &str) {
    let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
    let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
    let what = format!(
        "{what}, n = {n}, f = {f}, d = {}, {engine:?}",
        data[0].len()
    );
    let median = Median::new(n, f).unwrap();
    let got = median.aggregate_views(&views, engine).unwrap();
    assert_bits(
        got.data(),
        &reference_median(&rows),
        &format!("median {what}"),
    );
    if let Ok(bulyan) = Bulyan::new(n, f) {
        let got = bulyan.aggregate_views(&views, engine).unwrap();
        let mut selected = Vec::new();
        bulyan.select_cached(&DistanceCache::build(&views, engine), &mut selected);
        let chosen: Vec<&[f32]> = selected.iter().map(|&i| rows[i]).collect();
        let want = reference_trimmed_mean(&chosen, bulyan.trimmed_size());
        assert_bits(got.data(), &want, &format!("bulyan {what}"));
    }
}

/// Both engines on one input set.
fn check_both(n: usize, f: usize, data: &[Vec<f32>], what: &str) {
    for engine in [Engine::sequential(), Engine::with_threads(4)] {
        check(n, f, data, &engine, what);
    }
}

/// Dimensions below, at and above the 256-coordinate tile and its double.
const DIMS: [usize; 11] = [1, 2, 7, 31, 255, 256, 257, 300, 511, 513, 600];

/// Every n with every f Bulyan accepts (Median's output does not depend on
/// f, which only bounds what its constructor accepts; the proptest below
/// covers Median's whole range). Shapes this small stay below the engine's
/// fan-out floor, so the two engines alternate instead of both running.
#[test]
fn every_n_and_f_matches_the_per_column_reference() {
    let mut case = 0usize;
    for n in 3..=51 {
        for f in 0..=(n - 3) / 4 {
            let d = DIMS[case % DIMS.len()];
            let one_in = [3, 16, 200][case % 3];
            let data = payloads(n, d, (n * 1_000 + f) as u64, one_in);
            let engine = if case.is_multiple_of(2) {
                Engine::sequential()
            } else {
                Engine::with_threads(4)
            };
            check(n, f, &data, &engine, &format!("special 1 in {one_in}"));
            case += 1;
        }
    }
}

#[test]
fn a_shape_that_fans_out_matches_the_per_column_reference() {
    // Large enough that the 4-thread engine splits Median's coordinates and
    // Bulyan's (over n − 2f selected rows), at chunk boundaries that are not
    // multiples of the tile.
    for (n, f, d) in [(15, 3, 60_003), (51, 12, 20_001)] {
        let data = payloads(n, d, 0xfa_0075 + n as u64, 16);
        check_both(n, f, &data, "fan-out");
    }
}

#[test]
fn columns_with_non_monotone_nan_distances_match_the_reference() {
    // Around a median of 1, the nearer -sNaN 0xff800001 has distance bits
    // 0x7fc00001 and the farther -qNaN 0xffc00000 has 0x7fc00000: along one
    // side the distances are not monotone. (A unit test in `bulyan.rs` pins
    // the greedy window on such a column directly.)
    let column = [
        0xffc0_0000u32,
        0xff80_0001,
        0x3f80_0000,
        0x4000_0000,
        0x7fc0_0002,
        0x3f80_0000,
        0x7f80_0001,
    ];
    for n in [5, 7] {
        let data: Vec<Vec<f32>> = column[..n]
            .iter()
            .map(|&b| vec![f32::from_bits(b), f32::from_bits(b ^ 0x8000_0000)])
            .collect();
        for f in 0..=(n - 3) / 4 {
            check_both(n, f, &data, "non-monotone NaN column");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_match_the_per_column_reference(
        n in 3usize..=51,
        f_pick in 0usize..64,
        d in 1usize..=600,
        seed in 0u64..u64::MAX,
        one_in in prop_oneof![Just(2u64), Just(5), Just(40), Just(1_000)],
    ) {
        let f = f_pick % ((n - 1) / 2 + 1);
        let data = payloads(n, d, seed, one_in);
        check_both(n, f, &data, &format!("seed {seed}, special 1 in {one_in}"));
        // The largest f Bulyan accepts at this n.
        check_both(n, (n - 3) / 4, &data, &format!("seed {seed}, largest Bulyan f"));
    }
}
