//! The column-sort kernel shared by the coordinate-wise rules (Median and
//! Bulyan's phase 2).
//!
//! A *tile* covers up to [`COLUMN_TILE`] consecutive coordinates and holds
//! one row of [`total_order_key_f32`] keys per input: row `i` is input `i`'s
//! tile segment, copied sequentially (one prefetch-friendly stream per input,
//! nothing scattered). Batcher's odd–even merge sort then runs over whole
//! rows: comparator `(a, b)` with `a < b` sets `row_a[t], row_b[t]` to the
//! min and max of the two for every lane `t`. That loop has no
//! data-dependent branch and autovectorises: eight `u32` lanes per
//! instruction on the workspace's x86-64-v3 (AVX2) build, four on a portable
//! x86-64 (SSE2) build. Afterwards row `r` holds the `r`-th smallest key of
//! every coordinate's column.
//!
//! The output is bit-identical to sorting each column on its own: equal
//! `u32` keys are equal bits, so a sorted key column is unique whichever
//! algorithm produced it, and the keying is a bijection of the workspace's
//! `total_cmp_f32` order (NaN placement included).

use crate::engine::COLUMN_TILE;
use crate::Engine;
use garfield_tensor::{total_order_key_f32, Tensor};

/// A tile of keys: `tile[r][t]` is row `r`'s key at lane `t`.
pub(crate) type Tile = [[u32; COLUMN_TILE]];

/// Batcher's odd–even merge sort on `n` wires, as `(a, b)` comparators with
/// `a < b` (the min goes to `a`). It depends on `n` alone, so each rule
/// builds it once, at construction, for the row count it sorts.
///
/// This is the power-of-two network with every comparator that touches a
/// wire `≥ n` dropped. That is valid for any `n`: a padding wire would hold
/// +∞, and a min-to-lower comparator never moves +∞ below wire `n`.
pub(crate) fn odd_even_merge_network(n: usize) -> Vec<(usize, usize)> {
    let mut network = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in j..j + k.min(n - j - k) {
                    if i / (2 * p) == (i + k) / (2 * p) {
                        network.push((i, i + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    network
}

/// Sorts every lane's column across the rows of `tile`.
fn sort_rows(tile: &mut Tile, network: &[(usize, usize)]) {
    for &(a, b) in network {
        let (low, high) = tile.split_at_mut(b);
        for (x, y) in low[a].iter_mut().zip(high[0].iter_mut()) {
            let (min, max) = ((*x).min(*y), (*x).max(*y));
            *x = min;
            *y = max;
        }
    }
}

/// One output per coordinate of `rows` (non-empty, equal lengths), chunked
/// across the engine's threads by coordinate range. `network` is
/// [`odd_even_merge_network`] of `rows.len()`.
///
/// For each tile of a chunk, `finish(tile, out)` receives the sorted tile
/// and the tile's `out.len() ≤ COLUMN_TILE` output slots: `tile[r][t]` is
/// the `r`-th smallest key of coordinate `t`. Lanes at and past `out.len()`
/// hold stale keys. When `finish` computes `out[t]` from lane `t` alone,
/// every output is a pure function of its column's multiset, so chunk and
/// tile boundaries (which differ across engines) cannot change the output
/// bits.
pub(crate) fn map_sorted_columns<F>(
    rows: &[&[f32]],
    network: &[(usize, usize)],
    engine: &Engine,
    finish: F,
) -> Tensor
where
    F: Fn(&Tile, &mut [f32]) + Sync,
{
    let n = rows.len();
    let mut out = vec![0.0f32; rows[0].len()];
    engine.fill_chunks(&mut out, n, |base, chunk| {
        let mut tile = vec![[0u32; COLUMN_TILE]; n];
        for (c, slots) in chunk.chunks_mut(COLUMN_TILE).enumerate() {
            let start = base + c * COLUMN_TILE;
            for (keys, row) in tile.iter_mut().zip(rows) {
                for (key, &v) in keys.iter_mut().zip(&row[start..start + slots.len()]) {
                    *key = total_order_key_f32(v);
                }
            }
            sort_rows(&mut tile, network);
            finish(&tile, slots);
        }
    });
    Tensor::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorts `columns` (each of length `n`) through the network, one column
    /// per lane.
    fn sort_through_network(n: usize, columns: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let network = odd_even_merge_network(n);
        let mut tile = vec![[0u32; COLUMN_TILE]; n];
        let mut sorted = Vec::new();
        for lanes in columns.chunks(COLUMN_TILE) {
            for (t, column) in lanes.iter().enumerate() {
                for (r, &key) in column.iter().enumerate() {
                    tile[r][t] = key;
                }
            }
            sort_rows(&mut tile, &network);
            sorted.extend((0..lanes.len()).map(|t| (0..n).map(|r| tile[r][t]).collect()));
        }
        sorted
    }

    #[test]
    fn network_sorts_every_zero_one_input_up_to_16_wires() {
        // The 0-1 principle: a comparator network that sorts all 2^n
        // vectors of zeros and ones sorts every input.
        for n in 1..=16 {
            let columns: Vec<Vec<u32>> = (0u32..1 << n)
                .map(|bits| (0..n).map(|r| (bits >> r) & 1).collect())
                .collect();
            for (column, sorted) in columns.iter().zip(sort_through_network(n, &columns)) {
                let mut want = column.clone();
                want.sort_unstable();
                assert_eq!(sorted, want, "n = {n}");
            }
        }
    }

    #[test]
    fn network_sorts_random_keys_up_to_64_wires() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
        };
        for n in 1..=64 {
            let columns: Vec<Vec<u32>> = (0..300)
                .map(|c| {
                    // Every third column draws from 4 values, for duplicates.
                    let modulus = if c % 3 == 0 { 4 } else { u32::MAX };
                    (0..n).map(|_| next() % modulus).collect()
                })
                .collect();
            for (column, sorted) in columns.iter().zip(sort_through_network(n, &columns)) {
                let mut want = column.clone();
                want.sort_unstable();
                assert_eq!(sorted, want, "n = {n}");
            }
        }
    }

    #[test]
    fn three_wires_take_three_comparators() {
        assert_eq!(odd_even_merge_network(1), vec![]);
        assert_eq!(odd_even_merge_network(2), vec![(0, 1)]);
        assert_eq!(odd_even_merge_network(3), vec![(0, 1), (0, 2), (1, 2)]);
    }
}
