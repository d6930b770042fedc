//! The parallel, zero-copy aggregation engine.
//!
//! Garfield's evaluation shows the GAR is the dominant server-side cost:
//! Multi-Krum and Bulyan are `O(n² d)` in pairwise distances, and the old
//! implementations re-derived those distances from freshly cloned [`Tensor`](garfield_tensor::Tensor)s
//! on every call (Bulyan even re-ran Krum from scratch per selection round).
//! This module removes both costs:
//!
//! * **Zero-copy inputs** — GARs consume [`GradientView`]s, borrowed `&[f32]`
//!   slices over wire payloads or tensor storage. Only the final output is
//!   copied.
//! * **One shared [`DistanceCache`]** — the n×n squared-distance matrix is
//!   computed once, chunked across OS threads (vendored crossbeam scoped
//!   threads), and reused across Krum scoring and the whole Bulyan selection
//!   loop, whose repeated-Krum inner loop becomes incremental score updates
//!   on pre-sorted neighbour lists.
//! * **Deterministic parallelism** — every parallel fill computes element `k`
//!   with exactly the scalar code the sequential path runs, each element on
//!   one thread, so parallel and sequential engines are **bit-identical** by
//!   construction (enforced by the engine-equivalence proptests and the
//!   `expfig perf` harness).

use crossbeam::thread as cb_thread;
use garfield_tensor::{
    accumulate_squared_l2, reduce_kernel_lanes, total_cmp_f32 as cmp_f32, GradientView,
    KERNEL_LANES,
};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Minimum scalar operations every *spawned* thread must carry before a
/// parallel engine fans out. A thread spawn + scope join costs tens of
/// microseconds; `2^18` multiply-adds is on the order of 100 µs of work, so a
/// chunk below this floor would spend more time being scheduled than
/// computing. The old heuristic compared `items × work` against a flat
/// `2^15` *total* and then split across every core — at d = 10⁴ that spawned
/// threads carrying ~20 µs of work each, which is exactly why the parallel
/// engine measured *slower* than sequential (median 0.65×, multi-krum 0.82×)
/// at small d. Fan-out is now derived from work-per-thread, so `Engine::auto`
/// degrades to the sequential path instead of losing to it.
const PAR_WORK_PER_THREAD: usize = 1 << 18;

/// Execution policy of the aggregation engine: how many OS threads to chunk
/// data-parallel fills across.
///
/// `Engine::sequential()` is the retained single-threaded reference path;
/// `Engine::auto()` matches the machine's parallelism. Both produce
/// bit-identical outputs — parallelism changes *where* each element is
/// computed, never *how*. The thread count is clamped to at least 1 in
/// exactly one place ([`Engine::with_threads`], which every constructor
/// funnels through); the rest of the engine trusts the `threads ≥ 1`
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// The single-threaded reference engine.
    pub fn sequential() -> Self {
        Engine::with_threads(1)
    }

    /// An engine sized to the machine (`std::thread::available_parallelism`).
    pub fn auto() -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let threads = *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        Engine::with_threads(threads)
    }

    /// An engine with an explicit thread count.
    ///
    /// This is the single clamping point of the engine: a requested count of
    /// 0 is clamped to 1 here, and nowhere else re-clamps.
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
    }

    /// Number of threads fills are chunked across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this engine ever spawns worker threads.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Fan-out for a fill of `items` elements costing `work_per_item` scalar
    /// operations each: as many threads as the machine allows, capped so
    /// every thread's chunk carries at least [`PAR_WORK_PER_THREAD`]
    /// operations (otherwise the spawn dominates and one thread is faster).
    fn threads_for(&self, items: usize, work_per_item: usize) -> usize {
        let total = items.saturating_mul(work_per_item.max(1));
        let affordable = self.threads.min(items).min(total / PAR_WORK_PER_THREAD);
        if affordable < 2 {
            1
        } else {
            affordable
        }
    }

    /// Fills `out` in contiguous chunks: `fill(base, chunk)` must write
    /// `chunk[k]` as a pure function of the absolute index `base + k`.
    ///
    /// The chunk closure runs once per chunk (so it may allocate per-chunk
    /// scratch); with one thread — or when `items × work_per_item` is too
    /// small to amortise a spawn — everything runs on the calling thread.
    pub(crate) fn fill_chunks<T, F>(&self, out: &mut [T], work_per_item: usize, fill: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if out.is_empty() {
            return;
        }
        let threads = self.threads_for(out.len(), work_per_item);
        if threads <= 1 {
            fill(0, out);
            return;
        }
        let chunk = out.len().div_ceil(threads);
        cb_thread::scope(|s| {
            // The calling thread takes the last chunk itself instead of
            // idling in the scope join: exactly `threads` runnable threads,
            // one fewer spawn per fill.
            let mut chunks: Vec<(usize, &mut [T])> = out.chunks_mut(chunk).enumerate().collect();
            let local = chunks.pop();
            for (c, slice) in chunks {
                let fill = &fill;
                s.spawn(move || fill(c * chunk, slice));
            }
            if let Some((c, slice)) = local {
                fill(c * chunk, slice);
            }
        });
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::auto()
    }
}

/// Bytes of gradient data a blocked distance fill tries to keep resident
/// per block sweep (all `n` inputs' current `d`-block together). 256 KiB
/// sits inside a typical per-core L2, so every input block is read from
/// memory once and then hit `n − 1` times from cache instead of being
/// re-streamed from DRAM for every pair — the unblocked fill moves
/// `n(n−1)·d` floats of traffic, the blocked one `n·d` per thread.
const DISTANCE_BLOCK_BUDGET_BYTES: usize = 1 << 18;

/// Coordinates per tile in the coordinate-wise kernels (Median, Bulyan
/// phase 2; see `column_sort`). Each input's tile segment is copied
/// sequentially into one row of an L2-resident `n × COLUMN_TILE` key tile,
/// and the sorting network then runs over whole rows, 256 lanes at a time.
/// 256 coordinates keeps the tile at `n · 1 KiB` (51 inputs → 51 KiB), well
/// inside L2.
pub(crate) const COLUMN_TILE: usize = 256;

/// Block length (in elements) for a blocked pairwise fill over `n` inputs:
/// a multiple of [`KERNEL_LANES`] (required for bit-identical blocking),
/// sized so all `n` input blocks fit the cache budget together.
fn distance_block_len(n: usize) -> usize {
    let per_input = DISTANCE_BLOCK_BUDGET_BYTES / (4 * n.max(1));
    (per_input / KERNEL_LANES * KERNEL_LANES).clamp(KERNEL_LANES, 8192)
}

/// Fills `out[p] = ‖inputs[i_p] − inputs[j_p]‖²` (exact chunked kernel) for a
/// slice of pairs, blocked over cache-sized `d`-ranges.
///
/// Per-pair lane accumulators persist across blocks and every block boundary
/// is [`KERNEL_LANES`]-aligned, so the result is bit-identical to calling
/// [`squared_l2_distance_slices`] on each whole pair — the blocking only
/// changes memory traffic, never the accumulation order.
fn fill_pair_distances_exact(inputs: &[GradientView<'_>], pairs: &[(u32, u32)], out: &mut [f32]) {
    let d = inputs.first().map(|v| v.len()).unwrap_or(0);
    let block = distance_block_len(inputs.len());
    let mut acc = vec![[0.0f32; KERNEL_LANES]; pairs.len()];
    let mut start = 0;
    while start < d {
        let end = (start + block).min(d);
        for (&(i, j), lanes) in pairs.iter().zip(acc.iter_mut()) {
            accumulate_squared_l2(
                &inputs[i as usize].data()[start..end],
                &inputs[j as usize].data()[start..end],
                lanes,
            );
        }
        start = end;
    }
    for (slot, lanes) in out.iter_mut().zip(acc) {
        *slot = reduce_kernel_lanes(lanes);
    }
}

/// The n×n squared-distance matrix of a set of gradient views, computed once
/// and shared across every distance-based GAR decision.
///
/// Building the cache is the `O(n² d)` hot spot of Krum, Multi-Krum, MDA and
/// Bulyan; the engine chunks the `n(n-1)/2` unique pairs across threads, and
/// each thread fills its pairs *blocked* over cache-sized `d`-ranges with
/// the chunked multi-lane kernel, so every input block is read from memory
/// once per thread instead of once per pair. Each pair is computed entirely
/// on one thread with a fixed accumulation order — bit-identical to the
/// sequential engine by construction.
#[derive(Debug, Clone)]
pub struct DistanceCache {
    n: usize,
    dist: Vec<f32>,
    finite: bool,
}

/// Cached `garfield-obs` handles for the fill instrumentation: one registry
/// lookup per process, relaxed-atomic bumps per fill, a load and a branch
/// when observability is disabled.
struct FillObs {
    fill_seconds: garfield_obs::Histogram,
    gelem_s: garfield_obs::Gauge,
}

fn fill_obs() -> &'static FillObs {
    static OBS: std::sync::OnceLock<FillObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| FillObs {
        fill_seconds: garfield_obs::metrics::histogram(
            "garfield_distance_fill_seconds",
            "Wall time of one DistanceCache pairwise fill.",
            &[],
        ),
        gelem_s: garfield_obs::metrics::gauge(
            "garfield_kernel_gelem_s",
            "Distance-kernel throughput of the most recent fill, in Gelem/s \
             (pair elements per second / 1e9).",
            &[],
        ),
    })
}

impl DistanceCache {
    /// Computes all pairwise squared distances of `inputs` under `engine`.
    pub fn build(inputs: &[GradientView<'_>], engine: &Engine) -> Self {
        let obs = fill_obs();
        let span = garfield_obs::span_start();
        let n = inputs.len();
        let d = inputs.first().map(|v| v.len()).unwrap_or(0);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i as u32, j as u32));
            }
        }

        let mut vals = vec![0.0f32; pairs.len()];
        // Each pair costs ~2d scalar ops; the closure fills a contiguous
        // chunk of pairs with the blocked kernel.
        engine.fill_chunks(&mut vals, 2 * d, |base, chunk| {
            fill_pair_distances_exact(inputs, &pairs[base..base + chunk.len()], chunk);
        });

        let mut dist = vec![0.0f32; n * n];
        for (&(i, j), &v) in pairs.iter().zip(vals.iter()) {
            dist[i as usize * n + j as usize] = v;
            dist[j as usize * n + i as usize] = v;
        }
        let finite = vals.iter().all(|v| v.is_finite());

        if let Some(elapsed) = garfield_obs::span_end(span, &obs.fill_seconds) {
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                let pair_elems = pairs.len() as f64 * d as f64;
                obs.gelem_s.set(pair_elems / secs / 1.0e9);
            }
        }

        DistanceCache { n, dist, finite }
    }

    /// Number of cached inputs.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The cached squared distance between inputs `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.dist[i * self.n + j]
    }

    /// Whether every cached distance is finite (NaN inputs poison distances;
    /// the incremental Bulyan path requires a totally ordered matrix and
    /// falls back to per-round rescoring otherwise).
    pub fn is_finite(&self) -> bool {
        self.finite
    }
}

/// Reusable scratch buffers for cache-based selection.
///
/// All selection entry points write into these pre-sized buffers and sort
/// in place with `sort_unstable`, so steady-state selection (after the first
/// warm-up call) performs **zero heap allocations** — asserted by the
/// counting-allocator regression test.
#[derive(Debug, Default)]
pub struct SelectionScratch {
    row: Vec<f32>,
    scores: Vec<f32>,
    order: Vec<usize>,
    remaining: Vec<usize>,
    /// Flattened per-candidate sorted neighbour-distance lists (stride n−1),
    /// used by the incremental Bulyan selection loop.
    neighbours: Vec<f32>,
    neighbour_len: Vec<usize>,
}

impl SelectionScratch {
    /// Creates empty scratch; buffers grow to fit on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        SelectionScratch::default()
    }

    /// The scores the last scoring pass produced, indexed by candidate.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// The index order the last selection pass produced (best first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// Computes every candidate's Krum score — the sum of its squared distances
/// to its `n − f − 2` closest neighbours — from the cache into
/// `scratch.scores`.
pub(crate) fn krum_scores_cached(cache: &DistanceCache, f: usize, scratch: &mut SelectionScratch) {
    let n = cache.n();
    let neighbours = n.saturating_sub(f + 2).max(1);
    scratch.scores.clear();
    scratch.scores.reserve(n);
    for i in 0..n {
        scratch.row.clear();
        scratch.row.reserve(n.saturating_sub(1));
        for j in 0..n {
            if j != i {
                scratch.row.push(cache.get(i, j));
            }
        }
        scratch.row.sort_unstable_by(cmp_f32);
        scratch
            .scores
            .push(scratch.row.iter().take(neighbours).sum());
    }
}

/// Writes the indices of the `m` smallest scores into `scratch.order`
/// (ascending score, ties broken by index — the stable-sort order the
/// original implementation produced).
pub(crate) fn smallest_scores_cached(m: usize, scratch: &mut SelectionScratch) {
    scratch.order.clear();
    scratch.order.extend(0..scratch.scores.len());
    let scores = &scratch.scores;
    scratch
        .order
        .sort_unstable_by(|&a, &b| cmp_f32(&scores[a], &scores[b]).then(a.cmp(&b)));
    scratch.order.truncate(m);
}

/// Cache-based Krum selection: the single smallest-scoring index.
pub(crate) fn krum_best_cached(
    cache: &DistanceCache,
    f: usize,
    scratch: &mut SelectionScratch,
) -> usize {
    krum_scores_cached(cache, f, scratch);
    smallest_scores_cached(1, scratch);
    scratch.order[0]
}

/// The selected indices (ascending score order) of Multi-Krum, left in
/// `scratch.order`.
pub(crate) fn multi_krum_cached(
    cache: &DistanceCache,
    f: usize,
    m: usize,
    scratch: &mut SelectionScratch,
) {
    krum_scores_cached(cache, f, scratch);
    smallest_scores_cached(m, scratch);
}

/// Bulyan's selection phase over the shared cache: iterate Krum `k` times,
/// moving the winner out of the candidate pool each round.
///
/// On a finite cache the repeated-Krum inner loop is *incremental*: each
/// candidate's neighbour distances are sorted once, the selected candidate's
/// distance is deleted from every survivor's sorted list in `O(n)`, and each
/// round's score is a prefix sum — `O(n² log n)` once plus `O(n²)` per round,
/// with no dependence on the gradient dimension `d`. Non-finite distances
/// (NaN payloads) break total ordering, so those fall back to per-round
/// rescoring from the cache, which is what the old clone-the-pool code
/// computed — still without touching `d` again.
pub(crate) fn bulyan_select_cached(
    cache: &DistanceCache,
    f: usize,
    k: usize,
    scratch: &mut SelectionScratch,
    selected: &mut Vec<usize>,
) {
    let n = cache.n();
    selected.clear();
    scratch.remaining.clear();
    scratch.remaining.extend(0..n);
    let incremental = cache.is_finite();
    let stride = n.saturating_sub(1);
    if incremental {
        scratch.neighbours.clear();
        scratch.neighbours.resize(n * stride, 0.0);
        scratch.neighbour_len.clear();
        scratch.neighbour_len.resize(n, stride);
        for i in 0..n {
            let list = &mut scratch.neighbours[i * stride..(i + 1) * stride];
            let mut w = 0;
            for j in 0..n {
                if j != i {
                    list[w] = cache.get(i, j);
                    w += 1;
                }
            }
            list.sort_unstable_by(cmp_f32);
        }
    }
    for _ in 0..k {
        let m = scratch.remaining.len();
        if m <= 1 {
            selected.append(&mut scratch.remaining);
            break;
        }
        // Krum parameters over the current pool, matching the original
        // shrink-the-pool semantics: f is capped so the neighbour count
        // stays valid as the pool shrinks.
        let f_eff = f.min(m.saturating_sub(3));
        let nb = m.saturating_sub(f_eff + 2).max(1);

        // Score every remaining candidate.
        let mut best_pos = 0usize;
        let mut best_score = f32::INFINITY;
        let mut have_best = false;
        for (pos, &i) in scratch.remaining.iter().enumerate() {
            let score: f32 = if incremental {
                let len = scratch.neighbour_len[i];
                scratch.neighbours[i * stride..i * stride + len]
                    .iter()
                    .take(nb)
                    .sum()
            } else {
                scratch.row.clear();
                scratch.row.reserve(m.saturating_sub(1));
                for &j in &scratch.remaining {
                    if j != i {
                        scratch.row.push(cache.get(i, j));
                    }
                }
                scratch.row.sort_unstable_by(cmp_f32);
                scratch.row.iter().take(nb).sum()
            };
            // First index wins ties, exactly like the stable argmin of the
            // original smallest-scores path.
            if !have_best || cmp_f32(&score, &best_score) == Ordering::Less {
                best_pos = pos;
                best_score = score;
                have_best = true;
            }
        }
        let winner = scratch.remaining.remove(best_pos);
        selected.push(winner);

        if incremental {
            // Delete the winner's distance from every survivor's sorted
            // list: binary search to its first occurrence, shift left.
            // Duplicate distances are interchangeable (equal values), so
            // removing the first occurrence preserves every prefix sum.
            for &i in &scratch.remaining {
                let len = scratch.neighbour_len[i];
                let list = &mut scratch.neighbours[i * stride..i * stride + len];
                let v = cache.get(i, winner);
                let pos = list.partition_point(|x| cmp_f32(x, &v) == Ordering::Less);
                debug_assert!(pos < len && list[pos].to_bits() == v.to_bits());
                list.copy_within(pos + 1.., pos);
                scratch.neighbour_len[i] = len - 1;
            }
        }
    }
}

/// Averages the views at `indices` into `out` (sum accumulated from 0.0 in
/// `indices` order per coordinate, then scaled — the accumulation order of
/// the original tensor loop, chunked across threads by coordinate range).
pub(crate) fn average_indices_into(
    inputs: &[GradientView<'_>],
    indices: &[usize],
    engine: &Engine,
    out: &mut Vec<f32>,
) {
    let d = inputs.first().map(|v| v.len()).unwrap_or(0);
    out.clear();
    out.resize(d, 0.0);
    let inv = 1.0 / indices.len().max(1) as f32;
    engine.fill_chunks(out, indices.len(), |base, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            let c = base + k;
            let mut sum = 0.0f32;
            for &i in indices {
                sum += inputs[i].data()[c];
            }
            *slot = sum * inv;
        }
    });
}

/// Averages all views (the plain-averaging GAR and the variance probe's
/// empirical-mean step share this kernel).
pub fn average_views(inputs: &[GradientView<'_>], engine: &Engine) -> Vec<f32> {
    let indices: Vec<usize> = (0..inputs.len()).collect();
    let mut out = Vec::new();
    average_indices_into(inputs, &indices, engine, &mut out);
    out
}

/// Coordinates per tile of the fused average-plus-norms sweep: a multiple of
/// [`KERNEL_LANES`], sized so one input's tile segment (64 KiB) plus the
/// average accumulator tile stay cache-resident while all `n` inputs stream
/// through it once.
const NORM_TILE: usize = 1 << 14;

/// Everything the speculative fast path needs from one sweep over the
/// gradient data: the plain average, every input's squared L2 norm, and a
/// compact gather of a strided coordinate sample.
pub struct FusedSweep {
    /// The coordinate-wise average — bit-identical to [`average_views`].
    pub average: Vec<f32>,
    /// Per-input squared L2 norms (fixed-tile blocked evaluation, `f64`
    /// cross-tile totals) — engine-independent bit for bit.
    pub square_norms: Vec<f64>,
    /// The sampled coordinates `j = 0, stride, 2·stride, …`, gathered
    /// row-by-row: `samples[k * n + i]` is input `i` at the `k`-th sampled
    /// coordinate. Empty when the sweep was built with `sample_stride = 0`.
    pub samples: Vec<f32>,
}

impl FusedSweep {
    /// Number of sampled coordinates per input.
    pub fn sample_count(&self, n: usize) -> usize {
        self.samples.len().checked_div(n).unwrap_or(0)
    }
}

/// Fused single-pass kernel for the speculative fast path: the plain average
/// of all views, every input's squared L2 norm, and (when `sample_stride >
/// 0`) a strided coordinate sample, in one sweep over the gradient data.
///
/// At large `d` all three outputs are memory-bound, so computing them in
/// separate passes multiplies the DRAM traffic for no extra information —
/// and a strided sample gathered *after* the sweep pays a cold cache miss
/// per coordinate per input. This kernel walks fixed [`NORM_TILE`]-
/// coordinate tiles; per tile each input's segment is read once, folded
/// into the average accumulator, into a 16-lane norm partial
/// ([`garfield_tensor::accumulate_dot`]'s lane structure exactly), and its
/// sampled coordinates are copied out while the segment is cache-hot.
///
/// Determinism contracts, all independent of the engine's thread count:
///
/// * the average is **bit-identical** to [`average_views`]: each coordinate
///   is the `f32` sum over inputs in ascending index order, scaled once —
///   tiling changes which thread computes a coordinate, never how;
/// * the norms are the fixed-tile blocked evaluation (per-tile `f32` kernel
///   lanes, tiles summed in ascending order as `f64`) — the tile grid is a
///   constant, and every tile is computed whole by one thread, so a
///   consistency check built on these norms makes the same decision on
///   sequential and parallel engines;
/// * the samples are exact copies of the input values, so any check over
///   them is trivially engine-independent.
pub fn fused_average_sweep(
    inputs: &[GradientView<'_>],
    engine: &Engine,
    sample_stride: usize,
) -> FusedSweep {
    let n = inputs.len();
    let d = inputs.first().map(|v| v.len()).unwrap_or(0);
    let mut out = vec![0.0f32; d];
    let mut norms = vec![0.0f64; n];
    if d == 0 || n == 0 {
        return FusedSweep {
            average: out,
            square_norms: norms,
            samples: Vec::new(),
        };
    }
    let tiles = d.div_ceil(NORM_TILE);
    let mut partials = vec![0.0f64; tiles * n];
    let sample_count = if sample_stride == 0 {
        0
    } else {
        d.div_ceil(sample_stride)
    };
    let mut samples = vec![0.0f32; sample_count * n];
    {
        // Each tile owns a disjoint block of the sample buffer: the rows of
        // the sampled coordinates that fall inside it.
        let mut blocks: Vec<&mut [f32]> = Vec::with_capacity(tiles);
        let mut rest: &mut [f32] = &mut samples;
        for t in 0..tiles {
            let start = t * NORM_TILE;
            let end = (start + NORM_TILE).min(d);
            let rows = if sample_stride == 0 {
                0
            } else {
                end.div_ceil(sample_stride) - start.div_ceil(sample_stride)
            };
            let (block, tail) = rest.split_at_mut(rows * n);
            blocks.push(block);
            rest = tail;
        }
        // (tile index, average accumulator, norm partials row, sample block).
        type TileWork<'a> = (usize, &'a mut [f32], &'a mut [f64], &'a mut [f32]);
        let mut work: Vec<TileWork<'_>> = out
            .chunks_mut(NORM_TILE)
            .zip(partials.chunks_mut(n))
            .zip(blocks)
            .enumerate()
            .map(|(t, ((acc, row), block))| (t, acc, row, block))
            .collect();
        let inv = 1.0 / n as f32;
        engine.fill_chunks(&mut work, NORM_TILE * n * 3, |_, items| {
            for (t, acc, row, block) in items.iter_mut() {
                let start = *t * NORM_TILE;
                for (i, v) in inputs.iter().enumerate() {
                    let data = &v.data()[start..start + acc.len()];
                    let mut lanes = [0.0f32; KERNEL_LANES];
                    accumulate_sum_and_squares(acc, data, &mut lanes);
                    row[i] = f64::from(reduce_kernel_lanes(lanes));
                    if sample_stride > 0 {
                        // Gather this input's sampled coordinates while its
                        // segment is still cache-hot.
                        let mut j = start.div_ceil(sample_stride) * sample_stride;
                        let mut k = 0usize;
                        while j < start + acc.len() {
                            block[k * n + i] = data[j - start];
                            k += 1;
                            j += sample_stride;
                        }
                    }
                }
                for slot in acc.iter_mut() {
                    *slot *= inv;
                }
            }
        });
    }
    // Cross-tile reduction in fixed ascending tile order, in `f64`.
    for row in partials.chunks(n) {
        for (total, &partial) in norms.iter_mut().zip(row.iter()) {
            *total += partial;
        }
    }
    FusedSweep {
        average: out,
        square_norms: norms,
        samples,
    }
}

/// The fused sweep without the sample gather: the plain average of all views
/// and every input's squared L2 norm in one pass. See [`fused_average_sweep`]
/// for the determinism contracts.
pub fn average_and_square_norms(
    inputs: &[GradientView<'_>],
    engine: &Engine,
) -> (Vec<f32>, Vec<f64>) {
    let sweep = fused_average_sweep(inputs, engine, 0);
    (sweep.average, sweep.square_norms)
}

/// Folds one tile of one input into the average accumulator and a norm lane
/// array: `acc[k] += x[k]` and `lanes[k % KERNEL_LANES] += x[k]²` for
/// ascending `k` — the norm side is bit-identical to
/// [`garfield_tensor::accumulate_dot`]`(x, x, lanes)`, fused with the sum so
/// the tile is read once.
#[inline]
fn accumulate_sum_and_squares(acc: &mut [f32], data: &[f32], lanes: &mut [f32; KERNEL_LANES]) {
    let mut ca = acc.chunks_exact_mut(KERNEL_LANES);
    let mut cx = data.chunks_exact(KERNEL_LANES);
    for (a, x) in ca.by_ref().zip(cx.by_ref()) {
        let a: &mut [f32; KERNEL_LANES] = a.try_into().expect("chunks_exact length");
        let x: &[f32; KERNEL_LANES] = x.try_into().expect("chunks_exact length");
        for l in 0..KERNEL_LANES {
            a[l] += x[l];
            lanes[l] += x[l] * x[l];
        }
    }
    for (l, (a, &x)) in ca
        .into_remainder()
        .iter_mut()
        .zip(cx.remainder())
        .enumerate()
    {
        *a += x;
        lanes[l] += x * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::{squared_l2_distance_slices, squared_norm_slices, Tensor};

    fn views(data: &[Vec<f32>]) -> Vec<GradientView<'_>> {
        data.iter().map(GradientView::from).collect()
    }

    /// Element-wise fill over [`Engine::fill_chunks`]: `out[k] = f(k)`.
    fn fill<T: Send>(engine: &Engine, out: &mut [T], work: usize, f: impl Fn(usize) -> T + Sync) {
        engine.fill_chunks(out, work, |base, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = f(base + k);
            }
        });
    }

    #[test]
    fn engines_report_their_shape() {
        assert_eq!(Engine::sequential().threads(), 1);
        assert!(!Engine::sequential().is_parallel());
        assert_eq!(Engine::with_threads(0).threads(), 1);
        assert_eq!(Engine::with_threads(4).threads(), 4);
        assert!(Engine::auto().threads() >= 1);
        assert_eq!(Engine::default().threads(), Engine::auto().threads());
    }

    #[test]
    fn fan_out_requires_enough_work_per_thread() {
        let e = Engine::with_threads(8);
        // Median-shaped fill at d = 10⁴ (10 000 coordinates × n = 15 scalar
        // ops): far below a single thread's worth of work — stay sequential.
        assert_eq!(e.threads_for(10_000, 15), 1);
        // Distance fill at d = 10⁶ (105 pairs × 2·10⁶ ops): full fan-out.
        assert_eq!(e.threads_for(105, 2_000_000), 8);
        // Fan-out is capped by affordable work per thread, not just items.
        assert_eq!(e.threads_for(3 * PAR_WORK_PER_THREAD, 1), 3);
        assert_eq!(e.threads_for(PAR_WORK_PER_THREAD, 1), 1);
        // A sequential engine never fans out regardless of work.
        assert_eq!(Engine::sequential().threads_for(1 << 30, 1024), 1);
    }

    #[test]
    fn parallel_fill_matches_sequential_fill() {
        let mut seq = vec![0.0f32; 10_000];
        let mut par = vec![0.0f32; 10_000];
        fill(&Engine::sequential(), &mut seq, 64, |k| (k as f32).sin());
        fill(&Engine::with_threads(4), &mut par, 64, |k| (k as f32).sin());
        assert_eq!(seq, par);
    }

    #[test]
    fn small_work_stays_on_the_calling_thread() {
        // 8 items × 1 op is far below the spawn threshold; this must not
        // deadlock or misindex when the engine short-circuits.
        let mut out = vec![0usize; 8];
        fill(&Engine::with_threads(8), &mut out, 1, |k| k * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        fill(&Engine::with_threads(8), &mut [] as &mut [usize], 1, |k| k);
    }

    #[test]
    fn distance_cache_matches_direct_distances() {
        let data: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..16).map(|c| (i * 16 + c) as f32 * 0.25).collect())
            .collect();
        let v = views(&data);
        let cache = DistanceCache::build(&v, &Engine::sequential());
        assert_eq!(cache.n(), 5);
        assert!(cache.is_finite());
        for i in 0..5 {
            assert_eq!(cache.get(i, i), 0.0);
            for j in 0..5 {
                let a = Tensor::from_slice(&data[i]);
                let b = Tensor::from_slice(&data[j]);
                assert_eq!(
                    cache.get(i, j),
                    garfield_tensor::squared_l2_distance(&a, &b)
                );
                assert_eq!(cache.get(i, j), cache.get(j, i));
            }
        }
    }

    #[test]
    fn parallel_cache_is_bit_identical_to_sequential() {
        // 36 pairs × 2d = 2.4 M operations: past the fan-out floor, so the
        // 4-thread engine really splits the fill across 4 threads.
        let d = 1 << 15;
        assert_eq!(Engine::with_threads(4).threads_for(36, 2 * d), 4);
        let data: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..d).map(|c| ((i * 31 + c) as f32 * 0.1).sin()).collect())
            .collect();
        let v = views(&data);
        let seq = DistanceCache::build(&v, &Engine::sequential());
        let par = DistanceCache::build(&v, &Engine::with_threads(4));
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(seq.get(i, j).to_bits(), par.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn nan_payloads_mark_the_cache_non_finite() {
        let data = vec![vec![0.0f32, f32::NAN], vec![1.0, 2.0], vec![3.0, 4.0]];
        let cache = DistanceCache::build(&views(&data), &Engine::sequential());
        assert!(!cache.is_finite());
    }

    #[test]
    fn blocked_fill_is_bit_identical_to_whole_pair_kernel() {
        // d spans many cache blocks plus a ragged tail, so the fill crosses
        // several block boundaries per pair.
        let d = distance_block_len(6) * 3 + 13;
        let data: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                (0..d)
                    .map(|c| ((i * 131 + c) as f32 * 0.01).sin())
                    .collect()
            })
            .collect();
        let v = views(&data);
        let cache = DistanceCache::build(&v, &Engine::sequential());
        for i in 0..6 {
            for j in 0..6 {
                let direct = if i == j {
                    0.0
                } else {
                    squared_l2_distance_slices(&data[i], &data[j])
                };
                assert_eq!(cache.get(i, j).to_bits(), direct.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn incremental_bulyan_selection_matches_per_round_rescoring() {
        // Same cache, both paths: force the fallback by scoring through a
        // synthetic non-finite flag is impossible from outside, so instead
        // compare the incremental path against a hand-rolled per-round
        // re-sort over the same cache.
        let data: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..12).map(|c| ((i * 7 + c) as f32).cos()).collect())
            .collect();
        let v = views(&data);
        let cache = DistanceCache::build(&v, &Engine::sequential());
        let f = 1usize;
        let k = 7usize;
        let mut scratch = SelectionScratch::new();
        let mut fast = Vec::new();
        bulyan_select_cached(&cache, f, k, &mut scratch, &mut fast);

        // Reference: per-round recompute.
        let mut remaining: Vec<usize> = (0..9).collect();
        let mut slow = Vec::new();
        for _ in 0..k {
            if remaining.len() <= 1 {
                slow.append(&mut remaining);
                break;
            }
            let m = remaining.len();
            let f_eff = f.min(m.saturating_sub(3));
            let nb = m.saturating_sub(f_eff + 2).max(1);
            let mut best = (0usize, f32::INFINITY);
            for (pos, &i) in remaining.iter().enumerate() {
                let mut row: Vec<f32> = remaining
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| cache.get(i, j))
                    .collect();
                row.sort_unstable_by(cmp_f32);
                let s: f32 = row.iter().take(nb).sum();
                if s < best.1 {
                    best = (pos, s);
                }
            }
            slow.push(remaining.remove(best.0));
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn average_views_matches_tensor_averaging() {
        let data = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let out = average_views(&views(&data), &Engine::sequential());
        assert_eq!(out, vec![3.0, 4.0]);
        let par = average_views(&views(&data), &Engine::with_threads(3));
        assert_eq!(out, par);
    }

    #[test]
    fn fused_average_and_norms_is_bit_identical_and_engine_independent() {
        // Odd length exercises partial tiles and the kernel-lane remainder.
        let d = 3 * super::NORM_TILE + 777;
        let mut rng = garfield_tensor::TensorRng::seed_from(0xfa57);
        let data: Vec<Vec<f32>> = (0..5)
            .map(|_| rng.normal_tensor(d).data().to_vec())
            .collect();
        let v = views(&data);
        let (avg_seq, norms_seq) = average_and_square_norms(&v, &Engine::sequential());
        let (avg_par, norms_par) = average_and_square_norms(&v, &Engine::with_threads(4));
        // The average half must be bit-identical to the plain average kernel,
        // on both engines.
        let reference = average_views(&v, &Engine::sequential());
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&avg_seq), bits(&reference));
        assert_eq!(bits(&avg_par), bits(&reference));
        // The norms must be engine-independent bit for bit, and agree with
        // the whole-slice norm kernel up to tiling rounding.
        assert_eq!(
            norms_seq.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            norms_par.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
        );
        for (input, &norm) in data.iter().zip(&norms_seq) {
            let whole = f64::from(squared_norm_slices(input));
            assert!((norm - whole).abs() <= 1e-3 * whole.max(1.0));
        }
    }
}
