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
//!   threads), and read by every distance-based decision. Krum, Multi-Krum
//!   and Bulyan score from one table of per-candidate neighbour distances,
//!   sorted once in total order: a Krum score is a prefix sum of it, and
//!   Bulyan's repeated-Krum loop deletes each winner's distance from the
//!   survivors' lists instead of re-sorting. The cache stores every NaN as
//!   one canonical NaN, so no path branches on NaN. The same fill also
//!   takes every input's squared norm (`n` diagonal items beside the pairs,
//!   on the same blocks), so the forensic magnitude channel costs no second
//!   pass.
//! * **Per-thread selection buffers** — the sorted table, the scores and
//!   the selected indices live in one set of buffers per thread, which
//!   `select_cached` and the [`Gar`](crate::Gar) path share: a warm
//!   selection allocates nothing, and there is no scratch to pass around.
//! * **Row-wise averaging** — averages sum each input's contiguous
//!   [`KERNEL_LANES`]-coordinate segment into a register-resident lane
//!   array, a loop that vectorises, instead of gathering one float per
//!   input per coordinate.
//! * **Deterministic parallelism** — every parallel fill computes element `k`
//!   with exactly the scalar code the sequential path runs, each element on
//!   one thread, so parallel and sequential engines are **bit-identical** by
//!   construction (enforced by the engine-equivalence proptests and the
//!   `expfig perf` harness).

use crossbeam::thread as cb_thread;
use garfield_tensor::{
    accumulate_dot, accumulate_squared_l2, reduce_kernel_lanes, total_cmp_f32 as cmp_f32,
    GradientView, KERNEL_LANES,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::OnceLock;
use std::thread::LocalKey;

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
/// slice of pairs, blocked over cache-sized `d`-ranges; a diagonal item
/// `(i, i)` gets the squared norm `‖inputs[i]‖²` instead.
///
/// Per-pair lane accumulators persist across blocks and every block boundary
/// is [`KERNEL_LANES`]-aligned, so the result is bit-identical to calling
/// [`squared_l2_distance_slices`] on each whole pair (and
/// [`squared_norm_slices`] on each diagonal input) — the blocking only
/// changes memory traffic, never the accumulation order.
///
/// [`squared_l2_distance_slices`]: garfield_tensor::squared_l2_distance_slices
/// [`squared_norm_slices`]: garfield_tensor::squared_norm_slices
///
/// The accumulators are this thread's [`LANES`] slot: a warm fill on one
/// thread allocates nothing.
fn fill_pair_distances_exact(inputs: &[GradientView<'_>], pairs: &[(u32, u32)], out: &mut [f32]) {
    let d = inputs.first().map(|v| v.len()).unwrap_or(0);
    let block = distance_block_len(inputs.len());
    with_slot(&LANES, |acc| {
        acc.clear();
        acc.resize(pairs.len(), [0.0f32; KERNEL_LANES]);
        let mut start = 0;
        while start < d {
            let end = (start + block).min(d);
            for (&(i, j), lanes) in pairs.iter().zip(acc.iter_mut()) {
                let a = &inputs[i as usize].data()[start..end];
                if i == j {
                    accumulate_dot(a, a, lanes);
                } else {
                    accumulate_squared_l2(a, &inputs[j as usize].data()[start..end], lanes);
                }
            }
            start = end;
        }
        for (slot, &lanes) in out.iter_mut().zip(acc.iter()) {
            *slot = reduce_kernel_lanes(lanes);
        }
    });
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
/// sequential engine by construction. The `n` squared norms ride along as
/// diagonal items of the same fill, while every input block is cache-hot.
/// Every NaN distance and norm is stored as the canonical `f32::NAN`, so the
/// matrix is totally ordered by bits and selection needs no finiteness flag.
#[derive(Debug, Clone)]
pub struct DistanceCache {
    n: usize,
    dist: Vec<f32>,
    norms: Vec<f32>,
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
    /// Computes all pairwise squared distances of `inputs` under `engine`,
    /// and every input's squared norm in the same fill.
    pub fn build(inputs: &[GradientView<'_>], engine: &Engine) -> Self {
        let obs = fill_obs();
        let span = garfield_obs::span_start();
        let n = inputs.len();
        let d = inputs.first().map(|v| v.len()).unwrap_or(0);
        let mut dist = vec![0.0f32; n * n];
        let mut norms = vec![0.0f32; n];
        with_slot(&PAIRS, |pairs| {
            // Row by row, each row's diagonal (norm) item first, so norms
            // spread over the chunks like the pairs do. The list depends on
            // `n` alone, and its length names `n`: a warm slot is kept.
            if pairs.len() != n * (n + 1) / 2 {
                pairs.clear();
                pairs.extend((0..n as u32).flat_map(|i| (i..n as u32).map(move |j| (i, j))));
            }

            let mut vals = vec![0.0f32; pairs.len()];
            // Each pair costs ~2d scalar ops; the closure fills a contiguous
            // chunk of pairs with the blocked kernel.
            engine.fill_chunks(&mut vals, 2 * d, |base, chunk| {
                fill_pair_distances_exact(inputs, &pairs[base..base + chunk.len()], chunk);
            });

            for (&(i, j), &v) in pairs.iter().zip(vals.iter()) {
                let (i, j) = (i as usize, j as usize);
                // The sign and payload of a computed NaN follow codegen, and
                // selection ranks by total order, which reads both. Stored as
                // the one positive quiet NaN, a NaN distance sorts above +inf
                // on every engine and target, so its input always ranks worst.
                let v = if v.is_nan() { f32::NAN } else { v };
                if i == j {
                    norms[i] = v;
                } else {
                    dist[i * n + j] = v;
                    dist[j * n + i] = v;
                }
            }
        });

        if let Some(elapsed) = garfield_obs::span_end(span, &obs.fill_seconds) {
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                let pair_elems = (n * n.saturating_sub(1) / 2) as f64 * d as f64;
                obs.gelem_s.set(pair_elems / secs / 1.0e9);
            }
        }

        DistanceCache { n, dist, norms }
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

    /// Every input's squared L2 norm, from the same fill: bit-identical to
    /// [`squared_norm_slices`](garfield_tensor::squared_norm_slices) on
    /// finite inputs. A NaN norm is stored as the canonical `f32::NAN`.
    pub(crate) fn norms(&self) -> &[f32] {
        &self.norms
    }
}

/// Selection buffers for cache-based selection, one set per thread.
///
/// Krum, Multi-Krum and Bulyan score from one table: each candidate's
/// distances to the other inputs, sorted once in total order. A Krum score
/// is a prefix sum of that list, and nothing else computes one.
///
/// Every selection, through `select_cached` or the [`Gar`](crate::Gar)
/// path, runs on this thread's scratch ([`with_scratch`]). Each kernel
/// clears the buffers it reads before it writes them, so no state carries
/// between calls, and sorts in place with `sort_unstable`: once a thread's
/// buffers are warm, selection performs **zero heap allocations** —
/// asserted by the counting-allocator regression test, for `select_cached`
/// and for a whole `Gar` call.
#[derive(Debug, Default)]
pub(crate) struct SelectionScratch {
    /// The scores the last scoring pass produced, indexed by candidate.
    pub(crate) scores: Vec<f32>,
    /// The index order the last selection pass produced (best first); MDA's
    /// running subset.
    pub(crate) order: Vec<usize>,
    remaining: Vec<usize>,
    /// Flattened per-candidate sorted neighbour-distance lists (stride
    /// n−1); `neighbour_len[i]` of list `i` are live.
    neighbours: Vec<f32>,
    neighbour_len: Vec<usize>,
}

thread_local! {
    /// This thread's selection buffers.
    static SCRATCH: Cell<SelectionScratch> = Cell::default();
    /// This thread's selected-index list, for the `Gar` paths that go on to
    /// average or trim the selection.
    static SELECTED: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
    /// This thread's `(i, j)` item list for [`DistanceCache::build`].
    static PAIRS: Cell<Vec<(u32, u32)>> = const { Cell::new(Vec::new()) };
    /// This thread's per-item lane accumulators for a distance fill.
    static LANES: Cell<Vec<[f32; KERNEL_LANES]>> = const { Cell::new(Vec::new()) };
}

/// Lends `slot`'s value to `f` and puts it back. A nested call on the same
/// thread finds the slot empty and works on fresh buffers, so re-entry is
/// correct, only not allocation-free.
fn with_slot<T: Default, R>(slot: &'static LocalKey<Cell<T>>, f: impl FnOnce(&mut T) -> R) -> R {
    slot.with(|cell| {
        let mut value = cell.take();
        let out = f(&mut value);
        cell.set(value);
        out
    })
}

/// Runs `f` on this thread's [`SelectionScratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SelectionScratch) -> R) -> R {
    with_slot(&SCRATCH, f)
}

/// Runs `f` on this thread's selected-index list.
pub(crate) fn with_selected<R>(f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
    with_slot(&SELECTED, f)
}

impl SelectionScratch {
    /// Fills one list per candidate with its distances to every other input
    /// and sorts each list in total order. The cache stores every NaN as the
    /// one canonical NaN, so equal distances have equal bits and the lists
    /// are totally ordered, NaN caches included.
    fn sort_neighbours(&mut self, cache: &DistanceCache) {
        let n = cache.n();
        let stride = n.saturating_sub(1);
        self.neighbours.clear();
        self.neighbours.resize(n * stride, 0.0);
        self.neighbour_len.clear();
        self.neighbour_len.resize(n, stride);
        for i in 0..n {
            let list = &mut self.neighbours[i * stride..(i + 1) * stride];
            let others = (0..n).filter(|&j| j != i);
            for (slot, j) in list.iter_mut().zip(others) {
                *slot = cache.get(i, j);
            }
            list.sort_unstable_by(cmp_f32);
        }
    }

    /// Candidate `i`'s Krum score: the sum of the first `nb` live entries
    /// of its sorted list, i.e. of its squared distances to its `nb`
    /// closest live neighbours.
    fn score(&self, i: usize, nb: usize) -> f32 {
        let start = i * self.neighbour_len.len().saturating_sub(1);
        self.neighbours[start..start + self.neighbour_len[i]]
            .iter()
            .take(nb)
            .sum()
    }
}

/// Multi-Krum's selection over the shared cache: every candidate's Krum
/// score (its `n − f − 2` closest neighbours) into `scratch.scores`, and the
/// indices of the `m` smallest into `scratch.order` (ascending score, ties
/// broken by index). Krum is `m = 1`.
pub(crate) fn multi_krum_cached(
    cache: &DistanceCache,
    f: usize,
    m: usize,
    scratch: &mut SelectionScratch,
) {
    let n = cache.n();
    let nb = n.saturating_sub(f + 2).max(1);
    scratch.sort_neighbours(cache);
    scratch.scores.clear();
    for i in 0..n {
        scratch.scores.push(scratch.score(i, nb));
    }
    scratch.order.clear();
    scratch.order.extend(0..n);
    let scores = &scratch.scores;
    scratch
        .order
        .sort_unstable_by(|&a, &b| cmp_f32(&scores[a], &scores[b]).then(a.cmp(&b)));
    scratch.order.truncate(m);
}

/// Bulyan's selection phase over the shared cache: iterate Krum `k` times,
/// moving the winner out of the candidate pool each round.
///
/// The repeated-Krum inner loop is *incremental*: each candidate's
/// neighbour distances are sorted once, the selected candidate's distance
/// is deleted from every survivor's sorted list in `O(n)`, and each round's
/// score is a prefix sum — `O(n² log n)` once plus `O(n²)` per round, with
/// no dependence on the gradient dimension `d`. The lists are totally
/// ordered (see [`SelectionScratch::sort_neighbours`]), so this is exactly
/// what re-sorting the pool's distances every round computes, NaN caches
/// included.
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
    scratch.sort_neighbours(cache);
    let stride = n.saturating_sub(1);
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

        // The argmin in total order; `min_by` keeps the first of equal
        // scores, so the first index wins ties.
        let (best_pos, _) = scratch
            .remaining
            .iter()
            .map(|&i| scratch.score(i, nb))
            .enumerate()
            .min_by(|a, b| cmp_f32(&a.1, &b.1))
            .expect("the pool holds at least two candidates");
        let winner = scratch.remaining.remove(best_pos);
        selected.push(winner);

        // Delete the winner's distance from every survivor's sorted list:
        // binary search to its first occurrence, shift left. Duplicate
        // distances are interchangeable (equal bits), so removing the first
        // occurrence preserves every prefix sum.
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

/// Averages the views at `indices` into `out` (sum accumulated from 0.0 in
/// `indices` order per coordinate, then scaled — the accumulation order of
/// the original tensor loop, chunked across threads by coordinate range).
///
/// Row-wise: each [`KERNEL_LANES`]-coordinate block keeps its sums in a lane
/// array and adds one contiguous segment of every input in `indices` order,
/// so the loads are sequential and the adds vectorise. Every coordinate
/// still sees `0.0 + x_{i0} + x_{i1} + …` then `× inv`, with the running
/// sum as the left operand, so the result is bit-identical to the scalar
/// loop the chunk's ragged tail keeps — NaN payloads included. (Adding each
/// input into the output slice in memory instead lets codegen commute the
/// operands and keep the other NaN of a two-NaN coordinate.)
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
        let tail_base = base + chunk.len() / KERNEL_LANES * KERNEL_LANES;
        let mut blocks = chunk.chunks_exact_mut(KERNEL_LANES);
        for (b, block) in blocks.by_ref().enumerate() {
            let start = base + b * KERNEL_LANES;
            let mut sums = [0.0f32; KERNEL_LANES];
            for &i in indices {
                let x: &[f32; KERNEL_LANES] = inputs[i].data()[start..start + KERNEL_LANES]
                    .try_into()
                    .expect("block length");
                for l in 0..KERNEL_LANES {
                    sums[l] += x[l];
                }
            }
            for (slot, sum) in block.iter_mut().zip(sums) {
                *slot = sum * inv;
            }
        }
        for (k, slot) in blocks.into_remainder().iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for &i in indices {
                sum += inputs[i].data()[tail_base + k];
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
        // 45 items (36 pairs + 9 norms) × 2d = 2.9 M operations: past the
        // fan-out floor, so the 4-thread engine really splits the fill
        // across 4 threads.
        let d = 1 << 15;
        assert_eq!(Engine::with_threads(4).threads_for(45, 2 * d), 4);
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
    fn cache_norms_are_bit_identical_to_the_norm_kernel() {
        // Same shape as the blocked-fill test: several cache blocks plus a
        // ragged tail, and enough work that the 4-thread engine splits the
        // 21 items (15 pairs + 6 norms) across threads.
        let d = distance_block_len(6) * 3 + 13;
        assert!(Engine::with_threads(4).threads_for(21, 2 * d) > 1);
        let data: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                (0..d)
                    .map(|c| ((i * 131 + c) as f32 * 0.01).sin())
                    .collect()
            })
            .collect();
        let v = views(&data);
        for engine in [Engine::sequential(), Engine::with_threads(4)] {
            let cache = DistanceCache::build(&v, &engine);
            assert_eq!(cache.norms().len(), 6);
            for (i, input) in data.iter().enumerate() {
                assert_eq!(
                    cache.norms()[i].to_bits(),
                    squared_norm_slices(input).to_bits(),
                    "input {i} on {engine:?}"
                );
            }
        }
    }

    #[test]
    fn an_overflowing_norm_leaves_finite_distances_finite() {
        // Equal huge inputs: every norm overflows to +inf, every distance is
        // 0. An overflowing norm must not leak into the distances selection
        // reads.
        let data = vec![vec![1.0e20f32; 4]; 3];
        let cache = DistanceCache::build(&views(&data), &Engine::sequential());
        for i in 0..3 {
            for j in 0..3 {
                assert!(cache.get(i, j).is_finite(), "({i},{j})");
            }
        }
        assert!(cache.norms().iter().all(|v| *v == f32::INFINITY));
    }

    #[test]
    fn row_wise_average_is_bit_identical_to_a_per_coordinate_sum() {
        // A subset in non-ascending order, a ragged tail, and a shape at
        // which the 4-thread engine splits the coordinates.
        let (n, d) = (7, (1 << 17) + 13);
        assert!(Engine::with_threads(4).threads_for(d, 5) > 1);
        let data: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..d).map(|c| ((i * 37 + c) as f32 * 0.3).cos()).collect())
            .collect();
        let v = views(&data);
        let indices = [4, 0, 6, 2, 3];
        let inv = 1.0 / indices.len() as f32;
        let reference: Vec<u32> = (0..d)
            .map(|c| {
                let mut sum = 0.0f32;
                for &i in &indices {
                    sum += data[i][c];
                }
                (sum * inv).to_bits()
            })
            .collect();
        for engine in [Engine::sequential(), Engine::with_threads(4)] {
            let mut out = Vec::new();
            average_indices_into(&v, &indices, &engine, &mut out);
            let bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            assert!(bits == reference, "{engine:?}");
        }
    }

    /// `n` inputs of dimension `d` from a seeded xorshift stream: mostly
    /// finite values, and about 15 % specials — quiet and signalling NaNs
    /// of both signs with varied payloads, `±inf`, `±0` and `1e30` (whose
    /// squared distances overflow).
    fn special_payloads(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let r = next();
                        let sign = ((r >> 40) as u32 & 1) << 31;
                        let payload = ((r >> 8) as u32 & 0x3f_ffff).max(1);
                        match r % 100 {
                            0..=3 => f32::from_bits(sign | 0x7fc0_0000 | payload),
                            4..=6 => f32::from_bits(sign | 0x7f80_0000 | payload),
                            7..=9 => f32::from_bits(sign | 0x7f80_0000),
                            10..=12 => f32::from_bits(sign),
                            13 | 14 => f32::from_bits(sign | 1.0e30f32.to_bits()),
                            _ => ((r >> 16) % 10_000) as f32 / 250.0 - 20.0,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Bulyan's selection the slow way: every round, re-sort each pool
    /// member's distances to the rest of the pool and take the total-order
    /// argmin of the prefix sums, the first index winning ties.
    fn rescored_bulyan_selection(cache: &DistanceCache, f: usize, k: usize) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..cache.n()).collect();
        let mut selected = Vec::new();
        for _ in 0..k {
            if remaining.len() <= 1 {
                selected.append(&mut remaining);
                break;
            }
            let m = remaining.len();
            let f_eff = f.min(m.saturating_sub(3));
            let nb = m.saturating_sub(f_eff + 2).max(1);
            let mut best: Option<(usize, f32)> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let mut row: Vec<f32> = remaining
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| cache.get(i, j))
                    .collect();
                row.sort_unstable_by(cmp_f32);
                let s: f32 = row.iter().take(nb).sum();
                if best.is_none_or(|(_, b)| cmp_f32(&s, &b) == Ordering::Less) {
                    best = Some((pos, s));
                }
            }
            selected.push(remaining.remove(best.expect("non-empty pool").0));
        }
        selected
    }

    /// Multi-Krum's scores and full order the slow way: each cache row
    /// sorted on its own, ranked by a stable sort on the score alone.
    fn row_sorted_multi_krum(cache: &DistanceCache, f: usize) -> (Vec<u32>, Vec<usize>) {
        let n = cache.n();
        let nb = n.saturating_sub(f + 2).max(1);
        let scores: Vec<f32> = (0..n)
            .map(|i| {
                let mut row: Vec<f32> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| cache.get(i, j))
                    .collect();
                row.sort_unstable_by(cmp_f32);
                row.iter().take(nb).sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| cmp_f32(&scores[a], &scores[b]));
        (scores.iter().map(|s| s.to_bits()).collect(), order)
    }

    #[test]
    fn incremental_bulyan_selection_matches_per_round_rescoring() {
        // One finite data set, then seeded ones laced with NaNs and ±inf, at
        // several (n, f) with n ≥ 4f + 3. The incremental path sorts each
        // list once and deletes winners; the reference re-sorts every round.
        let mut sets = vec![(
            1usize,
            (0..9)
                .map(|i| (0..12).map(|c| ((i * 7 + c) as f32).cos()).collect())
                .collect::<Vec<Vec<f32>>>(),
        )];
        for seed in 0..600u64 {
            let n = 7 + (seed % 12) as usize;
            let f = (1 + (seed / 12 % 3) as usize).min((n - 3) / 4);
            let d = 1 + (seed / 36 % 9) as usize;
            sets.push((f, special_payloads(n, d, seed)));
        }
        let mut scratch = SelectionScratch::default();
        let mut selected = Vec::new();
        let mut with_nan = 0;
        for (f, data) in &sets {
            let (f, n) = (*f, data.len());
            let cache = DistanceCache::build(&views(data), &Engine::sequential());
            with_nan += (0..n).any(|i| (0..n).any(|j| cache.get(i, j).is_nan())) as usize;
            for k in [n - 2 * f, n] {
                bulyan_select_cached(&cache, f, k, &mut scratch, &mut selected);
                let slow = rescored_bulyan_selection(&cache, f, k);
                assert_eq!(selected, slow, "n {n} f {f} k {k}: {data:?}");
            }
            multi_krum_cached(&cache, f, n, &mut scratch);
            let scores: Vec<u32> = scratch.scores.iter().map(|s| s.to_bits()).collect();
            let (ref_scores, ref_order) = row_sorted_multi_krum(&cache, f);
            assert_eq!(scores, ref_scores, "n {n} f {f}: {data:?}");
            assert_eq!(scratch.order, ref_order, "n {n} f {f}: {data:?}");
        }
        assert!(
            with_nan >= 300,
            "only {with_nan} caches hold a NaN distance"
        );
    }

    #[test]
    fn average_views_matches_tensor_averaging() {
        let data = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let out = average_views(&views(&data), &Engine::sequential());
        assert_eq!(out, vec![3.0, 4.0]);
        let par = average_views(&views(&data), &Engine::with_threads(3));
        assert_eq!(out, par);
    }
}
