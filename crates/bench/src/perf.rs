//! The `expfig perf` harness: GAR engine throughput, recorded and enforced.
//!
//! Sweeps every GAR over gradient dimension `d` × input count `n`, timing the
//! **sequential** engine (the retained single-threaded reference path) and
//! the **parallel** engine (thread-chunked distance matrix and coordinate
//! fills) on identical inputs, asserting their outputs are bit-identical.
//! A separate `kernels` section times the distance kernels themselves
//! (retained scalar reference vs chunked multi-lane vs blocked cache fill) so
//! kernel-level regressions are visible even when a GAR's end-to-end cost is
//! dominated by something else.
//!
//! The sweep emits `BENCH_aggregation.json` (schema
//! `garfield-bench/aggregation-v2`) — the recorded perf trajectory CI uploads
//! as an artifact — and gates against `results/perf_baseline.json`, which
//! holds one recorded report *per thread count* (schema
//! `garfield-bench/aggregation-baselines-v2`): throughput is only comparable
//! between runs with the same parallelism, so `expfig perf --check` refuses
//! to compare against a baseline recorded at a different thread count (the
//! old gate silently compared every machine against a 1-core recording, so
//! parallel-engine regressions were invisible).

use crate::report::Row;
use garfield_aggregation::{build_gar, DistanceCache, Engine, Gar, GarKind};
use garfield_core::json::{self, Value};
use garfield_core::ShardMap;
use garfield_tensor::{
    squared_l2_distance_scalar, squared_l2_distance_slices, GradientView, TensorRng,
};
use std::hint::black_box;
use std::time::Instant;

/// Relative throughput loss versus the baseline that fails the CI gate.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Fraction of sequential-engine throughput `Engine::auto` may lose before
/// the parallel gate fails (speedup < 1 − this is a bug in `threads_for`,
/// not noise). Only enforced when the report was recorded with > 1 thread:
/// at 1 thread both engines run the identical code path and the ratio is
/// pure measurement noise.
pub const PARALLEL_LOSS_TOLERANCE: f64 = 0.10;

/// One sweep configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Gradient dimensions to sweep.
    pub dims: Vec<usize>,
    /// Input counts to sweep.
    pub ns: Vec<usize>,
    /// Keep repeating a cell until it has run at least this long...
    pub target_secs: f64,
    /// ...but at most this many repetitions.
    pub max_reps: usize,
    /// Whether this is the CI quick sweep (recorded in the report).
    pub quick: bool,
}

impl PerfConfig {
    /// The full sweep of the issue spec: d ∈ {1e4, 1e5, 1e6} × n ∈ {15, 25, 51}.
    pub fn full() -> Self {
        PerfConfig {
            dims: vec![10_000, 100_000, 1_000_000],
            ns: vec![15, 25, 51],
            target_secs: 0.2,
            max_reps: 5,
            quick: false,
        }
    }

    /// The CI smoke sweep: small enough for a PR gate, still covering every
    /// GAR and both engines. The timing window is generous relative to the
    /// cell cost (sub-millisecond cells run many reps) so the 20% regression
    /// gate measures code, not scheduler noise.
    pub fn quick() -> Self {
        PerfConfig {
            dims: vec![10_000, 100_000],
            ns: vec![15, 25],
            target_secs: 0.15,
            max_reps: 40,
            quick: true,
        }
    }
}

/// One measured (GAR, n, d) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// GAR name.
    pub gar: String,
    /// Number of inputs.
    pub n: usize,
    /// Declared Byzantine bound used for this cell.
    pub f: usize,
    /// Gradient dimension.
    pub d: usize,
    /// Seconds per aggregation on the sequential engine.
    pub seq_secs: f64,
    /// Seconds per aggregation on the parallel engine.
    pub par_secs: f64,
    /// Parallel-engine throughput in gradient values per second (n·d / s).
    pub throughput: f64,
    /// Parallel-engine input bandwidth in MB/s (n·d·4 bytes / s).
    pub mb_s: f64,
    /// Sequential time over parallel time.
    pub speedup: f64,
    /// Whether the two engines produced bit-identical outputs.
    pub identical: bool,
}

/// One measured distance-kernel cell (single-threaded, pair-element rate).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Kernel name: `scalar`, `chunked` or `blocked_exact`.
    pub kernel: String,
    /// Number of inputs whose `n(n−1)/2` pairs were filled.
    pub n: usize,
    /// Gradient dimension.
    pub d: usize,
    /// Pair elements per second (`n(n−1)/2 · d` per fill / seconds).
    pub elem_s: f64,
}

/// One complete `expfig perf` recording: the machine shape it was measured
/// under plus every measured point. Baselines are keyed on `(threads,
/// quick)` — comparing across either is comparing different experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Thread count of the parallel engine when this report was recorded.
    pub threads: usize,
    /// Whether the quick (CI smoke) sweep produced this report.
    pub quick: bool,
    /// Distance-kernel throughput points.
    pub kernels: Vec<KernelPoint>,
    /// GAR sweep points.
    pub entries: Vec<PerfPoint>,
}

/// The Byzantine bound each GAR is swept with.
///
/// Distance-based rules use the strongest `f` valid for every rule at that
/// `n` (`(n-3)/4`, satisfying both `n ≥ 2f+3` and `n ≥ 4f+3`); MDA's subset
/// enumeration is `C(n, f)` — exponential in `f`, as the paper's Fig. 3
/// discussion notes — so it is swept at `f = 2` to keep the cell about the
/// distance matrix rather than the combinatorics.
pub fn sweep_f(kind: &GarKind, n: usize) -> usize {
    match kind {
        GarKind::Average => 0,
        GarKind::Mda => 2.min((n.saturating_sub(1)) / 2),
        GarKind::Median => (n.saturating_sub(1)) / 2,
        GarKind::Krum | GarKind::MultiKrum | GarKind::Bulyan => (n.saturating_sub(3)) / 4,
        // The composite is swept with whatever its fallback tolerates — the
        // fast path itself is f-independent.
        GarKind::Speculative { fallback } => sweep_f(fallback, n),
    }
}

/// Every kind the perf sweep measures: the six primitives plus one
/// speculative composite cell, whose honest random inputs keep the check on
/// the fast path — the fault-free fast-path throughput the regression gate
/// watches.
pub fn sweep_kinds() -> Vec<GarKind> {
    let mut kinds: Vec<GarKind> = GarKind::all().to_vec();
    kinds.push(GarKind::Speculative {
        fallback: Box::new(GarKind::MultiKrum),
    });
    kinds
}

/// Shard count of the sharded sweep cells (`<gar>@4sh`): every
/// coordinate-decomposable GAR is re-timed over a 4-way [`ShardMap`] split
/// of the same inputs, aggregating the shards one after another — the work
/// one round costs a sharded deployment, minus the network.
pub const SHARD_SWEEP: usize = 4;

fn time_cell(
    gar: &dyn Gar,
    views: &[GradientView<'_>],
    engine: &Engine,
    config: &PerfConfig,
) -> (f64, Vec<f32>) {
    // One untimed warm-up rep: first-touch page faults and thread-pool
    // spin-up used to land inside the first timed rep and could make a
    // single-rep cell read ~10–30% slow, which at 1 thread masqueraded as a
    // "parallel engine slower than sequential" bug.
    let mut out = gar
        .aggregate_views(views, engine)
        .expect("sweep inputs are well-formed")
        .into_vec();
    let start = Instant::now();
    let mut reps = 0usize;
    while reps == 0
        || (start.elapsed().as_secs_f64() < config.target_secs && reps < config.max_reps)
    {
        out = gar
            .aggregate_views(views, engine)
            .expect("sweep inputs are well-formed")
            .into_vec();
        reps += 1;
    }
    (start.elapsed().as_secs_f64() / reps as f64, out)
}

/// Times one rep = aggregate *every* shard slice in shard order, stitching
/// the slice aggregates back into a full vector (same warm-up + budget
/// policy as [`time_cell`]).
fn time_sharded_cell(
    gar: &dyn Gar,
    shard_views: &[Vec<GradientView<'_>>],
    engine: &Engine,
    config: &PerfConfig,
) -> (f64, Vec<f32>) {
    let aggregate_all = || -> Vec<f32> {
        let mut out = Vec::new();
        for views in shard_views {
            out.extend(
                gar.aggregate_views(views, engine)
                    .expect("sweep inputs are well-formed")
                    .into_vec(),
            );
        }
        out
    };
    let mut out = aggregate_all();
    let start = Instant::now();
    let mut reps = 0usize;
    while reps == 0
        || (start.elapsed().as_secs_f64() < config.target_secs && reps < config.max_reps)
    {
        out = aggregate_all();
        reps += 1;
    }
    (start.elapsed().as_secs_f64() / reps as f64, out)
}

/// Times one closure with the same warm-up + repeat-until-budget policy as
/// the GAR cells; returns seconds per rep.
fn time_kernel<F: FnMut() -> f32>(config: &PerfConfig, mut work: F) -> f64 {
    black_box(work());
    let start = Instant::now();
    let mut reps = 0usize;
    while reps == 0
        || (start.elapsed().as_secs_f64() < config.target_secs && reps < config.max_reps)
    {
        black_box(work());
        reps += 1;
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Measures the distance kernels themselves — single-threaded, at the
/// sweep's largest `d` — in pair elements per second.
///
/// `scalar` is the retained pre-rewrite reference (serial `f32` adds),
/// `chunked` the multi-lane kernel applied per whole pair and `blocked_exact`
/// the `DistanceCache` cache-blocked fill.
pub fn run_kernels(config: &PerfConfig) -> Vec<KernelPoint> {
    let d = config.dims.iter().copied().max().unwrap_or(100_000);
    let n = 15usize;
    let mut rng = TensorRng::seed_from(0x6b72_6e6c ^ (d as u64));
    let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
    let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
    let pair_elems = (n * (n - 1) / 2 * d) as f64;
    let seq = Engine::sequential();

    let pairwise = |kernel: fn(&[f32], &[f32]) -> f32| {
        let mut sum = 0.0f32;
        for i in 0..n {
            for j in (i + 1)..n {
                sum += kernel(&inputs[i], &inputs[j]);
            }
        }
        sum
    };

    let mut points = Vec::new();
    let secs = time_kernel(config, || pairwise(squared_l2_distance_scalar));
    points.push(KernelPoint {
        kernel: "scalar".into(),
        n,
        d,
        elem_s: pair_elems / secs,
    });
    let secs = time_kernel(config, || pairwise(squared_l2_distance_slices));
    points.push(KernelPoint {
        kernel: "chunked".into(),
        n,
        d,
        elem_s: pair_elems / secs,
    });
    let secs = time_kernel(config, || DistanceCache::build(&views, &seq).get(0, 1));
    points.push(KernelPoint {
        kernel: "blocked_exact".into(),
        n,
        d,
        elem_s: pair_elems / secs,
    });
    points
}

/// Runs the sweep, returning one point per (GAR, n, d) cell.
///
/// Inputs are deterministic (seeded per cell), and each cell runs the
/// sequential and parallel engines on the *same* borrowed views, comparing
/// outputs bit for bit.
pub fn run(config: &PerfConfig) -> Vec<PerfPoint> {
    run_with(config, &Engine::auto())
}

/// [`run`] with an explicit parallel engine (the `--threads` override used
/// to record baselines for a machine shape other than this one's).
pub fn run_with(config: &PerfConfig, parallel: &Engine) -> Vec<PerfPoint> {
    let parallel = parallel.clone();
    let sequential = Engine::sequential();
    let mut points = Vec::new();
    for &d in &config.dims {
        for &n in &config.ns {
            // One input set per (n, d) cell, shared by every GAR.
            let mut rng = TensorRng::seed_from(0x9a2f_0000 ^ (d as u64) ^ ((n as u64) << 32));
            let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
            let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
            for kind in sweep_kinds() {
                let f = sweep_f(&kind, n);
                let gar = build_gar(&kind, n, f).expect("sweep (n, f) satisfies every rule");
                let (seq_secs, seq_out) = time_cell(gar.as_ref(), &views, &sequential, config);
                let (par_secs, par_out) = time_cell(gar.as_ref(), &views, &parallel, config);
                let identical = seq_out.len() == par_out.len()
                    && seq_out
                        .iter()
                        .zip(par_out.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                let values = (n * d) as f64;
                points.push(PerfPoint {
                    gar: kind.as_str().to_string(),
                    n,
                    f,
                    d,
                    seq_secs,
                    par_secs,
                    throughput: values / par_secs,
                    mb_s: values * 4.0 / par_secs / 1e6,
                    speedup: seq_secs / par_secs,
                    identical,
                });
            }
            // Sharded cells (`<gar>@4sh`): every coordinate-decomposable GAR
            // re-timed over the SHARD_SWEEP-way split of the *same* inputs.
            // `identical` here carries the decomposition claim itself: the
            // stitched per-shard aggregates must equal the full-vector
            // aggregate bit for bit, on both engines.
            let map = ShardMap::new(d, SHARD_SWEEP).expect("sweep dims exceed the shard count");
            let shard_views: Vec<Vec<GradientView<'_>>> = map
                .specs()
                .iter()
                .map(|spec| {
                    inputs
                        .iter()
                        .map(|g| GradientView::from(&g[spec.range()]))
                        .collect()
                })
                .collect();
            for kind in sweep_kinds() {
                if !kind.is_coordinate_decomposable() {
                    continue;
                }
                let f = sweep_f(&kind, n);
                let gar = build_gar(&kind, n, f).expect("sweep (n, f) satisfies every rule");
                let full = gar
                    .aggregate_views(&views, &sequential)
                    .expect("sweep inputs are well-formed")
                    .into_vec();
                let (seq_secs, seq_out) =
                    time_sharded_cell(gar.as_ref(), &shard_views, &sequential, config);
                let (par_secs, par_out) =
                    time_sharded_cell(gar.as_ref(), &shard_views, &parallel, config);
                let bits_equal = |a: &[f32], b: &[f32]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                let identical = bits_equal(&seq_out, &full) && bits_equal(&par_out, &full);
                let values = (n * d) as f64;
                points.push(PerfPoint {
                    gar: format!("{}@{SHARD_SWEEP}sh", kind.as_str()),
                    n,
                    f,
                    d,
                    seq_secs,
                    par_secs,
                    throughput: values / par_secs,
                    mb_s: values * 4.0 / par_secs / 1e6,
                    speedup: seq_secs / par_secs,
                    identical,
                });
            }
        }
    }
    points
}

/// Runs the whole recording: kernel points plus the GAR sweep, stamped with
/// the machine shape.
pub fn run_report(config: &PerfConfig) -> PerfReport {
    run_report_with(config, &Engine::auto())
}

/// [`run_report`] with an explicit parallel engine; the report is stamped
/// with that engine's thread count, so a `--threads 4` recording lands under
/// the 4-thread baseline key regardless of the machine it ran on.
pub fn run_report_with(config: &PerfConfig, parallel: &Engine) -> PerfReport {
    PerfReport {
        threads: parallel.threads(),
        quick: config.quick,
        kernels: run_kernels(config),
        entries: run_with(config, parallel),
    }
}

/// Relative aggregation slowdown the enabled observability layer may cost
/// before the `--obs-gate` check fails.
pub const OBS_OVERHEAD_TOLERANCE: f64 = 0.02;

/// The enabled-vs-disabled observability measurement: one representative
/// DistanceCache-heavy cell, timed with the recorder/registry off and on.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverhead {
    /// GAR timed.
    pub gar: String,
    /// Number of inputs.
    pub n: usize,
    /// Gradient dimension.
    pub d: usize,
    /// Min-of-rounds seconds per aggregation with observability disabled.
    pub disabled_secs: f64,
    /// Min-of-rounds seconds per aggregation with observability enabled.
    pub enabled_secs: f64,
}

impl ObsOverhead {
    /// Fractional slowdown (`enabled / disabled − 1`; a negative value is
    /// measurement noise reading as a speedup).
    pub fn overhead(&self) -> f64 {
        self.enabled_secs / self.disabled_secs - 1.0
    }
}

/// Measures what the `garfield-obs` instrumentation costs on the aggregation
/// hot path: Multi-Krum at the sweep's largest cell, where every aggregation
/// crosses the instrumented `DistanceCache::build` (fill histogram +
/// throughput gauge) and the per-GAR selection counter.
///
/// The two states are timed *interleaved* (disabled, enabled, disabled, …)
/// and each side keeps its minimum over the rounds, so machine drift hits
/// both sides alike instead of biasing whichever state ran second. Restores
/// the observability state it found.
pub fn obs_overhead(config: &PerfConfig) -> ObsOverhead {
    const ROUNDS: usize = 7;
    let d = config.dims.iter().copied().max().unwrap_or(100_000);
    let n = config.ns.iter().copied().max().unwrap_or(15);
    let kind = GarKind::MultiKrum;
    let f = sweep_f(&kind, n);
    let gar = build_gar(&kind, n, f).expect("sweep (n, f) satisfies every rule");
    let mut rng = TensorRng::seed_from(0x0b50_bd0b ^ (d as u64));
    let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
    let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
    let engine = Engine::auto();
    let was_enabled = garfield_obs::enabled();

    let time_one = |on: bool| -> f64 {
        if on {
            garfield_obs::enable();
        } else {
            garfield_obs::disable();
        }
        let start = Instant::now();
        black_box(
            gar.aggregate_views(&views, &engine)
                .expect("sweep inputs are well-formed"),
        );
        start.elapsed().as_secs_f64()
    };
    // Warm both paths untimed: page faults, thread-pool spin-up, and metric
    // registration (a one-time cold-path cost, not steady-state overhead).
    time_one(false);
    time_one(true);
    let (mut disabled_secs, mut enabled_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        disabled_secs = disabled_secs.min(time_one(false));
        enabled_secs = enabled_secs.min(time_one(true));
    }
    if was_enabled {
        garfield_obs::enable();
    } else {
        garfield_obs::disable();
    }
    ObsOverhead {
        gar: kind.as_str().to_string(),
        n,
        d,
        disabled_secs,
        enabled_secs,
    }
}

/// Renders points as report rows (for the aligned text table).
pub fn as_rows(points: &[PerfPoint]) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            Row::new(
                format!("{} n={} d={}", p.gar, p.n, p.d),
                vec![
                    ("seq_ms", p.seq_secs * 1e3),
                    ("par_ms", p.par_secs * 1e3),
                    ("mvals_s", p.throughput / 1e6),
                    ("mb_s", p.mb_s),
                    ("speedup", p.speedup),
                    ("identical", if p.identical { 1.0 } else { 0.0 }),
                ],
            )
        })
        .collect()
}

/// Renders kernel points as report rows.
pub fn kernel_rows(points: &[KernelPoint]) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            Row::new(
                format!("{} n={} d={}", p.kernel, p.n, p.d),
                vec![("melem_s", p.elem_s / 1e6)],
            )
        })
        .collect()
}

fn push_json_f64(out: &mut String, key: &str, v: f64, trailing: bool) {
    let mut num = String::new();
    json::write_f64(&mut num, v);
    out.push_str(&format!("\"{key}\": {num}"));
    if trailing {
        out.push_str(", ");
    }
}

/// Serialises one recording to the `garfield-bench/aggregation-v2` schema.
pub fn report_to_json(report: &PerfReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"garfield-bench/aggregation-v2\",\n");
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in report.kernels.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"kernel\": \"{}\", \"n\": {}, \"d\": {}, ",
            k.kernel, k.n, k.d
        ));
        push_json_f64(&mut out, "elem_s", k.elem_s, false);
        out.push('}');
        if i + 1 < report.kernels.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"entries\": [\n");
    for (i, p) in report.entries.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"gar\": \"{}\", ", p.gar));
        out.push_str(&format!("\"n\": {}, \"f\": {}, \"d\": {}, ", p.n, p.f, p.d));
        push_json_f64(&mut out, "seq_secs", p.seq_secs, true);
        push_json_f64(&mut out, "par_secs", p.par_secs, true);
        push_json_f64(&mut out, "throughput", p.throughput, true);
        push_json_f64(&mut out, "mb_s", p.mb_s, true);
        push_json_f64(&mut out, "speedup", p.speedup, true);
        out.push_str(&format!("\"identical\": {}", p.identical));
        out.push('}');
        if i + 1 < report.entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialises a set of per-thread-count baselines
/// (`garfield-bench/aggregation-baselines-v2`).
pub fn baselines_to_json(baselines: &[PerfReport]) -> String {
    let mut out = String::from("{\n\"schema\": \"garfield-bench/aggregation-baselines-v2\",\n");
    out.push_str("\"baselines\": [\n");
    for (i, b) in baselines.iter().enumerate() {
        out.push_str(report_to_json(b).trim_end());
        if i + 1 < baselines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

fn report_from_value(doc: &Value, what: &str) -> Result<PerfReport, String> {
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{what} has no 'entries' array"))?;
    let mut points = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let field_f64 = |k: &str| -> Result<f64, String> {
            e.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{what} entry {i} misses numeric '{k}'"))
        };
        let field_usize = |k: &str| -> Result<usize, String> {
            e.get(k)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("{what} entry {i} misses integer '{k}'"))
        };
        points.push(PerfPoint {
            gar: e
                .get("gar")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{what} entry {i} misses 'gar'"))?
                .to_string(),
            n: field_usize("n")?,
            f: field_usize("f")?,
            d: field_usize("d")?,
            seq_secs: field_f64("seq_secs")?,
            par_secs: field_f64("par_secs")?,
            throughput: field_f64("throughput")?,
            mb_s: field_f64("mb_s")?,
            speedup: field_f64("speedup")?,
            identical: e.get("identical").and_then(Value::as_bool).unwrap_or(false),
        });
    }
    // v1 reports have no kernels section; parse it when present.
    let mut kernels = Vec::new();
    if let Some(ks) = doc.get("kernels").and_then(Value::as_array) {
        for (i, k) in ks.iter().enumerate() {
            kernels.push(KernelPoint {
                kernel: k
                    .get("kernel")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{what} kernel {i} misses 'kernel'"))?
                    .to_string(),
                n: k.get("n")
                    .and_then(Value::as_usize)
                    .ok_or_else(|| format!("{what} kernel {i} misses 'n'"))?,
                d: k.get("d")
                    .and_then(Value::as_usize)
                    .ok_or_else(|| format!("{what} kernel {i} misses 'd'"))?,
                elem_s: k
                    .get("elem_s")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{what} kernel {i} misses 'elem_s'"))?,
            });
        }
    }
    Ok(PerfReport {
        // v1 reports always carried 'threads'; default 1 for hand-written
        // fixtures.
        threads: doc.get("threads").and_then(Value::as_usize).unwrap_or(1),
        quick: doc.get("quick").and_then(Value::as_bool).unwrap_or(false),
        kernels,
        entries: points,
    })
}

/// Parses one `BENCH_aggregation.json` document (v1 or v2) back into a
/// report.
///
/// # Errors
///
/// Returns a message describing the first structural problem.
pub fn parse_report(text: &str) -> Result<PerfReport, String> {
    let doc = json::parse(text)?;
    report_from_value(&doc, "report")
}

/// Parses a baseline file: either the multi-report
/// `garfield-bench/aggregation-baselines-v2` document or, for backward
/// compatibility, a single legacy v1/v2 report (treated as one baseline).
pub fn parse_baselines(text: &str) -> Result<Vec<PerfReport>, String> {
    let doc = json::parse(text)?;
    match doc.get("baselines").and_then(Value::as_array) {
        Some(list) => list
            .iter()
            .enumerate()
            .map(|(i, b)| report_from_value(b, &format!("baseline {i}")))
            .collect(),
        None => Ok(vec![report_from_value(&doc, "baseline")?]),
    }
}

/// Inserts `report` into a baseline set, replacing any existing baseline
/// recorded at the same `(threads, quick)` key.
pub fn merge_baseline(baselines: &mut Vec<PerfReport>, report: PerfReport) {
    match baselines
        .iter_mut()
        .find(|b| b.threads == report.threads && b.quick == report.quick)
    {
        Some(slot) => *slot = report,
        None => baselines.push(report),
    }
    baselines.sort_by_key(|b| (b.threads, b.quick));
}

/// Finds the baseline recorded under the same `(threads, quick)` key as
/// `report`, if any.
pub fn matching_baseline<'a>(
    baselines: &'a [PerfReport],
    report: &PerfReport,
) -> Option<&'a PerfReport> {
    baselines
        .iter()
        .find(|b| b.threads == report.threads && b.quick == report.quick)
}

/// Compares a fresh sweep against a recorded baseline.
///
/// Every baseline cell present in the current sweep must reach at least
/// `(1 - tolerance)` of the baseline's parallel-engine throughput; a cell
/// that disappeared from the sweep also counts as a regression (so the gate
/// cannot be dodged by shrinking the sweep). Returns one human-readable
/// message per violation — empty means the gate passes.
pub fn regressions(current: &[PerfPoint], baseline: &[PerfPoint], tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for base in baseline {
        let Some(now) = current
            .iter()
            .find(|p| p.gar == base.gar && p.n == base.n && p.d == base.d)
        else {
            problems.push(format!(
                "{} n={} d={}: cell present in baseline but missing from this sweep",
                base.gar, base.n, base.d
            ));
            continue;
        };
        let floor = base.throughput * (1.0 - tolerance);
        if now.throughput < floor {
            problems.push(format!(
                "{} n={} d={}: throughput {:.3e} values/s fell below {:.3e} \
                 ({:.0}% of baseline {:.3e})",
                now.gar,
                now.n,
                now.d,
                now.throughput,
                floor,
                (1.0 - tolerance) * 100.0,
                base.throughput,
            ));
        }
    }
    problems
}

/// The kernel-level regression gate: same shape as [`regressions`], keyed on
/// `(kernel, n, d)`.
pub fn kernel_regressions(
    current: &[KernelPoint],
    baseline: &[KernelPoint],
    tolerance: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for base in baseline {
        let Some(now) = current
            .iter()
            .find(|k| k.kernel == base.kernel && k.n == base.n && k.d == base.d)
        else {
            problems.push(format!(
                "kernel {} n={} d={}: present in baseline but missing from this sweep",
                base.kernel, base.n, base.d
            ));
            continue;
        };
        let floor = base.elem_s * (1.0 - tolerance);
        if now.elem_s < floor {
            problems.push(format!(
                "kernel {} n={} d={}: {:.3e} elem/s fell below {:.3e} \
                 ({:.0}% of baseline {:.3e})",
                now.kernel,
                now.n,
                now.d,
                now.elem_s,
                floor,
                (1.0 - tolerance) * 100.0,
                base.elem_s,
            ));
        }
    }
    problems
}

/// The parallel-engine sanity gate: on a multi-core recording, no (GAR, n,
/// d) cell may show `Engine::auto` losing to `Engine::sequential` by more
/// than `max_loss` — that is the `threads_for` fan-out heuristic spawning
/// threads that cost more than they compute, the exact bug the old
/// `PAR_MIN_WORK` floor had at d = 10⁴. Returns one message per violation;
/// always empty for single-threaded reports.
///
/// Sharded cells (`<gar>@Nsh`) are exempt: they aggregate shard-at-a-time
/// over `d / N`-length slices that sit near (or below) the engine's fan-out
/// threshold by construction, so their auto-vs-sequential ratio measures the
/// threshold boundary, not the heuristic's quality — and in a real sharded
/// deployment each shard server is its own thread of parallelism anyway.
pub fn parallel_regressions(report: &PerfReport, max_loss: f64) -> Vec<String> {
    if report.threads <= 1 {
        return Vec::new();
    }
    report
        .entries
        .iter()
        .filter(|p| !p.gar.ends_with("sh") && p.speedup < 1.0 - max_loss)
        .map(|p| {
            format!(
                "{} n={} d={}: parallel engine is {:.0}% slower than sequential \
                 (speedup {:.2} at {} threads)",
                p.gar,
                p.n,
                p.d,
                (1.0 - p.speedup) * 100.0,
                p.speedup,
                report.threads,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            dims: vec![256],
            ns: vec![7],
            target_secs: 0.0,
            max_reps: 1,
            quick: true,
        }
    }

    fn tiny_report() -> PerfReport {
        PerfReport {
            threads: Engine::auto().threads(),
            quick: true,
            kernels: run_kernels(&tiny_config()),
            entries: run(&tiny_config()),
        }
    }

    /// Serializes tests that toggle or read the process-global `garfield-obs`
    /// enabled flag (the default test runner is multi-threaded).
    fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Seconds per round of `speculative(multi-krum)` and of pure Multi-Krum
    /// at shape `(d, n, f)`, each timed by the sweep's [`time_cell`] for
    /// `budget_secs` on one seeded honest input set, so the speculative check
    /// never trips and every round is the fused average sweep.
    fn fast_path_secs(d: usize, n: usize, f: usize, budget_secs: f64) -> (f64, f64) {
        let config = PerfConfig {
            dims: vec![d],
            ns: vec![n],
            target_secs: budget_secs,
            max_reps: usize::MAX,
            quick: true,
        };
        let mut rng = TensorRng::seed_from(0x5bec ^ (d as u64) ^ ((n as u64) << 32));
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let engine = Engine::auto();
        let secs = |kind: GarKind| {
            let gar = build_gar(&kind, n, f).expect("measurement shape is well-formed");
            let (secs, _) = time_cell(gar.as_ref(), &views, &engine, &config);
            assert!(
                !gar.fell_back().unwrap_or(false),
                "honest inputs must stay on the fast path"
            );
            secs
        };
        let fast = secs(GarKind::Speculative {
            fallback: Box::new(GarKind::MultiKrum),
        });
        (fast, secs(GarKind::MultiKrum))
    }

    #[test]
    fn fast_path_measurement_reports_sane_rates_at_a_small_shape() {
        // The full paper shape is a release-build measurement (below); this
        // keeps the measurement itself exercised in debug runs.
        let (fast, robust) = fast_path_secs(4096, 9, 1, 0.05);
        assert!(fast > 0.0 && robust > 0.0);
        assert!((robust / fast).is_finite());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "throughput acceptance is a release-build measurement: run with \
                  `cargo test --release -p garfield-bench fast_path_is_3x`"
    )]
    fn fast_path_is_3x_multi_krum_at_the_paper_shape() {
        // d = 10⁶, n = 25: the evaluation shape the speculation claim of
        // arXiv:1911.07537 is stated at — the fast path reads the n·d payload
        // once per round where Multi-Krum pays the O(n²d) distance matrix.
        // Best-of-3 damps scheduler noise: the claim is about the machine's
        // capability, not about a single timing sample.
        let mut best: f64 = 0.0;
        for _ in 0..3 {
            let (fast, robust) = fast_path_secs(1_000_000, 25, 5, 1.0);
            best = best.max(robust / fast);
            if best >= 3.0 {
                break;
            }
        }
        assert!(
            best >= 3.0,
            "speculative fast path must be ≥3× Multi-Krum rounds/s at d=1e6 n=25, got {best:.2}×"
        );
    }

    #[test]
    fn sweep_covers_every_gar_and_outputs_are_identical() {
        let points = run(&tiny_config());
        let decomposable = sweep_kinds()
            .iter()
            .filter(|k| k.is_coordinate_decomposable())
            .count();
        assert_eq!(points.len(), sweep_kinds().len() + decomposable);
        assert!(
            points.iter().any(|p| p.gar == "speculative"),
            "the speculative fast-path cell is part of the sweep"
        );
        // Every decomposable GAR also gets a sharded cell, whose `identical`
        // flag asserts stitched shard aggregates == the full aggregate.
        for kind in sweep_kinds()
            .iter()
            .filter(|k| k.is_coordinate_decomposable())
        {
            let label = format!("{}@{SHARD_SWEEP}sh", kind.as_str());
            assert!(
                points.iter().any(|p| p.gar == label),
                "missing sharded cell {label}"
            );
        }
        for p in &points {
            assert!(p.identical, "{} outputs diverged between engines", p.gar);
            assert!(p.seq_secs > 0.0 && p.par_secs > 0.0);
            assert!(p.throughput > 0.0 && p.mb_s > 0.0 && p.speedup > 0.0);
        }
    }

    #[test]
    fn kernel_sweep_measures_every_kernel() {
        let points = run_kernels(&tiny_config());
        let names: Vec<&str> = points.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(names, ["scalar", "chunked", "blocked_exact"]);
        for k in &points {
            assert!(k.elem_s > 0.0, "{} measured no throughput", k.kernel);
        }
    }

    #[test]
    fn json_round_trips() {
        let report = tiny_report();
        let text = report_to_json(&report);
        let back = parse_report(&text).unwrap();
        assert_eq!(back.threads, report.threads);
        assert_eq!(back.quick, report.quick);
        assert_eq!(back.entries.len(), report.entries.len());
        assert_eq!(back.kernels.len(), report.kernels.len());
        for (a, b) in report.entries.iter().zip(back.entries.iter()) {
            assert_eq!(a.gar, b.gar);
            assert_eq!((a.n, a.f, a.d), (b.n, b.f, b.d));
            assert!((a.throughput - b.throughput).abs() <= a.throughput * 1e-9);
            assert_eq!(a.identical, b.identical);
        }
        for (a, b) in report.kernels.iter().zip(back.kernels.iter()) {
            assert_eq!(a.kernel, b.kernel);
            assert!((a.elem_s - b.elem_s).abs() <= a.elem_s * 1e-9);
        }
    }

    #[test]
    fn baseline_files_round_trip_and_merge_by_thread_count() {
        let mut a = tiny_report();
        a.threads = 1;
        let mut b = tiny_report();
        b.threads = 8;

        let mut baselines = Vec::new();
        merge_baseline(&mut baselines, a.clone());
        merge_baseline(&mut baselines, b.clone());
        assert_eq!(baselines.len(), 2);

        // Re-recording at an existing thread count replaces, not appends.
        let mut a2 = a.clone();
        a2.entries[0].throughput *= 2.0;
        merge_baseline(&mut baselines, a2.clone());
        assert_eq!(baselines.len(), 2);
        assert_eq!(
            matching_baseline(&baselines, &a).unwrap().entries[0].throughput,
            a2.entries[0].throughput
        );

        let text = baselines_to_json(&baselines);
        let back = parse_baselines(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].threads, 1);
        assert_eq!(back[1].threads, 8);

        // A report only matches a baseline recorded at its thread count.
        assert!(matching_baseline(&back, &b).is_some());
        let mut c = tiny_report();
        c.threads = 4;
        assert!(matching_baseline(&back, &c).is_none());
    }

    #[test]
    fn legacy_single_report_parses_as_one_baseline() {
        let report = tiny_report();
        let text = report_to_json(&report);
        let baselines = parse_baselines(&text).unwrap();
        assert_eq!(baselines.len(), 1);
        assert_eq!(baselines[0].threads, report.threads);
    }

    #[test]
    fn regression_gate_fires_on_slowdowns_and_missing_cells() {
        let mut base = run(&tiny_config());
        // Same sweep: no regression.
        assert!(regressions(&base, &base, DEFAULT_TOLERANCE).is_empty());

        // 2x slower current: regression.
        let mut slow = base.clone();
        for p in &mut slow {
            p.throughput /= 2.0;
        }
        let problems = regressions(&slow, &base, DEFAULT_TOLERANCE);
        assert_eq!(problems.len(), base.len());

        // Dropped cell: regression too.
        let dropped: Vec<PerfPoint> = base[1..].to_vec();
        assert_eq!(regressions(&dropped, &base, DEFAULT_TOLERANCE).len(), 1);

        // Within tolerance: fine (same measurements, baseline dampened 10%,
        // gate at 50% — deterministic, unlike re-timing the sweep).
        let current = base.clone();
        for p in &mut base {
            p.throughput *= 0.9;
        }
        assert!(regressions(&current, &base, 0.5).is_empty());
    }

    #[test]
    fn kernel_gate_fires_on_slowdowns_and_missing_kernels() {
        let base = run_kernels(&tiny_config());
        assert!(kernel_regressions(&base, &base, DEFAULT_TOLERANCE).is_empty());
        let mut slow = base.clone();
        for k in &mut slow {
            k.elem_s /= 2.0;
        }
        assert_eq!(
            kernel_regressions(&slow, &base, DEFAULT_TOLERANCE).len(),
            base.len()
        );
        let dropped: Vec<KernelPoint> = base[1..].to_vec();
        assert_eq!(
            kernel_regressions(&dropped, &base, DEFAULT_TOLERANCE).len(),
            1
        );
    }

    #[test]
    fn parallel_gate_only_fires_on_multi_thread_reports() {
        let mut report = tiny_report();
        report.threads = 4;
        for p in &mut report.entries {
            p.speedup = 1.5;
        }
        report.entries[0].speedup = 0.6; // a genuine fan-out loss
        let problems = parallel_regressions(&report, PARALLEL_LOSS_TOLERANCE);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("slower than sequential"));

        // Borderline loss within tolerance passes.
        report.entries[0].speedup = 0.95;
        assert!(parallel_regressions(&report, PARALLEL_LOSS_TOLERANCE).is_empty());

        // Sharded cells are exempt: their slices sit at the fan-out
        // threshold by construction.
        let sharded = report
            .entries
            .iter_mut()
            .find(|p| p.gar.ends_with("sh"))
            .expect("the sweep has sharded cells");
        sharded.speedup = 0.5;
        assert!(parallel_regressions(&report, PARALLEL_LOSS_TOLERANCE).is_empty());

        // At 1 thread the ratio is noise — never gated.
        report.threads = 1;
        report.entries[0].speedup = 0.5;
        assert!(parallel_regressions(&report, PARALLEL_LOSS_TOLERANCE).is_empty());
    }

    #[test]
    fn obs_overhead_times_both_states_and_restores_the_flag() {
        let _lock = obs_test_lock();
        garfield_obs::disable();
        let m = obs_overhead(&tiny_config());
        assert_eq!(m.gar, "multi-krum");
        assert!(m.disabled_secs > 0.0 && m.enabled_secs > 0.0);
        assert!(m.overhead().is_finite());
        assert!(!garfield_obs::enabled(), "flag not restored");

        garfield_obs::enable();
        let _ = obs_overhead(&tiny_config());
        assert!(garfield_obs::enabled(), "enabled state not restored");
        garfield_obs::disable();
    }

    #[test]
    fn sweep_f_respects_every_rule_requirement() {
        for kind in sweep_kinds() {
            for n in [15usize, 25, 51] {
                let f = sweep_f(&kind, n);
                assert!(
                    n >= kind.minimum_inputs(f),
                    "{kind} n={n} f={f} violates its requirement"
                );
            }
        }
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(parse_report("not json").is_err());
        assert!(parse_report("{}").is_err());
        assert!(parse_report("{\"entries\": [{}]}").is_err());
        assert!(parse_baselines("{\"baselines\": [{}]}").is_err());
    }
}
