//! The `expfig perf` harness: GAR engine throughput, measured, and engine
//! identity, enforced.
//!
//! Sweeps every GAR over gradient dimension `d` × input count `n`, timing the
//! **sequential** engine (the retained single-threaded reference path) and
//! the **parallel** engine (thread-chunked distance matrix and coordinate
//! fills) on identical inputs, and checks that their outputs are
//! bit-identical. A separate `kernels` section times the distance kernels
//! themselves (retained scalar reference vs chunked multi-lane vs blocked
//! cache fill), so kernel throughput is visible even when a GAR's end-to-end
//! cost is dominated by something else.
//!
//! The sweep emits `BENCH_aggregation.json` (schema
//! `garfield-bench/aggregation-v2`), the perf trajectory CI uploads as an
//! artifact. Timings are reported, never gated: the same binary's cell
//! throughput moves by tens of percent between runs on a shared machine.
//! The one verdict is exact — every cell's `identical` flag.

use crate::report::Row;
use garfield_aggregation::{build_gar, DistanceCache, Engine, Gar, GarKind};
use garfield_core::json;
use garfield_core::ShardMap;
use garfield_tensor::{
    squared_l2_distance_scalar, squared_l2_distance_slices, GradientView, TensorRng,
};
use std::hint::black_box;
use std::time::Instant;

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
}

impl Default for PerfConfig {
    /// The recorded sweep, d ∈ {1e4, 1e5} × n ∈ {15, 25}: the cells
    /// `BENCH_aggregation.json` holds, covering every GAR and both engines.
    /// Sub-millisecond cells run many reps within the timing window.
    fn default() -> Self {
        PerfConfig {
            dims: vec![10_000, 100_000],
            ns: vec![15, 25],
            target_secs: 0.15,
            max_reps: 40,
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
/// under plus every measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Thread count of the parallel engine when this report was recorded.
    pub threads: usize,
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
    }
}

/// Shard count of the sharded sweep cells (`<gar>@4sh`): every
/// coordinate-decomposable GAR is re-timed over a 4-way [`ShardMap`] split
/// of the same inputs, aggregating the shards one after another — the work
/// one round costs a sharded deployment, minus the network.
pub const SHARD_SWEEP: usize = 4;

/// Runs `work` once untimed, then repeats it until `config.target_secs` has
/// elapsed or `config.max_reps` reps ran (at least one); returns seconds per
/// timed rep and the last rep's output.
///
/// The warm-up rep keeps first-touch page faults and thread spin-up out of
/// the timed reps: they used to make a single-rep cell read ~10–30% slow.
pub(crate) fn time_reps<T>(config: &PerfConfig, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut out = work();
    let start = Instant::now();
    let mut reps = 0usize;
    while reps == 0
        || (start.elapsed().as_secs_f64() < config.target_secs && reps < config.max_reps)
    {
        out = black_box(work());
        reps += 1;
    }
    (start.elapsed().as_secs_f64() / reps as f64, out)
}

fn aggregate(gar: &dyn Gar, views: &[GradientView<'_>], engine: &Engine) -> Vec<f32> {
    gar.aggregate_views(views, engine)
        .expect("sweep inputs are well-formed")
        .into_vec()
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `aggregate_with` on the sequential and the parallel engine and
/// records the cell. `identical` holds when both outputs are bit-equal —
/// and, given a `reference`, equal to it too.
fn measure(
    config: &PerfConfig,
    gar: String,
    (n, f, d): (usize, usize, usize),
    reference: Option<&[f32]>,
    aggregate_with: impl Fn(&Engine) -> Vec<f32>,
) -> PerfPoint {
    let (sequential, parallel) = (Engine::sequential(), Engine::auto());
    let (seq_secs, seq_out) = time_reps(config, || aggregate_with(&sequential));
    let (par_secs, par_out) = time_reps(config, || aggregate_with(&parallel));
    let identical =
        bits_equal(&seq_out, &par_out) && reference.is_none_or(|r| bits_equal(&seq_out, r));
    let values = (n * d) as f64;
    PerfPoint {
        gar,
        n,
        f,
        d,
        seq_secs,
        par_secs,
        throughput: values / par_secs,
        mb_s: values * 4.0 / par_secs / 1e6,
        speedup: seq_secs / par_secs,
        identical,
    }
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
    let point = |kernel: &str, (secs, _): (f64, f32)| KernelPoint {
        kernel: kernel.into(),
        n,
        d,
        elem_s: pair_elems / secs,
    };
    vec![
        point(
            "scalar",
            time_reps(config, || pairwise(squared_l2_distance_scalar)),
        ),
        point(
            "chunked",
            time_reps(config, || pairwise(squared_l2_distance_slices)),
        ),
        point(
            "blocked_exact",
            time_reps(config, || DistanceCache::build(&views, &seq).get(0, 1)),
        ),
    ]
}

/// Runs the sweep, returning one point per (GAR, n, d) cell.
///
/// Inputs are deterministic (seeded per cell), and each cell runs the
/// sequential and parallel (`Engine::auto`) engines on the *same* borrowed
/// views, comparing outputs bit for bit.
pub fn run(config: &PerfConfig) -> Vec<PerfPoint> {
    let mut points = Vec::new();
    for &d in &config.dims {
        for &n in &config.ns {
            // One input set per (n, d) cell, shared by every GAR.
            let mut rng = TensorRng::seed_from(0x9a2f_0000 ^ (d as u64) ^ ((n as u64) << 32));
            let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
            let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
            for kind in GarKind::all() {
                let f = sweep_f(&kind, n);
                let gar = build_gar(&kind, n, f).expect("sweep (n, f) satisfies every rule");
                points.push(measure(
                    config,
                    kind.as_str().to_string(),
                    (n, f, d),
                    None,
                    |engine| aggregate(gar.as_ref(), &views, engine),
                ));
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
            for kind in GarKind::all() {
                if !kind.is_coordinate_decomposable() {
                    continue;
                }
                let f = sweep_f(&kind, n);
                let gar = build_gar(&kind, n, f).expect("sweep (n, f) satisfies every rule");
                let full = aggregate(gar.as_ref(), &views, &Engine::sequential());
                points.push(measure(
                    config,
                    format!("{}@{SHARD_SWEEP}sh", kind.as_str()),
                    (n, f, d),
                    Some(&full),
                    |engine| {
                        shard_views
                            .iter()
                            .flat_map(|views| aggregate(gar.as_ref(), views, engine))
                            .collect()
                    },
                ));
            }
        }
    }
    points
}

/// Runs the whole recording: kernel points plus the GAR sweep, stamped with
/// the machine shape.
pub fn run_report(config: &PerfConfig) -> PerfReport {
    PerfReport {
        threads: Engine::auto().threads(),
        kernels: run_kernels(config),
        entries: run(config),
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

/// The CPU baseline this build was compiled for, from its target features:
/// the kernels' timings depend on whether AVX2 is on.
const TARGET_CPU: &str = if cfg!(target_feature = "avx2") {
    "x86-64-v3"
} else {
    "x86-64"
};

/// Serialises one recording to the `garfield-bench/aggregation-v2` schema.
pub fn report_to_json(report: &PerfReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"garfield-bench/aggregation-v2\",\n");
    out.push_str(&format!("  \"target_cpu\": \"{TARGET_CPU}\",\n"));
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
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

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_core::json::Value;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            dims: vec![256],
            ns: vec![7],
            target_secs: 0.0,
            max_reps: 1,
        }
    }

    #[test]
    fn sweep_covers_every_gar_and_outputs_are_identical() {
        let points = run(&tiny_config());
        let decomposable = GarKind::all()
            .iter()
            .filter(|k| k.is_coordinate_decomposable())
            .count();
        assert_eq!(points.len(), GarKind::all().len() + decomposable);
        // Every decomposable GAR also gets a sharded cell, whose `identical`
        // flag asserts stitched shard aggregates == the full aggregate.
        for kind in GarKind::all()
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
    fn the_committed_trajectory_names_existing_rules_with_identical_engines() {
        // The repo root's record, as `expfig perf` wrote it: a deleted
        // rule must not leave rows behind, and no cell may have diverged.
        let doc = json::parse(include_str!("../../../BENCH_aggregation.json")).unwrap();
        let target_cpu = doc.get("target_cpu").and_then(Value::as_str);
        assert!(
            matches!(target_cpu, Some("x86-64-v3" | "x86-64")),
            "target_cpu {target_cpu:?}"
        );
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert!(!entries.is_empty());
        let sharded = format!("@{SHARD_SWEEP}sh");
        for e in entries {
            let gar = e.get("gar").and_then(Value::as_str).unwrap();
            let rule = gar.strip_suffix(sharded.as_str()).unwrap_or(gar);
            assert!(rule.parse::<GarKind>().is_ok(), "{gar} is no GarKind");
            assert_eq!(
                e.get("identical").and_then(Value::as_bool),
                Some(true),
                "{gar}"
            );
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
        let report = run_report(&tiny_config());
        let doc = json::parse(&report_to_json(&report)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("garfield-bench/aggregation-v2")
        );
        assert_eq!(
            doc.get("target_cpu").and_then(Value::as_str),
            Some(TARGET_CPU)
        );
        assert_eq!(
            doc.get("threads").and_then(Value::as_usize),
            Some(report.threads)
        );
        // One sweep exists, so the report names no mode.
        assert!(doc.get("quick").is_none());
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), report.entries.len());
        for (a, e) in report.entries.iter().zip(entries) {
            let usize_field = |k: &str| e.get(k).and_then(Value::as_usize).unwrap();
            assert_eq!(e.get("gar").and_then(Value::as_str), Some(a.gar.as_str()));
            assert_eq!(
                (usize_field("n"), usize_field("f"), usize_field("d")),
                (a.n, a.f, a.d)
            );
            for (key, want) in [
                ("seq_secs", a.seq_secs),
                ("par_secs", a.par_secs),
                ("throughput", a.throughput),
                ("mb_s", a.mb_s),
                ("speedup", a.speedup),
            ] {
                let got = e.get(key).and_then(Value::as_f64).unwrap();
                assert!((got - want).abs() <= want * 1e-9, "{key}: {got} vs {want}");
            }
            assert_eq!(
                e.get("identical").and_then(Value::as_bool),
                Some(a.identical)
            );
        }
        let kernels = doc.get("kernels").and_then(Value::as_array).unwrap();
        assert_eq!(kernels.len(), report.kernels.len());
        for (a, k) in report.kernels.iter().zip(kernels) {
            assert_eq!(
                k.get("kernel").and_then(Value::as_str),
                Some(a.kernel.as_str())
            );
            assert_eq!(k.get("n").and_then(Value::as_usize), Some(a.n));
            assert_eq!(k.get("d").and_then(Value::as_usize), Some(a.d));
            let elem_s = k.get("elem_s").and_then(Value::as_f64).unwrap();
            assert!((elem_s - a.elem_s).abs() <= a.elem_s * 1e-9);
        }
    }

    #[test]
    fn sweep_f_respects_every_rule_requirement() {
        for kind in GarKind::all() {
            for n in [15usize, 25, 51] {
                let f = sweep_f(&kind, n);
                assert!(
                    n >= kind.minimum_inputs(f),
                    "{kind} n={n} f={f} violates its requirement"
                );
            }
        }
    }
}
