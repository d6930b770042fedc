//! One function per table / figure of the paper's evaluation.
//!
//! Each function returns the rows that the `expfig` binary prints and writes
//! to `results/`. Convergence experiments (Figs. 4, 5, 11, 12, Table 2) run
//! the real training stack on scaled-down settings; throughput sweeps evaluate
//! [`SystemPlan::timing`] — the clock the training runtime reads — at the
//! paper's exact model sizes: their per-iteration time is a function of the
//! model dimension and the cluster shape alone, on the paper's CPU cluster
//! cost model. The paper's GPU variants (Figs. 6b/15, 8b, 16) are not
//! reproduced: no GPU was ever measured here.

use crate::perf::{time_reps, PerfConfig};
use crate::report::Row;
use garfield_aggregation::{build_gar, GarKind, VarianceProbe};
use garfield_core::{
    Executor, ExperimentConfig, IterationTiming, SimExecutor, SystemKind, SystemPlan, Trainer,
};
use garfield_ml::{zoo, Dataset, DatasetKind, Mlp};
use garfield_tensor::{Tensor, TensorRng};

/// The paper's default CPU cluster shape (18 workers / 3 Byzantine, 6 servers / 1 Byzantine).
const CPU_CLUSTER: (usize, usize, usize, usize) = (18, 3, 6, 1);

/// A synchronous cluster of `nw` / `fw` workers and `nps` / `fps` servers.
fn cluster((nw, fw, nps, fps): (usize, usize, usize, usize)) -> ExperimentConfig {
    ExperimentConfig {
        nw,
        fw,
        nps,
        fps,
        ..ExperimentConfig::default()
    }
}

/// Analytic per-iteration timing of `system` for a `d`-parameter model on
/// `shape`, at the paper's per-worker batch of 32.
fn timing(system: SystemKind, d: usize, shape: &ExperimentConfig) -> IterationTiming {
    SystemPlan::of(system, shape).timing(d, 32)
}

/// Model updates per second of an iteration taking `timing`.
fn updates_per_second(timing: IterationTiming) -> f64 {
    1.0 / timing.total().max(1e-12)
}

/// Quick, CI-friendly convergence settings used by the `expfig` binary.
fn convergence_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.model = "tiny".into();
    cfg.nw = 9;
    cfg.fw = 1;
    cfg.nps = 3;
    cfg.fps = 1;
    cfg.iterations = 60;
    cfg.eval_every = 10;
    cfg.gradient_gar = GarKind::MultiKrum;
    cfg.model_gar = GarKind::Median;
    cfg
}

/// Table 1: the model zoo.
pub fn table1() -> Vec<Row> {
    zoo::paper_models()
        .into_iter()
        .map(|m| {
            Row::new(
                m.name,
                vec![("parameters", m.parameters as f64), ("size_mb", m.size_mb)],
            )
        })
        .collect()
}

/// Seconds per `aggregate` over `inputs` by each Fig. 3 rule, tolerating `f`
/// Byzantine inputs (Average tolerates none): warm, as [`time_reps`] times
/// the perf sweep's cells.
fn time_gars(inputs: &[Tensor], f: usize) -> Vec<(&'static str, f64)> {
    let config = PerfConfig::default();
    [
        GarKind::Bulyan,
        GarKind::Mda,
        GarKind::MultiKrum,
        GarKind::Median,
        GarKind::Average,
    ]
    .into_iter()
    .map(|kind| {
        let f = if kind == GarKind::Average { 0 } else { f };
        let gar = build_gar(&kind, inputs.len(), f).expect("n >= 4f + 3 satisfies every rule");
        let (secs, _) = time_reps(&config, || {
            gar.aggregate(inputs).expect("inputs are well formed")
        });
        (kind.as_str(), secs)
    })
    .collect()
}

/// Fig. 3a: GAR aggregation time versus the number of inputs `n`.
///
/// Measures the real CPU kernels. `d` defaults to 10⁵ (the paper uses 10⁷ on
/// GPUs); pass a larger `d` for a slower but closer-to-paper run.
pub fn fig3a(d: usize) -> Vec<Row> {
    let mut rng = TensorRng::seed_from(3);
    let mut rows = Vec::new();
    for n in (7..=23).step_by(2) {
        let f = (n - 3) / 4;
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        rows.push(Row::new(format!("n={n}"), time_gars(&inputs, f)));
    }
    rows
}

/// Fig. 3b: GAR aggregation time versus the input dimension `d` (n = 17).
pub fn fig3b(max_d: usize) -> Vec<Row> {
    let n = 17;
    let f = (n - 3) / 4;
    let mut rng = TensorRng::seed_from(4);
    let mut rows = Vec::new();
    let mut d = 1_000usize;
    while d <= max_d {
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        rows.push(Row::new(format!("d={d}"), time_gars(&inputs, f)));
        d *= 10;
    }
    rows
}

/// Figs. 4a/4b and 11a/11b: convergence of every system versus iterations and
/// versus simulated time. Returns `(system, iteration, sim_time, accuracy)` rows.
pub fn fig4(synchronous: bool) -> Vec<Row> {
    let mut cfg = convergence_config();
    cfg.synchronous = synchronous;
    let mut sim = SimExecutor::new(cfg);
    let mut rows = Vec::new();
    for system in SystemKind::all() {
        let trace = match sim.run(system) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skipping {system}: {e}");
                continue;
            }
        };
        for point in &trace.accuracy {
            rows.push(Row::new(
                format!("{system}"),
                vec![
                    ("iteration", point.iteration as f64),
                    ("sim_time_s", point.sim_time),
                    ("accuracy", point.accuracy as f64),
                ],
            ));
        }
    }
    rows
}

/// Fig. 5: accuracy under real Byzantine behaviour (random and reversed
/// vectors) for vanilla, crash-tolerant and MSMW deployments.
pub fn fig5() -> Vec<Row> {
    let mut rows = Vec::new();
    for (attack_name, attack) in [
        ("random", garfield_attacks::AttackKind::Random),
        ("reversed", garfield_attacks::AttackKind::Reversed),
    ] {
        let mut cfg = convergence_config();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(attack);
        cfg.actual_byzantine_servers = 1;
        cfg.server_attack = Some(attack);
        let mut sim = SimExecutor::new(cfg);
        for system in [
            SystemKind::Vanilla,
            SystemKind::CrashTolerant,
            SystemKind::Msmw,
        ] {
            let trace = sim.run(system).expect("configuration is valid");
            rows.push(Row::new(
                format!("{attack_name}/{system}"),
                vec![
                    ("final_accuracy", trace.final_accuracy() as f64),
                    ("best_accuracy", trace.best_accuracy() as f64),
                ],
            ));
        }
    }
    rows
}

/// Fig. 6: throughput slowdown of each fault-tolerant system relative to
/// vanilla, for every Table 1 model.
pub fn fig6() -> Vec<Row> {
    let shape = cluster(CPU_CLUSTER);
    let mut rows = Vec::new();
    for model in zoo::paper_models() {
        let ups = |system| updates_per_second(timing(system, model.parameters, &shape));
        let vanilla = ups(SystemKind::Vanilla);
        let mut values = Vec::new();
        for system in [
            SystemKind::CrashTolerant,
            SystemKind::Ssmw,
            SystemKind::Msmw,
            SystemKind::Decentralized,
        ] {
            values.push((system.as_str(), vanilla / ups(system)));
        }
        rows.push(Row::new(model.name, values));
    }
    rows
}

/// Fig. 7: per-iteration overhead breakdown for ResNet-50.
pub fn fig7() -> Vec<Row> {
    let shape = cluster(CPU_CLUSTER);
    let d = zoo::spec_by_name("ResNet-50")
        .expect("ResNet-50 is in Table 1")
        .parameters;
    SystemKind::all()
        .into_iter()
        .filter(|s| *s != SystemKind::AggregaThor)
        .map(|system| {
            let t = timing(system, d, &shape);
            Row::new(
                system.as_str(),
                vec![
                    ("computation_s", t.computation),
                    ("communication_s", t.communication),
                    ("aggregation_s", t.aggregation),
                    ("total_s", t.total()),
                ],
            )
        })
        .collect()
}

/// Fig. 8a: throughput (batches/s) versus the number of workers, CifarNet.
pub fn fig8() -> Vec<Row> {
    let d = zoo::spec_by_name("CifarNet")
        .expect("CifarNet is in Table 1")
        .parameters;
    let (_, fw, nps, fps) = CPU_CLUSTER;
    (3..=20)
        .map(|nw| {
            let shape = cluster((nw, fw.min(nw.saturating_sub(1)), nps, fps));
            let mut values = Vec::new();
            for system in [
                SystemKind::Vanilla,
                SystemKind::CrashTolerant,
                SystemKind::Ssmw,
                SystemKind::Msmw,
                SystemKind::Decentralized,
            ] {
                let total = timing(system, d, &shape).total().max(1e-12);
                values.push((system.as_str(), nw as f64 / total));
            }
            Row::new(format!("nw={nw}"), values)
        })
        .collect()
}

/// Fig. 9: communication time of decentralized learning and the vanilla
/// baseline versus the number of nodes (9a, d = 10⁶) and versus the model
/// dimension (9b, n = 6). The paper measured it on GPUs; this is the CPU
/// cost model.
pub fn fig9() -> Vec<Row> {
    // Decentralized learning with one declared Byzantine node against
    // vanilla with one server, both over `n` nodes and a `d`-parameter model.
    let row = |label: String, n: usize, d: usize| {
        let communication = |system, shape| timing(system, d, &cluster(shape)).communication;
        let decentralized = (n, 1.min(n - 1), 0, 0);
        Row::new(
            label,
            vec![
                (
                    "decentralized_s",
                    communication(SystemKind::Decentralized, decentralized),
                ),
                (
                    "vanilla_s",
                    communication(SystemKind::Vanilla, (n, 0, 1, 0)),
                ),
            ],
        )
    };
    let mut rows: Vec<Row> = (2..=6usize)
        .map(|n| row(format!("n={n}"), n, 1_000_000))
        .collect();
    let mut d = 10_000usize;
    while d <= 100_000_000 {
        rows.push(row(format!("d={d}"), 6, d));
        d *= 10;
    }
    rows
}

/// Fig. 10 (and Figs. 13/14): throughput versus the number of declared
/// Byzantine workers (`fw`, fixed cluster) and Byzantine servers (`fps`,
/// which grows the replica group as `nps = 3 fps + 1`).
pub fn fig10() -> Vec<Row> {
    let d = zoo::spec_by_name("ResNet-50")
        .expect("in Table 1")
        .parameters;
    let (nw, _, nps, _) = CPU_CLUSTER;
    let msmw = |fw, nps, fps| {
        let shape = cluster((nw, fw, nps, fps));
        vec![(
            "updates_per_s",
            updates_per_second(timing(SystemKind::Msmw, d, &shape)),
        )]
    };
    let mut rows = Vec::new();
    for fw in 0..=3usize {
        rows.push(Row::new(format!("fw={fw}"), msmw(fw, nps, 1)));
    }
    for fps in 0..=3usize {
        let nps = 3 * fps + 1;
        rows.push(Row::new(
            format!("fps={fps} (nps={nps})"),
            msmw(3.min(nw - 1), nps, fps),
        ));
    }
    rows
}

/// Fig. 12: convergence of the MSMW protocol using MDA as the gradient GAR,
/// against vanilla and the crash-tolerant baseline.
pub fn fig12() -> Vec<Row> {
    let mut cfg = convergence_config();
    cfg.gradient_gar = GarKind::Mda;
    let mut sim = SimExecutor::new(cfg);
    let mut rows = Vec::new();
    for system in [
        SystemKind::Vanilla,
        SystemKind::CrashTolerant,
        SystemKind::Msmw,
    ] {
        let trace = sim.run(system).expect("configuration is valid");
        for point in &trace.accuracy {
            rows.push(Row::new(
                format!("{system}"),
                vec![
                    ("iteration", point.iteration as f64),
                    ("sim_time_s", point.sim_time),
                    ("accuracy", point.accuracy as f64),
                ],
            ));
        }
    }
    rows
}

/// Table 2: parameter-vector alignment of the correct server replicas.
pub fn table2() -> Vec<Row> {
    let mut cfg = convergence_config();
    cfg.synchronous = false;
    cfg.gradient_gar = GarKind::Median;
    cfg.iterations = 100;
    cfg.eval_every = 0;
    let mut trainer = Trainer::new(SystemKind::Msmw, cfg)
        .expect("configuration is valid")
        .with_alignment_sampling(20);
    trainer.run().expect("msmw runs");
    trainer
        .alignment_samples()
        .iter()
        .map(|s| {
            Row::new(
                format!("step {}", s.step),
                vec![
                    ("cos_phi", s.cosine as f64),
                    ("max_diff1", s.max_diff1 as f64),
                    ("max_diff2", s.max_diff2 as f64),
                ],
            )
        })
        .collect()
}

/// The `measure_variance` report of §3.1 as rows (per-GAR satisfied fraction).
pub fn variance_report() -> Vec<Row> {
    let mut rng = TensorRng::seed_from(11);
    let dataset = Dataset::synthetic(DatasetKind::MnistLike, 512, &mut rng);
    let mut model = Mlp::mnist_cnn_lite(&mut rng);
    let probe = VarianceProbe {
        steps: 5,
        ..VarianceProbe::default()
    };
    let report = probe.run(&mut model, &dataset);
    [GarKind::Mda, GarKind::Krum, GarKind::Median]
        .into_iter()
        .map(|gar| {
            Row::new(
                gar.as_str(),
                vec![("satisfied_fraction", report.satisfied_fraction(&gar))],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_models() {
        let rows = table1();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].label, "MNIST_CNN");
    }

    #[test]
    fn gar_microbenchmarks_produce_positive_times() {
        let rows = fig3a(1_000);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            for (_, t) in &row.values {
                assert!(*t >= 0.0);
            }
        }
        let rows = fig3b(10_000);
        assert!(!rows.is_empty());
    }

    #[test]
    fn throughput_figures_have_expected_shapes() {
        let rows = fig6();
        assert_eq!(rows.len(), 6);
        // Every slowdown is at least 1 (vanilla is the fastest).
        for row in &rows {
            for (_, slowdown) in &row.values {
                assert!(*slowdown >= 1.0, "{row:?}");
            }
        }
        assert_eq!(fig7().len(), 5);
        assert!(!fig8().is_empty());
        assert!(!fig9().is_empty());
        assert_eq!(fig10().len(), 8);
    }

    const RESNET50: usize = 23_539_850;

    /// ResNet-50 on the paper's CPU cluster shape.
    fn point(system: SystemKind) -> IterationTiming {
        timing(system, RESNET50, &cluster(CPU_CLUSTER))
    }

    #[test]
    fn ordering_matches_the_paper_cpu() {
        let ups = |system| updates_per_second(point(system));
        let vanilla = ups(SystemKind::Vanilla);
        let ssmw = ups(SystemKind::Ssmw);
        let crash = ups(SystemKind::CrashTolerant);
        let msmw = ups(SystemKind::Msmw);
        let dec = ups(SystemKind::Decentralized);
        assert!(vanilla > ssmw, "vanilla should be the fastest");
        assert!(
            ssmw > crash,
            "tolerating Byzantine workers should cost less than crash tolerance"
        );
        assert!(
            crash > msmw,
            "tolerating Byzantine servers should cost more than crash tolerance"
        );
        assert!(msmw > dec, "decentralized should be the slowest");
    }

    #[test]
    fn communication_dominates_the_msmw_round() {
        let p = point(SystemKind::Msmw);
        assert!(p.communication > 0.6 * p.total());
        assert!(p.aggregation < 0.25 * p.total());
    }

    #[test]
    fn slowdown_grows_then_saturates_with_model_dimension() {
        // Paper Fig. 6: the Byzantine-resilience overhead grows with d only up
        // to a point, after which communication (O(d) for everyone) dominates.
        let shape = cluster(CPU_CLUSTER);
        let slowdown = |d: usize| {
            let v = timing(SystemKind::Vanilla, d, &shape);
            let m = timing(SystemKind::Msmw, d, &shape);
            updates_per_second(v) / updates_per_second(m)
        };
        let small = slowdown(79_510);
        let big = slowdown(62_697_610);
        let huge = slowdown(128_807_306);
        assert!(big > small, "slowdown should grow with model size");
        assert!(
            (huge - big).abs() / big < 0.35,
            "slowdown should saturate for huge models"
        );
    }

    #[test]
    fn decentralized_communication_grows_quadratically_with_n() {
        let comm = |system, shape| timing(system, 1_000_000, &cluster(shape)).communication;
        let ratio = comm(SystemKind::Decentralized, (6, 1, 0, 0))
            / comm(SystemKind::Decentralized, (3, 1, 0, 0));
        assert!(
            ratio > 3.0,
            "doubling n should ~quadruple decentralized communication, got {ratio}"
        );
        let vr = comm(SystemKind::Vanilla, (6, 0, 1, 0)) / comm(SystemKind::Vanilla, (3, 0, 1, 0));
        assert!(
            vr < 2.5,
            "vanilla communication should grow roughly linearly, got {vr}"
        );
    }

    #[test]
    fn byzantine_servers_cost_more_than_byzantine_workers() {
        // Paper: +53% over SSMW for server tolerance, +22% over crash
        // tolerance (GPU numbers); the bounds hold on the CPU model too.
        let ssmw = point(SystemKind::Ssmw).total();
        let msmw = point(SystemKind::Msmw).total();
        let crash = point(SystemKind::CrashTolerant).total();
        assert!(
            msmw > ssmw * 1.2,
            "server tolerance should add substantial overhead over SSMW"
        );
        assert!(
            msmw > crash,
            "Byzantine server tolerance should cost more than crash tolerance"
        );
        assert!(msmw < crash * 2.0, "but not catastrophically more");
    }

    /// FNV-1a over every row: the label's bytes, then each value's bits.
    fn fingerprint(rows: &[Row]) -> u64 {
        let bytes = rows.iter().flat_map(|row| {
            let values = row
                .values
                .iter()
                .flat_map(|(_, v)| v.to_bits().to_le_bytes());
            row.label.bytes().chain(values)
        });
        bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn analytic_figures_match_their_recorded_fingerprints() {
        // Recorded on the commit before `Trainer` started reading its clock
        // from `SystemPlan::timing`; a paper figure that moves fails here. A
        // deliberate change to the cost model re-records them, and says so.
        let figures = [
            ("fig6 cpu", fig6(), 0x527371a6dbd10710u64),
            ("fig7 cpu", fig7(), 0x82aedb59c3dc87d1),
            ("fig8 cpu", fig8(), 0x1109225fa5b9f06b),
            ("fig9", fig9(), 0xfbec497fcca0aff0),
            ("fig10 cpu", fig10(), 0x22ab734c54dba002),
        ];
        for (name, rows, recorded) in figures {
            let got = fingerprint(&rows);
            assert_eq!(got, recorded, "{name}: got {got:#018x}");
        }
    }
}
