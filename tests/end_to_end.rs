//! End-to-end integration tests spanning every crate of the workspace:
//! data synthesis → sharding → distributed training → robust aggregation →
//! attack tolerance → telemetry.

use garfield::core::json::{self, Value};
use garfield::{AttackKind, Executor, ExperimentConfig, GarKind, SimExecutor, SystemKind};

fn base_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.iterations = 40;
    cfg.eval_every = 10;
    cfg
}

#[test]
fn every_system_trains_end_to_end_without_faults() {
    let mut cfg = base_config();
    cfg.iterations = 12;
    let mut sim = SimExecutor::new(cfg);
    for system in SystemKind::all() {
        let trace = sim.run(system).expect("system should run");
        assert_eq!(trace.len(), 12, "{system}");
        assert!(trace.total_time() > 0.0, "{system}");
        assert!(!trace.accuracy.is_empty(), "{system}");
    }
}

#[test]
fn byzantine_resilience_beats_averaging_under_attack() {
    // The headline claim: under a gradient attack, robust aggregation keeps
    // learning while plain averaging collapses (paper Fig. 5).
    let mut cfg = base_config();
    cfg.iterations = 50;
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(AttackKind::Reversed);
    let mut sim = SimExecutor::new(cfg);

    let robust = sim.run(SystemKind::Ssmw).unwrap();
    let vanilla = sim.run(SystemKind::Vanilla).unwrap();
    let crash = sim.run(SystemKind::CrashTolerant).unwrap();

    assert!(
        robust.final_accuracy() > vanilla.final_accuracy() + 0.15,
        "SSMW {} should clearly beat vanilla {} under attack",
        robust.final_accuracy(),
        vanilla.final_accuracy()
    );
    assert!(
        robust.final_accuracy() > crash.final_accuracy() + 0.15,
        "SSMW {} should clearly beat crash-tolerant {} under attack",
        robust.final_accuracy(),
        crash.final_accuracy()
    );
}

#[test]
fn msmw_survives_byzantine_servers_where_crash_tolerance_fails() {
    let mut cfg = base_config();
    cfg.nw = 9;
    cfg.fw = 1;
    cfg.iterations = 50;
    cfg.gradient_gar = GarKind::MultiKrum;
    cfg.model_gar = GarKind::Median;
    cfg.actual_byzantine_servers = 1;
    cfg.server_attack = Some(AttackKind::Random);
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(AttackKind::Random);
    let mut sim = SimExecutor::new(cfg);

    let msmw = sim.run(SystemKind::Msmw).unwrap();
    assert!(
        msmw.final_accuracy() > 0.5,
        "MSMW should converge despite 1 Byzantine server + 1 Byzantine worker, got {}",
        msmw.final_accuracy()
    );
}

#[test]
fn throughput_ordering_matches_the_paper() {
    // Paper §6.6: vanilla is fastest; tolerating Byzantine servers costs more
    // than tolerating only Byzantine workers; decentralized is slowest.
    let mut cfg = base_config();
    cfg.iterations = 10;
    cfg.eval_every = 0;
    let mut sim = SimExecutor::new(cfg);

    let vanilla = sim.run(SystemKind::Vanilla).unwrap().updates_per_second();
    let ssmw = sim.run(SystemKind::Ssmw).unwrap().updates_per_second();
    let msmw = sim.run(SystemKind::Msmw).unwrap().updates_per_second();
    let decentralized = sim
        .run(SystemKind::Decentralized)
        .unwrap()
        .updates_per_second();

    assert!(
        vanilla > ssmw,
        "vanilla {vanilla} should outpace ssmw {ssmw}"
    );
    assert!(ssmw > msmw, "ssmw {ssmw} should outpace msmw {msmw}");
    assert!(
        msmw > decentralized,
        "msmw {msmw} should outpace decentralized {decentralized}"
    );
}

#[test]
fn communication_dominates_the_overhead_breakdown() {
    // Paper Fig. 7: communication accounts for the majority of the overhead of
    // fault-tolerant deployments, aggregation for a small share.
    let mut cfg = base_config();
    cfg.iterations = 10;
    cfg.eval_every = 0;
    cfg.model = "mnist-cnn-lite".into();
    cfg.dataset_samples = 128;
    cfg.test_samples = 64;
    let mut sim = SimExecutor::new(cfg);
    let trace = sim.run(SystemKind::Msmw).unwrap();
    let timing = trace.mean_timing();
    assert!(
        timing.communication > 0.5 * timing.total(),
        "communication {:.4} should dominate total {:.4}",
        timing.communication,
        timing.total()
    );
    assert!(
        timing.aggregation < 0.3 * timing.total(),
        "aggregation {:.4} should be a small share of total {:.4}",
        timing.aggregation,
        timing.total()
    );
}

#[test]
fn traces_serialize_to_json_for_the_experiment_reports() {
    let mut cfg = base_config();
    cfg.iterations = 5;
    let trace = SimExecutor::new(cfg).run(SystemKind::Ssmw).unwrap();
    let json = trace.to_json();
    assert!(json.contains("\"system\":\"ssmw\""));
    // Any JSON reader sees the same run: its rounds, its final accuracy and
    // its simulated duration.
    let doc = json::parse(&json).unwrap();
    let list = |key| doc.get(key).and_then(Value::as_array).unwrap();
    let number = |item: &Value, key| item.get(key).and_then(Value::as_f64).unwrap();
    assert_eq!(list("iterations").len(), trace.len());
    let last = list("accuracy").last().unwrap();
    assert_eq!(number(last, "accuracy") as f32, trace.final_accuracy());
    let total: f64 = list("iterations")
        .iter()
        .map(|it| {
            number(it, "computation") + number(it, "communication") + number(it, "aggregation")
        })
        .sum();
    assert!((total - trace.total_time()).abs() < 1e-12);
}
