//! Deterministic-seed regression tests.
//!
//! Every source of randomness in the workspace (data synthesis, weight
//! initialisation, attacks, network jitter) derives from `ExperimentConfig::seed`,
//! so two runs of the same configuration must produce bit-identical traces.
//! This guards future performance refactors against silently introducing
//! nondeterminism (e.g. iteration-order or threading changes).

use garfield::{AttackKind, Executor, ExperimentConfig, SimExecutor, SystemKind};

fn quick_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.iterations = 8;
    cfg.eval_every = 4;
    cfg
}

/// Bit-exact trace comparison via the canonical JSON encoding (the trace
/// struct intentionally does not implement `Eq` because of its floats).
fn assert_identical(a: &garfield::TrainingTrace, b: &garfield::TrainingTrace, what: &str) {
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "{what} diverged between identically-seeded runs"
    );
}

#[test]
fn every_system_is_deterministic_under_a_fixed_seed() {
    let mut sim = SimExecutor::new(quick_config());
    for system in SystemKind::all() {
        let first = sim.run(system).unwrap();
        let second = sim.run(system).unwrap();
        assert_identical(&first, &second, system.as_str());
    }
}

#[test]
fn two_controllers_with_the_same_config_agree() {
    let a = SimExecutor::new(quick_config())
        .run(SystemKind::Ssmw)
        .unwrap();
    let b = SimExecutor::new(quick_config())
        .run(SystemKind::Ssmw)
        .unwrap();
    assert_identical(&a, &b, "ssmw");
}

#[test]
fn determinism_holds_under_byzantine_attacks() {
    let mut cfg = quick_config();
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(AttackKind::Random); // a *stochastic* attack
    let mut sim = SimExecutor::new(cfg);
    for system in [SystemKind::Ssmw, SystemKind::Msmw] {
        let first = sim.run(system).unwrap();
        let second = sim.run(system).unwrap();
        assert_identical(&first, &second, system.as_str());
    }
}

#[test]
fn changing_the_seed_changes_the_run() {
    let mut cfg = quick_config();
    cfg.seed = 1;
    let a = SimExecutor::new(cfg.clone()).run(SystemKind::Ssmw).unwrap();
    cfg.seed = 2;
    let b = SimExecutor::new(cfg).run(SystemKind::Ssmw).unwrap();
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "different seeds should produce observably different traces"
    );
}

#[test]
fn trace_json_is_a_stable_canonical_encoding() {
    let trace = SimExecutor::new(quick_config())
        .run(SystemKind::Vanilla)
        .unwrap();
    let json = trace.to_json();
    assert_eq!(
        trace.clone().to_json(),
        json,
        "encoding must be a pure function"
    );
    // The encoding is a valid document whose generic re-encoding reads back
    // to the same values: parse -> write_value -> parse is a fixed point.
    let doc = garfield::core::json::parse(&json).unwrap();
    let mut rewritten = String::new();
    garfield::core::json::write_value(&mut rewritten, &doc);
    assert_eq!(garfield::core::json::parse(&rewritten).unwrap(), doc);
}
