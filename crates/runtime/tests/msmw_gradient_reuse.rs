//! MSMW workers answer every server replica of a round from one gradient.
//!
//! At full quorum the `nps` replicas hold bit-identical models after each
//! Median merge, so all but the first of a worker's `nps` requests per round
//! carry the same model bytes and the worker reuses its honest gradient
//! instead of recomputing it. The reuse must not be observable in the
//! results: the final-model hashes below were recorded by this same test
//! body on the commit before workers had a request memo; the
//! `LittleIsEnough` cell was re-recorded when the live attacker began to
//! see the round's honest gradients, and equals the sim's model hash for
//! that config. Byzantine workers still corrupt once per request (one
//! attack-RNG draw each), so the `Random` cell fails against a memo that
//! caches the *sent* vector.

use garfield_aggregation::GarKind;
use garfield_attacks::AttackKind;
use garfield_core::{ExperimentConfig, SystemKind};
use garfield_net::Role;
use garfield_runtime::{FaultPlan, LiveExecutor, LiveReport};

const ROUNDS: usize = 6;

/// `nps` 3, `fps` 1, `nw` 5 at full quorum (synchronous), tiny model.
fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.nps = 3;
    cfg.fps = 1;
    cfg.iterations = ROUNDS;
    cfg.eval_every = 3;
    cfg.gradient_gar = GarKind::Median;
    cfg
}

/// The same config with one worker Byzantine by config attack.
fn config_attack(attack: AttackKind) -> ExperimentConfig {
    let mut cfg = config();
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(attack);
    cfg
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(system: SystemKind, cfg: ExperimentConfig, faults: FaultPlan) -> LiveReport {
    let report = LiveExecutor::new(cfg)
        .with_faults(faults)
        .run_live(system)
        .unwrap();
    assert_eq!(report.trace.len(), ROUNDS);
    assert_eq!(
        report.telemetry.total_requests_retried(),
        0,
        "a re-sent request would be answered twice"
    );
    report
}

/// FNV-1a of every honest replica's final model bits, in replica order.
fn models_hash(report: &LiveReport) -> u64 {
    fnv1a(
        report
            .final_models
            .iter()
            .flat_map(|m| m.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

/// Each worker's `gradients_reused`, in worker order.
fn reuse_per_worker(report: &LiveReport) -> Vec<u64> {
    report
        .telemetry
        .nodes_with_role(Role::Worker)
        .map(|w| w.gradients_reused)
        .collect()
}

#[test]
fn msmw_final_models_hold_their_recorded_hashes() {
    let cases = [
        (
            "fault-free",
            config(),
            FaultPlan::new(),
            0xd928_ecf9_05c2_df6a,
        ),
        (
            "config Random worker",
            config_attack(AttackKind::Random),
            FaultPlan::new(),
            0xe415_9b1f_235b_b85e,
        ),
        (
            "config LittleIsEnough worker",
            config_attack(AttackKind::LittleIsEnough),
            FaultPlan::new(),
            0xf302_317f_5e80_3525,
        ),
        (
            "config PartialDrop worker",
            config_attack(AttackKind::PartialDrop),
            FaultPlan::new(),
            0x8ead_477a_025e_2e2c,
        ),
    ];
    let mut failures = Vec::new();
    for (what, cfg, faults, want) in cases {
        let report = run(SystemKind::Msmw, cfg.clone(), faults);
        let got = models_hash(&report);
        if got != want {
            failures.push(format!("{what}: got {got:#018x}, recorded {want:#018x}"));
        }
        // Every replica's round starts from the same merged model, so each
        // worker computes once per round and reuses for the other replicas.
        let reuse = (cfg.nps as u64 - 1) * ROUNDS as u64;
        assert_eq!(reuse_per_worker(&report), vec![reuse; cfg.nw], "{what}");
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn a_single_server_never_reuses_a_gradient() {
    let report = run(SystemKind::Ssmw, config(), FaultPlan::new());
    assert_eq!(reuse_per_worker(&report), vec![0; config().nw]);
}
