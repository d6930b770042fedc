//! Bit-exact goldens of the simulated training loop.
//!
//! The hashes below were recorded from the seven per-system app structs this
//! repository used to have, on the commit before the single plan-interpreting
//! `Trainer` replaced them. They pin the whole observable behaviour of a sim
//! run — every timing and accuracy point of the trace (FNV-1a of
//! `TrainingTrace::to_json()`) and every replica's final model bits — so a
//! change to the loop that reorders one RNG draw, one float addition or one
//! `gradient_round` / `model_round` call fails here. The timings are
//! `SystemPlan::timing` plus the fail-over broadcast; `Deployment`'s jitter
//! draws only rank the replies, which decides quorum membership in the
//! asynchronous and contraction cells below. A deliberate behaviour change
//! re-records the hashes, and says so.

use garfield::core::Trainer;
use garfield::{AttackKind, ExperimentConfig, GarKind, SystemKind};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(trace hash, model hash)` of one run; `crash_at` schedules a primary crash.
fn run(system: SystemKind, config: ExperimentConfig, crash_at: Option<usize>) -> (u64, u64) {
    let mut trainer = Trainer::new(system, config).unwrap();
    if let Some(iteration) = crash_at {
        trainer = trainer.with_primary_crash_at(iteration);
    }
    let trace = trainer.run().unwrap();
    let deployment = trainer.deployment();
    let models = (0..deployment.server_count()).flat_map(|replica| {
        let model = deployment.server(replica).honest().parameters().into_vec();
        model.into_iter().flat_map(|v| v.to_bits().to_le_bytes())
    });
    (fnv1a(trace.to_json().bytes()), fnv1a(models))
}

fn base() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.iterations = 24;
    cfg.eval_every = 6;
    cfg.seed = 2021;
    cfg
}

fn assert_golden(what: &str, got: (u64, u64), trace: u64, model: u64) {
    assert_eq!(
        got,
        (trace, model),
        "{what}: got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

#[rustfmt::skip]
const FAULT_FREE: [(SystemKind, u64, u64); 6] = [
    (SystemKind::Vanilla,       0xed17a919719d7f5d, 0xf01ed0130c9f1c16),
    (SystemKind::CrashTolerant, 0x5ff6d4d09fab1cf5, 0xecb928856dc594fa),
    (SystemKind::Ssmw,          0x207ee0871452928c, 0xc4738483a4e266d5),
    (SystemKind::Msmw,          0x2956f7c1f9f03a3c, 0x93cb88b2922835d9),
    (SystemKind::Decentralized, 0xf614d0b0cebb1e11, 0x82500b2758a48159),
    (SystemKind::AggregaThor,   0xd27ba0ce9671c987, 0xc4738483a4e266d5),
];

#[rustfmt::skip]
const REVERSED_ATTACK: [(SystemKind, u64, u64); 6] = [
    (SystemKind::Vanilla,       0x4e69c5b1bf17c6f7, 0xc1f1d9024bc1710d),
    (SystemKind::CrashTolerant, 0xbf7aa2d45dfa5331, 0xbac3d80ca23cf791),
    (SystemKind::Ssmw,          0xe950be0de7f284c8, 0xd3c812ff7e072356),
    (SystemKind::Msmw,          0xa930e06525f44ca4, 0x846434e382a4d5fe),
    (SystemKind::Decentralized, 0x1fa4fdf5a029bd27, 0x20145c97bdba7043),
    (SystemKind::AggregaThor,   0xd741ce2cd111f3d9, 0xd3c812ff7e072356),
];

#[test]
fn fault_free_runs_match_the_recorded_apps() {
    for (system, trace, model) in FAULT_FREE {
        assert_golden(system.as_str(), run(system, base(), None), trace, model);
    }
}

#[test]
fn reversed_gradient_attack_runs_match_the_recorded_apps() {
    for (system, trace, model) in REVERSED_ATTACK {
        let mut cfg = base();
        cfg.gradient_gar = GarKind::MultiKrum;
        cfg.actual_byzantine_workers = cfg.fw;
        cfg.worker_attack = Some(AttackKind::Reversed);
        assert_golden(system.as_str(), run(system, cfg, None), trace, model);
    }
}

#[test]
fn msmw_with_a_byzantine_server_matches_the_recorded_app() {
    // Asynchronous quorums, so the replicas really diverge and the Median
    // merge really has a corrupted model to reject.
    let mut cfg = base();
    cfg.synchronous = false;
    cfg.actual_byzantine_servers = 1;
    cfg.server_attack = Some(AttackKind::Random);
    let got = run(SystemKind::Msmw, cfg, None);
    assert_golden("msmw", got, 0xf074d3dfedd263df, 0x45400a2660159638);
}

#[test]
fn decentralized_contraction_matches_the_recorded_app() {
    let mut cfg = base();
    cfg.synchronous = false;
    cfg.contraction_steps = 2;
    let got = run(SystemKind::Decentralized, cfg, None);
    assert_golden("decentralized", got, 0x14f80b4c9c74bc81, 0x5b641cb99069adf4);
}

#[test]
fn crash_tolerant_fail_over_matches_the_recorded_app() {
    let got = run(SystemKind::CrashTolerant, base(), Some(10));
    assert_golden("crash", got, 0x813271ec0ac11735, 0x27ae721208235486);
}
