//! Bit-exact goldens of the simulated training loop, and the live executor
//! held to the same models.
//!
//! The hashes below were recorded from the seven per-system app structs this
//! repository used to have, on the commit before the single plan-interpreting
//! `Trainer` replaced them. They pin the whole observable behaviour of a sim
//! run — every timing and accuracy point of the trace (FNV-1a of
//! `TrainingTrace::to_json()`) and every replica's final model bits — so a
//! change to the loop that reorders one RNG draw, one float addition or one
//! `gradient_round` / `model_round` call fails here. The timings are
//! `SystemPlan::timing`; `Deployment`'s jitter draws only rank the replies,
//! which decides quorum membership in the asynchronous and contraction cells
//! below. A deliberate behaviour change re-records the hashes, and says so.
//!
//! Live traces carry wall-clock timings, so only the models and the
//! accuracy of a live run are held to the sim's.

use garfield::core::Trainer;
use garfield::runtime::{FaultPlan, LiveExecutor, LiveOptions};
use garfield::tensor::Tensor;
use garfield::{AttackKind, ExperimentConfig, GarKind, SystemKind};
use std::time::Duration;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the bits of `models`, one after the other.
fn model_hash(models: &[Tensor]) -> u64 {
    fnv1a(
        models
            .iter()
            .flat_map(|model| model.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

/// Every replica's final model, in replica order.
fn sim_models(trainer: &Trainer) -> Vec<Tensor> {
    let deployment = trainer.deployment();
    (0..deployment.server_count())
        .map(|replica| deployment.server(replica).honest().parameters())
        .collect()
}

/// `(trace hash, model hash)` of one sim run.
fn run(system: SystemKind, config: ExperimentConfig) -> (u64, u64) {
    let mut trainer = Trainer::new(system, config).unwrap();
    let trace = trainer.run().unwrap();
    (
        fnv1a(trace.to_json().bytes()),
        model_hash(&sim_models(&trainer)),
    )
}

fn base() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.iterations = 24;
    cfg.eval_every = 6;
    cfg.seed = 2021;
    cfg
}

/// The reversed-gradient cell: `fw` Byzantine workers against Multi-Krum.
fn reversed_attack() -> ExperimentConfig {
    let mut cfg = base();
    cfg.gradient_gar = GarKind::MultiKrum;
    cfg.actual_byzantine_workers = cfg.fw;
    cfg.worker_attack = Some(AttackKind::Reversed);
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
        assert_golden(system.as_str(), run(system, base()), trace, model);
    }
}

#[test]
fn reversed_gradient_attack_runs_match_the_recorded_apps() {
    for (system, trace, model) in REVERSED_ATTACK {
        assert_golden(
            system.as_str(),
            run(system, reversed_attack()),
            trace,
            model,
        );
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
    let got = run(SystemKind::Msmw, cfg);
    assert_golden("msmw", got, 0xf074d3dfedd263df, 0x45400a2660159638);
}

#[test]
fn decentralized_contraction_matches_the_recorded_app() {
    let mut cfg = base();
    cfg.synchronous = false;
    cfg.contraction_steps = 2;
    let got = run(SystemKind::Decentralized, cfg);
    assert_golden("decentralized", got, 0x14f80b4c9c74bc81, 0x5b641cb99069adf4);
}

/// Every system runs live and ends where the sim does. A live report keeps
/// the correct replicas only, and a single-server system runs one, so the
/// live models are the sim's first replicas bit for bit. Where those are
/// all the sim's replicas (crash-tolerant and MSMW in both cells,
/// decentralized fault-free), the live models hash to the golden itself.
/// Under the attack, decentralized's Byzantine replica is left out: its
/// model is not trained in the sim. AggregaThor is SSMW with Multi-Krum, so
/// at these configs its live model is SSMW's.
#[test]
fn live_runs_end_in_the_sim_goldens_on_every_system() {
    let mut whole_goldens = 0;
    for (cell, cfg, goldens) in [
        ("fault-free", base(), FAULT_FREE),
        ("reversed", reversed_attack(), REVERSED_ATTACK),
    ] {
        let mut live_hashes = Vec::new();
        for (system, _, golden) in goldens {
            let what = format!("{cell} {system}");
            let mut trainer = Trainer::new(system, cfg.clone()).unwrap();
            let sim_accuracy = trainer.run().unwrap().final_accuracy();
            let sim = sim_models(&trainer);
            let live = LiveExecutor::new(cfg.clone()).run_live(system).unwrap();
            assert_eq!(
                live.trace.final_accuracy(),
                sim_accuracy,
                "{what}: accuracy"
            );
            let live_hash = model_hash(&live.final_models);
            let replicas = live.final_models.len();
            assert_eq!(live_hash, model_hash(&sim[..replicas]), "{what}");
            if replicas == sim.len() {
                assert_eq!(live_hash, golden, "{what}: got {live_hash:#018x}");
                whole_goldens += 1;
            }
            live_hashes.push((system, live_hash));
        }
        let live = |wanted| live_hashes.iter().find(|&&(system, _)| system == wanted);
        assert_eq!(
            live(SystemKind::AggregaThor).unwrap().1,
            live(SystemKind::Ssmw).unwrap().1,
            "{cell}: AggregaThor is SSMW with Multi-Krum"
        );
    }
    assert_eq!(
        whole_goldens, 5,
        "replicated cells held to the golden itself"
    );
}

/// The cells of [`live_runs_end_in_the_sim_models_under_every_attack`]
/// whose live run is not the sim's. A live Byzantine worker draws its attack
/// RNG once per request, in arrival order; the sim draws once per replica,
/// in replica order. Where several replicas ask the same worker and the
/// attack is random, the draws land on other replicas (the `FOUND` on the
/// attack RNG's draw order in CHANGES.md).
const RNG_DRAW_ORDER_CELLS: [(AttackKind, SystemKind); 4] = [
    (AttackKind::Random, SystemKind::CrashTolerant),
    (AttackKind::LabelFlip, SystemKind::CrashTolerant),
    (AttackKind::PartialDrop, SystemKind::CrashTolerant),
    (AttackKind::PartialDrop, SystemKind::Decentralized),
];

/// One adversary on both substrates: under every attack of the catalog, at
/// the reversed cell's shape, every system's live run ends in the sim's
/// models bit for bit and at its accuracy. The collusion attacks see the
/// round's honest gradients live as they do in the sim.
#[test]
fn live_runs_end_in_the_sim_models_under_every_attack() {
    let mut diverged = Vec::new();
    for attack in AttackKind::all() {
        let mut cfg = reversed_attack();
        cfg.worker_attack = Some(attack);
        for system in SystemKind::all() {
            if RNG_DRAW_ORDER_CELLS.contains(&(attack, system)) {
                continue;
            }
            let mut trainer = Trainer::new(system, cfg.clone()).unwrap();
            let sim_accuracy = trainer.run().unwrap().final_accuracy();
            let sim = sim_models(&trainer);
            let live = LiveExecutor::new(cfg.clone()).run_live(system).unwrap();
            let replicas = live.final_models.len();
            if live.trace.final_accuracy() != sim_accuracy
                || model_hash(&live.final_models) != model_hash(&sim[..replicas])
            {
                diverged.push(format!("{attack} on {system}"));
            }
        }
    }
    assert!(diverged.is_empty(), "live is not the sim: {diverged:#?}");
}

/// A real crash of the crash-tolerant primary: every replica runs the loop
/// on the workers' gradients, so the backups never depended on it and end
/// bit-identical to the fault-free run. The short deadline bounds how long
/// the backups wait, after their last round, for the dead primary's
/// completion notice.
#[test]
fn crash_tolerant_fail_over_keeps_the_backups_on_the_fault_free_path() {
    let run = |faults: FaultPlan| {
        LiveExecutor::new(base())
            .with_options(LiveOptions {
                round_deadline: Duration::from_secs(2),
                ..LiveOptions::default()
            })
            .with_faults(faults)
            .run_live(SystemKind::CrashTolerant)
            .unwrap()
    };
    let smooth = run(FaultPlan::new());
    let crashed = run(FaultPlan::new().crash_server_at(0, 10));
    assert_eq!(
        crashed.trace.len(),
        10,
        "the primary's rounds before its crash"
    );
    assert_eq!(crashed.final_models.len(), 3);
    assert_eq!(
        model_hash(&crashed.final_models[1..]),
        model_hash(&smooth.final_models[1..]),
        "the backups must not notice the crash"
    );
    assert_ne!(
        model_hash(&crashed.final_models[..1]),
        model_hash(&smooth.final_models[..1]),
        "the primary stopped at round 10"
    );
}
