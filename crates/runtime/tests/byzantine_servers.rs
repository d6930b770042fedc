//! A Byzantine server replica, live: MSMW with one config-attacked replica
//! out of three, for every attack in the catalog.
//!
//! At full quorum each correct replica Median-merges three models per
//! round: its own, the other correct replica's and the attacker's. The two
//! correct ones are bit-identical after every merge, and a coordinate-wise
//! Median over `{a, a, x}` is `a` whatever `x` is, NaN included. So the
//! attacker cannot move a correct replica by a single bit: the correct
//! replicas' final models equal replicas 0 and 1 of the fault-free run.
//! The attacker corrupts only the models it serves to peers; its own
//! merged state, and so the model in its gradient requests, stays honest,
//! so every worker still computes once per round and reuses the gradient
//! for the other two replicas.

use garfield_aggregation::GarKind;
use garfield_attacks::AttackKind;
use garfield_core::{ExperimentConfig, SystemKind};
use garfield_net::Role;
use garfield_runtime::{LiveExecutor, LiveReport};

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

fn run(cfg: ExperimentConfig) -> LiveReport {
    LiveExecutor::new(cfg).run_live(SystemKind::Msmw).unwrap()
}

fn bits(report: &LiveReport) -> Vec<Vec<u32>> {
    report
        .final_models
        .iter()
        .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn a_byzantine_replica_moves_no_correct_replica_by_a_bit() {
    let reference = run(config());
    let want = bits(&reference);
    assert_eq!(want.len(), 3, "the fault-free run reports every replica");
    let reuse = (config().nps as u64 - 1) * ROUNDS as u64;
    let mut failures = Vec::new();
    for kind in AttackKind::all() {
        let mut cfg = config();
        cfg.actual_byzantine_servers = 1;
        cfg.server_attack = Some(kind);
        let report = run(cfg.clone());
        assert_eq!(report.trace.len(), ROUNDS, "{kind:?}");
        // The attacker is the last replica; the report keeps the others.
        if bits(&report) != want[..2] {
            failures.push(format!("{kind:?}: a correct replica's final model moved"));
        }
        let reused: Vec<u64> = report
            .telemetry
            .nodes_with_role(Role::Worker)
            .map(|w| w.gradients_reused)
            .collect();
        if reused != vec![reuse; cfg.nw] {
            failures.push(format!(
                "{kind:?}: gradients reused {reused:?}, want {reuse} each"
            ));
        }
        let retried = report.telemetry.total_requests_retried();
        if retried != 0 {
            failures.push(format!("{kind:?}: {retried} requests retried"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
