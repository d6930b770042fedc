//! Integration tests of the sharded parameter server: the flagship contract
//! is that a sharded full-quorum run produces a final model **bit-identical**
//! to the unsharded run of the same seed, for every coordinate-decomposable
//! GAR — with and without crashed workers.
//!
//! Why the contract holds: at full quorum every shard server collects the
//! same sorted-by-id reply membership each round; a coordinate-decomposable
//! GAR applied to a slice equals the slice of the GAR applied to the full
//! vectors; and SGD steps element-wise — so stitching the shard slices back
//! together reproduces the unsharded trajectory exactly, round by round.

use garfield_aggregation::GarKind;
use garfield_core::{ExperimentConfig, SystemKind};
use garfield_net::Role;
use garfield_runtime::{FaultPlan, LiveExecutor, LiveOptions};
use garfield_tensor::Tensor;

fn config(shards: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.iterations = 8;
    cfg.eval_every = 4;
    // Median decomposes per coordinate (unlike the distance-based rules,
    // which config validation rejects when shards > 1).
    cfg.gradient_gar = GarKind::Median;
    cfg.shards = shards;
    cfg
}

fn bits(model: &Tensor) -> Vec<u32> {
    model.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sharded_full_quorum_runs_are_bit_identical_to_unsharded() {
    // Vanilla always averages (decomposable); SSMW runs the configured
    // median.
    for system in [SystemKind::Vanilla, SystemKind::Ssmw] {
        let reference = LiveExecutor::new(config(1))
            .run_live(system)
            .unwrap_or_else(|e| panic!("{system} unsharded: {e}"));
        assert_eq!(reference.final_models.len(), 1);
        for shards in [2, 3] {
            let report = LiveExecutor::new(config(shards))
                .run_live(system)
                .unwrap_or_else(|e| panic!("{system} x{shards}: {e}"));
            assert_eq!(
                report.final_models.len(),
                1,
                "{system} x{shards}: shard slices must be stitched into one model"
            );
            assert_eq!(
                bits(&report.final_models[0]),
                bits(&reference.final_models[0]),
                "{system} x{shards}: sharded and unsharded runs must agree bit for bit"
            );
            // One server thread per shard really ran.
            let servers = report.telemetry.nodes_with_role(Role::Server).count();
            assert_eq!(servers, shards, "{system} x{shards}");
            assert_eq!(report.trace.len(), 8, "{system} x{shards}");
        }
    }
}

#[test]
fn sharded_run_with_f_crashed_workers_stays_bit_identical() {
    // The acceptance case: q = n − f with the last worker dead from round 0.
    // Every round then collects exactly the n − f survivors — deterministic
    // membership — so the bit-identity contract extends to crash faults.
    let run = |shards: usize| {
        let mut cfg = config(shards);
        cfg.nw = 6;
        let (n, f) = (cfg.nw, cfg.fw);
        LiveExecutor::new(cfg)
            .with_options(LiveOptions {
                gradient_quorum: Some(n - f),
                ..LiveOptions::default()
            })
            .with_faults(FaultPlan::new().crash_worker_at(n - 1, 0))
            .run_live(SystemKind::Ssmw)
            .unwrap()
    };
    let reference = run(1);
    assert_eq!(reference.trace.len(), 8, "the crash must not cost liveness");
    for shards in [2, 3] {
        let report = run(shards);
        assert_eq!(report.trace.len(), 8, "x{shards}");
        assert_eq!(
            bits(&report.final_models[0]),
            bits(&reference.final_models[0]),
            "x{shards}: crashed-worker sharded run must match the unsharded one"
        );
    }
}

#[test]
fn shard_servers_score_suspicion_per_shard() {
    // A Byzantine worker reversing its gradient is scored by every shard
    // server on its own slice; the report surfaces the observer shard's
    // ledger, where the attacker must rank strictly most-suspicious.
    let mut cfg = config(3);
    cfg.iterations = 12;
    cfg.actual_byzantine_workers = 1;
    cfg.worker_attack = Some(garfield_attacks::AttackKind::Reversed);
    let byzantine_rank = cfg.nw - 1; // the config attacker is the last worker
    let byzantine_id = (cfg.shards + byzantine_rank) as u32; // servers first
    let report = LiveExecutor::new(cfg).run_live(SystemKind::Ssmw).unwrap();
    let worst = report
        .suspicion
        .iter()
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .expect("the observer shard scored its workers");
    assert_eq!(
        worst.peer, byzantine_id,
        "the reversed worker must top shard 0's suspicion ranking"
    );
}

#[test]
fn sharded_runs_reject_non_decomposable_gars_up_front() {
    let mut cfg = config(2);
    cfg.gradient_gar = GarKind::MultiKrum;
    let err = LiveExecutor::new(cfg)
        .run_live(SystemKind::Ssmw)
        .unwrap_err();
    assert!(
        err.to_string().contains("coordinate-decomposable"),
        "got: {err}"
    );
}
