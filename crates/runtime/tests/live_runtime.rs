//! Integration tests of the threaded live runtime: liveness under faults,
//! determinism of the aggregation path, and agreement with the sim executor.

use garfield_core::{Executor, ExperimentConfig, SimExecutor, SystemKind};
use garfield_net::Role;
use garfield_runtime::{executor_for, FaultPlan, LiveExecutor, LiveOptions};

/// A small, fast live configuration: 5 workers, tiny model.
fn live_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.nps = 3;
    cfg.fps = 1;
    cfg.iterations = 8;
    cfg.eval_every = 4;
    cfg
}

#[test]
fn live_run_with_f_crashed_workers_and_q_equals_n_minus_f_completes() {
    // The asynchronous liveness condition: with q = n − f, a server never
    // waits on the f crashed workers and completes every iteration.
    // nw = 6 keeps Multi-Krum satisfied at the reduced quorum (q = 5 ≥ 2f + 3).
    let mut cfg = live_config();
    cfg.nw = 6;
    let n = cfg.nw;
    let f = cfg.fw;
    let faults = FaultPlan::new().crash_worker_at(n - 1, 1); // f = 1 crash
    let mut live = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            gradient_quorum: Some(n - f),
            ..LiveOptions::default()
        })
        .with_faults(faults);
    let report = live.run_live(SystemKind::Ssmw).unwrap();
    assert_eq!(report.trace.len(), 8, "all iterations must complete");
    assert!(report.trace.final_accuracy() > 0.5);
    // The crashed worker replied during iteration 0, then went silent: it
    // sent at least one message but far fewer than the live workers.
    let workers: Vec<_> = report.telemetry.nodes_with_role(Role::Worker).collect();
    let crashed = workers.iter().max_by_key(|w| w.node).unwrap();
    let live_max = workers
        .iter()
        .filter(|w| w.node != crashed.node)
        .map(|w| w.messages_sent)
        .max()
        .unwrap();
    assert!(crashed.messages_sent >= 1 && crashed.messages_sent < live_max);
}

#[test]
fn restarted_worker_rejoins_and_contributes_again() {
    // RestartAt is the scenario CrashAt cannot express: the worker dies at
    // iteration 2 (its transport really goes silent and its inbox is
    // replaced), sits out iterations 2..5, then serves again from
    // iteration 5. With q = n − 1 the run never stalls, and the rejoined
    // worker's reply counter proves it contributed after coming back.
    let mut cfg = live_config();
    cfg.nw = 6; // q = 5 keeps Multi-Krum satisfied (2f + 3 = 5)
    cfg.iterations = 10;
    let n = cfg.nw;
    let (crash, rejoin) = (2usize, 5usize);
    let restarted_rank = n - 1;
    let faults = FaultPlan::new().restart_worker_at(restarted_rank, crash, rejoin);
    let mut live = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            gradient_quorum: Some(n - 1),
            request_retry: std::time::Duration::from_millis(100),
            ..LiveOptions::default()
        })
        .with_faults(faults);
    let report = live.run_live(SystemKind::Ssmw).unwrap();
    assert_eq!(report.trace.len(), 10, "all iterations must complete");
    assert!(report.trace.final_accuracy() > 0.5);

    let workers: Vec<_> = report.telemetry.nodes_with_role(Role::Worker).collect();
    let restarted = workers.iter().max_by_key(|w| w.node).unwrap();
    assert_eq!(restarted.resumes, 1, "exactly one rejoin must be recorded");
    // Replies before the crash (rounds 0..crash) plus replies after the
    // rejoin (rounds rejoin..iterations); re-requests may add duplicates,
    // never remove contributions. Round `rejoin` itself can race the
    // re-registration: with q = n − 1 the other five workers form quorum
    // alone, so that one boundary round may legitimately go unanswered.
    let min_replies = (crash + (10 - rejoin) - 1) as u64;
    assert!(
        restarted.messages_sent >= min_replies,
        "rejoined worker sent {} replies, expected at least {min_replies}",
        restarted.messages_sent
    );
    for w in &workers {
        if w.node != restarted.node {
            assert_eq!(w.resumes, 0);
        }
    }
}

#[test]
fn restarted_server_replica_catches_up_via_state_transfer_bit_exactly() {
    // MSMW with a *server* replica that dies and comes back. While it is
    // down it keeps serving its stale crash-time snapshot (a straggler —
    // covered by the fps tolerance of the model GAR), so its peers never
    // stall; on rejoin it pulls a StateChunk from the fastest live peer and
    // adopts that replica's model + optimizer state. Because synchronous
    // full-quorum replicas evolve in lockstep, adopting a peer's state puts
    // the restarted replica back in lockstep: all three final models must
    // agree bit for bit.
    let mut cfg = live_config(); // nps = 3, fps = 1, synchronous (q = nw)
    cfg.iterations = 10;
    let faults = FaultPlan::new().restart_server_at(2, 3, 6);
    let mut live = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            request_retry: std::time::Duration::from_millis(100),
            ..LiveOptions::default()
        })
        .with_faults(faults);
    let report = live.run_live(SystemKind::Msmw).unwrap();
    assert_eq!(report.trace.len(), 10, "the observer completes every round");
    assert_eq!(report.final_models.len(), 3);
    let bits: Vec<Vec<u32>> = report
        .final_models
        .iter()
        .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    assert_eq!(bits[0], bits[1], "peers stay in lockstep");
    assert_eq!(
        bits[0], bits[2],
        "the restarted replica must catch up bit-exactly via state transfer"
    );

    let servers: Vec<_> = report.telemetry.nodes_with_role(Role::Server).collect();
    let restarted = servers.iter().find(|s| s.node == 2).unwrap();
    assert_eq!(restarted.resumes, 1);
    assert_eq!(restarted.state_chunks_received, 1);
    let served: u64 = servers.iter().map(|s| s.state_chunks_served).sum();
    assert!(served >= 1, "some live peer must have served the state");
}

#[test]
fn live_run_without_quorum_reports_a_liveness_failure() {
    // q = n with a crashed worker can never gather the quorum: the deadline
    // must convert the stall into an error instead of blocking forever.
    let mut cfg = live_config();
    cfg.iterations = 2;
    let faults = FaultPlan::new().crash_worker_at(0, 0);
    let mut live = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            round_deadline: std::time::Duration::from_millis(300),
            ..LiveOptions::default()
        })
        .with_faults(faults);
    let err = live.run_live(SystemKind::Vanilla).unwrap_err();
    assert!(err.to_string().contains("liveness"), "got: {err}");
}

#[test]
fn same_seed_live_runs_produce_identical_final_models() {
    // Thread scheduling changes message arrival order between runs; the
    // aggregation path must be order-independent (replies sorted by node id),
    // so two same-seed MSMW runs end with bit-identical replicas.
    let run = || {
        let mut live = LiveExecutor::new(live_config());
        live.run_live(SystemKind::Msmw).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.final_models.len(), 3);
    assert_eq!(first.final_models, second.final_models);
    assert_eq!(first.trace.accuracy.len(), second.trace.accuracy.len());
    for (a, b) in first.trace.accuracy.iter().zip(&second.trace.accuracy) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.loss, b.loss);
    }
}

#[test]
fn fault_free_live_matches_sim_accuracy_on_every_system() {
    // Same deployment objects, same aggregation inputs in the same order:
    // the live substrate must reproduce the sim learning trajectory.
    let mut bytes = Vec::new();
    for system in [
        SystemKind::Vanilla,
        SystemKind::Ssmw,
        SystemKind::Msmw,
        SystemKind::Speculative,
    ] {
        let cfg = live_config();
        let sim_trace = SimExecutor::new(cfg.clone()).run(system).unwrap();
        let mut live = LiveExecutor::new(cfg);
        let report = live.run_live(system).unwrap();
        assert_eq!(report.trace.len(), sim_trace.len(), "{system}");
        assert_eq!(
            report.trace.final_accuracy(),
            sim_trace.final_accuracy(),
            "{system}: live and sim should agree exactly on a fault-free run"
        );
        assert!(
            report.telemetry.all_nodes_active(),
            "{system}: every node must have sent and received messages"
        );
        assert!(report.telemetry.total_bytes() > 0);
        assert_eq!(report.telemetry.round_latencies.len(), cfg_iterations());
        let telemetry = &report.telemetry;
        // The router frames nothing, so on-wire bytes equal payload bytes;
        // a healthy fault-free run drops, re-asks and recovers nothing.
        assert_eq!(
            telemetry.total_wire_bytes(),
            telemetry.total_bytes(),
            "{system}"
        );
        assert_eq!(telemetry.total_dropped(), 0, "{system}");
        assert_eq!(telemetry.total_requests_retried(), 0, "{system}");
        assert_eq!(telemetry.total_resumes(), 0, "{system}");
        bytes.push(telemetry.total_bytes());
    }
    assert!(
        bytes[2] > bytes[1],
        "MSMW replicates the server, so it must move more bytes than SSMW"
    );
}

fn cfg_iterations() -> usize {
    live_config().iterations
}

#[test]
fn byzantine_payload_rewrite_is_tolerated_by_ssmw_but_not_vanilla() {
    // The FaultPlan's Byzantine rewrite corrupts gradients on the wire path;
    // Multi-Krum filters it out, plain averaging is destroyed by it.
    let mut cfg = live_config();
    cfg.iterations = 30;
    cfg.eval_every = 10;
    let faults = || FaultPlan::new().byzantine_worker(0, garfield_attacks::AttackKind::Reversed);
    let robust = LiveExecutor::new(cfg.clone())
        .with_faults(faults())
        .run_live(SystemKind::Ssmw)
        .unwrap();
    assert!(
        robust.trace.final_accuracy() > 0.5,
        "SSMW should survive the rewrite, got {}",
        robust.trace.final_accuracy()
    );
    let fragile = LiveExecutor::new(cfg)
        .with_faults(faults())
        .run_live(SystemKind::Vanilla)
        .unwrap();
    assert!(
        fragile.trace.final_accuracy() < robust.trace.final_accuracy(),
        "vanilla averaging should suffer more than SSMW under the rewrite"
    );
}

#[test]
fn delayed_workers_are_left_behind_by_partial_quorums() {
    // A straggler delayed beyond the round deadline must not stall a
    // q = n − f run. The check is structural, not a wall-clock assertion: the
    // deadline (800 ms) is far above an honest round (~1 ms, generous slack
    // for loaded CI machines) but below the straggler's 2 s delay, so any
    // round that waited for the straggler would time out with a liveness
    // error — completing all iterations proves the quorum left it behind.
    let mut cfg = live_config();
    cfg.nw = 6; // q = 5 keeps Multi-Krum satisfied (2f + 3 = 5)
    cfg.iterations = 2; // bounds the straggler's reply backlog at shutdown
    let n = cfg.nw;
    let f = cfg.fw;
    let mut live = LiveExecutor::new(cfg)
        .with_options(LiveOptions {
            gradient_quorum: Some(n - f),
            round_deadline: std::time::Duration::from_millis(800),
            ..LiveOptions::default()
        })
        .with_faults(FaultPlan::new().delay_worker(0, 2_000));
    let report = live.run_live(SystemKind::Ssmw).unwrap();
    assert_eq!(report.trace.len(), 2);
}

#[test]
fn executor_trait_selects_sim_or_live_for_the_same_experiment() {
    let mut cfg = live_config();
    cfg.iterations = 4;
    cfg.eval_every = 2;
    let mut by_mode = Vec::new();
    for mode in [garfield_core::ExecMode::Sim, garfield_core::ExecMode::Live] {
        let mut executor = executor_for(mode, cfg.clone());
        assert_eq!(executor.name(), mode.as_str());
        let trace = executor.run(SystemKind::Ssmw).unwrap();
        assert_eq!(trace.len(), 4);
        by_mode.push(trace);
    }
    assert_eq!(
        by_mode[0].final_accuracy(),
        by_mode[1].final_accuracy(),
        "both substrates must learn the same model fault-free"
    );
}

#[test]
fn unsupported_systems_are_rejected_up_front() {
    let mut live = LiveExecutor::new(live_config());
    let err = live.run_live(SystemKind::Decentralized).unwrap_err();
    assert!(err.to_string().contains("live runtime"));
    assert!(live.last_report().is_none());
}
