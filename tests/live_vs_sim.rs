//! Facade-level check that the two execution substrates are interchangeable:
//! the same experiment, run through the `garfield::Executor` trait, learns the
//! same model whether iterations are simulated or executed by real threads.

use garfield::net::Role;
use garfield::{Executor, ExperimentConfig, LiveExecutor, SimExecutor, SystemKind};

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 5;
    cfg.iterations = 6;
    cfg.eval_every = 3;
    cfg
}

#[test]
fn the_facade_exposes_both_substrates_behind_one_trait() {
    let executors: [(&str, Box<dyn Executor>); 2] = [
        ("sim", Box::new(SimExecutor::new(config()))),
        ("live", Box::new(LiveExecutor::new(config()))),
    ];
    let mut accuracies = Vec::new();
    for (name, mut executor) in executors {
        let trace = executor.run(SystemKind::Vanilla).unwrap();
        assert_eq!(trace.len(), 6, "{name}");
        accuracies.push(trace.final_accuracy());
    }
    assert_eq!(accuracies[0], accuracies[1]);
}

#[test]
fn a_live_run_moves_real_bytes_through_every_node() {
    let mut live = LiveExecutor::new(config());
    let report = live.run_live(SystemKind::Ssmw).unwrap();
    assert!(report.telemetry.all_nodes_active());
    assert_eq!(report.telemetry.nodes_with_role(Role::Server).count(), 1);
    assert_eq!(report.telemetry.nodes_with_role(Role::Worker).count(), 5);
    assert!(report.telemetry.total_bytes() > 0);
    assert_eq!(report.trace.len(), 6);
}
