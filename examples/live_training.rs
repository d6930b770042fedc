//! Live-mode smoke run: every system that is valid at the example's config,
//! on the threaded actor runtime, each with an injected fault, compared
//! against the sim executor.
//!
//! ```console
//! cargo run --release --example live_training          # live + sim comparison
//! cargo run --release --example live_training sim      # sim substrate only
//! cargo run --release --example live_training live     # live substrate only
//! ```
//!
//! Every node of the live runs is a real OS thread; every gradient and model
//! is a length-prefixed byte message through the router. The telemetry block
//! printed per system is the proof: nonzero per-node message/byte counts.

use garfield::core::{Executor, SimExecutor, SystemKind};
use garfield::runtime::{FaultPlan, LiveExecutor, LiveOptions};
use garfield::{AttackKind, ExperimentConfig};
use std::time::Duration;

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 6; // n ≥ 4 workers; q = n − f keeps Multi-Krum fed (2f + 3 = 5)
    cfg.fw = 1;
    cfg.nps = 3;
    cfg.fps = 1;
    cfg.iterations = 30;
    cfg.eval_every = 10;
    cfg
}

/// The f ≥ 1 injected fault per system: a Byzantine worker for SSMW, a
/// crashed worker for MSMW (ridden out by the q = n − f asynchronous
/// quorum), and a straggler for the rest (which wait for all n replies).
/// The Byzantine worker is part of the experiment config, so the sim run has
/// it too.
fn fault_for(system: SystemKind) -> (ExperimentConfig, FaultPlan, LiveOptions, &'static str) {
    let defaults = LiveOptions::default();
    let mut cfg = config();
    match system {
        SystemKind::Ssmw => {
            cfg.actual_byzantine_workers = 1;
            cfg.worker_attack = Some(AttackKind::Reversed);
            (
                cfg,
                FaultPlan::new(),
                defaults,
                "worker 5 sends reversed×100 gradients",
            )
        }
        SystemKind::Msmw => (
            cfg,
            FaultPlan::new().crash_worker_at(5, 2),
            LiveOptions {
                gradient_quorum: Some(5), // q = n − f
                ..defaults
            },
            "worker 5 crashes at iteration 2, q = n − f = 5",
        ),
        _ => (
            cfg,
            FaultPlan::new().delay_worker(5, 3),
            defaults,
            "worker 5 is a 3 ms straggler",
        ),
    }
}

fn main() {
    let (run_sim, run_live) = match std::env::args().nth(1).as_deref() {
        None => (true, true),
        Some("sim") => (true, false),
        Some("live") => (false, true),
        Some(other) => {
            eprintln!("unknown execution mode '{other}' (expected 'sim' or 'live')");
            std::process::exit(2);
        }
    };

    println!("== live_training: threaded actor runtime vs analytic simulation ==");
    let cfg = config();
    println!(
        "   {} workers ({} declared Byzantine), {} server replicas, {} iterations\n",
        cfg.nw, cfg.fw, cfg.nps, cfg.iterations
    );

    for system in SystemKind::all() {
        println!("-- {system} --");
        if let Err(e) = cfg.validate(system) {
            println!("   skipped: {e}\n");
            continue;
        }
        let (cfg, faults, options, description) = fault_for(system);
        if run_sim {
            let trace = SimExecutor::new(cfg.clone())
                .run(system)
                .expect("sim run failed");
            println!(
                "   sim : final accuracy {:.3}, {:.1} updates/s (simulated time)",
                trace.final_accuracy(),
                trace.updates_per_second()
            );
        }
        if run_live {
            let mut live = LiveExecutor::new(cfg)
                .with_options(LiveOptions {
                    round_deadline: Duration::from_secs(5),
                    ..options
                })
                .with_faults(faults);
            let report = live.run_live(system).expect("live run failed");
            println!(
                "   live: final accuracy {:.3}, {:.1} updates/s (wall clock), fault: {description}",
                report.trace.final_accuracy(),
                report.trace.len() as f64
                    / report
                        .telemetry
                        .round_latencies
                        .iter()
                        .sum::<f64>()
                        .max(1e-9)
            );
            println!(
                "   live telemetry: {} messages, {:.2} MiB across {} nodes, mean round {:.2} ms",
                report.telemetry.total_messages(),
                report.telemetry.total_bytes() as f64 / (1024.0 * 1024.0),
                report.telemetry.nodes.len(),
                report.telemetry.mean_round_latency() * 1e3
            );
            for node in &report.telemetry.nodes {
                println!(
                    "     node {:>2} ({:?}): sent {:>4} msgs / {:>9} B, received {:>4} msgs / {:>9} B, on-wire {:>9} B to {} peers",
                    node.node,
                    node.role,
                    node.messages_sent,
                    node.bytes_sent,
                    node.messages_received,
                    node.bytes_received,
                    node.wire_bytes_sent(),
                    node.peers.len(),
                );
            }
            assert!(
                report
                    .telemetry
                    .nodes
                    .iter()
                    .all(|n| n.messages_sent > 0 && n.bytes_sent > 0),
                "every node (even faulted ones, which act before failing) must move real bytes"
            );
        }
        println!();
    }
    println!("done: live training completed through real router messages.");
}
