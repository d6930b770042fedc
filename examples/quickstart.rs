//! Quickstart: make a distributed training job Byzantine-resilient.
//!
//! This example mirrors Listing 1 of the paper (SSMW): a single trusted
//! parameter server, several workers — one of which sends reversed, amplified
//! gradients — and Multi-Krum aggregation filtering the attack out. It then
//! runs the identical deployment with plain averaging to show why the robust
//! GAR matters.
//!
//! Run with: `cargo run --release --example quickstart`

use garfield::{AttackKind, Executor, ExperimentConfig, GarKind, SimExecutor, SystemKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::small();
    config.iterations = 60;
    config.eval_every = 10;
    config.gradient_gar = GarKind::MultiKrum;
    config.actual_byzantine_workers = 1;
    config.worker_attack = Some(AttackKind::Reversed);

    println!("Garfield-rs quickstart");
    println!(
        "  {} workers ({} Byzantine, attack: reversed x(-100)), model '{}'\n",
        config.nw, config.actual_byzantine_workers, config.model
    );

    let mut sim = SimExecutor::new(config);

    // Byzantine-resilient deployment (SSMW, Multi-Krum).
    let robust = sim.run(SystemKind::Ssmw)?;
    println!("SSMW with Multi-Krum (Byzantine-resilient):");
    for point in &robust.accuracy {
        println!(
            "  iteration {:>3}  accuracy {:.3}  loss {:.3}",
            point.iteration, point.accuracy, point.loss
        );
    }
    println!(
        "  final accuracy {:.3}, throughput {:.2} updates/s (simulated)\n",
        robust.final_accuracy(),
        robust.updates_per_second()
    );

    // The same cluster with vanilla averaging collapses under the attack.
    let vanilla = sim.run(SystemKind::Vanilla)?;
    println!("Vanilla averaging under the same attack:");
    println!("  final accuracy {:.3}", vanilla.final_accuracy());
    println!(
        "\nByzantine resilience kept {:.0}% accuracy where averaging kept {:.0}%.",
        100.0 * robust.final_accuracy(),
        100.0 * vanilla.final_accuracy()
    );
    Ok(())
}
