//! Decentralized (peer-to-peer) Byzantine learning on non-IID data (§5.3).
//!
//! Eight devices collaborate without any parameter server. Each keeps its own
//! data — sharded by label, so no device sees every class — and per iteration
//! exchanges gradients and models with its peers, aggregating both robustly.
//! One device behaves Byzantine (little-is-enough attack). The example prints
//! the accuracy trajectory and the communication share, illustrating the
//! paper's finding that the decentralized topology pays O(n²) messages per
//! round and therefore does not scale like the parameter-server variants.
//!
//! Run with: `cargo run --release --example decentralized_learning`

use garfield::{AttackKind, Controller, ExperimentConfig, GarKind, ShardStrategy, SystemKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::small();
    config.nw = 8;
    config.fw = 1;
    config.iterations = 60;
    config.eval_every = 10;
    config.gradient_gar = GarKind::MultiKrum;
    config.model_gar = GarKind::Median;
    config.shard_strategy = ShardStrategy::ByLabel;
    config.contraction_steps = 1;
    config.actual_byzantine_workers = 1;
    config.worker_attack = Some(AttackKind::LittleIsEnough);

    println!(
        "Decentralized learning: {} devices ({} Byzantine), non-IID data, 1 contraction round\n",
        config.nw, config.actual_byzantine_workers
    );

    let trace = Controller::new(config).run(SystemKind::Decentralized)?;

    for point in &trace.accuracy {
        println!(
            "  iteration {:>3}  accuracy {:.3}  loss {:.3}",
            point.iteration, point.accuracy, point.loss
        );
    }
    let timing = trace.mean_timing();
    println!("\nfinal accuracy      {:.3}", trace.final_accuracy());
    println!(
        "updates per second  {:.2} (simulated)",
        trace.updates_per_second()
    );
    println!(
        "per-iteration time  {:.3}s  (computation {:.0}%, communication {:.0}%, aggregation {:.0}%)",
        timing.total(),
        100.0 * timing.computation / timing.total(),
        100.0 * timing.communication / timing.total(),
        100.0 * timing.aggregation / timing.total()
    );
    Ok(())
}
