//! Tolerating Byzantine *servers* as well as Byzantine workers (MSMW, §5.2).
//!
//! The parameter server is replicated on three machines; one replica and one
//! worker actively attack (random vectors, Fig. 5a of the paper). Honest
//! replicas aggregate worker gradients with Multi-Krum and contract their
//! models with coordinate-wise Median, so training still converges. The same
//! configuration is also run as a crash-tolerant (averaging) deployment to
//! reproduce the paper's observation that crash tolerance is not Byzantine
//! resilience.
//!
//! Run with: `cargo run --release --example byzantine_servers`

use garfield::{AttackKind, Executor, ExperimentConfig, GarKind, SimExecutor, SystemKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::small();
    config.nw = 9;
    config.fw = 1;
    config.nps = 3;
    config.fps = 1;
    config.iterations = 60;
    config.eval_every = 10;
    config.gradient_gar = GarKind::MultiKrum;
    config.model_gar = GarKind::Median;
    config.actual_byzantine_workers = 1;
    config.worker_attack = Some(AttackKind::Random);
    config.actual_byzantine_servers = 1;
    config.server_attack = Some(AttackKind::Random);

    println!(
        "MSMW: {} servers ({} Byzantine), {} workers ({} Byzantine)\n",
        config.nps, config.actual_byzantine_servers, config.nw, config.actual_byzantine_workers
    );

    let mut sim = SimExecutor::new(config);
    let msmw = sim.run(SystemKind::Msmw)?;
    let crash = sim.run(SystemKind::CrashTolerant)?;
    let vanilla = sim.run(SystemKind::Vanilla)?;

    println!(
        "{:<16} {:>10} {:>14} {:>16}",
        "system", "accuracy", "updates/s", "comm share"
    );
    for trace in [&msmw, &crash, &vanilla] {
        let timing = trace.mean_timing();
        println!(
            "{:<16} {:>10.3} {:>14.2} {:>15.0}%",
            trace.system,
            trace.final_accuracy(),
            trace.updates_per_second(),
            100.0 * timing.communication / timing.total()
        );
    }
    println!(
        "\nOnly the Byzantine-resilient MSMW deployment keeps learning under the attack;\n\
         the crash-tolerant and vanilla deployments average the corrupted vectors in."
    );
    Ok(())
}
