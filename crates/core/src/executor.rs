//! The executor abstraction: one training API, two execution substrates.
//!
//! A Garfield experiment can run on two substrates that share every node
//! object (workers, servers, attacks, GARs) but differ in *how iterations
//! execute*:
//!
//! * the **sim** executor ([`SimExecutor`]) drives every node sequentially
//!   from one thread and charges an analytic
//!   [cost model](garfield_net::cost) for data movement — this is the
//!   substrate behind the paper's throughput sweeps, where per-iteration
//!   time is a deterministic function of model size and cluster shape;
//! * the **live** executor (`garfield_runtime::LiveExecutor`) runs each node
//!   as its own OS thread exchanging real byte messages over the
//!   [`Router`](garfield_net::Router), with wall-clock deadlines standing in
//!   for the paper's RPC timeouts — this is the substrate that demonstrates
//!   the *system* claims: pull-based `get_gradients()` / `get_models()` that
//!   stay live despite crashed, delayed or Byzantine nodes.
//!
//! Examples and tests that compare the two hold them behind the shared
//! [`Executor`] trait, so the same experiment can be validated analytically
//! and executed for real.

use crate::{CoreResult, ExperimentConfig, SystemKind, Trainer, TrainingTrace};

/// A substrate that can run a configured Garfield system to completion.
pub trait Executor {
    /// Runs the named system and returns its training trace.
    ///
    /// # Errors
    ///
    /// Returns configuration or runtime errors from the underlying substrate.
    fn run(&mut self, system: SystemKind) -> CoreResult<TrainingTrace>;
}

/// The analytic, single-threaded executor: real math, simulated time.
///
/// Every run validates the configuration, builds a fresh
/// [`Deployment`](crate::Deployment) and lets the [`Trainer`] interpret the
/// system's [`SystemPlan`](crate::SystemPlan), so runs of one executor are
/// independent of each other.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    config: ExperimentConfig,
}

impl SimExecutor {
    /// Creates a sim executor for the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        SimExecutor { config }
    }
}

impl Executor for SimExecutor {
    fn run(&mut self, system: SystemKind) -> CoreResult<TrainingTrace> {
        Trainer::new(system, self.config.clone())?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_executor_matches_the_controller() {
        // The executor is the trainer on a fresh deployment, nothing more.
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 4;
        cfg.eval_every = 2;
        let trace = SimExecutor::new(cfg.clone())
            .run(SystemKind::Vanilla)
            .unwrap();
        let reference = Trainer::new(SystemKind::Vanilla, cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(trace.iterations, reference.iterations);
        assert_eq!(trace.accuracy, reference.accuracy);
    }

    #[test]
    fn sim_executor_runs_every_system_on_a_small_config() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 8;
        cfg.eval_every = 4;
        let mut executor = SimExecutor::new(cfg);
        for system in SystemKind::all() {
            let trace = executor.run(system).unwrap();
            assert_eq!(trace.len(), 8, "{system} should record every iteration");
            assert!(trace.updates_per_second() > 0.0);
        }
    }

    #[test]
    fn invalid_configuration_is_rejected_before_deployment() {
        let mut cfg = ExperimentConfig::small();
        cfg.fw = 3; // needs 9 inputs for Multi-Krum, nw is 7
        assert!(SimExecutor::new(cfg).run(SystemKind::Msmw).is_err());
    }
}
