//! The benchmark's workloads: five live clusters, each chosen to put a
//! different layer of the program on the blocking path of a training round.
//!
//! Every workload is a closed loop by construction — a server sends round
//! `r + 1` only after round `r` gathered its quorum — and every quorum is
//! full (`q = n`), so a run is bit-reproducible from its seed. The seed goes
//! into [`ExperimentConfig::seed`] and nowhere else; the program never sees
//! which workload it is running.

use garfield_aggregation::GarKind;
use garfield_attacks::AttackKind;
use garfield_core::{ExperimentConfig, SystemKind};

/// What carries the messages between the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `RouterTransport` over the in-process router (`LiveExecutor`).
    Router,
    /// `TcpTransport` over loopback sockets, all endpoints in this process.
    Tcp,
}

/// One benchmark workload.
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub system: SystemKind,
    pub fabric: Fabric,
    /// Rounds of one set-up probe: a short live run that times set-up,
    /// estimates the round rate and yields a model fingerprint to check.
    /// Sized for roughly a quarter of a second.
    pub probe_rounds: usize,
    shape: fn(&mut ExperimentConfig),
}

/// Every workload's final accuracy on the held-out batch must reach this.
pub const ACCURACY_FLOOR: f32 = 0.95;

impl Workload {
    /// The experiment this workload runs for `rounds` rounds under `seed`.
    /// Accuracy is evaluated once, after the last round.
    pub fn config(&self, seed: u64, rounds: usize) -> ExperimentConfig {
        let mut config = ExperimentConfig {
            model: "cifarnet-lite".into(), // d = 147 994, 0.59 MB a message
            dataset_samples: 512,
            test_samples: 256,
            nps: 1,
            fps: 0,
            fw: 1,
            gradient_gar: GarKind::MultiKrum,
            model_gar: GarKind::Median,
            synchronous: true,
            iterations: rounds,
            eval_every: rounds,
            seed,
            ..ExperimentConfig::default()
        };
        (self.shape)(&mut config);
        config
    }

    /// Index of the worker that actually behaves Byzantine, if any (the
    /// deployment makes the last workers the Byzantine ones).
    pub fn byzantine_worker(&self) -> Option<usize> {
        let config = self.config(0, 1);
        (config.actual_byzantine_workers > 0).then(|| config.nw - 1)
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "vanilla_router",
            why: "The plain baseline every slowdown is read against: worker forward/backward \
                  does most of the work, robust aggregation and attacks are bypassed.",
            system: SystemKind::Vanilla,
            fabric: Fabric::Router,
            probe_rounds: 20,
            shape: |c| {
                c.nw = 6;
                c.fw = 0;
                c.batch_size = 64;
                c.gradient_gar = GarKind::Average;
            },
        },
        Workload {
            name: "ssmw_bulyan_attack",
            why: "Aggregation is the largest share of the round (Bulyan over 9 gradients); \
                  one worker really sends reversed gradients, so attacks and suspicion run.",
            system: SystemKind::Ssmw,
            fabric: Fabric::Router,
            probe_rounds: 12,
            shape: |c| {
                c.nw = 9;
                c.batch_size = 2;
                c.gradient_gar = GarKind::Bulyan;
                c.actual_byzantine_workers = 1;
                c.worker_attack = Some(AttackKind::Reversed);
            },
        },
        Workload {
            name: "ssmw_tcp",
            why: "Communication-dominated: loopback TCP framing, syscalls and encode/decode \
                  carry about 6 MB a round; the GAR is cheap and the batch small.",
            system: SystemKind::Ssmw,
            fabric: Fabric::Tcp,
            probe_rounds: 24,
            shape: |c| {
                c.nw = 5;
                c.batch_size = 8;
            },
        },
        Workload {
            name: "msmw_router",
            why: "Replicated servers: every worker answers 3 servers and replicas pull and \
                  Median-merge each other's models, work no other workload touches.",
            system: SystemKind::Msmw,
            fabric: Fabric::Router,
            probe_rounds: 8,
            shape: |c| {
                c.nps = 3;
                c.fps = 1;
                c.nw = 5;
                c.batch_size = 8;
            },
        },
        Workload {
            name: "ssmw_router_small",
            why: "Small messages at a high rate (d = 7 850, 31 KB): per-message cost - \
                  wake-ups, locks, header work, allocation - dominates and bytes do not.",
            system: SystemKind::Ssmw,
            fabric: Fabric::Router,
            probe_rounds: 600,
            shape: |c| {
                c.model = "linear-mnist".into();
                c.nw = 5;
                c.batch_size = 8;
            },
        },
    ]
}

/// Looks a workload up by its `BENCHMARK.json` name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_a_valid_full_quorum_experiment() {
        for workload in all() {
            let config = workload.config(7, 10);
            config.validate(workload.system).unwrap();
            assert_eq!(config.seed, 7);
            assert_eq!(config.gradient_quorum(workload.system), config.nw);
            assert!(garfield_core::live_supported(workload.system));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }
}
