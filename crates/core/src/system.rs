//! The one-place system registry: every system's round, written once.
//!
//! Everything that varies *by system* lives in [`SystemPlan::of`]: which
//! replicas run the loop and the fan-out that imposes on the workers, the
//! gradient GAR and its `f`, the optional model-merge phase, what the cost
//! model charges. The sim [`Trainer`](crate::Trainer) interprets the plan over
//! a deployment and reads its simulated clock from [`SystemPlan::timing`] (the
//! analytic cost model the throughput figures use), config validation and the
//! live actors read the same fields, and [`deployed_config`] is the one place
//! the peer-to-peer topology rewrites the config it deploys — so adding a
//! system is one arm here, and
//! no other module of `core`, `runtime` or `bench::figures` branches on a
//! `SystemKind` (`experiment.rs` keeps only the name table).

use crate::{ExperimentConfig, IterationTiming, SystemKind};
use garfield_aggregation::GarKind;
use garfield_net::cost;

/// Where the model lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One trusted parameter server (`config.nps` is ignored).
    SingleServer,
    /// The parameter server replicated on `config.nps` machines.
    ReplicatedServer,
    /// No parameter server: every worker doubles as a server replica.
    PeerToPeer,
}

/// What the cost model charges for one gradient aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationCost {
    /// `O(n·d)`: averaging.
    Linear,
    /// `O(n²·d)`: the price of a robust rule.
    Quadratic,
}

/// The model-merge phase of a round: each replica pulls `quorum` peer models,
/// aggregates them together with its own and rewrites its state.
#[derive(Debug, Clone, PartialEq)]
pub struct MergePhase {
    /// The rule merging the models.
    pub gar: GarKind,
    /// The `f` the rule is built with over `quorum + 1` inputs.
    pub f: usize,
    /// Peer models each replica waits for.
    pub quorum: usize,
    /// Extra model exchanges *before* the update, contracting the aggregated
    /// gradient towards the peers (decentralized learning on non-IID data).
    pub contraction_steps: usize,
    /// How many merge aggregations the cost model charges per round.
    pub cost_weight: f64,
}

/// One system's round, as data. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPlan {
    /// The system described.
    pub system: SystemKind,
    /// Where the model lives.
    pub topology: Topology,
    /// Server replicas that exist — also the number of replicas every worker
    /// uploads its gradient to each round.
    pub servers: usize,
    /// The rule on the gradient path.
    pub gradient_gar: GarKind,
    /// The `f` the gradient rule is built with.
    pub gradient_f: usize,
    /// Gradient replies a replica waits for.
    pub gradient_quorum: usize,
    /// What one gradient aggregation is charged.
    pub gradient_cost: AggregationCost,
    /// The model-merge phase, for the systems whose replicas exchange models.
    pub merge: Option<MergePhase>,
    /// Multiplier on the round's communication time: AggregaThor's older
    /// runtime, or the contention of `n` nodes pulling from each other at once.
    pub communication_factor: f64,
}

impl SystemPlan {
    /// The round `system` runs under `config`.
    pub fn of(system: SystemKind, config: &ExperimentConfig) -> SystemPlan {
        let (nw, fw) = (config.nw, config.fw);
        let nps = config.nps.max(1);
        // Only the systems built to survive Byzantine *servers* may move on
        // without the slowest `fw` workers; the rest wait for everyone.
        let partial_quorum = if config.synchronous {
            nw
        } else {
            nw.saturating_sub(fw)
        };
        // SSMW: one trusted server running the configured robust rule.
        let ssmw = SystemPlan {
            system,
            topology: Topology::SingleServer,
            servers: 1,
            gradient_gar: config.gradient_gar.clone(),
            gradient_f: fw,
            gradient_quorum: nw,
            gradient_cost: AggregationCost::Quadratic,
            merge: None,
            communication_factor: 1.0,
        };
        match system {
            SystemKind::Ssmw => ssmw,
            SystemKind::Vanilla => SystemPlan {
                gradient_gar: GarKind::Average,
                gradient_f: 0,
                gradient_cost: AggregationCost::Linear,
                ..ssmw
            },
            // Vanilla on every replica. Each one aggregates every worker's
            // gradient, so a backup already holds the model a crashed primary had.
            SystemKind::CrashTolerant => SystemPlan {
                system,
                topology: Topology::ReplicatedServer,
                servers: nps,
                ..SystemPlan::of(SystemKind::Vanilla, config)
            },
            // Pinned to Multi-Krum on a runtime whose shared graph and
            // serialization path cost a quarter more communication.
            SystemKind::AggregaThor => SystemPlan {
                gradient_gar: GarKind::MultiKrum,
                communication_factor: 1.25,
                ..ssmw
            },
            SystemKind::Msmw => SystemPlan {
                topology: Topology::ReplicatedServer,
                servers: nps,
                gradient_quorum: partial_quorum,
                merge: Some(MergePhase {
                    gar: config.model_gar.clone(),
                    f: config.fps,
                    quorum: config.model_quorum(),
                    contraction_steps: 0,
                    cost_weight: 1.0,
                }),
                ..ssmw
            },
            SystemKind::Decentralized => {
                let quorum = nw.saturating_sub(fw).min(nw.saturating_sub(1)).max(1);
                SystemPlan {
                    topology: Topology::PeerToPeer,
                    servers: nw,
                    gradient_quorum: partial_quorum,
                    merge: Some(MergePhase {
                        gar: config.model_gar.clone(),
                        // Never more than a minority of the `quorum + 1` inputs.
                        f: fw.min(quorum / 2),
                        quorum,
                        contraction_steps: config.contraction_steps,
                        // The original cost model charged it twice; kept.
                        cost_weight: 2.0,
                    }),
                    // All n nodes pull from all others at once: the shared
                    // fabric carries O(n²) transfers (the wall of Fig. 9).
                    communication_factor: nw as f64,
                    ..ssmw
                }
            }
        }
    }

    /// Simulated seconds one replica spends aggregating per round.
    pub fn aggregation_time(&self, d: usize) -> f64 {
        let order = match self.gradient_cost {
            AggregationCost::Linear => 1,
            AggregationCost::Quadratic => 2,
        };
        let merge = self.merge.as_ref().map_or(0.0, |merge| {
            cost::aggregation_time(d, merge.quorum + 1, 1) * merge.cost_weight
        });
        cost::aggregation_time(d, self.gradient_quorum, order) + merge
    }

    /// Simulated seconds of one round's data movement, before the
    /// communication factor: the model broadcast, the gradient pulls fanned to
    /// every replica (latency overlaps, bytes serialize — see
    /// [`cost::fanout_pull_time`]), one model pull per contraction step
    /// and one for the merge.
    pub fn unscaled_communication(&self, d: usize) -> f64 {
        let pull = |count: usize| cost::parallel_pull_time(d, count);
        let mut communication = pull(self.gradient_quorum)
            + cost::fanout_pull_time(d, self.gradient_quorum, self.servers);
        if let Some(merge) = &self.merge {
            let mut contraction = 0.0;
            for _ in 0..merge.contraction_steps {
                contraction += pull(merge.quorum);
            }
            communication = communication + contraction + pull(merge.quorum);
        }
        communication
    }

    /// Per-iteration timing for a `d`-parameter model: the simulated clock.
    /// The [`Trainer`](crate::Trainer) records exactly this for every
    /// iteration.
    ///
    /// * computation — one gradient estimate;
    /// * communication — [`SystemPlan::unscaled_communication`] times the
    ///   communication factor;
    /// * aggregation — [`SystemPlan::aggregation_time`].
    pub fn timing(&self, d: usize, batch: usize) -> IterationTiming {
        IterationTiming {
            computation: cost::gradient_time(d, batch),
            communication: self.unscaled_communication(d) * self.communication_factor,
            aggregation: self.aggregation_time(d),
        }
    }
}

/// The GAR a server of `system` builds on its gradient path, with the `f` it
/// must tolerate (the plan's [`SystemPlan::gradient_gar`] / `gradient_f`).
pub fn gradient_gar(system: SystemKind, config: &ExperimentConfig) -> (GarKind, usize) {
    let plan = SystemPlan::of(system, config);
    (plan.gradient_gar, plan.gradient_f)
}

/// The configuration `system` deploys: `config` itself, except under the
/// peer-to-peer topology, where one server replica is co-located with every
/// worker (`nps = nw`, `fps = fw`) and a Byzantine node is Byzantine in both
/// roles. The sim trainer and the live assembly both build from it.
pub fn deployed_config(system: SystemKind, mut config: ExperimentConfig) -> ExperimentConfig {
    if SystemPlan::of(system, &config).topology == Topology::PeerToPeer {
        config.nps = config.nw;
        config.fps = config.fw;
        config.actual_byzantine_servers = config.actual_byzantine_workers;
        config.server_attack = config.server_attack.or(config.worker_attack);
    }
    config
}

/// Whether the live (threaded / multi-process) runtime can host `system`:
/// always. Every topology maps onto servers and workers exchanging the same
/// two pulls, and the peer-to-peer one deploys through [`deployed_config`].
/// The one plan feature the live merge lacks, contraction steps, is a config
/// the live assembly rejects, not a system. Kept as a function because
/// callers outside the workspace still ask.
pub fn live_supported(_system: SystemKind) -> bool {
    true
}

/// The names of the systems whose plan `keep` accepts, for error messages.
pub fn system_names(keep: impl Fn(&SystemPlan) -> bool) -> String {
    let config = ExperimentConfig::default();
    let kept = SystemKind::all()
        .into_iter()
        .filter(|&system| keep(&SystemPlan::of(system, &config)));
    kept.map(SystemKind::as_str).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trainer;

    #[test]
    fn registry_covers_every_system() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 2;
        cfg.eval_every = 0;
        for system in SystemKind::all() {
            let trace = Trainer::new(system, cfg.clone()).unwrap().run().unwrap();
            assert_eq!(trace.system, system.as_str());
            assert_eq!(trace.len(), 2);
        }
    }

    #[test]
    fn gradient_gar_selection_matches_each_systems_contract() {
        let cfg = ExperimentConfig::small();
        assert_eq!(
            gradient_gar(SystemKind::Vanilla, &cfg),
            (GarKind::Average, 0)
        );
        assert_eq!(
            gradient_gar(SystemKind::CrashTolerant, &cfg),
            (GarKind::Average, 0)
        );
        assert_eq!(
            gradient_gar(SystemKind::AggregaThor, &cfg),
            (GarKind::MultiKrum, cfg.fw)
        );
        assert_eq!(
            gradient_gar(SystemKind::Ssmw, &cfg),
            (cfg.gradient_gar.clone(), cfg.fw)
        );
    }

    #[test]
    fn analytic_timing_equals_sim_trace() {
        // The trainer reads its clock from the plan, so every recorded
        // iteration is `timing`.
        for system in SystemKind::all() {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 5;
            cfg.eval_every = 0;
            let mut trainer = Trainer::new(system, cfg.clone()).unwrap();
            let trace = trainer.run().unwrap();
            let d = trainer.deployment().dimension();
            let analytic = SystemPlan::of(system, &cfg).timing(d, cfg.batch_size);
            for (iteration, recorded) in trace.iterations.iter().enumerate() {
                assert_eq!(*recorded, analytic, "{system} iteration {iteration}");
            }
        }
    }

    #[test]
    fn live_support_covers_the_runtime_topologies() {
        for system in SystemKind::all() {
            assert!(live_supported(system), "{system}");
        }
        assert_eq!(
            system_names(|plan| plan.topology == Topology::PeerToPeer),
            "decentralized"
        );
    }

    #[test]
    fn only_the_peer_to_peer_topology_rewrites_the_deployed_config() {
        let mut cfg = ExperimentConfig::small();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(garfield_attacks::AttackKind::Reversed);
        for system in SystemKind::all() {
            let deployed = deployed_config(system, cfg.clone());
            if system == SystemKind::Decentralized {
                assert_eq!((deployed.nps, deployed.fps), (cfg.nw, cfg.fw));
                assert_eq!(deployed.actual_byzantine_servers, 1);
                assert_eq!(deployed.server_attack, cfg.worker_attack);
            } else {
                assert_eq!(deployed, cfg, "{system}");
            }
        }
    }
}
