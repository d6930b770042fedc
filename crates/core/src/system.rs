//! The one-place system registry: every system's round, written once.
//!
//! Everything that varies *by system* lives in [`SystemPlan::of`]: which
//! replicas run the loop and the fan-out that imposes on the workers, the
//! gradient GAR and its `f`, the optional model-merge phase, what the cost
//! model charges, and whether the live runtime hosts the system. The sim
//! [`Trainer`](crate::Trainer) interprets the plan over a deployment and reads
//! its simulated clock from [`SystemPlan::timing`] (the analytic cost model
//! the throughput figures use), config validation and the live actors read
//! the same fields — so adding a system is one arm here, and
//! no other module of `core`, `runtime` or `bench::throughput` branches on a
//! `SystemKind` (`experiment.rs` keeps only the name table).

use crate::{CoreError, ExperimentConfig, IterationTiming, SystemKind};
use garfield_aggregation::GarKind;
use garfield_net::{CostModel, Device};
use std::str::FromStr;

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
    /// Linear while the speculative fast path holds, quadratic once it trips.
    Speculative,
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
    /// Whether the live (threaded / multi-process) runtime hosts the system.
    pub live: bool,
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
            live: true,
        };
        match system {
            SystemKind::Ssmw => ssmw,
            SystemKind::Vanilla => SystemPlan {
                gradient_gar: GarKind::Average,
                gradient_f: 0,
                gradient_cost: AggregationCost::Linear,
                ..ssmw
            },
            // Vanilla on every replica; workers follow the first live one.
            SystemKind::CrashTolerant => SystemPlan {
                system,
                topology: Topology::ReplicatedServer,
                servers: nps,
                live: false,
                ..SystemPlan::of(SystemKind::Vanilla, config)
            },
            // Pinned to Multi-Krum on a runtime whose shared graph and
            // serialization path cost a quarter more communication.
            SystemKind::AggregaThor => SystemPlan {
                gradient_gar: GarKind::MultiKrum,
                communication_factor: 1.25,
                live: false,
                ..ssmw
            },
            SystemKind::Speculative => SystemPlan {
                gradient_gar: GarKind::Speculative {
                    fallback: Box::new(config.gradient_gar.clone()),
                },
                gradient_cost: AggregationCost::Speculative,
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
                    live: false,
                    ..ssmw
                }
            }
        }
    }

    /// Simulated seconds one replica spends aggregating per round; `tripped`
    /// says whether a speculative fast path has fallen back.
    pub fn aggregation_time(
        &self,
        d: usize,
        device: Device,
        cost: &CostModel,
        tripped: bool,
    ) -> f64 {
        let order = match self.gradient_cost {
            AggregationCost::Linear => 1,
            AggregationCost::Quadratic => 2,
            AggregationCost::Speculative => 1 + u32::from(tripped),
        };
        let merge = self.merge.as_ref().map_or(0.0, |merge| {
            cost.aggregation_time(d, merge.quorum + 1, 1, device) * merge.cost_weight
        });
        cost.aggregation_time(d, self.gradient_quorum, order, device) + merge
    }

    /// Simulated seconds of one round's data movement, before the
    /// communication factor: the model broadcast, the gradient pulls fanned to
    /// every replica (latency overlaps, bytes serialize — see
    /// [`CostModel::fanout_pull_time`]), one model pull per contraction step
    /// and one for the merge.
    pub fn unscaled_communication(&self, d: usize, device: Device, cost: &CostModel) -> f64 {
        let pull = |count: usize| cost.parallel_pull_time(d, count, device);
        let mut communication = pull(self.gradient_quorum)
            + cost.fanout_pull_time(d, self.gradient_quorum, self.servers, device);
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
    /// iteration, except that a fail-over adds one model broadcast to the
    /// communication and a tripped speculative rule is charged its fallback.
    ///
    /// * computation — one gradient estimate on `device`;
    /// * communication — [`SystemPlan::unscaled_communication`] times the
    ///   communication factor;
    /// * aggregation — [`SystemPlan::aggregation_time`] with the speculative
    ///   check never tripping (the fault-free common case).
    pub fn timing(
        &self,
        d: usize,
        batch: usize,
        device: Device,
        cost: &CostModel,
    ) -> IterationTiming {
        IterationTiming {
            computation: cost.gradient_time(d, batch, device),
            communication: self.unscaled_communication(d, device, cost) * self.communication_factor,
            aggregation: self.aggregation_time(d, device, cost, false),
        }
    }
}

/// The GAR a server of `system` builds on its gradient path, with the `f` it
/// must tolerate (the plan's [`SystemPlan::gradient_gar`] / `gradient_f`).
pub fn gradient_gar(system: SystemKind, config: &ExperimentConfig) -> (GarKind, usize) {
    let plan = SystemPlan::of(system, config);
    (plan.gradient_gar, plan.gradient_f)
}

/// Whether the live (threaded / multi-process) runtime can host `system`.
pub fn live_supported(system: SystemKind) -> bool {
    SystemPlan::of(system, &ExperimentConfig::default()).live
}

/// The names of the systems whose plan `keep` accepts, for error messages.
pub fn system_names(keep: impl Fn(&SystemPlan) -> bool) -> String {
    let config = ExperimentConfig::default();
    let kept = SystemKind::all()
        .into_iter()
        .filter(|&system| keep(&SystemPlan::of(system, &config)));
    kept.map(SystemKind::as_str).collect::<Vec<_>>().join(", ")
}

/// A parsed `--system` argument: the system, plus the gradient-GAR override
/// the `speculative(<gar>)` form carries.
///
/// `"ssmw"` → SSMW with the config's GARs; `"speculative"` → speculative
/// falling back to the config's `gradient_gar`; `"speculative(multi-krum)"` →
/// speculative with the config's `gradient_gar` overridden to Multi-Krum.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The system to run.
    pub system: SystemKind,
    /// Gradient-GAR override carried by the argument, if any.
    pub gradient_gar: Option<GarKind>,
}

impl SystemSpec {
    /// Writes the override (if any) into `config`.
    pub fn apply(&self, config: &mut ExperimentConfig) {
        if let Some(gar) = &self.gradient_gar {
            config.gradient_gar = gar.clone();
        }
    }
}

impl std::fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.gradient_gar {
            Some(gar) => write!(f, "{}({gar})", self.system),
            None => write!(f, "{}", self.system),
        }
    }
}

impl FromStr for SystemSpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if let Some(inner) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("speculative")
            .filter(|rest| !rest.is_empty())
        {
            let gar = inner
                .trim()
                .strip_prefix('(')
                .and_then(|r| r.strip_suffix(')'))
                .ok_or_else(|| {
                    CoreError::InvalidConfig(format!(
                        "unknown system '{trimmed}' (speculative takes its fallback as \
                         'speculative(<gar>)')"
                    ))
                })?
                .parse::<GarKind>()
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
            if matches!(gar, GarKind::Average | GarKind::Speculative { .. }) {
                return Err(CoreError::InvalidConfig(format!(
                    "speculative needs a primitive Byzantine-resilient fallback, not '{gar}'"
                )));
            }
            return Ok(SystemSpec {
                system: SystemKind::Speculative,
                gradient_gar: Some(gar),
            });
        }
        let system = trimmed
            .parse::<SystemKind>()
            .map_err(CoreError::InvalidConfig)?;
        Ok(SystemSpec {
            system,
            gradient_gar: None,
        })
    }
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
        assert_eq!(
            gradient_gar(SystemKind::Speculative, &cfg),
            (
                GarKind::Speculative {
                    fallback: Box::new(cfg.gradient_gar.clone())
                },
                cfg.fw
            )
        );
    }

    #[test]
    fn analytic_timing_equals_sim_trace() {
        // The trainer reads its clock from the plan, so every recorded
        // iteration is `timing` — except the fail-over one, which pays one
        // extra model broadcast to the workers *inside* the communication
        // factor.
        let cost = CostModel::default();
        for system in [SystemKind::CrashTolerant, SystemKind::Msmw] {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 5;
            cfg.eval_every = 0;
            // Enough replicas that a model quorum survives the crash.
            (cfg.nps, cfg.fps) = (7, 2);
            let mut trainer = Trainer::new(system, cfg.clone())
                .unwrap()
                .with_primary_crash_at(3);
            let trace = trainer.run().unwrap();
            let d = trainer.deployment().dimension();
            let plan = SystemPlan::of(system, &cfg);
            let analytic = plan.timing(d, cfg.batch_size, cfg.device, &cost);
            let broadcast = cost.parallel_pull_time(d, cfg.nw, cfg.device);
            let failover = IterationTiming {
                communication: (plan.unscaled_communication(d, cfg.device, &cost) + broadcast)
                    * plan.communication_factor,
                ..analytic
            };
            assert!(failover.communication > analytic.communication);
            for (iteration, recorded) in trace.iterations.iter().enumerate() {
                let expected = if iteration == 3 { failover } else { analytic };
                assert_eq!(*recorded, expected, "{system} iteration {iteration}");
            }
        }
    }

    #[test]
    fn speculative_aggregation_is_charged_by_the_latch() {
        // Cheap while the fast path holds, the robust price from the
        // iteration the latch trips on; a fault-free run never trips.
        let cost = CostModel::default();
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 6;
        cfg.eval_every = 0;
        let aggregation = |cfg: &ExperimentConfig| {
            let mut trainer = Trainer::new(SystemKind::Speculative, cfg.clone()).unwrap();
            let trace = trainer.run().unwrap();
            let d = trainer.deployment().dimension();
            let plan = SystemPlan::of(SystemKind::Speculative, cfg);
            let recorded: Vec<f64> = trace.iterations.iter().map(|t| t.aggregation).collect();
            let [cheap, robust] =
                [false, true].map(|tripped| plan.aggregation_time(d, cfg.device, &cost, tripped));
            (recorded, cheap, robust)
        };

        let (recorded, cheap, robust) = aggregation(&cfg);
        assert!(robust > cheap);
        assert_eq!(recorded, vec![cheap; 6]);

        cfg.actual_byzantine_workers = cfg.fw;
        cfg.worker_attack = Some(garfield_attacks::AttackKind::Reversed);
        let (recorded, cheap, robust) = aggregation(&cfg);
        let trip = recorded.iter().position(|&t| t == robust);
        let trip = trip.expect("reversed gradients trip the latch");
        for (iteration, &t) in recorded.iter().enumerate() {
            let expected = if iteration < trip { cheap } else { robust };
            assert_eq!(t, expected, "iteration {iteration}, tripped at {trip}");
        }
    }

    #[test]
    fn live_support_covers_the_runtime_topologies() {
        assert!(live_supported(SystemKind::Vanilla));
        assert!(live_supported(SystemKind::Ssmw));
        assert!(live_supported(SystemKind::Msmw));
        assert!(live_supported(SystemKind::Speculative));
        assert!(!live_supported(SystemKind::AggregaThor));
        assert!(!live_supported(SystemKind::CrashTolerant));
        assert!(!live_supported(SystemKind::Decentralized));
        assert_eq!(
            system_names(|plan| plan.live),
            "vanilla, ssmw, msmw, speculative"
        );
        assert_eq!(
            system_names(|plan| plan.topology == Topology::PeerToPeer),
            "decentralized"
        );
    }

    #[test]
    fn system_specs_parse_apply_and_round_trip() {
        let plain: SystemSpec = "msmw".parse().unwrap();
        assert_eq!(plain.system, SystemKind::Msmw);
        assert_eq!(plain.gradient_gar, None);
        assert_eq!(plain.to_string(), "msmw");

        let bare: SystemSpec = "speculative".parse().unwrap();
        assert_eq!(bare.system, SystemKind::Speculative);
        assert_eq!(bare.gradient_gar, None);

        let spec: SystemSpec = "speculative(median)".parse().unwrap();
        assert_eq!(spec.system, SystemKind::Speculative);
        assert_eq!(spec.gradient_gar, Some(GarKind::Median));
        assert_eq!(spec.to_string(), "speculative(median)");
        assert_eq!(spec.to_string().parse::<SystemSpec>().unwrap(), spec);

        let mut cfg = ExperimentConfig::small();
        spec.apply(&mut cfg);
        assert_eq!(cfg.gradient_gar, GarKind::Median);

        assert!("speculative(average)".parse::<SystemSpec>().is_err());
        assert!("speculative(speculative(median))"
            .parse::<SystemSpec>()
            .is_err());
        assert!("speculative(".parse::<SystemSpec>().is_err());
        assert!("warp-drive".parse::<SystemSpec>().is_err());
    }
}
