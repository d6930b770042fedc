//! The Byzantine ML applications of §5 and the baselines of §6.2, as one
//! training loop.
//!
//! The paper's Listings 1–3 differ in a handful of facts — how many replicas
//! run the loop, which GAR sits on the gradient path, whether replicas merge
//! their models afterwards. Those facts are a [`SystemPlan`]; the
//! [`Trainer`] drives a [`Deployment`] through the one loop they all share,
//! records a [`TrainingTrace`] with the per-iteration computation /
//! communication / aggregation breakdown — read from the plan's one simulated
//! clock, [`SystemPlan::timing`] — and evaluates accuracy on the held-out test
//! set at the configured cadence.

use crate::system::{MergePhase, SystemPlan, Topology};
use crate::{
    alignment_sample, AccuracyPoint, AlignmentSample, CoreError, CoreResult, Deployment,
    ExperimentConfig, SystemKind, TrainingTrace,
};
use garfield_aggregation::build_gar;
use garfield_net::CostModel;
use garfield_tensor::Tensor;

/// Runs one system's training loop on the simulated substrate.
pub struct Trainer {
    plan: SystemPlan,
    deployment: Deployment,
    alignment_every: usize,
    alignment: Vec<AlignmentSample>,
    crash_primary_at: Option<usize>,
}

impl Trainer {
    /// Validates `config` for `system` and builds its deployment.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(system: SystemKind, mut config: ExperimentConfig) -> CoreResult<Self> {
        config.validate(system)?;
        let plan = SystemPlan::of(system, &config);
        if plan.topology == Topology::PeerToPeer {
            // Co-locate one server replica with every worker; a Byzantine
            // node is Byzantine in both roles.
            config.nps = config.nw;
            config.fps = config.fw;
            config.actual_byzantine_servers = config.actual_byzantine_workers;
            config.server_attack = config.server_attack.or(config.worker_attack);
        }
        let deployment = Deployment::new(config)?;
        Ok(Trainer {
            plan,
            deployment,
            alignment_every: 0,
            alignment: Vec::new(),
            crash_primary_at: None,
        })
    }

    /// Enables recording of the parameter-vector alignment study (Table 2)
    /// every `every` iterations.
    pub fn with_alignment_sampling(mut self, every: usize) -> Self {
        self.alignment_every = every;
        self
    }

    /// Schedules a crash of the current primary at the given iteration, to
    /// exercise the fail-over path of the replicated systems.
    pub fn with_primary_crash_at(mut self, iteration: usize) -> Self {
        self.crash_primary_at = Some(iteration);
        self
    }

    /// The underlying deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The alignment samples recorded during the last run.
    pub fn alignment_samples(&self) -> &[AlignmentSample] {
        &self.alignment
    }

    /// The replica whose trace is reported and whose model is evaluated: the
    /// first live correct one (the paper reports the fastest correct machine;
    /// under crash tolerance this is the primary the workers follow).
    pub fn primary(&self) -> Option<usize> {
        self.active_replicas().first().copied()
    }

    /// The replicas that run the loop: every live one — minus, where replicas
    /// exchange models, the Byzantine ones, which serve corrupted models
    /// instead of training (elsewhere Byzantine servers have no way to act).
    fn active_replicas(&self) -> Vec<usize> {
        let byzantine = match self.plan.merge {
            Some(_) => self.deployment.config().actual_byzantine_servers,
            None => 0,
        };
        (0..self.plan.servers.saturating_sub(byzantine))
            .filter(|&replica| !self.deployment.server_crashed(replica))
            .collect()
    }

    /// Runs the configured number of iterations and returns the primary's trace.
    ///
    /// # Errors
    ///
    /// Propagates configuration and runtime errors from the deployment.
    pub fn run(&mut self) -> CoreResult<TrainingTrace> {
        let config = self.deployment.config().clone();
        let plan = self.plan.clone();
        let dimension = self.deployment.dimension();
        let cost = CostModel::default();
        let nominal = plan.timing(dimension, config.batch_size, config.device, &cost);
        let gar = build_gar(&plan.gradient_gar, plan.gradient_quorum, plan.gradient_f)?;
        let mut trace = TrainingTrace::new(plan.system.as_str(), config.effective_batch());
        self.alignment.clear();

        for iteration in 0..config.iterations {
            let mut timing = nominal;
            if self.crash_primary_at == Some(iteration) {
                if let Some(victim) = self.primary() {
                    self.deployment.crash_server(victim);
                }
                // A primary change costs one extra model broadcast to tell
                // the workers whom to follow.
                let failover = cost.parallel_pull_time(dimension, config.nw, config.device);
                let unscaled = plan.unscaled_communication(dimension, config.device, &cost);
                timing.communication = (unscaled + failover) * plan.communication_factor;
            }
            let replicas = self.active_replicas();
            let primary = *replicas.first().ok_or_else(|| {
                CoreError::Net(format!("no live correct replica at iteration {iteration}"))
            })?;
            let mut loss = 0.0f32;

            // Phase 1 — gradients = get_gradients(i, q); update = gar(gradients),
            // contracted towards the peers' models where the plan says so.
            // Updates are applied only once every replica has computed its
            // own, so no replica contracts towards a mix of old and new models.
            let mut updates = Vec::with_capacity(replicas.len());
            for &replica in &replicas {
                let round =
                    self.deployment
                        .gradient_round(replica, iteration, plan.gradient_quorum)?;
                let server = self.deployment.server(replica).honest();
                let mut update = server.aggregate(gar.as_ref(), &round.gradients)?;
                if let Some(merge) = &plan.merge {
                    for _ in 0..merge.contraction_steps {
                        let contracted = merge_models(&mut self.deployment, replica, merge)?;
                        // Move the update direction towards the contracted model.
                        let current = self.deployment.server(replica).honest().parameters();
                        let drift = current.try_sub(&contracted).map_err(ml_error)?;
                        update = update.try_add(&drift.scale(0.5)).map_err(ml_error)?;
                    }
                }
                if replica == primary {
                    loss = round.mean_loss;
                }
                updates.push(update);
            }
            for (&replica, update) in replicas.iter().zip(&updates) {
                // ps.update_model(aggr_grad)
                self.deployment
                    .server_mut(replica)
                    .honest_mut()
                    .update_model(update)?;
            }

            // The Table 2 alignment study samples the states the correct
            // replicas are about to exchange: after the gradient update and
            // before the model merge.
            if self.alignment_every > 0 && iteration % self.alignment_every == 0 {
                let params: Vec<Tensor> = replicas
                    .iter()
                    .map(|&r| self.deployment.server(r).honest().parameters())
                    .collect();
                self.alignment.extend(alignment_sample(iteration, &params));
            }

            // Phase 2 — models = get_models(q); write_model(gar(models + own)).
            // Every replica merges its peers' post-update states before any of
            // them is rewritten. Byzantine replicas serve corrupted vectors
            // (inside Deployment::model_round).
            if let Some(merge) = &plan.merge {
                let mut merged = Vec::with_capacity(replicas.len());
                for &replica in &replicas {
                    merged.push(merge_models(&mut self.deployment, replica, merge)?);
                }
                for (&replica, model) in replicas.iter().zip(&merged) {
                    self.deployment
                        .server_mut(replica)
                        .honest_mut()
                        .write_model(model)?;
                }
            }

            trace.iterations.push(timing);

            let last = iteration + 1 == config.iterations;
            let every = config.eval_every;
            if every != 0 && (iteration.is_multiple_of(every) || last) {
                let accuracy = self.deployment.evaluate(primary);
                trace.accuracy.push(AccuracyPoint {
                    iteration,
                    sim_time: trace.total_time(),
                    accuracy,
                    loss,
                });
            }
        }
        Ok(trace)
    }
}

/// `replica` pulls `merge.quorum` peer models and aggregates them together
/// with its own.
fn merge_models(
    deployment: &mut Deployment,
    replica: usize,
    merge: &MergePhase,
) -> CoreResult<Tensor> {
    let mut inputs = deployment.model_round(replica, merge.quorum)?;
    let server = deployment.server(replica).honest();
    inputs.push(server.parameters());
    let rule = build_gar(&merge.gar, inputs.len(), merge.f)?;
    server.aggregate(rule.as_ref(), &inputs)
}

fn ml_error(e: impl std::fmt::Display) -> CoreError {
    CoreError::Ml(e.to_string())
}

#[cfg(test)]
// What each system's round must do: one test module per system below, under
// the names the suite has always printed them.
fn run(system: SystemKind, cfg: &ExperimentConfig) -> TrainingTrace {
    Trainer::new(system, cfg.clone()).unwrap().run().unwrap()
}

#[cfg(test)]
fn config(iterations: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.iterations = iterations;
    cfg.eval_every = 10;
    cfg.gradient_gar = garfield_aggregation::GarKind::MultiKrum;
    cfg.model_gar = garfield_aggregation::GarKind::Median;
    cfg
}

#[cfg(test)]
fn under_attack(mut cfg: ExperimentConfig, workers: usize) -> ExperimentConfig {
    cfg.actual_byzantine_workers = workers;
    cfg.worker_attack = Some(garfield_attacks::AttackKind::Reversed);
    cfg
}

#[cfg(test)]
mod vanilla {
    mod tests {
        use super::super::*;

        #[test]
        fn vanilla_learns_the_synthetic_task_without_faults() {
            let trace = run(SystemKind::Vanilla, &config(40));
            assert_eq!(trace.len(), 40);
            assert_eq!(trace.system, "vanilla");
            assert!(trace.final_accuracy() > 0.5, "{}", trace.final_accuracy());
            assert!(trace.updates_per_second() > 0.0);
        }

        #[test]
        fn vanilla_collapses_under_a_byzantine_worker() {
            let trace = run(SystemKind::Vanilla, &under_attack(config(30), 1));
            assert!(
                trace.final_accuracy() < 0.6,
                "vanilla averaging should not survive a reversed-gradient attack, got {}",
                trace.final_accuracy()
            );
        }
    }
}

#[cfg(test)]
mod ssmw {
    mod tests {
        use super::super::*;

        #[test]
        fn ssmw_learns_without_faults() {
            let trace = run(SystemKind::Ssmw, &config(40));
            assert!(trace.final_accuracy() > 0.5, "{}", trace.final_accuracy());
            assert_eq!(trace.system, "ssmw");
        }

        #[test]
        fn ssmw_survives_byzantine_workers_up_to_fw() {
            let cfg = config(40);
            let fw = cfg.fw;
            let trace = run(SystemKind::Ssmw, &under_attack(cfg, fw));
            assert!(
                trace.final_accuracy() > 0.5,
                "robust aggregation should survive fw Byzantine workers, got {}",
                trace.final_accuracy()
            );
        }

        #[test]
        fn ssmw_is_slower_than_vanilla_due_to_robust_aggregation() {
            let ssmw = run(SystemKind::Ssmw, &config(40));
            let vanilla = run(SystemKind::Vanilla, &config(40));
            assert!(ssmw.mean_timing().aggregation >= vanilla.mean_timing().aggregation);
        }
    }
}

#[cfg(test)]
mod aggregathor {
    mod tests {
        use super::super::*;

        #[test]
        fn aggregathor_learns_the_task() {
            let trace = run(SystemKind::AggregaThor, &config(30));
            assert!(trace.final_accuracy() > 0.5, "{}", trace.final_accuracy());
            assert_eq!(trace.system, "aggregathor");
        }

        #[test]
        fn aggregathor_is_slower_than_garfield_ssmw() {
            let aggregathor = run(SystemKind::AggregaThor, &config(30));
            let ssmw = run(SystemKind::Ssmw, &config(30));
            assert!(aggregathor.mean_timing().communication > ssmw.mean_timing().communication);
            assert!(aggregathor.updates_per_second() < ssmw.updates_per_second());
        }
    }
}

#[cfg(test)]
mod crash_tolerant {
    mod tests {
        use super::super::*;

        #[test]
        fn crash_tolerant_learns_without_faults() {
            let trace = run(SystemKind::CrashTolerant, &config(40));
            assert!(trace.final_accuracy() > 0.5, "{}", trace.final_accuracy());
        }

        #[test]
        fn crash_tolerant_survives_a_primary_crash() {
            let mut trainer = Trainer::new(SystemKind::CrashTolerant, config(40))
                .unwrap()
                .with_primary_crash_at(10);
            assert_eq!(trainer.primary(), Some(0));
            let crashed = trainer.run().unwrap();
            assert_eq!(
                trainer.primary(),
                Some(1),
                "fail-over should promote the next replica"
            );
            assert!(
                crashed.final_accuracy() > 0.5,
                "training should keep converging after fail-over, got {}",
                crashed.final_accuracy()
            );
            // The fail-over round, and only it, pays one extra model broadcast.
            let smooth = run(SystemKind::CrashTolerant, &config(40));
            assert!(crashed.iterations[10].communication > smooth.iterations[10].communication);
            assert_eq!(crashed.iterations[11], smooth.iterations[11]);
        }

        #[test]
        fn crash_tolerant_fails_to_learn_under_a_byzantine_attack() {
            // The paper's Fig. 5: crash tolerance is not Byzantine resilience.
            let trace = run(SystemKind::CrashTolerant, &under_attack(config(40), 1));
            assert!(
                trace.final_accuracy() < 0.6,
                "averaging replicas should not survive a reversed-gradient attack, got {}",
                trace.final_accuracy()
            );
        }

        #[test]
        fn crash_tolerant_costs_more_communication_than_ssmw() {
            let crash = run(SystemKind::CrashTolerant, &config(40));
            let ssmw = run(SystemKind::Ssmw, &config(40));
            assert!(crash.mean_timing().communication > ssmw.mean_timing().communication);
        }
    }
}

#[cfg(test)]
mod msmw {
    mod tests {
        use super::super::*;
        use garfield_aggregation::GarKind;
        use garfield_attacks::AttackKind;

        #[test]
        fn msmw_learns_without_faults() {
            let trace = run(SystemKind::Msmw, &config(40));
            assert!(trace.final_accuracy() > 0.5, "{}", trace.final_accuracy());
            assert_eq!(trace.system, "msmw");
        }

        #[test]
        fn msmw_survives_byzantine_servers_and_workers() {
            let mut cfg = config(40);
            cfg.actual_byzantine_workers = 1;
            cfg.worker_attack = Some(AttackKind::Random);
            cfg.actual_byzantine_servers = 1;
            cfg.server_attack = Some(AttackKind::Random);
            let trace = run(SystemKind::Msmw, &cfg);
            assert!(
                trace.final_accuracy() > 0.5,
                "MSMW should survive 1 Byzantine worker + 1 Byzantine server, got {}",
                trace.final_accuracy()
            );
        }

        #[test]
        fn msmw_without_byzantine_servers_waits_only_for_existing_peers() {
            // fps = 0 would ask for nps model replies; a replica has nps − 1.
            let mut cfg = config(10);
            (cfg.nps, cfg.fps) = (3, 0);
            cfg.validate(SystemKind::Msmw).unwrap();
            assert_eq!(cfg.model_quorum(), 2);
            assert_eq!(run(SystemKind::Msmw, &cfg).len(), 10);
        }

        #[test]
        fn msmw_communicates_more_than_ssmw() {
            let msmw = run(SystemKind::Msmw, &config(40));
            let ssmw = run(SystemKind::Ssmw, &config(40));
            assert!(msmw.mean_timing().communication > ssmw.mean_timing().communication);
        }

        #[test]
        fn alignment_sampling_records_cosines_near_one() {
            let mut cfg = config(30);
            // Asynchronous quorums make different replicas aggregate different
            // worker subsets, so their post-update states actually diverge
            // (otherwise every difference vector is zero and there is nothing
            // to sample). Median makes the aggregate sensitive to the excluded
            // worker.
            cfg.synchronous = false;
            cfg.gradient_gar = GarKind::Median;
            let mut trainer = Trainer::new(SystemKind::Msmw, cfg)
                .unwrap()
                .with_alignment_sampling(10);
            trainer.run().unwrap();
            let samples = trainer.alignment_samples();
            assert!(!samples.is_empty());
            for s in samples {
                assert!(s.cosine <= 1.0 + 1e-5);
            }
        }
    }
}

#[cfg(test)]
mod decentralized {
    mod tests {
        use super::super::*;
        use garfield_aggregation::GarKind;
        use garfield_ml::ShardStrategy;

        fn peers(iterations: usize) -> ExperimentConfig {
            let mut cfg = config(iterations);
            cfg.nw = 6;
            cfg.fw = 1;
            cfg
        }

        #[test]
        fn decentralized_learns_on_iid_data() {
            let trace = run(SystemKind::Decentralized, &peers(40));
            assert!(trace.final_accuracy() > 0.35, "{}", trace.final_accuracy());
            assert_eq!(trace.system, "decentralized");
        }

        #[test]
        fn decentralized_handles_non_iid_data_with_contraction() {
            let mut cfg = peers(30);
            cfg.shard_strategy = ShardStrategy::ByLabel;
            cfg.contraction_steps = 1;
            let trace = run(SystemKind::Decentralized, &cfg);
            // Non-IID decentralized learning is the hardest setting (biggest
            // accuracy loss in Fig. 4b); it should still do better than chance.
            assert!(trace.final_accuracy() > 0.3, "{}", trace.final_accuracy());
        }

        #[test]
        fn decentralized_pays_quadratic_communication() {
            // The Fig. 9 scalability wall is about fabric *bytes*, so measure
            // it on a model large enough that bandwidth (not per-message
            // latency) dominates the communication time.
            let comm = |nw: usize| {
                let mut c = peers(3);
                c.model = "mnist-cnn-lite".into();
                c.dataset_samples = 64;
                c.test_samples = 32;
                c.nw = nw;
                c.eval_every = 0;
                c.gradient_gar = GarKind::Median;
                run(SystemKind::Decentralized, &c)
                    .mean_timing()
                    .communication
            };
            let ratio = comm(8) / comm(4);
            assert!(
                ratio > 3.0,
                "doubling n should roughly quadruple decentralized communication, got ×{ratio:.2}"
            );
        }
    }
}
