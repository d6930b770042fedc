//! # garfield-core
//!
//! The core library of the Garfield-rs reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021):
//! the paper's object-oriented design (Server, Worker and their Byzantine
//! variants), its pull-based communication abstractions
//! (`get_gradients()` / `get_models()`), the Experiment module, and the
//! three applications of §5 (SSMW, MSMW, decentralized learning) plus the
//! evaluation baselines of §6.2 (vanilla, crash-tolerant, AggregaThor) — each
//! a [`SystemPlan`] interpreted by the one [`Trainer`], and by the live
//! actors of `garfield-runtime`, which host every system. The paper's
//! Controller, which launches nodes from a cluster description, is
//! `garfield-node` with a `ClusterSpec` (crate `garfield-transport`).
//!
//! The stack underneath is entirely in-workspace: tensors
//! ([`garfield_tensor`]), models/datasets/optimizers ([`garfield_ml`]), robust
//! aggregation rules ([`garfield_aggregation`]), Byzantine attacks
//! ([`garfield_attacks`]) and the analytic cost model plus the live message
//! fabric ([`garfield_net`]).
//!
//! # Quick example
//!
//! Train with one trusted server, seven workers, one of which sends reversed
//! gradients, tolerated by Multi-Krum:
//!
//! ```rust
//! use garfield_core::{ExperimentConfig, SystemKind, Trainer};
//! use garfield_attacks::AttackKind;
//!
//! let mut config = ExperimentConfig::small();
//! config.iterations = 10;
//! config.actual_byzantine_workers = 1;
//! config.worker_attack = Some(AttackKind::Reversed);
//! let trace = Trainer::new(SystemKind::Ssmw, config)?.run()?;
//! assert_eq!(trace.len(), 10);
//! # Ok::<(), garfield_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
pub mod apps;
pub mod checkpoint;
mod deployment;
mod error;
mod executor;
mod experiment;
pub mod json;
mod server;
pub mod shard;
pub mod system;
mod telemetry;
mod worker;

pub use alignment::{alignment_sample, AlignmentSample};
pub use apps::Trainer;
pub use checkpoint::{Checkpoint, CheckpointPolicy};
pub use deployment::{Deployment, GradientRound, LiveParts};
pub use error::{CoreError, CoreResult};
pub use executor::{Executor, SimExecutor};
pub use experiment::{ExperimentConfig, SystemKind};
pub use server::{ByzantineServer, ParameterServer};
pub use shard::{shard_server, ShardMap, ShardSliceModel, ShardSpec};
pub use system::{
    deployed_config, gradient_gar, live_supported, system_names, MergePhase, SystemPlan, Topology,
};
pub use telemetry::{
    AccuracyPoint, IterationTiming, NodeTelemetry, RuntimeTelemetry, TrainingTrace,
};
pub use worker::{ByzantineWorker, Worker};
