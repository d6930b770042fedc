//! # garfield
//!
//! Facade crate for **Garfield-rs**, a from-scratch Rust reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"*
//! (Guerraoui, Guirguis, Plassmann, Ragot, Rouault — DSN 2021).
//!
//! Garfield makes SGD-based distributed learning Byzantine-resilient by
//! replacing gradient averaging with statistically robust gradient
//! aggregation rules (GARs) and by giving servers and workers pull-based
//! communication abstractions that keep working when nodes crash, lag or lie.
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`tensor`] | dense `f32` tensors, RNG, distance kernels |
//! | [`ml`] | models, losses, SGD, synthetic datasets, the Table 1 model zoo |
//! | [`aggregation`] | Average, Median, Krum, Multi-Krum, MDA, Bulyan + the variance probe |
//! | [`attacks`] | random / reversed / little-is-enough / fall-of-empires … |
//! | [`net`] | node ids, cost model, pull rounds, message router, transport trait, wire format |
//! | [`core`] | Server/Worker objects, Controller, the `SystemPlan` of every system and the one `Trainer` running them |
//! | [`runtime`] | threaded actor runtime: live training over real router messages, fault injection |
//! | [`transport`] | TCP transport + the `garfield-node` binary: one process per node on real sockets |
//!
//! The most common entry point is [`Controller`]:
//!
//! ```rust
//! use garfield::{Controller, ExperimentConfig, SystemKind};
//!
//! let mut config = ExperimentConfig::small();
//! config.iterations = 5;
//! let trace = Controller::new(config).run(SystemKind::Ssmw)?;
//! assert_eq!(trace.len(), 5);
//! # Ok::<(), garfield::CoreError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Dense tensor math substrate.
pub use garfield_tensor as tensor;

/// Machine-learning substrate: models, datasets, losses, optimizers, model zoo.
pub use garfield_ml as ml;

/// Statistically robust gradient aggregation rules.
pub use garfield_aggregation as aggregation;

/// Byzantine attack implementations.
pub use garfield_attacks as attacks;

/// Simulated cluster fabric, cost model and message router.
pub use garfield_net as net;

/// Garfield core: Server/Worker objects, Controller, system plans and the trainer.
pub use garfield_core as core;

/// Threaded actor runtime: live Byzantine training over real messages.
pub use garfield_runtime as runtime;

/// TCP transport and the `garfield-node` per-process deployment layer.
pub use garfield_transport as transport;

pub use garfield_aggregation::{build_gar, Gar, GarKind};
pub use garfield_attacks::{Attack, AttackKind};
pub use garfield_core::{
    Controller, CoreError, CoreResult, Deployment, ExecMode, Executor, ExperimentConfig,
    SimExecutor, SystemKind, TrainingTrace,
};
pub use garfield_ml::{Dataset, DatasetKind, Model, ShardStrategy};
pub use garfield_net::Device;
pub use garfield_runtime::{executor_for, FaultPlan, LiveExecutor};
pub use garfield_tensor::{Tensor, TensorRng};
