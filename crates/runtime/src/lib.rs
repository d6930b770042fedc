//! # garfield-runtime
//!
//! A multi-threaded actor runtime for the Garfield-rs reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021):
//! every worker and server replica of an
//! [`ExperimentConfig`](garfield_core::ExperimentConfig) runs as its own OS
//! thread, and all gradients and models move as real length-prefixed byte
//! messages ([`garfield_net::WireMessage`]) through the in-process
//! [`garfield_net::Router`].
//!
//! ## Sim vs. live
//!
//! The workspace has two execution substrates behind the shared
//! [`garfield_core::Executor`] trait:
//!
//! | | `sim` ([`garfield_core::SimExecutor`]) | `live` ([`LiveExecutor`]) |
//! |---|---|---|
//! | Concurrency | one thread drives all nodes | one OS thread per node |
//! | Communication | analytic `CostModel` charges | real router messages (bytes on the wire) |
//! | Time | simulated seconds (deterministic, `SystemPlan::timing`) | wall-clock seconds |
//! | Reproduces | the paper's throughput/overhead studies (Figs. 6–10, 13–16) | the paper's *system* claims (§3.2): pull-based `get_gradients()` / `get_models()` RPCs that unblock on the fastest `q` of `n` replies and stay live under crashes, stragglers and Byzantine payloads when `n ≥ q + f` |
//!
//! Both substrates build their nodes through the same
//! [`Deployment`](garfield_core::Deployment), so a fault-free live run
//! reproduces the sim executor's learning trajectory exactly. Determinism
//! holds whenever every live replier is inside the quorum (the synchronous
//! default, `q = n`): the aggregation path sorts collected replies by node
//! id and peers serve per-round model snapshots, so the final model is
//! independent of message arrival order. When `q` is below the number of
//! live repliers (the asynchronous regime), quorum *membership* is decided
//! by wall-clock arrival — such runs are live by construction but not
//! bit-reproducible, exactly like the real deployments in the paper.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] installs per-node faults for live runs: crash at an
//! iteration (the node goes silent), a fixed delay (a straggler the quorum
//! leaves behind) or a Byzantine payload rewrite using any
//! [`garfield_attacks::AttackKind`]. The live adversary is *non-omniscient*:
//! a Byzantine node corrupts its own payload without ever seeing its peers'
//! honest vectors. The collusion-based attacks (little-is-enough,
//! fall-of-empires) therefore run in their *local-estimate* variant: the
//! attacker estimates the round's gradient moments from a short history of
//! its own honest gradients — the honest population it belongs to is its
//! best available proxy for the peers it cannot observe. The sim substrate's
//! omniscient adversary still feeds those attacks the exact peer view when
//! you need the paper's worst case.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_core::{ExperimentConfig, SystemKind};
//! use garfield_runtime::{FaultPlan, LiveExecutor};
//!
//! let mut config = ExperimentConfig::small();
//! config.nw = 4;
//! config.fw = 0;
//! config.iterations = 3;
//! config.eval_every = 3;
//! let mut live = LiveExecutor::new(config)
//!     .with_faults(FaultPlan::new().delay_worker(3, 5));
//! let report = live.run_live(SystemKind::Vanilla)?;
//! assert_eq!(report.trace.len(), 3);
//! assert!(report.telemetry.total_messages() > 0);
//! # Ok::<(), garfield_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actors;
mod admission;
mod executor;
mod fault;
pub mod node;

pub use executor::{executor_for, LiveExecutor, LiveOptions, LiveReport};
pub use fault::{Fault, FaultPlan};
pub use garfield_aggregation::PeerSuspicion;
pub use node::{NodeLayout, ServerNode, ServerRun, WorkerNode};
