//! # garfield-net
//!
//! Simulated cluster fabric for the Garfield-rs reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021).
//!
//! The paper deploys on Grid5000 over gRPC (TensorFlow) and gloo/nccl
//! collectives (PyTorch). This crate replaces that physical substrate with an
//! in-process simulation that preserves what the paper's evaluation actually
//! measures — message counts × sizes × link characteristics, not wall-clock
//! on one particular testbed (README "Architecture", the `sim` column):
//!
//! * a [`Cluster`] topology of [`NodeId`]s, each with a [`Device`] (CPU/GPU),
//!   a link profile and an optional straggler factor;
//! * a [`CostModel`] translating *bytes moved* and *work done* into simulated
//!   seconds, so message counts × sizes × link characteristics drive the
//!   throughput results exactly as they do in the paper;
//! * a [`SimClock`] accumulating simulated time per node;
//! * fault injection: crash a node, delay it, or partition links;
//! * [`PullRound`]: the "fastest `q` out of `n` replies" primitive behind the
//!   paper's `get_gradients()` / `get_models()` abstractions;
//! * a real, thread-safe [`Router`] of byte messages (pull-based
//!   request/response over channels) used by the integration tests and the
//!   quickstart example to demonstrate the communication layer end to end;
//! * the compact binary [`WireMessage`] format (version byte, round tag,
//!   length-prefixed `f32` payload) that the threaded `garfield-runtime`
//!   actors exchange over the router when training runs for real;
//! * the [`Transport`] trait abstracting the message substrate (send/recv
//!   of [`Envelope`]s, crash silence, per-peer [`PeerCounters`]) with
//!   [`RouterTransport`] as the in-process implementation — the TCP
//!   implementation lives in `garfield-transport` and lets the same actors
//!   span OS processes.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_net::{Cluster, Device, CostModel, PullRound};
//!
//! let cluster = Cluster::builder()
//!     .servers(2, Device::Cpu)
//!     .workers(4, Device::Cpu)
//!     .build();
//! assert_eq!(cluster.workers().len(), 4);
//!
//! // Fastest 3 of 4 replies with per-reply simulated latencies.
//! let round = PullRound::new(vec![(cluster.workers()[0], 0.3), (cluster.workers()[1], 0.1),
//!                                 (cluster.workers()[2], 0.2), (cluster.workers()[3], 0.9)]);
//! let (chosen, elapsed) = round.fastest(3);
//! assert_eq!(chosen.len(), 3);
//! assert!((elapsed - 0.3).abs() < 1e-9);
//! let _ = CostModel::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cost;
mod error;
mod pull;
mod router;
mod time;
mod transport;
mod wire;

pub use cluster::{Cluster, ClusterBuilder, NodeId, NodeInfo, Role};
pub use cost::{CostModel, Device, LinkProfile};
pub use error::{NetError, NetResult};
pub use pull::PullRound;
pub use router::{Envelope, Router, RouterHandle};
pub use time::SimClock;
pub use transport::{
    record_wire_recv, record_wire_send, PeerCounterMap, PeerCounters, RouterTransport, Transport,
};
pub use wire::{
    stamp_trace, unix_micros, MsgKind, PayloadPool, WireHeader, WireMessage, MAX_WIRE_VALUES,
    WIRE_HEADER_BYTES, WIRE_VERSION,
};
