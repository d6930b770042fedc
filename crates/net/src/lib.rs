//! # garfield-net
//!
//! Node ids, the analytic cost model and the live message fabric of the
//! Garfield-rs reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021).
//!
//! The paper deploys on Grid5000 over gRPC (TensorFlow) and gloo/nccl
//! collectives (PyTorch). This crate stands in for that substrate twice over
//! (README "Architecture"):
//!
//! * for the simulator, a [`CostModel`] translating *bytes moved* and *work
//!   done* on a [`Device`] into simulated seconds, so message counts × sizes ×
//!   link characteristics drive the throughput results exactly as they do in
//!   the paper, and [`PullRound`]: the "fastest `q` out of `n` replies"
//!   primitive behind the paper's `get_gradients()` / `get_models()`
//!   abstractions;
//! * for live training, a real, thread-safe [`Router`] of byte messages
//!   between [`NodeId`]s (point-to-point over channels, silent when a node is
//!   crashed);
//! * the compact binary [`WireMessage`] format (version byte, round tag,
//!   length-prefixed `f32` payload) that the threaded `garfield-runtime`
//!   actors exchange when training runs for real;
//! * the [`Transport`] trait abstracting the message substrate (send/recv
//!   of [`Envelope`]s, crash silence, per-peer [`PeerCounters`]) with
//!   [`RouterTransport`] as the in-process implementation — the TCP
//!   implementation lives in `garfield-transport` and lets the same actors
//!   span OS processes.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_net::{CostModel, Device, NodeId, PullRound};
//!
//! // Fastest 3 of 4 replies with per-reply simulated arrival times.
//! let round = PullRound::new(vec![(NodeId(0), 0.3), (NodeId(1), 0.1),
//!                                 (NodeId(2), 0.2), (NodeId(3), 0.9)]);
//! let (chosen, elapsed) = round.fastest(3);
//! assert_eq!(chosen, vec![NodeId(1), NodeId(2), NodeId(0)]);
//! assert!((elapsed - 0.3).abs() < 1e-9);
//!
//! // Pulling those three 1M-parameter vectors costs simulated seconds.
//! assert!(CostModel::default().parallel_pull_time(1_000_000, 3, Device::Cpu) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
mod ids;
mod pull;
mod router;
mod transport;
mod wire;

pub use cost::{CostModel, Device, LinkProfile};
pub use error::{NetError, NetResult};
pub use ids::{NodeId, Role};
pub use pull::PullRound;
pub use router::{Envelope, Router, RouterHandle};
pub use transport::{
    record_wire_recv, record_wire_send, PeerCounterMap, PeerCounters, RouterTransport, Transport,
};
pub use wire::{
    stamp_trace, unix_micros, MsgKind, PayloadPool, WireHeader, WireMessage, MAX_WIRE_VALUES,
    WIRE_HEADER_BYTES, WIRE_VERSION,
};
