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
//! * for the simulator, the [`cost`] model translating *bytes moved* and
//!   *work done* into simulated seconds, so message counts × sizes × link
//!   characteristics drive the throughput results exactly as they do in the
//!   paper;
//! * for live training, a real, thread-safe [`Router`] of byte messages
//!   between [`NodeId`]s: one registry entry (inbox sender + crash flag) per
//!   node, point-to-point over channels, silent when a node is crashed;
//! * the compact binary [`WireMessage`] format (version byte, round tag,
//!   length-prefixed `f32` payload) that the threaded `garfield-runtime`
//!   actors exchange when training runs for real;
//! * the [`Transport`] trait abstracting the message substrate (send/recv
//!   of [`Envelope`]s, crash silence, per-peer [`PeerCounters`]) with
//!   [`RouterTransport`] as the in-process implementation (it owns its
//!   node's inbox; a rejoin drains that inbox rather than swapping it) —
//!   the TCP implementation lives in `garfield-transport` and lets the same
//!   actors span OS processes.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_net::cost;
//!
//! // Pulling the fastest three of a round's 1M-parameter vectors costs
//! // simulated seconds, more of them for more vectors.
//! let three = cost::parallel_pull_time(1_000_000, 3);
//! assert!(three > 0.0);
//! assert!(cost::parallel_pull_time(1_000_000, 4) > three);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod error;
mod ids;
mod router;
mod transport;
mod wire;

pub use error::{NetError, NetResult};
pub use ids::{NodeId, Role};
pub use router::{Envelope, Router, RouterTransport};
pub use transport::{record_wire_recv, record_wire_send, PeerCounterMap, PeerCounters, Transport};
pub use wire::{
    stamp_trace, unix_micros, MsgKind, PayloadPool, WireHeader, WireMessage, MAX_WIRE_VALUES,
    WIRE_HEADER_BYTES, WIRE_VERSION,
};
