//! The transport abstraction of the live runtime.
//!
//! PR 2 ran every replica on its own thread with messages moving through the
//! in-process [`Router`]; the multi-process deployment moves the same
//! [`WireMessage`](crate::WireMessage) bytes over TCP sockets
//! (`garfield-transport`). [`Transport`] is the seam between the two: the
//! actors in `garfield-runtime` are written against this trait only, so the
//! *protocol* (pull-based `get_gradients()` / `get_models()`, quorums,
//! deadlines, crash silence) is identical whether the peers are threads or
//! OS processes on real sockets.
//!
//! Semantics every implementation must provide:
//!
//! * **Point-to-point sends** that never block the caller indefinitely: a
//!   slow or dead peer may cause the message to be dropped, never a stall.
//! * **Deadline-respecting receives** ([`Transport::recv_timeout`]): the
//!   pull primitives ride out silent peers through timeouts, so a receive
//!   must return [`NetError::Timeout`](crate::NetError::Timeout) when the
//!   window closes.
//! * **Crash silence** ([`Transport::crash`]): a crashed endpoint stops
//!   emitting; peers only notice through their own quorums and timeouts
//!   (no error is propagated on their side).
//! * **Per-peer accounting** ([`Transport::peer_counters`]): on-wire message
//!   and byte counts per remote peer, surfaced in `RuntimeTelemetry` so
//!   live reports cover TCP runs too.

use crate::{Envelope, NetResult, NodeId, Router, RouterHandle};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// On-wire traffic counters of one endpoint toward one remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerCounters {
    /// The remote peer these counters describe.
    pub peer: NodeId,
    /// Messages successfully handed to the wire toward `peer`.
    pub messages_sent: u64,
    /// Bytes put on the wire toward `peer` (frame headers included where the
    /// substrate frames; the in-process router counts payload bytes).
    pub bytes_sent: u64,
    /// Messages received from `peer`.
    pub messages_received: u64,
    /// Bytes received from `peer`.
    pub bytes_received: u64,
    /// Messages involving `peer` this endpoint dropped: outbound sends shed
    /// because the peer's bounded queue was full (the backpressure signature
    /// of a slow or dead peer), plus stale inbound envelopes from `peer`
    /// discarded when a rejoining endpoint replaced its inbox
    /// ([`Transport::rejoin`]) — every message lost at this endpoint is
    /// accounted for here rather than vanishing.
    pub messages_dropped: u64,
}

impl PeerCounters {
    /// Creates zeroed counters toward `peer`.
    pub fn new(peer: NodeId) -> Self {
        PeerCounters {
            peer,
            messages_sent: 0,
            bytes_sent: 0,
            messages_received: 0,
            bytes_received: 0,
            messages_dropped: 0,
        }
    }
}

/// The per-peer `garfield-obs` handles mirroring one [`PeerCounters`] entry
/// into the metrics registry. Handles are registered once per peer (cold
/// path, under the map lock) and bumped with relaxed atomics afterwards;
/// with observability disabled every bump is a load and a branch.
#[derive(Debug)]
struct PeerMetrics {
    messages_sent: garfield_obs::Counter,
    bytes_sent: garfield_obs::Counter,
    messages_received: garfield_obs::Counter,
    bytes_received: garfield_obs::Counter,
    messages_dropped: garfield_obs::Counter,
}

impl PeerMetrics {
    fn register(peer: NodeId) -> Self {
        let peer = peer.0.to_string();
        let labels: &[(&'static str, &str)] = &[("peer", peer.as_str())];
        PeerMetrics {
            messages_sent: garfield_obs::metrics::counter(
                "garfield_messages_sent_total",
                "Messages handed to the wire, by destination peer.",
                labels,
            ),
            bytes_sent: garfield_obs::metrics::counter(
                "garfield_wire_bytes_sent_total",
                "On-wire bytes sent, by destination peer.",
                labels,
            ),
            messages_received: garfield_obs::metrics::counter(
                "garfield_messages_received_total",
                "Messages received, by sending peer.",
                labels,
            ),
            bytes_received: garfield_obs::metrics::counter(
                "garfield_wire_bytes_received_total",
                "On-wire bytes received, by sending peer.",
                labels,
            ),
            messages_dropped: garfield_obs::metrics::counter(
                "garfield_messages_dropped_total",
                "Messages dropped at this endpoint (backpressure shed or stale \
                 rejoin inbox), by peer.",
                labels,
            ),
        }
    }
}

/// A thread-safe map of [`PeerCounters`], shared between the I/O threads of
/// a transport endpoint. Every record also feeds the process-wide
/// `garfield-obs` registry (`garfield_messages_*`/`garfield_wire_bytes_*`
/// families, labeled by peer) and, for drops, the flight recorder — so live
/// scrapes and post-mortem dumps see the same accounting `NodeTelemetry`
/// reports at the end of the run. In-process multi-node runs share one
/// registry, so the labeled series aggregate over all local endpoints.
#[derive(Debug, Default)]
pub struct PeerCounterMap {
    inner: Mutex<HashMap<NodeId, (PeerCounters, PeerMetrics)>>,
}

impl PeerCounterMap {
    /// Creates an empty counter map.
    pub fn new() -> Self {
        PeerCounterMap::default()
    }

    fn with(&self, peer: NodeId, f: impl FnOnce(&mut PeerCounters, &PeerMetrics)) {
        let mut map = self.inner.lock();
        let (counters, metrics) = map
            .entry(peer)
            .or_insert_with(|| (PeerCounters::new(peer), PeerMetrics::register(peer)));
        f(counters, metrics);
    }

    /// Records one message of `bytes` on-wire bytes sent to `peer`.
    pub fn record_send(&self, peer: NodeId, bytes: usize) {
        self.with(peer, |c, m| {
            c.messages_sent += 1;
            c.bytes_sent += bytes as u64;
            m.messages_sent.inc();
            m.bytes_sent.add(bytes as u64);
        });
    }

    /// Records one message of `bytes` on-wire bytes received from `peer`.
    pub fn record_recv(&self, peer: NodeId, bytes: usize) {
        self.with(peer, |c, m| {
            c.messages_received += 1;
            c.bytes_received += bytes as u64;
            m.messages_received.inc();
            m.bytes_received.add(bytes as u64);
        });
    }

    /// Records one message to `peer` dropped under backpressure, attributed
    /// to no particular round (see [`PeerCounterMap::record_drop_at`]).
    pub fn record_drop(&self, peer: NodeId) {
        self.record_drop_at(peer, 0);
    }

    /// Records one dropped message to `peer` carrying the envelope tag
    /// `round`, so the flight-recorder event lands on the round that shed it.
    pub fn record_drop_at(&self, peer: NodeId, round: u64) {
        self.with(peer, |c, m| {
            c.messages_dropped += 1;
            m.messages_dropped.inc();
        });
        garfield_obs::flight::record(
            garfield_obs::flight::EventKind::FrameDropped,
            round,
            Some(peer.0),
            0.0,
        );
    }

    /// A snapshot of every peer's counters, sorted by peer id.
    pub fn snapshot(&self) -> Vec<PeerCounters> {
        let mut out: Vec<PeerCounters> = self.inner.lock().values().map(|(c, _)| *c).collect();
        out.sort_by_key(|c| c.peer);
        out
    }
}

/// Records a `wire_send` flight event for a trace-stamped payload reaching
/// the wire toward `to`. Both transports call this at the point a frame is
/// actually written (router: the channel send; TCP: the socket write), so
/// the event stream reflects wire order, not queueing order.
///
/// With observability disabled this is one relaxed load; with it enabled the
/// payload header is peeked (never decoded) and unstamped or non-wire
/// payloads record nothing.
#[inline]
pub fn record_wire_send(to: NodeId, payload: &[u8]) {
    if !garfield_obs::enabled() {
        return;
    }
    if let Ok(header) = crate::WireMessage::peek(payload) {
        if header.sent_unix_us != 0 {
            garfield_obs::flight::record(
                garfield_obs::flight::EventKind::WireSend,
                header.round,
                Some(to.0),
                header.seq as f64,
            );
        }
    }
}

/// Records a `wire_recv` flight event for a trace-stamped payload arriving
/// from `from`, carrying the one-way delay (receiver clock minus the
/// sender's stamped send time) in milliseconds. On one machine — every
/// deployment the test rigs and `expfig trace` cover — both clocks are the
/// same clock, so the delta is a true one-way delay; across machines it
/// additionally absorbs clock offset, like any timestamp-based tracing.
#[inline]
pub fn record_wire_recv(from: NodeId, payload: &[u8]) {
    if !garfield_obs::enabled() {
        return;
    }
    let Ok(header) = crate::WireMessage::peek(payload) else {
        return;
    };
    if header.sent_unix_us == 0 {
        return; // never stamped: no send time to attribute a delay to
    }
    let delay_us = crate::wire::unix_micros().saturating_sub(header.sent_unix_us);
    garfield_obs::flight::record(
        garfield_obs::flight::EventKind::WireRecv,
        header.round,
        Some(from.0),
        delay_us as f64 / 1_000.0,
    );
}

/// One node's endpoint on some message substrate (threads or sockets).
pub trait Transport: Send {
    /// The node id this endpoint speaks as.
    fn local_id(&self) -> NodeId;

    /// Sends `payload` to `to` with the given `tag`, without ever blocking
    /// indefinitely on a slow peer.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown recipients or a crashed/closed local
    /// endpoint. A reachable-but-slow peer is *not* an error: the message
    /// may be dropped (counted in [`PeerCounters::messages_dropped`]) and
    /// the sender's quorum logic rides it out.
    fn send(&self, to: NodeId, tag: u64, payload: Bytes) -> NetResult<()>;

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`](crate::NetError::Timeout) when nothing
    /// arrives in time and a closed-endpoint error when the substrate is
    /// gone for good.
    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope>;

    /// Makes this endpoint go silent (Byzantine crash semantics): it stops
    /// emitting and delivering, and its peers notice only through timeouts.
    fn crash(&self);

    /// Rejoins the substrate after [`Transport::crash`] under the same id,
    /// as a *fresh incarnation*: envelopes stranded on the dead incarnation
    /// are dropped (and counted per sending peer in
    /// [`PeerCounters::messages_dropped`]), and only messages sent after the
    /// rejoin reach the endpoint again.
    ///
    /// # Errors
    ///
    /// The default is unsupported ([`NetError::Io`](crate::NetError::Io)):
    /// substrates whose endpoints live and die with their OS process (TCP)
    /// rejoin by *respawning* the process — `garfield-node --resume` — not
    /// in place.
    fn rejoin(&self) -> NetResult<()> {
        Err(crate::NetError::Io(
            "this transport cannot rejoin in place; restart the node process".into(),
        ))
    }

    /// Waits up to `timeout` for messages already accepted by
    /// [`Transport::send`] to actually reach the wire, so a subsequent
    /// [`Transport::peer_counters`] snapshot covers them. Substrates that
    /// deliver synchronously keep the no-op default.
    fn flush(&self, timeout: Duration) {
        let _ = timeout;
    }

    /// Per-peer on-wire counters accumulated so far, sorted by peer id.
    fn peer_counters(&self) -> Vec<PeerCounters>;
}

/// The in-process [`Transport`]: a [`RouterHandle`] plus per-peer counters.
///
/// This is PR 2's substrate behind the new trait — one registered endpoint
/// on a shared [`Router`], with channel sends standing in for sockets. The
/// "on-wire" byte counts are payload bytes, since the router moves envelopes
/// without framing.
///
/// The handle sits behind a mutex so [`Transport::rejoin`] can swap in a
/// fresh inbox (via [`Router::register_replace`]) without `&mut self`; a
/// transport endpoint is driven by a single actor thread, so the lock is
/// never contended.
#[derive(Debug)]
pub struct RouterTransport {
    id: NodeId,
    handle: Mutex<RouterHandle>,
    router: Router,
    counters: PeerCounterMap,
}

impl RouterTransport {
    /// Registers `id` on the router and returns its transport endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateNode`](crate::NetError::DuplicateNode)
    /// when the id is already registered.
    pub fn connect(router: &Router, id: NodeId) -> NetResult<Self> {
        Ok(RouterTransport {
            id,
            handle: Mutex::new(router.register(id)?),
            router: router.clone(),
            counters: PeerCounterMap::new(),
        })
    }
}

impl Transport for RouterTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, tag: u64, payload: Bytes) -> NetResult<()> {
        let bytes = payload.len();
        record_wire_send(to, &payload);
        self.handle.lock().send(to, tag, payload)?;
        self.counters.record_send(to, bytes);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        let envelope = self.handle.lock().recv_timeout(timeout)?;
        self.counters
            .record_recv(envelope.from, envelope.payload.len());
        record_wire_recv(envelope.from, &envelope.payload);
        Ok(envelope)
    }

    fn crash(&self) {
        self.router.crash(self.id);
    }

    fn rejoin(&self) -> NetResult<()> {
        let mut handle = self.handle.lock();
        // Envelopes stranded on the stale inbox were addressed to the dead
        // incarnation: they are dropped here, counted per sending peer, so
        // the accounting never loses a message silently. (While the endpoint
        // is crashed the router drops new sends on the sender side, so
        // nothing races this drain.)
        while let Ok(stale) = handle.recv_timeout(Duration::ZERO) {
            self.counters.record_drop(stale.from);
        }
        // A fresh inbox takes over the identity; replacing also clears the
        // router-side crash flag, like a node process coming back up.
        *handle = self.router.register_replace(self.id);
        Ok(())
    }

    fn peer_counters(&self) -> Vec<PeerCounters> {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetError;

    #[test]
    fn router_transport_sends_receives_and_counts_per_peer() {
        let router = Router::new();
        let a = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let b = RouterTransport::connect(&router, NodeId(2)).unwrap();
        assert_eq!(a.local_id(), NodeId(1));
        a.send(NodeId(2), 4, Bytes::from_static(b"abcde")).unwrap();
        let env = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(env.from, NodeId(1));
        assert_eq!(env.tag, 4);

        let sent = a.peer_counters();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].peer, NodeId(2));
        assert_eq!(sent[0].messages_sent, 1);
        assert_eq!(sent[0].bytes_sent, 5);
        let received = b.peer_counters();
        assert_eq!(received[0].peer, NodeId(1));
        assert_eq!(received[0].messages_received, 1);
        assert_eq!(received[0].bytes_received, 5);
    }

    #[test]
    fn duplicate_connect_is_rejected_and_crash_goes_silent() {
        let router = Router::new();
        let a = RouterTransport::connect(&router, NodeId(1)).unwrap();
        assert_eq!(
            RouterTransport::connect(&router, NodeId(1)).unwrap_err(),
            NetError::DuplicateNode(NodeId(1))
        );
        let b = RouterTransport::connect(&router, NodeId(2)).unwrap();
        a.crash();
        assert!(matches!(
            a.send(NodeId(2), 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
        // Messages toward a crashed endpoint vanish silently: the sender
        // only notices through its own timeout.
        b.send(NodeId(1), 0, Bytes::from_static(b"x")).unwrap();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn rejoin_drops_and_counts_stale_envelopes_then_receives_fresh_ones() {
        // The satellite claim for the rejoin path: envelopes queued on the
        // stale handle at the moment of `register_replace` are never
        // delivered to the new incarnation, and each one is counted as
        // dropped in the PeerCounters instead of vanishing silently.
        let router = Router::new();
        let a = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let b = RouterTransport::connect(&router, NodeId(2)).unwrap();
        let c = RouterTransport::connect(&router, NodeId(3)).unwrap();

        // Three envelopes land in a's inbox before it dies.
        b.send(NodeId(1), 0, Bytes::from_static(b"stale-b1"))
            .unwrap();
        b.send(NodeId(1), 0, Bytes::from_static(b"stale-b2"))
            .unwrap();
        c.send(NodeId(1), 0, Bytes::from_static(b"stale-c"))
            .unwrap();

        a.crash();
        // Sends toward the crashed endpoint vanish at the router (sender
        // side) — they are *not* part of the stale-inbox accounting.
        b.send(NodeId(1), 0, Bytes::from_static(b"while-dead"))
            .unwrap();
        a.rejoin().unwrap();

        // The new incarnation only sees traffic sent after the rejoin.
        b.send(NodeId(1), 7, Bytes::from_static(b"fresh")).unwrap();
        let env = a.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.tag, 7);
        assert_eq!(&env.payload[..], b"fresh");
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));

        // Every stale envelope is in the drop accounting, per sending peer.
        let counters = a.peer_counters();
        let from_b = counters.iter().find(|p| p.peer == NodeId(2)).unwrap();
        let from_c = counters.iter().find(|p| p.peer == NodeId(3)).unwrap();
        assert_eq!(from_b.messages_dropped, 2);
        assert_eq!(from_c.messages_dropped, 1);
        // The fresh envelope was received, not dropped.
        assert_eq!(from_b.messages_received, 1);
        assert_eq!(router.len(), 3, "rejoin replaces, never duplicates");
    }

    #[test]
    fn rejoined_endpoint_can_send_again() {
        let router = Router::new();
        let a = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let b = RouterTransport::connect(&router, NodeId(2)).unwrap();
        a.crash();
        assert!(matches!(
            a.send(NodeId(2), 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
        a.rejoin().unwrap();
        a.send(NodeId(2), 1, Bytes::from_static(b"back")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(2)).unwrap().payload[..],
            b"back"
        );
    }

    #[test]
    fn counter_map_snapshot_is_sorted_and_tracks_drops() {
        let map = PeerCounterMap::new();
        map.record_send(NodeId(7), 10);
        map.record_recv(NodeId(2), 4);
        map.record_drop(NodeId(7));
        let snap = map.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].peer, NodeId(2));
        assert_eq!(snap[1].peer, NodeId(7));
        assert_eq!(snap[1].messages_dropped, 1);
        assert_eq!(snap[1].messages_sent, 1);
        assert_eq!(PeerCounters::new(NodeId(3)).bytes_sent, 0);
    }
}
