//! A real in-process message router: the pull-based communication pattern
//! with actual concurrency.
//!
//! Threads and channels stand in for gRPC endpoints: point-to-point
//! delivery, and silence — not errors — from a crashed peer, which callers
//! ride out with their own timeouts. [`Router`] is the shared registry of
//! inboxes; each node's [`RouterTransport`] owns its inbox and is the only
//! way to send or receive on it.

use crate::transport::{record_wire_recv, record_wire_send, PeerCounterMap};
use crate::{NetError, NetResult, NodeId, PeerCounters, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender of the message.
    pub from: NodeId,
    /// Recipient of the message.
    pub to: NodeId,
    /// Application-defined tag (e.g. iteration number or request kind).
    pub tag: u64,
    /// Opaque payload (a serialized gradient or model in the real system).
    pub payload: Bytes,
}

/// One registered node: the sending side of its inbox and whether it is
/// crashed.
struct Inbox {
    tx: Sender<Envelope>,
    crashed: bool,
}

/// The shared router: a registry of per-node inboxes.
///
/// Cloning the router is cheap (it is an `Arc` underneath); each participant
/// calls [`RouterTransport::connect`] once to obtain its endpoint.
#[derive(Clone, Default)]
pub struct Router {
    registry: Arc<RwLock<HashMap<NodeId, Inbox>>>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Removes `id` from the registry. The entry holds the only sender of
    /// the node's inbox, so the endpoint's `recv_timeout` returns
    /// [`NetError::RouterClosed`] once its queue drains, and sends to `id`
    /// fail with [`NetError::UnknownNode`].
    pub fn close(&self, id: NodeId) {
        self.registry.write().remove(&id);
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.registry.read().len()
    }

    /// Whether no node is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("nodes", &self.len())
            .finish()
    }
}

/// The in-process [`Transport`]: one node's inbox on a shared [`Router`],
/// plus per-peer counters.
///
/// Channel sends stand in for sockets. The "on-wire" byte counts are
/// payload bytes, since the router moves envelopes without framing. The
/// endpoint owns its receiver, so it is `Send` but not `Sync`: one actor
/// thread drives it.
#[derive(Debug)]
pub struct RouterTransport {
    id: NodeId,
    router: Router,
    inbox: Receiver<Envelope>,
    counters: PeerCounterMap,
}

impl RouterTransport {
    /// Registers `id` on the router and returns its transport endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateNode`] when the id is already
    /// registered: silently replacing an inbox would leave the first
    /// endpoint dead while its owner keeps waiting on it.
    pub fn connect(router: &Router, id: NodeId) -> NetResult<Self> {
        let mut registry = router.registry.write();
        if registry.contains_key(&id) {
            return Err(NetError::DuplicateNode(id));
        }
        let (tx, inbox) = unbounded();
        registry.insert(id, Inbox { tx, crashed: false });
        Ok(RouterTransport {
            id,
            router: router.clone(),
            inbox,
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
        let registry = self.router.registry.read();
        if registry.get(&self.id).is_some_and(|own| own.crashed) {
            // A crashed sender produces nothing.
            return Err(NetError::Unreachable { from: self.id, to });
        }
        match registry.get(&to) {
            None => return Err(NetError::UnknownNode(to)),
            // Silently dropped: Byzantine-tolerant callers rely on timeouts.
            Some(inbox) if inbox.crashed => {}
            Some(inbox) => {
                let envelope = Envelope {
                    from: self.id,
                    to,
                    tag,
                    payload,
                };
                inbox
                    .tx
                    .send(envelope)
                    .map_err(|_| NetError::RouterClosed)?;
            }
        }
        drop(registry);
        self.counters.record_send(to, bytes);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        let envelope = self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::RouterClosed,
        })?;
        self.counters
            .record_recv(envelope.from, envelope.payload.len());
        record_wire_recv(envelope.from, &envelope.payload);
        Ok(envelope)
    }

    fn crash(&self) {
        if let Some(inbox) = self.router.registry.write().get_mut(&self.id) {
            inbox.crashed = true;
        }
    }

    fn rejoin(&self) -> NetResult<()> {
        // Envelopes still in the inbox were addressed to the dead
        // incarnation: each is dropped and counted on its round, per sending
        // peer. Sends push while holding the registry's read lock, so with
        // the write lock held nothing new lands until the flag clears.
        let mut registry = self.router.registry.write();
        while let Ok(stale) = self.inbox.try_recv() {
            self.counters.record_drop_at(stale.from, stale.tag);
        }
        if let Some(inbox) = registry.get_mut(&self.id) {
            inbox.crashed = false;
        }
        Ok(())
    }

    fn peer_counters(&self) -> Vec<PeerCounters> {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn connect(router: &Router, id: u32) -> RouterTransport {
        RouterTransport::connect(router, NodeId(id)).unwrap()
    }

    #[test]
    fn point_to_point_delivery() {
        let router = Router::new();
        let a = connect(&router, 1);
        let b = connect(&router, 2);
        a.send(NodeId(2), 7, Bytes::from_static(b"hello")).unwrap();
        let msg = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(msg.from, NodeId(1));
        assert_eq!(msg.to, NodeId(2));
        assert_eq!(msg.tag, 7);
        assert_eq!(&msg.payload[..], b"hello");
    }

    #[test]
    fn unknown_recipient_is_an_error_and_timeout_is_reported() {
        let router = Router::new();
        let a = connect(&router, 1);
        assert!(matches!(
            a.send(NodeId(9), 0, Bytes::new()),
            Err(NetError::UnknownNode(_))
        ));
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn crashed_recipient_silently_drops_messages() {
        let router = Router::new();
        let a = connect(&router, 1);
        let b = connect(&router, 2);
        b.crash();
        a.send(NodeId(2), 0, Bytes::from_static(b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
    }

    #[test]
    fn crashed_sender_cannot_send() {
        let router = Router::new();
        let a = connect(&router, 1);
        let _b = connect(&router, 2);
        a.crash();
        assert!(matches!(
            a.send(NodeId(2), 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn pull_round_collects_fastest_replies_despite_a_silent_peer() {
        let router = Router::new();
        let server = connect(&router, 0);
        let workers: Vec<RouterTransport> = (1..=3).map(|id| connect(&router, id)).collect();
        workers[2].crash(); // one worker never replies

        // Server "requests" by tag; workers reply on their own threads.
        let threads: Vec<_> = workers
            .into_iter()
            .map(|w| {
                thread::spawn(move || {
                    let _ = w.send(NodeId(0), 42, Bytes::from(vec![w.local_id().0 as u8]));
                })
            })
            .collect();
        // The server proceeds with the fastest 2 of 3, and nothing else comes.
        for _ in 0..2 {
            let reply = server.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(reply.tag, 42);
            assert_ne!(reply.from, NodeId(3));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(server.recv_timeout(Duration::from_millis(20)).is_err());
    }

    #[test]
    fn double_registration_is_an_error_and_keeps_the_first_handle_alive() {
        let router = Router::new();
        let a = connect(&router, 1);
        let b = connect(&router, 2);
        assert_eq!(
            RouterTransport::connect(&router, NodeId(1)).unwrap_err(),
            NetError::DuplicateNode(NodeId(1))
        );
        // The original endpoint still receives: no silent replacement happened.
        b.send(NodeId(1), 3, Bytes::from_static(b"still here"))
            .unwrap();
        assert_eq!(
            &a.recv_timeout(Duration::from_millis(100)).unwrap().payload[..],
            b"still here"
        );
        assert_eq!(router.len(), 2);
    }

    #[test]
    fn a_closed_inbox_drains_then_reports_closed() {
        let router = Router::new();
        let a = connect(&router, 1);
        let b = connect(&router, 2);
        a.send(NodeId(2), 5, Bytes::from_static(b"last")).unwrap();
        router.close(NodeId(2));
        assert_eq!(router.len(), 1);
        assert_eq!(
            &b.recv_timeout(Duration::from_millis(100)).unwrap().payload[..],
            b"last"
        );
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(10)),
            Err(NetError::RouterClosed)
        ));
        assert!(matches!(
            a.send(NodeId(2), 6, Bytes::new()),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn router_is_cloneable_and_countable() {
        let router = Router::new();
        assert!(router.is_empty());
        let _a = connect(&router, 1);
        let clone = router.clone();
        let _b = connect(&clone, 2);
        assert_eq!(router.len(), 2);
        assert!(format!("{router:?}").contains("Router"));
    }
}
