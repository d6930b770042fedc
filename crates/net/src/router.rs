//! A real in-process message router: the pull-based communication pattern
//! with actual concurrency.
//!
//! Threads and channels stand in for gRPC endpoints: point-to-point
//! delivery, and silence — not errors — from a crashed peer, which callers
//! ride out with their own timeouts. The live runtime's in-process
//! [`RouterTransport`](crate::RouterTransport) sits on it.

use crate::{NetError, NetResult, NodeId};
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

#[derive(Default)]
struct Registry {
    inboxes: HashMap<NodeId, Sender<Envelope>>,
    crashed: HashMap<NodeId, bool>,
}

/// The shared router: a registry of per-node inboxes.
///
/// Cloning the router is cheap (it is an `Arc` underneath); each participant
/// calls [`Router::register`] once to obtain its [`RouterHandle`].
#[derive(Clone, Default)]
pub struct Router {
    registry: Arc<RwLock<Registry>>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers a node and returns its handle (inbox + send capability).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateNode`] when the id is already registered:
    /// silently replacing an inbox would leave the previous handle dead while
    /// its owner keeps waiting on it. A reconnecting node that *wants* to
    /// replace its endpoint must say so via [`Router::register_replace`].
    pub fn register(&self, id: NodeId) -> NetResult<RouterHandle> {
        let mut reg = self.registry.write();
        if reg.inboxes.contains_key(&id) {
            return Err(NetError::DuplicateNode(id));
        }
        Ok(Self::install(&mut reg, self.clone(), id))
    }

    /// Registers a node, replacing any previous registration of the same id.
    ///
    /// The replaced handle (if any) stops receiving messages immediately —
    /// this is the reconnect path, where the old endpoint is known dead and
    /// a fresh inbox must take over its identity.
    pub fn register_replace(&self, id: NodeId) -> RouterHandle {
        let mut reg = self.registry.write();
        Self::install(&mut reg, self.clone(), id)
    }

    fn install(reg: &mut Registry, router: Router, id: NodeId) -> RouterHandle {
        let (tx, rx) = unbounded();
        reg.inboxes.insert(id, tx);
        reg.crashed.insert(id, false);
        RouterHandle {
            id,
            router,
            inbox: rx,
        }
    }

    /// Marks a node as crashed: messages to it are silently dropped, so
    /// senders only notice through their own timeouts — exactly the failure
    /// mode the paper's `get_gradients(q < n)` is designed to ride out.
    pub fn crash(&self, id: NodeId) {
        self.registry.write().crashed.insert(id, true);
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.registry.read().inboxes.len()
    }

    /// Whether no node is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn send(&self, envelope: Envelope) -> NetResult<()> {
        let reg = self.registry.read();
        if reg.crashed.get(&envelope.from).copied().unwrap_or(false) {
            // A crashed sender produces nothing.
            return Err(NetError::Unreachable {
                from: envelope.from,
                to: envelope.to,
            });
        }
        match reg.inboxes.get(&envelope.to) {
            None => Err(NetError::UnknownNode(envelope.to)),
            Some(_) if reg.crashed.get(&envelope.to).copied().unwrap_or(false) => {
                // Silently dropped: Byzantine-tolerant callers rely on timeouts.
                Ok(())
            }
            Some(tx) => tx.send(envelope).map_err(|_| NetError::RouterClosed),
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("nodes", &self.len())
            .finish()
    }
}

/// A node's endpoint on the router.
#[derive(Debug)]
pub struct RouterHandle {
    id: NodeId,
    router: Router,
    inbox: Receiver<Envelope>,
}

impl RouterHandle {
    /// The node id this handle belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `payload` to `to` with the given `tag`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for unregistered recipients and
    /// [`NetError::Unreachable`] when this node has been crashed.
    pub fn send(&self, to: NodeId, tag: u64, payload: Bytes) -> NetResult<()> {
        self.router.send(Envelope {
            from: self.id,
            to,
            tag,
            payload,
        })
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when nothing arrives in time and
    /// [`NetError::RouterClosed`] when the router is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::RouterClosed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let router = Router::new();
        let a = router.register(NodeId(1)).unwrap();
        let b = router.register(NodeId(2)).unwrap();
        a.send(NodeId(2), 7, Bytes::from_static(b"hello")).unwrap();
        let msg = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(msg.from, NodeId(1));
        assert_eq!(msg.tag, 7);
        assert_eq!(&msg.payload[..], b"hello");
    }

    #[test]
    fn unknown_recipient_is_an_error_and_timeout_is_reported() {
        let router = Router::new();
        let a = router.register(NodeId(1)).unwrap();
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
        let a = router.register(NodeId(1)).unwrap();
        let b = router.register(NodeId(2)).unwrap();
        router.crash(NodeId(2));
        a.send(NodeId(2), 0, Bytes::from_static(b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
    }

    #[test]
    fn crashed_sender_cannot_send() {
        let router = Router::new();
        let a = router.register(NodeId(1)).unwrap();
        router.register(NodeId(2)).unwrap();
        router.crash(NodeId(1));
        assert!(matches!(
            a.send(NodeId(2), 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn pull_round_collects_fastest_replies_despite_a_silent_peer() {
        let router = Router::new();
        let server = router.register(NodeId(0)).unwrap();
        let worker_ids = [NodeId(1), NodeId(2), NodeId(3)];
        let handles: Vec<RouterHandle> = worker_ids
            .iter()
            .map(|&id| router.register(id).unwrap())
            .collect();
        router.crash(NodeId(3)); // one worker never replies

        // Server "requests" by tag; workers reply on their own threads.
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    let _ = h.send(NodeId(0), 42, Bytes::from(vec![h.id().0 as u8]));
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
        let a = router.register(NodeId(1)).unwrap();
        let b = router.register(NodeId(2)).unwrap();
        assert_eq!(
            router.register(NodeId(1)).unwrap_err(),
            NetError::DuplicateNode(NodeId(1))
        );
        // The original handle still receives: no silent replacement happened.
        b.send(NodeId(1), 3, Bytes::from_static(b"still here"))
            .unwrap();
        assert_eq!(
            &a.recv_timeout(Duration::from_millis(100)).unwrap().payload[..],
            b"still here"
        );
        assert_eq!(router.len(), 2);
    }

    #[test]
    fn register_replace_redirects_traffic_to_the_new_handle() {
        let router = Router::new();
        let old = router.register(NodeId(1)).unwrap();
        let b = router.register(NodeId(2)).unwrap();
        let new = router.register_replace(NodeId(1)); // the reconnect path
        b.send(NodeId(1), 9, Bytes::from_static(b"reconnected"))
            .unwrap();
        assert_eq!(
            &new.recv_timeout(Duration::from_millis(100))
                .unwrap()
                .payload[..],
            b"reconnected"
        );
        // The replaced handle is dead: nothing ever reaches it again.
        assert!(old.recv_timeout(Duration::from_millis(20)).is_err());
        // Replacing also clears crash state, like a fresh registration.
        router.crash(NodeId(1));
        let _fresh = router.register_replace(NodeId(1));
        b.send(NodeId(1), 10, Bytes::from_static(b"x")).unwrap();
    }

    #[test]
    fn router_is_cloneable_and_countable() {
        let router = Router::new();
        assert!(router.is_empty());
        let _a = router.register(NodeId(1)).unwrap();
        let clone = router.clone();
        let _b = clone.register(NodeId(2)).unwrap();
        assert_eq!(router.len(), 2);
        assert!(format!("{router:?}").contains("Router"));
    }
}
