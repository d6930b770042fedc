//! The TCP implementation of [`Transport`]: real sockets, real processes.
//!
//! Each endpoint owns one listening socket (its address in the
//! [`ClusterSpec`]) plus, per peer, a dedicated writer thread behind a
//! *bounded* outbound queue. Connections are simplex: outbound frames
//! travel over the connection this endpoint dialed, inbound frames arrive
//! on connections accepted from peers, and every connection opens with a
//! hello naming the dialer. This keeps connection establishment free of
//! rendezvous ordering — any subset of nodes can start in any order, and
//! dial-with-retry rides out peers that are still booting.
//!
//! Failure semantics mirror the in-process router, as the [`Transport`]
//! contract demands:
//!
//! * a send to a slow or dead peer never blocks the actor — the bounded
//!   queue absorbs bursts and overflow is *dropped* (counted per peer), so
//!   a stalled socket cannot stall the server's pull;
//! * receives respect their deadline no matter what any peer does;
//! * [`Transport::crash`] silences the endpoint: writer threads stop, the
//!   listener closes, and peers notice only through their own quorums.

use crate::frame::{read_frame, read_hello, write_frame, write_hello};
use crate::spec::ClusterSpec;
use bytes::Bytes;
use garfield_net::{
    Envelope, NetError, NetResult, NodeId, PeerCounterMap, PeerCounters, Transport,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a TCP endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Outbound frames buffered per peer before overflow is dropped. The
    /// bound is what keeps a dead peer from retaining unbounded memory.
    pub outbound_queue: usize,
    /// Total time a writer keeps re-dialing an unreachable peer before
    /// giving up on the frame that triggered the dial.
    pub dial_timeout: Duration,
    /// Pause between dial attempts.
    pub dial_backoff: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            outbound_queue: 256,
            dial_timeout: Duration::from_secs(10),
            dial_backoff: Duration::from_millis(25),
        }
    }
}

/// Per-peer `garfield-obs` handles of one TCP endpoint: the live outbound
/// queue depth and the dial-retry count toward that peer. Registered once
/// at [`TcpTransport::bind`]; bumped with relaxed atomics afterwards.
struct TcpPeerObs {
    queue_depth: garfield_obs::Gauge,
    dial_retries: garfield_obs::Counter,
}

impl TcpPeerObs {
    fn register(peer: NodeId) -> Self {
        let peer = peer.0.to_string();
        let labels: &[(&'static str, &str)] = &[("peer", peer.as_str())];
        TcpPeerObs {
            queue_depth: garfield_obs::metrics::gauge(
                "garfield_outbound_queue_depth",
                "Frames currently buffered in the bounded outbound queue, by \
                 destination peer.",
                labels,
            ),
            dial_retries: garfield_obs::metrics::counter(
                "garfield_dial_retries_total",
                "Failed dial attempts that were retried, by destination peer.",
                labels,
            ),
        }
    }
}

/// State shared between the endpoint and its I/O threads.
struct Shared {
    id: NodeId,
    crashed: AtomicBool,
    /// Graceful-close flag: writers drain their queues onto already-open
    /// connections but stop dialing/redialing, so dropping the endpoint
    /// flushes in-flight control messages without blocking on dead peers.
    closing: AtomicBool,
    /// Frames accepted by `send` whose writer has not yet resolved them
    /// (written or dropped); `flush` waits on this reaching zero so counter
    /// snapshots cover the queued tail.
    pending: AtomicU64,
    counters: PeerCounterMap,
    obs: HashMap<NodeId, TcpPeerObs>,
}

impl Shared {
    fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn is_closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }

    fn queue_depth(&self, peer: NodeId, delta: f64) {
        if let Some(obs) = self.obs.get(&peer) {
            obs.queue_depth.add(delta);
        }
    }
}

/// One node's TCP endpoint: a listener, per-peer writers, one inbox.
pub struct TcpTransport {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    inbound: Receiver<Envelope>,
    /// Keeps the inbox connected even while no reader thread is alive
    /// (e.g. before the first peer dials in).
    _inbound_keepalive: Sender<Envelope>,
    outbound: Mutex<HashMap<NodeId, SyncSender<(u64, Bytes)>>>,
    writers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds `id`'s listening socket from the spec and starts the accept
    /// loop and one writer per peer (which dial lazily, with retry, on the
    /// first frame toward that peer).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] when the spec does not name `id`
    /// and [`NetError::Io`] when the listener cannot bind.
    pub fn bind(spec: &ClusterSpec, id: NodeId, options: TcpOptions) -> NetResult<TcpTransport> {
        let listener = TcpListener::bind(spec.addr(id)?)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            id,
            crashed: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            counters: PeerCounterMap::new(),
            obs: spec
                .peers(id)
                .into_iter()
                .map(|(peer, _)| (peer, TcpPeerObs::register(peer)))
                .collect(),
        });
        let known: Arc<HashSet<NodeId>> = Arc::new(spec.ids().into_iter().collect());

        let (inbound_tx, inbound_rx) = std::sync::mpsc::channel();
        {
            let shared = Arc::clone(&shared);
            let inbound_tx = inbound_tx.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.is_crashed() {
                        break; // listener drops here: the port goes silent
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    let tx = inbound_tx.clone();
                    let known = Arc::clone(&known);
                    std::thread::spawn(move || reader_loop(stream, &shared, &tx, &known));
                }
            });
        }

        let mut outbound = HashMap::new();
        let mut writers = Vec::new();
        for (peer, addr) in spec.peers(id) {
            let (tx, rx) = sync_channel(options.outbound_queue.max(1));
            let shared = Arc::clone(&shared);
            writers.push(std::thread::spawn(move || {
                writer_loop(peer, addr, &rx, &shared, options)
            }));
            outbound.insert(peer, tx);
        }

        Ok(TcpTransport {
            shared,
            local_addr,
            inbound: inbound_rx,
            _inbound_keepalive: inbound_tx,
            outbound: Mutex::new(outbound),
            writers: Mutex::new(writers),
        })
    }

    /// The address this endpoint actually listens on (ports picked by the
    /// OS are resolved here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> NodeId {
        self.shared.id
    }

    fn send(&self, to: NodeId, tag: u64, payload: Bytes) -> NetResult<()> {
        if self.shared.is_crashed() {
            return Err(NetError::Unreachable {
                from: self.shared.id,
                to,
            });
        }
        let outbound = self.outbound.lock();
        let Some(tx) = outbound.get(&to) else {
            return Err(NetError::UnknownNode(to));
        };
        match tx.try_send((tag, payload)) {
            Ok(()) => {
                self.shared.pending.fetch_add(1, Ordering::SeqCst);
                self.shared.queue_depth(to, 1.0);
                Ok(())
            }
            // A full queue (slow peer) or a dead writer (late crash race):
            // the frame is dropped and the sender's quorum rides it out,
            // exactly like a message to a crashed router node.
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.counters.record_drop_at(to, tag);
                Ok(())
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        if self.shared.is_crashed() {
            // A crashed node observes nothing, on schedule.
            std::thread::sleep(timeout);
            return Err(NetError::Timeout);
        }
        self.inbound.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::RouterClosed,
        })
    }

    fn crash(&self) {
        if self.shared.crashed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Dropping the senders ends every writer thread (and closes its
        // socket); the dummy dial below wakes the accept loop so it sees
        // the flag and releases the listening port.
        self.outbound.lock().clear();
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
    }

    fn flush(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.shared.pending.load(Ordering::SeqCst) > 0
            && !self.shared.is_crashed()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peer_counters(&self) -> Vec<PeerCounters> {
        self.shared.counters.snapshot()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if self.shared.is_crashed() {
            return; // a crashed endpoint stays silent: nothing to flush
        }
        // Graceful close: stop dialing, disconnect the queues, and wait for
        // the writers to drain what is already enqueued onto their open
        // connections — in-flight control messages (e.g. the coordinator's
        // worker shutdowns) must not be lost to the drop itself.
        self.shared.closing.store(true, Ordering::SeqCst);
        self.outbound.lock().clear();
        for writer in self.writers.lock().drain(..) {
            let _ = writer.join();
        }
        self.crash();
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("id", &self.shared.id)
            .field("addr", &self.local_addr)
            .field("crashed", &self.shared.is_crashed())
            .finish()
    }
}

/// Services one accepted connection: authenticate the hello, then pump
/// frames into the inbox until the peer closes, misbehaves or we crash.
fn reader_loop(
    mut stream: TcpStream,
    shared: &Shared,
    inbound: &Sender<Envelope>,
    known: &HashSet<NodeId>,
) {
    let _ = stream.set_nodelay(true);
    let Ok(peer) = read_hello(&mut stream) else {
        return; // not a Garfield peer: close without a word
    };
    if !known.contains(&peer) {
        return; // id outside the cluster spec
    }
    loop {
        if shared.is_crashed() {
            return;
        }
        let Ok((from, tag, payload, wire_bytes)) = read_frame(&mut stream) else {
            return; // EOF, reset, or a hostile frame: drop the connection
        };
        if from != peer {
            // The hello authenticated this connection; a frame claiming a
            // different sender is a forgery attempt. Drop the connection.
            return;
        }
        shared.counters.record_recv(peer, wire_bytes);
        garfield_net::record_wire_recv(peer, &payload);
        let envelope = Envelope {
            from: peer,
            to: shared.id,
            tag,
            payload,
        };
        if inbound.send(envelope).is_err() {
            return;
        }
    }
}

/// Drains one peer's outbound queue onto its socket, dialing (with retry)
/// on demand and redialing once per frame after a broken pipe.
fn writer_loop(
    peer: NodeId,
    addr: SocketAddr,
    queue: &Receiver<(u64, Bytes)>,
    shared: &Shared,
    options: TcpOptions,
) {
    let mut stream: Option<TcpStream> = None;
    while let Ok((tag, payload)) = queue.recv() {
        shared.queue_depth(peer, -1.0);
        if shared.is_crashed() {
            return;
        }
        if stream.is_none() {
            stream = dial(peer, addr, shared, options);
        }
        let written = stream
            .as_mut()
            .and_then(|s| write_frame(s, shared.id, tag, &payload).ok());
        let written = match written {
            Some(n) => Some(n),
            None if !shared.is_closing() => {
                // Broken pipe (peer restarted or died): one fresh dial, then
                // the frame is dropped — the sender's quorum handles it.
                stream = dial(peer, addr, shared, options);
                stream
                    .as_mut()
                    .and_then(|s| write_frame(s, shared.id, tag, &payload).ok())
            }
            None => None, // draining a close: never wait on a dead peer
        };
        match written {
            Some(bytes) => {
                shared.counters.record_send(peer, bytes);
                garfield_net::record_wire_send(peer, &payload);
            }
            None => shared.counters.record_drop_at(peer, tag),
        }
        // Resolved (counted) only now, so a flush() that observed zero
        // pending is guaranteed to see this frame in the counters.
        shared.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Connects to `addr` with retry until [`TcpOptions::dial_timeout`],
/// sending the hello on success.
fn dial(peer: NodeId, addr: SocketAddr, shared: &Shared, options: TcpOptions) -> Option<TcpStream> {
    let deadline = Instant::now() + options.dial_timeout;
    let mut attempts = 0u64;
    loop {
        if shared.is_crashed() || shared.is_closing() {
            return None;
        }
        attempts += 1;
        if attempts > 1 {
            if let Some(obs) = shared.obs.get(&peer) {
                obs.dial_retries.inc();
            }
        }
        if let Ok(mut stream) = TcpStream::connect_timeout(&addr, options.dial_timeout) {
            let _ = stream.set_nodelay(true);
            // A bounded write timeout keeps a peer that accepts but never
            // reads (full receive window) from parking the writer thread in
            // `write_all` forever — which would also hang the join in
            // `TcpTransport::drop`.
            let _ = stream.set_write_timeout(Some(options.dial_timeout));
            if write_hello(&mut stream, shared.id).is_ok() {
                return Some(stream);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(options.dial_backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> TcpOptions {
        TcpOptions {
            outbound_queue: 8,
            dial_timeout: Duration::from_secs(2),
            dial_backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn two_endpoints_exchange_frames_and_count_wire_bytes() {
        let spec = ClusterSpec::localhost(2).unwrap();
        let a = TcpTransport::bind(&spec, NodeId(0), quick_options()).unwrap();
        let b = TcpTransport::bind(&spec, NodeId(1), quick_options()).unwrap();
        assert_eq!(a.local_id(), NodeId(0));

        a.send(NodeId(1), 7, Bytes::from_static(b"ping")).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.to, NodeId(1));
        assert_eq!(env.tag, 7);
        assert_eq!(&env.payload[..], b"ping");

        b.send(NodeId(0), 8, Bytes::from_static(b"pong")).unwrap();
        let back = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(back.from, NodeId(1));
        assert_eq!(&back.payload[..], b"pong");

        // On-wire counts include the 16-byte frame overhead.
        let sent = a.peer_counters();
        let toward_b = sent.iter().find(|c| c.peer == NodeId(1)).unwrap();
        assert_eq!(toward_b.messages_sent, 1);
        assert_eq!(toward_b.bytes_sent, 16 + 4);
        let from_a = b.peer_counters();
        let heard = from_a.iter().find(|c| c.peer == NodeId(0)).unwrap();
        assert_eq!(heard.messages_received, 1);
        assert_eq!(heard.bytes_received, 16 + 4);
    }

    #[test]
    fn unknown_recipients_are_errors_and_receives_respect_deadlines() {
        let spec = ClusterSpec::localhost(2).unwrap();
        let a = TcpTransport::bind(&spec, NodeId(0), quick_options()).unwrap();
        assert!(matches!(
            a.send(NodeId(9), 0, Bytes::new()),
            Err(NetError::UnknownNode(_))
        ));
        let start = Instant::now();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(50)),
            Err(NetError::Timeout)
        ));
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn crash_silences_the_endpoint_without_stalling_peers() {
        let spec = ClusterSpec::localhost(2).unwrap();
        let a = TcpTransport::bind(&spec, NodeId(0), quick_options()).unwrap();
        let b = TcpTransport::bind(&spec, NodeId(1), quick_options()).unwrap();
        a.send(NodeId(1), 0, Bytes::from_static(b"alive")).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();

        a.crash();
        assert!(matches!(
            a.send(NodeId(1), 1, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
        // The peer's send does not error and does not block: the frame is
        // queued/dropped and b only notices through its own timeout.
        b.send(NodeId(0), 1, Bytes::from_static(b"anyone home"))
            .unwrap();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(50)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn bounded_queue_drops_overflow_toward_a_dead_peer_without_blocking() {
        // Peer 1 never binds: its address points at a dead port.
        let spec = ClusterSpec::localhost(2).unwrap();
        let options = TcpOptions {
            outbound_queue: 2,
            dial_timeout: Duration::from_millis(100),
            dial_backoff: Duration::from_millis(5),
        };
        let a = TcpTransport::bind(&spec, NodeId(0), options).unwrap();
        let start = Instant::now();
        for tag in 0..20u64 {
            a.send(NodeId(1), tag, Bytes::from(vec![0u8; 1024]))
                .unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "sends toward a dead peer must not block the caller"
        );
        // Give the writer a moment to burn through its dial attempts, then
        // confirm overflow was counted instead of delivered.
        std::thread::sleep(Duration::from_millis(400));
        let counters = a.peer_counters();
        let toward_dead = counters.iter().find(|c| c.peer == NodeId(1)).unwrap();
        assert_eq!(toward_dead.messages_sent, 0);
        assert!(toward_dead.messages_dropped > 0);
    }
}
