//! Integration tests of the network layer: the cost model's monotonicity,
//! exact message counts on the real router when nodes go silent, and the
//! flight events of a rejoin's dropped envelopes.

use bytes::Bytes;
use garfield_net::{cost, NodeId, Router, RouterTransport, Transport};
use garfield_obs::flight::{self, EventKind};
use std::time::Duration;

#[test]
fn cost_model_times_are_monotone_in_count_dimension_and_fanout() {
    // More vectors pulled never gets cheaper.
    let mut last = 0.0;
    for count in [1usize, 2, 4, 8, 16, 32] {
        let t = cost::parallel_pull_time(1_000_000, count);
        assert!(t > last, "pull time must grow with count");
        last = t;
    }
    // Bigger vectors never move faster.
    assert!(cost::parallel_pull_time(2_000_000, 1) > cost::parallel_pull_time(1_000_000, 1));
    // Serving more replicas never gets cheaper.
    let mut last = 0.0;
    for fanout in [1usize, 2, 4, 8] {
        let t = cost::fanout_pull_time(1_000_000, 10, fanout);
        assert!(t > last, "fanout pull time must grow with fanout");
        last = t;
    }
    // Gradient and aggregation costs grow with the model dimension.
    assert!(cost::gradient_time(2_000_000, 32) > cost::gradient_time(1_000_000, 32));
    assert!(cost::aggregation_time(2_000_000, 10, 2) > cost::aggregation_time(1_000_000, 10, 2));
}

#[test]
fn router_delivers_exactly_the_live_replies() {
    let router = Router::new();
    let server = RouterTransport::connect(&router, NodeId(0)).unwrap();
    let n = 6;
    let crashed = [NodeId(3), NodeId(5)];
    let workers: Vec<_> = (1..=n)
        .map(|i| RouterTransport::connect(&router, NodeId(i)).unwrap())
        .collect();
    for worker in &workers {
        if crashed.contains(&worker.local_id()) {
            worker.crash();
        }
    }

    let threads: Vec<_> = workers
        .into_iter()
        .map(|w| {
            std::thread::spawn(move || {
                w.send(NodeId(0), 7, Bytes::from(vec![w.local_id().0 as u8]))
            })
        })
        .collect();
    let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // Crashed *senders* get an error; messages to a live server all succeed.
    assert_eq!(
        outcomes.iter().filter(|r| r.is_err()).count(),
        crashed.len()
    );

    // The server gets exactly n - crashed messages, not one more, and then
    // times out.
    for _ in 0..n as usize - crashed.len() {
        let reply = server.recv_timeout(Duration::from_millis(200)).unwrap();
        assert!(
            !crashed.contains(&reply.from),
            "a crashed worker's message leaked through"
        );
    }
    assert!(server.recv_timeout(Duration::from_millis(20)).is_err());
}

#[test]
fn rejoin_records_each_stale_drop_on_its_envelopes_round() {
    garfield_obs::enable();
    // Events recorded on this thread are attributed to a node no other test
    // in this binary speaks for.
    flight::set_thread_node(41);
    let router = Router::new();
    let node = RouterTransport::connect(&router, NodeId(41)).unwrap();
    let b = RouterTransport::connect(&router, NodeId(42)).unwrap();
    let c = RouterTransport::connect(&router, NodeId(43)).unwrap();
    b.send(NodeId(41), 5, Bytes::from_static(b"r5")).unwrap();
    b.send(NodeId(41), 6, Bytes::from_static(b"r6")).unwrap();
    c.send(NodeId(41), 9, Bytes::from_static(b"r9")).unwrap();
    node.crash();
    node.rejoin().unwrap();

    let mut drops: Vec<(u64, Option<u32>)> = flight::snapshot()
        .0
        .iter()
        .filter(|e| e.node == 41 && e.kind == EventKind::FrameDropped)
        .map(|e| (e.round, e.peer))
        .collect();
    drops.sort_unstable();
    assert_eq!(drops, vec![(5, Some(42)), (6, Some(42)), (9, Some(43))]);
}
