//! Integration tests of the network layer: the cost model's monotonicity and
//! exact message counts on the real router when nodes go silent.

use bytes::Bytes;
use garfield_net::{cost, NodeId, Router};
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
    let server = router.register(NodeId(0)).unwrap();
    let n = 6;
    let crashed = [NodeId(3), NodeId(5)];
    let handles: Vec<_> = (1..=n)
        .map(|i| router.register(NodeId(i)).unwrap())
        .collect();
    for &id in &crashed {
        router.crash(id);
    }

    let threads: Vec<_> = handles
        .into_iter()
        .map(|h| {
            std::thread::spawn(move || h.send(NodeId(0), 7, Bytes::from(vec![h.id().0 as u8])))
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
