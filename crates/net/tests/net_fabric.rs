//! Integration tests of the network layer: the cost model's monotonicity,
//! the pull-round primitive under crashes, and exact message counts on the
//! real router when nodes go silent.

use bytes::Bytes;
use garfield_net::{CostModel, Device, NodeId, PullRound, Router};
use std::time::Duration;

/// The reply schedule a server sees from workers `1..=8`: worker `i` replies
/// at `0.1 + i * 0.05` seconds, crashed workers are omitted — they never do.
fn replies_without(crashed: &[u32]) -> PullRound {
    let live = (1..=8u32).filter(|w| !crashed.contains(w));
    PullRound::new(
        live.map(|w| (NodeId(w), 0.1 + f64::from(w) * 0.05))
            .collect(),
    )
}

#[test]
fn cost_model_times_are_monotone_in_count_dimension_and_fanout() {
    let m = CostModel::default();
    for device in [Device::Cpu, Device::Gpu] {
        // More vectors pulled never gets cheaper.
        let mut last = 0.0;
        for count in [1usize, 2, 4, 8, 16, 32] {
            let t = m.parallel_pull_time(1_000_000, count, device);
            assert!(t > last, "pull time must grow with count ({device})");
            last = t;
        }
        // Bigger vectors never move faster.
        assert!(
            m.vector_transfer_time(2_000_000, device) > m.vector_transfer_time(1_000_000, device)
        );
        // Serving more replicas never gets cheaper.
        let mut last = 0.0;
        for fanout in [1usize, 2, 4, 8] {
            let t = m.fanout_pull_time(1_000_000, 10, fanout, device);
            assert!(
                t > last,
                "fanout pull time must grow with fanout ({device})"
            );
            last = t;
        }
        // Gradient and aggregation costs grow with the model dimension.
        assert!(m.gradient_time(2_000_000, 32, device) > m.gradient_time(1_000_000, 32, device));
        assert!(
            m.aggregation_time(2_000_000, 10, 2, device)
                > m.aggregation_time(1_000_000, 10, 2, device)
        );
    }
}

#[test]
fn crashing_workers_never_speeds_up_a_pull_round() {
    let q = 5;
    let full = replies_without(&[]);
    assert_eq!(full.len(), 8);
    let (_, t_full) = full.try_fastest(q).unwrap();

    // Crash the fastest workers one at a time; the q-th arrival can only get
    // later, because every crash removes a reply the quorum could have used.
    let mut previous = t_full;
    for crash_count in 1..=3 {
        let degraded = replies_without(&[1, 2, 3][..crash_count]);
        assert_eq!(
            degraded.len(),
            8 - crash_count,
            "crashed workers must not reply"
        );
        let (ids, t) = degraded.try_fastest(q).unwrap();
        assert_eq!(ids.len(), q);
        assert!(
            t >= previous,
            "with {crash_count} crashes the quorum arrived at {t}, earlier than {previous}"
        );
        previous = t;
    }

    // Below the liveness threshold the round must fail, not stall forever.
    let starved = replies_without(&[1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(starved.len(), 1);
    assert!(starved.try_fastest(q).is_err());

    // Recovery restores liveness.
    assert!(replies_without(&[5, 6, 7]).try_fastest(q).is_ok());
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

#[test]
fn fastest_quorum_count_matches_the_request_and_never_overshoots() {
    for n in [3usize, 5, 9] {
        let round = PullRound::new((0..n).map(|i| (NodeId(i as u32), 1.0 + i as f64)).collect());
        for q in 1..=n {
            let (ids, t) = round.try_fastest(q).unwrap();
            assert_eq!(ids.len(), q, "asked for {q} of {n}");
            assert_eq!(t, q as f64, "the q-th arrival time is the quorum time");
        }
        assert!(round.try_fastest(n + 1).is_err());
    }
}
