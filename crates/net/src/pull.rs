//! The "fastest q of n replies" primitive behind `get_gradients()` / `get_models()`.

use crate::{NetError, NetResult, NodeId};

/// One pull round: a set of peers, each with the simulated time at which its
/// reply arrives at the requester.
///
/// The paper's communication abstractions (§3.2, *Networking*) issue parallel
/// pull RPCs and return the fastest `q` replies: `q = n` is the synchronous,
/// fault-free case; `q = n − f` is the asynchronous case that keeps the
/// protocol live despite `f` silent or slow nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PullRound {
    replies: Vec<(NodeId, f64)>,
}

impl PullRound {
    /// Creates a round from `(peer, reply_arrival_time_seconds)` pairs.
    ///
    /// Peers that will never reply (crashed) should simply be omitted.
    pub fn new(replies: Vec<(NodeId, f64)>) -> Self {
        PullRound { replies }
    }

    /// Number of peers that will eventually reply.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether no peer will reply.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// Returns the `q` fastest repliers and the simulated time at which the
    /// `q`-th reply arrives (i.e. when the requester can proceed).
    ///
    /// `q = 0` asks for nothing and returns an empty selection at zero
    /// elapsed time. If `q` exceeds the number of available replies, all
    /// replies are returned — callers that need a hard guarantee should use
    /// [`PullRound::try_fastest`].
    pub fn fastest(&self, q: usize) -> (Vec<NodeId>, f64) {
        let mut sorted = self.replies.clone();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
        sorted.truncate(q.min(sorted.len()));
        let elapsed = sorted.last().map(|&(_, t)| t).unwrap_or(0.0);
        (sorted.into_iter().map(|(id, _)| id).collect(), elapsed)
    }

    /// Like [`PullRound::fastest`], but fails when fewer than `q` peers can reply.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotEnoughReplies`] when fewer than `q` replies are
    /// available — the liveness condition the paper states as needing `q + f`
    /// deployed nodes in asynchronous settings.
    pub fn try_fastest(&self, q: usize) -> NetResult<(Vec<NodeId>, f64)> {
        if self.replies.len() < q {
            return Err(NetError::NotEnoughReplies {
                requested: q,
                available: self.replies.len(),
            });
        }
        Ok(self.fastest(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round() -> PullRound {
        PullRound::new(vec![
            (NodeId(0), 0.5),
            (NodeId(1), 0.1),
            (NodeId(2), 0.9),
            (NodeId(3), 0.3),
        ])
    }

    #[test]
    fn fastest_returns_the_q_earliest_replies() {
        let (ids, elapsed) = round().fastest(2);
        assert_eq!(ids, vec![NodeId(1), NodeId(3)]);
        assert!((elapsed - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fastest_with_q_equal_n_waits_for_the_slowest() {
        let (ids, elapsed) = round().fastest(4);
        assert_eq!(ids.len(), 4);
        assert!((elapsed - 0.9).abs() < 1e-12);
    }

    #[test]
    fn oversized_q_is_clamped_but_try_fastest_errors() {
        let (ids, _) = round().fastest(10);
        assert_eq!(ids.len(), 4);
        assert!(matches!(
            round().try_fastest(10),
            Err(NetError::NotEnoughReplies {
                requested: 10,
                available: 4
            })
        ));
        assert!(round().try_fastest(4).is_ok());
    }

    #[test]
    fn waiting_for_fewer_replies_never_takes_longer() {
        let r = round();
        let (_, t2) = r.fastest(2);
        let (_, t3) = r.fastest(3);
        let (_, t4) = r.fastest(4);
        assert!(t2 <= t3 && t3 <= t4);
    }

    #[test]
    fn fastest_zero_returns_an_empty_selection_at_zero_time() {
        // Regression: `fastest(0)` used to clamp to 1 and silently return the
        // single fastest reply after a nonzero wait.
        let (ids, elapsed) = round().fastest(0);
        assert!(ids.is_empty());
        assert_eq!(elapsed, 0.0);
        let (ids, elapsed) = round().try_fastest(0).unwrap();
        assert!(ids.is_empty());
        assert_eq!(elapsed, 0.0);
    }

    #[test]
    fn empty_round_behaves() {
        let r = PullRound::new(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        let (ids, t) = r.fastest(1);
        assert!(ids.is_empty());
        assert_eq!(t, 0.0);
        assert!(r.try_fastest(1).is_err());
    }
}
