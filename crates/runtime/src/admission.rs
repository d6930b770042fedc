//! Frame admission: the one place that decides what a server replica lets in.
//!
//! Every frame a server takes off its transport is judged by [`admit`] before
//! anything else looks at it. The function is pure — sender, peeked header,
//! and a borrowed view of what the replica is doing — so the whole rule table
//! is unit-testable without a transport, and a rejected frame costs the
//! replica nothing but the `recv` that delivered it: no decode, no pooled
//! buffer, no slot in a quorum.

use crate::actors::Reply;
use garfield_net::{MsgKind, NodeId, WireHeader};

/// The pull a server is blocked in: which replies it is waiting for.
pub(crate) struct Pull<'a> {
    /// The reply kind awaited (`GradientReply` or `ModelReply`).
    pub kind: MsgKind,
    /// The round the request was issued for.
    pub round: u64,
    /// The nodes the request went to — the only senders whose reply counts.
    pub recipients: &'a [NodeId],
    /// The replies admitted so far (one per peer per round).
    pub collected: &'a [Reply],
}

/// What [`admit`] needs to know about the receiving server.
pub(crate) struct ServerView<'a> {
    /// The pull in flight, if the server is inside one.
    pub pull: Option<Pull<'a>>,
    /// The shard triple `(shard, coord_offset, coord_len)` replies must carry:
    /// the server's own [`ShardSpec`](garfield_core::ShardSpec), `(0, 0, 0)`
    /// when it holds the full vector.
    pub shard: (u16, u32, u32),
    /// Length of the server's model — the only acceptable reply payload.
    pub dimension: usize,
    /// The peer replicas (model pulls, done-markers, state transfer).
    pub peers: &'a [NodeId],
}

/// The verdict on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// A reply the pull in flight is waiting for: decode and collect it.
    Reply,
    /// Control traffic from a node entitled to send it: service it.
    Protocol,
    /// Anything else — stale, duplicated, mis-shaped, mis-tagged, or from a
    /// node with no business sending it. Byzantine noise; ignore it.
    Drop,
}

/// Judges the frame `header` that arrived from `from`.
///
/// * `GradientReply` / `ModelReply` are admitted only into the pull that
///   asked for them: matching kind and round, sender among the pull's
///   recipients and not yet collected, shard triple equal to the server's
///   own, and a payload of exactly the server's dimension — so whatever
///   reaches the GAR has the quorum's shape and comes from the quorum's
///   members, and the `n ≥ 2f + 3`-style preconditions count real nodes.
/// * `ModelRequest`, `ServerDone`, `StateRequest` and `StateChunk` are
///   replica-to-replica traffic: admitted from peer replicas only.
/// * `GradientRequest` and `Shutdown` address workers; a server drops them.
pub(crate) fn admit(from: NodeId, header: &WireHeader, view: &ServerView<'_>) -> Verdict {
    let entitled = |senders: &[NodeId]| {
        if senders.contains(&from) {
            Verdict::Protocol
        } else {
            Verdict::Drop
        }
    };
    match header.kind {
        MsgKind::GradientReply | MsgKind::ModelReply => match &view.pull {
            Some(pull)
                if header.kind == pull.kind
                    && header.round == pull.round
                    && pull.recipients.contains(&from)
                    && !pull.collected.iter().any(|(id, _, _)| *id == from)
                    && (header.shard, header.coord_offset, header.coord_len) == view.shard
                    && header.payload_len == view.dimension =>
            {
                Verdict::Reply
            }
            _ => Verdict::Drop,
        },
        MsgKind::ModelRequest
        | MsgKind::ServerDone
        | MsgKind::StateRequest
        | MsgKind::StateChunk => entitled(view.peers),
        MsgKind::GradientRequest | MsgKind::Shutdown => Verdict::Drop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKERS: [NodeId; 3] = [NodeId(3), NodeId(4), NodeId(5)];
    const PEERS: [NodeId; 2] = [NodeId(1), NodeId(2)];
    const STRANGER: NodeId = NodeId(99);
    const ROUND: u64 = 5;
    const DIMENSION: usize = 10;
    const SHARD: (u16, u32, u32) = (1, 10, 10);

    fn header(kind: MsgKind, round: u64, shard: (u16, u32, u32), payload_len: usize) -> WireHeader {
        WireHeader {
            kind,
            round,
            aux: 0.0,
            shard: shard.0,
            coord_offset: shard.1,
            coord_len: shard.2,
            origin: 0,
            seq: 0,
            sent_unix_us: 0,
            payload_len,
        }
    }

    /// A server (shard `own`) blocked in a pull of `kind` replies from
    /// `recipients` for `ROUND`, with worker 4 / peer 2 already collected.
    fn verdict(
        pull: Option<(MsgKind, &[NodeId])>,
        own: (u16, u32, u32),
        from: NodeId,
        frame: &WireHeader,
    ) -> Verdict {
        let collected: [Reply; 2] = [(NodeId(4), 0.0, Vec::new()), (NodeId(2), 0.0, Vec::new())];
        let view = ServerView {
            pull: pull.map(|(kind, recipients)| Pull {
                kind,
                round: ROUND,
                recipients,
                collected: &collected,
            }),
            shard: own,
            dimension: DIMENSION,
            peers: &PEERS,
        };
        admit(from, frame, &view)
    }

    #[test]
    fn replies_enter_only_the_pull_that_asked_for_them() {
        use MsgKind::{GradientReply, ModelReply};
        let unsharded = (0, 0, 0);
        let gradient_pull = Some((GradientReply, &WORKERS[..]));
        let model_pull = Some((ModelReply, &PEERS[..]));
        // (pull, own shard, sender, kind, round, triple, payload) → verdict
        #[rustfmt::skip]
        let table = [
            // The valid reply, unsharded and sharded, both pull kinds.
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Reply),
            (gradient_pull, SHARD, WORKERS[2], GradientReply, ROUND, SHARD, DIMENSION, Verdict::Reply),
            (model_pull, unsharded, PEERS[0], ModelReply, ROUND, unsharded, DIMENSION, Verdict::Reply),
            // Round: past and future replies are stale or forged.
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND - 1, unsharded, DIMENSION, Verdict::Drop),
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND + 1, unsharded, DIMENSION, Verdict::Drop),
            // Kind: the other pull's reply, even from a legitimate node.
            (gradient_pull, unsharded, PEERS[0], ModelReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (model_pull, unsharded, WORKERS[0], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            // Sender: a peer is not a worker, a worker not a peer, a
            // stranger is nobody, and nobody answers twice.
            (gradient_pull, unsharded, PEERS[0], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (gradient_pull, unsharded, STRANGER, GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (gradient_pull, unsharded, WORKERS[1], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (model_pull, unsharded, WORKERS[0], ModelReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (model_pull, unsharded, STRANGER, ModelReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (model_pull, unsharded, PEERS[1], ModelReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            // Shard triple: another shard's slice, a shifted range, a tagged
            // reply to an unsharded server, an untagged one to a shard.
            (gradient_pull, SHARD, WORKERS[0], GradientReply, ROUND, (0, 0, 10), DIMENSION, Verdict::Drop),
            (gradient_pull, SHARD, WORKERS[0], GradientReply, ROUND, (1, 5, 10), DIMENSION, Verdict::Drop),
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND, SHARD, DIMENSION, Verdict::Drop),
            (gradient_pull, SHARD, WORKERS[0], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            // Payload length: short, long, empty.
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND, unsharded, 3, Verdict::Drop),
            (gradient_pull, unsharded, WORKERS[0], GradientReply, ROUND, unsharded, DIMENSION + 1, Verdict::Drop),
            (model_pull, unsharded, PEERS[0], ModelReply, ROUND, unsharded, 0, Verdict::Drop),
            // No pull in flight (catch-up, linger): every reply is stale.
            (None, unsharded, WORKERS[0], GradientReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
            (None, unsharded, PEERS[0], ModelReply, ROUND, unsharded, DIMENSION, Verdict::Drop),
        ];
        for (i, (pull, own, from, kind, round, triple, len, want)) in table.into_iter().enumerate()
        {
            let frame = header(kind, round, triple, len);
            assert_eq!(verdict(pull, own, from, &frame), want, "row {i}: {frame:?}");
        }
    }

    #[test]
    fn control_traffic_is_admitted_by_sender_role_for_every_kind() {
        let gradient_pull = Some((MsgKind::GradientReply, &WORKERS[..]));
        for kind in MsgKind::all() {
            // Who may send this kind as control traffic, whatever the round
            // (requests for past and future rounds are served or deferred by
            // the protocol handler, not judged here).
            let entitled: &[NodeId] = match kind {
                MsgKind::ModelRequest
                | MsgKind::ServerDone
                | MsgKind::StateRequest
                | MsgKind::StateChunk => &PEERS,
                MsgKind::GradientRequest | MsgKind::Shutdown => &[],
                // Replies are never control traffic; covered above.
                MsgKind::GradientReply | MsgKind::ModelReply => continue,
            };
            for from in [WORKERS[0], WORKERS[1], PEERS[0], STRANGER] {
                let want = if entitled.contains(&from) {
                    Verdict::Protocol
                } else {
                    Verdict::Drop
                };
                for round in [ROUND - 1, ROUND, ROUND + 1] {
                    for pull in [gradient_pull, None] {
                        let frame = header(kind, round, (0, 0, 0), 0);
                        assert_eq!(
                            verdict(pull, (0, 0, 0), from, &frame),
                            want,
                            "{kind:?} from {from:?} at round {round}"
                        );
                    }
                }
            }
        }
        // Spelled out: a worker's `ServerDone` never counts toward
        // `done_peers`, because it never reaches the protocol handler.
        let done = header(MsgKind::ServerDone, ROUND, (0, 0, 0), 0);
        assert_eq!(verdict(None, (0, 0, 0), WORKERS[0], &done), Verdict::Drop);
        assert_eq!(verdict(None, (0, 0, 0), PEERS[0], &done), Verdict::Protocol);
    }
}
