//! Per-peer Byzantine suspicion scoring — the forensics ledger.
//!
//! Robust GARs *mask* Byzantine inputs; they do not tell an operator **which
//! peer** is attacking. The [`SuspicionLedger`] turns the selection evidence
//! each distance-based GAR already produces (see [`SelectionOutcome`]) into
//! a per-peer score that an operator can rank, scrape and alert on:
//!
//! * every round, each peer's mean squared distance to the selected set is
//!   normalised into a **z-score** across that round's population — this
//!   makes rounds comparable as the gradient norm decays during training.
//!   Only the positive part counts: below-mean distance is what selection
//!   rewards, and a negative term would let a deliberately central attacker
//!   cancel the evidence from the other channels;
//! * each peer's squared gradient **norm** is z-scored the same way, and the
//!   part of that deviation beyond one standard deviation counts against the
//!   peer in *either direction* — this is the channel that catches attacks
//!   the distance channel is blind to: a zeroed gradient near convergence
//!   sits *inside* the honest noise ball (closer to everyone than the honest
//!   inputs are to each other), yet its norm is an extreme outlier;
//! * peers the GAR **excluded** earn a constant bonus on top of their
//!   z-score — near convergence an attacker that replays stale or zeroed
//!   gradients can sit close to the honest cloud in raw distance, but the
//!   GAR still refuses it round after round, and the exclusion streak is the
//!   durable signal;
//! * the per-round evidence is folded into an **EWMA** so one noisy round
//!   neither crowns nor clears a peer.
//!
//! The ledger always maintains its state (it is cheap: `O(n)` scalar work
//! per round); the observable side effects — `garfield_peer_suspicion{peer}`
//! gauges, `garfield_gar_excluded_total{peer}` counters and `peer_excluded`
//! flight events — are only emitted while observability is enabled.

use crate::SelectionOutcome;
use std::collections::BTreeMap;

/// Mean and (population) standard deviation of the finite entries of
/// `values`: one NaN or `±inf` must not turn the round's statistics into NaN
/// and with them every peer's z-score into 0.
fn population_stats(values: &[f64]) -> (f64, f64) {
    let finite = || values.iter().filter(|v| v.is_finite());
    let n = finite().count() as f64;
    let mean = finite().sum::<f64>() / n;
    let var = finite().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Default EWMA smoothing factor (weight of the newest round). The effective
/// window is `(2 − α)/α ≈ 19` rounds: long enough that an honest peer's
/// unlucky streak (exclusions and z-scores are noisy round to round) averages
/// out, short enough that an attacker that starts mid-run is flagged within
/// tens of rounds. Persistent attack signal is unaffected by the smoothing.
pub const DEFAULT_ALPHA: f64 = 0.1;

/// Default score bonus per round a peer is excluded by the GAR.
pub const DEFAULT_EXCLUSION_WEIGHT: f64 = 2.0;

/// Norm-deviation deadband: only the part of a peer's absolute norm z-score
/// beyond this threshold counts. Honest minibatch noise keeps |z| mostly
/// below 1, so the channel is silent on healthy clusters; an attacker that
/// zeroes or amplifies its gradient pins |z| near the population maximum
/// `√(n−1)` every round and accumulates the excess.
const NORM_DEADBAND: f64 = 1.0;

/// Weight of the (deadbanded) norm-deviation term relative to the distance
/// z-score. Above 1 because the deadband already subtracts the honest
/// baseline — what is left is almost pure attack signal.
const NORM_WEIGHT: f64 = 2.0;

/// Z-scores are clamped to this magnitude so a single astronomically distant
/// gradient (e.g. the `Random` attack at scale 1e6) cannot poison the EWMA
/// for the rest of the run — suspicion should decay once an attack stops.
const Z_CLAMP: f64 = 8.0;

/// Per-peer suspicion state, exported by [`SuspicionLedger::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeerSuspicion {
    /// The peer's node id.
    pub peer: u32,
    /// EWMA suspicion score (higher = more suspicious).
    pub score: f64,
    /// Rounds in which the GAR excluded this peer's input.
    pub excluded_rounds: u64,
    /// Rounds in which this peer's input was observed at all.
    pub observed_rounds: u64,
    /// The raw z-score of the most recent round.
    pub last_z: f64,
}

/// One peer's running state and its two exported series. The counter is
/// registered before the gauge, so a scrape that sees a peer's suspicion
/// also sees its exclusion count; each round sets the gauge before it bumps
/// the counter, so a scrape that sees an exclusion also sees the suspicion
/// score of that round.
struct PeerState {
    score: f64,
    excluded_rounds: u64,
    observed_rounds: u64,
    last_z: f64,
    excluded_total: garfield_obs::Counter,
    gauge: garfield_obs::Gauge,
}

impl PeerState {
    fn register(peer: u32) -> Self {
        let label = peer.to_string();
        let labels: &[(&'static str, &str)] = &[("peer", label.as_str())];
        PeerState {
            score: 0.0,
            excluded_rounds: 0,
            observed_rounds: 0,
            last_z: 0.0,
            excluded_total: garfield_obs::metrics::counter(
                "garfield_gar_excluded_total",
                "Rounds in which the GAR excluded this peer's gradient.",
                labels,
            ),
            gauge: garfield_obs::metrics::gauge(
                "garfield_peer_suspicion",
                "EWMA Byzantine suspicion score per peer (z-score of distance \
                 to the GAR's selected set, plus norm-deviation and exclusion \
                 terms).",
                labels,
            ),
        }
    }
}

/// Accumulates per-peer suspicion evidence across training rounds.
///
/// Feed it once per aggregation with the peer id behind each view index and
/// the GAR's [`SelectionOutcome`]; query it with
/// [`snapshot`](SuspicionLedger::snapshot) /
/// [`ranking`](SuspicionLedger::ranking).
pub struct SuspicionLedger {
    alpha: f64,
    exclusion_weight: f64,
    rounds: u64,
    peers: BTreeMap<u32, PeerState>,
}

impl Default for SuspicionLedger {
    fn default() -> Self {
        Self::new(DEFAULT_ALPHA, DEFAULT_EXCLUSION_WEIGHT)
    }
}

impl SuspicionLedger {
    /// Creates a ledger with the given EWMA factor (`0 < alpha <= 1`, weight
    /// of the newest round) and per-round exclusion bonus.
    pub fn new(alpha: f64, exclusion_weight: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        SuspicionLedger {
            alpha,
            exclusion_weight,
            rounds: 0,
            peers: BTreeMap::new(),
        }
    }

    /// Number of rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one aggregation round into the ledger.
    ///
    /// `peers[i]` is the node id whose gradient sat at view index `i` of the
    /// aggregation — the caller owns that mapping (replies are collected in
    /// sorted-peer order by the server actor). Indices of `outcome` beyond
    /// `peers.len()` are ignored, as are peers beyond the outcome (both only
    /// happen on malformed input).
    pub fn observe_round(&mut self, round: u64, peers: &[u32], outcome: &SelectionOutcome) {
        let n = peers.len().min(outcome.distance.len());
        if n == 0 {
            return;
        }
        self.rounds += 1;

        // Per-round z-scores: rounds stay comparable as gradients shrink.
        let distances = &outcome.distance[..n];
        let (dist_mean, dist_std) = population_stats(distances);
        // The norm channel is optional (hand-built outcomes may omit it).
        let norms = (outcome.norm.len() >= n).then(|| &outcome.norm[..n]);
        let norm_stats = norms.map(population_stats);

        for (i, &peer) in peers.iter().enumerate() {
            // A non-finite distance or norm is as anomalous as a z-score can
            // be: it is scored at the clamp, whatever the population.
            let z = if !distances[i].is_finite() {
                Z_CLAMP
            } else if dist_std > f64::EPSILON {
                ((distances[i] - dist_mean) / dist_std).clamp(-Z_CLAMP, Z_CLAMP)
            } else {
                0.0
            };
            // Two-sided norm anomaly beyond the honest-noise deadband. Both
            // tails matter: a zeroed gradient is as Byzantine as an amplified
            // one, and the distance channel sees neither at convergence.
            let norm_term = match (norms, norm_stats) {
                (Some(ns), _) if !ns[i].is_finite() => (Z_CLAMP - NORM_DEADBAND) * NORM_WEIGHT,
                (Some(ns), Some((m, s))) if s > f64::EPSILON => {
                    (((ns[i] - m) / s).abs().min(Z_CLAMP) - NORM_DEADBAND).max(0.0) * NORM_WEIGHT
                }
                _ => 0.0,
            };
            let excluded = !outcome.selected.contains(&i);
            // The distance term is floored at zero: sitting *below* the mean
            // is what selection rewards, and letting it go negative would
            // hand a central attacker (zeroed or mimicking gradients) credit
            // that cancels the norm channel's evidence against it.
            let instant =
                z.max(0.0) + norm_term + if excluded { self.exclusion_weight } else { 0.0 };

            let alpha = self.alpha;
            let state = self
                .peers
                .entry(peer)
                .or_insert_with(|| PeerState::register(peer));
            state.observed_rounds += 1;
            state.last_z = z;
            state.score = if state.observed_rounds == 1 {
                instant
            } else {
                alpha * instant + (1.0 - alpha) * state.score
            };
            state.gauge.set(state.score);
            if excluded {
                state.excluded_rounds += 1;
                state.excluded_total.inc();
                garfield_obs::flight::record(
                    garfield_obs::flight::EventKind::PeerExcluded,
                    round,
                    Some(peer),
                    distances[i],
                );
            }
        }
    }

    /// Current per-peer state, sorted by peer id.
    pub fn snapshot(&self) -> Vec<PeerSuspicion> {
        self.peers
            .iter()
            .map(|(&peer, s)| PeerSuspicion {
                peer,
                score: s.score,
                excluded_rounds: s.excluded_rounds,
                observed_rounds: s.observed_rounds,
                last_z: s.last_z,
            })
            .collect()
    }

    /// Peer ids ranked most-suspicious first (score descending, ties by
    /// ascending peer id — deterministic).
    pub fn ranking(&self) -> Vec<u32> {
        let mut order: Vec<(u32, f64)> = self.peers.iter().map(|(&p, s)| (p, s.score)).collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        order.into_iter().map(|(p, _)| p).collect()
    }

    /// The `k` most suspicious peers.
    pub fn top(&self, k: usize) -> Vec<u32> {
        let mut r = self.ranking();
        r.truncate(k);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(selected: Vec<usize>, distance: Vec<f64>) -> SelectionOutcome {
        SelectionOutcome {
            selected,
            distance,
            norm: Vec::new(),
        }
    }

    #[test]
    fn distant_excluded_peer_rises_to_the_top() {
        let mut ledger = SuspicionLedger::default();
        let peers = [10u32, 11, 12, 13, 14];
        for round in 0..20 {
            // Peer 14 (index 4) is consistently far away and excluded.
            let o = outcome(vec![0, 1, 2, 3], vec![1.0, 1.1, 0.9, 1.0, 50.0]);
            ledger.observe_round(round, &peers, &o);
        }
        assert_eq!(ledger.ranking()[0], 14);
        assert_eq!(ledger.top(1), vec![14]);
        let snap = ledger.snapshot();
        let bad = snap.iter().find(|p| p.peer == 14).unwrap();
        assert_eq!(bad.excluded_rounds, 20);
        assert_eq!(bad.observed_rounds, 20);
        assert!(bad.score > 1.0, "score {}", bad.score);
        let good = snap.iter().find(|p| p.peer == 10).unwrap();
        assert!(good.score < bad.score);
        assert_eq!(good.excluded_rounds, 0);
    }

    #[test]
    fn exclusion_alone_builds_suspicion_when_distances_collapse() {
        // Near convergence all distances can be equal; the exclusion streak
        // must still separate the refused peer.
        let mut ledger = SuspicionLedger::default();
        let peers = [0u32, 1, 2];
        for round in 0..10 {
            let o = outcome(vec![0, 1], vec![1.0, 1.0, 1.0]);
            ledger.observe_round(round, &peers, &o);
        }
        assert_eq!(ledger.ranking()[0], 2);
        let snap = ledger.snapshot();
        assert!(snap.iter().find(|p| p.peer == 2).unwrap().score > 1.0);
        assert!(snap.iter().find(|p| p.peer == 0).unwrap().score.abs() < 1e-9);
    }

    #[test]
    fn suspicion_decays_once_the_attack_stops() {
        let mut ledger = SuspicionLedger::default();
        let peers = [0u32, 1, 2, 3, 4];
        for round in 0..5 {
            let o = outcome(vec![0, 1, 2, 3], vec![1.0, 1.0, 1.0, 1.0, 100.0]);
            ledger.observe_round(round, &peers, &o);
        }
        let hot = ledger
            .snapshot()
            .iter()
            .find(|p| p.peer == 4)
            .unwrap()
            .score;
        for round in 5..60 {
            let o = outcome(vec![0, 1, 2, 3, 4], vec![1.0, 1.0, 1.0, 1.0, 1.0]);
            ledger.observe_round(round, &peers, &o);
        }
        let cooled = ledger
            .snapshot()
            .iter()
            .find(|p| p.peer == 4)
            .unwrap()
            .score;
        assert!(cooled < hot / 10.0, "hot {hot} cooled {cooled}");
    }

    #[test]
    fn z_scores_are_clamped_against_astronomical_outliers() {
        let mut ledger = SuspicionLedger::default();
        let peers = [0u32, 1, 2];
        let o = outcome(vec![0, 1], vec![1.0, 1.0, 1e30]);
        ledger.observe_round(0, &peers, &o);
        let snap = ledger.snapshot();
        let bad = snap.iter().find(|p| p.peer == 2).unwrap();
        assert!(bad.score <= Z_CLAMP + DEFAULT_EXCLUSION_WEIGHT);
        assert!(bad.last_z <= Z_CLAMP);
    }

    #[test]
    fn empty_and_mismatched_inputs_are_ignored_safely() {
        let mut ledger = SuspicionLedger::default();
        ledger.observe_round(0, &[], &outcome(vec![], vec![]));
        assert_eq!(ledger.rounds(), 0);
        // Mismatched lengths: only the common prefix is scored.
        ledger.observe_round(1, &[0, 1], &outcome(vec![0], vec![1.0, 2.0, 3.0]));
        assert_eq!(ledger.snapshot().len(), 2);
    }

    #[test]
    fn a_zeroed_gradient_is_flagged_by_its_norm_even_when_central() {
        // The stealth case: near convergence a dropped (all-zero) gradient is
        // *closer* to everyone than the honest inputs are to each other, and
        // the GAR may even select it. Distance forensics see nothing; the
        // norm channel must still flag it.
        let mut ledger = SuspicionLedger::default();
        let peers = [0u32, 1, 2, 3, 4];
        for round in 0..20 {
            // The trim rotates through the honest peers; the central
            // attacker is always kept.
            let selected = (0..5usize).filter(|&i| i != (round % 4) as usize).collect();
            let o = SelectionOutcome {
                selected,
                distance: vec![2.0, 2.1, 1.9, 2.0, 1.0], // attacker is central
                norm: vec![1.0, 1.1, 0.9, 1.0, 0.0],     // ...but zeroed
            };
            ledger.observe_round(round, &peers, &o);
        }
        assert_eq!(ledger.ranking()[0], 4, "ranking {:?}", ledger.snapshot());
        let snap = ledger.snapshot();
        let bad = snap.iter().find(|p| p.peer == 4).unwrap().score;
        let best_honest = snap
            .iter()
            .filter(|p| p.peer != 4)
            .map(|p| p.score)
            .fold(f64::MIN, f64::max);
        assert!(
            bad > best_honest + 0.5,
            "attacker {bad} vs honest {best_honest}"
        );
    }

    #[test]
    fn a_non_finite_norm_neither_blinds_the_round_nor_hides_its_sender() {
        // Median-style rounds: every input selected, every distance 0, so
        // the norm channel is the only signal. Peer 5 sends a zeroed
        // gradient and peer 6 a NaN one; the NaN norm must not turn the
        // round's statistics into NaN and every peer's evidence into 0.
        let mut ledger = SuspicionLedger::default();
        let peers = [0u32, 1, 2, 3, 4, 5, 6];
        for round in 0..20 {
            let o = SelectionOutcome {
                selected: (0..7).collect(),
                distance: vec![0.0; 7],
                norm: vec![1.0, 1.1, 0.9, 1.0, 1.05, 0.0, f64::NAN],
            };
            ledger.observe_round(round, &peers, &o);
        }
        assert_eq!(ledger.ranking()[0], 6, "ranking {:?}", ledger.snapshot());
        let snap = ledger.snapshot();
        let score = |peer: u32| snap.iter().find(|p| p.peer == peer).unwrap().score;
        assert!(score(5) > 0.0, "zeroed peer {}", score(5));
        assert!((0..5).all(|p| score(p) < score(5)), "{snap:?}");
    }

    #[test]
    fn ranking_ties_break_by_peer_id() {
        let mut ledger = SuspicionLedger::default();
        ledger.observe_round(0, &[7, 3], &outcome(vec![0, 1], vec![1.0, 1.0]));
        assert_eq!(ledger.ranking(), vec![3, 7]);
    }
}
