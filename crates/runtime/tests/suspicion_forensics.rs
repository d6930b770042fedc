//! Byzantine forensics acceptance: under every attack in the catalog, the
//! attacked peer must hold the top-`f` suspicion slot(s) once training has
//! run — the ledger's whole purpose is to let an operator *name* the
//! attacker, not just survive it.

use garfield_attacks::AttackKind;
use garfield_core::{ExperimentConfig, SystemKind};
use garfield_runtime::LiveExecutor;

/// A configuration sized so forensics separate cleanly. Two things matter:
/// `nw = 7`, `fw = 1` gives Multi-Krum `m = 4` of 7 — the attacker is refused
/// round after round while honest trims rotate — and the dataset/batch are
/// large enough that honest workers are statistically exchangeable (tiny
/// shards give each honest worker a persistent sample bias that masquerades
/// as attack signal).
fn forensic_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small();
    cfg.nw = 7;
    cfg.fw = 1;
    cfg.nps = 1;
    cfg.fps = 0;
    cfg.dataset_samples = 2048;
    cfg.batch_size = 32;
    cfg.iterations = 30;
    cfg.eval_every = 0;
    cfg
}

#[test]
fn every_attack_in_the_catalog_ranks_the_attacker_top_f() {
    for kind in AttackKind::all() {
        let mut cfg = forensic_config();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(kind);
        // SSMW: one trusted server (node 0), workers at node ids 1..=nw; the
        // config attacker is the last worker.
        let byzantine_node = cfg.nw as u32;
        let report = LiveExecutor::new(cfg.clone())
            .run_live(SystemKind::Ssmw)
            .unwrap_or_else(|e| panic!("{kind:?}: live run failed: {e}"));

        assert_eq!(
            report.suspicion.len(),
            cfg.nw,
            "{kind:?}: the ledger must have scored every worker"
        );
        for peer in &report.suspicion {
            assert!(
                peer.score.is_finite(),
                "{kind:?}: peer {} score {}",
                peer.peer,
                peer.score
            );
            assert_eq!(
                peer.observed_rounds, cfg.iterations as u64,
                "{kind:?}: peer {} missed rounds",
                peer.peer
            );
        }

        // The acceptance criterion: the attacked peer owns the top-f slots.
        let mut ranked: Vec<&garfield_runtime::PeerSuspicion> = report.suspicion.iter().collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score));
        let top: Vec<u32> = ranked.iter().take(cfg.fw).map(|p| p.peer).collect();
        assert_eq!(
            top,
            vec![byzantine_node],
            "{kind:?}: suspicion ranking {:?}",
            ranked
                .iter()
                .map(|p| (p.peer, p.score, p.excluded_rounds))
                .collect::<Vec<_>>()
        );

        // The attacker's suspicion must also clear the honest field by a
        // real margin, not a tie-break.
        let attacker = ranked[0];
        let runner_up = ranked[1];
        assert!(
            attacker.score > runner_up.score + 0.5,
            "{kind:?}: attacker {:.3} vs runner-up {:.3} — no forensic margin",
            attacker.score,
            runner_up.score
        );
        assert!(
            attacker.excluded_rounds > runner_up.excluded_rounds,
            "{kind:?}: attacker excluded {} rounds, runner-up {}",
            attacker.excluded_rounds,
            runner_up.excluded_rounds
        );
    }
}

#[test]
fn a_fault_free_run_accuses_no_one() {
    let cfg = forensic_config();
    let report = LiveExecutor::new(cfg.clone())
        .run_live(SystemKind::Ssmw)
        .unwrap();
    assert_eq!(report.suspicion.len(), cfg.nw);
    // Honest-only field: no peer may accumulate an attacker-grade score.
    // Multi-Krum still trims someone every round, so scores are not zero,
    // and shard-level heterogeneity gives each honest worker a mild
    // persistent bias (the seed-42 honest ceiling measures ~2.7). Every
    // attacker in the catalog test scores 4.6+, so 3.0 splits the two
    // populations with margin on both sides.
    let table: Vec<(u32, f64, u64)> = report
        .suspicion
        .iter()
        .map(|p| (p.peer, p.score, p.excluded_rounds))
        .collect();
    for peer in &report.suspicion {
        assert!(
            peer.score < 3.0,
            "peer {} looks accused at {:.3} in an honest run: {table:?}",
            peer.peer,
            peer.score
        );
    }
}
