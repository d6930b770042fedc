//! Fault injection for live runs: crash, delay and restart.
//!
//! A live node is made Byzantine the way a sim node is, by the experiment
//! config (`ExperimentConfig::{actual_byzantine_workers, worker_attack,
//! actual_byzantine_servers, server_attack}`): the attack is installed on
//! the last workers and replicas when the nodes are assembled, so every live
//! Byzantine run has a sim twin with the same attacker set.

use std::collections::HashMap;
use std::time::Duration;

/// A fault installed on one node of a live deployment: the node crashes,
/// straggles or restarts. Byzantine behaviour is not a fault here; it comes
/// from the experiment config (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The node goes silent from the given iteration onward: a worker stops
    /// replying to gradient requests, a server stops driving its loop. The
    /// router drops messages to it, so peers only notice through the
    /// "fastest `q`" quorum — the failure mode the paper's asynchronous
    /// liveness condition (`n ≥ q + f`) is designed to ride out.
    CrashAt {
        /// First iteration at which the node is silent.
        iteration: usize,
    },
    /// The node services every request `millis` late — a straggler. With
    /// `q < n` the pull primitives leave it behind; with `q = n` it slows
    /// every round but liveness is preserved.
    Delay {
        /// Added latency before each reply, in milliseconds.
        millis: u64,
    },
    /// The node crashes at iteration `crash` and *comes back* for iteration
    /// `rejoin` — the recovery scenario [`Fault::CrashAt`] cannot express.
    ///
    /// The crash is real: the transport goes silent and the node rejoins as
    /// a fresh incarnation ([`Transport::rejoin`](garfield_net::Transport)),
    /// dropping every envelope addressed to the dead one. On rejoin, a
    /// worker simply serves gradient requests again (workers are stateless
    /// repliers); a server replica first catches up by pulling a
    /// `StateChunk` from the fastest live peer.
    RestartAt {
        /// First iteration at which the node is silent.
        crash: usize,
        /// First iteration at which the node participates again.
        rejoin: usize,
    },
}

/// What a node does at one round, by its [`Fault`]: the decision both actors
/// take from [`Fault::step`] before serving a request or starting a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Take part, after sleeping the given delay (zero unless the node
    /// straggles).
    Run(Duration),
    /// Go silent for the rest of the run.
    Crash,
    /// Crash, come back as a fresh incarnation, and take part again from the
    /// given round on.
    Restart(usize),
    /// Restarted but not yet rejoined: stay silent this round.
    Skip,
}

impl Fault {
    /// The one fault gate: what a node carrying `fault` does at `round`,
    /// given whether its one restart already happened. Pure — the actors
    /// perform the crash, rejoin, sleep and resume count themselves.
    pub(crate) fn step(fault: Option<Fault>, round: usize, restarted: bool) -> Step {
        match fault {
            Some(Fault::CrashAt { iteration }) if round >= iteration => Step::Crash,
            Some(Fault::RestartAt { crash, rejoin }) if !restarted && round >= crash => {
                Step::Restart(rejoin)
            }
            Some(Fault::RestartAt { rejoin, .. }) if restarted && round < rejoin => Step::Skip,
            Some(Fault::Delay { millis }) => Step::Run(Duration::from_millis(millis)),
            _ => Step::Run(Duration::ZERO),
        }
    }
}

/// Which nodes of a live run crash, straggle or restart.
///
/// Faults are assigned by node index (worker 0..nw, server 0..nps) with a
/// builder-style API:
///
/// ```rust
/// use garfield_runtime::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_worker_at(2, 1)
///     .delay_worker(3, 50)
///     .restart_server_at(1, 2, 4);
/// assert_eq!(plan.fault_count(), 3);
/// assert!(plan.worker(2).is_some() && plan.server(0).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    workers: HashMap<usize, Fault>,
    servers: HashMap<usize, Fault>,
}

impl FaultPlan {
    /// Creates an empty (fault-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crashes worker `index` at `iteration`.
    pub fn crash_worker_at(mut self, index: usize, iteration: usize) -> Self {
        self.workers.insert(index, Fault::CrashAt { iteration });
        self
    }

    /// Delays every reply of worker `index` by `millis` milliseconds.
    pub fn delay_worker(mut self, index: usize, millis: u64) -> Self {
        self.workers.insert(index, Fault::Delay { millis });
        self
    }

    /// Crashes worker `index` at iteration `crash` and rejoins it for
    /// iteration `rejoin`.
    pub fn restart_worker_at(mut self, index: usize, crash: usize, rejoin: usize) -> Self {
        self.workers
            .insert(index, Fault::RestartAt { crash, rejoin });
        self
    }

    /// Crashes server replica `index` at `iteration`.
    pub fn crash_server_at(mut self, index: usize, iteration: usize) -> Self {
        self.servers.insert(index, Fault::CrashAt { iteration });
        self
    }

    /// Crashes server replica `index` at iteration `crash` and rejoins it
    /// (with live state transfer from a peer) for iteration `rejoin`.
    pub fn restart_server_at(mut self, index: usize, crash: usize, rejoin: usize) -> Self {
        self.servers
            .insert(index, Fault::RestartAt { crash, rejoin });
        self
    }

    /// The fault installed on worker `index`, if any.
    pub fn worker(&self, index: usize) -> Option<Fault> {
        self.workers.get(&index).copied()
    }

    /// The fault installed on server replica `index`, if any.
    pub fn server(&self, index: usize) -> Option<Fault> {
        self.servers.get(&index).copied()
    }

    /// Total number of faulted nodes.
    pub fn fault_count(&self) -> usize {
        self.workers.len() + self.servers.len()
    }

    /// Whether the plan installs no fault at all.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_assigns_and_overwrites() {
        let plan = FaultPlan::new()
            .crash_worker_at(1, 5)
            .delay_worker(1, 10) // overwrite: one fault per node
            .crash_server_at(0, 4);
        assert_eq!(plan.fault_count(), 2);
        assert_eq!(plan.worker(1), Some(Fault::Delay { millis: 10 }));
        assert_eq!(plan.server(0), Some(Fault::CrashAt { iteration: 4 }));
        assert!(plan.worker(0).is_none());
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn the_gate_decides_each_round_by_fault_and_restart_state() {
        let run = Step::Run(Duration::ZERO);
        let crash_at = Some(Fault::CrashAt { iteration: 3 });
        let restart = Some(Fault::RestartAt {
            crash: 2,
            rejoin: 5,
        });
        let table = [
            (None, 0, false, run),
            (crash_at, 2, false, run),
            (crash_at, 3, false, Step::Crash),
            (crash_at, 4, false, Step::Crash),
            (restart, 1, false, run),
            (restart, 2, false, Step::Restart(5)),
            (restart, 3, false, Step::Restart(5)),
            (restart, 2, true, Step::Skip),
            (restart, 4, true, Step::Skip),
            (restart, 5, true, run),
            (restart, 9, true, run),
            (
                Some(Fault::Delay { millis: 40 }),
                0,
                false,
                Step::Run(Duration::from_millis(40)),
            ),
        ];
        for (fault, round, restarted, want) in table {
            assert_eq!(
                Fault::step(fault, round, restarted),
                want,
                "{fault:?} at round {round}, restarted {restarted}"
            );
        }
    }

    #[test]
    fn restart_faults_carry_crash_and_rejoin_iterations() {
        let plan = FaultPlan::new()
            .restart_worker_at(2, 3, 7)
            .restart_server_at(1, 4, 6);
        assert_eq!(
            plan.worker(2),
            Some(Fault::RestartAt {
                crash: 3,
                rejoin: 7
            })
        );
        assert_eq!(
            plan.server(1),
            Some(Fault::RestartAt {
                crash: 4,
                rejoin: 6
            })
        );
        assert_eq!(plan.fault_count(), 2);
    }
}
