//! # garfield-bench
//!
//! The evaluation harness of Garfield-rs: one entry point per table and
//! figure of the paper's evaluation (§6 and the appendix), run by the
//! `expfig` binary, which prints the rows the paper reports and writes CSV
//! files under `results/`.
//!
//! The convergence and attack experiments (Figs. 4, 5, 11, 12, Table 2) run
//! the real training stack on scaled-down settings; the throughput sweeps over
//! the paper's large Table 1 models (Figs. 6–10, 13–16) evaluate the same
//! [`SystemPlan`](garfield_core::SystemPlan) the training runtime interprets
//! ([`SystemPlan::timing`](garfield_core::SystemPlan::timing)) at the paper's
//! exact parameter counts: training a 128 M-parameter model here would add
//! nothing, since per-iteration time is a function of model size and cluster
//! shape alone (README "Architecture", the `sim` column).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod perf;
pub mod report;
pub mod trace;
pub mod watch;

pub use perf::{PerfConfig, PerfPoint};
pub use report::{write_csv, Row};
