//! # garfield-obs
//!
//! Dependency-free observability for the Garfield-rs runtime: a process-wide
//! [`metrics`] registry (counters, gauges, log-bucketed latency histograms),
//! a [`flight`] recorder (fixed-capacity per-thread ring buffers of
//! structured events), and a [`http`] scrape endpoint serving Prometheus
//! text exposition plus flight dumps — all on `std` alone, no tokio/hyper,
//! no vendored shims.
//!
//! ## Cost model
//!
//! Observability is **off by default** and must be paid for honestly:
//!
//! * Every hot-path operation ([`Counter::inc`], [`Histogram::observe`],
//!   [`flight::record`]) first checks one process-wide `AtomicBool` with a
//!   relaxed load — disabled, recording compiles to a load and a branch.
//! * Enabled, a counter bump is one relaxed `fetch_add`; a histogram
//!   observation is two relaxed `fetch_add`s plus a CAS loop on the sum; a
//!   flight event is an uncontended per-thread mutex push into a fixed ring.
//! * Handle *registration* (name lookup in the global registry) is the cold
//!   path: call sites cache handles in `OnceLock` statics and never touch
//!   the registry again.
//!
//! What that costs a whole live round is the benchmark's `obs.overhead_pct`
//! per-layer metric (`--trace 1`), measured end to end on every workload.
//!
//! ## Turning it on
//!
//! ```rust
//! garfield_obs::enable();
//! let rounds = garfield_obs::metrics::counter("doc_rounds_total", "Rounds run.", &[]);
//! rounds.inc();
//! assert_eq!(rounds.value(), 1);
//! garfield_obs::flight::record(garfield_obs::flight::EventKind::RoundStart, 0, None, 0.0);
//! assert!(garfield_obs::metrics::render().contains("doc_rounds_total 1"));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod http;
pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on process-wide and pins the flight-recorder epoch (the
/// shared `Instant`/wall-clock pair every event timestamp is relative to).
pub fn enable() {
    flight::epoch_unix_us(); // pin the epoch before threads race to record
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off process-wide. Registered metrics keep their values;
/// subsequent `inc`/`observe`/`record` calls become load-and-branch no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether recording is on. One relaxed atomic load — this is the guard
/// every hot-path operation starts with.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a span clock, or `None` when recording is disabled — so disabled
/// instrumentation skips even the `Instant::now()` syscall.
#[inline]
pub fn span_start() -> Option<std::time::Instant> {
    if enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Closes a span opened by [`span_start`]: observes the elapsed time into
/// `hist` and returns it. `None` in, `None` out.
#[inline]
pub fn span_end(
    start: Option<std::time::Instant>,
    hist: &Histogram,
) -> Option<std::time::Duration> {
    let elapsed = start.map(|t| t.elapsed());
    if let Some(d) = elapsed {
        hist.observe_duration(d);
    }
    elapsed
}

/// Serializes unit tests that toggle the process-wide enabled flag, so the
/// crate's own tests don't race each other through the shared global state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_inert() {
        let _g = test_guard();
        disable();
        let c = metrics::counter("obs_lib_inert_total", "test", &[]);
        c.inc();
        assert_eq!(c.value(), 0);
        assert!(span_start().is_none());
        enable();
        c.inc();
        assert_eq!(c.value(), 1);
        let h = metrics::histogram("obs_lib_inert_seconds", "test", &[]);
        let d = span_end(span_start(), &h);
        assert!(d.is_some());
        assert_eq!(h.snapshot().count(), 1);
    }
}
