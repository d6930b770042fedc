//! Simulated wall-clock time.

use std::fmt;

/// A per-node simulated clock, counting seconds of simulated time.
///
/// Every node of a simulated deployment owns one clock. Computation,
/// communication and aggregation phases advance it by the durations the
/// [`crate::CostModel`] produces, so "convergence versus time" and
/// "throughput" experiments read simulated seconds instead of host wall-clock
/// (which would reflect this machine, not the paper's testbed).
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct SimClock {
    seconds: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock { seconds: 0.0 }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.seconds
    }

    /// Advances the clock by `seconds` (negative or non-finite advances are ignored).
    pub fn advance(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.seconds += seconds;
        }
    }

    /// Moves the clock forward to `deadline` if it is later than the current time.
    ///
    /// Used to synchronise a node with the completion time of a round it had
    /// to wait for (e.g. the `q`-th fastest reply of a pull round).
    pub fn advance_to(&mut self, deadline: f64) {
        if deadline.is_finite() && deadline > self.seconds {
            self.seconds = deadline;
        }
    }

    /// Resets the clock to zero.
    pub fn reset(&mut self) {
        self.seconds = 0.0;
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_nan_and_infinite_advances_are_ignored() {
        let mut c = SimClock::new();
        c.advance(-1.0);
        c.advance(f64::NAN);
        c.advance(f64::INFINITY);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = SimClock::new();
        c.advance(5.0);
        c.advance_to(3.0);
        assert_eq!(c.now(), 5.0);
        c.advance_to(7.5);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    fn reset_and_display() {
        let mut c = SimClock::new();
        c.advance(1.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
        assert!(c.to_string().ends_with('s'));
    }
}
