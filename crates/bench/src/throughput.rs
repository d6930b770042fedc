//! Analytic per-iteration time and throughput for the Table 1 workloads.
//!
//! The throughput sweeps of Figs. 6–10 and 13–16 use the paper's large models
//! (up to 128 M parameters), which would be pointless to train for real here:
//! their per-iteration time is entirely determined by the model dimension,
//! the cluster shape and the link/device characteristics. The formulas are
//! [`SystemPlan::timing`] — the same plan the training runtime interprets, so
//! the simulated sweeps and the real training traces cannot disagree.

use garfield_core::{ExperimentConfig, IterationTiming, SystemKind, SystemPlan};
use garfield_net::{CostModel, Device};

/// One point of a throughput sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Per-iteration timing breakdown.
    pub timing: IterationTiming,
    /// Model updates per second.
    pub updates_per_second: f64,
    /// Mini-batches per second (`updates × nw`).
    pub batches_per_second: f64,
}

/// Analytic per-iteration timing of `system` for a `d`-parameter model on a
/// *synchronous* cluster of `nw`/`fw` workers and `nps`/`fps` servers with
/// per-worker batch size `batch` (see [`SystemPlan::timing`] for the terms).
#[allow(clippy::too_many_arguments)]
pub fn iteration_time(
    system: SystemKind,
    d: usize,
    nw: usize,
    fw: usize,
    nps: usize,
    fps: usize,
    batch: usize,
    device: Device,
    cost: &CostModel,
) -> IterationTiming {
    let shape = ExperimentConfig {
        nw,
        fw,
        nps,
        fps,
        ..ExperimentConfig::default()
    };
    SystemPlan::of(system, &shape).timing(d, batch, device, cost)
}

/// Throughput (updates and batches per second) for the same analytic model.
#[allow(clippy::too_many_arguments)]
pub fn throughput(
    system: SystemKind,
    d: usize,
    nw: usize,
    fw: usize,
    nps: usize,
    fps: usize,
    batch: usize,
    device: Device,
    cost: &CostModel,
) -> ThroughputPoint {
    let timing = iteration_time(system, d, nw, fw, nps, fps, batch, device, cost);
    let total = timing.total().max(1e-12);
    ThroughputPoint {
        timing,
        updates_per_second: 1.0 / total,
        batches_per_second: nw as f64 / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESNET50: usize = 23_539_850;

    fn point(system: SystemKind, device: Device) -> ThroughputPoint {
        throughput(
            system,
            RESNET50,
            18,
            3,
            6,
            1,
            32,
            device,
            &CostModel::default(),
        )
    }

    #[test]
    fn ordering_matches_the_paper_cpu() {
        let vanilla = point(SystemKind::Vanilla, Device::Cpu).updates_per_second;
        let ssmw = point(SystemKind::Ssmw, Device::Cpu).updates_per_second;
        let crash = point(SystemKind::CrashTolerant, Device::Cpu).updates_per_second;
        let msmw = point(SystemKind::Msmw, Device::Cpu).updates_per_second;
        let dec = point(SystemKind::Decentralized, Device::Cpu).updates_per_second;
        assert!(vanilla > ssmw, "vanilla should be the fastest");
        assert!(
            ssmw > crash,
            "tolerating Byzantine workers should cost less than crash tolerance"
        );
        assert!(
            crash > msmw,
            "tolerating Byzantine servers should cost more than crash tolerance"
        );
        assert!(msmw > dec, "decentralized should be the slowest");
    }

    #[test]
    fn communication_dominates_and_gpu_is_faster() {
        let p = point(SystemKind::Msmw, Device::Cpu);
        assert!(p.timing.communication > 0.6 * p.timing.total());
        assert!(p.timing.aggregation < 0.25 * p.timing.total());
        let gpu = point(SystemKind::Msmw, Device::Gpu);
        assert!(gpu.updates_per_second > 3.0 * p.updates_per_second);
    }

    #[test]
    fn slowdown_grows_then_saturates_with_model_dimension() {
        // Paper Fig. 6: the Byzantine-resilience overhead grows with d only up
        // to a point, after which communication (O(d) for everyone) dominates.
        let cost = CostModel::default();
        let slowdown = |d: usize| {
            let v = throughput(SystemKind::Vanilla, d, 18, 3, 6, 1, 32, Device::Cpu, &cost);
            let m = throughput(SystemKind::Msmw, d, 18, 3, 6, 1, 32, Device::Cpu, &cost);
            v.updates_per_second / m.updates_per_second
        };
        let small = slowdown(79_510);
        let big = slowdown(62_697_610);
        let huge = slowdown(128_807_306);
        assert!(big > small, "slowdown should grow with model size");
        assert!(
            (huge - big).abs() / big < 0.35,
            "slowdown should saturate for huge models"
        );
    }

    #[test]
    fn decentralized_communication_grows_quadratically_with_n() {
        let cost = CostModel::default();
        let comm = |n: usize| {
            iteration_time(
                SystemKind::Decentralized,
                1_000_000,
                n,
                1,
                0,
                0,
                32,
                Device::Gpu,
                &cost,
            )
            .communication
        };
        let ratio = comm(6) / comm(3);
        assert!(
            ratio > 3.0,
            "doubling n should ~quadruple decentralized communication, got {ratio}"
        );
        let vanilla = |n: usize| {
            iteration_time(
                SystemKind::Vanilla,
                1_000_000,
                n,
                0,
                1,
                0,
                32,
                Device::Gpu,
                &cost,
            )
            .communication
        };
        let vr = vanilla(6) / vanilla(3);
        assert!(
            vr < 2.5,
            "vanilla communication should grow roughly linearly, got {vr}"
        );
    }

    #[test]
    fn byzantine_servers_cost_more_than_byzantine_workers() {
        // Paper: +53% over SSMW for server tolerance, +22% over crash tolerance (GPU numbers).
        let ssmw = point(SystemKind::Ssmw, Device::Gpu).timing.total();
        let msmw = point(SystemKind::Msmw, Device::Gpu).timing.total();
        let crash = point(SystemKind::CrashTolerant, Device::Gpu).timing.total();
        assert!(
            msmw > ssmw * 1.2,
            "server tolerance should add substantial overhead over SSMW"
        );
        assert!(
            msmw > crash,
            "Byzantine server tolerance should cost more than crash tolerance"
        );
        assert!(msmw < crash * 2.0, "but not catastrophically more");
    }
}
