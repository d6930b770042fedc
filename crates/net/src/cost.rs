//! The cost model translating work and bytes into simulated seconds.
//!
//! The paper's throughput results are driven by three ingredients:
//! computation time (gradient estimation), communication time
//! (model/gradient transfers over 10 Gbps links, plus serialization overhead
//! from leaving the TensorFlow runtime), and aggregation time (the GAR).
//! These functions are calibrated analytic forms of all three for the
//! paper's CPU cluster; the micro-benchmarks (Fig. 3) measure the real
//! aggregation kernels instead.

/// Seconds per (parameter × sample) of gradient computation. Calibration
/// anchor (paper Fig. 7): ResNet-50 (23.5 M parameters), batch 32, CPU
/// gradient computation ≈ 1.6 s per iteration.
const GRAD_S_PER_PARAM_SAMPLE: f64 = 2.1e-9;
/// Seconds per (parameter × input) of robust aggregation.
const AGG_S_PER_PARAM_INPUT: f64 = 6.0e-10;
// The link: 2 × 10 Gbps Ethernet with an effective ~4 Gbit/s per flow once
// the gRPC/protobuf serialization path of §4.1 is accounted for.
/// One-way message latency in seconds.
const LATENCY_S: f64 = 2.0e-4;
/// Effective point-to-point bandwidth in bytes per second.
const BANDWIDTH_BPS: f64 = 5.0e8;
/// Extra per-byte serialization/deserialization cost (the paper's protobuf /
/// runtime context-switch overhead, §4.1).
const SERIALIZATION_S_PER_BYTE: f64 = 1.0e-9;

/// Simulated time to compute one gradient estimate of dimension
/// `parameters` over `batch_size` samples.
pub fn gradient_time(parameters: usize, batch_size: usize) -> f64 {
    GRAD_S_PER_PARAM_SAMPLE * parameters as f64 * batch_size as f64
}

/// Simulated time for one node to *pull* `count` vectors of dimension
/// `parameters` (4 bytes per value) from distinct peers in parallel.
///
/// The pulls overlap, but the receiver's ingress link is shared, so the
/// serialization component scales with `count` while latency is paid once.
/// This is the effect that makes communication dominate the paper's
/// overhead breakdown (Fig. 7) and makes the decentralized topology's
/// `O(n²)` messages per round visible (Fig. 9).
pub fn parallel_pull_time(parameters: usize, count: usize) -> f64 {
    fanout_pull_time(parameters, count, 1)
}

/// Simulated time for one node to serve `count`-vector pulls to `fanout`
/// replicas at once.
///
/// The replicas pull in parallel, so the per-message latency overlaps and
/// is paid once; the sender's shared link serializes the bandwidth and
/// serialization components across all `count × fanout` vectors. This is
/// what makes replicated-server deployments pay for replication in
/// *bytes*, not in round trips.
pub fn fanout_pull_time(parameters: usize, count: usize, fanout: usize) -> f64 {
    if count == 0 || fanout == 0 {
        return 0.0;
    }
    let vectors = (count * fanout) as f64;
    let bytes = parameters as f64 * 4.0;
    LATENCY_S + vectors * bytes / BANDWIDTH_BPS + vectors * bytes * SERIALIZATION_S_PER_BYTE
}

/// Simulated aggregation time for a GAR whose cost is `O(n^order · d)`.
pub fn aggregation_time(parameters: usize, inputs: usize, order: u32) -> f64 {
    let work = (inputs as f64).powi(order as i32) * parameters as f64;
    AGG_S_PER_PARAM_INPUT * work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_cpu_gradient_time_matches_the_calibration_anchor() {
        let t = gradient_time(23_539_850, 32);
        assert!((1.0..2.5).contains(&t), "ResNet-50 CPU gradient time {t}");
    }

    #[test]
    fn transfer_time_scales_linearly_with_dimension() {
        let t1 = parallel_pull_time(1_000_000, 1);
        let t2 = parallel_pull_time(2_000_000, 1);
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
        assert!(t1 > LATENCY_S);
    }

    #[test]
    fn parallel_pull_scales_with_the_number_of_peers() {
        let one = parallel_pull_time(1_000_000, 1);
        let five = parallel_pull_time(1_000_000, 5);
        assert!(five > one * 4.0 && five < one * 5.5);
        assert_eq!(parallel_pull_time(1_000_000, 0), 0.0);
    }

    #[test]
    fn communication_dominates_computation_for_large_models() {
        // The paper roots ≥75% of the overhead in communication for ResNet-50
        // on the CPU cluster with 18 workers; the cost model must reproduce
        // that ordering.
        let d = 23_539_850;
        let comm = parallel_pull_time(d, 18) + parallel_pull_time(d, 6);
        let comp = gradient_time(d, 32);
        assert!(comm > comp, "comm {comm} should exceed comp {comp}");
    }

    #[test]
    fn fanout_pull_overlaps_latency_but_serializes_bytes() {
        let d = 1_000_000;
        let single = parallel_pull_time(d, 10);
        let fanned = fanout_pull_time(d, 10, 3);
        // Three times the bytes, but only one latency.
        assert!((fanned - (3.0 * (single - LATENCY_S) + LATENCY_S)).abs() < 1e-12);
        assert_eq!(fanout_pull_time(d, 10, 1), single);
        assert_eq!(fanout_pull_time(d, 0, 3), 0.0);
        assert_eq!(fanout_pull_time(d, 10, 0), 0.0);
    }

    #[test]
    fn aggregation_time_orders() {
        let linear = aggregation_time(1_000_000, 10, 1);
        let quadratic = aggregation_time(1_000_000, 10, 2);
        assert!(quadratic > linear * 5.0);
    }
}
