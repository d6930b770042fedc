//! The cost model translating work and bytes into simulated seconds.
//!
//! The paper's throughput results are driven by three ingredients:
//! computation time (gradient estimation on CPU vs GPU), communication time
//! (model/gradient transfers over 10 Gbps links, plus serialization overhead
//! from leaving the TensorFlow runtime), and aggregation time (the GAR).
//! [`CostModel`] provides calibrated analytic forms for the first two; the
//! third is measured for real since the GARs actually execute.

/// Where a node performs its numeric work.
///
/// The GPU constants encode the roughly one-order-of-magnitude advantage the
/// paper reports for GPU deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// A 2×10-core Xeon-class CPU node (the paper's CPU cluster).
    Cpu,
    /// A dual-GPU node (the paper's GPU clusters).
    Gpu,
}

impl Device {
    /// Short lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Device {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok(Device::Cpu),
            "gpu" => Ok(Device::Gpu),
            other => Err(format!("unknown device '{other}' (expected cpu or gpu)")),
        }
    }
}

/// Link characteristics between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Effective point-to-point bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Extra per-byte serialization/deserialization cost (the paper's
    /// protobuf / runtime context-switch overhead, §4.1).
    pub serialization_s_per_byte: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        // 2 × 10 Gbps Ethernet with an effective ~4 Gbit/s per flow once the
        // gRPC/protobuf serialization path of §4.1 is accounted for.
        LinkProfile {
            latency_s: 2.0e-4,
            bandwidth_bps: 5.0e8,
            serialization_s_per_byte: 1.0e-9,
        }
    }
}

impl LinkProfile {
    /// A faster intra-GPU-cluster profile (nccl / gloo collectives, §4.2).
    pub fn gpu_cluster() -> Self {
        LinkProfile {
            latency_s: 1.0e-4,
            bandwidth_bps: 1.5e9,
            serialization_s_per_byte: 2.0e-10,
        }
    }

    /// Time to move `bytes` over this link, excluding receiver contention.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s
            + bytes as f64 / self.bandwidth_bps
            + bytes as f64 * self.serialization_s_per_byte
    }
}

/// Calibrated analytic cost model for computation and communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per (parameter × sample) of gradient computation on a CPU.
    pub cpu_grad_s_per_param_sample: f64,
    /// Speed-up factor of a GPU over a CPU for gradient computation.
    pub gpu_speedup: f64,
    /// Seconds per (parameter × input) of robust aggregation on a CPU, used
    /// only when a caller wants a *simulated* aggregation time instead of a
    /// measured one.
    pub cpu_agg_s_per_param_input: f64,
    /// Speed-up factor of a GPU over a CPU for aggregation kernels.
    pub gpu_agg_speedup: f64,
    /// Link profile of the CPU cluster.
    pub cpu_link: LinkProfile,
    /// Link profile of the GPU cluster.
    pub gpu_link: LinkProfile,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibration anchor (paper Fig. 7): ResNet-50 (23.5 M parameters),
        // batch 32, CPU gradient computation ≈ 1.6 s per iteration.
        CostModel {
            cpu_grad_s_per_param_sample: 2.1e-9,
            gpu_speedup: 15.0,
            cpu_agg_s_per_param_input: 6.0e-10,
            gpu_agg_speedup: 10.0,
            cpu_link: LinkProfile::default(),
            gpu_link: LinkProfile::gpu_cluster(),
        }
    }
}

impl CostModel {
    /// Link profile used between nodes of the given device class.
    pub fn link(&self, device: Device) -> LinkProfile {
        match device {
            Device::Cpu => self.cpu_link,
            Device::Gpu => self.gpu_link,
        }
    }

    /// Simulated time to compute one gradient estimate of dimension
    /// `parameters` over `batch_size` samples on `device`.
    pub fn gradient_time(&self, parameters: usize, batch_size: usize, device: Device) -> f64 {
        let base = self.cpu_grad_s_per_param_sample * parameters as f64 * batch_size as f64;
        match device {
            Device::Cpu => base,
            Device::Gpu => base / self.gpu_speedup,
        }
    }

    /// Simulated time to transfer one `parameters`-dimensional vector (4 bytes
    /// per value) over a single link of the `device` cluster.
    pub fn vector_transfer_time(&self, parameters: usize, device: Device) -> f64 {
        self.link(device).transfer_time(parameters * 4)
    }

    /// Simulated time for one node to *pull* `count` vectors of dimension
    /// `parameters` from distinct peers in parallel.
    ///
    /// The pulls overlap, but the receiver's ingress link is shared, so the
    /// serialization component scales with `count` while latency is paid once.
    /// This is the effect that makes communication dominate the paper's
    /// overhead breakdown (Fig. 7) and makes the decentralized topology's
    /// `O(n²)` messages per round visible (Fig. 9).
    pub fn parallel_pull_time(&self, parameters: usize, count: usize, device: Device) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let link = self.link(device);
        let bytes = parameters as f64 * 4.0;
        link.latency_s
            + count as f64 * bytes / link.bandwidth_bps
            + count as f64 * bytes * link.serialization_s_per_byte
    }

    /// Simulated time for one node to serve `count`-vector pulls to `fanout`
    /// replicas at once.
    ///
    /// The replicas pull in parallel, so the per-message latency overlaps and
    /// is paid once; the sender's shared link serializes the bandwidth and
    /// serialization components across all `count × fanout` vectors. This is
    /// what makes replicated-server deployments pay for replication in
    /// *bytes*, not in round trips.
    pub fn fanout_pull_time(
        &self,
        parameters: usize,
        count: usize,
        fanout: usize,
        device: Device,
    ) -> f64 {
        if count == 0 || fanout == 0 {
            return 0.0;
        }
        let link = self.link(device);
        let vectors = (count * fanout) as f64;
        let bytes = parameters as f64 * 4.0;
        link.latency_s
            + vectors * bytes / link.bandwidth_bps
            + vectors * bytes * link.serialization_s_per_byte
    }

    /// Simulated aggregation time for a GAR whose cost is `O(n^order · d)`.
    ///
    /// Used by throughput sweeps that want a device-scaled analytic value; the
    /// micro-benchmarks (Fig. 3) measure the real kernels instead.
    pub fn aggregation_time(
        &self,
        parameters: usize,
        inputs: usize,
        order: u32,
        device: Device,
    ) -> f64 {
        let work = (inputs as f64).powi(order as i32) * parameters as f64;
        let base = self.cpu_agg_s_per_param_input * work;
        match device {
            Device::Cpu => base,
            Device::Gpu => base / self.gpu_agg_speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_cpu_gradient_time_matches_the_calibration_anchor() {
        let m = CostModel::default();
        let t = m.gradient_time(23_539_850, 32, Device::Cpu);
        assert!((1.0..2.5).contains(&t), "ResNet-50 CPU gradient time {t}");
    }

    #[test]
    fn gpu_is_roughly_an_order_of_magnitude_faster() {
        let m = CostModel::default();
        let cpu = m.gradient_time(1_000_000, 32, Device::Cpu);
        let gpu = m.gradient_time(1_000_000, 32, Device::Gpu);
        assert!(cpu / gpu >= 10.0);
    }

    #[test]
    fn transfer_time_scales_linearly_with_dimension() {
        let m = CostModel::default();
        let t1 = m.vector_transfer_time(1_000_000, Device::Cpu);
        let t2 = m.vector_transfer_time(2_000_000, Device::Cpu);
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
    }

    #[test]
    fn parallel_pull_scales_with_the_number_of_peers() {
        let m = CostModel::default();
        let one = m.parallel_pull_time(1_000_000, 1, Device::Cpu);
        let five = m.parallel_pull_time(1_000_000, 5, Device::Cpu);
        assert!(five > one * 4.0 && five < one * 5.5);
        assert_eq!(m.parallel_pull_time(1_000_000, 0, Device::Cpu), 0.0);
    }

    #[test]
    fn communication_dominates_computation_for_large_models() {
        // The paper roots ≥75% of the overhead in communication for ResNet-50
        // on the CPU cluster with 18 workers; the cost model must reproduce
        // that ordering.
        let m = CostModel::default();
        let d = 23_539_850;
        let comm =
            m.parallel_pull_time(d, 18, Device::Cpu) + m.parallel_pull_time(d, 6, Device::Cpu);
        let comp = m.gradient_time(d, 32, Device::Cpu);
        assert!(comm > comp, "comm {comm} should exceed comp {comp}");
    }

    #[test]
    fn fanout_pull_overlaps_latency_but_serializes_bytes() {
        let m = CostModel::default();
        let d = 1_000_000;
        let single = m.parallel_pull_time(d, 10, Device::Cpu);
        let fanned = m.fanout_pull_time(d, 10, 3, Device::Cpu);
        // Three times the bytes, but only one latency.
        let lat = m.link(Device::Cpu).latency_s;
        assert!((fanned - (3.0 * (single - lat) + lat)).abs() < 1e-12);
        assert_eq!(m.fanout_pull_time(d, 10, 1, Device::Cpu), single);
        assert_eq!(m.fanout_pull_time(d, 0, 3, Device::Cpu), 0.0);
        assert_eq!(m.fanout_pull_time(d, 10, 0, Device::Cpu), 0.0);
    }

    #[test]
    fn aggregation_time_orders() {
        let m = CostModel::default();
        let linear = m.aggregation_time(1_000_000, 10, 1, Device::Cpu);
        let quadratic = m.aggregation_time(1_000_000, 10, 2, Device::Cpu);
        assert!(quadratic > linear * 5.0);
        assert!(m.aggregation_time(1_000_000, 10, 2, Device::Gpu) < quadratic);
    }

    #[test]
    fn device_and_link_accessors() {
        let m = CostModel::default();
        assert_eq!(Device::Cpu.as_str(), "cpu");
        assert_eq!(Device::Gpu.to_string(), "gpu");
        assert!(m.link(Device::Gpu).bandwidth_bps > m.link(Device::Cpu).bandwidth_bps);
        let lp = LinkProfile::default();
        assert!(lp.transfer_time(1_000_000) > lp.latency_s);
    }
}
