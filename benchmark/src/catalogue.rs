//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats it for the driver; a unit test and
//! the `all` subcommand check that the two agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen (0 for layers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees. Measured with observability off.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("rounds_per_s", "1/s", Better::Higher, 0.25),
    e2e("round_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_round", "ms", Better::Lower, 0.25),
    e2e("wire_bytes_per_round", "B", Better::Lower, 0.001),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("final_accuracy", "fraction", Better::Higher, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers, `<crate>.<what>`. A layer a workload does not run reads 0.
pub const PER_LAYER: [MetricSpec; 49] = [
    higher("tensor.sq_l2_gelem_s", "Gelem/s"),
    higher("tensor.matmul_gflop_s", "GFLOP/s"),
    lower("ml.gradient_ms", "ms"),
    lower("ml.gradient_calls_per_round", "count"),
    lower("ml.update_ms", "ms"),
    lower("ml.eval_ms", "ms"),
    lower("attacks.corrupt_ms", "ms"),
    lower("aggregation.gar_ms", "ms"),
    higher("aggregation.gar_melem_s", "Melem/s"),
    lower("aggregation.distance_fill_ms", "ms"),
    lower("aggregation.model_gar_ms", "ms"),
    lower("aggregation.suspicion_ms", "ms"),
    lower("aggregation.excluded_per_round", "count"),
    higher("aggregation.byz_excluded_share", "fraction"),
    lower("net.encode_ms", "ms"),
    higher("net.encode_gb_s", "GB/s"),
    lower("net.decode_ms", "ms"),
    lower("net.peek_ns", "ns"),
    lower("net.router_hop_us", "us"),
    lower("net.msgs_per_round", "count"),
    lower("net.payload_bytes_per_round", "B"),
    lower("net.dropped", "count"),
    lower("transport.hop_us", "us"),
    higher("transport.hop_mb_s", "MB/s"),
    lower("transport.frame_write_ms", "ms"),
    lower("transport.frame_read_ms", "ms"),
    lower("transport.bind_ms", "ms"),
    lower("transport.framing_bytes_per_round", "B"),
    lower("transport.dropped", "count"),
    lower("transport.io_threads", "count"),
    lower("core.deployment_build_ms", "ms"),
    lower("core.params_snapshot_ms", "ms"),
    lower("core.checkpoint_save_ms", "ms"),
    lower("core.checkpoint_load_ms", "ms"),
    lower("core.sim_round_ms", "ms"),
    lower("runtime.comm_ms_p50", "ms"),
    lower("runtime.agg_ms_p50", "ms"),
    lower("runtime.round_p95_ms", "ms"),
    lower("runtime.server_busy_ms", "ms"),
    lower("runtime.quorum_wait_ms", "ms"),
    lower("runtime.serial_round_ms", "ms"),
    higher("runtime.parallel_gain", "x"),
    lower("runtime.spawn_join_ms", "ms"),
    lower("runtime.retries", "count"),
    lower("runtime.threads", "count"),
    lower("obs.overhead_pct", "%"),
    lower("obs.flight_record_ns", "ns"),
    lower("obs.histogram_observe_ns", "ns"),
    lower("obs.render_ms", "ms"),
];
