//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.
//!
//! Both start from *probes*: short live runs of a fixed round count. A probe
//! times set-up (its wall time minus its round latencies), estimates the
//! round rate — which sizes the measured run to the requested seconds — and
//! ends in a model whose fingerprint the layer replay of the same rounds
//! must reproduce bit for bit. That equality is the output check.

use crate::catalogue::{MetricSpec, END_TO_END, PER_LAYER};
use crate::live::{self, LiveRun};
use crate::replay::{self, Replay, ROUND};
use crate::spans::{self, Span};
use crate::stats::{self, median, percentile, Segmented};
use crate::workloads::{Fabric, Workload, ACCURACY_FLOOR};
use crate::{micro, procfs};
use garfield_aggregation::GarKind;
use garfield_core::{Executor, SimExecutor};
use garfield_net::{MsgKind, WireMessage, WIRE_HEADER_BYTES};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is timed this many times a run; the median is reported.
const SETUP_PROBES: usize = 5;

/// One reported number. `min`/`max` are the extreme segments or probes
/// where the value is a median of several, else the value itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub spec: &'static MetricSpec,
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// Everything one run reports.
pub struct Outcome {
    /// Whether every output check held.
    pub correct: bool,
    /// Live rounds attempted, over every live run of this invocation.
    pub attempted: u64,
    /// Live rounds that did not complete.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Rounds of the measured run.
    pub rounds: usize,
    /// Fingerprint of the fixed-length probe's final model: the same on
    /// every run of one seed, whatever the machine's speed.
    pub model_fingerprint: u64,
    /// Output checks that failed and context worth printing.
    pub notes: Vec<String>,
}

/// Where traces, temporary checkpoints and result files go: inside the
/// benchmark's own directory of the checkout that built this binary.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Collects failed output checks.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// What every completed live run must satisfy.
    fn live_run(&mut self, workload: &Workload, run: &LiveRun, what: &str) {
        let telemetry = &run.report.telemetry;
        self.require(telemetry.round_latencies.len() == run.rounds, || {
            format!(
                "{what}: {} of {} rounds completed",
                telemetry.round_latencies.len(),
                run.rounds
            )
        });
        self.require(telemetry.total_requests_retried() == 0, || {
            format!(
                "{what}: {} pull requests were retried",
                telemetry.total_requests_retried()
            )
        });
        self.require(telemetry.total_dropped() == 0, || {
            format!(
                "{what}: {} messages were dropped",
                telemetry.total_dropped()
            )
        });
        let accuracy = run.report.trace.final_accuracy();
        self.require(accuracy >= ACCURACY_FLOOR, || {
            format!("{what}: final accuracy {accuracy} is below {ACCURACY_FLOOR}")
        });
        if workload.byzantine_worker().is_some() {
            // Servers come first, so the last worker is the last node.
            let byzantine = telemetry.nodes.len() as u32 - 1;
            let most_suspected = run
                .report
                .suspicion
                .iter()
                .max_by(|a, b| a.score.total_cmp(&b.score))
                .map(|s| s.peer);
            self.require(most_suspected == Some(byzantine), || {
                format!(
                    "{what}: most suspected peer is {most_suspected:?}, \
                     not the Byzantine worker {byzantine}"
                )
            });
        }
    }
}

/// Short live runs of `workload.probe_rounds` rounds each.
fn probes(
    workload: &Workload,
    seed: u64,
    count: usize,
    checks: &mut Checks,
) -> Result<Vec<LiveRun>, String> {
    let config = workload.config(seed, workload.probe_rounds);
    let runs: Vec<LiveRun> = (0..count)
        .map(|_| live::run(workload, &config, None))
        .collect::<Result<_, _>>()?;
    for run in &runs {
        // A probe is too short to train to the accuracy floor; its model is
        // checked bit for bit against the replay instead.
        checks.require(
            run.report.telemetry.round_latencies.len() == run.rounds,
            || "a probe did not complete its rounds".to_string(),
        );
        checks.require(run.fingerprint() == runs[0].fingerprint(), || {
            "two probes of one seed ended in different models".to_string()
        });
    }
    Ok(runs)
}

/// Rounds that fill `seconds` at the probes' round rate (never fewer than a
/// probe has).
fn rounds_for(seconds: u64, probes: &[LiveRun]) -> (f64, usize) {
    let rates: Vec<f64> = probes.iter().map(|p| stats::rate(p.timed())).collect();
    let rate = median(&rates);
    let rounds = (rate * seconds as f64).round() as usize;
    (rate, rounds.max(probes[0].rounds))
}

/// Pairs measured values with the catalogue, which fixes names and order.
fn catalogued(
    table: &'static [MetricSpec],
    mut values: Vec<(&'static str, Segmented)>,
) -> Result<Vec<Metric>, String> {
    let metrics = table
        .iter()
        .map(|spec| {
            let at = values
                .iter()
                .position(|(name, _)| *name == spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            let (_, value) = values.swap_remove(at);
            if !value.median.is_finite() {
                return Err(format!("metric {} is not a finite number", spec.name));
            }
            Ok(Metric {
                spec,
                value: value.median,
                min: value.min,
                max: value.max,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    match values.first() {
        Some((name, _)) => Err(format!("metric {name} is not in the catalogue")),
        None => Ok(metrics),
    }
}

/// The untraced run: end-to-end metrics, observability off.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let probes = probes(workload, seed, SETUP_PROBES, &mut checks)?;
    let setups: Vec<f64> = probes.iter().map(LiveRun::setup_s).collect();
    let setup_s = median(&setups);
    let (_, rounds) = rounds_for(seconds, &probes);

    let main = live::run(workload, &workload.config(seed, rounds), None)?;
    let peak_rss_mb = procfs::peak_rss_mb()?;
    checks.live_run(workload, &main, "measured run");

    let replay = replay::run(workload, &workload.config(seed, workload.probe_rounds))?;
    checks.require(replay.fingerprint == probes[0].fingerprint(), || {
        format!(
            "the replay's model {:016x} differs from the live probe's {:016x}",
            replay.fingerprint,
            probes[0].fingerprint()
        )
    });

    // Work the observer does between two rounds (the MSMW state chunk, the
    // two evaluations) is outside every round latency; spread over the
    // rounds it still delays the next update, so the update rate counts it.
    let in_rounds: f64 = main.report.telemetry.round_latencies.iter().sum();
    let gap_s = ((main.wall_s - setup_s - in_rounds) / rounds as f64).max(0.0);
    let rate = stats::segmented(main.timed(), |s| {
        s.len() as f64 / (s.iter().sum::<f64>() + s.len() as f64 * gap_s)
    });
    // Bytes per round as the difference between two runs of different
    // length: the fixed wind-down tail (worker shutdowns) cancels exactly.
    let probe_bytes = probes[0].report.telemetry.total_wire_bytes();
    let wire = if rounds > probes[0].rounds {
        (main.report.telemetry.total_wire_bytes() - probe_bytes) as f64
            / (rounds - probes[0].rounds) as f64
    } else {
        main.wire_bytes_per_round()
    };
    let once = Segmented::single;
    let metrics = catalogued(
        &END_TO_END,
        vec![
            ("rounds_per_s", rate),
            ("round_p50_ms", main.round_p50_ms()),
            ("cpu_ms_per_round", once(main.cpu_ms / rounds as f64)),
            ("wire_bytes_per_round", once(wire)),
            ("peak_rss_mb", once(peak_rss_mb)),
            (
                "final_accuracy",
                once(f64::from(main.report.trace.final_accuracy())),
            ),
            ("setup_s", Segmented::of(&setups)),
        ],
    )?;
    Ok(Outcome {
        correct: checks.failures.is_empty(),
        attempted: (SETUP_PROBES * workload.probe_rounds + rounds) as u64,
        failed: 0,
        metrics,
        rounds,
        model_fingerprint: probes[0].fingerprint(),
        notes: checks.failures,
    })
}

/// Median duration, in seconds, of the spans named `name` (0 when none).
fn p50_span_s(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        median(&durations)
    }
}

/// Median over rounds of the time `node` spent in its own calls (hops are
/// the wire and the peer, not the node).
fn busy_ms(replay: &Replay, node: u32) -> f64 {
    let mut per_round = vec![0u64; replay.rounds];
    for span in &replay.spans {
        if span.node == node && span.name != ROUND && !span.name.ends_with("hop") {
            per_round[span.round as usize] += span.duration_ns();
        }
    }
    let per_round: Vec<f64> = per_round.iter().map(|&ns| ns as f64 / 1e6).collect();
    median(&per_round)
}

/// Share of the replayed rounds' time that lies inside a layer span.
fn span_coverage(spans: &[Span]) -> f64 {
    let own = spans::self_times_ns(spans);
    let (mut rounds_ns, mut glue_ns) = (0u64, 0u64);
    for (span, own_ns) in spans.iter().zip(own) {
        if span.name == ROUND {
            rounds_ns += span.duration_ns();
            glue_ns += own_ns;
        }
    }
    1.0 - glue_ns as f64 / rounds_ns as f64
}

/// Milliseconds per simulated round: `SimExecutor` does the same arithmetic
/// with no threads and no messages.
fn sim_round_ms(
    workload: &Workload,
    seed: u64,
    rounds: usize,
    build_ms: f64,
) -> Result<f64, String> {
    let mut config = workload.config(seed, rounds);
    config.eval_every = 0;
    let started = Instant::now();
    SimExecutor::new(config)
        .run(workload.system)
        .map_err(|e| format!("sim run of {}: {e}", workload.name))?;
    Ok((started.elapsed().as_secs_f64() * 1e3 - build_ms).max(0.0) / rounds as f64)
}

/// The traced run: per-layer metrics from a layer replay, a live run with
/// observability off, the same run with it on, and fixed-shape timings.
pub fn per_layer(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let probe = probes(workload, seed, 1, &mut checks)?;
    let (rate, full) = rounds_for(seconds, &probe);
    // A quarter of the untraced run's rounds, and (but for smoke runs of a
    // second or two) enough for p95 to have ten timed rounds beyond it.
    let rounds = (full / 4)
        .max((22 * seconds as usize).min(220))
        .max(probe[0].rounds);
    let config = workload.config(seed, rounds);

    let midway = Duration::from_secs_f64(rounds as f64 / rate / 2.0);
    let off = live::run(workload, &config, Some(midway))?;
    garfield_obs::enable();
    let on = live::run(workload, &config, None);
    garfield_obs::disable();
    let on = on?;
    checks.live_run(workload, &off, "run with observability off");
    checks.live_run(workload, &on, "run with observability on");
    let (flight_ns, observe_ns, render_ms) = micro::obs_costs();

    let replay = replay::run(workload, &config)?;
    let results = results_dir();
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let trace_file = results.join(format!("{}.spans.jsonl", workload.name));
    spans::write_jsonl(&trace_file, &replay.spans)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    for (what, run) in [("off", &off), ("on", &on)] {
        checks.require(run.fingerprint() == replay.fingerprint, || {
            format!(
                "the replay's model {:016x} differs from the live run's (observability {what}) {:016x}",
                replay.fingerprint,
                run.fingerprint()
            )
        });
    }
    checks.require(
        off.report.telemetry.total_wire_bytes() == on.report.telemetry.total_wire_bytes(),
        || "observability changed the bytes on the wire".to_string(),
    );
    let coverage = span_coverage(&replay.spans);
    checks.require(coverage >= 0.98, || {
        format!(
            "layer spans cover only {:.1} % of the replayed rounds",
            coverage * 100.0
        )
    });

    let spans = &replay.spans;
    let ms = |name: &str| p50_span_s(spans, name) * 1e3;
    let d = replay.dimension;
    let frame_bytes = (WIRE_HEADER_BYTES + 4 * d) as f64;
    let inputs = replay.gradients.len();
    let telemetry = &off.report.telemetry;
    let per_round = |total: u64| total as f64 / rounds as f64;
    let messages: u64 = telemetry.nodes.iter().map(|n| n.messages_sent).sum();
    let tcp = workload.fabric == Fabric::Tcp;
    let only_tcp = |value: f64| if tcp { value } else { 0.0 };
    let only_router = |value: f64| if tcp { 0.0 } else { value };

    let encoded =
        WireMessage::new(MsgKind::GradientReply, 0, 0.0, replay.gradients[0].clone()).encode_vec();
    let (frame_write_ms, frame_read_ms) = if tcp {
        micro::frame_codec_ms(&encoded)
    } else {
        (0.0, 0.0)
    };
    let (gar_kind, _) = garfield_core::gradient_gar(workload.system, &config);
    let distance_fill_ms = if matches!(gar_kind, GarKind::Average | GarKind::Median) {
        0.0
    } else {
        micro::distance_fill_ms(&replay.gradients)
    };
    let (save_ms, load_ms) = micro::checkpoint_ms(
        &replay.gradients[0],
        &results.join(format!("checkpoint-{}", std::process::id())),
    )?;
    let sim_ms = sim_round_ms(
        workload,
        seed,
        5 * seconds as usize,
        replay.deployment_build_ms,
    )?;

    let timed_ms: Vec<f64> = off.timed().iter().map(|s| s * 1e3).collect();
    let timings = &off.report.trace.iterations[off.rounds - off.timed().len()..];
    let comm: Vec<f64> = timings.iter().map(|t| t.communication * 1e3).collect();
    let agg: Vec<f64> = timings.iter().map(|t| t.aggregation * 1e3).collect();
    let round_p50_ms = median(&timed_ms);
    let serial_ms = ms(ROUND);
    let server_busy_ms = busy_ms(&replay, 0);
    let hop_s = p50_span_s(spans, "transport.hop");
    let binds = if off.bind_ms.is_empty() {
        0.0
    } else {
        median(&off.bind_ms)
    };
    // Taken from the probe: over its few rounds the work between rounds
    // (which `setup_s` also holds) stays small beside spawn and join.
    let spawn_join_ms = probe[0].setup_s() * 1e3
        - replay.deployment_build_ms
        - probe[0].bind_ms.iter().sum::<f64>();
    let threads = off.threads.unwrap_or(0) as f64;
    let rate_off = stats::segmented(off.timed(), stats::rate).median;
    let rate_on = stats::segmented(on.timed(), stats::rate).median;

    let values: Vec<(&'static str, f64)> = vec![
        (
            "tensor.sq_l2_gelem_s",
            micro::sq_l2_gelem_s(&replay.gradients[0], &replay.gradients[1]),
        ),
        (
            "tensor.matmul_gflop_s",
            micro::matmul_gflop_s(&config.model, config.batch_size),
        ),
        ("ml.gradient_ms", ms("ml.gradient")),
        (
            "ml.gradient_calls_per_round",
            per_round(spans.iter().filter(|s| s.name == "ml.gradient").count() as u64),
        ),
        ("ml.update_ms", ms("ml.update")),
        ("ml.eval_ms", replay.eval_ms),
        ("attacks.corrupt_ms", ms("attacks.corrupt")),
        ("aggregation.gar_ms", ms("aggregation.gar")),
        (
            "aggregation.gar_melem_s",
            (inputs * d) as f64 / p50_span_s(spans, "aggregation.gar") / 1e6,
        ),
        ("aggregation.distance_fill_ms", distance_fill_ms),
        ("aggregation.model_gar_ms", ms("aggregation.model_gar")),
        ("aggregation.suspicion_ms", ms("aggregation.suspicion")),
        ("aggregation.excluded_per_round", per_round(replay.excluded)),
        (
            "aggregation.byz_excluded_share",
            per_round(replay.byzantine_excluded_rounds),
        ),
        ("net.encode_ms", ms("net.encode")),
        (
            "net.encode_gb_s",
            frame_bytes / p50_span_s(spans, "net.encode") / 1e9,
        ),
        ("net.decode_ms", ms("net.decode")),
        ("net.peek_ns", micro::peek_ns(&encoded)),
        ("net.router_hop_us", ms("net.router_hop") * 1e3),
        ("net.msgs_per_round", per_round(messages)),
        (
            "net.payload_bytes_per_round",
            per_round(telemetry.total_bytes()),
        ),
        ("net.dropped", only_router(telemetry.total_dropped() as f64)),
        ("transport.hop_us", hop_s * 1e6),
        ("transport.hop_mb_s", only_tcp(frame_bytes / hop_s / 1e6)),
        ("transport.frame_write_ms", frame_write_ms),
        ("transport.frame_read_ms", frame_read_ms),
        ("transport.bind_ms", binds),
        (
            "transport.framing_bytes_per_round",
            only_tcp(per_round(
                telemetry.total_wire_bytes() - telemetry.total_bytes(),
            )),
        ),
        (
            "transport.dropped",
            only_tcp(telemetry.total_dropped() as f64),
        ),
        // Every thread beyond the node threads and the driver is the
        // transport's: accept loops, per-connection readers, per-peer writers.
        (
            "transport.io_threads",
            only_tcp((threads - telemetry.nodes.len() as f64 - 1.0).max(0.0)),
        ),
        ("core.deployment_build_ms", replay.deployment_build_ms),
        ("core.params_snapshot_ms", ms("core.params_snapshot")),
        ("core.checkpoint_save_ms", save_ms),
        ("core.checkpoint_load_ms", load_ms),
        ("core.sim_round_ms", sim_ms),
        ("runtime.comm_ms_p50", median(&comm)),
        ("runtime.agg_ms_p50", median(&agg)),
        ("runtime.round_p95_ms", percentile(&timed_ms, 95.0)),
        ("runtime.server_busy_ms", server_busy_ms),
        ("runtime.quorum_wait_ms", round_p50_ms - server_busy_ms),
        ("runtime.serial_round_ms", serial_ms),
        ("runtime.parallel_gain", serial_ms / round_p50_ms),
        ("runtime.spawn_join_ms", spawn_join_ms.max(0.0)),
        ("runtime.retries", telemetry.total_requests_retried() as f64),
        ("runtime.threads", threads),
        ("obs.overhead_pct", (rate_off - rate_on) / rate_off * 100.0),
        ("obs.flight_record_ns", flight_ns),
        ("obs.histogram_observe_ns", observe_ns),
        ("obs.render_ms", render_ms),
    ];
    let metrics = catalogued(
        &PER_LAYER,
        values
            .into_iter()
            .map(|(name, value)| (name, Segmented::single(value)))
            .collect(),
    )?;

    let mut notes = checks.failures.clone();
    notes.push(format!(
        "layer spans cover {:.2} % of the replayed rounds; {} spans in {}",
        coverage * 100.0,
        spans.len(),
        trace_file.display()
    ));
    notes.push(format!(
        "runtime.round_p95_ms is taken over {} rounds (highest percentile with ten samples beyond it: p{})",
        timed_ms.len(),
        stats::highest_supported_percentile(timed_ms.len()).unwrap_or(0.0)
    ));
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        notes.push("WARNING: fewer than 2 cores - runtime.parallel_gain is not meaningful".into());
    }
    Ok(Outcome {
        correct: checks.failures.is_empty(),
        attempted: (workload.probe_rounds + 2 * rounds) as u64,
        failed: 0,
        metrics,
        rounds,
        model_fingerprint: probe[0].fingerprint(),
        notes,
    })
}
