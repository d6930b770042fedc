//! Fixed-shape timings of single public calls, at the workload's dimension:
//! kernels, codecs, checkpoints and the observability primitives. They give
//! a layer a number even where no end-to-end path exercises it yet.

use crate::stats::median;
use garfield_aggregation::{DistanceCache, Engine};
use garfield_core::Checkpoint;
use garfield_ml::{DatasetKind, Mlp};
use garfield_net::{NodeId, WireMessage};
use garfield_obs::flight::{self, EventKind};
use garfield_tensor::{squared_l2_distance_slices, GradientView, TensorRng};
use garfield_transport::frame::{read_frame, write_frame};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median seconds of `call` over `reps` individually timed repetitions.
fn p50_secs(reps: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            call();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call for calls too short to time one by one:
/// `reps` batches of `batch` calls each.
fn p50_ns_per_call(reps: usize, batch: usize, mut call: impl FnMut()) -> f64 {
    p50_secs(reps, || (0..batch).for_each(|_| call())) * 1e9 / batch as f64
}

/// `squared_l2_distance_slices` on two gradients, in 1e9 elements a second.
pub fn sq_l2_gelem_s(a: &[f32], b: &[f32]) -> f64 {
    let secs = p50_secs(31, || {
        black_box(squared_l2_distance_slices(black_box(a), black_box(b)));
    });
    a.len() as f64 / secs / 1e9
}

/// Input and output width of the model's first (largest) dense layer.
fn first_layer(model: &str) -> (usize, usize) {
    if model == "linear-mnist" {
        let kind = DatasetKind::MnistLike;
        (kind.features(), kind.classes())
    } else {
        let dims = Mlp::cifarnet_lite(&mut TensorRng::seed_from(0)).dims();
        (dims[0], dims[1])
    }
}

/// `Tensor::matmul` at the model's batch × features × width shape, in GFLOP/s.
pub fn matmul_gflop_s(model: &str, batch: usize) -> f64 {
    let (features, width) = first_layer(model);
    let mut rng = TensorRng::seed_from(1);
    let inputs = rng.normal_tensor((batch, features));
    let weights = rng.normal_tensor((features, width));
    let secs = p50_secs(15, || {
        black_box(
            black_box(&inputs)
                .matmul(black_box(&weights))
                .expect("shapes agree"),
        );
    });
    2.0 * (batch * features * width) as f64 / secs / 1e9
}

/// `DistanceCache::build` over the round's gradients, in milliseconds.
pub fn distance_fill_ms(gradients: &[Vec<f32>]) -> f64 {
    let views: Vec<GradientView<'_>> = gradients.iter().map(GradientView::from).collect();
    let engine = Engine::auto();
    p50_secs(11, || {
        black_box(DistanceCache::build(black_box(&views), &engine));
    }) * 1e3
}

/// `WireMessage::peek` on an encoded gradient frame, in nanoseconds.
pub fn peek_ns(encoded: &[u8]) -> f64 {
    p50_ns_per_call(11, 2_000, || {
        black_box(WireMessage::peek(black_box(encoded)).expect("a valid frame"));
    })
}

/// `write_frame` / `read_frame` of one encoded gradient on an in-memory
/// buffer — the TCP codec without its syscalls — in milliseconds.
pub fn frame_codec_ms(encoded: &[u8]) -> (f64, f64) {
    let mut wire = Vec::with_capacity(encoded.len() + 64);
    let write = p50_secs(21, || {
        wire.clear();
        write_frame(&mut wire, NodeId(1), 7, black_box(encoded)).expect("Vec writes cannot fail");
    });
    let read = p50_secs(21, || {
        black_box(read_frame(&mut black_box(wire.as_slice())).expect("the frame just written"));
    });
    (write * 1e3, read * 1e3)
}

/// `Checkpoint::save` / `Checkpoint::load` of a `model`-sized state in `dir`
/// (created, then removed), in milliseconds: the time training would stall.
pub fn checkpoint_ms(model: &[f32], dir: &Path) -> Result<(f64, f64), String> {
    let checkpoint = Checkpoint {
        system: "ssmw".into(),
        seed: 1,
        round: 1,
        opt_steps: 1,
        model: model.to_vec(),
        velocity: None,
        fault_rng: None,
        attack_rng: None,
    };
    let mut failure = None;
    let save = p50_secs(7, || {
        if let Err(e) = checkpoint.save(dir) {
            failure = Some(e.to_string());
        }
    });
    let load = p50_secs(7, || match Checkpoint::load(dir) {
        Ok(loaded) => drop(black_box(loaded)),
        Err(e) => failure = Some(e.to_string()),
    });
    let _ = std::fs::remove_dir_all(dir);
    match failure {
        Some(e) => Err(format!("checkpoint timing in {}: {e}", dir.display())),
        None => Ok((save * 1e3, load * 1e3)),
    }
}

/// Cost of the observability primitives while switched on: one flight
/// event (ns), one histogram observation (ns) and one full `/metrics`
/// render (ms). Leaves observability switched off.
pub fn obs_costs() -> (f64, f64, f64) {
    garfield_obs::enable();
    let flight = p50_ns_per_call(11, 2_000, || {
        flight::record(EventKind::RoundEnd, 0, None, 0.0);
    });
    let probe = garfield_obs::metrics::histogram(
        "garfield_benchmark_probe_seconds",
        "Histogram the benchmark observes to time one observation.",
        &[],
    );
    let observe = p50_ns_per_call(11, 2_000, || probe.observe(black_box(0.0123)));
    let render = p50_secs(11, || {
        black_box(garfield_obs::metrics::render());
    });
    garfield_obs::disable();
    (flight, observe, render * 1e3)
}
