//! Criterion micro-benchmark for the pairwise distance kernels themselves:
//! the retained `scalar` reference (serial f32 adds, what the hot path
//! compiled to before the chunked rewrite), the `chunked` multi-lane kernel
//! applied per whole pair, and the `blocked` cache-sized `DistanceCache`
//! fill. All single-threaded, so the numbers isolate kernel shape from engine
//! fan-out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use garfield_aggregation::{DistanceCache, Engine};
use garfield_tensor::{
    squared_l2_distance_scalar, squared_l2_distance_slices, GradientView, TensorRng,
};
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let n = 15usize;
    let mut rng = TensorRng::seed_from(7);
    let mut group = c.benchmark_group("kernels_pairwise_distance");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for d in [10_000usize, 1_000_000] {
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_tensor(d).into_vec()).collect();
        let views: Vec<GradientView<'_>> = inputs.iter().map(GradientView::from).collect();
        let seq = Engine::sequential();

        for (name, kernel) in [
            (
                "scalar",
                squared_l2_distance_scalar as fn(&[f32], &[f32]) -> f32,
            ),
            ("chunked", squared_l2_distance_slices),
        ] {
            group.bench_with_input(BenchmarkId::new(name, d), &inputs, |b, inputs| {
                b.iter(|| {
                    let mut sum = 0.0f32;
                    for i in 0..n {
                        for j in (i + 1)..n {
                            sum += kernel(&inputs[i], &inputs[j]);
                        }
                    }
                    sum
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("blocked", d), &views, |b, views| {
            b.iter(|| DistanceCache::build(views, &seq).get(0, 1))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
