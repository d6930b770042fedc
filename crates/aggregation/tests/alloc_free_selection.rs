//! Regression tests: steady-state GAR selection is allocation-free, and
//! Bulyan's allocations do not grow with the dimension.
//!
//! The original implementations cloned tensors on the hot path — Bulyan
//! cloned its full candidate pool every selection round and Krum cloned its
//! winner — so selection cost included `O(n d)`–`O(n² d)` heap churn per
//! call. The engine rewrite returns indices over a shared [`DistanceCache`]
//! and reuses [`SelectionScratch`] buffers, so once the buffers are warm a
//! selection performs **zero** heap allocations. A counting global-allocator
//! shim (`support/counting_alloc.rs`) asserts exactly that; any future clone sneaking back into the
//! selection loop fails this test. A whole Bulyan call allocates its
//! output, cache and scratch, a fixed number of buffers; one per
//! 256-coordinate tile would make the count grow with d.

use garfield_aggregation::{Bulyan, DistanceCache, Engine, Gar, Krum, MultiKrum, SelectionScratch};
use garfield_tensor::GradientView;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocations;

fn payloads(n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|c| ((i * 131 + c * 17) as f32 * 0.01).sin())
                .collect()
        })
        .collect()
}

#[test]
fn steady_state_selection_performs_zero_heap_allocations() {
    let n = 11;
    let f = 2;
    let d = 64;
    let data = payloads(n, d);
    let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
    // Selection must be allocation-free on the *sequential* engine; thread
    // spawns on the parallel engine allocate stacks by nature (and only at
    // cache-build time, never during selection).
    let cache = DistanceCache::build(&views, &Engine::sequential());

    let krum = Krum::new(n, f).unwrap();
    let multi_krum = MultiKrum::new(n, f).unwrap();
    let bulyan = Bulyan::new(n, f).unwrap();
    let mut scratch = SelectionScratch::new();
    let mut selected = Vec::with_capacity(n);

    // Warm-up: sizes every scratch buffer.
    let warm_krum = krum.select_cached(&cache, &mut scratch);
    let warm_multi = multi_krum.select_cached(&cache, &mut scratch).to_vec();
    bulyan.select_cached(&cache, &mut scratch, &mut selected);
    let warm_bulyan = selected.clone();

    // Steady state: repeated selections must not touch the heap at all.
    let mut steady_krum = 0usize;
    let mut steady_multi_len = 0usize;
    let allocations = count_allocations(|| {
        for _ in 0..10 {
            steady_krum = krum.select_cached(&cache, &mut scratch);
            steady_multi_len = multi_krum.select_cached(&cache, &mut scratch).len();
            bulyan.select_cached(&cache, &mut scratch, &mut selected);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Krum/Multi-Krum/Bulyan selection allocated {allocations} times"
    );

    // And the warm results are reproduced exactly.
    assert_eq!(steady_krum, warm_krum);
    assert_eq!(steady_multi_len, warm_multi.len());
    assert_eq!(selected, warm_bulyan);
    assert_eq!(selected.len(), bulyan.selection_size());
}

#[test]
fn bulyan_allocations_do_not_grow_with_d() {
    let (n, f) = (11, 2);
    let bulyan = Bulyan::new(n, f).unwrap();
    let engine = Engine::sequential();
    let counts = [4_096, 65_536].map(|d| {
        let data = payloads(n, d);
        let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
        // Warm-up: first-call setup is not what this test is about.
        bulyan.aggregate_views(&views, &engine).unwrap();
        count_allocations(|| {
            bulyan.aggregate_views(&views, &engine).unwrap();
        })
    });
    assert_eq!(
        counts[0], counts[1],
        "one Bulyan call allocated {} times at d = 4096 and {} times at d = 65536",
        counts[0], counts[1]
    );
}
