//! Regression tests: steady-state GAR selection is allocation-free, and
//! Bulyan's allocations do not grow with the dimension.
//!
//! The original implementations cloned tensors on the hot path — Bulyan
//! cloned its full candidate pool every selection round and Krum cloned its
//! winner — so selection cost included `O(n d)`–`O(n² d)` heap churn per
//! call. The engine rewrite returns indices over a shared [`DistanceCache`]
//! and reuses one set of selection buffers per thread, so once they are
//! warm a selection performs **zero** heap allocations. A counting
//! global-allocator shim (`support/counting_alloc.rs`) asserts exactly
//! that; any future clone sneaking back into the selection loop fails this
//! test. The `Gar` path draws on the same buffers, so a warm call
//! allocates an exact, pinned number of buffers: the distance cache and the
//! output, nothing for selection. A whole Bulyan call allocates a fixed
//! number of buffers; one per 256-coordinate tile would make the count
//! grow with d.

use garfield_aggregation::{
    Bulyan, DistanceCache, Engine, Gar, Krum, Mda, Median, MultiKrum, SelectionOutcome,
};
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
    let mut multi = Vec::with_capacity(n);
    let mut selected = Vec::with_capacity(n);

    // Warm-up: sizes this thread's selection buffers.
    let warm_krum = krum.select_cached(&cache);
    multi_krum.select_cached(&cache, &mut multi);
    let warm_multi = multi.clone();
    bulyan.select_cached(&cache, &mut selected);
    let warm_bulyan = selected.clone();

    // Steady state: repeated selections must not touch the heap at all.
    let mut steady_krum = 0usize;
    let allocations = count_allocations(|| {
        for _ in 0..10 {
            steady_krum = krum.select_cached(&cache);
            multi_krum.select_cached(&cache, &mut multi);
            bulyan.select_cached(&cache, &mut selected);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Krum/Multi-Krum/Bulyan selection allocated {allocations} times"
    );

    // And the warm results are reproduced exactly.
    assert_eq!(steady_krum, warm_krum);
    assert_eq!(multi, warm_multi);
    assert_eq!(selected, warm_bulyan);
    assert_eq!(selected.len(), bulyan.selection_size());
}

/// Heap allocations of one warm `aggregate_views_observed` call at the
/// shape above (sequential engine, observability off, one reused
/// `SelectionOutcome`). Every rule builds the `DistanceCache`: the fill
/// values, the matrix and the norms (3); the pair list and the fill's lane
/// accumulators are per-thread buffers, warm after the first call. Krum copies its winner into the output tensor, and Multi-Krum
/// and MDA average into one: its data and its shape (2). Bulyan's phase 2 gathers
/// the selected rows (1) and fills the output data (1) from one key tile
/// (1) before the shape (1). Median builds no cache: it runs the same
/// column sort over all its rows (4). Both rules build their sorting
/// network once, in `new`. The selection itself — the sorted neighbour
/// table, the scores, the order, MDA's running subset and the selected
/// indices — allocates nothing.
const KRUM: usize = 3 + 2;
const MULTI_KRUM: usize = 3 + 2;
const MDA: usize = 3 + 2;
const BULYAN: usize = 3 + 4;
const MEDIAN: usize = 4;

#[test]
fn a_warm_gar_call_allocates_only_the_cache_and_the_output() {
    let (n, f, d) = (11, 2, 64);
    let data = payloads(n, d);
    let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
    let engine = Engine::sequential();
    let mut outcome = SelectionOutcome::default();
    let rules: [(Box<dyn Gar>, usize); 5] = [
        (Box::new(Krum::new(n, f).unwrap()), KRUM),
        (Box::new(MultiKrum::new(n, f).unwrap()), MULTI_KRUM),
        (Box::new(Mda::new(n, f).unwrap()), MDA),
        (Box::new(Bulyan::new(n, f).unwrap()), BULYAN),
        (Box::new(Median::new(n, f).unwrap()), MEDIAN),
    ];
    for (gar, want) in rules {
        // Warm-up: sizes this thread's selection buffers and the outcome.
        gar.aggregate_views_observed(&views, &engine, &mut outcome)
            .unwrap();
        let got = count_allocations(|| {
            gar.aggregate_views_observed(&views, &engine, &mut outcome)
                .unwrap();
        });
        assert_eq!(
            got,
            want,
            "one warm {} call allocated {got} times",
            gar.name()
        );
    }
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
