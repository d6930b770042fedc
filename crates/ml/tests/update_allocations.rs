//! Regression test: updating a model touches the heap only when state is
//! first built.
//!
//! `Mlp` stores its parameters as one flat vector, so reading them is a
//! borrow, writing them is a copy into that vector, and an SGD step updates
//! it in place. Before, every read concatenated the per-layer tensors into a
//! fresh vector and every write scattered one back into fresh per-layer
//! buffers, about 0.6 MB a call on the CIFAR-sized model. After one warm-up
//! call (which builds the momentum velocity), each call below must perform
//! zero heap allocations.

#[path = "../../aggregation/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocations;
use garfield_ml::{Mlp, Model, Sgd};
use garfield_tensor::{Tensor, TensorRng};

/// Runs `call` once to warm it up, then asserts that a second call
/// performs no heap allocation.
fn assert_warm_call_allocates_nothing(what: &str, model: &mut Mlp, mut call: impl FnMut(&mut Mlp)) {
    call(model);
    let allocations = count_allocations(|| call(model));
    assert_eq!(allocations, 0, "{what} allocated {allocations} times");
}

#[test]
fn the_model_update_path_allocates_nothing() {
    let mut model = Mlp::cifarnet_lite(&mut TensorRng::seed_from(42));
    let gradient = Tensor::full(model.num_parameters(), 1e-3);
    let target = model.parameters().clone();

    let mut plain = Sgd::new(0.1);
    assert_warm_call_allocates_nothing("Sgd::step without momentum", &mut model, |m| {
        plain.step(m, &gradient).unwrap()
    });
    let mut momentum = Sgd::new(0.1).with_momentum(0.9);
    assert_warm_call_allocates_nothing("Sgd::step with momentum 0.9", &mut model, |m| {
        momentum.step(m, &gradient).unwrap()
    });
    assert_warm_call_allocates_nothing("Model::set_parameters", &mut model, |m| {
        m.set_parameters(&target).unwrap()
    });
    assert_warm_call_allocates_nothing("Model::parameters", &mut model, |m| {
        std::hint::black_box(m.parameters());
    });
}
