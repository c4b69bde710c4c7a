//! Allocation-regression pin: after a short warmup, a full training step
//! (forward → cross-entropy → backward → SGD) performs **zero** heap
//! allocations.
//!
//! Every transient buffer in the step — layer outputs, GEMM packing
//! panels, gradients, loss scratch — is drawn from the thread-local
//! recycler in [`fedknow_math::pool`] or lives in persistent per-layer
//! scratch (activation masks, argmax indices, cached shapes). The warmup
//! iterations populate those pools; from then on the loop must not touch
//! the system allocator at all.
//!
//! Measured with the tracking allocator that
//! `fedknow-obs` installs as the global allocator: per-thread running
//! totals are diffed around the measured span, so concurrent test
//! threads cannot pollute the count, and each test holds a tracking
//! scope, so none can switch tracking off under another.

use fedknow_math::rng::seeded;
use fedknow_math::Tensor;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::models::six_cnn;
use fedknow_nn::Model;
use fedknow_obs::alloc;

/// One full training step: forward (train mode), loss + loss gradient,
/// backward, SGD update.
fn train_step(model: &mut Model, input: &Tensor, labels: &[usize]) -> f32 {
    let logits = model.forward(input.clone(), true);
    let (loss, grad) = cross_entropy(&logits, labels);
    model.zero_grad();
    let _gx = model.backward(grad);
    model.sgd_step(0.01);
    loss
}

#[test]
fn steady_state_train_step_is_allocation_free() {
    let mut rng = seeded(42);
    let mut model = six_cnn(&mut rng, 3, 10, 1.0);

    let b = 4;
    let n = b * 3 * 16 * 16;
    let data: Vec<f32> = (0..n)
        .map(|i| ((i * 37 % 97) as f32 / 97.0) - 0.5)
        .collect();
    let input = Tensor::from_vec(data, &[b, 3, 16, 16]);
    let labels = [0usize, 3, 7, 9];

    // Warmup: grows pool classes, layer scratch and counter registries
    // to their steady-state footprint.
    for _ in 0..3 {
        train_step(&mut model, &input, &labels);
    }

    let mut losses = Vec::with_capacity(5); // allocated before the span
    let scope = alloc::track();
    let (allocs_before, bytes_before) = alloc::thread_totals();
    for _ in 0..5 {
        let (a0, _) = alloc::thread_totals();
        let loss = train_step(&mut model, &input, &labels);
        let (a1, _) = alloc::thread_totals();
        assert_eq!(
            a1 - a0,
            0,
            "a steady-state train step hit the allocator {} times",
            a1 - a0
        );
        losses.push(loss);
    }
    let (allocs_after, bytes_after) = alloc::thread_totals();
    drop(scope);

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state loop allocated {} times ({} bytes)",
        allocs_after - allocs_before,
        bytes_after - bytes_before
    );
    // Sanity: the model is actually learning on these steps, so the span
    // we measured is a real training loop, not a no-op.
    assert!(losses.iter().all(|l| l.is_finite()));
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss should fall over 5 steps: {losses:?}"
    );
}

/// The same pin for the eval path: forward in eval mode after warmup is
/// allocation-free too (inference on edge devices runs this loop).
#[test]
fn steady_state_eval_forward_is_allocation_free() {
    let mut rng = seeded(7);
    let mut model = six_cnn(&mut rng, 3, 10, 1.0);
    let input = Tensor::from_vec(vec![0.25f32; 2 * 3 * 16 * 16], &[2, 3, 16, 16]);

    for _ in 0..3 {
        let _ = model.forward(input.clone(), false);
    }

    let scope = alloc::track();
    let (a0, _) = alloc::thread_totals();
    for _ in 0..5 {
        let _ = model.forward(input.clone(), false);
    }
    let (a1, _) = alloc::thread_totals();
    drop(scope);

    assert_eq!(a1 - a0, 0, "eval forward allocated {} times", a1 - a0);
}

/// The same pin for `cnn_fedknow_t10`'s hot path: a training forward
/// followed by one backward of four stacked output gradients (the
/// training loss's and three signature tasks') and a read of every
/// slot's parameter gradient is allocation-free after warmup too — the
/// gradient slab stays sized between calls and each slot is read where
/// it lies.
#[test]
fn steady_state_stacked_backward_is_allocation_free() {
    let mut rng = seeded(9);
    let mut model = six_cnn(&mut rng, 3, 10, 1.0);
    let (b, slots) = (4, 4);
    let input = Tensor::from_vec(
        (0..b * 3 * 16 * 16)
            .map(|i| ((i * 31 % 89) as f32 / 89.0) - 0.5)
            .collect(),
        &[b, 3, 16, 16],
    );
    let grad = Tensor::from_vec(
        (0..slots * b * 10)
            .map(|i| ((i * 7 % 13) as f32 / 13.0) - 0.5)
            .collect(),
        &[slots * b, 10],
    );
    let step = |model: &mut Model| {
        model.zero_grad();
        let _ = model.forward(input.clone(), true);
        let gx = model.backward(grad.clone());
        for j in 0..slots {
            let sq: f32 = model.grad_slot(j).iter().map(|g| g * g).sum();
            assert!(sq.is_finite() && sq > 0.0, "slot {j} holds no gradient");
        }
        gx
    };
    for _ in 0..3 {
        step(&mut model);
    }

    let scope = alloc::track();
    let (a0, _) = alloc::thread_totals();
    for _ in 0..5 {
        let gx = step(&mut model);
        assert_eq!(gx.shape(), &[slots * b, 3, 16, 16]);
    }
    let (a1, _) = alloc::thread_totals();
    drop(scope);

    assert_eq!(a1 - a0, 0, "stacked backward allocated {} times", a1 - a0);
}
