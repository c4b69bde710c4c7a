//! Allocation pin for a FedKNOW training iteration: after warm-up, one
//! `train_iteration` at t = 4 signature tasks makes no model-sized
//! allocation.
//!
//! The training gradient and the four restored gradients stay in the
//! model's gradient slab: the integrator reads them there and rotates
//! the training gradient in place, and the SGD step reads it there. A
//! model-sized block is one of at least `alloc::LARGE_ALLOC_BYTES`
//! (128 KiB); SixCnn at width 4 holds 321 KB of parameters, so every
//! copy of the model counts. This binary holds one test: the tracker's
//! scope is process-wide.

use fedknow::{FedKnowClient, FedKnowConfig};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, ModelTemplate};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;
use fedknow_obs::alloc;

#[test]
fn warmed_train_iteration_allocates_at_most_the_qp_output() {
    const T: usize = 4;
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(T + 1);
    let data = generate(&spec, 3);
    let parts = partition(&data, 1, &PartitionConfig::default(), 3);
    let tasks = &parts[0].tasks;
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 4.0, 7);
    let cfg = FedKnowConfig {
        k: T,
        knowledge_finetune_iters: 1,
        ..Default::default()
    };
    let mut client = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
    let p = client.trainer_mut().model.param_count();
    assert!(
        p * 4 >= alloc::LARGE_ALLOC_BYTES,
        "the model must be large enough to count"
    );

    let mut rng = seeded(1);
    for task in &tasks[..T] {
        client.start_task(task, &mut rng);
        client.train_iteration(&mut rng);
        client.finish_task(&mut rng);
    }
    client.start_task(&tasks[T], &mut rng);
    assert_eq!(client.selected().len(), T, "t = {T} signature tasks");
    // Warm-up: the gradient slab, the buffer pool and the registries
    // grow to their steady-state size.
    for _ in 0..3 {
        client.train_iteration(&mut rng);
    }

    let scope = alloc::track();
    let mut large = Vec::with_capacity(5);
    for _ in 0..5 {
        let before = alloc::thread_large();
        client.train_iteration(&mut rng);
        large.push(alloc::thread_large() - before);
    }
    drop(scope);
    assert_eq!(
        large, [0; 5],
        "model-sized allocations per warmed train_iteration"
    );
}
