//! Allocation pins for FedKNOW's per-iteration work: after warm-up, one
//! `train_iteration` at t = 4 signature tasks, and one iteration of the
//! knowledge fine-tune, make no model-sized allocation.
//!
//! The training gradient and the four restored gradients stay in the
//! model's gradient slab: the integrator reads them there and rotates
//! the training gradient in place, and the SGD step reads it there. The
//! fine-tune masks the gradient in the slab the same way. A model-sized
//! block is one of at least `alloc::LARGE_ALLOC_BYTES` (128 KiB); SixCnn
//! at width 4 holds 321 KB of parameters, so every copy of the model
//! counts. Each test counts its own thread's allocations, and tracking
//! stays on while either holds a scope.

use fedknow::{FedKnowClient, FedKnowConfig, KnowledgeExtractor};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, LocalTrainer, ModelTemplate};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;
use fedknow_obs::alloc;
use rand::rngs::StdRng;

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

#[test]
fn warmed_knowledge_finetune_iteration_allocates_nothing_model_sized() {
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(1);
    let data = generate(&spec, 3);
    let parts = partition(&data, 1, &PartitionConfig::default(), 3);
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 4.0, 7);
    let mut client = FedKnowClient::new(&template, FedKnowConfig::default(), 8, vec![3, 8, 8]);
    let mut rng = seeded(2);
    client.start_task(&parts[0].tasks[0], &mut rng);
    let trainer = client.trainer_mut();
    // Extraction itself allocates (the knowledge is model-sized at
    // ρ = 1); the fine-tune iterations after it must not. So two runs
    // that differ only in their iteration count allocate alike.
    let large = |iters: usize, trainer: &mut LocalTrainer, rng: &mut StdRng| {
        let extractor = KnowledgeExtractor::new(1.0, iters);
        let before = alloc::thread_large();
        std::hint::black_box(extractor.extract_and_finetune(trainer, rng));
        alloc::thread_large() - before
    };
    large(2, trainer, &mut rng);
    let scope = alloc::track();
    let (short, long) = (large(2, trainer, &mut rng), large(7, trainer, &mut rng));
    drop(scope);
    assert!(short > 0, "the extraction is seen");
    assert_eq!(
        long, short,
        "5 more fine-tune iterations, no more model-sized allocations"
    );
}
