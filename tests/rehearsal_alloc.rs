//! Allocation pin for the rehearsal baselines: after warm-up, one GEM or
//! A-GEM `train_iteration` with 2 tasks in memory makes no model-sized
//! allocation. The training gradient and the rehearsal gradients are
//! copied out of the model's gradient slab into buffers the client keeps
//! across iterations, and the integrator rotates in place. A model-sized
//! block is one of at least `alloc::LARGE_ALLOC_BYTES` (128 KiB); SixCnn
//! at width 4 holds 321 KB of parameters.

use fedknow_baselines::gem::{AGemClient, GemClient};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, ModelTemplate};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;
use fedknow_obs::alloc;

#[test]
fn warmed_rehearsal_iterations_allocate_nothing_model_sized() {
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(3);
    let data = generate(&spec, 3);
    let parts = partition(&data, 1, &PartitionConfig::default(), 3);
    let tasks = &parts[0].tasks;
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 4.0, 7);
    let clients: [Box<dyn FclClient>; 2] = [
        Box::new(GemClient::new(&template, 0.5, 0.05, 1e-4, 8, vec![3, 8, 8])),
        Box::new(AGemClient::new(
            &template,
            0.5,
            0.05,
            1e-4,
            8,
            vec![3, 8, 8],
        )),
    ];
    for mut client in clients {
        let mut rng = seeded(1);
        for task in &tasks[..2] {
            client.start_task(task, &mut rng);
            client.train_iteration(&mut rng);
            client.finish_task(&mut rng);
        }
        client.start_task(&tasks[2], &mut rng);
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
            large,
            [0; 5],
            "{}: model-sized allocations per warmed train_iteration",
            client.method_name()
        );
    }
}
