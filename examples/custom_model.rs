//! Bring your own architecture: FedKNOW is model-agnostic — anything
//! that implements the `Layer` trait and ends in a classifier works.
//!
//! This example assembles a custom residual/SE hybrid from the building
//! blocks, wraps it in a `Model`, and runs it through a FedKNOW client,
//! mirroring the paper's §V-E claim that the framework "can be
//! generalized to support most state-of-the-art DNNs".
//!
//! Run with: `cargo run --release --example custom_model`

use fedknow::{FedKnowClient, FedKnowConfig};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, ModelTemplate};
use fedknow_math::rng::seeded;
use fedknow_nn::activations::ReLU;
use fedknow_nn::blocks::{Residual, SEScale};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::layer::Sequential;
use fedknow_nn::linear::Linear;
use fedknow_nn::norm::BatchNorm2d;
use fedknow_nn::pool::GlobalAvgPool;
use fedknow_nn::Model;

/// A custom architecture: stem → SE-gated residual block → strided
/// residual → GAP head.
fn build_custom(num_classes: usize, seed: u64) -> Model {
    let mut rng = seeded(seed);
    let main1 = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 8, 8, 1))
        .push(BatchNorm2d::new(8))
        .push(SEScale::new(&mut rng, 8, 4));
    let main2 = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 8, 16, 2))
        .push(BatchNorm2d::new(16));
    let short2 = Sequential::new()
        .push(Conv2d::conv1x1(&mut rng, 8, 16, 2))
        .push(BatchNorm2d::new(16));
    let net = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 3, 8, 1))
        .push(BatchNorm2d::new(8))
        .push(ReLU::new())
        .push(Residual::new(main1, None, true))
        .push(Residual::new(main2, Some(short2), true))
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 16, num_classes));
    Model::new(net, &[3, 8, 8], num_classes)
}

fn main() {
    let spec = DatasetSpec::fc100().scaled(0.5, 8).with_tasks(2);
    let dataset = generate(&spec, 5);
    let parts = partition(&dataset, 1, &PartitionConfig::default(), 5);

    // Wrap the custom architecture in a template: `Model::new` binds every
    // layer's weights into one parameter arena, and FedKNOW only reads
    // that arena and the model's gradient slots, so any Layer tree plugs
    // in.
    let num_classes = spec.total_classes();
    let probe = build_custom(num_classes, 5);
    println!(
        "custom model: {} parameters in {} tensors, {} FLOPs/sample",
        probe.param_count(),
        probe.layout().len(),
        probe.flops(1)
    );
    let template =
        ModelTemplate::from_builder(move || build_custom(num_classes, 5), 3, num_classes);
    let mut client = FedKnowClient::new(&template, FedKnowConfig::default(), 8, vec![3, 8, 8]);
    let mut rng = seeded(11);
    for (i, task) in parts[0].tasks.iter().enumerate() {
        client.start_task(task, &mut rng);
        for _ in 0..80 {
            client.train_iteration(&mut rng);
        }
        client.finish_task(&mut rng);
        println!(
            "task {} done, accuracy {:.1}%",
            i + 1,
            client.evaluate(task) * 100.0
        );
    }
    println!(
        "retained {} knowledge sets, {} bytes total",
        client.knowledges().len(),
        client.retained_bytes()
    );
}
