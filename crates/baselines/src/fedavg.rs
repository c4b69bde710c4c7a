//! FedAvg \[37\] — the plain federated baseline: local SGD, full-model
//! aggregation, no continual-learning mechanism at all. Fast to converge
//! on the current task, but forgets previous tasks (the paper's Figure 4
//! discussion).

use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// Plain FedAvg client.
pub struct FedAvgClient {
    trainer: LocalTrainer,
}

impl FedAvgClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        lr: f64,
        lr_decrease: f64,
        batch_size: usize,
        image_shape: Vec<usize>,
    ) -> Self {
        let opt = Sgd::new(
            lr,
            LrSchedule::LinearDecrease {
                decrease: lr_decrease,
            },
        );
        Self {
            trainer: LocalTrainer::new(template.instantiate(), opt, batch_size, image_shape),
        }
    }
}

impl FclClient for FedAvgClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let loss = self.trainer.sgd_iteration(rng);
        IterationStats {
            loss: loss as f64,
            flops: self.trainer.iteration_flops(),
        }
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        Some(self.trainer.model.flat_params())
    }

    fn receive_global(&mut self, global: &[f32], _rng: &mut StdRng) {
        self.trainer.model.set_flat_params(global);
    }

    fn finish_task(&mut self, _rng: &mut StdRng) {}

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    /// FedAvg's whole state at a task boundary: the weights, then the
    /// model's state buffers (BatchNorm's running statistics).
    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        let model = &mut self.trainer.model;
        let mut stream = model.flat_params();
        stream.extend(model.flat_buffers());
        Some(stream)
    }

    fn restore_checkpoint(&mut self, params: &[f32], _rng: &mut StdRng) {
        let model = &mut self.trainer.model;
        let (weights, buffers) = params.split_at(model.param_count());
        model.set_flat_params(weights);
        model.set_flat_buffers(buffers);
    }

    fn method_name(&self) -> &'static str {
        "fedavg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    #[test]
    fn fedavg_learns_but_retains_nothing() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = FedAvgClient::new(&template, 0.05, 1e-4, 8, vec![3, 8, 8]);
        let mut rng = seeded(2);
        c.start_task(&parts[0].tasks[0], &mut rng);
        for _ in 0..60 {
            c.train_iteration(&mut rng);
        }
        let acc = c.evaluate(&parts[0].tasks[0]);
        assert!(acc > 2.0 / parts[0].tasks[0].classes.len() as f64);
        assert_eq!(
            c.retained_bytes(),
            0,
            "FedAvg must retain no continual state"
        );
    }

    #[test]
    fn receive_global_overwrites_model() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = FedAvgClient::new(&template, 0.05, 0.0, 8, vec![3, 8, 8]);
        let g = vec![0.5f32; template.param_count()];
        let mut rng = seeded(0);
        c.receive_global(&g, &mut rng);
        assert_eq!(c.upload().unwrap(), g);
    }
}
