//! APFL — adaptive personalized federated learning \[9\].
//!
//! Each client keeps a *personal* model `v` next to the shared model `w`
//! and predicts with the mixture `ᾱ·v + (1−ᾱ)·w`; the mixing weight ᾱ is
//! learned per client by descending the mixture loss. Only `w`
//! participates in FedAvg.

use fedknow_data::ClientTask;
use fedknow_fl::trainer::evaluate_model;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// APFL client.
pub struct ApflClient {
    /// Shared-model trainer (`w`, uploaded for aggregation).
    trainer: LocalTrainer,
    /// Personal parameters `v`.
    personal: Vec<f32>,
    /// Mixture weight ᾱ ∈ [0, 1].
    pub alpha: f32,
    /// Learning rate for ᾱ.
    alpha_lr: f32,
}

impl ApflClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        alpha0: f32,
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
            personal: template.init.clone(),
            alpha: alpha0.clamp(0.0, 1.0),
            alpha_lr: 0.01,
        }
    }

    /// `ᾱ·v + (1−ᾱ)·w` as a flat vector.
    fn mixed_params(&self) -> Vec<f32> {
        self.personal
            .iter()
            .zip(self.trainer.model.params())
            .map(|(&v, &wi)| self.alpha * v + (1.0 - self.alpha) * wi)
            .collect()
    }
}

impl FclClient for ApflClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.trainer.next_batch(rng);
        // 1. Shared model step (what FedAvg sees).
        let loss = self.trainer.compute_grads(&x, &labels);
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.sgd_step(lr);

        // 2. Personal step: gradient of the mixture loss, applied to v
        //    (chain rule factor ᾱ) and to ᾱ itself.
        let mut mixed = self.mixed_params();
        self.trainer.model.swap_params(&mut mixed);
        let _ = self.trainer.compute_grads(&x, &labels);
        self.trainer.model.swap_params(&mut mixed);
        let w = self.trainer.model.params();
        let g_mixed = self.trainer.model.grad_slot(0);
        // ∂L/∂ᾱ = ⟨g_mixed, v − w⟩.
        let mut dalpha = 0.0f32;
        for i in 0..self.personal.len() {
            let diff = self.personal[i] - w[i];
            dalpha += g_mixed[i] * diff;
            self.personal[i] -= lr * self.alpha * g_mixed[i];
        }
        self.alpha = (self.alpha - self.alpha_lr * dalpha).clamp(0.0, 1.0);

        IterationStats {
            loss: loss as f64,
            flops: 2 * self.trainer.iteration_flops(),
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
        // Predict with the personalised mixture.
        let mut mixed = self.mixed_params();
        self.trainer.model.swap_params(&mut mixed);
        let image_shape = self.trainer.image_shape().to_vec();
        let acc = evaluate_model(&mut self.trainer.model, task, &image_shape);
        self.trainer.model.swap_params(&mut mixed);
        acc
    }

    fn method_name(&self) -> &'static str {
        "apfl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    #[test]
    fn personal_model_diverges_from_shared() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = ApflClient::new(&template, 0.5, 0.05, 1e-4, 8, vec![3, 8, 8]);
        let mut rng = seeded(1);
        c.start_task(&parts[0].tasks[0], &mut rng);
        for _ in 0..10 {
            c.train_iteration(&mut rng);
        }
        let w = c.upload().unwrap();
        assert_ne!(c.personal, w, "v and w should separate during training");
        assert!((0.0..=1.0).contains(&c.alpha));
    }

    #[test]
    fn evaluate_restores_shared_model() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = ApflClient::new(&template, 0.7, 0.05, 1e-4, 8, vec![3, 8, 8]);
        let mut rng = seeded(2);
        c.start_task(&parts[0].tasks[0], &mut rng);
        c.train_iteration(&mut rng);
        let before = c.upload().unwrap();
        let _ = c.evaluate(&parts[0].tasks[0]);
        assert_eq!(c.upload().unwrap(), before, "evaluate must not clobber w");
    }
}
