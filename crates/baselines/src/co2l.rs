//! Co²L — contrastive continual learning \[3\].
//!
//! The paper positions Co²L as "focus\[ing\] on feature transfer and
//! maintain\[ing\] contrastive learned representations to mitigate
//! catastrophic forgetting": the published method combines a supervised
//! contrastive loss with *instance-wise relation distillation* from the
//! previous model snapshot, replayed over a rehearsal buffer. We keep
//! both operative mechanisms — a frozen snapshot of the model at the last
//! task boundary distils its predictive distribution into the live model
//! over rehearsal samples (representation preservation), alongside the
//! supervised loss on the current task — and note the substitution of the
//! contrastive objective by its distillation core, which is what carries
//! the anti-forgetting effect the benchmark measures.

use crate::common::EpisodicMemory;
use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::loss::soft_cross_entropy;
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// Co²L client.
pub struct Co2lClient {
    trainer: LocalTrainer,
    memory: EpisodicMemory,
    memory_fraction: f64,
    /// Distillation strength λ.
    pub distill_weight: f32,
    /// Frozen parameters from the previous task boundary.
    snapshot: Option<Vec<f32>>,
    current_task: Option<ClientTask>,
}

impl Co2lClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        memory_fraction: f64,
        distill_weight: f32,
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
            memory: EpisodicMemory::new(),
            memory_fraction,
            distill_weight,
            snapshot: None,
            current_task: None,
        }
    }
}

impl FclClient for Co2lClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.current_task = Some(task.clone());
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        // Supervised loss on the current batch.
        let (x, labels) = self.trainer.next_batch(rng);
        let loss = self.trainer.compute_grads(&x, &labels);
        let mut update = self.trainer.model.flat_grads();
        let mut flops = self.trainer.iteration_flops();

        // Distillation from the previous-task snapshot on rehearsal data.
        if let Some(snapshot) = self.snapshot.as_mut() {
            let image_shape = self.trainer.image_shape().to_vec();
            if let Some((mx, _)) =
                self.memory
                    .sample_mixed_batch(self.trainer.batch_size, &image_shape, rng)
            {
                // Teacher distribution from the frozen snapshot.
                self.trainer.model.swap_params(snapshot);
                let teacher = self.trainer.model.forward(mx.clone(), false).softmax_rows();
                self.trainer.model.swap_params(snapshot);
                // Student gradient against the teacher.
                self.trainer.model.zero_grad();
                let logits = self.trainer.model.forward(mx, true);
                let (_, grad) = soft_cross_entropy(&logits, &teacher);
                self.trainer.model.backward(grad);
                for (u, d) in update.iter_mut().zip(self.trainer.model.grad_slot(0)) {
                    *u += self.distill_weight * d;
                }
                flops += self.trainer.iteration_flops() * 4 / 3;
            }
        }
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.apply_update(&update, lr);
        IterationStats {
            loss: loss as f64,
            flops,
        }
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        Some(self.trainer.model.flat_params())
    }

    fn receive_global(&mut self, global: &[f32], _rng: &mut StdRng) {
        self.trainer.model.set_flat_params(global);
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        if let Some(task) = self.current_task.take() {
            self.memory.store_task(&task, self.memory_fraction, rng);
        }
        self.snapshot = Some(self.trainer.model.flat_params());
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    fn retained_bytes(&self) -> u64 {
        let snap = self.snapshot.as_ref().map_or(0, |s| 4 * s.len() as u64);
        self.memory.size_bytes() + snap
    }

    fn method_name(&self) -> &'static str {
        "co2l"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    #[test]
    fn snapshot_and_memory_retained_after_task() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(2);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = Co2lClient::new(&template, 0.5, 1.0, 0.05, 1e-4, 8, vec![3, 8, 8]);
        let mut rng = seeded(1);
        c.start_task(&parts[0].tasks[0], &mut rng);
        let f0 = c.train_iteration(&mut rng).flops;
        c.finish_task(&mut rng);
        assert!(c.snapshot.is_some());
        assert!(
            c.retained_bytes() > template.size_bytes(),
            "snapshot + memory retained"
        );
        c.start_task(&parts[0].tasks[1], &mut rng);
        let f1 = c.train_iteration(&mut rng).flops;
        assert!(f1 > f0, "distillation pass must cost extra: {f1} !> {f0}");
    }
}
