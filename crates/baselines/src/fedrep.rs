//! FedRep \[7\] — shared representation, personal head.
//!
//! FedRep "divides a model into presentation layers and head layers, and
//! only communicates presentation layers in federated learning, while
//! adaptively training model weights in each client" (§V-A). Here the
//! head is the final linear layer (weight + bias); everything before it
//! is the representation. Uploads carry the full vector (the server
//! averages it all), but the client adopts only the representation part
//! of the global model — its head stays personal — and only the
//! representation bytes are charged on the wire.

use fedknow_data::ClientTask;
use fedknow_fl::{CommBytes, FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// FedRep client.
pub struct FedRepClient {
    trainer: LocalTrainer,
    /// Flat-vector offset where the head (last linear layer) begins.
    head_offset: usize,
}

impl FedRepClient {
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
        let model = template.instantiate();
        // The head is the trailing run of linear segments (weight+bias of
        // the classifier).
        let layout = model.layout();
        let mut head_offset = model.param_count();
        for seg in layout.iter().rev() {
            if seg.name.starts_with("linear") {
                head_offset = seg.offset;
            } else {
                break;
            }
        }
        Self {
            trainer: LocalTrainer::new(model, opt, batch_size, image_shape),
            head_offset,
        }
    }
}

impl FclClient for FedRepClient {
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
        // Adopt the representation; keep the personal head.
        let mut params = self.trainer.model.flat_params();
        params[..self.head_offset].copy_from_slice(&global[..self.head_offset]);
        self.trainer.model.set_flat_params(&params);
    }

    fn finish_task(&mut self, _rng: &mut StdRng) {}

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    fn base_comm(&self, full_model_bytes: u64) -> CommBytes {
        // Only the representation travels.
        let frac = self.head_offset as f64 / self.trainer.model.param_count() as f64;
        let bytes = (full_model_bytes as f64 * frac) as u64;
        CommBytes {
            up: bytes,
            down: bytes,
        }
    }

    fn method_name(&self) -> &'static str {
        "fedrep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn client() -> (FedRepClient, ClientTask) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        (
            FedRepClient::new(&template, 0.05, 1e-4, 8, vec![3, 8, 8]),
            parts[0].tasks[0].clone(),
        )
    }

    #[test]
    fn head_offset_covers_final_classifier() {
        let (c, _) = client();
        let n = c.trainer.model.param_count();
        assert!(c.head_offset < n);
        // SixCNN head: the last two linear layers form the trailing
        // linear run (hidden 32 → classes), so the head is non-trivial.
        assert!(n - c.head_offset > 0);
    }

    #[test]
    fn receive_global_preserves_personal_head() {
        let (mut c, task) = client();
        let mut rng = seeded(1);
        c.start_task(&task, &mut rng);
        for _ in 0..3 {
            c.train_iteration(&mut rng);
        }
        let before = c.upload().unwrap();
        let global = vec![0.25f32; before.len()];
        c.receive_global(&global, &mut rng);
        let after = c.upload().unwrap();
        let h = c.head_offset;
        assert!(
            after[..h].iter().all(|&v| v == 0.25),
            "representation must be adopted"
        );
        assert_eq!(&after[h..], &before[h..], "head must stay personal");
    }

    #[test]
    fn base_comm_is_smaller_than_full_model() {
        let (c, _) = client();
        let full = 1_000_000u64;
        let b = c.base_comm(full);
        assert!(b.up < full && b.up > 0);
        assert_eq!(b.up, b.down);
    }
}
