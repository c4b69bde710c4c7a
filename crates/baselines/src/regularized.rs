//! Weight-importance regularisation baselines: EWC \[24\], MAS \[2\] and
//! AGS-CL \[19\].
//!
//! All three share one mechanism: estimate how important each weight was
//! to previous tasks, then penalise moving important weights —
//! `∇L += λ · Ω ⊙ (w − w*)` with anchor `w*` at the last task boundary.
//! They differ in how Ω is estimated:
//!
//! * **EWC** — diagonal empirical Fisher: E[(∂ log p/∂w)²] over the
//!   task's data.
//! * **MAS** — sensitivity of the output norm: E[|∂‖f(x)‖²/∂w|],
//!   label-free.
//! * **AGS-CL** — the published method regularises *node groups* chosen
//!   by an adaptive group-sparsity criterion; we implement its
//!   operational core as a path-integral importance (accumulated
//!   loss-decrease attributed to each weight during training, as in
//!   synaptic-intelligence-style estimates AGS-CL builds on) with a
//!   stiff penalty. The stiff proximal term is what makes AGS-CL
//!   sensitive to large global-model jumps — reproducing the
//!   non-convergence under FedAvg the paper reports in §V-B.

use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// Which importance estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportanceKind {
    /// EWC: diagonal empirical Fisher.
    Fisher,
    /// MAS: output-norm sensitivity.
    Mas,
    /// AGS-CL: path-integral importance with a stiff penalty.
    PathIntegral,
}

impl ImportanceKind {
    fn method_name(&self) -> &'static str {
        match self {
            ImportanceKind::Fisher => "ewc",
            ImportanceKind::Mas => "mas",
            ImportanceKind::PathIntegral => "agscl",
        }
    }
}

/// EWC / MAS / AGS-CL client.
pub struct RegularizedClient {
    trainer: LocalTrainer,
    kind: ImportanceKind,
    /// Penalty strength λ.
    pub lambda: f32,
    /// Accumulated importance Ω (one entry per parameter).
    omega: Vec<f32>,
    /// Anchor weights w* from the last task boundary.
    anchor: Option<Vec<f32>>,
    /// Batches used to estimate importance at each task boundary.
    estimation_batches: usize,
    // Path-integral accumulators (AGS-CL).
    path_credit: Vec<f32>,
    task_start_params: Vec<f32>,
    pending_flops: u64,
}

impl RegularizedClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        kind: ImportanceKind,
        lambda: f32,
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
        let n = template.param_count();
        Self {
            trainer: LocalTrainer::new(template.instantiate(), opt, batch_size, image_shape),
            kind,
            lambda,
            omega: vec![0.0; n],
            anchor: None,
            estimation_batches: 4,
            path_credit: vec![0.0; n],
            task_start_params: Vec::new(),
            pending_flops: 0,
        }
    }

    /// Estimate importance on the just-finished task's data and fold it
    /// into Ω.
    fn accumulate_importance(&mut self, rng: &mut StdRng) {
        match self.kind {
            ImportanceKind::Fisher => {
                for _ in 0..self.estimation_batches {
                    let (x, labels) = self.trainer.next_batch(rng);
                    self.trainer.compute_grads(&x, &labels);
                    let g = self.trainer.model.flat_grads();
                    for (o, gi) in self.omega.iter_mut().zip(&g) {
                        *o += gi * gi / self.estimation_batches as f32;
                    }
                    self.pending_flops += self.trainer.iteration_flops();
                }
            }
            ImportanceKind::Mas => {
                for _ in 0..self.estimation_batches {
                    let (x, _) = self.trainer.next_batch(rng);
                    self.trainer.model.zero_grad();
                    let logits = self.trainer.model.forward(x, true);
                    // ∂(½‖f(x)‖²)/∂logits = logits (mean over batch).
                    let b = logits.shape()[0] as f32;
                    let mut grad = logits;
                    grad.scale(1.0 / b);
                    self.trainer.model.backward(grad);
                    let g = self.trainer.model.flat_grads();
                    for (o, gi) in self.omega.iter_mut().zip(&g) {
                        *o += gi.abs() / self.estimation_batches as f32;
                    }
                    self.pending_flops += self.trainer.iteration_flops();
                }
            }
            ImportanceKind::PathIntegral => {
                // Ω += credit / (Δw² + ξ), then reset the accumulators.
                let now = self.trainer.model.flat_params();
                const XI: f32 = 1e-3;
                if !self.task_start_params.is_empty() {
                    for (i, om) in self.omega.iter_mut().enumerate() {
                        let dw = now[i] - self.task_start_params[i];
                        *om += (self.path_credit[i] / (dw * dw + XI)).max(0.0);
                    }
                }
                self.path_credit.iter_mut().for_each(|c| *c = 0.0);
            }
        }
    }
}

impl FclClient for RegularizedClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        if self.kind == ImportanceKind::PathIntegral {
            self.task_start_params = self.trainer.model.flat_params();
        }
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.trainer.next_batch(rng);
        let loss = self.trainer.compute_grads(&x, &labels);
        let mut update = self.trainer.model.flat_grads();
        // Importance penalty toward the anchor.
        if let Some(anchor) = &self.anchor {
            let params = self.trainer.model.flat_params();
            for i in 0..update.len() {
                update[i] += self.lambda * self.omega[i] * (params[i] - anchor[i]);
            }
        }
        let lr = self.trainer.opt.next_lr() as f32;
        if self.kind == ImportanceKind::PathIntegral {
            // Δw = −lr·update; credit_i += −g_i·Δw_i = lr·g_i·update_i.
            let g = &update;
            for (c, &gi) in self.path_credit.iter_mut().zip(g) {
                *c += lr * gi * gi;
            }
        }
        self.trainer.model.apply_update(&update, lr);
        let flops = self.trainer.iteration_flops() + self.pending_flops;
        self.pending_flops = 0;
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
        self.accumulate_importance(rng);
        // Normalise Ω to mean 1 and clip outliers so λ has the same
        // meaning across architectures (raw Fisher/MAS magnitudes differ
        // by orders of magnitude between a 6-layer CNN and a ResNet,
        // which would otherwise freeze one model and under-regularise
        // the other). Standard practice in EWC implementations.
        let mean =
            self.omega.iter().map(|&o| o as f64).sum::<f64>() / self.omega.len().max(1) as f64;
        if mean > 0.0 {
            let inv = (1.0 / mean) as f32;
            for o in &mut self.omega {
                *o = (*o * inv).min(10.0);
            }
        }
        self.anchor = Some(self.trainer.model.flat_params());
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    fn retained_bytes(&self) -> u64 {
        // Ω and w* are each one f32 per parameter.
        match &self.anchor {
            Some(a) => (4 * (a.len() + self.omega.len())) as u64,
            None => 0,
        }
    }

    fn method_name(&self) -> &'static str {
        self.kind.method_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn setup(kind: ImportanceKind) -> (RegularizedClient, Vec<ClientTask>) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(2);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        (
            RegularizedClient::new(&template, kind, 10.0, 0.05, 1e-4, 8, vec![3, 8, 8]),
            parts[0].tasks.clone(),
        )
    }

    #[test]
    fn fisher_importance_is_nonnegative_and_nonzero() {
        let (mut c, tasks) = setup(ImportanceKind::Fisher);
        let mut rng = seeded(1);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..5 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        assert!(c.omega.iter().all(|&o| o >= 0.0));
        assert!(c.omega.iter().any(|&o| o > 0.0));
        assert!(c.retained_bytes() > 0);
    }

    #[test]
    fn mas_importance_without_labels() {
        let (mut c, tasks) = setup(ImportanceKind::Mas);
        let mut rng = seeded(2);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..5 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        assert!(c.omega.iter().any(|&o| o > 0.0));
    }

    #[test]
    fn path_integral_accumulates_credit() {
        let (mut c, tasks) = setup(ImportanceKind::PathIntegral);
        let mut rng = seeded(3);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..5 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        assert!(c.omega.iter().any(|&o| o > 0.0));
    }

    #[test]
    fn penalty_reduces_importance_weighted_drift() {
        // Run the same two-task sequence with and without the penalty and
        // compare Ω-weighted drift from the anchor: the regularised run
        // must protect important weights better.
        let drift_with_lambda = |lambda: f32| {
            let (mut c, tasks) = setup(ImportanceKind::Fisher);
            c.lambda = lambda;
            let mut rng = seeded(4);
            c.start_task(&tasks[0], &mut rng);
            for _ in 0..15 {
                c.train_iteration(&mut rng);
            }
            c.finish_task(&mut rng);
            let anchor = c.trainer.model.flat_params();
            let omega = c.omega.to_vec();
            c.start_task(&tasks[1], &mut rng);
            for _ in 0..15 {
                c.train_iteration(&mut rng);
            }
            let now = c.trainer.model.flat_params();
            let weighted: f64 = (0..anchor.len())
                .map(|i| omega[i] as f64 * ((now[i] - anchor[i]) as f64).powi(2))
                .sum();
            weighted
        };
        let free = drift_with_lambda(0.0);
        // Ω is normalised to mean 1 and clipped at 10, so λ = 1.5 keeps
        // lr·λ·Ω safely below the stability bound while still binding.
        let penalised = drift_with_lambda(1.5);
        assert!(
            penalised < free,
            "penalty failed to protect important weights: {penalised} !< {free}"
        );
    }
}
