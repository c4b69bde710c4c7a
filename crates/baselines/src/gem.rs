//! GEM — gradient episodic memory \[35\] (with the A-GEM refinement \[4\]
//! the paper cites alongside it).
//!
//! GEM stores a fraction of every past task's samples. At each iteration
//! it computes one gradient per past task from the stored samples and
//! projects the current gradient so its angle with each of them stays
//! acute — the same QP FedKNOW reuses, but fed by *real rehearsal
//! gradients* instead of restored ones, which is exactly the
//! storage-versus-knowledge trade-off the paper's Figure 10 probes.

use crate::common::EpisodicMemory;
use fedknow::GradientIntegrator;
use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;

/// GEM client with configurable rehearsal fraction (paper sweeps 10 % to
/// 100 % in Figure 10).
pub struct GemClient {
    trainer: LocalTrainer,
    memory: EpisodicMemory,
    /// Fraction of each task's samples kept in memory.
    pub memory_fraction: f64,
    /// FedKNOW's integrator at margin 0: GEM's projection is the same
    /// QP, so its solves and fallbacks land in the same `qp.*` counters.
    integrator: GradientIntegrator,
    current_task: Option<ClientTask>,
}

impl GemClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        memory_fraction: f64,
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
            integrator: GradientIntegrator::new(0.0),
            current_task: None,
        }
    }
}

impl FclClient for GemClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.current_task = Some(task.clone());
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.trainer.next_batch(rng);
        let loss = self.trainer.compute_grads(&x, &labels);
        let mut g = self.trainer.model.flat_grads();
        let mut flops = self.trainer.iteration_flops();
        // One gradient per stored past task.
        let image_shape = self.trainer.image_shape().to_vec();
        let mut constraints = Vec::with_capacity(self.memory.num_tasks());
        for t in 0..self.memory.num_tasks() {
            if let Some((mx, mlabels)) =
                self.memory
                    .sample_task_batch(t, self.trainer.batch_size, &image_shape, rng)
            {
                self.trainer.compute_grads(&mx, &mlabels);
                constraints.push(self.trainer.model.flat_grads());
                flops += self.trainer.iteration_flops();
            }
        }
        if !constraints.is_empty() {
            self.integrator.rotate(&mut g, &constraints);
        }
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.apply_update(&g, lr);
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
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    fn retained_bytes(&self) -> u64 {
        self.memory.size_bytes()
    }

    fn method_name(&self) -> &'static str {
        "gem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn setup(tasks: usize, frac: f64) -> (GemClient, Vec<ClientTask>) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(tasks);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        (
            GemClient::new(&template, frac, 0.05, 1e-4, 8, vec![3, 8, 8]),
            parts[0].tasks.clone(),
        )
    }

    #[test]
    fn memory_grows_per_task() {
        let (mut c, tasks) = setup(2, 0.5);
        let mut rng = seeded(1);
        for t in &tasks {
            c.start_task(t, &mut rng);
            c.train_iteration(&mut rng);
            c.finish_task(&mut rng);
        }
        assert_eq!(c.memory.num_tasks(), 2);
        assert!(c.retained_bytes() > 0);
    }

    #[test]
    fn second_task_iterations_cost_more_flops() {
        let (mut c, tasks) = setup(2, 0.5);
        let mut rng = seeded(2);
        c.start_task(&tasks[0], &mut rng);
        let base = c.train_iteration(&mut rng).flops;
        c.finish_task(&mut rng);
        c.start_task(&tasks[1], &mut rng);
        let with_memory = c.train_iteration(&mut rng).flops;
        assert!(
            with_memory > base,
            "{with_memory} !> {base}: GEM must pay per past task"
        );
    }

    #[test]
    fn memory_fraction_scales_retained_bytes() {
        let mut sizes = Vec::new();
        for frac in [0.1, 0.5, 1.0] {
            let (mut c, tasks) = setup(1, frac);
            let mut rng = seeded(3);
            c.start_task(&tasks[0], &mut rng);
            c.finish_task(&mut rng);
            sizes.push(c.retained_bytes());
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }
}

/// A-GEM \[4\] — averaged GEM: instead of one constraint per past task,
/// a single constraint built from one averaged rehearsal gradient over
/// the whole memory. One extra forward/backward per iteration regardless
/// of the task count, at some retention cost — the efficiency/accuracy
/// trade GEM's authors proposed and the paper cites alongside GEM.
pub struct AGemClient {
    inner: GemClient,
}

impl AGemClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        memory_fraction: f64,
        lr: f64,
        lr_decrease: f64,
        batch_size: usize,
        image_shape: Vec<usize>,
    ) -> Self {
        Self {
            inner: GemClient::new(
                template,
                memory_fraction,
                lr,
                lr_decrease,
                bs_at_least_one(batch_size),
                image_shape,
            ),
        }
    }
}

fn bs_at_least_one(bs: usize) -> usize {
    bs.max(1)
}

impl FclClient for AGemClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.inner.start_task(task, rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.inner.trainer.next_batch(rng);
        let loss = self.inner.trainer.compute_grads(&x, &labels);
        let mut g = self.inner.trainer.model.flat_grads();
        let mut flops = self.inner.trainer.iteration_flops();
        // One averaged gradient over a mixed memory batch.
        let image_shape = self.inner.trainer.image_shape().to_vec();
        let constraint = self
            .inner
            .memory
            .sample_mixed_batch(self.inner.trainer.batch_size, &image_shape, rng)
            .map(|(mx, mlabels)| {
                self.inner.trainer.compute_grads(&mx, &mlabels);
                flops += self.inner.trainer.iteration_flops();
                self.inner.trainer.model.flat_grads()
            });
        if let Some(c) = constraint {
            self.inner
                .integrator
                .rotate(&mut g, std::slice::from_ref(&c));
        }
        let lr = self.inner.trainer.opt.next_lr() as f32;
        self.inner.trainer.model.apply_update(&g, lr);
        IterationStats {
            loss: loss as f64,
            flops,
        }
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        self.inner.upload()
    }

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
        self.inner.receive_global(global, rng);
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        self.inner.finish_task(rng);
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.inner.evaluate(task)
    }

    fn retained_bytes(&self) -> u64 {
        self.inner.retained_bytes()
    }

    fn method_name(&self) -> &'static str {
        "agem"
    }
}

#[cfg(test)]
mod agem_tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    #[test]
    fn agem_pays_constant_memory_cost_per_iteration() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(3);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        let mut c = AGemClient::new(&template, 0.5, 0.05, 1e-4, 8, vec![3, 8, 8]);
        let mut rng = seeded(1);
        let mut flops_per_task = Vec::new();
        for t in &parts[0].tasks {
            c.start_task(t, &mut rng);
            flops_per_task.push(c.train_iteration(&mut rng).flops);
            c.finish_task(&mut rng);
        }
        // With ≥1 past task the cost is exactly one extra pass — it does
        // not keep growing like GEM's.
        assert!(flops_per_task[1] > flops_per_task[0]);
        assert_eq!(
            flops_per_task[1], flops_per_task[2],
            "A-GEM cost must not grow with tasks"
        );
    }
}
