//! Shared local-training plumbing used by every client algorithm.

use fedknow_data::{to_tensor, Batcher, ClientTask, Sample};
use fedknow_math::Tensor;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::optim::Sgd;
use fedknow_nn::Model;
use fedknow_obs::timer;
use rand::rngs::StdRng;

/// A model plus the current task's data and an optimiser — the part of a
/// client every method shares. Algorithm crates hold one of these and add
/// their method-specific state around it.
pub struct LocalTrainer {
    /// The client's model.
    pub model: Model,
    /// The client's optimiser (schedule per the paper's settings).
    pub opt: Sgd,
    /// Minibatch size.
    pub batch_size: usize,
    image_shape: Vec<usize>,
    train_data: Vec<Sample>,
    batcher: Option<Batcher>,
    /// See [`LocalTrainer::batch_indices`].
    batch_indices: Vec<usize>,
}

impl LocalTrainer {
    /// New trainer; `image_shape` is `[C, H, W]`.
    pub fn new(model: Model, opt: Sgd, batch_size: usize, image_shape: Vec<usize>) -> Self {
        Self {
            model,
            opt,
            batch_size,
            image_shape,
            train_data: Vec::new(),
            batcher: None,
            batch_indices: Vec::new(),
        }
    }

    /// Image shape `[C, H, W]` this trainer was configured with.
    pub fn image_shape(&self) -> &[usize] {
        &self.image_shape
    }

    /// Install a task's training data and reset the optimiser schedule.
    pub fn set_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.train_data = task.train.clone();
        self.batcher = Some(Batcher::new(rng, self.train_data.len(), self.batch_size));
        self.opt.reset();
    }

    /// Number of training samples in the current task.
    pub fn num_samples(&self) -> usize {
        self.train_data.len()
    }

    /// Draw the next minibatch of the current task.
    pub fn next_batch(&mut self, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        let batcher = self.batcher.as_mut().expect("set_task before next_batch");
        self.batch_indices.clear();
        self.batch_indices
            .extend_from_slice(batcher.next_batch(rng));
        let samples: Vec<&Sample> = self
            .batch_indices
            .iter()
            .map(|&i| &self.train_data[i])
            .collect();
        to_tensor(&samples, &self.image_shape)
    }

    /// Positions in the task's training set (the `task.train` handed to
    /// [`LocalTrainer::set_task`]) of the samples in the last batch
    /// [`LocalTrainer::next_batch`] returned, row for row — the key into
    /// anything a client precomputed per training sample.
    pub fn batch_indices(&self) -> &[usize] {
        &self.batch_indices
    }

    /// Zero grads, forward, cross-entropy, backward. Returns the loss and
    /// leaves gradients in the model's buffers. An empty batch is a
    /// no-op with zero loss (zero gradients), never a NaN.
    pub fn compute_grads(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        match self.forward_loss(x, labels) {
            Some((loss, _, grad)) => {
                self.backward(grad);
                loss
            }
            None => 0.0,
        }
    }

    /// The first half of [`LocalTrainer::compute_grads`]: zero grads,
    /// forward, cross-entropy. Returns the loss, the training forward's
    /// logits and the loss gradient at them, and leaves the backward to
    /// the caller, who may stack further output gradients of the same
    /// forward behind this one (see [`fedknow_nn::Layer::backward`]).
    /// `None` for an empty batch (zero gradients, nothing to run).
    pub fn forward_loss(&mut self, x: &Tensor, labels: &[usize]) -> Option<(f32, Tensor, Tensor)> {
        self.model.zero_grad();
        if labels.is_empty() {
            return None;
        }
        let logits = {
            let _t = timer("conv.fwd_ns");
            self.model.forward(x.clone(), true)
        };
        let (loss, grad) = cross_entropy(&logits, labels);
        Some((loss, logits, grad))
    }

    /// The training backward of [`LocalTrainer::forward_loss`]'s
    /// gradient, timed as `conv.bwd_ns`.
    pub fn backward(&mut self, grad: Tensor) {
        let _t = timer("conv.bwd_ns");
        self.model.backward(grad);
    }

    /// One plain SGD iteration on the current task. Returns the loss.
    pub fn sgd_iteration(&mut self, rng: &mut StdRng) -> f32 {
        let _batch = timer("train.batch_ns");
        let (x, labels) = self.next_batch(rng);
        let loss = self.compute_grads(&x, &labels);
        let lr = self.opt.next_lr() as f32;
        let _t = timer("train.step_ns");
        self.model.sgd_step(lr);
        loss
    }

    /// FLOPs of one forward+backward iteration at the current batch size
    /// (backward ≈ 2× forward, the standard accounting).
    pub fn iteration_flops(&self) -> u64 {
        3 * self.model.flops(self.batch_size)
    }

    /// Task-restricted top-1 accuracy on `task`'s test set: argmax over
    /// the task's own classes only (task-incremental evaluation).
    pub fn evaluate_task(&mut self, task: &ClientTask) -> f64 {
        evaluate_model(&mut self.model, task, &self.image_shape)
    }
}

/// Task-restricted evaluation of an arbitrary model.
pub fn evaluate_model(model: &mut Model, task: &ClientTask, image_shape: &[usize]) -> f64 {
    if task.test.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    // Evaluate in chunks to bound activation memory.
    for chunk in task.test.chunks(64) {
        let refs: Vec<&Sample> = chunk.iter().collect();
        let (x, labels) = to_tensor(&refs, image_shape);
        let logits = model.forward(x, false);
        let c = logits.shape()[1];
        for (i, &y) in labels.iter().enumerate() {
            let best = task
                .classes
                .iter()
                .copied()
                .filter(|&cls| cls < c)
                .max_by(|&a, &b| {
                    logits
                        .at2(i, a)
                        .partial_cmp(&logits.at2(i, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            if best == y {
                correct += 1;
            }
        }
    }
    correct as f64 / task.test.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::optim::LrSchedule;
    use fedknow_nn::ModelKind;

    fn setup() -> (LocalTrainer, ClientTask) {
        let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(1);
        let data = generate(&spec, 7);
        let parts = partition(&data, 2, &PartitionConfig::default(), 7);
        let mut rng = seeded(1);
        let model = ModelKind::SixCnn.build(&mut rng, 3, spec.total_classes(), 1.0);
        let trainer = LocalTrainer::new(
            model,
            Sgd::new(0.05, LrSchedule::Constant),
            8,
            vec![3, 8, 8],
        );
        (trainer, parts[0].tasks[0].clone())
    }

    #[test]
    fn sgd_iterations_reduce_loss() {
        let (mut t, task) = setup();
        let mut rng = seeded(2);
        t.set_task(&task, &mut rng);
        let first: f32 = (0..3).map(|_| t.sgd_iteration(&mut rng)).sum::<f32>() / 3.0;
        for _ in 0..60 {
            t.sgd_iteration(&mut rng);
        }
        let last: f32 = (0..3).map(|_| t.sgd_iteration(&mut rng)).sum::<f32>() / 3.0;
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn training_beats_chance_on_task_restricted_eval() {
        let (mut t, task) = setup();
        let mut rng = seeded(3);
        t.set_task(&task, &mut rng);
        for _ in 0..80 {
            t.sgd_iteration(&mut rng);
        }
        let acc = t.evaluate_task(&task);
        let chance = 1.0 / task.classes.len() as f64;
        assert!(acc > 2.0 * chance, "accuracy {acc} vs chance {chance}");
    }

    #[test]
    fn iteration_flops_positive() {
        let (t, _) = setup();
        assert!(t.iteration_flops() > 0);
    }

    #[test]
    fn evaluate_empty_task_is_zero() {
        let (mut t, mut task) = setup();
        task.test.clear();
        assert_eq!(t.evaluate_task(&task), 0.0);
    }
}

#[cfg(test)]
mod empty_task_tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_nn::optim::LrSchedule;
    use fedknow_nn::ModelKind;

    /// A task with no training samples must train as a harmless no-op
    /// (zero loss, zero gradient, finite weights) rather than NaN-ing the
    /// model — defensive coverage for callers bypassing the partitioner's
    /// at-least-one-sample guarantee.
    #[test]
    fn empty_task_is_a_noop() {
        let mut rng = seeded(1);
        let model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let mut t = LocalTrainer::new(
            model,
            Sgd::new(0.05, LrSchedule::Constant),
            8,
            vec![3, 8, 8],
        );
        let task = ClientTask {
            task_id: 0,
            classes: vec![0],
            train: vec![],
            test: vec![],
        };
        t.set_task(&task, &mut rng);
        let before = t.model.flat_params();
        let loss = t.sgd_iteration(&mut rng);
        assert_eq!(loss, 0.0);
        assert!(loss.is_finite());
        assert_eq!(t.model.flat_params(), before, "weights must be untouched");
    }
}
