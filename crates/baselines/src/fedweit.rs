//! FedWEIT \[58\] — federated weighted inter-client transfer.
//!
//! FedWEIT decomposes each layer's weights into a *base* part (shared,
//! FedAvg-aggregated) and sparse *task-adaptive* parts. Every client
//! retains its adaptive weights per task, the server collects **all**
//! clients' adaptive weights, and a client learning a new task downloads
//! everyone's adaptives and blends them into training — which is exactly
//! why its communication and memory grow with `clients × tasks` (the
//! scalability weakness FedKNOW targets, §II and §V-C).
//!
//! Operationalisation here (each point mirrors a published mechanism):
//! * the working weights are `w = base + a` with `a` re-sparsified
//!   *per layer* to the top-`q` magnitudes of `w − base` at every upload
//!   — per-layer sparsification is what damages parameter-poor layers
//!   (ResNet downsamples), the failure mode the paper highlights;
//! * `a` of the finished task is retained locally (task-conditioned
//!   evaluation restores `base + a_t` for task `t`);
//! * every round the client publishes its current adaptive through the
//!   server and receives all other clients' (the [`Payload`] channel),
//!   blending a small attention-weighted average into its weights
//!   (weighted inter-client transfer) and caching them (server-mirrored
//!   knowledge — the memory that OOMs a 2 GB Raspberry Pi);
//! * an L2 pull of `w` toward `base` stands in for the published
//!   sparsity/drift regularisers.

use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate, Payload};
use fedknow_math::SparseVec;
use fedknow_nn::optim::{LrSchedule, Sgd};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// FedWEIT client.
pub struct FedWeitClient {
    trainer: LocalTrainer,
    /// Global base weights (mirrors the last aggregated model).
    base: Vec<f32>,
    /// Adaptive sparsity: fraction of each layer kept.
    pub adaptive_fraction: f64,
    /// Regulariser pulling working weights toward the base.
    drift_lambda: f32,
    /// Attention weight for foreign adaptives.
    transfer_weight: f32,
    /// Own retained adaptives, keyed by task id.
    own_adaptives: HashMap<usize, SparseVec>,
    /// Foreign adaptives cached from the server (client, tag) → weights.
    foreign: HashMap<(usize, u64), SparseVec>,
    /// When true, ignore foreign adaptives (the paper's Figure 10
    /// "own-only" ablation).
    pub own_only: bool,
    current_task_id: usize,
    /// Per-layer segment boundaries of the flat vector.
    segments: Vec<(usize, usize)>,
}

impl FedWeitClient {
    /// Build from the shared template.
    pub fn new(
        template: &ModelTemplate,
        adaptive_fraction: f64,
        own_only: bool,
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
        let segments = model.layout().iter().map(|s| (s.offset, s.len)).collect();
        Self {
            trainer: LocalTrainer::new(model, opt, batch_size, image_shape),
            base: template.init.clone(),
            adaptive_fraction,
            drift_lambda: 0.01,
            transfer_weight: 0.1,
            own_adaptives: HashMap::new(),
            foreign: HashMap::new(),
            own_only,
            current_task_id: 0,
            segments,
        }
    }

    /// Per-layer top-`q` sparsification of `w − base` (FedWEIT masks per
    /// layer, which is what starves small layers).
    fn current_adaptive(&self) -> SparseVec {
        let w = self.trainer.model.params();
        let n = w.len();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &(off, len) in &self.segments {
            let diff: Vec<f32> = (0..len).map(|i| w[off + i] - self.base[off + i]).collect();
            let keep = ((len as f64 * self.adaptive_fraction).round() as usize).min(len);
            let local = SparseVec::top_k_by_magnitude(&diff, keep);
            for (&i, &v) in local.indices().iter().zip(local.values()) {
                indices.push((off + i as usize) as u32);
                values.push(v);
            }
        }
        SparseVec::new(n, indices, values)
    }
}

impl FclClient for FedWeitClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.current_task_id = task.task_id;
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.trainer.next_batch(rng);
        let loss = self.trainer.compute_grads(&x, &labels);
        let mut update = self.trainer.model.flat_grads();
        // Drift regulariser toward the shared base.
        let params = self.trainer.model.params();
        for i in 0..update.len() {
            update[i] += self.drift_lambda * (params[i] - self.base[i]);
        }
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.apply_update(&update, lr);
        IterationStats {
            loss: loss as f64,
            flops: self.trainer.iteration_flops(),
        }
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        // Upload the base contribution: working weights minus the sparse
        // adaptive part (the adaptive travels separately as a payload).
        let adaptive = self.current_adaptive();
        let mut contribution = self.trainer.model.flat_params();
        for (&i, &v) in adaptive.indices().iter().zip(adaptive.values()) {
            contribution[i as usize] -= v;
        }
        Some(contribution)
    }

    fn receive_global(&mut self, global: &[f32], _rng: &mut StdRng) {
        // New base; working weights = base + own current adaptive.
        let adaptive = self.current_adaptive();
        self.base = global.to_vec();
        let mut w = global.to_vec();
        for (&i, &v) in adaptive.indices().iter().zip(adaptive.values()) {
            w[i as usize] += v;
        }
        self.trainer.model.set_flat_params(&w);
    }

    fn payload_out(&mut self) -> Vec<Payload> {
        vec![Payload {
            from_client: 0, // filled by the simulator
            tag: self.current_task_id as u64,
            sparse: self.current_adaptive(),
        }]
    }

    fn payloads_in(&mut self, payloads: &[Payload], _rng: &mut StdRng) {
        // Cache everyone's adaptives (server-mirrored knowledge).
        let mut fresh: Vec<&Payload> = Vec::new();
        for p in payloads {
            self.foreign
                .insert((p.from_client, p.tag), p.sparse.clone());
            fresh.push(p);
        }
        if self.own_only || fresh.is_empty() {
            return;
        }
        // Weighted inter-client transfer: blend a small attention-
        // weighted average of the received adaptives into the weights.
        let w = self.trainer.model.params_mut();
        let scale = self.transfer_weight / fresh.len() as f32;
        for p in fresh {
            for (&i, &v) in p.sparse.indices().iter().zip(p.sparse.values()) {
                w[i as usize] += scale * v;
            }
        }
    }

    fn finish_task(&mut self, _rng: &mut StdRng) {
        let adaptive = self.current_adaptive();
        self.own_adaptives.insert(self.current_task_id, adaptive);
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        // Task-conditioned model: base + that task's retained adaptive.
        match self.own_adaptives.get(&task.task_id) {
            Some(a) => {
                let mut cond = self.base.clone();
                for (&i, &v) in a.indices().iter().zip(a.values()) {
                    cond[i as usize] += v;
                }
                self.trainer.model.swap_params(&mut cond);
                let image_shape = self.trainer.image_shape().to_vec();
                let acc = fedknow_fl::trainer::evaluate_model(
                    &mut self.trainer.model,
                    task,
                    &image_shape,
                );
                self.trainer.model.swap_params(&mut cond);
                acc
            }
            None => self.trainer.evaluate_task(task),
        }
    }

    fn retained_bytes(&self) -> u64 {
        let own: u64 = self
            .own_adaptives
            .values()
            .map(|a| a.size_bytes() as u64)
            .sum();
        let foreign: u64 = self.foreign.values().map(|a| a.size_bytes() as u64).sum();
        own + foreign
    }

    fn method_name(&self) -> &'static str {
        if self.own_only {
            "fedweit-own"
        } else {
            "fedweit"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn setup() -> (FedWeitClient, Vec<ClientTask>) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(2);
        let d = generate(&spec, 1);
        let parts = partition(&d, 1, &PartitionConfig::default(), 1);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 3);
        (
            FedWeitClient::new(&template, 0.1, false, 0.05, 1e-4, 8, vec![3, 8, 8]),
            parts[0].tasks.clone(),
        )
    }

    #[test]
    fn adaptive_is_per_layer_sparse() {
        let (mut c, tasks) = setup();
        let mut rng = seeded(1);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..5 {
            c.train_iteration(&mut rng);
        }
        let a = c.current_adaptive();
        let n = c.trainer.model.param_count();
        assert!(a.nnz() > 0);
        assert!(
            a.nnz() <= n / 5,
            "adaptive should be sparse: {} of {n}",
            a.nnz()
        );
    }

    #[test]
    fn upload_plus_adaptive_reconstructs_weights() {
        let (mut c, tasks) = setup();
        let mut rng = seeded(2);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..3 {
            c.train_iteration(&mut rng);
        }
        let w = c.trainer.model.flat_params();
        let a = c.current_adaptive();
        let up = c.upload().unwrap();
        let mut rebuilt = up;
        for (&i, &v) in a.indices().iter().zip(a.values()) {
            rebuilt[i as usize] += v;
        }
        for (x, y) in rebuilt.iter().zip(&w) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn foreign_adaptives_accumulate_and_cost_memory() {
        let (mut c, tasks) = setup();
        let mut rng = seeded(3);
        c.start_task(&tasks[0], &mut rng);
        c.train_iteration(&mut rng);
        let n = c.trainer.model.param_count();
        let fake =
            |seed: usize| SparseVec::new(n, vec![seed as u32, (seed + 10) as u32], vec![0.5, -0.5]);
        let payloads: Vec<Payload> = (0..4)
            .map(|cl| Payload {
                from_client: cl,
                tag: 0,
                sparse: fake(cl),
            })
            .collect();
        let before = c.retained_bytes();
        c.payloads_in(&payloads, &mut rng);
        assert_eq!(c.foreign.len(), 4);
        assert!(
            c.retained_bytes() > before,
            "foreign knowledge must cost memory"
        );
    }

    #[test]
    fn evaluation_is_task_conditioned_after_finish() {
        let (mut c, tasks) = setup();
        let mut rng = seeded(4);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..30 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        assert_eq!(c.own_adaptives.len(), 1);
        // Evaluate must not clobber the working weights.
        let before = c.trainer.model.flat_params();
        let _ = c.evaluate(&tasks[0]);
        assert_eq!(c.trainer.model.flat_params(), before);
    }

    #[test]
    fn payload_out_reports_current_adaptive() {
        let (mut c, tasks) = setup();
        let mut rng = seeded(5);
        c.start_task(&tasks[1], &mut rng);
        c.train_iteration(&mut rng);
        let p = c.payload_out();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].tag, tasks[1].task_id as u64);
        assert!(p[0].size_bytes() > 0);
    }
}
