//! The FedKNOW client — wiring the extractor, restorer and integrator
//! into the federated round protocol (§III-A, Figure 3).

use crate::config::FedKnowConfig;
use crate::extractor::KnowledgeExtractor;
use crate::integrator::GradientIntegrator;
use crate::restorer::GradientRestorer;
use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_math::{SparseVec, Tensor};
use fedknow_nn::optim::{LrSchedule, Sgd};
use fedknow_obs::HistHandle;
use rand::rngs::StdRng;

/// Jaccard overlap (per-mille) of a freshly extracted knowledge mask
/// against each previously retained task's mask — how much the top-ρ
/// supports of different tasks coincide (Eq. 1 across tasks).
static MASK_JACCARD_PM: HistHandle = HistHandle::new("extract.mask_jaccard_pm");

/// A FedKNOW client.
///
/// Per training iteration it integrates the current gradient with the
/// restored gradients of its signature tasks (forgetting prevention);
/// after each FedAvg aggregation it fine-tunes the received global model
/// with gradients rotated to stay acute with the post-aggregation
/// direction (negative-transfer prevention); after each task it extracts
/// and retains the task's signature knowledge.
pub struct FedKnowClient {
    trainer: LocalTrainer,
    cfg: FedKnowConfig,
    extractor: KnowledgeExtractor,
    restorer: GradientRestorer,
    integrator: GradientIntegrator,
    /// Post-aggregation fine-tune schedule (Theorem 1: O(r^{-1})).
    global_opt: Sgd,
    knowledges: Vec<SparseVec>,
    /// Per retained task, its knowledge's pseudo-labels on every training
    /// sample of the current task (`[N, C]`, row = position in
    /// `task.train`): a cache `start_task` builds and `finish_task` /
    /// `restore_checkpoint` drop, not retained state.
    teacher: Vec<Tensor>,
    /// Indices into `knowledges` of the current signature tasks.
    selected: Vec<usize>,
    /// FLOPs not yet reported (table build, selection, fine-tunes,
    /// restores), charged to the next iteration's stats.
    pending_flops: u64,
}

impl FedKnowClient {
    /// Build a client from the shared model template.
    pub fn new(
        template: &ModelTemplate,
        cfg: FedKnowConfig,
        batch_size: usize,
        image_shape: Vec<usize>,
    ) -> Self {
        let model = template.instantiate();
        let opt = Sgd::new(
            cfg.local_lr,
            LrSchedule::LinearDecrease {
                decrease: cfg.lr_decrease,
            },
        );
        let global_opt = Sgd::new(cfg.global_lr, LrSchedule::Inverse);
        Self {
            trainer: LocalTrainer::new(model, opt, batch_size, image_shape),
            extractor: KnowledgeExtractor::with_strategy(
                cfg.rho,
                cfg.knowledge_finetune_iters,
                cfg.strategy,
            ),
            restorer: GradientRestorer,
            integrator: GradientIntegrator::new(cfg.margin),
            global_opt,
            cfg,
            knowledges: Vec::new(),
            teacher: Vec::new(),
            selected: Vec::new(),
            pending_flops: 0,
        }
    }

    /// Retained signature knowledge, one entry per finished task.
    pub fn knowledges(&self) -> &[SparseVec] {
        &self.knowledges
    }

    /// Currently selected signature-task indices.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Borrow the underlying trainer (benchmarks and tests).
    pub fn trainer_mut(&mut self) -> &mut LocalTrainer {
        &mut self.trainer
    }

    /// Restored gradient (Eq. 2) of retained task `i` on the batch the
    /// trainer drew last: that batch's rows of the task's pseudo-label
    /// table, and one backward pass over the activations of the training
    /// forward that produced `logits`.
    fn replay(&mut self, i: usize, logits: &Tensor) -> Vec<f32> {
        let target = self.teacher[i].gather_rows(self.trainer.batch_indices());
        // One backward: 2/3 of an iteration.
        self.pending_flops += self.trainer.iteration_flops() * 2 / 3;
        self.restorer
            .replay(&mut self.trainer.model, logits, &target)
    }

    /// [`Self::replay`] for every current signature task.
    fn replay_selected(&mut self, logits: &Tensor) -> Vec<Vec<f32>> {
        (0..self.selected.len())
            .map(|s| self.replay(self.selected[s], logits))
            .collect()
    }

    /// Re-rank signature tasks on a fresh batch (run at task start and
    /// after every aggregation, so selection tracks the moving model).
    fn reselect(&mut self, rng: &mut StdRng) {
        self.selected.clear();
        // No table, nothing to rank: no knowledge yet, no samples, k = 0.
        if self.teacher.is_empty() {
            return;
        }
        let (x, labels) = self.trainer.next_batch(rng);
        let (_, logits) = self.trainer.compute_grads_logits(&x, &labels);
        let g = self.trainer.model.flat_grads();
        // The probe forward/backward; each candidate's backward is
        // debited by `replay`.
        self.pending_flops += self.trainer.iteration_flops();
        let (restorer, k, metric) = (self.restorer, self.cfg.k, self.cfg.metric);
        let restored = (0..self.teacher.len()).map(|i| self.replay(i, &logits));
        self.selected = restorer.select_among(restored, &g, k, metric);
    }
}

impl FclClient for FedKnowClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.global_opt.reset();
        // A retained task's pseudo-labels on a training sample cannot
        // change while this task trains (the knowledge is frozen, the
        // data is fixed), so compute them once per sample here instead
        // of once per restore. Dropped by `finish_task`.
        self.teacher.clear();
        if self.cfg.k > 0 && !task.train.is_empty() {
            let shape = self.trainer.image_shape().to_vec();
            for knowledge in &self.knowledges {
                self.teacher.push(self.restorer.pseudo_label_table(
                    &mut self.trainer.model,
                    knowledge,
                    &task.train,
                    &shape,
                ));
            }
            self.pending_flops +=
                self.teacher.len() as u64 * self.trainer.model.flops(task.train.len());
        }
        self.reselect(rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels) = self.trainer.next_batch(rng);
        let (loss, logits) = self.trainer.compute_grads_logits(&x, &labels);
        let g = self.trainer.model.flat_grads();
        let update = if self.selected.is_empty() {
            g
        } else {
            let restored = self.replay_selected(&logits);
            self.integrator.integrate(&g, &restored)
        };
        let flops = self.trainer.iteration_flops() + self.pending_flops;
        self.pending_flops = 0;
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

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
        // Keep the pre-aggregation model for the cross-aggregation
        // integration, then adopt the global model.
        let local = self.trainer.model.flat_params();
        self.trainer.model.set_flat_params(global);
        if self.trainer.num_samples() > 0 {
            let epoch = self.trainer.num_samples().div_ceil(self.trainer.batch_size);
            let iters = self
                .cfg
                .post_agg_iters
                .map_or(epoch, |n| n.min(epoch.max(1)));
            for _ in 0..iters {
                let (x, labels) = self.trainer.next_batch(rng);
                // Gradient before aggregation (at the saved local
                // weights) first...
                let now = self.trainer.model.flat_params();
                self.trainer.model.set_flat_params(&local);
                self.trainer.compute_grads(&x, &labels);
                let g_before = self.trainer.model.flat_grads();
                // ...so that the gradient after aggregation (at the
                // adopted weights, same batch) is the forward the
                // signature-task restores replay.
                self.trainer.model.set_flat_params(&now);
                let (_, logits) = self.trainer.compute_grads_logits(&x, &labels);
                let g_after = self.trainer.model.flat_grads();
                // Constraints: the post-aggregation gradient (negative-
                // transfer prevention) plus the signature-task gradients
                // (the fine-tune must not undo forgetting prevention).
                let mut constraints = vec![g_after];
                constraints.extend(self.replay_selected(&logits));
                let update = self.integrator.integrate(&g_before, &constraints);
                let lr = self.global_opt.next_lr() as f32;
                self.trainer.model.apply_update(&update, lr);
                self.pending_flops += 2 * self.trainer.iteration_flops();
            }
        }
        // The model moved: refresh the signature selection.
        self.reselect(rng);
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        let (knowledge, flops) = self.extractor.extract_and_finetune(&mut self.trainer, rng);
        self.pending_flops += flops;
        if fedknow_obs::is_enabled() && !self.knowledges.is_empty() {
            let mut sum = 0.0f64;
            for prev in &self.knowledges {
                let j = knowledge.jaccard(prev);
                MASK_JACCARD_PM.record((j * 1000.0).round() as u64);
                sum += j;
            }
            // Indexed by the finished task, not the round: the overlap
            // trajectory is a per-task series.
            fedknow_obs::series_at(
                "extract.jaccard_mean",
                self.knowledges.len() as u64,
                sum / self.knowledges.len() as f64,
            );
        }
        self.knowledges.push(knowledge);
        self.selected.clear();
        self.teacher.clear();
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    fn retained_bytes(&self) -> u64 {
        self.knowledges.iter().map(|k| k.size_bytes() as u64).sum()
    }

    /// At a task boundary the FedKNOW state beyond the flat weights is
    /// the retained knowledge set and the pending-FLOPs debit (`selected`
    /// is cleared by `finish_task`, both optimisers reset at
    /// `start_task`). All of it is folded into the flat stream —
    /// integers as 16-bit limbs so every value survives an f32 (and
    /// JSON) round trip exactly.
    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        let weights = self.trainer.model.flat_params();
        let mut buf = Vec::with_capacity(weights.len() + 8);
        push_u32(&mut buf, weights.len() as u32);
        buf.extend_from_slice(&weights);
        push_u64(&mut buf, self.pending_flops);
        push_u32(&mut buf, self.knowledges.len() as u32);
        for k in &self.knowledges {
            push_u32(&mut buf, k.dense_len() as u32);
            push_u32(&mut buf, k.nnz() as u32);
            for &i in k.indices() {
                push_u32(&mut buf, i);
            }
            buf.extend_from_slice(k.values());
        }
        Some(buf)
    }

    fn restore_checkpoint(&mut self, params: &[f32], _rng: &mut StdRng) {
        let mut cur = CkCursor::new(params);
        let n = cur.u32() as usize;
        assert_eq!(
            n,
            self.trainer.model.flat_params().len(),
            "FedKNOW checkpoint was taken on a different architecture"
        );
        let weights = cur.slice(n).to_vec();
        self.trainer.model.set_flat_params(&weights);
        self.pending_flops = cur.u64();
        let tasks = cur.u32() as usize;
        self.knowledges.clear();
        for _ in 0..tasks {
            let dense_len = cur.u32() as usize;
            let nnz = cur.u32() as usize;
            let indices: Vec<u32> = (0..nnz).map(|_| cur.u32()).collect();
            let values = cur.slice(nnz).to_vec();
            self.knowledges
                .push(SparseVec::new(dense_len, indices, values));
        }
        self.selected.clear();
        self.teacher.clear();
    }

    fn method_name(&self) -> &'static str {
        "fedknow"
    }
}

/// Append a `u32` as two 16-bit limbs, each exactly representable as f32.
fn push_u32(buf: &mut Vec<f32>, v: u32) {
    buf.push((v & 0xFFFF) as f32);
    buf.push((v >> 16) as f32);
}

/// Append a `u64` as four 16-bit limbs.
fn push_u64(buf: &mut Vec<f32>, v: u64) {
    push_u32(buf, (v & 0xFFFF_FFFF) as u32);
    push_u32(buf, (v >> 32) as u32);
}

/// Sequential reader over the flat checkpoint stream.
struct CkCursor<'a> {
    data: &'a [f32],
    pos: usize,
}

impl<'a> CkCursor<'a> {
    fn new(data: &'a [f32]) -> Self {
        Self { data, pos: 0 }
    }

    fn slice(&mut self, n: usize) -> &'a [f32] {
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    fn u32(&mut self) -> u32 {
        let s = self.slice(2);
        (s[0] as u32) | ((s[1] as u32) << 16)
    }

    fn u64(&mut self) -> u64 {
        let lo = self.u32() as u64;
        let hi = self.u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn setup(tasks: usize) -> (FedKnowClient, Vec<ClientTask>) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(tasks);
        let data = generate(&spec, 3);
        let parts = partition(&data, 1, &PartitionConfig::default(), 3);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
        let cfg = FedKnowConfig {
            k: 2,
            knowledge_finetune_iters: 2,
            ..Default::default()
        };
        let client = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
        (client, parts[0].tasks.clone())
    }

    #[test]
    fn knowledge_accumulates_per_task() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(1);
        for t in &tasks {
            c.start_task(t, &mut rng);
            for _ in 0..4 {
                c.train_iteration(&mut rng);
            }
            c.finish_task(&mut rng);
        }
        assert_eq!(c.knowledges().len(), 2);
        let expected = ((c.trainer_mut().model.param_count() as f64) * 0.1).round() as usize;
        assert_eq!(c.knowledges()[0].nnz(), expected);
        assert!(c.retained_bytes() > 0);
    }

    #[test]
    fn second_task_uses_signature_selection() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(2);
        c.start_task(&tasks[0], &mut rng);
        assert!(
            c.selected().is_empty(),
            "no knowledge yet on the first task"
        );
        for _ in 0..4 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        c.start_task(&tasks[1], &mut rng);
        assert_eq!(c.selected().len(), 1, "one knowledge, k clamps to it");
        let stats = c.train_iteration(&mut rng);
        assert!(stats.flops > 0);
    }

    #[test]
    fn receive_global_adopts_and_fine_tunes() {
        let (mut c, tasks) = setup(1);
        let mut rng = seeded(3);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..3 {
            c.train_iteration(&mut rng);
        }
        let dim = c.upload().unwrap().len();
        let global = vec![0.01f32; dim];
        c.receive_global(&global, &mut rng);
        let after = c.upload().unwrap();
        // Fine-tuning moved the model off the raw global weights...
        assert_ne!(after, global);
        // ...but it stays near them (a couple of small steps).
        let dist: f32 = after
            .iter()
            .zip(&global)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist < 10.0, "model flew away from global: {dist}");
    }

    #[test]
    fn training_learns_first_task() {
        let (mut c, tasks) = setup(1);
        let mut rng = seeded(4);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..80 {
            c.train_iteration(&mut rng);
        }
        let acc = c.evaluate(&tasks[0]);
        let chance = 1.0 / tasks[0].classes.len() as f64;
        assert!(acc > 2.0 * chance, "accuracy {acc} vs chance {chance}");
    }

    #[test]
    fn checkpoint_roundtrip_restores_full_state() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(6);
        for t in &tasks {
            c.start_task(t, &mut rng);
            for _ in 0..4 {
                c.train_iteration(&mut rng);
            }
            c.finish_task(&mut rng);
        }
        let saved = c.checkpoint_params().unwrap();

        let (mut fresh, _) = setup(2);
        let mut scratch = seeded(99);
        fresh.restore_checkpoint(&saved, &mut scratch);
        assert_eq!(fresh.knowledges(), c.knowledges());
        assert_eq!(fresh.upload(), c.upload());
        for t in &tasks {
            assert_eq!(fresh.evaluate(t), c.evaluate(t));
        }
        // Re-checkpointing reproduces the stream bit-for-bit — the
        // pending-FLOPs debit and every limb survive the round trip.
        assert_eq!(fresh.checkpoint_params().unwrap(), saved);
    }

    #[test]
    fn teacher_tables_live_from_start_task_to_finish_task() {
        let (mut c, tasks) = setup(3);
        let mut rng = seeded(7);
        for (t, task) in tasks.iter().enumerate() {
            assert!(c.teacher.is_empty(), "no table outside a task");
            let before = c.retained_bytes();
            c.start_task(task, &mut rng);
            // One table per retained task, one row per training sample.
            assert_eq!(c.teacher.len(), t);
            for table in &c.teacher {
                assert_eq!(table.shape()[0], task.train.len());
            }
            assert_eq!(c.retained_bytes(), before, "a cache, not retained state");
            c.train_iteration(&mut rng);
            let global = c.upload().unwrap();
            c.receive_global(&global, &mut rng);
            assert_eq!(c.teacher.len(), t);
            c.finish_task(&mut rng);
        }
        assert!(c.teacher.is_empty());

        // A checkpoint restored in the middle of a task drops the table
        // with the selection; the next task start rebuilds both.
        let saved = c.checkpoint_params().unwrap();
        c.start_task(&tasks[0], &mut rng);
        assert_eq!(c.teacher.len(), 3);
        c.restore_checkpoint(&saved, &mut rng);
        assert!(c.teacher.is_empty());
        assert!(c.selected().is_empty());
        c.start_task(&tasks[0], &mut rng);
        assert_eq!(c.teacher.len(), 3);
        assert_eq!(c.selected().len(), 2);
    }

    #[test]
    fn nothing_to_restore_without_samples_or_with_k_zero() {
        let (mut c, mut tasks) = setup(2);
        let mut rng = seeded(8);
        c.start_task(&tasks[0], &mut rng);
        c.train_iteration(&mut rng);
        c.finish_task(&mut rng);
        // A task that lost all its samples: no table, no selection, and
        // training and aggregation stay harmless no-ops.
        tasks[1].train.clear();
        c.start_task(&tasks[1], &mut rng);
        assert!(c.teacher.is_empty() && c.selected().is_empty());
        assert_eq!(c.train_iteration(&mut rng).loss, 0.0);
        let global = c.upload().unwrap();
        c.receive_global(&global, &mut rng);
        assert!(c.teacher.is_empty() && c.selected().is_empty());
        assert_eq!(c.upload().unwrap(), global);

        // k = 0: knowledge is still retained, never restored from.
        let (mut c, tasks) = setup(2);
        c.cfg.k = 0;
        for task in &tasks {
            c.start_task(task, &mut rng);
            assert!(c.teacher.is_empty() && c.selected().is_empty());
            c.train_iteration(&mut rng);
            let global = c.upload().unwrap();
            c.receive_global(&global, &mut rng);
            assert!(c.teacher.is_empty() && c.selected().is_empty());
            c.finish_task(&mut rng);
        }
        assert_eq!(c.knowledges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "different architecture")]
    fn checkpoint_rejects_wrong_architecture() {
        let (mut c, _) = setup(1);
        let mut bad = Vec::new();
        push_u32(&mut bad, 3);
        bad.extend_from_slice(&[0.0, 0.0, 0.0]);
        push_u64(&mut bad, 0);
        push_u32(&mut bad, 0);
        c.restore_checkpoint(&bad, &mut seeded(1));
    }

    #[test]
    fn retained_bytes_scale_with_rho() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let data = generate(&spec, 3);
        let parts = partition(&data, 1, &PartitionConfig::default(), 3);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
        let mut sizes = Vec::new();
        for rho in [0.05, 0.10, 0.20] {
            let cfg = FedKnowConfig {
                rho,
                knowledge_finetune_iters: 0,
                ..Default::default()
            };
            let mut c = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
            let mut rng = seeded(5);
            c.start_task(&parts[0].tasks[0], &mut rng);
            c.train_iteration(&mut rng);
            c.finish_task(&mut rng);
            sizes.push(c.retained_bytes());
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }
}
