//! Gradient restorer (§III-C).
//!
//! Restores a previous task's gradient *without its training samples*
//! (Eq. 2): the model restricted to the task's signature knowledge `W_i`
//! predicts pseudo-labels on the *current* task's batch, and the restored
//! gradient is ∇ of the cross-entropy between the live model's
//! predictions and those pseudo-labels — the direction that keeps the
//! live model consistent with what task `i` knew.
//!
//! Every restored gradient of a batch differentiates the same training
//! forward, so they share one backward pass: the k distillation
//! gradients at the output are stacked into slots (see
//! `fedknow_nn::Layer::backward`), behind the training loss's own
//! gradient when the caller has one, and the network is walked once.
//! Every slot's result is bit-identical to a backward of it alone, and
//! stays in the model's gradient slab, where the caller borrows it.

use fedknow_data::{to_tensor, Sample};
use fedknow_math::distance::{most_dissimilar, DistanceMetric};
use fedknow_math::{SparseVec, Tensor};
use fedknow_nn::loss::soft_cross_entropy;
use fedknow_nn::Model;

/// Mean Shannon entropy (nats) of the rows of a `[n, c]` distribution.
fn mean_row_entropy(dist: &Tensor) -> f64 {
    let rows = dist.shape().first().copied().unwrap_or(0);
    if rows == 0 {
        return 0.0;
    }
    let cols = dist.data().len() / rows;
    let mut total = 0.0f64;
    for row in dist.data().chunks_exact(cols) {
        total -= row
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p as f64 * (p as f64).ln())
            .sum::<f64>();
    }
    total / rows as f64
}

/// Restores past-task gradients from retained knowledge.
///
/// Eq. 2 is three steps, each one method: the pruned snapshot's
/// `pseudo_labels` on a batch, the live model's
/// training forward on it, and a [`replay`](Self::replay) of the
/// backward pass against those labels — one pass for every task's labels
/// at once. [`restore`](Self::restore) runs all three for one task; a
/// caller that already holds the batch's logits (it just trained on it)
/// and the labels (they cannot change while the task's data and the
/// knowledge stay put) calls `replay` alone, stacking its training
/// gradient in front.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientRestorer;

impl GradientRestorer {
    /// The pseudo-label distribution `[B, C]` task `i`'s knowledge
    /// predicts on the batch `x`.
    ///
    /// The model's parameters are swapped with the dense expansion of
    /// `knowledge` (retained weights keep their value, pruned ones are
    /// zero) for one eval-mode forward (no caches, running BN
    /// statistics) and swapped back on exit. Eval-mode rows are
    /// independent of each other, so a sample's row does not depend on
    /// the batch it is forwarded in.
    fn pseudo_labels(&self, model: &mut Model, knowledge: &SparseVec, x: &Tensor) -> Tensor {
        let _t = fedknow_obs::timer("restore.teacher_ns");
        assert_eq!(
            knowledge.dense_len(),
            model.param_count(),
            "knowledge/model size mismatch"
        );
        let mut teacher = knowledge.to_dense();
        model.swap_params(&mut teacher);
        let target = model.forward(x.clone(), false).softmax_rows();
        model.swap_params(&mut teacher);
        target
    }

    /// `pseudo_labels` on every sample of a
    /// task's training set, `[N, C]` with row `j` for `samples[j]`,
    /// forwarded in chunks of at most 64 to bound activation memory.
    pub fn pseudo_label_table(
        &self,
        model: &mut Model,
        knowledge: &SparseVec,
        samples: &[Sample],
        image_shape: &[usize],
    ) -> Tensor {
        let classes = model.num_classes();
        let mut rows = Vec::with_capacity(samples.len() * classes);
        for chunk in samples.chunks(64) {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (x, _) = to_tensor(&refs, image_shape);
            rows.extend_from_slice(self.pseudo_labels(model, knowledge, &x).data());
        }
        Tensor::from_vec(rows, &[samples.len(), classes])
    }

    /// The restored gradients of the pseudo-label distributions
    /// `targets`: ∇ of the cross-entropy between `logits` and each
    /// target, all from one backward pass over the activations the
    /// training forward that produced `logits` left in `model`. That
    /// forward must be the model's most recent one, at its current
    /// weights.
    ///
    /// Every gradient stays in the model's gradient slab: target `i`'s in
    /// [`Model::grad_slot`]`(i)`, or `(i + 1)` with `lead`, an output
    /// gradient of the same forward (the training loss's) whose parameter
    /// gradient is then slot 0.
    pub fn replay(
        &self,
        model: &mut Model,
        logits: &Tensor,
        lead: Option<Tensor>,
        targets: &[Tensor],
    ) {
        let _t = fedknow_obs::timer("restore.distill_ns");
        model.zero_grad();
        let (rows, cols) = (logits.shape()[0], logits.shape()[1]);
        let slots = usize::from(lead.is_some()) + targets.len();
        let mut stacked = Vec::with_capacity(slots * rows * cols);
        if let Some(grad) = &lead {
            stacked.extend_from_slice(grad.data());
        }
        for target in targets {
            stacked.extend_from_slice(distill_grad(logits, target).data());
        }
        model.backward(Tensor::from_vec(stacked, &[slots * rows, cols]));
    }

    /// Restore task `i`'s gradient on the batch `x` (Eq. 2): the
    /// gradient at the *current* weights against the distribution
    /// `knowledge` predicts. Parameters are as they were on exit, and the
    /// gradient slots are zero; a BatchNorm model's running statistics
    /// advance by the one training forward.
    pub fn restore(&self, model: &mut Model, knowledge: &SparseVec, x: &Tensor) -> Vec<f32> {
        let target = self.pseudo_labels(model, knowledge, x);
        let logits = model.forward(x.clone(), true);
        self.replay(model, &logits, None, &[target]);
        let restored = model.grad_slot(0).to_vec();
        model.zero_grad();
        restored
    }

    /// Rank restored gradients: the indices of the `k` of them most
    /// dissimilar from `current_grad` (the signature tasks, §III-C).
    /// `restored` holds one gradient per retained task, in task order
    /// (owned vectors, or slots borrowed from a model's gradient slab).
    pub fn select_among<C: AsRef<[f32]>>(
        &self,
        restored: &[C],
        current_grad: &[f32],
        k: usize,
        metric: DistanceMetric,
    ) -> Vec<usize> {
        if k == 0 {
            return Vec::new();
        }
        let _t = fedknow_obs::timer("restore.select_ns");
        most_dissimilar(metric, current_grad, restored, k)
    }

    /// Restore gradients for every knowledge entry and rank them: returns
    /// the indices of the `k` tasks whose restored gradients are most
    /// dissimilar from `current_grad` (the signature tasks, §III-C). All
    /// candidates are restored at the same weights on the same batch, so
    /// they share one live forward and one backward pass, and are ranked
    /// where they lie: candidate `i`'s gradient is in gradient slot `i`
    /// on exit.
    pub fn select_signature_tasks(
        &self,
        model: &mut Model,
        knowledges: &[SparseVec],
        x: &Tensor,
        current_grad: &[f32],
        k: usize,
        metric: DistanceMetric,
    ) -> Vec<usize> {
        if knowledges.is_empty() || k == 0 {
            return Vec::new();
        }
        let targets: Vec<Tensor> = knowledges
            .iter()
            .map(|w| self.pseudo_labels(model, w, x))
            .collect();
        let logits = model.forward(x.clone(), true);
        self.replay(model, &logits, None, &targets);
        let restored: Vec<&[f32]> = (0..targets.len()).map(|i| model.grad_slot(i)).collect();
        self.select_among(&restored, current_grad, k, metric)
    }
}

/// Eq. 2's output gradient for one target — the soft cross-entropy's
/// gradient at `logits` — with the per-target verify check and
/// distillation telemetry.
fn distill_grad(logits: &Tensor, target: &Tensor) -> Tensor {
    let (loss, grad) = soft_cross_entropy(logits, target);
    if fedknow_verify::is_enabled() {
        let (rows, cols) = (logits.shape()[0], logits.shape()[1]);
        fedknow_verify::report(
            "restorer.grad_rows",
            fedknow_verify::check::grad_rows_sum_zero(grad.data(), rows, cols),
        );
    }
    if fedknow_obs::is_enabled() {
        // Eq. 2's CE between live predictions and pseudo-labels, and the
        // mean pseudo-label entropy, both in milli-nats: high entropy
        // means the pruned teacher is uncertain and its restored
        // gradient carries little signal.
        let mnat = |x: f64| (x.max(0.0) * 1000.0).round() as u64;
        fedknow_obs::record("restore.distill_loss_mnat", mnat(loss as f64));
        let entropy = mean_row_entropy(target);
        fedknow_obs::record("restore.pseudo_entropy_mnat", mnat(entropy));
        fedknow_obs::series("restore.distill_loss", loss as f64);
        fedknow_obs::series("restore.pseudo_entropy", entropy);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::{normal_vec, seeded};
    use fedknow_nn::ModelKind;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn model_and_batch() -> (Model, Tensor) {
        let mut rng = seeded(1);
        let model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let x = Tensor::from_vec(normal_vec(&mut rng, 4 * 3 * 8 * 8, 0.0, 1.0), &[4, 3, 8, 8]);
        (model, x)
    }

    #[test]
    fn row_entropy_spans_one_hot_to_uniform() {
        let one_hot = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        assert_eq!(mean_row_entropy(&one_hot), 0.0);
        let uniform = Tensor::from_vec(vec![0.25; 4], &[1, 4]);
        assert!((mean_row_entropy(&uniform) - 4.0f64.ln()).abs() < 1e-9);
        let mixed = Tensor::from_vec(vec![1.0, 0.0, 0.5, 0.5], &[2, 2]);
        assert!((mean_row_entropy(&mixed) - 2.0f64.ln() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn restore_leaves_model_untouched() {
        let (mut model, x) = model_and_batch();
        let before = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&before, 0.1);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        assert_eq!(
            model.flat_params(),
            before,
            "restore must not mutate parameters"
        );
        assert!(
            model.flat_grads().iter().all(|&v| v == 0.0),
            "grad buffers must be cleared"
        );
        assert_eq!(g.len(), before.len());
    }

    #[test]
    fn restore_is_pseudo_labels_then_forward_then_replay() {
        let (mut model, x) = model_and_batch();
        let before = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&before, 0.1);
        let one_shot = GradientRestorer.restore(&mut model, &knowledge, &x);

        let target = GradientRestorer.pseudo_labels(&mut model, &knowledge, &x);
        assert_eq!(model.flat_params(), before, "teacher weights must not stay");
        let logits = model.forward(x.clone(), true);
        // Any number of replays over the one forward, all the same.
        for _ in 0..2 {
            GradientRestorer.replay(&mut model, &logits, None, std::slice::from_ref(&target));
            assert_eq!(bits(model.grad_slot(0)), bits(&one_shot));
            assert_eq!(model.flat_params(), before);
        }
    }

    #[test]
    fn one_replay_of_many_targets_behind_a_lead_is_each_backward_alone() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let targets: Vec<Tensor> = (1..=3)
            .map(|i| {
                let w = SparseVec::top_fraction_by_magnitude(&params, 0.05 * i as f64);
                GradientRestorer.pseudo_labels(&mut model, &w, &x)
            })
            .collect();
        let logits = model.forward(x.clone(), true);
        let lead = Tensor::from_vec(normal_vec(&mut seeded(4), logits.len(), 0.0, 0.1), &[4, 10]);
        // Each gradient by a backward of its own over the one forward.
        let alone: Vec<Vec<f32>> = targets
            .iter()
            .map(|t| {
                GradientRestorer.replay(&mut model, &logits, None, std::slice::from_ref(t));
                model.flat_grads()
            })
            .collect();
        model.zero_grad();
        model.backward(lead.clone());
        let lead_grad = model.flat_grads();

        GradientRestorer.replay(&mut model, &logits, Some(lead), &targets);
        for (i, want) in alone.iter().enumerate() {
            assert_eq!(bits(model.grad_slot(i + 1)), bits(want));
        }
        assert_eq!(
            bits(model.grad_slot(0)),
            bits(&lead_grad),
            "the lead's gradient is slot 0"
        );
    }

    #[test]
    fn table_rows_gathered_by_index_are_the_batch_pseudo_labels() {
        let (mut model, _) = model_and_batch();
        let mut rng = seeded(2);
        // 70 samples: two chunks of the table build.
        let samples: Vec<Sample> = (0..70)
            .map(|i| Sample {
                x: normal_vec(&mut rng, 3 * 8 * 8, 0.0, 1.0),
                label: i % 10,
            })
            .collect();
        let knowledge = SparseVec::top_fraction_by_magnitude(&model.flat_params(), 0.1);
        let table =
            GradientRestorer.pseudo_label_table(&mut model, &knowledge, &samples, &[3, 8, 8]);
        assert_eq!(table.shape(), &[70, 10]);
        let idx = [69usize, 3, 64, 63, 0, 3, 17, 40];
        let refs: Vec<&Sample> = idx.iter().map(|&i| &samples[i]).collect();
        let (x, _) = to_tensor(&refs, &[3, 8, 8]);
        let direct = GradientRestorer.pseudo_labels(&mut model, &knowledge, &x);
        let gathered = table.gather_rows(&idx);
        assert_eq!(gathered.shape(), direct.shape());
        assert_eq!(bits(gathered.data()), bits(direct.data()));
    }

    #[test]
    fn full_knowledge_restores_near_zero_gradient() {
        // If the knowledge is the *entire* model, teacher and student
        // agree (up to BN train/eval differences in deeper nets; SixCnn
        // has no BN), so the distillation gradient is ~zero.
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&params, 1.0);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm < 1e-3,
            "self-distillation gradient should vanish, got {norm}"
        );
    }

    #[test]
    fn partial_knowledge_restores_nonzero_gradient() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&params, 0.05);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(norm > 1e-4, "pruned teacher should disagree, got {norm}");
    }

    #[test]
    fn selection_returns_k_distinct_indices() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledges: Vec<SparseVec> = (1..=4)
            .map(|i| SparseVec::top_fraction_by_magnitude(&params, 0.02 * i as f64))
            .collect();
        let current = vec![0.01f32; params.len()];
        let sel = GradientRestorer.select_signature_tasks(
            &mut model,
            &knowledges,
            &x,
            &current,
            2,
            DistanceMetric::Wasserstein,
        );
        assert_eq!(sel.len(), 2);
        assert_ne!(sel[0], sel[1]);
        assert!(sel.iter().all(|&i| i < 4));
    }

    #[test]
    fn selection_ranks_what_restore_returns() {
        // One live forward shared by all candidates changes nothing.
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledges: Vec<SparseVec> = (1..=4)
            .map(|i| SparseVec::top_fraction_by_magnitude(&params, 0.02 * i as f64))
            .collect();
        let current = normal_vec(&mut seeded(3), params.len(), 0.0, 0.01);
        let restored: Vec<Vec<f32>> = knowledges
            .iter()
            .map(|w| GradientRestorer.restore(&mut model, w, &x))
            .collect();
        for metric in [DistanceMetric::Wasserstein, DistanceMetric::Cosine] {
            let sel = GradientRestorer.select_signature_tasks(
                &mut model,
                &knowledges,
                &x,
                &current,
                3,
                metric,
            );
            assert_eq!(sel, most_dissimilar(metric, &current, &restored, 3));
        }
        assert_eq!(model.flat_params(), params);
    }

    #[test]
    fn selection_handles_empty_and_oversized_k() {
        let (mut model, x) = model_and_batch();
        let current = vec![0.0f32; model.param_count()];
        let none = GradientRestorer.select_signature_tasks(
            &mut model,
            &[],
            &x,
            &current,
            5,
            DistanceMetric::Cosine,
        );
        assert!(none.is_empty());
        let params = model.flat_params();
        let ks = vec![SparseVec::top_fraction_by_magnitude(&params, 0.1)];
        let sel = GradientRestorer.select_signature_tasks(
            &mut model,
            &ks,
            &x,
            &current,
            5,
            DistanceMetric::Cosine,
        );
        assert_eq!(sel, vec![0]);
    }
}
