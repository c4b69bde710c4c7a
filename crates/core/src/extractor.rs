//! Knowledge extractor (§III-B).
//!
//! Signature task knowledge is the top-ρ fraction of model weights by
//! magnitude (weight-based pruning, Eq. 1). Extraction is a three-step
//! process: (1) the task has already been trained to convergence by the
//! normal round loop; (2) select the top-ρ weights; (3) fine-tune *only*
//! the retained weights for a few iterations, leaving the rest untouched,
//! which recovers most of the pruned model's accuracy (the DSD/dense-
//! sparse-dense observation the paper cites).

use fedknow_fl::LocalTrainer;
use fedknow_math::SparseVec;
use fedknow_nn::model::ParamSegment;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// How the retained weights are chosen.
///
/// The paper's default is unstructured magnitude pruning, and §III-B
/// notes it is "feasible to extend the above knowledge extraction and
/// restoring process with structured pruning techniques such as L1-norm
/// or L2-norm filter pruning \[29\]" — both variants are provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractionStrategy {
    /// Unstructured: keep the top-ρ individual weights by |w| (Eq. 1).
    Magnitude,
    /// Structured: keep whole filters (rows of each weight tensor)
    /// ranked by L1 norm, until ρ of each tensor's weights are kept.
    FilterL1,
    /// Structured: like [`ExtractionStrategy::FilterL1`] with L2 norms.
    FilterL2,
}

/// Extracts and fine-tunes signature-task knowledge.
#[derive(Debug, Clone)]
pub struct KnowledgeExtractor {
    /// Fraction of weights retained.
    pub rho: f64,
    /// Fine-tuning iterations on the retained weights.
    pub finetune_iters: usize,
    /// Pruning flavour.
    pub strategy: ExtractionStrategy,
}

impl KnowledgeExtractor {
    /// New extractor with unstructured magnitude pruning (the paper's
    /// default).
    pub fn new(rho: f64, finetune_iters: usize) -> Self {
        Self::with_strategy(rho, finetune_iters, ExtractionStrategy::Magnitude)
    }

    /// New extractor with an explicit pruning strategy.
    pub fn with_strategy(rho: f64, finetune_iters: usize, strategy: ExtractionStrategy) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        Self {
            rho,
            finetune_iters,
            strategy,
        }
    }

    /// Step 2: select the top-ρ weights of the trained model
    /// (unstructured magnitude pruning).
    pub fn extract(&self, params: &[f32]) -> SparseVec {
        let kept = SparseVec::top_fraction_by_magnitude(params, self.rho);
        if fedknow_verify::is_enabled() {
            fedknow_verify::report(
                "extractor.dominance",
                fedknow_verify::check::top_rho_dominance(params, &kept),
            );
        }
        kept
    }

    /// Step 2 with layout awareness: dispatches on the configured
    /// strategy. Filter pruning keeps whole output filters (rows) of
    /// each rank-2 weight tensor; rank-1 tensors (biases, BN affine)
    /// fall back to magnitude selection within the tensor.
    pub fn extract_structured(&self, params: &[f32], layout: &[ParamSegment]) -> SparseVec {
        let _t = fedknow_obs::timer("extract.topk_ns");
        match self.strategy {
            ExtractionStrategy::Magnitude => self.extract(params),
            ExtractionStrategy::FilterL1 => self.extract_filters(params, layout, 1),
            ExtractionStrategy::FilterL2 => self.extract_filters(params, layout, 2),
        }
    }

    fn extract_filters(&self, params: &[f32], layout: &[ParamSegment], norm: u32) -> SparseVec {
        let covered: usize = layout.iter().map(|s| s.len).sum();
        assert_eq!(
            covered,
            params.len(),
            "layout does not tile the parameter vector"
        );
        let mut indices: Vec<u32> = Vec::new();
        for seg in layout {
            let slice = &params[seg.offset..seg.offset + seg.len];
            if seg.shape.len() == 2 && seg.shape[0] > 1 {
                // Rank filters (rows) by their norm; keep whole rows
                // until ρ of the tensor's weights are retained.
                let (rows, fan) = (seg.shape[0], seg.shape[1]);
                let mut scored: Vec<(usize, f64)> = (0..rows)
                    .map(|r| {
                        let row = &slice[r * fan..(r + 1) * fan];
                        let score = match norm {
                            1 => row.iter().map(|v| v.abs() as f64).sum::<f64>(),
                            _ => row.iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt(),
                        };
                        (r, score)
                    })
                    .collect();
                // A total order on the score's magnitude: a row holding
                // a NaN or infinity ranks above every finite row, as in
                // `SparseVec::top_k_by_magnitude`.
                scored.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
                let keep_rows =
                    (((seg.len as f64) * self.rho / fan as f64).round() as usize).clamp(1, rows);
                let mut kept: Vec<usize> =
                    scored.into_iter().take(keep_rows).map(|(r, _)| r).collect();
                kept.sort_unstable();
                for r in kept {
                    for i in 0..fan {
                        indices.push((seg.offset + r * fan + i) as u32);
                    }
                }
            } else {
                // Rank-1 tensors: within-tensor magnitude selection.
                let keep = ((seg.len as f64 * self.rho).round() as usize).clamp(1, seg.len);
                let local = SparseVec::top_k_by_magnitude(slice, keep);
                indices.extend(local.indices().iter().map(|&i| seg.offset as u32 + i));
            }
        }
        indices.sort_unstable();
        let values = indices.iter().map(|&i| params[i as usize]).collect();
        SparseVec::new(params.len(), indices, values)
    }

    /// Steps 2–3: extract, then fine-tune only the retained weights on
    /// the current task data (masked SGD — gradients outside the
    /// knowledge support are zeroed), and return the refreshed knowledge.
    ///
    /// The masking works on the model's gradient slot in place, so a
    /// fine-tune iteration copies nothing model-sized.
    ///
    /// Returns the extracted knowledge and the extra FLOPs spent.
    pub fn extract_and_finetune(
        &self,
        trainer: &mut LocalTrainer,
        rng: &mut StdRng,
    ) -> (SparseVec, u64) {
        let mut knowledge = self.extract_structured(trainer.model.params(), trainer.model.layout());
        if trainer.num_samples() == 0 {
            return (knowledge, 0);
        }
        let mut flops = 0u64;
        let _t = fedknow_obs::timer("extract.finetune_ns");
        for _ in 0..self.finetune_iters {
            let (x, labels) = trainer.next_batch(rng);
            trainer.compute_grads(&x, &labels);
            let (grads, _) = trainer.model.grad_slots_split();
            zero_off_support(grads, knowledge.indices());
            let lr = trainer.opt.current_lr() as f32;
            trainer.model.sgd_step(lr);
            flops += trainer.iteration_flops();
        }
        // Refresh the stored values from the fine-tuned model.
        knowledge.gather_from(trainer.model.params());
        (knowledge, flops)
    }
}

/// Zero every entry of `grads` outside the ascending index set `support`.
fn zero_off_support(grads: &mut [f32], support: &[u32]) {
    let mut next = 0;
    for &i in support {
        grads[next..i as usize].fill(0.0);
        next = i as usize + 1;
    }
    grads[next..].fill(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::optim::{LrSchedule, Sgd};
    use fedknow_nn::ModelKind;

    /// True at the positions `k` retains.
    pub(super) fn support_mask(k: &SparseVec) -> Vec<bool> {
        let mut mask = vec![false; k.dense_len()];
        for &i in k.indices() {
            mask[i as usize] = true;
        }
        mask
    }

    fn trainer_with_task() -> (LocalTrainer, fedknow_data::ClientTask) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let data = generate(&spec, 3);
        let parts = partition(&data, 1, &PartitionConfig::default(), 3);
        let mut rng = seeded(0);
        let model = ModelKind::SixCnn.build(&mut rng, 3, spec.total_classes(), 1.0);
        let t = LocalTrainer::new(
            model,
            Sgd::new(0.05, LrSchedule::Constant),
            8,
            vec![3, 8, 8],
        );
        (t, parts[0].tasks[0].clone())
    }

    #[test]
    fn extract_keeps_rho_fraction() {
        let ex = KnowledgeExtractor::new(0.1, 0);
        let (mut trainer, _) = trainer_with_task();
        let params = trainer.model.flat_params();
        let k = ex.extract(&params);
        let expected = ((params.len() as f64) * 0.1).round() as usize;
        assert_eq!(k.nnz(), expected);
        assert_eq!(k.dense_len(), params.len());
    }

    #[test]
    fn finetune_only_touches_retained_weights() {
        let ex = KnowledgeExtractor::new(0.1, 3);
        let (mut trainer, task) = trainer_with_task();
        let mut rng = seeded(5);
        trainer.set_task(&task, &mut rng);
        let before = trainer.model.flat_params();
        let (knowledge, flops) = ex.extract_and_finetune(&mut trainer, &mut rng);
        let after = trainer.model.flat_params();
        let mask = support_mask(&knowledge);
        let mut touched = 0usize;
        for i in 0..before.len() {
            if mask[i] {
                if before[i] != after[i] {
                    touched += 1;
                }
            } else {
                assert_eq!(
                    before[i], after[i],
                    "pruned weight {i} moved during fine-tune"
                );
            }
        }
        assert!(touched > 0, "fine-tune changed nothing");
        assert!(flops > 0);
    }

    #[test]
    fn knowledge_values_reflect_finetuned_model() {
        let ex = KnowledgeExtractor::new(0.2, 2);
        let (mut trainer, task) = trainer_with_task();
        let mut rng = seeded(6);
        trainer.set_task(&task, &mut rng);
        let (knowledge, _) = ex.extract_and_finetune(&mut trainer, &mut rng);
        let params = trainer.model.flat_params();
        for (&i, &v) in knowledge.indices().iter().zip(knowledge.values()) {
            assert_eq!(v, params[i as usize], "stored value is stale");
        }
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn zero_rho_rejected() {
        let _ = KnowledgeExtractor::new(0.0, 0);
    }
}

#[cfg(test)]
mod structured_tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    #[test]
    fn filter_pruning_keeps_whole_rows() {
        let mut rng = seeded(1);
        let mut model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let params = model.flat_params();
        let layout = model.layout().to_vec();
        let ex = KnowledgeExtractor::with_strategy(0.2, 0, ExtractionStrategy::FilterL1);
        let k = ex.extract_structured(&params, &layout);
        // Every rank-2 segment's retained indices must form complete rows.
        let mask = tests::support_mask(&k);
        for seg in &layout {
            if seg.shape.len() == 2 && seg.shape[0] > 1 {
                let fan = seg.shape[1];
                for r in 0..seg.shape[0] {
                    let row = &mask[seg.offset + r * fan..seg.offset + (r + 1) * fan];
                    let kept = row.iter().filter(|&&m| m).count();
                    assert!(
                        kept == 0 || kept == fan,
                        "partial filter retained in {} (row {r}: {kept}/{fan})",
                        seg.name
                    );
                }
            }
        }
        assert!(k.nnz() > 0);
    }

    #[test]
    fn l1_and_l2_strategies_can_differ() {
        // A crafted 2-row tensor where L1 and L2 rank rows differently:
        // row 0 = many small values (large L1, small L2),
        // row 1 = one big value (small L1, large L2).
        let params = vec![0.5, 0.5, 0.5, 0.5, 1.2, 0.0, 0.0, 0.0];
        let layout = vec![fedknow_nn::model::ParamSegment {
            name: "linear.weight".into(),
            offset: 0,
            len: 8,
            shape: vec![2, 4],
        }];
        let l1 = KnowledgeExtractor::with_strategy(0.5, 0, ExtractionStrategy::FilterL1)
            .extract_structured(&params, &layout);
        let l2 = KnowledgeExtractor::with_strategy(0.5, 0, ExtractionStrategy::FilterL2)
            .extract_structured(&params, &layout);
        // ρ=0.5 keeps one row of two. L1: row 0 (sum 2.0 > 1.2);
        // L2: row 1 (norm 1.2 > 1.0).
        assert_eq!(l1.indices(), &[0, 1, 2, 3]);
        assert_eq!(l2.indices(), &[4, 5, 6, 7]);
    }

    #[test]
    fn filter_pruning_ranks_non_finite_rows_first() {
        // 12 filters of 4 weights; rows 1, 4, 7 and 10 hold a NaN (of
        // either sign) or an infinity. ρ = 0.5 keeps six rows: the four
        // non-finite ones and the two largest finite ones (rows 11, 9).
        let mut params: Vec<f32> = (0..48).map(|i| (i / 4) as f32 * 0.25 + 0.1).collect();
        params[4 + 2] = f32::NAN;
        params[16] = -f32::NAN;
        params[28 + 3] = f32::INFINITY;
        params[40 + 1] = f32::NEG_INFINITY;
        let layout = vec![fedknow_nn::model::ParamSegment {
            name: "conv.weight".into(),
            offset: 0,
            len: 48,
            shape: vec![12, 4],
        }];
        let rows = [1, 4, 7, 9, 10, 11];
        let want: Vec<u32> = rows
            .iter()
            .flat_map(|r| (4 * r..4 * r + 4).map(|i| i as u32))
            .collect();
        for strat in [ExtractionStrategy::FilterL1, ExtractionStrategy::FilterL2] {
            let k = KnowledgeExtractor::with_strategy(0.5, 0, strat)
                .extract_structured(&params, &layout);
            assert_eq!(k.indices(), want.as_slice(), "{strat:?}");
        }
    }

    #[test]
    fn magnitude_strategy_matches_unstructured_extract() {
        let mut rng = seeded(2);
        let mut model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let params = model.flat_params();
        let layout = model.layout().to_vec();
        let ex = KnowledgeExtractor::new(0.1, 0);
        assert_eq!(ex.extract_structured(&params, &layout), ex.extract(&params));
    }

    #[test]
    fn structured_retention_close_to_rho() {
        let mut rng = seeded(3);
        let mut model = ModelKind::ResNet18.build(&mut rng, 3, 10, 1.0);
        let params = model.flat_params();
        let layout = model.layout().to_vec();
        for strat in [ExtractionStrategy::FilterL1, ExtractionStrategy::FilterL2] {
            let ex = KnowledgeExtractor::with_strategy(0.1, 0, strat);
            let k = ex.extract_structured(&params, &layout);
            let frac = k.nnz() as f64 / params.len() as f64;
            assert!((0.05..0.25).contains(&frac), "{strat:?} kept {frac}");
        }
    }
}
