//! `FedKnowClient` restores by replaying one backward pass per signature
//! task over the batch's single training forward, against pseudo-labels
//! it computed once per training sample at task start. On a model
//! without BatchNorm that must be invisible: this file keeps the loop as
//! it was written before — every restore the one-shot public
//! `GradientRestorer::restore` (teacher forward, live forward, backward),
//! the post-aggregation gradient taken before the pre-aggregation one —
//! and checks the client against it bit for bit.

use fedknow::{
    FedKnowClient, FedKnowConfig, GradientIntegrator, GradientRestorer, KnowledgeExtractor,
};
use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, LocalTrainer, ModelTemplate};
use fedknow_math::distance::most_dissimilar;
use fedknow_math::rng::seeded;
use fedknow_math::SparseVec;
use fedknow_nn::optim::{LrSchedule, Sgd};
use fedknow_nn::ModelKind;
use rand::rngs::StdRng;

/// The FedKNOW client loop written against the one-shot restorer API.
struct Reference {
    trainer: LocalTrainer,
    cfg: FedKnowConfig,
    extractor: KnowledgeExtractor,
    integrator: GradientIntegrator,
    global_opt: Sgd,
    knowledges: Vec<SparseVec>,
    selected: Vec<usize>,
}

impl Reference {
    fn new(template: &ModelTemplate, cfg: FedKnowConfig, batch_size: usize) -> Self {
        let opt = Sgd::new(
            cfg.local_lr,
            LrSchedule::LinearDecrease {
                decrease: cfg.lr_decrease,
            },
        );
        Self {
            trainer: LocalTrainer::new(template.instantiate(), opt, batch_size, vec![3, 8, 8]),
            extractor: KnowledgeExtractor::with_strategy(
                cfg.rho,
                cfg.knowledge_finetune_iters,
                cfg.strategy,
            ),
            integrator: GradientIntegrator::new(cfg.margin),
            global_opt: Sgd::new(cfg.global_lr, LrSchedule::Inverse),
            cfg,
            knowledges: Vec::new(),
            selected: Vec::new(),
        }
    }

    fn reselect(&mut self, rng: &mut StdRng) {
        if self.knowledges.is_empty() || self.trainer.num_samples() == 0 {
            self.selected.clear();
            return;
        }
        // At most k tasks: all of them, in task order, with no probe.
        if self.knowledges.len() <= self.cfg.k {
            self.selected = (0..self.knowledges.len()).collect();
            return;
        }
        let (x, labels) = self.trainer.next_batch(rng);
        self.trainer.compute_grads(&x, &labels);
        let g = self.trainer.model.flat_grads();
        let candidates: Vec<Vec<f32>> = self
            .knowledges
            .iter()
            .map(|w| GradientRestorer.restore(&mut self.trainer.model, w, &x))
            .collect();
        self.selected = most_dissimilar(self.cfg.metric, &g, &candidates, self.cfg.k);
    }

    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.global_opt.reset();
        self.reselect(rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> f64 {
        let (x, labels) = self.trainer.next_batch(rng);
        let loss = self.trainer.compute_grads(&x, &labels);
        let g = self.trainer.model.flat_grads();
        let update = if self.selected.is_empty() {
            g
        } else {
            let restored: Vec<Vec<f32>> = self
                .selected
                .iter()
                .map(|&i| {
                    GradientRestorer.restore(&mut self.trainer.model, &self.knowledges[i], &x)
                })
                .collect();
            self.integrator.integrate(&g, &restored)
        };
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.apply_update(&update, lr);
        loss as f64
    }

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
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
                self.trainer.compute_grads(&x, &labels);
                let g_after = self.trainer.model.flat_grads();
                let now = self.trainer.model.flat_params();
                self.trainer.model.set_flat_params(&local);
                self.trainer.compute_grads(&x, &labels);
                let g_before = self.trainer.model.flat_grads();
                self.trainer.model.set_flat_params(&now);
                let mut constraints = vec![g_after];
                for &i in &self.selected {
                    constraints.push(GradientRestorer.restore(
                        &mut self.trainer.model,
                        &self.knowledges[i],
                        &x,
                    ));
                }
                let update = self.integrator.integrate(&g_before, &constraints);
                let lr = self.global_opt.next_lr() as f32;
                self.trainer.model.apply_update(&update, lr);
            }
        }
        self.reselect(rng);
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        let (knowledge, _) = self.extractor.extract_and_finetune(&mut self.trainer, rng);
        self.knowledges.push(knowledge);
        self.selected.clear();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn client_matches_the_one_shot_restore_loop_bit_for_bit() {
    let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(4);
    let data = generate(&spec, 3);
    let parts = partition(&data, 1, &PartitionConfig::default(), 3);
    let tasks = &parts[0].tasks;
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
    // k = 2 of up to three retained tasks, so the ranking decides.
    let cfg = FedKnowConfig {
        k: 2,
        knowledge_finetune_iters: 2,
        post_agg_iters: Some(2),
        ..Default::default()
    };
    let mut client = FedKnowClient::new(&template, cfg.clone(), 8, vec![3, 8, 8]);
    let mut reference = Reference::new(&template, cfg, 8);
    let (mut rng_c, mut rng_r) = (seeded(11), seeded(11));

    for (t, task) in tasks.iter().enumerate() {
        client.start_task(task, &mut rng_c);
        reference.start_task(task, &mut rng_r);
        assert_eq!(client.selected(), reference.selected, "task {t} start");
        assert_eq!(client.selected().len(), t.min(2));
        for round in 0..2 {
            for it in 0..3 {
                let loss = client.train_iteration(&mut rng_c).loss;
                let expected = reference.train_iteration(&mut rng_r);
                assert_eq!(
                    loss.to_bits(),
                    expected.to_bits(),
                    "task {t} round {round} iteration {it}: loss"
                );
            }
            let upload = client.upload().expect("FedKNOW uploads its weights");
            assert_eq!(
                bits(&upload),
                bits(&reference.trainer.model.flat_params()),
                "task {t} round {round}: upload"
            );
            // A stand-in aggregate: the upload pulled towards zero.
            let global: Vec<f32> = upload.iter().map(|w| 0.9 * w).collect();
            client.receive_global(&global, &mut rng_c);
            reference.receive_global(&global, &mut rng_r);
            assert_eq!(
                client.selected(),
                reference.selected,
                "task {t} round {round}: selection after aggregation"
            );
        }
        client.finish_task(&mut rng_c);
        reference.finish_task(&mut rng_r);
        assert_eq!(client.knowledges(), &reference.knowledges[..], "task {t}");
    }
    assert_eq!(
        bits(&client.upload().unwrap()),
        bits(&reference.trainer.model.flat_params())
    );
}
