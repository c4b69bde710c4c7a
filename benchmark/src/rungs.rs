//! The rung table: one public call per layer, timed at exactly the
//! shapes the workload runs.
//!
//! A fixture FedKNOW client is trained through `min(k, tasks - 1)` tasks
//! via the public `FclClient` trait, so the model, batch, knowledge set
//! and gradients every rung sees are the ones a real round produces.

use crate::report::Metric;
use crate::stats::median;
use crate::workloads::{make_data, template, SetupTimes, Workload};
use fedknow::{FedKnowClient, GradientIntegrator, GradientRestorer, KnowledgeExtractor};
use fedknow_baselines::{build_client, Method};
use fedknow_data::{to_tensor, Batcher, ClientTask, Sample};
use fedknow_fl::proto::{decode_msg, encode_msg};
use fedknow_fl::{framing, server, FclClient, UploadMeta, WireMsg};
use fedknow_math::qp::{integrate_gradient, QpConfig};
use fedknow_math::rng::{normal_vec, seeded};
use fedknow_math::{distance, flops, gemm, MathError, SparseVec};
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::{Model, ModelKind};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;
use Dim::{Ch, Classes, Image};

/// Distinct batches the QP rung draws, so the unconverged share is a
/// share of different problems.
const QP_BATCHES: usize = 10;

/// How often a rung is called.
#[derive(Debug, Clone, Copy)]
struct Calls {
    /// Calls discarded before timing.
    warmups: usize,
    /// Timed calls; the rung reports their median.
    timed: usize,
    /// A rung stops early once it has timed `MIN_TIMED` calls and spent
    /// this many seconds: the wide model's slowest rungs (a 2.8 M-value
    /// sort, a full restore) take 0.1-0.4 s a call.
    cap_s: f64,
}

/// Fewest calls a rung's median is taken over.
const MIN_TIMED: usize = 5;

impl Calls {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                warmups: 0,
                timed: 1,
                cap_s: 0.0,
            }
        } else {
            Self {
                warmups: 3,
                timed: 30,
                cap_s: 1.0,
            }
        }
    }

    /// Median seconds of a call of `f`.
    fn time<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        for _ in 0..self.warmups {
            black_box(f());
        }
        let start = Instant::now();
        let mut samples = Vec::with_capacity(self.timed);
        while samples.len() < self.timed
            && (samples.len() < MIN_TIMED.min(self.timed)
                || start.elapsed().as_secs_f64() < self.cap_s)
        {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed().as_secs_f64());
        }
        median(&samples)
    }
}

/// A channel count in a shape table.
#[derive(Debug, Clone, Copy)]
enum Dim {
    /// Base width, scaled by the model's width multiplier.
    Ch(usize),
    /// The image's channels.
    Image,
    /// The dataset's total class count.
    Classes,
}

/// One weight tensor of a model, as the GEMM it lowers to.
#[derive(Debug, Clone, Copy)]
struct GemmRow {
    out: Dim,
    cin: Dim,
    /// Kernel taps (`k * k`); 1 for a linear layer.
    taps: usize,
    /// Output side is the image side over this; 0 marks a linear layer.
    down: usize,
}

const fn conv(cin: Dim, out: Dim, taps: usize, down: usize) -> GemmRow {
    GemmRow {
        out,
        cin,
        taps,
        down,
    }
}

const fn linear(cin: Dim, out: Dim) -> GemmRow {
    GemmRow {
        out,
        cin,
        taps: 1,
        down: 0,
    }
}

/// `SixCnn`: four 3x3 convolutions (two per resolution) and two linear
/// layers, in `Model::layout()` order.
const SIX_CNN: [GemmRow; 6] = [
    conv(Image, Ch(8), 9, 1),
    conv(Ch(8), Ch(8), 9, 1),
    conv(Ch(8), Ch(16), 9, 2),
    conv(Ch(16), Ch(16), 9, 2),
    linear(Ch(16), Ch(32)),
    linear(Ch(32), Classes),
];

/// One ResNet-18 stage after the first: a strided block with a 1x1
/// projection shortcut, then a plain block.
const fn stage(cin: usize, c: usize, down: usize) -> [GemmRow; 5] {
    [
        conv(Ch(cin), Ch(c), 9, down),
        conv(Ch(c), Ch(c), 9, down),
        conv(Ch(cin), Ch(c), 1, down),
        conv(Ch(c), Ch(c), 9, down),
        conv(Ch(c), Ch(c), 9, down),
    ]
}

/// `ResNet18`: stem, four stages of two basic blocks, linear head, in
/// `Model::layout()` order (a block's shortcut follows its main path).
fn resnet18_rows() -> Vec<GemmRow> {
    let mut rows = vec![conv(Image, Ch(8), 9, 1)];
    rows.extend([conv(Ch(8), Ch(8), 9, 1); 4]);
    rows.extend(stage(8, 16, 2));
    rows.extend(stage(16, 32, 4));
    rows.extend(stage(32, 64, 8));
    rows.push(linear(Ch(64), Classes));
    rows
}

/// A GEMM the workload's model performs: `count` products of
/// `[m, k] x [k, n]` per forward pass of one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of the left operand.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of the right operand.
    pub n: usize,
    /// Products of this shape per batch.
    pub count: usize,
    /// `[out, fan]` of the weight tensor this GEMM reads.
    pub weight: [usize; 2],
}

/// The workload model's forward GEMMs at batch `batch`. A convolution
/// is one `[out, fan] x [fan, oh * ow]` product per sample; a linear
/// layer is one `[batch, in] x [in, out]` product.
pub fn gemm_shapes(w: &Workload, batch: usize) -> Result<Vec<GemmShape>, String> {
    let rows = match w.spec.model {
        ModelKind::SixCnn => SIX_CNN.to_vec(),
        ModelKind::ResNet18 => resnet18_rows(),
        other => return Err(format!("no GEMM shape table for {}", other.name())),
    };
    let d = &w.spec.dataset;
    let dim = |x: Dim| match x {
        // The zoo's own rounding of a scaled width.
        Ch(base) => ((base as f64 * w.spec.width).round() as usize).max(1),
        Image => d.channels,
        Classes => d.total_classes(),
    };
    Ok(rows
        .iter()
        .map(|r| {
            let (out, fan) = (dim(r.out), dim(r.cin) * r.taps);
            if r.down == 0 {
                GemmShape {
                    m: batch,
                    k: fan,
                    n: out,
                    count: 1,
                    weight: [out, fan],
                }
            } else {
                let side = d.height.div_ceil(r.down);
                GemmShape {
                    m: out,
                    k: fan,
                    n: side * side,
                    count: batch,
                    weight: [out, fan],
                }
            }
        })
        .collect())
}

/// Assert the shape table against the model the workload builds: every
/// 2-D weight in `Model::layout()`, in order, must be the `[out, fan]`
/// the table says. A mismatch means the model zoo moved and the GEMM
/// rung would benchmark shapes nothing runs any more.
pub fn check_shape_table(w: &Workload, model: &Model) -> Result<(), String> {
    let table: Vec<[usize; 2]> = gemm_shapes(w, 1)?.iter().map(|s| s.weight).collect();
    let built: Vec<[usize; 2]> = model
        .layout()
        .iter()
        .filter(|seg| seg.shape.len() == 2)
        .map(|seg| [seg.shape[0], seg.shape[1]])
        .collect();
    if table == built {
        Ok(())
    } else {
        Err(format!(
            "GEMM shape table for {} w{} drifted from Model::layout(): table {table:?}, model {built:?}",
            w.spec.model.name(),
            w.spec.width
        ))
    }
}

/// Drive `client` through `task` for `iters` iterations via the trait.
fn learn(client: &mut dyn FclClient, task: &ClientTask, iters: usize, rng: &mut StdRng) {
    client.start_task(task, rng);
    for _ in 0..iters {
        client.train_iteration(rng);
    }
    client.finish_task(rng);
}

/// Every rung of the table for one workload. `setups` are the set-up
/// timings the traced runs collected.
pub fn measure(w: &Workload, setups: &[SetupTimes], smoke: bool) -> Result<Vec<Metric>, String> {
    let calls = Calls::new(smoke);
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| out.push(Metric::single(name, value, unit));
    let (ms, us) = (1e3, 1e6);
    let mut rng = seeded(w.spec.seed ^ 0x0B5E);

    // data, suite: the set-up steps of the traced runs.
    let col = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    put("data.generate_ms", col(|s| s.generate) * ms, "ms");
    put("data.partition_ms", col(|s| s.partition) * ms, "ms");
    put("suite.assemble_ms", col(|s| s.assemble) * ms, "ms");

    // The fixture: client 0's task stream, a FedKNOW client with
    // `retained` tasks of knowledge, positioned at the start of the
    // next task.
    let tasks = make_data(w, &mut SetupTimes::default())
        .swap_remove(0)
        .tasks;
    // The FedKNOW configuration `build_client` would hand the client.
    let cfg = &w.spec.method_cfg;
    let fk_cfg = fedknow::FedKnowConfig {
        local_lr: cfg.lr,
        global_lr: cfg.lr,
        lr_decrease: cfg.lr_decrease,
        ..cfg.fedknow.clone()
    };
    let retained = fk_cfg.k.min(tasks.len() - 1).max(1);
    let current = &tasks[retained.min(tasks.len() - 1)];
    let tpl = template(w);
    let shape = w.image_shape();
    let batch_size = w.spec.method_cfg.batch_size;
    let new_fedknow = || FedKnowClient::new(&tpl, fk_cfg.clone(), batch_size, shape.clone());
    let iters = w.spec.iters_per_round * w.spec.rounds_per_task;
    let mut fixture = new_fedknow();
    for task in &tasks[..retained] {
        learn(&mut fixture, task, iters, &mut rng);
    }
    fixture.start_task(current, &mut rng);
    put(
        "core.retained_kb_per_task",
        fixture.retained_bytes() as f64 / retained as f64 / 1024.0,
        "KB",
    );

    // data: one training batch, index draw plus tensor assembly.
    let train: &[Sample] = &current.train;
    let mut batcher = Batcher::new(&mut rng, train.len(), batch_size);
    put(
        "data.batch_us",
        calls.time(|| {
            let refs: Vec<&Sample> = batcher
                .next_batch(&mut rng)
                .iter()
                .map(|&i| &train[i])
                .collect();
            to_tensor(&refs, &shape)
        }) * us,
        "us",
    );

    // The batch, gradients and knowledge every remaining rung shares.
    let knowledges: Vec<SparseVec> = fixture.knowledges().to_vec();
    let (x, labels) = fixture.trainer_mut().next_batch(&mut rng);
    let b = labels.len();
    fixture.trainer_mut().compute_grads(&x, &labels);
    let model: &mut Model = &mut fixture.trainer_mut().model;
    let g = model.flat_grads();
    let params = model.flat_params();
    let d = params.len();
    let restorer = GradientRestorer;
    let restored: Vec<Vec<f32>> = knowledges
        .iter()
        .map(|k| restorer.restore(model, k, &x))
        .collect();

    // math: GEMM over the model's shape table, flops-weighted.
    let (mut gemm_flops, mut gemm_secs) = (0.0, 0.0);
    for s in gemm_shapes(w, b)? {
        let a = normal_vec(&mut rng, s.m * s.k, 0.0, 1.0);
        let bm = normal_vec(&mut rng, s.k * s.n, 0.0, 1.0);
        let mut c = vec![0.0f32; s.m * s.n];
        let secs = calls.time(|| gemm::gemm_dense(s.m, s.k, s.n, &a, &bm, &mut c));
        gemm_flops += s.count as f64 * flops::matmul(s.m, s.k, s.n).flops as f64;
        gemm_secs += s.count as f64 * secs;
    }
    let gemm_gflops = gemm_flops / gemm_secs / 1e9;
    put("math.gemm_gflops", gemm_gflops, "GF/s");

    // math: the dual QP on fresh batches' gradients.
    let qp_cfg = QpConfig::default();
    let (mut qp_secs, mut unconverged) = (Vec::new(), 0usize);
    let qp_batches = QP_BATCHES.min(calls.timed);
    for _ in 0..qp_batches {
        let (xb, lb) = fixture.trainer_mut().next_batch(&mut rng);
        fixture.trainer_mut().compute_grads(&xb, &lb);
        let model = &mut fixture.trainer_mut().model;
        let gb = model.flat_grads();
        let rb: Vec<Vec<f32>> = knowledges
            .iter()
            .map(|k| restorer.restore(model, k, &xb))
            .collect();
        for _ in 0..calls.timed / qp_batches {
            let t = Instant::now();
            let solved = black_box(integrate_gradient(&gb, &rb, &qp_cfg));
            qp_secs.push(t.elapsed().as_secs_f64());
            unconverged += match solved {
                Ok(r) => usize::from(r.iterations >= qp_cfg.max_iters),
                Err(MathError::QpNotConverged { .. }) => 1,
                Err(e) => return Err(format!("integrate_gradient on fixture gradients: {e}")),
            };
        }
    }
    put("math.qp_solve_us", median(&qp_secs) * us, "us");
    put(
        "math.qp_unconverged_share",
        unconverged as f64 / qp_secs.len() as f64,
        "fraction",
    );
    put(
        "math.wasserstein_us",
        calls.time(|| distance::wasserstein_1d(&g, &restored[0])) * us,
        "us",
    );
    put(
        "math.topk_us",
        calls.time(|| SparseVec::top_fraction_by_magnitude(&params, fk_cfg.rho)) * us,
        "us",
    );
    put(
        "math.sparse_to_dense_us",
        calls.time(|| knowledges[0].to_dense()) * us,
        "us",
    );

    // nn: forward and backward of the training batch, timed apart
    // inside one step.
    let model: &mut Model = &mut fixture.trainer_mut().model;
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for call in 0..calls.warmups + calls.timed {
        model.zero_grad();
        let t0 = Instant::now();
        let logits = model.forward(x.clone(), true);
        let t1 = Instant::now();
        let (_, grad) = cross_entropy(&logits, &labels);
        black_box(model.backward(grad));
        let t2 = Instant::now();
        if call >= calls.warmups {
            fwd.push((t1 - t0).as_secs_f64());
            bwd.push((t2 - t1).as_secs_f64());
        }
    }
    let (fwd_s, bwd_s) = (median(&fwd), median(&bwd));
    put("nn.fwd_ms", fwd_s * ms, "ms");
    put("nn.bwd_ms", bwd_s * ms, "ms");
    // Backward is two GEMMs per forward one. The table's flops, not
    // `Model::flops`: that one assumes the zoo's native 16x16 input
    // whatever the images are, four times too many on 8x8 data.
    let nn_gflops = 3.0 * gemm_flops / (fwd_s + bwd_s) / 1e9;
    put("nn.fwd_bwd_gflops", nn_gflops, "GF/s");
    put("nn.kernel_efficiency", nn_gflops / gemm_gflops, "ratio");
    // Evaluation forwards a task's test set in chunks of at most 64.
    let refs: Vec<&Sample> = current.test.iter().take(64).collect();
    let (x_eval, _) = to_tensor(&refs, &shape);
    put(
        "nn.eval_fwd_ms",
        calls.time(|| model.forward(x_eval.clone(), false)) * ms,
        "ms",
    );
    put(
        "nn.flat_io_us",
        calls.time(|| {
            let p = model.flat_params();
            model.set_flat_params(&p);
            model.flat_grads()
        }) * us,
        "us",
    );
    // A zero learning rate keeps the weights where training left them.
    put(
        "nn.update_us",
        calls.time(|| model.apply_update(&g, 0.0)) * us,
        "us",
    );

    // core: restore, select, integrate, extract.
    let restore_s = calls.time(|| restorer.restore(model, &knowledges[0], &x));
    put("core.restore_ms", restore_s * ms, "ms");
    put(
        "core.restore_cost_ratio",
        restore_s / (fwd_s + bwd_s),
        "ratio",
    );
    put(
        "core.select_ms",
        calls.time(|| {
            restorer.select_signature_tasks(model, &knowledges, &x, &g, fk_cfg.k, fk_cfg.metric)
        }) * ms,
        "ms",
    );
    let integrator = GradientIntegrator::new(fk_cfg.margin);
    put(
        "core.integrate_ms",
        calls.time(|| integrator.integrate(&g, &restored)) * ms,
        "ms",
    );
    let extractor = KnowledgeExtractor::with_strategy(
        fk_cfg.rho,
        fk_cfg.knowledge_finetune_iters,
        fk_cfg.strategy,
    );
    put(
        "core.extract_ms",
        calls.time(|| extractor.extract(&params)) * ms,
        "ms",
    );

    // core, baselines: one training iteration through the trait, with
    // no retained task, with `retained` of them, and under FedAvg.
    let mut fresh = new_fedknow();
    fresh.start_task(current, &mut rng);
    let m0_s = calls.time(|| fresh.train_iteration(&mut rng));
    put("core.train_iteration_m0_ms", m0_s * ms, "ms");
    let mk_s = calls.time(|| fixture.train_iteration(&mut rng));
    put("core.train_iteration_mk_ms", mk_s * ms, "ms");
    let mut fedavg = build_client(Method::FedAvg, &tpl, &w.spec.method_cfg, shape.clone());
    fedavg.start_task(current, &mut rng);
    let fedavg_s = calls.time(|| fedavg.train_iteration(&mut rng));
    put("baselines.fedavg_iteration_ms", fedavg_s * ms, "ms");
    put("baselines.fedknow_cost_ratio", mk_s / fedavg_s, "ratio");

    // fl: aggregation and the codec, on d-parameter uploads.
    let uploads: Vec<Option<Vec<f32>>> = vec![Some(params.clone()); w.spec.num_clients];
    let weights = vec![b; w.spec.num_clients];
    put(
        "fl.fedavg_ms",
        calls.time(|| server::fedavg(&uploads, &weights)) * ms,
        "ms",
    );
    let upload = WireMsg::Upload {
        round: 0,
        client: 0,
        meta: UploadMeta {
            weight: b as u64,
            had_params: true,
            ..UploadMeta::default()
        },
        params: Some(params),
        payloads: Vec::new(),
    };
    put(
        "fl.encode_upload_ms",
        calls.time(|| encode_msg(&upload)) * ms,
        "ms",
    );
    let wire = encode_msg(&upload).buf;
    match decode_msg(&wire) {
        Ok(back) if back == upload => {}
        Ok(back) => {
            return Err(format!(
                "upload of {d} params decoded to a different {}",
                back.label()
            ))
        }
        Err(e) => return Err(format!("upload of {d} params did not decode: {e}")),
    }
    put(
        "fl.decode_upload_ms",
        calls.time(|| decode_msg(&wire)) * ms,
        "ms",
    );
    let mut stream = Vec::with_capacity(wire.len() + 64);
    framing::write_frame(&mut stream, &wire).map_err(|e| format!("write_frame: {e}"))?;
    match framing::read_frame(&mut stream.as_slice()) {
        Ok(Some(back)) if back == wire => {}
        other => {
            return Err(format!(
                "frame of {} bytes did not round-trip: {:?}",
                wire.len(),
                other.map(|f| f.map(|b| b.len()))
            ))
        }
    }
    put(
        "fl.frame_io_ms",
        calls.time(|| {
            stream.clear();
            framing::write_frame(&mut stream, &wire)?;
            framing::read_frame(&mut stream.as_slice())
        }) * ms,
        "ms",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn shape_tables_match_every_workload_model() {
        for name in NAMES {
            for smoke in [false, true] {
                let w = Workload::by_name(name, 7, smoke).expect("known workload");
                check_shape_table(&w, &template(&w).instantiate())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn shape_table_drift_is_reported() {
        let w = Workload::by_name("resnet_fedknow_t4", 7, true).expect("known workload");
        // The same backbone with squeeze-excitation layers added: what a
        // changed model zoo would look like to ResNet18's table.
        let mut rng = seeded(1);
        let drifted = ModelKind::SENet18.build(&mut rng, 3, 100, 1.0);
        let err = check_shape_table(&w, &drifted).expect_err("drift");
        assert!(err.contains("drifted from Model::layout()"), "{err}");
        // A model without a table fails the workload too.
        let mut untabled = w.clone();
        untabled.spec.model = ModelKind::DenseNet;
        assert!(check_shape_table(&untabled, &drifted).is_err());
    }

    #[test]
    fn conv_rows_are_per_sample_and_linear_rows_per_batch() {
        let w = Workload::by_name("cnn_fedknow_t10", 7, false).expect("known workload");
        let shapes = gemm_shapes(&w, 12).expect("table");
        assert_eq!(
            shapes[0],
            GemmShape {
                m: 8,
                k: 27,
                n: 256,
                count: 12,
                weight: [8, 27]
            }
        );
        assert_eq!(
            shapes[5],
            GemmShape {
                m: 12,
                k: 32,
                n: 100,
                count: 1,
                weight: [100, 32]
            }
        );
    }

    #[test]
    fn smoke_rungs_emit_every_metric_once() {
        let w = Workload::by_name("cnn_fedknow_t10", 3, true).expect("known workload");
        let metrics = measure(&w, &[SetupTimes::default()], true).expect("rungs");
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a rung was emitted twice");
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}
