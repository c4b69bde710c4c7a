//! Bit-identity properties of the kernel layer.
//!
//! Two invariants the training stack leans on:
//!
//! 1. **Workspace reuse is invisible.** Buffers recycled through
//!    [`fedknow_math::pool`] must produce bit-identical results to fresh
//!    allocation — recycling may never leak stale values into a result.
//! 2. **Batching is invisible.** The conv lays samples side by side along
//!    the GEMM's N and the GEMM accumulates every output element in the
//!    same (ascending-k) order wherever it lands, so a batch-B pass is B
//!    batch-1 passes, bit for bit.
//!
//! And three the FedKNOW restorer leans on: `backward` can be replayed
//! over one training forward, a stacked backward is one backward per
//! slot, and an eval-mode forward treats every row of a batch
//! independently.

use fedknow_math::rng::seeded;
use fedknow_math::{pool, Tensor};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::models::six_cnn;
use fedknow_nn::{Model, ModelKind};

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let data = fedknow_math::rng::normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0);
    Tensor::from_vec(data, shape)
}

/// Recycled workspaces must be invisible: running with the buffer pool
/// disabled (every take is a fresh allocation) gives bit-identical
/// results to running with it enabled (buffers carry stale garbage that
/// kernels must fully overwrite or zero).
#[test]
fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
    let x = input(&[4, 3, 16, 16], 47);
    let labels: Vec<usize> = (0..4).map(|i| i % 10).collect();
    let run = |pool_on: bool| -> (Vec<u32>, Vec<u32>) {
        let was = pool::set_enabled(pool_on);
        let mut rng = seeded(48);
        let mut m = six_cnn(&mut rng, 3, 10, 1.0);
        let mut logits_bits = Vec::new();
        for _ in 0..3 {
            let logits = m.forward(x.clone(), true);
            logits_bits = logits.data().iter().map(|v| v.to_bits()).collect();
            let (_, grad) = cross_entropy(&logits, &labels);
            m.zero_grad();
            let _ = m.backward(grad);
            m.sgd_step(0.05);
        }
        let params = m.flat_params().iter().map(|v| v.to_bits()).collect();
        pool::set_enabled(was);
        (logits_bits, params)
    };
    // Warm the pool with one run first so the pooled run genuinely
    // recycles dirty buffers rather than allocating fresh zeroed ones.
    let _ = run(true);
    let pooled = run(true);
    let fresh = run(false);
    assert_eq!(pooled.0, fresh.0, "logits differ with pooling enabled");
    assert_eq!(pooled.1, fresh.1, "params differ with pooling enabled");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `backward` may be replayed: after one training forward, every
/// `zero_grad` + `backward(g)` yields the same gradients, and they are
/// the gradients of a fresh forward + backward. FedKNOW's restorer runs
/// one backward per signature task over a single forward.
#[test]
fn backward_replays_over_one_forward_for_every_model() {
    let x = input(&[3, 3, 8, 8], 49);
    let g = input(&[3, 5], 50);
    for kind in ModelKind::ALL {
        let build = || kind.build(&mut seeded(51), 3, 5, 1.0);
        let mut m = build();
        let _ = m.forward(x.clone(), true);
        let mut replays = Vec::new();
        for _ in 0..2 {
            m.zero_grad();
            let gx = m.backward(g.clone());
            replays.push((bits(gx.data()), bits(&m.flat_grads())));
        }
        let mut fresh = build();
        let _ = fresh.forward(x.clone(), true);
        let gx = fresh.backward(g.clone());
        let reference = (bits(gx.data()), bits(&fresh.flat_grads()));
        for (n, replay) in replays.iter().enumerate() {
            assert!(
                *replay == reference,
                "{}: backward #{} differs from a fresh forward+backward",
                kind.name(),
                n + 1
            );
        }
    }
}

/// Eval-mode rows are independent: a sample's logits do not depend on
/// which batch it is forwarded in, where in it, or how large it is
/// (BatchNorm reads its running statistics in eval mode). FedKNOW caches
/// a teacher's pseudo-labels per training sample on the strength of this.
#[test]
fn eval_forward_rows_do_not_depend_on_the_batch_for_every_model() {
    // 67 rows cross the GEMM's 64-row block and every register tile.
    let x = input(&[67, 3, 8, 8], 52);
    for kind in ModelKind::ALL {
        let mut m = kind.build(&mut seeded(53), 3, 5, 1.0);
        // Move the running statistics off their initial values.
        let _ = m.forward(x.clone(), true);
        let whole = m.forward(x.clone(), false);
        let row = |i: usize| bits(&whole.data()[i * 5..(i + 1) * 5]);
        for i in [0, 5, 63, 64, 66] {
            let alone = m.forward(x.gather_rows(&[i]), false);
            assert!(
                bits(alone.data()) == row(i),
                "{}: sample {i} alone",
                kind.name()
            );
        }
        let mix = [66usize, 2, 64, 0, 5, 2, 31, 63];
        let mixed = m.forward(x.gather_rows(&mix), false);
        for (r, &i) in mix.iter().enumerate() {
            assert!(
                bits(&mixed.data()[r * 5..(r + 1) * 5]) == row(i),
                "{}: sample {i} at row {r} of a reordered batch",
                kind.name()
            );
        }
    }
}

/// A backward of `s` stacked output gradients is `s` backwards of one:
/// after one training forward, each slot's rows of the input gradient
/// and its parameter gradients are bit-equal to a single-gradient
/// backward of that slot on the same forward. FedKNOW's restorer stacks
/// the training gradient and every signature task's behind it.
#[test]
fn stacked_backward_is_one_backward_per_slot_for_every_model() {
    let x = input(&[3, 3, 8, 8], 54);
    for kind in ModelKind::ALL {
        let mut m = kind.build(&mut seeded(55), 3, 5, 1.0);
        let _ = m.forward(x.clone(), true);
        for s in [1, 2, 5] {
            let g = input(&[s * 3, 5], 56 + s as u64);
            let singles: Vec<(Vec<u32>, Vec<u32>)> = (0..s)
                .map(|j| {
                    m.zero_grad();
                    let gx = m.backward(g.gather_rows(&[3 * j, 3 * j + 1, 3 * j + 2]));
                    (bits(gx.data()), bits(&m.flat_grads()))
                })
                .collect();
            m.zero_grad();
            let gx = m.backward(g.clone());
            assert_eq!(gx.shape()[0], s * 3, "{}: stacked batch", kind.name());
            let grads: Vec<&[f32]> = (0..s).map(|j| m.grad_slot(j)).collect();
            let per = gx.len() / s;
            for (j, (gx_j, grads_j)) in singles.iter().enumerate() {
                assert!(
                    bits(&gx.data()[j * per..(j + 1) * per]) == *gx_j,
                    "{}: s = {s}, slot {j}: input gradient",
                    kind.name()
                );
                assert!(
                    bits(grads[j]) == *grads_j,
                    "{}: s = {s}, slot {j}: parameter gradients",
                    kind.name()
                );
            }
        }
    }
}

/// Every parameter gradient of a conv model's `s`-slot backward, slot by
/// slot, each `[weight, bias]`.
fn conv_grads(conv: &Model, s: usize) -> Vec<Vec<f32>> {
    (0..s).map(|j| conv.grad_slot(j).to_vec()).collect()
}

/// `Conv2d` runs one GEMM per chunk of samples (forward) or (slot,
/// sample) units (input gradient) laid side by side along N. Wherever the
/// chunk and NR-strip boundaries fall, a batch-B pass is B batch-1
/// passes: forward rows and input-gradient rows bit-equal to each
/// sample's own, and the weight gradients bit-equal to those per-sample
/// backwards added up in ascending sample order.
#[test]
fn batched_conv_is_per_sample_at_chunk_boundaries() {
    // (cin, cout, k, stride, pad, groups, h, w, batch): ncols = 20
    // (stride 2), 36 (groups, in place), 1 (a 1×1 map, in place; batch
    // 260 > the 256-column budget), 35 (divides neither the budget nor
    // any NR) and 272 (one sample wider than the budget).
    let cases = [
        (4, 6, 3, 2, 1, 1, 9, 7, 26),
        (6, 6, 3, 1, 1, 2, 6, 6, 16),
        (8, 8, 3, 1, 1, 1, 1, 1, 260),
        (3, 5, 3, 1, 1, 1, 5, 7, 17),
        (2, 3, 3, 1, 1, 1, 17, 16, 3),
    ];
    for (n, &(cin, cout, k, st, pd, groups, h, w, b)) in cases.iter().enumerate() {
        let conv = Conv2d::new(&mut seeded(60 + n as u64), cin, cout, k, st, pd, groups);
        let mut conv = Model::new(conv, &[], 0);
        let x = input(&[b, cin, h, w], 70 + n as u64);
        let (oh, ow) = ((h + 2 * pd - k) / st + 1, (w + 2 * pd - k) / st + 1);
        let (sample_out, sample_in) = (cout * oh * ow, cin * h * w);
        for s in [1, 3] {
            let g = input(&[s * b, cout, oh, ow], 80 + n as u64 + s as u64);
            // Batch-1 passes, gradients summed in ascending sample order.
            let mut ys = Vec::new();
            let mut gxs = Vec::new();
            let mut sum: Vec<Vec<f32>> = Vec::new();
            for i in 0..b {
                conv.zero_grad();
                ys.push(conv.forward(x.gather_rows(&[i]), true));
                let rows: Vec<usize> = (0..s).map(|j| j * b + i).collect();
                gxs.push(conv.backward(g.gather_rows(&rows)));
                let grads = conv_grads(&conv, s);
                if sum.is_empty() {
                    sum = grads.iter().map(|v| vec![0.0; v.len()]).collect();
                }
                for (acc, v) in sum.iter_mut().zip(&grads) {
                    for (a, &x) in acc.iter_mut().zip(v) {
                        *a += x;
                    }
                }
            }
            conv.zero_grad();
            let y = conv.forward(x.clone(), true);
            let gx = conv.backward(g.clone());
            let grads = conv_grads(&conv, s);
            let at = format!("case {n}, s = {s}");
            for (i, (yi, gxi)) in ys.iter().zip(&gxs).enumerate() {
                assert!(
                    bits(&y.data()[i * sample_out..][..sample_out]) == bits(yi.data()),
                    "{at}: forward row {i}"
                );
                for j in 0..s {
                    let row = &gx.data()[(j * b + i) * sample_in..][..sample_in];
                    assert!(
                        bits(row) == bits(&gxi.data()[j * sample_in..][..sample_in]),
                        "{at}: input gradient of slot {j}, sample {i}"
                    );
                }
            }
            assert_eq!(grads.len(), sum.len(), "{at}: gradient count");
            for (p, (got, want)) in grads.iter().zip(&sum).enumerate() {
                assert!(bits(got) == bits(want), "{at}: parameter gradient {p}");
            }
        }
    }
}
