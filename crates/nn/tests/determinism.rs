//! Bit-identity properties of the kernel layer.
//!
//! Two invariants the training stack leans on:
//!
//! 1. **Workspace reuse is invisible.** Buffers recycled through
//!    [`fedknow_math::pool`] must produce bit-identical results to fresh
//!    allocation — recycling may never leak stale values into a result.
//! 2. **Parallelism is invisible.** The batch-parallel conv and the
//!    row-parallel GEMM accumulate every output element in the same
//!    (ascending-k) order regardless of the thread count, so results for
//!    1, 2, 4 and 8 threads are bit-identical. Federated rounds rely on
//!    this: a client's update must not depend on how many cores its edge
//!    device has.
//!
//! And two the FedKNOW restorer leans on: `backward` can be replayed over
//! one training forward, and an eval-mode forward treats every row of a
//! batch independently.

use fedknow_math::rng::seeded;
use fedknow_math::{parallel, pool, Tensor};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::models::six_cnn;
use fedknow_nn::{Layer, ModelKind};

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let data = fedknow_math::rng::normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0);
    Tensor::from_vec(data, shape)
}

/// One conv forward+backward; returns `(y, gx, flat grads)` as raw bits.
fn conv_round_trip(conv: &mut Conv2d, x: &Tensor) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    conv.zero_grad();
    let y = conv.forward(x.clone(), true);
    let gx = conv.backward(y.clone());
    let mut grads = Vec::new();
    conv.visit_params(&mut |_: &str, _: &[usize], _: &mut [f32], g: &mut [f32]| {
        grads.extend(g.iter().map(|v| v.to_bits()));
    });
    (
        y.data().iter().map(|v| v.to_bits()).collect(),
        gx.data().iter().map(|v| v.to_bits()).collect(),
        grads,
    )
}

#[test]
fn conv_is_bit_identical_across_thread_counts() {
    let mut rng = seeded(41);
    // Batch 8 so every thread count {1,2,4,8} gets a non-trivial split;
    // 17×13 input crosses the packed column tiles.
    let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1, 1);
    let x = input(&[8, 3, 17, 13], 42);
    let reference = parallel::with_threads(1, || conv_round_trip(&mut conv, &x));
    for t in [2, 4, 8] {
        let got = parallel::with_threads(t, || conv_round_trip(&mut conv, &x));
        assert_eq!(got.0, reference.0, "forward differs at {t} threads");
        assert_eq!(got.1, reference.1, "input grad differs at {t} threads");
        assert_eq!(got.2, reference.2, "weight grad differs at {t} threads");
    }
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // Row count crosses several mr tiles for every ISA tier.
    let a = input(&[67, 129], 43);
    let b = input(&[129, 53], 44);
    let reference = parallel::with_threads(1, || a.matmul(&b));
    for t in [2, 4, 8] {
        let got = parallel::with_threads(t, || a.matmul(&b));
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            reference
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            "matmul differs at {t} threads"
        );
    }
}

/// A full train step on the paper's 6-CNN must produce bit-identical
/// parameters for every thread count.
#[test]
fn train_step_is_bit_identical_across_thread_counts() {
    let x = input(&[8, 3, 16, 16], 45);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let step = |threads: usize| -> Vec<u32> {
        parallel::with_threads(threads, || {
            let mut rng = seeded(46);
            let mut m = six_cnn(&mut rng, 3, 10, 1.0);
            for _ in 0..2 {
                let logits = m.forward(x.clone(), true);
                let (_, grad) = cross_entropy(&logits, &labels);
                m.zero_grad();
                let _ = m.backward(grad);
                m.sgd_step(0.05);
            }
            m.flat_params().iter().map(|v| v.to_bits()).collect()
        })
    };
    let reference = step(1);
    for t in [2, 4, 8] {
        assert_eq!(step(t), reference, "trained params differ at {t} threads");
    }
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
