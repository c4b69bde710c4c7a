//! Finite-difference gradient checks.
//!
//! Manual backprop is only trustworthy if every layer's analytic gradient
//! matches a central finite difference of the loss. Each check builds a
//! tiny model around the layer under test, computes ∂L/∂θ analytically,
//! then perturbs a sample of parameters by ±ε and compares.

use fedknow_math::rng::seeded;
use fedknow_math::Tensor;
use fedknow_nn::activations::{ReLU, Sigmoid};
use fedknow_nn::blocks::{ChannelShuffle, Concat, Residual, SEScale, SplitConcat};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::layer::{Layer, Sequential};
use fedknow_nn::linear::Linear;
use fedknow_nn::loss::{cross_entropy, soft_cross_entropy};
use fedknow_nn::model::Model;
use fedknow_nn::norm::BatchNorm2d;
use fedknow_nn::pool::{Flatten, GlobalAvgPool, MaxPool2d};

/// Run the loss at the current parameters.
fn loss_of(model: &mut Model, x: &Tensor, labels: &[usize]) -> f64 {
    let logits = model.forward(x.clone(), true);
    cross_entropy(&logits, labels).0 as f64
}

/// Check analytic vs central-difference gradients for a sample of
/// parameters. `tol` is the relative-error tolerance.
fn gradcheck(mut model: Model, x: Tensor, labels: &[usize], tol: f64) {
    model.zero_grad();
    let logits = model.forward(x.clone(), true);
    let (_, grad) = cross_entropy(&logits, labels);
    model.backward(grad);
    let analytic = model.flat_grads();
    let params = model.flat_params();
    let n = params.len();
    // Sample up to 40 parameters spread over the vector (always include
    // the first and last).
    let step = (n / 40).max(1);
    // ε trades ReLU-kink bias (grows with ε) against f32 round-off noise
    // (≈ loss·1e-7/ε, so ~2e-4 at ε = 1e-3). Accept a gradient when it is
    // within the relative tolerance OR inside the absolute noise floor.
    let eps = 1e-3f32;
    let noise_floor = 6e-4f64;
    let mut checked = 0;
    for i in (0..n).step_by(step) {
        let mut p = params.clone();
        p[i] = params[i] + eps;
        model.set_flat_params(&p);
        let lp = loss_of(&mut model, &x, labels);
        p[i] = params[i] - eps;
        model.set_flat_params(&p);
        let lm = loss_of(&mut model, &x, labels);
        let numeric = (lp - lm) / (2.0 * eps as f64);
        let a = analytic[i] as f64;
        let abs_err = (a - numeric).abs();
        let rel = abs_err / a.abs().max(numeric.abs()).max(1e-8);
        assert!(
            rel < tol || abs_err < noise_floor,
            "param {i}: analytic {a:.6} vs numeric {numeric:.6} (rel {rel:.4}, abs {abs_err:.2e})"
        );
        checked += 1;
    }
    assert!(checked > 0);
    model.set_flat_params(&params);
}

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let data = fedknow_math::rng::normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0);
    Tensor::from_vec(data, shape)
}

#[test]
fn gradcheck_linear_relu_stack() {
    let mut rng = seeded(1);
    let seq = Sequential::new()
        .push(Linear::new(&mut rng, 6, 10))
        .push(ReLU::new())
        .push(Linear::new(&mut rng, 10, 4));
    gradcheck(
        Model::new(seq, &[6], 4),
        input(&[3, 6], 2),
        &[0, 1, 3],
        0.05,
    );
}

#[test]
fn gradcheck_conv_stack() {
    let mut rng = seeded(3);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 2, 4, 1))
        .push(ReLU::new())
        .push(Conv2d::conv3x3(&mut rng, 4, 3, 2))
        .push(Flatten::new())
        .push(Linear::new(&mut rng, 3 * 2 * 2, 3));
    gradcheck(
        Model::new(seq, &[2, 4, 4], 3),
        input(&[2, 2, 4, 4], 4),
        &[0, 2],
        0.05,
    );
}

#[test]
fn gradcheck_grouped_and_depthwise_conv() {
    let mut rng = seeded(5);
    let seq = Sequential::new()
        .push(Conv2d::new(&mut rng, 4, 8, 3, 1, 1, 2))
        .push(ReLU::new())
        .push(Conv2d::depthwise3x3(&mut rng, 8, 1))
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 8, 3));
    gradcheck(
        Model::new(seq, &[4, 4, 4], 3),
        input(&[2, 4, 4, 4], 6),
        &[1, 2],
        0.05,
    );
}

#[test]
fn gradcheck_batchnorm() {
    let mut rng = seeded(7);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 2, 4, 1))
        .push(BatchNorm2d::new(4))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 4, 3));
    // BN couples every activation to the batch statistics, so kink
    // crossings are more frequent — allow a looser relative tolerance.
    gradcheck(
        Model::new(seq, &[2, 3, 3], 3),
        input(&[4, 2, 3, 3], 8),
        &[0, 1, 2, 0],
        0.12,
    );
}

#[test]
fn gradcheck_maxpool() {
    let mut rng = seeded(9);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 2, 4, 1))
        .push(ReLU::new())
        .push(MaxPool2d::new())
        .push(Flatten::new())
        .push(Linear::new(&mut rng, 4 * 2 * 2, 3));
    gradcheck(
        Model::new(seq, &[2, 4, 4], 3),
        input(&[2, 2, 4, 4], 10),
        &[1, 2],
        0.05,
    );
}

#[test]
fn gradcheck_residual_with_projection() {
    let mut rng = seeded(11);
    let main = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 3, 6, 2))
        .push(BatchNorm2d::new(6));
    let short = Sequential::new()
        .push(Conv2d::conv1x1(&mut rng, 3, 6, 2))
        .push(BatchNorm2d::new(6));
    let seq = Sequential::new()
        .push(Residual::new(main, Some(short), true))
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 6, 3));
    gradcheck(
        Model::new(seq, &[3, 4, 4], 3),
        input(&[3, 3, 4, 4], 12),
        &[0, 1, 2],
        0.08,
    );
}

#[test]
fn gradcheck_se_block() {
    let mut rng = seeded(13);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 2, 4, 1))
        .push(SEScale::new(&mut rng, 4, 2))
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 4, 3));
    gradcheck(
        Model::new(seq, &[2, 3, 3], 3),
        input(&[2, 2, 3, 3], 14),
        &[0, 2],
        0.05,
    );
}

#[test]
fn gradcheck_sigmoid() {
    let mut rng = seeded(15);
    let seq = Sequential::new()
        .push(Linear::new(&mut rng, 5, 8))
        .push(Sigmoid::new())
        .push(Linear::new(&mut rng, 8, 3));
    gradcheck(
        Model::new(seq, &[5], 3),
        input(&[3, 5], 16),
        &[2, 1, 0],
        0.05,
    );
}

#[test]
fn gradcheck_concat_branches() {
    let mut rng = seeded(17);
    let b1 = Sequential::new().push(Conv2d::conv1x1(&mut rng, 3, 2, 1));
    let b2 = Sequential::new().push(Conv2d::conv3x3(&mut rng, 3, 2, 1));
    let seq = Sequential::new()
        .push(Concat::new(vec![b1, b2]))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 4, 3));
    gradcheck(
        Model::new(seq, &[3, 3, 3], 3),
        input(&[2, 3, 3, 3], 18),
        &[0, 1],
        0.05,
    );
}

#[test]
fn gradcheck_split_concat_and_shuffle() {
    let mut rng = seeded(19);
    let passthrough = Sequential::new();
    let transform = Sequential::new()
        .push(Conv2d::conv1x1(&mut rng, 2, 2, 1))
        .push(ReLU::new());
    let seq = Sequential::new()
        .push(SplitConcat::new(vec![2, 2], vec![passthrough, transform]))
        .push(ChannelShuffle::new(2))
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 4, 3));
    gradcheck(
        Model::new(seq, &[4, 3, 3], 3),
        input(&[2, 4, 3, 3], 20),
        &[1, 2],
        0.05,
    );
}

/// End-to-end: a tiny training loop must reduce the loss on a separable
/// synthetic problem — the substrate actually learns.
#[test]
fn training_reduces_loss() {
    let mut rng = seeded(21);
    let seq = Sequential::new()
        .push(Linear::new(&mut rng, 4, 16))
        .push(ReLU::new())
        .push(Linear::new(&mut rng, 16, 2));
    let mut model = Model::new(seq, &[4], 2);
    // Two Gaussian blobs.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..32 {
        let label = i % 2;
        let centre = if label == 0 { -1.0 } else { 1.0 };
        for _ in 0..4 {
            xs.push(centre + 0.3 * fedknow_math::rng::normal(&mut rng));
        }
        ys.push(label);
    }
    let x = Tensor::from_vec(xs, &[32, 4]);
    let initial = loss_of(&mut model, &x, &ys);
    for _ in 0..60 {
        model.zero_grad();
        let logits = model.forward(x.clone(), true);
        let (_, grad) = cross_entropy(&logits, &ys);
        model.backward(grad);
        model.sgd_step(0.5);
    }
    let fin = loss_of(&mut model, &x, &ys);
    assert!(
        fin < initial * 0.2,
        "loss {initial} → {fin} did not drop enough"
    );
}

/// The distillation loss (restorer, paper Eq. 2): its analytic gradient
/// `(softmax − target)/B` must match a central finite difference of the
/// loss over *every* logit, and each gradient row must sum to zero
/// whenever the target rows are probability distributions.
#[test]
fn gradcheck_soft_cross_entropy() {
    let (rows, cols) = (3usize, 5usize);
    let logits = input(&[rows, cols], 30);
    // A valid soft target: softmax of an independent random tensor.
    let target = input(&[rows, cols], 31).softmax_rows();
    let (_, grad) = soft_cross_entropy(&logits, &target);
    for r in 0..rows {
        let s: f64 = grad.data()[r * cols..(r + 1) * cols]
            .iter()
            .map(|&v| v as f64)
            .sum();
        assert!(s.abs() < 1e-5, "gradient row {r} sums to {s:e}");
    }
    let eps = 1e-3f32;
    for i in 0..rows * cols {
        let mut pl = logits.data().to_vec();
        pl[i] += eps;
        let (lp, _) = soft_cross_entropy(&Tensor::from_vec(pl.clone(), &[rows, cols]), &target);
        pl[i] -= 2.0 * eps;
        let (lm, _) = soft_cross_entropy(&Tensor::from_vec(pl, &[rows, cols]), &target);
        let numeric = (lp as f64 - lm as f64) / (2.0 * eps as f64);
        let a = grad.data()[i] as f64;
        let abs_err = (a - numeric).abs();
        let rel = abs_err / a.abs().max(numeric.abs()).max(1e-8);
        assert!(
            rel < 0.05 || abs_err < 6e-4,
            "logit {i}: analytic {a:.6} vs numeric {numeric:.6}"
        );
    }
}

/// Pooling and reshaping layers carry no train-mode statistics: eval
/// forward must equal train forward bit-for-bit.
#[test]
fn pooling_layers_are_train_eval_equivalent() {
    use fedknow_nn::pool::AvgPool2d;
    let x = input(&[2, 2, 4, 4], 32);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(MaxPool2d::new()),
        Box::new(AvgPool2d::new(2)),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
    ];
    for l in &mut layers {
        // Parameter-free: an empty arena.
        let yt = l.forward(&[], x.clone(), true);
        let ye = l.forward(&[], x.clone(), false);
        assert_eq!(yt.data(), ye.data(), "{} train/eval mismatch", l.name());
        assert!(ye.data().iter().all(|v| v.is_finite()));
    }
}

/// Eval-mode pooling keeps no backward cache: calling backward after an
/// eval-only forward is a contract violation, not silent garbage.
#[test]
#[should_panic(expected = "backward before forward(train)")]
fn maxpool_backward_requires_train_forward() {
    let mut p = MaxPool2d::new();
    let y = p.forward(&[], input(&[1, 1, 4, 4], 33), false);
    let _ = p.backward(&[], &mut [], y);
}

/// BatchNorm eval mode normalises with running statistics: finite from
/// the fresh (mean 0, var 1) initialisation, and converging to the
/// train-mode normalisation as the running estimates absorb the batch.
#[test]
fn batchnorm_eval_mode_tracks_running_statistics() {
    let mut bn = Model::new(BatchNorm2d::new(3), &[3, 3, 3], 3);
    let x = input(&[4, 3, 3, 3], 34);
    let fresh = bn.forward(x.clone(), false);
    assert!(fresh.data().iter().all(|v| v.is_finite()));
    // Fresh running stats are (0, 1): eval is the identity up to ε.
    for (y, &xi) in fresh.data().iter().zip(x.data()) {
        assert!((y - xi).abs() < 1e-4, "fresh BN eval moved {xi} to {y}");
    }
    // Feed the same batch until the running estimates converge on it.
    for _ in 0..100 {
        let _ = bn.forward(x.clone(), true);
    }
    let train_out = bn.forward(x.clone(), true);
    let eval_out = bn.forward(x.clone(), false);
    assert!(eval_out.data().iter().all(|v| v.is_finite()));
    let max_diff = train_out
        .data()
        .iter()
        .zip(eval_out.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 0.1,
        "eval output diverges from converged train output by {max_diff}"
    );
}

/// The fused im2col+GEMM conv backward on a non-square input with deep
/// padding and stride 2 — the regime where patch-panel packing has to
/// clamp ragged row segments on both edges.
#[test]
fn gradcheck_conv_nonsquare_padded_strided() {
    let mut rng = seeded(25);
    let seq = Sequential::new()
        .push(Conv2d::new(&mut rng, 2, 4, 3, 2, 2, 1))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 4, 3));
    gradcheck(
        Model::new(seq, &[2, 5, 7], 3),
        input(&[2, 2, 5, 7], 26),
        &[0, 1],
        0.05,
    );
}

/// Stride above the kernel on a 1×N input: output positions sample
/// disjoint patches and most padded taps fall outside the input.
#[test]
fn gradcheck_conv_stride_exceeds_kernel_on_1xn_input() {
    let mut rng = seeded(27);
    let seq = Sequential::new()
        .push(Conv2d::new(&mut rng, 3, 5, 2, 3, 1, 1))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 5, 3));
    gradcheck(
        Model::new(seq, &[3, 1, 9], 3),
        input(&[2, 3, 1, 9], 28),
        &[0, 1],
        0.05,
    );
}

/// Grouped conv with padding equal to the kernel size (every border
/// patch is mostly zeros) on a non-square input.
#[test]
fn gradcheck_grouped_conv_full_padding() {
    let mut rng = seeded(29);
    // Sigmoid rather than ReLU: with padding == kernel, border outputs
    // sit near the bias and a ReLU kink there makes the central finite
    // difference lie; the conv gradient itself is pinned against the f64
    // oracle by the tile-adversarial differential suite.
    let seq = Sequential::new()
        .push(Conv2d::new(&mut rng, 4, 6, 3, 1, 3, 2))
        .push(Sigmoid::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, 6, 3));
    gradcheck(
        Model::new(seq, &[4, 3, 6], 3),
        input(&[2, 4, 3, 6], 30),
        &[1, 2],
        0.05,
    );
}

#[test]
fn gradcheck_avgpool_and_dropout_free_path() {
    use fedknow_nn::pool::AvgPool2d;
    let mut rng = seeded(23);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(&mut rng, 2, 4, 1))
        .push(ReLU::new())
        .push(AvgPool2d::new(2))
        .push(Flatten::new())
        .push(Linear::new(&mut rng, 4 * 2 * 2, 3));
    gradcheck(
        Model::new(seq, &[2, 4, 4], 3),
        input(&[2, 2, 4, 4], 24),
        &[1, 0],
        0.05,
    );
}
