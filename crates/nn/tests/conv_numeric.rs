//! Exact finite-difference verification of Conv2d and BatchNorm2d
//! gradients under a smooth (sum / weighted-sum) loss, where no ReLU
//! kinks pollute the comparison.

use fedknow_math::rng::seeded;
use fedknow_math::Tensor;
use fedknow_nn::conv::Conv2d;
use fedknow_nn::norm::BatchNorm2d;
use fedknow_nn::Model;

fn numeric_input_grad(layer: &mut Model, x: &Tensor) -> Vec<f64> {
    let eps = 1e-3f32;
    let mut out = Vec::new();
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let lp: f64 = layer
            .forward(xp, true)
            .data()
            .iter()
            .map(|&v| v as f64)
            .sum();
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lm: f64 = layer
            .forward(xm, true)
            .data()
            .iter()
            .map(|&v| v as f64)
            .sum();
        out.push((lp - lm) / (2.0 * eps as f64));
    }
    out
}

#[test]
fn conv_input_grad_numeric() {
    let mut rng = seeded(3);
    let mut conv = Model::new(Conv2d::conv3x3(&mut rng, 2, 3, 2), &[2, 4, 4], 3);
    let x = Tensor::from_vec(
        fedknow_math::rng::normal_vec(&mut rng, 2 * 2 * 4 * 4, 0.0, 1.0),
        &[2, 2, 4, 4],
    );
    let y = conv.forward(x.clone(), true);
    let gx = conv.backward(Tensor::full(y.shape(), 1.0));
    let numeric = numeric_input_grad(&mut conv, &x);
    for (i, &n) in numeric.iter().enumerate() {
        let a = gx.data()[i] as f64;
        let rel = (a - n).abs() / a.abs().max(n.abs()).max(1e-3);
        assert!(rel < 0.02, "input {i}: analytic {a} numeric {n}");
    }
}

#[test]
fn bn_input_grad_numeric() {
    let mut bn = Model::new(BatchNorm2d::new(3), &[3, 2, 2], 3);
    let mut rng = seeded(5);
    let x = Tensor::from_vec(
        fedknow_math::rng::normal_vec(&mut rng, 2 * 3 * 2 * 2, 0.0, 1.0),
        &[2, 3, 2, 2],
    );
    // use weighted sum loss to make grads nonuniform
    let w: Vec<f32> = (0..x.len()).map(|i| (i as f32 * 0.37).sin()).collect();
    let y = bn.forward(x.clone(), true);
    let g = Tensor::from_vec(w.clone(), y.shape());
    let gx = bn.backward(g);
    let eps = 2e-2f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let lp: f64 = bn
            .forward(xp, true)
            .data()
            .iter()
            .zip(&w)
            .map(|(&v, &wi)| v as f64 * wi as f64)
            .sum();
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lm: f64 = bn
            .forward(xm, true)
            .data()
            .iter()
            .zip(&w)
            .map(|(&v, &wi)| v as f64 * wi as f64)
            .sum();
        let n = (lp - lm) / (2.0 * eps as f64);
        let a = gx.data()[i] as f64;
        let rel = (a - n).abs() / a.abs().max(n.abs()).max(1e-3);
        assert!(rel < 0.03, "input {i}: analytic {a} numeric {n} rel {rel}");
    }
}
