//! Elementwise activation layers.

use crate::layer::{slot_count, Layer};
use fedknow_math::Tensor;

/// Rectified linear unit. Caches the activation mask for backward.
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self { mask: Vec::new() }
    }
}

impl Default for ReLU {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, _params: &[f32], mut x: Tensor, train: bool) -> Tensor {
        if train {
            // clear + extend reuses the mask's capacity: steady-state
            // training allocates nothing here after the first step.
            self.mask.clear();
            self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        }
        // A select, not a conditional store: activations are sign-random,
        // so a branch here mispredicts every other element.
        for v in x.data_mut() {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
        x
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], mut grad: Tensor) -> Tensor {
        let n = self.mask.len();
        // Every slot of a stacked gradient takes the one forward's mask.
        for j in 0..slot_count(grad.len(), n, "ReLU") {
            for (g, &m) in grad.data_mut()[j * n..][..n].iter_mut().zip(&self.mask) {
                *g = if m { *g } else { 0.0 };
            }
        }
        grad
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (in_shape.iter().product::<usize>() as u64, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Logistic sigmoid; caches its output (`σ'(x) = σ(x)(1 − σ(x))`).
pub struct Sigmoid {
    cached_out: Vec<f32>,
}

impl Sigmoid {
    /// New sigmoid layer.
    pub fn new() -> Self {
        Self {
            cached_out: Vec::new(),
        }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, _params: &[f32], mut x: Tensor, train: bool) -> Tensor {
        for v in x.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        if train {
            self.cached_out.clear();
            self.cached_out.extend_from_slice(x.data());
        }
        x
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], mut grad: Tensor) -> Tensor {
        let n = self.cached_out.len();
        for j in 0..slot_count(grad.len(), n, "Sigmoid") {
            for (g, &s) in grad.data_mut()[j * n..][..n]
                .iter_mut()
                .zip(&self.cached_out)
            {
                *g *= s * (1.0 - s);
            }
        }
        grad
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (
            4 * in_shape.iter().product::<usize>() as u64,
            in_shape.to_vec(),
        )
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative_and_masks_gradient() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = r.forward(&[], x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&[], &mut [], Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    /// `-0.0` and NaN are not `< 0.0`, so the clamp leaves both as they
    /// are; neither is `> 0.0`, so the mask drops their gradient.
    #[test]
    fn relu_leaves_negative_zero_and_nan_and_masks_them() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-0.0, f32::NAN, 0.0, -3.0, f32::MIN_POSITIVE], &[5]);
        let y = r.forward(&[], x, true);
        assert_eq!(y.data()[0].to_bits(), (-0.0f32).to_bits());
        assert!(y.data()[1].is_nan());
        assert_eq!(y.data()[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[3].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[4], f32::MIN_POSITIVE);
        assert_eq!(r.mask, [false, false, false, false, true]);
        let g = r.backward(
            &[],
            &mut [],
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[5]),
        );
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_midpoint_and_derivative() {
        let mut s = Sigmoid::new();
        let y = s.forward(&[], Tensor::from_vec(vec![0.0], &[1]), true);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let g = s.backward(&[], &mut [], Tensor::from_vec(vec![1.0], &[1]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }
}
