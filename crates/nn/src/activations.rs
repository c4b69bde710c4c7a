//! Elementwise activation layers.

use crate::layer::Layer;
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
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
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

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        assert_eq!(
            grad.len(),
            self.mask.len(),
            "ReLU backward before forward(train)"
        );
        for (g, &m) in grad.data_mut().iter_mut().zip(&self.mask) {
            *g = if m { *g } else { 0.0 };
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
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        for v in x.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        if train {
            self.cached_out.clear();
            self.cached_out.extend_from_slice(x.data());
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        assert_eq!(
            grad.len(),
            self.cached_out.len(),
            "Sigmoid backward before forward(train)"
        );
        for (g, &s) in grad.data_mut().iter_mut().zip(&self.cached_out) {
            *g *= s * (1.0 - s);
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
        let y = r.forward(x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    /// `-0.0` and NaN are not `< 0.0`, so the clamp leaves both as they
    /// are; neither is `> 0.0`, so the mask drops their gradient.
    #[test]
    fn relu_leaves_negative_zero_and_nan_and_masks_them() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-0.0, f32::NAN, 0.0, -3.0, f32::MIN_POSITIVE], &[5]);
        let y = r.forward(x, true);
        assert_eq!(y.data()[0].to_bits(), (-0.0f32).to_bits());
        assert!(y.data()[1].is_nan());
        assert_eq!(y.data()[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[3].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[4], f32::MIN_POSITIVE);
        assert_eq!(r.mask, [false, false, false, false, true]);
        let g = r.backward(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[5]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_midpoint_and_derivative() {
        let mut s = Sigmoid::new();
        let y = s.forward(Tensor::from_vec(vec![0.0], &[1]), true);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let g = s.backward(Tensor::from_vec(vec![1.0], &[1]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }
}

/// Inverted dropout: active only in training mode, where surviving
/// activations are scaled by `1/(1−p)` so evaluation needs no rescale.
/// The mask is drawn from the layer's own deterministic stream, keeping
/// runs reproducible without threading an RNG through `forward`.
pub struct Dropout {
    /// Drop probability.
    p: f32,
    mask: Vec<f32>,
    stream: u64,
    counter: u64,
}

impl Dropout {
    /// New dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Self {
            p,
            mask: Vec::new(),
            stream: 0xD80D_0000,
            counter: 0,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            return x;
        }
        use rand::Rng;
        let mut rng = fedknow_math::rng::substream(self.stream, self.counter);
        self.counter += 1;
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.clear();
        self.mask.extend(
            x.data()
                .iter()
                .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }),
        );
        for (v, &m) in x.data_mut().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        if self.p == 0.0 || self.mask.is_empty() {
            return grad;
        }
        assert_eq!(
            grad.len(),
            self.mask.len(),
            "Dropout backward before forward(train)"
        );
        for (g, &m) in grad.data_mut().iter_mut().zip(&self.mask) {
            *g *= m;
        }
        grad
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (in_shape.iter().product::<usize>() as u64, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod dropout_tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = d.forward(x.clone(), false);
        assert_eq!(y, x);
    }

    #[test]
    fn train_mode_preserves_expectation_roughly() {
        let mut d = Dropout::new(0.5);
        let n = 10_000;
        let x = Tensor::full(&[n], 1.0);
        let y = d.forward(x, true);
        let mean = y.sum() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Surviving entries are scaled to 2.0, dropped to 0.0.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn gradient_respects_the_same_mask() {
        let mut d = Dropout::new(0.3);
        let x = Tensor::full(&[64], 1.0);
        let y = d.forward(x, true);
        let g = d.backward(Tensor::full(&[64], 1.0));
        for (yv, gv) in y.data().iter().zip(g.data()) {
            // Both zero or both scaled.
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
