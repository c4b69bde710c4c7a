//! Fully-connected layer.

use crate::layer::{slot_count, Grad, Layer, ParamVisitor};
use fedknow_math::rng::kaiming_vec;
use fedknow_math::{pool, Tensor};
use rand::rngs::StdRng;

/// `y = x Wᵀ + b`, with `x: [B, in]`, `W: [out, in]`, `b: [out]`.
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Grad,
    grad_bias: Grad,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialised linear layer.
    pub fn new(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        let weight = Tensor::from_vec(
            kaiming_vec(rng, out_features * in_features, in_features),
            &[out_features, in_features],
        );
        Self {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Grad::zeros(out_features * in_features),
            grad_bias: Grad::zeros(out_features),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [B, in]");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Linear input width mismatch"
        );
        let mut y = x.matmul_nt(&self.weight);
        let b = self.bias.data();
        let n = self.out_features;
        for row in y.data_mut().chunks_exact_mut(n) {
            for (o, &bi) in row.iter_mut().zip(b) {
                *o += bi;
            }
        }
        if train {
            self.cached_input = Some(x);
        }
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)");
        let n = self.out_features;
        let b = x.shape()[0];
        let slots = slot_count(grad.len(), b * n, "Linear");
        self.grad_weight.set_slots(slots);
        self.grad_bias.set_slots(slots);
        for j in 0..slots {
            let gy = &grad.data()[j * b * n..][..b * n];
            // ∂L/∂W [out,in] = gradᵀ [out,B] · x [B,in], slot by slot.
            let mut rows = pool::take(b * n);
            rows.copy_from_slice(gy);
            let gw = Tensor::from_vec(rows, &[b, n]).matmul_tn(x);
            for (g, &v) in self.grad_weight.slot(j).iter_mut().zip(gw.data()) {
                *g += v;
            }
            // ∂L/∂b = column sums of grad
            let gb = self.grad_bias.slot(j);
            for row in gy.chunks_exact(n) {
                for (g, &r) in gb.iter_mut().zip(row) {
                    *g += r;
                }
            }
        }
        // ∂L/∂x [s·B,in] = grad [s·B,out] · W [out,in]: one GEMM for
        // every slot.
        grad.matmul(&self.weight)
    }

    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(
            "linear.weight",
            &[self.out_features, self.in_features],
            self.weight.data_mut(),
            self.grad_weight.main(),
        );
        v.visit(
            "linear.bias",
            &[self.out_features],
            self.bias.data_mut(),
            self.grad_bias.main(),
        );
    }

    fn take_grad_slots(&mut self, v: &mut dyn FnMut(usize, Vec<f32>)) {
        self.grad_weight.take_rest(v);
        self.grad_bias.take_rest(v);
    }

    fn zero_grad(&mut self) {
        self.grad_weight.zero();
        self.grad_bias.zero();
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let b = in_shape[0] as u64;
        let f =
            b * (2 * self.in_features as u64 * self.out_features as u64 + self.out_features as u64);
        (f, vec![in_shape[0], self.out_features])
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;

    #[test]
    fn forward_matches_hand_computation() {
        let mut rng = seeded(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        // Overwrite with known weights.
        l.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        l.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(x, false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_accumulates_bias_grad_as_column_sum() {
        let mut rng = seeded(0);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![1.0; 6], &[2, 3]);
        let _ = l.forward(x, true);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = l.backward(g);
        assert_eq!(l.grad_bias.main(), &[4.0, 6.0]);
    }

    #[test]
    fn zero_grad_clears_buffers() {
        let mut rng = seeded(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        let _ = l.forward(Tensor::zeros(&[1, 2]), true);
        let _ = l.backward(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        l.zero_grad();
        assert!(l.grad_weight.main().iter().all(|&x| x == 0.0));
        assert!(l.grad_bias.main().iter().all(|&x| x == 0.0));
    }
}
