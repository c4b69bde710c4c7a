//! Fully-connected layer.

use crate::layer::{grad_slot, slot_count, Bind, Layer};
use fedknow_math::rng::kaiming_vec;
use fedknow_math::{pool, Tensor};
use rand::rngs::StdRng;

/// `y = x Wᵀ + b`, with `x: [B, in]`, `W: [out, in]`, `b: [out]`; `W`
/// and then `b` in the model's arena from offset `off`.
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// The drawn `W` until [`Layer::bind`] moves it into the arena.
    init: Vec<f32>,
    off: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialised linear layer.
    pub fn new(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        Self {
            in_features,
            out_features,
            init: kaiming_vec(rng, out_features * in_features, in_features),
            off: 0,
            cached_input: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [B, in]");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Linear input width mismatch"
        );
        let n = self.out_features;
        let (wt, b) =
            params[self.off..][..n * (self.in_features + 1)].split_at(n * self.in_features);
        let mut y = x.matmul_nt_slice(wt, n);
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

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)");
        let n = self.out_features;
        let wlen = n * self.in_features;
        let b = x.shape()[0];
        let slots = slot_count(grad.len(), b * n, "Linear");
        for j in 0..slots {
            let gy = &grad.data()[j * b * n..][..b * n];
            // ∂L/∂W [out,in] = gradᵀ [out,B] · x [B,in], slot by slot.
            let mut rows = pool::take(b * n);
            rows.copy_from_slice(gy);
            let gw = Tensor::from_vec(rows, &[b, n]).matmul_tn(x);
            let gw_slot = grad_slot(grads, slots, j, self.off, wlen);
            for (d, &v) in gw_slot.iter_mut().zip(gw.data()) {
                *d += v;
            }
            // ∂L/∂b = column sums of grad
            let gb = grad_slot(grads, slots, j, self.off + wlen, n);
            for row in gy.chunks_exact(n) {
                for (d, &r) in gb.iter_mut().zip(row) {
                    *d += r;
                }
            }
        }
        // ∂L/∂x [s·B,in] = grad [s·B,out] · W [out,in]: one GEMM for
        // every slot.
        grad.matmul_slice(&params[self.off..][..wlen], self.in_features)
    }

    fn bind(&mut self, bind: &mut Bind) {
        let n = self.out_features;
        let init = std::mem::take(&mut self.init);
        self.off = bind("linear.weight", &[n, self.in_features], init);
        bind("linear.bias", &[n], vec![0.0; n]);
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
    use crate::Model;
    use fedknow_math::rng::seeded;

    fn model(in_features: usize, out_features: usize) -> Model {
        let l = Linear::new(&mut seeded(0), in_features, out_features);
        Model::new(l, &[in_features], out_features)
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut m = model(2, 2);
        // Overwrite with known weights, then the bias.
        m.params_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = m.forward(x, false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_accumulates_bias_grad_as_column_sum() {
        let mut m = model(3, 2);
        let x = Tensor::from_vec(vec![1.0; 6], &[2, 3]);
        let _ = m.forward(x, true);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = m.backward(g);
        assert_eq!(&m.grad_slot(0)[6..], &[4.0, 6.0]);
    }

    #[test]
    fn zero_grad_clears_buffers() {
        let mut m = model(2, 2);
        let _ = m.forward(Tensor::zeros(&[1, 2]), true);
        let _ = m.backward(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        assert!(m.grad_slot(0).iter().any(|&x| x != 0.0));
        m.zero_grad();
        assert!(m.grad_slot(0).iter().all(|&x| x == 0.0));
    }
}
