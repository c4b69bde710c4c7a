//! Pooling and shape layers.
//!
//! All layers here keep persistent scratch (argmax indices, cached input
//! shapes) and draw output buffers from [`fedknow_math::pool`], so the
//! steady-state training loop performs no heap allocation (pinned by
//! `crates/nn/tests/alloc_steady_state.rs`).

use crate::layer::Layer;
use fedknow_math::{pool, Tensor};

/// 2×2 (or k×k) max pooling with stride = kernel.
pub struct MaxPool2d {
    kernel: usize,
    /// For each output element, the flat input index of its argmax.
    argmax: Vec<u32>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Non-overlapping max pooling with the given kernel/stride.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel >= 1);
        Self {
            kernel,
            argmax: Vec::new(),
            in_shape: Vec::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.kernel, w / self.kernel)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "MaxPool2d expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let mut out = pool::take(b * c * oh * ow);
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
            self.argmax.clear();
            self.argmax.resize(b * c * oh * ow, 0);
        }
        let xd = x.data();
        for bc in 0..b * c {
            let plane = &xd[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    // Running best and its index live in locals and are
                    // updated by selects: which element of a window wins
                    // is data-random, so a compare-and-store mispredicts.
                    // Strict `>` from -inf: the first maximum wins, NaN
                    // never does, an unbeaten window keeps index 0.
                    let (mut best, mut arg) = (f32::NEG_INFINITY, 0u32);
                    for ky in 0..k {
                        let row = (oy * k + ky) * w + ox * k;
                        for (kx, &v) in plane[row..row + k].iter().enumerate() {
                            let wins = v > best;
                            best = if wins { v } else { best };
                            arg = if wins {
                                (bc * h * w + row + kx) as u32
                            } else {
                                arg
                            };
                        }
                    }
                    let oidx = bc * oh * ow + oy * ow + ox;
                    out[oidx] = best;
                    if train {
                        self.argmax[oidx] = arg;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[b, c, oh, ow])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let mut gx = Tensor::zeros(&self.in_shape);
        let gxd = gx.data_mut();
        for (g, &idx) in grad.data().iter().zip(&self.argmax) {
            gxd[idx as usize] += g;
        }
        gx
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (b, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        (
            in_shape.iter().product::<usize>() as u64,
            vec![b, c, oh, ow],
        )
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Global average pooling: `[B,C,H,W] → [B,C]`.
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// New global-average-pool layer.
    pub fn new() -> Self {
        Self {
            in_shape: Vec::new(),
        }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "GlobalAvgPool expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
        }
        let inv = 1.0 / (h * w) as f32;
        let mut out = pool::take(b * c);
        for (bc, o) in out.iter_mut().enumerate() {
            *o = x.data()[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * inv;
        }
        Tensor::from_vec(out, &[b, c])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let (h, w) = (self.in_shape[2], self.in_shape[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut gx = Tensor::zeros(&self.in_shape);
        for (bc, &g) in grad.data().iter().enumerate() {
            for v in &mut gx.data_mut()[bc * h * w..(bc + 1) * h * w] {
                *v = g * inv;
            }
        }
        gx
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (
            in_shape.iter().product::<usize>() as u64,
            vec![in_shape[0], in_shape[1]],
        )
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

/// Flatten `[B, ...] → [B, prod(...)]`.
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self {
            in_shape: Vec::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        let b = s[0];
        let rest: usize = s[1..].iter().product();
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
        }
        x.reshape(&[b, rest])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        grad.reshape(&self.in_shape)
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let b = in_shape[0];
        (0, vec![b, in_shape[1..].iter().product()])
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_max_and_routes_gradient() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    /// The comparison is a strict `>` against a running best that starts
    /// at `-inf`: the first of equal maxima keeps the gradient, and a
    /// window nothing beats (all NaN, all `-inf`) yields `-inf` routed to
    /// flat index 0.
    #[test]
    fn maxpool_ties_go_to_the_first_and_unbeaten_windows_stay_neg_inf() {
        let mut p = MaxPool2d::new(2);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        #[rustfmt::skip]
        let x = Tensor::from_vec(
            vec![
                1.0, 7.0,   nan, nan,   ninf, ninf,
                7.0, 7.0,   nan, nan,   ninf, ninf,
            ],
            &[1, 1, 2, 6],
        );
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[7.0, ninf, ninf]);
        assert_eq!(p.argmax, [1, 0, 0]);
        let gx = p.backward(Tensor::from_vec(vec![1.0, 2.0, 4.0], &[1, 1, 1, 3]));
        assert_eq!(gx.data()[..2], [6.0, 1.0]);
        assert!(gx.data()[2..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gap_averages_and_spreads_gradient() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(Tensor::from_vec(vec![4.0], &[1, 1]));
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = f.backward(Tensor::zeros(&[2, 48]));
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }
}

/// Non-overlapping average pooling with stride = kernel.
pub struct AvgPool2d {
    kernel: usize,
    in_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Average pooling with the given kernel/stride.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel >= 1);
        Self {
            kernel,
            in_shape: Vec::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "AvgPool2d expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
        }
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = pool::take(b * c * oh * ow);
        let xd = x.data();
        for bc in 0..b * c {
            let plane = &xd[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += plane[(oy * k + ky) * w + ox * k + kx];
                        }
                    }
                    out[bc * oh * ow + oy * ow + ox] = acc * inv;
                }
            }
        }
        Tensor::from_vec(out, &[b, c, oh, ow])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let (b, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut gx = Tensor::zeros(&self.in_shape);
        let gxd = gx.data_mut();
        for bc in 0..b * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad.data()[bc * oh * ow + oy * ow + ox] * inv;
                    for ky in 0..k {
                        for kx in 0..k {
                            gxd[bc * h * w + (oy * k + ky) * w + ox * k + kx] += g;
                        }
                    }
                }
            }
        }
        gx
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (b, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        (
            in_shape.iter().product::<usize>() as u64,
            vec![b, c, h / self.kernel, w / self.kernel],
        )
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

#[cfg(test)]
mod avgpool_tests {
    use super::*;

    #[test]
    fn avgpool_averages_and_spreads_gradient() {
        let mut p = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_shape() {
        let p = AvgPool2d::new(2);
        let (_, s) = p.flops(&[2, 3, 8, 8]);
        assert_eq!(s, vec![2, 3, 4, 4]);
    }
}
