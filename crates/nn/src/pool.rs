//! Pooling and shape layers.
//!
//! All layers here keep persistent scratch (argmax indices, cached input
//! shapes) and draw output buffers from [`fedknow_math::pool`], so the
//! steady-state training loop performs no heap allocation (pinned by
//! `crates/nn/tests/alloc_steady_state.rs`).

use crate::layer::{slot_count, stacked_shape, Layer};
use fedknow_math::{pool, Tensor};

/// 2×2 max pooling with stride 2, the one pool the model zoo builds. An
/// odd last row or column is dropped.
pub struct MaxPool2d {
    /// For each output element, the flat input index of its argmax.
    argmax: Vec<u32>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// New 2×2, stride-2 max-pooling layer.
    pub fn new() -> Self {
        Self {
            argmax: Vec::new(),
            in_shape: Vec::new(),
        }
    }

    fn out_hw(h: usize, w: usize) -> (usize, usize) {
        (h / 2, w / 2)
    }
}

/// Pooling windows per step of [`MaxPool2d`]'s forward: four lanes, one
/// SSE register, which every x86-64 has without a target feature.
const POOL_LANES: usize = 4;

/// Windows `ox..ox + L` of one output row into `out[..L]` and their flat
/// input indices into `arg[..L]`: window `ox` reads `top[2·ox]`,
/// `top[2·ox + 1]`, `bot[2·ox]` and `bot[2·ox + 1]`, in that order, and
/// `bot` is the row after `top`, which starts at flat index `at`. Each
/// window keeps a running best and its index, updated by selects, lane
/// by lane (a branch on which element wins is data-random and
/// mispredicts): strict `>` from −inf, so the first maximum wins, NaN
/// never does and an unbeaten window keeps index 0.
#[inline(always)]
fn max_windows<const L: usize>(
    top: &[f32],
    bot: &[f32],
    at: usize,
    ox: usize,
    out: &mut [f32],
    arg: &mut [u32],
) {
    let (w, x0) = (top.len(), 2 * ox);
    let (top, bot) = (&top[x0..][..2 * L], &bot[x0..][..2 * L]);
    let mut best = [f32::NEG_INFINITY; L];
    let mut idx = [0u32; L];
    for (row, dx, di) in [(top, 0, 0), (top, 1, 1), (bot, 0, w), (bot, 1, w + 1)] {
        for i in 0..L {
            let v = row[2 * i + dx];
            let wins = v > best[i];
            best[i] = if wins { v } else { best[i] };
            idx[i] = if wins {
                (at + x0 + 2 * i + di) as u32
            } else {
                idx[i]
            };
        }
    }
    out[..L].copy_from_slice(&best);
    arg[..L].copy_from_slice(&idx);
}

impl Default for MaxPool2d {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, _params: &[f32], x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "MaxPool2d expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = Self::out_hw(h, w);
        let mut out = pool::take(b * c * oh * ow);
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
            self.argmax.clear();
            self.argmax.resize(b * c * oh * ow, 0);
        }
        let xd = x.data();
        // Without training the indices go to a scratch row.
        let mut scratch = [0u32; POOL_LANES];
        for bc in 0..b * c {
            for oy in 0..oh {
                let (r, at) = (bc * oh + oy, bc * h * w + 2 * oy * w);
                let (top, bot) = (&xd[at..][..w], &xd[at + w..][..w]);
                let o = &mut out[r * ow..][..ow];
                let mut arg = train.then(|| &mut self.argmax[r * ow..][..ow]);
                let mut ox = 0;
                while ox < ow {
                    let a = match arg.as_deref_mut() {
                        Some(a) => &mut a[ox..],
                        None => &mut scratch[..],
                    };
                    if ow - ox >= POOL_LANES {
                        max_windows::<POOL_LANES>(top, bot, at, ox, &mut o[ox..], a);
                        ox += POOL_LANES;
                    } else {
                        max_windows::<1>(top, bot, at, ox, &mut o[ox..], a);
                        ox += 1;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[b, c, oh, ow])
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let s = slot_count(grad.len(), self.argmax.len(), "MaxPool2d");
        let mut gx = Tensor::zeros(&stacked_shape(&self.in_shape, s)[..4]);
        let (in_len, out_len) = (gx.len() / s, self.argmax.len());
        // Each slot routes through the one forward's argmax.
        for j in 0..s {
            let gxd = &mut gx.data_mut()[j * in_len..][..in_len];
            for (g, &idx) in grad.data()[j * out_len..][..out_len]
                .iter()
                .zip(&self.argmax)
            {
                gxd[idx as usize] += g;
            }
        }
        gx
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (b, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = Self::out_hw(h, w);
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
    fn forward(&mut self, _params: &[f32], x: Tensor, train: bool) -> Tensor {
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

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let (b, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let s = slot_count(grad.len(), b * c, "GlobalAvgPool");
        let inv = 1.0 / (h * w) as f32;
        let mut gx = Tensor::zeros(&stacked_shape(&self.in_shape, s)[..4]);
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
    fn forward(&mut self, _params: &[f32], x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        let b = s[0];
        let rest: usize = s[1..].iter().product();
        if train {
            self.in_shape.clear();
            self.in_shape.extend_from_slice(s);
        }
        x.reshape(&[b, rest])
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let s = slot_count(grad.len(), self.in_shape.iter().product(), "Flatten");
        grad.reshape(&stacked_shape(&self.in_shape, s)[..self.in_shape.len()])
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
        let mut p = MaxPool2d::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = p.forward(&[], x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(&[], &mut [], Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    /// The scalar loop the vectorised forward replaced: per window, the
    /// four reads in order, strict `>` from −inf.
    fn scalar_maxpool(x: &[f32], bc: usize, h: usize, w: usize) -> (Vec<f32>, Vec<u32>) {
        let (oh, ow) = (h / 2, w / 2);
        let (mut out, mut arg) = (Vec::new(), Vec::new());
        for p in 0..bc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let top = p * h * w + 2 * oy * w + 2 * ox;
                    let (mut best, mut at) = (f32::NEG_INFINITY, 0u32);
                    for i in [top, top + 1, top + w, top + w + 1] {
                        if x[i] > best {
                            (best, at) = (x[i], i as u32);
                        }
                    }
                    out.push(best);
                    arg.push(at);
                }
            }
        }
        (out, arg)
    }

    #[test]
    fn vectorised_forward_is_the_scalar_loop() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        // Few distinct values, so windows tie; NaN, ±inf and ±0.0 mixed in.
        let pick = [1.0, 2.0, -0.0, 0.0, nan, -inf, inf, 2.0, -1.0, -inf];
        for (i, &(b, c, h, w)) in [
            (2, 3, 16, 16),
            (1, 2, 8, 8),
            (3, 1, 4, 4),
            (1, 1, 2, 2),
            (2, 2, 5, 11),
            (1, 3, 6, 18),
            (1, 1, 1, 9),
        ]
        .iter()
        .enumerate()
        {
            let len = b * c * h * w;
            let mut x: Vec<f32> = (0..len)
                .map(|j| pick[(j * 7 + j / 5 + i) % pick.len()])
                .collect();
            // Whole windows of −inf, of NaN and of ±0.0.
            if h >= 2 && w >= 6 {
                for (k, v) in [(0, -inf), (2, nan), (4, -0.0)] {
                    x[k] = v;
                    x[k + 1] = v;
                    x[w + k] = if v == 0.0 { 0.0 } else { v };
                    x[w + k + 1] = v;
                }
            }
            let (want, want_arg) = scalar_maxpool(&x, b * c, h, w);
            for train in [true, false] {
                let mut p = MaxPool2d::new();
                let y = p.forward(&[], Tensor::from_vec(x.clone(), &[b, c, h, w]), train);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(y.data()), bits(&want), "case {i} train {train}");
                if train {
                    assert_eq!(p.argmax, want_arg, "case {i}");
                }
            }
        }
    }

    /// The comparison is a strict `>` against a running best that starts
    /// at `-inf`: the first of equal maxima keeps the gradient, and a
    /// window nothing beats (all NaN, all `-inf`) yields `-inf` routed to
    /// flat index 0.
    #[test]
    fn maxpool_ties_go_to_the_first_and_unbeaten_windows_stay_neg_inf() {
        let mut p = MaxPool2d::new();
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        #[rustfmt::skip]
        let x = Tensor::from_vec(
            vec![
                1.0, 7.0,   nan, nan,   ninf, ninf,
                7.0, 7.0,   nan, nan,   ninf, ninf,
            ],
            &[1, 1, 2, 6],
        );
        let y = p.forward(&[], x, true);
        assert_eq!(y.data(), &[7.0, ninf, ninf]);
        assert_eq!(p.argmax, [1, 0, 0]);
        let gx = p.backward(
            &[],
            &mut [],
            Tensor::from_vec(vec![1.0, 2.0, 4.0], &[1, 1, 1, 3]),
        );
        assert_eq!(gx.data()[..2], [6.0, 1.0]);
        assert!(gx.data()[2..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gap_averages_and_spreads_gradient() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(&[], x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(&[], &mut [], Tensor::from_vec(vec![4.0], &[1, 1]));
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&[], x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = f.backward(&[], &mut [], Tensor::zeros(&[2, 48]));
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
    fn forward(&mut self, _params: &[f32], x: Tensor, train: bool) -> Tensor {
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

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward(train)");
        let (b, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        let s = slot_count(grad.len(), b * c * oh * ow, "AvgPool2d");
        let inv = 1.0 / (k * k) as f32;
        let mut gx = Tensor::zeros(&stacked_shape(&self.in_shape, s)[..4]);
        let gxd = gx.data_mut();
        for bc in 0..s * b * c {
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
        let y = p.forward(&[], x, true);
        assert_eq!(y.data(), &[4.0]);
        let gx = p.backward(&[], &mut [], Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_shape() {
        let p = AvgPool2d::new(2);
        let (_, s) = p.flops(&[2, 3, 8, 8]);
        assert_eq!(s, vec![2, 3, 4, 4]);
    }
}
