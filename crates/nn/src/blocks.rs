//! Composite blocks with hand-written chain rules.
//!
//! These five blocks are enough to express the paper's whole model zoo
//! (§V-E): residual (ResNet/WideResNet/ResNeXt via grouped conv),
//! squeeze-excitation (SENet), parallel concat (Inception, DenseNet),
//! channel split-concat and channel shuffle (ShuffleNetV2), and inverted
//! residuals (MobileNetV2, via `Residual` with a depthwise main path).

use crate::activations::{ReLU, Sigmoid};
use crate::layer::{slot_count, Bind, Layer, Sequential};
use crate::linear::Linear;
use fedknow_math::Tensor;
use rand::rngs::StdRng;

/// `y = ReLU(main(x) + shortcut(x))`; identity shortcut when `None`.
///
/// Set `final_relu = false` for MobileNetV2-style linear bottlenecks.
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    final_relu: Option<ReLU>,
}

impl Residual {
    /// Residual block with optional projection shortcut.
    pub fn new(main: Sequential, shortcut: Option<Sequential>, final_relu: bool) -> Self {
        Self {
            main,
            shortcut,
            final_relu: final_relu.then(ReLU::new),
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        let main_out = self.main.forward(params, x.clone(), train);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(params, x, train),
            None => x,
        };
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual branch shapes diverge — add a projection shortcut"
        );
        let mut y = main_out;
        y.add_assign(&short_out);
        match &mut self.final_relu {
            Some(relu) => relu.forward(params, y, train),
            None => y,
        }
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let grad = match &mut self.final_relu {
            Some(relu) => relu.backward(params, grads, grad),
            None => grad,
        };
        let mut gx = self.main.backward(params, grads, grad.clone());
        let gs = match &mut self.shortcut {
            Some(s) => s.backward(params, grads, grad),
            None => grad,
        };
        gx.add_assign(&gs);
        gx
    }

    fn bind(&mut self, bind: &mut Bind) {
        self.main.bind(bind);
        if let Some(s) = &mut self.shortcut {
            s.bind(bind);
        }
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        self.main.visit_buffers(v);
        if let Some(s) = &mut self.shortcut {
            s.visit_buffers(v);
        }
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (fm, out) = self.main.flops(in_shape);
        let fs = match &self.shortcut {
            Some(s) => s.flops(in_shape).0,
            None => 0,
        };
        let add = out.iter().product::<usize>() as u64;
        (fm + fs + add, out)
    }

    fn name(&self) -> &'static str {
        "Residual"
    }
}

/// Squeeze-and-excitation channel gating: `y = x ⊙ σ(W₂ ReLU(W₁ GAP(x)))`.
pub struct SEScale {
    channels: usize,
    fc1: Linear,
    relu: ReLU,
    fc2: Linear,
    sigmoid: Sigmoid,
    cached_input: Option<Tensor>,
    cached_gate: Vec<f32>,
}

impl SEScale {
    /// SE block with the usual `channels / reduction` bottleneck (min 1).
    pub fn new(rng: &mut StdRng, channels: usize, reduction: usize) -> Self {
        let hidden = (channels / reduction).max(1);
        Self {
            channels,
            fc1: Linear::new(rng, channels, hidden),
            relu: ReLU::new(),
            fc2: Linear::new(rng, hidden, channels),
            sigmoid: Sigmoid::new(),
            cached_input: None,
            cached_gate: Vec::new(),
        }
    }
}

impl Layer for SEScale {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "SEScale expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels);
        let plane = h * w;
        // Squeeze.
        let inv = 1.0 / plane as f32;
        let mut squeezed = vec![0.0f32; b * c];
        for (bc, sq) in squeezed.iter_mut().enumerate() {
            *sq = x.data()[bc * plane..(bc + 1) * plane].iter().sum::<f32>() * inv;
        }
        // Excite.
        let z = self
            .fc1
            .forward(params, Tensor::from_vec(squeezed, &[b, c]), train);
        let z = self.relu.forward(params, z, train);
        let z = self.fc2.forward(params, z, train);
        let gate = self.sigmoid.forward(params, z, train);
        // Scale.
        let mut y = x.clone();
        for bc in 0..b * c {
            let g = gate.data()[bc];
            for v in &mut y.data_mut()[bc * plane..(bc + 1) * plane] {
                *v *= g;
            }
        }
        if train {
            self.cached_input = Some(x);
            self.cached_gate = gate.into_vec();
        }
        y
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)");
        let s = x.shape().to_vec();
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let plane = h * w;
        let slots = slot_count(grad.len(), x.len(), "SEScale");
        // ∂L/∂gate[b,c] = Σ_hw gy·x ; direct path ∂L/∂x = gy·gate. Row
        // `sbc` of a stacked gradient is row `sbc % (b·c)` of the forward.
        let mut g_gate = vec![0.0f32; slots * b * c];
        let mut gx = grad.clone();
        for (sbc, gg) in g_gate.iter_mut().enumerate() {
            let bc = sbc % (b * c);
            let gslice = &grad.data()[sbc * plane..(sbc + 1) * plane];
            let xslice = &x.data()[bc * plane..(bc + 1) * plane];
            *gg = gslice.iter().zip(xslice).map(|(&g, &xv)| g * xv).sum();
            let gt = self.cached_gate[bc];
            for v in &mut gx.data_mut()[sbc * plane..(sbc + 1) * plane] {
                *v *= gt;
            }
        }
        // Back through the excitation MLP.
        let gz = self
            .sigmoid
            .backward(params, grads, Tensor::from_vec(g_gate, &[slots * b, c]));
        let gz = self.fc2.backward(params, grads, gz);
        let gz = self.relu.backward(params, grads, gz);
        let g_squeezed = self.fc1.backward(params, grads, gz);
        // Back through the squeeze (mean over the plane).
        let inv = 1.0 / plane as f32;
        for bc in 0..slots * b * c {
            let gs = g_squeezed.data()[bc] * inv;
            for v in &mut gx.data_mut()[bc * plane..(bc + 1) * plane] {
                *v += gs;
            }
        }
        gx
    }

    fn bind(&mut self, bind: &mut Bind) {
        self.fc1.bind(bind);
        self.fc2.bind(bind);
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let n = in_shape.iter().product::<usize>() as u64;
        let (f1, s1) = self.fc1.flops(&[in_shape[0], self.channels]);
        let (f2, _) = self.fc2.flops(&s1);
        (2 * n + f1 + f2, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "SEScale"
    }
}

/// Apply each branch to the *same* input and concatenate outputs along the
/// channel axis. An empty branch acts as identity (DenseNet's skip path).
pub struct Concat {
    branches: Vec<Sequential>,
    cached_channels: Vec<usize>,
}

impl Concat {
    /// Parallel branches over a shared input.
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(!branches.is_empty(), "Concat needs at least one branch");
        Self {
            branches,
            cached_channels: Vec::new(),
        }
    }
}

impl Layer for Concat {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        let outs: Vec<Tensor> = self
            .branches
            .iter_mut()
            .map(|br| br.forward(params, x.clone(), train))
            .collect();
        let (b, h, w) = (outs[0].shape()[0], outs[0].shape()[2], outs[0].shape()[3]);
        for o in &outs {
            assert_eq!(o.shape()[0], b);
            assert_eq!(
                &o.shape()[2..],
                &[h, w],
                "Concat branches must agree spatially"
            );
        }
        if train {
            self.cached_channels = outs.iter().map(|o| o.shape()[1]).collect();
        }
        concat_channels(&outs)
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(
            !self.cached_channels.is_empty(),
            "backward before forward(train)"
        );
        let parts = split_channels(&grad, &self.cached_channels);
        let mut gx: Option<Tensor> = None;
        for (br, part) in self.branches.iter_mut().zip(parts) {
            let g = br.backward(params, grads, part);
            match &mut gx {
                Some(acc) => acc.add_assign(&g),
                None => gx = Some(g),
            }
        }
        gx.expect("Concat has at least one branch")
    }

    fn bind(&mut self, bind: &mut Bind) {
        for br in &mut self.branches {
            br.bind(bind);
        }
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        for br in &mut self.branches {
            br.visit_buffers(v);
        }
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let mut total = 0;
        let mut channels = 0;
        let mut spatial = vec![];
        for br in &self.branches {
            let (f, s) = br.flops(in_shape);
            total += f;
            channels += s[1];
            spatial = s;
        }
        (total, vec![in_shape[0], channels, spatial[2], spatial[3]])
    }

    fn name(&self) -> &'static str {
        "Concat"
    }
}

/// Split input channels into contiguous ranges, run one branch per range,
/// concatenate the outputs (ShuffleNetV2's unit structure).
pub struct SplitConcat {
    splits: Vec<usize>,
    branches: Vec<Sequential>,
    cached_out_channels: Vec<usize>,
}

impl SplitConcat {
    /// `splits[i]` input channels feed `branches[i]`.
    pub fn new(splits: Vec<usize>, branches: Vec<Sequential>) -> Self {
        assert_eq!(splits.len(), branches.len());
        assert!(!splits.is_empty());
        Self {
            splits,
            branches,
            cached_out_channels: Vec::new(),
        }
    }
}

impl Layer for SplitConcat {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        assert_eq!(
            x.shape()[1],
            self.splits.iter().sum::<usize>(),
            "SplitConcat channel split mismatch"
        );
        let parts = split_channels(&x, &self.splits);
        let outs: Vec<Tensor> = self
            .branches
            .iter_mut()
            .zip(parts)
            .map(|(br, p)| br.forward(params, p, train))
            .collect();
        if train {
            self.cached_out_channels = outs.iter().map(|o| o.shape()[1]).collect();
        }
        concat_channels(&outs)
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(
            !self.cached_out_channels.is_empty(),
            "backward before forward(train)"
        );
        let parts = split_channels(&grad, &self.cached_out_channels);
        let gins: Vec<Tensor> = self
            .branches
            .iter_mut()
            .zip(parts)
            .map(|(br, p)| br.backward(params, grads, p))
            .collect();
        concat_channels(&gins)
    }

    fn bind(&mut self, bind: &mut Bind) {
        for br in &mut self.branches {
            br.bind(bind);
        }
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        for br in &mut self.branches {
            br.visit_buffers(v);
        }
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (b, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
        let mut total = 0;
        let mut channels = 0;
        let mut spatial = vec![b, 0, h, w];
        for (br, &c) in self.branches.iter().zip(&self.splits) {
            let (f, s) = br.flops(&[b, c, h, w]);
            total += f;
            channels += s[1];
            spatial = s;
        }
        (total, vec![in_shape[0], channels, spatial[2], spatial[3]])
    }

    fn name(&self) -> &'static str {
        "SplitConcat"
    }
}

/// ShuffleNet channel shuffle: reshape `[g, C/g]` → transpose → flatten.
pub struct ChannelShuffle {
    groups: usize,
}

impl ChannelShuffle {
    /// Shuffle across `groups` channel groups.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1);
        Self { groups }
    }

    fn permute(&self, x: &Tensor, inverse: bool) -> Tensor {
        let s = x.shape().to_vec();
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c % self.groups, 0, "channels must divide groups");
        let per = c / self.groups;
        let plane = h * w;
        let mut out = vec![0.0f32; x.len()];
        for bi in 0..b {
            for g in 0..self.groups {
                for p in 0..per {
                    let (src, dst) = if !inverse {
                        (g * per + p, p * self.groups + g)
                    } else {
                        (p * self.groups + g, g * per + p)
                    };
                    let sbase = (bi * c + src) * plane;
                    let dbase = (bi * c + dst) * plane;
                    out[dbase..dbase + plane].copy_from_slice(&x.data()[sbase..sbase + plane]);
                }
            }
        }
        Tensor::from_vec(out, &s)
    }
}

impl Layer for ChannelShuffle {
    fn forward(&mut self, _params: &[f32], x: Tensor, _train: bool) -> Tensor {
        self.permute(&x, false)
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        self.permute(&grad, true)
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "ChannelShuffle"
    }
}

/// Concatenate `[B,Ci,H,W]` tensors along the channel axis.
fn concat_channels(parts: &[Tensor]) -> Tensor {
    let (b, h, w) = (
        parts[0].shape()[0],
        parts[0].shape()[2],
        parts[0].shape()[3],
    );
    let plane = h * w;
    let total_c: usize = parts.iter().map(|p| p.shape()[1]).sum();
    let mut out = vec![0.0f32; b * total_c * plane];
    for bi in 0..b {
        let mut c0 = 0;
        for p in parts {
            let pc = p.shape()[1];
            let src = &p.data()[bi * pc * plane..(bi + 1) * pc * plane];
            let dst0 = (bi * total_c + c0) * plane;
            out[dst0..dst0 + pc * plane].copy_from_slice(src);
            c0 += pc;
        }
    }
    Tensor::from_vec(out, &[b, total_c, h, w])
}

/// Split a `[B,C,H,W]` tensor into channel ranges of the given sizes.
fn split_channels(x: &Tensor, sizes: &[usize]) -> Vec<Tensor> {
    let s = x.shape();
    let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(
        c,
        sizes.iter().sum::<usize>(),
        "split sizes must cover all channels"
    );
    let plane = h * w;
    let mut out = Vec::with_capacity(sizes.len());
    let mut c0 = 0;
    for &sc in sizes {
        let mut part = vec![0.0f32; b * sc * plane];
        for bi in 0..b {
            let src0 = (bi * c + c0) * plane;
            part[bi * sc * plane..(bi + 1) * sc * plane]
                .copy_from_slice(&x.data()[src0..src0 + sc * plane]);
        }
        out.push(Tensor::from_vec(part, &[b, sc, h, w]));
        c0 += sc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::Model;
    use fedknow_math::rng::seeded;

    /// `layer` alone in a model, the arena its parameters bound into.
    fn model(layer: impl Layer + 'static) -> Model {
        Model::new(layer, &[], 0)
    }

    #[test]
    fn identity_residual_doubles_then_relu() {
        // main = empty Sequential (identity) → y = relu(x + x).
        let mut r = model(Residual::new(Sequential::new(), None, true));
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 1, 1, 2]);
        let y = r.forward(x, true);
        assert_eq!(y.data(), &[0.0, 4.0]);
        let g = r.backward(Tensor::from_vec(vec![1.0, 1.0], &[1, 1, 1, 2]));
        // Gradient flows through both identity paths where relu active.
        assert_eq!(g.data(), &[0.0, 2.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let mut c = model(Concat::new(vec![Sequential::new(), Sequential::new()]));
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]);
        let y = c.forward(x, true);
        assert_eq!(y.shape(), &[1, 2, 1, 2]);
        assert_eq!(y.data(), &[1.0, 2.0, 1.0, 2.0]);
        let gx = c.backward(Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0], &[1, 2, 1, 2]));
        // Two identity branches: input grad is their sum.
        assert_eq!(gx.data(), &[3.0, 3.0]);
    }

    #[test]
    fn split_concat_routes_ranges() {
        let mut sc = model(SplitConcat::new(
            vec![1, 1],
            vec![Sequential::new(), Sequential::new()],
        ));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]);
        let y = sc.forward(x.clone(), true);
        assert_eq!(y, x, "identity branches reconstruct the input");
        let gx = sc.backward(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[1, 2, 1, 2]));
        assert_eq!(gx.data(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn channel_shuffle_backward_inverts_forward() {
        let mut cs = model(ChannelShuffle::new(2));
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 4, 1, 2]);
        let y = cs.forward(x.clone(), true);
        assert_ne!(y, x, "shuffle must actually permute");
        let back = cs.backward(y);
        assert_eq!(back, x, "backward must be the inverse permutation");
    }

    #[test]
    fn se_scale_gates_channels() {
        let mut rng = seeded(3);
        let mut se = model(SEScale::new(&mut rng, 4, 2));
        let x = Tensor::full(&[2, 4, 3, 3], 1.0);
        let y = se.forward(x, true);
        assert_eq!(y.shape(), &[2, 4, 3, 3]);
        // Sigmoid gate ∈ (0, 1): output strictly between 0 and input.
        assert!(y.data().iter().all(|&v| v > 0.0 && v < 1.0));
        let gx = se.backward(Tensor::full(&[2, 4, 3, 3], 1.0));
        assert_eq!(gx.shape(), &[2, 4, 3, 3]);
    }

    #[test]
    fn residual_with_projection_shortcut_changes_channels() {
        let mut rng = seeded(5);
        let main = Sequential::new().push(Conv2d::conv3x3(&mut rng, 2, 4, 2));
        let short = Sequential::new().push(Conv2d::conv1x1(&mut rng, 2, 4, 2));
        let mut r = model(Residual::new(main, Some(short), true));
        let x = Tensor::full(&[1, 2, 4, 4], 0.3);
        let y = r.forward(x, true);
        assert_eq!(y.shape(), &[1, 4, 2, 2]);
        let gx = r.backward(Tensor::full(&[1, 4, 2, 2], 1.0));
        assert_eq!(gx.shape(), &[1, 2, 4, 4]);
    }
}
