//! 2-D convolution via **fused im2col + GEMM**, with grouped and depthwise
//! variants.
//!
//! One implementation covers the whole model zoo: `groups = 1` is ordinary
//! convolution, `groups = cardinality` gives ResNeXt's grouped convolution,
//! and `groups = in_channels` gives MobileNet/ShuffleNet depthwise
//! convolution.
//!
//! ## Fusion
//!
//! The classical im2col lowering materialises a `[cg·k², oh·ow]` column
//! matrix per (sample, group) — `k²` times the input — keeps it for the
//! backward pass, and runs GEMMs over it. Here:
//!
//! * **Forward is fused.** The column matrix is never built:
//!   [`PatchPanels`] implements the GEMM's [`BPanels`] pack-source trait
//!   and fills each packed `KC × NR` panel straight from the input planes,
//!   one blocked GEMM per (sample, group) writing directly into the
//!   output tensor.
//! * **Backward materialises one sample's column matrix, for the length
//!   of that sample's backward.** A full-width `PatchPanels` pack *is*
//!   row-major im2col, written into the `gcol` scratch the input-gradient
//!   path already owns. The weight-gradient GEMM `gW = gy · colᵀ` reads it
//!   through [`DenseBTrans`], whose transposing pack moves 8×16 blocks;
//!   packing `colᵀ` straight from the image instead would assemble every
//!   panel row from `k`-float runs, which costs several times the GEMM it
//!   feeds. The input-gradient GEMM then overwrites `gcol` with `W_gᵀ ·
//!   gy` and `col2im` scatter-accumulates it. Nothing outlives the call.
//! * **A same-padded stride-1 convolution moves whole planes.** Row
//!   `(c, ky, kx)` of its column matrix is input plane `c` shifted by
//!   `(ky − pad)·w + (kx − pad)` with the columns that left the image
//!   zeroed ([`PatchGeom::same`]), so both the patch pack and `col2im`
//!   are one long copy / accumulate per row plus a strided fix-up. Other
//!   geometries (stride 2, unpadded) gather element by element.
//!
//! The training cache is therefore just the input tensor itself (taken by
//! ownership — `forward` consumes its argument), not `k²`-inflated column
//! matrices.
//!
//! ## Parallelism and determinism
//!
//! When [`fedknow_math::parallel::threads`] > 1, the batch dimension is
//! split across scoped threads (each sample's output/input-gradient region
//! is disjoint) and the GEMM inside each worker is pinned serial. Weight
//! gradients are computed into per-(sample, group) slots of a scratch
//! buffer and reduced into `grad_weight` on the calling thread in
//! ascending (sample, group) order — the same order, and therefore the
//! same f32 rounding, as the serial path. With one thread the GEMM itself
//! may parallelise over output rows, which is bit-identical by the GEMM's
//! own determinism contract. `crates/nn/tests/properties.rs` pins
//! bit-identity across thread counts.

use crate::layer::{Layer, ParamVisitor};
use fedknow_math::gemm::{self, BPanels, DenseA, DenseATrans, DenseB, DenseBTrans};
use fedknow_math::rng::kaiming_vec;
use fedknow_math::{flops, parallel, pool, Tensor};
use fedknow_obs::PerfCounter;
use rand::rngs::StdRng;

// The inner GEMMs go through the uncounted `matmul*_raw`-level entry
// points and the whole pass is accounted here instead, so
// `flops.conv2d_*` and `flops.matmul*` never double-count the same work.
static PERF_CONV_FWD: PerfCounter = PerfCounter::new("conv2d_fwd");
static PERF_CONV_BWD: PerfCounter = PerfCounter::new("conv2d_bwd");

/// Convolution geometry shared by the patch-panel pack sources.
#[derive(Clone, Copy)]
struct PatchGeom {
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    ow: usize,
}

impl PatchGeom {
    /// Decompose a row index of the logical column matrix into
    /// (channel, ky, kx).
    #[inline]
    fn fan_split(&self, f: usize) -> (usize, usize, usize) {
        let kk = self.k * self.k;
        (f / kk, (f % kk) / self.k, f % self.k)
    }

    /// Stride 1 with the output as wide as the input (`2·pad = k − 1`, so
    /// as tall too): output position `q` of kernel tap `(ky, kx)` sits at
    /// input position `q + (ky − pad)·w + (kx − pad)` of the flattened
    /// plane. Every stride-1 convolution of the model zoo is one; the
    /// patch pack and col2im move whole shifted planes for them and
    /// gather element by element for every other geometry.
    #[inline]
    fn same(&self) -> bool {
        self.stride == 1 && self.ow == self.w
    }

    /// For a [`same`](Self::same) geometry, how far tap `(ky, kx)` sits
    /// from its output position in the flattened plane.
    #[inline]
    fn tap_shift(&self, ky: usize, kx: usize) -> isize {
        (ky as isize - self.pad as isize) * self.w as isize + kx as isize - self.pad as isize
    }

    /// For a [`same`](Self::same) geometry, the output columns `ox` whose
    /// tap `kx` falls outside the image row.
    #[inline]
    fn wrapped_columns(&self, kx: usize) -> std::ops::Range<usize> {
        let w = self.w;
        if kx < self.pad {
            0..w.min(self.pad - kx)
        } else {
            w - w.min(kx - self.pad)..w
        }
    }
}

/// The logical im2col matrix `[cg·k², oh·ow]` of one (sample, group) as a
/// GEMM pack source. `x` holds that group's `cg` input planes.
struct PatchPanels<'a> {
    x: &'a [f32],
    g: PatchGeom,
}

impl BPanels for PatchPanels<'_> {
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize) {
        let PatchGeom {
            k,
            stride,
            pad,
            h,
            w,
            ow,
        } = self.g;
        let nstrips = nc.div_ceil(nr);
        // All index decompositions walk incrementally — no div/mod in the
        // hot loops, which matters when `ow` is small and segments short.
        let (mut c0, mut ky0, mut kx0) = self.g.fan_split(k0);
        let (oy0, ox0) = (j0 / ow, j0 % ow);
        for p in 0..kc {
            let (c, ky, kx) = (c0, ky0, kx0);
            kx0 += 1;
            if kx0 == k {
                kx0 = 0;
                ky0 += 1;
                if ky0 == k {
                    ky0 = 0;
                    c0 += 1;
                }
            }
            let plane = &self.x[c * h * w..(c + 1) * h * w];
            if self.g.same() {
                // Output position q reads `plane[q + shift]`, so this row
                // of the column matrix is the plane itself, shifted: one
                // copy per strip, clamped to the plane at both ends (the
                // rows above and below the image), after which the
                // columns whose ix left the image — the copy wrapped them
                // into the neighbouring image row — are zeroed.
                let shift = self.g.tap_shift(ky, kx);
                let wrapped = self.g.wrapped_columns(kx);
                for s in 0..nstrips {
                    let j = j0 + s * nr;
                    let wd = nr.min(nc - s * nr);
                    let drow = &mut dst[s * kc * nr + p * nr..s * kc * nr + p * nr + nr];
                    let lo = (-shift - j as isize).clamp(0, wd as isize) as usize;
                    let hi = ((h * w) as isize - shift - j as isize).clamp(lo as isize, wd as isize)
                        as usize;
                    drow[..lo].fill(0.0);
                    drow[hi..].fill(0.0);
                    if hi > lo {
                        let s0 = ((j + lo) as isize + shift) as usize;
                        drow[lo..hi].copy_from_slice(&plane[s0..s0 + (hi - lo)]);
                    }
                    let mut row = j / ow * ow;
                    while row < j + wd {
                        for q in (row + wrapped.start).max(j)..(row + wrapped.end).min(j + wd) {
                            drow[q - j] = 0.0;
                        }
                        row += ow;
                    }
                }
                continue;
            }
            let (mut oy, mut ox) = (oy0, ox0);
            for s in 0..nstrips {
                let wd = nr.min(nc - s * nr);
                let drow = &mut dst[s * kc * nr + p * nr..s * kc * nr + p * nr + nr];
                drow[wd..].fill(0.0);
                // Columns are consecutive output positions; gather one
                // output row (fixed oy) at a time.
                let mut j = 0;
                while j < wd {
                    let seg = (ow - ox).min(wd - j);
                    let dseg = &mut drow[j..j + seg];
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        dseg.fill(0.0);
                    } else {
                        let irow = &plane[iy as usize * w..(iy as usize + 1) * w];
                        for (t, d) in dseg.iter_mut().enumerate() {
                            let ix = ((ox + t) * stride + kx) as isize - pad as isize;
                            *d = if ix >= 0 && (ix as usize) < w {
                                irow[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                    j += seg;
                    ox += seg;
                    if ox == ow {
                        ox = 0;
                        oy += 1;
                    }
                }
            }
        }
    }
}

/// 2-D convolution: input `[B, C, H, W]` → output `[B, OC, OH, OW]`.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    /// `[OC, (C/groups) * k * k]`
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Input cached (by ownership) from the training forward pass — the
    /// backward rebuilds each sample's column matrix from it instead of
    /// storing column matrices.
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-initialised convolution. Panics unless both channel counts
    /// divide by `groups`.
    pub fn new(
        rng: &mut StdRng,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        assert!(
            groups >= 1
                && in_channels.is_multiple_of(groups)
                && out_channels.is_multiple_of(groups),
            "groups {groups} must divide in {in_channels} and out {out_channels}"
        );
        let cg = in_channels / groups;
        let fan_in = cg * kernel * kernel;
        let weight = Tensor::from_vec(
            kaiming_vec(rng, out_channels * fan_in, fan_in),
            &[out_channels, fan_in],
        );
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
        }
    }

    /// Plain 3×3 same-padding convolution, the workhorse of the zoo.
    pub fn conv3x3(rng: &mut StdRng, cin: usize, cout: usize, stride: usize) -> Self {
        Self::new(rng, cin, cout, 3, stride, 1, 1)
    }

    /// 1×1 convolution (channel mixing / residual downsample).
    pub fn conv1x1(rng: &mut StdRng, cin: usize, cout: usize, stride: usize) -> Self {
        Self::new(rng, cin, cout, 1, stride, 0, 1)
    }

    /// Depthwise 3×3 convolution.
    pub fn depthwise3x3(rng: &mut StdRng, channels: usize, stride: usize) -> Self {
        Self::new(rng, channels, channels, 3, stride, 1, channels)
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    fn geom(&self, h: usize, w: usize) -> PatchGeom {
        let (_, ow) = self.out_hw(h, w);
        PatchGeom {
            k: self.kernel,
            stride: self.stride,
            pad: self.padding,
            h,
            w,
            ow,
        }
    }

    /// The cost-model shape of one invocation on a `[b, C, h, w]` input.
    fn cost_shape(&self, b: usize, h: usize, w: usize) -> flops::Conv2dShape {
        flops::Conv2dShape {
            batch: b,
            in_c: self.in_channels,
            out_c: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            groups: self.groups,
            h,
            w,
        }
    }

    /// Fused forward for one sample: per group, one blocked GEMM
    /// `W_g [ocg, fan] × patches [fan, ncols]` written directly into this
    /// sample's `[OC, ncols]` output slice, then the bias broadcast.
    fn fwd_sample(&self, xs: &[f32], out_s: &mut [f32], h: usize, w: usize) {
        let g = self.geom(h, w);
        let (oh, ow) = self.out_hw(h, w);
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let fan = cg * self.kernel * self.kernel;
        for gi in 0..self.groups {
            let wg = &self.weight.data()[gi * ocg * fan..(gi + 1) * ocg * fan];
            let patches = PatchPanels {
                x: &xs[gi * cg * h * w..(gi + 1) * cg * h * w],
                g,
            };
            gemm::gemm(
                ocg,
                fan,
                ncols,
                &DenseA { data: wg, k: fan },
                &patches,
                &mut out_s[gi * ocg * ncols..(gi + 1) * ocg * ncols],
            );
        }
        for (oc, &bv) in self.bias.data().iter().enumerate() {
            for o in &mut out_s[oc * ncols..(oc + 1) * ncols] {
                *o += bv;
            }
        }
    }

    /// Backward for one sample: writes the input gradient into `gx_s`
    /// (zeroed on entry) and the per-group weight-gradient contributions
    /// into `gw_s` (`groups·ocg·fan`, overwritten). `gcol` (`fan·ncols`)
    /// is scratch: first the group's column matrix, then its gradient.
    #[allow(clippy::too_many_arguments)]
    fn bwd_sample(
        &self,
        xs: &[f32],
        grad_s: &[f32],
        gx_s: &mut [f32],
        gw_s: &mut [f32],
        gcol: &mut [f32],
        h: usize,
        w: usize,
    ) {
        let g = self.geom(h, w);
        let (oh, ow) = self.out_hw(h, w);
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let fan = cg * self.kernel * self.kernel;
        for gi in 0..self.groups {
            let gy = &grad_s[gi * ocg * ncols..(gi + 1) * ocg * ncols];
            let xg = &xs[gi * cg * h * w..(gi + 1) * cg * h * w];
            // One full-width "strip" of the patch pack is the row-major
            // column matrix [fan, ncols].
            PatchPanels { x: xg, g }.pack(gcol, 0, fan, 0, ncols, ncols);
            // gW_g [ocg, fan] = gy [ocg, ncols] × colᵀ [ncols, fan]
            gemm::gemm(
                ocg,
                ncols,
                fan,
                &DenseA { data: gy, k: ncols },
                &DenseBTrans {
                    data: gcol,
                    k: ncols,
                },
                &mut gw_s[gi * ocg * fan..(gi + 1) * ocg * fan],
            );
            // gcol [fan, ncols] = W_gᵀ × gy, then scatter back to gx.
            let wg = &self.weight.data()[gi * ocg * fan..(gi + 1) * ocg * fan];
            gemm::gemm(
                fan,
                ocg,
                ncols,
                &DenseATrans { data: wg, m: fan },
                &DenseB { data: gy, n: ncols },
                gcol,
            );
            self.col2im(
                gcol,
                &mut gx_s[gi * cg * h * w..(gi + 1) * cg * h * w],
                h,
                w,
            );
        }
    }

    /// Scatter-accumulate a `[cg·k², oh·ow]` col-gradient into one group's
    /// input-gradient planes. `col` is scratch: the same-padded stride-1
    /// walk zeroes the entries it must not add.
    fn col2im(&self, col: &mut [f32], gx: &mut [f32], h: usize, w: usize) {
        let g = self.geom(h, w);
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let pad = self.padding;
        for c in 0..cg {
            let plane = &mut gx[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * ncols;
                    if g.same() {
                        // The mirror of the patch pack: `plane[q + shift]
                        // += col[q]` over the whole row at once, clamped
                        // to the plane, with the wrapped columns' entries
                        // zeroed first. Adding their +0.0 is exact: an
                        // accumulator that starts at +0.0 never holds -0.0.
                        let crow = &mut col[row..row + ncols];
                        let wrapped = g.wrapped_columns(kx);
                        if !wrapped.is_empty() {
                            for r in crow.chunks_exact_mut(ow) {
                                r[wrapped.clone()].fill(0.0);
                            }
                        }
                        let shift = g.tap_shift(ky, kx);
                        let lo = (-shift).clamp(0, ncols as isize) as usize;
                        let hi =
                            (ncols as isize - shift).clamp(lo as isize, ncols as isize) as usize;
                        if hi > lo {
                            let d0 = (lo as isize + shift) as usize;
                            for (d, &v) in plane[d0..d0 + (hi - lo)].iter_mut().zip(&crow[lo..hi]) {
                                *d += v;
                            }
                        }
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = (oy * self.stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * self.stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[iy * w + ix as usize] += col[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let sample_out = self.out_channels * oh * ow;

        let mut out = pool::take(b * sample_out);
        // Serial fast path avoids building the (heap-allocated) chunk
        // list: steady-state training must not allocate.
        let nthreads = parallel::threads();
        let chunks = if nthreads <= 1 || b <= 1 {
            Vec::new()
        } else {
            parallel::chunks(b, 1, nthreads)
        };
        if chunks.len() <= 1 {
            for bi in 0..b {
                self.fwd_sample(
                    &x.data()[bi * c * h * w..(bi + 1) * c * h * w],
                    &mut out[bi * sample_out..(bi + 1) * sample_out],
                    h,
                    w,
                );
            }
        } else {
            let this: &Conv2d = self;
            let xd = x.data();
            std::thread::scope(|sc| {
                let mut rest = &mut out[..];
                for &(b0, bl) in &chunks {
                    let (mine, tail) = rest.split_at_mut(bl * sample_out);
                    rest = tail;
                    sc.spawn(move || {
                        // Batch-level parallelism owns the cores; keep the
                        // GEMM inside each worker serial.
                        parallel::with_threads(1, || {
                            for (i, o) in mine.chunks_mut(sample_out).enumerate() {
                                let bi = b0 + i;
                                this.fwd_sample(&xd[bi * c * h * w..(bi + 1) * c * h * w], o, h, w);
                            }
                        });
                    });
                }
            });
        }

        if train {
            self.cached_input = Some(x);
        }
        let cst = flops::conv2d_fwd(&self.cost_shape(b, h, w));
        PERF_CONV_FWD.op(cst.flops, cst.bytes);
        Tensor::from_vec(out, &[b, self.out_channels, oh, ow])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let (b, c, h, w) = {
            let x = self
                .cached_input
                .as_ref()
                .expect("backward before forward(train)");
            let s = x.shape();
            (s[0], s[1], s[2], s[3])
        };
        let (oh, ow) = self.out_hw(h, w);
        let ncols = oh * ow;
        let ocg = self.out_channels / self.groups;
        let fan = (self.in_channels / self.groups) * self.kernel * self.kernel;
        let sample_grad = self.out_channels * ncols;
        let sample_in = c * h * w;
        let gw_len = self.groups * ocg * fan;

        let mut gx = pool::take_zeroed(b * sample_in);
        // Per-(sample, group) weight-gradient slots; reduced in fixed
        // order below so the result is bit-identical for every thread
        // count (including 1 — the serial path takes the same route).
        let mut gw_parts = pool::take(b * gw_len);
        {
            let this: &Conv2d = self;
            let gd = grad.data();
            let xd = this.cached_input.as_ref().unwrap().data();
            let nthreads = parallel::threads();
            let chunks = if nthreads <= 1 || b <= 1 {
                Vec::new()
            } else {
                parallel::chunks(b, 1, nthreads)
            };
            if chunks.len() <= 1 {
                let mut gcol = pool::take(fan * ncols);
                for bi in 0..b {
                    this.bwd_sample(
                        &xd[bi * sample_in..(bi + 1) * sample_in],
                        &gd[bi * sample_grad..(bi + 1) * sample_grad],
                        &mut gx[bi * sample_in..(bi + 1) * sample_in],
                        &mut gw_parts[bi * gw_len..(bi + 1) * gw_len],
                        &mut gcol,
                        h,
                        w,
                    );
                }
                pool::give(gcol);
            } else {
                std::thread::scope(|sc| {
                    let mut gx_rest = &mut gx[..];
                    let mut gw_rest = &mut gw_parts[..];
                    for &(b0, bl) in &chunks {
                        let (gx_mine, gx_tail) = gx_rest.split_at_mut(bl * sample_in);
                        gx_rest = gx_tail;
                        let (gw_mine, gw_tail) = gw_rest.split_at_mut(bl * gw_len);
                        gw_rest = gw_tail;
                        sc.spawn(move || {
                            parallel::with_threads(1, || {
                                let mut gcol = pool::take(fan * ncols);
                                for i in 0..bl {
                                    let bi = b0 + i;
                                    this.bwd_sample(
                                        &xd[bi * sample_in..(bi + 1) * sample_in],
                                        &gd[bi * sample_grad..(bi + 1) * sample_grad],
                                        &mut gx_mine[i * sample_in..(i + 1) * sample_in],
                                        &mut gw_mine[i * gw_len..(i + 1) * gw_len],
                                        &mut gcol,
                                        h,
                                        w,
                                    );
                                }
                                pool::give(gcol);
                            });
                        });
                    }
                });
            }
        }
        // Fixed-order reduction: ascending sample index, then group —
        // identical f32 addition sequence regardless of which thread
        // produced each part.
        let gwd = self.grad_weight.data_mut();
        for part in gw_parts.chunks(gw_len) {
            for (dst, &src) in gwd.iter_mut().zip(part) {
                *dst += src;
            }
        }
        pool::give(gw_parts);
        // Bias gradient: sum of grad over batch and spatial dims.
        let gb = self.grad_bias.data_mut();
        for bi in 0..b {
            for (oc, gb_oc) in gb.iter_mut().enumerate() {
                let base = (bi * self.out_channels + oc) * ncols;
                *gb_oc += grad.data()[base..base + ncols].iter().sum::<f32>();
            }
        }
        let cst = flops::conv2d_bwd(&self.cost_shape(b, h, w));
        PERF_CONV_BWD.op(cst.flops, cst.bytes);
        Tensor::from_vec(gx, &[b, c, h, w])
    }

    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        let fan = (self.in_channels / self.groups) * self.kernel * self.kernel;
        v.visit(
            "conv.weight",
            &[self.out_channels, fan],
            self.weight.data_mut(),
            self.grad_weight.data_mut(),
        );
        v.visit(
            "conv.bias",
            &[self.out_channels],
            self.bias.data_mut(),
            self.grad_bias.data_mut(),
        );
    }

    fn zero_grad(&mut self) {
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let (b, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
        let s = self.cost_shape(b, h, w);
        let (oh, ow) = s.out_hw();
        (
            flops::conv2d_fwd(&s).flops,
            vec![b, self.out_channels, oh, ow],
        )
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = seeded(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 1, 1, 0, 1);
        conv.weight = Tensor::from_vec(vec![1.0], &[1, 1]);
        conv.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let y = conv.forward(x.clone(), false);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut rng = seeded(0);
        let mut conv = Conv2d::conv3x3(&mut rng, 1, 1, 1);
        conv.weight = Tensor::full(&[1, 9], 1.0);
        conv.bias = Tensor::zeros(&[1]);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(x, false);
        // Centre pixel sees all 9 ones; corners see 4.
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data()[4], 9.0);
        assert_eq!(y.data()[0], 4.0);
    }

    #[test]
    fn stride_two_halves_spatial_dims() {
        let mut rng = seeded(0);
        let conv = Conv2d::conv3x3(&mut rng, 3, 8, 2);
        let (_, shape) = conv.flops(&[2, 3, 8, 8]);
        assert_eq!(shape, vec![2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        let mut rng = seeded(0);
        let mut conv = Conv2d::depthwise3x3(&mut rng, 2, 1);
        // Channel 0 kernel all zero, channel 1 kernel identity-at-centre.
        let mut w = vec![0.0f32; 18];
        w[9 + 4] = 1.0;
        conv.weight = Tensor::from_vec(w, &[2, 9]);
        conv.bias = Tensor::zeros(&[2]);
        let x = Tensor::full(&[1, 2, 3, 3], 2.0);
        let y = conv.forward(x, false);
        assert!(
            y.data()[..9].iter().all(|&v| v == 0.0),
            "channel 0 should be zeroed"
        );
        assert_eq!(y.data()[9 + 4], 2.0, "channel 1 centre passes through");
    }

    #[test]
    fn grouped_conv_shapes() {
        let mut rng = seeded(0);
        let conv = Conv2d::new(&mut rng, 8, 16, 3, 1, 1, 4);
        let (_, shape) = conv.flops(&[1, 8, 5, 5]);
        assert_eq!(shape, vec![1, 16, 5, 5]);
        // Weight is [16, (8/4)*9] = [16, 18].
        assert_eq!(conv.weight.shape(), &[16, 18]);
    }

    #[test]
    fn backward_shapes_match_input() {
        let mut rng = seeded(0);
        let mut conv = Conv2d::conv3x3(&mut rng, 3, 4, 2);
        let x = Tensor::full(&[2, 3, 6, 6], 0.5);
        let y = conv.forward(x, true);
        let gx = conv.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(gx.shape(), &[2, 3, 6, 6]);
    }

    /// Reference forward straight from the convolution definition —
    /// no im2col, no GEMM — for differential checks on the fused path.
    fn naive_forward(conv: &Conv2d, x: &Tensor) -> Tensor {
        let s = x.shape();
        let (b, _, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = conv.out_hw(h, w);
        let (k, st, pd) = (conv.kernel, conv.stride, conv.padding);
        let cg = conv.in_channels / conv.groups;
        let ocg = conv.out_channels / conv.groups;
        let fan = cg * k * k;
        let mut out = vec![0.0f32; b * conv.out_channels * oh * ow];
        for bi in 0..b {
            for oc in 0..conv.out_channels {
                let gi = oc / ocg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = conv.bias.data()[oc] as f64;
                        for ci in 0..cg {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * st + ky) as isize - pd as isize;
                                    let ix = (ox * st + kx) as isize - pd as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = x.data()[((bi * conv.in_channels + gi * cg + ci) * h
                                        + iy as usize)
                                        * w
                                        + ix as usize];
                                    let wi = conv.weight.data()[oc * fan + (ci * k + ky) * k + kx];
                                    acc += (xi as f64) * (wi as f64);
                                }
                            }
                        }
                        out[((bi * conv.out_channels + oc) * oh + oy) * ow + ox] = acc as f32;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[b, conv.out_channels, oh, ow])
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn fused_forward_matches_definition_across_geometries() {
        // Kernel/stride/pad/groups sweep including non-square inputs and
        // 1×N degenerate spatial shapes.
        let cases: &[(usize, usize, usize, usize, usize, usize, usize, usize)] = &[
            // (cin, cout, k, stride, pad, groups, h, w)
            (3, 8, 3, 1, 1, 1, 7, 7),
            (4, 6, 3, 2, 1, 2, 9, 5),
            (2, 2, 3, 1, 1, 2, 3, 11),
            (5, 5, 1, 1, 0, 5, 4, 4),
            (2, 4, 5, 2, 2, 1, 11, 8),
            (1, 3, 2, 3, 0, 1, 10, 10),
            (3, 3, 3, 1, 1, 1, 1, 9),
        ];
        for (i, &(cin, cout, k, st, pd, g, h, w)) in cases.iter().enumerate() {
            let mut rng = seeded(42 + i as u64);
            let mut conv = Conv2d::new(&mut rng, cin, cout, k, st, pd, g);
            let n = 2 * cin * h * w;
            let x = Tensor::from_vec(
                (0..n)
                    .map(|j| ((j * 37 + i) % 23) as f32 * 0.1 - 1.1)
                    .collect(),
                &[2, cin, h, w],
            );
            let got = conv.forward(x.clone(), false);
            let want = naive_forward(&conv, &x);
            assert_eq!(got.shape(), want.shape(), "case {i}");
            for (p, (&a, &e)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(
                    (a - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "case {i} elem {p}: fused {a} vs naive {e}"
                );
            }
        }
    }
}
