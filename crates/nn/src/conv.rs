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
//! * **One GEMM per (chunk, group), not per sample.** A pass walks the
//!   batch in *chunks*: runs of whole samples (forward) or whole
//!   (slot, sample) units (input gradient) laid side by side along the
//!   GEMM's N, up to [`CHUNK_COLS`] output columns. Per group, one blocked
//!   GEMM covers the chunk, so the weights are packed once per chunk
//!   instead of once per sample, and a deep stage's 2×2 or 1×1 maps fill
//!   register tiles that one sample alone would leave 1–4 columns wide. A
//!   sample wider than the budget is a chunk of its own. The budget bounds
//!   the chunk's scratch (`ocg` rows of output, `fan` rows of column
//!   gradient), which keeps peak memory where the one-sample passes had
//!   it; it is a constant, not a knob.
//! * **Forward is fused.** The column matrix is never built:
//!   [`PatchPanels`] implements the GEMM's [`BPanels`] pack-source trait
//!   and fills each packed `KC × NR` panel straight from the input planes
//!   of the chunk's samples, splitting a strip where it crosses from one
//!   sample into the next. The product lands in an `ocg × nb·ncols`
//!   scratch and is scattered into `[B, OC, oh, ow]` (a one-sample chunk
//!   writes the output directly), then the bias is added.
//! * **The input gradient stacks slots and samples along N.** A backward
//!   of `s` slots (see [`Layer::backward`]) holds `s·B` units of output
//!   gradient, slot-major, each `sample_grad` floats from the last. A
//!   chunk of consecutive units is therefore one block-strided right
//!   operand ([`DenseBBlocks`], read in place), and one GEMM `W_gᵀ [fan,
//!   ocg] × gy [ocg, U·ncols]` per group gives every unit's column
//!   gradient, which `col2im` scatters unit by unit at row stride
//!   `U·ncols`.
//! * **The weight gradient stays one GEMM per sample.** A full-width
//!   `PatchPanels` pack *is* row-major im2col, written into scratch; one
//!   GEMM of `s·ocg` rows — the slots' `gy` rows read in place through
//!   [`DenseABlocks`] — reads it through [`DenseBTrans`], whose
//!   transposing pack moves 8×16 blocks, so the pack of `colᵀ` serves
//!   every slot. Each sample's rows are added into the gradient slots as
//!   soon as they exist, in ascending sample order: that per-sample
//!   rounding is the one-slot, one-sample backward's, bit for bit.
//! * **In place, weight gradients first.** When the input is as large as
//!   the output, the input gradient overwrites the output gradient it
//!   came from. A chunk's units are then dead once its GEMMs have read
//!   them — except to the weight gradients of their samples, which read
//!   every slot. So before a chunk's input-gradient GEMMs, the weight
//!   gradients of every sample it touches that are not done yet are
//!   computed, in ascending sample order.
//! * **A same-padded stride-1 convolution moves whole planes.** Row
//!   `(c, ky, kx)` of its column matrix is input plane `c` shifted by
//!   `(ky − pad)·w + (kx − pad)` with the columns that left the image
//!   zeroed ([`PatchGeom::same`]), so both the patch pack and `col2im`
//!   are one long copy / accumulate per row plus a strided fix-up. Other
//!   geometries (stride 2, unpadded) gather element by element.
//!
//! Batching along N changes no bit: by the GEMM's determinism contract
//! every output element is its own ascending-k FMA chain wherever its
//! column lands, edge tiles included.
//!
//! The training cache is therefore just the input tensor itself (taken by
//! ownership — `forward` consumes its argument), not `k²`-inflated column
//! matrices.

use crate::layer::{grad_slot, slot_count, Bind, Layer};
use fedknow_math::gemm::{
    self, BPanels, DenseA, DenseABlocks, DenseATrans, DenseBBlocks, DenseBTrans,
};
use fedknow_math::rng::kaiming_vec;
use fedknow_math::{flops, pool, Tensor};
use fedknow_obs::PerfCounter;
use rand::rngs::StdRng;

// The inner GEMMs go through the uncounted `matmul*_raw`-level entry
// points and the whole pass is accounted here instead, so
// `flops.conv2d_*` and `flops.matmul*` never double-count the same work.
static PERF_CONV_FWD: PerfCounter = PerfCounter::new("conv2d_fwd");
static PERF_CONV_BWD: PerfCounter = PerfCounter::new("conv2d_bwd");

/// Output columns one chunk may hold: whole samples (forward) or whole
/// (slot, sample) units (input gradient) side by side, at least one.
/// Bounds the chunk's scratch; `gemm::NC` (960) measurably raised peak
/// memory on ResNet18 for no further speed.
pub const CHUNK_COLS: usize = 256;

/// Samples or units per chunk at `ncols` output columns each.
fn per_chunk(ncols: usize) -> usize {
    (CHUNK_COLS / ncols).max(1)
}

/// Convolution geometry shared by the patch-panel pack sources.
#[derive(Clone, Copy)]
struct PatchGeom {
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    oh: usize,
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

    /// Tap `(ky, kx)` with what every fill of its rows shares.
    #[inline]
    fn tap(&self, ky: usize, kx: usize) -> Tap {
        Tap {
            ky,
            kx,
            shift: self.tap_shift(ky, kx),
            wrapped: self.wrapped_columns(kx),
        }
    }

    /// Fill `d` with output positions `q0..q0 + d.len()` of one sample's
    /// column-matrix row `(c, tap)`, where `q0` is output position
    /// `(oy, ox)`; `plane` is that sample's input plane `c`.
    #[inline]
    fn patch_row(&self, plane: &[f32], tap: &Tap, oy: usize, ox: usize, d: &mut [f32]) {
        let wd = d.len();
        let (h, w, ow) = (self.h, self.w, self.ow);
        let q0 = oy * ow + ox;
        if self.same() {
            // Output position q reads `plane[q + shift]`, so the row is
            // the plane itself, shifted: one copy, clamped to the plane at
            // both ends (the rows above and below the image), after which
            // the columns whose ix left the image — the copy wrapped them
            // into the neighbouring image row — are zeroed.
            let shift = tap.shift;
            let lo = (-shift - q0 as isize).clamp(0, wd as isize) as usize;
            let hi =
                ((h * w) as isize - shift - q0 as isize).clamp(lo as isize, wd as isize) as usize;
            d[..lo].fill(0.0);
            d[hi..].fill(0.0);
            if hi > lo {
                let s0 = ((q0 + lo) as isize + shift) as usize;
                d[lo..hi].copy_from_slice(&plane[s0..s0 + (hi - lo)]);
            }
            let wrapped = &tap.wrapped;
            if !wrapped.is_empty() {
                let mut row = q0 - ox;
                while row < q0 + wd {
                    for q in (row + wrapped.start).max(q0)..(row + wrapped.end).min(q0 + wd) {
                        d[q - q0] = 0.0;
                    }
                    row += ow;
                }
            }
            return;
        }
        // Gather one output row (fixed oy) at a time.
        let (mut oy, mut ox) = (oy, ox);
        let mut j = 0;
        while j < wd {
            let seg = (ow - ox).min(wd - j);
            let dseg = &mut d[j..j + seg];
            let iy = (oy * self.stride + tap.ky) as isize - self.pad as isize;
            if iy < 0 || iy >= h as isize {
                dseg.fill(0.0);
            } else {
                let irow = &plane[iy as usize * w..(iy as usize + 1) * w];
                for (t, v) in dseg.iter_mut().enumerate() {
                    let ix = ((ox + t) * self.stride + tap.kx) as isize - self.pad as isize;
                    *v = if ix >= 0 && (ix as usize) < w {
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

/// Kernel tap `(ky, kx)` with, for a [`same`](PatchGeom::same) geometry,
/// its [`tap_shift`](PatchGeom::tap_shift) and
/// [`wrapped_columns`](PatchGeom::wrapped_columns).
struct Tap {
    ky: usize,
    kx: usize,
    shift: isize,
    wrapped: std::ops::Range<usize>,
}

/// The logical im2col matrix of a run of samples for one group, `[cg·k²,
/// nb·oh·ow]`: sample `i`'s `[cg·k², oh·ow]` block sits beside sample
/// `i − 1`'s along N. `x` starts at the first sample's `cg` group planes,
/// and sample `i`'s are `i·sample` floats further on.
struct PatchPanels<'a> {
    x: &'a [f32],
    sample: usize,
    g: PatchGeom,
}

impl BPanels for PatchPanels<'_> {
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize) {
        let g = self.g;
        let (hw, ncols) = (g.h * g.w, g.oh * g.ow);
        let nstrips = nc.div_ceil(nr);
        // Row p of the panel is built whole — one call per sample it
        // spans, each a long run — and then dealt out to the strips as
        // plain `nr`-float copies; a one-strip panel (the weight
        // gradient's full-width im2col) is built in place.
        let mut row = [0.0f32; gemm::NC];
        assert!(nstrips == 1 || nc <= gemm::NC, "panel wider than NC");
        // The fan index walks incrementally — no div/mod per packed row.
        let (mut c, mut ky, mut kx) = g.fan_split(k0);
        let (i0, q0) = (j0 / ncols, j0 % ncols);
        let (oy0, ox0) = (q0 / g.ow, q0 % g.ow);
        for p in 0..kc {
            let tap = g.tap(ky, kx);
            let plane = c * hw;
            kx += 1;
            if kx == g.k {
                kx = 0;
                ky += 1;
                if ky == g.k {
                    ky = 0;
                    c += 1;
                }
            }
            let (strip0, rest) = dst[p * nr..].split_at_mut(nr);
            let full = if nstrips == 1 {
                &mut strip0[..nc]
            } else {
                &mut row[..nc]
            };
            // The run in sample i0 from (oy0, ox0), then whole samples.
            let mut t = (ncols - q0).min(nc);
            g.patch_row(
                &self.x[i0 * self.sample + plane..][..hw],
                &tap,
                oy0,
                ox0,
                &mut full[..t],
            );
            let mut i = i0 + 1;
            while t < nc {
                let seg = ncols.min(nc - t);
                let x = &self.x[i * self.sample + plane..][..hw];
                g.patch_row(x, &tap, 0, 0, &mut full[t..t + seg]);
                t += seg;
                i += 1;
            }
            if nstrips == 1 {
                strip0[nc..].fill(0.0);
                continue;
            }
            let mut runs = row[..nc].chunks(nr);
            strip0.copy_from_slice(runs.next().expect("nc > nr"));
            for (s, run) in runs.enumerate() {
                let drow = &mut rest[s * kc * nr + (kc - 1) * nr..][..nr];
                drow[..run.len()].copy_from_slice(run);
                drow[run.len()..].fill(0.0);
            }
        }
    }
}

/// 2-D convolution: input `[B, C, H, W]` → output `[B, OC, OH, OW]`.
/// The weight `[OC, (C/groups)·k·k]` and then the bias `[OC]` sit in the
/// model's arena from offset `off`.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    /// The drawn weight until [`Layer::bind`] moves it into the arena.
    init: Vec<f32>,
    off: usize,
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
        let fan_in = in_channels / groups * kernel * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            init: kaiming_vec(rng, out_channels * fan_in, fan_in),
            off: 0,
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

    /// Columns of the weight matrix: `(C/groups)·k·k`.
    fn fan(&self) -> usize {
        self.in_channels / self.groups * self.kernel * self.kernel
    }

    /// The weight and the bias in the arena `params`.
    fn weights<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        let wlen = self.out_channels * self.fan();
        params[self.off..][..wlen + self.out_channels].split_at(wlen)
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    fn geom(&self, h: usize, w: usize) -> PatchGeom {
        let (oh, ow) = self.out_hw(h, w);
        PatchGeom {
            k: self.kernel,
            stride: self.stride,
            pad: self.padding,
            h,
            w,
            oh,
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

    /// Add sample `bi`'s weight gradients into the `s` slots of the
    /// gradient slab `grads`; `gd` is the stacked output gradient (unit
    /// `j·B + bi` is slot `j`'s). Per group, the sample's column matrix is
    /// packed into the scratch `gcol` once, and one GEMM of `s·ocg` rows
    /// reads it for all slots into the scratch `gw` (`s·ocg·fan`), which
    /// is then added to the slots. Called in ascending sample order, this
    /// is the f32 addition sequence of a one-slot backward for every slot.
    fn add_weight_grads(
        &self,
        grads: &mut [f32],
        bi: usize,
        gd: &[f32],
        s: usize,
        gw: &mut [f32],
        gcol: &mut [f32],
    ) {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)");
        let (b, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let g = self.geom(h, w);
        let ncols = g.oh * g.ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let fan = cg * self.kernel * self.kernel;
        let block = ocg * fan;
        let sample_grad = self.out_channels * ncols;
        let xs = &x.data()[bi * self.in_channels * h * w..];
        let gy = &gd[bi * sample_grad..];
        for gi in 0..self.groups {
            let patches = PatchPanels {
                x: &xs[gi * cg * h * w..(gi + 1) * cg * h * w],
                sample: 0,
                g,
            };
            // One full-width "strip" of the patch pack is the row-major
            // column matrix [fan, ncols].
            patches.pack(gcol, 0, fan, 0, ncols, ncols);
            // gW_g of every slot [s·ocg, fan] = gy [s·ocg, ncols] × colᵀ
            // [ncols, fan]: colᵀ is packed once for all slots.
            let gw = &mut gw[..s * block];
            gemm::gemm(
                s * ocg,
                ncols,
                fan,
                &DenseABlocks {
                    data: &gy[gi * ocg * ncols..],
                    k: ncols,
                    rows: ocg,
                    stride: b * sample_grad,
                },
                &DenseBTrans {
                    data: gcol,
                    k: ncols,
                },
                gw,
            );
            for (j, src) in gw.chunks_exact(block).enumerate() {
                let dst = grad_slot(grads, s, j, self.off + gi * block, block);
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
    }

    /// Input gradients of one chunk of consecutive (slot, sample) units.
    /// `gy` holds the chunk's output gradients, `sample_grad` floats per
    /// unit; `gx` its input gradients (zeroed), or `None` to overwrite
    /// `gy` with them. Per group, one GEMM `W_gᵀ [fan, ocg] × gy [ocg,
    /// U·ncols]` puts every unit's column gradient side by side in
    /// `gcol`, and `col2im` scatter-accumulates each unit's. `wt` is the
    /// weight.
    fn input_grad_chunk(
        &self,
        wt: &[f32],
        gy: &mut [f32],
        mut gx: Option<&mut [f32]>,
        gcol: &mut [f32],
        h: usize,
        w: usize,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let fan = self.fan();
        let (sample_in, sample_grad) = (self.in_channels * h * w, self.out_channels * ncols);
        let units = gy.len() / sample_grad;
        let n = units * ncols;
        let col = &mut gcol[..fan * n];
        for gi in 0..self.groups {
            let wg = &wt[gi * ocg * fan..(gi + 1) * ocg * fan];
            gemm::gemm(
                fan,
                ocg,
                n,
                &DenseATrans { data: wg, m: fan },
                &DenseBBlocks {
                    data: &gy[gi * ocg * ncols..],
                    cols: ncols,
                    stride: sample_grad,
                },
                col,
            );
            for u in 0..units {
                let dst = match gx.as_deref_mut() {
                    Some(gx) => &mut gx[u * sample_in + gi * cg * h * w..][..cg * h * w],
                    None => {
                        let dst = &mut gy[u * sample_grad + gi * ocg * ncols..][..ocg * ncols];
                        dst.fill(0.0);
                        dst
                    }
                };
                self.col2im(&mut col[u * ncols..], n, dst, h, w);
            }
        }
    }

    /// Scatter-accumulate one unit's `[cg·k², oh·ow]` column gradient —
    /// row `r` at `col[r·ld..]` — into one group's input-gradient planes.
    /// `col` is scratch: the same-padded stride-1 walk zeroes the entries
    /// it must not add.
    fn col2im(&self, col: &mut [f32], ld: usize, gx: &mut [f32], h: usize, w: usize) {
        let g = self.geom(h, w);
        let (oh, ow) = (g.oh, g.ow);
        let k = self.kernel;
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let pad = self.padding;
        for c in 0..cg {
            let plane = &mut gx[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * ld;
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
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        let (wt, bias) = self.weights(params);
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let g = self.geom(h, w);
        let (oh, ow) = (g.oh, g.ow);
        let ncols = oh * ow;
        let cg = c / self.groups;
        let ocg = self.out_channels / self.groups;
        let fan = cg * self.kernel * self.kernel;
        let (sample_in, sample_out) = (c * h * w, self.out_channels * ncols);
        let per = per_chunk(ncols);
        // Fused, one chunk of samples at a time: per group, one blocked
        // GEMM `W_g [ocg, fan] × patches [fan, nb·ncols]`, scattered into
        // the chunk's outputs, then the bias broadcast.
        let mut out = pool::take(b * sample_out);
        // A one-sample chunk's product is its output slice already.
        let mut y = pool::take(if per > 1 { ocg * per.min(b) * ncols } else { 0 });
        for (xs, os) in x
            .data()
            .chunks(per * sample_in)
            .zip(out.chunks_mut(per * sample_out))
        {
            let nb = os.len() / sample_out;
            let n = nb * ncols;
            for gi in 0..self.groups {
                let a = DenseA {
                    data: &wt[gi * ocg * fan..(gi + 1) * ocg * fan],
                    k: fan,
                };
                let patches = PatchPanels {
                    x: &xs[gi * cg * h * w..],
                    sample: sample_in,
                    g,
                };
                if nb == 1 {
                    let dst = &mut os[gi * ocg * ncols..(gi + 1) * ocg * ncols];
                    gemm::gemm(ocg, fan, ncols, &a, &patches, dst);
                    continue;
                }
                let y = &mut y[..ocg * n];
                gemm::gemm(ocg, fan, n, &a, &patches, y);
                // Row o holds channel gi·ocg + o of every sample, side by
                // side.
                for (o, row) in y.chunks_exact(n).enumerate() {
                    for (i, src) in row.chunks_exact(ncols).enumerate() {
                        os[i * sample_out + (gi * ocg + o) * ncols..][..ncols].copy_from_slice(src);
                    }
                }
            }
            for (r, plane) in os.chunks_exact_mut(ncols).enumerate() {
                let bv = bias[r % self.out_channels];
                for o in plane {
                    *o += bv;
                }
            }
        }
        pool::give(y);

        if train {
            self.cached_input = Some(x);
        }
        let cst = flops::conv2d_fwd(&self.cost_shape(b, h, w));
        PERF_CONV_FWD.op(cst.flops, cst.bytes);
        Tensor::from_vec(out, &[b, self.out_channels, oh, ow])
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let wt = self.weights(params).0;
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
        let fan = self.fan();
        let sample_grad = self.out_channels * ncols;
        let sample_in = c * h * w;
        let gw_len = self.out_channels * fan;
        let s = slot_count(grad.len(), b * sample_grad, "Conv2d");

        // Bias gradient first — per slot, the sum of grad over batch and
        // spatial dims — while every slot's output gradient is intact.
        let mut gd = grad.into_vec();
        for j in 0..s {
            let gb = grad_slot(grads, s, j, self.off + gw_len, self.out_channels);
            for bi in 0..b {
                for (oc, gb_oc) in gb.iter_mut().enumerate() {
                    let base = ((j * b + bi) * self.out_channels + oc) * ncols;
                    *gb_oc += gd[base..base + ncols].iter().sum::<f32>();
                }
            }
        }
        // Units (slot j, sample bi) are slot-major, unit j·b + bi. A layer
        // whose input is as large as its output writes the input gradient
        // over the output gradient: one stacked buffer instead of two.
        let units = s * b;
        let per = per_chunk(ncols);
        let mut gx_own = (sample_in != sample_grad).then(|| pool::take_zeroed(units * sample_in));
        // One sample's column matrix (weight gradient) or one chunk's
        // column gradient (input gradient).
        let mut gcol = pool::take(fan * per.min(units) * ncols);
        let mut gw = pool::take(s * gw_len / self.groups);
        // Samples whose weight gradients are in the slots, in order.
        let mut done = 0;
        for u0 in (0..units).step_by(per) {
            let u1 = (u0 + per).min(units);
            // The samples this chunk touches: all of them once it
            // wraps past a slot's last sample.
            let upto = if u1 - u0 >= b || u0 / b != (u1 - 1) / b {
                b
            } else {
                (u1 - 1) % b + 1
            };
            while done < upto {
                self.add_weight_grads(grads, done, &gd, s, &mut gw, &mut gcol);
                done += 1;
            }
            self.input_grad_chunk(
                wt,
                &mut gd[u0 * sample_grad..u1 * sample_grad],
                gx_own
                    .as_deref_mut()
                    .map(|gx| &mut gx[u0 * sample_in..u1 * sample_in]),
                &mut gcol,
                h,
                w,
            );
        }
        pool::give(gw);
        pool::give(gcol);
        let gx = match gx_own {
            Some(gx) => {
                pool::give(gd);
                gx
            }
            None => gd,
        };
        // The arithmetic of `s` one-slot backwards, so charged as that.
        let cst = flops::conv2d_bwd(&self.cost_shape(b, h, w));
        PERF_CONV_BWD.op(s as u64 * cst.flops, s as u64 * cst.bytes);
        Tensor::from_vec(gx, &[s * b, c, h, w])
    }

    fn bind(&mut self, bind: &mut Bind) {
        let oc = self.out_channels;
        let init = std::mem::take(&mut self.init);
        self.off = bind("conv.weight", &[oc, self.fan()], init);
        bind("conv.bias", &[oc], vec![0.0; oc]);
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
    use crate::Model;
    use fedknow_math::rng::seeded;

    /// `conv` alone in a model, its weight and then its bias overwritten
    /// by `wb`.
    fn model(conv: Conv2d, wb: &[f32]) -> Model {
        let mut m = Model::new(conv, &[], 0);
        m.params_mut().copy_from_slice(wb);
        m
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = seeded(0);
        let mut conv = model(Conv2d::new(&mut rng, 1, 1, 1, 1, 0, 1), &[1.0, 0.0]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let y = conv.forward(x.clone(), false);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut rng = seeded(0);
        let mut wb = vec![1.0f32; 9];
        wb.push(0.0);
        let mut conv = model(Conv2d::conv3x3(&mut rng, 1, 1, 1), &wb);
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
        // Channel 0 kernel all zero, channel 1 kernel identity-at-centre;
        // zero biases.
        let mut w = vec![0.0f32; 18 + 2];
        w[9 + 4] = 1.0;
        let mut conv = model(Conv2d::depthwise3x3(&mut rng, 2, 1), &w);
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
        assert_eq!(Model::new(conv, &[], 0).layout()[0].shape, vec![16, 18]);
    }

    #[test]
    fn backward_shapes_match_input() {
        let mut rng = seeded(0);
        let mut conv = Model::new(Conv2d::conv3x3(&mut rng, 3, 4, 2), &[], 0);
        let x = Tensor::full(&[2, 3, 6, 6], 0.5);
        let y = conv.forward(x, true);
        let gx = conv.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(gx.shape(), &[2, 3, 6, 6]);
    }

    /// Reference forward straight from the convolution definition —
    /// no im2col, no GEMM — for differential checks on the fused path.
    fn naive_forward(conv: &Conv2d, params: &[f32], x: &Tensor) -> Tensor {
        let (weight, bias) = conv.weights(params);
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
                        let mut acc = bias[oc] as f64;
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
                                    let wi = weight[oc * fan + (ci * k + ky) * k + kx];
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
            // The reference reads the weights the model bound, through a
            // layer of the same geometry.
            let geometry = || Conv2d::new(&mut seeded(0), cin, cout, k, st, pd, g);
            let mut conv = Model::new(Conv2d::new(&mut rng, cin, cout, k, st, pd, g), &[], 0);
            let n = 2 * cin * h * w;
            let x = Tensor::from_vec(
                (0..n)
                    .map(|j| ((j * 37 + i) % 23) as f32 * 0.1 - 1.1)
                    .collect(),
                &[2, cin, h, w],
            );
            let got = conv.forward(x.clone(), false);
            let want = naive_forward(&geometry(), conv.params(), &x);
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
