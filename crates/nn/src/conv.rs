//! 2-D convolution via **fused im2col + GEMM**, with grouped and depthwise
//! variants, and a **direct lowering** for narrow 3×3 layers.
//!
//! One implementation covers the whole model zoo: `groups = 1` is ordinary
//! convolution, `groups = cardinality` gives ResNeXt's grouped convolution,
//! and `groups = in_channels` gives MobileNet/ShuffleNet depthwise
//! convolution. Under the AVX-512 tile, the narrow same-padded 3×3 layers
//! of SixCnn and ResNet18 run their forward, input gradient and weight
//! gradient on the direct kernels of [`fedknow_math::direct`] instead,
//! with the same bits ("Direct lowering" below); the GEMM lowering stays
//! the reference.
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
//!   GEMM's N, up to `CHUNK_COLS` output columns. Per group, one blocked
//!   GEMM covers the chunk, so the weights are packed once per chunk
//!   instead of once per sample, and a deep stage's 2×2 or 1×1 maps fill
//!   register tiles that one sample alone would leave 1–4 columns wide. A
//!   sample wider than the budget is a chunk of its own. The budget bounds
//!   the chunk's scratch (`ocg` rows of output, one row of column
//!   gradient per live fan row), which keeps peak memory where the
//!   one-sample passes had it; it is a constant, not a knob.
//! * **Forward is fused.** The column matrix is never built:
//!   `PatchPanels` implements the GEMM's [`BPanels`] pack-source trait
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
//! * **The weight gradient is one GEMM per sample.** A full-width
//!   `PatchPanels` pack *is* row-major im2col, written into scratch; one
//!   GEMM of `s·ocg` rows — the slots' `gy` rows read in place through
//!   [`DenseABlocks`] — reads it through [`DenseBTrans`], whose
//!   transposing pack moves 8×16 blocks, so the pack of `colᵀ` serves
//!   every slot. Each sample's rows are added into the gradient slots as
//!   soon as they exist, in ascending sample order: that per-sample
//!   rounding is the one-slot, one-sample backward's, bit for bit.
//! * **The bias gradient** of each (slot, sample, channel) is its row's
//!   `.sum()`: from −0.0, element by element, added into the slot in
//!   ascending sample order. Eight rows' chains run interleaved
//!   (`add_row_sums`), so each add does not wait on the one before.
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
//!   zeroed (`PatchGeom::same`), so both the patch pack and `col2im`
//!   are one long copy / accumulate per row plus a strided fix-up. Other
//!   geometries (stride 2, unpadded) gather element by element.
//! * **Dead taps.** A kernel tap `(ky, kx)` is *live* when some output
//!   position reads an in-image pixel through it (`PatchGeom::live`);
//!   a dead one reads only padding, as 8 of the 9 taps of a 3×3 kernel
//!   on a 1×1 map do. Every call takes its live taps from `(h, w, k,
//!   stride, pad)` and runs over the *live fan* `cg·|live|`: the patch
//!   pack and the weight operand hold only live rows, the weight-gradient
//!   GEMM is `s·ocg × cg·|live|`, and the input-gradient GEMM and
//!   `col2im` cover live rows only. Each sample's weight gradients are
//!   added into a compact copy of the slots' live columns, which goes
//!   back to the slab once per backward: the same f32 additions, without
//!   a pass over the whole slab per sample. The bits are the full fan's:
//!   a dead row's patch entries are +0.0, so its FMA terms leave every
//!   chain as it was (an accumulator that starts at +0.0 never holds
//!   -0.0); its weight-gradient entries would add +0.0, and `col2im`
//!   never adds its rows. One condition remains, the *slab rule*: the
//!   forward's GEMM cuts its live k into slabs exactly where `gemm::KC`
//!   cuts the full fan (`slab_end`, through [`gemm::gemm_slabs`]),
//!   since a slab's chain is added into the output as one term. With
//!   every tap live — every layer of SixCnn, and of ResNet18 on 16×16
//!   inputs — the live fan is the fan and the arithmetic is the full
//!   one's.
//! * **Narrow same-padded 3×3 layers skip the packs.** Under the AVX-512
//!   tile their forward, input gradient and weight gradient run on direct
//!   kernels — no patch pack, no `colᵀ` pack, no column gradient, no
//!   `col2im` — with the GEMM's bits ("Direct lowering" below).
//!
//! Batching along N changes no bit: by the GEMM's determinism contract
//! every output element is its own ascending-k FMA chain wherever its
//! column lands, edge tiles included.
//!
//! The training cache is therefore just the input tensor itself (taken by
//! ownership — `forward` consumes its argument), not `k²`-inflated column
//! matrices.
//!
//! ## Direct lowering
//!
//! At 3–64 channels a GEMM-lowered layer spends most of its time packing
//! panels: the forward's patches, the weight gradient's column matrix
//! and its transpose, and the input gradient's column matrix `k²` times
//! the input that `col2im` reads back. [`direct::forward`] and
//! [`direct::input_grad`] skip them with vector lanes over positions of
//! the flattened plane, each tap a masked load of the shifted plane (the
//! `PatchGeom::same` identity). [`direct::weight_grad`] runs its lanes
//! over the stacked output rows `(slot, o)` instead, from a per-sample
//! transpose of the output gradient (the GEMM's own A pack), and each
//! fan row `(c, ky, kx)` is a broadcast of the zero-bordered input plane
//! at the tap's shift. Every sample's weight gradient goes into a
//! transposed copy of the slots' (`[fan, s·oc]`), gathered once per
//! backward and written back once.
//!
//! * **Selection** (`takes_direct`) is a function of the geometry and
//!   the selected tile only: an ungrouped 3×3, stride-1, padding-1 layer
//!   on a 4×4, 8×8 or 16×16 map (every tap live), under the AVX-512
//!   tile, whose samples hold at most `DIRECT_MAX_SAMPLE` floats in and
//!   out — every conv of SixCnn, ResNet18's at width 1 on 16×16 inputs
//!   down to its 4×4 stage, and at width 4 on 8×8 inputs down to its 4×4
//!   stage. Stride 2, 1×1, grouped, 2×2 and 1×1 maps, wide layers, and
//!   the AVX2 and scalar tiles keep the GEMM lowering; `kernel_bench`'s
//!   conv rows pin the rule on both sides. The weight gradient takes the
//!   same rule at every slot count: once the accumulator's row stride
//!   kept off multiples of 512 B (`direct::weight_grad_stride`), no layer
//!   the rule takes ran its backward measurably faster with the GEMM's
//!   weight gradient at 1 to 16 slots (`kernel_bench`'s `x9` rows are the
//!   stacked side).
//! * **Bit identity.** An output element is the GEMM's sum: one FMA
//!   chain over the fan in ascending `(c, ky, kx)` order, an out-of-image
//!   tap a +0.0 lane that still takes its FMA, cut where `gemm::KC` cuts
//!   it, each slab added into a +0.0 output, then `+ bias`. An input
//!   gradient element is `col2im`'s: per tap in ascending order, the
//!   column entry (an FMA chain over the output channels, added to +0.0)
//!   added into a plane that starts at +0.0, an out-of-image entry being
//!   +0.0 added to a value that is never −0.0. A weight-gradient element
//!   is the per-sample GEMM's: one FMA chain over the positions in
//!   ascending order from +0.0 (one slab: `n·n ≤ 256 = KC`), an
//!   out-of-image tap an FMA with the +0.0 border, added to +0.0 and then
//!   into the slot in ascending sample order. The unit tests compare both
//!   lowerings with `to_bits`, and `golden_bits.rs` pins one layer per
//!   map size, and stacked backwards of 3 and 10 slots, with digests
//!   recorded on the GEMM.
//! * **In place.** When the input gradient overwrites the output
//!   gradient, each unit's output gradient is first copied to one unit
//!   of scratch (`gcol`, which holds nothing else on this lowering); the
//!   weight gradients still run first ("In place, weight gradients
//!   first" above).

use crate::layer::{grad_slot, slot_count, Bind, Layer};
use fedknow_math::direct;
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
const CHUNK_COLS: usize = 256;

/// The most floats one sample's input or output may hold for the layer to
/// take the direct lowering (`Conv2d::takes_direct`): 8 KB, so that a
/// tile's reads of the shifted planes stay in L1. Wider layers — 64→64
/// at 8×8, 32→64 at 16×16 — run faster on the GEMM, whose packs block
/// for the cache (`kernel_bench`'s conv rows).
const DIRECT_MAX_SAMPLE: usize = 2048;

/// Add the sum of each `n`-float row of `rows` into `acc[r % acc.len()]`,
/// in row order. Each sum is `.sum::<f32>()`'s: from −0.0, element by
/// element. Eight rows' chains run interleaved, so the adds do not wait
/// on one another.
fn add_row_sums(rows: &[f32], n: usize, acc: &mut [f32]) {
    const WAYS: usize = 8;
    let len = acc.len();
    for (g, group) in rows.chunks(WAYS * n).enumerate() {
        let mut sums = [-0.0f32; WAYS];
        let k = group.len() / n;
        if k == WAYS {
            for q in 0..n {
                for (i, sum) in sums.iter_mut().enumerate() {
                    *sum += group[i * n + q];
                }
            }
        } else {
            for (sum, row) in sums.iter_mut().zip(group.chunks_exact(n)) {
                *sum = row.iter().sum::<f32>();
            }
        }
        for (i, &sum) in sums[..k].iter().enumerate() {
            acc[(g * WAYS + i) % len] += sum;
        }
    }
}

/// Samples or units per chunk at `ncols` output columns each.
fn per_chunk(ncols: usize) -> usize {
    (CHUNK_COLS / ncols).max(1)
}

/// Convolution geometry shared by the patch-panel pack sources.
#[derive(Clone, Copy)]
struct PatchGeom {
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl PatchGeom {
    /// Whether tap `(ky, kx)` is *live*: some output position reads an
    /// in-image pixel through it. A dead tap reads only padding, so its
    /// rows of the column matrix are all +0.0.
    fn live(&self, ky: usize, kx: usize) -> bool {
        // Along one axis, the first output index whose input index
        // `o·stride + t − pad` is not left of the image must be inside it.
        let reads = |t: usize, on: usize, n: usize| {
            let o = self.pad.saturating_sub(t).div_ceil(self.stride);
            o < on && o * self.stride + t < n + self.pad
        };
        reads(ky, self.oh, self.h) && reads(kx, self.ow, self.w)
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
    /// `(oy, ox)`; `plane` is that sample's input plane `c`. Always
    /// inlined: a pack calls it once per sample a row spans — twelve
    /// times per row on a 2×2 map at batch 12 — and left as a call it
    /// cost a 512→512 2×2 forward about 8 % on a 2-core AVX-512 machine.
    #[inline(always)]
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

/// Where the forward's k-slab that starts at live fan row `p` ends:
/// `gemm::KC` cuts the full fan `cg·k²`, and the live rows keep its cuts.
fn slab_end(taps: &[(usize, usize)], k: usize, p: usize) -> usize {
    let (nl, k2) = (taps.len(), k * k);
    let tap = |(ky, kx): (usize, usize)| ky * k + kx;
    let f = p / nl * k2 + tap(taps[p % nl]);
    let end = (f / gemm::KC + 1) * gemm::KC;
    end / k2 * nl + taps.partition_point(|&t| tap(t) < end % k2)
}

/// The live rows of the logical im2col matrix of a run of samples for one
/// group, `[cg·|taps|, nb·oh·ow]`: row `p` is channel `p / |taps|` at tap
/// `taps[p % |taps|]`, and sample `i`'s `oh·ow` columns sit beside sample
/// `i − 1`'s along N. `x` starts at the first sample's `cg` group planes,
/// and sample `i`'s are `i·sample` floats further on.
struct PatchPanels<'a> {
    x: &'a [f32],
    sample: usize,
    g: PatchGeom,
    /// The live taps `(ky, kx)`, ascending.
    taps: &'a [(usize, usize)],
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
        // The fan row walks incrementally — no div/mod per packed row.
        let nl = self.taps.len();
        let (mut c, mut ti) = (k0 / nl, k0 % nl);
        let (i0, q0) = (j0 / ncols, j0 % ncols);
        let (oy0, ox0) = (q0 / g.ow, q0 % g.ow);
        for p in 0..kc {
            let (ky, kx) = self.taps[ti];
            let tap = g.tap(ky, kx);
            let plane = c * hw;
            ti += 1;
            if ti == nl {
                ti = 0;
                c += 1;
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
    /// Scratch: the live taps `(ky, kx)`, ascending, of the call in
    /// progress; every forward and backward sets them from its geometry.
    taps: Vec<(usize, usize)>,
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
            taps: Vec::new(),
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

    /// The geometry of a call on an `h × w` input; sets `self.taps` to
    /// its live taps.
    fn geom(&mut self, h: usize, w: usize) -> PatchGeom {
        let (oh, ow) = self.out_hw(h, w);
        let g = PatchGeom {
            stride: self.stride,
            pad: self.padding,
            h,
            w,
            oh,
            ow,
        };
        let k = self.kernel;
        self.taps.clear();
        self.taps.extend(
            (0..k)
                .flat_map(|ky| (0..k).map(move |kx| (ky, kx)))
                .filter(|&(ky, kx)| g.live(ky, kx)),
        );
        g
    }

    /// Whether some tap is dead, so that the live fan is narrower than
    /// the weight.
    fn has_dead_taps(&self) -> bool {
        self.taps.len() < self.kernel * self.kernel
    }

    /// Whether the direct kernels can run this layer on an `h × w` input:
    /// an ungrouped 3×3, stride-1, padding-1 layer on a map they fit,
    /// under the AVX-512 tile, with at most `KC` output channels (one
    /// slab for the input gradient's chain).
    fn direct_fits(&self, h: usize, w: usize) -> bool {
        (self.kernel, self.stride, self.padding, self.groups) == (3, 1, 1, 1)
            && self.out_channels <= gemm::KC
            && direct::fits(h, w)
            && direct::available()
    }

    /// The lowering rule: the direct path when it fits and the layer is
    /// narrow, at most `DIRECT_MAX_SAMPLE` floats per sample in and out.
    /// A function of the geometry and the selected tile only.
    fn takes_direct(&self, h: usize, w: usize) -> bool {
        self.in_channels.max(self.out_channels) * h * w <= DIRECT_MAX_SAMPLE
            && self.direct_fits(h, w)
    }

    /// Copy the live columns of weight-shaped rows, `full` `[rows, cg·k²]`,
    /// into `live` `[rows, cg·|taps|]`.
    fn gather_live(&self, full: &[f32], live: &mut [f32]) {
        let (k, nl) = (self.kernel, self.taps.len());
        if nl == 0 {
            return;
        }
        for (row, dst) in full.chunks_exact(k * k).zip(live.chunks_exact_mut(nl)) {
            for (d, &(ky, kx)) in dst.iter_mut().zip(&self.taps) {
                *d = row[ky * k + kx];
            }
        }
    }

    /// Write `live` back into the live columns of `full`: the inverse of
    /// [`gather_live`](Self::gather_live).
    fn scatter_live(&self, live: &[f32], full: &mut [f32]) {
        let (k, nl) = (self.kernel, self.taps.len());
        if nl == 0 {
            return;
        }
        for (row, src) in full.chunks_exact_mut(k * k).zip(live.chunks_exact(nl)) {
            for (&(ky, kx), &v) in self.taps.iter().zip(src) {
                row[ky * k + kx] = v;
            }
        }
    }

    /// The weight's live columns, `[OC, cg·|taps|]`, in a pool buffer —
    /// or `None` when every tap is live and the weight is its own.
    fn live_weight(&self, wt: &[f32]) -> Option<Vec<f32>> {
        self.has_dead_taps().then(|| {
            let mut wl = pool::take(wt.len() / (self.kernel * self.kernel) * self.taps.len());
            self.gather_live(wt, &mut wl);
            wl
        })
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

    /// Add sample `bi`'s weight gradients into the `s` slots of `acc`, the
    /// slots' live weight gradients: `s` equal runs, each holding
    /// `[OC, cg·|taps|]` from offset `off`. `gd` is the stacked output
    /// gradient (unit `j·B + bi` is slot `j`'s). Per group, the live rows
    /// of the sample's column matrix are packed into the scratch `gcol`
    /// once, and one GEMM of `s·ocg` rows reads them for all slots into
    /// the scratch `gw` (`s·ocg·cg·|taps|`), which is then added to the
    /// slots. Called in ascending sample order, this is the f32 addition
    /// sequence of a one-slot backward for every slot.
    #[allow(clippy::too_many_arguments)]
    fn add_weight_grads(
        &self,
        g: PatchGeom,
        acc: &mut [f32],
        off: usize,
        bi: usize,
        gd: &[f32],
        s: usize,
        gw: &mut [f32],
        gcol: &mut [f32],
    ) {
        let nl = self.taps.len();
        if nl == 0 {
            return;
        }
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)");
        let (b, hw) = (x.shape()[0], g.h * g.w);
        let ncols = g.oh * g.ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let lfan = cg * nl;
        let block = ocg * lfan;
        let sample_grad = self.out_channels * ncols;
        let xs = &x.data()[bi * self.in_channels * hw..];
        let gy = &gd[bi * sample_grad..];
        for gi in 0..self.groups {
            let patches = PatchPanels {
                x: &xs[gi * cg * hw..(gi + 1) * cg * hw],
                sample: 0,
                g,
                taps: &self.taps,
            };
            // One full-width "strip" of the patch pack is the row-major
            // column matrix [lfan, ncols].
            patches.pack(gcol, 0, lfan, 0, ncols, ncols);
            // gW_g of every slot [s·ocg, lfan] = gy [s·ocg, ncols] × colᵀ
            // [ncols, lfan]: colᵀ is packed once for all slots.
            let gw = &mut gw[..s * block];
            gemm::gemm(
                s * ocg,
                ncols,
                lfan,
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
                let dst = grad_slot(acc, s, j, off + gi * block, block);
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
    }

    /// Input gradients of one chunk of consecutive (slot, sample) units.
    /// `gy` holds the chunk's output gradients, `sample_grad` floats per
    /// unit; `gx` its input gradients (zeroed), or `None` to overwrite
    /// `gy` with them. Per group, one GEMM `W_gᵀ [lfan, ocg] × gy [ocg,
    /// U·ncols]` puts every unit's live column gradient side by side in
    /// `gcol`, and `col2im` scatter-accumulates each unit's. `wl` is the
    /// weight's live columns. On the `direct` lowering each unit's input
    /// gradient comes from `direct::input_grad` instead, and in place
    /// from a copy of the unit's output gradient in `gcol`.
    fn input_grad_chunk(
        &self,
        g: PatchGeom,
        wl: &[f32],
        gy: &mut [f32],
        mut gx: Option<&mut [f32]>,
        gcol: &mut [f32],
        direct: bool,
    ) {
        let ncols = g.oh * g.ow;
        if direct {
            let (sample_in, sample_grad) =
                (self.in_channels * g.h * g.w, self.out_channels * ncols);
            for (u, gy) in gy.chunks_exact_mut(sample_grad).enumerate() {
                match gx.as_deref_mut() {
                    Some(gx) => {
                        direct::input_grad(gy, g.h, wl, &mut gx[u * sample_in..][..sample_in])
                    }
                    None => {
                        let copy = &mut gcol[..sample_grad];
                        copy.copy_from_slice(gy);
                        direct::input_grad(copy, g.h, wl, gy);
                    }
                }
            }
            return;
        }
        let hw = g.h * g.w;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let lfan = cg * self.taps.len();
        let (sample_in, sample_grad) = (self.in_channels * hw, self.out_channels * ncols);
        let units = gy.len() / sample_grad;
        let n = units * ncols;
        let col = &mut gcol[..lfan * n];
        for gi in 0..self.groups {
            let wg = &wl[gi * ocg * lfan..(gi + 1) * ocg * lfan];
            gemm::gemm(
                lfan,
                ocg,
                n,
                &DenseATrans { data: wg, m: lfan },
                &DenseBBlocks {
                    data: &gy[gi * ocg * ncols..],
                    cols: ncols,
                    stride: sample_grad,
                },
                col,
            );
            for u in 0..units {
                let dst = match gx.as_deref_mut() {
                    Some(gx) => &mut gx[u * sample_in + gi * cg * hw..][..cg * hw],
                    None => {
                        let dst = &mut gy[u * sample_grad + gi * ocg * ncols..][..ocg * ncols];
                        dst.fill(0.0);
                        dst
                    }
                };
                self.col2im(g, col, u * ncols, n, dst);
            }
        }
    }

    /// Scatter-accumulate one unit's live `[cg·|taps|, oh·ow]` column
    /// gradient — row `r` at `col[at + r·ld..]` — into one group's
    /// input-gradient planes. `col` is scratch: the same-padded stride-1
    /// walk zeroes the entries it must not add.
    fn col2im(&self, g: PatchGeom, col: &mut [f32], at: usize, ld: usize, gx: &mut [f32]) {
        let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
        let ncols = oh * ow;
        let cg = self.in_channels / self.groups;
        let pad = self.padding;
        let nl = self.taps.len();
        for c in 0..cg {
            let plane = &mut gx[c * h * w..(c + 1) * h * w];
            for (ti, &(ky, kx)) in self.taps.iter().enumerate() {
                let row = at + (c * nl + ti) * ld;
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
                    let hi = (ncols as isize - shift).clamp(lo as isize, ncols as isize) as usize;
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

impl Conv2d {
    /// The forward on the direct lowering or the GEMM one; `direct`
    /// requires `direct_fits`.
    fn forward_lowered(&mut self, params: &[f32], x: Tensor, train: bool, direct: bool) -> Tensor {
        let s = x.shape();
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let g = self.geom(h, w);
        let (wt, bias) = self.weights(params);
        let mut out = pool::take(b * self.out_channels * g.oh * g.ow);
        if direct {
            direct::forward(x.data(), c, h, wt, bias, &mut out);
        } else {
            self.forward_gemm(g, x.data(), wt, bias, &mut out);
        }
        if train {
            self.cached_input = Some(x);
        }
        let cst = flops::conv2d_fwd(&self.cost_shape(b, h, w));
        PERF_CONV_FWD.op(cst.flops, cst.bytes);
        Tensor::from_vec(out, &[b, self.out_channels, g.oh, g.ow])
    }

    /// The GEMM lowering of the forward of the batch `x` into `out`.
    /// Fused, one chunk of samples at a time: per group, one blocked
    /// GEMM `W_g [ocg, lfan] × patches [lfan, nb·ncols]`, scattered into
    /// the chunk's outputs, then the bias broadcast.
    fn forward_gemm(&self, g: PatchGeom, x: &[f32], wt: &[f32], bias: &[f32], out: &mut [f32]) {
        let ncols = g.oh * g.ow;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let lfan = cg * self.taps.len();
        let (sample_in, sample_out) = (self.in_channels * g.h * g.w, self.out_channels * ncols);
        let b = x.len() / sample_in;
        let per = per_chunk(ncols);
        let wl = self.live_weight(wt);
        let wt = wl.as_deref().unwrap_or(wt);
        let cut = |p| slab_end(&self.taps, self.kernel, p);
        // A one-sample chunk's product is its output slice already.
        let mut y = pool::take(if per > 1 { ocg * per.min(b) * ncols } else { 0 });
        for (xs, os) in x
            .chunks(per * sample_in)
            .zip(out.chunks_mut(per * sample_out))
        {
            let nb = os.len() / sample_out;
            let n = nb * ncols;
            for gi in 0..self.groups {
                let a = DenseA {
                    data: &wt[gi * ocg * lfan..(gi + 1) * ocg * lfan],
                    k: lfan,
                };
                let patches = PatchPanels {
                    x: &xs[gi * cg * g.h * g.w..],
                    sample: sample_in,
                    g,
                    taps: &self.taps,
                };
                if nb == 1 {
                    let dst = &mut os[gi * ocg * ncols..(gi + 1) * ocg * ncols];
                    gemm::gemm_slabs(ocg, lfan, ncols, &a, &patches, dst, cut);
                    continue;
                }
                let y = &mut y[..ocg * n];
                gemm::gemm_slabs(ocg, lfan, n, &a, &patches, y, cut);
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
        if let Some(wl) = wl {
            pool::give(wl);
        }
    }

    /// The backward on the direct lowering or the GEMM one; `direct`
    /// requires `direct_fits`. The bias gradient is the same on both.
    fn backward_lowered(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad: Tensor,
        direct: bool,
    ) -> Tensor {
        let (b, c, h, w) = {
            let x = self
                .cached_input
                .as_ref()
                .expect("backward before forward(train)");
            let s = x.shape();
            (s[0], s[1], s[2], s[3])
        };
        let g = self.geom(h, w);
        let wt = self.weights(params).0;
        let ncols = g.oh * g.ow;
        let lfan = c / self.groups * self.taps.len();
        let sample_grad = self.out_channels * ncols;
        let sample_in = c * h * w;
        let gw_len = self.out_channels * self.fan();
        let s = slot_count(grad.len(), b * sample_grad, "Conv2d");

        // Bias gradient first — per slot, the sum of grad over batch and
        // spatial dims — while every slot's output gradient is intact.
        let mut gd = grad.into_vec();
        for (j, gy) in gd.chunks_exact(b * sample_grad).enumerate() {
            let gb = grad_slot(grads, s, j, self.off + gw_len, self.out_channels);
            add_row_sums(gy, ncols, gb);
        }
        // Units (slot j, sample bi) are slot-major, unit j·b + bi. A layer
        // whose input is as large as its output writes the input gradient
        // over the output gradient: one stacked buffer instead of two.
        let units = s * b;
        let per = per_chunk(ncols);
        let mut gx_own = (sample_in != sample_grad).then(|| pool::take_zeroed(units * sample_in));
        let wl = self.live_weight(wt);
        // The slots' weight gradients take every sample's additions in a
        // compact copy of their live columns when some tap is dead — one
        // pass over the slab per backward instead of one per sample — and
        // go back to the slab at the end. The f32 additions are the same.
        let lw_len = self.out_channels * lfan;
        let mut live_gw = self.has_dead_taps().then(|| {
            let mut v = pool::take(s * lw_len);
            for j in 0..s {
                let slot = grad_slot(grads, s, j, self.off, gw_len);
                self.gather_live(slot, &mut v[j * lw_len..(j + 1) * lw_len]);
            }
            v
        });
        // The direct weight gradient adds every sample's into a
        // transposed copy of the slots' weight gradients, `[fan, s·oc]`
        // at row stride `rs`, which goes back to the slab once.
        let (oc, fan) = (self.out_channels, self.fan());
        let rs = direct::weight_grad_stride(s * oc);
        let mut gwt = direct.then(|| {
            let mut v = pool::take(fan * rs);
            for j in 0..s {
                let slot = grad_slot(grads, s, j, self.off, gw_len);
                direct::transpose(slot, fan, oc, fan, &mut v[j * oc..], rs);
            }
            // The lanes past the rows hold no gradient; +0.0, not stale
            // bits, so that no denormal or NaN reaches the adds.
            for row in v.chunks_exact_mut(rs) {
                row[s * oc..].fill(0.0);
            }
            v
        });
        // On the GEMM lowering, one sample's live column matrix (weight
        // gradient) and one chunk's live column gradient (input
        // gradient), and the weight-gradient GEMM's product; on the
        // direct lowering, in place, one unit's output gradient.
        let (gcol_len, gw_scratch) = if direct {
            (if gx_own.is_none() { sample_grad } else { 0 }, 0)
        } else {
            (lfan * per.min(units) * ncols, s * oc / self.groups * lfan)
        };
        let mut gcol = pool::take(gcol_len);
        let mut gw = pool::take(gw_scratch);
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
                if let Some(gwt) = gwt.as_deref_mut() {
                    let x = self.cached_input.as_ref().expect("cached above");
                    let gy = DenseABlocks {
                        data: &gd[done * sample_grad..],
                        k: ncols,
                        rows: oc,
                        stride: b * sample_grad,
                    };
                    let xs = &x.data()[done * sample_in..][..sample_in];
                    direct::weight_grad(xs, h, &gy, s * oc, gwt);
                } else {
                    let (acc, off) = match live_gw.as_deref_mut() {
                        Some(v) => (v, 0),
                        None => (&mut *grads, self.off),
                    };
                    self.add_weight_grads(g, acc, off, done, &gd, s, &mut gw, &mut gcol);
                }
                done += 1;
            }
            self.input_grad_chunk(
                g,
                wl.as_deref().unwrap_or(wt),
                &mut gd[u0 * sample_grad..u1 * sample_grad],
                gx_own
                    .as_deref_mut()
                    .map(|gx| &mut gx[u0 * sample_in..u1 * sample_in]),
                &mut gcol,
                direct,
            );
        }
        if let Some(v) = live_gw {
            for j in 0..s {
                let slot = grad_slot(grads, s, j, self.off, gw_len);
                self.scatter_live(&v[j * lw_len..(j + 1) * lw_len], slot);
            }
            pool::give(v);
        }
        if let Some(v) = gwt {
            for j in 0..s {
                let slot = grad_slot(grads, s, j, self.off, gw_len);
                direct::transpose(&v[j * oc..], rs, fan, oc, slot, fan);
            }
            pool::give(v);
        }
        if let Some(wl) = wl {
            pool::give(wl);
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
}

impl Layer for Conv2d {
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B,C,H,W]");
        assert_eq!(s[1], self.in_channels, "Conv2d channel mismatch");
        let direct = self.takes_direct(s[2], s[3]);
        self.forward_lowered(params, x, train, direct)
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let s = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train)")
            .shape();
        let direct = self.takes_direct(s[2], s[3]);
        self.backward_lowered(params, grads, grad, direct)
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

    #[test]
    fn live_taps_are_those_that_read_the_image() {
        // (k, stride, pad, h): the live taps of a square input.
        let cases: &[(usize, usize, usize, usize, &[usize])] = &[
            (3, 1, 1, 8, &[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            (3, 1, 1, 1, &[4]),
            (3, 2, 1, 2, &[4, 5, 7, 8]),
            (5, 1, 2, 2, &[6, 7, 8, 11, 12, 13, 16, 17, 18]),
            // Padding wider than half the kernel: the middle row and
            // column fall between the image and the next output's reach.
            (3, 2, 2, 1, &[0, 2, 6, 8]),
            // Every window lands in padding.
            (2, 4, 2, 1, &[]),
        ];
        for &(k, st, pd, h, want) in cases {
            let mut conv = Conv2d::new(&mut seeded(0), 1, 1, k, st, pd, 1);
            conv.geom(h, h);
            let got: Vec<usize> = conv.taps.iter().map(|&(ky, kx)| ky * k + kx).collect();
            assert_eq!(got, want, "k{k} s{st} p{pd} {h}x{h}");
        }
    }

    /// Bits of a slice, for exact comparisons (`-0.0 != 0.0`, NaN == NaN).
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded values with exact +0.0 and -0.0 sprinkled in.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut v = fedknow_math::rng::normal_vec(&mut seeded(seed), n, 0.0, 1.0);
        for (i, x) in v.iter_mut().enumerate() {
            if i % 7 == 3 {
                *x = 0.0;
            } else if i % 11 == 5 {
                *x = -0.0;
            }
        }
        v
    }

    #[test]
    fn direct_lowering_is_the_gemm_lowering_bit_for_bit() {
        // Under the AVX2 and scalar tiles the direct kernels do not run
        // and there is one lowering.
        if !direct::available() {
            return;
        }
        // Every map the kernels fit × channels in and out (`c == oc`
        // writes the input gradient over the output gradient; fan 288 and
        // 576 cross `KC`), cycling through the batches and slot counts.
        let widths = [3, 8, 16, 32, 64];
        let runs = [
            (1, 1),
            (5, 3),
            (12, 10),
            (1, 3),
            (5, 10),
            (12, 1),
            (1, 10),
            (5, 1),
            (12, 3),
        ];
        let mut cases = Vec::new();
        for n in [4, 8, 16] {
            for cin in widths {
                for cout in widths {
                    let (b, s) = runs[cases.len() % runs.len()];
                    cases.push((cin, cout, n, b, s));
                }
            }
        }
        // Stacked rows `s·oc` that are odd, a whole number of vectors, or
        // a multiple of 128 (the weight gradient's padded stride).
        cases.extend([
            (5, 7, 16, 3, 3),
            (7, 9, 8, 2, 11),
            (9, 13, 4, 5, 3),
            (24, 40, 4, 3, 7),
            (32, 32, 4, 2, 8),
            (64, 48, 4, 2, 8),
            (16, 16, 8, 3, 16),
        ]);
        for (i, &(cin, cout, n, b, s)) in cases.iter().enumerate() {
            let case = i as u64 + 1;
            let what = format!("{cin}->{cout} {n}x{n} b{b} s{s}");
            let mut conv = Conv2d::conv3x3(&mut seeded(case), cin, cout, 1);
            assert!(conv.direct_fits(n, n), "{what}");
            let mut params = Vec::new();
            conv.bind(&mut |_, _, init: Vec<f32>| {
                let off = params.len();
                params.extend(init);
                off
            });
            params[cout * cin * 9..].copy_from_slice(&values(cout, 7 * case));
            let x = Tensor::from_vec(values(b * cin * n * n, 2 * case), &[b, cin, n, n]);
            // Every other case has a unit of −0.0 and a channel of +0.0:
            // bias sums of −0.0, weight-gradient chains of zero terms.
            let mut gy = values(s * b * cout * n * n, 3 * case);
            if i % 2 == 1 {
                let (unit, last) = (cout * n * n, gy.len() - cout * n * n);
                gy[..unit].fill(-0.0);
                gy[last..][..n * n].fill(0.0);
            }
            let gy = Tensor::from_vec(gy, &[s * b, cout, n, n]);
            // Slots that already hold gradients: the backward adds.
            let slab = values(s * params.len(), 5 * case);
            let mut run = |direct: bool| {
                let y = conv.forward_lowered(&params, x.clone(), true, direct);
                let mut grads = slab.clone();
                let gx = conv.backward_lowered(&params, &mut grads, gy.clone(), direct);
                (y, gx, grads)
            };
            let (y_g, gx_g, gr_g) = run(false);
            let (y_d, gx_d, gr_d) = run(true);
            assert_eq!(bits(y_d.data()), bits(y_g.data()), "output {what}");
            assert_eq!(gx_d.shape(), gx_g.shape(), "{what}");
            assert_eq!(
                bits(gx_d.data()),
                bits(gx_g.data()),
                "input gradient {what}"
            );
            for (j, (d, g)) in gr_d
                .chunks(params.len())
                .zip(gr_g.chunks(params.len()))
                .enumerate()
            {
                assert_eq!(bits(d), bits(g), "slot {j} gradient {what}");
            }
        }
    }

    #[test]
    fn interleaved_row_sums_are_serial_sums() {
        // 21 rows: two full groups of eight and a ragged one; a row of
        // −0.0 (its sum stays −0.0) and one of mixed ±0.0.
        let n = 13;
        let mut rows = values(21 * n, 9);
        rows[2 * n..3 * n].fill(-0.0);
        for (i, v) in rows[9 * n..10 * n].iter_mut().enumerate() {
            *v = if i % 2 == 0 { -0.0 } else { 0.0 };
        }
        for width in [3, 8, 21] {
            let mut got = values(width, 4);
            let mut want = got.clone();
            add_row_sums(&rows, n, &mut got);
            for (r, row) in rows.chunks_exact(n).enumerate() {
                want[r % width] += row.iter().sum::<f32>();
            }
            assert_eq!(bits(&got), bits(&want), "{width} accumulators");
        }
    }

    #[test]
    fn direct_rule_takes_narrow_same_padded_layers_only() {
        let rule = |cin, cout, k, st, pd, g, n| {
            Conv2d::new(&mut seeded(0), cin, cout, k, st, pd, g).takes_direct(n, n)
        };
        let want = direct::available();
        for (cin, cout, n) in [
            (3, 8, 16),
            (8, 8, 16),
            (8, 16, 8),
            (16, 16, 4),
            (32, 32, 4),
            (3, 32, 8),
            (32, 32, 8),
            (64, 64, 4),
        ] {
            assert_eq!(
                rule(cin, cout, 3, 1, 1, 1, n),
                want,
                "{cin}->{cout} {n}x{n}"
            );
        }
        // Stride 2, 1×1, grouped, maps it does not fit, wide layers.
        assert!(!rule(8, 16, 3, 2, 1, 1, 16));
        assert!(!rule(8, 16, 1, 1, 0, 1, 8));
        assert!(!rule(8, 8, 3, 1, 1, 2, 8));
        assert!(!rule(8, 8, 3, 1, 1, 8, 8));
        assert!(!rule(8, 8, 3, 1, 1, 1, 2));
        assert!(!rule(8, 8, 3, 1, 1, 1, 32));
        assert!(!rule(8, 8, 3, 1, 1, 1, 7));
        assert!(!rule(64, 64, 3, 1, 1, 1, 8));
        assert!(!rule(32, 64, 3, 1, 1, 1, 16));
        assert!(!rule(32, 32, 3, 1, 1, 1, 16));
        assert!(!rule(16, 16, 3, 1, 1, 1, 16));
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
            (3, 4, 3, 2, 2, 1, 1, 1),
            (2, 3, 2, 4, 2, 1, 1, 1),
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
