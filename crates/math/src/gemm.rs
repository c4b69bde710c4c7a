//! Cache-blocked, register-tiled, packed-panel f32 GEMM.
//!
//! BLIS-style structure: the k dimension is split into `KC`-deep slabs,
//! columns into `NC`-wide panels, rows into `MC`-tall blocks. Within a
//! block, B is packed into `NR`-wide column strips and A into `MR`-tall
//! row strips (both zero-padded to full tile width), and an MR×NR
//! register microkernel runs over every tile — edge tiles included, via a
//! small scratch tile, so no shape falls off the fast path.
//!
//! Three microkernels are provided and selected once per process by
//! runtime CPU detection (overridable with `FEDKNOW_KERNEL_ISA=
//! avx512|avx2|scalar` for differential testing; a tile that is unknown,
//! or that this CPU cannot run, panics at first use):
//!
//! | ISA            | MR×NR | registers                         |
//! |----------------|-------|-----------------------------------|
//! | AVX-512F       | 8×48  | 24 zmm accumulators + 3 B + 1 A   |
//! | AVX2+FMA       | 6×16  | 12 ymm accumulators + 2 B + 1 A   |
//! | scalar         | 4×16  | autovectorized f32 arrays         |
//!
//! The left and right operands are abstracted as [`APanels`]/[`BPanels`]
//! pack sources, so `fedknow-nn`'s fused conv2d forward can feed im2col
//! *patch panels* straight into the same blocked kernel without
//! materializing the full column matrix.
//!
//! The six dense sources fall in two classes. [`DenseATrans`],
//! [`DenseB`] and its block-strided generalisation [`DenseBBlocks`] are
//! stored along the packing direction: a packed row is a straight copy
//! (split at block edges). [`DenseA`], its block-strided generalisation
//! [`DenseABlocks`] and [`DenseBTrans`] are stored across it (k
//! contiguous), so packing them is a transpose; they share one blocked
//! walk, `pack_transposed`, that moves 16-deep blocks of 8 source rows at
//! a time instead of one strided scalar store per element.
//!
//! ## Determinism
//!
//! For a fixed ISA, every output element `out[i][j]` is the sum of
//! `a[i][p]·b[p][j]` accumulated in strictly ascending `p` order (k-slabs
//! in order, each slab's FMA chain added into the output as one term; the
//! slabs are `KC` deep unless [`gemm_slabs`] is told where to cut),
//! regardless of which row strip or column panel computed it. Where a row or column lands in the
//! blocking (full tile or edge tile, first block or last) changes no bit,
//! and a GEMM runs on the calling thread.

use crate::pool;

/// Depth of one packed k-slab.
pub const KC: usize = 256;
/// Rows per packed A block.
pub const MC: usize = 64;
/// Columns per packed B panel.
pub const NC: usize = 960;

/// Pack source for the left operand (logical `[m, k]`, row-major tiles).
///
/// `pack` must fill `dst` with rows `[i0, i0+mc)` × cols `[k0, k0+kc)`
/// laid out as `MR`-row strips, k-major within a strip:
/// `dst[s·(kc·mr) + p·mr + r] = A[i0 + s·mr + r][k0 + p]`,
/// with rows past the block's end zero-filled.
pub trait APanels {
    /// Pack one `mc × kc` block into `mr`-row strips (see trait docs).
    fn pack(&self, dst: &mut [f32], i0: usize, mc: usize, k0: usize, kc: usize, mr: usize);
}

/// Pack source for the right operand (logical `[k, n]`).
///
/// `pack` must fill `dst` with rows `[k0, k0+kc)` × cols `[j0, j0+nc)`
/// laid out as `NR`-column strips, k-major within a strip:
/// `dst[s·(kc·nr) + p·nr + j] = B[k0 + p][j0 + s·nr + j]`,
/// with columns past the panel's end zero-filled.
pub trait BPanels {
    /// Pack one `kc × nc` panel into `nr`-column strips (see trait docs).
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize);
}

/// Dense row-major left operand `[m, k]` with row stride `k`. Packing
/// transposes (k is contiguous in the source, rows are in the strip).
pub struct DenseA<'a> {
    /// Row-major data, at least `m·k` long.
    pub data: &'a [f32],
    /// Row stride (the k dimension).
    pub k: usize,
}

impl APanels for DenseA<'_> {
    fn pack(&self, dst: &mut [f32], i0: usize, mc: usize, k0: usize, kc: usize, mr: usize) {
        let k = self.k;
        pack_transposed(&self.data[i0 * k + k0..], |x| x * k, mc, kc, dst, mr);
    }
}

/// Row-major left operand `[m, k]` stored in equal blocks of `rows` rows
/// spaced `stride` floats apart: row `i` starts at
/// `data[(i / rows)·stride + (i % rows)·k]`. `rows` rows of each of `s`
/// stacked slots (`m = s·rows`) multiply one shared right operand in one
/// GEMM, so its pack is shared too. Packing transposes, like [`DenseA`]
/// (which is the one-block case).
pub struct DenseABlocks<'a> {
    /// Data holding every block.
    pub data: &'a [f32],
    /// Row stride within a block (the k dimension).
    pub k: usize,
    /// Rows per block.
    pub rows: usize,
    /// Distance between the starts of consecutive blocks.
    pub stride: usize,
}

impl APanels for DenseABlocks<'_> {
    fn pack(&self, dst: &mut [f32], i0: usize, mc: usize, k0: usize, kc: usize, mr: usize) {
        let (k, rows, stride) = (self.k, self.rows, self.stride);
        let row = |x: usize| {
            let i = i0 + x;
            (i / rows) * stride + (i % rows) * k
        };
        pack_transposed(&self.data[k0..], row, mc, kc, dst, mr);
    }
}

/// Transposed left operand: stored `[k, m]`, logically `A = storedᵀ`.
/// Packing copies: a stored row already runs along m.
pub struct DenseATrans<'a> {
    /// Stored row-major `[k, m]` data.
    pub data: &'a [f32],
    /// Stored row stride (the logical m dimension).
    pub m: usize,
}

impl APanels for DenseATrans<'_> {
    fn pack(&self, dst: &mut [f32], i0: usize, mc: usize, k0: usize, kc: usize, mr: usize) {
        for (s, rows) in (0..mc).step_by(mr).enumerate() {
            let hm = mr.min(mc - rows);
            let strip = &mut dst[s * kc * mr..(s * kc * mr) + kc * mr];
            if hm < mr {
                strip.fill(0.0);
            }
            for (p, row) in strip.chunks_exact_mut(mr).enumerate() {
                let src = &self.data[(k0 + p) * self.m + i0 + rows..][..hm];
                row[..hm].copy_from_slice(src);
            }
        }
    }
}

/// Dense row-major right operand `[k, n]` with row stride `n`. Packing
/// copies `nr`-float runs of each row.
pub struct DenseB<'a> {
    /// Row-major data, at least `k·n` long.
    pub data: &'a [f32],
    /// Row stride (the n dimension).
    pub n: usize,
}

impl BPanels for DenseB<'_> {
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize) {
        for (s, cols) in (0..nc).step_by(nr).enumerate() {
            let w = nr.min(nc - cols);
            let strip = &mut dst[s * kc * nr..(s * kc * nr) + kc * nr];
            for p in 0..kc {
                let src = &self.data[(k0 + p) * self.n + j0 + cols..][..w];
                let row = &mut strip[p * nr..(p + 1) * nr];
                row[..w].copy_from_slice(src);
                row[w..].fill(0.0);
            }
        }
    }
}

/// Row-major right operand `[k, n]` stored in equal blocks of `cols`
/// columns spaced `stride` floats apart: column `j` of row `p` is
/// `data[(j / cols)·stride + p·cols + j % cols]`. The `[k, cols]` matrices
/// of `n / cols` stacked units sit side by side along N and share one
/// left operand's pack — the mirror of [`DenseABlocks`]. Packing copies,
/// like [`DenseB`] (which is the one-block case), split at block edges.
pub struct DenseBBlocks<'a> {
    /// Data holding every block.
    pub data: &'a [f32],
    /// Columns per block (the row stride within a block).
    pub cols: usize,
    /// Distance between the starts of consecutive blocks.
    pub stride: usize,
}

impl BPanels for DenseBBlocks<'_> {
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize) {
        let (cols, stride) = (self.cols, self.stride);
        for (s, c0) in (0..nc).step_by(nr).enumerate() {
            let w = nr.min(nc - c0);
            let strip = &mut dst[s * kc * nr..(s * kc * nr) + kc * nr];
            if w < nr {
                for row in strip.chunks_exact_mut(nr) {
                    row[w..].fill(0.0);
                }
            }
            // One block segment at a time, every packed row of it.
            let mut t = 0;
            while t < w {
                let j = j0 + c0 + t;
                let (blk, q) = (j / cols, j % cols);
                let seg = (cols - q).min(w - t);
                let src = &self.data[blk * stride + k0 * cols + q..];
                for (p, row) in strip.chunks_exact_mut(nr).enumerate() {
                    row[t..t + seg].copy_from_slice(&src[p * cols..][..seg]);
                }
                t += seg;
            }
        }
    }
}

/// Transposed right operand: stored `[n, k]`, logically `B = storedᵀ`.
/// Packing transposes, like [`DenseA`].
pub struct DenseBTrans<'a> {
    /// Stored row-major `[n, k]` data.
    pub data: &'a [f32],
    /// Stored row stride (the logical k dimension).
    pub k: usize,
}

impl BPanels for DenseBTrans<'_> {
    fn pack(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nc: usize, nr: usize) {
        let k = self.k;
        pack_transposed(&self.data[j0 * k + k0..], |x| x * k, nc, kc, dst, nr);
    }
}

/// Depth of the blocks the transposing packs walk: 16 floats, one cache
/// line of a source row.
const TB: usize = 16;

/// The pack of a source stored across the packing direction, shared by
/// [`DenseA`], [`DenseABlocks`] and [`DenseBTrans`]: source row `x`
/// (starting at `src[row(x)]`, running along k) becomes column `x % r` of
/// strip `x / r`,
///
/// `dst[(x / r)·kc·r + p·r + x % r] = src[row(x) + p]`, `x < xc`, `p < kc`,
///
/// and the columns of the last strip past `xc` are zeroed.
///
/// Walking one source row at a time stores every element to a different
/// cache line of the strip. When `r` is a multiple of 8 (every B tile, and
/// the AVX-512 A tile) an aligned group of 8 source rows lands in 8
/// adjacent columns of one strip, so the bulk is done in 8-row × `TB`-deep
/// blocks — read as row segments, transposed in a stack tile, written as
/// 8-float runs, bounds checked once per segment and run rather than per
/// element. The ragged edges (and any other `r`) take the element walk.
fn pack_transposed(
    src: &[f32],
    row: impl Fn(usize) -> usize,
    xc: usize,
    kc: usize,
    dst: &mut [f32],
    r: usize,
) {
    let strips = xc.div_ceil(r);
    let dst = &mut dst[..strips * kc * r];
    if !xc.is_multiple_of(r) {
        dst[(strips - 1) * kc * r..].fill(0.0);
    }
    let col = |x: usize| (x / r) * kc * r + x % r;
    let (xb, kb) = if r.is_multiple_of(8) {
        (xc - xc % 8, kc - kc % TB)
    } else {
        (0, 0)
    };
    for x in (0..xb).step_by(8) {
        let run = &mut dst[col(x)..];
        let starts: [usize; 8] = std::array::from_fn(|j| row(x + j));
        for p0 in (0..kb).step_by(TB) {
            let mut tile = [[0.0f32; 8]; TB];
            for (j, &s) in starts.iter().enumerate() {
                let seg = &src[s + p0..][..TB];
                for (t, &v) in tile.iter_mut().zip(seg) {
                    t[j] = v;
                }
            }
            for (p, t) in tile.iter().enumerate() {
                run[(p0 + p) * r..][..8].copy_from_slice(t);
            }
        }
    }
    for x in 0..xc {
        let done = if x < xb { kb } else { 0 };
        let row = &src[row(x)..][..kc];
        let out = &mut dst[col(x)..];
        for p in done..kc {
            out[p * r] = row[p];
        }
    }
}

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Avx512,
    Avx2,
    Scalar,
}

impl Isa {
    fn tile(self) -> (usize, usize) {
        match self {
            Isa::Avx512 => (8, 48),
            Isa::Avx2 => (6, 16),
            Isa::Scalar => (4, 16),
        }
    }

    /// Whether this CPU can run the tile's microkernels.
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => false,
            Isa::Scalar => true,
        }
    }
}

/// A `FEDKNOW_KERNEL_ISA` value: `None` for empty (use the detected
/// tile), the named tile otherwise.
fn parse_isa(v: &str) -> Result<Option<Isa>, &'static str> {
    match v {
        "" => Ok(None),
        "avx512" => Ok(Some(Isa::Avx512)),
        "avx2" => Ok(Some(Isa::Avx2)),
        "scalar" => Ok(Some(Isa::Scalar)),
        _ => Err("not a tile; accepted: avx512, avx2, scalar"),
    }
}

/// The best tile this CPU runs, or the one `FEDKNOW_KERNEL_ISA` names.
/// An unknown tile, or one this CPU cannot run, panics: a run "under the
/// avx2 tile" must not quietly test another.
fn detect_isa() -> Isa {
    let detected = [Isa::Avx512, Isa::Avx2]
        .into_iter()
        .find(|isa| isa.available())
        .unwrap_or(Isa::Scalar);
    let req = std::env::var("FEDKNOW_KERNEL_ISA").unwrap_or_default();
    match parse_isa(&req) {
        Ok(None) => detected,
        Ok(Some(isa)) if isa.available() => isa,
        r => panic!(
            "FEDKNOW_KERNEL_ISA={req:?}: {}; detected tile: {detected:?}",
            r.err().unwrap_or("this CPU cannot run that tile")
        ),
    }
}

fn isa() -> Isa {
    static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ISA.get_or_init(detect_isa)
}

/// `(MR, NR)` register-tile dimensions the selected microkernel uses —
/// exported so the fuzz generators can aim shapes at tile boundaries.
pub fn tile_params() -> (usize, usize) {
    isa().tile()
}

/// Whether the selected tile is the AVX-512 one: the condition under
/// which [`direct`](crate::direct)'s kernels run.
pub(crate) fn avx512_selected() -> bool {
    isa() == Isa::Avx512
}

/// Name of the selected microkernel, for bench/report output.
pub fn isa_name() -> &'static str {
    match isa() {
        Isa::Avx512 => "avx512 8x48",
        Isa::Avx2 => "avx2+fma 6x16",
        Isa::Scalar => "scalar 4x16",
    }
}

// ---------------------------------------------------------------------------
// Microkernels: C[mr × nr] += PA · PB over kc steps, ascending k.
// ---------------------------------------------------------------------------

/// # Safety
/// Requires AVX-512F. `pa` must hold `kc·8` floats, `pb` `kc·48`, and `c`
/// must be valid for the 8×48 tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kern_8x48_avx512(pa: *const f32, pb: *const f32, c: *mut f32, ldc: usize, kc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 3]; 8];
    let mut pa = pa;
    let mut pb = pb;
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(pb);
        let b1 = _mm512_loadu_ps(pb.add(16));
        let b2 = _mm512_loadu_ps(pb.add(32));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*pa.add(r));
            acc_r[0] = _mm512_fmadd_ps(av, b0, acc_r[0]);
            acc_r[1] = _mm512_fmadd_ps(av, b1, acc_r[1]);
            acc_r[2] = _mm512_fmadd_ps(av, b2, acc_r[2]);
        }
        pa = pa.add(8);
        pb = pb.add(48);
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (j, &v) in acc_r.iter().enumerate() {
            let p = c.add(r * ldc + j * 16);
            _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), v));
        }
    }
}

/// 8×32 edge variant: same packed strips (B row stride stays 48), only
/// the first 32 lanes computed. The per-element FMA chain is identical to
/// [`kern_8x48_avx512`], so edge tiles stay bit-identical to full tiles.
///
/// # Safety
/// Requires AVX-512F. `pa` must hold `kc·8` floats, `pb` `kc·48`, and `c`
/// must be valid for an 8×32 tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kern_8x32_avx512(pa: *const f32, pb: *const f32, c: *mut f32, ldc: usize, kc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 8];
    let mut pa = pa;
    let mut pb = pb;
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(pb);
        let b1 = _mm512_loadu_ps(pb.add(16));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*pa.add(r));
            acc_r[0] = _mm512_fmadd_ps(av, b0, acc_r[0]);
            acc_r[1] = _mm512_fmadd_ps(av, b1, acc_r[1]);
        }
        pa = pa.add(8);
        pb = pb.add(48);
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (j, &v) in acc_r.iter().enumerate() {
            let p = c.add(r * ldc + j * 16);
            _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), v));
        }
    }
}

/// 8×16 edge variant of [`kern_8x48_avx512`]; see [`kern_8x32_avx512`].
///
/// # Safety
/// Requires AVX-512F. `pa` must hold `kc·8` floats, `pb` `kc·48`, and `c`
/// must be valid for an 8×16 tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kern_8x16_avx512(pa: *const f32, pb: *const f32, c: *mut f32, ldc: usize, kc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [_mm512_setzero_ps(); 8];
    let mut pa = pa;
    let mut pb = pb;
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(pb);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*pa.add(r));
            *acc_r = _mm512_fmadd_ps(av, b0, *acc_r);
        }
        pa = pa.add(8);
        pb = pb.add(48);
    }
    for (r, &v) in acc.iter().enumerate() {
        let p = c.add(r * ldc);
        _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), v));
    }
}

/// # Safety
/// Requires AVX2+FMA. `pa` must hold `kc·6` floats, `pb` `kc·16`, and `c`
/// must be valid for the 6×16 tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn kern_6x16_avx2(pa: *const f32, pb: *const f32, c: *mut f32, ldc: usize, kc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    let mut pa = pa;
    let mut pb = pb;
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(pb);
        let b1 = _mm256_loadu_ps(pb.add(8));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*pa.add(r));
            acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
            acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
        }
        pa = pa.add(6);
        pb = pb.add(16);
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (j, &v) in acc_r.iter().enumerate() {
            let p = c.add(r * ldc + j * 8);
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
        }
    }
}

/// 6×8 edge variant of [`kern_6x16_avx2`] (B row stride stays 16, first
/// 8 lanes computed; per-element FMA chain identical).
///
/// # Safety
/// Requires AVX2+FMA. `pa` must hold `kc·6` floats, `pb` `kc·16`, and `c`
/// must be valid for a 6×8 tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn kern_6x8_avx2(pa: *const f32, pb: *const f32, c: *mut f32, ldc: usize, kc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 6];
    let mut pa = pa;
    let mut pb = pb;
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(pb);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*pa.add(r));
            *acc_r = _mm256_fmadd_ps(av, b0, *acc_r);
        }
        pa = pa.add(6);
        pb = pb.add(16);
    }
    for (r, &v) in acc.iter().enumerate() {
        let p = c.add(r * ldc);
        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
    }
}

/// Portable 4×16 microkernel; the inner loop is written over fixed-size
/// arrays so LLVM vectorizes it at the baseline target.
fn kern_4x16_scalar(pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize, kc: usize) {
    let mut acc = [[0.0f32; 16]; 4];
    for p in 0..kc {
        let a = &pa[p * 4..p * 4 + 4];
        let b = &pb[p * 16..p * 16 + 16];
        for r in 0..4 {
            let av = a[r];
            for j in 0..16 {
                acc[r][j] += av * b[j];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let row = &mut c[r * ldc..r * ldc + 16];
        for (o, &v) in row.iter_mut().zip(acc_r) {
            *o += v;
        }
    }
}

/// Run the selected microkernel on one full tile.
///
/// Safety of the unsafe branches: the ISA was runtime-detected, and the
/// caller guarantees `pa`/`pb` hold `kc` packed steps and `c` spans the
/// full `mr × nr` tile at stride `ldc`.
fn microkernel(which: Isa, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize, kc: usize) {
    match which {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            kern_8x48_avx512(pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), ldc, kc)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { kern_6x16_avx2(pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), ldc, kc) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx512 | Isa::Avx2 => kern_4x16_scalar(pa, pb, c, ldc, kc),
        Isa::Scalar => kern_4x16_scalar(pa, pb, c, ldc, kc),
    }
}

/// Run a microkernel on an edge tile of valid width `w`, choosing the
/// narrowest register variant that covers `w` so a 16-wide edge strip
/// does not pay for 48 lanes of FMA. Every variant accumulates each
/// output element through the identical ascending-k chain, so edge tiles
/// are bit-identical to full tiles (and to each other) — the width choice
/// depends only on the strip.
///
/// `c` is the caller's `mr × nr` scratch tile (row stride `nr`).
#[allow(unused_variables)] // `w` is unused on non-x86_64 targets
fn microkernel_edge(
    which: Isa,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    nr: usize,
    kc: usize,
    w: usize,
) {
    match which {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            let (pa, pb, c) = (pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr());
            if w <= 16 {
                kern_8x16_avx512(pa, pb, c, nr, kc)
            } else if w <= 32 {
                kern_8x32_avx512(pa, pb, c, nr, kc)
            } else {
                kern_8x48_avx512(pa, pb, c, nr, kc)
            }
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            let (pa, pb, c) = (pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr());
            if w <= 8 {
                kern_6x8_avx2(pa, pb, c, nr, kc)
            } else {
                kern_6x16_avx2(pa, pb, c, nr, kc)
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx512 | Isa::Avx2 => kern_4x16_scalar(pa, pb, c, nr, kc),
        Isa::Scalar => kern_4x16_scalar(pa, pb, c, nr, kc),
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// Lengths of the A-block and B-panel pack buffers of a `rows × k × n`
/// product: what the product fills, rounded up to a power of two, and at
/// most a full `MC × KC` block and `KC × NC` panel. A small GEMM does not
/// park a megabyte panel in the pool, and the rounding keeps the pool's
/// size classes — each holds buffers of its own — to a handful.
fn buf_lens(mr: usize, nr: usize, rows: usize, k: usize, n: usize) -> (usize, usize) {
    let kc = k.min(KC);
    let fit = |need: usize, full: usize| need.next_power_of_two().min(full);
    (
        fit(
            rows.min(MC).div_ceil(mr) * mr * kc,
            MC.div_ceil(mr) * mr * KC,
        ),
        fit(n.min(NC).div_ceil(nr) * nr * kc, NC.div_ceil(nr) * nr * KC),
    )
}

/// Blocked GEMM of all `rows` rows into `out` (row stride `n`), which
/// must already be zeroed; the k-slab that starts at `kk` ends at
/// `slab_end(kk).min(k)`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    which: Isa,
    rows: usize,
    k: usize,
    n: usize,
    a: &dyn APanels,
    b: &dyn BPanels,
    out: &mut [f32],
    slab_end: impl Fn(usize) -> usize,
) {
    let (mr, nr) = which.tile();
    let (pa_len, pb_len) = buf_lens(mr, nr, rows, k, n);
    let mut pa = pool::take(pa_len);
    let mut pb = pool::take(pb_len);
    let mut tile = pool::take(mr * nr);

    let mut kk = 0;
    while kk < k {
        let kc = slab_end(kk).min(k) - kk;
        assert!((1..=KC).contains(&kc), "k-slab of depth {kc} at {kk}");
        let mut jj = 0;
        while jj < n {
            let nc = NC.min(n - jj);
            b.pack(&mut pb, kk, kc, jj, nc, nr);
            let nstrips = nc.div_ceil(nr);
            let mut ii = 0;
            while ii < rows {
                let mc = MC.min(rows - ii);
                a.pack(&mut pa, ii, mc, kk, kc, mr);
                let mstrips = mc.div_ceil(mr);
                for js in 0..nstrips {
                    let j0 = jj + js * nr;
                    let w = nr.min(n - j0);
                    let pbs = &pb[js * kc * nr..(js * kc * nr) + kc * nr];
                    for is in 0..mstrips {
                        let i0 = ii + is * mr;
                        let hm = mr.min(rows - i0);
                        let pas = &pa[is * kc * mr..(is * kc * mr) + kc * mr];
                        if hm == mr && w == nr {
                            let c = &mut out[i0 * n + j0..];
                            microkernel(which, pas, pbs, c, n, kc);
                        } else {
                            // Edge tile: narrowest covering microkernel
                            // into a scratch tile, then add back the valid
                            // region — no slow path, no divergent
                            // accumulation order.
                            tile.fill(0.0);
                            microkernel_edge(which, pas, pbs, &mut tile, nr, kc, w);
                            for r in 0..hm {
                                let dst = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + w];
                                let src = &tile[r * nr..r * nr + w];
                                for (o, &v) in dst.iter_mut().zip(src) {
                                    *o += v;
                                }
                            }
                        }
                    }
                }
                ii += mc;
            }
            jj += nc;
        }
        kk += kc;
    }

    pool::give(tile);
    pool::give(pb);
    pool::give(pa);
}

/// `out[m × n] = A[m × k] · B[k × n]` with packed panels and register
/// tiles. `out` is overwritten.
pub fn gemm(m: usize, k: usize, n: usize, a: &dyn APanels, b: &dyn BPanels, out: &mut [f32]) {
    gemm_slabs(m, k, n, a, b, out, |kk| kk + KC);
}

/// [`gemm`] with the k dimension cut into slabs where the caller says:
/// the slab that starts at `kk` ends at `slab_end(kk).min(k)`, at most
/// `KC` further on. [`gemm`] cuts at the multiples of `KC`. A caller that
/// leaves out rows of B that are all +0.0 passes the cuts of the full k
/// mapped onto the rows it keeps: each output element is then the chain
/// the full product computes, minus terms that add +0.0 to an
/// accumulator that is never -0.0 — the same bits.
pub fn gemm_slabs(
    m: usize,
    k: usize,
    n: usize,
    a: &dyn APanels,
    b: &dyn BPanels,
    out: &mut [f32],
    slab_end: impl Fn(usize) -> usize,
) {
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_rows(isa(), m, k, n, a, b, out, slab_end);
}

/// Convenience wrapper: dense row-major `A[m,k] · B[k,n]`.
pub fn gemm_dense(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    gemm(m, k, n, &DenseA { data: a, k }, &DenseB { data: b, n }, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    fn vals(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt * 977);
                ((x % 1000) as f32) / 1000.0 - 0.5
            })
            .collect()
    }

    /// A requested tile that is unknown or unavailable on this CPU must
    /// fail loudly: otherwise a run "under the avx2 tile" silently
    /// re-tests the detected one.
    #[test]
    fn requested_isa_is_in_effect() {
        if let Ok(req) = std::env::var("FEDKNOW_KERNEL_ISA") {
            assert!(
                isa_name().starts_with(&req),
                "FEDKNOW_KERNEL_ISA={req:?} requested, {:?} in effect",
                isa_name()
            );
        }
    }

    #[test]
    fn isa_values_are_the_three_tiles_or_empty() {
        assert_eq!(parse_isa(""), Ok(None));
        assert_eq!(parse_isa("scalar"), Ok(Some(Isa::Scalar)));
        assert_eq!(parse_isa("avx2"), Ok(Some(Isa::Avx2)));
        assert!(parse_isa("avx").unwrap_err().contains("avx2, scalar"));
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        let (mr, nr) = tile_params();
        let dims = [1, 2, 3, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1, 2 * nr + 3];
        for &m in &dims {
            for &n in &dims {
                for &k in &[1usize, 2, 7, 31] {
                    let a = vals(m * k, 1);
                    let b = vals(k * n, 2);
                    let want = naive(&a, &b, m, k, n);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_dense(m, k, n, &a, &b, &mut got);
                    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                            "m={m} k={k} n={n} idx={i}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deep_k_crosses_kc_boundary() {
        let (m, n) = (9, 50);
        for &k in &[KC - 1, KC, KC + 1] {
            let a = vals(m * k, 3);
            let b = vals(k * n, 4);
            let want = naive(&a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_dense(m, k, n, &a, &b, &mut got);
            for (&g, &w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "k={k}");
            }
        }
    }

    #[test]
    fn zero_rows_left_out_at_the_full_cuts_keep_the_bits() {
        // B's rows 3 mod 5 are +0.0. The product over the other rows, cut
        // where KC cuts the full k, is the full product bit for bit.
        let (m, k, n) = (9, 2 * KC + 40, 50);
        let a = vals(m * k, 5);
        let mut b = vals(k * n, 6);
        for row in b.chunks_exact_mut(n).skip(3).step_by(5) {
            row.fill(0.0);
        }
        let mut want = vec![0.0f32; m * n];
        gemm_dense(m, k, n, &a, &b, &mut want);
        let kept: Vec<usize> = (0..k).filter(|p| p % 5 != 3).collect();
        let kl = kept.len();
        let al: Vec<f32> = a
            .chunks_exact(k)
            .flat_map(|row| kept.iter().map(|&p| row[p]))
            .collect();
        let bl: Vec<f32> = kept
            .iter()
            .flat_map(|&p| b[p * n..(p + 1) * n].iter().copied())
            .collect();
        let cut = |q: usize| {
            let end = (kept[q] / KC + 1) * KC;
            kept.partition_point(|&p| p < end)
        };
        let mut got = vec![0.0f32; m * n];
        gemm_slabs(
            m,
            kl,
            n,
            &DenseA { data: &al, k: kl },
            &DenseB { data: &bl, n },
            &mut got,
            cut,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn transposed_pack_sources_match_dense() {
        let (m, k, n) = (13, 29, 21);
        let a = vals(m * k, 5);
        let b = vals(k * n, 6);
        // A stored transposed [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        // B stored transposed [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm_dense(m, k, n, &a, &b, &mut want);
        let mut via_at = vec![0.0f32; m * n];
        gemm(
            m,
            k,
            n,
            &DenseATrans { data: &at, m },
            &DenseB { data: &b, n },
            &mut via_at,
        );
        assert_eq!(want, via_at, "transposed-A pack must be bit-identical");
        let mut via_bt = vec![0.0f32; m * n];
        gemm(
            m,
            k,
            n,
            &DenseA { data: &a, k },
            &DenseBTrans { data: &bt, k },
            &mut via_bt,
        );
        assert_eq!(want, via_bt, "transposed-B pack must be bit-identical");
    }

    #[test]
    fn block_strided_rows_are_the_per_block_gemms() {
        // 3 blocks of 7 rows, 5 floats of padding between them: one GEMM
        // over all 21 rows gives each block's rows bit-equal to that
        // block's own GEMM (rows cross strip and block boundaries).
        let (rows, k, n, blocks) = (7, 37, 29, 3);
        let stride = rows * k + 5;
        let data = vals(blocks * stride, 12);
        let b = vals(k * n, 13);
        let mut stacked = vec![0.0f32; blocks * rows * n];
        let a = DenseABlocks {
            data: &data,
            k,
            rows,
            stride,
        };
        gemm(
            blocks * rows,
            k,
            n,
            &a,
            &DenseB { data: &b, n },
            &mut stacked,
        );
        for j in 0..blocks {
            let mut one = vec![0.0f32; rows * n];
            gemm_dense(rows, k, n, &data[j * stride..][..rows * k], &b, &mut one);
            assert_eq!(stacked[j * rows * n..][..rows * n], one[..], "block {j}");
        }
    }

    #[test]
    fn block_strided_columns_are_the_per_block_gemms() {
        // 5 blocks of 7 columns, 3 floats of padding between them: one
        // GEMM over all 35 columns gives each block's columns bit-equal to
        // that block's own GEMM (strips straddle block edges for every
        // tile width), across a KC slab boundary.
        let (m, cols, blocks) = (9, 7, 5);
        for k in [13, KC + 3] {
            let stride = k * cols + 3;
            let a = vals(m * k, 14);
            let data = vals(blocks * stride, 15);
            let n = blocks * cols;
            let mut side_by_side = vec![0.0f32; m * n];
            let b = DenseBBlocks {
                data: &data,
                cols,
                stride,
            };
            gemm(m, k, n, &DenseA { data: &a, k }, &b, &mut side_by_side);
            for j in 0..blocks {
                let mut one = vec![0.0f32; m * cols];
                gemm_dense(m, k, cols, &a, &data[j * stride..][..k * cols], &mut one);
                for i in 0..m {
                    assert_eq!(
                        side_by_side[i * n + j * cols..][..cols],
                        one[i * cols..][..cols],
                        "k {k} block {j} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_width_variants_are_bit_identical_to_full_tiles() {
        // Column prefixes of a wide GEMM must match the narrow GEMM
        // exactly: the narrow edge kernels run the same per-element FMA
        // chain as the full-width kernel.
        let (_, nr) = tile_params();
        let (m, k) = (11, 100);
        let a = vals(m * k, 10);
        let b = vals(k * nr, 11);
        let mut full = vec![0.0f32; m * nr];
        gemm_dense(m, k, nr, &a, &b, &mut full);
        // (`nr` is 16 under the AVX2 and scalar tiles: skip wider prefixes.)
        let widths = [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, nr - 1];
        for n in widths.into_iter().filter(|&n| n <= nr) {
            // B's first n columns, densely packed.
            let bn: Vec<f32> = (0..k)
                .flat_map(|p| b[p * nr..p * nr + n].to_vec())
                .collect();
            let mut narrow = vec![0.0f32; m * n];
            gemm_dense(m, k, n, &a, &bn, &mut narrow);
            for i in 0..m {
                assert_eq!(
                    narrow[i * n..(i + 1) * n],
                    full[i * nr..i * nr + n],
                    "n={n} row={i}: edge kernel diverged from full tile"
                );
            }
        }
    }

    #[test]
    fn degenerate_dims_yield_zeros_or_empty() {
        let mut out = vec![1.0f32; 6];
        gemm_dense(2, 0, 3, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 6], "k=0 must zero the output");
        let mut empty: Vec<f32> = Vec::new();
        gemm_dense(0, 5, 3, &[], &vals(15, 9), &mut empty);
    }
}
