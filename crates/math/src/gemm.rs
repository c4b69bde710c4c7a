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
//! avx512|avx2|scalar` for differential testing):
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
//! The four dense sources fall in two classes. [`DenseATrans`] and
//! [`DenseB`] are stored along the packing direction: a packed row is a
//! straight copy. [`DenseA`] and [`DenseBTrans`] are stored across it (k
//! contiguous), so packing them is a transpose; they share one blocked
//! walk, `pack_transposed`, that moves 16-deep blocks of 8 source rows at
//! a time instead of one strided scalar store per element.
//!
//! ## Determinism
//!
//! For a fixed ISA, every output element `out[i][j]` is the sum of
//! `a[i][p]·b[p][j]` accumulated in strictly ascending `p` order (KC
//! slabs in order, FMA chain within a slab), regardless of which row
//! strip, column panel, or thread computed it. Row-partitioned
//! parallelism therefore produces **bit-identical** results to the serial
//! path for every thread count — each output element is written by
//! exactly one thread executing exactly the serial instruction sequence.
//! `crates/nn/tests/determinism.rs` pins this for {1, 2, 4, 8} threads.

use crate::{parallel, pool};

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
pub trait APanels: Sync {
    /// Pack one `mc × kc` block into `mr`-row strips (see trait docs).
    fn pack(&self, dst: &mut [f32], i0: usize, mc: usize, k0: usize, kc: usize, mr: usize);
}

/// Pack source for the right operand (logical `[k, n]`).
///
/// `pack` must fill `dst` with rows `[k0, k0+kc)` × cols `[j0, j0+nc)`
/// laid out as `NR`-column strips, k-major within a strip:
/// `dst[s·(kc·nr) + p·nr + j] = B[k0 + p][j0 + s·nr + j]`,
/// with columns past the panel's end zero-filled.
pub trait BPanels: Sync {
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
        pack_transposed(&self.data[i0 * self.k + k0..], self.k, mc, kc, dst, mr);
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
        pack_transposed(&self.data[j0 * self.k + k0..], self.k, nc, kc, dst, nr);
    }
}

/// Depth of the blocks the transposing packs walk: 16 floats, one cache
/// line of a source row.
const TB: usize = 16;

/// The pack of a source stored across the packing direction, shared by
/// [`DenseA`] and [`DenseBTrans`]: source row `x` (starting at
/// `src[x·stride]`, running along k) becomes column `x % r` of strip
/// `x / r`,
///
/// `dst[(x / r)·kc·r + p·r + x % r] = src[x·stride + p]`, `x < xc`, `p < kc`,
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
fn pack_transposed(src: &[f32], stride: usize, xc: usize, kc: usize, dst: &mut [f32], r: usize) {
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
        for p0 in (0..kb).step_by(TB) {
            let mut tile = [[0.0f32; 8]; TB];
            for j in 0..8 {
                let seg = &src[(x + j) * stride + p0..][..TB];
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
        let row = &src[x * stride..][..kc];
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
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        let req = std::env::var("FEDKNOW_KERNEL_ISA").unwrap_or_default();
        let avx512 = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        match req.as_str() {
            "scalar" => return Isa::Scalar,
            "avx2" if avx2 => return Isa::Avx2,
            "avx512" if avx512 => return Isa::Avx512,
            _ => {}
        }
        if avx512 {
            return Isa::Avx512;
        }
        if avx2 {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
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
/// depends only on the strip, never on the thread partition.
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

fn buf_lens(mr: usize, nr: usize) -> (usize, usize) {
    (MC.div_ceil(mr) * mr * KC, NC.div_ceil(nr) * nr * KC)
}

/// Serial blocked GEMM over rows `[row0, row0+rows)`, writing into
/// `out_rows` (that row range's slice, row stride `n`). `out_rows` must
/// already be zeroed.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    which: Isa,
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: &dyn APanels,
    b: &dyn BPanels,
    out_rows: &mut [f32],
) {
    let (mr, nr) = which.tile();
    let (pa_len, pb_len) = buf_lens(mr, nr);
    let mut pa = pool::take(pa_len);
    let mut pb = pool::take(pb_len);
    let mut tile = pool::take(mr * nr);

    let mut kk = 0;
    while kk < k {
        let kc = KC.min(k - kk);
        let mut jj = 0;
        while jj < n {
            let nc = NC.min(n - jj);
            b.pack(&mut pb, kk, kc, jj, nc, nr);
            let nstrips = nc.div_ceil(nr);
            let mut ii = 0;
            while ii < rows {
                let mc = MC.min(rows - ii);
                a.pack(&mut pa, row0 + ii, mc, kk, kc, mr);
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
                            let c = &mut out_rows[i0 * n + j0..];
                            microkernel(which, pas, pbs, c, n, kc);
                        } else {
                            // Edge tile: narrowest covering microkernel
                            // into a scratch tile, then add back the valid
                            // region — no slow path, no divergent
                            // accumulation order.
                            tile.fill(0.0);
                            microkernel_edge(which, pas, pbs, &mut tile, nr, kc, w);
                            for r in 0..hm {
                                let dst = &mut out_rows[(i0 + r) * n + j0..(i0 + r) * n + j0 + w];
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
/// tiles. `out` is overwritten. Parallelizes over output-row chunks when
/// [`parallel::threads`] > 1; results are bit-identical for every thread
/// count (see module docs).
pub fn gemm(m: usize, k: usize, n: usize, a: &dyn APanels, b: &dyn BPanels, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let which = isa();
    let (mr, _) = which.tile();
    let t = parallel::threads();
    // Serial fast path before building the chunk list: the steady-state
    // training loop must not allocate (alloc_steady_state pins this).
    if t <= 1 || m <= mr {
        gemm_rows(which, 0, m, k, n, a, b, out);
        return;
    }
    let chunks = parallel::chunks(m, mr, t);
    if chunks.len() <= 1 {
        gemm_rows(which, 0, m, k, n, a, b, out);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = out;
        for &(row0, rows) in &chunks {
            let (mine, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            s.spawn(move || gemm_rows(which, row0, rows, k, n, a, b, mine));
        }
    });
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
    fn parallel_is_bit_identical_to_serial() {
        let (m, k, n) = (67, 123, 95);
        let a = vals(m * k, 7);
        let b = vals(k * n, 8);
        let mut serial = vec![0.0f32; m * n];
        parallel::with_threads(1, || gemm_dense(m, k, n, &a, &b, &mut serial));
        for t in [2, 4, 8] {
            let mut par = vec![0.0f32; m * n];
            parallel::with_threads(t, || gemm_dense(m, k, n, &a, &b, &mut par));
            assert_eq!(serial, par, "threads={t}");
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
