//! Direct 3×3 convolution kernels for narrow layers (AVX-512).
//!
//! A 3×3, stride-1, padding-1 convolution on a square map is, per kernel
//! tap, the input plane shifted by `(ky − 1)·w + (kx − 1)` in the
//! flattened plane, with the lanes whose row or column left the image
//! reading +0.0 (the same-padded identity `fedknow-nn`'s patch pack
//! uses). At the 3–64 channel widths of SixCnn and ResNet18 the GEMM
//! lowering of such a layer spends more time packing panels than
//! multiplying; these kernels skip the packs. In [`forward`] and
//! [`input_grad`] vector lanes run over positions of the flattened plane
//! and every load is a masked load of a shifted plane; in
//! [`weight_grad`] they run over the stacked output rows, and each fan
//! row is a broadcast of the zero-bordered input plane at its tap's
//! shift.
//!
//! ## Bit identity with the GEMM lowering
//!
//! The kernels form exactly the sums the AVX-512 GEMM lowering forms.
//!
//! * [`forward`]: output element `(o, q)` is one FMA chain
//!   `acc = fma(W[o][f], patch[f][q], acc)` over the fan `f = (c, ky,
//!   kx)` in ascending order, started at +0.0 and cut where [`gemm::KC`]
//!   cuts the fan; each slab's chain is added into an output that starts
//!   at +0.0, and the bias is added last. An out-of-image tap is a masked
//!   lane that loads +0.0 and still takes its FMA, as the zero entry of
//!   the column matrix does.
//! * [`input_grad`]: the column gradient of row `(c, tap)` at output `q`
//!   is one FMA chain `fma(W[o][c, tap], gy[o][q], acc)` over the output
//!   channels in ascending order (one slab: `oc ≤ KC`), added to +0.0;
//!   `col2im` then adds the rows of plane `c` into a zeroed plane in
//!   ascending tap order, skipping the entries whose input position is
//!   outside the image. Here the lanes run over the input positions of
//!   plane `c` and, tap by tap, build the same chain from the shifted
//!   output-gradient planes and add it into the plane's accumulator. A
//!   skipped entry is a masked lane: its chain is +0.0, and adding +0.0
//!   to an accumulator that starts at +0.0 (and so never holds −0.0)
//!   changes no bit.
//! * [`weight_grad`]: the per-sample weight-gradient GEMM `gy [s·oc, n²]
//!   × colᵀ [n², c·9]` makes element `(r, f)` one FMA chain
//!   `fma(gy[r][q], patch[f][q], acc)` over the positions `q` in
//!   ascending order from +0.0 (one slab: `n² ≤ 256 = KC`), added to
//!   +0.0, and the caller adds it into the slot in ascending sample
//!   order. Here lane `r` runs the same chain, reading `patch[f][q]` from
//!   the input plane with a +0.0 border, so an out-of-image tap is an
//!   FMA with +0.0 as the column matrix's zero entry is, and adds the
//!   chain to +0.0 and then into the accumulator, sample by sample.
//!
//! The kernels run only under the AVX-512 tile ([`available`]): the other
//! tiles' GEMMs are the lowering there. Like the GEMM, they run on the
//! calling thread.

use crate::gemm::{self, APanels, KC};
use crate::pool;

/// Positions per vector: one 16-lane `zmm` register of f32.
const LANES: usize = 16;

/// Whether the direct kernels run: only under the AVX-512 GEMM tile.
pub fn available() -> bool {
    gemm::avx512_selected()
}

/// Whether the kernels cover an `h × w` map: a square 4×4, 8×8 or 16×16
/// plane, a whole number of vectors on which every 3×3 tap is live.
pub fn fits(h: usize, w: usize) -> bool {
    h == w && matches!(h, 4 | 8 | 16)
}

/// The shifts and lane masks of the nine taps on one square plane.
struct Plane {
    hw: usize,
    /// Vectors per plane, `hw / LANES`.
    nvec: usize,
    /// `shift[t]`: how far tap `t = ky·3 + kx` reads from its output
    /// position in the flattened plane.
    shift: [isize; 9],
    /// `masks[t][j]`: the lanes of vector `j` whose tap-`t` read lies in
    /// the image. The input gradient reads tap `t` through `8 − t`, the
    /// flipped tap, whose shift is `−shift[t]`.
    masks: [[u16; 16]; 9],
}

impl Plane {
    /// The plane of side `n`, computed at compile time: a per-call table
    /// cost more than a small layer's whole input gradient.
    const fn new(n: usize) -> Self {
        let (hw, nvec) = (n * n, n * n / LANES);
        let mut shift = [0isize; 9];
        let mut masks = [[0u16; 16]; 9];
        let mut t = 0;
        while t < 9 {
            let (ky, kx) = (t / 3, t % 3);
            shift[t] = (ky as isize - 1) * n as isize + kx as isize - 1;
            let mut q = 0;
            while q < hw {
                let (iy, ix) = ((q / n + ky) as isize - 1, (q % n + kx) as isize - 1);
                if iy >= 0 && iy < n as isize && ix >= 0 && ix < n as isize {
                    masks[t][q / LANES] |= 1 << (q % LANES);
                }
                q += 1;
            }
            t += 1;
        }
        Self {
            hw,
            nvec,
            shift,
            masks,
        }
    }

    /// The plane of a side that [`fits`].
    fn of(n: usize) -> &'static Plane {
        const PLANES: [Plane; 3] = [Plane::new(4), Plane::new(8), Plane::new(16)];
        match n {
            4 => &PLANES[0],
            8 => &PLANES[1],
            16 => &PLANES[2],
            _ => panic!("direct 3x3 kernels on a {n}x{n} map"),
        }
    }
}

/// Output channels × vectors per forward tile: 16 accumulators, 4 loads.
const FWD_TILE: (usize, usize) = (4, 4);
/// Input channels × vectors per input-gradient tile on planes of at least
/// 4 vectors: 12 chain and 12 plane accumulators.
const BWD_TILE: (usize, usize) = (3, 4);
/// Input channels per input-gradient tile on a one-vector (4×4) plane.
const BWD_ROWS_NARROW: usize = 8;

/// Forward of a batch: `x` `[nb, c, n, n]`, `wt` `[oc, c·9]` and `bias`
/// `[oc]` give `out` `[nb, oc, n, n]`, overwritten. Panics unless the
/// kernels are [`available`], the map [`fits`] and the lengths agree.
pub fn forward(x: &[f32], c: usize, n: usize, wt: &[f32], bias: &[f32], out: &mut [f32]) {
    assert!(available() && fits(n, n), "direct 3x3 forward on {n}x{n}");
    let p = Plane::of(n);
    let (oc, fan) = (bias.len(), c * 9);
    let nb = x.len() / (c * p.hw).max(1);
    assert!(
        c > 0 && x.len() == nb * c * p.hw && wt.len() == oc * fan && out.len() == nb * oc * p.hw,
        "direct 3x3 forward: shape mismatch"
    );
    let (tr, tv) = FWD_TILE;
    let vectors = nb * p.nvec;
    for o0 in (0..oc).step_by(tr) {
        let r = tr.min(oc - o0);
        for u0 in (0..vectors).step_by(tv) {
            let v = tv.min(vectors - u0);
            let args = FwdArgs {
                p,
                x,
                c,
                wt,
                bias,
                o0,
                u0,
            };
            // SAFETY: `available()` holds, so this CPU runs AVX-512F; the
            // tile's channels `o0..o0 + r` and vectors `u0..u0 + v` lie
            // inside `wt`, `bias`, `x` and `out` by the checks above.
            unsafe {
                match (r, v) {
                    (4, 4) => fwd_tile::<4, 4>(&args, out),
                    (4, 3) => fwd_tile::<4, 3>(&args, out),
                    (4, 2) => fwd_tile::<4, 2>(&args, out),
                    (4, 1) => fwd_tile::<4, 1>(&args, out),
                    (3, 4) => fwd_tile::<3, 4>(&args, out),
                    (3, 3) => fwd_tile::<3, 3>(&args, out),
                    (3, 2) => fwd_tile::<3, 2>(&args, out),
                    (3, 1) => fwd_tile::<3, 1>(&args, out),
                    (2, 4) => fwd_tile::<2, 4>(&args, out),
                    (2, 3) => fwd_tile::<2, 3>(&args, out),
                    (2, 2) => fwd_tile::<2, 2>(&args, out),
                    (2, 1) => fwd_tile::<2, 1>(&args, out),
                    (1, 4) => fwd_tile::<1, 4>(&args, out),
                    (1, 3) => fwd_tile::<1, 3>(&args, out),
                    (1, 2) => fwd_tile::<1, 2>(&args, out),
                    _ => fwd_tile::<1, 1>(&args, out),
                }
            }
        }
    }
}

/// What one forward tile reads: output channels from `o0`, vectors from
/// `u0` of the batch's `nb · nvec` (vector `u` is vector `u % nvec` of
/// sample `u / nvec`).
struct FwdArgs<'a> {
    p: &'a Plane,
    x: &'a [f32],
    c: usize,
    wt: &'a [f32],
    bias: &'a [f32],
    o0: usize,
    u0: usize,
}

/// `R` output channels × `V` vectors of the forward.
///
/// # Safety
/// Requires AVX-512F. Channels `o0..o0 + R` must be rows of `wt` and
/// entries of `bias`, vectors `u0..u0 + V` must lie in the batch, and
/// `x` and `out` must hold the whole batch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)] // `t` indexes every vector's masks
unsafe fn fwd_tile<const R: usize, const V: usize>(a: &FwdArgs, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (p, c) = (a.p, a.c);
    let (hw, fan) = (p.hw, c * 9);
    let sample_out = a.bias.len() * hw;
    let mut xs = [a.x.as_ptr(); V];
    let mut os = [0usize; V];
    let mut mk = [[0u16; 9]; V];
    for v in 0..V {
        let (i, j) = ((a.u0 + v) / p.nvec, (a.u0 + v) % p.nvec);
        xs[v] = a.x[i * c * hw + j * LANES..].as_ptr();
        os[v] = i * sample_out + a.o0 * hw + j * LANES;
        for (t, m) in mk[v].iter_mut().enumerate() {
            *m = p.masks[t][j];
        }
    }
    let w = a.wt[a.o0 * fan..].as_ptr();
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    let mut first = true;
    let (mut f, mut cut) = (0, KC.min(fan));
    for ci in 0..c {
        let plane = (ci * hw) as isize;
        for t in 0..9 {
            let off = plane + p.shift[t];
            let mut xv = [_mm512_setzero_ps(); V];
            for v in 0..V {
                // The lanes in `mk[v][t]` read inside sample plane `ci`;
                // the others are not read (and load +0.0), so the start
                // may lie before or past the slice: wrapping arithmetic.
                xv[v] = _mm512_maskz_loadu_ps(mk[v][t], xs[v].wrapping_offset(off));
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // In bounds: row `o0 + r < oc` of `wt`, column `f < fan`.
                let wv = _mm512_set1_ps(*w.add(r * fan + f));
                for v in 0..V {
                    acc_r[v] = _mm512_fmadd_ps(wv, xv[v], acc_r[v]);
                }
            }
            f += 1;
            if f == cut {
                // One slab's chains, added into the output as one term.
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    for v in 0..V {
                        let d = out[os[v] + r * hw..][..LANES].as_mut_ptr();
                        let prev = if first {
                            _mm512_setzero_ps()
                        } else {
                            _mm512_loadu_ps(d)
                        };
                        _mm512_storeu_ps(d, _mm512_add_ps(prev, acc_r[v]));
                        acc_r[v] = _mm512_setzero_ps();
                    }
                }
                first = false;
                cut = (cut + KC).min(fan);
            }
        }
    }
    for r in 0..R {
        let bv = _mm512_set1_ps(a.bias[a.o0 + r]);
        for &o in &os {
            let d = out[o + r * hw..][..LANES].as_mut_ptr();
            _mm512_storeu_ps(d, _mm512_add_ps(_mm512_loadu_ps(d), bv));
        }
    }
}

/// Input gradient of one unit: `gy` `[oc, n, n]` and `wt` `[oc, c·9]`
/// give `gx` `[c, n, n]`, overwritten. Panics unless the kernels are
/// [`available`], the map [`fits`], `oc ≤ KC` (one slab) and the lengths
/// agree.
pub fn input_grad(gy: &[f32], n: usize, wt: &[f32], gx: &mut [f32]) {
    assert!(
        available() && fits(n, n),
        "direct 3x3 input gradient on {n}x{n}"
    );
    let p = Plane::of(n);
    let (c, oc) = (gx.len() / p.hw, gy.len() / p.hw);
    assert!(
        c * p.hw == gx.len() && oc * p.hw == gy.len() && wt.len() == oc * c * 9,
        "direct 3x3 input gradient: shape mismatch"
    );
    assert!(oc <= KC, "direct 3x3 input gradient: {oc} output channels");
    let args = BwdArgs {
        p,
        gy,
        oc,
        fan: c * 9,
        wt,
    };
    if p.nvec >= BWD_TILE.1 {
        let (tr, tv) = BWD_TILE;
        for c0 in (0..c).step_by(tr) {
            for j0 in (0..p.nvec).step_by(tv) {
                // SAFETY: `available()` holds; channels `c0..c0 + r` are
                // planes of `gx` and columns of `wt`, and `nvec` is a
                // multiple of 4, so vectors `j0..j0 + 4` are in the plane.
                unsafe {
                    match tr.min(c - c0) {
                        3 => bwd_tile::<3, 4>(&args, gx, c0, j0),
                        2 => bwd_tile::<2, 4>(&args, gx, c0, j0),
                        _ => bwd_tile::<1, 4>(&args, gx, c0, j0),
                    }
                }
            }
        }
        return;
    }
    for c0 in (0..c).step_by(BWD_ROWS_NARROW) {
        // SAFETY: as above, with one vector per plane.
        unsafe {
            match BWD_ROWS_NARROW.min(c - c0) {
                8 => bwd_tile::<8, 1>(&args, gx, c0, 0),
                7 => bwd_tile::<7, 1>(&args, gx, c0, 0),
                6 => bwd_tile::<6, 1>(&args, gx, c0, 0),
                5 => bwd_tile::<5, 1>(&args, gx, c0, 0),
                4 => bwd_tile::<4, 1>(&args, gx, c0, 0),
                3 => bwd_tile::<3, 1>(&args, gx, c0, 0),
                2 => bwd_tile::<2, 1>(&args, gx, c0, 0),
                _ => bwd_tile::<1, 1>(&args, gx, c0, 0),
            }
        }
    }
}

/// What every input-gradient tile of one unit reads.
struct BwdArgs<'a> {
    p: &'a Plane,
    gy: &'a [f32],
    oc: usize,
    /// Columns of `wt`, `c·9`.
    fan: usize,
    wt: &'a [f32],
}

/// `R` input planes from `c0` × `V` vectors from `j0` of one unit's input
/// gradient.
///
/// # Safety
/// Requires AVX-512F. Planes `c0..c0 + R` must be in `gx` (and their
/// columns in `wt`), vectors `j0..j0 + V` in the plane, and `gy` must
/// hold `oc` planes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bwd_tile<const R: usize, const V: usize>(
    a: &BwdArgs,
    gx: &mut [f32],
    c0: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;
    let (p, hw) = (a.p, a.p.hw);
    let fan = a.fan;
    let mut g = [[_mm512_setzero_ps(); V]; R];
    for t in 0..9 {
        // Input position `q` takes tap `t`'s column entry at output
        // position `q − shift[t]`: the flipped tap's read.
        let off = p.shift[8 - t];
        let mut mk = [0u16; V];
        for (v, m) in mk.iter_mut().enumerate() {
            *m = p.masks[8 - t][j0 + v];
        }
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        let w = a.wt[c0 * 9 + t..].as_ptr();
        for o in 0..a.oc {
            let y = a.gy[o * hw + j0 * LANES..].as_ptr();
            let mut yv = [_mm512_setzero_ps(); V];
            for v in 0..V {
                // Masked lanes are not read; the start may lie outside
                // the slice: wrapping arithmetic.
                yv[v] = _mm512_maskz_loadu_ps(mk[v], y.wrapping_offset(off + (v * LANES) as isize));
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // In bounds: row `o < oc` of `wt`, column
                // `(c0 + r)·9 + t < fan`.
                let wv = _mm512_set1_ps(*w.add(o * fan + r * 9));
                for v in 0..V {
                    acc_r[v] = _mm512_fmadd_ps(wv, yv[v], acc_r[v]);
                }
            }
        }
        for (g_r, acc_r) in g.iter_mut().zip(&acc) {
            for v in 0..V {
                // The column entry is the chain added to +0.0.
                let col = _mm512_add_ps(_mm512_setzero_ps(), acc_r[v]);
                g_r[v] = _mm512_add_ps(g_r[v], col);
            }
        }
    }
    for (r, g_r) in g.iter().enumerate() {
        for (v, &gv) in g_r.iter().enumerate() {
            let d = gx[(c0 + r) * hw + (j0 + v) * LANES..][..LANES].as_mut_ptr();
            _mm512_storeu_ps(d, gv);
        }
    }
}

/// The row stride of [`weight_grad`]'s accumulator for `m` stacked
/// output rows: `m` rounded up to whole vectors, and one vector more when
/// that is a multiple of 128 floats. At a multiple of 512 B, rows a few
/// apart lie a multiple of 4 KB apart, and a tile's read of one row
/// waits on its write of another to the same page offset (4K aliasing):
/// at `s·oc = 256` on 4×4 maps that made the kernel slower than the GEMM.
pub fn weight_grad_stride(m: usize) -> usize {
    let rs = m.next_multiple_of(LANES);
    if rs.is_multiple_of(128) {
        rs + LANES
    } else {
        rs
    }
}

/// Add one sample's weight gradient into `gwt`, the transposed weight
/// gradients of `m` stacked output rows: `gwt[f·rs + r] += Σ_q gy[r][q] ·
/// patch[f][q]` for fan row `f = (c, ky, kx)` and `rs =`
/// [`weight_grad_stride`]`(m)`; a lane from `m` to `rs` holds no row: it
/// takes +0.0 terms or is not touched. `x` is the sample's input
/// `[c, n, n]`; `gy` gives the rows `[m, n·n]` (row `r` is output channel
/// `r % rows` of block `r / rows`, the slot-major stack of a backward).
/// Panics unless the kernels are [`available`], the map [`fits`] and the
/// lengths agree.
pub fn weight_grad(x: &[f32], n: usize, gy: &gemm::DenseABlocks, m: usize, gwt: &mut [f32]) {
    assert!(
        available() && fits(n, n),
        "direct 3x3 weight gradient on {n}x{n}"
    );
    let (hw, np) = (n * n, n + 2);
    let (c, rs) = (x.len() / hw, weight_grad_stride(m));
    assert!(
        c > 0 && c * hw == x.len() && gy.k == hw && gwt.len() == c * 9 * rs,
        "direct 3x3 weight gradient: shape mismatch"
    );
    // The input planes with a border of +0.0: tap `(ky, kx)` of output
    // position `(y, x)` is `xp[(y + ky)·np + x + kx]`, an out-of-image
    // tap an FMA with +0.0 as in the column matrix.
    let mut xp = pool::take_zeroed(c * np * np);
    for (src, dst) in x.chunks_exact(hw).zip(xp.chunks_exact_mut(np * np)) {
        for (s, d) in src.chunks_exact(n).zip(dst[np + 1..].chunks_mut(np)) {
            d[..n].copy_from_slice(s);
        }
    }
    // `gy` transposed into 16-row strips, `gyt[(v·hw + q)·16 + l] =
    // gy[16v + l][q]`, rows past `m` +0.0: the GEMM's own A pack.
    let nv = m.div_ceil(LANES);
    let mut gyt = pool::take(nv * LANES * hw);
    gy.pack(&mut gyt, 0, m, 0, hw, LANES);
    let args = WgArgs {
        n,
        xp: &xp,
        gyt: &gyt,
        rs,
    };
    // Lanes over rows, one broadcast of the padded plane per fan row:
    // all nine taps of a channel per tile, two channels on a one-vector
    // tile and up to three vectors on one channel otherwise, so that at
    // least 18 chains are in flight.
    for v0 in (0..nv).step_by(WG_VECTORS) {
        let v = WG_VECTORS.min(nv - v0);
        let step = if v == 1 { 2 } else { 1 };
        for c0 in (0..c).step_by(step) {
            // SAFETY: `available()` holds; channels `c0..c0 + step`
            // (clipped to `c`) are planes of `xp` and row blocks of
            // `gwt`, vectors `v0..v0 + v` lie in `gyt`'s strips and in
            // `gwt`'s rows, by the checks above.
            unsafe {
                match (v, step.min(c - c0)) {
                    (1, 2) => wg_tile::<2, 1>(&args, gwt, c0, v0),
                    (1, _) => wg_tile::<1, 1>(&args, gwt, c0, v0),
                    (2, _) => wg_tile::<1, 2>(&args, gwt, c0, v0),
                    _ => wg_tile::<1, 3>(&args, gwt, c0, v0),
                }
            }
        }
    }
    pool::give(gyt);
    pool::give(xp);
}

/// `dst[c·ld_dst + r] = src[r·ld_src + c]` for `r < rows`, `c < cols`:
/// the gather and the write-back of [`weight_grad`]'s transposed
/// accumulator. Whole 16 × 16 tiles are transposed in registers, the
/// edges element by element; a tiled scalar walk took 5–6× as long, a
/// fifth of a 32→32 4×4 layer's 4-slot backward. Panics unless the
/// kernels are [`available`] and the slices hold the matrices.
pub fn transpose(
    src: &[f32],
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ld_dst: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(available(), "direct transpose without AVX-512");
    assert!(
        cols <= ld_src
            && rows <= ld_dst
            && src.len() >= (rows - 1) * ld_src + cols
            && dst.len() >= (cols - 1) * ld_dst + rows,
        "direct transpose: shape mismatch"
    );
    const T: usize = LANES;
    for r0 in (0..rows).step_by(T) {
        for c0 in (0..cols).step_by(T) {
            if r0 + T <= rows && c0 + T <= cols {
                // SAFETY: `available()` holds; rows `r0..r0 + 16` of
                // `src` and `c0..c0 + 16` of `dst` lie in the matrices
                // the assert above bounds, 16 floats from column `c0`
                // and row `r0`.
                unsafe {
                    transpose_tile(
                        src[r0 * ld_src + c0..].as_ptr(),
                        ld_src,
                        dst[c0 * ld_dst + r0..].as_mut_ptr(),
                        ld_dst,
                    )
                };
                continue;
            }
            for r in r0..(r0 + T).min(rows) {
                for c in c0..(c0 + T).min(cols) {
                    dst[c * ld_dst + r] = src[r * ld_src + c];
                }
            }
        }
    }
}

/// A 16 × 16 transpose in registers,
/// `dst[c·ld_dst + r] = src[r·ld_src + c]`: rows are interleaved in
/// pairs by element, then by element pair, and then the 128-bit blocks
/// of four rows are exchanged twice.
///
/// # Safety
/// Requires AVX-512F; `src` must hold 16 rows of 16 floats at stride
/// `ld_src` and `dst` 16 rows of 16 at stride `ld_dst`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_tile(src: *const f32, ld_src: usize, dst: *mut f32, ld_dst: usize) {
    use std::arch::x86_64::*;
    let r: [__m512; 16] = std::array::from_fn(|i| _mm512_loadu_ps(src.add(i * ld_src)));
    // t[2k], t[2k + 1]: rows 2k and 2k + 1 interleaved, lanes
    // {0, 1} and {2, 3} of each 128-bit block.
    let t: [__m512; 16] = std::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_ps(a, b)
        } else {
            _mm512_unpackhi_ps(a, b)
        }
    });
    // u[4g + k]: rows 4g..4g + 4 of columns k, k + 4, k + 8, k + 12,
    // one per 128-bit block.
    let u: [__m512; 16] = std::array::from_fn(|i| {
        let (g, k) = (i / 4 * 4, i % 4);
        let a = _mm512_castps_pd(t[g + k / 2]);
        let b = _mm512_castps_pd(t[g + 2 + k / 2]);
        _mm512_castpd_ps(if k % 2 == 0 {
            _mm512_unpacklo_pd(a, b)
        } else {
            _mm512_unpackhi_pd(a, b)
        })
    });
    for k in 0..4 {
        // Blocks 0 and 2 (0x88) or 1 and 3 (0xdd) of two groups' u.
        let v = _mm512_shuffle_f32x4::<0x88>(u[k], u[4 + k]);
        let w = _mm512_shuffle_f32x4::<0xdd>(u[k], u[4 + k]);
        let v2 = _mm512_shuffle_f32x4::<0x88>(u[8 + k], u[12 + k]);
        let w2 = _mm512_shuffle_f32x4::<0xdd>(u[8 + k], u[12 + k]);
        let out = [
            (k, _mm512_shuffle_f32x4::<0x88>(v, v2)),
            (k + 4, _mm512_shuffle_f32x4::<0x88>(w, w2)),
            (k + 8, _mm512_shuffle_f32x4::<0xdd>(v, v2)),
            (k + 12, _mm512_shuffle_f32x4::<0xdd>(w, w2)),
        ];
        for (c, row) in out {
            _mm512_storeu_ps(dst.add(c * ld_dst), row);
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn transpose_tile(_: *const f32, _: usize, _: *mut f32, _: usize) {
    unreachable!("the direct kernels need the AVX-512 tile")
}

/// Row vectors per weight-gradient tile: 27 chains on one channel.
const WG_VECTORS: usize = 3;

/// What every weight-gradient tile of one sample reads.
struct WgArgs<'a> {
    n: usize,
    /// The zero-bordered input planes, `[c, (n + 2)²]`.
    xp: &'a [f32],
    /// The output-gradient rows transposed into 16-lane strips.
    gyt: &'a [f32],
    /// Row stride of `gwt`, a whole number of vectors.
    rs: usize,
}

/// `C` channels' nine fan rows × `V` row vectors from `v0` of one
/// sample's weight gradient: each element one FMA chain over the
/// positions in ascending order from +0.0, added to +0.0 and then into
/// `gwt`.
///
/// # Safety
/// Requires AVX-512F. Channels `c0..c0 + C` must be planes of `xp` and
/// row blocks of `gwt`, and vectors `v0..v0 + V` strips of `gyt` and
/// vectors of a `gwt` row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn wg_tile<const C: usize, const V: usize>(
    a: &WgArgs,
    gwt: &mut [f32],
    c0: usize,
    v0: usize,
) {
    use std::arch::x86_64::*;
    let (n, np) = (a.n, a.n + 2);
    let (hw, pp) = (n * n, np * np);
    let mut acc = [[[_mm512_setzero_ps(); V]; 9]; C];
    let g = a.gyt[v0 * hw * LANES..].as_ptr();
    let xp = a.xp[c0 * pp..].as_ptr();
    for y in 0..n {
        for x in 0..n {
            let q = y * n + x;
            let mut gv = [_mm512_setzero_ps(); V];
            for (v, gv) in gv.iter_mut().enumerate() {
                // In bounds: strip `v0 + v` holds `hw` positions.
                *gv = _mm512_loadu_ps(g.add((v * hw + q) * LANES));
            }
            let xq = xp.add(y * np + x);
            for (ch, acc_c) in acc.iter_mut().enumerate() {
                for (t, acc_t) in acc_c.iter_mut().enumerate() {
                    // In bounds: `(y + ky)·np + x + kx < np²` in plane
                    // `c0 + ch`.
                    let xv = _mm512_set1_ps(*xq.add(ch * pp + t / 3 * np + t % 3));
                    for (acc_v, &gv) in acc_t.iter_mut().zip(&gv) {
                        *acc_v = _mm512_fmadd_ps(gv, xv, *acc_v);
                    }
                }
            }
        }
    }
    for (ch, acc_c) in acc.iter().enumerate() {
        for (t, acc_t) in acc_c.iter().enumerate() {
            let row = ((c0 + ch) * 9 + t) * a.rs + v0 * LANES;
            for (v, &acc_v) in acc_t.iter().enumerate() {
                let d = gwt[row + v * LANES..][..LANES].as_mut_ptr();
                // The GEMM's entry is the chain added to +0.0.
                let e = _mm512_add_ps(_mm512_setzero_ps(), acc_v);
                _mm512_storeu_ps(d, _mm512_add_ps(_mm512_loadu_ps(d), e));
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn wg_tile<const C: usize, const V: usize>(_: &WgArgs, _: &mut [f32], _: usize, _: usize) {
    unreachable!("the direct kernels need the AVX-512 tile")
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn fwd_tile<const R: usize, const V: usize>(_: &FwdArgs, _: &mut [f32]) {
    unreachable!("the direct kernels need the AVX-512 tile")
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn bwd_tile<const R: usize, const V: usize>(_: &BwdArgs, _: &mut [f32], _: usize, _: usize) {
    unreachable!("the direct kernels need the AVX-512 tile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_the_element_walk() {
        if !available() {
            return;
        }
        // (rows, cols, ld_src, ld_dst): whole tiles, ragged edges on
        // either side, padded strides, and the accumulator of a 64→64
        // layer at 4 slots (row stride 272).
        for (rows, cols, ld_src, ld_dst) in [
            (16, 16, 16, 16),
            (1, 1, 1, 1),
            (37, 50, 53, 41),
            (5, 70, 70, 9),
            (64, 576, 576, 272),
            (576, 64, 272, 576),
        ] {
            let src: Vec<f32> = (0..(rows - 1) * ld_src + cols)
                .map(|i| i as f32 * 0.5 - 7.0)
                .collect();
            let len = (cols - 1) * ld_dst + rows;
            let mut got = vec![f32::NAN; len];
            let mut want = got.clone();
            transpose(&src, ld_src, rows, cols, &mut got, ld_dst);
            for r in 0..rows {
                for c in 0..cols {
                    want[c * ld_dst + r] = src[r * ld_src + c];
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
        }
    }
}
