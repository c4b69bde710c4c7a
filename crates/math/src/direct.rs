//! Direct 3×3 convolution kernels for narrow layers (AVX-512).
//!
//! A 3×3, stride-1, padding-1 convolution on a square map is, per kernel
//! tap, the input plane shifted by `(ky − 1)·w + (kx − 1)` in the
//! flattened plane, with the lanes whose row or column left the image
//! reading +0.0 (the same-padded identity `fedknow-nn`'s patch pack
//! uses). At the 3–64 channel widths of SixCnn and ResNet18 the GEMM
//! lowering of such a layer spends more time packing panels than
//! multiplying; these kernels skip the packs: vector lanes run over
//! positions of the flattened plane and every load is a masked load of a
//! shifted plane.
//!
//! ## Bit identity with the GEMM lowering
//!
//! Both kernels form exactly the sums the AVX-512 GEMM lowering forms.
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
//!
//! The kernels run only under the AVX-512 tile ([`available`]): the other
//! tiles' GEMMs are the lowering there. Like the GEMM, they run on the
//! calling thread.

use crate::gemm::{self, KC};

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

#[cfg(not(target_arch = "x86_64"))]
unsafe fn fwd_tile<const R: usize, const V: usize>(_: &FwdArgs, _: &mut [f32]) {
    unreachable!("the direct kernels need the AVX-512 tile")
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn bwd_tile<const R: usize, const V: usize>(_: &BwdArgs, _: &mut [f32], _: usize, _: usize) {
    unreachable!("the direct kernels need the AVX-512 tile")
}
