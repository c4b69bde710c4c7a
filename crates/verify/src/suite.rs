//! Per-kernel differential suites.
//!
//! Kernels that live in `fedknow-math` (matmul, Wasserstein, the dual
//! QP, the top-ρ cut) are driven end-to-end here. Kernels owned by
//! higher crates (`Conv2d` in `fedknow-nn`, `fedavg` in `fedknow-fl`)
//! would create a dependency cycle, so their suites take the production
//! kernel as a closure — `tests/differential.rs`, the suites' one
//! runner, supplies the real one, the mutation tests supply broken
//! ones.

use crate::check;
use crate::fuzz::{self, FuzzReport, Tol};
use crate::oracle::{self, ConvSpec};
use fedknow_math::qp::{integrate_gradient, recover, QpConfig};
use fedknow_math::rng::normal_vec;
use fedknow_math::{distance, rng, SparseVec, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Default case count per kernel — the acceptance bar for the
/// differential suite.
pub const DEFAULT_CASES: usize = 200;

/// Default base seed for the suites.
pub const DEFAULT_SEED: u64 = 0xFED_5EED;

// ---------------------------------------------------------------- matmul

/// Which production GEMM entry point a matmul case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKind {
    /// `a.matmul(&b)`: `[m,k] × [k,n]`.
    Plain,
    /// `a.matmul_tn(&b)`: `aᵀ·b` with `a: [k,m]`, `b: [k,n]`.
    TransposedLhs,
    /// `a.matmul_nt(&b)`: `a·bᵀ` with `a: [m,k]`, `b: [n,k]`.
    TransposedRhs,
}

/// One randomized GEMM problem.
#[derive(Debug, Clone)]
pub struct MatmulCase {
    /// Entry point under test.
    pub kind: MatmulKind,
    /// Output rows.
    pub m: usize,
    /// Contraction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Left operand in logical `[m,k]` layout (the production runner
    /// re-lays it out for the transposed entry points).
    pub a: Vec<f32>,
    /// Right operand in logical `[k,n]` layout.
    pub b: Vec<f32>,
}

fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    out
}

/// Draw one GEMM case (all three entry points, small rectangular
/// shapes, standard-normal values).
fn gen_matmul(rng: &mut StdRng) -> MatmulCase {
    let kind = match rng.gen_range(0..3u32) {
        0 => MatmulKind::Plain,
        1 => MatmulKind::TransposedLhs,
        _ => MatmulKind::TransposedRhs,
    };
    let m = rng.gen_range(1..=10);
    let k = rng.gen_range(1..=16);
    let n = rng.gen_range(1..=10);
    let (a_len, b_len) = (m * k, k * n);
    MatmulCase {
        kind,
        m,
        k,
        n,
        a: normal_vec(rng, a_len, 0.0, 1.0),
        b: normal_vec(rng, b_len, 0.0, 1.0),
    }
}

/// Production runner for a GEMM case.
fn matmul_production(c: &MatmulCase) -> Option<Vec<f32>> {
    let out = match c.kind {
        MatmulKind::Plain => Tensor::from_vec(c.a.clone(), &[c.m, c.k])
            .matmul(&Tensor::from_vec(c.b.clone(), &[c.k, c.n])),
        MatmulKind::TransposedLhs => Tensor::from_vec(transpose(&c.a, c.m, c.k), &[c.k, c.m])
            .matmul_tn(&Tensor::from_vec(c.b.clone(), &[c.k, c.n])),
        MatmulKind::TransposedRhs => Tensor::from_vec(c.a.clone(), &[c.m, c.k])
            .matmul_nt(&Tensor::from_vec(transpose(&c.b, c.k, c.n), &[c.n, c.k])),
    };
    Some(out.into_vec())
}

/// Differential suite: production GEMM vs the naive `f64` triple loop.
pub fn matmul(seed: u64, cases: usize) -> FuzzReport {
    matmul_with(seed, cases, matmul_production)
}

/// [`matmul`] with an injectable kernel (mutation testing).
pub fn matmul_with(
    seed: u64,
    cases: usize,
    run: impl Fn(&MatmulCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "matmul",
        seed,
        cases,
        gen_matmul,
        run,
        |c| Some(oracle::matmul(&c.a, &c.b, c.m, c.k, c.n)),
        &Tol::f32_default(),
    )
}

// ---------------------------------------------------------------- conv2d

/// One randomized conv2d problem (forward inputs plus an upstream
/// gradient for the backward pass).
#[derive(Debug, Clone)]
pub struct ConvCase {
    /// Problem shape.
    pub spec: ConvSpec,
    /// Input `[batch, in_c, h, w]`.
    pub input: Vec<f32>,
    /// Weight `[out_c, (in_c/groups)·k·k]`.
    pub weight: Vec<f32>,
    /// Bias `[out_c]`.
    pub bias: Vec<f32>,
    /// Upstream gradient `[batch, out_c, out_h, out_w]`.
    pub gy: Vec<f32>,
}

/// Draw one conv2d case: grouped/strided/padded shapes small enough
/// for the direct-loop oracle.
fn gen_conv(rng: &mut StdRng) -> ConvCase {
    let groups = [1, 1, 1, 2, 3][rng.gen_range(0..5usize)];
    let in_c = groups * rng.gen_range(1..=3usize);
    let out_c = groups * rng.gen_range(1..=3usize);
    let kernel = rng.gen_range(1..=3usize);
    let stride = rng.gen_range(1..=2usize);
    let padding = rng.gen_range(0..=1usize);
    let h = rng.gen_range(kernel..=kernel + 5);
    let w = rng.gen_range(kernel..=kernel + 5);
    let batch = rng.gen_range(1..=3usize);
    let spec = ConvSpec {
        batch,
        in_c,
        out_c,
        kernel,
        stride,
        padding,
        groups,
        h,
        w,
    };
    ConvCase {
        input: normal_vec(rng, spec.input_len(), 0.0, 1.0),
        weight: normal_vec(rng, spec.weight_len(), 0.0, 0.5),
        bias: normal_vec(rng, spec.out_c, 0.0, 0.5),
        gy: normal_vec(rng, spec.output_len(), 0.0, 1.0),
        spec,
    }
}

/// Forward differential suite: the caller supplies the production
/// forward (returning the flat output).
pub fn conv_forward(
    seed: u64,
    cases: usize,
    run: impl Fn(&ConvCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "conv2d.forward",
        seed,
        cases,
        gen_conv,
        run,
        |c| {
            Some(oracle::conv2d_forward(
                &c.spec, &c.input, &c.weight, &c.bias,
            ))
        },
        &Tol::f32_default(),
    )
}

/// Backward differential suite: the production runner returns the
/// concatenation `gx ‖ gw ‖ gb`, compared against the direct-loop
/// oracle's three gradients.
pub fn conv_backward(
    seed: u64,
    cases: usize,
    run: impl Fn(&ConvCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "conv2d.backward",
        seed,
        cases,
        gen_conv,
        run,
        |c| {
            let g = oracle::conv2d_backward(&c.spec, &c.input, &c.weight, &c.gy);
            let mut out = g.gx;
            out.extend(g.gw);
            out.extend(g.gb);
            Some(out)
        },
        &Tol::f32_default(),
    )
}

// ------------------------------------------------- tile-adversarial shapes
//
// The packed GEMM blocks over register tiles (`mr × nr`), KC-deep cache
// slabs and NC-wide column panels; the fused conv packs patch panels in
// the same strips. Every one of those boundaries is an off-by-one
// opportunity that small random shapes (≤ 16) never reach. The
// generators below draw shapes that sit *on* the boundaries: tile edges
// ±1, primes that divide nothing, degenerate 1×N problems, the KC slab
// edge, and conv stride/pad extremes.

/// Dimension candidates that stress the packed-GEMM register tiling for
/// the ISA actually selected at runtime: tile edges ±1, primes, 1.
fn adversarial_dims() -> Vec<usize> {
    let (mr, nr) = fedknow_math::gemm::tile_params();
    let mut v = vec![
        1,
        2,
        3,
        5,
        7,
        13,
        17,
        31,
        37,
        mr - 1,
        mr,
        mr + 1,
        2 * mr + 1,
        nr - 1,
        nr,
        nr + 1,
    ];
    v.retain(|&d| d >= 1);
    v.sort_unstable();
    v.dedup();
    v
}

/// Contraction-length candidates: the register-tile set plus the KC
/// cache-slab boundary ±1 (a k-loop off-by-one drops or double-counts
/// exactly one rank-1 update at `k = KC + 1`).
fn adversarial_ks() -> Vec<usize> {
    let mut v = adversarial_dims();
    v.extend_from_slice(&[
        fedknow_math::gemm::KC - 1,
        fedknow_math::gemm::KC,
        fedknow_math::gemm::KC + 1,
    ]);
    v.sort_unstable();
    v.dedup();
    v
}

/// Draw one tile-adversarial GEMM case: `m`, `n`, `k` from the boundary
/// sets, random entry point, standard-normal values.
fn gen_matmul_tiles(rng: &mut StdRng) -> MatmulCase {
    let kind = match rng.gen_range(0..3u32) {
        0 => MatmulKind::Plain,
        1 => MatmulKind::TransposedLhs,
        _ => MatmulKind::TransposedRhs,
    };
    let dims = adversarial_dims();
    let ks = adversarial_ks();
    let (m, k, n) = loop {
        let m = dims[rng.gen_range(0..dims.len())];
        let k = ks[rng.gen_range(0..ks.len())];
        let n = dims[rng.gen_range(0..dims.len())];
        // Keep the f64 triple-loop oracle affordable.
        if m * k * n <= 1 << 21 {
            break (m, k, n);
        }
    };
    MatmulCase {
        kind,
        m,
        k,
        n,
        a: normal_vec(rng, m * k, 0.0, 1.0),
        b: normal_vec(rng, k * n, 0.0, 1.0),
    }
}

/// Tile-adversarial GEMM suite against the naive `f64` oracle.
pub fn matmul_tiles(seed: u64, cases: usize) -> FuzzReport {
    matmul_tiles_with(seed, cases, matmul_production)
}

/// [`matmul_tiles`] with an injectable kernel (mutation testing).
pub fn matmul_tiles_with(
    seed: u64,
    cases: usize,
    run: impl Fn(&MatmulCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "matmul.tiles",
        seed,
        cases,
        gen_matmul_tiles,
        run,
        |c| Some(oracle::matmul(&c.a, &c.b, c.m, c.k, c.n)),
        &Tol::f32_default(),
    )
}

/// Draw one tile-adversarial conv2d case: stride/pad extremes (stride
/// above the kernel, padding up to the kernel), 1×N and non-square
/// inputs, depthwise groups, and widths that put `out_h · out_w` — the
/// fused kernel's packed GEMM column count — exactly on the `nr`
/// register-tile boundary.
fn gen_conv_tiles(rng: &mut StdRng) -> ConvCase {
    let (mr, nr) = fedknow_math::gemm::tile_params();
    let spec = loop {
        let kernel = [1usize, 2, 3, 5][rng.gen_range(0..4usize)];
        let stride = rng.gen_range(1..=4usize);
        let padding = rng.gen_range(0..=kernel);
        // Groups: dense, small-grouped, or depthwise.
        let (groups, in_cg) = match rng.gen_range(0..4u32) {
            0 => (rng.gen_range(2..=3usize), rng.gen_range(1..=2usize)),
            1 => (rng.gen_range(2..=4usize), 1), // depthwise-ish
            _ => (1, rng.gen_range(1..=3usize)),
        };
        let in_c = groups * in_cg;
        // Output channels on the mr row-tile boundary (capped).
        let out_cg = [1, 2, mr - 1, mr, mr + 1][rng.gen_range(0..5usize)].min(9);
        let out_c = groups * out_cg;
        // Heights: degenerate 1, kernel-sized, small.
        let h_opts = [1usize, 2, kernel, kernel + 1, 2 * kernel + 3];
        let h = h_opts[rng.gen_range(0..h_opts.len())];
        // Widths: small, or tuned so out_w lands on nr − 1 / nr / nr + 1.
        let w = if rng.gen_range(0..2u32) == 0 {
            let ow_target = [nr - 1, nr, nr + 1][rng.gen_range(0..3usize)];
            ((ow_target - 1) * stride + kernel).saturating_sub(2 * padding)
        } else {
            [1usize, 2, kernel, kernel + 2, 7][rng.gen_range(0..5usize)]
        };
        if w == 0 || h + 2 * padding < kernel || w + 2 * padding < kernel {
            continue;
        }
        let batch = rng.gen_range(1..=2usize);
        let spec = ConvSpec {
            batch,
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            groups,
            h,
            w,
        };
        // Keep the direct-loop oracle affordable.
        if spec.output_len() * in_cg * kernel * kernel <= 1 << 21 {
            break spec;
        }
    };
    ConvCase {
        input: normal_vec(rng, spec.input_len(), 0.0, 1.0),
        weight: normal_vec(rng, spec.weight_len(), 0.0, 0.5),
        bias: normal_vec(rng, spec.out_c, 0.0, 0.5),
        gy: normal_vec(rng, spec.output_len(), 0.0, 1.0),
        spec,
    }
}

/// Tile-adversarial conv forward suite (production kernel injected by
/// the caller, as with [`conv_forward`]).
pub fn conv_forward_tiles(
    seed: u64,
    cases: usize,
    run: impl Fn(&ConvCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "conv2d.forward.tiles",
        seed,
        cases,
        gen_conv_tiles,
        run,
        |c| {
            Some(oracle::conv2d_forward(
                &c.spec, &c.input, &c.weight, &c.bias,
            ))
        },
        &Tol::f32_default(),
    )
}

/// Tile-adversarial conv backward suite: runner returns `gx ‖ gw ‖ gb`.
pub fn conv_backward_tiles(
    seed: u64,
    cases: usize,
    run: impl Fn(&ConvCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "conv2d.backward.tiles",
        seed,
        cases,
        gen_conv_tiles,
        run,
        |c| {
            let g = oracle::conv2d_backward(&c.spec, &c.input, &c.weight, &c.gy);
            let mut out = g.gx;
            out.extend(g.gw);
            out.extend(g.gb);
            Some(out)
        },
        &Tol::f32_default(),
    )
}

// -------------------------------------------------------------------- qp

/// One randomized gradient-integration problem.
#[derive(Debug, Clone)]
pub struct QpCase {
    /// Task gradient.
    pub g: Vec<f32>,
    /// Signature-task gradients (constraint rows).
    pub constraints: Vec<Vec<f32>>,
    /// GEM margin.
    pub margin: f64,
}

fn gen_qp_sized(rng: &mut StdRng, k_lo: usize, k_hi: usize) -> QpCase {
    let n = rng.gen_range(3..=16usize);
    let k = rng.gen_range(k_lo..=k_hi);
    let g = normal_vec(rng, n, 0.0, 1.0);
    let constraints = (0..k)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                // Unbiased constraint — often already feasible.
                normal_vec(rng, n, 0.0, 1.0)
            } else {
                // Anti-correlated with g so the QP actually engages.
                let noise = normal_vec(rng, n, 0.0, 0.7);
                g.iter().zip(&noise).map(|(&gi, &ni)| -gi + ni).collect()
            }
        })
        .collect();
    let margin = if rng.gen_range(0..4u32) == 0 {
        0.1
    } else {
        0.0
    };
    QpCase {
        g,
        constraints,
        margin,
    }
}

/// Draw one QP case with `k` inside the exhaustive-oracle cap.
pub fn gen_qp(rng: &mut StdRng) -> QpCase {
    gen_qp_sized(rng, 1, 8)
}

/// Production runner: the exact dual solve plus Eq. 5 recovery. Every
/// generated case is finite, so any solver error is a defect and
/// panics.
fn qp_production(c: &QpCase) -> Option<Vec<f32>> {
    let cfg = QpConfig {
        margin: c.margin,
        ..Default::default()
    };
    let r = integrate_gradient(&c.g, &c.constraints, &cfg)
        .unwrap_or_else(|e| panic!("QP error on a generated case: {e}"));
    let mut rotated = c.g.clone();
    recover(&mut rotated, &c.constraints, &r.dual);
    Some(rotated)
}

/// Differential suite: production rotation vs the exhaustive
/// active-set oracle (`k ≤ 12`).
pub fn qp(seed: u64, cases: usize) -> FuzzReport {
    qp_with(seed, cases, qp_production)
}

/// [`qp`] with an injectable kernel (mutation testing).
pub fn qp_with(seed: u64, cases: usize, run: impl Fn(&QpCase) -> Option<Vec<f32>>) -> FuzzReport {
    fuzz::fuzz(
        "qp.integrate",
        seed,
        cases,
        gen_qp,
        run,
        |c| oracle::integrate(&c.g, &c.constraints, c.margin),
        // The production dual is exact up to rounding; its recovery
        // adds `v_i·c_i` in f32 (a few ulps of the largest term).
        &Tol {
            abs: 1e-4,
            rel: 1e-4,
        },
    )
}

/// Above the exhaustive cap (the paper's `k ≤ 20`), certify instead of
/// compare: the production rotation must satisfy the KKT conditions and
/// the acute-angle guarantee from first principles.
pub fn qp_certify(seed: u64, cases: usize) -> FuzzReport {
    let mut report = FuzzReport {
        kernel: "qp.certify".to_string(),
        base_seed: seed,
        cases,
        skipped: 0,
        failures: Vec::new(),
    };
    for case in 0..cases {
        let cseed = fuzz::reproducer_seed(seed, case as u64);
        let mut case_rng = rng::seeded(cseed);
        let problem = gen_qp_sized(&mut case_rng, oracle::QP_EXHAUSTIVE_CAP + 1, 20);
        let cfg = QpConfig {
            margin: problem.margin,
            ..Default::default()
        };
        match integrate_gradient(&problem.g, &problem.constraints, &cfg) {
            Ok(r) => {
                let mut rotated = problem.g.clone();
                recover(&mut rotated, &problem.constraints, &r.dual);
                if let Err(detail) = check::integrator_rotation(
                    &problem.g,
                    &problem.constraints,
                    &r.dual,
                    &rotated,
                    problem.margin,
                ) {
                    report.failures.push(fuzz::Failure {
                        case,
                        seed: cseed,
                        detail,
                    });
                }
            }
            Err(e) => report.failures.push(fuzz::Failure {
                case,
                seed: cseed,
                detail: format!("QP error on a finite case: {e}"),
            }),
        }
    }
    if !report.ok() {
        eprint!("{}", report.render());
    }
    report
}

// ------------------------------------------------------------- qp dual

/// The shape of a [`DualCase`]'s constraint rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualKind {
    /// Independent rows leaning against `g`.
    Random,
    /// Rows `b + ε·n_i`, `ε ∈ [1e-4, 1e-2]`: nearly parallel.
    NearParallel,
    /// `U·diag(σ)·Vᵀ` with orthonormal `U`, `V` and `σ_i` log-spaced from
    /// 1 down to `√(1/cond)`: a Gram condition number `cond` up to 1e8.
    Conditioned,
    /// A row repeated, or repeated scaled: a singular Gram.
    Singular,
    /// A zero row: a zero row and column in the Gram.
    ZeroRow,
}

/// One dual QP given in Gram space. The rows are `f64` and the Gram
/// matrix and linear term are built from them directly in `f64` — no
/// `f32` rows, no dot kernel — so the solver sees exactly the problem
/// designed; `g` and the rows only serve to read `g' = g + Gᵀv` back.
#[derive(Debug, Clone)]
pub struct DualCase {
    /// How the rows were drawn.
    pub kind: DualKind,
    /// Task gradient.
    pub g: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<Vec<f64>>,
    /// `k×k` Gram matrix of the rows, row-major.
    pub gram: Vec<f64>,
    /// `q_i = ⟨c_i, g⟩ − margin·‖c_i‖`.
    pub q: Vec<f64>,
}

fn dot64(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normal64(rng: &mut StdRng, n: usize) -> Vec<f64> {
    normal_vec(rng, n, 0.0, 1.0)
        .into_iter()
        .map(f64::from)
        .collect()
}

/// `m` orthonormal vectors of length `n ≥ m` (Gram–Schmidt, twice).
fn orthonormal(rng: &mut StdRng, m: usize, n: usize) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    while basis.len() < m {
        let mut v = normal64(rng, n);
        for _ in 0..2 {
            for b in &basis {
                let d = dot64(&v, b);
                v.iter_mut().zip(b).for_each(|(x, y)| *x -= d * y);
            }
        }
        let norm = dot64(&v, &v).sqrt();
        if norm > 1e-6 {
            basis.push(v.into_iter().map(|x| x / norm).collect());
        }
    }
    basis
}

/// Draw one Gram-space dual case: `k ≤ 12`, every [`DualKind`] equally
/// likely, a margin of 0.1 on a quarter of the cases.
fn gen_dual(rng: &mut StdRng) -> DualCase {
    let k = rng.gen_range(1..=oracle::QP_EXHAUSTIVE_CAP);
    let n = k + rng.gen_range(1..=4usize);
    let kind = [
        DualKind::Random,
        DualKind::NearParallel,
        DualKind::Conditioned,
        DualKind::Singular,
        DualKind::ZeroRow,
    ][rng.gen_range(0..5usize)];
    let mut rows: Vec<Vec<f64>> = match kind {
        DualKind::NearParallel => {
            let base = normal64(rng, n);
            let eps = 10f64.powf(-rng.gen_range(2.0..4.0f64));
            (0..k)
                .map(|_| {
                    let noise = normal64(rng, n);
                    base.iter().zip(noise).map(|(b, e)| b + eps * e).collect()
                })
                .collect()
        }
        DualKind::Conditioned => {
            let decades = rng.gen_range(0.0..8.0f64);
            let u = orthonormal(rng, k, k);
            let v = orthonormal(rng, k, n);
            let sigma: Vec<f64> = (0..k)
                .map(|i| 10f64.powf(-decades / 2.0 * i as f64 / (k.max(2) - 1) as f64))
                .collect();
            (0..k)
                .map(|r| {
                    (0..n)
                        .map(|c| (0..k).map(|i| u[r][i] * sigma[i] * v[i][c]).sum())
                        .collect()
                })
                .collect()
        }
        _ => (0..k).map(|_| normal64(rng, n)).collect(),
    };
    let i = rng.gen_range(0..k);
    match kind {
        DualKind::Singular if k > 1 => {
            let j = (i + 1 + rng.gen_range(0..k - 1)) % k;
            let scale = [1.0, 2.0, 0.5][rng.gen_range(0..3usize)];
            rows[j] = rows[i].iter().map(|x| scale * x).collect();
        }
        DualKind::ZeroRow => rows[i] = vec![0.0; n],
        _ => {}
    }
    // g leans against a random non-negative mix of the rows, so the
    // screen fails and several constraints are active.
    let mut g = normal64(rng, n);
    for r in &rows {
        let a = rng.gen_range(0.0..1.5f64);
        g.iter_mut().zip(r).for_each(|(x, c)| *x -= a * c);
    }
    let margin = if rng.gen_range(0..4u32) == 0 {
        0.1
    } else {
        0.0
    };
    let gram = rows
        .iter()
        .flat_map(|a| rows.iter().map(|b| dot64(a, b)))
        .collect();
    let q = rows
        .iter()
        .map(|r| dot64(r, &g) - margin * dot64(r, r).sqrt())
        .collect();
    DualCase {
        kind,
        g,
        rows,
        gram,
        q,
    }
}

/// `g + Gᵀv` in `f64`.
fn rotated64(c: &DualCase, v: &[f64]) -> Vec<f64> {
    let mut out = c.g.clone();
    for (r, &vi) in c.rows.iter().zip(v) {
        out.iter_mut().zip(r).for_each(|(o, x)| *o += vi * x);
    }
    out
}

/// Relative tolerance of [`qp_dual`]: the production and the oracle
/// `g'` agree within `QP_DUAL_TOL · (1 + ‖g‖∞ + ‖g'‖∞)` per entry.
pub const QP_DUAL_TOL: f64 = 1e-6;

/// Differential suite in Gram space: the production `k×k` solve
/// (`qp::solve_dual`) against the exhaustive oracle (`oracle::dual`) on
/// `gen_dual`'s cases. A case fails unless the production dual is
/// non-negative and KKT-certified (the dual gradient `Qv + q` within
/// `1e-9 · (‖q‖∞ + max_i Q_ii · Σv)` of zero on the support and above
/// it off the support) and the two `g'` agree within [`QP_DUAL_TOL`].
/// Cases the oracle cannot solve are skipped.
pub fn qp_dual(seed: u64, cases: usize) -> FuzzReport {
    let mut report = FuzzReport {
        kernel: "qp.dual".to_string(),
        base_seed: seed,
        cases,
        skipped: 0,
        failures: Vec::new(),
    };
    for case in 0..cases {
        let cseed = fuzz::reproducer_seed(seed, case as u64);
        let c = gen_dual(&mut rng::seeded(cseed));
        let mut fail = |detail: String| {
            report.failures.push(fuzz::Failure {
                case,
                seed: cseed,
                detail: format!("{:?} k={}: {detail}", c.kind, c.q.len()),
            })
        };
        let v = match fedknow_math::qp::solve_dual(&c.gram, &c.q, QpConfig::default().max_iters) {
            Ok((v, _)) => v,
            Err(e) => {
                fail(format!("solver error {e}"));
                continue;
            }
        };
        let k = c.q.len();
        let dmax = (0..k).map(|i| c.gram[i * k + i]).fold(0.0f64, f64::max);
        let qmax = c.q.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let tol = 1e-9 * (qmax + dmax * v.iter().sum::<f64>());
        for i in 0..k {
            let grad = c.q[i] + (0..k).map(|j| c.gram[i * k + j] * v[j]).sum::<f64>();
            let residual = if v[i] > 0.0 {
                grad.abs()
            } else {
                (-grad).max(0.0)
            };
            if v[i] < 0.0 || residual > tol {
                fail(format!(
                    "KKT: v[{i}] = {:e}, residual {residual:e} > {tol:e}",
                    v[i]
                ));
            }
        }
        let Some(want) = oracle::dual(&c.gram, &c.q) else {
            report.skipped += 1;
            continue;
        };
        let (got, want) = (rotated64(&c, &v), rotated64(&c, &want));
        let inf = |x: &[f64]| x.iter().fold(0.0f64, |m, y| m.max(y.abs()));
        let bound = QP_DUAL_TOL * (1.0 + inf(&c.g) + inf(&want));
        let err = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if err > bound {
            fail(format!(
                "g' differs from the oracle's by {err:e} > {bound:e}"
            ));
        }
    }
    if !report.ok() {
        eprint!("{}", report.render());
    }
    report
}

// ------------------------------------------------------------ wasserstein

/// Differential suite: sorted-sample Wasserstein vs the explicit-CDF
/// oracle.
pub fn wasserstein(seed: u64, cases: usize) -> FuzzReport {
    wasserstein_with(seed, cases, |(a, b)| {
        Some(vec![distance::wasserstein_1d(a, b) as f32])
    })
}

/// [`wasserstein`] with an injectable kernel (mutation testing).
fn wasserstein_with(
    seed: u64,
    cases: usize,
    run: impl Fn(&(Vec<f32>, Vec<f32>)) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "wasserstein_1d",
        seed,
        cases,
        |rng| {
            let n = rng.gen_range(0..=64usize);
            let (ma, mb) = (
                normal_vec(rng, 1, 0.0, 1.0)[0],
                normal_vec(rng, 1, 0.0, 1.0)[0],
            );
            let sa = 0.1 + rng.gen_range(0..20u32) as f32 / 10.0;
            let sb = 0.1 + rng.gen_range(0..20u32) as f32 / 10.0;
            (normal_vec(rng, n, ma, sa), normal_vec(rng, n, mb, sb))
        },
        run,
        |(a, b)| Some(vec![oracle::wasserstein_1d(a, b)]),
        &Tol {
            abs: 1e-6,
            rel: 1e-5,
        },
    )
}

// ---------------------------------------------------------------- fedavg

/// One randomized aggregation round: well-formed (finite, equal-length)
/// uploads with dropouts and non-uniform weights — the oracle defines
/// the weighted mean, not the quarantine policy.
#[derive(Debug, Clone)]
pub struct FedavgCase {
    /// Per-client uploads (`None` = dropout).
    pub uploads: Vec<Option<Vec<f32>>>,
    /// Per-client sample-count weights.
    pub weights: Vec<usize>,
}

/// Draw one aggregation case. Client 0 always uploads with positive
/// weight so the round is never empty.
fn gen_fedavg(rng: &mut StdRng) -> FedavgCase {
    let clients = rng.gen_range(1..=8usize);
    let dim = rng.gen_range(1..=16usize);
    let mut uploads = Vec::with_capacity(clients);
    let mut weights = Vec::with_capacity(clients);
    for c in 0..clients {
        let dropped = c != 0 && rng.gen_range(0..5u32) == 0;
        uploads.push((!dropped).then(|| normal_vec(rng, dim, 0.0, 1.0)));
        weights.push(if c == 0 {
            rng.gen_range(1..=20usize)
        } else {
            rng.gen_range(0..=20usize)
        });
    }
    FedavgCase { uploads, weights }
}

/// Differential suite: the caller supplies the production aggregator
/// (returning the global model).
pub fn fedavg(
    seed: u64,
    cases: usize,
    run: impl Fn(&FedavgCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "fedavg",
        seed,
        cases,
        gen_fedavg,
        run,
        |c| oracle::fedavg(&c.uploads, &c.weights),
        &Tol {
            abs: 1e-6,
            rel: 1e-6,
        },
    )
}

// ---------------------------------------------------------------- top-ρ

/// One randomized extraction problem.
#[derive(Debug, Clone)]
pub struct TopRhoCase {
    /// Dense parameter vector.
    pub dense: Vec<f32>,
    /// Keep fraction.
    pub rho: f64,
}

/// Draw one top-ρ case.
fn gen_top_rho(rng: &mut StdRng) -> TopRhoCase {
    let n = rng.gen_range(1..=64usize);
    TopRhoCase {
        dense: normal_vec(rng, n, 0.0, 1.0),
        rho: rng.gen_range(0..=100u32) as f64 / 100.0,
    }
}

/// Production runner: the select-nth magnitude cut, densified.
fn top_rho_production(c: &TopRhoCase) -> Option<Vec<f32>> {
    Some(SparseVec::top_fraction_by_magnitude(&c.dense, c.rho).to_dense())
}

/// Differential suite: the production cut vs a full-sort oracle, both
/// densified (values must match bit-for-bit — extraction copies, it
/// does not compute).
pub fn top_rho(seed: u64, cases: usize) -> FuzzReport {
    top_rho_with(seed, cases, top_rho_production)
}

/// [`top_rho`] with an injectable kernel (mutation testing).
pub fn top_rho_with(
    seed: u64,
    cases: usize,
    run: impl Fn(&TopRhoCase) -> Option<Vec<f32>>,
) -> FuzzReport {
    fuzz::fuzz(
        "extract.top_rho",
        seed,
        cases,
        gen_top_rho,
        run,
        |c| {
            let keep = ((c.dense.len() as f64) * c.rho.clamp(0.0, 1.0)).round() as usize;
            let mut order: Vec<usize> = (0..c.dense.len()).collect();
            order.sort_by(|&a, &b| {
                c.dense[b]
                    .abs()
                    .total_cmp(&c.dense[a].abs())
                    .then(a.cmp(&b))
            });
            let mut out = vec![0.0f64; c.dense.len()];
            for &i in order.iter().take(keep) {
                out[i] = c.dense[i] as f64;
            }
            Some(out)
        },
        &Tol { abs: 0.0, rel: 0.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small case counts here: the full 200-case acceptance runs live in
    // tests/differential.rs with the production nn/fl kernels wired in.
    #[test]
    fn math_suites_agree_with_oracles() {
        matmul(DEFAULT_SEED, 40).assert_clean();
        wasserstein(DEFAULT_SEED, 40).assert_clean();
        top_rho(DEFAULT_SEED, 40).assert_clean();
    }

    #[test]
    fn qp_suite_agrees_and_certifies() {
        let r = qp(DEFAULT_SEED, 30);
        r.assert_clean();
        assert!(r.compared() > 0, "exhaustive oracle never engaged");
        qp_certify(DEFAULT_SEED, 5).assert_clean();
        let r = qp_dual(DEFAULT_SEED, 30);
        r.assert_clean();
        assert!(r.compared() > 0, "exhaustive oracle never engaged");
    }

    #[test]
    fn tile_adversarial_matmul_suite_agrees() {
        let r = matmul_tiles(DEFAULT_SEED, 25);
        r.assert_clean();
        assert_eq!(r.compared(), 25);
    }

    #[test]
    fn tile_adversarial_generators_hit_the_boundaries() {
        let (mr, nr) = fedknow_math::gemm::tile_params();
        let dims = adversarial_dims();
        for d in [1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1] {
            assert!(dims.contains(&d.max(1)), "missing boundary dim {d}");
        }
        assert!(adversarial_ks().contains(&(fedknow_math::gemm::KC + 1)));

        let mut rng = rng::seeded(3);
        let mut saw_wide = false;
        let mut saw_stride_over_kernel = false;
        let mut saw_big_pad = false;
        let mut saw_degenerate_h = false;
        for _ in 0..200 {
            let c = gen_conv_tiles(&mut rng);
            assert_eq!(c.input.len(), c.spec.input_len());
            assert_eq!(c.weight.len(), c.spec.weight_len());
            assert_eq!(c.gy.len(), c.spec.output_len());
            let (oh, ow) = c.spec.out_hw();
            assert!(oh > 0 && ow > 0);
            saw_wide |= oh * ow >= nr;
            saw_stride_over_kernel |= c.spec.stride > c.spec.kernel;
            saw_big_pad |= c.spec.padding == c.spec.kernel && c.spec.kernel > 1;
            saw_degenerate_h |= c.spec.h == 1;
        }
        assert!(saw_wide, "never crossed the nr column boundary");
        assert!(saw_stride_over_kernel, "never drew stride > kernel");
        assert!(saw_big_pad, "never drew padding == kernel");
        assert!(saw_degenerate_h, "never drew a 1×N input");
    }

    #[test]
    fn conv_and_fedavg_generators_are_consistent() {
        let mut rng = rng::seeded(1);
        for _ in 0..50 {
            let c = gen_conv(&mut rng);
            assert_eq!(c.input.len(), c.spec.input_len());
            assert_eq!(c.weight.len(), c.spec.weight_len());
            assert_eq!(c.gy.len(), c.spec.output_len());
            let (oh, ow) = c.spec.out_hw();
            assert!(oh > 0 && ow > 0);
            let f = gen_fedavg(&mut rng);
            assert_eq!(f.uploads.len(), f.weights.len());
            assert!(f.uploads[0].is_some() && f.weights[0] > 0);
        }
    }
}
