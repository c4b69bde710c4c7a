//! Non-negative quadratic programming for gradient integration.
//!
//! FedKNOW's gradient integrator (paper §III-D) rotates the current task's
//! gradient `g` so it keeps an acute angle with every signature-task
//! gradient, while moving as little as possible:
//!
//! ```text
//! min_{g'}  ½ ‖g' − g‖²      s.t.  G g' ≥ 0          (paper Eq. 3)
//! ```
//!
//! where `G` stacks the `k` signature gradients as rows. Its dual
//! (paper Eq. 4) is a small non-negative QP in `v ∈ ℝ^k`:
//!
//! ```text
//! min_v  ½ vᵀ(GGᵀ)v + (Gg)ᵀv    s.t.  v ≥ 0
//! ```
//!
//! with the primal recovered as `g' = Gᵀv + g` (paper Eq. 5). Since `k` is
//! tiny (≤ 20 in the paper) while the parameter dimension is large, solving
//! in the dual is the whole point. The integration splits along that seam:
//!
//! * every length-`P` dot product goes through [`pair_dots`]: first the
//!   screen (`Gg`, plus the constraint norms only when a margin scales
//!   them), then, only when the screen fails, the `k×k` Gram matrix;
//! * [`integrate_gradient`] solves the `k×k` dual and returns `v` alone;
//! * [`recover`] writes `g' = g + Gᵀv` over `g` in place.
//!
//! The dual is solved exactly, by Lawson–Hanson's active-set NNLS on
//! the normal equations (the Gram matrix and `Gg` stand in for `Aᵀ A`
//! and `Aᵀ b`): the constraint whose dual gradient is most negative
//! enters the passive set, the passive block is solved by Cholesky, and
//! a step that would drive a passive dual negative stops at the boundary
//! and drops that constraint. [`QpConfig::max_iters`] bounds the pivots
//! (entries and drops), which an exact solve never reaches.
//!
//! * **Ridge.** A passive block whose Cholesky meets a pivot at or below
//!   `1e-12 · max_i Q_ii` (a singular Gram: parallel or zero rows) is
//!   solved as `Q_PP + 1e-12 · max_i Q_ii · I`.
//! * **Certificate.** The solve returns only a dual that passes the KKT
//!   check: `v ≥ 0`, and the dual gradient `Qv + q` is zero on the
//!   passive set and non-negative off it, each within
//!   `1e-10 · (‖q‖∞ + max_i Q_ii · Σv)`, the scale of its terms.
//!   Anything else is [`MathError::QpNotConverged`].
//! * **Non-finite input.** A non-finite screen or Gram is
//!   [`MathError::NonFinite`]. On it, as on `QpNotConverged`,
//!   `core::integrator` applies the un-rotated gradient, counted in
//!   `qp.fallback`.

use crate::MathError;
use fedknow_obs::PerfCounter;

/// Work accounting for the whole integrate path: the screen, the dual
/// solve and the primal recovery, modelled by [`crate::flops::qp_screen`],
/// [`crate::flops::qp_solve`] and [`crate::flops::qp_recover`].
static PERF_QP: PerfCounter = PerfCounter::new("qp");

/// Configuration for the dual solve.
#[derive(Debug, Clone)]
pub struct QpConfig {
    /// Bound on active-set pivots (a constraint entering or leaving the
    /// passive set). Lawson–Hanson terminates after finitely many, a few
    /// per constraint, so an exact solve never reaches the bound; one
    /// that does is [`MathError::QpNotConverged`].
    pub max_iters: usize,
    /// Margin added to the constraint (GEM's `margin`): solve against
    /// `Gg' ≥ margin·‖g_i‖` instead of `≥ 0`, which makes the rotated
    /// gradient strictly decrease past-task losses. `0.0` reproduces the
    /// paper's formulation exactly.
    pub margin: f64,
}

impl Default for QpConfig {
    fn default() -> Self {
        Self {
            max_iters: 2_000,
            margin: 0.0,
        }
    }
}

/// Result of a gradient-integration solve: the dual that [`recover`]
/// turns into the rotated gradient.
#[derive(Debug, Clone)]
pub struct Integrated {
    /// Dual variables `v ≥ 0`, one per constraint gradient.
    pub dual: Vec<f64>,
    /// Whether the input gradient already satisfied all constraints (in
    /// which case `dual` is all zeros and recovery leaves `g` as it is).
    pub already_feasible: bool,
    /// Active-set pivots the solve took (0 when already feasible).
    pub iterations: usize,
}

/// Pairs whose dots one pass over a block of elements carries side by
/// side: independent sums, so the adds of one do not wait on another's.
const PAIRS_IN_FLIGHT: usize = 4;

/// Elements per block: the rows of every pair are read from memory once
/// per block and stay in cache while every group of pairs runs over it.
/// A multiple of [`LANES`], so blocks do not move the summation order.
const DOT_BLOCK: usize = 2048;

/// Partial sums per pair: element `e` of a pair's rows is added into
/// lane `e mod LANES`.
const LANES: usize = 8;

/// The f64 dot product of each row pair, `Σ a_e·b_e` with every product
/// taken in f64 (exactly: two f32 significands fit in one f64).
///
/// The summation order is fixed, whatever the CPU or the number of
/// pairs. Let `m` be the length rounded down to a multiple of
/// 8 (`LANES`). Element `e < m` is added into lane `e mod 8`, each lane
/// folding in ascending `e` from `+0.0`. The lanes then reduce as
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, and the tail
/// elements `m..n` are added to that in ascending order. No product is
/// fused with its add, so the bits do not depend on the CPU. Panics
/// unless every row has the same length.
pub fn pair_dots(pairs: &[(&[f32], &[f32])]) -> Vec<f64> {
    let n = pairs.first().map_or(0, |(a, _)| a.len());
    assert!(
        pairs.iter().all(|(a, b)| a.len() == n && b.len() == n),
        "pair_dots: rows of unequal length"
    );
    let m = n - n % LANES;
    let mut lanes = vec![[0.0f64; LANES]; pairs.len()];
    for lo in (0..m).step_by(DOT_BLOCK) {
        let hi = (lo + DOT_BLOCK).min(m);
        for (group, acc) in pairs
            .chunks(PAIRS_IN_FLIGHT)
            .zip(lanes.chunks_mut(PAIRS_IN_FLIGHT))
        {
            match group.len() {
                4 => fold_block::<4>(group, acc, lo, hi),
                3 => fold_block::<3>(group, acc, lo, hi),
                2 => fold_block::<2>(group, acc, lo, hi),
                1 => fold_block::<1>(group, acc, lo, hi),
                _ => unreachable!("a group holds at most PAIRS_IN_FLIGHT = 4 pairs"),
            }
        }
    }
    pairs
        .iter()
        .zip(&lanes)
        .map(|((a, b), l)| {
            let mut d = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            for e in m..n {
                d += a[e] as f64 * b[e] as f64;
            }
            d
        })
        .collect()
}

/// Continue the `N` pairs' lanes in `acc` over elements `lo..hi` of
/// `group` (`hi − lo` a multiple of [`LANES`]).
#[inline(always)]
fn fold_block<const N: usize>(
    group: &[(&[f32], &[f32])],
    acc: &mut [[f64; LANES]],
    lo: usize,
    hi: usize,
) {
    let a: [&[f32]; N] = std::array::from_fn(|p| &group[p].0[lo..hi]);
    let b: [&[f32]; N] = std::array::from_fn(|p| &group[p].1[lo..hi]);
    let mut s: [[f64; LANES]; N] = std::array::from_fn(|p| acc[p]);
    for c in (0..hi - lo).step_by(LANES) {
        for p in 0..N {
            let x: &[f32; LANES] = a[p][c..c + LANES].try_into().unwrap();
            let y: &[f32; LANES] = b[p][c..c + LANES].try_into().unwrap();
            for l in 0..LANES {
                s[p][l] += x[l] as f64 * y[l] as f64;
            }
        }
    }
    acc.copy_from_slice(&s);
}

/// Solve `min ½‖g'−g‖²  s.t.  ⟨g_i, g'⟩ ≥ 0 ∀i` via the dual QP and
/// return the dual `v`; [`recover`] applies it.
///
/// `constraints` holds the signature-task gradients `g_1..g_k` (owned
/// vectors or slices borrowed from a model's gradient slab); each must
/// have the same length as `g`. When `g` already has an acute angle with
/// every constraint the dual is all zeros (fast path, no QP solve).
///
/// ```
/// use fedknow_math::qp::{integrate_gradient, recover, QpConfig};
/// // The current gradient points +x; a signature gradient points −x.
/// let mut g = vec![1.0, 0.0];
/// let signature = vec![vec![-1.0, 0.0]];
/// let r = integrate_gradient(&g, &signature, &QpConfig::default()).unwrap();
/// recover(&mut g, &signature, &r.dual);
/// // The rotated gradient no longer conflicts with the signature task.
/// let dot: f32 = g.iter().zip(&signature[0]).map(|(a, b)| a * b).sum();
/// assert!(dot >= -1e-5);
/// ```
pub fn integrate_gradient<C: AsRef<[f32]>>(
    g: &[f32],
    constraints: &[C],
    config: &QpConfig,
) -> Result<Integrated, MathError> {
    if g.is_empty() {
        return Err(MathError::EmptyInput);
    }
    let rows: Vec<&[f32]> = constraints.iter().map(AsRef::as_ref).collect();
    for c in &rows {
        if c.len() != g.len() {
            return Err(MathError::DimensionMismatch {
                expected: g.len(),
                got: c.len(),
            });
        }
    }
    let (k, n) = (rows.len(), g.len());
    if k == 0 {
        return Ok(Integrated {
            dual: vec![],
            already_feasible: true,
            iterations: 0,
        });
    }

    // The screen: Gg, and the norms `‖g_i‖` only when a margin scales them.
    let norms = config.margin != 0.0;
    let mut pairs: Vec<(&[f32], &[f32])> = rows.iter().map(|&c| (c, g)).collect();
    if norms {
        pairs.extend(rows.iter().map(|&c| (c, c)));
    }
    let screen = pair_dots(&pairs);
    if !screen.iter().all(|d| d.is_finite()) {
        return Err(MathError::NonFinite { input: "screen" });
    }
    let gg = &screen[..k];
    let margins: Vec<f64> = (0..k)
        .map(|i| {
            if norms {
                config.margin * screen[k + i].sqrt()
            } else {
                0.0
            }
        })
        .collect();
    let screen_cost = crate::flops::qp_screen(k, n, norms);
    if gg.iter().zip(&margins).all(|(&d, &m)| d >= m) {
        PERF_QP.op(screen_cost.flops, screen_cost.bytes);
        return Ok(Integrated {
            dual: vec![0.0; k],
            already_feasible: true,
            iterations: 0,
        });
    }

    // Gram matrix GGᵀ (k×k, double precision for stability).
    let upper: Vec<(usize, usize)> = (0..k).flat_map(|i| (i..k).map(move |j| (i, j))).collect();
    let pairs: Vec<(&[f32], &[f32])> = upper.iter().map(|&(i, j)| (rows[i], rows[j])).collect();
    let mut gram = vec![0.0f64; k * k];
    for (&(i, j), d) in upper.iter().zip(pair_dots(&pairs)) {
        gram[i * k + j] = d;
        gram[j * k + i] = d;
    }
    if !gram.iter().all(|d| d.is_finite()) {
        return Err(MathError::NonFinite { input: "gram" });
    }

    // The margin enters the dual linearly: a shifted constraint
    // `Gg' ≥ m` dualises to `q = Gg − m`.
    let q: Vec<f64> = gg.iter().zip(&margins).map(|(&d, &m)| d - m).collect();
    let (dual, iterations) = solve_dual(&gram, &q, config.max_iters)?;
    let c = screen_cost.plus(crate::flops::qp_solve(k, n, iterations));
    PERF_QP.op(c.flops, c.bytes);
    Ok(Integrated {
        dual,
        already_feasible: false,
        iterations,
    })
}

/// Primal recovery (paper Eq. 5): `g ← g + Gᵀv`, in place.
///
/// Each element is summed in f64 and rounded to f32 once:
/// `g_e ← f32(((g_e + v_a·c_a,e) + v_b·c_b,e) + …)` over the constraints
/// with a non-zero dual, in ascending order. An exact dual of a
/// near-singular Gram can be large while `g'` is small, and an f32
/// running sum would lose `g'` to the cancellation. A zero `v_i` adds
/// nothing, so the fast path's all-zero dual (and an empty constraint
/// set) leaves `g` as it is. Panics unless there is one dual per
/// constraint and every applied row has `g`'s length.
pub fn recover<C: AsRef<[f32]>>(g: &mut [f32], constraints: &[C], dual: &[f64]) {
    assert_eq!(dual.len(), constraints.len(), "one dual per constraint");
    let applied: Vec<(f64, &[f32])> = dual
        .iter()
        .zip(constraints)
        .filter(|(&v, _)| v != 0.0)
        .map(|(&v, c)| (v, c.as_ref()))
        .collect();
    if !applied.is_empty() {
        assert!(
            applied.iter().all(|(_, c)| c.len() == g.len()),
            "constraint length mismatch"
        );
        let mut acc = [0.0f64; DOT_BLOCK];
        for (b, out) in g.chunks_mut(DOT_BLOCK).enumerate() {
            let lo = b * DOT_BLOCK;
            let acc = &mut acc[..out.len()];
            for (a, &x) in acc.iter_mut().zip(out.iter()) {
                *a = x as f64;
            }
            for &(v, c) in &applied {
                for (a, &x) in acc.iter_mut().zip(&c[lo..lo + out.len()]) {
                    *a += v * x as f64;
                }
            }
            for (o, &a) in out.iter_mut().zip(acc.iter()) {
                *o = a as f32;
            }
        }
    }
    let c = crate::flops::qp_recover(applied.len(), g.len());
    PERF_QP.op(c.flops, c.bytes);
}

/// Relative KKT tolerance of [`solve_dual`]: a dual gradient entry
/// counts as zero within `KKT_TOL · (‖q‖∞ + max_i Q_ii · Σv)`, the scale
/// of its terms. A constraint whose gradient is no more negative than
/// that does not enter the passive set.
const KKT_TOL: f64 = 1e-10;

/// Relative ridge of [`solve_dual`]: a passive block whose Cholesky meets
/// a pivot at or below `RIDGE · max_i Q_ii` is solved with that much
/// added to its diagonal. It moves a passive dual gradient by at most
/// `RIDGE · max_i Q_ii · v_i`, inside the KKT tolerance.
const RIDGE: f64 = 1e-12;

/// The exact solution of the dual (paper Eq. 4), `min ½vᵀQv + qᵀv` over
/// `v ≥ 0` for the `k×k` Gram matrix `Q` (row-major) and `q = Gg − m`,
/// by Lawson–Hanson's active-set NNLS. Returns the dual and the pivots
/// taken (constraints entering plus leaving the passive set).
///
/// The dual is KKT-certified (see the module docs); more than
/// `max_pivots` pivots, or a dual that fails the check, is
/// [`MathError::QpNotConverged`] with the residual reached. `Q` and `q`
/// must be finite, and `Q` symmetric positive semi-definite.
pub fn solve_dual(
    gram: &[f64],
    q: &[f64],
    max_pivots: usize,
) -> Result<(Vec<f64>, usize), MathError> {
    let k = q.len();
    assert_eq!(gram.len(), k * k, "the Gram matrix is k×k");
    let dmax = (0..k).map(|i| gram[i * k + i]).fold(0.0f64, f64::max);
    let qmax = q.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    let tol = |v: &[f64]| KKT_TOL * (qmax + dmax * v.iter().sum::<f64>());
    let gradient = |v: &[f64]| -> Vec<f64> {
        (0..k)
            .map(|i| q[i] + (0..k).map(|j| gram[i * k + j] * v[j]).sum::<f64>())
            .collect()
    };
    let mut v = vec![0.0f64; k];
    let mut grad = q.to_vec();
    let mut passive = vec![false; k];
    // Constraints that entered and were at once solved non-positive (a
    // rounding artefact): kept out until the next step succeeds.
    let mut blocked = vec![false; k];
    let mut pivots = 0usize;
    loop {
        let t = tol(&v);
        // The lowest-index constraint with the most negative gradient.
        let enter = (0..k)
            .filter(|&i| !passive[i] && !blocked[i] && -grad[i] > t)
            .fold(None, |best: Option<usize>, i| match best {
                Some(b) if grad[b] <= grad[i] => Some(b),
                _ => Some(i),
            });
        let Some(j) = enter else { break };
        if pivots == max_pivots {
            return Err(MathError::QpNotConverged {
                residual: kkt_residual(&v, &grad),
            });
        }
        pivots += 1;
        passive[j] = true;
        let mut entered = true;
        loop {
            let Some(z) = solve_passive(gram, q, &passive, dmax) else {
                return Err(MathError::QpNotConverged {
                    residual: kkt_residual(&v, &gradient(&v)),
                });
            };
            if entered && z[j] <= 0.0 {
                passive[j] = false;
                blocked[j] = true;
                break;
            }
            entered = false;
            if (0..k).all(|i| !passive[i] || z[i] > 0.0) {
                v = z;
                blocked.fill(false);
                break;
            }
            // Step from v towards z up to the first passive dual that
            // reaches zero, and drop it (and any other at zero).
            let (alpha, first) = (0..k)
                .filter(|&i| passive[i] && z[i] <= 0.0)
                // z_i ≤ 0 ≤ v_i: the ratio is in [0, 1], and 0 when both are 0.
                .map(|i| (v[i] / (v[i] - z[i]).max(f64::MIN_POSITIVE), i))
                .fold((f64::INFINITY, k), |a, b| if b.0 < a.0 { b } else { a });
            for i in 0..k {
                if !passive[i] {
                    continue;
                }
                v[i] += alpha * (z[i] - v[i]);
                if i == first || v[i] <= 0.0 {
                    passive[i] = false;
                    v[i] = 0.0;
                    pivots += 1;
                }
            }
            if pivots > max_pivots {
                return Err(MathError::QpNotConverged {
                    residual: kkt_residual(&v, &gradient(&v)),
                });
            }
        }
        grad = gradient(&v);
    }
    let residual = kkt_residual(&v, &grad);
    if residual > tol(&v) {
        return Err(MathError::QpNotConverged { residual });
    }
    Ok((v, pivots))
}

/// The KKT residual of a dual `v ≥ 0` with gradient `grad = Qv + q`:
/// `|grad_i|` where `v_i > 0`, `max(−grad_i, 0)` where `v_i = 0`.
fn kkt_residual(v: &[f64], grad: &[f64]) -> f64 {
    v.iter()
        .zip(grad)
        .map(|(&vi, &gi)| if vi > 0.0 { gi.abs() } else { (-gi).max(0.0) })
        .fold(0.0f64, f64::max)
}

/// `z` with `Q_PP z_P = −q_P` on the passive set `P` and zero off it, by
/// Cholesky; with [`RIDGE`]` · dmax` added to the diagonal if a pivot is
/// at or below that. `None` if even the ridged block does not factor
/// (`Q` is not positive semi-definite).
fn solve_passive(gram: &[f64], q: &[f64], passive: &[bool], dmax: f64) -> Option<Vec<f64>> {
    let k = q.len();
    let idx: Vec<usize> = (0..k).filter(|&i| passive[i]).collect();
    let p = idx.len();
    let ridge = RIDGE * dmax;
    let factor = |shift: f64, min_pivot: f64| -> Option<Vec<f64>> {
        let mut l = vec![0.0f64; p * p];
        for c in 0..p {
            for r in c..p {
                let mut s = gram[idx[r] * k + idx[c]];
                for m in 0..c {
                    s -= l[r * p + m] * l[c * p + m];
                }
                if r == c {
                    s += shift;
                    if s <= min_pivot {
                        return None;
                    }
                    l[c * p + c] = s.sqrt();
                } else {
                    l[r * p + c] = s / l[c * p + c];
                }
            }
        }
        Some(l)
    };
    let l = factor(0.0, ridge).or_else(|| factor(ridge, 0.0))?;
    // L y = −q_P, then Lᵀ z_P = y.
    let mut y = vec![0.0f64; p];
    for r in 0..p {
        let mut s = -q[idx[r]];
        for m in 0..r {
            s -= l[r * p + m] * y[m];
        }
        y[r] = s / l[r * p + r];
    }
    let mut z = vec![0.0f64; k];
    for r in (0..p).rev() {
        let mut s = y[r];
        for m in r + 1..p {
            s -= l[m * p + r] * z[idx[m]];
        }
        z[idx[r]] = s / l[r * p + r];
    }
    Some(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dotf(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The plain sequential dot [`pair_dots`] is measured against.
    fn sum_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    /// The summation order [`pair_dots`] documents, written out.
    fn lane_dot(a: &[f32], b: &[f32]) -> f64 {
        let m = a.len() - a.len() % LANES;
        let mut l = [0.0f64; LANES];
        for e in 0..m {
            l[e % LANES] += a[e] as f64 * b[e] as f64;
        }
        let mut d = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        for e in m..a.len() {
            d += a[e] as f64 * b[e] as f64;
        }
        d
    }

    /// Solve, then recover into a copy of `g`.
    fn rotated(g: &[f32], cons: &[Vec<f32>], cfg: &QpConfig) -> (Integrated, Vec<f32>) {
        let r = integrate_gradient(g, cons, cfg).unwrap();
        let mut out = g.to_vec();
        recover(&mut out, cons, &r.dual);
        (r, out)
    }

    fn row(seed: u64, n: usize) -> Vec<f32> {
        crate::rng::normal_vec(&mut crate::rng::seeded(seed), n, 0.0, 1.0)
    }

    /// Rows whose length is a multiple of neither the block, the lane
    /// count nor the in-flight count, and 7 pairs: one full group and
    /// one of three.
    fn awkward_pairs(rows: &[Vec<f32>]) -> Vec<(&[f32], &[f32])> {
        [(0, 1), (1, 1), (2, 0), (0, 2), (0, 0), (2, 2), (3, 4)]
            .iter()
            .map(|&(i, j)| (rows[i].as_slice(), rows[j].as_slice()))
            .collect()
    }

    fn awkward_rows() -> Vec<Vec<f32>> {
        let n = 2 * DOT_BLOCK + LANES * 37 + 5;
        assert!(!n.is_multiple_of(LANES) && !n.is_multiple_of(PAIRS_IN_FLIGHT));
        let mut rows: Vec<Vec<f32>> = (1..=3).map(|s| row(s, n)).collect();
        rows.extend([vec![-1.0; n], vec![0.0; n]]);
        rows
    }

    #[test]
    fn pair_dots_agree_with_sum_within_rounding() {
        let rows = awkward_rows();
        let pairs = awkward_pairs(&rows);
        let dots = pair_dots(&pairs);
        assert_eq!(dots.len(), pairs.len());
        for (d, (a, b)) in dots.iter().zip(&pairs) {
            // Both sums are of exact f64 products: they differ by at most
            // n roundings of the running magnitude.
            let mag: f64 = a
                .iter()
                .zip(*b)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let tol = a.len() as f64 * f64::EPSILON * mag;
            assert!((d - sum_dot(a, b)).abs() <= tol, "{d} vs {}", sum_dot(a, b));
        }
        assert_eq!(dots[6], 0.0);
        assert!(pair_dots(&[]).is_empty());
    }

    #[test]
    fn pair_dots_follow_the_stated_order_with_the_same_bits() {
        let rows = awkward_rows();
        let pairs = awkward_pairs(&rows);
        let bits = |d: Vec<f64>| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let first = bits(pair_dots(&pairs));
        assert_eq!(bits(pair_dots(&pairs)), first, "same input, same bits");
        let stated: Vec<f64> = pairs.iter().map(|(a, b)| lane_dot(a, b)).collect();
        assert_eq!(first, bits(stated), "the documented summation order");
        // A pair's dot does not depend on the pairs beside it.
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(bits(pair_dots(std::slice::from_ref(p))), [first[i]]);
        }
    }

    #[test]
    fn recover_in_place_equals_the_out_of_place_recovery() {
        let n = 2 * DOT_BLOCK + 37;
        let g = row(9, n);
        // Each constraint leans against g, so the solve path runs.
        let cons: Vec<Vec<f32>> = (10..14)
            .map(|s| row(s, n).iter().zip(&g).map(|(&c, &x)| c - x).collect())
            .collect();
        let solved = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!(!solved.already_feasible);
        // The solver's dual, and one with zeros between non-zeros.
        for dual in [solved.dual, vec![0.25, 0.0, 1.5e-3, 0.0]] {
            let want: Vec<f32> = (0..n)
                .map(|e| {
                    let mut a = g[e] as f64;
                    for (&vi, c) in dual.iter().zip(&cons) {
                        if vi != 0.0 {
                            a += vi * c[e] as f64;
                        }
                    }
                    a as f32
                })
                .collect();
            let mut got = g.clone();
            recover(&mut got, &cons, &dual);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn feasible_gradient_passes_through() {
        let g = vec![1.0, 0.0];
        let cons = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let (r, out) = rotated(&g, &cons, &QpConfig::default());
        assert!(r.already_feasible);
        assert_eq!(r.dual, vec![0.0; 2]);
        assert_eq!(out, g);
    }

    #[test]
    fn obtuse_constraint_gets_rotated_to_acute() {
        // g points +x, constraint points -x: maximally conflicting.
        let g = vec![1.0, 0.0];
        let cons = vec![vec![-1.0, 0.0]];
        let (r, out) = rotated(&g, &cons, &QpConfig::default());
        assert!(!r.already_feasible);
        let d = dotf(&cons[0], &out);
        assert!(d >= -1e-5, "constraint violated: {d}");
        // Minimal rotation projects g onto the constraint boundary → ~0.
        assert!(out[0].abs() < 1e-4);
    }

    #[test]
    fn rotation_is_minimal_projection() {
        // g = (1, -1); constraint g1 = (0, 1). Projection onto {y ≥ 0}
        // is (1, 0).
        let g = vec![1.0, -1.0];
        let cons = vec![vec![0.0, 1.0]];
        let (_, out) = rotated(&g, &cons, &QpConfig::default());
        assert!((out[0] - 1.0).abs() < 1e-5);
        assert!(out[1].abs() < 1e-5);
    }

    #[test]
    fn all_constraints_acute_after_solve() {
        // Random-ish fixed set with several conflicts.
        let g = vec![1.0, -2.0, 0.5, 3.0];
        let cons = vec![
            vec![-1.0, 0.5, 0.0, -2.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![-0.3, -0.3, -0.3, -0.3],
        ];
        let (r, out) = rotated(&g, &cons, &QpConfig::default());
        for (i, c) in cons.iter().enumerate() {
            let d = dotf(c, &out);
            assert!(d >= -1e-4, "constraint {i} violated: {d}");
        }
        // Dual feasibility.
        assert!(r.dual.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn margin_forces_strict_descent() {
        let g = vec![1.0, 0.0];
        let cons = vec![vec![0.0, 1.0]]; // orthogonal: feasible at margin 0
        let cfg = QpConfig {
            margin: 0.1,
            ..Default::default()
        };
        let (r, out) = rotated(&g, &cons, &cfg);
        assert!(!r.already_feasible);
        let d = dotf(&cons[0], &out);
        assert!(d >= 0.1 - 1e-4, "margin not met: {d}");
    }

    #[test]
    fn empty_constraint_set_is_identity() {
        let g = vec![1.0, 2.0];
        let (r, out) = rotated(&g, &[], &QpConfig::default());
        assert!(r.already_feasible);
        assert!(r.dual.is_empty());
        assert_eq!(out, g);
    }

    #[test]
    fn empty_gradient_is_error() {
        let r = integrate_gradient::<Vec<f32>>(&[], &[], &QpConfig::default());
        assert_eq!(r.unwrap_err(), MathError::EmptyInput);
    }

    #[test]
    fn zero_constraint_gradients_are_harmless() {
        let g = vec![1.0, 0.0];
        let cons = vec![vec![0.0, 0.0]];
        let (_, out) = rotated(&g, &cons, &QpConfig::default());
        assert_eq!(out, g);
    }

    #[test]
    fn solution_never_moves_further_than_necessary() {
        // The integrated gradient must satisfy ‖g' − g‖ ≤ ‖g‖ + ‖g'‖
        // trivially, but more meaningfully: for one constraint, the
        // displacement is exactly the negative part of the projection.
        let g = vec![3.0, 4.0];
        let c = vec![0.0, -1.0]; // ⟨c, g⟩ = -4 < 0
        let (_, out) = rotated(&g, std::slice::from_ref(&c), &QpConfig::default());
        // Projection onto {⟨c,·⟩ ≥ 0} = {y ≤ 0}: (3, 0).
        assert!((out[0] - 3.0).abs() < 1e-4);
        assert!(out[1].abs() < 1e-4);
        let disp: f32 = out
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((disp - 4.0).abs() < 1e-3);
    }

    /// The dual gradient `Qv + q` of a solved dual, from the rows.
    fn dual_gradient(g: &[f32], cons: &[Vec<f32>], dual: &[f64]) -> Vec<f64> {
        cons.iter()
            .map(|ci| {
                sum_dot(ci, g)
                    + cons
                        .iter()
                        .zip(dual)
                        .map(|(cj, &v)| v * sum_dot(ci, cj))
                        .sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn singular_gram_and_zero_rows_solve_to_a_kkt_point() {
        let n = 64;
        let g = row(21, n);
        let c0: Vec<f32> = row(22, n)
            .iter()
            .zip(&g)
            .map(|(&c, &x)| c - 2.0 * x)
            .collect();
        // A copy and a multiple of c0 make the Gram singular; a zero row
        // adds a zero row and column.
        let cons = vec![
            c0.clone(),
            c0.iter().map(|x| 2.0 * x).collect(),
            vec![0.0; n],
            c0.clone(),
            row(23, n),
        ];
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!(!r.already_feasible && r.iterations > 0);
        assert!(r.dual.iter().all(|&v| v >= 0.0));
        assert_eq!(r.dual[2], 0.0, "a zero row never enters");
        let grad = dual_gradient(&g, &cons, &r.dual);
        let scale = cons.iter().map(|c| sum_dot(c, c)).fold(0.0, f64::max)
            * r.dual.iter().sum::<f64>()
            + cons
                .iter()
                .map(|c| sum_dot(c, &g).abs())
                .fold(0.0, f64::max);
        for (i, (&v, &gi)) in r.dual.iter().zip(&grad).enumerate() {
            let res = if v > 0.0 { gi.abs() } else { (-gi).max(0.0) };
            assert!(res <= 1e-9 * scale, "constraint {i}: residual {res:e}");
        }
    }

    #[test]
    fn ill_conditioned_dual_matches_its_closed_form() {
        // Two nearly parallel constraints, both active: the passive solve
        // is the whole answer, v = −Q⁻¹q.
        // g = (0, 0, 1) − 0.3·c0 − 0.7·c1, so v ≈ (0.3, 0.7).
        let e = 1e-4f32;
        let cons = [vec![1.0, 0.0, 0.0], vec![1.0, e, 0.0]];
        let g = vec![-1.0, -0.7 * e, 1.0];
        let q: Vec<f64> = cons.iter().map(|c| sum_dot(c, &g)).collect();
        let gram: Vec<f64> = cons
            .iter()
            .flat_map(|a| cons.iter().map(|b| sum_dot(a, b)))
            .collect();
        let det = gram[0] * gram[3] - gram[1] * gram[2];
        let want = [
            -(gram[3] * q[0] - gram[1] * q[1]) / det,
            -(gram[0] * q[1] - gram[2] * q[0]) / det,
        ];
        let (v, pivots) = solve_dual(&gram, &q, 100).unwrap();
        assert!(want.iter().all(|&w| w > 0.0), "both constraints active");
        for (got, want) in v.iter().zip(want) {
            assert!((got - want).abs() <= 1e-6 * want.abs(), "{got} vs {want}");
        }
        assert!(pivots >= 2);
    }

    #[test]
    fn non_finite_input_and_the_pivot_bound_are_typed_errors() {
        let cons = vec![vec![-1.0, 0.0]];
        for bad in [f32::NAN, f32::INFINITY] {
            let err = integrate_gradient(&[1.0, bad], &cons, &QpConfig::default());
            assert_eq!(err.unwrap_err(), MathError::NonFinite { input: "screen" });
        }
        let capped = QpConfig {
            max_iters: 0,
            ..Default::default()
        };
        let err = integrate_gradient(&[1.0, 0.0], &cons, &capped).unwrap_err();
        assert!(matches!(err, MathError::QpNotConverged { .. }), "{err:?}");
    }
}
