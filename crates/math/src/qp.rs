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
//! The solver is projected gradient descent (step 1/trace of the Gram
//! matrix, a KKT-residual stop), capped at [`QpConfig::max_iters`]. It is
//! not exact: a solve that reaches the cap is accepted if its residual is
//! within 100× `tol` (an approximate rotation), and otherwise
//! `core::integrator` applies the *un-rotated* gradient, counted in
//! `qp.fallback`. At paper scale on cifar100 about half the solves reach
//! the cap; an exact active-set solver is ROADMAP item 1.

use crate::MathError;
use fedknow_obs::PerfCounter;

/// Work accounting for the whole integrate path: the screen, the dual
/// solve and the primal recovery, modelled by [`crate::flops::qp_screen`],
/// [`crate::flops::qp_solve`] and [`crate::flops::qp_recover`].
static PERF_QP: PerfCounter = PerfCounter::new("qp");

/// Configuration for the non-negative QP solver.
#[derive(Debug, Clone)]
pub struct QpConfig {
    /// Maximum projected-gradient iterations.
    pub max_iters: usize,
    /// KKT residual tolerance for declaring convergence.
    pub tol: f64,
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
            tol: 1e-7,
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
    /// Projected-gradient iterations used (0 when already feasible).
    pub iterations: usize,
}

/// Pairs whose dots one pass over a block of elements carries side by
/// side: independent sums, so the adds of one do not wait on another's.
const PAIRS_IN_FLIGHT: usize = 4;

/// Elements per block: the rows of a group of pairs stay in cache while
/// every group runs over the block.
const DOT_BLOCK: usize = 2048;

/// The f64 dot product of each row pair, `Σ a_e·b_e` with every product
/// taken in f64.
///
/// Each dot is a sequential fold in element order starting from `-0.0`,
/// so it equals `a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()`
/// bit for bit; only the pairs are interleaved. Panics unless every row
/// has the same length.
pub fn pair_dots(pairs: &[(&[f32], &[f32])]) -> Vec<f64> {
    let n = pairs.first().map_or(0, |(a, _)| a.len());
    assert!(
        pairs.iter().all(|(a, b)| a.len() == n && b.len() == n),
        "pair_dots: rows of unequal length"
    );
    let mut dots = vec![-0.0f64; pairs.len()];
    for lo in (0..n).step_by(DOT_BLOCK) {
        let hi = (lo + DOT_BLOCK).min(n);
        for (group, acc) in pairs
            .chunks(PAIRS_IN_FLIGHT)
            .zip(dots.chunks_mut(PAIRS_IN_FLIGHT))
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
    dots
}

/// Continue the `N` folds in `acc` over elements `lo..hi` of `group`.
#[inline(always)]
fn fold_block<const N: usize>(group: &[(&[f32], &[f32])], acc: &mut [f64], lo: usize, hi: usize) {
    let a: [&[f32]; N] = std::array::from_fn(|p| &group[p].0[lo..hi]);
    let b: [&[f32]; N] = std::array::from_fn(|p| &group[p].1[lo..hi]);
    let mut s: [f64; N] = std::array::from_fn(|p| acc[p]);
    for e in 0..hi - lo {
        for p in 0..N {
            s[p] += a[p][e] as f64 * b[p][e] as f64;
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

    let (dual, iterations) = solve_nonneg_qp(&gram, gg, &margins, k, config)?;
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
/// The rows are added in ascending order, each scaled by `v_i as f32`;
/// a zero `v_i` adds nothing, so the fast path's all-zero dual (and an
/// empty constraint set) leaves `g` as it is. Panics unless there is one
/// dual per constraint and every applied row has `g`'s length.
pub fn recover<C: AsRef<[f32]>>(g: &mut [f32], constraints: &[C], dual: &[f64]) {
    assert_eq!(dual.len(), constraints.len(), "one dual per constraint");
    let mut applied = 0;
    for (&v, c) in dual.iter().zip(constraints) {
        if v != 0.0 {
            let c = c.as_ref();
            assert_eq!(c.len(), g.len(), "constraint length mismatch");
            let a = v as f32;
            for (o, &ci) in g.iter_mut().zip(c) {
                *o += a * ci;
            }
            applied += 1;
        }
    }
    let c = crate::flops::qp_recover(applied, g.len());
    PERF_QP.op(c.flops, c.bytes);
}

/// Projected gradient descent on `½vᵀQv + qᵀv − marginsᵀv, v ≥ 0`.
///
/// Returns the dual solution and the iteration count. The margin enters the
/// dual linearly (a shifted constraint `Gg' ≥ m` dualises to `q = Gg − m`).
fn solve_nonneg_qp(
    gram: &[f64],
    gg: &[f64],
    margins: &[f64],
    k: usize,
    config: &QpConfig,
) -> Result<(Vec<f64>, usize), MathError> {
    let q: Vec<f64> = gg.iter().zip(margins).map(|(&d, &m)| d - m).collect();
    // Lipschitz constant of the gradient: λ_max(Q) ≤ trace(Q). The Gram
    // matrix is PSD so the trace bound is valid; a degenerate all-zero
    // Gram (all constraint gradients zero) makes the problem linear and
    // any v works — return zeros.
    let trace: f64 = (0..k).map(|i| gram[i * k + i]).sum();
    if trace <= 0.0 {
        return Ok((vec![0.0; k], 0));
    }
    let step = 1.0 / trace;

    let mut v = vec![0.0f64; k];
    let mut grad = vec![0.0f64; k];
    for it in 0.. {
        // grad = Qv + q
        for i in 0..k {
            let row = &gram[i * k..(i + 1) * k];
            grad[i] = q[i] + row.iter().zip(&v).map(|(&a, &b)| a * b).sum::<f64>();
        }
        // KKT residual for v ≥ 0: at a solution, grad_i ≥ 0 where v_i = 0
        // and grad_i = 0 where v_i > 0.
        let residual = (0..k)
            .map(|i| {
                if v[i] > 0.0 {
                    grad[i].abs()
                } else {
                    (-grad[i]).max(0.0)
                }
            })
            .fold(0.0f64, f64::max);
        if it == config.max_iters {
            // After the final update, accept a residual that is close.
            return if residual <= config.tol * (1.0 + trace) * 100.0 {
                Ok((v, it))
            } else {
                Err(MathError::QpNotConverged { residual })
            };
        }
        if residual <= config.tol * (1.0 + trace) {
            return Ok((v, it));
        }
        for i in 0..k {
            v[i] = (v[i] - step * grad[i]).max(0.0);
        }
    }
    unreachable!("the iteration at the cap returns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dotf(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The dot every [`pair_dots`] entry must equal bit for bit.
    fn sum_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
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

    #[test]
    fn pair_dots_equal_sum_bit_for_bit() {
        // A length that is a multiple of neither DOT_BLOCK nor
        // PAIRS_IN_FLIGHT, and 7 pairs: one full group and one of three.
        // The last pair's products are all −0.0: `Iterator::sum` folds
        // from −0.0 and stays there, where a fold from +0.0 would not.
        let n = 2 * DOT_BLOCK + 4 * 37 + 3;
        assert!(!n.is_multiple_of(DOT_BLOCK) && !n.is_multiple_of(PAIRS_IN_FLIGHT));
        let mut rows: Vec<Vec<f32>> = (1..=3).map(|s| row(s, n)).collect();
        rows.extend([vec![-1.0; n], vec![0.0; n]]);
        let pairs: Vec<(&[f32], &[f32])> = [(0, 1), (1, 1), (2, 0), (0, 2), (0, 0), (2, 2), (3, 4)]
            .iter()
            .map(|&(i, j)| (rows[i].as_slice(), rows[j].as_slice()))
            .collect();
        assert!(!pairs.len().is_multiple_of(PAIRS_IN_FLIGHT));
        let dots = pair_dots(&pairs);
        assert_eq!(dots.len(), pairs.len());
        for (d, (a, b)) in dots.iter().zip(&pairs) {
            assert_eq!(d.to_bits(), sum_dot(a, b).to_bits());
        }
        assert!(dots[6] == 0.0 && dots[6].is_sign_negative());
        assert!(pair_dots(&[]).is_empty());
    }

    #[test]
    fn recover_in_place_equals_the_out_of_place_recovery() {
        let n = 1000;
        let g = row(9, n);
        // Each constraint leans against g, so the solve path runs.
        let cons: Vec<Vec<f32>> = (10..14)
            .map(|s| row(s, n).iter().zip(&g).map(|(&c, &x)| c - x).collect())
            .collect();
        let solved = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!(!solved.already_feasible);
        // The solver's dual, and one with zeros between non-zeros.
        for dual in [solved.dual, vec![0.25, 0.0, 1.5e-3, 0.0]] {
            let mut want = g.clone();
            for (vi, c) in dual.iter().zip(&cons) {
                if *vi != 0.0 {
                    let a = *vi as f32;
                    for (o, &ci) in want.iter_mut().zip(c) {
                        *o += a * ci;
                    }
                }
            }
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
}
