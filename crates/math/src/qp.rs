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
//! in the dual is the whole point: the expensive part is forming the `k×k`
//! Gram matrix, after which the QP itself is microseconds.
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

/// Work accounting for the whole integrate path (screen + dual solve +
/// primal recovery), modelled by [`crate::flops::qp_screen`] /
/// [`crate::flops::qp_solve`].
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

/// Result of a gradient-integration solve.
#[derive(Debug, Clone)]
pub struct Integrated {
    /// The rotated gradient `g'` (same length as the input gradient).
    pub gradient: Vec<f32>,
    /// Dual variables `v ≥ 0`, one per constraint gradient.
    pub dual: Vec<f64>,
    /// Whether the input gradient already satisfied all constraints
    /// (in which case `gradient` is a copy of the input).
    pub already_feasible: bool,
    /// Projected-gradient iterations used (0 when already feasible).
    pub iterations: usize,
}

/// Solve `min ½‖g'−g‖²  s.t.  ⟨g_i, g'⟩ ≥ 0 ∀i` via the dual QP.
///
/// `constraints` holds the signature-task gradients `g_1..g_k` (owned
/// vectors or slices borrowed from a model's gradient slab); each must
/// have the same length as `g`. Returns the rotated gradient; when `g`
/// already has an acute angle with every constraint the input is returned
/// unchanged (fast path, no QP solve).
///
/// ```
/// use fedknow_math::qp::{integrate_gradient, QpConfig};
/// // The current gradient points +x; a signature gradient points −x.
/// let g = vec![1.0, 0.0];
/// let signature = vec![vec![-1.0, 0.0]];
/// let r = integrate_gradient(&g, &signature, &QpConfig::default()).unwrap();
/// // The rotated gradient no longer conflicts with the signature task.
/// let dot: f32 = r.gradient.iter().zip(&signature[0]).map(|(a, b)| a * b).sum();
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
    let constraints: Vec<&[f32]> = constraints.iter().map(AsRef::as_ref).collect();
    for c in &constraints {
        if c.len() != g.len() {
            return Err(MathError::DimensionMismatch {
                expected: g.len(),
                got: c.len(),
            });
        }
    }
    let k = constraints.len();
    if k == 0 {
        return Ok(Integrated {
            gradient: g.to_vec(),
            dual: vec![],
            already_feasible: true,
            iterations: 0,
        });
    }

    // Gg and the feasibility fast path.
    let gg: Vec<f64> = constraints
        .iter()
        .map(|c| c.iter().zip(g).map(|(&a, &b)| a as f64 * b as f64).sum())
        .collect();
    let margins: Vec<f64> = constraints
        .iter()
        .map(|c| {
            let n: f64 = c
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>()
                .sqrt();
            config.margin * n
        })
        .collect();
    if gg.iter().zip(&margins).all(|(&d, &m)| d >= m) {
        let c = crate::flops::qp_screen(k, g.len());
        PERF_QP.op(c.flops, c.bytes);
        return Ok(Integrated {
            gradient: g.to_vec(),
            dual: vec![0.0; k],
            already_feasible: true,
            iterations: 0,
        });
    }

    // Gram matrix GGᵀ (k×k, double precision for stability).
    let mut gram = vec![0.0f64; k * k];
    for i in 0..k {
        for j in i..k {
            let d: f64 = constraints[i]
                .iter()
                .zip(constraints[j])
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            gram[i * k + j] = d;
            gram[j * k + i] = d;
        }
    }

    let (dual, iterations) = solve_nonneg_qp(&gram, &gg, &margins, k, config)?;

    // g' = Gᵀ v + g  (paper Eq. 5).
    let mut out: Vec<f32> = g.to_vec();
    for (vi, c) in dual.iter().zip(constraints) {
        if *vi != 0.0 {
            let a = *vi as f32;
            for (o, &ci) in out.iter_mut().zip(c) {
                *o += a * ci;
            }
        }
    }
    let c =
        crate::flops::qp_screen(k, g.len()).plus(crate::flops::qp_solve(k, g.len(), iterations));
    PERF_QP.op(c.flops, c.bytes);
    Ok(Integrated {
        gradient: out,
        dual,
        already_feasible: false,
        iterations,
    })
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
    for it in 0..config.max_iters {
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
        if residual <= config.tol * (1.0 + trace) {
            return Ok((v, it));
        }
        for i in 0..k {
            v[i] = (v[i] - step * grad[i]).max(0.0);
        }
    }
    // Re-check the residual after the final update; accept if close.
    for i in 0..k {
        let row = &gram[i * k..(i + 1) * k];
        grad[i] = q[i] + row.iter().zip(&v).map(|(&a, &b)| a * b).sum::<f64>();
    }
    let residual = (0..k)
        .map(|i| {
            if v[i] > 0.0 {
                grad[i].abs()
            } else {
                (-grad[i]).max(0.0)
            }
        })
        .fold(0.0f64, f64::max);
    if residual <= config.tol * (1.0 + trace) * 100.0 {
        Ok((v, config.max_iters))
    } else {
        Err(MathError::QpNotConverged { residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dotf(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn feasible_gradient_passes_through() {
        let g = vec![1.0, 0.0];
        let cons = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!(r.already_feasible);
        assert_eq!(r.gradient, g);
    }

    #[test]
    fn obtuse_constraint_gets_rotated_to_acute() {
        // g points +x, constraint points -x: maximally conflicting.
        let g = vec![1.0, 0.0];
        let cons = vec![vec![-1.0, 0.0]];
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!(!r.already_feasible);
        let d = dotf(&cons[0], &r.gradient);
        assert!(d >= -1e-5, "constraint violated: {d}");
        // Minimal rotation projects g onto the constraint boundary → ~0.
        assert!(r.gradient[0].abs() < 1e-4);
    }

    #[test]
    fn rotation_is_minimal_projection() {
        // g = (1, -1); constraint g1 = (0, 1). Projection onto {y ≥ 0}
        // is (1, 0).
        let g = vec![1.0, -1.0];
        let cons = vec![vec![0.0, 1.0]];
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert!((r.gradient[0] - 1.0).abs() < 1e-5);
        assert!(r.gradient[1].abs() < 1e-5);
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
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        for (i, c) in cons.iter().enumerate() {
            let d = dotf(c, &r.gradient);
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
        let r = integrate_gradient(&g, &cons, &cfg).unwrap();
        assert!(!r.already_feasible);
        let d = dotf(&cons[0], &r.gradient);
        assert!(d >= 0.1 - 1e-4, "margin not met: {d}");
    }

    #[test]
    fn empty_constraint_set_is_identity() {
        let g = vec![1.0, 2.0];
        let r = integrate_gradient::<Vec<f32>>(&g, &[], &QpConfig::default()).unwrap();
        assert!(r.already_feasible);
        assert_eq!(r.gradient, g);
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
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        assert_eq!(r.gradient, g);
    }

    #[test]
    fn solution_never_moves_further_than_necessary() {
        // The integrated gradient must satisfy ‖g' − g‖ ≤ ‖g‖ + ‖g'‖
        // trivially, but more meaningfully: for one constraint, the
        // displacement is exactly the negative part of the projection.
        let g = vec![3.0, 4.0];
        let c = vec![0.0, -1.0]; // ⟨c, g⟩ = -4 < 0
        let r = integrate_gradient(&g, std::slice::from_ref(&c), &QpConfig::default()).unwrap();
        // Projection onto {⟨c,·⟩ ≥ 0} = {y ≤ 0}: (3, 0).
        assert!((r.gradient[0] - 3.0).abs() < 1e-4);
        assert!(r.gradient[1].abs() < 1e-4);
        let disp: f32 = r
            .gradient
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((disp - 4.0).abs() < 1e-3);
    }
}
