//! Pure invariant predicates evaluated by the runtime verify mode.
//!
//! Each function returns `Ok(())` or a human-readable violation detail;
//! production call sites wrap them in [`crate::report`] behind an
//! [`crate::is_enabled`] gate. Keeping the predicates pure makes them
//! directly unit- and mutation-testable without touching the global
//! gate.

use fedknow_math::SparseVec;

fn dot64(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn norm64(a: &[f32]) -> f64 {
    dot64(a, a).sqrt()
}

/// KKT residual of the dual QP at a candidate rotation, computed from
/// first principles: with `Q = GGᵀ` and `q = Gg − margins`, the dual
/// gradient is `Qv + q = G·g' − margins`, so it can be read off the
/// rotated gradient directly — no Gram matrix needed.
///
/// The residual is `max_i` of `|∇_i|` on the active set (`v_i > 0`) and
/// `max(−∇_i, 0)` off it; it is 0 at the exact optimum.
pub fn kkt_residual<C: AsRef<[f32]>>(
    constraints: &[C],
    dual: &[f64],
    rotated: &[f32],
    margin: f64,
) -> f64 {
    let mut residual = 0.0f64;
    for (c, &v) in constraints.iter().zip(dual) {
        let c = c.as_ref();
        let grad = dot64(c, rotated) - margin * norm64(c);
        let r = if v > 0.0 {
            grad.abs()
        } else {
            (-grad).max(0.0)
        };
        residual = residual.max(r);
    }
    residual
}

/// Integrator invariant (paper Eqs. 3–5): the rotated gradient must be a
/// KKT-certified solution of the dual QP — non-negative dual, residual
/// within a scale-aware tolerance — and must keep an acute (margin-
/// shifted) angle with every signature-task gradient.
pub fn integrator_rotation<C: AsRef<[f32]>>(
    g: &[f32],
    constraints: &[C],
    dual: &[f64],
    rotated: &[f32],
    margin: f64,
) -> Result<(), String> {
    if rotated.len() != g.len() {
        return Err(format!(
            "rotated length {} != gradient length {}",
            rotated.len(),
            g.len()
        ));
    }
    if dual.len() != constraints.len() {
        return Err(format!(
            "dual length {} != constraint count {}",
            dual.len(),
            constraints.len()
        ));
    }
    for (i, &v) in dual.iter().enumerate() {
        if v < 0.0 || v.is_nan() {
            return Err(format!("dual[{i}] = {v} is negative or NaN"));
        }
    }
    // Tolerance: the dual solve's own KKT tolerance (1e-10 of the scale
    // of the dual gradient's terms, `‖q‖∞ + max‖c‖²·Σv`, taken at 1e-9
    // here), plus the f32 rounding of g' (one rounding per element moves
    // ⟨c, g'⟩ by at most 2⁻²⁴·‖c‖·‖g'‖; 1e-6 is 16× that).
    let max_c = constraints
        .iter()
        .map(|c| norm64(c.as_ref()))
        .fold(0.0, f64::max);
    let dual_sum: f64 = dual.iter().sum();
    let tol = 1e-9 * max_c * (norm64(g) + margin.abs() + max_c * dual_sum)
        + 1e-6 * (1.0 + max_c * norm64(rotated));
    let residual = kkt_residual(constraints, dual, rotated, margin);
    if residual > tol {
        return Err(format!(
            "KKT residual {residual:.3e} exceeds tolerance {tol:.3e}"
        ));
    }
    // Acute-angle certificate: every constraint dot-product must clear
    // (the margin-shifted) zero, up to the same tolerance.
    for (i, c) in constraints.iter().enumerate() {
        let c = c.as_ref();
        let d = dot64(c, rotated) - margin * norm64(c);
        if d < -tol {
            return Err(format!(
                "post-rotation angle with constraint {i} is obtuse (⟨c, g'⟩ − m‖c‖ = {d:.3e})"
            ));
        }
    }
    Ok(())
}

/// Extractor invariant (paper Eq. 1): a top-ρ magnitude cut must be
/// *dominant* — every kept weight's magnitude is ≥ every dropped
/// weight's magnitude. Linear two-pointer scan over the sorted kept
/// indices.
pub fn top_rho_dominance(dense: &[f32], kept: &SparseVec) -> Result<(), String> {
    if kept.dense_len() != dense.len() {
        return Err(format!(
            "knowledge dense_len {} != parameter count {}",
            kept.dense_len(),
            dense.len()
        ));
    }
    let indices = kept.indices();
    let mut min_kept = f32::INFINITY;
    let mut min_kept_at = usize::MAX;
    for (&i, &v) in indices.iter().zip(kept.values()) {
        if dense[i as usize] != v {
            return Err(format!(
                "kept value at index {i} is {v} but the dense vector holds {}",
                dense[i as usize]
            ));
        }
        if v.abs() < min_kept {
            min_kept = v.abs();
            min_kept_at = i as usize;
        }
    }
    let mut max_dropped = f32::NEG_INFINITY;
    let mut max_dropped_at = usize::MAX;
    let mut cursor = 0usize;
    for (i, &v) in dense.iter().enumerate() {
        if cursor < indices.len() && indices[cursor] as usize == i {
            cursor += 1;
            continue;
        }
        if v.abs() > max_dropped {
            max_dropped = v.abs();
            max_dropped_at = i;
        }
    }
    if max_dropped_at != usize::MAX && min_kept_at != usize::MAX && max_dropped > min_kept {
        return Err(format!(
            "top-ρ mask not dominant: dropped |w[{max_dropped_at}]| = {max_dropped} > \
             kept |w[{min_kept_at}]| = {min_kept}"
        ));
    }
    Ok(())
}

/// Restorer invariant: the soft cross-entropy gradient `(softmax − t)/B`
/// has rows summing to ≈ 0 whenever each target row is a probability
/// distribution (both terms sum to 1 per row).
pub fn grad_rows_sum_zero(grad: &[f32], rows: usize, cols: usize) -> Result<(), String> {
    if grad.len() != rows * cols {
        return Err(format!("gradient length {} != {rows}×{cols}", grad.len()));
    }
    // Row entries are O(1/B); f32 summation noise scales with cols.
    let tol = 1e-5 * (1.0 + cols as f64);
    for r in 0..rows {
        let s: f64 = grad[r * cols..(r + 1) * cols]
            .iter()
            .map(|&v| v as f64)
            .sum();
        if s.abs() > tol {
            return Err(format!(
                "soft-CE gradient row {r} sums to {s:.3e} (tol {tol:.1e})"
            ));
        }
    }
    Ok(())
}

/// FedAvg invariant: the aggregate conserves weighted mass —
/// `Σᵢ globalᵢ · Σ_accepted w = Σ_accepted w · Σᵢ uploadᵢ`. The caller
/// accumulates `weighted_mass = Σ_accepted w·Σᵢ uᵢ` alongside the
/// average itself.
pub fn mass_conservation(
    global: &[f32],
    weighted_mass: f64,
    total_weight: f64,
) -> Result<(), String> {
    if total_weight <= 0.0 || total_weight.is_nan() {
        return Err(format!("non-positive total weight {total_weight}"));
    }
    let got: f64 = global.iter().map(|&v| v as f64).sum();
    let want = weighted_mass / total_weight;
    // f32 rounding of each coordinate plus f64 summation noise.
    let mag: f64 = global.iter().map(|&v| (v as f64).abs()).sum();
    let tol = 1e-5 * (1.0 + mag) + 1e-9 * global.len() as f64;
    if (got - want).abs() > tol {
        return Err(format!(
            "mass not conserved: Σ global = {got:.6e}, expected {want:.6e} (tol {tol:.1e})"
        ));
    }
    Ok(())
}

/// NN invariant: a tensor flowing between layers contains no NaN or
/// infinity. `what` names the tensor in the violation message (layer
/// name + activation/gradient).
pub fn all_finite(what: &str, data: &[f32]) -> Result<(), String> {
    match data.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: non-finite value {} at index {i}", data[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kkt_accepts_exact_solution() {
        // One constraint c = [1, 0], g = [-1, 0]. Optimum: v = 1,
        // g' = g + c = [0, 0]; residual 0, angle exactly 0.
        let g = vec![-1.0, 0.0];
        let c = vec![vec![1.0f32, 0.0]];
        let rotated = vec![0.0f32, 0.0];
        assert!(integrator_rotation(&g, &c, &[1.0], &rotated, 0.0).is_ok());
        assert_eq!(kkt_residual(&c, &[1.0], &rotated, 0.0), 0.0);
    }

    #[test]
    fn kkt_rejects_unrotated_conflict() {
        // Same conflict but "solved" with v = 0 and g' = g: the dual
        // gradient is ⟨c, g⟩ = −1 < 0 off the active set.
        let g = vec![-1.0, 0.0];
        let c = vec![vec![1.0f32, 0.0]];
        let err = integrator_rotation(&g, &c, &[0.0], &g, 0.0).unwrap_err();
        assert!(err.contains("KKT residual"), "{err}");
    }

    #[test]
    fn negative_dual_is_rejected() {
        let g = vec![1.0f32];
        let c = vec![vec![1.0f32]];
        let err = integrator_rotation(&g, &c, &[-0.5], &g, 0.0).unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn dominant_mask_passes_and_off_by_one_fails() {
        let dense = vec![0.1f32, -5.0, 0.3, 2.0];
        let good = SparseVec::top_k_by_magnitude(&dense, 2);
        assert!(top_rho_dominance(&dense, &good).is_ok());
        // An off-by-one cut that keeps index 2 (|0.3|) but drops index 3
        // (|2.0|) is not dominant.
        let bad = SparseVec::new(4, vec![1, 2], vec![-5.0, 0.3]);
        let err = top_rho_dominance(&dense, &bad).unwrap_err();
        assert!(err.contains("not dominant"), "{err}");
    }

    #[test]
    fn stale_kept_value_is_rejected() {
        let dense = vec![1.0f32, 2.0];
        let stale = SparseVec::new(2, vec![1], vec![3.0]);
        assert!(top_rho_dominance(&dense, &stale).is_err());
    }

    #[test]
    fn grad_rows_sum_detects_bias() {
        let zeroish = vec![0.5f32, -0.5, 0.25, -0.25];
        assert!(grad_rows_sum_zero(&zeroish, 2, 2).is_ok());
        let biased = vec![0.5f32, 0.5, 0.0, 0.0];
        assert!(grad_rows_sum_zero(&biased, 2, 2).is_err());
        assert!(grad_rows_sum_zero(&biased, 1, 3).is_err(), "bad shape");
    }

    #[test]
    fn mass_conservation_detects_normalisation_bug() {
        // Two uploads [1,1] (w=1) and [3,3] (w=3): average [2.5, 2.5],
        // weighted mass = 1·2 + 3·6 = 20, total weight 4.
        assert!(mass_conservation(&[2.5, 2.5], 20.0, 4.0).is_ok());
        // Dividing by client count (2) instead of weight (4) breaks it.
        assert!(mass_conservation(&[5.0, 5.0], 20.0, 4.0).is_err());
        assert!(mass_conservation(&[0.0], 0.0, 0.0).is_err());
    }

    #[test]
    fn finite_check_points_at_first_offender() {
        assert!(all_finite("t", &[1.0, -2.0]).is_ok());
        let err = all_finite("layer Conv2d output", &[0.0, f32::NAN]).unwrap_err();
        assert!(err.contains("index 1"), "{err}");
        assert!(err.contains("Conv2d"), "{err}");
    }
}
