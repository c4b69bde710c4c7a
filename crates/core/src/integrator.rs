//! Gradient integrator (§III-D) — a thin, configured wrapper over the
//! dual-QP solver in `fedknow_math::qp`, instrumented with the
//! learning-dynamics metrics the paper's Eqs. 3–5 hinge on:
//!
//! * `integrate.conflict_angle_cdeg` — pre-QP angle (centi-degrees)
//!   between the task gradient `g` and each signature-task gradient
//!   `g_i`; angles past 90° are the interference Eq. 3 constrains away.
//! * `integrate.post_angle_cdeg` — the same angles after rotation
//!   (Eq. 5 recovery `g' = Gᵀv + g`); should sit at ≤ 90°.
//! * `integrate.violations` — count of acute-angle constraint
//!   violations (`⟨g_i, g⟩ < 0`) observed before solving.
//! * `integrate.rotation_pm` / series `integrate.rotation` — how far
//!   the QP moved the gradient, `‖g' − g‖ / ‖g‖` (per-mille histogram
//!   plus a per-round f64 series).
//! * series `integrate.conflict_angle_deg` — mean pre-QP angle per
//!   call, round-indexed for trajectory plots (`obs report`).

use fedknow_math::qp::{integrate_gradient, QpConfig};
use fedknow_math::MathError;
use fedknow_obs::{CounterHandle, HistHandle};

static QP_SOLVE_NS: HistHandle = HistHandle::new("qp.solve_ns");
static QP_ITERS: HistHandle = HistHandle::new("qp.iters");
static QP_FAST_PATH: CounterHandle = CounterHandle::new("qp.fast_path");
static QP_FALLBACK: CounterHandle = CounterHandle::new("qp.fallback");
static CONFLICT_ANGLE_CDEG: HistHandle = HistHandle::new("integrate.conflict_angle_cdeg");
static POST_ANGLE_CDEG: HistHandle = HistHandle::new("integrate.post_angle_cdeg");
static VIOLATIONS: CounterHandle = CounterHandle::new("integrate.violations");
static ROTATION_PM: HistHandle = HistHandle::new("integrate.rotation_pm");

/// Angle between two vectors in degrees (`0` for a zero vector).
fn angle_deg(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt()))
        .clamp(-1.0, 1.0)
        .acos()
        .to_degrees()
}

/// Relative rotation `‖g' − g‖ / ‖g‖` (`0` for a zero input gradient).
fn relative_rotation(g: &[f32], rotated: &[f32]) -> f64 {
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (&a, &b) in g.iter().zip(rotated) {
        let d = b as f64 - a as f64;
        diff += d * d;
        norm += a as f64 * a as f64;
    }
    if norm == 0.0 {
        return 0.0;
    }
    (diff / norm).sqrt()
}

/// Rotates gradients to keep acute angles with constraint gradients
/// (Eqs. 3–5).
#[derive(Debug, Clone)]
pub struct GradientIntegrator {
    qp: QpConfig,
}

impl GradientIntegrator {
    /// New integrator with the given constraint margin.
    pub fn new(margin: f64) -> Self {
        Self {
            qp: QpConfig {
                margin,
                ..Default::default()
            },
        }
    }

    /// Integrate `g` against the signature gradients `constraints`:
    /// returns `g'` minimally rotated so `⟨g_i, g'⟩ ≥ 0` for all `i`.
    ///
    /// Falls back to the un-rotated gradient if the QP fails to converge
    /// (never observed with k ≤ 20, but training must not abort on a
    /// pathological batch).
    pub fn integrate(&self, g: &[f32], constraints: &[Vec<f32>]) -> Vec<f32> {
        if fedknow_obs::is_enabled() {
            self.record_pre_qp(g, constraints);
        }
        let result = {
            // Timer scoped to the solve alone: the angle/rotation
            // telemetry and verify checks below must not inflate
            // qp.solve_ns.
            let _t = QP_SOLVE_NS.timer();
            integrate_gradient(g, constraints, &self.qp)
        };
        let out = match result {
            Ok(r) => {
                if r.already_feasible {
                    QP_FAST_PATH.add(1);
                } else {
                    QP_ITERS.record(r.iterations as u64);
                }
                if fedknow_verify::is_enabled() {
                    fedknow_verify::report(
                        "integrator.rotation",
                        fedknow_verify::check::integrator_rotation(
                            g,
                            constraints,
                            &r.dual,
                            &r.gradient,
                            self.qp.margin,
                        ),
                    );
                }
                r.gradient
            }
            Err(MathError::QpNotConverged { .. }) => {
                QP_FALLBACK.add(1);
                g.to_vec()
            }
            Err(e) => panic!("gradient integration failed: {e}"),
        };
        if fedknow_obs::is_enabled() {
            self.record_post_qp(g, constraints, &out);
        }
        out
    }

    /// Pre-QP learning dynamics: per-signature-task conflict angles and
    /// the count of violated acute-angle constraints (Eq. 3).
    fn record_pre_qp(&self, g: &[f32], constraints: &[Vec<f32>]) {
        if constraints.is_empty() {
            return;
        }
        let mut sum = 0.0f64;
        let mut violations = 0u64;
        for c in constraints {
            let deg = angle_deg(g, c);
            CONFLICT_ANGLE_CDEG.record((deg * 100.0).round() as u64);
            if deg > 90.0 {
                violations += 1;
            }
            sum += deg;
        }
        if violations > 0 {
            VIOLATIONS.add(violations);
        }
        fedknow_obs::series(
            "integrate.conflict_angle_deg",
            sum / constraints.len() as f64,
        );
    }

    /// Post-QP dynamics: the rotated angles (should be ≤ 90°) and the
    /// relative rotation magnitude `‖g' − g‖ / ‖g‖` (Eq. 5).
    fn record_post_qp(&self, g: &[f32], constraints: &[Vec<f32>], rotated: &[f32]) {
        for c in constraints {
            POST_ANGLE_CDEG.record((angle_deg(rotated, c) * 100.0).round() as u64);
        }
        let rotation = relative_rotation(g, rotated);
        ROTATION_PM.record((rotation * 1000.0).round() as u64);
        fedknow_obs::series("integrate.rotation", rotation);
    }

    /// The cross-aggregation integration (§III-A): rotate the
    /// pre-aggregation gradient `g_before` to have an acute angle with
    /// the post-aggregation gradient `g_after`, producing the update
    /// that "incorporates global information from other clients, while
    /// avoiding decreasing model accuracy in local data".
    pub fn integrate_across_aggregation(&self, g_before: &[f32], g_after: &[f32]) -> Vec<f32> {
        self.integrate(g_before, std::slice::from_ref(&g_after.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn integration_enforces_acute_angles() {
        let integ = GradientIntegrator::new(0.0);
        let g = vec![1.0, 0.0, 0.0];
        let cons = vec![vec![-1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let out = integ.integrate(&g, &cons);
        for c in &cons {
            assert!(dot(c, &out) >= -1e-4);
        }
    }

    #[test]
    fn aggregation_integration_respects_global_direction() {
        let integ = GradientIntegrator::new(0.0);
        let g_before = vec![1.0, 0.0];
        let g_after = vec![-1.0, 1.0];
        let out = integ.integrate_across_aggregation(&g_before, &g_after);
        assert!(
            dot(&g_after, &out) >= -1e-4,
            "conflict with post-aggregation gradient"
        );
        // And it stays as close to the local direction as possible:
        // closer to g_before than g_after is.
        let d_before: f32 = out
            .iter()
            .zip(&g_before)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>();
        let d_after: f32 = out
            .iter()
            .zip(&g_after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>();
        assert!(d_before < d_after);
    }

    #[test]
    fn angle_and_rotation_helpers() {
        assert!((angle_deg(&[1.0, 0.0], &[0.0, 1.0]) - 90.0).abs() < 1e-9);
        assert!((angle_deg(&[1.0, 0.0], &[-1.0, 0.0]) - 180.0).abs() < 1e-9);
        assert_eq!(angle_deg(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((relative_rotation(&[3.0, 0.0], &[3.0, 4.0]) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(relative_rotation(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn aligned_gradients_pass_through() {
        let integ = GradientIntegrator::new(0.0);
        let g = vec![1.0, 1.0];
        let out = integ.integrate_across_aggregation(&g, &[2.0, 2.0]);
        assert_eq!(out, g);
    }
}
