//! Gradient integrator (§III-D) — a thin, configured wrapper over the
//! dual-QP solver in `fedknow_math::qp` that rotates a gradient in place
//! (the dual, then Eq. 5's `g' = Gᵀv + g` written over `g`), instrumented
//! with the learning-dynamics metrics the paper's Eqs. 3–5 hinge on:
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
//!
//! The post-QP telemetry and the verify rotation check compare against
//! the pre-rotation gradient, so a call copies `g` only while obs or
//! verify is on.
//!
//! GEM and A-GEM project through this type too (at margin 0), so every
//! `qp.*` counter and histogram includes their solves alongside
//! FedKNOW's.

use fedknow_math::qp::{integrate_gradient, pair_dots, recover, QpConfig};
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

/// The angle in degrees between `g` and each constraint (`0` against a
/// zero vector), from one [`pair_dots`] call over `g·g`, then `g·c_i`
/// and `c_i·c_i` per `i`.
fn angles<C: AsRef<[f32]>>(g: &[f32], constraints: &[C]) -> Vec<f64> {
    let mut pairs = vec![(g, g)];
    for c in constraints {
        pairs.extend([(g, c.as_ref()), (c.as_ref(), c.as_ref())]);
    }
    let dots = pair_dots(&pairs);
    let gg = dots[0];
    dots[1..]
        .chunks_exact(2)
        .map(|d| {
            if gg == 0.0 || d[1] == 0.0 {
                return 0.0;
            }
            (d[0] / (gg.sqrt() * d[1].sqrt()))
                .clamp(-1.0, 1.0)
                .acos()
                .to_degrees()
        })
        .collect()
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

    /// Rotate `g` in place against the signature gradients `constraints`
    /// (owned vectors, or slots borrowed from a model's gradient slab),
    /// minimally, so that `⟨g_i, g⟩ ≥ 0` for all `i`.
    ///
    /// Leaves `g` un-rotated, counted in `qp.fallback`, when the QP does
    /// not converge within its iteration cap — so that training never
    /// aborts on a batch. That is not rare on a 10-task `probe` run;
    /// replacing the solver with an exact one is ROADMAP item 1.
    pub fn rotate<C: AsRef<[f32]>>(&self, g: &mut [f32], constraints: &[C]) {
        let observed = fedknow_obs::is_enabled();
        let verified = fedknow_verify::is_enabled();
        if observed {
            self.record_pre_qp(g, constraints);
        }
        let before = (observed || verified).then(|| g.to_vec());
        let result = {
            // Timer scoped to the solve and the recovery: the
            // angle/rotation telemetry and verify checks must not
            // inflate qp.solve_ns.
            let _t = QP_SOLVE_NS.timer();
            integrate_gradient(g, constraints, &self.qp)
                .inspect(|r| recover(g, constraints, &r.dual))
        };
        match result {
            Ok(r) => {
                if r.already_feasible {
                    QP_FAST_PATH.add(1);
                } else {
                    QP_ITERS.record(r.iterations as u64);
                }
                if let Some(before) = before.as_deref().filter(|_| verified) {
                    fedknow_verify::report(
                        "integrator.rotation",
                        fedknow_verify::check::integrator_rotation(
                            before,
                            constraints,
                            &r.dual,
                            g,
                            self.qp.margin,
                        ),
                    );
                }
            }
            Err(MathError::QpNotConverged { .. }) => QP_FALLBACK.add(1),
            Err(e) => panic!("gradient integration failed: {e}"),
        }
        if let Some(before) = before.as_deref().filter(|_| observed) {
            self.record_post_qp(before, constraints, g);
        }
    }

    /// [`rotate`](Self::rotate) into a copy of `g`, returned.
    pub fn integrate<C: AsRef<[f32]>>(&self, g: &[f32], constraints: &[C]) -> Vec<f32> {
        let mut out = g.to_vec();
        self.rotate(&mut out, constraints);
        out
    }

    /// Pre-QP learning dynamics: per-signature-task conflict angles and
    /// the count of violated acute-angle constraints (Eq. 3).
    fn record_pre_qp<C: AsRef<[f32]>>(&self, g: &[f32], constraints: &[C]) {
        if constraints.is_empty() {
            return;
        }
        let mut sum = 0.0f64;
        let mut violations = 0u64;
        for deg in angles(g, constraints) {
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
    fn record_post_qp<C: AsRef<[f32]>>(&self, g: &[f32], constraints: &[C], rotated: &[f32]) {
        for deg in angles(rotated, constraints) {
            POST_ANGLE_CDEG.record((deg * 100.0).round() as u64);
        }
        let rotation = relative_rotation(g, rotated);
        ROTATION_PM.record((rotation * 1000.0).round() as u64);
        fedknow_obs::series("integrate.rotation", rotation);
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

    /// The cross-aggregation integration (§III-A): the pre-aggregation
    /// gradient `g_before` rotated to an acute angle with the
    /// post-aggregation gradient `g_after`.
    #[test]
    fn aggregation_integration_respects_global_direction() {
        let integ = GradientIntegrator::new(0.0);
        let g_before = vec![1.0, 0.0];
        let g_after = vec![-1.0, 1.0];
        let out = integ.integrate(&g_before, std::slice::from_ref(&g_after));
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
        let deg = angles(&[1.0, 0.0], &[[0.0, 1.0], [-1.0, 0.0], [2.0, 2.0]]);
        assert!((deg[0] - 90.0).abs() < 1e-9);
        assert!((deg[1] - 180.0).abs() < 1e-9);
        assert!((deg[2] - 45.0).abs() < 1e-9);
        assert_eq!(angles(&[0.0, 0.0], &[[1.0, 0.0]]), vec![0.0]);
        assert_eq!(angles(&[1.0, 0.0], &[[0.0, 0.0]]), vec![0.0]);
        assert!((relative_rotation(&[3.0, 0.0], &[3.0, 4.0]) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(relative_rotation(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn aligned_gradients_pass_through() {
        let integ = GradientIntegrator::new(0.0);
        let g = vec![1.0, 1.0];
        let g_after = vec![2.0, 2.0];
        let out = integ.integrate(&g, std::slice::from_ref(&g_after));
        assert_eq!(out, g);
    }
}
