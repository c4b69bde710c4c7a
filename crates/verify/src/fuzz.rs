//! Seeded differential-fuzz harness.
//!
//! Each kernel suite draws `cases` randomized problems from a base
//! seed; case `i` uses the derived RNG `seeded(reproducer_seed(base,
//! i))`, so a single `u64` printed on mismatch reconstructs the failing
//! case exactly — no shrinking needed, the seed *is* the minimal
//! reproducer.

use fedknow_math::rng::{self, splitmix64};
use rand::rngs::StdRng;

/// Absolute + relative comparison tolerance: a pair `(got, want)`
/// disagrees when `|got − want| > abs + rel·|want|`.
#[derive(Debug, Clone, Copy)]
pub struct Tol {
    /// Absolute tolerance floor.
    pub abs: f64,
    /// Relative tolerance factor.
    pub rel: f64,
}

impl Tol {
    /// Tolerance for f32 kernels checked against f64 oracles.
    pub fn f32_default() -> Self {
        Tol {
            abs: 1e-3,
            rel: 1e-3,
        }
    }
}

/// Units-in-the-last-place distance between two finite `f32`s — the
/// fallback comparison when a value is large enough that absolute
/// tolerances are meaningless.
pub fn ulps(a: f32, b: f32) -> u64 {
    let to_ordered = |v: f32| -> i64 {
        let bits = v.to_bits() as i32;
        (if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i64
    };
    (to_ordered(a) - to_ordered(b)).unsigned_abs()
}

/// Element-wise comparison of a production result against its oracle.
/// Returns the first disagreeing index with both values, or `Ok`.
pub fn compare(got: &[f32], want: &[f64], tol: &Tol) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "length mismatch: kernel produced {}, oracle produced {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let gf = g as f64;
        if !gf.is_finite() || (gf - w).abs() > tol.abs + tol.rel * w.abs() {
            // Values too large for the absolute floor still agree if
            // they are a few ULPs apart in f32.
            if gf.is_finite() && w.is_finite() && ulps(g, w as f32) <= 4 {
                continue;
            }
            return Err(format!(
                "index {i}: kernel {g:e} vs oracle {w:e} (|Δ| = {:e}, ulps = {})",
                (gf - w).abs(),
                if w.is_finite() {
                    ulps(g, w as f32)
                } else {
                    u64::MAX
                }
            ));
        }
    }
    Ok(())
}

/// The derived per-case seed: `seeded(reproducer_seed(base, case))` is
/// exactly the RNG that generated case `case` of a suite run with
/// `base`.
pub fn reproducer_seed(base: u64, case: u64) -> u64 {
    splitmix64(base ^ splitmix64(case))
}

/// One failing case of a suite.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the run.
    pub case: usize,
    /// The derived seed that regenerates this exact case.
    pub seed: u64,
    /// What disagreed.
    pub detail: String,
}

/// Outcome of one kernel's differential run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Kernel name.
    pub kernel: String,
    /// Base seed the suite ran with.
    pub base_seed: u64,
    /// Cases executed (including skipped).
    pub cases: usize,
    /// Cases skipped (kernel or oracle declined, e.g. QP above the
    /// exhaustive cap).
    pub skipped: usize,
    /// Mismatches, in case order.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// True when every compared case agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Cases actually compared against the oracle.
    pub fn compared(&self) -> usize {
        self.cases - self.skipped
    }

    /// Render a one-line summary plus reproducer instructions for each
    /// failure.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[verify] {}: {} cases (seed {:#x}), {} compared, {} failed\n",
            self.kernel,
            self.cases,
            self.base_seed,
            self.compared(),
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "  case {} FAILED: {}\n    reproduce: rng::seeded({:#x}) \
                 (= reproducer_seed({:#x}, {}))\n",
                f.case, f.detail, f.seed, self.base_seed, f.case
            ));
        }
        out
    }

    /// Panic with the rendered report unless every case agreed.
    pub fn assert_clean(&self) {
        assert!(self.ok(), "{}", self.render());
    }
}

/// Drive `run` against `oracle` over `cases` seeded random cases.
/// Either side may decline a case by returning `None` (counted as
/// skipped, not failed).
pub fn fuzz<C>(
    kernel: &str,
    base_seed: u64,
    cases: usize,
    generate: impl Fn(&mut StdRng) -> C,
    run: impl Fn(&C) -> Option<Vec<f32>>,
    oracle: impl Fn(&C) -> Option<Vec<f64>>,
    tol: &Tol,
) -> FuzzReport {
    let mut report = FuzzReport {
        kernel: kernel.to_string(),
        base_seed,
        cases,
        skipped: 0,
        failures: Vec::new(),
    };
    for case in 0..cases {
        let seed = reproducer_seed(base_seed, case as u64);
        let mut rng = rng::seeded(seed);
        let problem = generate(&mut rng);
        let (got, want) = match (run(&problem), oracle(&problem)) {
            (Some(g), Some(w)) => (g, w),
            _ => {
                report.skipped += 1;
                continue;
            }
        };
        if let Err(detail) = compare(&got, &want, tol) {
            report.failures.push(Failure { case, seed, detail });
        }
    }
    if !report.ok() {
        eprint!("{}", report.render());
    }
    report
}

/// Case count for bounded runs: `FEDKNOW_VERIFY_CASES` (decimal) or the
/// default when unset or empty. Panics on any other value.
pub fn cases_from_env(default: usize) -> usize {
    from_env("FEDKNOW_VERIFY_CASES", default, parse_cases)
}

/// Base seed: `FEDKNOW_VERIFY_SEED` (decimal or `0x…` hex) or the
/// default when unset or empty. Panics on any other value.
pub fn seed_from_env(default: u64) -> u64 {
    from_env("FEDKNOW_VERIFY_SEED", default, parse_seed)
}

fn from_env<T>(name: &str, default: T, parse: fn(&str) -> Result<T, &'static str>) -> T {
    match std::env::var(name).unwrap_or_default().as_str() {
        "" => default,
        v => parse(v).unwrap_or_else(|e| panic!("{name}={v:?}: {e}")),
    }
}

fn parse_cases(v: &str) -> Result<usize, &'static str> {
    v.parse().map_err(|_| "accepted is a decimal count")
}

fn parse_seed(v: &str) -> Result<u64, &'static str> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| "accepted is a decimal or 0x hex seed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_accepts_close_rejects_far() {
        let tol = Tol::f32_default();
        assert!(compare(&[1.0, 2.0], &[1.0005, 2.0], &tol).is_ok());
        let err = compare(&[1.0, 2.5], &[1.0, 2.0], &tol).unwrap_err();
        assert!(err.contains("index 1"), "{err}");
        assert!(compare(&[1.0], &[1.0, 2.0], &tol).is_err());
        assert!(compare(&[f32::NAN], &[0.0], &tol).is_err());
    }

    #[test]
    fn compare_tolerates_ulp_noise_on_large_values() {
        let big = 1.0e9f32;
        let next = f32::from_bits(big.to_bits() + 2);
        assert!(compare(&[next], &[big as f64], &Tol { abs: 0.0, rel: 0.0 }).is_ok());
        assert_eq!(ulps(big, next), 2);
        assert_eq!(ulps(1.0, 1.0), 0);
        assert!(ulps(-1.0, 1.0) > 1_000_000);
    }

    #[test]
    fn failing_case_reports_its_reproducer_seed() {
        let report = fuzz(
            "always-wrong",
            7,
            3,
            |rng| rng::normal_vec(rng, 2, 0.0, 1.0),
            |_| Some(vec![1.0, 1.0]),
            |_| Some(vec![0.0, 0.0]),
            &Tol::f32_default(),
        );
        assert_eq!(report.failures.len(), 3);
        assert_eq!(report.failures[1].seed, reproducer_seed(7, 1));
        assert!(report.render().contains("reproduce: rng::seeded"));
        // The reproducer regenerates the identical case.
        let mut a = rng::seeded(reproducer_seed(7, 1));
        let mut b = rng::seeded(reproducer_seed(7, 1));
        assert_eq!(
            rng::normal_vec(&mut a, 2, 0.0, 1.0),
            rng::normal_vec(&mut b, 2, 0.0, 1.0)
        );
    }

    #[test]
    fn skips_are_counted_not_failed() {
        let report = fuzz(
            "skippy",
            1,
            4,
            |_| (),
            |_| None,
            |_| Some(vec![1.0]),
            &Tol::f32_default(),
        );
        assert!(report.ok());
        assert_eq!(report.cases, 4);
        assert_eq!(report.skipped, 4);
        assert_eq!(report.compared(), 0);
    }

    #[test]
    fn env_overrides_parse() {
        // Only assert the defaults when the variables are genuinely
        // unset (a bounded CI run may export them for the whole job).
        if std::env::var("FEDKNOW_VERIFY_CASES").is_err() {
            assert_eq!(cases_from_env(123), 123);
        }
        if std::env::var("FEDKNOW_VERIFY_SEED").is_err() {
            assert_eq!(seed_from_env(9), 9);
        }
        assert_eq!(parse_cases("50"), Ok(50));
        assert!(parse_cases("fifty").is_err());
        assert_eq!(parse_seed("12"), Ok(12));
        assert_eq!(parse_seed("0xFED5EED"), Ok(0xFED5EED));
        assert!(parse_seed("0xZZ").is_err());
    }
}
