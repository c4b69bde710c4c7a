//! Differential oracles and a runtime invariant checker for the FedKNOW
//! training stack.
//!
//! This crate has two halves:
//!
//! * [`oracle`] — slow, obviously-correct `f64` reference implementations
//!   of the hot kernels (direct-loop conv2d forward/backward, naive
//!   matmul, exhaustive active-set solve of the GEM dual QP,
//!   explicit-CDF Wasserstein, weighted-mean FedAvg), plus the seeded
//!   [`fuzz`] harness and the per-kernel [`suite`]s that drive each
//!   production kernel against its oracle over randomized shapes and
//!   values, printing a minimal reproducer seed on mismatch.
//! * [`check`] — cheap runtime invariants (KKT residual and acute-angle
//!   rotation, top-ρ mask dominance, soft-CE gradient row sums, FedAvg
//!   mass conservation, per-layer finiteness) that the production crates
//!   evaluate when the `FEDKNOW_VERIFY` mode is switched on.
//!
//! The runtime mode mirrors the `fedknow-obs` facade: a relaxed atomic
//! gate that costs one load when disabled. Violations bump the
//! `verify.violations` obs counter (plus a per-check counter) and, in
//! *strict* mode (`FEDKNOW_VERIFY=strict`, or [`enable_strict`] inside
//! tests), abort the process so no test can pass over a broken
//! invariant. Passing checks bump `verify.checks`, so a clean run can
//! prove the checks actually executed.

use std::sync::atomic::{AtomicBool, Ordering};

pub mod check;
pub mod fuzz;
pub mod oracle;
pub mod suite;

/// Environment variable that switches the runtime invariant mode on:
/// `1`/`true`/`on` count and report violations, `strict` also panics;
/// empty, `0`, `off` and `false` leave it off. Any other value panics.
const ENV_VERIFY: &str = "FEDKNOW_VERIFY";

static ENABLED: AtomicBool = AtomicBool::new(false);
static STRICT: AtomicBool = AtomicBool::new(false);

/// Whether the runtime invariant mode is on. One relaxed atomic load —
/// cheap enough to gate every call site.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether violations are fatal (strict mode).
#[inline]
pub fn is_strict() -> bool {
    STRICT.load(Ordering::Relaxed)
}

/// Switch the invariant checks on (violations are counted, not fatal).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Switch the invariant checks on with fatal violations — inside tests a
/// single broken invariant must fail the test, not just bump a counter.
pub fn enable_strict() {
    ENABLED.store(true, Ordering::Relaxed);
    STRICT.store(true, Ordering::Relaxed);
}

/// Switch the checks off again (test isolation).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    STRICT.store(false, Ordering::Relaxed);
}

/// A `FEDKNOW_VERIFY` value: `None` is off, `Some(strict)` on.
fn parse_mode(v: &str) -> Result<Option<bool>, String> {
    match v {
        "" | "0" | "off" | "false" => Ok(None),
        "1" | "on" | "true" => Ok(Some(false)),
        "strict" => Ok(Some(true)),
        _ => Err(format!(
            "{ENV_VERIFY}={v:?}: accepted are \"\", 0, off, false, 1, on, true and strict"
        )),
    }
}

/// Enable from the `FEDKNOW_VERIFY` environment variable. Idempotent and
/// additive (it never disables a mode a caller enabled directly).
/// Returns whether the mode is on afterwards. Panics on a value that
/// names no mode.
pub fn init_from_env() -> bool {
    let v = std::env::var(ENV_VERIFY).unwrap_or_default();
    match parse_mode(&v).unwrap_or_else(|e| panic!("{e}")) {
        Some(true) => enable_strict(),
        Some(false) => enable(),
        None => {}
    }
    is_enabled()
}

/// Record the outcome of one invariant check. `Ok` bumps the
/// `verify.checks` counter; `Err` bumps `verify.violations` (and a
/// per-check `verify.violations.<name>` counter), records the
/// violation into the observability flight recorder, logs the detail
/// to stderr, and panics in strict mode — after requesting a
/// postmortem bundle dump (`FEDKNOW_TRACE_DIR`), so the rounds
/// leading up to the broken invariant are preserved.
///
/// Call sites gate on [`is_enabled`] *before* evaluating the check, so
/// the disabled path costs one atomic load and nothing else.
pub fn report(name: &str, outcome: Result<(), String>) {
    match outcome {
        Ok(()) => fedknow_obs::count("verify.checks", 1),
        Err(detail) => {
            fedknow_obs::count("verify.violations", 1);
            fedknow_obs::count(&format!("verify.violations.{name}"), 1);
            fedknow_obs::violation(name, &detail);
            eprintln!("[verify] VIOLATION {name}: {detail}");
            if is_strict() {
                // The panic hook would dump too, but dumping *before*
                // unwinding keeps the violation record as the bundle's
                // tail even if the hook was never installed.
                fedknow_obs::dump_trigger("verify_violation");
                panic!("verify violation in {name}: {detail}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_modes_and_strict_violation() {
        // One test, because the gate is process-global state and the
        // test harness runs tests in parallel threads.
        disable();
        assert!(!is_enabled());
        enable();
        assert!(is_enabled() && !is_strict());
        enable_strict();
        assert!(is_strict());
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let panicked =
            std::panic::catch_unwind(|| report("unit.test", Err("deliberate".to_string())))
                .is_err();
        std::panic::set_hook(prev_hook);
        assert!(panicked, "strict mode must turn a violation into a panic");
        disable();
        assert!(!is_enabled() && !is_strict());
    }

    #[test]
    fn verify_values_name_a_mode_or_are_refused() {
        assert_eq!(parse_mode(""), Ok(None));
        assert_eq!(parse_mode("off"), Ok(None));
        assert_eq!(parse_mode("1"), Ok(Some(false)));
        assert_eq!(parse_mode("strict"), Ok(Some(true)));
        assert!(parse_mode("yes").unwrap_err().contains("strict"));
        assert!(parse_mode("STRICT").is_err());
    }
}
