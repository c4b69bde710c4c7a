//! The environment guard and the `env` block of a result.

use crate::report::Env;
use std::process::Command;

/// The first `FEDKNOW_*` variable set in the environment, if any. They
/// switch kernels, thread counts and telemetry, so a run under one
/// would measure something other than what the result says.
pub fn offending_variable() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FEDKNOW_"))
        .min()
}

/// Describe this build and machine.
pub fn describe(seed: u64) -> Env {
    // The checkout the benchmark was built in; outside a git checkout
    // (or without git) the commit is simply not known.
    let git_commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Env {
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        isa: fedknow_math::gemm::isa_name().to_string(),
        kernel_threads: fedknow_math::parallel::threads() as u64,
        rustc: env!("LADDER_RUSTC").to_string(),
        profile: env!("LADDER_PROFILE").to_string(),
        git_commit,
        seed,
    }
}
