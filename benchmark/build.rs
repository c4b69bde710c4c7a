//! Records the compiler and profile the benchmark was built with, for
//! the `env` block of every result.

use std::process::Command;

fn main() {
    // Without this cargo re-runs the script whenever any file of the
    // package changes, `out/` included.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=LADDER_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt = std::env::var("OPT_LEVEL").unwrap_or_default();
    println!("cargo:rustc-env=LADDER_PROFILE={profile} (opt-level {opt})");
}
