//! End-to-end coverage of the `bench_gate` binary over fixture record
//! pairs: exit status and human-readable diff output for an improved
//! run, a within-tolerance noisy run, and a genuine 5% accuracy
//! regression (`tests/fixtures/BENCH_*.json`); plus the `figures`
//! driver's `--fig` validation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .output()
        .expect("spawn bench_gate")
}

fn run_pair(name: &str, extra: &[&str]) -> Output {
    let prev = fixtures().join(format!("BENCH_{name}.prev.json"));
    let new = fixtures().join(format!("BENCH_{name}.json"));
    let mut args: Vec<&str> = extra.to_vec();
    let (prev, new) = (
        prev.to_str().unwrap().to_string(),
        new.to_str().unwrap().to_string(),
    );
    let prev_ref = prev.clone();
    let new_ref = new.clone();
    args.push(&prev_ref);
    args.push(&new_ref);
    run_gate(&args)
}

#[test]
fn improvement_passes() {
    let out = run_pair("improve", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("within tolerance"), "{stdout}");
    assert!(stdout.contains("final_accuracy"), "{stdout}");
    assert!(
        stdout.contains("+0.1250"),
        "diff should show the gain: {stdout}"
    );
}

#[test]
fn noise_within_tolerance_passes() {
    let out = run_pair("noise", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn five_percent_accuracy_regression_fails() {
    let out = run_pair("regress", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("final_accuracy"), "{stdout}");
    assert!(
        stdout.contains("0.6000") && stdout.contains("0.5700"),
        "diff must show both values: {stdout}"
    );
}

#[test]
fn report_only_downgrades_regression_to_exit_zero() {
    let out = run_pair("regress", &["--report-only"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("report-only"), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn directory_scan_finds_all_fixture_pairs() {
    let dir = fixtures();
    let out = run_gate(&["--report-only", "--results", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for name in ["improve", "noise", "obs_overhead", "regress", "verify"] {
        assert!(stdout.contains(&format!("== {name} ==")), "{stdout}");
    }
    // The deliberately unpaired fixture is reported, not silently skipped.
    assert!(stdout.contains("nobaseline"), "{stdout}");
}

/// A record with no `.prev` baseline is its own failure mode: exit 3
/// (distinct from 1 = regression and 2 = usage/IO), with an actionable
/// message, downgraded to a note under `--report-only`.
#[test]
fn missing_baseline_scan_exits_three_with_actionable_error() {
    let dir = std::env::temp_dir().join(format!("gate_nobase_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(
        fixtures().join("BENCH_nobaseline.json"),
        dir.join("BENCH_nobaseline.json"),
    )
    .unwrap();

    let out = run_gate(&["--results", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("NO BASELINE"), "{stderr}");
    assert!(
        stderr.contains(".prev.json"),
        "error must say how to create the baseline: {stderr}"
    );

    let out = run_gate(&["--report-only", "--results", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("no baseline"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_baseline_pair_mode_exits_three() {
    let new = fixtures().join("BENCH_nobaseline.json");
    let out = run_gate(&["/nonexistent/BENCH_x.prev.json", new.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("NO BASELINE"), "{stderr}");
}

/// The differential suite feeds the gate through `BENCH_verify.json`:
/// a 5% mismatch rate (the fixture pair's `pass_fraction` 1.0 -> 0.95)
/// must trip the gate.
#[test]
fn oracle_pass_rate_drop_fails_the_gate() {
    let out = run_pair("verify", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("pass_fraction"), "{stdout}");
    assert!(!stdout.contains("matmul"), "case counts are Info: {stdout}");
}

/// `obs_overhead` records the flight-recorder overhead ratio with a
/// 0.02 absolute rise tolerance: the fixture pair jumps 2% -> 10%
/// overhead and must fail.
#[test]
fn recorder_overhead_rise_fails_the_gate() {
    let out = run_pair("obs_overhead", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("recorder_overhead"), "{stdout}");
    assert!(
        stdout.contains("0.0200") && stdout.contains("0.1000"),
        "diff must show both overhead ratios: {stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let out = run_gate(&["only_one_path.json"]);
    assert_eq!(out.status.code(), Some(2));
    // The tolerance is a property of the metric, not a flag.
    let out = run_gate(&["--acc-tol", "0.05"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let usage = stderr.split("usage:").nth(1).expect("usage line");
    assert!(usage.contains("--results") && usage.contains("--report-only"));
    assert!(!usage.contains("-tol"), "{usage}");
}

/// A record written before the `metrics` list existed must stop the
/// gate (exit 2, naming the file and the remedy) rather than parse to
/// an empty list that gates nothing.
#[test]
fn old_shape_record_exits_two_and_says_regenerate() {
    let dir = std::env::temp_dir().join(format!("gate_oldshape_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let old = r#"{"name": "x", "scale": "smoke", "seed": 1, "final_accuracy": 0.5,
        "final_forgetting": 0.1, "wall_seconds": 1.0, "phases": []}"#;
    for file in ["BENCH_x.json", "BENCH_x.prev.json"] {
        std::fs::write(dir.join(file), old).unwrap();
    }
    let out = run_gate(&["--results", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("BENCH_x"), "{stderr}");
    assert!(stderr.contains("regenerate"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The figure driver rejects an id its table does not have and lists
/// the ones it does.
#[test]
fn figures_rejects_an_unknown_id_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "4,nope", "--scale", "smoke"])
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`nope`"), "{stderr}");
    let ids: Vec<&str> = fedknow_bench::figures::FIGURES
        .iter()
        .map(|&(id, ..)| id)
        .collect();
    assert!(stderr.contains(&ids.join(",")), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}
