//! End-to-end coverage of the black-box flight recorder: a chaos run
//! with injected crashes must leave a postmortem bundle whose tail
//! contains the fault records, the panic hook must flush the JSONL sink
//! and dump a bundle from a dying process, and `obs_trace` must turn
//! any of it into Chrome trace JSON that passes its own validator.
//!
//! Everything here spawns child processes (`chaos_probe`, `obs_trace`)
//! so the one-way obs/verify gates never leak between tests.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-scratch")
        .join(format!("blackbox_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_probe(trace_dir: &Path, jsonl: Option<&Path>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chaos_probe"));
    cmd.env("FEDKNOW_TRACE_DIR", trace_dir);
    cmd.env_remove("FEDKNOW_OBS");
    cmd.env_remove("FEDKNOW_VERIFY");
    if let Some(path) = jsonl {
        cmd.env("FEDKNOW_OBS", path);
    }
    cmd.args(args).output().expect("spawn chaos_probe")
}

fn run_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_trace"))
        .args(args)
        .output()
        .expect("spawn obs_trace")
}

/// Bundles named `bundle-<reason>-*.json` under `dir`.
fn bundles(dir: &Path, reason: &str) -> Vec<PathBuf> {
    let prefix = format!("bundle-{reason}-");
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read trace dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect();
    found.sort();
    found
}

/// The injected-crash chaos run must produce a bundle whose event tail
/// contains the fault record, and `obs_trace` must convert it into
/// valid trace JSON with a per-client fault instant.
#[test]
fn chaos_run_produces_convertible_bundle_with_fault_tail() {
    let dir = scratch("chaos");
    let out = run_probe(
        &dir,
        None,
        &["--scale", "smoke", "--seed", "7", "--force-violation"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "probe failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("crashes") && !stdout.contains("0 crashes"),
        "the 30% fault plan must actually crash someone: {stdout}"
    );

    // The explicit end-of-run dump plus throttled fault_crash dumps.
    let probe = bundles(&dir, "probe");
    assert_eq!(probe.len(), 1, "one explicit probe bundle: {probe:?}");
    assert!(
        !bundles(&dir, "fault_crash").is_empty(),
        "crash faults must auto-trigger a dump"
    );
    let bundle_text = std::fs::read_to_string(&probe[0]).expect("read bundle");
    assert!(
        bundle_text.contains("\"Fault\"") && bundle_text.contains("\"crash\""),
        "bundle tail must contain the injected crash record"
    );
    assert!(
        bundle_text.contains("\"Violation\"") && bundle_text.contains("probe.forced"),
        "bundle tail must contain the forced verify violation"
    );
    // Run-identifying context captured by the simulation layer.
    assert!(
        bundle_text.contains("sim.seed") && bundle_text.contains("sim.method"),
        "bundle must carry the sim context"
    );

    // Validate the bundle directly, then convert and re-validate the
    // emitted trace file.
    let bundle_path = probe[0].to_str().unwrap();
    let ok = run_trace(&["validate", bundle_path]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let trace_path = dir.join("trace.json");
    let conv = run_trace(&["convert", bundle_path, "-o", trace_path.to_str().unwrap()]);
    assert!(
        conv.status.success(),
        "{}",
        String::from_utf8_lossy(&conv.stderr)
    );
    let trace_text = std::fs::read_to_string(&trace_path).expect("read trace");
    assert!(trace_text.contains("\"traceEvents\""));
    assert!(
        trace_text.contains("fault.crash"),
        "trace must carry the crash instant"
    );
    assert!(
        trace_text.contains("violation.probe.forced"),
        "trace must carry the violation instant"
    );
    assert!(
        trace_text.contains("client 0"),
        "trace must name per-client tracks"
    );
    let revalid = run_trace(&["validate", trace_path.to_str().unwrap()]);
    assert!(
        revalid.status.success(),
        "{}",
        String::from_utf8_lossy(&revalid.stderr)
    );

    // The summary renders a non-empty top-N table from the same trace.
    let summary = run_trace(&["summary", trace_path.to_str().unwrap(), "--top", "5"]);
    assert!(summary.status.success());
    let summary_out = String::from_utf8_lossy(&summary.stdout);
    assert!(
        summary_out.contains("run") && summary_out.contains("total ms"),
        "{summary_out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process that panics mid-run must still flush the JSONL sink and
/// write a `panic` bundle through the hook — the whole point of a
/// black box.
#[test]
fn panic_hook_flushes_jsonl_and_dumps_bundle() {
    let dir = scratch("panic");
    let jsonl = dir.join("events.jsonl");
    let out = run_probe(
        &dir,
        Some(&jsonl),
        &[
            "--scale",
            "smoke",
            "--seed",
            "3",
            "--panic-after-tasks",
            "1",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the probe is supposed to die: {stderr}"
    );
    assert!(
        stderr.contains("deliberate panic"),
        "panic message must surface: {stderr}"
    );

    // The hook flushed the buffered sink: the JSONL is non-empty and
    // every line parses back as an event.
    let events = fedknow_obs::read_jsonl(&jsonl).expect("jsonl must parse");
    assert!(
        !events.is_empty(),
        "panic hook must flush buffered JSONL events"
    );

    // And it dumped a postmortem bundle before the process died.
    let panic_bundles = bundles(&dir, "panic");
    assert_eq!(
        panic_bundles.len(),
        1,
        "one panic bundle: {panic_bundles:?}"
    );
    let text = std::fs::read_to_string(&panic_bundles[0]).expect("read panic bundle");
    assert!(
        text.contains("\"reason\":") && text.contains("panic"),
        "bundle must record the panic reason"
    );
    assert!(
        text.contains("checkpoint.capture"),
        "the checkpoint mark must be in the ring tail"
    );

    // The dying process's JSONL stream still converts to a valid trace.
    let ok = run_trace(&["validate", jsonl.to_str().unwrap()]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `FEDKNOW_TRACE_DIR` the probe stays silent: no bundle, and
/// it says so instead of failing.
#[test]
fn no_trace_dir_means_no_bundle() {
    let dir = scratch("off");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_probe"))
        .env_remove("FEDKNOW_TRACE_DIR")
        .env_remove("FEDKNOW_OBS")
        .env_remove("FEDKNOW_VERIFY")
        .args(["--scale", "smoke", "--seed", "11"])
        .output()
        .expect("spawn chaos_probe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("no bundle"), "{stdout}");
    assert!(bundles(&dir, "probe").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// obs_trace exit codes: 2 for usage, 1 for garbage input.
#[test]
fn obs_trace_cli_errors() {
    let out = run_trace(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_trace(&["frobnicate", "x.json"]);
    assert_eq!(out.status.code(), Some(2));
    let dir = scratch("badinput");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"neither\": \"bundle nor trace\"}").unwrap();
    let out = run_trace(&["validate", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
