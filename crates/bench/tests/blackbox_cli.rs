//! End-to-end coverage of the black-box flight recorder: a chaos run
//! with injected crashes must leave a postmortem bundle whose tail
//! contains the fault records, the panic hook must flush the JSONL
//! stream and dump a bundle from a dying process, `obs trace` must turn
//! any of it into Chrome trace JSON that passes its own validator, and
//! `obs report` must read the bundle like the stream.
//!
//! Everything here spawns child processes (`chaos_probe`, `obs`) so the
//! one-way obs/verify gates never leak between tests.

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

fn run_obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(args)
        .output()
        .expect("spawn obs")
}

fn run_trace(args: &[&str]) -> Output {
    run_obs(&[&["trace"], args].concat())
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
/// contains the fault record, `obs trace` must convert it into valid
/// trace JSON with a per-client fault instant, and `obs report` must
/// show the violation and the faults.
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

    // The bundle reports like a stream: the forced violation, a fault
    // row, and how it was recorded.
    let report = run_obs(&["report", bundle_path]);
    let report_out = String::from_utf8_lossy(&report.stdout);
    assert!(report.status.success(), "{report_out}");
    for needle in [
        "violation probe.forced",
        "fault crash",
        "sim.seed",
        "obs.trace_dir",
        "== spans",
    ] {
        assert!(report_out.contains(needle), "no `{needle}`:\n{report_out}");
    }
    // Dumped mid-run, it still has a wall time to take shares of.
    assert!(!report_out.contains("wall time   0ns"), "{report_out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process that panics mid-run must still flush the JSONL stream and
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

    // The hook flushed the buffered stream: every line parses back as
    // a record, and the last thing in it is the panic note.
    let stream = fedknow_obs::Recording::load(&jsonl).expect("stream must parse");
    let agg = fedknow_obs::Aggregate::from_records(&stream);
    assert!(
        agg.notes.iter().any(|n| n.contains("deliberate panic")),
        "the panic note must be in the stream: {:?}",
        agg.notes
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

/// The committed fixture recording (two threads, nested spans, a fault,
/// a violation, one delivered and one dropped wire frame) reports to
/// the committed text, byte for byte — as the stream it is, and with
/// the same records wrapped as a postmortem bundle.
#[test]
fn fixture_reports_byte_for_byte_as_stream_and_as_bundle() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let stream = fixtures.join("recording.jsonl");
    let expected = std::fs::read_to_string(fixtures.join("recording.report.txt")).unwrap();

    let dir = scratch("fixture");
    let bundle = dir.join("bundle.json");
    let wrapped = fedknow_obs::PostmortemBundle {
        version: fedknow_obs::bundle::BUNDLE_VERSION,
        reason: "fixture".to_string(),
        round: 0,
        context: Vec::new(),
        metrics: fedknow_obs::MetricsDump::default(),
        health: None,
        pid: None,
        tracks: fedknow_obs::Recording::load(&stream).unwrap().tracks,
    };
    std::fs::write(&bundle, serde_json::to_string(&wrapped).unwrap()).unwrap();

    for input in [&stream, &bundle] {
        let out = run_obs(&["report", input.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{input:?}");
        let ok = run_trace(&["validate", input.to_str().unwrap()]);
        let ok_out = String::from_utf8_lossy(&ok.stdout);
        assert!(
            ok.status.success()
                && ok_out.contains("5 slices, 7 instants")
                && ok_out.contains("2 flows / 1 finished"),
            "{ok_out}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `obs` exit codes: 2 for usage, 1 for garbage input.
#[test]
fn obs_cli_errors() {
    for usage in [
        &[][..],
        &["frobnicate"],
        &["trace"],
        &["trace", "frobnicate", "x.json"],
        &["report"],
        &["report", "x.jsonl", "--top", "many"],
        &["roofline", "--record"],
    ] {
        assert_eq!(run_obs(usage).status.code(), Some(2), "{usage:?}");
    }
    let dir = scratch("badinput");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"neither\": \"bundle nor trace\"}").unwrap();
    let out = run_trace(&["validate", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let out = run_obs(&["report", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    // A stream written before the record became the one event is
    // rejected with the line number, not read by a second reader.
    let old = dir.join("old.jsonl");
    std::fs::write(
        &old,
        "{\"Count\":{\"name\":\"x\",\"delta\":1}}\n{\"Count\":{\"name\":\"x\",\"delta\":1}}\n",
    )
    .unwrap();
    let out = run_obs(&["report", old.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    let _ = std::fs::remove_dir_all(&dir);
}
