//! End-to-end coverage of the `bench_gate` binary over fixture records
//! (`tests/fixtures/base/` is the committed baseline, `tests/fixtures/new/`
//! a fresh run): exit status and human-readable diff for an improved
//! run, a within-tolerance noisy run and a genuine 5% accuracy
//! regression, and every way a pair can fail to be one.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures(side: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(side)
}

/// Run `bin` on `args`: its exit code and everything it printed.
fn run(bin: &str, args: &[&Path]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.code(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

fn gate(args: &[&Path]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_bench_gate"), args)
}

fn gate_pair(name: &str) -> (Option<i32>, String) {
    let file = format!("BENCH_{name}.json");
    gate(&[&fixtures("base").join(&file), &fixtures("new").join(&file)])
}

/// Fresh `base/` and `new/` directories holding copies of the named
/// fixture records.
fn scratch(tag: &str, names: &[&str]) -> [PathBuf; 2] {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../target/test-scratch/gate_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    ["base", "new"].map(|side| {
        std::fs::create_dir_all(root.join(side)).unwrap();
        for name in names {
            let file = format!("BENCH_{name}.json");
            std::fs::copy(fixtures(side).join(&file), root.join(side).join(&file)).unwrap();
        }
        root.join(side)
    })
}

/// Rewrite one record in place, `from` -> `to`.
fn edit(path: &Path, from: &str, to: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains(from), "{from} not in {}", path.display());
    std::fs::write(path, text.replace(from, to)).unwrap();
}

#[test]
fn improvement_passes() {
    let (code, text) = gate_pair("improve");
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("within tolerance"), "{text}");
    assert!(text.contains("final_accuracy"), "{text}");
    assert!(
        text.contains("+0.1250"),
        "diff should show the gain: {text}"
    );
}

#[test]
fn noise_within_tolerance_passes() {
    let (code, text) = gate_pair("noise");
    assert_eq!(code, Some(0), "{text}");
    assert!(!text.contains("REGRESSION"), "{text}");
}

#[test]
fn five_percent_accuracy_regression_fails() {
    let (code, text) = gate_pair("regress");
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("final_accuracy"), "{text}");
    let both = text.contains("0.6000") && text.contains("0.5700");
    assert!(both, "diff must show both values: {text}");
}

/// Two directories are paired by file name: every record either side
/// holds is reported, and the verdicts combine (a regression outranks a
/// missing baseline).
#[test]
fn directory_scan_finds_all_fixture_pairs() {
    let (code, text) = gate(&[&fixtures("base"), &fixtures("new")]);
    assert_eq!(code, Some(1), "{text}");
    for name in ["improve", "noise", "regress"] {
        assert!(text.contains(&format!("== {name} ==")), "{text}");
    }
    assert!(text.contains("NO BASELINE: "), "{text}");
    assert!(text.contains("BENCH_nobaseline.json"), "{text}");

    // Without the regressing record the same directories pass, and a
    // directory pairs with a single record too.
    let [base, new] = scratch("dirs", &["improve", "noise"]);
    let (code, text) = gate(&[&base, &new]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("== improve ==") && text.contains("== noise =="));
    let (code, text) = gate(&[&base, &new.join("BENCH_noise.json")]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("== noise ==") && !text.contains("== improve =="));

    // A baseline record the run did not produce is a check that did not
    // run: exit 1, naming it.
    std::fs::remove_file(new.join("BENCH_noise.json")).unwrap();
    let (code, text) = gate(&[&base, &new]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("NO NEW RECORD: "), "{text}");
    assert!(text.contains("BENCH_noise.json"), "{text}");
}

/// A new record with nothing committed to hold it to is its own failure
/// mode: exit 3 (distinct from 1 = failed and 2 = usage/IO), saying what
/// to do about it.
#[test]
fn missing_baseline_scan_exits_three_with_actionable_error() {
    let [base, new] = scratch("nobase", &[]);
    let record = "BENCH_nobaseline.json";
    std::fs::copy(fixtures("new").join(record), new.join(record)).unwrap();
    let (code, text) = gate(&[&base, &new]);
    assert_eq!(code, Some(3), "{text}");
    assert!(text.contains("NO BASELINE"), "{text}");
    let remedy = text.contains("commit it under results/");
    assert!(remedy, "error must say how to create the baseline: {text}");
}

#[test]
fn missing_baseline_pair_mode_exits_three() {
    let new = fixtures("new").join("BENCH_nobaseline.json");
    let (code, text) = gate(&[Path::new("/nonexistent/BENCH_x.json"), &new]);
    assert_eq!(code, Some(3), "{text}");
    assert!(text.contains("NO BASELINE"), "{text}");
}

/// The gate gates: a gated metric the new record lost fails by name
/// (a check that stopped reporting must not pass), a metric only the
/// new record has is not compared, and records at different scales fail
/// as a pair even when every value improved.
#[test]
fn lost_metric_and_scale_mismatch_fail_and_new_metrics_are_ignored() {
    let [base, new] = scratch("lost", &["improve", "noise"]);
    let (noise, improve) = (new.join("BENCH_noise.json"), new.join("BENCH_improve.json"));
    edit(&noise, "final_accuracy", "renamed_accuracy");
    let (code, text) = gate(&[&base, &noise]);
    assert_eq!(code, Some(1), "{text}");
    let lost = text.lines().find(|l| l.contains("MISSING"));
    assert!(lost.is_some_and(|l| l.contains("final_accuracy")), "{text}");
    assert!(!text.contains("renamed_accuracy"), "{text}");
    assert!(!text.contains("REGRESSION"), "{text}");

    // A metric only the new record carries has nothing to be held to
    // yet, whatever its value: the pair passes without mentioning it.
    let extra = r#""metrics": [
    {"name": "extra", "value": -1.0, "unit": "u", "better": "Higher", "tol": {"Abs": 0.0}},"#;
    edit(&improve, "\"metrics\": [", extra);
    let (code, text) = gate(&[&base, &improve]);
    assert_eq!(code, Some(0), "{text}");
    assert!(!text.contains("extra"), "{text}");

    edit(&improve, "\"smoke\"", "\"quick\"");
    let (code, text) = gate(&[&base, &improve]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("smoke -> quick"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    // Neither the tolerance nor the leniency is a flag: the tolerance is
    // a property of the metric, and the gate always gates.
    for args in ["only_one_path.json", "--acc-tol 0.05", "--lenient a b"] {
        let args: Vec<&Path> = args.split(' ').map(Path::new).collect();
        let (code, text) = gate(&args);
        assert_eq!(code, Some(2), "{args:?}");
        let usage = text.split("usage:").nth(1).expect("usage line");
        assert!(usage.contains("BASE NEW"), "{usage}");
        assert!(!usage.contains("--"), "the gate has no flags: {usage}");
    }
}

/// A record written before the `metrics` list existed must stop the
/// gate (exit 2, naming the file and the remedy) rather than parse to
/// an empty list that gates nothing.
#[test]
fn old_shape_record_exits_two_and_says_regenerate() {
    let dirs = scratch("oldshape", &[]);
    let old = r#"{"name": "x", "scale": "smoke", "seed": 1, "final_accuracy": 0.5,
        "final_forgetting": 0.1, "wall_seconds": 1.0, "phases": []}"#;
    for dir in &dirs {
        std::fs::write(dir.join("BENCH_x.json"), old).unwrap();
    }
    let (code, text) = gate(&[&dirs[0], &dirs[1]]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("BENCH_x"), "{text}");
    assert!(text.contains("regenerate"), "{text}");
}

/// A results directory that cannot be written is exit 2 naming the path
/// — for the figure file and the gate record alike, never a panic.
#[test]
fn unwritable_results_dir_exits_two_with_the_path() {
    let [_, new] = scratch("unwritable", &["noise"]);
    // A directory cannot be created under a regular file.
    let under_a_file = new.join("BENCH_noise.json").join("results");
    let args = ["--fig", "convergence", "--scale", "smoke", "--results"].map(Path::new);
    let (code, text) = run(
        env!("CARGO_BIN_EXE_figures"),
        &[&args[..], &[&under_a_file]].concat(),
    );
    assert_eq!(code, Some(2), "{text}");
    let path = under_a_file.join("convergence_check.json");
    assert!(
        text.contains(&format!("{} not written", path.display())),
        "{text}"
    );
}
