//! Bench regression gate.
//!
//! ```text
//! bench_gate                          # diff every BENCH_*.json in results/
//!                                     # against its BENCH_*.prev.json
//! bench_gate prev.json new.json       # diff one explicit pair
//! ```
//!
//! Flags: `--results DIR` (default the repo's `results/`) and
//! `--report-only` to print the diff without failing — the mode CI runs
//! on every push so regressions are visible before the gate is
//! hardened. There are no tolerance flags: each metric carries the
//! tolerance its writer recorded, and the baseline's is the one applied.
//!
//! Exit status: 0 when everything is within tolerance (or
//! `--report-only`), 1 on a regression, 2 on usage/IO errors, 3 when a
//! current record has no `.prev` baseline to diff against (downgraded
//! to a note under `--report-only`, since a fresh checkout legitimately
//! has unrotated records).

use fedknow_bench::gate::{bench_record_path, compare, read_bench_record, GateReport};
use std::path::{Path, PathBuf};

/// Exit code for "record exists but its baseline doesn't".
const EXIT_NO_BASELINE: i32 = 3;

fn main() {
    let mut results_dir = fedknow_bench::results_dir();
    let mut report_only = false;
    let mut pair: Vec<PathBuf> = Vec::new();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--results" => {
                i += 1;
                results_dir = PathBuf::from(argv.get(i).unwrap_or_else(|| usage("--results DIR")));
            }
            "--report-only" => report_only = true,
            other if !other.starts_with("--") => pair.push(PathBuf::from(other)),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let (reports, missing) = match pair.len() {
        0 => scan_results(&results_dir),
        2 => {
            if !pair[0].exists() {
                missing_baseline_exit(&pair[0].display().to_string(), report_only);
                return;
            }
            (vec![diff(&pair[0], &pair[1])], Vec::new())
        }
        _ => usage("expected zero or exactly two record paths"),
    };

    if reports.is_empty() && missing.is_empty() {
        println!(
            "bench_gate: no BENCH_*.json / BENCH_*.prev.json pairs under {} — nothing to diff",
            results_dir.display()
        );
        return;
    }
    let mut regressed = false;
    for r in &reports {
        print!("{}", r.render());
        regressed |= r.regressed();
    }
    for name in &missing {
        println!("== {name} ==\n  NO BASELINE: BENCH_{name}.json has no BENCH_{name}.prev.json",);
    }
    if regressed {
        if report_only {
            println!("bench_gate: regression detected (report-only, not failing)");
        } else {
            eprintln!("bench_gate: FAILED — regression beyond tolerance");
            std::process::exit(1);
        }
    } else if !missing.is_empty() {
        missing_baseline_exit(&missing.join(", "), report_only);
    } else {
        println!("bench_gate: all benchmarks within tolerance");
    }
}

/// Report a missing baseline: under `--report-only` it is a note and a
/// clean exit, otherwise an actionable error with the distinct exit
/// code so CI can tell "no baseline yet" from "regressed" and "broken".
fn missing_baseline_exit(what: &str, report_only: bool) {
    if report_only {
        println!(
            "bench_gate: no baseline for {what} (report-only, not failing) — \
             commit the current record or re-run the benchmark to rotate one"
        );
        return;
    }
    eprintln!(
        "bench_gate: NO BASELINE for {what}\n  a record exists but there is no \
         .prev.json to diff it against.\n  fix: re-run the benchmark (the writer \
         rotates the old record to .prev.json),\n  or copy the trusted record: \
         cp BENCH_<name>.json BENCH_<name>.prev.json"
    );
    std::process::exit(EXIT_NO_BASELINE);
}

/// Diff one record pair; an unreadable record is fatal.
fn diff(prev: &Path, new: &Path) -> GateReport {
    let read = |path| read_bench_record(path).unwrap_or_else(|e| die(&e));
    compare(&read(prev), &read(new))
}

/// Diff every current/previous record pair under `dir`; also collect
/// the names of current records that have no baseline at all.
fn scan_results(dir: &Path) -> (Vec<GateReport>, Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (Vec::new(), Vec::new());
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| {
            let file = e.file_name().into_string().ok()?;
            let stem = file.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some(stem.strip_suffix(".prev").unwrap_or(stem).to_string())
        })
        .collect();
    names.sort();
    names.dedup();
    let mut reports = Vec::new();
    let mut missing = Vec::new();
    for name in &names {
        let cur = bench_record_path(dir, name);
        if !cur.exists() {
            continue; // orphan .prev — nothing current to gate
        }
        let prev_path = dir.join(format!("BENCH_{name}.prev.json"));
        if !prev_path.exists() {
            missing.push(name.clone());
            continue;
        }
        reports.push(diff(&prev_path, &cur));
    }
    (reports, missing)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: bench_gate [--results DIR] [--report-only] [prev.json new.json]"
    );
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2)
}
