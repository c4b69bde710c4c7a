//! Bench regression gate: the committed records are the baseline.
//!
//! ```text
//! bench_gate results /tmp/run                    # every record of a run
//! bench_gate results /tmp/run/BENCH_kernels.json # one of them
//! bench_gate base.json new.json                  # one explicit pair
//! ```
//!
//! `BASE` and `NEW` are each a `BENCH_*.json` record or a directory of
//! them; a directory is paired with the other side by file name. There
//! are no flags: each metric carries the tolerance its writer recorded,
//! and the baseline's is the one applied.
//!
//! Exit status: 0 when every pair is within tolerance; 1 when a metric
//! regressed, a gated baseline metric is missing from the new record,
//! the scales differ, or a baseline record has no new record at all; 2
//! on usage/IO errors; 3 when a new record has no baseline (commit it
//! under `results/` once it is trusted).

use fedknow_bench::gate::{compare, read_bench_record};
use std::path::{Path, PathBuf};

const USAGE: &str = "bench_gate BASE NEW   (each a BENCH_*.json record or a directory of them)";

/// Exit code for "a new record exists but its baseline doesn't".
const EXIT_NO_BASELINE: i32 = 3;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let paths = fedknow_bench::positionals(&argv, USAGE).unwrap_or_else(|e| usage(&e));
    let [base, new] = paths[..] else {
        usage("expected exactly two paths");
    };
    let (mut failed, mut no_baseline) = (false, false);
    for (base, new) in pairs(Path::new(base), Path::new(new)) {
        if !base.exists() {
            println!("NO BASELINE: {} has no {}", new.display(), base.display());
            no_baseline = true;
        } else if !new.exists() {
            println!("NO NEW RECORD: {} has no {}", base.display(), new.display());
            failed = true;
        } else {
            let read = |path| read_bench_record(path).unwrap_or_else(|e| die(&e));
            let report = compare(&read(&base), &read(&new));
            print!("{}", report.render());
            failed |= report.failed();
        }
    }
    if failed {
        eprintln!(
            "bench_gate: FAILED — a record regressed, lost a gated metric or was not produced"
        );
        std::process::exit(1);
    }
    if no_baseline {
        eprintln!(
            "bench_gate: NO BASELINE — nothing committed to hold the new record to.\n  \
             fix: once the record is trusted, commit it under results/"
        );
        std::process::exit(EXIT_NO_BASELINE);
    }
    println!("bench_gate: all benchmarks within tolerance");
}

/// The (baseline, new) record paths to diff. A side that is a file is
/// itself, and names the record a directory on the other side must hold;
/// two directories pair on every `BENCH_*.json` name either one holds.
fn pairs(base: &Path, new: &Path) -> Vec<(PathBuf, PathBuf)> {
    let names = match [new, base].into_iter().find(|side| !side.is_dir()) {
        Some(file) => match file.file_name() {
            Some(name) => vec![PathBuf::from(name)],
            None => usage(&format!("{} names no record", file.display())),
        },
        None => {
            let mut names = [records_in(base), records_in(new)].concat();
            names.sort();
            names.dedup();
            names
        }
    };
    let side = |path: &Path, name: &Path| {
        if path.is_dir() {
            path.join(name)
        } else {
            path.to_path_buf()
        }
    };
    let pair = |name: &PathBuf| (side(base, name), side(new, name));
    names.iter().map(pair).collect()
}

/// The `BENCH_*.json` file names under `dir`.
fn records_in(dir: &Path) -> Vec<PathBuf> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    entries
        .flatten()
        .map(|e| PathBuf::from(e.file_name()))
        .filter(|name| {
            let name = name.to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect()
}

fn usage(msg: &str) -> ! {
    fedknow_bench::usage(USAGE, msg)
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2)
}
