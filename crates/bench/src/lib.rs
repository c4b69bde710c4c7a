//! Experiment harness: the figure driver and what the bench binaries
//! share.
//!
//! * [`figures`] — every table and figure of the paper's evaluation as
//!   one driver (the `figures` binary, `--fig` picks which to run). Each
//!   builds its runs through [`scaled_spec`], prints human-readable
//!   tables, and writes machine-readable JSON under `--results DIR` —
//!   EXPERIMENTS.md is generated from those files.
//! * [`gate`] — the one [`BenchRecord`] every gated binary writes (a
//!   list of named metrics, each with its unit, direction and
//!   tolerance) and the one loop `bench_gate` diffs a pair with.
//! * [`report`] — the `obs report` view of a stream or a bundle.
//!
//! Every binary reads its flags through [`flag`] / [`positionals`] and
//! rejects what it does not know with its own usage line ([`usage`],
//! exit 2); the ones that write results take `--results DIR`
//! ([`results_flag`]) and write through [`write_json`].
//!
//! Scales: `smoke` is a seconds-long sanity pass, `quick` (default)
//! reproduces every curve's *shape* in minutes on one CPU core, and
//! `paper` uses the paper's task/client/round counts (hours; intended
//! for real hardware).

use fedknow_baselines::factory::MethodConfig;
use fedknow_data::DatasetSpec;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

pub mod figures;
pub mod gate;
pub mod report;

pub use gate::{compare, read_bench_record, BenchRecord, Better, Metric, Tol};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny structural sanity run.
    Smoke,
    /// Minutes: reduced counts, same curve shapes (default).
    Quick,
    /// The paper's counts (20+ clients, full task sequences).
    Paper,
}

impl Scale {
    /// The CLI name of this scale (inverse of [`Scale::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// What the `figures` driver takes.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected scale.
    pub scale: Scale,
    /// Experiment seed.
    pub seed: u64,
    /// Optional comma-separated dataset names — Fig. 4 runs these
    /// instead of its per-scale default set.
    pub only: Option<Vec<String>>,
    /// Which figures the driver runs (comma-separated ids of
    /// [`figures::FIGURES`]); all of them when absent.
    pub fig: Option<Vec<String>>,
    /// Optional transport backend: the `resilience` sweep runs over the
    /// actor runtime instead of the in-process simulator.
    pub transport: Option<fedknow_fl::TransportKind>,
    /// Where every figure file and gate record of the run is written.
    pub results: PathBuf,
}

/// The `figures` usage line.
pub const USAGE: &str = "figures [--fig id,id] [--scale smoke|quick|paper] [--seed N] \
     [--only a,b,c] [--transport channel|tcp|unix] [--results DIR]";

/// Parse the `figures` flags from `std::env::args`, with defaults
/// (`--scale quick --seed 42`). Exits 2 with [`USAGE`] on malformed input.
pub fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parse = || -> Result<Args, String> {
        flags_only(&argv, USAGE)?;
        let list = |name| {
            flag_with(&argv, name, |s| {
                Some(s.split(',').map(str::to_string).collect())
            })
        };
        Ok(Args {
            scale: flag_with(&argv, "--scale", Scale::parse)?.unwrap_or(Scale::Quick),
            seed: flag(&argv, "--seed")?.unwrap_or(42),
            only: list("--only")?,
            fig: list("--fig")?,
            transport: flag_with(&argv, "--transport", fedknow_fl::TransportKind::parse)?,
            results: results_flag(&argv)?,
        })
    };
    parse().unwrap_or_else(|e| usage(USAGE, &e))
}

/// The value following the flag `name`, through `parse`: `Ok(None)` when
/// the flag is absent, `Err` naming it when its value is missing or
/// `parse` refuses it. The one flag parser of the bench binaries.
pub fn flag_with<T>(
    argv: &[String],
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = argv.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = argv
        .get(i + 1)
        .ok_or_else(|| format!("{name} expects a value"))?;
    let parsed = parse(value).ok_or_else(|| format!("{name}: cannot use `{value}`"))?;
    Ok(Some(parsed))
}

/// [`flag_with`] for a value that parses through [`std::str::FromStr`].
pub fn flag<T: std::str::FromStr>(argv: &[String], name: &str) -> Result<Option<T>, String> {
    flag_with(argv, name, |s| s.parse().ok())
}

/// `--results DIR`, where a binary writes (or reads) its figure files
/// and gate records: `results` under the current directory by default.
pub fn results_flag(argv: &[String]) -> Result<PathBuf, String> {
    Ok(flag(argv, "--results")?.unwrap_or_else(|| PathBuf::from("results")))
}

/// What is left of `argv` once the flags `usage` lists are taken out —
/// the positional arguments. The usage line is the flag set: a `-x` or
/// `--x` token in it that closes its bracket (`[--smoke]`) is a bare
/// switch, any other takes the value after it (`[--seed N]`). An argument
/// starting with `-` that the line does not list is an error.
pub fn positionals<'a>(argv: &'a [String], usage: &str) -> Result<Vec<&'a str>, String> {
    let listed = |arg: &str| {
        let mut tokens = usage.split_whitespace().map(|t| t.trim_start_matches('['));
        tokens.find(|t| t.starts_with('-') && t.trim_end_matches(']') == arg)
    };
    let mut rest = Vec::new();
    let mut args = argv.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match listed(arg) {
            Some(switch) if switch.ends_with(']') => {}
            Some(_valued) => drop(args.next()),
            None if arg.starts_with('-') => return Err(format!("unknown flag {arg}")),
            None => rest.push(arg),
        }
    }
    Ok(rest)
}

/// [`positionals`] for a binary that takes none: the first is an error.
pub fn flags_only(argv: &[String], usage: &str) -> Result<(), String> {
    match positionals(argv, usage)?.first() {
        Some(stray) => Err(format!("unexpected argument {stray}")),
        None => Ok(()),
    }
}

/// Report a command-line error with the binary's usage line; exit 2.
pub fn usage(line: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: {line}");
    std::process::exit(2)
}

/// The architecture the paper pairs with each dataset: SixCNN for
/// CIFAR-100 / FC100 / CORe50, ResNet-18 for Mini/TinyImageNet (§V-A).
pub fn paper_model_for(dataset: &str) -> ModelKind {
    match dataset {
        "miniimagenet" | "tinyimagenet" => ModelKind::ResNet18,
        _ => ModelKind::SixCnn,
    }
}

/// The paper's aggregation-round counts per dataset (§V-B: 15, 15, 15,
/// 10, 5).
pub fn paper_rounds_for(dataset: &str) -> usize {
    match dataset {
        "miniimagenet" => 10,
        "tinyimagenet" => 5,
        _ => 15,
    }
}

/// Build a [`RunSpec`] for a dataset at the given scale.
pub fn scaled_spec(base: DatasetSpec, scale: Scale, seed: u64) -> RunSpec {
    let name = base.name.clone();
    let model = paper_model_for(&name);
    let (dataset, clients, rounds, iters) = match scale {
        Scale::Smoke => (base.scaled(0.25, 8).with_tasks(2), 2, 2, 4),
        Scale::Quick => (base.scaled(1.2, 8).with_tasks(4), 4, 3, 8),
        Scale::Paper => {
            let rounds = paper_rounds_for(&name);
            (base, 20, rounds, 25)
        }
    };
    RunSpec {
        dataset,
        model,
        width: 1.0,
        num_clients: clients,
        rounds_per_task: rounds,
        iters_per_round: iters,
        seed,
        method_cfg: MethodConfig::default(),
        faults: fedknow_fl::FaultConfig::default(),
    }
}

/// Write `value` as `dir/<name>.json` and announce the path — the one
/// writer of figure files and gate records. An existing file is
/// replaced, never rotated; one that cannot be written is fatal (exit 2,
/// naming the path).
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialise result");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("error: {} not written: {e}", path.display());
        std::process::exit(2);
    }
    println!("[written] {}", path.display());
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`); 0
/// where the platform has no `/proc/self/status`.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Print a fixed-width table: header plus rows of (label, values).
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<16}", "");
    for c in columns {
        print!("{c:>12}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<16}");
        for v in values {
            print!("{v:>12.4}");
        }
        println!();
    }
}

/// Human-readable nanoseconds: picks s/ms/µs/ns.
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Format a metric sample with the unit its name implies: `*_ns`
/// metrics are durations, anything else (e.g. `qp.iters`) is a plain
/// number.
pub fn fmt_metric(name: &str, value: u64) -> String {
    if name.ends_with("_ns") {
        fmt_ns(value)
    } else {
        value.to_string()
    }
}

/// A phase total as a share of wall time, for [`print_phase_table`]. Only
/// wall-clock durations have one: counts (`qp.iters`) and simulated
/// time (`comm.sim_transfer_ns`, `client.sim_compute_ns`) print `-`.
pub fn phase_share(name: &str, total_ns: u64, wall_ns: u64) -> String {
    if wall_ns > 0 && name.ends_with("_ns") && !name.contains(".sim_") {
        format!("{:.1}%", 100.0 * total_ns as f64 / wall_ns as f64)
    } else {
        "-".to_string()
    }
}

/// The phase table of `obs report` and [`print_phase_breakdown`]: the
/// `top` largest phases by total, each with its share of `wall`.
pub fn print_phase_table(mut phases: Vec<fedknow_fl::PhaseStat>, wall: u64, top: usize) {
    println!(
        "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
        "phase", "count", "total", "mean", "p50", "p99", "share"
    );
    phases.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
    for p in phases.into_iter().take(top) {
        println!(
            "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
            p.name,
            p.count,
            fmt_metric(&p.name, p.total_ns),
            fmt_metric(&p.name, p.mean_ns as u64),
            fmt_metric(&p.name, p.p50_ns),
            fmt_metric(&p.name, p.p99_ns),
            phase_share(&p.name, p.total_ns, wall),
        );
    }
}

/// Print a run's [`fedknow_fl::PhaseBreakdown`] as a per-phase summary
/// table — the single reporting path the bench binaries share with
/// `obs report`. Phase shares are relative to the `span.run_ns` wall
/// time; with parallel clients the phase totals can legitimately sum to
/// more than 100%.
pub fn print_phase_breakdown(b: &fedknow_fl::PhaseBreakdown) {
    let wall = b.phase("span.run_ns").map(|p| p.total_ns).unwrap_or(0);
    println!("\n== phase breakdown (wall {}) ==", fmt_ns(wall));
    let phases = b.phases.iter().filter(|p| !p.name.starts_with("span."));
    print_phase_table(phases.cloned().collect(), wall, usize::MAX);
    if !b.counters.is_empty() {
        println!("{:<28}{:>10}", "counter", "total");
        for (name, v) in &b.counters {
            println!("{name:<28}{v:>10}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn phase_share_is_for_wall_clock_time_only() {
        assert_eq!(phase_share("qp.solve_ns", 250, 1_000), "25.0%");
        assert_eq!(phase_share("comm.sim_transfer_ns", 4_620, 1_000), "-");
        assert_eq!(phase_share("qp.iters", 250, 1_000), "-");
        assert_eq!(phase_share("qp.solve_ns", 250, 0), "-");
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn paper_pairings_match_section_va() {
        assert_eq!(paper_model_for("cifar100"), ModelKind::SixCnn);
        assert_eq!(paper_model_for("core50"), ModelKind::SixCnn);
        assert_eq!(paper_model_for("miniimagenet"), ModelKind::ResNet18);
        assert_eq!(paper_model_for("tinyimagenet"), ModelKind::ResNet18);
        assert_eq!(paper_rounds_for("cifar100"), 15);
        assert_eq!(paper_rounds_for("miniimagenet"), 10);
        assert_eq!(paper_rounds_for("tinyimagenet"), 5);
    }

    #[test]
    fn paper_scale_keeps_full_structure() {
        let s = scaled_spec(DatasetSpec::tiny_imagenet(), Scale::Paper, 1);
        assert_eq!(s.dataset.num_tasks, 20);
        assert_eq!(s.num_clients, 20);
        assert_eq!(s.iters_per_round, 25);
    }

    #[test]
    fn quick_scale_shrinks() {
        let s = scaled_spec(DatasetSpec::cifar100(), Scale::Quick, 1);
        assert!(s.dataset.num_tasks <= 4);
        assert!(s.num_clients <= 4);
        assert_eq!(s.dataset.height, 8);
    }

    #[test]
    fn flags_parse_by_name_and_leftovers_are_positionals_or_errors() {
        let argv: Vec<String> = ["a.json", "--seed", "7", "--smoke", "b.json", "--top"]
            .map(String::from)
            .to_vec();
        assert_eq!(flag::<u64>(&argv, "--seed"), Ok(Some(7)));
        assert_eq!(flag::<u64>(&argv, "--reps"), Ok(None));
        assert!(flag::<u64>(&argv, "--top").unwrap_err().contains("--top"));
        let bad = flag_with(&argv, "--seed", Scale::parse).unwrap_err();
        assert!(bad.contains("--seed") && bad.contains('7'), "{bad}");
        assert_eq!(results_flag(&argv), Ok(PathBuf::from("results")));
        let usage = "bin <file...> [--smoke] [--seed N | --top K]";
        assert_eq!(positionals(&argv, usage), Ok(vec!["a.json", "b.json"]));
        let unknown = positionals(&argv, "bin [--seed N] [--top K]").unwrap_err();
        assert!(unknown.contains("--smoke"), "{unknown}");
    }
}

/// One microbenchmarked kernel/shape point from `kernel_bench`:
/// modelled work (via `fedknow_math::flops`), min-of-k wall time, and
/// the derived roofline coordinates. `results/kernels.json` is a list
/// of these; `obs roofline` draws the roofline from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelEntry {
    /// Kernel name, matching the `flops.<kernel>` counter namespace
    /// (`matmul`, `conv2d_fwd`, `qp`, …).
    pub kernel: String,
    /// Human-readable shape tag (`128x128x128`, `b8 3->32 k3 s1 p1 32x32`).
    pub shape: String,
    /// Modelled FLOPs for one invocation.
    pub flops: u64,
    /// Modelled bytes moved for one invocation.
    pub bytes: u64,
    /// Fastest observed invocation, nanoseconds (min-of-k).
    pub min_ns: u64,
    /// Achieved GFLOP/s at the fastest invocation.
    pub gflops: f64,
    /// Arithmetic intensity, FLOPs per byte.
    pub intensity: f64,
}

/// One method's curves from a finished run — the unit every figure's
/// JSON output is built from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodCurve {
    /// Method name.
    pub method: String,
    /// Average accuracy over learned tasks, per task step.
    pub accuracy: Vec<f64>,
    /// Average forgetting rate, per task step.
    pub forgetting: Vec<f64>,
    /// Cumulative simulated training time (compute + comm), seconds.
    pub cumulative_time: Vec<f64>,
    /// Total simulated communication seconds.
    pub comm_seconds: f64,
    /// Total bytes on the wire.
    pub total_bytes: u64,
    /// Clients that dropped out (OOM).
    pub dropouts: usize,
}

impl MethodCurve {
    /// Summarise a simulation report.
    pub fn from_report(r: &fedknow_fl::SimReport) -> Self {
        Self {
            method: r.method.clone(),
            accuracy: r.accuracy.accuracy_curve(),
            forgetting: r.accuracy.forgetting_curve(),
            cumulative_time: r.cumulative_time(),
            comm_seconds: r.total_comm_seconds(),
            total_bytes: r.total_bytes,
            dropouts: r.dropouts.len(),
        }
    }

    /// Final average accuracy.
    pub fn final_accuracy(&self) -> f64 {
        *self.accuracy.last().unwrap_or(&0.0)
    }
}
