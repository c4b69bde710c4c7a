//! The result file: what a run writes under `benchmark/out/` and what
//! `compare` reads back.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One named figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The reported figure.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
    /// The repetitions behind `value`, in run order (one entry for a
    /// figure read once).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A figure read once.
    pub fn single(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples: vec![value],
        }
    }
}

/// One output check and how it came out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values that failed it (empty when it held).
    pub detail: String,
}

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `fedknow_math::gemm::isa_name()`.
    pub isa: String,
    /// `fedknow_math::parallel::threads()`.
    pub kernel_threads: u64,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile and optimisation level of the build.
    pub profile: String,
    /// `git rev-parse HEAD` of the checkout, `unknown` outside one.
    pub git_commit: String,
    /// The `--seed`.
    pub seed: u64,
}

/// One workload's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
    /// Client-rounds attempted (the benchmark's operation).
    pub attempted: u64,
    /// Client-rounds that failed: every one of a workload with a failed
    /// check (a dropout and a run that returned `Err` are failed checks),
    /// none otherwise.
    pub failed: u64,
    /// Whether every output check held.
    pub correct: bool,
    /// The output checks.
    pub checks: Vec<Check>,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced run).
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    /// Record an output check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok: outcome.is_ok(),
            detail: outcome.err().unwrap_or_default(),
        });
    }

    /// Close the result: a failed check fails every operation of the
    /// workload.
    pub fn seal(&mut self) {
        self.correct = self.checks.iter().all(|c| c.ok);
        self.failed = if self.correct { 0 } else { self.attempted };
    }

    /// Fold another invocation's result for the same workload into this
    /// one (the end-to-end and the traced run are separate processes).
    pub fn absorb(&mut self, other: WorkloadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.checks.extend(other.checks);
        self.end_to_end.extend(other.end_to_end);
        self.per_layer.extend(other.per_layer);
    }
}

/// A result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Always `fedknow-ladder`.
    pub benchmark: String,
    /// Whether the workloads were shrunk to a wiring check. `compare`
    /// refuses such files.
    pub smoke: bool,
    /// Where and how it was measured.
    pub env: Env,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

/// `benchmark/out/`, the only directory the benchmark writes to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `text` to `benchmark/out/<file>` and return the path.
pub fn write_out(file: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, text)?;
    Ok(path)
}

impl ResultFile {
    /// Serialise and write to `benchmark/out/<file>`.
    pub fn write(&self, file: &str) -> Result<PathBuf, String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        write_out(file, &text).map_err(|e| format!("writing {file}: {e}"))
    }

    /// Read a result file back.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Print a metric table, one line per figure with its unit.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
