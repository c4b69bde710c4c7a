//! Normalized benchmark records and the regression gate.
//!
//! A [`BenchRecord`] is a named list of [`Metric`]s, each carrying its
//! own unit, direction and tolerance, written as
//! `results/BENCH_<name>.json`; the previous record (if any) is rotated
//! to `BENCH_<name>.prev.json`. The `bench_gate` binary diffs the pair
//! metric by metric and exits non-zero when one moved past its
//! tolerance in its bad direction — cheap CI insurance that a change
//! didn't silently cost accuracy, throughput or memory.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// A drop past tolerance is a regression (accuracy, GF/s).
    Higher,
    /// A rise past tolerance is a regression (forgetting, seconds, bytes).
    Lower,
    /// Context only — recorded, never gated.
    Info,
}

/// How far a metric may move in its bad direction before the gate fails.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Tol {
    /// Absolute difference (fractions living in `[0, 1]`).
    Abs(f64),
    /// Fraction of the baseline value (0.5 = may move by half of it);
    /// a zero baseline is never divided by and never regresses.
    Rel(f64),
}

/// One measured quantity of a benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// What was measured; the gate pairs metrics across records by it.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Unit of `value` (`fraction`, `s`, `ns`, `GF/s`, `bytes`, …).
    pub unit: String,
    /// Direction of goodness.
    pub better: Better,
    /// Allowed movement in the bad direction (unused for [`Better::Info`]).
    pub tol: Tol,
}

impl Metric {
    /// A metric gated in direction `better` within `tol`.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, better: Better, tol: Tol) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.to_string(),
            better,
            tol,
        }
    }

    /// An ungated context metric.
    pub fn info(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self::new(name, value, unit, Better::Info, Tol::Abs(0.0))
    }
}

/// A normalized, diffable summary of one benchmark run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark name (`fig4_cifar100`, `kernels`, …).
    pub name: String,
    /// Scale the run used (`smoke`/`quick`/`paper`) — records at
    /// different scales are never comparable.
    pub scale: String,
    /// Experiment seed.
    pub seed: u64,
    /// Everything the run measured.
    pub metrics: Vec<Metric>,
}

impl BenchRecord {
    /// A record of `metrics` for the run `name` at `scale` and `seed`.
    pub fn new(name: &str, scale: &str, seed: u64, metrics: Vec<Metric>) -> Self {
        Self {
            name: name.to_string(),
            scale: scale.to_string(),
            seed,
            metrics,
        }
    }

    /// Distil a finished simulation report: final average accuracy and
    /// forgetting, real wall seconds, and (when the observability layer
    /// was on) the name-sorted phase totals as context.
    pub fn from_report(
        name: &str,
        scale: &str,
        seed: u64,
        report: &fedknow_fl::SimReport,
        wall_seconds: f64,
    ) -> Self {
        let last = |curve: Vec<f64>| curve.last().copied().unwrap_or(0.0);
        let (accuracy, forgetting) = (
            last(report.accuracy.accuracy_curve()),
            last(report.accuracy.forgetting_curve()),
        );
        use {Better::*, Tol::*};
        let mut metrics = vec![
            Metric::new("final_accuracy", accuracy, "fraction", Higher, Abs(0.02)),
            Metric::new("final_forgetting", forgetting, "fraction", Lower, Abs(0.02)),
            // Generous: CI machines are noisy.
            Metric::new("wall_seconds", wall_seconds, "s", Lower, Rel(0.5)),
        ];
        // Name-sorted already: a breakdown is built from a `BTreeMap`.
        let phases = report.phase_breakdown.iter().flat_map(|b| &b.phases);
        metrics.extend(
            phases
                .filter(|p| p.name.ends_with("_ns"))
                .map(|p| Metric::info(p.name.as_str(), p.total_ns as f64, "ns")),
        );
        Self::new(name, scale, seed, metrics)
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Where `BENCH_<name>.json` lives under a results directory.
pub fn bench_record_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("BENCH_{name}.json"))
}

/// Write `dir/BENCH_<name>.json`, first rotating any existing record to
/// `BENCH_<name>.prev.json` so the gate has a pair to diff, and
/// announce the path. A record that cannot be written is fatal (exit
/// 2), like a figure file that cannot be.
pub fn write_bench_record(dir: &Path, rec: &BenchRecord) {
    let path = bench_record_path(dir, &rec.name);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        if path.exists() {
            std::fs::rename(&path, dir.join(format!("BENCH_{}.prev.json", rec.name)))?;
        }
        let json = serde_json::to_string_pretty(rec).expect("serialise bench record");
        std::fs::write(&path, json)
    };
    if let Err(e) = write() {
        eprintln!("[bench] {} not written: {e}", path.display());
        std::process::exit(2);
    }
    println!("[bench] {}", path.display());
}

/// Read a record back; errors carry the path for usable CLI messages.
/// A file in an older record shape (no `metrics` list) is an error, not
/// an empty record that would gate nothing.
pub fn read_bench_record(path: &Path) -> Result<BenchRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| {
        format!(
            "parse {}: {e}\n  not a {{name, scale, seed, metrics}} record — \
             regenerate it with the binary that writes it",
            path.display()
        )
    })
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Metric name.
    pub metric: String,
    /// Previous value.
    pub prev: f64,
    /// New value.
    pub new: f64,
    /// Whether the change exceeds its tolerance in the bad direction.
    pub regressed: bool,
}

/// The diff of one record pair.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Benchmark name.
    pub name: String,
    /// Pair-level problems (scale mismatch) that make the diff moot.
    pub incomparable: Option<String>,
    /// Per-metric comparisons.
    pub findings: Vec<Finding>,
}

impl GateReport {
    /// True when any metric regressed past tolerance.
    pub fn regressed(&self) -> bool {
        self.findings.iter().any(|f| f.regressed)
    }

    /// Human-readable diff, one line per metric.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.name);
        if let Some(why) = &self.incomparable {
            out.push_str(&format!("  SKIPPED: {why}\n"));
            return out;
        }
        for f in &self.findings {
            let delta = f.new - f.prev;
            let tag = if f.regressed {
                "REGRESSION"
            } else if delta == 0.0 {
                "unchanged"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {:<18} {:>12.4} -> {:>12.4}  ({:+.4})  {tag}\n",
                f.metric, f.prev, f.new, delta
            ));
        }
        out
    }
}

/// Diff two records: every gated baseline metric the new record also
/// carries is held to the *baseline's* tolerance. Metrics only one side
/// has (a new kernel shape, a reshaped probe) are a different
/// experiment, not a regression, and are skipped.
pub fn compare(prev: &BenchRecord, new: &BenchRecord) -> GateReport {
    if prev.scale != new.scale {
        return GateReport {
            name: new.name.clone(),
            incomparable: Some(format!(
                "scale changed {} -> {}; records not comparable",
                prev.scale, new.scale
            )),
            findings: Vec::new(),
        };
    }
    let mut findings = Vec::new();
    for p in &prev.metrics {
        let Some(n) = new.metric(&p.name) else {
            continue;
        };
        let worse_by = match p.better {
            Better::Higher => p.value - n.value,
            Better::Lower => n.value - p.value,
            Better::Info => continue,
        };
        findings.push(Finding {
            metric: p.name.clone(),
            prev: p.value,
            new: n.value,
            regressed: match p.tol {
                Tol::Abs(t) => worse_by > t,
                Tol::Rel(t) => p.value > 0.0 && worse_by / p.value > t,
            },
        });
    }
    GateReport {
        name: new.name.clone(),
        incomparable: None,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(metrics: Vec<Metric>) -> BenchRecord {
        BenchRecord::new("fig4_cifar100", "smoke", 42, metrics)
    }

    fn sim_record(acc: f64, forget: f64, wall: f64) -> BenchRecord {
        use {Better::*, Tol::*};
        record(vec![
            Metric::new("final_accuracy", acc, "fraction", Higher, Abs(0.02)),
            Metric::new("final_forgetting", forget, "fraction", Lower, Abs(0.02)),
            Metric::new("wall_seconds", wall, "s", Lower, Rel(0.5)),
            Metric::info("qp.solve_ns", 12345.0, "ns"),
        ])
    }

    /// Direction x tolerance kind x movement, one row each. `None`
    /// means the metric must produce no finding at all.
    #[test]
    fn every_direction_tolerance_and_movement() {
        use Better::{Higher, Info, Lower};
        use Tol::{Abs, Rel};
        let cases: &[(Better, Tol, f64, f64, Option<bool>)] = &[
            // better / within tolerance / past tolerance / zero baseline
            (Higher, Abs(0.02), 0.50, 0.60, Some(false)),
            (Higher, Abs(0.02), 0.50, 0.485, Some(false)),
            (Higher, Abs(0.02), 0.50, 0.47, Some(true)),
            (Higher, Abs(0.02), 0.0, -0.5, Some(true)),
            (Higher, Rel(0.5), 4.0, 5.0, Some(false)),
            (Higher, Rel(0.5), 4.0, 3.2, Some(false)),
            (Higher, Rel(0.5), 4.0, 1.5, Some(true)),
            (Higher, Rel(0.5), 0.0, -9.0, Some(false)),
            (Lower, Abs(0.02), 0.10, 0.05, Some(false)),
            (Lower, Abs(0.02), 0.10, 0.11, Some(false)),
            (Lower, Abs(0.02), 0.10, 0.15, Some(true)),
            (Lower, Abs(0.02), 0.0, 0.5, Some(true)),
            (Lower, Rel(0.5), 10.0, 9.0, Some(false)),
            (Lower, Rel(0.5), 10.0, 11.0, Some(false)),
            (Lower, Rel(0.5), 10.0, 16.0, Some(true)),
            (Lower, Rel(0.5), 0.0, 100.0, Some(false)),
            // Info is recorded, never compared, whichever way it moves.
            (Info, Abs(0.0), 1.0, 100.0, None),
            (Info, Rel(0.0), 100.0, 1.0, None),
        ];
        for &(better, tol, prev, new, expect) in cases {
            let metric = |name: &str, value| Metric::new(name, value, "u", better, tol);
            let r = compare(
                &record(vec![metric("m", prev)]),
                &record(vec![metric("m", new)]),
            );
            let got = r.findings.first().map(|f| f.regressed);
            assert_eq!(
                got,
                expect,
                "{better:?} {tol:?} {prev} -> {new}: {}",
                r.render()
            );
            assert_eq!(r.regressed(), expect == Some(true));
            // The same movement under another name is a different
            // experiment: skipped, never failed.
            let renamed = compare(
                &record(vec![metric("m [20000x3]", prev)]),
                &record(vec![metric("m [7x3]", new)]),
            );
            assert!(renamed.findings.is_empty(), "{}", renamed.render());
        }
    }

    #[test]
    fn the_baseline_tolerance_is_the_one_applied() {
        let gflops =
            |value, tol| record(vec![Metric::new("g", value, "GF/s", Better::Higher, tol)]);
        let (tight, loose) = (gflops(4.0, Tol::Rel(0.1)), gflops(3.0, Tol::Rel(0.9)));
        assert!(compare(&tight, &loose).regressed());
        assert!(!compare(&loose, &tight).regressed());
    }

    #[test]
    fn five_percent_accuracy_drop_regresses_by_name() {
        let r = compare(&sim_record(0.60, 0.1, 10.0), &sim_record(0.57, 0.1, 10.0));
        assert!(r.regressed());
        assert!(r.render().contains("REGRESSION"), "{}", r.render());
        assert!(r.render().contains("final_accuracy"));
        assert!(!r.render().contains("qp.solve_ns"), "Info is not rendered");
    }

    #[test]
    fn scale_mismatch_is_incomparable_not_regressed() {
        let mut newer = sim_record(0.1, 0.9, 99.0);
        newer.scale = "quick".to_string();
        let r = compare(&sim_record(0.6, 0.1, 1.0), &newer);
        assert!(!r.regressed());
        assert!(r.render().contains("SKIPPED"));
    }

    #[test]
    fn record_json_roundtrip() {
        let r = sim_record(0.5, 0.125, 10.5);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, r.name);
        assert_eq!(back.metrics, r.metrics);
    }

    #[test]
    fn write_rotates_previous_record() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("gate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_bench_record(&dir, &sim_record(0.5, 0.1, 10.0));
        write_bench_record(&dir, &sim_record(0.6, 0.1, 10.0));
        let acc = |file: &str| {
            let rec = read_bench_record(&dir.join(file)).unwrap();
            rec.metric("final_accuracy").unwrap().value
        };
        assert_eq!(acc("BENCH_fig4_cifar100.json"), 0.6);
        assert_eq!(acc("BENCH_fig4_cifar100.prev.json"), 0.5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
