//! Normalized benchmark records and the regression gate.
//!
//! A [`BenchRecord`] is a named list of [`Metric`]s, each carrying its
//! own unit, direction and tolerance, written as `BENCH_<name>.json`
//! under the run's `--results DIR`. The records committed under
//! `results/` are the baseline: the `bench_gate` binary diffs a fresh
//! record against the committed one metric by metric and exits non-zero
//! when one moved past its tolerance in its bad direction, or is gone —
//! cheap CI insurance that a change didn't silently cost accuracy or
//! throughput.

use serde::{Deserialize, Serialize};
use std::path::Path;

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
    /// forgetting are gated; real wall seconds are context — wall clock
    /// across machines is noise, the ladder benchmark judges it on one
    /// machine in alternated pairs.
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
        let metrics = vec![
            Metric::new("final_accuracy", accuracy, "fraction", Higher, Abs(0.02)),
            Metric::new("final_forgetting", forgetting, "fraction", Lower, Abs(0.02)),
            Metric::info("wall_seconds", wall_seconds, "s"),
        ];
        Self::new(name, scale, seed, metrics)
    }

    /// Write the record as `dir/BENCH_<name>.json` through
    /// [`crate::write_json`].
    pub fn write(&self, dir: &Path) {
        crate::write_json(dir, &format!("BENCH_{}", self.name), self)
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
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
    /// Baseline value.
    pub prev: f64,
    /// New value; `None` when the new record no longer carries the metric.
    pub new: Option<f64>,
    /// Whether the metric is gone, or moved past its tolerance in the
    /// bad direction.
    pub regressed: bool,
}

/// The diff of one record pair.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Benchmark name.
    pub name: String,
    /// A pair-level failure (scale mismatch) that makes the diff moot.
    pub incomparable: Option<String>,
    /// Per-metric comparisons.
    pub findings: Vec<Finding>,
}

impl GateReport {
    /// True when the pair is incomparable, or any gated baseline metric
    /// is missing or regressed past tolerance.
    pub fn failed(&self) -> bool {
        self.incomparable.is_some() || self.findings.iter().any(|f| f.regressed)
    }

    /// Human-readable diff, one line per metric.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.name);
        if let Some(why) = &self.incomparable {
            out.push_str(&format!("  INCOMPARABLE: {why}\n"));
            return out;
        }
        for f in &self.findings {
            let Some(new) = f.new else {
                let (metric, prev) = (&f.metric, f.prev);
                out.push_str(&format!("  {metric:<18} {prev:>12.4} -> MISSING\n"));
                continue;
            };
            let delta = new - f.prev;
            let tag = if f.regressed {
                "REGRESSION"
            } else if delta == 0.0 {
                "unchanged"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {:<18} {:>12.4} -> {:>12.4}  ({:+.4})  {tag}\n",
                f.metric, f.prev, new, delta
            ));
        }
        out
    }
}

/// Diff two records: every gated baseline metric is held to the
/// *baseline's* tolerance, and one the new record lacks fails like a
/// regression — a check that stopped running must not pass. Records at
/// different scales fail as a pair. Metrics only the new record has are
/// not compared until they are in a committed baseline.
pub fn compare(prev: &BenchRecord, new: &BenchRecord) -> GateReport {
    let mut report = GateReport {
        name: new.name.clone(),
        incomparable: None,
        findings: Vec::new(),
    };
    if prev.scale != new.scale {
        report.incomparable = Some(format!(
            "scale changed {} -> {}; records not comparable",
            prev.scale, new.scale
        ));
        return report;
    }
    for p in prev.metrics.iter().filter(|p| p.better != Better::Info) {
        let new = new.metric(&p.name).map(|n| n.value);
        let worse_by = new.map(|n| match p.better {
            Better::Higher => p.value - n,
            _ => n - p.value,
        });
        let regressed = match (worse_by, p.tol) {
            (None, _) => true,
            (Some(w), Tol::Abs(t)) => w > t,
            (Some(w), Tol::Rel(t)) => p.value > 0.0 && w / p.value > t,
        };
        report.findings.push(Finding {
            metric: p.name.clone(),
            prev: p.value,
            new,
            regressed,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(metrics: Vec<Metric>) -> BenchRecord {
        BenchRecord::new("fig4_cifar100", "smoke", 42, metrics)
    }

    fn sim_record(acc: f64, forget: f64, wall: f64) -> BenchRecord {
        use {Better::*, Tol::Abs};
        record(vec![
            Metric::new("final_accuracy", acc, "fraction", Higher, Abs(0.02)),
            Metric::new("final_forgetting", forget, "fraction", Lower, Abs(0.02)),
            Metric::info("wall_seconds", wall, "s"),
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
            assert_eq!(r.failed(), expect == Some(true));
            // Under another name the baseline's metric is gone from the
            // new record: a gated one fails however the value moved, and
            // the new record's extra metric is not compared.
            let renamed = compare(
                &record(vec![metric("m [20000x3]", prev)]),
                &record(vec![metric("m [7x3]", new)]),
            );
            assert_eq!(renamed.failed(), better != Info, "{}", renamed.render());
            let mut names = renamed.findings.iter().map(|f| &*f.metric);
            assert!(names.all(|n| n == "m [20000x3]"), "{}", renamed.render());
        }
    }

    #[test]
    fn the_baseline_tolerance_is_the_one_applied() {
        let gflops =
            |value, tol| record(vec![Metric::new("g", value, "GF/s", Better::Higher, tol)]);
        let (tight, loose) = (gflops(4.0, Tol::Rel(0.1)), gflops(3.0, Tol::Rel(0.9)));
        assert!(compare(&tight, &loose).failed());
        assert!(!compare(&loose, &tight).failed());
    }

    #[test]
    fn five_percent_accuracy_drop_regresses_by_name() {
        let r = compare(&sim_record(0.60, 0.1, 10.0), &sim_record(0.57, 0.1, 10.0));
        assert!(r.failed());
        assert!(r.render().contains("REGRESSION"), "{}", r.render());
        assert!(r.render().contains("final_accuracy"));
        assert!(!r.render().contains("qp.solve_ns"), "Info is not rendered");
    }

    #[test]
    fn scale_mismatch_is_incomparable_and_fails() {
        let mut newer = sim_record(0.9, 0.0, 1.0);
        newer.scale = "quick".to_string();
        let r = compare(&sim_record(0.6, 0.1, 1.0), &newer);
        assert!(r.failed());
        assert!(r.findings.is_empty());
        assert!(r.render().contains("smoke -> quick"), "{}", r.render());
    }

    #[test]
    fn a_report_gates_accuracy_and_forgetting_and_records_wall_as_context() {
        let report = fedknow_suite::RunSpec::quick(7)
            .run(fedknow_baselines::Method::FedAvg)
            .expect("simulation");
        let rec = BenchRecord::from_report("x", "quick", 7, &report, 1.5);
        let gated: Vec<&str> = rec
            .metrics
            .iter()
            .filter(|m| m.better != Better::Info)
            .map(|m| &*m.name)
            .collect();
        assert_eq!(gated, ["final_accuracy", "final_forgetting"]);
        assert_eq!(rec.metric("wall_seconds").map(|m| m.value), Some(1.5));
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
    fn write_replaces_the_record_and_rotates_nothing() {
        let dir = std::env::temp_dir().join(format!("gate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sim_record(0.5, 0.1, 10.0).write(&dir);
        sim_record(0.6, 0.1, 10.0).write(&dir);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let rec = read_bench_record(&files[0].path()).unwrap();
        assert_eq!(files[0].file_name(), "BENCH_fig4_cifar100.json");
        assert_eq!(rec.metric("final_accuracy").unwrap().value, 0.6);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
