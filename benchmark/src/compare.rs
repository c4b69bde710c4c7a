//! `compare <a.json> <b.json>`: did `b` regress against `a`?
//!
//! One row per (workload, end-to-end metric), judged against the bound
//! the benchmark fixes for that metric.

use crate::report::{Metric, ResultFile};
use fedknow_math::stats::quantile;
use std::path::Path;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's value.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

/// An end-to-end metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

/// The five end-to-end metrics and their bounds: `BENCHMARK.json`'s,
/// which are the contract's maximum wherever time or memory is read
/// (the reference container's clock shifts by a quarter for minutes at
/// a time). `BENCHMARK.json` can state only shares; accuracy, which is
/// bit-deterministic per (seed, seconds), is held to an absolute bound
/// here.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "client_rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    EndToEnd {
        name: "bytes_per_client_round",
        unit: "bytes",
        better: Better::Lower,
        bound: Bound::Relative(0.01),
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "fraction",
        better: Better::Higher,
        bound: Bound::Absolute(0.05),
    },
];

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The repetitions of `a` or `b` spread wider than the bound, and
    /// `b`'s do not all beat `a`'s: the two cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// How much worse `b` is, in the bound's terms (a share of `a` or
    /// the metric's unit); negative when `b` is better.
    pub worsening: f64,
    /// The widest repetition spread of the two, in the bound's terms.
    pub spread: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Judge candidate `b` against baseline `a` for one metric.
pub fn judge(spec: &EndToEnd, a: &Metric, b: &Metric) -> Row {
    let sign = match spec.better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let (scale, limit) = match spec.bound {
        Bound::Relative(share) => (a.value.abs(), share),
        Bound::Absolute(amount) => (1.0, amount),
    };
    let worsening = sign * (b.value - a.value) / scale;
    let iqr = |m: &Metric| (quantile(&m.samples, 0.75) - quantile(&m.samples, 0.25)) / scale;
    let spread = iqr(a).max(iqr(b));
    let worst = |m: &Metric| m.samples.iter().map(|&x| sign * x).fold(f64::MIN, f64::max);
    let best = |m: &Metric| m.samples.iter().map(|&x| sign * x).fold(f64::MAX, f64::min);
    let verdict = if spread > limit {
        if worst(b) < best(a) {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worsening > limit {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        a: a.value,
        b: b.value,
        worsening,
        spread,
        verdict,
    }
}

/// Compare two result files; prints the table and returns whether any
/// row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (ResultFile::read(a_path)?, ResultFile::read(b_path)?);
    for (file, path) in [(&a, a_path), (&b, b_path)] {
        if file.smoke {
            return Err(format!(
                "{} is a --smoke result: a wiring check, not a measurement",
                path.display()
            ));
        }
    }
    println!(
        "{:<18} {:<23} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    let mut any_worse = false;
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or_else(|| format!("{} has no workload {}", b_path.display(), wa.name))?;
        for spec in &END_TO_END {
            let find = |ms: &[Metric], path: &Path| {
                ms.iter()
                    .find(|m| m.name == spec.name)
                    .cloned()
                    .ok_or_else(|| format!("{}: {} has no {}", path.display(), wa.name, spec.name))
            };
            let row = judge(
                spec,
                &find(&wa.end_to_end, a_path)?,
                &find(&wb.end_to_end, b_path)?,
            );
            let show = |x: f64| match spec.bound {
                Bound::Relative(_) => format!("{:+.2}%", x * 100.0),
                Bound::Absolute(_) => format!("{x:+.4}"),
            };
            let limit = match spec.bound {
                Bound::Relative(s) | Bound::Absolute(s) => s,
            };
            println!(
                "{:<18} {:<23} {:>14.4} {:>14.4} {:>9} {:>8} {:>8}  {}",
                wa.name,
                spec.name,
                row.a,
                row.b,
                show(row.worsening),
                show(limit).trim_start_matches('+'),
                show(row.spread).trim_start_matches('+'),
                row.verdict.label()
            );
            any_worse |= row.verdict == Verdict::Worse;
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(samples: &[f64]) -> Metric {
        Metric {
            samples: samples.to_vec(),
            ..Metric::single("m", crate::stats::median(samples), "u")
        }
    }

    fn spec(better: Better, bound: Bound) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn relative_bound_respects_direction() {
        let up = spec(Better::Higher, Bound::Relative(0.10));
        let a = metric(&[100.0, 100.0, 100.0]);
        // Throughput down 9 %: inside the bound. Down 11 %: outside.
        assert_eq!(judge(&up, &a, &metric(&[91.0; 3])).verdict, Verdict::Ok);
        let row = judge(&up, &a, &metric(&[89.0; 3]));
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worsening - 0.11).abs() < 1e-12);
        // Up is never worse for a higher-is-better metric.
        assert_eq!(judge(&up, &a, &metric(&[150.0; 3])).verdict, Verdict::Ok);

        let down = spec(Better::Lower, Bound::Relative(0.10));
        assert_eq!(judge(&down, &a, &metric(&[109.0; 3])).verdict, Verdict::Ok);
        assert_eq!(
            judge(&down, &a, &metric(&[111.0; 3])).verdict,
            Verdict::Worse
        );
        assert_eq!(judge(&down, &a, &metric(&[50.0; 3])).verdict, Verdict::Ok);
    }

    #[test]
    fn absolute_bound_ignores_the_baseline_scale() {
        let acc = spec(Better::Higher, Bound::Absolute(0.05));
        let a = metric(&[0.46]);
        assert_eq!(judge(&acc, &a, &metric(&[0.42])).verdict, Verdict::Ok);
        let row = judge(&acc, &a, &metric(&[0.40]));
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worsening - 0.06).abs() < 1e-12);
        // 0.04 is 40 % of a 0.10 baseline and still inside 0.05 absolute.
        assert_eq!(
            judge(&acc, &metric(&[0.10]), &metric(&[0.06])).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let down = spec(Better::Lower, Bound::Relative(0.10));
        let noisy = metric(&[80.0, 100.0, 120.0]);
        // Medians equal, spread 20 %: cannot call it unchanged.
        assert_eq!(judge(&down, &noisy, &noisy).verdict, Verdict::Unresolved);
        // Worse on the median and noisy: still unresolved, not worse.
        assert_eq!(
            judge(&down, &noisy, &metric(&[100.0, 120.0, 140.0])).verdict,
            Verdict::Unresolved
        );
        // Every candidate sample beats every baseline sample.
        assert_eq!(
            judge(&down, &noisy, &metric(&[40.0, 50.0, 60.0])).verdict,
            Verdict::Ok
        );
        let up = spec(Better::Higher, Bound::Relative(0.10));
        assert_eq!(
            judge(&up, &noisy, &metric(&[130.0, 150.0, 170.0])).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn table_agrees_with_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = json
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end list");
        assert_eq!(listed.len(), END_TO_END.len());
        for (spec, entry) in END_TO_END.iter().zip(listed) {
            let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).expect("string field");
            assert_eq!(field("name"), spec.name);
            assert_eq!(field("unit"), spec.unit);
            let better = match spec.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(field("better"), better);
            if let Bound::Relative(share) = spec.bound {
                let bound = entry.get("bound").and_then(|v| v.as_f64()).expect("bound");
                assert_eq!(bound, share, "{}", spec.name);
            }
        }
    }
}
