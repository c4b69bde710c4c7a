//! The `obs report` view of a recording (a `FEDKNOW_OBS` stream or a
//! postmortem bundle): where the time went, by phase and by span, and
//! what the training run did. Each table appears once, and only when
//! the recording holds its data:
//!
//! * **context** — how a bundle was recorded (seed, method, `obs.*`).
//! * **phases** — every sampled metric (`qp.solve_ns`, `conv.fwd_ns`,
//!   …): count, total, mean, exact p50/p99, and share of wall-time
//!   (the `run` span; `-` for counts and for simulated `*.sim_*` time).
//!   With parallel clients, shares can sum past 100%.
//! * **spans** — the run hierarchy rolled up by shape (`task.3` →
//!   `task.*`), with the kernel FLOPs of the whole subtree (work on
//!   other threads included) as achieved GFLOP/s and heap allocations.
//! * **kernel totals** — `flops.*` / `bytes.*` per kernel.
//! * **faults** — injected faults by kind, participation, verify
//!   violations, wire frames, notes.
//! * **forgetting** / **trajectories** — per-task heat strips and
//!   per-round sparklines of the learning dynamics.
//! * **counters** — every other monotonic total.

use std::collections::BTreeMap;

use fedknow_obs::{Aggregate, Recording, SpanStat};

use crate::{fmt_metric, fmt_ns, phase_share};

/// Print the report for `rec`, keeping the `top` largest rows of the
/// phase and span tables.
pub fn print(rec: &Recording, top: usize) {
    let agg = Aggregate::from_records(rec);
    let (wall, wall_note) = wall_ns(rec, &agg);
    println!(
        "records     {} on {} threads",
        agg.records,
        rec.tracks.len()
    );
    println!("wall time   {}{wall_note}", fmt_ns(wall));
    if agg.dropped > 0 {
        println!(
            "window      the rings overwrote {} older records: every total covers the \
             retained window only",
            agg.dropped
        );
    }
    if !rec.context.is_empty() {
        println!("\n== context ==");
        for e in &rec.context {
            let value: String = e.value.chars().take(96).collect();
            println!("  {:<20} {value}", e.key);
        }
    }
    print_phases(&agg, wall, top);
    print_spans(&agg, wall, top);
    print_kernels(&agg);
    print_faults(&agg);
    print_forgetting(&agg);
    print_trajectories(&agg);
    print_counters(&agg);
}

/// Wall time: the closed `run` spans. A recording without one — a
/// bundle dumped mid-run (on a violation, a fault, a panic), or the
/// chaos probe, which drives the engine without a `run` span — spans
/// its first to last record instead, and the report says so.
fn wall_ns(rec: &Recording, agg: &Aggregate) -> (u64, &'static str) {
    if let Some(run) = agg.spans.get("run") {
        return (run.total_ns, "");
    }
    let stamps = || rec.tracks.iter().flat_map(|t| &t.events).map(|r| r.ts_ns);
    let window = stamps().max().unwrap_or(0) - stamps().min().unwrap_or(0);
    (window, " (no closed `run` span: first to last record)")
}

/// One row of the phase table: a sampled metric's exact totals.
struct PhaseRow<'a> {
    name: &'a str,
    count: u64,
    total: u64,
    p50: u64,
    p99: u64,
}

fn print_phases(agg: &Aggregate, wall: u64, top: usize) {
    if agg.samples.is_empty() {
        return;
    }
    println!("\n== phases (share of wall; parallel phases may exceed 100%) ==");
    let mut rows: Vec<PhaseRow> = agg
        .samples
        .iter()
        .map(|(name, xs)| PhaseRow {
            name,
            count: xs.len() as u64,
            total: xs.iter().sum(),
            p50: agg.quantile(name, 0.5).unwrap_or(0),
            p99: agg.quantile(name, 0.99).unwrap_or(0),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total));
    println!(
        "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
        "phase", "count", "total", "mean", "p50", "p99", "share"
    );
    for r in rows.into_iter().take(top) {
        println!(
            "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
            r.name,
            r.count,
            fmt_metric(r.name, r.total),
            fmt_metric(r.name, r.total / r.count.max(1)),
            fmt_metric(r.name, r.p50),
            fmt_metric(r.name, r.p99),
            phase_share(r.name, r.total, wall),
        );
    }
}

fn print_spans(agg: &Aggregate, wall: u64, top: usize) {
    let rolled = rollup_spans(&agg.spans);
    if rolled.is_empty() {
        return;
    }
    // The `top` longest rows, back in tree (path) order.
    let mut rows: Vec<(&String, &SpanStat)> = rolled.iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
    rows.truncate(top);
    rows.sort_by_key(|&(path, _)| path);
    println!("\n== spans (rolled up: task.3 -> task.*; work on other threads included) ==");
    println!(
        "{:<40}{:>10}{:>12}{:>12}{:>8}{:>8}{:>10}{:>12}",
        "span path", "count", "total", "mean", "share", "GF/s", "allocs", "alloc bytes"
    );
    for (path, stat) in rows {
        let share = if wall > 0 {
            100.0 * stat.total_ns as f64 / wall as f64
        } else {
            0.0
        };
        let gflops = stat
            .gflops_per_sec()
            .map_or_else(|| format!("{:>8}", "-"), |g| format!("{g:>8.3}"));
        println!(
            "{:<40}{:>10}{:>12}{:>12}{:>7.1}%{gflops}{:>10}{:>12}",
            path,
            stat.count,
            fmt_ns(stat.total_ns),
            fmt_ns(stat.total_ns / stat.count.max(1)),
            share,
            stat.allocs,
            stat.alloc_bytes,
        );
    }
}

/// Merge span paths that differ only in trailing indices: every segment
/// `name.<digits>` becomes `name.*`, so `run/task.0/round.2/client.1`
/// and `run/task.1/round.0/client.3` aggregate into one row.
fn rollup_spans(spans: &BTreeMap<String, SpanStat>) -> BTreeMap<String, SpanStat> {
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (path, stat) in spans {
        let rolled: Vec<String> = path.split('/').map(normalize_segment).collect();
        let entry = out.entry(rolled.join("/")).or_default();
        entry.count += stat.count;
        entry.total_ns += stat.total_ns;
        entry.flops += stat.flops;
        entry.bytes += stat.bytes;
        entry.allocs += stat.allocs;
        entry.alloc_bytes += stat.alloc_bytes;
    }
    out
}

fn normalize_segment(seg: &str) -> String {
    match seg.rsplit_once('.') {
        Some((name, idx)) if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) => {
            format!("{name}.*")
        }
        _ => seg.to_string(),
    }
}

fn print_kernels(agg: &Aggregate) {
    let mut kernels: Vec<(&str, u64, u64)> = agg
        .counters
        .iter()
        .filter_map(|(name, &f)| {
            let kernel = name.strip_prefix("flops.")?;
            Some((kernel, f, agg.counter(&format!("bytes.{kernel}"))))
        })
        .collect();
    if kernels.is_empty() {
        return;
    }
    kernels.sort_by_key(|&(_, f, _)| std::cmp::Reverse(f));
    println!("\n== kernel totals ==");
    println!(
        "{:<16}{:>16}{:>16}{:>12}",
        "kernel", "flops", "bytes", "flops/byte"
    );
    for (kernel, f, b) in kernels {
        let ai = if b > 0 { f as f64 / b as f64 } else { 0.0 };
        println!("{kernel:<16}{f:>16}{b:>16}{ai:>12.3}");
    }
}

/// Injected faults by kind, the participation trace, verify
/// violations, wire frames and notes. Silent for a clean run.
fn print_faults(agg: &Aggregate) {
    let participation = agg.series.get("fl.participation");
    let degraded = participation.is_some_and(|pts| pts.iter().any(|&(_, v)| v < 1.0));
    let frames = agg.counter("transport.frames");
    let dropped = agg.counter("transport.frames_dropped");
    if agg.faults.is_empty()
        && agg.violations.is_empty()
        && agg.notes.is_empty()
        && dropped == 0
        && !degraded
    {
        return;
    }
    println!("\n== faults (fault injection, violations, notes) ==");
    let row = |label: &str, value: &dyn std::fmt::Display| println!("  {label:<24} {value}");
    for (kind, n) in &agg.faults {
        row(&format!("fault {kind}"), n);
    }
    if let Some(points) = participation {
        let vals = round_means(points);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let line = format!(
            "{}  min {:.0}%  rounds {}",
            sparkline(&vals),
            100.0 * min,
            vals.len()
        );
        row("participation", &line);
    }
    for (check, detail) in &agg.violations {
        row(&format!("violation {check}"), detail);
    }
    if frames > 0 {
        row("wire frames", &format!("{frames} sent  {dropped} dropped"));
    }
    for note in &agg.notes {
        row("note", note);
    }
}

/// The per-task forgetting heat strip. Row `task k`, column `after m`:
/// forgetting of task `k` measured after learning task `m` (blank for
/// zero, `·` before the task exists).
fn print_forgetting(agg: &Aggregate) {
    let tasks: Vec<(usize, &Vec<(u64, f64)>)> = agg
        .series
        .iter()
        .filter_map(|(name, pts)| {
            let k = name.strip_prefix("fl.forgetting.task")?.parse().ok()?;
            Some((k, pts))
        })
        .collect();
    if tasks.is_empty() {
        return;
    }
    let steps = 1 + tasks
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(m, _)| m as usize))
        .max()
        .unwrap_or(0);
    println!(
        "\n== forgetting by task (rows: task, cols: after task 0..{}) ==",
        steps - 1
    );
    println!("   scale 0..1:  ' ' none  ░ <=25%  ▒ <=50%  ▓ <=75%  █ >75%  · not learned yet");
    for (k, pts) in &tasks {
        let by_step = mean_per_index(pts);
        let cells: Vec<Option<f64>> = (0..steps)
            .map(|m| {
                if m < *k {
                    None
                } else {
                    by_step
                        .iter()
                        .find(|&&(i, _)| i as usize == m)
                        .map(|&(_, v)| v)
                }
            })
            .collect();
        let last = cells.iter().flatten().last().copied().unwrap_or(0.0);
        println!(
            "  task {k:<3} |{}|  final {:>5.1}%",
            heat_strip(&cells, 1.0),
            100.0 * last
        );
    }
    if let Some(avg) = agg.series.get("fl.avg_forgetting") {
        let vals = round_means(avg);
        println!("  avg      {}  (per task step)", sparkline(&vals));
    }
}

/// Per-round trajectory sparklines for the learning-dynamics series.
fn print_trajectories(agg: &Aggregate) {
    let rows: [(&str, &str); 4] = [
        ("integrate.conflict_angle_deg", "conflict angle (deg)"),
        ("integrate.rotation", "rotation magnitude"),
        ("fl.update_divergence", "update divergence"),
        ("fl.global_drift", "global drift"),
    ];
    if !rows.iter().any(|(name, _)| agg.series.contains_key(*name)) {
        return;
    }
    println!("\n== per-round trajectories ==");
    for (name, label) in rows {
        let Some(points) = agg.series.get(name) else {
            continue;
        };
        let vals = round_means(points);
        let (min, max) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        println!(
            "  {label:<22} {}  min {min:.4}  max {max:.4}  rounds {}",
            sparkline(&vals),
            vals.len()
        );
    }
}

/// Monotonic totals other than the kernel counters (printed above).
fn print_counters(agg: &Aggregate) {
    let rest: Vec<(&String, &u64)> = agg
        .counters
        .iter()
        .filter(|(n, _)| !n.starts_with("flops.") && !n.starts_with("bytes."))
        .collect();
    if rest.is_empty() {
        return;
    }
    println!("\n== counters ==");
    println!("{:<28}{:>14}", "counter", "total");
    for (name, v) in rest {
        println!("{name:<28}{v:>14}");
    }
}

/// Eight-level sparkline (`▁▂▃▄▅▆▇█`) of `values`, scaled to their own
/// min..max range. Constant input renders as all-minimum; empty input
/// as an empty string. Non-finite values render as a space.
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if span <= 0.0 {
                LEVELS[0]
            } else {
                let t = ((v - min) / span * 7.0).round() as usize;
                LEVELS[t.min(7)]
            }
        })
        .collect()
}

/// Four-level heat strip (` ░▒▓█` with a space for "no data") of
/// `values` on the fixed scale `0..=max` — forgetting rates use
/// `max = 1.0` so strips are comparable across tasks and runs. `None`
/// cells (task not yet learned) render as `·`.
fn heat_strip(values: &[Option<f64>], max: f64) -> String {
    const LEVELS: [char; 5] = [' ', '░', '▒', '▓', '█'];
    values
        .iter()
        .map(|v| match v {
            None => '·',
            Some(v) if !v.is_finite() || max <= 0.0 => '?',
            Some(v) => {
                let t = (v / max).clamp(0.0, 1.0);
                // 0 maps to blank only when exactly zero; any forgetting
                // at all shows at least ░.
                if t == 0.0 {
                    LEVELS[0]
                } else {
                    LEVELS[(t * 4.0).ceil().clamp(1.0, 4.0) as usize]
                }
            }
        })
        .collect()
}

/// Collapse round-indexed series points to one mean value per index,
/// returning `(index, mean)` sorted by index. Multiple clients pushing
/// the same round fold into one plotted point.
fn mean_per_index(points: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut acc: std::collections::BTreeMap<u64, (f64, u64)> = std::collections::BTreeMap::new();
    for &(i, v) in points {
        let e = acc.entry(i).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(i, (sum, n))| (i, sum / n as f64))
        .collect()
}

/// [`mean_per_index`] without the indices: one value per round.
fn round_means(points: &[(u64, f64)]) -> Vec<f64> {
    mean_per_index(points).into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_obs::RingData;

    #[test]
    fn wall_time_survives_a_mid_run_dump() {
        let at = |ts_ns, data| fedknow_obs::RingRecord {
            ts_ns,
            round: 0,
            data,
        };
        let path = || "run".to_string();
        let wall = |events| {
            let track = fedknow_obs::ThreadTrack {
                thread: "ThreadId(1)".into(),
                dropped: 0,
                events,
            };
            let rec = Recording {
                tracks: vec![track],
                ..Recording::default()
            };
            wall_ns(&rec, &Aggregate::from_records(&rec))
        };
        let begin = at(10, RingData::Begin { path: path() });
        let end = RingData::End {
            path: path(),
            dur_ns: 40,
            perf: None,
        };
        let note = at(90, RingData::Note { note: "x".into() });
        let closed = vec![begin.clone(), at(50, end), note.clone()];
        assert_eq!(wall(closed), (40, ""));
        let (ns, how) = wall(vec![begin, note]);
        assert_eq!(ns, 80);
        assert!(how.contains("no closed `run` span"));
        assert_eq!(wall(vec![]).0, 0);
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[0.0, f64::NAN, 1.0]).chars().nth(1), Some(' '));
    }

    #[test]
    fn heat_strip_uses_fixed_scale() {
        assert_eq!(heat_strip(&[Some(0.0), Some(1.0)], 1.0), " █");
        assert_eq!(heat_strip(&[None, Some(0.1), Some(0.6)], 1.0), "·░▓");
        // Any nonzero forgetting is visible.
        assert_eq!(heat_strip(&[Some(0.001)], 1.0), "░");
        // Values past the scale clamp to full.
        assert_eq!(heat_strip(&[Some(2.0)], 1.0), "█");
    }

    #[test]
    fn mean_per_index_folds_duplicates() {
        let pts = vec![(1, 0.25), (0, 1.0), (1, 0.75)];
        assert_eq!(mean_per_index(&pts), vec![(0, 1.0), (1, 0.5)]);
        assert!(mean_per_index(&[]).is_empty());
    }
}
