//! Learning-dynamics dashboard: renders a `FEDKNOW_OBS` JSONL trace as
//! a terminal report of *what the training run did*, not just where the
//! time went.
//!
//! ```text
//! FEDKNOW_OBS=/tmp/run.jsonl cargo run --release --bin figures -- --fig 4 --scale smoke
//! cargo run --release --bin obs_dash -- /tmp/run.jsonl
//! ```
//!
//! Sections:
//!
//! * **forgetting** — one heat-strip row per task: how much each task
//!   was forgotten after every later task (`fl.forgetting.task*`
//!   series, scale `0..=1`).
//! * **trajectories** — per-round sparklines of the conflict angle
//!   between current and signature-task gradients, the QP rotation
//!   magnitude, client update divergence, and global-model drift.
//! * **phases** — timing totals merged from the same trace (the
//!   `obs_report` view, condensed).

use fedknow_bench::dash::{heat_strip, mean_per_index, sparkline};
use fedknow_bench::{fmt_metric, fmt_ns, phase_share};
use fedknow_obs::{read_jsonl, Aggregate};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: obs_dash <trace.jsonl>");
        std::process::exit(2);
    };
    let events = match read_jsonl(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("obs_dash: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if events.is_empty() {
        eprintln!("obs_dash: {path} holds no events");
        std::process::exit(1);
    }
    let agg = Aggregate::from_events(&events);
    let wall = agg.spans.get("run").map(|s| s.total_ns).unwrap_or(0);
    println!("trace       {path}");
    println!("events      {}", events.len());
    println!("wall time   {}", fmt_ns(wall));

    print_forgetting(&agg);
    print_trajectories(&agg);
    print_faults(&agg);
    print_health(&agg);
    print_phases(&agg, wall);
}

/// Streaming health-engine verdict: per-SLO state and value from the
/// `health.*` gauges the engine publishes each round. Silent when the
/// trace holds no health gauges (obs disabled or no rounds observed).
fn print_health(agg: &Aggregate) {
    let rounds = agg.gauges.get("health.rounds").copied().unwrap_or(0.0);
    if rounds <= 0.0 {
        return;
    }
    let glyph = |state: f64| match state as u64 {
        0 => "ok",
        1 => "WARN",
        _ => "CRITICAL",
    };
    let worst = agg.gauges.get("health.worst").copied().unwrap_or(0.0);
    println!(
        "\n== health ({} rounds observed, worst: {}) ==",
        rounds as u64,
        glyph(worst)
    );
    if let (Some(p50), Some(p99)) = (
        agg.gauges.get("health.round_p50_seconds"),
        agg.gauges.get("health.round_p99_seconds"),
    ) {
        println!("  round time           p50 {p50:.3}s  p99 {p99:.3}s");
    }
    for (name, state) in &agg.gauges {
        let Some(slo) = name.strip_prefix("health.slo.") else {
            continue;
        };
        let value = agg
            .gauges
            .get(&format!("health.{slo}"))
            .copied()
            .unwrap_or(0.0);
        println!("  {slo:<20} {:<8} {value:.4}", glyph(*state));
    }
}

/// Fault-injection census and participation trace. Silent when the run
/// was fault-free (every counter zero and full participation) — clean
/// dashboards stay clean.
fn print_faults(agg: &Aggregate) {
    let counters: [(&str, &str); 6] = [
        ("fl.crashes", "crashes"),
        ("fl.rejoins", "rejoins"),
        ("fl.retries", "upload retries"),
        ("fl.uploads_lost", "uploads lost"),
        ("fl.deadline_misses", "deadline misses"),
        ("fl.uploads_rejected", "uploads quarantined"),
    ];
    let participation = agg.series.get("fl.participation");
    let any_fault = counters.iter().any(|(name, _)| agg.counter(name) > 0)
        || participation
            .map(|pts| pts.iter().any(|&(_, v)| v < 1.0))
            .unwrap_or(false);
    if !any_fault {
        return;
    }
    println!("\n== fault injection ==");
    for (name, label) in counters {
        let n = agg.counter(name);
        if n > 0 {
            println!("  {label:<20} {n}");
        }
    }
    if let Some(points) = participation {
        let vals: Vec<f64> = mean_per_index(points).into_iter().map(|(_, v)| v).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  participation        {}  min {:.0}%  rounds {}",
            sparkline(&vals),
            100.0 * min,
            vals.len()
        );
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
        println!("\n(no forgetting series — run with FEDKNOW_OBS=<path> and >1 task)");
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
        let vals: Vec<f64> = mean_per_index(avg).into_iter().map(|(_, v)| v).collect();
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
    println!("\n== per-round trajectories ==");
    let mut any = false;
    for (name, label) in rows {
        let Some(points) = agg.series.get(name) else {
            continue;
        };
        any = true;
        let vals: Vec<f64> = mean_per_index(points).into_iter().map(|(_, v)| v).collect();
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
    if !any {
        println!("  (no series in this trace — needs a FedKNOW run with obs enabled)");
    }
}

/// Condensed phase-timing table (top 10 by total time).
fn print_phases(agg: &Aggregate, wall: u64) {
    if agg.samples.is_empty() {
        return;
    }
    println!("\n== phase timings (top 10 by total) ==");
    println!(
        "{:<30}{:>10}{:>12}{:>12}{:>8}",
        "phase", "count", "total", "mean", "share"
    );
    let mut phases: Vec<(&String, &Vec<u64>)> = agg.samples.iter().collect();
    phases.sort_by_key(|(_, xs)| std::cmp::Reverse(xs.iter().sum::<u64>()));
    for (name, xs) in phases.into_iter().take(10) {
        let total: u64 = xs.iter().sum();
        println!(
            "{:<30}{:>10}{:>12}{:>12}{:>8}",
            name,
            xs.len(),
            fmt_metric(name, total),
            fmt_metric(name, total / xs.len().max(1) as u64),
            phase_share(name, total, wall),
        );
    }
}
