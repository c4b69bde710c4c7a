//! Turn a `FEDKNOW_OBS` JSONL trace into per-phase summary tables.
//!
//! ```text
//! FEDKNOW_OBS=/tmp/run.jsonl cargo run --release --bin probe
//! cargo run --release --bin obs_report -- /tmp/run.jsonl
//! ```
//!
//! Three tables are printed:
//!
//! * **phases** — every sampled metric (`qp.solve_ns`, `conv.fwd_ns`,
//!   …): count, total, mean, exact p50/p99, and share of wall-time
//!   (the `run` span; `-` for counts and for simulated `*.sim_*` time).
//!   With parallel clients, shares can sum past 100%.
//! * **spans** — the run hierarchy rolled up by shape (`task.3` →
//!   `task.*`), so all rounds/clients at the same depth aggregate. Each
//!   row carries the kernel FLOPs attributed to its spans (achieved
//!   GFLOP/s per phase) and, for traces taken under
//!   `FEDKNOW_PROF_ALLOC=1`, heap allocation counts and bytes.
//! * **counters** — monotonic totals (`comm.upload_bytes`,
//!   `qp.fallback`, …).

use std::collections::BTreeMap;

use fedknow_bench::{fmt_metric, fmt_ns, phase_share};
use fedknow_obs::{read_jsonl, Aggregate, SpanStat};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: obs_report <trace.jsonl>");
        std::process::exit(2);
    };
    let events = match read_jsonl(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("obs_report: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if events.is_empty() {
        eprintln!("obs_report: {path} holds no events");
        std::process::exit(1);
    }
    let agg = Aggregate::from_events(&events);
    let wall = agg.spans.get("run").map(|s| s.total_ns).unwrap_or(0);

    println!("trace       {path}");
    println!("events      {}", events.len());
    println!("wall time   {}", fmt_ns(wall));

    println!("\n== phases (share of wall; parallel phases may exceed 100%) ==");
    println!(
        "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
        "phase", "count", "total", "mean", "p50", "p99", "share"
    );
    let mut phases: Vec<(&String, &Vec<u64>)> = agg.samples.iter().collect();
    phases.sort_by_key(|(_, xs)| std::cmp::Reverse(xs.iter().sum::<u64>()));
    for (name, xs) in phases {
        let total: u64 = xs.iter().sum();
        let count = xs.len() as u64;
        let mean = total as f64 / count as f64;
        let p50 = agg.quantile(name, 0.5).unwrap_or(0);
        let p99 = agg.quantile(name, 0.99).unwrap_or(0);
        println!(
            "{:<28}{:>10}{:>12}{:>12}{:>12}{:>12}{:>8}",
            name,
            count,
            fmt_metric(name, total),
            fmt_metric(name, mean as u64),
            fmt_metric(name, p50),
            fmt_metric(name, p99),
            phase_share(name, total, wall),
        );
    }

    println!("\n== spans (rolled up: task.3 -> task.*) ==");
    let rolled = rollup_spans(&agg.spans);
    let any_alloc = rolled.values().any(|s| s.allocs > 0);
    println!(
        "{:<40}{:>10}{:>12}{:>12}{:>8}{:>8}{:>10}{:>12}",
        "span path", "count", "total", "mean", "share", "GF/s", "allocs", "alloc bytes"
    );
    for (path, stat) in &rolled {
        let share = if wall > 0 {
            100.0 * stat.total_ns as f64 / wall as f64
        } else {
            0.0
        };
        let gflops = stat
            .gflops_per_sec()
            .map(|g| format!("{g:>8.3}"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
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
    if !any_alloc {
        println!("(allocation columns are zero — trace was not taken under FEDKNOW_PROF_ALLOC=1)");
    }

    let health: Vec<(&String, &f64)> = agg
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("health."))
        .collect();
    if !health.is_empty() {
        println!(
            "\n== health gauges (last written; health.slo.* is 0 ok / 1 warn / 2 critical) =="
        );
        println!("{:<28}{:>14}", "gauge", "value");
        for (name, v) in health {
            println!("{name:<28}{v:>14.4}");
        }
    }

    if !agg.counters.is_empty() {
        println!("\n== counters ==");
        println!("{:<28}{:>14}", "counter", "total");
        for (name, v) in &agg.counters {
            println!("{name:<28}{v:>14}");
        }
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
