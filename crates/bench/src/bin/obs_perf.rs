//! Roofline-style performance report from profiler output.
//!
//! ```text
//! obs_perf                        # render results/kernels.json
//! obs_perf --record PATH          # render an explicit kernel_bench detail file
//! obs_perf --trace run.jsonl      # top spans/kernels from a JSONL trace
//! obs_perf --trace run.jsonl --top 8
//! ```
//!
//! Record mode plots each microbenchmarked kernel against the machine
//! roofline implied by the record itself: the best observed GFLOP/s is
//! the compute roof, the best observed bytes/s the bandwidth roof, and
//! their ratio the machine balance point. Kernels with arithmetic
//! intensity below the balance point are classified memory-bound (their
//! ceiling is `intensity × bandwidth`), the rest compute-bound.
//!
//! Trace mode aggregates a `FEDKNOW_OBS` JSONL stream and prints the
//! top-N span paths by attributed kernel FLOPs — achieved GFLOP/s per
//! phase — plus the `flops.*`/`bytes.*` counter totals, and allocation
//! columns when the trace was taken under `FEDKNOW_PROF_ALLOC=1`.

use fedknow_bench::{fmt_ns, KernelEntry};
use fedknow_obs::{read_jsonl, Aggregate};
use std::path::PathBuf;

fn main() {
    let mut record: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut top = 12usize;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--record" => {
                i += 1;
                record = Some(PathBuf::from(
                    argv.get(i)
                        .unwrap_or_else(|| usage("--record expects PATH")),
                ));
            }
            "--trace" => {
                i += 1;
                trace = Some(PathBuf::from(
                    argv.get(i).unwrap_or_else(|| usage("--trace expects PATH")),
                ));
            }
            "--top" => {
                i += 1;
                top = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--top expects an integer"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    match trace {
        Some(path) => render_trace(&path, top),
        None => {
            let path = record.unwrap_or_else(|| fedknow_bench::results_dir().join("kernels.json"));
            render_record(&path);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: obs_perf [--record PATH] [--trace PATH.jsonl] [--top N]");
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("obs_perf: {msg}");
    std::process::exit(1)
}

fn render_record(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("read {}: {e}", path.display())));
    let kernels: Vec<KernelEntry> = serde_json::from_str(&text).unwrap_or_else(|_| {
        die(&format!(
            "{} is not a kernel_bench detail file (results/kernels.json) — run kernel_bench first",
            path.display()
        ))
    });
    if kernels.is_empty() {
        die("kernel record is empty");
    }
    // Roofs implied by the record: best achieved compute rate and best
    // achieved memory traffic rate across all measured points.
    let peak_gflops = kernels.iter().map(|k| k.gflops).fold(0.0f64, f64::max);
    let peak_gbps = kernels
        .iter()
        .map(|k| k.bytes as f64 / k.min_ns.max(1) as f64)
        .fold(0.0f64, f64::max);
    let balance = peak_gflops / peak_gbps.max(f64::MIN_POSITIVE);

    println!("record        {}", path.display());
    println!("compute roof  {peak_gflops:.3} GFLOP/s (best observed)");
    println!("memory roof   {peak_gbps:.3} GB/s (best observed)");
    println!("balance       {balance:.3} FLOP/byte");

    let mut sorted: Vec<&KernelEntry> = kernels.iter().collect();
    sorted.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
    println!(
        "\n{:<12}{:<26}{:>10}{:>12}{:>10}{:>8}  {:<12}utilisation",
        "kernel", "shape", "GF/s", "flops/byte", "min", "%roof", "bound"
    );
    for k in sorted {
        // The ceiling this kernel could reach on this machine: the
        // bandwidth roof scaled by its intensity, capped by the
        // compute roof.
        let ceiling = (k.intensity * peak_gbps).min(peak_gflops);
        let bound = if k.intensity < balance {
            "memory"
        } else {
            "compute"
        };
        let util = if ceiling > 0.0 {
            k.gflops / ceiling
        } else {
            0.0
        };
        let bar_len = (util * 20.0).round() as usize;
        println!(
            "{:<12}{:<26}{:>10.3}{:>12.3}{:>10}{:>7.0}%  {:<12}{}",
            k.kernel,
            k.shape,
            k.gflops,
            k.intensity,
            fmt_ns(k.min_ns),
            100.0 * util,
            bound,
            "#".repeat(bar_len.min(20)),
        );
    }
}

fn render_trace(path: &std::path::Path, top: usize) {
    let events = read_jsonl(path).unwrap_or_else(|e| die(&format!("read {}: {e}", path.display())));
    if events.is_empty() {
        die(&format!("{} holds no events", path.display()));
    }
    let agg = Aggregate::from_events(&events);

    // Per-span-path attribution, hottest kernel work first.
    let mut spans: Vec<(&String, &fedknow_obs::SpanStat)> =
        agg.spans.iter().filter(|(_, s)| s.flops > 0).collect();
    spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.flops));
    let tracked_allocs = agg.spans.values().any(|s| s.allocs > 0);
    println!("trace         {}", path.display());
    println!(
        "span paths    {} ({} with kernel work)",
        agg.spans.len(),
        spans.len()
    );
    if spans.is_empty() {
        println!("no span carries kernel FLOPs — was the profiled code instrumented?");
    } else {
        println!(
            "\n== top {} spans by attributed FLOPs ==",
            top.min(spans.len())
        );
        println!(
            "{:<44}{:>12}{:>12}{:>8}{:>12}{:>12}",
            "span path", "flops", "total", "GF/s", "allocs", "alloc bytes"
        );
        for (p, s) in spans.iter().take(top) {
            println!(
                "{:<44}{:>12}{:>12}{:>8.3}{:>12}{:>12}",
                p,
                s.flops,
                fmt_ns(s.total_ns),
                s.gflops_per_sec().unwrap_or(0.0),
                s.allocs,
                s.alloc_bytes,
            );
        }
        if !tracked_allocs {
            println!(
                "(allocation columns are zero — trace was not taken under FEDKNOW_PROF_ALLOC=1)"
            );
        }
    }

    let mut kernels: Vec<(&str, u64, u64)> = agg
        .counters
        .iter()
        .filter_map(|(name, &f)| {
            let kernel = name.strip_prefix("flops.")?;
            let bytes = agg
                .counters
                .get(&format!("bytes.{kernel}"))
                .copied()
                .unwrap_or(0);
            Some((kernel, f, bytes))
        })
        .collect();
    kernels.sort_by_key(|&(_, f, _)| std::cmp::Reverse(f));
    if !kernels.is_empty() {
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
}
