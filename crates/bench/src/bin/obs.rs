//! The one reader of what `fedknow-obs` records.
//!
//! ```text
//! obs report   <stream|bundle> [--top N]         # where the time went, is the run healthy
//! obs roofline [--record PATH]                   # kernel roofline from results/kernels.json
//! obs trace convert  <input> [-o trace.json]     # stream/bundle/trace -> Chrome trace
//! obs trace validate <input>                     # structural checks, exit 1 on bad
//! obs trace summary  <input> [--top N]           # top-N slice table
//! obs trace merge    <bundle...> [-o out.json] [--min-link F]
//!                                                # clock-aligned multi-process trace
//! ```
//!
//! `report` prints [`fedknow_bench::report`]'s tables for a
//! `FEDKNOW_OBS=<path>` stream or a `FEDKNOW_TRACE_DIR` bundle — the
//! format is sniffed, not flagged.
//!
//! `roofline` plots each microbenchmarked kernel of a `kernel_bench`
//! detail file against the machine roofline implied by the record
//! itself: the best observed GFLOP/s is the compute roof, the best
//! observed bytes/s the bandwidth roof, and their ratio the machine
//! balance point. Kernels with arithmetic intensity below the balance
//! point are classified memory-bound (their ceiling is `intensity ×
//! bandwidth`), the rest compute-bound.
//!
//! `trace` turns recordings into Chrome `trace_event` JSON that loads
//! directly into Perfetto (ui.perfetto.dev) or `chrome://tracing`; an
//! input that already is a trace (a JSON object with `traceEvents`)
//! passes through. `merge` fuses one postmortem bundle per process into
//! a single timeline: clocks are aligned from the send timestamps
//! echoed in wire receive records, and every delivered frame is drawn
//! as a causal flow arrow from sender to receiver. With `--min-link F`
//! the exit code is 1 unless at least fraction `F` of delivered frames
//! have a complete sender→receiver link — the CI gate for the chaos
//! smoke.
//!
//! Exit codes: 0 ok, 1 invalid input or failed validation, 2 usage/IO
//! error.

use fedknow_bench::{flag, flags_only, fmt_ns, positionals, KernelEntry};
use fedknow_obs::{trace, Recording};
use serde_json::Value;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("report") => report(&argv[1..]),
        Some("roofline") => roofline(&argv[1..]),
        Some("trace") => match argv.get(1).map(String::as_str) {
            Some("convert") => convert(&argv[1..]),
            Some("validate") => validate(&argv[1..]),
            Some("summary") => summary(&argv[1..]),
            Some("merge") => merge(&argv[2..]),
            Some(other) => Err(format!("unknown trace subcommand {other}")),
            None => Err("missing trace subcommand".to_string()),
        },
        Some(other) => Err(format!("unknown subcommand {other}")),
        None => Err("missing subcommand".to_string()),
    };
    std::process::exit(code.unwrap_or_else(|e| fedknow_bench::usage(USAGE, &e)));
}

/// What a subcommand returns: its exit code, or a command-line error to
/// report with [`USAGE`].
type Exit = Result<i32, String>;

const USAGE: &str = "obs report   <stream.jsonl|bundle.json> [--top N]
       obs roofline [--record PATH]
       obs trace convert  <stream.jsonl|bundle.json|trace.json> [-o out.json]
       obs trace validate <input>
       obs trace summary  <input> [--top N]
       obs trace merge    <bundle.json...> [-o out.json] [--min-link F]";

fn report(argv: &[String]) -> Exit {
    let Some(path) = argv.first().filter(|a| !a.starts_with("--")) else {
        return Err("report expects a stream or bundle file".to_string());
    };
    let top = flag::<usize>(argv, "--top")?;
    let rec = match Recording::load(path) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return Ok(1);
        }
    };
    if rec.tracks.iter().all(|t| t.events.is_empty()) {
        eprintln!("error: {path} holds no records");
        return Ok(1);
    }
    fedknow_bench::report::print(&rec, top.unwrap_or(usize::MAX));
    Ok(0)
}

fn roofline(argv: &[String]) -> Exit {
    flags_only(argv, "[--record PATH]")?;
    let path: std::path::PathBuf =
        flag(argv, "--record")?.unwrap_or_else(|| "results/kernels.json".into());
    let kernels: Vec<KernelEntry> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
        Err(e) => {
            eprintln!("error: read {}: {e}", path.display());
            return Ok(1);
        }
    };
    if kernels.is_empty() {
        eprintln!(
            "error: {} is not a kernel_bench detail file (results/kernels.json) — \
             run kernel_bench first",
            path.display()
        );
        return Ok(1);
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
    Ok(0)
}

/// Load the input file as trace JSON: a trace as it is, a stream or a
/// bundle converted. Returns the trace `Value` or a printable error.
fn load_trace(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    trace::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn convert(argv: &[String]) -> Exit {
    let input = argv.get(1).ok_or("convert expects an input file")?;
    let out = flag::<String>(argv, "-o")?;
    let trace_doc = match load_trace(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(1);
        }
    };
    // Converting implies validating: never emit a file Perfetto rejects.
    if let Err(e) = trace::validate(&trace_doc) {
        eprintln!("error: converted trace failed validation: {e}");
        return Ok(1);
    }
    Ok(write_trace(&trace_doc, out.as_deref()))
}

/// Write a trace to `out` (stdout when `None`); exit code 2 on an I/O
/// error.
fn write_trace(trace_doc: &Value, out: Option<&str>) -> i32 {
    let json = serde_json::to_string(trace_doc).expect("serialise trace");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: write {path}: {e}");
                return 2;
            }
            eprintln!("[obs trace] wrote {path}");
        }
        None => println!("{json}"),
    }
    0
}

fn validate(argv: &[String]) -> Exit {
    let input = argv.get(1).ok_or("validate expects an input file")?;
    match load_trace(input).and_then(|t| trace::validate(&t)) {
        Ok(stats) => {
            println!(
                "[obs trace] OK: {} events ({} slices, {} instants, {} counter samples, \
                 {} flows / {} finished) across {} tracks, span {:.3}ms",
                stats.events,
                stats.slices,
                stats.instants,
                stats.counters,
                stats.flow_starts,
                stats.flow_ends,
                stats.tracks,
                stats.max_ts_us / 1_000.0
            );
            Ok(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            Ok(1)
        }
    }
}

fn merge(argv: &[String]) -> Exit {
    let inputs = positionals(argv, "[-o out.json] [--min-link F]")?;
    let out = flag::<String>(argv, "-o")?;
    let min_link = flag::<f64>(argv, "--min-link")?;
    if inputs.is_empty() {
        return Err("merge expects at least one bundle file".to_string());
    }
    let mut bundles = Vec::with_capacity(inputs.len());
    for path in &inputs {
        match Recording::load(path) {
            Ok(rec) => bundles.push(rec),
            Err(fedknow_obs::LoadError::Io(e)) => {
                eprintln!("error: read {path}: {e}");
                return Ok(2);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(1);
            }
        }
    }
    let (trace_doc, stats) = match trace::merge(&bundles) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: merge: {e}");
            return Ok(1);
        }
    };
    if let Err(e) = trace::validate(&trace_doc) {
        eprintln!("error: merged trace failed validation: {e}");
        return Ok(1);
    }
    let offsets: Vec<String> = stats
        .offsets_us
        .iter()
        .map(|o| format!("{o:+.1}µs"))
        .collect();
    println!(
        "[obs trace] merged {} bundles: {} delivered frames, {} linked ({:.2}%), \
         {} dropped, clock offsets [{}]",
        stats.bundles,
        stats.delivered,
        stats.linked,
        stats.link_fraction * 100.0,
        stats.dropped,
        offsets.join(", ")
    );
    match (write_trace(&trace_doc, out.as_deref()), min_link) {
        (0, Some(min)) if stats.link_fraction < min => {
            eprintln!(
                "error: link fraction {:.4} below required {min}",
                stats.link_fraction
            );
            Ok(1)
        }
        (code, _) => Ok(code),
    }
}

fn summary(argv: &[String]) -> Exit {
    let input = argv.get(1).ok_or("summary expects an input file")?;
    let top = flag::<usize>(argv, "--top")?;
    match load_trace(input).and_then(|t| trace::summarize(&t, top.unwrap_or(10))) {
        Ok(table) => {
            println!("{table}");
            Ok(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            Ok(1)
        }
    }
}
