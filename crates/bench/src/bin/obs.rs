//! The one reader of what `fedknow-obs` records.
//!
//! ```text
//! obs report   <stream|bundle> [--top N]         # where the time went, what faults it counted
//! obs trace convert  <input> [-o trace.json]     # stream/bundle/trace -> Chrome trace
//! obs trace validate <input>                     # structural checks, exit 1 on bad
//! ```
//!
//! `report` prints [`fedknow_bench::report`]'s tables for a
//! `FEDKNOW_OBS=<path>` stream or a `FEDKNOW_TRACE_DIR` bundle — the
//! format is sniffed, not flagged.
//!
//! `trace` turns recordings into Chrome `trace_event` JSON that loads
//! directly into Perfetto (ui.perfetto.dev) or `chrome://tracing`; an
//! input that already is a trace (a JSON object with `traceEvents`)
//! passes through. Each input is one process's stream or bundle.
//!
//! Exit codes: 0 ok, 1 invalid input or failed validation, 2 usage/IO
//! error.

use fedknow_bench::{flag, positionals};
use fedknow_obs::{trace, Recording};
use serde_json::Value;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("report") => report(&argv[1..]),
        Some("trace") => match argv.get(1).map(String::as_str) {
            Some("convert") => convert(&argv[2..]),
            Some("validate") => validate(&argv[2..]),
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
       obs trace convert  <stream.jsonl|bundle.json|trace.json> [-o out.json]
       obs trace validate <input>";

/// The one input file among `argv` once the flags `flags` lists are
/// taken out; anything else is a command-line error.
fn one_input<'a>(argv: &'a [String], flags: &str, what: &str) -> Result<&'a str, String> {
    match positionals(argv, flags)?[..] {
        [input] => Ok(input),
        _ => Err(format!("{what} expects one input file")),
    }
}

fn report(argv: &[String]) -> Exit {
    let path = one_input(argv, "[--top N]", "report")?;
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

/// Load the input file as trace JSON: a trace as it is, a stream or a
/// bundle converted. Returns the trace `Value` or a printable error.
fn load_trace(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    trace::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn convert(argv: &[String]) -> Exit {
    let input = one_input(argv, "[-o out.json]", "convert")?;
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
    let input = one_input(argv, "", "validate")?;
    match load_trace(input).and_then(|t| trace::validate(&t)) {
        Ok(stats) => {
            println!(
                "[obs trace] OK: {} events ({} slices, {} instants, {} counter samples) \
                 across {} tracks, span {:.3}ms",
                stats.events,
                stats.slices,
                stats.instants,
                stats.counters,
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
