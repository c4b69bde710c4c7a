//! `fedknow-ladder`: FedKNOW client-rounds per wall second, end to end
//! and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! fedknow-ladder [--seed N] [--seconds S] [--smoke]          every workload, both runs
//! fedknow-ladder --workload NAME --trace 0|1 [--seed N] ...  one run of one workload
//! fedknow-ladder compare A.json B.json                       did B regress against A?
//! ```

mod compare;
mod env;
mod report;
mod run;
mod rungs;
mod spans;
mod stats;
mod workloads;

use report::{print_metrics, ResultFile, WorkloadResult};
use run::Request;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The contract's `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    obs_rep: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        obs_rep: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.trace = true,
            "--smoke" => out.smoke = true,
            "--obs-rep" => out.obs_rep = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The contract's result line: the last line of standard output.
fn result_line(res: &WorkloadResult, trace: bool) -> String {
    let metrics = if trace {
        &res.per_layer
    } else {
        &res.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.correct,
        res.attempted,
        res.failed,
        body.join(", ")
    )
}

fn result_file_name(workload: &str, trace: bool) -> String {
    format!("{workload}.{}.json", if trace { "layers" } else { "e2e" })
}

/// One run of one workload in this process.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let req = Request {
        name: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    if args.obs_rep {
        return run::obs_rep_child(&req).map(|()| true);
    }
    let res = if args.trace {
        let (res, spans) = run::traced(&req)?;
        let text = serde_json::to_string(&spans).map_err(|e| e.to_string())?;
        let path = report::write_out(&format!("{name}.trace.json"), &text)
            .map_err(|e| format!("writing the trace: {e}"))?;
        println!("{name}: {} spans in {}", spans.len(), path.display());
        res
    } else {
        run::end_to_end(&req)?
    };
    for c in res.checks.iter().filter(|c| !c.ok) {
        println!("{name}: FAILED check \"{}\": {}", c.name, c.detail);
    }
    print_metrics(&format!("{name}: end-to-end metrics"), &res.end_to_end);
    print_metrics(&format!("{name}: per-layer metrics"), &res.per_layer);
    let file = ResultFile {
        benchmark: "fedknow-ladder".into(),
        smoke: args.smoke,
        env: env::describe(args.seed),
        workloads: vec![res],
    };
    let path = file.write(&result_file_name(name, args.trace))?;
    println!("{name}: result in {}", path.display());
    let res = &file.workloads[0];
    println!("{}", result_line(res, args.trace));
    Ok(res.correct)
}

/// Every workload, one child process per run, one after another; the
/// results are merged into `benchmark/out/ladder.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = ResultFile {
        benchmark: "fedknow-ladder".into(),
        smoke: args.smoke,
        env: env::describe(args.seed),
        workloads: Vec::new(),
    };
    let mut all_ok = true;
    for name in workloads::NAMES {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // Exit 1 is a result with a failed check; anything else but 0
            // left no result to merge.
            let code = cmd
                .status()
                .map_err(|e| format!("spawning {name}: {e}"))?
                .code();
            all_ok &= code == Some(0);
            if !matches!(code, Some(0 | 1)) {
                continue;
            }
            let path = report::out_dir().join(result_file_name(name, trace));
            for res in ResultFile::read(&path)?.workloads {
                match merged.workloads.iter_mut().find(|w| w.name == res.name) {
                    Some(w) => w.absorb(res),
                    None => merged.workloads.push(res),
                }
            }
        }
    }
    let path = merged.write("ladder.json")?;
    println!("all workloads: merged result in {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = env::offending_variable() {
        eprintln!("fedknow-ladder: refusing to start with {var} set: FEDKNOW_* variables change kernels, threads and telemetry");
        return ExitCode::from(2);
    }
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)).map(|worse| !worse),
            _ => Err("usage: fedknow-ladder compare <a.json> <b.json>".to_string()),
        }
    } else {
        parse(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fedknow-ladder: {e}");
            ExitCode::from(2)
        }
    }
}
