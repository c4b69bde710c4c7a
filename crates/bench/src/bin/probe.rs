//! Free-form single-run probe: run one method on one configuration and
//! print its curves. Useful for hyper-parameter exploration beyond the
//! fixed figures.
//!
//! ```text
//! probe --method fedknow --dataset cifar100 --tasks 4 --clients 6 \
//!       --rounds 3 --iters 10 --samples 1.0 --hw 8 --seed 42
//! ```

use fedknow_baselines::Method;
use fedknow_bench::{flag, flag_with, flags_only, MethodCurve};
use fedknow_data::DatasetSpec;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;

const USAGE: &str = "probe [--method NAME] [--dataset NAME] [--model auto|sixcnn|resnet18] \
     [--tasks N] [--clients N] [--rounds N] [--iters N] [--samples F] [--hw N] [--seed N]";

/// The flags as a method and the run to put it through.
fn parse_opts() -> Result<(Method, RunSpec), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    flags_only(&argv, USAGE)?;
    let method = flag_with(&argv, "--method", Method::from_name)?.unwrap_or(Method::FedKnow);
    let dataset =
        flag_with(&argv, "--dataset", DatasetSpec::by_name)?.unwrap_or_else(DatasetSpec::cifar100);
    let auto = fedknow_bench::paper_model_for(&dataset.name);
    let model = flag_with(&argv, "--model", |s| match s {
        "auto" => Some(auto),
        "sixcnn" => Some(ModelKind::SixCnn),
        "resnet18" => Some(ModelKind::ResNet18),
        _ => None,
    })?;
    let samples = flag(&argv, "--samples")?.unwrap_or(1.0);
    let hw = flag(&argv, "--hw")?.unwrap_or(8);
    let tasks = flag(&argv, "--tasks")?.unwrap_or(3);
    let spec = RunSpec {
        dataset: dataset.scaled(samples, hw).with_tasks(tasks),
        model: model.unwrap_or(auto),
        width: 1.0,
        num_clients: flag(&argv, "--clients")?.unwrap_or(4),
        rounds_per_task: flag(&argv, "--rounds")?.unwrap_or(3),
        iters_per_round: flag(&argv, "--iters")?.unwrap_or(8),
        seed: flag(&argv, "--seed")?.unwrap_or(42),
        method_cfg: Default::default(),
        faults: Default::default(),
    };
    Ok((method, spec))
}

fn main() {
    let (method, spec) = parse_opts().unwrap_or_else(|e| fedknow_bench::usage(USAGE, &e));
    // All timing below comes from the obs layer (phase timers + the run
    // span) rather than an ad-hoc Instant, so this binary reports
    // through the same path as `obs report` and the JSONL stream.
    fedknow_obs::enable();
    let report = spec.run(method).expect("simulation failed");
    let curve = MethodCurve::from_report(&report);
    println!("method      {}", curve.method);
    for m in 0..report.accuracy.num_tasks() {
        let row: Vec<f64> = (0..=m)
            .map(|k| (report.accuracy.at(m, k) * 1000.0).round() / 1000.0)
            .collect();
        println!("matrix[{m}]   {row:?}");
    }
    println!("accuracy    {:?}", curve.accuracy);
    println!("forgetting  {:?}", curve.forgetting);
    println!("comm (s)    {:.3}", curve.comm_seconds);
    println!("bytes       {}", curve.total_bytes);
    let breakdown = report
        .phase_breakdown
        .as_ref()
        .expect("obs enabled before the run");
    let wall = breakdown.phase("span.run_ns").map_or(0, |p| p.total_ns);
    println!("wall clock  {}", fedknow_bench::fmt_ns(wall));
    fedknow_bench::print_phase_breakdown(breakdown);
}
