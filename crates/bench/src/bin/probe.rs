//! Free-form single-run probe: run one method on one configuration and
//! print its curves. Useful for hyper-parameter exploration beyond the
//! fixed figures.
//!
//! ```text
//! probe --method fedknow --dataset cifar100 --tasks 4 --clients 6 \
//!       --rounds 3 --iters 10 --samples 1.0 --hw 8 --seed 42
//! ```

use fedknow_baselines::Method;
use fedknow_bench::MethodCurve;
use fedknow_data::DatasetSpec;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let (method, dataset) = (get("--method", "fedknow"), get("--dataset", "cifar100"));
    let method = Method::from_name(&method).unwrap_or_else(|| {
        eprintln!("unknown method {method}");
        std::process::exit(2);
    });
    let dataset = DatasetSpec::by_name(&dataset).unwrap_or_else(|| {
        eprintln!("unknown dataset {dataset}");
        std::process::exit(2);
    });
    let model = match get("--model", "auto").as_str() {
        "auto" => fedknow_bench::paper_model_for(&dataset.name),
        "sixcnn" => ModelKind::SixCnn,
        "resnet18" => ModelKind::ResNet18,
        other => {
            eprintln!("unknown model {other}");
            std::process::exit(2);
        }
    };
    let tasks: usize = get("--tasks", "3").parse().expect("--tasks");
    let samples: f64 = get("--samples", "1.0").parse().expect("--samples");
    let hw: usize = get("--hw", "8").parse().expect("--hw");
    let spec = RunSpec {
        dataset: dataset.scaled(samples, hw).with_tasks(tasks),
        model,
        width: 1.0,
        num_clients: get("--clients", "4").parse().expect("--clients"),
        rounds_per_task: get("--rounds", "3").parse().expect("--rounds"),
        iters_per_round: get("--iters", "8").parse().expect("--iters"),
        seed: get("--seed", "42").parse().expect("--seed"),
        method_cfg: Default::default(),
        faults: Default::default(),
    };
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
