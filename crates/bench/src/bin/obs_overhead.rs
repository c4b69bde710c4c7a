//! Measure the flight recorder's overhead: identical fault-free runs
//! with the observability layer (spans + metrics + ring recorder) off,
//! then on, then on with the scoped allocation tracker
//! (`FEDKNOW_PROF_ALLOC`) armed too — min-of-k each, reported as
//! relative overhead ratios against the all-off baseline. The workload
//! is the channel-transport federation, so the wire-tracing path —
//! per-frame context stamping, the four-point message lifecycle,
//! RTT/queue-depth instruments — is inside the measured region.
//!
//! Both ratios land in `BENCH_obs_overhead.json` as `recorder_overhead`
//! and `recorder_alloc_overhead` (neither may rise by more than 0.02),
//! with the three raw timings as context: a change that makes the
//! recorder more expensive shows up as a rise between the rotated
//! `.prev.json` and the fresh record. The binary itself also enforces
//! the absolute budget (5%) on both ratios and exits non-zero past it.
//! Note the off baseline exercises the disabled paths of *both*
//! facilities — one relaxed atomic load per obs call site and one per
//! allocator call — so the budget also bounds the tracker-disarmed tax
//! on ordinary runs.

use fedknow_baselines::Method;
use fedknow_bench::{
    parse_args, results_dir, scaled_spec, write_bench_record, BenchRecord, Better, Metric, Tol,
};
use fedknow_data::DatasetSpec;
use fedknow_fl::TransportKind;
use fedknow_suite::RunSpec;
use std::time::Instant;

/// Absolute overhead budget: recorder-on may cost at most this fraction
/// of recorder-off wall time.
const MAX_OVERHEAD: f64 = 0.05;
/// Runs per condition; min-of-k suppresses scheduler noise.
const RUNS: usize = 3;

fn timed_run(spec: &RunSpec) -> u64 {
    let started = Instant::now();
    // Transport-backed so the wire path — frame tracing contexts, the
    // four-point message lifecycle, RTT/queue-depth instruments — is
    // inside the measured region, not just the training loop.
    spec.run_over(Method::FedKnow, TransportKind::Channel)
        .expect("simulation failed");
    started.elapsed().as_nanos() as u64
}

fn min_of_k(spec: &RunSpec) -> u64 {
    (0..RUNS).map(|_| timed_run(spec)).min().expect("RUNS > 0")
}

fn main() {
    let args = parse_args();
    if fedknow_obs::is_enabled() {
        eprintln!(
            "[obs_overhead] warning: obs already enabled (FEDKNOW_OBS/FEDKNOW_TRACE_DIR \
             set?) — the recorder-off baseline is contaminated"
        );
    }
    let spec = scaled_spec(DatasetSpec::cifar100(), args.scale, args.seed);

    // Warmup run (page cache, allocator) discarded, then the baseline
    // with every obs gate cold: one relaxed load per call site.
    eprintln!("[obs_overhead] warmup ...");
    let _ = timed_run(&spec);
    eprintln!("[obs_overhead] recorder off: {RUNS} runs ...");
    let off_ns = min_of_k(&spec);

    // One-way switch: spans, metrics and the ring recorder all on.
    fedknow_obs::enable();
    eprintln!("[obs_overhead] recorder on: {RUNS} runs ...");
    let on_ns = min_of_k(&spec);

    // Recorder plus the scoped allocation tracker: every heap alloc now
    // pays a handful of atomic adds on top of the span accounting.
    fedknow_obs::alloc::set_tracking(true);
    eprintln!("[obs_overhead] recorder + alloc tracker on: {RUNS} runs ...");
    let alloc_ns = min_of_k(&spec);
    fedknow_obs::alloc::set_tracking(false);

    let overhead = (on_ns as f64 / off_ns.max(1) as f64 - 1.0).max(0.0);
    let alloc_overhead = (alloc_ns as f64 / off_ns.max(1) as f64 - 1.0).max(0.0);
    println!(
        "[obs_overhead] off {} on {} alloc-on {} -> overhead {:.2}% / with tracker {:.2}% (budget {:.0}%)",
        fedknow_bench::fmt_ns(off_ns),
        fedknow_bench::fmt_ns(on_ns),
        fedknow_bench::fmt_ns(alloc_ns),
        100.0 * overhead,
        100.0 * alloc_overhead,
        100.0 * MAX_OVERHEAD,
    );

    let ratio = |name, value| Metric::new(name, value, "ratio", Better::Lower, Tol::Abs(0.02));
    let metrics = vec![
        ratio("recorder_overhead", overhead),
        ratio("recorder_alloc_overhead", alloc_overhead),
        Metric::info("recorder_off_ns", off_ns as f64, "ns"),
        Metric::info("recorder_on_ns", on_ns as f64, "ns"),
        Metric::info("recorder_alloc_on_ns", alloc_ns as f64, "ns"),
    ];
    let rec = BenchRecord::new("obs_overhead", args.scale.name(), args.seed, metrics);
    write_bench_record(&results_dir(), &rec);
    if overhead > MAX_OVERHEAD {
        eprintln!(
            "[obs_overhead] FAIL: recorder overhead {:.2}% exceeds the {:.0}% budget",
            100.0 * overhead,
            100.0 * MAX_OVERHEAD
        );
        std::process::exit(1);
    }
    if alloc_overhead > MAX_OVERHEAD {
        eprintln!(
            "[obs_overhead] FAIL: recorder + alloc tracker overhead {:.2}% exceeds the {:.0}% budget",
            100.0 * alloc_overhead,
            100.0 * MAX_OVERHEAD
        );
        std::process::exit(1);
    }
}
