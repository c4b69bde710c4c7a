//! Resilience sweep: FedKNOW vs FedAvg under growing fault pressure.
//!
//! Sweeps the crash/upload-loss rate from 0% to 30% at a fixed seed and
//! reports how final accuracy, forgetting, and communication time
//! degrade, plus the fault-event census (crashes, rejoins, lost
//! uploads, retries, deadline misses, quarantined uploads) for each
//! run. The fault-free FedKNOW run feeds the regression gate as
//! `BENCH_resilience.json`; the full sweep lands in
//! `results/resilience.json`.

use fedknow_baselines::Method;
use fedknow_bench::figures::shrunk_cluster;
use fedknow_bench::{
    parse_args, print_table, results_dir, scaled_spec, write_bench_record, write_json, BenchRecord,
    Scale,
};
use fedknow_data::DatasetSpec;
use fedknow_fl::{CommModel, FaultConfig, FaultKind, SimReport};
use serde::Serialize;

/// One (method, fault-rate) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
struct ResilienceRow {
    method: String,
    fault_rate: f64,
    final_accuracy: f64,
    final_forgetting: f64,
    /// Accuracy lost vs the same method's fault-free run (positive =
    /// worse under faults).
    degradation: f64,
    comm_seconds: f64,
    total_bytes: u64,
    crashes: u64,
    rejoins: u64,
    lost_uploads: u64,
    retries: u64,
    deadline_misses: u64,
    rejected_uploads: u64,
}

impl ResilienceRow {
    fn new(rate: f64, report: &SimReport, clean_accuracy: f64) -> Self {
        let tasks = report.accuracy.num_tasks();
        let final_accuracy = report.accuracy.avg_accuracy_after(tasks - 1);
        ResilienceRow {
            method: report.method.clone(),
            fault_rate: rate,
            final_accuracy,
            final_forgetting: report.accuracy.avg_forgetting_after(tasks - 1),
            degradation: clean_accuracy - final_accuracy,
            comm_seconds: report.task_comm_seconds.iter().sum(),
            total_bytes: report.total_bytes,
            crashes: report.fault_count(FaultKind::Crash) as u64,
            rejoins: report.fault_count(FaultKind::Rejoin) as u64,
            lost_uploads: report.fault_count(FaultKind::UploadLost) as u64,
            retries: report.fault_count(FaultKind::UploadRetry) as u64,
            deadline_misses: report.fault_count(FaultKind::DeadlineMiss) as u64,
            rejected_uploads: report.fault_count(FaultKind::UploadRejected) as u64,
        }
    }
}

fn main() {
    let args = parse_args();
    let rates: Vec<f64> = match args.scale {
        Scale::Smoke => vec![0.0, 0.3],
        _ => vec![0.0, 0.1, 0.2, 0.3],
    };
    let base = scaled_spec(DatasetSpec::cifar100(), args.scale, args.seed);
    // The heterogeneous mini-cluster: fast AGX down to Nano, so the
    // deadline and straggler machinery actually has a spread to bite on.
    let devices = shrunk_cluster(base.num_clients);

    let mut rows: Vec<ResilienceRow> = Vec::new();
    for method in [Method::FedKnow, Method::FedAvg] {
        let mut clean_accuracy = 0.0;
        for &rate in &rates {
            eprintln!(
                "[resilience] {} @ {:.0}% crash/loss ...",
                method.name(),
                100.0 * rate
            );
            let spec = base.clone().with_faults(FaultConfig::crash_loss(rate));
            let started = std::time::Instant::now();
            // `--transport` swaps the in-process simulator for the
            // actor runtime: same report bit-for-bit (the parity the
            // e2e tests pin down), but the faults are realized at the
            // wire seam and the bytes actually cross a socket.
            let report = match args.transport {
                Some(kind) => {
                    let (report, stats) = spec
                        .run_over_on(method, devices.clone(), CommModel::paper_default(), kind)
                        .expect("transport run failed");
                    eprintln!(
                        "[resilience] {kind}: {} frames, {} data bytes, \
                         {} dropped, {} overhead",
                        stats.frames, stats.payload, stats.frames_dropped, stats.overhead
                    );
                    report
                }
                None => spec
                    .run_on(method, devices.clone(), CommModel::paper_default())
                    .expect("simulation failed"),
            };
            // The fault-free FedKNOW run is what the regression gate
            // tracks: a resilience-protocol change that costs clean-run
            // accuracy or wall time shows up here.
            if rate == 0.0 && report.method == "fedknow" {
                let rec = BenchRecord::from_report(
                    "resilience",
                    args.scale.name(),
                    args.seed,
                    &report,
                    started.elapsed().as_secs_f64(),
                );
                write_bench_record(&results_dir(), &rec);
            }
            if rate == 0.0 {
                let tasks = report.accuracy.num_tasks();
                clean_accuracy = report.accuracy.avg_accuracy_after(tasks - 1);
            }
            rows.push(ResilienceRow::new(rate, &report, clean_accuracy));
        }
    }

    let columns: Vec<String> = rates.iter().map(|r| format!("{:.0}%", 100.0 * r)).collect();
    let per_method = |f: &dyn Fn(&ResilienceRow) -> f64| -> Vec<(String, Vec<f64>)> {
        [Method::FedKnow, Method::FedAvg]
            .iter()
            .map(|m| {
                let vals = rows
                    .iter()
                    .filter(|r| r.method == m.name())
                    .map(f)
                    .collect();
                (m.name().to_string(), vals)
            })
            .collect()
    };
    print_table(
        "Resilience — final accuracy vs fault rate",
        &columns,
        &per_method(&|r| r.final_accuracy),
    );
    print_table(
        "Resilience — accuracy degradation vs fault-free",
        &columns,
        &per_method(&|r| r.degradation),
    );
    print_table(
        "Resilience — comm seconds (retries + backoff charged)",
        &columns,
        &per_method(&|r| r.comm_seconds),
    );
    for r in rows.iter().filter(|r| r.fault_rate > 0.0) {
        println!(
            "[faults] {} @ {:.0}%: {} crashes, {} rejoins, {} lost uploads, \
             {} retries, {} deadline misses, {} quarantined",
            r.method,
            100.0 * r.fault_rate,
            r.crashes,
            r.rejoins,
            r.lost_uploads,
            r.retries,
            r.deadline_misses,
            r.rejected_uploads
        );
    }
    write_json("resilience", &rows);
}
