//! End-to-end observability: run FedKNOW with the JSONL stream attached
//! and check that every phase of the paper's pipeline — extraction
//! (§III-B), gradient restoration (Eq. 2), QP gradient integration
//! (Eqs. 3–5), FedAvg aggregation (§III-A) and communication — receives
//! non-zero attribution in the JSONL stream, and that the registry's
//! exact byte counters agree with the report and the stream.
//!
//! The observability facade is process-global, so this file holds a
//! single test (its own integration-test binary = its own process).

use fedknow_baselines::Method;
use fedknow_suite::RunSpec;

#[test]
fn obs_attributes_time_to_every_paper_phase() {
    let path = std::env::temp_dir().join(format!("fedknow_obs_e2e_{}.jsonl", std::process::id()));
    // Must be set before the first obs call in this process: the stream
    // is attached lazily when the simulation calls `init_from_env`.
    std::env::set_var(fedknow_obs::ENV_JSONL, &path);

    let report = RunSpec::quick(1)
        .run(Method::FedKnow)
        .expect("simulation failed");

    // The JSONL stream reloads into the attribution: every paper phase
    // has samples, time, and ordered exact quantiles.
    let stream = fedknow_obs::Recording::load(&path).expect("stream loads");
    std::fs::remove_file(&path).ok();
    let agg = fedknow_obs::Aggregate::from_records(&stream);
    for phase in [
        "extract.topk_ns",      // knowledge extraction (top-rho pruning)
        "restore.distill_ns",   // gradient restoration (Eq. 2)
        "qp.solve_ns",          // gradient integration (Eqs. 3-5)
        "fedavg.aggregate_ns",  // server aggregation
        "conv.fwd_ns",          // network forward
        "conv.bwd_ns",          // network backward
        "comm.sim_transfer_ns", // simulated link time
    ] {
        let xs = agg
            .samples
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(!xs.is_empty(), "{phase}: zero samples");
        assert!(xs.iter().sum::<u64>() > 0, "{phase}: zero time");
        let q = |q| agg.quantile(phase, q).unwrap();
        assert!(q(0.5) <= q(0.99), "{phase}: quantiles out of order");
    }
    // The whole-run span.
    let run = &agg.spans["run"];
    assert!(run.count > 0 && run.total_ns > 0, "run span: {run:?}");

    // The byte counters agree exactly with the report's wire total, in
    // the registry and in the stream. (This binary runs one simulation,
    // so the registry's totals are that run's.)
    let registry = fedknow_obs::snapshot().expect("obs enabled").counters;
    let up = registry["comm.upload_bytes"];
    let down = registry["comm.download_bytes"];
    assert!(up > 0 && down > 0);
    assert_eq!(
        up + down,
        report.total_bytes,
        "counters disagree with report accounting"
    );
    assert_eq!(agg.counters["comm.upload_bytes"], up);
    assert_eq!(agg.counters["comm.download_bytes"], down);

    // Spans nest run -> task -> round -> client even though clients
    // train on worker threads.
    assert!(
        agg.spans
            .keys()
            .any(|k| k.starts_with("run/task.0/round.0/client.")),
        "client spans must nest under run/task/round; got {:?}",
        agg.spans.keys().take(8).collect::<Vec<_>>()
    );

    // Attribution is rolled up the span tree: the clients train on
    // worker threads, whose kernel work the per-thread span accounting
    // leaves off the coordinator's `run` span; the reader adds it back.
    // Every kernel call of the run happens under some client or round
    // span, so the `run` row holds exactly the kernel counters' total.
    let kernel_flops: u64 = agg
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("flops."))
        .map(|(_, total)| total)
        .sum();
    assert!(kernel_flops > 0);
    assert_eq!(agg.spans["run"].flops, kernel_flops);

    // A clean run is a healthy run: the report's fault panel, the
    // health answer, has nothing to print.
    assert!(
        agg.faults.is_empty(),
        "faults on a clean run: {:?}",
        agg.faults
    );
    assert!(
        agg.violations.is_empty(),
        "violations on a clean run: {:?}",
        agg.violations
    );
    // (A run without a fault plan records no participation series.)
    let participation = agg.series.get("fl.participation");
    assert!(
        participation.is_none_or(|pts| pts.iter().all(|&(_, v)| v == 1.0)),
        "participation dropped on a clean run: {participation:?}"
    );

    // Bundles say which kernel tile the run used.
    let isa = fedknow_obs::bundle::context_entries()
        .into_iter()
        .find(|e| e.key == "kernel.isa")
        .expect("kernel.isa context entry");
    assert_eq!(isa.value, fedknow_math::gemm::isa_name());
}
