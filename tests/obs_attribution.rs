//! End-to-end observability: run FedKNOW with the JSONL stream attached
//! and check that every phase of the paper's pipeline — extraction
//! (§III-B), gradient restoration (Eq. 2), QP gradient integration
//! (Eqs. 3–5), FedAvg aggregation (§III-A) and communication — receives
//! non-zero attribution, in both the in-report breakdown and the JSONL
//! stream.
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

    let b = report
        .phase_breakdown
        .expect("FEDKNOW_OBS set => breakdown present");
    for phase in [
        "extract.topk_ns",      // knowledge extraction (top-rho pruning)
        "restore.distill_ns",   // gradient restoration (Eq. 2)
        "qp.solve_ns",          // gradient integration (Eqs. 3-5)
        "fedavg.aggregate_ns",  // server aggregation
        "conv.fwd_ns",          // network forward
        "conv.bwd_ns",          // network backward
        "comm.sim_transfer_ns", // simulated link time
        "span.run_ns",          // whole-run span
    ] {
        let p = b
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(p.count > 0, "{phase}: zero samples");
        assert!(p.total_ns > 0, "{phase}: zero time");
        assert!(p.p50_ns <= p.p99_ns, "{phase}: quantiles out of order");
    }
    // The byte counters agree exactly with the report's wire total.
    let up = b.counter("comm.upload_bytes").expect("upload counter");
    let down = b.counter("comm.download_bytes").expect("download counter");
    assert!(up > 0 && down > 0);
    assert_eq!(
        up + down,
        report.total_bytes,
        "counters disagree with report accounting"
    );

    // The JSONL stream reloads into the same attribution: spans nest
    // run -> task -> round -> client even though clients train on worker
    // threads, and counter totals match the registry.
    let stream = fedknow_obs::Recording::load(&path).expect("stream loads");
    std::fs::remove_file(&path).ok();
    let agg = fedknow_obs::Aggregate::from_records(&stream);
    assert_eq!(agg.counters["comm.upload_bytes"], up);
    assert_eq!(agg.counters["comm.download_bytes"], down);
    assert!(
        agg.spans
            .keys()
            .any(|k| k.starts_with("run/task.0/round.0/client.")),
        "client spans must nest under run/task/round; got {:?}",
        agg.spans.keys().take(8).collect::<Vec<_>>()
    );
    assert!(agg.spans.contains_key("run"));
    assert!(agg.quantile("qp.solve_ns", 0.5).is_some());

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

    // A clean run is a healthy run: no SLO leaves Ok.
    let health = fedknow_obs::health_snapshot().expect("obs enabled");
    assert_eq!(
        health.worst(),
        fedknow_obs::SloState::Ok,
        "SLOs tripped on a clean run: {:?}",
        health.slos
    );
}
