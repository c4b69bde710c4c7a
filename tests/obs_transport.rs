//! End-to-end observability for the transport seam: run a real method
//! over the actor runtime with the JSONL stream attached and check that
//! the wire ledger, the comm model, and the observability counters all
//! tell the same byte story — the third leg of the byte-accounting
//! parity triangle (socket bytes == modeled bytes == obs counters).
//!
//! The observability facade is process-global, so this file holds a
//! single test (its own integration-test binary = its own process).

use fedknow_baselines::Method;
use fedknow_fl::{FaultConfig, TransportKind};
use fedknow_suite::RunSpec;

#[test]
fn obs_counters_agree_with_the_wire_ledger_and_the_comm_model() {
    let path = std::env::temp_dir().join(format!(
        "fedknow_obs_transport_{}.jsonl",
        std::process::id()
    ));
    // Must be set before the first obs call in this process: the stream
    // is attached lazily when the runtime calls `init_from_env`.
    std::env::set_var(fedknow_obs::ENV_JSONL, &path);

    let (report, stats) = RunSpec::quick(9)
        .with_faults(FaultConfig::crash_loss(0.2))
        .run_over(Method::FedAvg, TransportKind::Tcp)
        .expect("transport run failed");

    // FedAvg exchanges no knowledge payloads, so the data plane on the
    // wire is exactly the modeled traffic — uploads and broadcasts of
    // `model_bytes`, lost attempts burned on both ledgers.
    assert_eq!(
        stats.payload, report.total_bytes,
        "wire data bytes != modeled bytes"
    );
    assert!(
        !report.fault_log.is_empty(),
        "crash_loss(0.2) logged faults"
    );

    // The registry's counters mirror the wire ledger one-for-one. (This
    // binary runs one federation, so the registry's totals are its.)
    let registry = fedknow_obs::snapshot().expect("obs enabled").counters;
    let counter = |name: &str| {
        *registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(counter("transport.bytes.payload"), stats.payload);
    assert_eq!(counter("transport.bytes.overhead"), stats.overhead);
    assert_eq!(counter("transport.frames"), stats.frames);
    assert!(stats.frames > 0, "no frames moved");
    assert!(stats.overhead > 0, "framing overhead must be accounted");
    if stats.frames_dropped > 0 {
        assert_eq!(counter("transport.frames_dropped"), stats.frames_dropped);
    }

    // The comm-model counters close the triangle: modeled upload +
    // download bytes equal the report total, which equals wire payload.
    let (up, down) = (counter("comm.upload_bytes"), counter("comm.download_bytes"));
    assert_eq!(up + down, report.total_bytes);

    // The JSONL stream reloads into the same totals.
    let stream = fedknow_obs::Recording::load(&path).expect("stream loads");
    std::fs::remove_file(&path).ok();
    let agg = fedknow_obs::Aggregate::from_records(&stream);
    assert_eq!(agg.counters["transport.bytes.payload"], stats.payload);
    assert_eq!(agg.counters["transport.frames"], stats.frames);
    assert_eq!(
        agg.faults.values().sum::<u64>(),
        report.fault_log.len() as u64,
        "every logged fault is a record in the stream"
    );

    // The same run as a bundle is the same recording: equal aggregates,
    // and timelines with the same slices, instants and counters. That
    // holds because no ring reached its bound, so each still holds the
    // whole run, like the stream.
    let bundle = serde_json::to_string(&fedknow_obs::collect_bundle("test")).unwrap();
    let bundle = fedknow_obs::Recording::parse(&bundle).expect("bundle loads");
    for track in &bundle.tracks {
        assert_eq!(track.dropped, 0, "{} overwrote records", track.thread);
    }
    assert_eq!(bundle.tracks, stream.tracks);
    assert_eq!(fedknow_obs::Aggregate::from_records(&bundle), agg);
    let timeline = |rec| {
        fedknow_obs::trace::validate(&fedknow_obs::trace::to_trace(rec)).expect("valid trace")
    };
    let (s, b) = (timeline(&stream), timeline(&bundle));
    assert_eq!(s, b);
    assert!(s.slices > 0 && s.instants > 0 && s.counters > 0);
}
