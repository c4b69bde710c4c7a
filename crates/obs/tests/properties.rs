//! Property and concurrency tests for the observability layer:
//! histogram quantiles against a sorted-vector oracle, counter
//! atomicity under concurrent writers, span nesting, the stream /
//! bundle round-trip into the aggregator, and the loader on hostile
//! bytes.

use fedknow_obs::{
    Aggregate, JsonlSink, LoadError, LogHistogram, Recording, Registry, RingData, RingRecord,
    SpanPerf, SpanStat, ThreadTrack,
};
use proptest::prelude::*;

/// Exact nearest-rank quantile over raw samples — the oracle the
/// histogram estimate is checked against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles track the exact order statistic within the
    /// sub-bucket relative error bound (~2%) at every probed q.
    #[test]
    fn quantiles_match_sorted_oracle(
        small in prop::collection::vec(0u64..1024, 1..200),
        large in prop::collection::vec(1u64..u64::MAX / 2, 0..200),
        q in 0.01f64..1.0,
    ) {
        let h = LogHistogram::new();
        let mut all: Vec<u64> = small.iter().chain(&large).copied().collect();
        for &v in &all {
            h.record(v);
        }
        all.sort_unstable();
        let s = h.snapshot();
        prop_assert_eq!(s.count(), all.len() as u64);
        prop_assert_eq!(s.min(), all[0]);
        prop_assert_eq!(s.max(), *all.last().unwrap());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, q] {
            let exact = oracle_quantile(&all, q) as f64;
            let est = s.quantile(q) as f64;
            // The estimate's bucket contains the exact order statistic,
            // so mid-point error is bounded by half the bucket width
            // (1/32 relative) plus integer rounding.
            prop_assert!(
                (est - exact).abs() <= exact * (1.0 / 32.0) + 1.0,
                "q={} est={} exact={}", q, est, exact
            );
        }
    }

    /// Histogram sum/mean are exact regardless of bucketing.
    #[test]
    fn sums_are_exact(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let exact: u64 = values.iter().sum();
        prop_assert_eq!(s.sum(), exact);
        let mean = exact as f64 / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-9);
    }
}

#[test]
fn counters_are_atomic_under_concurrent_writers() {
    let registry = Registry::new();
    let threads = 8usize;
    let per_thread = 10_000u64;
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| {
                let c = registry.counter("concurrent.total");
                for _ in 0..per_thread {
                    c.add(1);
                }
                // Half the threads also exercise name-based lookup.
                registry.add("concurrent.lookup", 2);
            });
        }
    })
    .expect("worker thread panicked");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["concurrent.total"],
        threads as u64 * per_thread
    );
    assert_eq!(snap.counters["concurrent.lookup"], threads as u64 * 2);
}

#[test]
fn histograms_lose_nothing_under_concurrent_writers() {
    let registry = Registry::new();
    let threads = 8u64;
    let per_thread = 5_000u64;
    let registry = &registry;
    crossbeam::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move |_| {
                let h = registry.hist("concurrent.lat_ns");
                for i in 0..per_thread {
                    h.record(t * 1000 + i);
                }
            });
        }
    })
    .expect("worker thread panicked");
    let s = registry.snapshot().hists["concurrent.lat_ns"].clone();
    assert_eq!(s.count(), threads * per_thread);
}

/// Span nesting and cross-thread path inheritance. Uses the global
/// facade, which this test enables for the whole process — safe here
/// because this integration test binary runs in its own process and
/// every other test in this file uses instance APIs.
#[test]
fn spans_nest_and_inherit_across_threads() {
    fedknow_obs::enable();
    let before = fedknow_obs::snapshot().unwrap();
    {
        let _run = fedknow_obs::span("t_run");
        let _task = fedknow_obs::span("t_task");
        assert_eq!(fedknow_obs::current_path(), "t_run/t_task");
        let parent = fedknow_obs::current_path();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = fedknow_obs::inherit_path(&parent);
                    let _c = fedknow_obs::span("t_client");
                    assert_eq!(fedknow_obs::current_path(), "t_run/t_task/t_client");
                });
            }
        });
        // The parent thread's stack is untouched by the workers.
        assert_eq!(fedknow_obs::current_path(), "t_run/t_task");
    }
    assert_eq!(fedknow_obs::current_path(), "");
    let diff = fedknow_obs::snapshot().unwrap().since(&before);
    assert_eq!(diff.hists["span.t_client_ns"].count(), 4);
    assert_eq!(diff.hists["span.t_task_ns"].count(), 1);
    assert_eq!(diff.hists["span.t_run_ns"].count(), 1);
}

/// Two threads' worth of records covering every aggregated kind.
fn sample_tracks() -> Vec<ThreadTrack> {
    let rec = |ts_ns, data| RingRecord {
        ts_ns,
        round: 1,
        data,
    };
    let end = |path: &str, dur_ns, perf| RingData::End {
        path: path.into(),
        dur_ns,
        perf,
    };
    let count = |delta| RingData::Count {
        name: "comm.upload_bytes".into(),
        delta,
    };
    let sample = |name: &str, value| RingData::Sample {
        name: name.into(),
        value,
    };
    let gauge = |value| RingData::Gauge {
        name: "g".into(),
        value,
    };
    let point = |index, value| RingData::Point {
        name: "s".into(),
        index,
        value,
    };
    let perf = SpanPerf {
        flops: 4000,
        bytes: 2000,
        allocs: 1,
        alloc_bytes: 64,
    };
    vec![
        ThreadTrack {
            thread: "ThreadId(1)".into(),
            dropped: 0,
            events: vec![
                rec(10, RingData::Begin { path: "run".into() }),
                rec(20, count(4096)),
                rec(30, sample("qp.solve_ns", 42)),
                rec(40, sample("qp.iters", 17)),
                rec(50, gauge(1.0)),
                rec(60, point(5, 0.5)),
                rec(500, end("run", 490, None)),
            ],
        },
        ThreadTrack {
            thread: "ThreadId(2)".into(),
            dropped: 0,
            events: vec![
                rec(
                    100,
                    RingData::Begin {
                        path: "run/task.0".into(),
                    },
                ),
                rec(150, count(1024)),
                rec(160, sample("qp.solve_ns", 58)),
                rec(170, sample("qp.solve_ns", 7)),
                rec(180, gauge(2.0)),
                rec(190, point(2, 0.25)),
                rec(300, end("run/task.0", 200, Some(perf))),
                rec(400, end("run/task.0", 50, None)),
            ],
        },
    ]
}

/// The same records as the text of a `FEDKNOW_OBS` stream, written by
/// the sink the facade writes through.
fn stream_text(tracks: &[ThreadTrack], tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("fedknow_obs_{tag}_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).unwrap();
    for t in tracks {
        for r in &t.events {
            sink.append(&t.thread, r);
        }
    }
    sink.flush();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// ... and as the text of a postmortem bundle.
fn bundle_text(tracks: &[ThreadTrack]) -> String {
    let mut bundle = fedknow_obs::collect_bundle("unit");
    bundle.tracks = tracks.to_vec();
    serde_json::to_string(&bundle).unwrap()
}

#[test]
fn stream_and_bundle_roundtrip_into_the_same_aggregate() {
    let tracks = sample_tracks();
    let from_stream = Recording::parse(&stream_text(&tracks, "rt")).unwrap();
    assert_eq!(from_stream.tracks, tracks);
    let from_bundle = Recording::parse(&bundle_text(&tracks)).unwrap();
    assert_eq!(from_bundle.tracks, tracks);
    assert!(from_stream.context.is_empty() && from_stream.pid.is_none());
    assert_eq!(from_bundle.pid, Some(std::process::id()));

    let agg = Aggregate::from_records(&from_stream);
    assert_eq!(agg, Aggregate::from_records(&from_bundle));
    assert_eq!(agg.records, 15);
    assert_eq!(agg.counter("comm.upload_bytes"), 5120);
    assert_eq!(agg.counter("never_touched"), 0);
    assert_eq!(agg.samples["qp.solve_ns"], vec![7, 42, 58]);
    assert_eq!(agg.quantile("qp.solve_ns", 0.5), Some(42));
    assert_eq!(agg.quantile("qp.solve_ns", 1.0), Some(58));
    assert_eq!(agg.quantile("qp.iters", 0.5), Some(17));
    assert_eq!(agg.quantile("missing", 0.5), None);
    assert_eq!(agg.gauges["g"], 2.0, "last write wins");
    assert_eq!(agg.series["s"], vec![(2, 0.25), (5, 0.5)], "index order");
    let task = SpanStat {
        count: 2,
        total_ns: 250,
        flops: 4000,
        bytes: 2000,
        allocs: 1,
        alloc_bytes: 64,
    };
    assert_eq!(agg.spans["run/task.0"], task);
    // 4000 FLOPs over 250 ns: achieved GFLOP/s is FLOPs/ns.
    assert!((task.gflops_per_sec().unwrap() - 16.0).abs() < 1e-12);
    // task.0 closed on another thread than `run`: rolled up.
    assert_eq!(agg.spans["run"].total_ns, 490);
    assert_eq!(agg.spans["run"].flops, 4000);
    assert_eq!(agg.spans["run"].gflops_per_sec(), Some(4000.0 / 490.0));
}

/// Corrupt stream input errors, naming the line, instead of silently
/// dropping data.
#[test]
fn loader_rejects_garbage() {
    let text = stream_text(&sample_tracks(), "bad");
    // After fifteen good lines, a line of the stream format before the
    // record became the one event, or plain garbage: it is named.
    for bad in [
        r#"{"Span":{"path":"run","dur_ns":5,"thread":"t"}}"#,
        "not json",
    ] {
        let err = Recording::parse(&format!("{text}{bad}\n")).unwrap_err();
        assert!(matches!(err, LoadError::Line { line: 16, .. }), "{err:?}");
        assert!(err.to_string().starts_with("line 16:"), "{err}");
        // Alone, it is a one-line stream, not a malformed bundle.
        assert!(matches!(
            Recording::parse(bad),
            Err(LoadError::Line { line: 1, .. })
        ));
    }
    let missing = Recording::load("/nonexistent/fedknow_obs.jsonl");
    assert!(matches!(missing, Err(LoadError::Io(_))));
    // A JSON document that is neither a bundle nor a record.
    assert!(Recording::parse("{\"neither\": \"bundle nor stream\"}").is_err());
    // A bundle whose tracks are malformed is a bundle error.
    let bad = r#"{"version":1,"tracks":[{"thread":7}]}"#;
    assert!(matches!(Recording::parse(bad), Err(LoadError::Bundle(_))));
}

/// A bundle cut at every offset and a stream whose last line is torn
/// load to a typed error (or, cut on a record boundary, to the records
/// before the cut) — never a panic.
#[test]
fn truncated_recordings_never_panic() {
    let tracks = sample_tracks();
    let bundle = bundle_text(&tracks);
    assert!(bundle.is_ascii());
    for cut in 0..bundle.len() {
        if let Ok(r) = Recording::parse(&bundle[..cut]) {
            assert!(r.tracks.is_empty(), "cut {cut} invented records");
        }
    }
    let stream = stream_text(&tracks, "torn");
    let total: usize = tracks.iter().map(|t| t.events.len()).sum();
    for cut in 0..stream.len() {
        let whole_lines = stream[..cut].matches('\n').count();
        match Recording::parse(&stream[..cut]) {
            Ok(r) => {
                let n: usize = r.tracks.iter().map(|t| t.events.len()).sum();
                assert!(n == whole_lines || n == whole_lines + 1, "cut {cut}: {n}");
                assert!(n <= total);
            }
            Err(LoadError::Line { line, .. }) => assert_eq!(line, whole_lines + 1),
            Err(other) => panic!("cut {cut}: {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes load to a typed error or a clean (possibly
    /// empty) recording.
    #[test]
    fn loader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        splice in 0usize..400,
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Recording::parse(&text);
        // The same bytes spliced into a valid stream line.
        let line = r#"{"ts_ns":1,"round":0,"data":{"Note":{"note":"x"}},"thread":"t"}"#;
        let at = splice.min(line.len());
        let _ = Recording::parse(&format!("{}{text}{}", &line[..at], &line[at..]));
    }
}
