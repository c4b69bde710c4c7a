//! Property and concurrency tests for the observability layer:
//! aggregated quantiles against a sorted-vector oracle, counter
//! atomicity and sample completeness under concurrent writers, span
//! nesting, the stream / bundle round-trip into the aggregator, and the
//! loader on hostile bytes.

use fedknow_obs::{
    Aggregate, JsonlSink, LoadError, Recording, Registry, RingData, RingRecord, SpanPerf, SpanStat,
    ThreadTrack,
};
use proptest::prelude::*;

/// Exact nearest-rank quantile over raw samples — the oracle the
/// aggregate is checked against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `values` as `Sample` records of `name`, dealt round-robin onto
/// `threads` tracks with interleaved timestamps.
fn sampled(name: &str, values: &[u64], threads: usize) -> Recording {
    let mut tracks: Vec<ThreadTrack> = (0..threads)
        .map(|t| ThreadTrack {
            thread: format!("ThreadId({t})"),
            dropped: 0,
            events: Vec::new(),
        })
        .collect();
    for (i, &value) in values.iter().enumerate() {
        let data = RingData::Sample {
            name: name.into(),
            value,
        };
        let (ts_ns, round) = (i as u64, 0);
        tracks[i % threads]
            .events
            .push(RingRecord { ts_ns, round, data });
    }
    Recording {
        tracks,
        ..Recording::default()
    }
}

/// Everything this process's rings hold, aggregated.
fn recorded() -> Aggregate {
    Aggregate::from_records(&Recording::from(fedknow_obs::collect_bundle("test")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles of samples recorded on several threads are the exact
    /// order statistic at every probed q, and min/max are exact.
    #[test]
    fn quantiles_match_sorted_oracle(
        small in prop::collection::vec(0u64..1024, 1..200),
        large in prop::collection::vec(1u64..u64::MAX / 2, 0..200),
        threads in 1usize..5,
        q in 0.01f64..1.0,
    ) {
        let mut all: Vec<u64> = small.iter().chain(&large).copied().collect();
        let agg = Aggregate::from_records(&sampled("lat_ns", &all, threads));
        all.sort_unstable();
        prop_assert_eq!(&agg.samples["lat_ns"], &all);
        prop_assert_eq!(agg.quantile("lat_ns", 0.0), Some(all[0]));
        prop_assert_eq!(agg.quantile("lat_ns", 1.0), all.last().copied());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, q] {
            prop_assert_eq!(agg.quantile("lat_ns", q), Some(oracle_quantile(&all, q)));
        }
    }

    /// Sample sums and counts are exact.
    #[test]
    fn sums_are_exact(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let agg = Aggregate::from_records(&sampled("lat_ns", &values, 3));
        let xs = &agg.samples["lat_ns"];
        prop_assert_eq!(xs.len(), values.len());
        prop_assert_eq!(xs.iter().sum::<u64>(), values.iter().sum::<u64>());
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

/// Every sample recorded through the facade from concurrent threads is
/// a record of its thread's ring, so the aggregate holds them all.
#[test]
fn histograms_lose_nothing_under_concurrent_writers() {
    fedknow_obs::enable();
    let threads = 8u64;
    let per_thread = 5_000u64;
    crossbeam::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move |_| {
                for i in 0..per_thread {
                    fedknow_obs::record("concurrent.lat_ns", t * 1000 + i);
                }
            });
        }
    })
    .expect("worker thread panicked");
    let agg = recorded();
    assert_eq!(agg.dropped, 0);
    let xs = &agg.samples["concurrent.lat_ns"];
    assert_eq!(xs.len() as u64, threads * per_thread);
    let sum: u64 = (0..threads)
        .flat_map(|t| (0..per_thread).map(move |i| t * 1000 + i))
        .sum();
    assert_eq!(xs.iter().sum::<u64>(), sum);
}

/// Span nesting and cross-thread path inheritance. Uses the global
/// facade, which this binary's facade tests enable for the whole
/// process; the other tests in this file use instance APIs.
#[test]
fn spans_nest_and_inherit_across_threads() {
    fedknow_obs::enable();
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
    let spans = recorded().spans;
    assert_eq!(spans["t_run/t_task/t_client"].count, 4);
    assert_eq!(spans["t_run/t_task"].count, 1);
    assert_eq!(spans["t_run"].count, 1);
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
    assert!(from_stream.context.is_empty());

    let agg = Aggregate::from_records(&from_stream);
    assert_eq!(agg, Aggregate::from_records(&from_bundle));
    assert_eq!(agg.records, 13);
    assert_eq!(agg.counter("comm.upload_bytes"), 5120);
    assert_eq!(agg.counter("never_touched"), 0);
    assert_eq!(agg.samples["qp.solve_ns"], vec![7, 42, 58]);
    assert_eq!(agg.quantile("qp.solve_ns", 0.5), Some(42));
    assert_eq!(agg.quantile("qp.solve_ns", 1.0), Some(58));
    assert_eq!(agg.quantile("qp.iters", 0.5), Some(17));
    assert_eq!(agg.quantile("missing", 0.5), None);
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
    // After thirteen good lines, a line of the stream format before the
    // record became the one event, or plain garbage: it is named.
    for bad in [
        r#"{"Span":{"path":"run","dur_ns":5,"thread":"t"}}"#,
        "not json",
    ] {
        let err = Recording::parse(&format!("{text}{bad}\n")).unwrap_err();
        assert!(matches!(err, LoadError::Line { line: 14, .. }), "{err:?}");
        assert!(err.to_string().starts_with("line 14:"), "{err}");
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
