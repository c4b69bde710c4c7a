//! Event sinks and the JSONL reader/aggregator.
//!
//! The in-memory aggregator is the [`Registry`](crate::registry::Registry)
//! itself; this module adds the optional JSONL file sink (one event per
//! line) and the reverse direction: reading a JSONL stream back into an
//! [`Aggregate`] with exact per-metric sample sets, used by the
//! `obs_report` binary and the round-trip tests.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use parking_lot::Mutex;

use crate::event::Event;

/// A destination for observability events.
pub trait Sink: Send + Sync {
    /// Deliver one event.
    fn emit(&self, event: &Event);
    /// Flush any buffered output.
    fn flush(&self) {}
}

/// Appends one JSON object per event to a file (JSONL).
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("event serialises");
        // Ignore write errors: observability must never take down a run.
        let _ = writeln!(self.writer.lock(), "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Read every event from a JSONL file. Unparseable lines are an error
/// (the file format is fully under this crate's control).
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<Event>> {
    let reader = BufReader::new(File::open(path)?);
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {e}", i + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Per-span-path totals within an [`Aggregate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_ns: u64,
    /// Total kernel FLOPs attributed to spans at this path.
    pub flops: u64,
    /// Total kernel bytes moved attributed to spans at this path.
    pub bytes: u64,
    /// Total heap allocations attributed (0 without `FEDKNOW_PROF_ALLOC`).
    pub allocs: u64,
    /// Total bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl SpanStat {
    /// Achieved GFLOP/s across the spans at this path, if any kernel
    /// work was attributed.
    pub fn gflops_per_sec(&self) -> Option<f64> {
        (self.flops > 0 && self.total_ns > 0).then(|| self.flops as f64 / self.total_ns as f64)
    }
}

/// An exact aggregation of an event stream: counter totals, raw
/// histogram samples (sorted), per-path span totals, last-written
/// gauges, and series points in index order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregate {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// All samples per histogram metric, sorted ascending.
    pub samples: BTreeMap<String, Vec<u64>>,
    /// Span totals by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Series points `(index, value)` by name, index-sorted (ties in
    /// stream order).
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Aggregate {
    /// Aggregate an event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut agg = Aggregate::default();
        for e in events {
            match e {
                Event::Count(c) => *agg.counters.entry(c.name.clone()).or_insert(0) += c.delta,
                Event::Sample(s) => agg.samples.entry(s.name.clone()).or_default().push(s.value),
                Event::Span(s) => {
                    let stat = agg.spans.entry(s.path.clone()).or_default();
                    stat.count += 1;
                    stat.total_ns += s.dur_ns;
                    if let Some(p) = &s.perf {
                        stat.flops += p.flops;
                        stat.bytes += p.bytes;
                        stat.allocs += p.allocs;
                        stat.alloc_bytes += p.alloc_bytes;
                    }
                }
                Event::Gauge(g) => {
                    agg.gauges.insert(g.name.clone(), g.value);
                }
                Event::Point(p) => agg
                    .series
                    .entry(p.name.clone())
                    .or_default()
                    .push((p.index, p.value)),
            }
        }
        for v in agg.samples.values_mut() {
            v.sort_unstable();
        }
        for v in agg.series.values_mut() {
            v.sort_by_key(|&(i, _)| i);
        }
        agg
    }

    /// Total of a counter, or 0 if it was never incremented — fault
    /// counters (`fl.crashes`, `fl.retries`, ...) are absent from clean
    /// runs, and "absent" means zero, not missing data.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exact nearest-rank quantile over a metric's samples.
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        let xs = self.samples.get(name)?;
        if xs.is_empty() {
            return None;
        }
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        Some(xs[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CountEvent, GaugeEvent, PointEvent, SampleEvent, SpanEnd};

    fn sample(name: &str, value: u64) -> Event {
        Event::Sample(SampleEvent {
            name: name.into(),
            value,
        })
    }

    #[test]
    fn aggregate_totals_and_quantiles() {
        let mut events = vec![
            Event::Count(CountEvent {
                name: "bytes".into(),
                delta: 4,
            }),
            Event::Count(CountEvent {
                name: "bytes".into(),
                delta: 6,
            }),
            Event::Span(SpanEnd {
                path: "run".into(),
                dur_ns: 50,
                thread: "t".into(),
                perf: None,
            }),
            Event::Span(SpanEnd {
                path: "run".into(),
                dur_ns: 70,
                thread: "t".into(),
                perf: Some(crate::event::SpanPerf {
                    flops: 140,
                    bytes: 64,
                    allocs: 2,
                    alloc_bytes: 256,
                }),
            }),
        ];
        for v in [5u64, 1, 9, 3, 7] {
            events.push(sample("lat", v));
        }
        let agg = Aggregate::from_events(&events);
        assert_eq!(agg.counters["bytes"], 10);
        assert_eq!(agg.counter("bytes"), 10);
        assert_eq!(agg.counter("never_touched"), 0);
        assert_eq!(
            agg.spans["run"],
            SpanStat {
                count: 2,
                total_ns: 120,
                flops: 140,
                bytes: 64,
                allocs: 2,
                alloc_bytes: 256,
            }
        );
        // 140 FLOPs over 120 ns: achieved GFLOP/s is FLOPs/ns.
        let g = agg.spans["run"].gflops_per_sec().unwrap();
        assert!((g - 140.0 / 120.0).abs() < 1e-12);
        assert_eq!(agg.samples["lat"], vec![1, 3, 5, 7, 9]);
        assert_eq!(agg.quantile("lat", 0.5), Some(5));
        assert_eq!(agg.quantile("lat", 1.0), Some(9));
        assert_eq!(agg.quantile("missing", 0.5), None);
    }

    #[test]
    fn gauges_keep_last_and_series_sort_by_index() {
        let events = vec![
            Event::Gauge(GaugeEvent {
                name: "g".into(),
                value: 1.0,
            }),
            Event::Gauge(GaugeEvent {
                name: "g".into(),
                value: 2.0,
            }),
            Event::Point(PointEvent {
                name: "s".into(),
                index: 5,
                value: 0.5,
            }),
            Event::Point(PointEvent {
                name: "s".into(),
                index: 2,
                value: 0.25,
            }),
        ];
        let agg = Aggregate::from_events(&events);
        assert_eq!(agg.gauges["g"], 2.0);
        assert_eq!(agg.series["s"], vec![(2, 0.25), (5, 0.5)]);
    }
}
