//! The JSONL stream writer and the one reader of recordings.
//!
//! With `FEDKNOW_OBS=<path>` every [`RingRecord`] is appended to
//! `<path>` as one JSON object per line: the record's own fields plus
//! the `thread` label of the thread that emitted it. A postmortem
//! bundle (see [`crate::bundle`]) holds the same records, grouped into
//! per-thread tracks. [`Recording`] loads either — the format is
//! sniffed, not flagged — and [`Aggregate`] totals a recording exactly
//! (raw sample sets, per-path span totals with attribution rolled up
//! the span tree) for the `obs report` view and the round-trip tests.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::bundle::{ContextEntry, PostmortemBundle};
use crate::ring::{RingData, RingRecord, SpanPerf, ThreadTrack};

/// One line of a stream: a [`RingRecord`]'s fields plus the label of
/// the thread that emitted it.
#[derive(Serialize, Deserialize)]
struct StreamLine {
    ts_ns: u64,
    round: u64,
    data: RingData,
    thread: String,
}

/// Appends one JSON object per record to a file (JSONL).
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

    /// Append `rec` as one line, labelled with the emitting `thread`.
    pub fn append(&self, thread: &str, rec: &RingRecord) {
        let line = StreamLine {
            ts_ns: rec.ts_ns,
            round: rec.round,
            data: rec.data.clone(),
            thread: thread.to_string(),
        };
        let line = serde_json::to_string(&line).expect("record serialises");
        // Ignore write errors: observability must never take down a run.
        let _ = writeln!(self.writer.lock(), "{line}");
    }

    /// Flush buffered lines to the file.
    pub fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Why a file could not be loaded as a [`Recording`].
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read (or is not UTF-8).
    Io(std::io::Error),
    /// A stream line is not a record (1-based line number). Streams
    /// written before the record became the one event (`{"Span":…}`
    /// lines) land here.
    Line {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A single JSON document that is not a well-formed bundle.
    Bundle(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::Line { line, msg } => write!(f, "line {line}: not a record: {msg}"),
            LoadError::Bundle(msg) => write!(f, "not a postmortem bundle: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A loaded recording: records per thread, plus what only a bundle
/// knows (its run context and process id).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Run context the bundle carried (empty for a stream).
    pub context: Vec<ContextEntry>,
    /// OS process id the bundle recorded (`None` for a stream and for
    /// pre-tracing bundles).
    pub pid: Option<u32>,
    /// One track per recording thread, ordered by thread label.
    pub tracks: Vec<ThreadTrack>,
}

impl From<PostmortemBundle> for Recording {
    fn from(bundle: PostmortemBundle) -> Self {
        Recording {
            context: bundle.context,
            pid: bundle.pid,
            tracks: bundle.tracks,
        }
    }
}

impl Recording {
    /// Load a `FEDKNOW_OBS` stream or a `FEDKNOW_TRACE_DIR` bundle.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        Self::parse(&std::fs::read_to_string(path).map_err(LoadError::Io)?)
    }

    /// Parse the text of a stream or a bundle: a single JSON document
    /// with `version` and `tracks` is a bundle, anything else a stream
    /// (whose first line stops the whole-text parse, so sniffing a long
    /// stream costs one line).
    pub fn parse(text: &str) -> Result<Self, LoadError> {
        let mut rec = Recording::default();
        match serde_json::from_str::<Value>(text) {
            Ok(doc) if doc.get("version").is_some() && doc.get("tracks").is_some() => {
                let bundle: PostmortemBundle =
                    serde_json::from_value(doc).map_err(|e| LoadError::Bundle(e.to_string()))?;
                rec = bundle.into();
            }
            _ => {
                for (i, line) in text.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let line: StreamLine =
                        serde_json::from_str(line).map_err(|e| LoadError::Line {
                            line: i + 1,
                            msg: e.to_string(),
                        })?;
                    rec.push_line(line);
                }
            }
        }
        rec.tracks.sort_by(|a, b| a.thread.cmp(&b.thread));
        Ok(rec)
    }

    /// Append one stream line to its thread's track.
    fn push_line(&mut self, line: StreamLine) {
        let record = RingRecord {
            ts_ns: line.ts_ns,
            round: line.round,
            data: line.data,
        };
        match self.tracks.iter_mut().find(|t| t.thread == line.thread) {
            Some(t) => t.events.push(record),
            None => self.tracks.push(ThreadTrack {
                thread: line.thread,
                dropped: 0,
                events: vec![record],
            }),
        }
    }

    /// Every record with the index of its track, in one globally
    /// time-ordered sequence. The sort is stable, so equal timestamps
    /// keep each thread's (causal) internal order.
    pub fn merged(&self) -> Vec<(usize, &RingRecord)> {
        let mut recs: Vec<(usize, &RingRecord)> = self
            .tracks
            .iter()
            .enumerate()
            .flat_map(|(t, track)| track.events.iter().map(move |r| (t, r)))
            .collect();
        recs.sort_by_key(|(_, r)| r.ts_ns);
        recs
    }
}

/// Per-span-path totals within an [`Aggregate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_ns: u64,
    /// Total kernel FLOPs attributed to spans at this path, including
    /// descendants that ran on other threads.
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

    fn add_perf(&mut self, p: &SpanPerf) {
        self.flops += p.flops;
        self.bytes += p.bytes;
        self.allocs += p.allocs;
        self.alloc_bytes += p.alloc_bytes;
    }
}

/// An exact aggregation of a recording: counter totals, raw histogram
/// samples (sorted), per-path span totals, last-written gauges, series
/// points in index order, and the fault / violation / note / wire
/// records a report lists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregate {
    /// Records aggregated.
    pub records: usize,
    /// Records the rings overwrote before the dump (0 for a stream):
    /// when non-zero, every total below covers the retained window only.
    pub dropped: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// All samples per histogram metric, sorted ascending.
    pub samples: BTreeMap<String, Vec<u64>>,
    /// Span totals by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Series points `(index, value)` by name, index-sorted (ties in
    /// time order).
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
    /// Injected faults by kind label.
    pub faults: BTreeMap<String, u64>,
    /// Verify violations, `(check, detail)`, in time order.
    pub violations: Vec<(String, String)>,
    /// Free-form notes (checkpoint marks, panics), in time order.
    pub notes: Vec<String>,
    /// Wire lifecycle points by phase (`enq`/`out`/`in`/`handled`/`drop`).
    pub wire: BTreeMap<String, u64>,
}

impl Aggregate {
    /// Aggregate a recording's tracks.
    ///
    /// A span's `perf` is inclusive of its children on the same thread
    /// only, so a span whose parent is open on a *different* thread (a
    /// client under a parallel round) also adds its `perf` to every
    /// ancestor path, credited when that ancestor closes: `run` then
    /// reads the whole tree's work, and a span still open at the last
    /// record (a bundle dumped mid-run) gets no row of work without
    /// time. A parent open on no thread lost its `Begin` to the ring
    /// bound; whether it already counts the child is unknowable, so
    /// nothing is added — totals over a truncated window undercount,
    /// never overcount.
    pub fn from_records(rec: &Recording) -> Self {
        let mut agg = Aggregate {
            dropped: rec.tracks.iter().map(|t| t.dropped).sum(),
            ..Aggregate::default()
        };
        // Per-thread stack of open span paths, to tell a parent opened
        // on the closing thread from one inherited from another.
        let mut open: Vec<Vec<&str>> = vec![Vec::new(); rec.tracks.len()];
        // Work of other threads' descendants, by the ancestor path that
        // takes it when it closes.
        let mut pending: BTreeMap<&str, Vec<&SpanPerf>> = BTreeMap::new();
        for (t, r) in rec.merged() {
            agg.records += 1;
            match &r.data {
                RingData::Begin { path } => open[t].push(path),
                RingData::End { path, dur_ns, perf } => {
                    if let Some(pos) = open[t].iter().rposition(|p| p == path) {
                        open[t].truncate(pos);
                    }
                    let stat = agg.spans.entry(path.clone()).or_default();
                    stat.count += 1;
                    stat.total_ns += dur_ns;
                    for p in pending.remove(path.as_str()).into_iter().flatten() {
                        stat.add_perf(p);
                    }
                    let Some(perf) = perf else { continue };
                    stat.add_perf(perf);
                    let Some((parent, _)) = path.rsplit_once('/') else {
                        continue;
                    };
                    let holds = |u: usize| open[u].contains(&parent);
                    if !holds(t) && (0..open.len()).any(holds) {
                        for (i, _) in path.match_indices('/') {
                            pending.entry(&path[..i]).or_default().push(perf);
                        }
                    }
                }
                RingData::Count { name, delta } => {
                    *agg.counters.entry(name.clone()).or_insert(0) += delta;
                }
                RingData::Sample { name, value } => {
                    agg.samples.entry(name.clone()).or_default().push(*value);
                }
                RingData::Gauge { name, value } => {
                    agg.gauges.insert(name.clone(), *value);
                }
                RingData::Point { name, index, value } => agg
                    .series
                    .entry(name.clone())
                    .or_default()
                    .push((*index, *value)),
                RingData::Fault { kind, .. } => *agg.faults.entry(kind.clone()).or_insert(0) += 1,
                RingData::Violation { check, detail } => {
                    agg.violations.push((check.clone(), detail.clone()));
                }
                RingData::Note { note } => agg.notes.push(note.clone()),
                RingData::Wire { phase, .. } => *agg.wire.entry(phase.clone()).or_insert(0) += 1,
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

    fn rec(ts_ns: u64, data: RingData) -> RingRecord {
        let round = 0;
        RingRecord { ts_ns, round, data }
    }

    fn begin(ts_ns: u64, path: &str) -> RingRecord {
        rec(ts_ns, RingData::Begin { path: path.into() })
    }

    fn end(ts_ns: u64, path: &str, dur_ns: u64, flops: u64) -> RingRecord {
        let perf = SpanPerf {
            flops,
            bytes: 64,
            allocs: 2,
            alloc_bytes: 256,
        };
        let (path, perf) = (path.into(), Some(perf));
        rec(ts_ns, RingData::End { path, dur_ns, perf })
    }

    fn recording(tracks: Vec<(u64, Vec<RingRecord>)>) -> Recording {
        let track = |(i, (dropped, events))| ThreadTrack {
            thread: format!("ThreadId({i})"),
            dropped,
            events,
        };
        Recording {
            tracks: tracks.into_iter().enumerate().map(track).collect(),
            ..Recording::default()
        }
    }

    /// A client span closed on a worker thread adds its work to every
    /// ancestor; a child closed on its parent's own thread does not
    /// (the parent's inclusive `perf` already holds it).
    #[test]
    fn perf_rolls_up_across_threads_only() {
        let coordinator = vec![
            begin(1, "run"),
            begin(2, "run/round.0"),
            end(9, "run/round.0", 7, 10),
            end(10, "run", 9, 10),
        ];
        let worker = vec![
            begin(3, "run/round.0/client.0"),
            begin(4, "run/round.0/client.0/train"),
            end(5, "run/round.0/client.0/train", 1, 100),
            end(6, "run/round.0/client.0", 3, 100),
        ];
        let mut whole = recording(vec![(0, coordinator), (0, worker)]);
        let agg = Aggregate::from_records(&whole);
        assert_eq!(agg.spans["run/round.0/client.0/train"].flops, 100);
        assert_eq!(agg.spans["run/round.0/client.0"].flops, 100);
        assert_eq!(agg.spans["run/round.0"].flops, 110);
        assert_eq!(agg.spans["run"].flops, 110);
        assert_eq!(agg.spans["run"].allocs, 4);

        // Dumped mid-run (the coordinator's spans never close): the
        // worker's work waits for ancestors that never take it, so no
        // row of FLOPs without time appears.
        whole.tracks[0].events.truncate(2);
        let agg = Aggregate::from_records(&whole);
        assert_eq!(agg.spans["run/round.0/client.0"].flops, 100);
        assert!(!agg.spans.contains_key("run/round.0") && !agg.spans.contains_key("run"));
    }

    /// A ring that overwrote its oldest records lost the outer `Begin`s
    /// first. Their same-thread children then have a parent open on no
    /// thread: nothing rolls up (the ancestors' own inclusive `End`s
    /// hold that work), so a truncated window never overcounts.
    #[test]
    fn perf_of_a_truncated_track_is_not_counted_twice() {
        // `run` and `run/round.0` began before the window.
        let coordinator = vec![
            begin(3, "run/round.0/aggregate"),
            end(4, "run/round.0/aggregate", 1, 10),
            end(8, "run/round.0", 7, 10),
            end(9, "run", 9, 10),
        ];
        // A worker whose parent's `Begin` is gone as well.
        let worker = vec![
            begin(5, "run/round.0/client.0"),
            end(6, "run/round.0/client.0", 1, 100),
        ];
        let agg = Aggregate::from_records(&recording(vec![(2, coordinator), (0, worker)]));
        assert_eq!(agg.dropped, 2);
        assert_eq!(agg.spans["run/round.0/aggregate"].flops, 10);
        assert_eq!(agg.spans["run/round.0"].flops, 10);
        assert_eq!(agg.spans["run"].flops, 10, "undercounts the worker");
        assert_eq!(agg.spans["run"].count, 1);
    }
}
