//! The metrics registry: named counters, histograms, gauges and
//! round-indexed time series, plus immutable snapshots that can be
//! diffed to attribute metrics to a single run.
//!
//! ## Bounded cardinality
//!
//! Dynamic metric names are the classic telemetry memory leak: one
//! name per client and the registry grows O(clients). Two governors
//! keep it O(1):
//!
//! * **Name cap** — each instrument kind holds at most
//!   [`Registry::max_names`] distinct names ([`DEFAULT_MAX_NAMES`] for
//!   the process-wide registry). Creation attempts past the cap
//!   are routed to a shared per-kind `obs.overflow` instrument and
//!   counted in the `obs.name_overflow` counter — loud, not silent.
//! * **Series point cap** — every [`Series`] keeps at most
//!   [`SERIES_POINT_CAP`] points; later pushes are dropped and counted
//!   in `obs.series_dropped`. Simulation series are O(rounds) and
//!   never get close; the cap is the backstop that makes worst-case
//!   memory a constant.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{HistSnapshot, LogHistogram};

/// Per-kind name cap of [`Registry::new`].
pub const DEFAULT_MAX_NAMES: usize = 512;

/// Hard cap on points retained per series (~1 MiB per series worst
/// case). Simulations produce O(rounds) points and stay far below.
pub const SERIES_POINT_CAP: usize = 65_536;

/// The shared name every over-cap write folds into.
pub const OVERFLOW_NAME: &str = "obs.overflow";

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge: the last-written `f64`, bit-cast into an atomic so writers
/// never lock.
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// A round-indexed time series: `(index, value)` points in push order.
/// Indices are typically global round numbers (see
/// [`round_index`](crate::round_index)); several points may share an
/// index (e.g. one per client within a round). Holds at most
/// [`SERIES_POINT_CAP`] points; overflow pushes are dropped and
/// counted.
pub struct Series {
    points: Mutex<Vec<(u64, f64)>>,
    dropped: AtomicU64,
}

impl Default for Series {
    fn default() -> Self {
        Self {
            points: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }
}

impl Series {
    /// Append one point (dropped and counted once the point cap is
    /// reached).
    pub fn push(&self, index: u64, value: f64) {
        let mut pts = self.points.lock();
        if pts.len() >= SERIES_POINT_CAP {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        pts.push((index, value));
    }

    /// Copy of the points, sorted by index (ties keep push order).
    pub fn points(&self) -> Vec<(u64, f64)> {
        let mut pts = self.points.lock().clone();
        pts.sort_by_key(|&(i, _)| i);
        pts
    }

    /// Points dropped by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }
}

/// A registry of named metrics. Metric handles are created on first
/// use; the maps are only locked to look a handle up, never while
/// recording, so concurrent recording on existing metrics is lock-free.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    hists: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
    /// Per-kind cap on distinct names.
    max_names: usize,
    /// Writes routed to an overflow instrument because of the cap.
    overflow: AtomicU64,
    /// Shared per-kind sinks for over-cap names.
    overflow_counter: Arc<Counter>,
    overflow_hist: Arc<LogHistogram>,
    overflow_gauge: Arc<Gauge>,
    overflow_series: Arc<Series>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_max_names(DEFAULT_MAX_NAMES)
    }
}

impl Registry {
    /// An empty registry with the [`DEFAULT_MAX_NAMES`] name cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry with an explicit per-kind name cap.
    pub fn with_max_names(max_names: usize) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
            max_names: max_names.max(1),
            overflow: AtomicU64::new(0),
            overflow_counter: Arc::new(Counter::default()),
            overflow_hist: Arc::new(LogHistogram::new()),
            overflow_gauge: Arc::new(Gauge::default()),
            overflow_series: Arc::new(Series::default()),
        }
    }

    /// The per-kind cap on distinct metric names.
    pub fn max_names(&self) -> usize {
        self.max_names
    }

    /// Writes that hit the name cap so far.
    pub fn name_overflow(&self) -> u64 {
        self.overflow.load(Relaxed)
    }

    /// Look up or create a named slot, honouring the name cap.
    fn slot<T>(
        &self,
        map: &Mutex<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
        overflow: &Arc<T>,
    ) -> Arc<T> {
        let mut map = map.lock();
        if let Some(v) = map.get(name) {
            return Arc::clone(v);
        }
        if map.len() >= self.max_names {
            self.overflow.fetch_add(1, Relaxed);
            return Arc::clone(overflow);
        }
        let v = Arc::new(make());
        map.insert(name.to_string(), Arc::clone(&v));
        v
    }

    /// The counter named `name`, created if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.slot(
            &self.counters,
            name,
            Counter::default,
            &self.overflow_counter,
        )
    }

    /// The histogram named `name`, created if absent.
    pub fn hist(&self, name: &str) -> Arc<LogHistogram> {
        self.slot(&self.hists, name, LogHistogram::new, &self.overflow_hist)
    }

    /// The gauge named `name`, created if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.slot(&self.gauges, name, Gauge::default, &self.overflow_gauge)
    }

    /// The series named `name`, created if absent.
    pub fn series(&self, name: &str) -> Arc<Series> {
        self.slot(&self.series, name, Series::default, &self.overflow_series)
    }

    /// Add `delta` to the counter named `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Record `value` into the histogram named `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.hist(name).record(value);
    }

    /// Set the gauge named `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauge(name).set(value);
    }

    /// Append a point to the series named `name`.
    pub fn push_series(&self, name: &str, index: u64, value: f64) {
        self.series(name).push(index, value);
    }

    /// Copy every metric into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut hists: BTreeMap<String, HistSnapshot> = self
            .hists
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let series_map = self.series.lock();
        let mut dropped: u64 = series_map.values().map(|s| s.dropped()).sum();
        dropped += self.overflow_series.dropped();
        let series = series_map
            .iter()
            .map(|(k, v)| (k.clone(), v.points()))
            .collect();
        drop(series_map);
        // Governor visibility: over-cap writes and their shared sinks.
        let overflow = self.overflow.load(Relaxed);
        if overflow > 0 {
            counters.insert("obs.name_overflow".to_string(), overflow);
            if self.overflow_counter.get() > 0 {
                counters.insert(OVERFLOW_NAME.to_string(), self.overflow_counter.get());
            }
            let oh = self.overflow_hist.snapshot();
            if oh.count() > 0 {
                hists.insert(OVERFLOW_NAME.to_string(), oh);
            }
        }
        if dropped > 0 {
            counters.insert("obs.series_dropped".to_string(), dropped);
        }
        MetricsSnapshot {
            counters,
            hists,
            gauges,
            series,
        }
    }
}

/// An immutable copy of a [`Registry`]'s state at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Series points `(index, value)` by name, index-sorted.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl MetricsSnapshot {
    /// The metrics that accumulated between `earlier` and `self`
    /// (both from the same registry). Metrics absent from `earlier`
    /// are attributed entirely to the interval. Gauges keep their
    /// latest value when it changed; series keep the points appended
    /// after `earlier` (by count — exact when the interval endpoints
    /// are quiescent, which is how [`crate::snapshot`] diffing is used).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v - earlier.counters.get(k).copied().unwrap_or(0);
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let empty = HistSnapshot::default();
        let hists = self
            .hists
            .iter()
            .filter_map(|(k, v)| {
                let d = v.since(earlier.hists.get(k).unwrap_or(&empty));
                (d.count() > 0).then(|| (k.clone(), d))
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter_map(|(k, &v)| {
                let changed = earlier.gauges.get(k) != Some(&v);
                changed.then(|| (k.clone(), v))
            })
            .collect();
        let series = self
            .series
            .iter()
            .filter_map(|(k, v)| {
                let seen = earlier.series.get(k).map(|s| s.len()).unwrap_or(0);
                (v.len() > seen).then(|| (k.clone(), v[seen..].to_vec()))
            })
            .collect();
        MetricsSnapshot {
            counters,
            hists,
            gauges,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_accumulate() {
        let r = Registry::new();
        r.add("bytes", 10);
        r.add("bytes", 5);
        r.record("lat", 100);
        r.record("lat", 300);
        let s = r.snapshot();
        assert_eq!(s.counters["bytes"], 15);
        assert_eq!(s.hists["lat"].count(), 2);
        assert_eq!(s.hists["lat"].sum(), 400);
    }

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(1);
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn gauges_overwrite_and_series_accumulate() {
        let r = Registry::new();
        r.set_gauge("temp", 1.5);
        r.set_gauge("temp", 2.5);
        r.push_series("acc", 3, 0.7);
        r.push_series("acc", 1, 0.5);
        r.push_series("acc", 1, 0.6);
        let s = r.snapshot();
        assert_eq!(s.gauges["temp"], 2.5);
        // Points come back index-sorted, ties in push order.
        assert_eq!(s.series["acc"], vec![(1, 0.5), (1, 0.6), (3, 0.7)]);
    }

    #[test]
    fn since_diffs_gauges_and_series() {
        let r = Registry::new();
        r.set_gauge("a", 1.0);
        r.set_gauge("b", 2.0);
        r.push_series("s", 0, 0.1);
        let before = r.snapshot();
        r.set_gauge("a", 3.0);
        r.push_series("s", 1, 0.2);
        let d = r.snapshot().since(&before);
        assert_eq!(d.gauges.get("a"), Some(&3.0));
        assert!(!d.gauges.contains_key("b"), "unchanged gauge drops out");
        assert_eq!(d.series["s"], vec![(1, 0.2)]);
        let none = r.snapshot().since(&r.snapshot());
        assert!(none.gauges.is_empty() && none.series.is_empty());
    }

    #[test]
    fn snapshot_diff_isolates_interval() {
        let r = Registry::new();
        r.add("n", 7);
        r.record("h", 50);
        let before = r.snapshot();
        r.add("n", 3);
        r.add("m", 1);
        r.record("h", 60);
        let d = r.snapshot().since(&before);
        assert_eq!(d.counters["n"], 3);
        assert_eq!(d.counters["m"], 1);
        assert_eq!(d.hists["h"].count(), 1);
        assert_eq!(d.hists["h"].sum(), 60);
        // Unchanged metrics drop out of the diff entirely.
        let none = r.snapshot().since(&r.snapshot());
        assert!(none.counters.is_empty() && none.hists.is_empty());
    }

    #[test]
    fn name_cap_overflows_loudly() {
        let r = Registry::with_max_names(4);
        for i in 0..10 {
            r.add(&format!("dyn.{i}"), 1);
        }
        let s = r.snapshot();
        // Four real names were admitted; six writes overflowed.
        assert_eq!(s.counters["obs.name_overflow"], 6);
        assert_eq!(s.counters[OVERFLOW_NAME], 6);
        let named: usize = (0..10)
            .filter(|i| s.counters.contains_key(&format!("dyn.{i}")))
            .count();
        assert_eq!(named, 4);
        // Existing names keep working at the cap.
        r.add("dyn.0", 5);
        assert_eq!(r.counter("dyn.0").get(), 6);
    }

    #[test]
    fn series_point_cap_drops_and_counts() {
        let r = Registry::new();
        let s = r.series("cap_test");
        for i in 0..(SERIES_POINT_CAP as u64 + 10) {
            s.push(i, 1.0);
        }
        assert_eq!(s.dropped(), 10);
        assert_eq!(s.points().len(), SERIES_POINT_CAP);
        assert_eq!(r.snapshot().counters["obs.series_dropped"], 10);
    }
}
