//! The metrics registry: named monotonic counters, exact whatever the
//! flight recorder's rings overwrote, plus immutable snapshots that can
//! be diffed to attribute counts to a single run.
//!
//! Distributions, gauges and series are not kept here: each sample is
//! one record (see [`crate::ring`]), and [`crate::Aggregate`] totals a
//! recording exactly.
//!
//! ## Bounded cardinality
//!
//! Dynamic metric names are the classic telemetry memory leak: one
//! name per client and the registry grows O(clients). The registry
//! holds at most [`Registry::max_names`] distinct counters
//! ([`DEFAULT_MAX_NAMES`] for the process-wide registry). Creation
//! attempts past the cap are routed to the shared [`OVERFLOW_NAME`]
//! counter and counted in `obs.name_overflow` — loud, not silent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

/// Name cap of [`Registry::new`].
pub const DEFAULT_MAX_NAMES: usize = 512;

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

/// A registry of named counters. Counters are created on first use;
/// the map is only locked to look one up, never while counting, so
/// concurrent counting on existing counters is lock-free.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    /// Cap on distinct names.
    max_names: usize,
    /// Writes routed to the overflow counter because of the cap.
    overflow: AtomicU64,
    /// The shared sink for over-cap names.
    overflow_counter: Arc<Counter>,
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

    /// An empty registry with an explicit cap on distinct names.
    pub fn with_max_names(max_names: usize) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            max_names: max_names.max(1),
            overflow: AtomicU64::new(0),
            overflow_counter: Arc::new(Counter::default()),
        }
    }

    /// The cap on distinct counter names.
    pub fn max_names(&self) -> usize {
        self.max_names
    }

    /// Writes that hit the name cap so far.
    pub fn name_overflow(&self) -> u64 {
        self.overflow.load(Relaxed)
    }

    /// The counter named `name`, created if absent (the shared overflow
    /// counter once the name cap is reached).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        if map.len() >= self.max_names {
            self.overflow.fetch_add(1, Relaxed);
            return Arc::clone(&self.overflow_counter);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Add `delta` to the counter named `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Copy every counter into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        // Governor visibility: over-cap writes and their shared sink.
        let overflow = self.overflow.load(Relaxed);
        if overflow > 0 {
            counters.insert("obs.name_overflow".to_string(), overflow);
            counters.insert(OVERFLOW_NAME.to_string(), self.overflow_counter.get());
        }
        MetricsSnapshot { counters }
    }
}

/// An immutable copy of a [`Registry`]'s counters at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The counts that accumulated between `earlier` and `self` (both
    /// from the same registry). Counters absent from `earlier` are
    /// attributed entirely to the interval; unchanged ones drop out.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v - earlier.counters.get(k).copied().unwrap_or(0);
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot { counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.add("bytes", 10);
        r.add("bytes", 5);
        assert_eq!(r.snapshot().counters["bytes"], 15);
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
    fn snapshot_diff_isolates_interval() {
        let r = Registry::new();
        r.add("n", 7);
        r.add("k", 1);
        let before = r.snapshot();
        r.add("n", 3);
        r.add("m", 1);
        let d = r.snapshot().since(&before);
        assert_eq!(d.counters["n"], 3);
        assert_eq!(d.counters["m"], 1);
        assert!(!d.counters.contains_key("k"), "unchanged counter drops out");
        // Unchanged counters drop out of the diff entirely.
        assert!(r.snapshot().since(&r.snapshot()).counters.is_empty());
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
}
