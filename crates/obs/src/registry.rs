//! The metrics registry: named monotonic counters, exact whatever the
//! flight recorder's rings overwrote, plus immutable snapshots that can
//! be diffed to attribute counts to a single run.
//!
//! Distributions and series are not kept here: each sample is one
//! record (see [`crate::ring`]), and [`crate::Aggregate`] totals a
//! recording exactly.
//!
//! Every counter name is a literal at its call site, or formatted from
//! a bounded set (`flops.<kernel>`, `verify.violations.<check>`), so
//! the map stays as small as the code's vocabulary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

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
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
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
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
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
}
