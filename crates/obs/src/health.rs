//! Streaming health engine: per-round telemetry folded into SLO
//! states in constant memory.
//!
//! Each round the simulation hands the engine one [`RoundObservation`]
//! — counts of expected/completed clients, stragglers, quarantined
//! uploads, lost uploads, and the round's duration. The engine folds
//! these into exponentially weighted rates plus a [`LogHistogram`] of
//! round times (nanoseconds); nothing it holds grows with rounds or
//! clients.
//!
//! Six SLOs are evaluated against fixed threshold rules after every
//! fold:
//!
//! | SLO                     | value                         | warn | critical |
//! |-------------------------|-------------------------------|------|----------|
//! | `straggler_rate`        | EWMA of stragglers/expected   | 0.05 | 0.20     |
//! | `quarantine_rate`       | EWMA of quarantined/expected  | 0.01 | 0.05     |
//! | `upload_loss_rate`      | EWMA of lost/expected         | 0.05 | 0.20     |
//! | `round_p99_ratio`       | round-time p99 / p50          | 4.0  | 10.0     |
//! | `transport.rtt_p99`     | message RTT p99, seconds      | 1.0  | 10.0     |
//! | `transport.queue_depth` | max server inbox depth        | 64   | 512      |
//!
//! The transport pair is fed per message by the actor runtime
//! ([`crate::observe_message_rtt`], [`crate::observe_queue_depth`]) and
//! published as `health.transport.*` gauges at the next round fold.
//!
//! The resulting [`HealthSnapshot`] is exposed through the obs facade
//! ([`crate::health_snapshot`]), mirrored into `health.*` gauges, and
//! embedded in postmortem bundles.

use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;

/// EWMA smoothing factor for per-round rates (weight of the newest
/// round).
const EWMA_ALPHA: f64 = 0.2;

/// One round's worth of health-relevant telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundObservation {
    /// Global round index.
    pub round: u64,
    /// Clients expected to participate this round.
    pub expected: u64,
    /// Clients whose upload was accepted.
    pub completed: u64,
    /// Clients that ran slower than their nominal time.
    pub stragglers: u64,
    /// Uploads quarantined by aggregation validation.
    pub quarantined: u64,
    /// Uploads lost in flight (after retries).
    pub uploads_lost: u64,
    /// Simulated (or wall) duration of the round, in seconds.
    pub round_seconds: f64,
}

/// SLO severity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SloState {
    /// Within budget.
    Ok,
    /// Past the warn threshold.
    Warn,
    /// Past the critical threshold.
    Critical,
}

impl SloState {
    /// Numeric encoding for gauges: 0 ok, 1 warn, 2 critical.
    pub fn as_gauge(self) -> f64 {
        match self {
            SloState::Ok => 0.0,
            SloState::Warn => 1.0,
            SloState::Critical => 2.0,
        }
    }
}

/// One SLO's evaluated status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// SLO name (`straggler_rate`, `round_p99_ratio`, …).
    pub name: String,
    /// Current state under the threshold rule.
    pub state: SloState,
    /// The measured value the rule saw.
    pub value: f64,
    /// Warn threshold.
    pub warn: f64,
    /// Critical threshold.
    pub critical: f64,
}

/// The engine's externally visible state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Rounds folded so far.
    pub rounds: u64,
    /// Round-time p50 over all folded rounds, seconds.
    pub round_p50_seconds: f64,
    /// Round-time p99 over all folded rounds, seconds.
    pub round_p99_seconds: f64,
    /// Every SLO's status, name-sorted.
    pub slos: Vec<SloStatus>,
}

impl HealthSnapshot {
    /// The worst state across SLOs (`Ok` when none evaluated yet).
    pub fn worst(&self) -> SloState {
        self.slos
            .iter()
            .map(|s| s.state)
            .max()
            .unwrap_or(SloState::Ok)
    }

    /// Status of one SLO by name.
    pub fn slo(&self, name: &str) -> Option<&SloStatus> {
        self.slos.iter().find(|s| s.name == name)
    }
}

fn rule(name: &str, value: f64, warn: f64, critical: f64) -> SloStatus {
    let state = if value >= critical {
        SloState::Critical
    } else if value >= warn {
        SloState::Warn
    } else {
        SloState::Ok
    };
    SloStatus {
        name: name.to_string(),
        state,
        value,
        warn,
        critical,
    }
}

/// Seconds as the whole nanoseconds the distributions are kept in.
fn to_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9) as u64
}

/// The constant-memory fold over round observations.
pub struct HealthEngine {
    rounds: u64,
    round_time_ns: LogHistogram,
    straggler_rate: f64,
    quarantine_rate: f64,
    loss_rate: f64,
    msg_rtt_ns: LogHistogram,
    queue_depth_max: f64,
}

impl Default for HealthEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        Self {
            rounds: 0,
            round_time_ns: LogHistogram::new(),
            straggler_rate: 0.0,
            quarantine_rate: 0.0,
            loss_rate: 0.0,
            msg_rtt_ns: LogHistogram::new(),
            queue_depth_max: 0.0,
        }
    }

    fn ewma(prev: f64, x: f64, first: bool) -> f64 {
        if first {
            x
        } else {
            EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * prev
        }
    }

    /// Fold one round.
    pub fn observe_round(&mut self, o: &RoundObservation) {
        let denom = o.expected.max(1) as f64;
        let first = self.rounds == 0;
        self.straggler_rate = Self::ewma(self.straggler_rate, o.stragglers as f64 / denom, first);
        self.quarantine_rate =
            Self::ewma(self.quarantine_rate, o.quarantined as f64 / denom, first);
        self.loss_rate = Self::ewma(self.loss_rate, o.uploads_lost as f64 / denom, first);
        self.round_time_ns.record(to_ns(o.round_seconds));
        self.rounds += 1;
    }

    /// Fold one wire message's round-trip time (seconds) into the
    /// transport RTT histogram — constant memory however many messages
    /// the run moves.
    pub fn observe_message_rtt(&mut self, rtt_seconds: f64) {
        self.msg_rtt_ns.record(to_ns(rtt_seconds));
    }

    /// Fold one observation of the server inbox depth; the SLO tracks
    /// the maximum seen.
    pub fn observe_queue_depth(&mut self, depth: f64) {
        if depth > self.queue_depth_max {
            self.queue_depth_max = depth;
        }
    }

    /// Evaluate every SLO against the current fold.
    pub fn snapshot(&self) -> HealthSnapshot {
        let round_time = self.round_time_ns.snapshot();
        let p50 = round_time.quantile(0.5) as f64 / 1e9;
        let p99 = round_time.quantile(0.99) as f64 / 1e9;
        let rtt_p99 = self.msg_rtt_ns.snapshot().quantile(0.99) as f64 / 1e9;
        let p99_ratio = if p50 > 0.0 { p99 / p50 } else { 1.0 };
        HealthSnapshot {
            rounds: self.rounds,
            round_p50_seconds: p50,
            round_p99_seconds: p99,
            slos: vec![
                rule("quarantine_rate", self.quarantine_rate, 0.01, 0.05),
                rule("round_p99_ratio", p99_ratio, 4.0, 10.0),
                rule("straggler_rate", self.straggler_rate, 0.05, 0.20),
                rule("transport.queue_depth", self.queue_depth_max, 64.0, 512.0),
                rule("transport.rtt_p99", rtt_p99, 1.0, 10.0),
                rule("upload_loss_rate", self.loss_rate, 0.05, 0.20),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_round(round: u64) -> RoundObservation {
        RoundObservation {
            round,
            expected: 100,
            completed: 100,
            stragglers: 0,
            quarantined: 0,
            uploads_lost: 0,
            round_seconds: 1.0,
        }
    }

    #[test]
    fn clean_rounds_stay_ok() {
        let mut e = HealthEngine::new();
        for r in 0..50 {
            e.observe_round(&clean_round(r));
        }
        let s = e.snapshot();
        assert_eq!(s.rounds, 50);
        assert_eq!(s.worst(), SloState::Ok);
        assert!((s.round_p50_seconds - 1.0).abs() < 0.02);
    }

    #[test]
    fn sustained_stragglers_escalate_to_critical() {
        let mut e = HealthEngine::new();
        for r in 0..30 {
            let mut o = clean_round(r);
            o.stragglers = 30; // 30% straggling, past critical=20%
            e.observe_round(&o);
        }
        let s = e.snapshot();
        assert_eq!(s.slo("straggler_rate").unwrap().state, SloState::Critical);
        assert_eq!(s.worst(), SloState::Critical);
    }

    #[test]
    fn one_bad_round_only_warns_through_ewma() {
        let mut e = HealthEngine::new();
        for r in 0..20 {
            e.observe_round(&clean_round(r));
        }
        let mut bad = clean_round(20);
        bad.uploads_lost = 50; // one 50% loss round
        e.observe_round(&bad);
        let s = e.snapshot();
        // EWMA folds 0.5 at weight 0.2 -> 0.1: warn, not critical.
        let slo = s.slo("upload_loss_rate").unwrap();
        assert_eq!(slo.state, SloState::Warn, "value {}", slo.value);
    }

    #[test]
    fn tail_blowup_trips_round_time_slo() {
        let mut e = HealthEngine::new();
        for r in 0..95 {
            e.observe_round(&clean_round(r));
        }
        for r in 95..100 {
            let mut slow = clean_round(r);
            slow.round_seconds = 20.0; // slowest 5% at 20x p50
            e.observe_round(&slow);
        }
        let s = e.snapshot();
        let slo = s.slo("round_p99_ratio").unwrap();
        assert_eq!(slo.state, SloState::Critical, "ratio {}", slo.value);
    }

    #[test]
    fn transport_slos_track_rtt_tail_and_queue_peak() {
        let mut e = HealthEngine::new();
        // Idle engine: both transport SLOs exist and are Ok at zero.
        let s = e.snapshot();
        assert_eq!(s.slo("transport.rtt_p99").unwrap().state, SloState::Ok);
        assert_eq!(s.slo("transport.queue_depth").unwrap().state, SloState::Ok);

        // Sub-second RTTs stay Ok; a sustained multi-second tail trips
        // the p99 rule.
        for _ in 0..100 {
            e.observe_message_rtt(0.002);
        }
        assert_eq!(
            e.snapshot().slo("transport.rtt_p99").unwrap().state,
            SloState::Ok
        );
        for _ in 0..100 {
            e.observe_message_rtt(15.0);
        }
        assert_eq!(
            e.snapshot().slo("transport.rtt_p99").unwrap().state,
            SloState::Critical
        );

        // Queue depth holds the maximum, not the latest.
        e.observe_queue_depth(3.0);
        e.observe_queue_depth(100.0);
        e.observe_queue_depth(1.0);
        let slo = e.snapshot();
        let q = slo.slo("transport.queue_depth").unwrap();
        assert_eq!(q.value, 100.0);
        assert_eq!(q.state, SloState::Warn);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut e = HealthEngine::new();
        e.observe_round(&clean_round(0));
        let s = e.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HealthSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.worst(), SloState::Ok);
    }

    #[test]
    fn state_gauge_encoding_is_ordered() {
        assert_eq!(SloState::Ok.as_gauge(), 0.0);
        assert_eq!(SloState::Warn.as_gauge(), 1.0);
        assert_eq!(SloState::Critical.as_gauge(), 2.0);
        assert!(SloState::Ok < SloState::Warn && SloState::Warn < SloState::Critical);
    }
}
