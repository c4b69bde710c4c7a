//! Deterministic fault injection for the federation loop.
//!
//! The paper runs on a physical edge testbed where devices genuinely
//! misbehave: the 2 GB Raspberry Pi runs out of memory mid-stream and
//! radio links drop uploads (§V-B). The simulation substitutes that
//! flakiness with a [`FaultPlan`]: per-client, per-round fault events
//! drawn from seeded substreams, so every fault sequence is
//! **bit-reproducible** across thread counts and across runs at the
//! same seed. (Device speed and memory heterogeneity is the device
//! model's, `crate::device`, not a fault.)
//!
//! Determinism is structural, not incidental: a fault draw for
//! `(client, round)` comes from a fresh [`substream`] keyed only by the
//! plan seed and that pair, so the draw is independent of iteration
//! order, thread scheduling, and every other client's faults. The
//! simulation driver draws faults on the coordinator thread before
//! dispatching client work, and logs events in client order — the fault
//! event log of a run is a pure function of `(seed, FaultConfig)`.
//!
//! Fault classes (both off by default):
//!
//! * **Crash-for-round** — the client misses a whole round: no local
//!   training, no upload, and it misses the broadcast. It rejoins the
//!   next round and is re-sent the current global model first
//!   ([`FaultKind::Rejoin`]).
//! * **Upload loss** — each upload attempt is lost with
//!   [`FaultConfig::loss_prob`]; the client retries up to two times
//!   with exponential backoff (0.5 s, then 1 s) charged to its
//!   communication time. Losing every attempt drops the upload from
//!   aggregation ([`FaultKind::UploadLost`]).
//!
//! The server's upload validation is not an injected fault: it
//! quarantines any upload holding non-finite values, as a diverged
//! client produces ([`FaultKind::UploadRejected`]).

use fedknow_math::rng::{splitmix64, substream};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stream tag separating fault draws from every other consumer of the
/// experiment seed (clients use `0xF1_0000 + c`).
const FAULT_STREAM_TAG: u64 = 0xFA17_0000_0000_0000;

/// Retries after a lost upload attempt before giving up on the round's
/// upload entirely.
const MAX_RETRIES: u32 = 2;

/// Backoff before the first retry, in simulated seconds; doubles on
/// every further retry and is charged to the client's comm time.
const BACKOFF_BASE_SECS: f64 = 0.5;

/// Fault-injection knobs. The default is inert (both probabilities
/// zero), so a `SimConfig::default()` run is byte-identical to the
/// fault-free protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-client, per-round probability of crashing for the round.
    pub crash_prob: f64,
    /// Probability each individual upload attempt is lost in transit.
    pub loss_prob: f64,
}

impl FaultConfig {
    /// A chaos preset: crash and upload loss at the given rate each
    /// (the sweep axis of the `resilience` figure).
    pub fn crash_loss(rate: f64) -> Self {
        Self {
            crash_prob: rate,
            loss_prob: rate,
        }
    }

    /// Whether every fault class is disabled — the simulation skips the
    /// fault machinery entirely for inert configs.
    pub fn is_inert(&self) -> bool {
        self.crash_prob <= 0.0 && self.loss_prob <= 0.0
    }

    /// Clamp both probabilities into `[0, 1]` so a hand-built config
    /// cannot produce out-of-range draws.
    fn sanitized(mut self) -> Self {
        self.crash_prob = self.crash_prob.clamp(0.0, 1.0);
        self.loss_prob = self.loss_prob.clamp(0.0, 1.0);
        self
    }
}

/// Everything that goes wrong for one client in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFaults {
    /// Client is down for the whole round.
    pub crash: bool,
    /// Upload attempts lost in transit before one succeeded (each one
    /// is retried with backoff, up to two times).
    pub lost_attempts: u32,
    /// All three attempts were lost: no upload this round.
    pub upload_lost: bool,
}

impl RoundFaults {
    /// The fault-free outcome.
    pub fn none() -> Self {
        Self {
            crash: false,
            lost_attempts: 0,
            upload_lost: false,
        }
    }

    /// Total upload transmissions this round (the successful attempt
    /// plus every lost one); zero when the client crashed.
    pub fn upload_attempts(&self) -> u32 {
        if self.crash {
            0
        } else {
            self.lost_attempts + u32::from(!self.upload_lost)
        }
    }

    /// Retries taken after lost attempts (a fully lost upload stops
    /// retrying after the last one).
    pub(crate) fn retries(&self) -> u32 {
        self.lost_attempts.min(MAX_RETRIES)
    }

    /// Simulated seconds of exponential backoff charged for this
    /// round's retries: `base · (2^k − 1)` for `k` retries.
    pub(crate) fn backoff_seconds(&self) -> f64 {
        let mut total = 0.0;
        let mut wait = BACKOFF_BASE_SECS;
        for _ in 0..self.retries() {
            total += wait;
            wait *= 2.0;
        }
        total
    }
}

/// A seeded, stateless fault plan: `draw(client, round)` is a pure
/// function, so the full fault schedule is reproducible from the seed
/// alone, in any order, from any thread.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Plan from the experiment seed and a config (probabilities are
    /// clamped into `[0, 1]`).
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            seed,
            cfg: cfg.sanitized(),
        }
    }

    /// The sanitized config this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draw the faults afflicting `client` in global round `round`.
    ///
    /// The draw order within one `(client, round)` cell is fixed
    /// (crash, one unused draw, loss attempts), and each cell uses its
    /// own substream, so no draw ever shifts another cell's stream.
    pub fn draw(&self, client: usize, round: u64) -> RoundFaults {
        let mut rng = self.cell_rng(client, round);
        let mut f = RoundFaults::none();
        if rng.gen::<f64>() < self.cfg.crash_prob {
            f.crash = true;
            return f;
        }
        // Where a straggler draw used to be: consumed so committed
        // fault schedules (and every report built on them) are unchanged.
        let _ = rng.gen::<f64>();
        for _ in 0..=MAX_RETRIES {
            if rng.gen::<f64>() < self.cfg.loss_prob {
                f.lost_attempts += 1;
            } else {
                break;
            }
        }
        f.upload_lost = f.lost_attempts > MAX_RETRIES;
        f
    }

    fn cell_rng(&self, client: usize, round: u64) -> StdRng {
        let cell = splitmix64(((client as u64) << 32) ^ round);
        substream(self.seed, FAULT_STREAM_TAG ^ cell)
    }
}

/// One fault event in a run's log. `detail` carries the event-specific
/// quantity: lost attempts for [`FaultKind::UploadRetry`] and
/// [`FaultKind::UploadLost`], the non-finite coordinate index (or the
/// received length, on a dimension mismatch) for
/// [`FaultKind::UploadRejected`], zero otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Global round index (task · rounds_per_task + round).
    pub round: u64,
    /// Afflicted client.
    pub client: usize,
    /// What happened.
    pub kind: FaultKind,
    /// Event-specific quantity (see struct docs).
    pub detail: u64,
}

/// The kinds of fault events a run logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Client missed the whole round.
    Crash,
    /// Client rejoined after a crash and was re-sent the global model.
    Rejoin,
    /// Upload attempts were lost and retried (detail = lost attempts).
    UploadRetry,
    /// Every upload attempt was lost; nothing reached the server.
    UploadLost,
    /// Server validation quarantined the upload (non-finite values).
    UploadRejected,
}

impl FaultKind {
    /// Stable snake_case label, used for flight-recorder fault records
    /// and dump-trigger reasons (`fault_crash`, …).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Rejoin => "rejoin",
            FaultKind::UploadRetry => "upload_retry",
            FaultKind::UploadLost => "upload_lost",
            FaultKind::UploadRejected => "upload_rejected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultConfig {
        FaultConfig {
            crash_prob: 0.2,
            loss_prob: 0.3,
        }
    }

    #[test]
    fn default_is_inert_and_presets_are_not() {
        assert!(FaultConfig::default().is_inert());
        assert!(!FaultConfig::crash_loss(0.1).is_inert());
        assert!(FaultConfig::crash_loss(0.0).is_inert());
    }

    #[test]
    fn sanitize_clamps_hostile_configs() {
        let cfg = FaultConfig {
            crash_prob: 7.0,
            loss_prob: -2.0,
        }
        .sanitized();
        assert_eq!(cfg.crash_prob, 1.0);
        assert_eq!(cfg.loss_prob, 0.0);
    }

    #[test]
    fn draws_are_pure_functions_of_the_cell() {
        let plan = FaultPlan::new(42, chaotic());
        // Same cell, any order, any number of times: identical.
        let a = plan.draw(3, 17);
        let _ = plan.draw(0, 0); // unrelated draw must not disturb anything
        assert_eq!(plan.draw(3, 17), a);
        // A second plan at the same seed agrees everywhere.
        let plan2 = FaultPlan::new(42, chaotic());
        for c in 0..8 {
            for r in 0..16 {
                assert_eq!(plan.draw(c, r), plan2.draw(c, r), "cell ({c}, {r})");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1, chaotic());
        let b = FaultPlan::new(2, chaotic());
        let sched = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|i| p.draw(i % 8, i as u64 / 8).crash).collect()
        };
        assert_ne!(sched(&a), sched(&b));
    }

    #[test]
    fn fault_rates_track_configured_probabilities() {
        let plan = FaultPlan::new(7, chaotic());
        let n = 4000u64;
        let mut crashes = 0u64;
        let mut first_attempt_lost = 0u64;
        for r in 0..n {
            let f = plan.draw(0, r);
            crashes += u64::from(f.crash);
            first_attempt_lost += u64::from(f.lost_attempts > 0);
        }
        let crash_rate = crashes as f64 / n as f64;
        assert!((crash_rate - 0.2).abs() < 0.03, "crash rate {crash_rate}");
        // Losses are only drawn on non-crash rounds: 0.8 × 0.3.
        let loss_rate = first_attempt_lost as f64 / n as f64;
        assert!((loss_rate - 0.24).abs() < 0.03, "loss rate {loss_rate}");
    }

    #[test]
    fn inert_plan_never_faults() {
        let plan = FaultPlan::new(9, FaultConfig::default());
        for c in 0..4 {
            for r in 0..32 {
                assert_eq!(plan.draw(c, r), RoundFaults::none());
            }
        }
    }

    #[test]
    fn retry_counts_are_bounded_and_lost_flag_consistent() {
        let cfg = FaultConfig {
            loss_prob: 0.9,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(3, cfg);
        let mut saw_lost = false;
        let mut saw_retry_success = false;
        for r in 0..200 {
            let f = plan.draw(0, r);
            assert!(f.lost_attempts <= 3);
            if f.upload_lost {
                assert_eq!(f.lost_attempts, 3);
                assert_eq!(f.upload_attempts(), 3);
                saw_lost = true;
            } else if f.lost_attempts > 0 {
                assert_eq!(f.upload_attempts(), f.lost_attempts + 1);
                saw_retry_success = true;
            }
        }
        assert!(saw_lost && saw_retry_success);
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let backoff = |lost_attempts| {
            RoundFaults {
                lost_attempts,
                upload_lost: lost_attempts > MAX_RETRIES,
                ..RoundFaults::none()
            }
            .backoff_seconds()
        };
        assert_eq!(backoff(0), 0.0);
        assert_eq!(backoff(1), 0.5);
        assert_eq!(backoff(2), 1.5);
        // A fully lost upload waited before its two retries only.
        assert_eq!(backoff(3), 1.5);
    }

    #[test]
    fn fault_event_serialises_roundtrip() {
        let e = FaultEvent {
            round: 12,
            client: 3,
            kind: FaultKind::UploadRetry,
            detail: 2,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: FaultEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
