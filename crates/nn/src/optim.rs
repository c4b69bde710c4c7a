//! SGD with the learning-rate schedules from the convergence theorem.
//!
//! Theorem 1 of the paper requires the *global* (post-aggregation
//! fine-tune) learning rate to decay at `O(r^{-1})`, which
//! [`LrSchedule::Inverse`] gives. Local training runs the paper's
//! evaluation setting instead: a base rate with a small per-step decrease
//! rate ([`LrSchedule::LinearDecrease`]).

use serde::{Deserialize, Serialize};

/// Learning-rate schedule evaluated by step index `r` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant rate.
    Constant,
    /// `lr / (1 + decrease · r)` — the paper's evaluation setting
    /// ("learning rates ... and their decrease rates").
    LinearDecrease {
        /// Per-step decrease rate (e.g. `1e-4`).
        decrease: f64,
    },
    /// `lr / (1 + r)` — the `O(r^{-1})` decay Theorem 1 requires for
    /// global weights.
    Inverse,
}

impl LrSchedule {
    /// Learning rate at step `r` given base rate `lr`.
    pub fn at(&self, lr: f64, r: u64) -> f64 {
        match self {
            LrSchedule::Constant => lr,
            LrSchedule::LinearDecrease { decrease } => lr / (1.0 + decrease * r as f64),
            LrSchedule::Inverse => lr / (1.0 + r as f64),
        }
    }
}

/// Plain SGD tracking its own step count and schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Base learning rate.
    pub base_lr: f64,
    /// Schedule applied on top of the base rate.
    pub schedule: LrSchedule,
    step: u64,
}

impl Sgd {
    /// New optimiser at step 0.
    pub fn new(base_lr: f64, schedule: LrSchedule) -> Self {
        Self {
            base_lr,
            schedule,
            step: 0,
        }
    }

    /// Learning rate the *next* step will use.
    pub fn current_lr(&self) -> f64 {
        self.schedule.at(self.base_lr, self.step)
    }

    /// Consume one step: returns the learning rate to apply and advances
    /// the counter.
    pub fn next_lr(&mut self) -> f64 {
        let lr = self.current_lr();
        self.step += 1;
        lr
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Reset the step counter (used when a new task starts).
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_decay_as_specified() {
        let lr = 1.0;
        assert_eq!(LrSchedule::Constant.at(lr, 100), 1.0);
        assert!((LrSchedule::Inverse.at(lr, 3) - 0.25).abs() < 1e-12);
        let lin = LrSchedule::LinearDecrease { decrease: 0.1 };
        assert!((lin.at(lr, 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sgd_advances_steps() {
        let mut opt = Sgd::new(1.0, LrSchedule::Inverse);
        assert_eq!(opt.next_lr(), 1.0);
        assert_eq!(opt.next_lr(), 0.5);
        assert_eq!(opt.step_count(), 2);
        opt.reset();
        assert_eq!(opt.next_lr(), 1.0);
    }
}
