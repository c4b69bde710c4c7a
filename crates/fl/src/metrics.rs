//! Continual-learning metrics.
//!
//! The paper reports, for each task index `m`, the *average accuracy over
//! all m learned tasks* (§V-A) and, in §V-D, the *forgetting rate* of
//! task `k` after learning `m` tasks: the relative drop between task
//! `k`'s accuracy right after it was learned and its accuracy now.

use serde::{Deserialize, Serialize};

/// A row pushed to [`AccuracyMatrix`] did not cover exactly the tasks
/// learned so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLengthMismatch {
    /// `learned_tasks + 1` — what the row should have contained.
    pub expected: usize,
    /// What the caller actually supplied.
    pub got: usize,
}

impl std::fmt::Display for RowLengthMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accuracy row must cover all learned tasks: expected {} entries, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for RowLengthMismatch {}

/// The lower-triangular accuracy matrix of a continual run:
/// `acc[m][k]` = accuracy on task `k` measured after learning task `m`
/// (`k ≤ m`). Accuracies are in `[0, 1]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccuracyMatrix {
    rows: Vec<Vec<f64>>,
}

impl AccuracyMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// Record the evaluation row after learning the `rows.len()`-th task:
    /// `row[k]` is the accuracy on task `k`. Errs (leaving the matrix
    /// unchanged) unless the row covers exactly the tasks learned so far.
    pub fn push_row(&mut self, row: Vec<f64>) -> Result<(), RowLengthMismatch> {
        if row.len() != self.rows.len() + 1 {
            return Err(RowLengthMismatch {
                expected: self.rows.len() + 1,
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of learned tasks recorded so far.
    pub fn num_tasks(&self) -> usize {
        self.rows.len()
    }

    /// Accuracy on task `k` after learning task `m` (0-based).
    pub fn at(&self, m: usize, k: usize) -> f64 {
        self.rows[m][k]
    }

    /// Average accuracy over all learned tasks after task `m` — the
    /// paper's headline accuracy metric.
    pub fn avg_accuracy_after(&self, m: usize) -> f64 {
        let row = &self.rows[m];
        row.iter().sum::<f64>() / row.len() as f64
    }

    /// The paper's forgetting rate of task `k` after learning `m` tasks:
    /// `(acc[k][k] − acc[m][k]) / acc[k][k]`, clamped to `[0, 1]`.
    /// Zero when the task was never accurate to begin with.
    pub fn forgetting_rate(&self, m: usize, k: usize) -> f64 {
        assert!(k <= m);
        let initial = self.rows[k][k];
        if initial <= 0.0 {
            return 0.0;
        }
        ((initial - self.rows[m][k]) / initial).clamp(0.0, 1.0)
    }

    /// Non-panicking [`Self::forgetting_rate`]: `None` when `k > m` or
    /// either index is out of range. The telemetry paths use this so a
    /// malformed index degrades to a missing sample, not an abort.
    pub fn forgetting_after(&self, m: usize, k: usize) -> Option<f64> {
        if k > m || m >= self.rows.len() {
            return None;
        }
        Some(self.forgetting_rate(m, k))
    }

    /// Mean forgetting rate over all previous tasks after learning task
    /// `m` (excludes the just-learned task, which cannot yet be
    /// forgotten). Zero for the first task.
    pub fn avg_forgetting_after(&self, m: usize) -> f64 {
        if m == 0 {
            return 0.0;
        }
        (0..m).map(|k| self.forgetting_rate(m, k)).sum::<f64>() / m as f64
    }

    /// The per-step average accuracies `[avg_after(0), …]` — the curve
    /// plotted in the paper's accuracy figures.
    pub fn accuracy_curve(&self) -> Vec<f64> {
        (0..self.rows.len())
            .map(|m| self.avg_accuracy_after(m))
            .collect()
    }

    /// The per-step average forgetting rates (Figures 7–8, right panels).
    pub fn forgetting_curve(&self) -> Vec<f64> {
        (0..self.rows.len())
            .map(|m| self.avg_forgetting_after(m))
            .collect()
    }
}

/// Element-wise mean of several accuracy matrices (averaging over
/// clients). All matrices must have the same shape.
pub fn mean_matrix(mats: &[AccuracyMatrix]) -> AccuracyMatrix {
    assert!(!mats.is_empty());
    let n = mats[0].num_tasks();
    let mut out = AccuracyMatrix::new();
    for m in 0..n {
        let row = (0..=m)
            .map(|k| mats.iter().map(|a| a.at(m, k)).sum::<f64>() / mats.len() as f64)
            .collect();
        out.push_row(row).expect("rows grow one task at a time");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccuracyMatrix {
        let mut a = AccuracyMatrix::new();
        a.push_row(vec![0.8]).unwrap();
        a.push_row(vec![0.6, 0.7]).unwrap();
        a.push_row(vec![0.4, 0.5, 0.9]).unwrap();
        a
    }

    #[test]
    fn avg_accuracy_is_row_mean() {
        let a = sample();
        assert!((a.avg_accuracy_after(0) - 0.8).abs() < 1e-12);
        assert!((a.avg_accuracy_after(2) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn forgetting_rate_matches_definition() {
        let a = sample();
        // Task 0: 0.8 → 0.4 after task 2 → rate 0.5.
        assert!((a.forgetting_rate(2, 0) - 0.5).abs() < 1e-12);
        // Just-learned task has rate 0.
        assert_eq!(a.forgetting_rate(2, 2), 0.0);
    }

    #[test]
    fn forgetting_clamps_negative_transfer_gains() {
        let mut a = AccuracyMatrix::new();
        a.push_row(vec![0.5]).unwrap();
        a.push_row(vec![0.9, 0.6]).unwrap(); // backward transfer improved task 0
        assert_eq!(a.forgetting_rate(1, 0), 0.0);
    }

    #[test]
    fn zero_initial_accuracy_is_not_divided() {
        let mut a = AccuracyMatrix::new();
        a.push_row(vec![0.0]).unwrap();
        a.push_row(vec![0.0, 0.5]).unwrap();
        assert_eq!(a.forgetting_rate(1, 0), 0.0);
    }

    #[test]
    fn curves_have_one_point_per_task() {
        let a = sample();
        assert_eq!(a.accuracy_curve().len(), 3);
        assert_eq!(a.forgetting_curve().len(), 3);
        assert_eq!(a.forgetting_curve()[0], 0.0);
    }

    #[test]
    fn wrong_row_length_is_an_error() {
        let mut a = AccuracyMatrix::new();
        let err = a.push_row(vec![0.5, 0.5]).unwrap_err();
        assert_eq!(
            err,
            RowLengthMismatch {
                expected: 1,
                got: 2
            }
        );
        assert_eq!(a.num_tasks(), 0, "failed push must not mutate");
        a.push_row(vec![0.5]).unwrap();
        assert_eq!(a.num_tasks(), 1);
    }

    #[test]
    fn forgetting_after_is_total() {
        let a = sample();
        assert!((a.forgetting_after(2, 0).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(a.forgetting_after(0, 2), None, "k > m");
        assert_eq!(a.forgetting_after(9, 0), None, "m out of range");
    }

    #[test]
    fn mean_matrix_averages_clients() {
        let mut a = AccuracyMatrix::new();
        a.push_row(vec![0.2]).unwrap();
        let mut b = AccuracyMatrix::new();
        b.push_row(vec![0.6]).unwrap();
        let m = mean_matrix(&[a, b]);
        assert!((m.at(0, 0) - 0.4).abs() < 1e-12);
    }
}
