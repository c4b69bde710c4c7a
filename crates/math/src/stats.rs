//! Small statistics helpers shared by the metrics and experiment layers.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated quantile, `q ∈ [0, 1]`. Panics on empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Relative improvement of `ours` over `baseline`, in percent:
/// `(ours - baseline) / baseline * 100`. Returns `0.0` when the baseline
/// is zero (avoids propagating infinities into report tables).
pub fn percent_improvement(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percent_improvement_handles_zero_baseline() {
        assert_eq!(percent_improvement(0.5, 0.0), 0.0);
        assert!((percent_improvement(0.6, 0.4) - 50.0).abs() < 1e-9);
    }
}
