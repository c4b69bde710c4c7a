//! Medians and the reportable tail percentile.

use fedknow_math::stats::quantile;

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile worth reporting from `n` samples: the largest
/// of the usual ladder that still has at least ten samples beyond it.
/// `None` when no percentile above the median qualifies (fewer than 40
/// samples), in which case only the median is reported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|p| (1.0 - p) * n as f64 >= 10.0 - 1e-9)
}

/// `min / median / max over n samples`, plus the tail percentile when
/// the sample is large enough to have one.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let tail = match tail_percentile(xs.len()) {
        Some(p) => format!("p{} {:.4}", p * 100.0, quantile(xs, p)),
        None => "no percentile above the median qualifies".to_string(),
    };
    format!(
        "min {lo:.4} / median {:.4} / max {hi:.4} {unit} over {} samples ({tail})",
        median(xs),
        xs.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // Five repetitions: nothing above the median qualifies.
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        // 40 samples leave exactly ten beyond p75.
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn describe_states_the_sample_count() {
        let d = describe(&[1.0, 2.0, 3.0], "s");
        assert!(d.contains("over 3 samples"));
        assert!(d.contains("no percentile above the median qualifies"));
    }
}
