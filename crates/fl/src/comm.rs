//! Network/bandwidth model — the physical-network substitute.
//!
//! Communication time is bytes-on-wire divided by per-client bandwidth,
//! which is exactly what the paper varies in Figures 5–6 (default
//! 1 MB/s, sweep 50 KB/s – 10 MB/s).

use serde::{Deserialize, Serialize};

/// Per-client link model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    /// Link bandwidth in bytes per second (same up and down, as in the
    /// paper's bandwidth-limit experiments).
    pub bandwidth_bytes_per_sec: f64,
}

/// A [`CommModel`] was built with a non-positive or non-finite
/// bandwidth, which would make every transfer time `inf`/`NaN` and
/// silently poison the simulated comm accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InvalidBandwidth {
    /// The rejected bytes-per-second value.
    pub bytes_per_sec: f64,
}

impl std::fmt::Display for InvalidBandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link bandwidth must be finite and positive, got {} bytes/s",
            self.bytes_per_sec
        )
    }
}

impl std::error::Error for InvalidBandwidth {}

impl CommModel {
    /// The paper's default limit of 1 MB/s (§V-C).
    pub fn paper_default() -> Self {
        Self {
            bandwidth_bytes_per_sec: 1_000_000.0,
        }
    }

    /// Validated constructor: rejects zero, negative, and non-finite
    /// bandwidths instead of letting `transfer_seconds` return
    /// `inf`/`NaN` silently.
    fn bytes_per_sec(bytes: f64) -> Result<Self, InvalidBandwidth> {
        if bytes.is_finite() && bytes > 0.0 {
            Ok(Self {
                bandwidth_bytes_per_sec: bytes,
            })
        } else {
            Err(InvalidBandwidth {
                bytes_per_sec: bytes,
            })
        }
    }

    /// Arbitrary bandwidth in KB/s (the unit of the Figure 6 sweep).
    /// Non-positive or non-finite rates panic, naming the
    /// `InvalidBandwidth` — sweep constructors are always called with
    /// literals.
    pub fn kb_per_sec(kb: f64) -> Self {
        Self::bytes_per_sec(kb * 1000.0)
            .unwrap_or_else(|e| panic!("CommModel::kb_per_sec({kb}): {e}"))
    }

    /// The Figure 6 sweep: 50 KB/s to 10 MB/s over 8 points.
    pub fn fig6_sweep() -> Vec<CommModel> {
        [50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0]
            .into_iter()
            .map(Self::kb_per_sec)
            .collect()
    }

    /// Seconds to transfer `bytes` over this link. Each call records the
    /// *simulated* duration as a `comm.sim_transfer_ns` sample
    /// (simulated link time, not wall time — the byte counters in the
    /// round loop carry the wire-volume side).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec;
        if fedknow_obs::is_enabled() {
            fedknow_obs::record("comm.sim_transfer_ns", (secs * 1e9) as u64);
        }
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_megabyte_per_second() {
        let c = CommModel::paper_default();
        assert!((c.transfer_seconds(1_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_has_eight_increasing_points() {
        let sweep = CommModel::fig6_sweep();
        assert_eq!(sweep.len(), 8);
        for w in sweep.windows(2) {
            assert!(w[0].bandwidth_bytes_per_sec < w[1].bandwidth_bytes_per_sec);
        }
        assert_eq!(sweep[0].bandwidth_bytes_per_sec, 50_000.0);
        assert_eq!(sweep[7].bandwidth_bytes_per_sec, 10_000_000.0);
    }

    #[test]
    fn invalid_bandwidths_are_rejected() {
        assert!(CommModel::bytes_per_sec(0.0).is_err());
        assert!(CommModel::bytes_per_sec(-5.0).is_err());
        assert!(CommModel::bytes_per_sec(f64::NAN).is_err());
        assert!(CommModel::bytes_per_sec(f64::INFINITY).is_err());
        let ok = CommModel::bytes_per_sec(1234.0).unwrap();
        assert_eq!(ok.bandwidth_bytes_per_sec, 1234.0);
        let shown = CommModel::bytes_per_sec(-1.0).unwrap_err().to_string();
        assert!(shown.contains("finite and positive"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn kb_per_sec_panics_on_zero() {
        let _ = CommModel::kb_per_sec(0.0);
    }

    #[test]
    fn slower_links_take_longer() {
        let slow = CommModel::kb_per_sec(50.0);
        let fast = CommModel::kb_per_sec(10_000.0);
        assert!(slow.transfer_seconds(1 << 20) > fast.transfer_seconds(1 << 20));
    }
}
