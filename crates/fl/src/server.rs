//! FedAvg aggregation — the paper's global aggregator (§III-A follows
//! "the standard federated learning setting", citing FedAvg).
//!
//! The aggregator is the one piece of the protocol every client can hurt:
//! a single corrupted upload used to panic the server through the
//! dimension assert. It now *quarantines* instead — malformed uploads are
//! excluded from the weighted average, counted in the
//! `fl.uploads_rejected` obs counter, and reported to the caller in
//! [`Aggregation::rejected`] so the round protocol can log fault events.

use fedknow_obs::PerfCounter;

/// Work accounting for the weighted average, modelled by
/// [`fedknow_math::flops::fedavg`] (accepted uploads only; quarantine
/// screening is not counted as kernel work).
static PERF_FEDAVG: PerfCounter = PerfCounter::new("fedavg");

/// Output elements [`fedavg`] computes per block: the block's f64
/// accumulators stay on the stack while every accepted upload's slice
/// of the block is added in.
const FEDAVG_BLOCK: usize = 512;

/// Why an individual upload was quarantined rather than aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The upload contains a NaN or infinity at the given coordinate
    /// (e.g. in-flight corruption, or a diverged local model).
    NonFinite {
        /// First offending coordinate.
        index: usize,
    },
    /// The upload's dimension disagrees with the round's consensus
    /// dimension (the modal length across this round's uploads).
    DimensionMismatch {
        /// Consensus dimension.
        expected: usize,
        /// This upload's dimension.
        got: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { index } => {
                write!(f, "non-finite value at coordinate {index}")
            }
            Self::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

/// A quarantined upload: which client sent it and why it was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedUpload {
    /// Index into the `uploads` slice (the client id in the round loop).
    pub client: usize,
    /// Why it was excluded.
    pub reason: RejectReason,
}

/// The outcome of one aggregation round.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// The weighted average over accepted uploads; `None` when nothing
    /// was accepted (all clients down, lost, or quarantined).
    pub global: Option<Vec<f32>>,
    /// Uploads excluded by validation, in client order.
    pub rejected: Vec<RejectedUpload>,
    /// Number of uploads that entered the average.
    pub accepted: usize,
}

/// What [`fedavg_into`] decided about a round's uploads; the aggregate
/// itself is written into the caller's buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Screening {
    /// Uploads excluded by validation, in client order.
    pub rejected: Vec<RejectedUpload>,
    /// Number of uploads that entered the average.
    pub accepted: usize,
}

/// The caller broke the aggregation contract — unlike a bad *upload*
/// (which is quarantined per client), a malformed *call* is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// `uploads` and `weights` differ in length.
    LengthMismatch {
        /// Number of uploads supplied.
        uploads: usize,
        /// Number of weights supplied.
        weights: usize,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch { uploads, weights } => write!(
                f,
                "uploads/weights length mismatch: {uploads} uploads, {weights} weights"
            ),
        }
    }
}

impl std::error::Error for AggregateError {}

/// First non-finite coordinate of an upload, if any.
fn first_non_finite(u: &[f32]) -> Option<usize> {
    u.iter().position(|v| !v.is_finite())
}

/// The modal upload length among candidates — the round's consensus
/// dimension. Ties break toward the first-seen length so the choice is
/// deterministic. `None` when no client uploaded.
fn consensus_dim<'a, I: Iterator<Item = &'a Vec<f32>>>(candidates: I) -> Option<usize> {
    // (length, votes, first position) — tiny per round, linear scan is fine.
    let mut tally: Vec<(usize, usize, usize)> = Vec::new();
    for (pos, u) in candidates.enumerate() {
        match tally.iter_mut().find(|t| t.0 == u.len()) {
            Some(t) => t.1 += 1,
            None => tally.push((u.len(), 1, pos)),
        }
    }
    tally
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
        .map(|t| t.0)
}

/// Weighted FedAvg: each upload is weighted by its client's training
/// sample count ("FedAvg calculates each client's weight factor according
/// to its number of training samples", §V-A). Uploads of `None` (clients
/// that dropped out, e.g. OOM, crash, or a fully lost upload) are
/// excluded, as are zero-weight clients.
///
/// Validation quarantines rather than panics: non-finite uploads and
/// uploads whose dimension disagrees with the round's consensus (modal)
/// dimension are skipped and reported in [`Aggregation::rejected`], each
/// bumping the `fl.uploads_rejected` counter. Only a malformed *call*
/// (mismatched slice lengths) is an [`AggregateError`].
///
/// Every upload is validated first, then the average is one fused pass:
/// per block of `FEDAVG_BLOCK` coordinates, each output element is
/// the f64 sum of `w · u` over the accepted uploads in client order,
/// scaled by `1/Σw` and cast — bit for bit what a whole-vector f64
/// accumulator gives, without allocating one. The mass the
/// `fedknow_verify` conservation check reads is summed only when
/// verification is on.
pub fn fedavg(
    uploads: &[Option<Vec<f32>>],
    weights: &[usize],
) -> Result<Aggregation, AggregateError> {
    let mut global = None;
    let Screening { rejected, accepted } = fedavg_into(uploads, weights, &mut global)?;
    Ok(Aggregation {
        global,
        rejected,
        accepted,
    })
}

/// [`fedavg`] into a buffer the caller keeps across rounds: when any
/// upload is accepted, their average overwrites `global` in place
/// (allocating only when it is `None` or shorter); when none is,
/// `global` is left exactly as it was — the previous round's aggregate.
pub fn fedavg_into(
    uploads: &[Option<Vec<f32>>],
    weights: &[usize],
    global: &mut Option<Vec<f32>>,
) -> Result<Screening, AggregateError> {
    if uploads.len() != weights.len() {
        return Err(AggregateError::LengthMismatch {
            uploads: uploads.len(),
            weights: weights.len(),
        });
    }
    let _t = fedknow_obs::timer("fedavg.aggregate_ns");

    let dim = consensus_dim(
        uploads
            .iter()
            .zip(weights)
            .filter(|&(_, &w)| w > 0)
            .filter_map(|(u, _)| u.as_ref()),
    );

    let mut accepted: Vec<(&[f32], f64)> = Vec::new();
    let mut total = 0.0f64;
    let mut rejected = Vec::new();
    for (client, (u, &w)) in uploads.iter().zip(weights).enumerate() {
        let Some(u) = u else { continue };
        if w == 0 {
            continue;
        }
        let expected = dim.expect("a live upload implies a consensus dim");
        let reason = if u.len() != expected {
            Some(RejectReason::DimensionMismatch {
                expected,
                got: u.len(),
            })
        } else {
            first_non_finite(u).map(|index| RejectReason::NonFinite { index })
        };
        if let Some(reason) = reason {
            fedknow_obs::mark(&format!("fedavg.quarantine client={client} {reason}"));
            rejected.push(RejectedUpload { client, reason });
            fedknow_obs::count("fl.uploads_rejected", 1);
            continue;
        }
        let wf = w as f64;
        total += wf;
        accepted.push((u, wf));
    }

    if !accepted.is_empty() {
        let dim = dim.unwrap_or(0);
        let inv = 1.0 / total;
        let out = global.get_or_insert_with(Vec::new);
        out.clear();
        out.reserve(dim);
        let mut block = [0.0f64; FEDAVG_BLOCK];
        for start in (0..dim).step_by(FEDAVG_BLOCK) {
            let acc = &mut block[..FEDAVG_BLOCK.min(dim - start)];
            acc.fill(0.0);
            for &(u, wf) in &accepted {
                for (a, &x) in acc.iter_mut().zip(&u[start..]) {
                    *a += wf * x as f64;
                }
            }
            out.extend(acc.iter().map(|&v| (v * inv) as f32));
        }
        let c = fedknow_math::flops::fedavg(accepted.len(), dim);
        PERF_FEDAVG.op(c.flops, c.bytes);
        if fedknow_verify::is_enabled() {
            let weighted_mass = accepted.iter().fold(0.0f64, |m, &(u, wf)| {
                m + wf * u.iter().fold(0.0f64, |s, &x| s + x as f64)
            });
            fedknow_verify::report(
                "fedavg.mass",
                fedknow_verify::check::mass_conservation(out, weighted_mass, total),
            );
        }
    }
    Ok(Screening {
        rejected,
        accepted: accepted.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global(uploads: &[Option<Vec<f32>>], weights: &[usize]) -> Option<Vec<f32>> {
        fedavg(uploads, weights).unwrap().global
    }

    #[test]
    fn equal_weights_average() {
        let uploads = vec![Some(vec![1.0, 2.0]), Some(vec![3.0, 4.0])];
        let g = global(&uploads, &[10, 10]).unwrap();
        assert_eq!(g, vec![2.0, 3.0]);
    }

    #[test]
    fn sample_counts_weight_the_average() {
        let uploads = vec![Some(vec![0.0]), Some(vec![4.0])];
        let g = global(&uploads, &[1, 3]).unwrap();
        assert!((g[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn dropouts_are_excluded() {
        let uploads = vec![Some(vec![2.0]), None, Some(vec![4.0])];
        let g = global(&uploads, &[1, 100, 1]).unwrap();
        assert!((g[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn no_uploads_yields_none() {
        let uploads: Vec<Option<Vec<f32>>> = vec![None, None];
        let agg = fedavg(&uploads, &[1, 1]).unwrap();
        assert!(agg.global.is_none());
        assert_eq!(agg.accepted, 0);
        assert!(agg.rejected.is_empty());
    }

    #[test]
    fn zero_weight_clients_ignored() {
        let uploads = vec![Some(vec![5.0]), Some(vec![1.0])];
        let g = global(&uploads, &[0, 2]).unwrap();
        assert!((g[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn length_mismatch_is_a_typed_error_not_a_panic() {
        let uploads = vec![Some(vec![1.0])];
        let err = fedavg(&uploads, &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            AggregateError::LengthMismatch {
                uploads: 1,
                weights: 2
            }
        );
        assert!(err.to_string().contains("length mismatch"));
    }

    #[test]
    fn dimension_minority_is_quarantined_not_fatal() {
        // Two honest 2-dim uploads, one truncated upload: majority wins.
        let uploads = vec![Some(vec![1.0, 2.0]), Some(vec![9.0]), Some(vec![3.0, 4.0])];
        let agg = fedavg(&uploads, &[1, 1, 1]).unwrap();
        assert_eq!(agg.global.as_ref().unwrap(), &vec![2.0, 3.0]);
        assert_eq!(agg.accepted, 2);
        assert_eq!(
            agg.rejected,
            vec![RejectedUpload {
                client: 1,
                reason: RejectReason::DimensionMismatch {
                    expected: 2,
                    got: 1
                }
            }]
        );
    }

    #[test]
    fn non_finite_uploads_are_quarantined() {
        let uploads = vec![
            Some(vec![1.0, f32::NAN]),
            Some(vec![3.0, 4.0]),
            Some(vec![f32::INFINITY, 0.0]),
        ];
        let agg = fedavg(&uploads, &[1, 1, 1]).unwrap();
        assert_eq!(agg.global.as_ref().unwrap(), &vec![3.0, 4.0]);
        assert_eq!(agg.rejected.len(), 2);
        assert_eq!(agg.rejected[0].reason, RejectReason::NonFinite { index: 1 });
        assert_eq!(agg.rejected[1].reason, RejectReason::NonFinite { index: 0 });
        let shown = agg.rejected[0].reason.to_string();
        assert!(shown.contains("non-finite"), "{shown}");
    }

    #[test]
    fn every_upload_rejected_yields_none() {
        let uploads = vec![Some(vec![f32::NAN]), Some(vec![f32::NEG_INFINITY])];
        let agg = fedavg(&uploads, &[1, 1]).unwrap();
        assert!(agg.global.is_none());
        assert_eq!(agg.accepted, 0);
        assert_eq!(agg.rejected.len(), 2);
    }

    #[test]
    fn a_kept_buffer_is_overwritten_in_place_or_left_alone() {
        let mut kept = None;
        let round = |a: f32| vec![Some(vec![a; 1000]), Some(vec![a + 2.0; 1000])];
        fedavg_into(&round(1.0), &[1, 1], &mut kept).unwrap();
        let storage = kept.as_ref().unwrap().as_ptr();
        let s = fedavg_into(&round(5.0), &[1, 1], &mut kept).unwrap();
        assert_eq!(s.accepted, 2);
        assert_eq!(kept.as_deref(), global(&round(5.0), &[1, 1]).as_deref());
        assert_eq!(kept.as_ref().unwrap().as_ptr(), storage, "no new buffer");
        // Nothing accepted: the previous aggregate stays, untouched.
        let s = fedavg_into(&[Some(vec![f32::NAN; 1000]), None], &[1, 1], &mut kept).unwrap();
        assert_eq!(s.accepted, 0);
        assert_eq!(s.rejected.len(), 1);
        assert_eq!(kept, Some(vec![6.0; 1000]));
    }

    #[test]
    fn dimension_tie_breaks_to_first_seen() {
        // 1-dim and 2-dim tie at one vote each → the earlier upload's
        // dimension is the consensus, deterministically.
        let uploads = vec![Some(vec![5.0]), Some(vec![1.0, 2.0])];
        let agg = fedavg(&uploads, &[1, 1]).unwrap();
        assert_eq!(agg.global.as_ref().unwrap(), &vec![5.0]);
        assert_eq!(
            agg.rejected,
            vec![RejectedUpload {
                client: 1,
                reason: RejectReason::DimensionMismatch {
                    expected: 1,
                    got: 2
                }
            }]
        );
    }
}
