//! The round protocol's *ledger*: fault drawing, compute/deadline
//! assessment, upload staging, communication accounting, and telemetry
//! folds — the steps the round [`engine`] calls, in its one fixed
//! order, on what a [`ClientLink`] hands back.
//!
//! Everything that feeds the [`SimReport`] — the fault event log (order
//! included), byte and link-time accounting, simulated deadline math —
//! lives here as pure-ish functions of the round's inputs. Nothing in
//! this module knows how a client was reached.
//!
//! [`engine`]: crate::engine
//! [`ClientLink`]: crate::engine::ClientLink
//! [`SimReport`]: crate::sim::SimReport

use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, RoundFaults};
use crate::metrics::AccuracyMatrix;
use crate::proto::UploadMeta;
use crate::server::{RejectReason, RejectedUpload};

/// Append one fault to the run's log, mirroring it into the
/// observability flight recorder. Crash and quarantine faults — the
/// two kinds that end a client's participation abruptly — also
/// request a (throttled) postmortem bundle dump when
/// `FEDKNOW_TRACE_DIR` is configured.
pub(crate) fn record_fault(
    log: &mut Vec<FaultEvent>,
    round: u64,
    client: usize,
    kind: FaultKind,
    detail: u64,
) {
    fedknow_obs::fault(client as u64, kind.label(), detail);
    if matches!(kind, FaultKind::Crash | FaultKind::UploadRejected) {
        fedknow_obs::dump_trigger(&format!("fault_{}", kind.label()));
    }
    log.push(FaultEvent {
        round,
        client,
        kind,
        detail,
    });
}

/// Draw this round's fault schedule on the coordinator, in client order,
/// from per-`(client, round)` substreams — a pure function of the seed
/// and config, independent of thread count and of the link.
pub(crate) fn draw_round_faults(
    plan: &FaultPlan,
    inert: bool,
    active: &[bool],
    round: u64,
) -> Vec<RoundFaults> {
    (0..active.len())
        .map(|c| {
            if inert || !active[c] {
                RoundFaults::none()
            } else {
                plan.draw(c, round)
            }
        })
        .collect()
}

/// Ledger entry for one rejoin resync: the re-sent broadcast is charged
/// as a model download and logged as a [`FaultKind::Rejoin`] event.
/// Returns the link seconds the resync costs the client this round.
pub(crate) fn charge_rejoin(
    down: u64,
    comm: &CommModel,
    round: u64,
    client: usize,
    total_bytes: &mut u64,
    log: &mut Vec<FaultEvent>,
) -> f64 {
    *total_bytes += down;
    fedknow_obs::count("comm.download_bytes", down);
    fedknow_obs::count("fl.rejoins", 1);
    record_fault(log, round, client, FaultKind::Rejoin, 0);
    comm.transfer_seconds(down)
}

/// Participation this round: active minus fresh crashes, with crash
/// events logged in client order and the participation fraction series
/// recorded for non-inert configs.
pub(crate) fn mark_crashes(
    active: &[bool],
    faults: &[RoundFaults],
    inert: bool,
    round: u64,
    log: &mut Vec<FaultEvent>,
) -> Vec<bool> {
    let n = active.len();
    let mut part = active.to_vec();
    for c in 0..n {
        if active[c] && faults[c].crash {
            part[c] = false;
            fedknow_obs::count("fl.crashes", 1);
            record_fault(log, round, c, FaultKind::Crash, 0);
        }
    }
    if !inert && fedknow_obs::is_enabled() {
        let frac = part.iter().filter(|&&p| p).count() as f64 / n as f64;
        fedknow_obs::series("fl.participation", frac);
    }
    part
}

/// The simulated-time view of one round's local training: per-client
/// actual seconds (nominal × straggler slowdown), which clients
/// overshoot the deadline, and the compute seconds the synchronous
/// server spends waiting.
pub(crate) struct ComputeAssessment {
    /// Per-client actual seconds, `None` for absent clients.
    pub actual: Vec<Option<f64>>,
    /// Clients excluded from this round's FedAvg by the deadline.
    pub deadline_missed: Vec<bool>,
    /// The round's simulated compute seconds (slowest survivor, or the
    /// full deadline window when anyone missed it).
    pub round_compute: f64,
}

/// Assess the round's compute time and deadline, logging Straggle and
/// DeadlineMiss events exactly as the round protocol always has: one
/// client-order pass for slowdowns, then one for deadline misses.
pub(crate) fn assess_compute(
    flops: &[Option<u64>],
    devices: &[DeviceProfile],
    faults: &[RoundFaults],
    deadline_factor: f64,
    round: u64,
    log: &mut Vec<FaultEvent>,
) -> ComputeAssessment {
    let n = flops.len();
    let mut nominal_max = 0.0f64;
    let mut actual = vec![None::<f64>; n];
    for (c, f) in flops.iter().enumerate() {
        if let Some(f) = f {
            let nominal = devices[c].compute_seconds(*f);
            nominal_max = nominal_max.max(nominal);
            actual[c] = Some(nominal * faults[c].slowdown);
            if faults[c].slowdown > 1.0 {
                record_fault(
                    log,
                    round,
                    c,
                    FaultKind::Straggle,
                    (faults[c].slowdown * 1000.0).round() as u64,
                );
            }
        }
    }
    let deadline = (deadline_factor > 0.0).then_some(deadline_factor * nominal_max);
    let mut deadline_missed = vec![false; n];
    let mut round_compute: f64 = 0.0;
    let mut any_miss = false;
    for c in 0..n {
        let Some(a) = actual[c] else { continue };
        if deadline.is_some_and(|d| a > d) {
            deadline_missed[c] = true;
            any_miss = true;
            fedknow_obs::count("fl.deadline_misses", 1);
            record_fault(
                log,
                round,
                c,
                FaultKind::DeadlineMiss,
                (faults[c].slowdown * 1000.0).round() as u64,
            );
        } else {
            round_compute = round_compute.max(a);
        }
    }
    if any_miss {
        // The server waits out the full deadline window.
        round_compute = round_compute.max(deadline.unwrap_or(0.0));
    }
    ComputeAssessment {
        actual,
        deadline_missed,
        round_compute,
    }
}

/// Ledger outcome of staging one client's upload through the faulty
/// link.
pub(crate) struct StagedUpload {
    /// Transmissions of the base upload (retries burn wire bytes even
    /// when they fail).
    pub attempts: u32,
    /// Retry backoff charged to this client's link time.
    pub backoff: f64,
}

/// Stage one participating client's upload through this round's faults:
/// corruption, loss/retry with backoff, and deadline exclusion, logging
/// Corrupt / UploadRetry / UploadLost events in the protocol's order.
///
/// `had_upload` is whether the client produced an upload at all — it
/// reports that in its upload metadata, because on a wire a fully lost
/// upload arrives as nothing. The link has already realized the damage
/// (dropped frames, corrupted bytes); only the *events* are ledgered
/// here, and an upload the server must not use is nulled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_upload(
    up: &mut Option<Vec<f32>>,
    had_upload: bool,
    f: &RoundFaults,
    plan: &FaultPlan,
    deadline_missed: bool,
    round: u64,
    client: usize,
    log: &mut Vec<FaultEvent>,
) -> StagedUpload {
    let mut staged = StagedUpload {
        attempts: 0,
        backoff: 0.0,
    };
    if !had_upload {
        return staged;
    }
    if let Some(corr) = f.corruption {
        record_fault(log, round, client, FaultKind::Corrupt, corr.mode as u64);
    }
    staged.attempts = f.upload_attempts();
    let lost = f.lost_attempts;
    if lost > 0 {
        let retries = lost.min(plan.config().max_retries);
        fedknow_obs::count("fl.retries", retries as u64);
        staged.backoff = plan.backoff_seconds(retries);
        if f.upload_lost {
            *up = None;
            fedknow_obs::count("fl.uploads_lost", 1);
            record_fault(log, round, client, FaultKind::UploadLost, lost as u64);
        } else {
            record_fault(log, round, client, FaultKind::UploadRetry, lost as u64);
        }
    }
    if deadline_missed {
        // Transmitted, but arrived after the server closed the round:
        // excluded from FedAvg.
        *up = None;
    }
    staged
}

/// Log quarantined uploads (UploadRejected events, in the aggregator's
/// rejection order) and null them out so downstream telemetry sees the
/// server-accepted view.
pub(crate) fn quarantine_rejected(
    rejected: &[RejectedUpload],
    uploads: &mut [Option<Vec<f32>>],
    round: u64,
    log: &mut Vec<FaultEvent>,
) {
    for r in rejected {
        let detail = match r.reason {
            RejectReason::NonFinite { index } => index as u64,
            RejectReason::DimensionMismatch { got, .. } => got as u64,
        };
        fedknow_obs::count("fl.uploads_rejected", 1);
        record_fault(log, round, r.client, FaultKind::UploadRejected, detail);
        uploads[r.client] = None;
    }
}

/// Everything the modeled communication charge for one round depends on.
pub(crate) struct RoundCommInputs<'a> {
    /// Participation this round.
    pub part: &'a [bool],
    /// Per-client modeled base-model and method-extra bytes (up/down),
    /// read only for participants.
    pub meta: &'a [UploadMeta],
    /// Per-client payload bytes published this round.
    pub payload_up: &'a [u64],
    /// Per-client upload transmissions (0 when nothing was sent).
    pub attempts: &'a [u32],
    /// Per-client retry backoff seconds.
    pub backoff: &'a [f64],
    /// Per-client rejoin resync seconds.
    pub rejoin_secs: &'a [f64],
    /// Whether a global model was aggregated (drives the download leg).
    pub have_global: bool,
}

/// Modeled communication accounting for one round: per client, gated by
/// the slowest link; lost attempts burn bytes, retry backoff and rejoin
/// downloads are charged as link time. Returns the round's comm
/// seconds; wire bytes accumulate into `total_bytes`.
pub(crate) fn account_comm(
    i: &RoundCommInputs<'_>,
    comm: &CommModel,
    total_bytes: &mut u64,
) -> f64 {
    let payload_total: u64 = i.payload_up.iter().sum();
    let mut round_comm: f64 = 0.0;
    for c in 0..i.part.len() {
        if !i.part[c] {
            continue;
        }
        let m = &i.meta[c];
        // Clients download every payload but their own.
        let payload_down = payload_total - i.payload_up[c];
        let up_bytes = m.base_up * i.attempts[c] as u64 + m.extra_up + i.payload_up[c];
        let down_bytes = if i.have_global { m.base_down } else { 0 } + m.extra_down + payload_down;
        *total_bytes += up_bytes + down_bytes;
        fedknow_obs::count("comm.upload_bytes", up_bytes);
        fedknow_obs::count("comm.download_bytes", down_bytes);
        let link = comm.transfer_seconds(up_bytes + down_bytes) + i.backoff[c] + i.rejoin_secs[c];
        round_comm = round_comm.max(link);
    }
    round_comm
}

/// Mean relative L2 distance of the client uploads from the aggregate,
/// `mean_c ‖u_c − g‖ / ‖g‖` — the dispersion the server sees *before*
/// FedAvg collapses it. `None` when nothing was uploaded or `g` is zero.
pub(crate) fn upload_divergence(uploads: &[Option<Vec<f32>>], global: &[f32]) -> Option<f64> {
    let g_norm = global
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt();
    if g_norm == 0.0 {
        return None;
    }
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for u in uploads.iter().flatten() {
        let d = u
            .iter()
            .zip(global)
            .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        sum += d / g_norm;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Relative L2 movement `‖now − prev‖ / ‖prev‖` of the global model
/// across one aggregation (`0` for a zero previous model).
pub(crate) fn relative_l2(prev: &[f32], now: &[f32]) -> f64 {
    let p_norm = prev
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt();
    if p_norm == 0.0 {
        return 0.0;
    }
    let d = prev
        .iter()
        .zip(now)
        .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    d / p_norm
}

/// Aggregate-quality telemetry after FedAvg: upload dispersion and
/// global drift series. `prev_global` tracking is part of the
/// telemetry (only advanced while obs is enabled — it feeds the drift
/// series and nothing else functional).
pub(crate) fn fold_aggregate_telemetry(
    uploads: &[Option<Vec<f32>>],
    global: &Option<Vec<f32>>,
    prev_global: &mut Option<Vec<f32>>,
) {
    if !fedknow_obs::is_enabled() {
        return;
    }
    if let Some(g) = global {
        if let Some(div) = upload_divergence(uploads, g) {
            fedknow_obs::gauge("fl.update_divergence", div);
            fedknow_obs::series("fl.update_divergence", div);
        }
        if let Some(prev) = prev_global {
            fedknow_obs::series("fl.global_drift", relative_l2(prev, g));
        }
        *prev_global = Some(g.clone());
    }
}

/// Per-round telemetry fold: the clients' simulated compute times and
/// the streaming health engine's SLO update.
/// `queue_depth` is the server inbox backlog observed at fold time —
/// zero for the in-process backend, whose "inbox" is a function call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_round_telemetry(
    round: u64,
    active: &[bool],
    part: &[bool],
    faults: &[RoundFaults],
    actual: &[Option<f64>],
    completed: u64,
    quarantined: u64,
    round_seconds: f64,
    queue_depth: u64,
) {
    if !fedknow_obs::is_enabled() {
        return;
    }
    fedknow_obs::observe_queue_depth(queue_depth as f64);
    let n = active.len();
    for seconds in actual.iter().flatten() {
        fedknow_obs::record("client.sim_compute_ns", (seconds * 1e9) as u64);
    }
    fedknow_obs::observe_round(&fedknow_obs::RoundObservation {
        round,
        expected: active.iter().filter(|&&a| a).count() as u64,
        completed,
        stragglers: (0..n)
            .filter(|&c| part[c] && faults[c].slowdown > 1.0)
            .count() as u64,
        quarantined,
        uploads_lost: (0..n).filter(|&c| part[c] && faults[c].upload_lost).count() as u64,
        round_seconds,
    });
}

/// Task-boundary forgetting telemetry: after learning task `step`,
/// per-task series `fl.forgetting.task{k}` (mean over clients, indexed
/// by `step` — the heat-strip rows in `obs report`), the aggregate
/// series `fl.avg_forgetting`, and a per-client per-task histogram
/// `fl.client_forgetting_pm` (per-mille) exposing the distribution
/// behind the means.
pub(crate) fn record_forgetting(matrices: &[AccuracyMatrix], step: usize) {
    for k in 0..=step {
        let rates: Vec<f64> = matrices
            .iter()
            .filter_map(|m| m.forgetting_after(step, k))
            .collect();
        if rates.is_empty() {
            continue;
        }
        for &r in &rates {
            fedknow_obs::record("fl.client_forgetting_pm", (r * 1000.0).round() as u64);
        }
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        fedknow_obs::series_at(&format!("fl.forgetting.task{k}"), step as u64, mean);
    }
    let avg = matrices
        .iter()
        .map(|m| m.avg_forgetting_after(step))
        .sum::<f64>()
        / matrices.len() as f64;
    fedknow_obs::series_at("fl.avg_forgetting", step as u64, avg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_helpers_match_definitions() {
        // One upload at distance 5 from a norm-5 global: ratio 1. A
        // second at distance 0: mean 0.5.
        let g = vec![3.0, 4.0];
        let uploads = vec![Some(vec![-1.0, 1.0]), Some(g.clone()), None];
        assert!((upload_divergence(&uploads, &g).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(upload_divergence(&[None], &g), None);
        assert_eq!(upload_divergence(&uploads, &[0.0, 0.0]), None);
        assert!((relative_l2(&[3.0, 0.0], &[3.0, 4.0]) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(relative_l2(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn stage_upload_ledgers_a_lost_upload_without_the_vector() {
        // The transport driver's case: the upload vanished on the wire,
        // so `up` is already None but `had_upload` is true — the ledger
        // must still log the loss exactly as the in-process driver does.
        let cfg = crate::faults::FaultConfig {
            loss_prob: 1.0,
            max_retries: 2,
            ..Default::default()
        };
        let plan = FaultPlan::new(9, cfg);
        let mut round = 0;
        let f = loop {
            let f = plan.draw(0, round);
            if f.upload_lost {
                break f;
            }
            round += 1;
        };
        let mut log_a = Vec::new();
        let mut up_a = Some(vec![1.0f32; 4]);
        let a = stage_upload(&mut up_a, true, &f, &plan, false, round, 0, &mut log_a);
        let mut log_b = Vec::new();
        let mut up_b: Option<Vec<f32>> = None;
        let b = stage_upload(&mut up_b, true, &f, &plan, false, round, 0, &mut log_b);
        assert_eq!(up_a, None);
        assert_eq!(up_b, None);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.backoff, b.backoff);
        let shape = |l: &[FaultEvent]| l.iter().map(|e| (e.kind, e.detail)).collect::<Vec<_>>();
        assert_eq!(shape(&log_a), shape(&log_b));
        assert!(log_a.iter().any(|e| e.kind == FaultKind::UploadLost));
    }
}
