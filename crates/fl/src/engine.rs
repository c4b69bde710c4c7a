//! The one round engine: the paper's §III-A loop — start task → `r`
//! rounds of (`v` local iterations → upload → FedAvg → broadcast) →
//! finish task → evaluate — written once, over a [`ClientLink`].
//!
//! The engine owns the run's ledger ([`RunState`]) and calls the
//! [`protocol`] functions in one fixed order; how a client is reached is
//! the link's business. [`Simulation`] is the link that never
//! serializes (direct trait calls fanned over threads); the
//! [`FederationRuntime`]'s server actor is the link that exchanges
//! framed messages. Both hand back the same [`RoundContribution`]s, so
//! a seeded run's report is the same by construction, not by test.
//!
//! A link may *omit* a reply (a wire client that missed its wall-clock
//! deadline). The engine degrades — weight 0 in that round's FedAvg, no
//! OOM check, a zero evaluation row — and logs no [`FaultEvent`]: the
//! fault ledger stays a pure function of the seed.
//!
//! [`Simulation`]: crate::sim::Simulation
//! [`FederationRuntime`]: crate::actor::FederationRuntime

use crate::client::{FclClient, Payload};
use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::faults::{FaultEvent, FaultPlan, RoundFaults};
use crate::metrics::{mean_matrix, AccuracyMatrix};
use crate::proto::UploadMeta;
use crate::protocol;
use crate::server::fedavg;
use crate::sim::{PhaseBreakdown, SimConfig, SimError, SimReport};
use fedknow_data::ClientTask;
use fedknow_math::rng::substream;
use rand::rngs::StdRng;

/// What one client hands the server for one round.
pub(crate) struct RoundContribution {
    pub meta: UploadMeta,
    pub params: Option<Vec<f32>>,
    pub payloads: Vec<Payload>,
}

/// How the engine reaches the clients. Per-client vectors are indexed
/// by client id; `None` is a client that was not asked or did not
/// answer.
pub(crate) trait ClientLink {
    /// Begin task `step` on every active client.
    fn start_task(&mut self, step: usize, active: &[bool]);
    /// Re-send the broadcast client `c` missed while crashed; returns
    /// the modeled download bytes of that client's base model.
    fn resync(&mut self, c: usize, round: u64, global: &[f32]) -> u64;
    /// Run `round` on every participant: local training, then the
    /// upload through this round's drawn faults. Loss leaves `params`
    /// empty, corruption leaves them damaged.
    fn round(
        &mut self,
        round: u64,
        step: usize,
        part: &[bool],
        faults: &[RoundFaults],
    ) -> Vec<Option<RoundContribution>>;
    /// Deliver the aggregate and the round's payload set to every
    /// participant.
    fn broadcast(
        &mut self,
        part: &[bool],
        round: u64,
        global: Option<&[f32]>,
        payloads: Vec<Payload>,
    );
    /// Consolidate the task on every active client; their retained
    /// bytes.
    fn finish_task(&mut self, active: &[bool]) -> Vec<Option<u64>>;
    /// Every client's accuracy on its learned tasks `0..=step`
    /// (dropped clients included — they keep a stale model).
    fn evaluate(&mut self, step: usize) -> Vec<Option<Vec<f64>>>;
    /// Replies waiting to be read — none when a reply is a return value.
    fn queue_depth(&self) -> u64 {
        0
    }
}

/// Client `c`'s training stream — the same wherever the client lives.
pub(crate) fn client_rng(seed: u64, c: usize) -> StdRng {
    substream(seed, 0xF1_0000 + c as u64)
}

/// One client's side of a round, the same whichever link carries it:
/// `iters` local iterations, then the upload, the method payloads and
/// the modeled comm sizes.
pub(crate) fn client_round(
    id: usize,
    client: &mut dyn FclClient,
    task: &ClientTask,
    rng: &mut StdRng,
    iters: usize,
    model_bytes: u64,
) -> RoundContribution {
    let mut flops = 0u64;
    let mut loss_sum = 0.0f64;
    for _ in 0..iters {
        let s = client.train_iteration(rng);
        flops += s.flops;
        loss_sum += s.loss;
    }
    let params = client.upload();
    let mut payloads = client.payload_out();
    for p in &mut payloads {
        p.from_client = id;
    }
    let extra = client.extra_comm();
    let base = client.base_comm(model_bytes);
    RoundContribution {
        meta: UploadMeta {
            weight: task.train.len() as u64,
            flops,
            loss_sum,
            iters: iters as u64,
            base_up: base.up,
            base_down: base.down,
            extra_up: extra.up,
            extra_down: extra.down,
            had_params: params.is_some(),
        },
        params,
        payloads,
    }
}

/// The fixed parts of a run the engine reads: one device per client,
/// the link model, the loop shape and fault configuration.
pub(crate) struct RoundEnv<'a> {
    pub devices: &'a [DeviceProfile],
    pub comm: &'a CommModel,
    pub cfg: &'a SimConfig,
}

/// The run's ledger — everything a round changes on the server side,
/// and everything a [`SimCheckpoint`] captures besides the clients.
///
/// [`SimCheckpoint`]: crate::sim::SimCheckpoint
#[derive(Default)]
pub(crate) struct RunState {
    pub next_task: usize,
    pub active: Vec<bool>,
    pub missed_broadcast: Vec<bool>,
    pub dropouts: Vec<(usize, usize)>,
    pub matrices: Vec<AccuracyMatrix>,
    pub task_compute: Vec<f64>,
    pub task_comm: Vec<f64>,
    pub task_loss: Vec<f64>,
    pub total_bytes: u64,
    pub prev_global: Option<Vec<f32>>,
    pub last_global: Option<Vec<f32>>,
    pub fault_log: Vec<FaultEvent>,
}

impl RunState {
    /// The state before the first task of an `n`-client run.
    pub fn fresh(n: usize) -> Self {
        Self {
            active: vec![true; n],
            missed_broadcast: vec![false; n],
            matrices: vec![AccuracyMatrix::new(); n],
            ..Self::default()
        }
    }
}

/// Arm observability and verification from the environment and register
/// run-identifying context, so a postmortem bundle records *what* was
/// running, not just how it died.
pub(crate) fn init_run(cfg: &SimConfig, method: &str) {
    fedknow_obs::init_from_env();
    fedknow_verify::init_from_env();
    if !fedknow_obs::is_enabled() {
        return;
    }
    fedknow_obs::set_context("sim.method", method);
    fedknow_obs::set_context("sim.seed", &cfg.seed.to_string());
    if let Ok(cfg) = serde_json::to_string(cfg) {
        fedknow_obs::set_context("sim.config", &cfg);
    }
}

/// Run `body` (which advances `st` to the end of the task stream) under
/// the `run` span and assemble the report, attributing the run's
/// metrics by registry snapshot difference.
pub(crate) fn run_reported(
    env: &RoundEnv<'_>,
    method: &str,
    mut st: RunState,
    body: impl FnOnce(&mut RunState) -> Result<(), SimError>,
) -> Result<SimReport, SimError> {
    init_run(env.cfg, method);
    let obs_before = fedknow_obs::snapshot();
    let run_span = fedknow_obs::span("run");
    body(&mut st)?;
    // Close the run span before diffing so its duration is included.
    drop(run_span);
    let phase_breakdown = obs_before.and_then(|before| {
        fedknow_obs::snapshot().map(|after| PhaseBreakdown::from_metrics(&after.since(&before)))
    });
    fedknow_obs::flush();
    Ok(SimReport {
        method: method.to_string(),
        accuracy: mean_matrix(&st.matrices),
        task_compute_seconds: st.task_compute,
        task_comm_seconds: st.task_comm,
        total_bytes: st.total_bytes,
        dropouts: st.dropouts,
        task_mean_loss: st.task_loss,
        phase_breakdown,
        fault_log: st.fault_log,
    })
}

/// Advance the task loop from `st.next_task` up to (not including)
/// `until`.
pub(crate) fn advance(
    link: &mut dyn ClientLink,
    env: &RoundEnv<'_>,
    st: &mut RunState,
    until: usize,
) -> Result<(), SimError> {
    let n = env.devices.len();
    let plan = FaultPlan::new(env.cfg.seed, env.cfg.faults);
    let inert = plan.config().is_inert();

    for step in st.next_task..until {
        let _task_span = fedknow_obs::obs_span!("task.{step}");
        link.start_task(step, &st.active);

        let mut compute_secs = 0.0f64;
        let mut comm_secs = 0.0f64;
        let mut loss_sum = 0.0f64;
        let mut loss_iters = 0usize;

        for round in 0..env.cfg.rounds_per_task {
            let _round_span = fedknow_obs::obs_span!("round.{round}");
            // Global round index: the ambient tag every deep
            // instrumentation site (integrator, restorer, sent frames)
            // stamps its records with.
            let global_round = (step * env.cfg.rounds_per_task + round) as u64;
            fedknow_obs::set_round(global_round);

            // Fault draws happen here, on the coordinator thread and in
            // client order, from per-(client, round) substreams — the
            // schedule is independent of thread count and of the link.
            let faults = protocol::draw_round_faults(&plan, inert, &st.active, global_round);

            // Rejoin: a client that crashed earlier and is back this
            // round is re-sent the broadcast it missed (charged as a
            // model download) before training resumes.
            let mut rejoin_secs = vec![0.0f64; n];
            for c in 0..n {
                if !st.active[c] || faults[c].crash || !st.missed_broadcast[c] {
                    continue;
                }
                st.missed_broadcast[c] = false;
                if let Some(g) = &st.last_global {
                    let down = link.resync(c, global_round, g);
                    rejoin_secs[c] = protocol::charge_rejoin(
                        down,
                        env.comm,
                        global_round,
                        c,
                        &mut st.total_bytes,
                        &mut st.fault_log,
                    );
                }
            }

            // Participation this round: active minus fresh crashes.
            let part =
                protocol::mark_crashes(&st.active, &faults, inert, global_round, &mut st.fault_log);

            let mut contributions = link.round(global_round, step, &part, &faults);
            for rc in contributions.iter().flatten() {
                loss_sum += rc.meta.loss_sum;
                loss_iters += rc.meta.iters as usize;
            }

            // The slowest participant gates the synchronous round;
            // stragglers run `slowdown ×` their nominal time, and an
            // optional deadline (a multiple of the slowest *nominal*
            // time) caps how long the server waits.
            let flops: Vec<Option<u64>> = contributions
                .iter()
                .map(|rc| rc.as_ref().map(|rc| rc.meta.flops))
                .collect();
            let assess = protocol::assess_compute(
                &flops,
                env.devices,
                &faults,
                plan.config().deadline_factor,
                global_round,
                &mut st.fault_log,
            );
            compute_secs += assess.round_compute;

            // Ledger the uploads (the link already realized loss and
            // corruption) and the modeled comm sizes. `attempts` counts
            // transmissions of the base upload: retries burn wire bytes
            // even when they fail.
            let mut uploads: Vec<Option<Vec<f32>>> = Vec::with_capacity(n);
            let mut attempts = vec![0u32; n];
            let mut backoff = vec![0.0f64; n];
            let mut metas = vec![UploadMeta::default(); n];
            for (c, rc) in contributions.iter_mut().enumerate() {
                let Some(rc) = rc else {
                    uploads.push(None);
                    continue;
                };
                metas[c] = rc.meta;
                let mut up = rc.params.take();
                let staged = protocol::stage_upload(
                    &mut up,
                    rc.meta.had_params,
                    &faults[c],
                    &plan,
                    assess.deadline_missed[c],
                    global_round,
                    c,
                    &mut st.fault_log,
                );
                attempts[c] = staged.attempts;
                backoff[c] = staged.backoff;
                uploads.push(up);
            }

            // Aggregation; validation quarantines malformed uploads.
            let weights: Vec<usize> = metas.iter().map(|m| m.weight as usize).collect();
            let agg = fedavg(&uploads, &weights)?;
            protocol::quarantine_rejected(
                &agg.rejected,
                &mut uploads,
                global_round,
                &mut st.fault_log,
            );
            let global = agg.global;
            protocol::fold_aggregate_telemetry(&uploads, &global, &mut st.prev_global);

            // Method payload exchange through the server (e.g. FedWEIT
            // adaptive weights).
            let mut payloads: Vec<Payload> = Vec::new();
            let mut payload_up = vec![0u64; n];
            for (c, rc) in contributions.into_iter().enumerate() {
                for p in rc.into_iter().flat_map(|rc| rc.payloads) {
                    payload_up[c] += p.size_bytes();
                    payloads.push(p);
                }
            }

            // Communication accounting (per client, gated by the
            // slowest link; lost attempts burn bytes, retry backoff and
            // rejoin downloads are charged as link time).
            let round_comm = protocol::account_comm(
                &protocol::RoundCommInputs {
                    part: &part,
                    meta: &metas,
                    payload_up: &payload_up,
                    attempts: &attempts,
                    backoff: &backoff,
                    rejoin_secs: &rejoin_secs,
                    have_global: global.is_some(),
                },
                env.comm,
                &mut st.total_bytes,
            );
            comm_secs += round_comm;

            protocol::fold_round_telemetry(
                global_round,
                &st.active,
                &part,
                &faults,
                &assess.actual,
                uploads.iter().filter(|u| u.is_some()).count() as u64,
                agg.rejected.len() as u64,
                assess.round_compute + round_comm,
                link.queue_depth(),
            );

            // Broadcast the aggregate and the payload set; crashed
            // clients miss it and are owed a rejoin.
            link.broadcast(&part, global_round, global.as_deref(), payloads);
            if global.is_some() {
                for (c, &went) in part.iter().enumerate() {
                    if st.active[c] && !went {
                        st.missed_broadcast[c] = true;
                    }
                }
                st.last_global = global;
            }
        }

        // Task end: consolidate knowledge, then check memory budgets.
        let retained = link.finish_task(&st.active);
        for (c, is_active) in st.active.iter_mut().enumerate() {
            if *is_active && retained[c].is_some_and(|r| env.devices[c].would_oom(r)) {
                *is_active = false;
                st.dropouts.push((c, step));
            }
        }

        // Evaluation row per client; a missing one reads as zeros so
        // the matrix stays rectangular.
        let rows = link.evaluate(step);
        for (m, row) in st.matrices.iter_mut().zip(rows) {
            m.push_row(row.unwrap_or_else(|| vec![0.0; step + 1]))?;
        }
        if fedknow_obs::is_enabled() {
            protocol::record_forgetting(&st.matrices, step);
        }

        st.task_compute.push(compute_secs);
        st.task_comm.push(comm_secs);
        st.task_loss.push(if loss_iters > 0 {
            loss_sum / loss_iters as f64
        } else {
            0.0
        });
        st.next_task = step + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    /// Scripted link: client `c` uploads `[3c + 1]` at weight 10 and
    /// evaluates to 0.5 — except that client 0's upload in round 1,
    /// client 1's retained size and client 2's evaluation row never
    /// arrive. Records every broadcast aggregate.
    #[derive(Default)]
    struct LossyLink {
        globals: Vec<Option<Vec<f32>>>,
    }

    impl ClientLink for LossyLink {
        fn start_task(&mut self, _step: usize, _active: &[bool]) {}

        fn resync(&mut self, _c: usize, _round: u64, _global: &[f32]) -> u64 {
            unreachable!("an inert fault plan draws no crash")
        }

        fn round(
            &mut self,
            round: u64,
            _step: usize,
            part: &[bool],
            _faults: &[RoundFaults],
        ) -> Vec<Option<RoundContribution>> {
            let upload = |c: usize| RoundContribution {
                meta: UploadMeta {
                    weight: 10,
                    iters: 1,
                    had_params: true,
                    ..UploadMeta::default()
                },
                params: Some(vec![3.0 * c as f32 + 1.0]),
                payloads: Vec::new(),
            };
            (0..part.len())
                .map(|c| (part[c] && (round, c) != (1, 0)).then(|| upload(c)))
                .collect()
        }

        fn broadcast(&mut self, _: &[bool], _: u64, global: Option<&[f32]>, _: Vec<Payload>) {
            self.globals.push(global.map(<[f32]>::to_vec));
        }

        fn finish_task(&mut self, active: &[bool]) -> Vec<Option<u64>> {
            (0..active.len()).map(|c| (c != 1).then_some(0)).collect()
        }

        fn evaluate(&mut self, step: usize) -> Vec<Option<Vec<f64>>> {
            (0..3)
                .map(|c| (c != 2).then(|| vec![0.5; step + 1]))
                .collect()
        }
    }

    #[test]
    fn missing_replies_degrade_the_run_but_never_enter_the_fault_ledger() {
        let cfg = SimConfig {
            rounds_per_task: 2,
            iters_per_round: 1,
            seed: 3,
            parallel: false,
            faults: FaultConfig::default(),
        };
        let env = RoundEnv {
            devices: &DeviceProfile::uniform_cluster(3),
            comm: &CommModel::paper_default(),
            cfg: &cfg,
        };
        let mut link = LossyLink::default();
        let mut st = RunState::fresh(3);
        advance(&mut link, &env, &mut st, 1).expect("the run completes");

        // Round 0 averages uploads 1, 4 and 7; round 1 never got client
        // 0's, so it carries weight 0 and the mean is over 4 and 7.
        assert_eq!(link.globals, [Some(vec![4.0]), Some(vec![5.5])]);
        assert_eq!(st.next_task, 1);
        assert!(st.dropouts.is_empty(), "no TaskDone is not an OOM");
        assert_eq!(st.matrices[0].at(0, 0), 0.5);
        assert_eq!(st.matrices[2].at(0, 0), 0.0, "a missing row is zeros");
        assert!(
            st.fault_log.is_empty(),
            "wall-clock degradation must stay out of the seed-pure ledger"
        );
    }
}
