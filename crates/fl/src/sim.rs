//! The in-process simulation: the round `engine` over the link that
//! never serializes, plus the run's public types.
//!
//! The paper's §III-A protocol — every client trains its current task
//! for `r` aggregation rounds of `v` local iterations; after each round
//! the server FedAvg-aggregates the uploads and broadcasts the global
//! model; at every task boundary each client is evaluated on all tasks
//! it has learned so far — is the engine's loop. [`Simulation`] reaches
//! its clients by direct trait calls fanned over worker threads (they
//! are independent between aggregations); all randomness is drawn from
//! per-client streams, so results are bit-identical regardless of
//! thread count.
//!
//! ## Faults and resilience
//!
//! With a non-inert [`FaultConfig`] the round protocol exercises the
//! failure modes of the paper's physical testbed: clients crash for a
//! round and rejoin at the next broadcast, stragglers overshoot the
//! round deadline and are excluded from that round's FedAvg, uploads are
//! lost and retried with exponential backoff charged to comm time, and
//! corrupted payloads are quarantined by the server's upload validation.
//! Every fault is drawn on the coordinator thread from per-`(client,
//! round)` substreams ([`FaultPlan`]), so the fault event log — and the
//! whole [`SimReport`] — is bit-reproducible across thread counts.
//!
//! ## Checkpoint / resume
//!
//! [`Simulation::checkpoint`] runs a prefix of the task stream and
//! captures a [`SimCheckpoint`] at the task boundary (driver
//! bookkeeping, per-client parameters via
//! [`FclClient::checkpoint_params`] stored as `fedknow-nn` checkpoints,
//! and the exact RNG states). [`Simulation::resume`] restores the state
//! into a freshly built simulation and completes the run; for methods
//! whose state is their flat parameter vector the resumed [`SimReport`]
//! is bit-identical to an uninterrupted run.
//!
//! [`FaultPlan`]: crate::faults::FaultPlan

use crate::client::{FclClient, Payload};
use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::engine::{self, client_round, ClientLink, RoundContribution, RoundEnv, RunState};
use crate::faults::{FaultConfig, FaultEvent, FaultKind, RoundFaults};
use crate::metrics::{AccuracyMatrix, RowLengthMismatch};
use crate::server::AggregateError;
use crate::transport::TransportError;
use fedknow_data::ClientDataset;
use fedknow_math::rng::substream;
use fedknow_nn::checkpoint::Checkpoint as ParamCheckpoint;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Loop-shape parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Aggregation rounds per task (paper: 5–15 depending on dataset).
    pub rounds_per_task: usize,
    /// Local training iterations per round (paper: 25).
    pub iters_per_round: usize,
    /// Base seed for all per-client random streams.
    pub seed: u64,
    /// Train clients on parallel threads.
    pub parallel: bool,
    /// Fault injection. The default is inert: no crashes, stragglers,
    /// losses, corruption, or round deadline.
    pub faults: FaultConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            rounds_per_task: 5,
            iters_per_round: 10,
            seed: 0,
            parallel: true,
            faults: FaultConfig::default(),
        }
    }
}

/// A simulation failed in a way the caller must handle (as opposed to a
/// per-client fault, which the round protocol absorbs and logs).
#[derive(Debug)]
pub enum SimError {
    /// A client's evaluation row did not cover its learned tasks.
    Row(RowLengthMismatch),
    /// The aggregation call itself was malformed (an internal
    /// uploads/weights bookkeeping bug, not a bad upload).
    Aggregate(AggregateError),
    /// A [`SimCheckpoint`] does not fit this simulation.
    BadCheckpoint(String),
    /// The transport under a [`FederationRuntime`] could not be set up,
    /// or a peer never arrived.
    ///
    /// [`FederationRuntime`]: crate::actor::FederationRuntime
    Transport(TransportError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Row(e) => write!(f, "evaluation row mismatch: {e}"),
            SimError::Aggregate(e) => write!(f, "aggregation call malformed: {e}"),
            SimError::BadCheckpoint(e) => write!(f, "checkpoint rejected: {e}"),
            SimError::Transport(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<RowLengthMismatch> for SimError {
    fn from(e: RowLengthMismatch) -> Self {
        SimError::Row(e)
    }
}

impl From<AggregateError> for SimError {
    fn from(e: AggregateError) -> Self {
        SimError::Aggregate(e)
    }
}

impl From<TransportError> for SimError {
    fn from(e: TransportError) -> Self {
        SimError::Transport(e)
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Method under test.
    pub method: String,
    /// Mean accuracy matrix over clients.
    pub accuracy: AccuracyMatrix,
    /// Simulated training compute time per task step (seconds; the
    /// slowest active device gates each round, as in synchronous FedAvg).
    pub task_compute_seconds: Vec<f64>,
    /// Simulated communication time per task step (seconds).
    pub task_comm_seconds: Vec<f64>,
    /// Total bytes moved on the wire over the whole run.
    pub total_bytes: u64,
    /// `(client, task_step)` pairs where a device ran out of retained-
    /// state memory and left the federation.
    pub dropouts: Vec<(usize, usize)>,
    /// Mean training loss per task step (diagnostic).
    pub task_mean_loss: Vec<f64>,
    /// Per-phase time/bytes attribution for this run, present when the
    /// observability layer was enabled (`FEDKNOW_OBS` or
    /// `fedknow_obs::enable`) — see [`PhaseBreakdown`].
    pub phase_breakdown: Option<PhaseBreakdown>,
    /// Every injected fault and resilience action in draw order — a pure
    /// function of `(seed, FaultConfig)`. Empty for inert configs.
    pub fault_log: Vec<FaultEvent>,
}

/// Aggregated timing for one phase metric (a `*_ns` histogram such as
/// `qp.solve_ns` or `restore.distill_ns`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Metric name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum over all samples (nanoseconds for `*_ns` metrics).
    pub total_ns: u64,
    /// Mean sample.
    pub mean_ns: f64,
    /// Median (~2% relative error, log-bucketed).
    pub p50_ns: u64,
    /// 99th percentile (~2% relative error).
    pub p99_ns: u64,
}

/// The observability attribution of one run: every histogram metric that
/// grew during the run (phase timers and span durations) plus every
/// counter delta (byte counters, QP fallback/fast-path events). Built by
/// diffing registry snapshots taken at the start and end of
/// [`Simulation::run`], so concurrent runs in other threads of the same
/// process can pollute it — a per-run `FEDKNOW_OBS` stream (or a
/// bundle), read with `obs report`, is the precise source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// One entry per histogram metric, name-sorted.
    pub phases: Vec<PhaseStat>,
    /// Counter deltas `(name, value)`, name-sorted.
    pub counters: Vec<(String, u64)>,
}

impl PhaseBreakdown {
    /// Summarise a metrics snapshot (typically a [`MetricsSnapshot::since`]
    /// diff scoping the metrics to one run or sweep).
    ///
    /// [`MetricsSnapshot::since`]: fedknow_obs::MetricsSnapshot::since
    pub fn from_metrics(s: &fedknow_obs::MetricsSnapshot) -> Self {
        let phases = s
            .hists
            .iter()
            .map(|(name, h)| PhaseStat {
                name: name.clone(),
                count: h.count(),
                total_ns: h.sum(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
            })
            .collect();
        let counters = s.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        Self { phases, counters }
    }

    /// Look up one phase by metric name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Look up one counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

impl SimReport {
    /// Cumulative training time (compute + communication) after each
    /// task — the paper's "training time (hour)" axis.
    pub fn cumulative_time(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.task_compute_seconds
            .iter()
            .zip(&self.task_comm_seconds)
            .map(|(c, m)| {
                acc += c + m;
                acc
            })
            .collect()
    }

    /// Total communication seconds over the run.
    pub fn total_comm_seconds(&self) -> f64 {
        self.task_comm_seconds.iter().sum()
    }

    /// Number of logged fault events of the given kind.
    pub fn fault_count(&self, kind: FaultKind) -> usize {
        self.fault_log.iter().filter(|e| e.kind == kind).count()
    }
}

/// A mid-run snapshot captured at a task boundary by
/// [`Simulation::checkpoint`] and consumed by [`Simulation::resume`].
/// Serialisable, so a killed process can persist it and a fresh process
/// can finish the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// Format version.
    pub version: u16,
    /// Method name, validated against the resuming simulation.
    pub method: String,
    /// Seed the interrupted run used — the resumed run must match or
    /// the RNG streams (and fault schedule) would diverge.
    pub seed: u64,
    /// Loop shape of the interrupted run.
    pub rounds_per_task: usize,
    /// Loop shape of the interrupted run.
    pub iters_per_round: usize,
    /// Fault configuration of the interrupted run.
    pub faults: FaultConfig,
    /// The task step the resumed run starts from.
    pub next_task: usize,
    /// Which clients are still in the federation.
    pub active: Vec<bool>,
    /// Clients that crashed and have not yet been re-sent the global.
    pub missed_broadcast: Vec<bool>,
    /// OOM dropouts so far.
    pub dropouts: Vec<(usize, usize)>,
    /// Per-client accuracy matrices so far.
    pub matrices: Vec<AccuracyMatrix>,
    /// Per-task compute seconds so far.
    pub task_compute: Vec<f64>,
    /// Per-task comm seconds so far.
    pub task_comm: Vec<f64>,
    /// Per-task mean loss so far.
    pub task_loss: Vec<f64>,
    /// Wire bytes so far.
    pub total_bytes: u64,
    /// Last aggregate, for the global-drift telemetry series.
    pub prev_global: Option<Vec<f32>>,
    /// Last broadcast global, owed to crashed clients on rejoin.
    pub last_global: Option<Vec<f32>>,
    /// Fault events so far.
    pub fault_log: Vec<FaultEvent>,
    /// Exact per-client RNG states (4 words each; a `Vec` because the
    /// vendored serde has no fixed-size-array support).
    pub rng_states: Vec<Vec<u64>>,
    /// Per-client parameters, as `fedknow-nn` model checkpoints.
    pub client_params: Vec<Option<ParamCheckpoint>>,
}

impl SimCheckpoint {
    /// Current format version.
    pub const VERSION: u16 = 1;
}

/// A configured simulation: clients (one algorithm instance each), their
/// datasets, devices, and the link model.
pub struct Simulation {
    pub(crate) clients: Vec<Box<dyn FclClient>>,
    pub(crate) data: Vec<ClientDataset>,
    pub(crate) devices: Vec<DeviceProfile>,
    pub(crate) comm: CommModel,
    pub(crate) cfg: SimConfig,
    /// Base model size on the wire (bytes).
    pub(crate) model_bytes: u64,
}

impl Simulation {
    /// Assemble a simulation. `clients`, `data` and `devices` must have
    /// equal lengths; every client must have the same number of tasks.
    pub fn new(
        clients: Vec<Box<dyn FclClient>>,
        data: Vec<ClientDataset>,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
        cfg: SimConfig,
        model_bytes: u64,
    ) -> Self {
        assert_eq!(clients.len(), data.len(), "one dataset per client");
        assert_eq!(clients.len(), devices.len(), "one device per client");
        assert!(!clients.is_empty());
        let t0 = data[0].tasks.len();
        assert!(
            data.iter().all(|d| d.tasks.len() == t0),
            "task counts differ across clients"
        );
        Self {
            clients,
            data,
            devices,
            comm,
            cfg,
            model_bytes,
        }
    }

    /// Run the full task sequence and produce the report.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        let (st, rngs) = self.fresh_state();
        self.drive(st, rngs)
    }

    /// Run the first `tasks` tasks and capture a checkpoint at that
    /// boundary. Feeding it to [`Self::resume`] on a freshly built,
    /// identically configured simulation completes the run;
    /// `tasks >= the stream length` checkpoints the completed run.
    pub fn checkpoint(&mut self, tasks: usize) -> Result<SimCheckpoint, SimError> {
        engine::init_run(&self.cfg, self.clients[0].method_name());
        let (mut st, mut rngs) = self.fresh_state();
        let until = tasks.min(self.data[0].tasks.len());
        let (mut link, env) = self.split(&mut rngs);
        engine::advance(&mut link, &env, &mut st, until)?;
        fedknow_obs::mark(&format!("checkpoint.capture tasks={until}"));
        let ck = self.capture(&st, &rngs);
        if fedknow_verify::is_enabled() {
            // Capturing must be a pure read: a second capture of the same
            // state has to be identical, or resume would replay from a
            // snapshot that drifted from the run it claims to freeze.
            fedknow_verify::report(
                "sim.checkpoint_stable",
                if self.capture(&st, &rngs) == ck {
                    Ok(())
                } else {
                    Err("capturing the same state twice produced different checkpoints".into())
                },
            );
        }
        Ok(ck)
    }

    /// Restore a checkpointed run into this (freshly built) simulation
    /// and complete it. The configuration must match the interrupted
    /// run's; per-client parameters are restored through
    /// [`FclClient::restore_checkpoint`], so for methods whose state is
    /// their flat parameter vector the final report is bit-identical to
    /// an uninterrupted [`Self::run`].
    pub fn resume(&mut self, ck: &SimCheckpoint) -> Result<SimReport, SimError> {
        fedknow_obs::init_from_env();
        fedknow_obs::mark(&format!("checkpoint.resume next_task={}", ck.next_task));
        let (st, rngs) = self.restore_state(ck)?;
        self.drive(st, rngs)
    }

    /// The ledger and the per-client training streams (derived from the
    /// seed) before the first task.
    fn fresh_state(&self) -> (RunState, Vec<StdRng>) {
        let n = self.clients.len();
        let rng = |c| engine::client_rng(self.cfg.seed, c);
        (RunState::fresh(n), (0..n).map(rng).collect())
    }

    /// This simulation as the engine sees it: the in-process link over
    /// the clients, and the fixed environment of the run.
    fn split<'a>(&'a mut self, rngs: &'a mut [StdRng]) -> (LocalLink<'a>, RoundEnv<'a>) {
        let link = LocalLink {
            clients: &mut self.clients,
            data: &self.data,
            rngs,
            cfg: &self.cfg,
            model_bytes: self.model_bytes,
        };
        let env = RoundEnv {
            devices: &self.devices,
            comm: &self.comm,
            cfg: &self.cfg,
        };
        (link, env)
    }

    /// Snapshot the driver state and every client's parameters.
    fn capture(&mut self, st: &RunState, rngs: &[StdRng]) -> SimCheckpoint {
        let client_params = self
            .clients
            .iter_mut()
            .map(|c| {
                c.checkpoint_params().map(|params| ParamCheckpoint {
                    version: 1,
                    param_count: params.len(),
                    segment_lens: vec![params.len()],
                    params,
                })
            })
            .collect();
        SimCheckpoint {
            version: SimCheckpoint::VERSION,
            method: self.clients[0].method_name().to_string(),
            seed: self.cfg.seed,
            rounds_per_task: self.cfg.rounds_per_task,
            iters_per_round: self.cfg.iters_per_round,
            faults: self.cfg.faults,
            next_task: st.next_task,
            active: st.active.clone(),
            missed_broadcast: st.missed_broadcast.clone(),
            dropouts: st.dropouts.clone(),
            matrices: st.matrices.clone(),
            task_compute: st.task_compute.clone(),
            task_comm: st.task_comm.clone(),
            task_loss: st.task_loss.clone(),
            total_bytes: st.total_bytes,
            prev_global: st.prev_global.clone(),
            last_global: st.last_global.clone(),
            fault_log: st.fault_log.clone(),
            rng_states: rngs.iter().map(|r| r.state().to_vec()).collect(),
            client_params,
        }
    }

    /// Validate a checkpoint against this simulation and rebuild the
    /// driver state, restoring client parameters and RNG streams.
    fn restore_state(&mut self, ck: &SimCheckpoint) -> Result<(RunState, Vec<StdRng>), SimError> {
        let n = self.clients.len();
        let bad = |msg: String| SimError::BadCheckpoint(msg);
        if ck.version != SimCheckpoint::VERSION {
            return Err(bad(format!(
                "version {} (this build reads {})",
                ck.version,
                SimCheckpoint::VERSION
            )));
        }
        let method = self.clients[0].method_name();
        if ck.method != method {
            return Err(bad(format!(
                "checkpoint is for method '{}', simulation runs '{method}'",
                ck.method
            )));
        }
        if ck.seed != self.cfg.seed
            || ck.rounds_per_task != self.cfg.rounds_per_task
            || ck.iters_per_round != self.cfg.iters_per_round
            || ck.faults != self.cfg.faults
        {
            return Err(bad(
                "seed, loop shape, or fault config differs from the interrupted run".into(),
            ));
        }
        if ck.active.len() != n
            || ck.missed_broadcast.len() != n
            || ck.matrices.len() != n
            || ck.rng_states.len() != n
            || ck.client_params.len() != n
        {
            return Err(bad(format!(
                "checkpoint holds {} clients, simulation has {n}",
                ck.client_params.len()
            )));
        }
        if ck.next_task > self.data[0].tasks.len() {
            return Err(bad(format!(
                "checkpoint resumes at task {}, stream has {}",
                ck.next_task,
                self.data[0].tasks.len()
            )));
        }
        let mut rngs = Vec::with_capacity(n);
        for (c, words) in ck.rng_states.iter().enumerate() {
            let state: [u64; 4] = words.as_slice().try_into().map_err(|_| {
                bad(format!(
                    "client {c} RNG state has {} words, need 4",
                    words.len()
                ))
            })?;
            rngs.push(StdRng::from_state(state));
        }
        for (c, saved) in ck.client_params.iter().enumerate() {
            let Some(saved) = saved else { continue };
            if saved.param_count != saved.params.len() {
                return Err(bad(format!(
                    "client {c} params: count field {} but {} values",
                    saved.param_count,
                    saved.params.len()
                )));
            }
            // A fresh client's state is the floor: methods with retained
            // state (FedKNOW's knowledge) only grow past it, so a saved
            // stream shorter than a fresh one is a different architecture.
            // Exact validation of grown streams is the method's own job
            // inside `restore_checkpoint`.
            if let Some(current) = self.clients[c].checkpoint_params() {
                if saved.param_count < current.len() {
                    return Err(bad(format!(
                        "client {c} architecture mismatch: checkpoint holds {} params, a fresh model already has {}",
                        saved.param_count,
                        current.len()
                    )));
                }
            }
            // Restoration draws no method randomness by contract; a
            // scratch stream satisfies the signature without touching
            // the restored training streams.
            let mut scratch = substream(0, 0xC0DE ^ c as u64);
            self.clients[c].restore_checkpoint(&saved.params, &mut scratch);
        }
        let st = RunState {
            next_task: ck.next_task,
            active: ck.active.clone(),
            missed_broadcast: ck.missed_broadcast.clone(),
            dropouts: ck.dropouts.clone(),
            matrices: ck.matrices.clone(),
            task_compute: ck.task_compute.clone(),
            task_comm: ck.task_comm.clone(),
            task_loss: ck.task_loss.clone(),
            total_bytes: ck.total_bytes,
            prev_global: ck.prev_global.clone(),
            last_global: ck.last_global.clone(),
            fault_log: ck.fault_log.clone(),
        };
        Ok((st, rngs))
    }

    /// Run the remaining tasks and assemble the report.
    fn drive(&mut self, st: RunState, mut rngs: Vec<StdRng>) -> Result<SimReport, SimError> {
        let num_tasks = self.data[0].tasks.len();
        let method = self.clients[0].method_name();
        let (mut link, env) = self.split(&mut rngs);
        engine::run_reported(&env, method, st, |st| {
            engine::advance(&mut link, &env, st, num_tasks)
        })
    }
}

/// The link that never serializes: every [`ClientLink`] call is a
/// direct trait call on the client, fanned over worker threads.
struct LocalLink<'a> {
    clients: &'a mut [Box<dyn FclClient>],
    data: &'a [ClientDataset],
    /// Per-client training streams (checkpointed with the run).
    rngs: &'a mut [StdRng],
    cfg: &'a SimConfig,
    model_bytes: u64,
}

/// One client's share of a fan-out: its index, algorithm instance,
/// training stream, and result slot.
type Job<'j, T> = (
    usize,
    &'j mut Box<dyn FclClient>,
    &'j mut StdRng,
    &'j mut Option<T>,
);

impl LocalLink<'_> {
    /// `f(index, client, data, rng)` for every client `mask` selects, in
    /// parallel when configured; results by client index. Determinism
    /// holds because each client's randomness comes only from its own
    /// stream.
    fn fan_out<T, F>(&mut self, mask: &[bool], f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize, &mut dyn FclClient, &ClientDataset, &mut StdRng) -> T + Sync,
    {
        let data = self.data;
        let mut out: Vec<Option<T>> = mask.iter().map(|_| None).collect();
        let mut jobs: Vec<Job<'_, T>> = self
            .clients
            .iter_mut()
            .zip(self.rngs.iter_mut())
            .zip(out.iter_mut())
            .enumerate()
            .filter(|(c, _)| mask[*c])
            .map(|(c, ((client, rng), slot))| (c, client, rng, slot))
            .collect();
        let run = |(c, client, rng, slot): &mut Job<'_, T>| {
            let _client_span = fedknow_obs::obs_span!("client.{c}");
            **slot = Some(f(*c, client.as_mut(), &data[*c], rng));
        };
        if self.cfg.parallel && jobs.len() > 1 {
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4);
            let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
            // Worker threads start with empty span stacks; hand them the
            // parent path so client spans nest under run/task/round.
            let parent = fedknow_obs::current_path();
            let (parent, run) = (&parent, &run);
            crossbeam::thread::scope(|s| {
                for chunk_jobs in jobs.chunks_mut(chunk) {
                    s.spawn(move |_| {
                        let _path = fedknow_obs::inherit_path(parent);
                        chunk_jobs.iter_mut().for_each(run);
                    });
                }
            })
            .expect("worker thread panicked");
        } else {
            jobs.iter_mut().for_each(run);
        }
        drop(jobs);
        out
    }
}

impl ClientLink for LocalLink<'_> {
    fn start_task(&mut self, step: usize, active: &[bool]) {
        self.fan_out(active, |_c, client, data, rng| {
            client.start_task(&data.tasks[step], rng)
        });
    }

    fn resync(&mut self, c: usize, _round: u64, global: &[f32]) -> u64 {
        self.clients[c].receive_global(global, &mut self.rngs[c]);
        self.clients[c].base_comm(self.model_bytes).down
    }

    fn round(
        &mut self,
        _round: u64,
        step: usize,
        part: &[bool],
        faults: &[RoundFaults],
    ) -> Vec<Option<RoundContribution>> {
        let (iters, model_bytes) = (self.cfg.iters_per_round, self.model_bytes);
        self.fan_out(part, |c, client, data, rng| {
            let mut rc = client_round(c, client, &data.tasks[step], rng, iters, model_bytes);
            // In-flight corruption, applied where a wire link damages
            // the frame's bytes.
            if let (Some(corr), Some(v)) = (faults[c].corruption, rc.params.as_mut()) {
                corr.apply(v);
            }
            rc
        })
    }

    fn broadcast(
        &mut self,
        part: &[bool],
        _round: u64,
        global: Option<&[f32]>,
        payloads: Vec<Payload>,
    ) {
        if global.is_none() && payloads.is_empty() {
            return;
        }
        let payloads = &payloads;
        self.fan_out(part, |_c, client, _data, rng| {
            if let Some(g) = global {
                client.receive_global(g, rng);
            }
            if !payloads.is_empty() {
                client.payloads_in(payloads, rng);
            }
        });
    }

    fn finish_task(&mut self, active: &[bool]) -> Vec<Option<u64>> {
        self.fan_out(active, |_c, client, _data, rng| {
            client.finish_task(rng);
            client.retained_bytes()
        })
    }

    fn evaluate(&mut self, step: usize) -> Vec<Option<Vec<f64>>> {
        // Evaluation draws no randomness, so the training streams the
        // fan-out hands over stay untouched.
        let all = vec![true; self.clients.len()];
        self.fan_out(&all, |_c, client, data, _rng| {
            (0..=step)
                .map(|k| client.evaluate(&data.tasks[k]))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FclClient, IterationStats};
    use crate::faults::{FaultPlan, RoundFaults};
    use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};

    /// Minimal client: a 4-parameter vector that drifts upward each
    /// iteration and adopts the global verbatim.
    struct StubClient {
        params: Vec<f32>,
        retained: u64,
        acc: f64,
    }

    impl StubClient {
        fn new(acc: f64, retained: u64) -> Self {
            Self {
                params: vec![0.0; 4],
                retained,
                acc,
            }
        }
    }

    impl FclClient for StubClient {
        fn start_task(&mut self, _t: &ClientTask, _rng: &mut rand::rngs::StdRng) {}
        fn train_iteration(&mut self, _rng: &mut rand::rngs::StdRng) -> IterationStats {
            for p in &mut self.params {
                *p += 1.0;
            }
            IterationStats {
                loss: 1.0,
                flops: 1000,
            }
        }
        fn upload(&mut self) -> Option<Vec<f32>> {
            Some(self.params.clone())
        }
        fn receive_global(&mut self, g: &[f32], _rng: &mut rand::rngs::StdRng) {
            self.params.copy_from_slice(g);
        }
        fn finish_task(&mut self, _rng: &mut rand::rngs::StdRng) {
            self.retained += 1_000;
        }
        fn evaluate(&mut self, _t: &ClientTask) -> f64 {
            self.acc
        }
        fn retained_bytes(&self) -> u64 {
            self.retained
        }
        fn method_name(&self) -> &'static str {
            "stub"
        }
    }

    fn tiny_data(n_clients: usize) -> Vec<fedknow_data::ClientDataset> {
        let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(3);
        let d = generate(&spec, 1);
        partition(&d, n_clients, &PartitionConfig::default(), 1)
    }

    fn stub_sim(parallel: bool, retained: u64, faults: FaultConfig) -> Simulation {
        let data = tiny_data(3);
        let clients: Vec<Box<dyn FclClient>> = (0..3)
            .map(|c| {
                Box::new(StubClient::new(0.5 + 0.1 * c as f64, retained)) as Box<dyn FclClient>
            })
            .collect();
        let devices = vec![
            DeviceProfile::jetson_agx(),
            DeviceProfile::jetson_nano(),
            DeviceProfile::raspberry_pi(2),
        ];
        let cfg = SimConfig {
            rounds_per_task: 2,
            iters_per_round: 3,
            seed: 5,
            parallel,
            faults,
        };
        Simulation::new(clients, data, devices, CommModel::paper_default(), cfg, 400)
    }

    fn run_sim(parallel: bool, retained: u64) -> SimReport {
        stub_sim(parallel, retained, FaultConfig::default())
            .run()
            .expect("stub sim runs")
    }

    #[test]
    fn report_shape_matches_tasks() {
        let r = run_sim(true, 0);
        assert_eq!(r.accuracy.num_tasks(), 3);
        assert_eq!(r.task_compute_seconds.len(), 3);
        assert_eq!(r.task_comm_seconds.len(), 3);
        assert_eq!(r.cumulative_time().len(), 3);
        // Mean of client accuracies 0.5/0.6/0.7.
        assert!((r.accuracy.avg_accuracy_after(2) - 0.6).abs() < 1e-9);
        // Inert fault config: nothing in the log.
        assert!(r.fault_log.is_empty());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let a = run_sim(true, 0);
        let b = run_sim(false, 0);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.accuracy.accuracy_curve(), b.accuracy.accuracy_curve());
        assert_eq!(a.task_mean_loss, b.task_mean_loss);
    }

    #[test]
    fn comm_bytes_are_model_up_and_down_per_round() {
        let r = run_sim(false, 0);
        // 3 tasks × 2 rounds × 3 clients × (400 up + 400 down).
        assert_eq!(r.total_bytes, 3 * 2 * 3 * 800);
    }

    #[test]
    fn compute_time_gated_by_slowest_device() {
        let r = run_sim(false, 0);
        // Slowest = RPi: 3 iters × 1000 flops / 2.4e10.
        let expected_round = 3.0 * 1000.0 / 2.4e10;
        assert!((r.task_compute_seconds[0] - 2.0 * expected_round).abs() < 1e-12);
    }

    #[test]
    fn oom_client_drops_out() {
        // Retained state beyond the 2 GB RPi's budget after first task.
        let r = run_sim(false, 2 * 1024 * 1024 * 1024);
        assert!(!r.dropouts.is_empty());
        let (client, step) = r.dropouts[0];
        assert_eq!(step, 0, "drop happens at first task boundary");
        // All three stubs exceed any budget here, so all drop.
        assert_eq!(r.dropouts.len(), 3);
        let _ = client;
        // Subsequent rounds move no bytes.
        assert_eq!(r.total_bytes, 2 * 3 * 800);
    }

    #[test]
    fn fedavg_synchronises_stub_params() {
        // After one round all clients share the averaged vector; with
        // identical stubs they stay identical forever.
        let r = run_sim(false, 0);
        assert!(r.task_mean_loss.iter().all(|&l| (l - 1.0).abs() < 1e-12));
    }

    #[test]
    fn chaotic_run_completes_and_logs_faults() {
        let r = stub_sim(false, 0, FaultConfig::crash_loss(0.3))
            .run()
            .expect("faulty sim still completes");
        assert_eq!(r.accuracy.num_tasks(), 3);
        assert!(!r.fault_log.is_empty(), "30% fault rate must log events");
        assert!(r.fault_count(FaultKind::Crash) > 0);
        // Stub accuracies are constant, so the matrix stays exact even
        // under faults — and every entry must be finite.
        for m in 0..3 {
            for k in 0..=m {
                assert!(r.accuracy.at(m, k).is_finite());
            }
        }
    }

    #[test]
    fn fault_schedule_is_parallel_invariant() {
        let a = stub_sim(true, 0, FaultConfig::crash_loss(0.2))
            .run()
            .expect("parallel faulty run");
        let b = stub_sim(false, 0, FaultConfig::crash_loss(0.2))
            .run()
            .expect("serial faulty run");
        assert_eq!(a, b, "fault injection must not depend on threading");
        assert!(!a.fault_log.is_empty());
    }

    #[test]
    fn lost_uploads_burn_bytes_and_backoff() {
        let faults = FaultConfig {
            loss_prob: 1.0,
            max_retries: 2,
            backoff_base_secs: 0.5,
            ..FaultConfig::default()
        };
        let r = stub_sim(false, 0, faults).run().expect("runs");
        // Every upload is lost on all 3 attempts; no global is ever
        // aggregated, so no download happens. 3 tasks × 2 rounds × 3
        // clients × 3 attempts × 400 bytes.
        assert_eq!(r.fault_count(FaultKind::UploadLost), 3 * 2 * 3);
        assert_eq!(r.total_bytes, 3 * 2 * 3 * 3 * 400);
        // Comm time per round: the 1200-byte burst plus two backoffs
        // (0.5 + 1.0); identical for all clients, the max is one of them.
        let per_round = 1200.0 / 1_000_000.0 + 1.5;
        assert!((r.task_comm_seconds[0] - 2.0 * per_round).abs() < 1e-9);
    }

    #[test]
    fn deadline_excludes_stragglers_and_caps_round_time() {
        let faults = FaultConfig {
            straggler_prob: 1.0,
            straggler_slowdown: 10.0,
            deadline_factor: 2.0,
            ..FaultConfig::default()
        };
        let r = stub_sim(false, 0, faults).run().expect("runs");
        // Everyone straggles 10×; the deadline is 2× the slowest nominal
        // (the RPi). The 10×-slowed AGX still finishes ~24× faster than
        // the RPi's nominal, so only the Nano and the RPi overshoot:
        // 2 clients × 3 tasks × 2 rounds.
        assert_eq!(r.fault_count(FaultKind::Straggle), 3 * 2 * 3);
        assert_eq!(r.fault_count(FaultKind::DeadlineMiss), 3 * 2 * 2);
        // The server waits out exactly the deadline window per round:
        // 2 × (slowest nominal = RPi, 3 iters × 1000 flops / 2.4e10).
        let nominal_max = 3.0 * 1000.0 / 2.4e10;
        assert!((r.task_compute_seconds[0] - 2.0 * (2.0 * nominal_max)).abs() < 1e-12);
    }

    #[test]
    fn corrupted_uploads_are_quarantined() {
        let faults = FaultConfig {
            corrupt_prob: 1.0,
            ..FaultConfig::default()
        };
        let r = stub_sim(false, 0, faults).run().expect("runs");
        // Every upload is corrupted; the non-finite modes (two thirds in
        // expectation) must be caught by server validation.
        assert_eq!(r.fault_count(FaultKind::Corrupt), 3 * 2 * 3);
        assert!(r.fault_count(FaultKind::UploadRejected) > 0);
        assert!(
            r.fault_count(FaultKind::UploadRejected) <= r.fault_count(FaultKind::Corrupt),
            "only corrupted uploads can be rejected here"
        );
    }

    /// Replays the crash/rejoin/loss protocol independently from the
    /// fault plan (which is a pure function of the seed) and checks the
    /// run's fault log matches the replay event for event.
    #[test]
    fn crash_rejoin_and_loss_follow_the_plan_exactly() {
        let cfg = FaultConfig::crash_loss(0.3);
        let r = stub_sim(false, 0, cfg).run().expect("runs");
        assert!(r.fault_count(FaultKind::Crash) > 0, "need crashes at 30%");
        assert!(r.fault_count(FaultKind::Rejoin) > 0, "crashes must heal");

        // Independent replay. Stubs never OOM here, so every client stays
        // active; a global exists whenever any participant's upload
        // survives; a crashed client is owed a rejoin at its next
        // non-crashed round once a global exists.
        let plan = FaultPlan::new(5, cfg);
        let mut expected = Vec::new();
        let mut missed = [false; 3];
        let mut have_global = false;
        for round in 0..(3 * 2u64) {
            let f: Vec<RoundFaults> = (0..3).map(|c| plan.draw(c, round)).collect();
            for c in 0..3 {
                if !f[c].crash && missed[c] {
                    missed[c] = false;
                    expected.push((round, c, FaultKind::Rejoin));
                }
            }
            for (c, fc) in f.iter().enumerate() {
                if fc.crash {
                    expected.push((round, c, FaultKind::Crash));
                }
            }
            let mut any_upload = false;
            for (c, fc) in f.iter().enumerate() {
                if fc.crash {
                    continue;
                }
                if fc.upload_lost {
                    expected.push((round, c, FaultKind::UploadLost));
                } else {
                    any_upload = true;
                    if fc.lost_attempts > 0 {
                        expected.push((round, c, FaultKind::UploadRetry));
                    }
                }
            }
            if any_upload {
                have_global = true;
            }
            if have_global {
                for c in 0..3 {
                    if f[c].crash {
                        missed[c] = true;
                    }
                }
            }
        }
        let logged: Vec<(u64, usize, FaultKind)> = r
            .fault_log
            .iter()
            .map(|e| (e.round, e.client, e.kind))
            .collect();
        assert_eq!(logged, expected, "fault log must match the plan replay");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        for faults in [FaultConfig::default(), FaultConfig::crash_loss(0.2)] {
            let full = stub_sim(false, 0, faults).run().expect("full run");
            let ck = stub_sim(false, 0, faults)
                .checkpoint(1)
                .expect("prefix run");
            assert_eq!(ck.next_task, 1);
            assert_eq!(ck.task_compute.len(), 1);
            let resumed = stub_sim(false, 0, faults).resume(&ck).expect("resume");
            assert_eq!(full, resumed, "resume must reproduce the report exactly");
        }
    }

    #[test]
    fn checkpoint_survives_serialisation() {
        let faults = FaultConfig::crash_loss(0.2);
        let ck = stub_sim(false, 0, faults)
            .checkpoint(2)
            .expect("prefix run");
        let json = serde_json::to_string(&ck).expect("serialise");
        let back: SimCheckpoint = serde_json::from_str(&json).expect("roundtrip");
        let full = stub_sim(false, 0, faults).run().expect("full run");
        let resumed = stub_sim(false, 0, faults).resume(&back).expect("resume");
        assert_eq!(full, resumed);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let ck = stub_sim(false, 0, FaultConfig::default())
            .checkpoint(1)
            .expect("prefix run");
        // Wrong seed.
        let mut other = stub_sim(false, 0, FaultConfig::default());
        other.cfg.seed = 6;
        assert!(matches!(other.resume(&ck), Err(SimError::BadCheckpoint(_))));
        // Wrong fault config.
        let mut other = stub_sim(false, 0, FaultConfig::default());
        other.cfg.faults = FaultConfig::crash_loss(0.1);
        assert!(matches!(other.resume(&ck), Err(SimError::BadCheckpoint(_))));
        // Corrupted RNG state width.
        let mut broken = ck.clone();
        broken.rng_states[0] = vec![1, 2];
        assert!(matches!(
            stub_sim(false, 0, FaultConfig::default()).resume(&broken),
            Err(SimError::BadCheckpoint(_))
        ));
        // Version from the future.
        let mut broken = ck.clone();
        broken.version = 99;
        assert!(matches!(
            stub_sim(false, 0, FaultConfig::default()).resume(&broken),
            Err(SimError::BadCheckpoint(_))
        ));
    }
}

#[cfg(test)]
mod payload_tests {
    use super::*;
    use crate::client::{FclClient, IterationStats, Payload};
    use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
    use fedknow_math::SparseVec;

    /// Client that publishes one fixed-size payload per round and records
    /// what it receives.
    struct PayloadClient {
        received: usize,
        own_seen: bool,
        id_hint: u32,
    }

    impl FclClient for PayloadClient {
        fn start_task(&mut self, _t: &ClientTask, _r: &mut rand::rngs::StdRng) {}
        fn train_iteration(&mut self, _r: &mut rand::rngs::StdRng) -> IterationStats {
            IterationStats {
                loss: 0.0,
                flops: 1,
            }
        }
        fn upload(&mut self) -> Option<Vec<f32>> {
            Some(vec![0.0; 4])
        }
        fn receive_global(&mut self, _g: &[f32], _r: &mut rand::rngs::StdRng) {}
        fn finish_task(&mut self, _r: &mut rand::rngs::StdRng) {}
        fn evaluate(&mut self, _t: &ClientTask) -> f64 {
            0.5
        }
        fn payload_out(&mut self) -> Vec<Payload> {
            vec![Payload {
                from_client: 0,
                tag: self.id_hint as u64,
                sparse: SparseVec::new(10, vec![0, 1], vec![1.0, 2.0]),
            }]
        }
        fn payloads_in(&mut self, payloads: &[Payload], _r: &mut rand::rngs::StdRng) {
            self.received += payloads.len();
            self.own_seen |= payloads.iter().any(|p| p.tag == self.id_hint as u64);
        }
        fn method_name(&self) -> &'static str {
            "payload-stub"
        }
    }

    #[test]
    fn payloads_are_collected_tagged_and_broadcast() {
        let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(1);
        let d = generate(&spec, 1);
        let data = partition(&d, 3, &PartitionConfig::default(), 1);
        let clients: Vec<Box<dyn FclClient>> = (0..3)
            .map(|i| {
                Box::new(PayloadClient {
                    received: 0,
                    own_seen: false,
                    id_hint: i,
                }) as _
            })
            .collect();
        let devices = vec![DeviceProfile::jetson_nx(); 3];
        let cfg = SimConfig {
            rounds_per_task: 2,
            iters_per_round: 1,
            seed: 0,
            parallel: false,
            faults: FaultConfig::default(),
        };
        let model_bytes = 16u64;
        let mut sim = Simulation::new(
            clients,
            data,
            devices,
            CommModel::paper_default(),
            cfg,
            model_bytes,
        );
        let report = sim.run().expect("payload sim runs");
        // Per round: 3 payloads of (2·8 + 16) = 32 bytes each.
        // Up: model 16 + payload 32 per client; down: model 16 + the two
        // foreign payloads (64) per client. 2 rounds × 3 clients.
        let per_client_round = (16 + 32) + (16 + 64);
        assert_eq!(report.total_bytes, 2 * 3 * per_client_round);
    }
}
