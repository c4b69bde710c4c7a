//! The four workloads: what each one runs, why it exists, and the
//! set-up / run pair every repetition times.
//!
//! A workload is a [`RunSpec`] (the `suite` layer's description of a
//! run) plus the method and the engine it is driven through. Assembly
//! repeats `RunSpec`'s private `assemble` with public calls so each
//! step can be timed and so clients can be wrapped before the engine
//! takes them.

use fedknow_baselines::{build_client, Method};
use fedknow_data::{generate::generate, partition, ClientDataset, DatasetSpec, PartitionConfig};
use fedknow_fl::{
    CommModel, DeviceProfile, FclClient, FederationRuntime, ModelTemplate, SimConfig, SimError,
    SimReport, Simulation, TransportKind, WireStatsSnapshot,
};
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;
use std::time::Instant;

/// The engine a workload's rounds go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Simulation`: direct trait calls, clients fanned over threads.
    InProcess {
        /// `SimConfig::parallel`.
        parallel: bool,
    },
    /// `FederationRuntime` over TCP loopback: framed messages between
    /// a server actor and one actor thread per client.
    Tcp,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists (one line).
    pub why: &'static str,
    /// Method every client runs.
    pub method: Method,
    /// Engine of the end-to-end repetitions.
    pub engine: Engine,
    /// Dataset, model, fleet and loop shape, and the seed every input
    /// of one repetition is drawn from.
    pub spec: RunSpec,
    /// Seconds one repetition (set-up + run) takes on the 2-core
    /// reference container. `--seconds` over this is the repetition
    /// count, so the count - and with it every figure that is exact per
    /// seed - does not depend on how fast the machine happens to be.
    pub rep_seconds: f64,
}

/// Names of the four workloads, in the order they run.
pub const NAMES: [&str; 4] = [
    "cnn_fedknow_t10",
    "resnet_fedknow_t4",
    "cnn_fedavg_fleet",
    "tcp_wide_fedavg",
];

impl Workload {
    /// Look a workload up by name. `smoke` shrinks it to one task and
    /// one round (a wiring check, not a measurement).
    pub fn by_name(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        let base = |dataset, model, width, num_clients, rounds_per_task, iters_per_round| RunSpec {
            dataset,
            model,
            width,
            num_clients,
            rounds_per_task,
            iters_per_round,
            seed,
            ..RunSpec::quick(seed)
        };
        let in_process = Engine::InProcess { parallel: true };
        // Loop shapes are sized so one repetition takes 3-7 s on the
        // 2-core reference container; only `rounds_per_task` was cut
        // to get there, never image size, task count, width or k.
        let mut w = match name {
            "cnn_fedknow_t10" => Self {
                name: "cnn_fedknow_t10",
                why: "paper's Fig. 4 setup through all ten tasks: up to nine signature tasks accumulate, so core (restore, select, integrate) and math::qp do most of the work on tiny kernel shapes",
                method: Method::FedKnow,
                engine: in_process,
                spec: base(DatasetSpec::cifar100(), ModelKind::SixCnn, 1.0, 4, 1, 8),
                rep_seconds: 5.6,
            },
            "resnet_fedknow_t4" => Self {
                name: "resnet_fedknow_t4",
                why: "ResNet18 GEMM/conv shapes 10-100x larger with at most three past tasks: nn/math kernels dominate; a kernel change must move this one, a QP-only change should not",
                method: Method::FedKnow,
                engine: in_process,
                spec: base(
                    DatasetSpec::mini_imagenet().with_tasks(4),
                    ModelKind::ResNet18,
                    1.0,
                    4,
                    1,
                    6,
                ),
                rep_seconds: 5.5,
            },
            "cnn_fedavg_fleet" => Self {
                name: "cnn_fedavg_fleet",
                why: "plain FedAvg on the cnn_fedknow_t10 task with 8 clients: bypasses core entirely, so wall is nn train steps, data batching, evaluation and the fl fan-out; a core/qp change must not move it",
                method: Method::FedAvg,
                engine: in_process,
                spec: base(DatasetSpec::cifar100(), ModelKind::SixCnn, 1.0, 8, 2, 8),
                rep_seconds: 2.9,
            },
            "tcp_wide_fedavg" => Self {
                name: "tcp_wide_fedavg",
                why: "thin rounds on an 11 MB model over TCP loopback, the bandwidth-bound regime: FedKNOW's wire traffic is FedAvg's, so proto/framing/transport/actor carry ~40% of wall at least compute",
                method: Method::FedAvg,
                engine: Engine::Tcp,
                spec: base(
                    DatasetSpec::mini_imagenet().scaled(0.5, 8).with_tasks(2),
                    ModelKind::ResNet18,
                    4.0,
                    2,
                    6,
                    1,
                ),
                rep_seconds: 3.3,
            },
            _ => return None,
        };
        if smoke {
            w.spec.dataset = w.spec.dataset.with_tasks(1);
            w.spec.rounds_per_task = 1;
        }
        Some(w)
    }

    /// Client-rounds one full run performs: the benchmark's operation.
    pub fn client_rounds(&self) -> u64 {
        (self.spec.num_clients * self.spec.rounds_per_task * self.spec.dataset.num_tasks) as u64
    }

    /// `[C, H, W]` of the workload's images.
    pub fn image_shape(&self) -> Vec<usize> {
        let d = &self.spec.dataset;
        vec![d.channels, d.height, d.width]
    }

    /// The same workload on another engine (the traced run drives every
    /// workload serially, in parallel and over TCP).
    pub fn on(&self, engine: Engine) -> Self {
        Self {
            engine,
            ..self.clone()
        }
    }
}

/// Seconds each set-up step took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `data::generate`.
    pub generate: f64,
    /// `data::partition`.
    pub partition: f64,
    /// `ModelTemplate::new` + `build_client` × N + engine construction.
    pub assemble: f64,
}

impl SetupTimes {
    /// Everything before `run()`.
    pub fn total(&self) -> f64 {
        self.generate + self.partition + self.assemble
    }
}

/// A constructed engine, ready to run once.
pub enum Built {
    /// In-process simulator.
    Sim(Box<Simulation>),
    /// Transport-backed runtime (consumed by its run).
    Runtime(Box<FederationRuntime>),
}

impl Built {
    /// One full run. Wire statistics exist only over a transport.
    pub fn run(self) -> Result<(SimReport, Option<WireStatsSnapshot>), SimError> {
        match self {
            Built::Sim(mut sim) => sim.run().map(|r| (r, None)),
            Built::Runtime(rt) => rt.run_with_stats().map(|(r, w)| (r, Some(w))),
        }
    }
}

/// The paper's non-IID split (2-5 classes of every task per client,
/// 5-10 % of each class's samples) pinned to its centre. Which classes,
/// which samples, the task order and the feature shift still come from
/// the seed; only the *amount* of data per client-task is fixed, so
/// client-rounds/s is work at a stated input size and task-restricted
/// chance accuracy (1 / classes) is the same on every seed.
pub fn pinned_partition() -> PartitionConfig {
    PartitionConfig {
        min_classes: 4,
        max_classes: 4,
        min_frac: 0.075,
        max_frac: 0.075,
        ..PartitionConfig::default()
    }
}

/// The partitioned inputs of one run.
pub fn make_data(w: &Workload, times: &mut SetupTimes) -> Vec<ClientDataset> {
    let t = Instant::now();
    let dataset = generate(&w.spec.dataset, w.spec.seed);
    times.generate = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parts = partition(
        &dataset,
        w.spec.num_clients,
        &pinned_partition(),
        w.spec.seed,
    );
    times.partition = t.elapsed().as_secs_f64();
    parts
}

/// The shared model template of a workload.
pub fn template(w: &Workload) -> ModelTemplate {
    ModelTemplate::new(
        w.spec.model,
        w.spec.dataset.channels,
        w.spec.dataset.total_classes(),
        w.spec.width,
        w.spec.seed,
    )
}

/// Everything before `run()`: generate, partition, template, clients,
/// engine. `wrap` sees every client before the engine takes it (the
/// identity for end-to-end repetitions, a `SpanClient` for traced ones).
pub fn setup(
    w: &Workload,
    wrap: &dyn Fn(usize, Box<dyn FclClient>) -> Box<dyn FclClient>,
) -> (Built, SetupTimes) {
    let mut times = SetupTimes::default();
    let parts = make_data(w, &mut times);
    let t = Instant::now();
    let template = template(w);
    let clients: Vec<Box<dyn FclClient>> = (0..w.spec.num_clients)
        .map(|c| {
            wrap(
                c,
                build_client(w.method, &template, &w.spec.method_cfg, w.image_shape()),
            )
        })
        .collect();
    let devices = DeviceProfile::uniform_cluster(w.spec.num_clients);
    let comm = CommModel::paper_default();
    let cfg = SimConfig {
        rounds_per_task: w.spec.rounds_per_task,
        iters_per_round: w.spec.iters_per_round,
        seed: w.spec.seed,
        parallel: !matches!(w.engine, Engine::InProcess { parallel: false }),
        faults: w.spec.faults,
    };
    let bytes = template.size_bytes();
    let built = match w.engine {
        Engine::InProcess { .. } => Built::Sim(Box::new(Simulation::new(
            clients, parts, devices, comm, cfg, bytes,
        ))),
        Engine::Tcp => Built::Runtime(Box::new(FederationRuntime::new(
            clients,
            parts,
            devices,
            comm,
            cfg,
            bytes,
            TransportKind::Tcp,
        ))),
    };
    times.assemble = t.elapsed().as_secs_f64();
    (built, times)
}

/// `setup` without wrapping.
pub fn setup_plain(w: &Workload) -> (Built, SetupTimes) {
    setup(w, &|_, c| c)
}
