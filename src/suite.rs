//! Workspace-level helpers shared by the examples and integration tests:
//! one-call assembly of a full federated continual learning simulation.

use fedknow_baselines::factory::MethodConfig;
use fedknow_baselines::{build_client, Method};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{
    CommModel, DeviceProfile, FaultConfig, FederationRuntime, ModelTemplate, SimConfig, SimError,
    SimReport, Simulation, TransportKind, WireStatsSnapshot,
};
use fedknow_nn::ModelKind;

/// Everything needed to run one method on one benchmark.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Dataset analogue (structure + scale).
    pub dataset: DatasetSpec,
    /// Architecture.
    pub model: ModelKind,
    /// Width multiplier for the model zoo.
    pub width: f64,
    /// Number of federated clients.
    pub num_clients: usize,
    /// Aggregation rounds per task.
    pub rounds_per_task: usize,
    /// Local iterations per round.
    pub iters_per_round: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Method hyper-parameters.
    pub method_cfg: MethodConfig,
    /// Fault injection (inert by default — the fault-free protocol).
    pub faults: FaultConfig,
}

impl RunSpec {
    /// A quick configuration: 4 clients, 3 tasks of a scaled-down
    /// CIFAR-100 analogue, SixCNN — finishes in seconds on a laptop.
    pub fn quick(seed: u64) -> Self {
        Self {
            dataset: DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(3),
            model: ModelKind::SixCnn,
            width: 1.0,
            num_clients: 4,
            rounds_per_task: 3,
            iters_per_round: 6,
            seed,
            method_cfg: MethodConfig::default(),
            faults: FaultConfig::default(),
        }
    }

    /// The same spec with fault injection turned on.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Run a single method under this spec on a uniform device cluster.
    pub fn run(&self, method: Method) -> Result<SimReport, SimError> {
        let devices = DeviceProfile::uniform_cluster(self.num_clients);
        self.run_on(method, devices, CommModel::paper_default())
    }

    /// Run a single method on explicit devices and link model.
    pub fn run_on(
        &self,
        method: Method,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
    ) -> Result<SimReport, SimError> {
        let dataset = generate(&self.dataset, self.seed);
        self.run_on_dataset(method, &dataset, devices, comm)
    }

    /// Run a single method on a pre-built dataset (e.g. the combined
    /// 80-task stream of Figure 7). `self.dataset` still supplies the
    /// image shape and class count, so set it consistently.
    pub fn run_on_dataset(
        &self,
        method: Method,
        dataset: &fedknow_data::ContinualDataset,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
    ) -> Result<SimReport, SimError> {
        let mut sim = self.build_on_dataset(method, dataset, devices, comm);
        sim.run()
    }

    /// Run a single method over a real transport backend: server and
    /// clients as actor threads exchanging framed messages, with faults
    /// injected at the wire seam. The report is bit-identical to
    /// [`Self::run`]'s for the same spec; the returned wire statistics
    /// are the actual bytes the run put on the transport.
    pub fn run_over(
        &self,
        method: Method,
        transport: TransportKind,
    ) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        self.run_over_on(
            method,
            DeviceProfile::uniform_cluster(self.num_clients),
            CommModel::paper_default(),
            transport,
        )
    }

    /// [`Self::run_over`] on explicit devices and link model — the
    /// transport-backed mirror of [`Self::run_on`].
    pub fn run_over_on(
        &self,
        method: Method,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
        transport: TransportKind,
    ) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        assert_eq!(
            devices.len(),
            self.num_clients,
            "device count must match clients"
        );
        let dataset = generate(&self.dataset, self.seed);
        let (clients, parts, cfg, model_bytes) = self.assemble(method, &dataset);
        FederationRuntime::new(clients, parts, devices, comm, cfg, model_bytes, transport)
            .run_with_stats()
    }

    /// Serve a multi-process federation at a fixed TCP address: the
    /// server side of [`Self::run_over`], with every client expected to
    /// dial in from its own process via [`Self::join_over`]. Because
    /// both sides assemble from the same spec and seed, the report is
    /// bit-identical to the single-process backends'.
    pub fn serve_over(
        &self,
        method: Method,
        addr: &str,
    ) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let devices = DeviceProfile::uniform_cluster(self.num_clients);
        let comm = CommModel::paper_default();
        let dataset = generate(&self.dataset, self.seed);
        let (clients, parts, cfg, model_bytes) = self.assemble(method, &dataset);
        FederationRuntime::new(
            clients,
            parts,
            devices,
            comm,
            cfg,
            model_bytes,
            TransportKind::Tcp,
        )
        .serve_at(addr)
    }

    /// Join a multi-process federation as client `client_id`: assemble
    /// the same spec the server assembled, keep only this client's
    /// algorithm instance and data shard, and drive it against the
    /// server at `addr` until `Shutdown`. A dial that fails or a server
    /// that goes away first is an error.
    pub fn join_over(&self, method: Method, addr: &str, client_id: u32) -> Result<(), SimError> {
        let dataset = generate(&self.dataset, self.seed);
        let (mut clients, mut parts, cfg, model_bytes) = self.assemble(method, &dataset);
        let c = client_id as usize;
        assert!(c < clients.len(), "client id {client_id} out of range");
        let client = clients.swap_remove(c);
        let data = parts.swap_remove(c);
        let stats = std::sync::Arc::new(fedknow_fl::transport::WireStats::new());
        let transport = fedknow_fl::transport::tcp_connector(addr, stats)?;
        fedknow_fl::run_remote_client(transport, client_id, client, data, &cfg, model_bytes)?;
        Ok(())
    }

    /// Build the simulation under this spec without running it — for
    /// callers that drive it manually (checkpoint/resume, inspection).
    /// Uses a uniform device cluster and the paper's default link.
    pub fn build(&self, method: Method) -> Simulation {
        let dataset = generate(&self.dataset, self.seed);
        self.build_on_dataset(
            method,
            &dataset,
            DeviceProfile::uniform_cluster(self.num_clients),
            CommModel::paper_default(),
        )
    }

    /// [`Self::build`] on an explicit dataset, device list and link.
    fn build_on_dataset(
        &self,
        method: Method,
        dataset: &fedknow_data::ContinualDataset,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
    ) -> Simulation {
        assert_eq!(
            devices.len(),
            self.num_clients,
            "device count must match clients"
        );
        let (clients, parts, cfg, model_bytes) = self.assemble(method, dataset);
        Simulation::new(clients, parts, devices, comm, cfg, model_bytes)
    }

    /// The shared assembly both drivers build from: method clients,
    /// partitioned data, the simulation config, and the model's wire
    /// size.
    #[allow(clippy::type_complexity)]
    fn assemble(
        &self,
        method: Method,
        dataset: &fedknow_data::ContinualDataset,
    ) -> (
        Vec<Box<dyn fedknow_fl::FclClient>>,
        Vec<fedknow_data::ClientDataset>,
        SimConfig,
        u64,
    ) {
        let parts = partition(
            dataset,
            self.num_clients,
            &PartitionConfig::default(),
            self.seed,
        );
        // Derive the head width from the dataset itself so pre-built
        // streams (whose class count differs from the spec) still fit.
        let num_classes = dataset
            .tasks
            .iter()
            .flat_map(|t| t.classes.iter().copied())
            .max()
            .map_or(self.dataset.total_classes(), |m| m + 1);
        let template = ModelTemplate::new(
            self.model,
            dataset.spec.channels,
            num_classes,
            self.width,
            self.seed,
        );
        let image_shape = vec![
            dataset.spec.channels,
            dataset.spec.height,
            dataset.spec.width,
        ];
        let clients = (0..self.num_clients)
            .map(|_| build_client(method, &template, &self.method_cfg, image_shape.clone()))
            .collect();
        let cfg = SimConfig {
            rounds_per_task: self.rounds_per_task,
            iters_per_round: self.iters_per_round,
            seed: self.seed,
            parallel: true,
            faults: self.faults,
        };
        (clients, parts, cfg, template.size_bytes())
    }
}
