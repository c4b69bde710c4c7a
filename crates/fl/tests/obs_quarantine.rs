//! The quarantine counter counts each rejected upload once: a client
//! that uploads a non-finite model every round it trains is rejected
//! every round, and `fl.uploads_rejected` reads exactly as many as the
//! report logs `UploadRejected` faults — in process and over a socket.
//!
//! The observability registry is process-global, so this file holds a
//! single test (its own integration-test binary = its own process).

use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::{
    CommModel, DeviceProfile, FaultConfig, FaultKind, FclClient, FederationRuntime, IterationStats,
    SimConfig, SimReport, Simulation, TransportKind,
};

/// A four-parameter stub; `diverged` uploads a NaN every round.
struct Stub {
    params: Vec<f32>,
    diverged: bool,
}

impl FclClient for Stub {
    fn start_task(&mut self, _t: &ClientTask, _rng: &mut rand::rngs::StdRng) {}
    fn train_iteration(&mut self, _rng: &mut rand::rngs::StdRng) -> IterationStats {
        self.params.iter_mut().for_each(|p| *p += 1.0);
        IterationStats {
            loss: 1.0,
            flops: 1000,
        }
    }
    fn upload(&mut self) -> Option<Vec<f32>> {
        let mut up = self.params.clone();
        if self.diverged {
            up[2] = f32::NAN;
        }
        Some(up)
    }
    fn receive_global(&mut self, g: &[f32], _rng: &mut rand::rngs::StdRng) {
        self.params.copy_from_slice(g);
    }
    fn finish_task(&mut self, _rng: &mut rand::rngs::StdRng) {}
    fn evaluate(&mut self, _t: &ClientTask) -> f64 {
        0.5
    }
    fn method_name(&self) -> &'static str {
        "diverged-stub"
    }
}

/// Run three clients, client 1 diverged, in process or over `kind`.
fn run(kind: Option<TransportKind>) -> SimReport {
    let clients: Vec<Box<dyn FclClient>> = (0..3)
        .map(|c| {
            Box::new(Stub {
                params: vec![0.0; 4],
                diverged: c == 1,
            }) as Box<dyn FclClient>
        })
        .collect();
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(2);
    let data = partition(&generate(&spec, 1), 3, &PartitionConfig::default(), 1);
    let devices = vec![DeviceProfile::jetson_agx(); 3];
    let cfg = SimConfig {
        rounds_per_task: 2,
        iters_per_round: 1,
        seed: 3,
        parallel: false,
        faults: FaultConfig::default(),
    };
    let comm = CommModel::paper_default();
    match kind {
        None => Simulation::new(clients, data, devices, comm, cfg, 16).run(),
        Some(kind) => FederationRuntime::new(clients, data, devices, comm, cfg, 16, kind).run(),
    }
    .expect("the run completes")
}

#[test]
fn each_rejected_upload_is_counted_once() {
    fedknow_obs::enable();
    let rejected = || {
        let counters = fedknow_obs::snapshot().expect("obs enabled").counters;
        counters.get("fl.uploads_rejected").copied().unwrap_or(0)
    };
    for kind in [None, Some(TransportKind::Tcp)] {
        let before = rejected();
        let report = run(kind);
        let faults = report.fault_count(FaultKind::UploadRejected) as u64;
        assert_eq!(faults, 4, "{kind:?}: client 1 is rejected in all 4 rounds");
        assert_eq!(rejected() - before, faults, "{kind:?}");
    }
}
