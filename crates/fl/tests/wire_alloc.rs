//! A steady-state client-round over a socket allocates one model-sized
//! vector: the one `FclClient::upload` returns. Frames, decoded models,
//! encodings and the FedAvg output all live in buffers their owners
//! keep, so after the first round neither the server's threads nor the
//! client touch the allocator for anything model-sized.
//!
//! The model is 256 KiB of parameters: above glibc's 128 KiB default
//! mmap threshold (`alloc::LARGE_ALLOC_BYTES`, the tracker's "large"
//! class, so every model-sized buffer counts) and far below a real
//! model, so the debug build runs it in well under a second. This
//! binary holds one test: the tracker's global counters see every
//! thread of the process.

use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::{
    CommModel, DeviceProfile, FaultConfig, FclClient, FederationRuntime, IterationStats, SimConfig,
    TransportKind,
};
use fedknow_obs::alloc;
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex};

/// Parameters of the test model: 256 KiB as f32.
const P: usize = 64 * 1024;

/// `(process-wide, this thread's)` large-allocation counts, read by the
/// client at the start of each round and when its task finishes.
type Marks = Arc<Mutex<Vec<(u64, u64)>>>;

/// A client whose training is a nudge and whose hooks read the tracker
/// on the client actor's own thread.
struct MarkingClient {
    params: Vec<f32>,
    marks: Marks,
}

impl MarkingClient {
    fn mark(&self) {
        let reading = (alloc::stats().large, alloc::thread_large());
        self.marks.lock().unwrap().push(reading);
    }
}

impl FclClient for MarkingClient {
    fn start_task(&mut self, _t: &ClientTask, _rng: &mut StdRng) {}
    fn train_iteration(&mut self, _rng: &mut StdRng) -> IterationStats {
        self.mark();
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
    fn receive_global(&mut self, g: &[f32], _rng: &mut StdRng) {
        self.params.copy_from_slice(g);
    }
    fn finish_task(&mut self, _rng: &mut StdRng) {
        self.mark();
    }
    fn evaluate(&mut self, _t: &ClientTask) -> f64 {
        0.5
    }
    fn method_name(&self) -> &'static str {
        "marking"
    }
}

/// One client, one task, a warm-up round and a measured one over
/// `kind`. Returns the large allocations of the measured round — from
/// the client's second `train_iteration` to its `finish_task`, which
/// spans the upload, its decode and aggregation on the server, the
/// broadcast and its decode on the client — as `(all threads, client
/// thread)`.
fn measured_round(kind: TransportKind) -> (u64, u64) {
    let marks: Marks = Arc::new(Mutex::new(Vec::with_capacity(8)));
    let client = MarkingClient {
        params: vec![0.0; P],
        marks: marks.clone(),
    };
    let spec = DatasetSpec::cifar100().scaled(0.1, 8).with_tasks(1);
    let data = partition(&generate(&spec, 1), 1, &PartitionConfig::default(), 1);
    let cfg = SimConfig {
        rounds_per_task: 2,
        iters_per_round: 1,
        seed: 3,
        parallel: false,
        faults: FaultConfig::default(),
    };
    FederationRuntime::new(
        vec![Box::new(client)],
        data,
        vec![DeviceProfile::jetson_agx()],
        CommModel::paper_default(),
        cfg,
        (P * 4) as u64,
        kind,
    )
    .run()
    .expect("the run completes");
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), 3, "{kind}: two rounds, then finish_task");
    let ((all0, client0), (all1, client1)) = (marks[1], marks[2]);
    (all1 - all0, client1 - client0)
}

#[test]
fn a_steady_socket_round_allocates_only_the_upload() {
    let _tracking = alloc::track();
    let mut runs = vec![(TransportKind::Tcp, false)];
    #[cfg(unix)]
    runs.push((TransportKind::Unix, false));
    // Last, with telemetry on (it stays on): the global-drift series
    // keeps its previous-aggregate copy in one buffer too.
    runs.push((TransportKind::Tcp, true));
    for (kind, obs) in runs {
        if obs {
            fedknow_obs::enable();
        }
        let (all, client) = measured_round(kind);
        assert_eq!(
            client, 1,
            "{kind} (obs {obs}): the client allocates only the upload vector"
        );
        assert_eq!(
            all - client,
            0,
            "{kind} (obs {obs}): the server's threads allocate nothing model-sized"
        );
    }
}
