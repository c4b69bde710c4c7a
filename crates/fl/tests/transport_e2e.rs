//! Transport-backed federation parity: the actor runtime over every
//! wire backend must reproduce the in-process simulator bit-for-bit —
//! accuracy matrix, byte ledger, fault-event log and all — and the
//! bytes actually framed onto the transport must reconcile exactly
//! with the modeled communication ledger.

use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::transport::{bind, tcp_connector};
use fedknow_fl::{
    run_remote_client, CommModel, DecodeError, DeviceProfile, FaultConfig, FclClient,
    FederationRuntime, IterationStats, Payload, SimConfig, SimError, SimReport, Simulation,
    TransportError, TransportKind, WireMsg, WireStats, WireStatsSnapshot,
};
use fedknow_math::SparseVec;

/// Every backend compiled on this platform.
fn backends() -> Vec<TransportKind> {
    let mut v = vec![TransportKind::Channel, TransportKind::Tcp];
    #[cfg(unix)]
    v.push(TransportKind::Unix);
    v
}

/// Drifting stub sized so the wire image of one model equals the
/// modeled `model_bytes` (100 f32 params × 4 bytes = 400): byte-level
/// parity between the transport ledger and the comm model is then
/// exact, not approximate.
struct StubClient {
    params: Vec<f32>,
    acc: f64,
}

impl StubClient {
    fn new(acc: f64) -> Self {
        Self {
            params: vec![0.0; 100],
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
    fn finish_task(&mut self, _rng: &mut rand::rngs::StdRng) {}
    fn evaluate(&mut self, _t: &ClientTask) -> f64 {
        self.acc + f64::from(self.params[0]).sin() * 0.01
    }
    fn method_name(&self) -> &'static str {
        "stub"
    }
}

/// Stub that also publishes a knowledge payload each round (FedWEIT
/// shape) — exercises the payload path of the wire protocol.
struct PayloadClient {
    inner: StubClient,
    tag: u64,
}

impl FclClient for PayloadClient {
    fn start_task(&mut self, t: &ClientTask, rng: &mut rand::rngs::StdRng) {
        self.inner.start_task(t, rng);
    }
    fn train_iteration(&mut self, rng: &mut rand::rngs::StdRng) -> IterationStats {
        self.inner.train_iteration(rng)
    }
    fn upload(&mut self) -> Option<Vec<f32>> {
        self.inner.upload()
    }
    fn receive_global(&mut self, g: &[f32], rng: &mut rand::rngs::StdRng) {
        self.inner.receive_global(g, rng);
    }
    fn finish_task(&mut self, rng: &mut rand::rngs::StdRng) {
        self.inner.finish_task(rng);
    }
    fn evaluate(&mut self, t: &ClientTask) -> f64 {
        self.inner.evaluate(t)
    }
    fn payload_out(&mut self) -> Vec<Payload> {
        self.tag += 1;
        vec![Payload {
            from_client: 0, // filled in by the driver
            tag: self.tag,
            sparse: SparseVec::new(100, vec![1, 3], vec![0.5, -0.5]),
        }]
    }
    fn payloads_in(&mut self, payloads: &[Payload], _rng: &mut rand::rngs::StdRng) {
        // Nudge state by the payload count so delivery is observable.
        self.inner.params[0] += payloads.len() as f32 * 1e-6;
    }
    fn method_name(&self) -> &'static str {
        "payload-stub"
    }
}

const MODEL_BYTES: u64 = 400; // 100 params × 4 bytes, matches StubClient.

fn tiny_data() -> Vec<fedknow_data::ClientDataset> {
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(3);
    partition(&generate(&spec, 1), 3, &PartitionConfig::default(), 1)
}

fn stub_clients() -> Vec<Box<dyn FclClient>> {
    (0..3)
        .map(|c| Box::new(StubClient::new(0.5 + 0.1 * c as f64)) as Box<dyn FclClient>)
        .collect()
}

fn payload_clients() -> Vec<Box<dyn FclClient>> {
    (0..3)
        .map(|c| {
            Box::new(PayloadClient {
                inner: StubClient::new(0.5 + 0.1 * c as f64),
                tag: 0,
            }) as Box<dyn FclClient>
        })
        .collect()
}

fn devices() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile::jetson_agx(),
        DeviceProfile::jetson_nano(),
        DeviceProfile::raspberry_pi(2),
    ]
}

fn config(faults: FaultConfig) -> SimConfig {
    SimConfig {
        rounds_per_task: 2,
        iters_per_round: 3,
        seed: 5,
        parallel: false,
        faults,
    }
}

fn sim_report(clients: Vec<Box<dyn FclClient>>, faults: FaultConfig) -> SimReport {
    Simulation::new(
        clients,
        tiny_data(),
        devices(),
        CommModel::paper_default(),
        config(faults),
        MODEL_BYTES,
    )
    .run()
    .expect("simulation completes")
}

fn actor_report(
    clients: Vec<Box<dyn FclClient>>,
    faults: FaultConfig,
    kind: TransportKind,
) -> (SimReport, WireStatsSnapshot) {
    FederationRuntime::new(
        clients,
        tiny_data(),
        devices(),
        CommModel::paper_default(),
        config(faults),
        MODEL_BYTES,
        kind,
    )
    .run_with_stats()
    .expect("actor runtime completes")
}

/// A config that exercises every fault class the wire realizes:
/// stragglers (delayed delivery), a deadline that excludes them,
/// upload loss with retries (dropped frames) and in-flight corruption.
fn chaos_config() -> FaultConfig {
    FaultConfig {
        straggler_prob: 0.4,
        straggler_slowdown: 4.0,
        deadline_factor: 1.5,
        loss_prob: 0.3,
        corrupt_prob: 0.4,
        ..FaultConfig::default()
    }
}

#[test]
fn fault_free_runs_match_simulation_on_every_backend() {
    let want = sim_report(stub_clients(), FaultConfig::default());
    for kind in backends() {
        let (got, stats) = actor_report(stub_clients(), FaultConfig::default(), kind);
        assert_eq!(got, want, "backend {kind} diverged from the simulator");
        assert!(stats.frames > 0, "backend {kind} moved no frames");
    }
}

#[test]
fn crash_loss_chaos_matches_simulation_on_every_backend() {
    let faults = FaultConfig::crash_loss(0.3);
    let want = sim_report(stub_clients(), faults);
    assert!(!want.fault_log.is_empty(), "chaos config must log faults");
    for kind in backends() {
        let (got, _) = actor_report(stub_clients(), faults, kind);
        assert_eq!(
            got.fault_log, want.fault_log,
            "backend {kind} fault ledger diverged"
        );
        assert_eq!(got, want, "backend {kind} diverged under crash/loss");
    }
}

#[test]
fn straggler_corruption_chaos_matches_simulation_on_every_backend() {
    let faults = chaos_config();
    let want = sim_report(stub_clients(), faults);
    assert!(!want.fault_log.is_empty(), "chaos config must log faults");
    for kind in backends() {
        let (got, _) = actor_report(stub_clients(), faults, kind);
        assert_eq!(
            got.fault_log, want.fault_log,
            "backend {kind} fault ledger diverged"
        );
        assert_eq!(got, want, "backend {kind} diverged under chaos");
    }
}

#[test]
fn payload_methods_match_simulation_on_every_backend() {
    let want = sim_report(payload_clients(), FaultConfig::default());
    for kind in backends() {
        let (got, _) = actor_report(payload_clients(), FaultConfig::default(), kind);
        assert_eq!(got, want, "backend {kind} diverged on the payload path");
    }
}

#[test]
fn wire_data_bytes_reconcile_exactly_with_the_comm_model() {
    // For a method with no knowledge payloads, every modeled byte is a
    // data byte on the wire and vice versa: uploads and broadcasts are
    // `model_bytes` each way, lost attempts burn frames on both
    // ledgers. Framing overhead (headers, tags, metadata) is tracked
    // separately and never pollutes the data plane.
    for kind in backends() {
        let (report, stats) = actor_report(stub_clients(), FaultConfig::default(), kind);
        assert_eq!(
            stats.payload, report.total_bytes,
            "backend {kind}: wire data bytes != modeled bytes"
        );
        assert!(stats.overhead > 0, "framing overhead must be accounted");
        assert_eq!(stats.bytes_dropped, 0, "no drops in a fault-free run");
    }
}

#[test]
fn wire_data_bytes_reconcile_under_upload_loss() {
    // Lost attempts are charged by the comm model *and* burned on the
    // wire (frames counted, never delivered), so exact parity holds
    // even under loss and crash faults.
    let faults = FaultConfig::crash_loss(0.3);
    let (report, stats) = actor_report(stub_clients(), faults, TransportKind::Channel);
    assert!(!report.fault_log.is_empty());
    assert_eq!(
        stats.payload, report.total_bytes,
        "wire data bytes != modeled bytes under loss"
    );
    if report
        .fault_log
        .iter()
        .any(|e| matches!(e.kind, fedknow_fl::FaultKind::UploadRetry))
    {
        assert!(stats.frames_dropped > 0, "lost attempts must drop frames");
        assert!(stats.bytes_dropped > 0);
    }
}

#[test]
fn payload_wire_bytes_exceed_modeled_by_the_own_payload_echo() {
    // The broadcast frame carries *every* client's payloads — including
    // the receiver's own, which the comm model does not charge (a real
    // deployment would elide it; the wire sends it for simplicity). The
    // surplus is exactly one own-payload per receiving client per round,
    // so the reconciliation stays closed-form rather than approximate.
    let (report, stats) = actor_report(
        payload_clients(),
        FaultConfig::default(),
        TransportKind::Channel,
    );
    assert!(
        stats.payload > report.total_bytes,
        "payload echo must cost wire bytes"
    );
    let surplus = stats.payload - report.total_bytes;
    let own_payload = 16 + 8 * 2; // Payload::size_bytes for 2 nnz
    let rounds = 3 * 2; // tasks × rounds_per_task
    let clients = 3;
    assert_eq!(
        surplus,
        rounds * clients * own_payload,
        "surplus must be exactly the own-payload echo"
    );
}

/// One stub client and its data shard, as a remote process would hold
/// them.
fn lone_client() -> (Box<dyn FclClient>, fedknow_data::ClientDataset) {
    (stub_clients().remove(0), tiny_data().remove(0))
}

#[test]
fn serve_at_on_a_bound_address_is_a_transport_error() {
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = taken.local_addr().expect("addr").to_string();
    let err = FederationRuntime::new(
        stub_clients(),
        tiny_data(),
        devices(),
        CommModel::paper_default(),
        config(FaultConfig::default()),
        MODEL_BYTES,
        TransportKind::Tcp,
    )
    .serve_at(&addr)
    .expect_err("the address is taken");
    assert!(
        matches!(
            err,
            SimError::Transport(TransportError::Setup(std::io::ErrorKind::AddrInUse))
        ),
        "a failed bind is a transport failure, not a bad checkpoint: {err}"
    );
}

#[test]
fn a_server_that_drops_the_connection_fails_the_remote_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || drop(listener.accept().expect("accept")));
    let stats = std::sync::Arc::new(WireStats::new());
    let transport = tcp_connector(&addr, stats).expect("connector");
    let (client, data) = lone_client();
    let cfg = config(FaultConfig::default());
    let started = std::time::Instant::now();
    let err = run_remote_client(transport, 0, client, data, &cfg, MODEL_BYTES)
        .expect_err("the server vanished before Shutdown");
    server.join().expect("server thread");
    // The peer is gone: a close, or a reset while reading.
    assert!(
        matches!(err, TransportError::Closed | TransportError::Frame(_)),
        "{err}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "a dead server must fail the client at once, not after the dial window"
    );
}

#[test]
fn out_of_range_task_indices_are_rejected_like_malformed_frames() {
    for hostile in [WireMsg::Eval { upto: 99 }, WireMsg::StartTask { task: 99 }] {
        let stats = std::sync::Arc::new(WireStats::new());
        let (transport, mut listener) = bind(TransportKind::Channel, stats).expect("bind");
        let (client, data) = lone_client();
        let cfg = config(FaultConfig::default());
        let remote = std::thread::spawn(move || {
            run_remote_client(transport, 0, client, data, &cfg, MODEL_BYTES)
        });
        // Scripted server: take the Hello, then send an index far past
        // the client's three tasks.
        let mut conn = listener
            .accept(std::time::Duration::from_secs(5))
            .expect("the client dials in");
        assert_eq!(
            conn.rx.recv().expect("hello"),
            Some(WireMsg::Hello { client: 0 })
        );
        conn.tx.send(&hostile).expect("send");
        assert_eq!(
            conn.rx.recv().expect("clean close"),
            None,
            "the client must hang up, not answer {hostile:?}"
        );
        let err = remote
            .join()
            .expect("the client must not panic")
            .expect_err("an index past the stream is an error");
        assert!(
            matches!(err, TransportError::Decode(DecodeError::Invalid(_))),
            "{err}"
        );
    }
}
