//! Property-based tests for aggregation, metrics, the determinism of
//! the fault-injected round protocol, and the message codec on hostile
//! bytes.

use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::metrics::AccuracyMatrix;
use fedknow_fl::proto::{decode_msg, encode_msg};
use fedknow_fl::server::fedavg;
use fedknow_fl::{
    CommModel, DeviceProfile, FaultConfig, FclClient, IterationStats, Payload, SimConfig,
    SimReport, Simulation, UploadMeta, WireMsg,
};
use fedknow_math::SparseVec;
use proptest::prelude::*;

/// Tiny drifting client for protocol-level properties.
struct DriftClient {
    params: Vec<f32>,
}

impl FclClient for DriftClient {
    fn start_task(&mut self, _t: &ClientTask, _rng: &mut rand::rngs::StdRng) {}
    fn train_iteration(&mut self, rng: &mut rand::rngs::StdRng) -> IterationStats {
        use rand::Rng;
        for p in &mut self.params {
            *p += rng.gen::<f32>();
        }
        IterationStats {
            loss: 1.0,
            flops: 500,
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
        (f64::from(self.params[0]).sin() + 1.0) / 2.0
    }
    fn method_name(&self) -> &'static str {
        "drift"
    }
}

/// A 3-client faulty simulation at 20% crash/loss.
fn faulty_sim(seed: u64, parallel: bool) -> Simulation {
    let spec = DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(2);
    let data = partition(&generate(&spec, 1), 3, &PartitionConfig::default(), 1);
    let clients: Vec<Box<dyn FclClient>> = (0..3)
        .map(|_| {
            Box::new(DriftClient {
                params: vec![0.0; 6],
            }) as Box<dyn FclClient>
        })
        .collect();
    let devices = vec![
        DeviceProfile::jetson_agx(),
        DeviceProfile::jetson_nano(),
        DeviceProfile::raspberry_pi(4),
    ];
    let cfg = SimConfig {
        rounds_per_task: 3,
        iters_per_round: 2,
        seed,
        parallel,
        faults: FaultConfig::crash_loss(0.2),
    };
    Simulation::new(clients, data, devices, CommModel::paper_default(), cfg, 24)
}

fn faulty_report(seed: u64, parallel: bool) -> SimReport {
    faulty_sim(seed, parallel)
        .run()
        .expect("faulty sim completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FedAvg output is a convex combination: every coordinate lies in
    /// the [min, max] band of the uploads, and equal uploads average to
    /// themselves.
    #[test]
    fn fedavg_is_convex_combination(
        uploads in prop::collection::vec(
            prop::collection::vec(-5.0f32..5.0, 4),
            1..6
        ),
        weights in prop::collection::vec(1usize..100, 6),
    ) {
        let n = uploads.len();
        let opts: Vec<Option<Vec<f32>>> = uploads.iter().cloned().map(Some).collect();
        let g = fedavg(&opts, &weights[..n]).unwrap().global.unwrap();
        for j in 0..4 {
            let lo = uploads.iter().map(|u| u[j]).fold(f32::INFINITY, f32::min);
            let hi = uploads.iter().map(|u| u[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(g[j] >= lo - 1e-4 && g[j] <= hi + 1e-4,
                "coordinate {j}: {} outside [{lo}, {hi}]", g[j]);
        }
    }

    /// Aggregation is invariant to uniform weight scaling.
    #[test]
    fn fedavg_weight_scale_invariance(
        uploads in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 3), 2..5),
        base in 1usize..20,
        scale in 2usize..5,
    ) {
        let n = uploads.len();
        let opts: Vec<Option<Vec<f32>>> = uploads.iter().cloned().map(Some).collect();
        let w1: Vec<usize> = (0..n).map(|i| base + i).collect();
        let w2: Vec<usize> = w1.iter().map(|w| w * scale).collect();
        let a = fedavg(&opts, &w1).unwrap().global.unwrap();
        let b = fedavg(&opts, &w2).unwrap().global.unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Accuracy-matrix identities: forgetting of the just-learned task is
    /// 0; avg accuracy is bounded by row extrema; forgetting ∈ [0, 1].
    #[test]
    fn accuracy_matrix_identities(
        rows in prop::collection::vec(0.0f64..1.0, 6)
    ) {
        // Build a 3-task lower-triangular matrix from 6 values.
        let mut m = AccuracyMatrix::new();
        m.push_row(vec![rows[0]]).unwrap();
        m.push_row(vec![rows[1], rows[2]]).unwrap();
        m.push_row(vec![rows[3], rows[4], rows[5]]).unwrap();
        for step in 0..3 {
            prop_assert_eq!(m.forgetting_rate(step, step), 0.0);
            let avg = m.avg_accuracy_after(step);
            prop_assert!((0.0..=1.0).contains(&avg));
            for k in 0..=step {
                let f = m.forgetting_rate(step, k);
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
        // The accuracy curve length matches the task count.
        prop_assert_eq!(m.accuracy_curve().len(), 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// With 20% crash/loss injection, the whole report — accuracy
    /// matrix, fault event log, byte counts, simulated times — is
    /// identical with `parallel` on vs off, and across two runs at the
    /// same seed.
    #[test]
    fn faulty_runs_are_deterministic(seed in 0u64..1000) {
        let serial = faulty_report(seed, false);
        let parallel = faulty_report(seed, true);
        prop_assert_eq!(&serial, &parallel);
        let again = faulty_report(seed, false);
        prop_assert_eq!(&serial, &again);
    }

    /// Fault schedules differ across seeds (the plan actually keys off
    /// the seed), while every run still completes all tasks.
    #[test]
    fn faulty_runs_complete_all_tasks(seed in 0u64..1000) {
        let r = faulty_report(seed, false);
        prop_assert_eq!(r.accuracy.num_tasks(), 2);
        prop_assert!(r.task_comm_seconds.iter().all(|t| t.is_finite()));
        prop_assert!(r.task_compute_seconds.iter().all(|t| t.is_finite()));
    }

    /// Chaos determinism across a checkpoint boundary: interrupting a
    /// fault-injected run at the task-1 boundary (crashes and pending
    /// re-broadcasts mid-flight) and resuming in a fresh simulation must
    /// reproduce the uninterrupted run bit-for-bit — including the fault
    /// event log, whose second half replays from the restored RNG states.
    #[test]
    fn chaos_checkpoint_resume_is_bit_identical(seed in 0u64..1000) {
        let uninterrupted = faulty_report(seed, false);
        let ck = faulty_sim(seed, false).checkpoint(1).expect("checkpoint at task 1");
        let resumed = faulty_sim(seed, false).resume(&ck).expect("resume completes");
        prop_assert_eq!(&uninterrupted.fault_log, &resumed.fault_log);
        prop_assert_eq!(&uninterrupted, &resumed);
    }
}

/// One message of every wire shape: fixed fields only, a parameter
/// vector, sparse payloads, both, an evaluation row.
fn sample_msgs() -> Vec<WireMsg> {
    let payload = |from| Payload {
        from_client: from,
        tag: 42,
        sparse: SparseVec::new(10, vec![1, 3, 7], vec![0.5, -1.5, 3.25]),
    };
    vec![
        WireMsg::Hello { client: 3 },
        WireMsg::Rejoin {
            client: 1,
            base_down: 99,
        },
        WireMsg::Resync {
            round: 2,
            global: vec![0.25; 9],
        },
        WireMsg::Upload {
            round: 1,
            client: 0,
            meta: UploadMeta::default(),
            params: Some(vec![1.0; 8]),
            payloads: vec![payload(0), payload(1)],
        },
        WireMsg::UploadFailed {
            round: 1,
            client: 2,
            meta: UploadMeta::default(),
            payloads: vec![payload(2)],
        },
        WireMsg::Broadcast {
            round: 4,
            global: None,
            payloads: vec![payload(1)],
        },
        WireMsg::EvalRow {
            client: 1,
            row: vec![0.5, 0.25, 1.0],
        },
        WireMsg::Shutdown,
    ]
}

/// Decode hostile bytes: any outcome but a panic, and no allocation
/// beyond a small multiple of the buffer (a claimed length is checked
/// against the bytes behind it before anything is reserved). The
/// multiple covers the decoded form of the densest input: a 72-byte
/// `Payload` per 20 wire bytes.
fn decode_within_budget(buf: &[u8]) -> Result<(), TestCaseError> {
    fedknow_obs::alloc::set_tracking(true);
    let (_, before) = fedknow_obs::alloc::thread_totals();
    let decoded = decode_msg(buf);
    let (_, after) = fedknow_obs::alloc::thread_totals();
    drop(decoded);
    let budget = 16 * buf.len() as u64 + 256;
    prop_assert!(
        after - before <= budget,
        "decoding {} bytes allocated {}",
        buf.len(),
        after - before
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode_msg` on arbitrary bytes (behind every tag), and on every
    /// valid encoding with one byte flipped or the tail cut.
    #[test]
    fn decode_msg_survives_hostile_bytes(
        tag in 0u8..16,
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        at in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        decode_within_budget(&bytes)?;
        decode_within_budget(&[&[tag][..], &bytes].concat())?;
        for msg in sample_msgs() {
            let enc = encode_msg(&msg).buf;
            let at = at % enc.len();
            let mut flipped = enc.clone();
            flipped[at] ^= flip;
            decode_within_budget(&flipped)?;
            decode_within_budget(&enc[..at])?;
            prop_assert!(decode_msg(&enc).is_ok());
        }
    }
}
