//! Property-based tests for aggregation, metrics, the determinism of
//! the fault-injected round protocol, and the message codec on hostile
//! bytes.

use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::metrics::AccuracyMatrix;
use fedknow_fl::proto::{decode_msg, encode_msg};
use fedknow_fl::server::{fedavg, RejectReason, RejectedUpload};
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
    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        Some(self.params.clone())
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

/// FedAvg as one whole-vector f64 accumulator: the consensus (modal,
/// first-seen on ties) dimension over live positive-weight uploads,
/// then per accepted upload in client order `acc[i] += w · u[i]`,
/// scaled by `1/Σw` and cast.
fn fedavg_reference(
    uploads: &[Option<Vec<f32>>],
    weights: &[usize],
) -> (Option<Vec<f32>>, Vec<RejectedUpload>) {
    let live: Vec<(usize, &Vec<f32>, usize)> = uploads
        .iter()
        .zip(weights)
        .enumerate()
        .filter_map(|(c, (u, &w))| u.as_ref().filter(|_| w > 0).map(|u| (c, u, w)))
        .collect();
    let mut votes: Vec<(usize, usize)> = Vec::new();
    for (_, u, _) in &live {
        match votes.iter_mut().find(|v| v.0 == u.len()) {
            Some(v) => v.1 += 1,
            None => votes.push((u.len(), 1)),
        }
    }
    let most = votes.iter().map(|v| v.1).max().unwrap_or(0);
    let dim = votes.iter().find(|v| v.1 == most).map_or(0, |v| v.0);
    let mut acc = vec![0.0f64; dim];
    let (mut total, mut accepted, mut rejected) = (0.0f64, 0, Vec::new());
    for (client, u, w) in live {
        let reason = if u.len() != dim {
            Some(RejectReason::DimensionMismatch {
                expected: dim,
                got: u.len(),
            })
        } else {
            u.iter()
                .position(|v| !v.is_finite())
                .map(|index| RejectReason::NonFinite { index })
        };
        if let Some(reason) = reason {
            rejected.push(RejectedUpload { client, reason });
            continue;
        }
        for (a, &x) in acc.iter_mut().zip(u) {
            *a += w as f64 * x as f64;
        }
        total += w as f64;
        accepted += 1;
    }
    let global = (accepted > 0).then(|| acc.iter().map(|&v| (v * (1.0 / total)) as f32).collect());
    (global, rejected)
}

/// The fused, blocked FedAvg is bit-equal to the whole-vector
/// reference, with the same rejections, at dimensions on and off the
/// block size and with every kind of upload the quarantine screens.
#[test]
fn fedavg_is_bit_equal_to_a_whole_vector_f64_reference() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Magnitudes across 2^±30, so the f64 sums round and a change
        // of summation order shows in the bits.
        let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        mantissa * 2f32.powi((state % 61) as i32 - 30)
    };
    for dim in [0, 1, 7, 255, 256, 511, 512, 513, 1024, 1500, 4099] {
        let mut vector = || (0..dim).map(|_| next()).collect::<Vec<f32>>();
        let mut nan = vector();
        if dim > 0 {
            nan[dim / 2] = f32::NAN;
        }
        // Clients 0 and 5 cancel exactly, so client 6's small values
        // survive only in client order.
        let big = vector();
        let cancel = big.iter().map(|v| -v).collect();
        let small = vector().iter().map(|v| v * 2f32.powi(-40)).collect();
        let uploads = vec![
            Some(big),
            None,
            Some(nan),
            Some(vec![1.0; dim + 1]),
            Some(vector()),
            Some(cancel),
            Some(small),
        ];
        let weights = [3, 5, 2, 4, 0, 3, 1];
        let agg = fedavg(&uploads, &weights).unwrap();
        let (want, want_rejected) = fedavg_reference(&uploads, &weights);
        let bits = |g: &Option<Vec<f32>>| {
            g.as_ref()
                .map(|g| g.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        assert_eq!(bits(&agg.global), bits(&want), "dim {dim}");
        assert_eq!(agg.rejected, want_rejected, "dim {dim}");
        // The NaN upload is only rejected where it has a coordinate.
        let nan_rejected = usize::from(dim > 0);
        assert_eq!(agg.accepted, 4 - nan_rejected, "dim {dim}");
        assert_eq!(agg.rejected.len(), 1 + nan_rejected, "dim {dim}");
        // Nothing accepted: no global, the same rejections.
        let none = fedavg(&uploads[1..4], &weights[1..4]).unwrap();
        let (want, want_rejected) = fedavg_reference(&uploads[1..4], &weights[1..4]);
        assert_eq!(bits(&none.global), bits(&want), "dim {dim}");
        assert_eq!(none.rejected, want_rejected, "dim {dim}");
    }
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
    let _tracking = fedknow_obs::alloc::track();
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
