//! Device restart survival: persist a client's whole state — weights,
//! signature-task knowledge, BatchNorm statistics — to disk, "reboot",
//! and resume with retention intact; then do the same for a whole
//! federation mid-stream.
//!
//! Both use the one client-state stream,
//! `FclClient::checkpoint_params` / `restore_checkpoint`.
//!
//! Run with: `cargo run --release --example persistence`

use fedknow::{FedKnowClient, FedKnowConfig};
use fedknow_baselines::Method;
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FaultConfig, FclClient, ModelTemplate, SimCheckpoint};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;

fn main() {
    let dir = std::env::temp_dir().join("fedknow_persistence_demo");
    std::fs::create_dir_all(&dir).expect("create demo dir");

    let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(2);
    let dataset = generate(&spec, 21);
    let tasks = &partition(&dataset, 1, &PartitionConfig::default(), 21)[0].tasks;
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 21);
    let new_client = || FedKnowClient::new(&template, FedKnowConfig::default(), 8, vec![3, 8, 8]);

    // --- Session 1: learn both tasks, persist the client's state. ---
    let mut client = new_client();
    let mut rng = seeded(1);
    for task in tasks {
        client.start_task(task, &mut rng);
        for _ in 0..100 {
            client.train_iteration(&mut rng);
        }
        client.finish_task(&mut rng);
    }
    let acc_before: Vec<f64> = tasks.iter().map(|t| client.evaluate(t)).collect();
    let state_path = dir.join("client.state.json");
    let stream = client
        .checkpoint_params()
        .expect("FedKNOW declares its state");
    let blob = serde_json::to_string(&stream).expect("serialise client state");
    std::fs::write(&state_path, &blob).expect("write client state");
    println!(
        "session 1: accuracies {acc_before:?}, persisted {} knowledge sets ({} bytes)",
        client.knowledges().len(),
        blob.len()
    );
    drop(client); // the device "powers off"

    // --- Session 2: a fresh client, restored from disk. ---
    let stream: Vec<f32> =
        serde_json::from_str(&std::fs::read_to_string(&state_path).expect("read client state"))
            .expect("parse client state");
    let mut restored = new_client();
    restored.restore_checkpoint(&stream, &mut seeded(2));
    let acc_after: Vec<f64> = tasks.iter().map(|t| restored.evaluate(t)).collect();
    assert_eq!(restored.knowledges().len(), tasks.len());
    assert!(
        acc_before
            .iter()
            .zip(&acc_after)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "restored accuracies {acc_after:?} differ from {acc_before:?}"
    );
    println!(
        "session 2: restored {} knowledge sets, accuracies bit-equal",
        restored.knowledges().len()
    );

    // --- Session 3: the whole federation checkpoints mid-stream. ---
    // One client device is not the only thing that reboots; the
    // coordinator can too. Checkpoint a fault-injected federation after
    // its second task, serialise to disk, "reboot", and resume: the
    // resumed report — accuracy matrix, fault log, byte counts — is
    // bit-identical to the uninterrupted run.
    let spec = RunSpec::quick(21).with_faults(FaultConfig::crash_loss(0.2));
    let full = spec
        .build(Method::FedKnow)
        .run()
        .expect("uninterrupted run");
    let ck = spec
        .build(Method::FedKnow)
        .checkpoint(2)
        .expect("checkpoint after task 2");
    let ck_path = dir.join("federation.ck.json");
    let blob = serde_json::to_string(&ck).expect("serialise checkpoint");
    std::fs::write(&ck_path, &blob).expect("write checkpoint");
    let loaded: SimCheckpoint =
        serde_json::from_str(&std::fs::read_to_string(&ck_path).expect("read checkpoint"))
            .expect("parse checkpoint");
    let resumed = spec
        .build(Method::FedKnow)
        .resume(&loaded)
        .expect("resume from checkpoint");
    assert_eq!(
        full, resumed,
        "resumed run must match the uninterrupted one"
    );
    println!(
        "session 3: federation checkpoint ({} bytes) resumed bit-identically \
         ({} fault events survived the reboot)",
        blob.len(),
        resumed.fault_log.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("persistence demo complete.");
}
