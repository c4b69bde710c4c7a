//! Signature selection probes only when it has something to rank. With
//! `t ≤ k` retained tasks the client selects all of them, in task order,
//! without a probe: no batch, no forward or backward, and no ranking, so
//! no `restore.select_ns` sample. With `t > k` the probe ranks them and
//! keeps `k`. This binary holds one test: it turns on process-wide
//! observability and counts that metric's samples in the recording.

use fedknow::{FedKnowClient, FedKnowConfig};
use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, ModelTemplate};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;

fn select_samples() -> u64 {
    let rec = fedknow_obs::Recording::from(fedknow_obs::collect_bundle("selection"));
    let agg = fedknow_obs::Aggregate::from_records(&rec);
    assert_eq!(agg.dropped, 0, "the rings hold the whole run");
    agg.samples
        .get("restore.select_ns")
        .map_or(0, |xs| xs.len() as u64)
}

#[test]
fn selection_probes_only_with_more_retained_tasks_than_k() {
    fedknow_obs::enable();
    const K: usize = 2;
    let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(K + 2);
    let data = generate(&spec, 3);
    let parts = partition(&data, 1, &PartitionConfig::default(), 3);
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
    let cfg = FedKnowConfig {
        k: K,
        knowledge_finetune_iters: 1,
        post_agg_iters: Some(1),
        ..Default::default()
    };
    let mut client = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
    let mut rng = seeded(5);
    for (t, task) in parts[0].tasks.iter().enumerate() {
        let check = |client: &FedKnowClient, probes_before: u64, when: &str| {
            if t <= K {
                let all: Vec<usize> = (0..t).collect();
                assert_eq!(client.selected(), all, "t = {t}, {when}: every task");
                assert_eq!(select_samples(), probes_before, "t = {t}, {when}: no probe");
            } else {
                assert_eq!(client.selected().len(), K, "t = {t}, {when}: k of them");
                assert_eq!(
                    select_samples(),
                    probes_before + 1,
                    "t = {t}, {when}: one probe"
                );
            }
        };
        let before = select_samples();
        client.start_task(task, &mut rng);
        check(&client, before, "start_task");
        client.train_iteration(&mut rng);
        let global = client.upload().unwrap();
        let before = select_samples();
        client.receive_global(&global, &mut rng);
        check(&client, before, "receive_global");
        client.finish_task(&mut rng);
    }
}
