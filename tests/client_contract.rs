//! Protocol-contract tests: every client implementation (FedKNOW and all
//! baselines) must obey the `FclClient` protocol invariants regardless of
//! its internal mechanism.

use fedknow_baselines::factory::MethodConfig;
use fedknow_baselines::{build_client, Method};
use fedknow_data::{generate::generate, partition, ClientTask, DatasetSpec, PartitionConfig};
use fedknow_fl::{FclClient, ModelTemplate, SimError};
use fedknow_math::rng::seeded;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;

fn setup() -> (ModelTemplate, Vec<ClientTask>) {
    let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(2);
    let data = generate(&spec, 17);
    let parts = partition(&data, 1, &PartitionConfig::default(), 17);
    let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 17);
    (template, parts[0].tasks.clone())
}

/// Drive one client through two tasks with a couple of rounds each.
fn drive(client: &mut dyn FclClient, tasks: &[ClientTask], dim: usize) {
    let mut rng = seeded(3);
    for task in tasks {
        client.start_task(task, &mut rng);
        for _round in 0..2 {
            for _ in 0..3 {
                let stats = client.train_iteration(&mut rng);
                assert!(
                    stats.loss.is_finite(),
                    "{}: non-finite loss",
                    client.method_name()
                );
                assert!(
                    stats.flops > 0,
                    "{}: zero flops reported",
                    client.method_name()
                );
            }
            if let Some(up) = client.upload() {
                assert_eq!(
                    up.len(),
                    dim,
                    "{}: upload dimension drift",
                    client.method_name()
                );
                assert!(
                    up.iter().all(|v| v.is_finite()),
                    "{}: non-finite upload",
                    client.method_name()
                );
                // Fake aggregation: halve the upload (a valid global).
                let global: Vec<f32> = up.iter().map(|v| v * 0.5).collect();
                client.receive_global(&global, &mut rng);
            }
        }
        client.finish_task(&mut rng);
    }
}

#[test]
fn every_method_satisfies_the_protocol_contract() {
    let (template, tasks) = setup();
    for method in Method::ALL {
        let mut client = build_client(method, &template, &MethodConfig::default(), vec![3, 8, 8]);
        drive(client.as_mut(), &tasks, template.param_count());
        for task in &tasks {
            let acc = client.evaluate(task);
            assert!(
                (0.0..=1.0).contains(&acc),
                "{}: accuracy {acc} out of range",
                method.name()
            );
        }
        // Evaluation must be idempotent (no hidden training state).
        let a1 = client.evaluate(&tasks[0]);
        let a2 = client.evaluate(&tasks[0]);
        assert_eq!(a1, a2, "{}: evaluate is not idempotent", method.name());
    }
}

#[test]
fn continual_methods_retain_state_stateless_methods_do_not() {
    let (template, tasks) = setup();
    let retainers = [
        Method::FedKnow,
        Method::Gem,
        Method::AGem,
        Method::Bcn,
        Method::Co2l,
        Method::Ewc,
        Method::Mas,
        Method::AgsCl,
        Method::FedWeit,
        Method::FedWeitOwn,
    ];
    let stateless = [Method::FedAvg, Method::Apfl, Method::FedRep, Method::Flcn];
    // The two classes partition `Method::ALL`: a new method must be put
    // in one of them before this test passes.
    for method in Method::ALL {
        let classes = [retainers.contains(&method), stateless.contains(&method)];
        assert_ne!(classes[0], classes[1], "{}: classify it", method.name());
        let mut client = build_client(method, &template, &MethodConfig::default(), vec![3, 8, 8]);
        drive(client.as_mut(), &tasks, template.param_count());
        assert_eq!(
            client.retained_bytes() > 0,
            classes[0],
            "{}: continual methods retain state, stateless ones none ({} bytes)",
            method.name(),
            client.retained_bytes()
        );
    }
}

#[test]
fn methods_are_deterministic_given_seeds() {
    let (template, tasks) = setup();
    for method in [Method::FedKnow, Method::Gem, Method::FedWeit] {
        let run = || {
            let mut client =
                build_client(method, &template, &MethodConfig::default(), vec![3, 8, 8]);
            drive(client.as_mut(), &tasks, template.param_count());
            client.upload().unwrap()
        };
        assert_eq!(run(), run(), "{} is not deterministic", method.name());
    }
}

#[test]
fn training_moves_parameters_for_every_method() {
    let (template, tasks) = setup();
    for method in Method::ALL {
        let mut client = build_client(method, &template, &MethodConfig::default(), vec![3, 8, 8]);
        let mut rng = seeded(4);
        client.start_task(&tasks[0], &mut rng);
        let before = client.upload().unwrap();
        for _ in 0..3 {
            client.train_iteration(&mut rng);
        }
        let after = client.upload().unwrap();
        assert_ne!(before, after, "{}: training was a no-op", method.name());
    }
}

/// Checkpoint `method` after task 1 and resume: `None` when the
/// checkpoint is refused with a typed error (before anything runs),
/// otherwise whether the resumed report equals the uninterrupted one.
fn resume_row(spec: &RunSpec, method: Method) -> Option<bool> {
    let ck = match spec.build(method).checkpoint(1) {
        Ok(ck) => ck,
        Err(SimError::BadCheckpoint(_)) => return None,
        Err(e) => panic!("{}: checkpoint failed: {e}", method.name()),
    };
    let resumed = spec
        .build(method)
        .resume(&ck)
        .unwrap_or_else(|e| panic!("{}: resume failed: {e}", method.name()));
    let full = spec.build(method).run().expect("uninterrupted run");
    Some(full == resumed)
}

/// Every method either resumes to the uninterrupted report or refuses
/// the checkpoint; FedKNOW and FedAvg resume exactly, also on a model
/// whose BatchNorm running statistics are part of the state.
#[test]
fn resume_is_exact_or_refused() {
    let sixcnn = RunSpec {
        num_clients: 2,
        ..RunSpec::quick(7)
    };
    let resnet = RunSpec {
        model: ModelKind::ResNet18,
        width: 0.25,
        rounds_per_task: 1,
        iters_per_round: 2,
        ..sixcnn.clone()
    };
    for method in Method::ALL {
        let row = resume_row(&sixcnn, method);
        assert_ne!(
            row,
            Some(false),
            "sixcnn {}: resumed differently",
            method.name()
        );
        if matches!(method, Method::FedKnow | Method::FedAvg) {
            assert_eq!(row, Some(true), "sixcnn {}: must resume", method.name());
            let row = resume_row(&resnet, method);
            assert_eq!(
                row,
                Some(true),
                "resnet18 {}: must resume exactly",
                method.name()
            );
        }
    }
}
