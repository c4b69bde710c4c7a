//! End-to-end integration: full federated continual learning runs across
//! crates — data generation → partitioning → clients → simulation →
//! metrics — for FedKNOW and representative baselines.

use fedknow_baselines::Method;
use fedknow_fl::{FaultConfig, FaultKind, TransportKind};
use fedknow_suite::RunSpec;

#[test]
fn fedknow_end_to_end_learns_above_chance() {
    let spec = RunSpec::quick(42);
    let report = spec.run(Method::FedKnow).expect("simulation failed");
    assert_eq!(report.method, "fedknow");
    assert_eq!(report.accuracy.num_tasks(), 3);
    // 2–5 classes per client task → chance is at most 1/2; require the
    // first task to be learned well above the worst-case chance level.
    let first = report.accuracy.at(0, 0);
    assert!(first > 0.5, "first-task accuracy {first}");
    // Times and bytes must be accounted.
    assert!(report.total_bytes > 0);
    assert!(report.task_compute_seconds.iter().all(|&t| t > 0.0));
    assert!(report.task_comm_seconds.iter().all(|&t| t > 0.0));
}

#[test]
fn fedknow_forgets_less_than_fedavg() {
    // Seed-pinned: at this toy scale the forgetting gap only shows on
    // streams where FedAvg actually forgets (on many seeds it forgets
    // ~0 after 3 tasks, leaving nothing to beat). Seed 15 gives both
    // methods headroom; re-pin if the vendored RNG stream changes.
    let spec = RunSpec::quick(15);
    let fedknow = spec.run(Method::FedKnow).expect("simulation failed");
    let fedavg = spec.run(Method::FedAvg).expect("simulation failed");
    let fk_forget = fedknow.accuracy.avg_forgetting_after(2);
    let fa_forget = fedavg.accuracy.avg_forgetting_after(2);
    assert!(
        fk_forget <= fa_forget + 0.05,
        "FedKNOW forgetting {fk_forget} should not exceed FedAvg {fa_forget}"
    );
    let fk_acc = fedknow.accuracy.avg_accuracy_after(2);
    let fa_acc = fedavg.accuracy.avg_accuracy_after(2);
    assert!(
        fk_acc + 0.05 >= fa_acc,
        "FedKNOW accuracy {fk_acc} collapsed vs FedAvg {fa_acc}"
    );
}

#[test]
fn runs_are_deterministic() {
    let spec = RunSpec::quick(11);
    let a = spec.run(Method::FedKnow).expect("simulation failed");
    let b = spec.run(Method::FedKnow).expect("simulation failed");
    assert_eq!(a.accuracy.accuracy_curve(), b.accuracy.accuracy_curve());
    assert_eq!(a.total_bytes, b.total_bytes);
}

#[test]
fn fedweit_moves_more_bytes_than_fedknow() {
    let spec = RunSpec::quick(3);
    let fedknow = spec.run(Method::FedKnow).expect("simulation failed");
    let fedweit = spec.run(Method::FedWeit).expect("simulation failed");
    assert!(
        fedweit.total_bytes > fedknow.total_bytes,
        "FedWEIT {} should out-traffic FedKNOW {} (adaptive-weight exchange)",
        fedweit.total_bytes,
        fedknow.total_bytes
    );
}

#[test]
fn chaos_run_survives_thirty_percent_faults() {
    // 30% of clients crash or lose their upload every round. The run
    // must complete every task without a panic, crashed clients must be
    // re-sent the global model when they rejoin, and accuracy must stay
    // within the seed spread of the fault-free run at the same seed.
    let spec = RunSpec::quick(42);
    let clean = spec.run(Method::FedKnow).expect("fault-free run");
    let chaotic = spec
        .clone()
        .with_faults(FaultConfig::crash_loss(0.3))
        .run(Method::FedKnow)
        .expect("chaotic run completes");

    assert_eq!(chaotic.accuracy.num_tasks(), 3, "all tasks completed");
    assert!(!chaotic.fault_log.is_empty(), "faults were injected");
    let crashes = chaotic.fault_count(FaultKind::Crash);
    let rejoins = chaotic.fault_count(FaultKind::Rejoin);
    assert!(crashes > 0, "30% crash rate must produce crashes");
    assert!(rejoins > 0, "crashed clients must rejoin");
    // Every rejoin heals an earlier crash of the same client.
    for e in chaotic
        .fault_log
        .iter()
        .filter(|e| e.kind == FaultKind::Rejoin)
    {
        assert!(
            chaotic
                .fault_log
                .iter()
                .any(|c| c.kind == FaultKind::Crash && c.client == e.client && c.round < e.round),
            "client {} rejoined at round {} without a prior crash",
            e.client,
            e.round
        );
    }
    // The clean run logs nothing; the protocols otherwise agree.
    assert!(clean.fault_log.is_empty());
    let gap = clean.accuracy.avg_accuracy_after(2) - chaotic.accuracy.avg_accuracy_after(2);
    assert!(
        gap.abs() <= CHAOS_GAP_BOUND,
        "chaos accuracy strayed {gap:.4} from the clean run's (bound {CHAOS_GAP_BOUND})"
    );
}

/// Largest `|clean − chaos|` accuracy gap a correct run may show under
/// `crash_loss(0.3)` at quick scale. The faults cost real training: a
/// crashed client misses a third of a task's rounds. Over seeds 0–63
/// the gap averages 0.07 with a standard deviation of 0.06, peaks at
/// 0.24 and exceeds 0.05 on 42 of the 64 seeds, so a closer bound at
/// one seed holds or fails by draw. `chaos_gap_holds_over_a_seed_sweep`
/// re-derives these figures.
const CHAOS_GAP_BOUND: f64 = 0.27;

/// `avg_accuracy_after(2)` of the fault-free run minus that of the
/// `crash_loss(0.3)` run, at `spec`'s seed.
fn chaos_accuracy_gap(spec: &RunSpec) -> f64 {
    let acc = |spec: &RunSpec| {
        spec.run(Method::FedKnow)
            .expect("run completes")
            .accuracy
            .avg_accuracy_after(2)
    };
    acc(spec) - acc(&spec.clone().with_faults(FaultConfig::crash_loss(0.3)))
}

#[test]
#[ignore = "128 quick runs; run with --ignored to re-derive CHAOS_GAP_BOUND"]
fn chaos_gap_holds_over_a_seed_sweep() {
    let gaps: Vec<f64> = (0..64)
        .map(|seed| chaos_accuracy_gap(&RunSpec::quick(seed)))
        .collect();
    let n = gaps.len() as f64;
    let mean = gaps.iter().sum::<f64>() / n;
    let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    let worst = gaps.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    let over = gaps.iter().filter(|g| g.abs() > 0.05).count();
    println!("gap mean {mean:.4} sd {sd:.4} max |gap| {worst:.4}; {over}/64 seeds over 0.05");
    assert!(worst <= CHAOS_GAP_BOUND, "a seed strayed {worst:.4}");
    // The mean of 64 draws moves by about sd/8; a fault path that costs
    // more than the missed rounds shows here before it shows at one seed.
    assert!(mean <= 0.12, "mean gap {mean:.4}");
}

#[test]
fn fedknow_is_bit_identical_over_the_socket_transport() {
    // The actor runtime — server and clients as threads exchanging
    // framed messages over a real stream socket, with 20% crash/loss
    // faults realized at the wire seam — must reproduce the in-process
    // simulator bit-for-bit: same accuracy matrix, same byte ledger,
    // same fault-event log.
    let spec = RunSpec::quick(7).with_faults(FaultConfig::crash_loss(0.2));
    let want = spec.run(Method::FedKnow).expect("simulated run");
    let (got, stats) = spec
        .run_over(Method::FedKnow, TransportKind::Tcp)
        .expect("socket-backed run");
    assert!(
        !want.fault_log.is_empty(),
        "crash_loss(0.2) must log faults"
    );
    assert_eq!(
        got.fault_log, want.fault_log,
        "wire-seam fault ledger diverged from the simulator"
    );
    assert_eq!(got, want, "socket transport diverged from the simulator");
    // A real model crossed the wire, and framing cost real bytes.
    assert!(stats.frames > 0, "no frames moved");
    assert!(stats.payload > 0 && stats.overhead > 0);
}

#[test]
fn verify_mode_runs_clean_end_to_end() {
    // FEDKNOW_VERIFY=1 equivalent: every runtime invariant (integrator
    // KKT, extractor dominance, restorer grad rows, FedAvg mass, wire
    // round-trip, per-layer finiteness) is live through a full run and
    // must never fire. Strict mode turns any violation into a panic at
    // the offending call site; the counters double-check that the
    // invariants actually executed rather than being skipped.
    fedknow_obs::enable();
    fedknow_verify::enable_strict();
    let spec = RunSpec::quick(42);
    let report = spec.run(Method::FedKnow).expect("verified run completes");
    fedknow_verify::disable();
    assert_eq!(report.accuracy.num_tasks(), 3);

    let snap = fedknow_obs::snapshot().expect("obs enabled");
    let checks = snap.counters.get("verify.checks").copied().unwrap_or(0);
    let violations = snap.counters.get("verify.violations").copied().unwrap_or(0);
    assert!(checks > 0, "verify mode ran but no invariant checks fired");
    assert_eq!(violations, 0, "runtime invariants violated: {snap:?}");
}

#[test]
fn all_twelve_methods_complete_a_tiny_run() {
    let mut spec = RunSpec::quick(5);
    // Make it as small as possible: 2 tasks, 2 clients, 2 rounds.
    spec.dataset = spec.dataset.with_tasks(2);
    spec.num_clients = 2;
    spec.rounds_per_task = 2;
    spec.iters_per_round = 3;
    for method in Method::COMPARISON {
        let report = spec.run(method).expect("simulation failed");
        assert_eq!(
            report.accuracy.num_tasks(),
            2,
            "{} wrong task count",
            method.name()
        );
        let acc = report.accuracy.avg_accuracy_after(1);
        assert!(
            (0.0..=1.0).contains(&acc),
            "{} produced out-of-range accuracy {acc}",
            method.name()
        );
    }
}
