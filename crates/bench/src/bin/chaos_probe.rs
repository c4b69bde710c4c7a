//! Chaos smoke vehicle for the black-box flight recorder.
//!
//! Runs a short FedKNOW simulation under heavy crash/upload-loss fault
//! injection with the recorder armed, then either finishes cleanly and
//! requests an explicit postmortem bundle (`dump_now("probe")`), or —
//! under `--panic-after-tasks N` — checkpoints after `N` tasks and
//! panics on purpose so tests can assert the panic hook flushes the
//! JSONL stream and writes a `panic` bundle from a dying process.
//!
//! ```text
//! FEDKNOW_TRACE_DIR=out/ chaos_probe [--scale smoke|quick|paper] [--seed N]
//!                                    [--panic-after-tasks N] [--force-violation]
//!                                    [--transport channel|tcp|unix]
//!                                    [--listen ADDR | --connect ADDR --client-id N]
//! ```
//!
//! `--listen`/`--connect` split the probe across OS processes: one
//! `--listen 127.0.0.1:PORT` server plus one `--connect` process per
//! client, each dumping its own postmortem bundle into its own
//! `FEDKNOW_TRACE_DIR`. `obs trace merge` fuses the bundles into a
//! single clock-aligned timeline with causal flow links across the
//! processes.
//!
//! `--force-violation` switches the verify layer on (counting mode) and
//! reports one deliberate violation before the run, so the bundle tail
//! demonstrably contains a `Violation` record. Flags are parsed by hand
//! because `--panic-after-tasks` is not part of the shared bench CLI.

use fedknow_baselines::Method;
use fedknow_bench::{scaled_spec, Scale};
use fedknow_data::DatasetSpec;
use fedknow_fl::{FaultConfig, FaultKind, TransportKind};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut scale = Scale::Smoke;
    let mut seed = 42u64;
    let mut panic_after: Option<usize> = None;
    let mut force_violation = false;
    let mut transport: Option<TransportKind> = None;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut client_id: Option<u32> = None;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => {
                i += 1;
                listen = Some(
                    argv.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--listen expects an address")),
                );
            }
            "--connect" => {
                i += 1;
                connect = Some(
                    argv.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--connect expects an address")),
                );
            }
            "--client-id" => {
                i += 1;
                client_id = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--client-id expects an integer")),
                );
            }
            "--scale" => {
                i += 1;
                scale = argv
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("--scale expects smoke|quick|paper"));
            }
            "--seed" => {
                i += 1;
                seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed expects an integer"));
            }
            "--panic-after-tasks" => {
                i += 1;
                panic_after = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--panic-after-tasks expects an integer")),
                );
            }
            "--force-violation" => force_violation = true,
            "--transport" => {
                i += 1;
                transport = Some(
                    argv.get(i)
                        .and_then(|s| TransportKind::parse(s))
                        .unwrap_or_else(|| usage("--transport expects channel|tcp|unix")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    // Arm the recorder before anything runs; FEDKNOW_TRACE_DIR alone is
    // an enabling condition, so the CI smoke needs no extra env.
    fedknow_obs::init_from_env();
    fedknow_verify::init_from_env();
    if force_violation {
        // Counting (non-strict) mode: the violation lands in the ring
        // and the counters without killing the probe.
        fedknow_verify::enable();
        fedknow_verify::report(
            "probe.forced",
            Err("deliberate violation forced by chaos_probe --force-violation".to_string()),
        );
    }

    let spec =
        scaled_spec(DatasetSpec::cifar100(), scale, seed).with_faults(FaultConfig::crash_loss(0.3));

    // Multi-process roles: each process dumps its own bundle, named in
    // its bundle context so the merged timeline labels its track.
    if let Some(addr) = listen {
        fedknow_obs::set_context("proc.name", "server");
        let (report, stats) = spec
            .serve_over(Method::FedKnow, &addr)
            .expect("serve failed");
        println!(
            "[chaos_probe] serve {addr}: {} frames ({} dropped), {} data bytes, \
             {} overhead, {} malformed quarantined",
            stats.frames,
            stats.frames_dropped,
            stats.payload,
            stats.overhead,
            stats.malformed_frames
        );
        let tasks = report.accuracy.num_tasks();
        println!(
            "[chaos_probe] {} tasks, final accuracy {:.4}, faults: {} crashes, \
             {} rejoins, {} lost uploads, {} quarantined",
            tasks,
            report.accuracy.avg_accuracy_after(tasks - 1),
            report.fault_count(FaultKind::Crash),
            report.fault_count(FaultKind::Rejoin),
            report.fault_count(FaultKind::UploadLost),
            report.fault_count(FaultKind::UploadRejected),
        );
        dump_probe_bundle();
        return;
    }
    if let Some(addr) = connect {
        let id = client_id.unwrap_or_else(|| usage("--connect requires --client-id"));
        fedknow_obs::set_context("proc.name", &format!("client{id}"));
        let joined = spec.join_over(Method::FedKnow, &addr, id);
        dump_probe_bundle();
        if let Err(e) = joined {
            eprintln!("[chaos_probe] client {id} against {addr}: {e}");
            std::process::exit(1);
        }
        println!("[chaos_probe] client {id} finished against {addr}");
        return;
    }

    if let Some(n) = panic_after {
        let mut sim = spec.build(Method::FedKnow);
        let ck = sim.checkpoint(n).expect("checkpoint failed");
        eprintln!(
            "[chaos_probe] checkpointed after {} tasks; panicking on purpose",
            ck.next_task
        );
        panic!("chaos_probe: deliberate panic after {n} tasks");
    }

    // With `--transport` the faults are realized on a real wire: lost
    // uploads are dropped frames, crashes are closed connections, and
    // the quarantine/degradation paths the recorder watches are the
    // live transport ones, not modeled stand-ins.
    let report = match transport {
        Some(kind) => {
            let (report, stats) = spec
                .run_over(Method::FedKnow, kind)
                .expect("transport run failed");
            println!(
                "[chaos_probe] {kind}: {} frames ({} dropped), {} data bytes, \
                 {} overhead, {} malformed quarantined",
                stats.frames,
                stats.frames_dropped,
                stats.payload,
                stats.overhead,
                stats.malformed_frames
            );
            report
        }
        None => spec.run(Method::FedKnow).expect("simulation failed"),
    };
    let tasks = report.accuracy.num_tasks();
    println!(
        "[chaos_probe] {} tasks, final accuracy {:.4}, faults: {} crashes, \
         {} rejoins, {} lost uploads, {} quarantined",
        tasks,
        report.accuracy.avg_accuracy_after(tasks - 1),
        report.fault_count(FaultKind::Crash),
        report.fault_count(FaultKind::Rejoin),
        report.fault_count(FaultKind::UploadLost),
        report.fault_count(FaultKind::UploadRejected),
    );
    dump_probe_bundle();
}

fn dump_probe_bundle() {
    match fedknow_obs::dump_now("probe") {
        Some(path) => println!("[chaos_probe] bundle {}", path.display()),
        None => println!("[chaos_probe] no bundle (FEDKNOW_TRACE_DIR unset)"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: chaos_probe [--scale smoke|quick|paper] [--seed N] \
         [--panic-after-tasks N] [--force-violation] [--transport channel|tcp|unix] \
         [--listen ADDR | --connect ADDR --client-id N]"
    );
    std::process::exit(2)
}
