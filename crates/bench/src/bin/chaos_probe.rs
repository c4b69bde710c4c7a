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
//!                                    [--transport tcp|unix]
//!                                    [--listen ADDR | --connect ADDR --client-id N]
//! ```
//!
//! `--listen`/`--connect` split the probe across OS processes: one
//! `--listen 127.0.0.1:PORT` server plus one `--connect` process per
//! client, each dumping its own postmortem bundle into its own
//! `FEDKNOW_TRACE_DIR`. The server prints the same report line as
//! `--transport tcp` at the same seed: the run is the same pure
//! function of the seed wherever its clients live.
//!
//! `--force-violation` switches the verify layer on (counting mode) and
//! reports one deliberate violation before the run, so the bundle tail
//! demonstrably contains a `Violation` record.

use fedknow_baselines::Method;
use fedknow_bench::{flag, flag_with, flags_only, scaled_spec, Scale};
use fedknow_data::DatasetSpec;
use fedknow_fl::{FaultConfig, FaultKind, TransportKind};

const USAGE: &str = "chaos_probe [--scale smoke|quick|paper] [--seed N] \
     [--panic-after-tasks N] [--force-violation] [--transport tcp|unix] \
     [--listen ADDR | --connect ADDR --client-id N]";

fn main() {
    if let Err(e) = run() {
        fedknow_bench::usage(USAGE, &e);
    }
}

/// The probe; `Err` is a command-line error.
fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    flags_only(&argv, USAGE)?;
    let scale = flag_with(&argv, "--scale", Scale::parse)?.unwrap_or(Scale::Smoke);
    let seed: u64 = flag(&argv, "--seed")?.unwrap_or(42);
    let panic_after: Option<usize> = flag(&argv, "--panic-after-tasks")?;
    let force_violation = argv.iter().any(|a| a == "--force-violation");
    let transport = flag_with(&argv, "--transport", TransportKind::parse)?;
    let listen: Option<String> = flag(&argv, "--listen")?;
    let connect: Option<String> = flag(&argv, "--connect")?;
    let client_id: Option<u32> = flag(&argv, "--client-id")?;
    if connect.is_some() && client_id.is_none() {
        return Err("--connect requires --client-id".to_string());
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

    // Multi-process roles: each process dumps its own bundle.
    if let (None, Some(addr), Some(id)) = (&listen, &connect, client_id) {
        let joined = spec.join_over(Method::FedKnow, addr, id);
        dump_probe_bundle();
        if let Err(e) = joined {
            eprintln!("[chaos_probe] client {id} against {addr}: {e}");
            std::process::exit(1);
        }
        println!("[chaos_probe] client {id} finished against {addr}");
        return Ok(());
    }
    if let (None, Some(n)) = (&listen, panic_after) {
        let mut sim = spec.build(Method::FedKnow);
        let ck = sim.checkpoint(n).expect("checkpoint failed");
        eprintln!(
            "[chaos_probe] checkpointed after {} tasks; panicking on purpose",
            ck.next_task
        );
        panic!("chaos_probe: deliberate panic after {n} tasks");
    }

    // On a wire (`--listen`, `--transport`) the faults are realized
    // physically: lost uploads are dropped frames, crashes are closed
    // connections, and the quarantine/degradation paths the recorder
    // watches are the live transport ones, not modeled stand-ins.
    let (report, wire) = if let Some(addr) = &listen {
        let served = spec.serve_over(Method::FedKnow, addr);
        let (report, stats) = served.expect("serve failed");
        (report, Some((format!("serve {addr}"), stats)))
    } else if let Some(kind) = transport {
        let (report, stats) = spec
            .run_over(Method::FedKnow, kind)
            .expect("transport run failed");
        (report, Some((kind.to_string(), stats)))
    } else {
        let report = spec.run(Method::FedKnow).expect("simulation failed");
        (report, None)
    };
    if let Some((what, stats)) = wire {
        println!(
            "[chaos_probe] {what}: {} frames ({} dropped), {} data bytes, \
             {} overhead, {} malformed quarantined",
            stats.frames,
            stats.frames_dropped,
            stats.payload,
            stats.overhead,
            stats.malformed_frames
        );
    }
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
    Ok(())
}

fn dump_probe_bundle() {
    match fedknow_obs::dump_now("probe") {
        Some(path) => println!("[chaos_probe] bundle {}", path.display()),
        None => println!("[chaos_probe] no bundle (FEDKNOW_TRACE_DIR unset)"),
    }
}
