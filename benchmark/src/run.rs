//! The two runs of a workload: end-to-end repetitions with tracing off,
//! and the traced run that fills the per-layer table.
//!
//! Both are closed loops: rounds are synchronous, a client's next call
//! waits for its previous one, repetitions run one after another, and
//! the harness spawns no thread of its own (the engines do: one scoped
//! worker per core in `Simulation`, one actor per client plus the
//! server's accept pump and readers in `FederationRuntime`).

use crate::compare::END_TO_END;
use crate::report::{Metric, WorkloadResult};
use crate::rungs;
use crate::spans::{child_ns, self_ns, Recorder, Span, SpanClient};
use crate::stats::{describe, median};
use crate::workloads::{setup, setup_plain, template, Engine, SetupTimes, Workload};
use fedknow_baselines::Method;
use fedknow_fl::{FclClient, SimReport, WireStatsSnapshot};
use fedknow_math::rng::splitmix64;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Fewest repetitions a figure is the median of.
const MIN_REPS: usize = 3;
/// Set-up timings a run's `setup_s` is the median of.
const SETUP_SAMPLES: usize = 9;
/// The issue's accuracy floor. Task-restricted chance is 0.25 on the
/// pinned split, so this catches an evaluation that scores nothing, not
/// a model that failed to learn.
const MIN_ACCURACY: f64 = 0.2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Request {
    /// Workload name.
    pub name: String,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds`.
    pub seconds: f64,
    /// Shrink to a wiring check.
    pub smoke: bool,
}

impl Request {
    /// The workload as repetition `rep` runs it: every repetition draws
    /// its own inputs from the seed, so a run's medians are medians
    /// over inputs as well as over time.
    fn workload(&self, rep: usize) -> Result<Workload, String> {
        let seed = splitmix64(splitmix64(self.seed).wrapping_add(rep as u64));
        Workload::by_name(&self.name, seed, self.smoke)
            .ok_or_else(|| format!("unknown workload {}", self.name))
    }

    /// The first repetition's workload with its shape table verified,
    /// its model's size on the wire, and a result that already holds
    /// the warm-up's check.
    fn start(&self) -> Result<(Workload, u64, WorkloadResult), String> {
        assert!(
            !fedknow_obs::is_enabled() && !fedknow_verify::is_enabled(),
            "observability and verification must be off while measuring"
        );
        let w = self.workload(0)?;
        let tpl = template(&w);
        rungs::check_shape_table(&w, &tpl.instantiate())?;
        let mut result = WorkloadResult {
            name: w.name.to_string(),
            why: w.why.to_string(),
            attempted: 0,
            failed: 0,
            correct: true,
            checks: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        // Warm-up, twice on the same shrunk inputs: lazy set-up finishes
        // before timing starts, and the two reports must agree bit for bit.
        let tiny = Workload::by_name(w.name, w.spec.seed, true).expect("same name");
        let warm = [plain_rep(&tiny), plain_rep(&tiny)];
        result.check(
            "two runs on the same inputs report identically",
            match (&warm[0], &warm[1]) {
                (Ok(a), Ok(b)) => same_report("second warm-up run", &b.report, &a.report),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            },
        );
        Ok((w, tpl.size_bytes(), result))
    }
}

/// One timed repetition.
struct Rep {
    setup: SetupTimes,
    wall: f64,
    report: SimReport,
    wire: Option<WireStatsSnapshot>,
}

/// Set up and run `w` once, wrapping its clients with `wrap`. `on_run`
/// is called between the two (a traced run restarts its root span
/// there).
fn rep(
    w: &Workload,
    wrap: &dyn Fn(usize, Box<dyn FclClient>) -> Box<dyn FclClient>,
    on_run: impl FnOnce(),
) -> Result<Rep, String> {
    let (built, setup) = setup(w, wrap);
    on_run();
    let t = Instant::now();
    let (report, wire) = built.run().map_err(|e| format!("run failed: {e}"))?;
    Ok(Rep {
        setup,
        wall: t.elapsed().as_secs_f64(),
        report,
        wire,
    })
}

/// [`rep`] with the clients as `build_client` made them.
fn plain_rep(w: &Workload) -> Result<Rep, String> {
    rep(w, &|_, c| c, || ())
}

fn final_accuracy(report: &SimReport) -> f64 {
    report
        .accuracy
        .accuracy_curve()
        .last()
        .copied()
        .unwrap_or(0.0)
}

/// The checks every report has to pass on its own.
fn check_report(
    w: &Workload,
    model_bytes: u64,
    report: &SimReport,
    smoke: bool,
) -> Result<(), String> {
    let acc = &report.accuracy;
    if acc.num_tasks() != w.spec.dataset.num_tasks {
        return Err(format!("accuracy matrix has {} rows", acc.num_tasks()));
    }
    for m in 0..acc.num_tasks() {
        for k in 0..=m {
            if !acc.at(m, k).is_finite() {
                return Err(format!("accuracy after task {m} on task {k} is not finite"));
            }
        }
    }
    let last = final_accuracy(report);
    if !smoke && last < MIN_ACCURACY {
        return Err(format!("final accuracy {last} is below {MIN_ACCURACY}"));
    }
    if !report.dropouts.is_empty() {
        return Err(format!("dropouts {:?}", report.dropouts));
    }
    // Diverged weights still score chance accuracy; the loss shows them.
    if let Some(loss) = report.task_mean_loss.iter().find(|l| !l.is_finite()) {
        return Err(format!("mean training loss {loss} of a task is not finite"));
    }
    // Neither method sends payloads and no fault is injected, so the
    // ledger is one dense model up and one down per client-round.
    let ledger = 2 * model_bytes * w.client_rounds();
    if report.total_bytes != ledger {
        return Err(format!(
            "total_bytes {} is not the closed form {ledger}",
            report.total_bytes
        ));
    }
    Ok(())
}

/// The checks a transport-backed run adds: the wire moved exactly the
/// ledger's bytes and nothing went wrong on it.
fn check_wire(report: &SimReport, wire: &WireStatsSnapshot) -> Result<(), String> {
    if wire.payload != report.total_bytes {
        return Err(format!(
            "wire payload {} differs from the ledger's {}",
            wire.payload, report.total_bytes
        ));
    }
    let faults = wire.send_failures + wire.malformed_frames + wire.frames_dropped;
    if faults != 0 {
        return Err(format!("{faults} wire faults: {wire:?}"));
    }
    Ok(())
}

fn same_report(what: &str, got: &SimReport, want: &SimReport) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: accuracy {:?} vs {:?}, bytes {} vs {}, dropouts {:?} vs {:?}",
            got.accuracy.accuracy_curve(),
            want.accuracy.accuracy_curve(),
            got.total_bytes,
            want.total_bytes,
            got.dropouts,
            want.dropouts
        ))
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end repetitions: tracing off, every repetition a fresh
/// set-up and one full run on its own seed-derived inputs.
pub fn end_to_end(req: &Request) -> Result<WorkloadResult, String> {
    let (first, model_bytes, mut res) = req.start()?;
    let cr = first.client_rounds();

    let reps = if req.smoke {
        1
    } else {
        ((req.seconds / first.rep_seconds) as usize).max(MIN_REPS)
    };
    let (mut walls, mut setups, mut accuracies, mut bytes) = (vec![], vec![], vec![], vec![]);
    for r in 0..reps {
        let w = req.workload(r)?;
        res.attempted += cr;
        let done = match plain_rep(&w) {
            Ok(done) => done,
            Err(e) => {
                res.check(&format!("repetition {r} runs"), Err(e));
                continue;
            }
        };
        res.check(
            &format!("repetition {r} report"),
            check_report(&w, model_bytes, &done.report, req.smoke),
        );
        if let Some(wire) = &done.wire {
            res.check(
                &format!("repetition {r} wire"),
                check_wire(&done.report, wire),
            );
        }
        // Over a transport the report must be the in-process one.
        if r == 0 && w.engine == Engine::Tcp {
            res.check(
                "transport report equals the in-process report",
                plain_rep(&w.on(Engine::InProcess { parallel: true }))
                    .and_then(|want| same_report("over TCP", &done.report, &want.report)),
            );
        }
        walls.push(done.wall);
        setups.push(done.setup.total());
        accuracies.push(final_accuracy(&done.report));
        let moved = done
            .wire
            .map_or(done.report.total_bytes, |w| w.payload + w.overhead);
        bytes.push(moved as f64 / cr as f64);
    }
    // Set-up is sub-second: time it a few more times for a steady median.
    while !req.smoke && setups.len() < SETUP_SAMPLES {
        setups.push(setup_plain(&req.workload(setups.len())?).1.total());
    }
    if walls.is_empty() {
        res.seal();
        return Ok(res);
    }

    println!("{}: run() wall, {}", first.name, describe(&walls, "s"));
    // In `END_TO_END` order. Accuracy is exact per seed: the mean over the
    // repetitions' inputs, read once.
    let accuracy = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    let figures = [
        (
            cr as f64 / median(&walls),
            walls.iter().map(|w| cr as f64 / w).collect(),
        ),
        (median(&setups), setups),
        (peak_rss_mb()?, vec![]),
        (median(&bytes), bytes),
        (accuracy, vec![]),
    ];
    res.end_to_end = END_TO_END
        .iter()
        .zip(figures)
        .map(|(spec, (value, samples))| Metric {
            samples: if samples.is_empty() {
                vec![value]
            } else {
                samples
            },
            ..Metric::single(spec.name, value, spec.unit)
        })
        .collect();
    res.seal();
    Ok(res)
}

/// A traced in-memory run of `w` under a root span named `root_name`.
fn traced_rep(
    w: &Workload,
    rec: &Arc<Recorder>,
    root_name: &'static str,
) -> (usize, Result<Rep, String>) {
    let root = rec.begin(root_name, "fl", None, None);
    let layer = match w.method {
        Method::FedKnow => "core",
        _ => "baselines",
    };
    let done = rep(
        w,
        &|c, inner| SpanClient::wrap(inner, rec.clone(), root, c, layer),
        || rec.restart(root),
    );
    rec.end(root);
    (root, done)
}

/// One more repetition in a process of its own with `fedknow_obs`
/// enabled; returns its wall seconds after checking it reported what
/// `want` did.
fn obs_rep(req: &Request, want: &SimReport) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--obs-rep",
        "--workload",
        &req.name,
        "--seed",
        &req.seed.to_string(),
    ]);
    if req.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the obs repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "obs repetition exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let json: serde_json::Value = serde_json::from_str(line).map_err(|e| format!("{line}: {e}"))?;
    let num = |k: &str| {
        json.get(k)
            .and_then(|v| v.as_f64())
            .ok_or(format!("no {k} in {line}"))
    };
    if num("final_accuracy")? != final_accuracy(want)
        || num("total_bytes")? != want.total_bytes as f64
    {
        return Err(format!("obs repetition reported {line}"));
    }
    num("wall_s")
}

/// The body of the `--obs-rep` child: enable `fedknow_obs`, run one
/// parallel in-process repetition, print what the parent compares.
pub fn obs_rep_child(req: &Request) -> Result<(), String> {
    fedknow_obs::enable();
    let w = req.workload(0)?.on(Engine::InProcess { parallel: true });
    let done = plain_rep(&w)?;
    println!(
        "{{\"wall_s\": {:?}, \"final_accuracy\": {:?}, \"total_bytes\": {}}}",
        done.wall,
        final_accuracy(&done.report),
        done.report.total_bytes
    );
    Ok(())
}

/// The traced run: the first repetition's inputs driven once untraced,
/// then traced serially, in parallel and over TCP, then once with
/// `fedknow_obs` on, then the rung table. Returns the result and the
/// spans.
pub fn traced(req: &Request) -> Result<(WorkloadResult, Vec<Span>), String> {
    let (w, model_bytes, mut res) = req.start()?;
    let cr = w.client_rounds();
    let parallel = w.on(Engine::InProcess { parallel: true });
    let rec = Recorder::new();

    res.attempted += cr;
    let plain = match plain_rep(&parallel) {
        Ok(plain) => plain,
        Err(e) => {
            res.check("untraced run", Err(e));
            res.seal();
            return Ok((res, Vec::new()));
        }
    };
    res.check(
        "untraced report",
        check_report(&w, model_bytes, &plain.report, req.smoke),
    );

    let mut setups = vec![plain.setup];
    let mut traced_run = |engine: Engine, name: &'static str| {
        res.attempted += cr;
        let (root, done) = traced_rep(&w.on(engine), &rec, name);
        let done = done.and_then(|done| {
            same_report("traced report", &done.report, &plain.report)?;
            Ok(done)
        });
        res.check(
            &format!("{name} report equals the untraced report"),
            done.as_ref().map(|_| ()).map_err(String::clone),
        );
        done.ok().map(|done| {
            setups.push(done.setup);
            (root, done)
        })
    };
    let serial = traced_run(Engine::InProcess { parallel: false }, "run.serial");
    let fanned = traced_run(Engine::InProcess { parallel: true }, "run.parallel");
    let tcp = traced_run(Engine::Tcp, "run.tcp");
    let (Some((serial_root, serial)), Some((_, fanned)), Some((_, tcp))) = (serial, fanned, tcp)
    else {
        res.seal();
        return Ok((res, rec.snapshot()));
    };
    let wire = tcp.wire.expect("a transport run returns wire statistics");
    res.check("run.tcp wire", check_wire(&tcp.report, &wire));

    res.attempted += cr;
    let obs_wall = obs_rep(req, &plain.report);
    res.check(
        "obs-enabled report equals the untraced report",
        obs_wall.as_ref().map(|_| ()).map_err(String::clone),
    );

    let spans = rec.snapshot();
    let mut layers = rungs::measure(&w, &setups, req.smoke)?;
    let mut put =
        |name: &str, value: f64, unit: &str| layers.push(Metric::single(name, value, unit));
    for call in [
        "train_iteration",
        "receive_global",
        "finish_task",
        "evaluate",
        "start_task",
    ] {
        let name = format!("fl.share_{}", call.replace("train_iteration", "train"));
        let share = child_ns(&spans, serial_root, call) as f64 / (serial.wall * 1e9);
        put(&name, share, "fraction");
    }
    let rounds = (w.spec.rounds_per_task * w.spec.dataset.num_tasks) as f64;
    put(
        "fl.engine_self_ms_per_round",
        self_ns(&spans, serial_root) as f64 / 1e6 / rounds,
        "ms",
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    put(
        "fl.fanout_efficiency",
        serial.wall / (fanned.wall * cores.min(w.spec.num_clients) as f64),
        "ratio",
    );
    put(
        "fl.transport_overhead_ratio",
        tcp.wall / fanned.wall,
        "ratio",
    );
    let on_wire = (wire.payload + wire.overhead) as f64;
    put("fl.wire_mb_per_s", on_wire / 1e6 / tcp.wall, "MB/s");
    put(
        "fl.wire_overhead_share",
        wire.overhead as f64 / wire.payload as f64,
        "fraction",
    );
    put(
        "fl.frames_per_client_round",
        wire.frames as f64 / cr as f64,
        "count",
    );
    put(
        "fl.wire_faults",
        (wire.send_failures + wire.malformed_frames + wire.frames_dropped) as f64,
        "count",
    );
    let report = &plain.report;
    put(
        "fl.final_forgetting",
        report
            .accuracy
            .forgetting_curve()
            .last()
            .copied()
            .unwrap_or(0.0),
        "fraction",
    );
    put(
        "fl.sim_train_s",
        report.cumulative_time().last().copied().unwrap_or(0.0),
        "s",
    );
    put("fl.dropouts", report.dropouts.len() as f64, "count");
    if let Ok(wall) = obs_wall {
        put(
            "obs.enabled_overhead_pct",
            (wall / plain.wall - 1.0) * 100.0,
            "%",
        );
    }
    put(
        "trace.overhead_pct",
        (fanned.wall / plain.wall - 1.0) * 100.0,
        "%",
    );
    res.per_layer = layers;
    res.seal();
    Ok((res, spans))
}
