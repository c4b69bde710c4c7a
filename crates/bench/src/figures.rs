//! The paper's evaluation (§V, Figs. 4–10, Table I, plus the ablation,
//! hyper-parameter and convergence studies) as one driver: *for each
//! setting, for each method, run the federation and keep the accuracy /
//! forgetting / time curves*. Each figure is a short function over the
//! shared pieces below (`run_reports` / `run_curves`, `print_curves`,
//! [`shrunk_cluster`]); [`FIGURES`] maps the `figures --fig` ids to them
//! and to the file each one writes under `--results DIR`. The fault
//! sweep (`resilience`) rides the same table.

use crate::{
    peak_rss_bytes, print_table, scaled_spec, usage, write_json, Args, BenchRecord, MethodCurve,
    Scale, USAGE,
};
use fedknow_baselines::factory::MethodConfig;
use fedknow_baselines::Method;
use fedknow_data::{ContinualDataset, DatasetSpec};
use fedknow_fl::{CommModel, DeviceProfile, FaultConfig, FaultKind, SimReport, TransportKind};
use fedknow_math::stats::{mean, percent_improvement};
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;
use serde::Serialize;
use std::time::Instant;

/// `(--fig id, stem, figure)`: the figure writes `<stem>.json`, or one
/// `<stem>_<dataset>.json` per dataset (`4`, `4h`), under `args.results`.
pub type Figure = (&'static str, &'static str, fn(&Args, &str));

/// The driver table, in the order a full campaign runs it (`t1` reads
/// what `4` wrote).
pub const FIGURES: [Figure; 13] = [
    ("4", "fig4", fig4),
    ("4h", "fig4_hetero", fig4_hetero),
    ("5", "fig5_comm_workloads", fig5),
    ("6", "fig6_comm_bandwidth", fig6),
    ("7", "fig7_tasks80", fig7),
    ("8", "fig8_clients", fig8),
    ("9", "fig9_dnns", fig9),
    ("10", "fig10_params", fig10),
    ("t1", "table1_improvement", table1),
    ("ablations", "ablations", ablations),
    ("hparams", "hyperparam_search", hparams),
    ("convergence", "convergence_check", convergence),
    ("resilience", "resilience", resilience),
];

/// Run the figures `args.fig` selects (all of them when absent), in
/// table order. An id the table does not have is a usage error.
pub fn run(args: &Args) {
    let selected = |id: &str| match &args.fig {
        Some(ids) => ids.iter().any(|i| i == id),
        None => true,
    };
    for id in args.fig.iter().flatten() {
        if !FIGURES.iter().any(|(known, ..)| known == id) {
            let ids: Vec<&str> = FIGURES.iter().map(|&(id, ..)| id).collect();
            usage(
                USAGE,
                &format!("--fig: no figure `{id}`; the ids are {}", ids.join(",")),
            );
        }
    }
    for (_, stem, figure) in FIGURES.iter().filter(|(id, ..)| selected(id)) {
        figure(args, stem);
    }
}

/// The three strongest methods, which Figs. 4(d–f) and 7–9 compare.
const STRONGEST: [Method; 3] = [Method::Gem, Method::FedWeit, Method::FedKnow];

/// The 20-Jetson cluster shrunk proportionally to `n` devices: AGX,
/// TX2, NX, Nano, then NX for any further client.
pub fn shrunk_cluster(n: usize) -> Vec<DeviceProfile> {
    let mut d = vec![
        DeviceProfile::jetson_agx(),
        DeviceProfile::jetson_tx2(),
        DeviceProfile::jetson_nx(),
        DeviceProfile::jetson_nano(),
    ];
    d.truncate(n);
    d.resize_with(n, DeviceProfile::jetson_nx);
    d
}

/// Run `methods` one after another under `spec` on `devices` over the
/// paper's default link, keeping each report with the real seconds it
/// took. `stream` replaces the dataset `spec` would generate; without
/// one, `transport` runs the actor runtime over that wire instead of the
/// in-process simulator — the same report bit for bit, faults realised
/// at the wire seam.
fn run_reports(
    label: &str,
    spec: &RunSpec,
    stream: Option<&ContinualDataset>,
    methods: &[Method],
    devices: Vec<DeviceProfile>,
    transport: Option<TransportKind>,
) -> Vec<(SimReport, f64)> {
    methods
        .iter()
        .map(|&method| {
            eprintln!("[{label}] {} ...", method.name());
            let (devices, comm) = (devices.clone(), CommModel::paper_default());
            let started = Instant::now();
            let report = match (stream, transport) {
                (Some(data), _) => spec.run_on_dataset(method, data, devices, comm),
                (None, None) => spec.run_on(method, devices, comm),
                (None, Some(kind)) => spec
                    .run_over_on(method, devices, comm, kind)
                    .map(|(report, _wire)| report),
            }
            .expect("simulation failed");
            (report, started.elapsed().as_secs_f64())
        })
        .collect()
}

fn curves(runs: &[(SimReport, f64)]) -> Vec<MethodCurve> {
    runs.iter()
        .map(|(r, _)| MethodCurve::from_report(r))
        .collect()
}

/// The loop every figure is, in its common form (`RunSpec::run` per
/// method: the spec's own dataset, a uniform cluster): one
/// [`MethodCurve`] per method.
fn run_curves(label: &str, spec: &RunSpec, methods: &[Method]) -> Vec<MethodCurve> {
    let devices = DeviceProfile::uniform_cluster(spec.num_clients);
    curves(&run_reports(label, spec, None, methods, devices, None))
}

fn run_one(label: &str, spec: &RunSpec, method: Method) -> MethodCurve {
    run_curves(label, spec, &[method]).remove(0)
}

/// A per-task series of a [`MethodCurve`], and what a table title calls it.
type Series = (&'static str, fn(&MethodCurve) -> &Vec<f64>);
const ACCURACY: Series = ("accuracy", |c| &c.accuracy);
const FORGETTING: Series = ("forgetting rate", |c| &c.forgetting);
const TIME: Series = ("cumulative time (s)", |c| &c.cumulative_time);

/// Print each of `series` for every method as a `task1..taskN` table.
fn print_curves(title: &str, curves: &[MethodCurve], series: &[Series]) {
    for (what, field) in series {
        let columns: Vec<String> = (1..=field(&curves[0]).len())
            .map(|t| format!("task{t}"))
            .collect();
        let rows: Vec<(String, Vec<f64>)> = curves
            .iter()
            .map(|c| (c.method.clone(), field(c).clone()))
            .collect();
        print_table(&format!("{title} — {what}"), &columns, &rows);
    }
}

/// All 12 methods on the five benchmarks, on the 20-Jetson cluster; the
/// FedKNOW run of each dataset also feeds the regression gate.
fn fig4(args: &Args, stem: &str) {
    let datasets = match (&args.only, args.scale) {
        (Some(names), _) => names
            .iter()
            .map(|n| {
                DatasetSpec::by_name(n)
                    .unwrap_or_else(|| usage(USAGE, &format!("--only: no dataset `{n}`")))
            })
            .collect(),
        // The smoke pass covers one CNN and one ResNet dataset.
        (None, Scale::Smoke) => vec![DatasetSpec::cifar100(), DatasetSpec::mini_imagenet()],
        (None, _) => DatasetSpec::all_benchmarks(),
    };
    for base in datasets {
        let name = format!("{stem}_{}", base.name);
        let spec = scaled_spec(base, args.scale, args.seed);
        let devices = match args.scale {
            Scale::Paper => DeviceProfile::jetson_cluster(),
            _ => shrunk_cluster(spec.num_clients),
        };
        let runs = run_reports(&name, &spec, None, &Method::COMPARISON, devices, None);
        for (report, wall) in runs.iter().filter(|(r, _)| r.method == "fedknow") {
            let scale = args.scale.name();
            BenchRecord::from_report(&name, scale, args.seed, report, *wall).write(&args.results);
        }
        let curves = curves(&runs);
        print_curves(&format!("Fig.4 {name}"), &curves, &[ACCURACY, TIME]);
        write_json(&args.results, &name, &curves);
    }
}

/// The Jetson cluster extended with Raspberry Pis: training slows about
/// an order of magnitude (RPi stragglers gate synchronous rounds) and
/// FedWEIT's all-client knowledge exhausts the 2 GB RPi's memory budget.
fn fig4_hetero(args: &Args, stem: &str) {
    let mut datasets = vec![
        DatasetSpec::cifar100(),
        DatasetSpec::fc100(),
        DatasetSpec::core50(),
    ];
    if args.scale == Scale::Smoke {
        datasets.truncate(1);
    }
    for base in datasets {
        let name = format!("{stem}_{}", base.name);
        let mut spec = scaled_spec(base, args.scale, args.seed);
        let devices = match args.scale {
            Scale::Paper => DeviceProfile::heterogeneous_cluster(),
            // Proportional shrink: keep the RPi tail, including the 2 GB
            // straggler that the memory model can OOM.
            _ => vec![
                DeviceProfile::jetson_agx(),
                DeviceProfile::jetson_nx(),
                DeviceProfile::jetson_nano(),
                DeviceProfile::raspberry_pi(2),
                DeviceProfile::raspberry_pi(4),
                DeviceProfile::raspberry_pi(8),
            ],
        };
        spec.num_clients = devices.len();
        let runs = run_reports(&name, &spec, None, &STRONGEST, devices, None);
        for (r, _) in runs.iter().filter(|(r, _)| !r.dropouts.is_empty()) {
            eprintln!(
                "[{name}] {} dropouts: {:?} (client, task) — memory-gated",
                r.method, r.dropouts
            );
        }
        let curves = curves(&runs);
        print_curves(&format!("Fig.4(d-f) {name}"), &curves, &[ACCURACY, TIME]);
        write_json(&args.results, &name, &curves);
    }
}

/// The pair Figs. 5 and 6 compare: FedKNOW moves only the FedAvg model,
/// FedWEIT also circulates every client's task-adaptive weights.
const COMM_PAIR: [Method; 2] = [Method::FedKnow, Method::FedWeit];

#[derive(Serialize)]
struct CommResult {
    dataset: String,
    method: String,
    comm_seconds: f64,
    total_bytes: u64,
}

/// Communication time across the five workloads at 1 MB/s.
fn fig5(args: &Args, stem: &str) {
    let datasets = match args.scale {
        Scale::Smoke => vec![DatasetSpec::cifar100()],
        _ => DatasetSpec::all_benchmarks(),
    };
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for base in datasets {
        let name = base.name.clone();
        let spec = scaled_spec(base, args.scale, args.seed);
        let pair = run_curves(&format!("fig5 {name}"), &spec, &COMM_PAIR);
        let secs: Vec<f64> = pair.iter().map(|c| c.comm_seconds).collect();
        let saving = percent_improvement(secs[1], secs[0]);
        println!("[fig5] {name}: FedKNOW saves {saving:.1}% of FedWEIT's communication time");
        results.extend(pair.into_iter().map(|c| CommResult {
            dataset: name.clone(),
            method: c.method,
            comm_seconds: c.comm_seconds,
            total_bytes: c.total_bytes,
        }));
        rows.push((name, secs));
    }
    let columns = vec!["fedknow(s)".to_string(), "fedweit(s)".to_string()];
    print_table("Fig.5 — communication time per workload", &columns, &rows);
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct BandwidthCurve {
    model: String,
    method: String,
    bandwidth_kb_per_sec: Vec<f64>,
    comm_seconds: Vec<f64>,
}

/// Communication time under 8 bandwidths (50 KB/s – 10 MB/s). Bytes on
/// the wire do not depend on bandwidth, so each (model, method) pair is
/// simulated once at the reference 1 MB/s and the sweep is the exact
/// rescaling `t(bw) = t(1 MB/s) · (1 MB/s ÷ bw)`.
fn fig6(args: &Args, stem: &str) {
    // SixCNN ↔ CIFAR-100, ResNet-18 ↔ MiniImageNet (the paper's pairing).
    let mut datasets = vec![DatasetSpec::cifar100(), DatasetSpec::mini_imagenet()];
    if args.scale == Scale::Smoke {
        datasets.truncate(1);
    }
    let sweep = CommModel::fig6_sweep();
    let reference = CommModel::paper_default().bandwidth_bytes_per_sec;
    let mut results = Vec::new();
    for base in datasets {
        let spec = scaled_spec(base, args.scale, args.seed);
        let model = spec.model.name();
        for c in run_curves(&format!("fig6 {model}"), &spec, &COMM_PAIR) {
            let (bws, secs) = sweep
                .iter()
                .map(|bw| bw.bandwidth_bytes_per_sec)
                .map(|bw| (bw / 1000.0, c.comm_seconds * (reference / bw)))
                .unzip();
            results.push(BandwidthCurve {
                model: model.to_string(),
                method: c.method,
                bandwidth_kb_per_sec: bws,
                comm_seconds: secs,
            });
        }
    }
    let columns: Vec<String> = sweep
        .iter()
        .map(|c| format!("{}KB/s", c.bandwidth_bytes_per_sec / 1000.0))
        .collect();
    let rows: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|c| (format!("{}/{}", c.model, c.method), c.comm_seconds.clone()))
        .collect();
    print_table(
        "Fig.6 — communication time (s) vs bandwidth",
        &columns,
        &rows,
    );
    write_json(&args.results, stem, &results);
}

/// MiniImageNet + CIFAR-100 + TinyImageNet combined into one stream,
/// learned with ResNet-18: accuracy and forgetting as tasks accumulate.
fn fig7(args: &Args, stem: &str) {
    let (num_tasks, clients, rounds, iters, samples, hw) = match args.scale {
        Scale::Smoke => (4usize, 2usize, 2usize, 4usize, 0.25, 8usize),
        Scale::Quick => (8, 4, 2, 6, 0.4, 8),
        Scale::Paper => (80, 20, 10, 25, 1.0, 16),
    };
    let stream = fedknow_data::combined::combined_scaled(num_tasks, args.seed, samples, hw);
    let spec = RunSpec {
        dataset: DatasetSpec::mini_imagenet().scaled(samples, hw),
        model: ModelKind::ResNet18,
        width: 1.0,
        num_clients: clients,
        rounds_per_task: rounds,
        iters_per_round: iters,
        seed: args.seed,
        method_cfg: Default::default(),
        faults: Default::default(),
    };
    let label = format!("fig7 {num_tasks} tasks");
    let devices = DeviceProfile::uniform_cluster(clients);
    let runs = run_reports(&label, &spec, Some(&stream), &STRONGEST, devices, None);
    let curves = curves(&runs);
    print_curves("Fig.7 combined stream", &curves, &[ACCURACY, FORGETTING]);
    write_json(&args.results, stem, &curves);
}

#[derive(Serialize)]
struct ClientScaleResult {
    num_clients: usize,
    curves: Vec<MethodCurve>,
    /// Real wall seconds per method, aligned with `curves`.
    wall_seconds: Vec<f64>,
    /// Simulated client-rounds processed per real second, per method.
    clients_per_sec: Vec<f64>,
    /// Process peak RSS (bytes) after this sweep point — a high-water
    /// mark, so it only ever grows across points.
    peak_rss_bytes: u64,
}

/// Scalability in the number of clients on MiniImageNet + ResNet-18
/// (more clients → fewer samples each and stronger non-IID), with the
/// host-side cost of each sweep point: how fast, how much memory.
fn fig8(args: &Args, stem: &str) {
    let client_counts: Vec<usize> = match args.scale {
        Scale::Smoke => vec![4],
        Scale::Quick => vec![8, 16],
        Scale::Paper => vec![50, 100],
    };
    let mut results = Vec::new();
    for n in client_counts {
        let mut spec = scaled_spec(DatasetSpec::mini_imagenet(), args.scale, args.seed);
        spec.num_clients = n;
        let label = format!("fig8 {n} clients");
        let devices = DeviceProfile::uniform_cluster(n);
        let runs = run_reports(&label, &spec, None, &STRONGEST, devices, None);
        let curves = curves(&runs);
        print_curves(
            &format!("Fig.8 {n} clients"),
            &curves,
            &[ACCURACY, FORGETTING],
        );
        let wall_seconds: Vec<f64> = runs.iter().map(|&(_, wall)| wall).collect();
        // One "client" unit = one client participating in one
        // aggregation round; tasks × rounds × clients of them total.
        let clients_per_sec: Vec<f64> = curves
            .iter()
            .zip(&wall_seconds)
            .map(|(c, wall)| {
                (c.accuracy.len() * spec.rounds_per_task * n) as f64 / wall.max(f64::MIN_POSITIVE)
            })
            .collect();
        let rss = peak_rss_bytes();
        println!("\n== Fig.8 — host scalability, {n} clients ==");
        for (i, c) in curves.iter().enumerate() {
            println!(
                "{:<12} wall {:>8.2}s  {:>10.1} clients/sec",
                c.method, wall_seconds[i], clients_per_sec[i]
            );
        }
        println!("peak RSS     {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        results.push(ClientScaleResult {
            num_clients: n,
            curves,
            wall_seconds,
            clients_per_sec,
            peak_rss_bytes: rss,
        });
    }
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct DnnResult {
    model: String,
    curves: Vec<MethodCurve>,
}

/// The eight zoo members spanning six architecture categories, each
/// learning the MiniImageNet task sequence.
fn fig9(args: &Args, stem: &str) {
    // (architecture, width multiplier, label): the paper evaluates
    // MobileNetV2 at width multipliers 1.0 and 2.0.
    let models: Vec<(ModelKind, f64, String)> = match args.scale {
        Scale::Smoke => vec![
            (ModelKind::MobileNetV2, 1.0, "mobilenetv2".into()),
            (ModelKind::SENet18, 1.0, "senet18".into()),
        ],
        _ => ModelKind::FIG9
            .iter()
            .map(|m| (*m, 1.0, m.name().to_string()))
            .chain([(ModelKind::MobileNetV2, 2.0, "mobilenetv2-w2".into())])
            .collect(),
    };
    let mut results = Vec::new();
    for (model, width, label) in models {
        let mut spec = scaled_spec(DatasetSpec::mini_imagenet(), args.scale, args.seed);
        spec.model = model;
        spec.width = width;
        let curves = run_curves(&format!("fig9 {label}"), &spec, &STRONGEST);
        print_curves(&format!("Fig.9 {label}"), &curves, &[ACCURACY]);
        results.push(DnnResult {
            model: label,
            curves,
        });
    }
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct ParamResult {
    setting: String,
    curve: MethodCurve,
    retained_setting: String,
}

/// How much retained information each strategy needs — GEM storing
/// 10/20/50/100 % of samples, FedWEIT with all clients' vs only its own
/// adaptive weights, FedKNOW with ρ ∈ {5, 10, 20} % — on MiniImageNet +
/// ResNet-18.
fn fig10(args: &Args, stem: &str) {
    let mut settings: Vec<(String, Method, MethodConfig)> = Vec::new();
    for frac in [0.10, 0.20, 0.50, 1.00] {
        let cfg = MethodConfig {
            memory_fraction: frac,
            ..Default::default()
        };
        settings.push((format!("gem-{:.0}%", frac * 100.0), Method::Gem, cfg));
    }
    settings.push(("fedweit-all".into(), Method::FedWeit, Default::default()));
    settings.push(("fedweit-own".into(), Method::FedWeitOwn, Default::default()));
    for rho in [0.05, 0.10, 0.20] {
        let mut cfg = MethodConfig::default();
        cfg.fedknow.rho = rho;
        settings.push((format!("fedknow-{:.0}%", rho * 100.0), Method::FedKnow, cfg));
    }
    let mut spec = scaled_spec(DatasetSpec::mini_imagenet(), args.scale, args.seed);
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for (label, method, cfg) in settings {
        spec.method_cfg = cfg;
        let curve = run_one(&format!("fig10 {label}"), &spec, method);
        let seconds = *curve.cumulative_time.last().unwrap();
        rows.push((label.clone(), vec![curve.final_accuracy(), seconds]));
        results.push(ParamResult {
            setting: label.clone(),
            retained_setting: label,
            curve,
        });
    }
    print_table(
        "Fig.10 — final accuracy / training time (s) per setting",
        &["accuracy".into(), "seconds".into()],
        &rows,
    );
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct Improvement {
    dataset: String,
    /// Percentage improvement per task step.
    per_task_percent: Vec<f64>,
    /// Mean over all tasks.
    mean_percent: f64,
}

/// The per-task percentage accuracy improvement of FedKNOW over the
/// average of all 11 baselines, recomputed from the files Fig. 4 wrote
/// so the two artifacts stay consistent.
fn table1(args: &Args, stem: &str) {
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for ds in DatasetSpec::all_benchmarks() {
        let ds = ds.name;
        let path = args.results.join(format!("fig4_{ds}.json"));
        let Ok(raw) = std::fs::read_to_string(&path) else {
            eprintln!(
                "[table1] skipping {ds}: run `figures --fig 4` first ({} missing)",
                path.display()
            );
            continue;
        };
        let curves: Vec<MethodCurve> = serde_json::from_str(&raw).expect("parse fig4 JSON");
        let fedknow = curves
            .iter()
            .find(|c| c.method == "fedknow")
            .expect("fig4 results must include fedknow");
        let per_task: Vec<f64> = (0..fedknow.accuracy.len())
            .map(|t| {
                let baselines: Vec<f64> = curves
                    .iter()
                    .filter(|c| c.method != "fedknow")
                    .map(|c| c.accuracy[t])
                    .collect();
                percent_improvement(fedknow.accuracy[t], mean(&baselines))
            })
            .collect();
        rows.push((ds.clone(), per_task.clone()));
        out.push(Improvement {
            dataset: ds,
            mean_percent: mean(&per_task),
            per_task_percent: per_task,
        });
    }
    if out.is_empty() {
        eprintln!("[table1] no fig4 results found — nothing to do");
        std::process::exit(1);
    }
    let max_tasks = rows.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    let columns: Vec<String> = (1..=max_tasks).map(|t| format!("task{t}%")).collect();
    print_table(
        "Table I — % accuracy improvement of FedKNOW over baseline mean",
        &columns,
        &rows,
    );
    let overall = mean(&out.iter().map(|i| i.mean_percent).collect::<Vec<_>>());
    println!("\noverall mean improvement: {overall:.2}%");
    write_json(&args.results, stem, &out);
}

#[derive(Serialize)]
struct AblationResult {
    ablation: String,
    setting: String,
    curve: MethodCurve,
}

/// FedKNOW's design choices (the starred items in DESIGN.md): the
/// signature-task selection metric, the number of restored gradients k,
/// the knowledge-extraction strategy (§III-B extension), and the
/// post-aggregation gradient integration on vs off.
fn ablations(args: &Args, stem: &str) {
    use fedknow::ExtractionStrategy::{FilterL1, FilterL2, Magnitude};
    use fedknow_math::distance::DistanceMetric::{Cosine, Euclidean, Wasserstein};
    // Per-setting wall time and the aggregate phase shares come from
    // the obs layer's in-memory aggregator.
    fedknow_obs::enable();
    let obs_start = fedknow_obs::snapshot().expect("obs enabled");
    let base = scaled_spec(DatasetSpec::cifar100(), args.scale, args.seed);
    let mut settings: Vec<(&str, String, RunSpec)> = Vec::new();
    let mut setting = |ablation, label: &str, tweak: &dyn Fn(&mut fedknow::FedKnowConfig)| {
        let mut spec = base.clone();
        tweak(&mut spec.method_cfg.fedknow);
        settings.push((ablation, label.to_string(), spec));
    };
    for (label, metric) in [
        ("metric-wasserstein", Wasserstein),
        ("metric-cosine", Cosine),
        ("metric-euclidean", Euclidean),
    ] {
        setting("selection-metric", label, &|c| c.metric = metric);
    }
    for k in [1usize, 2, 5, 10] {
        setting("k", &format!("k={k}"), &|c| c.k = k);
    }
    for (label, strategy) in [
        ("extract-magnitude", Magnitude),
        ("extract-filter-l1", FilterL1),
        ("extract-filter-l2", FilterL2),
    ] {
        setting("extraction-strategy", label, &|c| c.strategy = strategy);
    }
    for (label, iters) in [("post-agg-on", 2usize), ("post-agg-off", 0)] {
        setting("post-aggregation-integration", label, &|c| {
            c.post_agg_iters = Some(iters)
        });
    }
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for (ablation, label, spec) in settings {
        let curve = {
            let _span = fedknow_obs::obs_span!("ablation-{label}");
            run_one(&format!("ablation {label}"), &spec, Method::FedKnow)
        };
        rows.push((
            label.clone(),
            vec![curve.final_accuracy(), *curve.forgetting.last().unwrap()],
        ));
        results.push(AblationResult {
            ablation: ablation.into(),
            setting: label,
            curve,
        });
    }
    print_table(
        "FedKNOW ablations — final accuracy / final forgetting",
        &["accuracy".into(), "forgetting".into()],
        &rows,
    );
    let diff = fedknow_obs::snapshot()
        .expect("obs enabled")
        .since(&obs_start);
    let wall_rows: Vec<(String, Vec<f64>)> = diff
        .hists
        .iter()
        .filter_map(|(name, h)| {
            let label = name.strip_prefix("span.ablation-")?.strip_suffix("_ns")?;
            Some((label.to_string(), vec![h.sum() as f64 / 1e9]))
        })
        .collect();
    print_table("ablation wall time", &["seconds".into()], &wall_rows);
    crate::print_phase_breakdown(&fedknow_fl::PhaseBreakdown::from_metrics(&diff));
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct SearchResult {
    method: String,
    lr: f64,
    lr_decrease: f64,
    rho: Option<f64>,
    k: Option<usize>,
    accuracy: f64,
}

/// Grid-search on the SVHN analogue (2 tasks × 5 classes) — learning
/// rate × decrease rate for every method, plus ρ × k for FedKNOW —
/// selecting by final average accuracy: the leakage-free methodology
/// the paper adopts from Gulrajani & Lopez-Paz.
fn hparams(args: &Args, stem: &str) {
    // The paper's lr grid {0.0005, 0.0008, 0.001, 0.005} is tuned to
    // natural images; the synthetic substrate needs proportionally
    // larger steps, same grid shape. ρ × k is the paper's:
    // ρ ∈ {5, 10, 20} %, k ∈ {5, 10, 20}.
    let (lrs, decs, rhos, ks): (&[f64], &[f64], &[f64], &[usize]) = match args.scale {
        Scale::Smoke => (&[0.05], &[1e-4], &[0.10], &[5]),
        _ => (
            &[0.01, 0.05, 0.1],
            &[1e-5, 1e-4],
            &[0.05, 0.10, 0.20],
            &[5, 10, 20],
        ),
    };
    let mut spec = scaled_spec(DatasetSpec::svhn(), args.scale, args.seed);
    let mut results: Vec<SearchResult> = Vec::new();
    // One grid point; `rho_k` is set when ρ × k is the axis searched.
    let mut point = |label: &str, method, cfg: MethodConfig, rho_k: Option<(f64, usize)>| {
        let (lr, lr_decrease) = (cfg.lr, cfg.lr_decrease);
        spec.method_cfg = cfg;
        let tag = format!("hp {label} lr={lr} dec={lr_decrease} rho,k={rho_k:?}");
        let accuracy = run_one(&tag, &spec, method).final_accuracy();
        eprintln!("[{tag}] acc={accuracy:.4}");
        results.push(SearchResult {
            method: label.to_string(),
            lr,
            lr_decrease,
            rho: rho_k.map(|(rho, _)| rho),
            k: rho_k.map(|(_, k)| k),
            accuracy,
        });
    };
    for method in [
        Method::FedKnow,
        Method::Gem,
        Method::FedWeit,
        Method::FedAvg,
    ] {
        for &lr in lrs {
            for &lr_decrease in decs {
                let cfg = MethodConfig {
                    lr,
                    lr_decrease,
                    ..Default::default()
                };
                point(method.name(), method, cfg, None);
            }
        }
    }
    for &rho in rhos {
        for &k in ks {
            let mut cfg = MethodConfig::default();
            cfg.fedknow.rho = rho;
            cfg.fedknow.k = k;
            point("fedknow-rho-k", Method::FedKnow, cfg, Some((rho, k)));
        }
    }
    // Report the winner per method.
    let mut best: std::collections::BTreeMap<&str, &SearchResult> = Default::default();
    for r in &results {
        let e = best.entry(&r.method).or_insert(r);
        if r.accuracy > e.accuracy {
            *e = r;
        }
    }
    let rows: Vec<(String, Vec<f64>)> = best
        .values()
        .map(|r| {
            (
                r.method.clone(),
                vec![r.lr, r.lr_decrease, r.rho.unwrap_or(f64::NAN), r.accuracy],
            )
        })
        .collect();
    print_table(
        "Hyper-parameter search winners (SVHN analogue)",
        &[
            "lr".into(),
            "decrease".into(),
            "rho".into(),
            "accuracy".into(),
        ],
        &rows,
    );
    write_json(&args.results, stem, &results);
}

#[derive(Serialize)]
struct ConvergenceResult {
    schedule: String,
    window_losses: Vec<f64>,
    converged: bool,
}

/// Theorem 1: FedKNOW converges when the local learning rate decays at
/// O(r^{-1/2}) and the global rate at O(r^{-1}). A single client trains
/// one task under three schedules — a decaying one, a small constant
/// and an aggressive constant rate — and the per-window mean loss is
/// reported; the decaying schedule must converge, the aggressive
/// constant rate shows the contrast.
fn convergence(args: &Args, stem: &str) {
    use fedknow::{FedKnowClient, FedKnowConfig};
    use fedknow_fl::FclClient;
    let iters = match args.scale {
        Scale::Smoke => 60usize,
        Scale::Quick => 200,
        Scale::Paper => 1000,
    };
    let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(1);
    let data = fedknow_data::generate::generate(&spec, args.seed);
    let parts = fedknow_data::partition(&data, 1, &Default::default(), args.seed);
    let template =
        fedknow_fl::ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, args.seed);
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for (label, local_lr, lr_decrease) in [
        ("theorem1 (decaying)", 0.08, 1e-2),
        ("constant small", 0.05, 0.0),
        ("constant aggressive", 0.6, 0.0),
    ] {
        let cfg = FedKnowConfig {
            local_lr,
            lr_decrease,
            ..Default::default()
        };
        let mut client = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
        let mut rng = fedknow_math::rng::seeded(args.seed);
        client.start_task(&parts[0].tasks[0], &mut rng);
        let losses: Vec<f64> = (0..iters)
            .map(|_| client.train_iteration(&mut rng).loss)
            .collect();
        let windows: Vec<f64> = losses.chunks(iters / 10).map(mean).collect();
        let (first, last) = (windows[0], windows[windows.len() - 1]);
        // Converged: the last window is finite and far below the first.
        let converged = last.is_finite() && last < 0.5 * first;
        println!(
            "[convergence] {label}: first window {first:.4}, last window {last:.4}, \
             converged = {converged}"
        );
        rows.push((label.to_string(), windows.clone()));
        results.push(ConvergenceResult {
            schedule: label.to_string(),
            window_losses: windows,
            converged,
        });
    }
    let columns: Vec<String> = (1..=rows[0].1.len()).map(|w| format!("w{w}")).collect();
    print_table(
        "Theorem 1 empirical check — mean loss per window",
        &columns,
        &rows,
    );
    write_json(&args.results, stem, &results);
}

/// One (method, fault-rate) cell of the resilience sweep.
#[derive(Serialize)]
struct ResilienceRow {
    method: String,
    fault_rate: f64,
    final_accuracy: f64,
    final_forgetting: f64,
    /// Accuracy lost vs the same method's fault-free run (positive =
    /// worse under faults).
    degradation: f64,
    comm_seconds: f64,
    total_bytes: u64,
    crashes: u64,
    rejoins: u64,
    lost_uploads: u64,
    retries: u64,
    deadline_misses: u64,
    rejected_uploads: u64,
}

/// FedKNOW vs FedAvg under growing fault pressure: the crash/upload-loss
/// rate swept from 0 % to 30 % at a fixed seed — how final accuracy,
/// forgetting and communication time degrade, plus each run's fault
/// census. `--transport` realises the faults on a wire. The fault-free
/// FedKNOW run also feeds the regression gate: a resilience-protocol
/// change that costs clean-run accuracy shows up there.
fn resilience(args: &Args, stem: &str) {
    const METHODS: [Method; 2] = [Method::FedKnow, Method::FedAvg];
    let rates: &[f64] = match args.scale {
        Scale::Smoke => &[0.0, 0.3],
        _ => &[0.0, 0.1, 0.2, 0.3],
    };
    let base = scaled_spec(DatasetSpec::cifar100(), args.scale, args.seed);
    // Fast AGX down to Nano, so the deadline and straggler machinery has
    // a spread to bite on.
    let devices = shrunk_cluster(base.num_clients);
    let mut rows: Vec<ResilienceRow> = Vec::new();
    for method in METHODS {
        let mut clean_accuracy = 0.0;
        for &rate in rates {
            let spec = base.clone().with_faults(FaultConfig::crash_loss(rate));
            let label = format!("{stem} @ {:.0}% crash/loss", 100.0 * rate);
            let (report, wall) = run_reports(
                &label,
                &spec,
                None,
                &[method],
                devices.clone(),
                args.transport,
            )
            .remove(0);
            let last = report.accuracy.num_tasks() - 1;
            let final_accuracy = report.accuracy.avg_accuracy_after(last);
            if rate == 0.0 {
                clean_accuracy = final_accuracy;
                if method == Method::FedKnow {
                    let scale = args.scale.name();
                    BenchRecord::from_report(stem, scale, args.seed, &report, wall)
                        .write(&args.results);
                }
            }
            let count = |kind| report.fault_count(kind) as u64;
            rows.push(ResilienceRow {
                method: report.method.clone(),
                fault_rate: rate,
                final_accuracy,
                final_forgetting: report.accuracy.avg_forgetting_after(last),
                degradation: clean_accuracy - final_accuracy,
                comm_seconds: report.task_comm_seconds.iter().sum(),
                total_bytes: report.total_bytes,
                crashes: count(FaultKind::Crash),
                rejoins: count(FaultKind::Rejoin),
                lost_uploads: count(FaultKind::UploadLost),
                retries: count(FaultKind::UploadRetry),
                deadline_misses: count(FaultKind::DeadlineMiss),
                rejected_uploads: count(FaultKind::UploadRejected),
            });
        }
    }
    let columns: Vec<String> = rates.iter().map(|r| format!("{:.0}%", 100.0 * r)).collect();
    // `rows` is method-major: one chunk of `rates.len()` cells per method.
    let table = |title: &str, field: fn(&ResilienceRow) -> f64| {
        let per_method = rows.chunks(rates.len());
        let lines: Vec<(String, Vec<f64>)> = per_method
            .map(|cells| (cells[0].method.clone(), cells.iter().map(field).collect()))
            .collect();
        print_table(&format!("Resilience — {title}"), &columns, &lines);
    };
    table("final accuracy vs fault rate", |r| r.final_accuracy);
    table("accuracy degradation vs fault-free", |r| r.degradation);
    table("comm seconds (retries + backoff charged)", |r| {
        r.comm_seconds
    });
    for r in rows.iter().filter(|r| r.fault_rate > 0.0) {
        println!(
            "[faults] {} @ {:.0}%: {} crashes, {} rejoins, {} lost uploads, \
             {} retries, {} deadline misses, {} quarantined",
            r.method,
            100.0 * r.fault_rate,
            r.crashes,
            r.rejoins,
            r.lost_uploads,
            r.retries,
            r.deadline_misses,
            r.rejected_uploads
        );
    }
    write_json(&args.results, stem, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_stem_names_a_committed_results_file() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|&(id, ..)| id).collect();
        let position = |id| ids.iter().position(|&i| i == id);
        assert!(position("4") < position("t1"), "t1 reads what 4 wrote");
        for &(id, stem, _) in &FIGURES {
            let per_dataset = if matches!(id, "4" | "4h") {
                "_cifar100"
            } else {
                ""
            };
            // Unit tests run in the crate's directory, two below the root.
            let file = format!("../../results/{stem}{per_dataset}.json");
            let file = std::path::Path::new(&file);
            assert!(file.exists(), "--fig {id}: {} missing", file.display());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate --fig id");
    }

    #[test]
    fn shrunk_cluster_truncates_and_pads() {
        assert_eq!(shrunk_cluster(2).len(), 2);
        let six = shrunk_cluster(6);
        assert_eq!(six.len(), 6);
        assert_eq!(six[3].name, DeviceProfile::jetson_nano().name);
        assert_eq!(six[5].name, DeviceProfile::jetson_nx().name);
    }
}
