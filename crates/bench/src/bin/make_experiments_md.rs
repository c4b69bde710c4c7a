//! Generate EXPERIMENTS.md from the figure files of a full campaign:
//! `make_experiments_md [--results DIR]`.
//!
//! Run the whole `figures` driver first (any scale) with the same
//! `--results DIR`; this records paper-vs-measured for every table and
//! figure and writes `EXPERIMENTS.md` beside `DIR`. A figure file that
//! is missing or is not JSON is exit 2, naming it.

use fedknow_bench::{flags_only, results_flag};
use serde_json::Value;
use std::fmt::Write as _;

const USAGE: &str = "make_experiments_md [--results DIR]";

/// The five benchmarks of Figs. 4 and 5, in the paper's order.
const DATASETS: [&str; 5] = [
    "cifar100",
    "fc100",
    "core50",
    "miniimagenet",
    "tinyimagenet",
];

fn fmt_curve(v: &Value) -> String {
    v.as_array()
        .map(|a| {
            a.iter()
                .map(|x| format!("{:.3}", x.as_f64().unwrap_or(f64::NAN)))
                .collect::<Vec<_>>()
                .join(" → ")
        })
        .unwrap_or_default()
}

fn final_of(v: &Value) -> f64 {
    v.as_array()
        .and_then(|a| a.last())
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let results = flags_only(&argv, USAGE)
        .and_then(|()| results_flag(&argv))
        .unwrap_or_else(|e| fedknow_bench::usage(USAGE, &e));
    let load = |name: &str| -> Value {
        let path = results.join(format!("{name}.json"));
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|raw| serde_json::from_str(&raw).map_err(|e| e.to_string()));
        parsed.unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2)
        })
    };
    let mut md = String::new();
    md.push_str(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `make_experiments_md` from `results/*.json` (re-run the\n\
         per-figure binaries and then this one to refresh). The substrate is a\n\
         synthetic reproduction (see DESIGN.md's substitution table), so the\n\
         comparison targets each result's *shape* — who wins, in which\n\
         direction, with what growth — not absolute numbers from the authors'\n\
         physical testbed.\n\n",
    );

    // ---- Fig. 4 ----
    md.push_str("## Figure 4 — accuracy & training time, 12 methods × 5 benchmarks\n\n");
    md.push_str(
        "**Paper:** FedKNOW reaches the highest accuracy in all settings; FL-only\n\
         baselines converge fastest but forget; accuracy decreases with task count\n\
         for every method.\n\n**Measured (final avg accuracy after the last task):**\n\n",
    );
    md.push_str("| dataset | fedknow | best baseline | baseline mean | fedknow rank |\n");
    md.push_str("|---|---|---|---|---|\n");
    for ds in DATASETS {
        let v = load(&format!("fig4_{ds}"));
        let curves = v.as_array().unwrap();
        let mut finals: Vec<(String, f64)> = curves
            .iter()
            .map(|c| {
                (
                    c["method"].as_str().unwrap().to_string(),
                    final_of(&c["accuracy"]),
                )
            })
            .collect();
        let fk = finals
            .iter()
            .find(|(m, _)| m == "fedknow")
            .map(|(_, a)| *a)
            .unwrap_or(0.0);
        let baselines: Vec<f64> = finals
            .iter()
            .filter(|(m, _)| m != "fedknow")
            .map(|(_, a)| *a)
            .collect();
        let best = baselines.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = baselines.iter().sum::<f64>() / baselines.len() as f64;
        finals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let rank = finals.iter().position(|(m, _)| m == "fedknow").unwrap() + 1;
        let _ = writeln!(md, "| {ds} | {fk:.3} | {best:.3} | {mean:.3} | {rank}/12 |");
    }
    md.push('\n');

    // ---- Fig. 4 hetero ----
    md.push_str("## Figure 4(d–f) — heterogeneous cluster (+Raspberry Pis)\n\n");
    md.push_str(
        "**Paper:** Raspberry Pis slow training ~12×; FedWEIT's growing knowledge\n\
         OOMs the 2 GB RPi after 7 tasks; FedKNOW stays highest-accuracy.\n\n\
         **Measured (cumulative time of final task, s / dropouts):**\n\n\
         | dataset | method | final acc | total time (s) | dropouts |\n|---|---|---|---|---|\n",
    );
    for ds in ["cifar100", "fc100", "core50"] {
        let v = load(&format!("fig4_hetero_{ds}"));
        for c in v.as_array().unwrap() {
            let _ = writeln!(
                md,
                "| {ds} | {} | {:.3} | {:.1} | {} |",
                c["method"].as_str().unwrap(),
                final_of(&c["accuracy"]),
                final_of(&c["cumulative_time"]),
                c["dropouts"]
            );
        }
    }
    md.push('\n');

    // ---- Table I ----
    let v = load("table1_improvement");
    md.push_str("## Table I — % accuracy improvement over the 11-baseline mean\n\n");
    md.push_str(
        "**Paper:** improvement grows with the task index (10.21 % at task 1 up\n\
         to 98.72 %), averaging 63.24 % across cases.\n\n**Measured:**\n\n\
         | dataset | per-task % | mean % |\n|---|---|---|\n",
    );
    let mut means = Vec::new();
    for d in v.as_array().unwrap() {
        let mean = d["mean_percent"].as_f64().unwrap_or(f64::NAN);
        means.push(mean);
        let _ = writeln!(
            md,
            "| {} | {} | {:.2} |",
            d["dataset"].as_str().unwrap(),
            fmt_curve(&d["per_task_percent"]),
            mean
        );
    }
    let overall = means.iter().sum::<f64>() / means.len().max(1) as f64;
    let _ = writeln!(md, "\nOverall mean improvement: **{overall:.2} %**.\n");

    // ---- Fig. 5 ----
    let v = load("fig5_comm_workloads");
    md.push_str("## Figure 5 — communication time per workload\n\n");
    md.push_str(
        "**Paper:** FedKNOW cuts communication time ~34.28 % vs FedWEIT on every\n\
         workload (FedWEIT circulates all clients' adaptive weights).\n\n\
         **Measured:**\n\n| dataset | fedknow (s) | fedweit (s) | saving |\n|---|---|---|---|\n",
    );
    let arr = v.as_array().unwrap();
    for ds in DATASETS {
        let get = |m: &str| {
            arr.iter()
                .find(|r| r["dataset"] == ds && r["method"] == m)
                .and_then(|r| r["comm_seconds"].as_f64())
        };
        if let (Some(fk), Some(fw)) = (get("fedknow"), get("fedweit")) {
            let _ = writeln!(
                md,
                "| {ds} | {fk:.3} | {fw:.3} | {:.1} % |",
                (fw - fk) / fw * 100.0
            );
        }
    }
    md.push('\n');

    // ---- Fig. 6 ----
    let v = load("fig6_comm_bandwidth");
    md.push_str("## Figure 6 — communication time vs bandwidth (50 KB/s – 10 MB/s)\n\n");
    md.push_str(
        "**Paper:** FedKNOW consistently below FedWEIT; the gap widens as\n\
         bandwidth tightens (up to ~10 h saved at 50 KB/s).\n\n**Measured\n\
         (comm seconds at the sweep's extremes):**\n\n\
         | model | method | @50 KB/s | @10 MB/s |\n|---|---|---|---|\n",
    );
    for c in v.as_array().unwrap() {
        let secs = c["comm_seconds"].as_array().unwrap();
        let _ = writeln!(
            md,
            "| {} | {} | {:.1} | {:.3} |",
            c["model"].as_str().unwrap(),
            c["method"].as_str().unwrap(),
            secs[0].as_f64().unwrap(),
            secs[secs.len() - 1].as_f64().unwrap()
        );
    }
    md.push('\n');

    // ---- Fig. 7 ----
    let v = load("fig7_tasks80");
    md.push_str("## Figure 7 — long task stream (combined benchmark)\n\n");
    md.push_str(
        "**Paper:** over 80 tasks, FedKNOW keeps the highest accuracy; all\n\
         methods' accuracy declines and forgetting grows with the stream.\n\n\
         **Measured:**\n\n| method | accuracy curve | final forgetting |\n|---|---|---|\n",
    );
    for c in v.as_array().unwrap() {
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} |",
            c["method"].as_str().unwrap(),
            fmt_curve(&c["accuracy"]),
            final_of(&c["forgetting"])
        );
    }
    md.push('\n');

    // ---- Fig. 8 ----
    let v = load("fig8_clients");
    md.push_str("## Figure 8 — client scalability\n\n");
    md.push_str(
        "**Paper:** with 50 and 100 clients FedKNOW has the highest accuracy and\n\
         lowest forgetting; more clients → stronger non-IID → more negative\n\
         transfer.\n\n**Measured:**\n\n\
         | clients | method | final acc | final forgetting |\n|---|---|---|---|\n",
    );
    for scale in v.as_array().unwrap() {
        let n = scale["num_clients"].as_u64().unwrap();
        for c in scale["curves"].as_array().unwrap() {
            let _ = writeln!(
                md,
                "| {n} | {} | {:.3} | {:.3} |",
                c["method"].as_str().unwrap(),
                final_of(&c["accuracy"]),
                final_of(&c["forgetting"])
            );
        }
    }
    md.push('\n');

    // ---- Fig. 9 ----
    let v = load("fig9_dnns");
    md.push_str("## Figure 9 — eight DNN architectures\n\n");
    md.push_str(
        "**Paper:** FedKNOW has the highest accuracy on every architecture;\n\
         FedWEIT suffers most on compact networks; larger models reach higher\n\
         accuracy.\n\n**Measured (final accuracy):**\n\n\
         | model | gem | fedweit | fedknow |\n|---|---|---|---|\n",
    );
    for m in v.as_array().unwrap() {
        let curves = m["curves"].as_array().unwrap();
        let get = |name: &str| {
            curves
                .iter()
                .find(|c| c["method"] == name)
                .map(|c| final_of(&c["accuracy"]))
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.3} | {:.3} |",
            m["model"].as_str().unwrap(),
            get("gem"),
            get("fedweit"),
            get("fedknow")
        );
    }
    md.push('\n');

    // ---- Fig. 10 ----
    let v = load("fig10_params");
    md.push_str("## Figure 10 — knowledge-retention settings\n\n");
    md.push_str(
        "**Paper:** less retained information → lower accuracy in every method;\n\
         GEM's training time grows steeply with its sample fraction while\n\
         FedKNOW's barely moves across ρ ∈ {5, 10, 20} %.\n\n**Measured:**\n\n\
         | setting | final acc | total time (s) |\n|---|---|---|\n",
    );
    for r in v.as_array().unwrap() {
        let c = &r["curve"];
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.1} |",
            r["setting"].as_str().unwrap(),
            final_of(&c["accuracy"]),
            final_of(&c["cumulative_time"])
        );
    }
    md.push('\n');

    // ---- Ablations ----
    let v = load("ablations");
    md.push_str("## Ablations (beyond the paper)\n\n");
    md.push_str("| ablation | setting | final acc | final forgetting |\n|---|---|---|---|\n");
    for r in v.as_array().unwrap() {
        let c = &r["curve"];
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} | {:.3} |",
            r["ablation"].as_str().unwrap(),
            r["setting"].as_str().unwrap(),
            final_of(&c["accuracy"]),
            final_of(&c["forgetting"])
        );
    }
    md.push('\n');

    // ---- Convergence ----
    let v = load("convergence_check");
    md.push_str("## Theorem 1 — empirical convergence check\n\n");
    md.push_str(
        "**Paper (§IV):** FedKNOW converges when the local rate decays at\n\
         O(r^-1/2) and the global rate at O(r^-1).\n\n**Measured (mean loss per\n\
         training window):**\n\n| schedule | loss windows | converged |\n|---|---|---|\n",
    );
    for r in v.as_array().unwrap() {
        let _ = writeln!(
            md,
            "| {} | {} | {} |",
            r["schedule"].as_str().unwrap(),
            fmt_curve(&r["window_losses"]),
            r["converged"]
        );
    }
    md.push('\n');

    md.push_str(
        "## Known divergences from the paper\n\n\
         * **Forgetting-rate ordering (Figs. 7–8 right panels).** FedKNOW's\n\
           *accuracy* is the highest across long streams, matching the paper, but\n\
           its *relative* forgetting rate measures above GEM/FedWEIT here: those\n\
           baselines peak lower (their per-task accuracy right after learning is\n\
           smaller), which deflates their relative drop, and our FedWEIT evaluates\n\
           task-conditioned (base + retained adaptive), making its retention nearly\n\
           lossless on synthetic prototype data. The paper's absolute retention\n\
           claim — FedKNOW keeps the most accuracy over the stream — reproduces.\n\
         * **FedWEIT's rank on the 6-layer-CNN benchmarks.** Our FedWEIT\n\
           computes each task's adaptive weights as a post-hoc top-q compression\n\
           of the local/global difference — strictly *stronger* retention than\n\
           the published L1-trained sparsity — and the synthetic prototype data\n\
           rewards per-task personal snapshots. It therefore edges out FedKNOW\n\
           on some CNN benchmarks, where the paper has FedKNOW first; on the\n\
           ResNet benchmarks (Fig. 4(g,h), Fig. 9) FedKNOW's lead reproduces,\n\
           including FedWEIT's decomposition weakness on downsample-style\n\
           layers.\n\
         * **Figure 10 (ρ trend).** The paper reports ρ = 10 % ≥ 5 %; on the\n\
           synthetic substrate larger ρ mainly strengthens the distillation\n\
           constraints (teacher ≈ final task model), which restricts plasticity\n\
           before it improves retention, so the accuracy-vs-ρ trend is flat to\n\
           slightly negative. The time trend (FedKNOW flat across ρ, GEM steep in\n\
           its sample fraction) reproduces.\n\
         * Absolute accuracies/times are not comparable to the paper's (synthetic\n\
           data, CPU substrate, reduced scale); all comparisons above are within-\n\
           run shapes.\n",
    );

    let path = results.join("../EXPERIMENTS.md");
    if let Err(e) = std::fs::write(&path, md) {
        eprintln!("error: {} not written: {e}", path.display());
        std::process::exit(2);
    }
    println!("[written] {}", path.display());
}
