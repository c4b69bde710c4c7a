//! Telemetry-at-scale probe: drives synthetic per-client telemetry
//! through the observability registry at million-client-round rates and
//! proves the bounded-memory contract.
//!
//! ```text
//! scale_probe [--smoke] [--clients N] [--rounds N] [--seed N]
//!             [--legacy] [--results DIR]
//!             [--max-rss-mb M] [--max-telemetry-kb K]
//! ```
//!
//! Each round, every synthetic client gets a deterministic heavy-tailed
//! compute time which is fed through the full production path: a
//! sampled [`fedknow_obs::client_span`], a cohorted
//! [`fedknow_obs::client_value`], fault/loss/quarantine draws, and one
//! [`fedknow_obs::observe_round`] fold into the sketches and the
//! streaming health engine. Afterwards the probe measures:
//!
//! * **peak RSS** (`VmHWM`) — must stay under `--max-rss-mb`;
//! * **telemetry bytes** — the serialized [`fedknow_obs::MetricsDump`]
//!   of everything the registry holds, which must stay under
//!   `--max-telemetry-kb` *regardless of client count*: cohorting
//!   keeps it O(cohorts + capped names), not O(clients);
//! * **throughput** — synthetic client-rounds folded per wall second.
//!
//! `--legacy` re-creates the pre-cohorting telemetry shape (one
//! histogram per client, name cap raised to fit) to measure the
//! bytes/client the governor saves — the "before" column of the DESIGN
//! table. Legacy runs print the measurement but skip budgets and the
//! bench record.
//!
//! Normal runs distil into `results/BENCH_scale.json` through the usual
//! rotation machinery; `bench_gate` then diffs peak RSS, telemetry
//! bytes/client, and throughput against the previous record. The probe
//! shape (`clients x rounds`) is part of each metric's name, so a
//! reshaped probe is a different experiment and is skipped, not failed.
//!
//! Exit status: 0 on success, 1 when a budget is exceeded, 2 on usage
//! errors.

use fedknow_bench::{
    peak_rss_bytes, results_dir, write_bench_record, BenchRecord, Better, Metric, Tol,
};
use fedknow_obs::{MetricsDump, RoundObservation, SloState};
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    smoke: bool,
    clients: u64,
    rounds: u64,
    seed: u64,
    legacy: bool,
    results: PathBuf,
    max_rss_mb: u64,
    max_telemetry_kb: u64,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        smoke: false,
        clients: 0,
        rounds: 0,
        seed: 42,
        legacy: false,
        results: results_dir(),
        max_rss_mb: 1024,
        max_telemetry_kb: 4096,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => o.smoke = true,
            "--legacy" => o.legacy = true,
            "--clients" => {
                i += 1;
                o.clients = parse_u64(&argv, i, "--clients");
            }
            "--rounds" => {
                i += 1;
                o.rounds = parse_u64(&argv, i, "--rounds");
            }
            "--seed" => {
                i += 1;
                o.seed = parse_u64(&argv, i, "--seed");
            }
            "--max-rss-mb" => {
                i += 1;
                o.max_rss_mb = parse_u64(&argv, i, "--max-rss-mb");
            }
            "--max-telemetry-kb" => {
                i += 1;
                o.max_telemetry_kb = parse_u64(&argv, i, "--max-telemetry-kb");
            }
            "--results" => {
                i += 1;
                o.results = PathBuf::from(
                    argv.get(i)
                        .unwrap_or_else(|| usage("--results expects DIR")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if o.clients == 0 {
        o.clients = if o.smoke { 20_000 } else { 100_000 };
    }
    if o.rounds == 0 {
        o.rounds = if o.smoke { 3 } else { 5 };
    }
    o
}

fn parse_u64(argv: &[String], i: usize, flag: &str) -> u64 {
    argv.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} expects an integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: scale_probe [--smoke] [--clients N] [--rounds N] [--seed N] \
         [--legacy] [--results DIR] [--max-rss-mb M] [--max-telemetry-kb K]"
    );
    std::process::exit(2)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a hash draw.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One client's synthetic compute seconds this round: a heavy-tailed
/// base (exp of a sum-of-uniforms pseudo-normal) with a deterministic
/// 2% straggler population slowed 4-8x.
fn compute_seconds(seed: u64, round: u64, client: u64) -> (f64, bool) {
    let h = splitmix64(seed ^ (round << 40) ^ client);
    let z = unit(h) + unit(splitmix64(h)) + unit(splitmix64(h ^ 1)) - 1.5; // ~N(0, 0.5)
    let base = 0.5 * (0.6 * z).exp();
    let straggler = splitmix64(h ^ 2) % 1000 < 20;
    let slow = if straggler {
        4.0 + 4.0 * unit(splitmix64(h ^ 3))
    } else {
        1.0
    };
    (base * slow, straggler)
}

fn main() {
    let opts = parse_opts();
    if opts.legacy {
        // Pre-cohorting telemetry kept one histogram per client; raise
        // the name cap so the probe measures that shape, not the
        // governor truncating it.
        std::env::set_var(
            fedknow_obs::ENV_MAX_NAMES,
            (opts.clients + 1024).to_string(),
        );
    }
    fedknow_obs::enable();
    fedknow_obs::init_from_env();
    if std::env::var_os(fedknow_obs::ENV_SPAN_SAMPLE).is_none() && opts.clients > 256 {
        fedknow_obs::set_span_sample(opts.clients / 256);
    }
    eprintln!(
        "[scale_probe] {} clients x {} rounds, {} telemetry, {} cohorts, span 1-in-{}",
        opts.clients,
        opts.rounds,
        if opts.legacy { "legacy" } else { "cohorted" },
        fedknow_obs::cohort_count(),
        fedknow_obs::span_sample_rate(),
    );

    let started = Instant::now();
    for round in 0..opts.rounds {
        fedknow_obs::set_round(round);
        let mut stragglers = 0u64;
        let mut lost = 0u64;
        let mut quarantined = 0u64;
        let mut crashed = 0u64;
        let mut round_seconds = 0.0f64;
        for client in 0..opts.clients {
            let h = splitmix64(opts.seed ^ (round << 20) ^ (client << 1) ^ 0xabcd);
            if h % 1000 < 5 {
                crashed += 1;
                fedknow_obs::fault(client, "crash", 0);
                continue;
            }
            let (secs, straggler) = compute_seconds(opts.seed, round, client);
            stragglers += straggler as u64;
            round_seconds = round_seconds.max(secs);
            {
                let _span = fedknow_obs::client_span(client);
                if opts.legacy {
                    // The old shape: one metric name per client.
                    fedknow_obs::record(&format!("span.client.{client}_ns"), (secs * 1e9) as u64);
                } else {
                    fedknow_obs::client_value("client.compute_s", client, secs);
                }
            }
            if splitmix64(h) % 1000 < 10 {
                lost += 1;
                fedknow_obs::count("fl.uploads_lost", 1);
            } else if splitmix64(h ^ 7) % 1000 < 2 {
                quarantined += 1;
                fedknow_obs::count("fl.uploads_rejected", 1);
            }
        }
        fedknow_obs::observe_round(&RoundObservation {
            round,
            expected: opts.clients,
            completed: opts.clients - crashed - lost - quarantined,
            stragglers,
            quarantined,
            uploads_lost: lost,
            round_seconds,
        });
    }
    let wall = started.elapsed().as_secs_f64();
    fedknow_obs::flush();

    let snap = fedknow_obs::snapshot().expect("obs enabled");
    let dump = MetricsDump::from_snapshot(&snap);
    let telemetry_bytes = serde_json::to_string(&dump).expect("dump serialises").len() as u64;
    let rss = peak_rss_bytes();
    let total = opts.clients * opts.rounds;
    let rate = if wall > 0.0 { total as f64 / wall } else { 0.0 };
    let per_client = telemetry_bytes as f64 / opts.clients as f64;
    let health = fedknow_obs::health_snapshot().expect("obs enabled");

    println!("\n== scale_probe ==");
    println!("{:<26}{:>14}", "clients/round", opts.clients);
    println!("{:<26}{:>14}", "rounds", opts.rounds);
    println!("{:<26}{:>14.2}", "wall seconds", wall);
    println!("{:<26}{:>14.0}", "client-rounds/sec", rate);
    println!("{:<26}{:>14}", "peak RSS bytes", rss);
    println!("{:<26}{:>14}", "telemetry bytes", telemetry_bytes);
    println!("{:<26}{:>14.2}", "telemetry bytes/client", per_client);
    println!(
        "{:<26}{:>14}",
        "metric names",
        snap.counters.len() + snap.gauges.len() + snap.hists.len() + snap.series.len()
    );
    println!(
        "{:<26}{:>14}",
        "name overflows",
        snap.counters.get("obs.name_overflow").copied().unwrap_or(0)
    );
    println!("{:<26}{:>14}", "health rounds", health.rounds);
    println!("{:<26}{:>14?}", "health worst", health.worst());
    for slo in &health.slos {
        println!("  slo {:<20}{:>10.4}  {:?}", slo.name, slo.value, slo.state);
    }

    if opts.legacy {
        println!("[scale_probe] legacy measurement only: budgets and bench record skipped");
        return;
    }

    // The health engine must have folded every round, and a probe this
    // fault-light must not sit at Critical.
    assert_eq!(health.rounds, opts.rounds, "health engine missed rounds");
    assert_ne!(
        health.worst(),
        SloState::Critical,
        "synthetic probe tripped a critical SLO: {health:?}"
    );

    let mut failed = false;
    if rss > opts.max_rss_mb * 1024 * 1024 {
        eprintln!(
            "[scale_probe] FAILED: peak RSS {} bytes exceeds budget {} MiB",
            rss, opts.max_rss_mb
        );
        failed = true;
    }
    if telemetry_bytes > opts.max_telemetry_kb * 1024 {
        eprintln!(
            "[scale_probe] FAILED: telemetry {} bytes exceeds budget {} KiB \
             (memory is no longer O(cohorts + capped names))",
            telemetry_bytes, opts.max_telemetry_kb
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "[scale_probe] budgets OK: RSS <= {} MiB, telemetry <= {} KiB",
        opts.max_rss_mb, opts.max_telemetry_kb
    );

    // RSS (allocator noise) and throughput (shared runners) get
    // generous tolerances; bytes/client is deterministic for a fixed
    // cohort/name configuration and is held tighter.
    let shape = format!("[{}x{}]", opts.clients, opts.rounds);
    let metric = |name: &str, value, unit, better, tol| {
        Metric::new(
            format!("{name} {shape}"),
            value,
            unit,
            better,
            Tol::Rel(tol),
        )
    };
    let metrics = vec![
        metric("peak_rss_bytes", rss as f64, "bytes", Better::Lower, 0.5),
        metric(
            "telemetry_b_per_client",
            per_client,
            "bytes",
            Better::Lower,
            0.25,
        ),
        metric("clients_per_sec", rate, "1/s", Better::Higher, 0.6),
    ];
    let scale = if opts.smoke { "smoke" } else { "quick" };
    let rec = BenchRecord::new("scale", scale, opts.seed, metrics);
    write_bench_record(&opts.results, &rec);
}
