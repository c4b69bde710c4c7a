//! Roofline microbenchmark of the instrumented hot kernels.
//!
//! ```text
//! kernel_bench [--smoke] [--seed N] [--reps K] [--results DIR]
//! ```
//!
//! For each representative kernel/shape pair (the shapes the Fig. 4 and
//! Fig. 9 models actually run), the binary:
//!
//! 1. **cross-checks the FLOP model** — one instrumented invocation is
//!    diffed against the `flops.<kernel>` / `bytes.<kernel>` registry
//!    counters, and (for matmul / conv2d) against the verify oracle's
//!    instrumented loop-trip counts, so the numbers below can only be
//!    produced by a model that agrees with both the production wiring
//!    and the reference loops;
//! 2. **times a min-of-k sweep** (`--reps`, default 15, `--smoke` 5)
//!    and reports achieved GFLOP/s and arithmetic intensity.
//!
//! It then times every layer of the SixCnn, forward and backward, inside
//! one batch-12 training step (the `cnn_*` ladder workloads' step) and
//! prints the per-layer µs table — where a train step's time goes beside
//! what its kernels could deliver. Those rows are `Info` metrics.
//!
//! The run is distilled into `BENCH_kernels.json` under `--results DIR`
//! (default `results`) — one `gflops <kernel> [<shape>]` metric per
//! point — so `bench_gate` diffs each kernel's throughput against the
//! committed record; the roofline detail (`flops`, `bytes`, `min_ns`,
//! intensity) goes to `kernels.json` beside it for `obs roofline`.
//!
//! Exit status: 0 on success, 1 when a cross-check fails, 2 on usage
//! errors.

use fedknow_bench::{
    flag, flag_with, flags_only, results_flag, write_json, BenchRecord, Better, KernelEntry,
    Metric, Tol,
};
use fedknow_math::flops::{self, Cost};
use fedknow_math::qp::{integrate_gradient, QpConfig};
use fedknow_math::rng::normal_vec;
use fedknow_math::{distance, Tensor};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::models::six_cnn_layers;
use fedknow_nn::Layer;
use fedknow_verify::oracle::{self, ConvSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    smoke: bool,
    seed: u64,
    reps: usize,
    results: PathBuf,
}

const USAGE: &str = "kernel_bench [--smoke] [--seed N] [--reps K] [--results DIR]";

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    flags_only(&argv, USAGE)?;
    let smoke = argv.iter().any(|a| a == "--smoke");
    Ok(Opts {
        smoke,
        seed: flag(&argv, "--seed")?.unwrap_or(42),
        reps: flag_with(&argv, "--reps", |s| s.parse().ok().filter(|&k| k > 0))?
            .unwrap_or(if smoke { 5 } else { 15 }),
        results: results_flag(&argv)?,
    })
}

/// Deterministic pseudo-random values in roughly `[-0.5, 0.5)` — the
/// kernels' timing is value-independent, this just avoids denormals and
/// trivially-zero inputs.
fn vals(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt * 977);
            ((x % 1000) as f32) / 1000.0 - 0.5
        })
        .collect()
}

/// Per-invocation `flops.<kernel>` / `bytes.<kernel>` counter delta
/// around one call of `f` — what the production instrumentation
/// actually charged.
fn counted_invocation(kernel: &str, mut f: impl FnMut()) -> (u64, u64) {
    let before = fedknow_obs::snapshot().expect("obs enabled");
    f();
    let delta = fedknow_obs::snapshot().expect("obs enabled").since(&before);
    (
        delta
            .counters
            .get(&format!("flops.{kernel}"))
            .copied()
            .unwrap_or(0),
        delta
            .counters
            .get(&format!("bytes.{kernel}"))
            .copied()
            .unwrap_or(0),
    )
}

/// Fastest of `warmup + reps` invocations, nanoseconds.
fn min_of_k(reps: usize, mut f: impl FnMut()) -> u64 {
    min_of_k_with(reps, || (), |()| f())
}

/// [`min_of_k`] for an `f` that consumes its argument: `setup` builds one
/// per invocation, outside the timed region.
fn min_of_k_with<T>(reps: usize, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> u64 {
    f(setup());
    f(setup());
    let mut best = u64::MAX;
    for _ in 0..reps {
        let arg = setup();
        let t = Instant::now();
        f(arg);
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

fn entry(kernel: &str, shape: &str, model: Cost, min_ns: u64) -> KernelEntry {
    KernelEntry {
        kernel: kernel.to_string(),
        shape: shape.to_string(),
        flops: model.flops,
        bytes: model.bytes,
        min_ns,
        gflops: model.flops as f64 / min_ns.max(1) as f64,
        intensity: model.intensity().unwrap_or(0.0),
    }
}

/// A failed cross-check makes every derived number meaningless; bail.
fn check(what: &str, lhs: u64, rhs: u64) {
    if lhs != rhs {
        eprintln!("[kernel_bench] CROSS-CHECK FAILED: {what}: {lhs} != {rhs}");
        std::process::exit(1);
    }
}

fn bench_matmul(opts: &Opts, m: usize, k: usize, n: usize, out: &mut Vec<KernelEntry>) {
    let shape = format!("{m}x{k}x{n}");
    let a = Tensor::from_vec(vals(m * k, 1), &[m, k]);
    let b = Tensor::from_vec(vals(k * n, 2), &[k, n]);
    let model = flops::matmul(m, k, n);
    // Oracle trips (2 FLOPs per MAC) and production counters must both
    // reproduce the model.
    let (_, macs) = oracle::matmul_counted(a.data(), b.data(), m, k, n);
    check(
        &format!("matmul {shape} model vs oracle trips"),
        model.flops,
        2 * macs,
    );
    let (cf, cb) = counted_invocation("matmul", || {
        black_box(a.matmul(black_box(&b)));
    });
    check(&format!("matmul {shape} model vs counter"), model.flops, cf);
    check(&format!("matmul {shape} bytes vs counter"), model.bytes, cb);
    let min_ns = min_of_k(opts.reps, || {
        black_box(a.matmul(black_box(&b)));
    });
    out.push(entry("matmul", &shape, model, min_ns));
}

fn bench_conv(
    opts: &Opts,
    b: usize,
    cin: usize,
    cout: usize,
    hw: usize,
    out: &mut Vec<KernelEntry>,
) {
    let shape = format!("b{b} {cin}->{cout} k3 s1 p1 {hw}x{hw}");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut conv = Conv2d::conv3x3(&mut rng, cin, cout, 1);
    let x = Tensor::from_vec(vals(b * cin * hw * hw, 3), &[b, cin, hw, hw]);
    let s = flops::Conv2dShape {
        batch: b,
        in_c: cin,
        out_c: cout,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups: 1,
        h: hw,
        w: hw,
    };
    let spec = ConvSpec {
        batch: b,
        in_c: cin,
        out_c: cout,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups: 1,
        h: hw,
        w: hw,
    };
    let fwd = flops::conv2d_fwd(&s);
    let bwd = flops::conv2d_bwd(&s);

    // Oracle loop trips: 2 FLOPs per forward tap + 1 bias add; 4 per
    // backward tap + 1 gb add (padding taps included on both sides).
    let weight = vals(s.weight_len(), 4);
    let bias = vals(cout, 5);
    let (_, tf) = oracle::conv2d_forward_counted(&spec, x.data(), &weight, &bias);
    check(
        &format!("conv2d_fwd {shape} model vs oracle trips"),
        fwd.flops,
        2 * tf.taps + tf.outputs,
    );
    let gy = vals(s.output_len(), 6);
    let (_, tb) = oracle::conv2d_backward_counted(&spec, x.data(), &weight, &gy);
    check(
        &format!("conv2d_bwd {shape} model vs oracle trips"),
        bwd.flops,
        4 * tb.taps + tb.outputs,
    );

    // Production counters.
    let (cf, _) = counted_invocation("conv2d_fwd", || {
        black_box(conv.forward(x.clone(), true));
    });
    check(
        &format!("conv2d_fwd {shape} model vs counter"),
        fwd.flops,
        cf,
    );
    let gy_t = Tensor::from_vec(gy.clone(), &[b, cout, hw, hw]);
    let (cbk, _) = counted_invocation("conv2d_bwd", || {
        black_box(conv.backward(gy_t.clone()));
    });
    check(
        &format!("conv2d_bwd {shape} model vs counter"),
        bwd.flops,
        cbk,
    );

    let fwd_ns = min_of_k(opts.reps, || {
        black_box(conv.forward(x.clone(), true));
    });
    out.push(entry("conv2d_fwd", &shape, fwd, fwd_ns));
    let bwd_ns = min_of_k(opts.reps, || {
        black_box(conv.backward(gy_t.clone()));
    });
    out.push(entry("conv2d_bwd", &shape, bwd, bwd_ns));
}

/// One row of the per-layer table.
struct LayerRow {
    label: String,
    fwd_ns: u64,
    bwd_ns: u64,
}

/// Fastest forward and backward of every SixCnn layer inside one training
/// step at the ladder's `cnn_*` batch (12 × 3×16×16). Activations are the
/// real ones of a forward over N(0, 1) inputs, so the data-dependent
/// layers (ReLU, MaxPool) see the sign-random values training gives them.
fn bench_sixcnn_layers(opts: &Opts) -> Vec<LayerRow> {
    const BATCH: usize = 12;
    // Layers run for 10–500 µs: more repetitions than the kernels' sweep,
    // same min-of-k reading.
    let reps = opts.reps * 20;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut layers = six_cnn_layers(&mut rng, 3, 10, 1.0).into_layers();
    let shape = [BATCH, 3, 16, 16];
    let x = normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0);
    // acts[i] is layer i's input; out_grads[i] the gradient at its output.
    let mut acts = vec![Tensor::from_vec(x, &shape)];
    for l in &mut layers {
        let y = l.forward(acts.last().expect("non-empty").clone(), true);
        acts.push(y);
    }
    let logits = acts.last().expect("non-empty");
    let mut g = Tensor::from_vec(normal_vec(&mut rng, logits.len(), 0.0, 1.0), logits.shape());
    let mut out_grads = Vec::with_capacity(layers.len());
    for l in layers.iter_mut().rev() {
        out_grads.push(g.clone());
        g = l.backward(g);
    }
    out_grads.reverse();
    layers
        .iter_mut()
        .enumerate()
        .map(|(i, l)| {
            let fwd_ns = min_of_k_with(
                reps,
                || acts[i].clone(),
                |x| {
                    black_box(l.forward(x, true));
                },
            );
            let bwd_ns = min_of_k_with(
                reps,
                || out_grads[i].clone(),
                |g| {
                    black_box(l.backward(g));
                },
            );
            LayerRow {
                label: format!("{i:02} {} {:?}", l.name(), acts[i].shape()),
                fwd_ns,
                bwd_ns,
            }
        })
        .collect()
}

fn bench_qp(opts: &Opts, k: usize, n: usize, out: &mut Vec<KernelEntry>) {
    let shape = format!("k{k} n{n}");
    let g = vals(n, 7);
    // Constraints with a conflicting component along −g plus an
    // independent random part: infeasible (the screen fails) but with a
    // well-conditioned Gram so the projected-gradient solve converges.
    let constraints: Vec<Vec<f32>> = (0..k)
        .map(|i| {
            let noise = vals(n, 8 + i as u64);
            g.iter()
                .zip(noise)
                .map(|(&gv, nv)| -0.5 * gv + nv)
                .collect()
        })
        .collect();
    let cfg = QpConfig::default();
    let r = integrate_gradient(&g, &constraints, &cfg).expect("qp solve");
    assert!(!r.already_feasible, "bench QP must take the solve path");
    // The QP's FLOPs depend on the iteration count the solver actually
    // took, so the model is evaluated at that count and checked against
    // the production counter.
    let model = flops::qp_screen(k, n).plus(flops::qp_solve(k, n, r.iterations));
    let (cf, _) = counted_invocation("qp", || {
        black_box(integrate_gradient(black_box(&g), &constraints, &cfg).unwrap());
    });
    check(
        &format!("qp {shape} model({} iters) vs counter", r.iterations),
        model.flops,
        cf,
    );
    let min_ns = min_of_k(opts.reps, || {
        black_box(integrate_gradient(black_box(&g), &constraints, &cfg).unwrap());
    });
    out.push(entry("qp", &shape, model, min_ns));
}

fn bench_wasserstein(opts: &Opts, n: usize, out: &mut Vec<KernelEntry>) {
    let shape = format!("n{n}");
    let a = vals(n, 9);
    let b = vals(n, 10);
    let model = flops::wasserstein(n);
    let (cf, cb) = counted_invocation("wasserstein", || {
        black_box(distance::wasserstein_1d(black_box(&a), black_box(&b)));
    });
    check(
        &format!("wasserstein {shape} model vs counter"),
        model.flops,
        cf,
    );
    check(
        &format!("wasserstein {shape} bytes vs counter"),
        model.bytes,
        cb,
    );
    let min_ns = min_of_k(opts.reps, || {
        black_box(distance::wasserstein_1d(black_box(&a), black_box(&b)));
    });
    out.push(entry("wasserstein", &shape, model, min_ns));
}

fn bench_fedavg(opts: &Opts, clients: usize, dim: usize, out: &mut Vec<KernelEntry>) {
    let shape = format!("c{clients} d{dim}");
    let uploads: Vec<Option<Vec<f32>>> = (0..clients)
        .map(|i| Some(vals(dim, 11 + i as u64)))
        .collect();
    let weights: Vec<usize> = (1..=clients).collect();
    let model = flops::fedavg(clients, dim);
    let (cf, _) = counted_invocation("fedavg", || {
        black_box(fedknow_fl::server::fedavg(black_box(&uploads), &weights).unwrap());
    });
    check(&format!("fedavg {shape} model vs counter"), model.flops, cf);
    let min_ns = min_of_k(opts.reps, || {
        black_box(fedknow_fl::server::fedavg(black_box(&uploads), &weights).unwrap());
    });
    out.push(entry("fedavg", &shape, model, min_ns));
}

fn main() {
    let opts = parse_opts().unwrap_or_else(|e| fedknow_bench::usage(USAGE, &e));
    // The counter cross-checks need the registry live; the per-call
    // cost (two atomic adds per kernel invocation) is noise next to the
    // kernels themselves, so timing runs with it on too — exactly the
    // condition a profiled training run sees.
    fedknow_obs::enable();

    let mut entries: Vec<KernelEntry> = Vec::new();
    eprintln!("[kernel_bench] reps={} (min-of-k)", opts.reps);
    // GEMM at a square shape and at the SixCNN stem's im2col shape
    // (weight [32, 27] × col [27, 32·32]).
    bench_matmul(&opts, 96, 96, 96, &mut entries);
    bench_matmul(&opts, 32, 27, 1024, &mut entries);
    // Large cache-bound squares: the shapes the blocked/packed GEMM is
    // judged on (256³ fits L2 per panel, 512³ forces full MC/KC/NC
    // blocking through L1/L2/L3).
    bench_matmul(&opts, 256, 256, 256, &mut entries);
    bench_matmul(&opts, 512, 512, 512, &mut entries);
    // SixCNN stem on CIFAR-sized inputs (Fig. 4) and a ResNet-18 inner
    // block at the reduced resolution the Fig. 9 zoo uses.
    bench_conv(&opts, 4, 3, 32, 32, &mut entries);
    bench_conv(&opts, 2, 64, 64, 8, &mut entries);
    // A deep-layer workhorse shape: per-sample GEMM [64, 288] × [288, 256],
    // big enough that panel packing and fused patch tiles dominate.
    bench_conv(&opts, 4, 32, 64, 16, &mut entries);
    // The ladder's own per-sample shapes at its batch 12: SixCnn's second
    // and fourth conv (`cnn_*` workloads) and ResNet18's last stage
    // (`resnet_fedknow_t4`), where N = oh·ow is 256, 64 and 4.
    bench_conv(&opts, 12, 8, 8, 16, &mut entries);
    bench_conv(&opts, 12, 16, 16, 8, &mut entries);
    bench_conv(&opts, 12, 64, 64, 2, &mut entries);
    // Signature-task machinery: GEM dual QP, Wasserstein ranking, and
    // the server's weighted average.
    bench_qp(&opts, 8, 4096, &mut entries);
    bench_wasserstein(&opts, 16384, &mut entries);
    bench_fedavg(&opts, 20, 16384, &mut entries);

    println!(
        "\n{:<12}{:<26}{:>14}{:>12}{:>12}{:>10}{:>12}",
        "kernel", "shape", "flops", "bytes", "min", "GF/s", "flops/byte"
    );
    for e in &entries {
        println!(
            "{:<12}{:<26}{:>14}{:>12}{:>12}{:>10.3}{:>12.3}",
            e.kernel,
            e.shape,
            e.flops,
            e.bytes,
            fedknow_bench::fmt_ns(e.min_ns),
            e.gflops,
            e.intensity,
        );
    }
    println!("[kernel_bench] all FLOP/byte models cross-checked against oracle trips and counters");

    let layers = bench_sixcnn_layers(&opts);
    let us = |ns: u64| ns as f64 / 1e3;
    let (fwd_total, bwd_total) = layers
        .iter()
        .fold((0, 0), |(f, b), r| (f + r.fwd_ns, b + r.bwd_ns));
    println!(
        "\nsixcnn train step, batch 12, per layer (min-of-k)\n{:<34}{:>10}{:>10}",
        "layer [input shape]", "fwd us", "bwd us"
    );
    for r in &layers {
        println!(
            "{:<34}{:>10.1}{:>10.1}",
            r.label,
            us(r.fwd_ns),
            us(r.bwd_ns)
        );
    }
    println!(
        "{:<34}{:>10.1}{:>10.1}",
        "total",
        us(fwd_total),
        us(bwd_total)
    );

    // A kernel may lose up to 60% of its throughput before the gate
    // fails: shared CI cores vary that much.
    let mut metrics: Vec<Metric> = entries
        .iter()
        .map(|e| {
            let name = format!("gflops {} [{}]", e.kernel, e.shape);
            Metric::new(name, e.gflops, "GF/s", Better::Higher, Tol::Rel(0.6))
        })
        .collect();
    for (dir, total, pick) in [
        ("fwd", fwd_total, (|r| r.fwd_ns) as fn(&LayerRow) -> u64),
        ("bwd", bwd_total, |r| r.bwd_ns),
    ] {
        metrics.extend(
            layers.iter().map(|r| {
                Metric::info(format!("sixcnn b12 {dir} [{}]", r.label), us(pick(r)), "us")
            }),
        );
        metrics.push(Metric::info(
            format!("sixcnn b12 {dir} [total]"),
            us(total),
            "us",
        ));
    }
    let scale = if opts.smoke { "smoke" } else { "quick" };
    BenchRecord::new("kernels", scale, opts.seed, metrics).write(&opts.results);
    write_json(&opts.results, "kernels", &entries);
}
