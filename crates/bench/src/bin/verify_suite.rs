//! Differential-oracle suite as a bench binary.
//!
//! Runs every production hot kernel against its slow f64 oracle and
//! writes `BENCH_verify.json` for the regression gate: `pass_fraction`
//! over compared cases (1.0 when healthy; may not drop by more than
//! 0.02) plus each kernel's compared-case count as context, so any
//! kernel/oracle divergence trips the gate. `FEDKNOW_VERIFY_CASES` / `FEDKNOW_VERIFY_SEED` bound a CI run;
//! `--scale smoke` lowers the default case count.
//!
//! Exits non-zero on any mismatch, after printing each failing case's
//! reproducer seed.

use fedknow_bench::{
    parse_args, results_dir, write_bench_record, BenchRecord, Better, Metric, Scale, Tol,
};
use fedknow_math::Tensor;
use fedknow_nn::conv::Conv2d;
use fedknow_nn::Layer;
use fedknow_verify::fuzz::{cases_from_env, seed_from_env, FuzzReport};
use fedknow_verify::suite::{self, ConvCase};

fn production_conv(c: &ConvCase) -> Conv2d {
    let s = &c.spec;
    let mut rng = fedknow_math::rng::seeded(0);
    let mut conv = Conv2d::new(
        &mut rng, s.in_c, s.out_c, s.kernel, s.stride, s.padding, s.groups,
    );
    conv.visit_params(
        &mut |name: &str, _: &[usize], params: &mut [f32], _: &mut [f32]| {
            params.copy_from_slice(match name {
                "conv.weight" => &c.weight,
                _ => &c.bias,
            });
        },
    );
    conv
}

fn input_tensor(c: &ConvCase) -> Tensor {
    let s = &c.spec;
    Tensor::from_vec(c.input.clone(), &[s.batch, s.in_c, s.h, s.w])
}

fn main() {
    let args = parse_args();
    let default_cases = match args.scale {
        Scale::Smoke => 50,
        _ => suite::DEFAULT_CASES,
    };
    let cases = cases_from_env(default_cases);
    let seed = seed_from_env(args.seed ^ suite::DEFAULT_SEED);

    let started = std::time::Instant::now();
    let reports: Vec<FuzzReport> = vec![
        suite::matmul(seed, cases),
        suite::conv_forward(seed, cases, |c| {
            Some(
                production_conv(c)
                    .forward(input_tensor(c), false)
                    .into_vec(),
            )
        }),
        suite::conv_backward(seed, cases, |c| {
            let s = &c.spec;
            let mut conv = production_conv(c);
            let _ = conv.forward(input_tensor(c), true);
            let (oh, ow) = s.out_hw();
            let gy = Tensor::from_vec(c.gy.clone(), &[s.batch, s.out_c, oh, ow]);
            let mut out = conv.backward(gy).into_vec();
            conv.visit_params(
                &mut |_: &str, _: &[usize], _: &mut [f32], grads: &mut [f32]| {
                    out.extend_from_slice(grads);
                },
            );
            Some(out)
        }),
        suite::matmul_tiles(seed, cases),
        suite::conv_forward_tiles(seed, cases, |c| {
            Some(
                production_conv(c)
                    .forward(input_tensor(c), false)
                    .into_vec(),
            )
        }),
        suite::conv_backward_tiles(seed, cases, |c| {
            let s = &c.spec;
            let mut conv = production_conv(c);
            let _ = conv.forward(input_tensor(c), true);
            let (oh, ow) = s.out_hw();
            let gy = Tensor::from_vec(c.gy.clone(), &[s.batch, s.out_c, oh, ow]);
            let mut out = conv.backward(gy).into_vec();
            conv.visit_params(
                &mut |_: &str, _: &[usize], _: &mut [f32], grads: &mut [f32]| {
                    out.extend_from_slice(grads);
                },
            );
            Some(out)
        }),
        suite::qp(seed, cases),
        suite::qp_certify(seed, cases),
        suite::wasserstein(seed, cases),
        suite::top_rho(seed, cases),
        suite::fedavg(seed, cases, |c| {
            fedknow_fl::server::fedavg(&c.uploads, &c.weights)
                .expect("generated case is well-formed")
                .global
        }),
    ];
    let wall = started.elapsed().as_secs_f64();

    let mut compared = 0usize;
    let mut failed = 0usize;
    for r in &reports {
        println!(
            "[verify] {:16} {:4} cases, {:4} compared, {} failed",
            r.kernel,
            r.cases,
            r.compared(),
            r.failures.len()
        );
        compared += r.compared();
        failed += r.failures.len();
    }
    let pass_fraction = if compared == 0 {
        0.0
    } else {
        (compared - failed) as f64 / compared as f64
    };
    let pass = Metric::new(
        "pass_fraction",
        pass_fraction,
        "fraction",
        Better::Higher,
        Tol::Abs(0.02),
    );
    let counts = reports
        .iter()
        .map(|r| Metric::info(r.kernel.as_str(), r.compared() as f64, "cases"));
    let metrics = std::iter::once(pass).chain(counts).collect();
    let rec = BenchRecord::new("verify", args.scale.name(), seed, metrics);
    write_bench_record(&results_dir(), &rec);
    println!(
        "[verify] total: {compared} compared, {failed} failed ({:.1}s)",
        wall
    );
    if failed > 0 {
        // Individual reproducer seeds were already printed by fuzz().
        std::process::exit(1);
    }
}
