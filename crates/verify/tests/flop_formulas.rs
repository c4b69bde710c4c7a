//! Cross-check: the closed-form FLOP models in `fedknow_math::flops`
//! must equal the instrumented loop-trip counts of the verify oracles.
//!
//! The models drive the profiler (`flops.*` counters, `kernel_bench`
//! GFLOP/s); the oracles are the most literal transcription of each
//! kernel's definition. Tying the two together means a formula bug is a
//! failing test, not a silently wrong GF/s figure.
//!
//! Conventions under test (documented in `fedknow_math::flops`):
//! one MAC = 2 FLOPs; conv trips include taps that fall in the zero
//! padding (the im2col+GEMM production path multiplies those zeros, and
//! the oracles charge the tap before the bounds-check skip).

use fedknow_math::flops;
use fedknow_verify::oracle::{self, ConvSpec};

/// Deterministic junk values — the trip counts are shape-only, but the
/// oracles still want real slices of the right length.
fn vals(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect()
}

fn flops_shape(s: &ConvSpec) -> flops::Conv2dShape {
    flops::Conv2dShape {
        batch: s.batch,
        in_c: s.in_c,
        out_c: s.out_c,
        kernel: s.kernel,
        stride: s.stride,
        padding: s.padding,
        groups: s.groups,
        h: s.h,
        w: s.w,
    }
}

#[test]
fn matmul_formula_equals_oracle_trip_count() {
    // Odd, degenerate, and skinny shapes; 2 FLOPs per counted MAC trip.
    for (m, k, n) in [
        (1, 1, 1),
        (3, 5, 7),
        (2, 9, 4),
        (13, 1, 6),
        (1, 17, 1),
        (8, 8, 8),
    ] {
        let (_, macs) = oracle::matmul_counted(&vals(m * k), &vals(k * n), m, k, n);
        assert_eq!(macs, (m * k * n) as u64, "trip count at {m}x{k}x{n}");
        assert_eq!(
            flops::matmul(m, k, n).flops,
            2 * macs,
            "formula vs trips at {m}x{k}x{n}"
        );
    }
}

/// Conv shapes covering the edge cases the formula has to get right:
/// stride > 1, padding > 0, padding ≥ kernel radius (whole taps out of
/// bounds), 1×1 kernels, grouped channels, non-square inputs, batches.
fn conv_specs() -> Vec<ConvSpec> {
    vec![
        // 3×3, stride 2, pad 1 on a non-square input (Fig. 4-style block).
        ConvSpec {
            batch: 2,
            in_c: 3,
            out_c: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
            groups: 1,
            h: 7,
            w: 5,
        },
        // 1×1 kernel: no padding taps at all, pure channel mixing.
        ConvSpec {
            batch: 1,
            in_c: 4,
            out_c: 4,
            kernel: 1,
            stride: 1,
            padding: 0,
            groups: 1,
            h: 3,
            w: 9,
        },
        // 5×5, pad 2, stride 3: corners lose most of the receptive field.
        ConvSpec {
            batch: 1,
            in_c: 2,
            out_c: 6,
            kernel: 5,
            stride: 3,
            padding: 2,
            groups: 1,
            h: 11,
            w: 9,
        },
        // Grouped conv (2 groups), odd spatial, stride 2.
        ConvSpec {
            batch: 3,
            in_c: 4,
            out_c: 6,
            kernel: 3,
            stride: 2,
            padding: 1,
            groups: 2,
            h: 5,
            w: 5,
        },
        // Padding equal to the kernel size minus one: output elements at
        // the rim see a receptive field that is mostly zeros.
        ConvSpec {
            batch: 1,
            in_c: 1,
            out_c: 1,
            kernel: 3,
            stride: 1,
            padding: 2,
            groups: 1,
            h: 4,
            w: 4,
        },
    ]
}

#[test]
fn conv2d_fwd_formula_equals_oracle_trip_count() {
    for spec in conv_specs() {
        let input = vals(spec.input_len());
        let weight = vals(spec.weight_len());
        let bias = vals(spec.out_c);
        let (_, trips) = oracle::conv2d_forward_counted(&spec, &input, &weight, &bias);
        let s = flops_shape(&spec);
        // Geometric identity: padding-inclusive taps per output × outputs.
        assert_eq!(trips.outputs, s.output_len() as u64, "{spec:?}");
        assert_eq!(trips.taps, s.output_len() as u64 * s.taps(), "{spec:?}");
        // The model: 2 FLOPs per tap trip + 1 bias add per output trip.
        assert_eq!(
            flops::conv2d_fwd(&s).flops,
            2 * trips.taps + trips.outputs,
            "fwd formula vs trips for {spec:?}"
        );
    }
}

#[test]
fn conv2d_bwd_formula_equals_oracle_trip_count() {
    for spec in conv_specs() {
        let input = vals(spec.input_len());
        let weight = vals(spec.weight_len());
        let gy = vals(spec.output_len());
        let (_, trips) = oracle::conv2d_backward_counted(&spec, &input, &weight, &gy);
        let s = flops_shape(&spec);
        assert_eq!(trips.outputs, s.output_len() as u64, "{spec:?}");
        assert_eq!(trips.taps, s.output_len() as u64 * s.taps(), "{spec:?}");
        // Each tap trip is one MAC into gw and one into gx (4 FLOPs),
        // each output trip one gb add.
        assert_eq!(
            flops::conv2d_bwd(&s).flops,
            4 * trips.taps + trips.outputs,
            "bwd formula vs trips for {spec:?}"
        );
    }
}

#[test]
fn counted_oracles_return_the_same_values_as_plain_ones() {
    // The plain oracles delegate to the counted ones; pin that contract
    // so a future split can't let the counted path drift.
    let (m, k, n) = (3, 4, 5);
    let (a, b) = (vals(m * k), vals(k * n));
    assert_eq!(
        oracle::matmul(&a, &b, m, k, n),
        oracle::matmul_counted(&a, &b, m, k, n).0
    );

    let spec = conv_specs()[0];
    let input = vals(spec.input_len());
    let weight = vals(spec.weight_len());
    let bias = vals(spec.out_c);
    let fwd = oracle::conv2d_forward(&spec, &input, &weight, &bias);
    assert_eq!(
        fwd,
        oracle::conv2d_forward_counted(&spec, &input, &weight, &bias).0
    );

    let gy = vals(spec.output_len());
    let plain = oracle::conv2d_backward(&spec, &input, &weight, &gy);
    let (counted, _) = oracle::conv2d_backward_counted(&spec, &input, &weight, &gy);
    assert_eq!(plain.gx, counted.gx);
    assert_eq!(plain.gw, counted.gw);
    assert_eq!(plain.gb, counted.gb);
}
