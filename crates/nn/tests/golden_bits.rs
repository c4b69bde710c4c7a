//! Golden bits: the exact f32 bit patterns of a forward+backward, pinned.
//!
//! The kernels promise that every output element is one ascending-k FMA
//! chain over the same operands no matter how the operands are packed,
//! so a change to a pack routine, an elementwise loop or the conv
//! lowering must not move a single bit. Each case below hashes the
//! `f32::to_bits` of (output, input gradient, parameter gradients) after
//! one seeded forward+backward with FNV-1a and compares the digest with a
//! constant recorded before the change.
//!
//! The digests depend on the microkernel (FMA vs mul+add, tile shape), so
//! there is one table per [`gemm::isa_name`]. `FEDKNOW_KERNEL_ISA` is read
//! once per process: the non-default tables are checked by separate
//! invocations,
//!
//! ```text
//! cargo test -p fedknow-nn --test golden_bits
//! FEDKNOW_KERNEL_ISA=avx2   cargo test -p fedknow-nn --test golden_bits
//! FEDKNOW_KERNEL_ISA=scalar cargo test -p fedknow-nn --test golden_bits
//! ```
//!
//! On a mismatch (or an ISA with no table) the failure message prints the
//! computed table in source form. Regenerate a table only for a change
//! that is *meant* to alter arithmetic, never to make a refactor pass.

use fedknow_math::gemm;
use fedknow_math::rng::{normal_vec, seeded};
use fedknow_math::Tensor;
use fedknow_nn::conv::Conv2d;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::{Layer, ModelKind};

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(parts: &[&[f32]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for v in part.iter() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    Tensor::from_vec(
        normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0),
        shape,
    )
}

/// `(cin, cout, kernel, stride, pad, groups, h, w)` — together these reach
/// every pack edge: stride 2, pad 0, 1×1, depthwise and `groups = 4`,
/// `ncols` = 49 / 15 / 25 (not a multiple of 16 or 48), `fan` = 27 / 72 /
/// 144, and a 32×32 input whose `ncols = 1024` crosses `KC` four times in
/// the weight-gradient GEMM.
#[allow(clippy::type_complexity)]
const CONV_CASES: &[(usize, usize, usize, usize, usize, usize, usize, usize)] = &[
    (3, 8, 3, 1, 1, 1, 16, 16),
    (8, 8, 3, 1, 1, 1, 16, 16),
    (16, 16, 3, 1, 1, 1, 8, 8),
    (64, 64, 3, 1, 1, 1, 2, 2),
    (4, 6, 3, 2, 1, 1, 9, 9),
    (3, 5, 3, 1, 0, 1, 7, 7),
    (8, 12, 1, 1, 0, 1, 7, 7),
    (8, 4, 1, 2, 0, 1, 5, 3),
    (6, 6, 3, 1, 1, 6, 7, 7),
    (6, 6, 3, 2, 1, 6, 8, 8),
    (8, 16, 3, 1, 1, 4, 5, 3),
    (2, 4, 5, 2, 2, 1, 11, 8),
    (3, 8, 3, 1, 1, 1, 32, 32),
];

fn conv_digests() -> Vec<(String, u64)> {
    CONV_CASES
        .iter()
        .enumerate()
        .map(|(i, &(cin, cout, k, st, pd, g, h, w))| {
            let mut rng = seeded(100 + i as u64);
            let mut conv = Conv2d::new(&mut rng, cin, cout, k, st, pd, g);
            let x = input(&[3, cin, h, w], 200 + i as u64);
            let y = conv.forward(x, true);
            let gy = input(y.shape(), 300 + i as u64);
            let gx = conv.backward(gy);
            let mut grads = Vec::new();
            conv.visit_params(&mut |_: &str, _: &[usize], _: &mut [f32], g: &mut [f32]| {
                grads.extend_from_slice(g);
            });
            (
                format!("conv {cin}>{cout} k{k} s{st} p{pd} g{g} {h}x{w}"),
                fnv1a(&[y.data(), gx.data(), &grads]),
            )
        })
        .collect()
}

fn model_digests() -> Vec<(String, u64)> {
    ModelKind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut rng = seeded(400 + i as u64);
            let mut m = kind.build(&mut rng, 3, 10, 1.0);
            let mut shape = vec![5];
            shape.extend_from_slice(m.input_shape());
            let x = input(&shape, 500 + i as u64);
            let labels: Vec<usize> = (0..5).map(|j| (3 * j + i) % 10).collect();
            let logits = m.forward(x, true);
            let (_, grad) = cross_entropy(&logits, &labels);
            m.zero_grad();
            let gx = m.backward(grad);
            let grads = m.flat_grads();
            (
                format!("model {}", kind.name()),
                fnv1a(&[logits.data(), gx.data(), &grads]),
            )
        })
        .collect()
}

fn golden(isa: &str) -> Option<&'static [(&'static str, u64)]> {
    match isa {
        // Both FMA microkernels run the same ascending-k chain per element.
        "avx512 8x48" | "avx2+fma 6x16" => Some(&[
            ("conv 3>8 k3 s1 p1 g1 16x16", 0x287b5b3b317b2c38),
            ("conv 8>8 k3 s1 p1 g1 16x16", 0xccd74a8a9578bfed),
            ("conv 16>16 k3 s1 p1 g1 8x8", 0xfb78ec2acf282f03),
            ("conv 64>64 k3 s1 p1 g1 2x2", 0x36fba87702072caa),
            ("conv 4>6 k3 s2 p1 g1 9x9", 0x5ed11049408eac19),
            ("conv 3>5 k3 s1 p0 g1 7x7", 0x634fe1c755f6c2b6),
            ("conv 8>12 k1 s1 p0 g1 7x7", 0x29ddfa1fcb16001b),
            ("conv 8>4 k1 s2 p0 g1 5x3", 0x5e32b0dc13ea7395),
            ("conv 6>6 k3 s1 p1 g6 7x7", 0x6af13523d2fab120),
            ("conv 6>6 k3 s2 p1 g6 8x8", 0xf94f41ad3be86a80),
            ("conv 8>16 k3 s1 p1 g4 5x3", 0x08220da7a2f37cf9),
            ("conv 2>4 k5 s2 p2 g1 11x8", 0x2c3526b6cea4dafe),
            ("conv 3>8 k3 s1 p1 g1 32x32", 0x1208f4d0e28760bf),
            ("model sixcnn", 0x192956e1e682415e),
            ("model resnet18", 0xf9726105a7564630),
            ("model wideresnet50", 0xe27c8e9bb17dd3af),
            ("model resnext50", 0x7cf260ef532140c2),
            ("model resnet152", 0x8953063fd59c29b3),
            ("model senet18", 0xcb1d98836296b937),
            ("model mobilenetv2", 0x0d5fd4ee461dbb5a),
            ("model shufflenetv2", 0x38f59de14f85e366),
            ("model densenet", 0x1685415dd287a6ff),
            ("model inceptionv3", 0x0e82e558b4c5fc0b),
        ]),
        "scalar 4x16" => Some(&[
            ("conv 3>8 k3 s1 p1 g1 16x16", 0xd5b1186017e6fa7d),
            ("conv 8>8 k3 s1 p1 g1 16x16", 0xa995b74a32f9d1fb),
            ("conv 16>16 k3 s1 p1 g1 8x8", 0xb7a1f481203f379e),
            ("conv 64>64 k3 s1 p1 g1 2x2", 0x30426f59a24f01f8),
            ("conv 4>6 k3 s2 p1 g1 9x9", 0xdd33f6a2267b92f1),
            ("conv 3>5 k3 s1 p0 g1 7x7", 0x453bc697d2a8bbff),
            ("conv 8>12 k1 s1 p0 g1 7x7", 0x99edbc9621e6079a),
            ("conv 8>4 k1 s2 p0 g1 5x3", 0xd0c1bb5277d7969a),
            ("conv 6>6 k3 s1 p1 g6 7x7", 0xba17ac6b40668750),
            ("conv 6>6 k3 s2 p1 g6 8x8", 0x4e3a9c57857834eb),
            ("conv 8>16 k3 s1 p1 g4 5x3", 0x6713e3c92b94129d),
            ("conv 2>4 k5 s2 p2 g1 11x8", 0x73b23ff6089b8360),
            ("conv 3>8 k3 s1 p1 g1 32x32", 0x0f85e785ae49130e),
            ("model sixcnn", 0xfd37425b980d170d),
            ("model resnet18", 0xcb6df5faff767560),
            ("model wideresnet50", 0xb0a85c95ccf597c4),
            ("model resnext50", 0xe9fda27da7817205),
            ("model resnet152", 0xb4d4102e820400a6),
            ("model senet18", 0x4cdcd22ac5174a69),
            ("model mobilenetv2", 0xf9e812c576f0638c),
            ("model shufflenetv2", 0x984ad7cbbeda3588),
            ("model densenet", 0x117e6133e7f6adc3),
            ("model inceptionv3", 0x1962f78dc0f538d2),
        ]),
        _ => None,
    }
}

#[test]
fn forward_backward_bits_match_the_recorded_digests() {
    let isa = gemm::isa_name();
    let mut got = conv_digests();
    got.extend(model_digests());
    let table: String = got
        .iter()
        .map(|(name, d)| format!("            (\"{name}\", {d:#018x}),\n"))
        .collect();
    let rendered = format!("        \"{isa}\" => Some(&[\n{table}        ]),");
    let want = golden(isa).unwrap_or_else(|| panic!("no golden table for {isa}:\n{rendered}"));
    let moved: Vec<&str> = got
        .iter()
        .filter(|(n, d)| !want.contains(&(n.as_str(), *d)))
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(
        moved.is_empty() && want.len() == got.len(),
        "bits moved under {isa} for {moved:?}; computed table:\n{rendered}"
    );
}
