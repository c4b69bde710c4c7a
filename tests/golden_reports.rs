//! Golden reports: what a federation run reports, pinned bit for bit.
//!
//! Refactors of the engine, the kernels' packing, the baselines or the
//! telemetry plane all promise "every `SimReport` bit-identical". Each case
//! below runs one method at [`RunSpec::quick`] scale and hashes, with
//! FNV-1a, the `f64::to_bits` of its accuracy matrix, `total_bytes`, the
//! dropout list and the fault log, then compares the digest with a constant
//! recorded at `cd2aeae` (before the telemetry scale plane was deleted).
//! The FedKNOW rows and the ResNet18 GEM rows were re-recorded when the
//! dual QP became an exact active-set solve and FedKNOW stopped probing
//! its selection with no more retained tasks than `k`; every other row
//! kept its digest.
//!
//! The cross is {SixCnn, ResNet18 width 1} × {fault-free,
//! `FaultConfig::crash_loss(0.3)`}, seed 7, over every `Method::ALL` entry
//! on SixCnn and over FedKNOW / FedAvg / GEM on ResNet18: the full cross
//! takes 31 s per test binary, this one 9 s.
//!
//! The digests depend on the microkernel, so there is one table per
//! [`gemm::isa_name`], and `FEDKNOW_KERNEL_ISA` is read once per process:
//!
//! ```text
//! cargo test --test golden_reports --test golden_reports_obs
//! FEDKNOW_KERNEL_ISA=avx2   cargo test --test golden_reports --test golden_reports_obs
//! FEDKNOW_KERNEL_ISA=scalar cargo test --test golden_reports --test golden_reports_obs
//! ```
//!
//! `golden_reports_obs.rs` includes this file as a module and sets
//! `TELEMETRY` at its crate root: `fedknow_obs::enable()` is process-wide
//! and irreversible, so "telemetry on must not change a report" needs its
//! own test binary, and it checks the same table.
//!
//! On a mismatch (or an ISA with no table) the failure message prints the
//! computed table in source form. Regenerate a table only for a change
//! that is *meant* to alter what a run computes, never to make a refactor
//! pass.

use fedknow_baselines::Method;
use fedknow_fl::{FaultConfig, SimReport};
use fedknow_math::gemm;
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;

/// Read as `crate::TELEMETRY`: `false` here, `true` where
/// `golden_reports_obs.rs` is the crate root.
#[allow(dead_code)]
const TELEMETRY: bool = false;

fn fnv1a(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let tasks = r.accuracy.num_tasks();
    fnv1a(&mut h, [tasks as u64, r.total_bytes]);
    for m in 0..tasks {
        fnv1a(&mut h, (0..=m).map(|k| r.accuracy.at(m, k).to_bits()));
    }
    fnv1a(&mut h, [r.dropouts.len() as u64]);
    for &(c, t) in &r.dropouts {
        fnv1a(&mut h, [c as u64, t as u64]);
    }
    fnv1a(&mut h, [r.fault_log.len() as u64]);
    for e in &r.fault_log {
        fnv1a(&mut h, [e.round, e.client as u64, e.detail]);
        fnv1a(&mut h, e.kind.label().bytes().map(u64::from));
    }
    h
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for model in [ModelKind::SixCnn, ModelKind::ResNet18] {
        for (tag, faults) in [
            ("clean", FaultConfig::default()),
            ("chaos", FaultConfig::crash_loss(0.3)),
        ] {
            let mut spec = RunSpec::quick(7).with_faults(faults);
            spec.model = model;
            let methods: &[Method] = match model {
                ModelKind::SixCnn => &Method::ALL,
                _ => &[Method::FedKnow, Method::FedAvg, Method::Gem],
            };
            for &method in methods {
                let report = spec.run(method).expect("simulation failed");
                out.push((
                    format!("{} {tag} {}", model.name(), method.name()),
                    digest(&report),
                ));
            }
        }
    }
    out
}

fn golden(isa: &str) -> Option<&'static [(&'static str, u64)]> {
    match isa {
        // Both FMA microkernels run the same ascending-k chain per element.
        "avx512 8x48" | "avx2+fma 6x16" => Some(&[
            ("sixcnn clean fedknow", 0xd673fcafd7aa5e65),
            ("sixcnn clean gem", 0x97c045bb8a6c213c),
            ("sixcnn clean bcn", 0x82ea923d944e5639),
            ("sixcnn clean co2l", 0x6212991335f5c181),
            ("sixcnn clean ewc", 0xeb698f29a3af9479),
            ("sixcnn clean mas", 0xf65598fd86483871),
            ("sixcnn clean agscl", 0x11099764865183cd),
            ("sixcnn clean fedavg", 0x1ba346d1891740eb),
            ("sixcnn clean apfl", 0xbdb82bae2dbe1b6e),
            ("sixcnn clean fedrep", 0x8c21beafe8867edf),
            ("sixcnn clean flcn", 0xbe4dbc9f91671f1a),
            ("sixcnn clean fedweit", 0xf37e38ca25f941ef),
            ("sixcnn clean fedweit-own", 0x79c4e1a2d9948402),
            ("sixcnn clean agem", 0xb916011b7053c0bd),
            ("sixcnn chaos fedknow", 0xe08628c7a22a1479),
            ("sixcnn chaos gem", 0x4fd4d32277368f93),
            ("sixcnn chaos bcn", 0x163397be28140fd6),
            ("sixcnn chaos co2l", 0x8e822a96384b5e5f),
            ("sixcnn chaos ewc", 0xb3465470ec27b9e8),
            ("sixcnn chaos mas", 0x97f74bc27a61d9bd),
            ("sixcnn chaos agscl", 0xc29c9248c4670513),
            ("sixcnn chaos fedavg", 0x4a0cbecb2361d311),
            ("sixcnn chaos apfl", 0x0f6e1b7df4b592f8),
            ("sixcnn chaos fedrep", 0x6a862480080dc15d),
            ("sixcnn chaos flcn", 0x8b96dfd6e2b467b2),
            ("sixcnn chaos fedweit", 0x0fc34841dddc26ed),
            ("sixcnn chaos fedweit-own", 0x23947fa146e2af6a),
            ("sixcnn chaos agem", 0x14956ccc3ae6d9e8),
            ("resnet18 clean fedknow", 0xad95253704a7c2bb),
            ("resnet18 clean fedavg", 0x81a98ba1150342b0),
            ("resnet18 clean gem", 0x59d1a06d98749446),
            ("resnet18 chaos fedknow", 0x9296e73fdc9ef511),
            ("resnet18 chaos fedavg", 0xd8bc161f1131930b),
            ("resnet18 chaos gem", 0x10ea41ba15ca3161),
        ]),
        "scalar 4x16" => Some(&[
            ("sixcnn clean fedknow", 0xd673fcafd7aa5e65),
            ("sixcnn clean gem", 0x97c045bb8a6c213c),
            ("sixcnn clean bcn", 0x82ea923d944e5639),
            ("sixcnn clean co2l", 0x6212991335f5c181),
            ("sixcnn clean ewc", 0xeb698f29a3af9479),
            ("sixcnn clean mas", 0x9b67f2e1d7d666d8),
            ("sixcnn clean agscl", 0x11099764865183cd),
            ("sixcnn clean fedavg", 0x780533114ab3f294),
            ("sixcnn clean apfl", 0x3df08c20f9efa61c),
            ("sixcnn clean fedrep", 0x8c21beafe8867edf),
            ("sixcnn clean flcn", 0xbe4dbc9f91671f1a),
            ("sixcnn clean fedweit", 0xf37e38ca25f941ef),
            ("sixcnn clean fedweit-own", 0x79c4e1a2d9948402),
            ("sixcnn clean agem", 0xb916011b7053c0bd),
            ("sixcnn chaos fedknow", 0xe08628c7a22a1479),
            ("sixcnn chaos gem", 0x4fd4d32277368f93),
            ("sixcnn chaos bcn", 0x163397be28140fd6),
            ("sixcnn chaos co2l", 0x8e822a96384b5e5f),
            ("sixcnn chaos ewc", 0xb3465470ec27b9e8),
            ("sixcnn chaos mas", 0x97f74bc27a61d9bd),
            ("sixcnn chaos agscl", 0xc29c9248c4670513),
            ("sixcnn chaos fedavg", 0x4a0cbecb2361d311),
            ("sixcnn chaos apfl", 0x0f6e1b7df4b592f8),
            ("sixcnn chaos fedrep", 0xcfa2b390f385c587),
            ("sixcnn chaos flcn", 0x8b96dfd6e2b467b2),
            ("sixcnn chaos fedweit", 0x0fc34841dddc26ed),
            ("sixcnn chaos fedweit-own", 0x64db403dfc629e10),
            ("sixcnn chaos agem", 0x14956ccc3ae6d9e8),
            ("resnet18 clean fedknow", 0x496537ab21f08027),
            ("resnet18 clean fedavg", 0x8784c707f6445f91),
            ("resnet18 clean gem", 0x02caa28eef4e4fa4),
            ("resnet18 chaos fedknow", 0x4f8aec525cf36c1e),
            ("resnet18 chaos fedavg", 0x6fc85f8ff49ada02),
            ("resnet18 chaos gem", 0x3e30ee5661fa1cc3),
        ]),
        _ => None,
    }
}

#[test]
fn reports_match_the_recorded_digests() {
    if crate::TELEMETRY {
        fedknow_obs::enable();
    }
    let isa = gemm::isa_name();
    let got = digests();
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
        "reports moved under {isa} (telemetry {}) for {moved:?}; computed table:\n{rendered}",
        crate::TELEMETRY
    );
}
