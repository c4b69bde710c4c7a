//! The command-line contract every bench binary keeps: a flag it does
//! not have, or one of its flags without a value, is exit 2 with that
//! binary's own usage line; `figures` writes under `--results DIR` and
//! nowhere else.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &str) -> Output {
    let args = args.split_whitespace();
    Command::new(bin).args(args).output().expect("spawn")
}

#[test]
fn unknown_flags_and_missing_values_exit_two_with_the_usage_line() {
    // (binary, arguments with a flag it does not have, arguments that end
    // before a flag's value). `bench_gate` has no flag to cut short: one
    // path is one too few.
    macro_rules! row {
        ($bin:literal, $unknown:literal, $cut_short:literal) => {
            (
                $bin,
                env!(concat!("CARGO_BIN_EXE_", $bin)),
                [$unknown, $cut_short],
            )
        };
    }
    let table = [
        row!("bench_gate", "--lenient a b", "a.json"),
        row!("chaos_probe", "--frob", "--connect x --client-id"),
        row!("figures", "--fig 4 --lenient", "--fig 4 --results"),
        row!("kernel_bench", "--smoke --scale smoke", "--smoke --reps"),
        row!("make_experiments_md", "--out x.md", "--results"),
        row!(
            "obs",
            "trace convert a.json --frob",
            "trace convert a.json -o"
        ),
        row!("probe", "--tasks 2 --frob", "--tasks"),
    ];
    for (name, bin, bad) in table {
        for args in bad {
            refused(name, bin, args);
        }
    }
}

/// Run `bin args`, assert it exits 2 with `name`'s usage line before
/// doing anything, and return its stderr.
fn refused(name: &str, bin: &str, args: &str) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {args}: {stderr}");
    let usage = format!("usage: {name} ");
    assert!(stderr.contains(&usage), "{name} {args}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args} ran before the check");
    stderr
}

/// A value or subcommand that was removed is refused like any bad
/// input, and the usage line offers only what is left.
#[test]
fn removed_values_exit_two_with_the_usage_line() {
    for (name, bin) in [
        ("figures", env!("CARGO_BIN_EXE_figures")),
        ("chaos_probe", env!("CARGO_BIN_EXE_chaos_probe")),
    ] {
        let stderr = refused(name, bin, "--transport channel");
        assert!(
            stderr.contains("[--transport tcp|unix]"),
            "{name}: {stderr}"
        );
    }
    for removed in ["summary", "merge"] {
        let stderr = refused(
            "obs",
            env!("CARGO_BIN_EXE_obs"),
            &format!("trace {removed} x"),
        );
        assert!(
            !stderr.contains(&format!("obs trace {removed}")),
            "{stderr}"
        );
    }
}

#[test]
fn figures_writes_under_results_dir_and_nowhere_else() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-scratch/cli_results");
    let _ = std::fs::remove_dir_all(&dir);
    // Run from inside an empty directory, so a file written relative to
    // the current directory shows up as an extra entry.
    std::fs::create_dir_all(dir.join("cwd")).unwrap();
    let listing = |sub: &str| {
        let entries = std::fs::read_dir(dir.join(sub)).unwrap();
        let mut names: Vec<_> = entries.map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args("--fig 4 --scale smoke --seed 7 --only cifar100 --results ../out".split(' '))
        .current_dir(dir.join("cwd"))
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        listing("out"),
        ["BENCH_fig4_cifar100.json", "fig4_cifar100.json"]
    );
    assert_eq!(listing(""), ["cwd", "out"]);
    assert!(listing("cwd").is_empty());
}

/// The figure driver rejects an id its table does not have and lists
/// the ones it does, the fault sweep among them.
#[test]
fn figures_rejects_an_unknown_id_and_lists_the_valid_ones() {
    let out = run(env!("CARGO_BIN_EXE_figures"), "--fig 4,nope --scale smoke");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`nope`"), "{stderr}");
    let ids = fedknow_bench::figures::FIGURES.map(|(id, ..)| id);
    assert!(ids.contains(&"resilience"));
    assert!(stderr.contains(&ids.join(",")), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}
