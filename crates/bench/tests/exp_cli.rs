//! The `exp` campaign runner as a process: bad input is a usage error
//! that lists the campaigns and never runs (or writes) anything, and a
//! smoke sweep's JSON is byte-identical across processes.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory per test, so a stray full run could only
/// ever write its `BENCH_*.json` here.
fn workdir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("exp_cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn exp(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn exp")
}

fn assert_usage_error(test: &str, args: &[&str], problem: &str) {
    let dir = workdir(test);
    let out = exp(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
    assert!(stderr.contains(problem), "{args:?}: {stderr}");
    for name in bench::campaign::names() {
        assert!(
            stderr.contains(name),
            "{args:?}: usage omits `{name}`: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn missing_name_is_a_usage_error() {
    assert_usage_error("missing", &[], "missing campaign name");
    assert_usage_error(
        "flags-only",
        &["--smoke", "--json"],
        "missing campaign name",
    );
}

#[test]
fn unknown_name_is_a_usage_error() {
    assert_usage_error(
        "unknown",
        &["chaoss", "--smoke"],
        "unknown campaign `chaoss`",
    );
}

#[test]
fn unknown_flag_is_a_usage_error_not_a_full_run() {
    assert_usage_error("flag", &["chaos", "--smok"], "unexpected argument `--smok`");
    assert_usage_error(
        "stretch",
        &["shard", "--smoke", "--stretch"],
        "unexpected argument `--stretch`",
    );
}

#[test]
fn second_name_is_a_usage_error() {
    assert_usage_error(
        "two-names",
        &["chaos", "attack"],
        "unexpected argument `attack`",
    );
}

#[test]
fn smoke_json_is_byte_identical_across_processes() {
    let dir = workdir("determinism");
    let a = exp(&dir, &["chaos", "--smoke", "--json"]);
    let b = exp(&dir, &["--json", "chaos", "--smoke"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout);
    assert!(a.stdout.starts_with(b"{\"campaigns\":["));
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a smoke run wrote a file"
    );
}

#[test]
fn ci_loops_over_every_campaign() {
    let ci = include_str!("../../../.github/workflows/ci.yml");
    let listed = ci
        .lines()
        .find_map(|l| l.trim().strip_prefix("CAMPAIGNS:"))
        .expect("ci.yml sets CAMPAIGNS");
    assert_eq!(
        listed.split_whitespace().collect::<Vec<_>>(),
        bench::campaign::names()
    );
}
