//! `skadi-cli` front door: `--help` prints usage in every mode, and a bad
//! or missing flag value exits non-zero with an error — never a panic,
//! and never a query run.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skadi-cli"))
        .args(args)
        .output()
        .expect("skadi-cli starts")
}

#[test]
fn help_prints_usage_in_every_mode() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["--distributed", "--help"],
        &["serve", "--help"],
        &["client", "-h"],
        &["chaos", "--help"],
        &["metrics", "-h"],
        &["trace", "--help"],
    ] {
        let out = cli(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        assert!(stdout.contains("usage:"), "{args:?}: {stdout}");
        assert!(!stdout.contains("sql>"), "{args:?} ran a query: {stdout}");
    }
}

#[test]
fn bad_values_exit_with_an_error_not_a_panic() {
    for args in [
        &["--parallelism", "x"][..],
        &["--parallelism"],
        &["--threads", "-3"],
        &["--placement", "nope"],
        &["--bogus"],
        &["chaos", "--ft", "bogus"],
        &["chaos", "--seed", "many"],
        &["chaos", "--permanent", "--multi"],
        &["metrics", "--parallelism"],
        &["metrics", "--what"],
        &["serve", "--rows", "lots"],
        &["serve", "--addr"],
        &["client", "--addr"],
    ] {
        let out = cli(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stdout.contains("sql>"), "{args:?} ran a query: {stdout}");
    }
}
