//! `tagger-scenario` and `tagger-lint` at the process boundary: flags
//! and directives that do not exist are refused, not ignored.

use std::process::{Command, Output};

const FIG10: &str = "examples/scenarios/fig10_vanilla.scn";

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tagger-scenario"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("tagger-scenario runs")
}

/// Exit 1, nothing run, and a single stderr line containing `needle`.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "ran anyway");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn unknown_and_malformed_flags_are_refused() {
    assert_refused(&scenario(&["run", FIG10, "--sede", "7"]), "--sede");
    assert_refused(&scenario(&["sweep", FIG10, "--queue", "heap"]), "--queue");
    assert_refused(&scenario(&["list", FIG10, "--seed", "7"]), "--seed");
    assert_refused(&scenario(&["run", FIG10, "--seed", "abc"]), "`abc`");
    // The accepted spelling still runs, at the seed it names.
    let ok = scenario(&["run", FIG10, "--seed", "7"]);
    assert_eq!(ok.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("seed 7,"));
}

#[test]
fn queue_directive_is_unknown_to_runner_and_lint() {
    let scn = std::env::temp_dir().join(format!("tagger-queue-{}.scn", std::process::id()));
    std::fs::write(&scn, "scenario q\nqueue heap\nassert no-deadlock\n").expect("temp .scn");
    let path = scn.to_str().expect("utf-8 temp path");

    assert_refused(&scenario(&["run", path]), "unknown directive `queue`");

    let lint = Command::new(env!("CARGO_BIN_EXE_tagger-lint"))
        .args(["check", path])
        .output()
        .expect("tagger-lint runs");
    std::fs::remove_file(&scn).expect("remove temp .scn");
    assert_eq!(lint.status.code(), Some(1));
    let shown = String::from_utf8_lossy(&lint.stdout);
    assert!(shown.contains("T0601"), "lint output: {shown}");
}
