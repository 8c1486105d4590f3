//! `tagger-fleetd replay` as a process: the chaos replay writes the
//! committed `results/ctrld_chaos.journal` byte for byte, its exported
//! checkpoint passes `tagger-audit check`, the pinned detour of
//! `examples/reroute.trace` changes only its own hops, a 40-switch Clos
//! bootstraps, and an argument or flag the subcommand does not take is
//! refused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CHAOS: &str = "seed=22,fail_rate=0.3,timeout_rate=0.1,partial_rate=0.1";

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn fleetd(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tagger-fleetd"), args)
}

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-replay-cli-{}-{name}", std::process::id()))
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn chaos_replay_writes_the_golden_journal() {
    let journal = tmp("chaos.journal");
    let trace = repo("examples/reroute.trace");
    let out = fleetd(&[
        "replay",
        utf8(&trace),
        "--chaos",
        CHAOS,
        "--journal",
        utf8(&journal),
        "--checkpoint-every",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("southbound: chaos ("), "{stdout}");
    assert!(stdout.contains("audit ok  converged"), "{stdout}");
    let written = std::fs::read(&journal).expect("journal written");
    let golden = std::fs::read(repo("results/ctrld_chaos.journal")).expect("golden");
    assert!(
        written == golden,
        "journal differs from results/ctrld_chaos.journal"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn exported_checkpoint_passes_the_offline_audit() {
    let ckpt = tmp("final.ckpt");
    let trace = repo("examples/reroute.trace");
    let out = fleetd(&["replay", utf8(&trace), "--export-checkpoint", utf8(&ckpt)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("exported epoch 6 checkpoint"), "{stdout}");
    let check = run(env!("CARGO_BIN_EXE_tagger-audit"), &["check", utf8(&ckpt)]);
    let report = String::from_utf8_lossy(&check.stdout);
    assert_eq!(check.status.code(), Some(0), "{report}");
    assert!(
        report.contains("certificate: epoch 6 deadlock-free"),
        "{report}"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn the_detour_changes_only_its_own_hops_and_link_events_change_nothing() {
    let out = fleetd(&["replay", utf8(&repo("examples/reroute.trace"))]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // Each epoch line, with the deltas line that follows it.
    let epoch = |label: &str| {
        let mut lines = stdout.lines();
        let head = lines
            .find(|l| l.contains(&format!("<- {label}:")))
            .unwrap_or_else(|| panic!("no {label} epoch in:\n{stdout}"));
        format!("{head}\n{}", lines.next().unwrap_or_default())
    };
    let add = epoch("elp-add");
    assert!(
        add.contains("3 lossless priorities") && add.contains("3 switches touched, +3 -0 rules"),
        "{add}"
    );
    let up = epoch("link-up");
    assert!(up.contains("0 switches touched"), "{up}");
    let remove = epoch("elp-remove");
    assert!(remove.contains("+0 -3 rules"), "{remove}");
}

#[test]
fn clos_medium_bootstraps_at_two_priorities() {
    // 40 switches and 128 hosts: past what enumerating the 1-bounce ELP
    // can certify in a test's time and memory.
    let out = fleetd(&["replay", "--topo", "clos medium", "/dev/null"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("40 switches") && stdout.contains("2 lossless priorities"),
        "{stdout}"
    );
    assert!(
        stdout.contains("closed form (structural certificate)"),
        "{stdout}"
    );
}

#[test]
fn arguments_and_flags_replay_does_not_take_are_refused() {
    for (args, needle) in [
        (
            &["replay", "a.trace", "b.trace"][..],
            "unexpected argument `b.trace`",
        ),
        (
            &["replay", "--crash-after", "3"],
            "unknown flag --crash-after",
        ),
        (&["replay", "--audit"], "unknown flag --audit"),
        (&["soak", "8"], "unknown subcommand \"soak\""),
    ] {
        let out = fleetd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
