//! `tagger-fleetd serve` and `send` as processes: the daemon binds an
//! ephemeral port and says where, a client streams a two-fabric stream
//! to it, and closing the daemon's stdin drains every queue and exits on
//! a healthy report; a retired flag, a retired subcommand or an unknown
//! one is refused.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Output, Stdio};

const STREAM: &str = "\
alpha: down L1 T1
beta: flap L2 T2 2
alpha: up L1 T1
beta: resync
alpha: resync
";

#[test]
fn serve_drains_what_send_delivered_and_exits_on_stdin_eof() {
    let dir = std::env::temp_dir().join(format!("tagger-serve-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut fleetd = Command::new(env!("CARGO_BIN_EXE_tagger-fleetd"))
        .args(["serve", "--addr", "127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("tagger-fleetd runs");
    let mut stdout = BufReader::new(fleetd.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("banner");
    let addr = first
        .split_once("serving on ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no bound address in {first:?}"))
        .to_string();

    let mut send = Command::new(env!("CARGO_BIN_EXE_tagger-fleetd"))
        .args(["send", "--addr", &addr, "--client", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("tagger-fleetd send runs");
    send.stdin
        .take()
        .expect("piped stdin")
        .write_all(STREAM.as_bytes())
        .expect("stream written");
    let sent = send.wait_with_output().expect("tagger-fleetd send exits");
    let summary = String::from_utf8_lossy(&sent.stdout);
    assert_eq!(sent.status.code(), Some(0), "{summary}");
    assert!(summary.contains("offered 5 delivered 5"), "{summary}");

    drop(fleetd.stdin.take());
    let mut report = String::new();
    stdout.read_to_string(&mut report).expect("report");
    let status = fleetd.wait().expect("tagger-fleetd exits");
    assert_eq!(status.code(), Some(0), "{report}");
    for fabric in ["alpha", "beta"] {
        let row = report
            .lines()
            .find(|l| l.contains(&format!("] {fabric} ")))
            .unwrap_or_else(|| panic!("no {fabric} row in {report}"));
        assert!(
            row.contains("queued    0") && row.contains("audit ok  converged"),
            "{row}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn the_soak_and_drill_subcommands_are_gone() {
    // Both runs are golden tests in crates/fleet/tests now: `soak_e2e`
    // and `net_soak`.
    for args in [
        &["soak", "--fabrics", "8", "--seed", "42", "--json"][..],
        &["drill", "--seed", "12648430"],
    ] {
        let cmd = args[0];
        let out = run(env!("CARGO_BIN_EXE_tagger-fleetd"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} ran anyway");
        assert!(
            stderr.contains(&format!("unknown subcommand \"{cmd}\""))
                && stderr.contains("usage: tagger-fleetd <replay|ingest|serve|send>"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn retired_flags_and_unknown_subcommands_are_refused() {
    // The watchdog drill is a test now, not a replay mode.
    let replay = run(
        env!("CARGO_BIN_EXE_tagger-fleetd"),
        &["replay", "--watchdog", "200"],
    );
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --watchdog"), "{stderr}");

    let fleetd = run(env!("CARGO_BIN_EXE_tagger-fleetd"), &["ingest-send"]);
    let stderr = String::from_utf8_lossy(&fleetd.stderr);
    assert_eq!(fleetd.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown subcommand") && stderr.contains("usage: tagger-fleetd"),
        "{stderr}"
    );
}
