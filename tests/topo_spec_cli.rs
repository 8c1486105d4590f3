//! The fabric spec at the process boundary: a dimension no builder
//! takes is refused with a spanned message wherever a spec is read —
//! a checkpoint header, a scenario's checkpoint, `--topo` — instead of
//! panicking; a fabric the controller cannot run is refused before a
//! controller bootstraps on it; and a Jellyfish table goes through the
//! checkpoint, the auditor, the linter and the simulator end to end.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tagger::audit::checkpoint;
use tagger::core::{Elp, Tagging};
use tagger::scenario::{instantiate, parse, RunOptions};
use tagger::topo::TopoSpec;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn audit(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tagger-audit"), args)
}

fn lint(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tagger-lint"), args)
}

/// A fresh directory under the temp directory, removed first if a
/// previous run left it.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tagger-topo-spec-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// `examples/fig1_cycle.ckpt` with its header's spines set to zero.
fn zero_spine_checkpoint(dir: &Path) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fig1_cycle.ckpt");
    let text = std::fs::read_to_string(fixture).expect("fixture");
    assert!(text.contains(" spines=2 "), "the fixture names two spines");
    let path = dir.join("zero_spines.ckpt");
    std::fs::write(&path, text.replace(" spines=2 ", " spines=0 ")).expect("write checkpoint");
    path
}

/// Exit 1 and no panic.
fn assert_refused(out: &Output) -> (String, String) {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    (stdout, stderr)
}

const ZERO_SPINES: &str = "spines=0: a Clos dimension must be at least 1";

#[test]
fn audit_refuses_a_zero_spine_checkpoint() {
    let dir = scratch("audit");
    let ckpt = zero_spine_checkpoint(&dir);
    let (_, stderr) = assert_refused(&audit(&["check", utf8(&ckpt)]));
    assert!(
        stderr.contains(&format!("checkpoint line 10: {ZERO_SPINES}")),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_refuses_a_zero_spine_checkpoint() {
    let dir = scratch("lint");
    let ckpt = zero_spine_checkpoint(&dir);
    let (stdout, _) = assert_refused(&lint(&["check", utf8(&ckpt)]));
    // Spanned to the `spines=0` word of the header on line 10.
    assert!(
        stdout.contains(&format!(
            "zero_spines.ckpt:10:50: error[T0002]: {ZERO_SPINES}"
        )),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_scenario_checkpoint_of_a_zero_spine_file_is_an_expand_error() {
    let dir = scratch("scenario");
    zero_spine_checkpoint(&dir);
    let s = parse("scenario zero\ncheckpoint zero_spines.ckpt\nassert no-deadlock\n")
        .expect("the scenario parses; the checkpoint is read at expansion");
    let opts = RunOptions {
        seed: None,
        base_dir: dir.clone(),
    };
    let Err(e) = instantiate(&s, &BTreeMap::new(), &opts) else {
        panic!("a zero-spine checkpoint expanded");
    };
    assert!(e.message.contains(ZERO_SPINES), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_controller_refuses_a_fabric_with_an_unranked_switch() {
    let dir = scratch("controller");
    let journal = dir.join("j.journal");
    let trace = dir.join("empty.trace");
    std::fs::write(&trace, "").expect("write trace");
    let spec = "jellyfish switches=16 ports=6 seed=7";
    let replay = run(
        env!("CARGO_BIN_EXE_tagger-fleetd"),
        &[
            "replay",
            utf8(&trace),
            "--topo",
            spec,
            "--journal",
            utf8(&journal),
        ],
    );
    let check = audit(&["check", "--journal", utf8(&journal), "--topo", spec]);
    for (out, code) in [(replay, 2), (check, 1)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{stderr}");
        assert!(out.stdout.is_empty(), "bootstrapped anyway");
        assert!(
            stderr.contains("cannot run under the controller")
                && stderr.contains("switch J1 has no layer"),
            "{stderr}"
        );
    }
    assert!(
        !journal.exists(),
        "a controller journaled before the refusal"
    );
    // A checkpoint names its own fabric, so `--topo` without `--journal`
    // is refused rather than ignored.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fig1_cycle.ckpt");
    let (_, stderr) = assert_refused(&audit(&["check", utf8(&fixture), "--topo", spec]));
    assert!(stderr.contains("--topo applies to --journal"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_jellyfish_table_checkpoints_audits_lints_and_carries_traffic() {
    let dir = scratch("jellyfish");
    // Table 5's ELP on a small Jellyfish: shortest paths between switches.
    let spec: TopoSpec = "jellyfish switches=16 ports=6 seed=7"
        .parse()
        .expect("spec");
    let topo = spec.build().expect("fabric");
    let elp = Elp::shortest(&topo, 1, false);
    let tagging = Tagging::from_elp(&topo, &elp).expect("tagging");
    let text = checkpoint::render(&spec, 1, &topo, tagging.rules());
    assert!(text.contains("\ntopo jellyfish switches=16 ports=6 seed=7\n"));
    let ckpt = dir.join("jellyfish.ckpt");
    std::fs::write(&ckpt, &text).expect("write checkpoint");

    let out = audit(&["check", utf8(&ckpt)]);
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{report}");
    assert!(
        report.contains("certificate: epoch 1 deadlock-free"),
        "{report}"
    );

    let out = lint(&["check", utf8(&ckpt)]);
    let shown = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{shown}");
    assert!(shown.contains("0 error(s)"), "{shown}");

    let scn = dir.join("jellyfish.scn");
    std::fs::write(
        &scn,
        "scenario jellyfish-checkpoint\ncheckpoint jellyfish.ckpt\nend 2ms\n\
         workload permutation\nworkload incast 6 H1\n\
         assert no-deadlock\nassert lossless-drops == 0\n",
    )
    .expect("write scenario");
    let out = run(env!("CARGO_BIN_EXE_tagger-scenario"), &["run", utf8(&scn)]);
    let shown = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{shown}");
    assert!(shown.contains("1/1 scenarios passed"), "{shown}");

    // A misspelt family or key in the header is refused with a hint.
    for (from, to, hint) in [
        ("topo jellyfish", "topo clso", "did you mean clos?"),
        ("switches=16", "switchs=16", "did you mean switches?"),
    ] {
        std::fs::write(&ckpt, text.replace(from, to)).expect("write checkpoint");
        let (_, stderr) = assert_refused(&audit(&["check", utf8(&ckpt)]));
        assert!(stderr.contains(hint), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
