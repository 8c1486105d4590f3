//! `tagger-plan` at the process boundary: a flag or fabric-spec key it
//! does not know, a flag with no value, a value that is not a number, a
//! stray argument and a dimension no builder takes are refused with the
//! argument named, not skipped or panicked on; `tagger-plan table`
//! reproduces the committed planner tables byte for byte.

use std::process::{Command, Output};

fn plan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tagger-plan"))
        .args(args)
        .output()
        .expect("tagger-plan runs")
}

/// Exit 1, nothing planned, no panic, and a single stderr line
/// containing `needle`.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "planned anyway");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn unknown_and_malformed_flags_are_refused() {
    // A misspelt key used to plan the default 50-switch fabric.
    assert_refused(
        &plan(&["--topo", "jellyfish switchs=500"]),
        "line 1:11: unknown `jellyfish` key \"switchs\" (did you mean switches?)",
    );
    // Another family's key is as unknown as a misspelt one.
    assert_refused(
        &plan(&["--topo", "jellyfish pods=3"]),
        "unknown `jellyfish` key \"pods\"",
    );
    assert_refused(&plan(&["--topo", "clso"]), "(did you mean clos?)");
    // The retired per-fabric flags and subcommands are unknown.
    assert_refused(&plan(&["--switches", "500"]), "unknown flag --switches");
    assert_refused(&plan(&["jellyfish"]), "unexpected argument `jellyfish`");
    // A trailing flag with no value used to be dropped.
    assert_refused(&plan(&["--topo"]), "--topo needs a value");
    assert_refused(
        &plan(&["--topo", "clos", "--bounces"]),
        "--bounces needs a value",
    );
    // A non-numeric value used to panic.
    assert_refused(
        &plan(&["--topo", "jellyfish ports=x"]),
        "line 1:11: ports wants a number, got \"x\"",
    );
    assert_refused(&plan(&["--bounces", "one"]), "--bounces");
    // A stray positional used to plan the default 2-pod fabric.
    assert_refused(&plan(&["--topo", "clos", "4"]), "unexpected argument `4`");
    // A knob of the other ELP is refused, not ignored.
    assert_refused(
        &plan(&["--topo", "jellyfish", "--bounces", "2"]),
        "--bounces does not apply",
    );
    // The accepted spellings still plan, on the fabric they name.
    let ok = plan(&["--topo", "jellyfish switches=12 ports=6", "--rules"]);
    assert_eq!(ok.status.code(), Some(0));
    let shown = String::from_utf8_lossy(&ok.stdout);
    assert!(
        shown.starts_with(
            "plan: jellyfish switches=12 ports=6 seed=7, switch-pair shortest-path ELP\n"
        ),
        "{shown}"
    );
    assert!(
        shown.contains("switch "),
        "--rules dumps the tables: {shown}"
    );
}

// A dimension the fabric's builder cannot take used to panic with a
// backtrace (exit 101); it is refused at the number to blame.

#[test]
fn an_odd_fat_tree_is_refused() {
    assert_refused(
        &plan(&["--topo", "fattree 3"]),
        "--topo: line 1:9: k=3: a fat-tree needs an even k of at least 2",
    );
}

#[test]
fn a_jellyfish_too_small_to_wire_is_refused() {
    assert_refused(
        &plan(&["--topo", "jellyfish switches=4 ports=2"]),
        "--topo: line 1:22: ports=2: a Jellyfish switch needs at least 4 ports",
    );
}

#[test]
fn a_clos_without_hosts_is_refused() {
    assert_refused(
        &plan(&["--topo", "clos hosts_per_tor=0"]),
        "--topo: line 1:6: hosts_per_tor=0: a Clos dimension must be at least 1",
    );
}

#[test]
fn planner_tables_match_their_goldens() {
    // The cheap tables; CI's planner-goldens job also runs Table 1 and
    // Table 5, whose runs take seconds.
    for table in [
        "table34_rules",
        "clos_optimality",
        "bcube_tags",
        "multiclass_tags",
        "rule_compression",
    ] {
        let out = plan(&["table", table]);
        assert_eq!(out.status.code(), Some(0), "{table}");
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("{table}.txt"));
        let golden = std::fs::read_to_string(golden).expect("golden");
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{table}");
    }
}

#[test]
fn table_arguments_are_refused() {
    // `--large` used to be spotted anywhere in argv, so a misspelling ran
    // the default table.
    assert_refused(&plan(&["table", "table5_jellyfish", "--larg"]), "--larg");
    assert_refused(&plan(&["table", "clos_optimality", "--large"]), "--large");
    assert_refused(&plan(&["table", "tabel5"]), "\"tabel5\"");
}
