//! `tagger-plan` at the process boundary: a flag it does not know, a
//! flag with no value, a value that is not a number and an argument a
//! fabric does not take are refused with the argument named, not
//! skipped or panicked on; `tagger-plan table` reproduces the committed
//! planner tables byte for byte.

use std::process::{Command, Output};

fn plan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tagger-plan"))
        .args(args)
        .output()
        .expect("tagger-plan runs")
}

/// Exit 1, nothing planned, and a single stderr line containing `needle`.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "planned anyway");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn unknown_and_malformed_flags_are_refused() {
    // A misspelt flag used to plan the default 50-switch fabric.
    assert_refused(&plan(&["jellyfish", "--switchs", "500"]), "--switchs");
    // Another fabric's flag is as unknown as a misspelt one.
    assert_refused(&plan(&["jellyfish", "--pods", "3"]), "--pods");
    // A trailing flag with no value used to be dropped.
    assert_refused(&plan(&["jellyfish", "--seed"]), "--seed");
    // A non-numeric value used to panic.
    assert_refused(&plan(&["jellyfish", "--ports", "x"]), "--ports");
    assert_refused(&plan(&["clos", "--bounces", "one"]), "--bounces");
    // A stray positional used to plan the default 2-pod fabric.
    assert_refused(&plan(&["clos", "4"]), "unexpected argument `4`");
    // The accepted spellings still plan, on the fabric they name.
    let ok = plan(&["jellyfish", "--switches", "12", "--ports", "6", "--rules"]);
    assert_eq!(ok.status.code(), Some(0));
    let shown = String::from_utf8_lossy(&ok.stdout);
    assert!(
        shown.contains("jellyfish 12 switches x 6 ports (seed 7)"),
        "{shown}"
    );
    assert!(
        shown.contains("switch "),
        "--rules dumps the tables: {shown}"
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
