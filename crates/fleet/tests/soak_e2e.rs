//! End-to-end soak drill (ISSUE acceptance): ≥8 fabrics under distinct
//! seeded chaos schedules in one process, every fabric audit-certified
//! and crash-recoverable, and the readiness report byte-stable given
//! the seed — even across different journal directories.

use std::path::PathBuf;
use tagger_fleet::{run_soak, SoakConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-soak-e2e-{}-{tag}", std::process::id()))
}

#[test]
fn eight_fabric_soak_certifies_and_is_byte_stable() {
    let run = |tag: &str| {
        let dir = tmp_dir(tag);
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SoakConfig::new(&dir);
        cfg.fabrics = 8;
        // Deliberately light: this is the debug-mode invariant check.
        // The full-size drill (48 events per fabric, release) runs as
        // the `fleet-soak` CI job via `tagger-fleetd soak`.
        cfg.events_per_fabric = 6;
        cfg.seed = 2026;
        let outcome = run_soak(&cfg).expect("soak runs");
        std::fs::remove_dir_all(&dir).ok();
        outcome
    };

    let first = run("a");
    assert_eq!(first.readiness.fabrics.len(), 8);
    assert!(
        first.readiness.all_ready(),
        "every fabric must end certified, recoverable, quarantine-consistent \
         and converged:\n{}",
        first.readiness.render()
    );
    // Chaos really ran: distinct seeded schedules injected faults
    // somewhere in the fleet, and the controllers still certified.
    let faults: u64 = first
        .readiness
        .fabrics
        .iter()
        .map(|f| f.status.faults_injected)
        .sum();
    assert!(
        faults > 0,
        "the chaos schedules must actually inject faults"
    );
    // Schedules are distinct per fabric.
    let ingests: std::collections::BTreeSet<(u64, u64)> = first
        .readiness
        .fabrics
        .iter()
        .map(|f| (f.status.ingested, f.status.faults_injected))
        .collect();
    assert!(
        ingests.len() > 1,
        "fabrics must run distinct schedules, not copies of one"
    );

    // Byte-stability: a second run with the same seed — in a different
    // journal directory — renders the identical readiness report and
    // the identical JSON snapshot.
    let second = run("b");
    assert_eq!(
        first.readiness.render(),
        second.readiness.render(),
        "readiness report must be byte-stable given the seed"
    );
    assert_eq!(
        first.snapshot.to_json(),
        second.snapshot.to_json(),
        "fleet JSON snapshot must be byte-stable given the seed"
    );
}
