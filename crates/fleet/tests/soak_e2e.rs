//! The fleet soak golden: 8 fabrics under distinct seeded chaos
//! schedules in one process, every fabric audit-certified and
//! crash-recoverable, and the banner, readiness report and JSON snapshot
//! byte-identical to `results/fleet_soak.txt`. The run journals into a
//! fresh per-process directory, so the golden also pins that nothing in
//! the report depends on where the journals live.

use tagger_fleet::{run_soak, SoakConfig};

const GOLDEN: &str = include_str!("../../../results/fleet_soak.txt");

#[test]
fn eight_fabric_soak_certifies_and_matches_its_golden() {
    let dir = std::env::temp_dir().join(format!("tagger-soak-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = SoakConfig::new(&dir);
    cfg.fabrics = 8;
    cfg.seed = 42;
    cfg.events_per_fabric = 48;
    cfg.fail_rate = 0.25;
    let outcome = run_soak(&cfg).expect("soak runs");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(outcome.readiness.fabrics.len(), 8);
    assert!(
        outcome.readiness.all_ready(),
        "every fabric must end certified, recoverable, quarantine-consistent \
         and converged:\n{}",
        outcome.readiness.render()
    );
    // Chaos really ran: distinct seeded schedules injected faults
    // somewhere in the fleet, and the controllers still certified.
    let faults: u64 = outcome
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
    let ingests: std::collections::BTreeSet<(u64, u64)> = outcome
        .readiness
        .fabrics
        .iter()
        .map(|f| (f.status.ingested, f.status.faults_injected))
        .collect();
    assert!(
        ingests.len() > 1,
        "fabrics must run distinct schedules, not copies of one"
    );

    let text = format!(
        "tagger-fleetd: soaking {} fabrics ({} events each, chaos fail_rate {:.2}, seed {})\n{}{}",
        cfg.fabrics,
        cfg.events_per_fabric,
        cfg.fail_rate,
        cfg.seed,
        outcome.readiness.render(),
        outcome.snapshot.to_json(),
    );
    assert!(
        text == GOLDEN,
        "the soak report differs from results/fleet_soak.txt:\n{text}"
    );
}
