//! The rollout loop, pinned across its drivers: the CI chaos trace
//! through `Journal::drive` and through a one-fabric `Fleet` (same flap
//! damping, same chaos schedule, same checkpoint cadence) must leave
//! byte-identical journal files — both equal to the committed
//! `results/ctrld_chaos.journal`, which `tagger-ctrld` writes for the
//! same command — and equal `ControllerMetrics` counters, which are the
//! counters the fabric reports.

use tagger_ctrl::{
    parse_trace, ChaosConfig, ChaosSouthbound, Controller, ControllerMetrics, ElpPolicy,
    InstallPolicy, Journal, Southbound,
};
use tagger_fleet::{Damping, FabricSpec, Fleet, FleetConfig};
use tagger_topo::ClosConfig;

const TRACE: &str = include_str!("../../../examples/reroute.trace");
const GOLDEN: &str = include_str!("../../../results/ctrld_chaos.journal");
const CHAOS: &str = "seed=7,fail_rate=0.3,timeout_rate=0.1,partial_rate=0.1";
const CHECKPOINT_EVERY: u64 = 2;

/// The counters, with the wall-clock stage latencies cleared.
fn counters(metrics: &ControllerMetrics) -> String {
    let mut m = metrics.clone();
    m.stage_us = Default::default();
    format!("{m:?}")
}

#[test]
fn drive_and_one_fabric_fleet_leave_identical_journals_and_counters() {
    let dir = std::env::temp_dir().join(format!("tagger-rollout-pin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let topo = ClosConfig::small().build();
    let events = parse_trace(&topo, TRACE).expect("shipped trace parses");
    let chaos = ChaosConfig::parse(CHAOS).expect("chaos spec");

    let solo_path = dir.join("solo.journal");
    let mut ctrl = Controller::new(topo.clone(), ElpPolicy::with_bounces(1)).expect("bootstrap");
    let mut southbound = ChaosSouthbound::new(chaos);
    southbound.bootstrap(&ctrl.committed().rules);
    let report = Journal::create(&solo_path)
        .expect("solo journal")
        .checkpoint_every(CHECKPOINT_EVERY)
        .drive(
            &mut ctrl,
            &events,
            &mut southbound,
            &InstallPolicy::default(),
            None,
            None,
        )
        .expect("solo drive");
    assert!(!report.crashed);

    let mut fleet = Fleet::new(FleetConfig::new(&dir));
    let mut spec = FabricSpec::new("fleet", topo)
        .with_damping(Damping::Flap)
        .with_chaos(chaos);
    spec.checkpoint_every = CHECKPOINT_EVERY;
    fleet.register(spec).expect("register");
    for event in &events {
        fleet.ingest("fleet", event.clone()).expect("within cap");
    }
    fleet.drain_all().expect("drain");
    let fabric = fleet.fabric("fleet").expect("registered");

    let solo = std::fs::read_to_string(&solo_path).expect("solo journal bytes");
    let fleet_bytes = std::fs::read_to_string(fabric.journal_path()).expect("fleet journal bytes");
    assert_eq!(solo, fleet_bytes, "the two drivers journal differently");
    assert_eq!(
        solo, GOLDEN,
        "journal differs from results/ctrld_chaos.journal"
    );
    assert_eq!(
        counters(ctrl.metrics()),
        counters(fabric.controller().metrics()),
        "the two drivers count differently"
    );
    assert!(ctrl.metrics().flaps_damped > 0 && ctrl.metrics().rollbacks > 0);

    // The fabric's own counters are the controller's: they match what
    // the solo drive's outcomes say happened.
    let committed = report
        .outcomes
        .iter()
        .filter(|o| o.committed().is_some())
        .count() as u64;
    let total = report.outcomes.len() as u64;
    assert_eq!(fabric.commits(), committed);
    assert_eq!(fabric.rollbacks(), total - committed);
    assert_eq!(fabric.batches(), total);
    // One stage latency per staged batch, rolled-back ones included.
    let staged = fabric.controller().metrics().epochs_staged;
    assert_eq!(staged, total);
    assert_eq!(fabric.epoch_latencies_us().len() as u64, staged);
    std::fs::remove_dir_all(&dir).ok();
}
