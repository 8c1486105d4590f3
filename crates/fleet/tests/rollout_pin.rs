//! The rollout loop, pinned across its drivers: the CI chaos trace
//! through `Journal::drive` and through a one-fabric `Fleet` (same flap
//! damping, same chaos schedule, same checkpoint cadence) must leave
//! byte-identical journal files — both equal to the committed
//! `results/ctrld_chaos.journal`, which `tagger-fleetd replay` writes
//! for the same trace and chaos spec — and equal `ControllerMetrics`
//! counters, which are the counters the fabric reports.
//!
//! The crash drill is pinned here too: the same trace, crashed mid-epoch,
//! recovered from its journal, reconciled and finished through the
//! reopened journal, must leave that same golden journal.

use tagger_ctrl::{
    parse_trace, recover, ChaosConfig, ChaosSouthbound, Controller, ControllerMetrics, ElpPolicy,
    InstallPolicy, Journal, Southbound,
};
use tagger_fleet::{Damping, FabricSpec, Fleet, FleetConfig};
use tagger_topo::ClosConfig;

const TRACE: &str = include_str!("../../../examples/reroute.trace");
const GOLDEN: &str = include_str!("../../../results/ctrld_chaos.journal");
const CHAOS: &str = "seed=22,fail_rate=0.3,timeout_rate=0.1,partial_rate=0.1";
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

/// Drives the shipped trace under `chaos` with a simulated crash after
/// `crash_after` outcomes, rebuilds the controller from the journal,
/// reconciles the switches the crash left behind, and finishes the trace
/// through the reopened journal. Returns the finished journal and the
/// epoch it recovers to.
fn crash_drill(name: &str, chaos: &str, checkpoint_every: u64, crash_after: u64) -> (String, u64) {
    let path = std::env::temp_dir().join(format!(
        "tagger-crash-drill-{}-{name}.journal",
        std::process::id()
    ));
    let topo = ClosConfig::small().build();
    let policy = ElpPolicy::with_bounces(1);
    let events = parse_trace(&topo, TRACE).expect("shipped trace parses");
    let install = InstallPolicy::default();
    let mut crashed = Controller::new(topo.clone(), policy).expect("bootstrap");
    // The switches outlive the controller: one southbound, before and
    // after the crash.
    let mut southbound = ChaosSouthbound::new(ChaosConfig::parse(chaos).expect("chaos spec"));
    southbound.bootstrap(&crashed.committed().rules);
    let report = Journal::create(&path)
        .expect("journal")
        .checkpoint_every(checkpoint_every)
        .drive(
            &mut crashed,
            &events,
            &mut southbound,
            &install,
            Some(crash_after),
            None,
        )
        .expect("drive up to the crash");
    assert!(report.crashed, "{name}: the drive must stop at the crash");
    assert_eq!(report.outcomes.len() as u64, crash_after, "{name}");

    let rec = recover(&path, topo.clone(), policy, None).expect("recover after the crash");
    let mut ctrl = rec.controller;
    assert_eq!(ctrl.committed().epoch, crashed.committed().epoch, "{name}");
    assert_eq!(
        ctrl.committed().rules,
        crashed.committed().rules,
        "{name}: recovered tables differ from the crashed controller's"
    );
    assert_eq!(
        ctrl.state().quarantines,
        crashed.state().quarantines,
        "{name}"
    );
    assert!(
        !rec.tail.is_empty(),
        "{name}: the batch in flight is the tail"
    );
    drop(crashed);

    ctrl.reconcile(&mut southbound);
    assert_eq!(southbound.fleet(), &ctrl.committed().rules, "{name}");

    let remaining = [rec.tail.as_slice(), &events[report.consumed..]].concat();
    Journal::open_append(&path)
        .expect("reopen the journal")
        .checkpoint_every(checkpoint_every)
        .drive(&mut ctrl, &remaining, &mut southbound, &install, None, None)
        .expect("finish the trace");
    assert_eq!(southbound.fleet(), &ctrl.committed().rules, "{name}");

    let again = recover(&path, topo, policy, None).expect("recover the finished journal");
    assert!(again.tail.is_empty(), "{name}: nothing left in flight");
    assert_eq!(
        again.controller.committed().epoch,
        ctrl.committed().epoch,
        "{name}"
    );
    let journal = std::fs::read_to_string(&path).expect("journal bytes");
    std::fs::remove_file(&path).ok();
    (journal, again.controller.committed().epoch)
}

#[test]
fn a_crashed_replay_recovers_and_finishes_the_golden_journal() {
    let (journal, epoch) = crash_drill("golden", CHAOS, CHECKPOINT_EVERY, 3);
    assert_eq!(
        journal, GOLDEN,
        "the crashed run must finish results/ctrld_chaos.journal"
    );
    assert_eq!(epoch, 5);
}

#[test]
fn a_replay_crashed_early_under_harsh_faults_recovers_and_finishes() {
    // A checkpoint after every outcome, and a crash after the first.
    crash_drill("harsh", "seed=1,fail_rate=0.6", 1, 1);
}
