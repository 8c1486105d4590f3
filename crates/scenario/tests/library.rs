//! What the shipped scenarios show beyond their own `assert` blocks.
//!
//! Each test loads files from `examples/scenarios/`, expands them with
//! [`instantiate`] and reads the [`SimReport`] directly: per-flow rates
//! and freezes, with/without comparisons across two files, properties
//! over several seeds, and the watchdog report's timing and attribution
//! detail — checks the DSL has no assert kind for and does not need
//! one. A comparison's second arm is the shipped file with one
//! directive replaced ([`variant`]), so there is still one definition
//! of every experiment.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tagger_scenario::{instantiate, parse, RunOptions, Scenario};
use tagger_sim::experiments::quarantine_events;
use tagger_sim::{Experiment, SimReport, WatchdogReport};
use tagger_topo::GlobalPort;

/// The 200 µs point of the `sweep w` window grids.
const W_200US: [(&str, u64); 1] = [("w", 200_000)];

fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

fn text(file: &str) -> String {
    std::fs::read_to_string(dir().join(file)).unwrap()
}

fn parsed(file: &str, text: &str) -> Scenario {
    parse(text).unwrap_or_else(|issue| panic!("{file}:{issue}"))
}

fn load(file: &str) -> Scenario {
    parsed(file, &text(file))
}

/// The shipped `file` with the directive line `from` rewritten to `to`.
fn variant(file: &str, from: &str, to: &str) -> Scenario {
    let text = text(file);
    assert!(text.contains(from), "{file} has no `{from}` line");
    parsed(file, &text.replace(from, to))
}

fn expand(s: &Scenario, point: &[(&str, u64)], seed: Option<u64>) -> Experiment {
    let point: BTreeMap<String, u64> = point.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let opts = RunOptions {
        seed,
        base_dir: dir(),
    };
    instantiate(s, &point, &opts).unwrap_or_else(|e| panic!("{}: {e}", s.name))
}

/// Runs an unswept scenario at its own seed.
fn run(s: &Scenario) -> SimReport {
    expand(s, &[], None).run().0
}

fn watchdog(report: &SimReport) -> &WatchdogReport {
    report.watchdog.as_ref().expect("watchdog armed")
}

#[test]
fn fig10_freezes_both_flows_without_tagger_and_neither_with() {
    let vanilla = run(&load("fig10_vanilla.scn"));
    assert_eq!(vanilla.stalled_flows(5), 2);

    let tagger = run(&load("fig10_tagger.scn"));
    assert_eq!(tagger.stalled_flows(5), 0);
    for f in &tagger.flows {
        assert!(f.tail_rate(5) > 10e9, "flow {} too slow", f.flow);
    }
}

#[test]
fn fig11_loop_freezes_the_bystander_only_without_tagger() {
    // Flow 0 is F1 (H1->H5, caught in the loop), flow 1 the bystander F2.
    let vanilla = run(&load("fig11_vanilla.scn"));
    assert!(vanilla.flows[1].stalled(5), "F2 should be stalled");

    let tagger = run(&load("fig11_tagger.scn"));
    let (f1, f2) = (&tagger.flows[0], &tagger.flows[1]);
    assert!(f2.tail_rate(5) > 5e9, "F2 rate {}", f2.tail_rate(5));
    // F1's packets loop and die (goodput ~0 after the loop).
    assert_eq!(f1.tail_rate(3), 0.0);
    assert!(f1.ttl_drops > 0 || tagger.switch.lossy_drops > 0);
}

#[test]
fn fig12_pause_propagation_freezes_all_eight_flows() {
    let vanilla = run(&load("fig12_vanilla.scn"));
    // All eight flows deliver nothing at the end; the two bouncing
    // flows additionally show the ran-then-stalled signature.
    assert_eq!(vanilla.frozen_flows(5), 8, "all flows must freeze");
    assert!(vanilla.stalled_flows(5) >= 2);

    assert_eq!(run(&load("fig12_tagger.scn")).frozen_flows(5), 0);
}

#[test]
fn fig8_new_tag_transition_keeps_the_bouncing_flow_moving() {
    let report = run(&load("fig8_new_tag.scn"));
    assert!(report.flows[0].tail_rate(5) > 1e9);
}

#[test]
fn bcube_ring_freezes_all_four_flows_without_tagger() {
    let vanilla = run(&load("bcube_vanilla.scn"));
    assert_eq!(vanilla.frozen_flows(5), 4);

    let tagger = run(&load("bcube_tagger.scn"));
    assert_eq!(tagger.frozen_flows(5), 0);
    assert_eq!(tagger.switch.lossy_drops, 0); // the ELP covers every route
    for f in &tagger.flows {
        let rate = f.tail_rate(5);
        assert!(rate > 15e9, "flow {} at {rate}", f.flow);
    }
}

#[test]
fn dcqcn_slashes_pause_count_at_similar_goodput() {
    let without = run(&load("dcqcn_off.scn"));
    let with = run(&load("dcqcn_on.scn"));
    assert!(
        with.switch.pauses_sent * 5 < without.switch.pauses_sent,
        "expected >5x PAUSE reduction: {} vs {}",
        with.switch.pauses_sent,
        without.switch.pauses_sent
    );
    let ratio = with.aggregate_goodput_bps() / without.aggregate_goodput_bps();
    assert!(
        (0.85..1.15).contains(&ratio),
        "goodput ratio {ratio} out of range"
    );
}

#[test]
fn recovery_sacrifices_packets_only_without_tagger() {
    let vanilla = run(&load("recovery_vanilla.scn"));
    assert!(
        vanilla.recovery_drops > 0,
        "recovery must sacrifice packets"
    );
    assert_eq!(run(&load("recovery_tagger.scn")).recovery_drops, 0);
}

#[test]
fn transient_loop_deadlock_outlives_reconvergence_without_tagger() {
    // Routing reconverged at 6 ms, yet both flows stay frozen to the
    // end — the paper's §1 persistence claim.
    assert_eq!(run(&load("transient_vanilla.scn")).frozen_flows(10), 2);

    // With Tagger — hand-wired or controller-driven — the ricochets are
    // absorbed by the lossy class and both flows are back at line rate
    // after reconvergence.
    for file in ["transient_tagger.scn", "transient_controller.scn"] {
        let report = run(&load(file));
        assert!(report.switch.lossy_drops > 0, "{file}");
        assert_eq!(report.frozen_flows(5), 0, "{file}");
        for f in &report.flows {
            let rate = f.tail_rate(5);
            assert!(
                rate > 35e9,
                "{file}: flow {} did not recover: {rate}",
                f.flow
            );
        }
    }
}

#[test]
fn chaotic_reroute_is_safe_for_every_seed() {
    for seed in 0..5 {
        let chaos = format!("tagger chaos {seed} 0.4");
        let report = run(&variant(
            "transient_chaos.scn",
            "tagger chaos 7 0.4",
            &chaos,
        ));
        // The safety floor chaos cannot lower: no deadlock, no lossless
        // drop, the victim (flow 1) never freezes.
        assert!(report.deadlock.is_none(), "seed {seed} deadlocked");
        assert_eq!(
            report.switch.lossless_drops, 0,
            "seed {seed} dropped lossless"
        );
        assert!(!report.flows[1].stalled(5), "seed {seed}: victim froze");
    }
}

#[test]
fn failure_sweep_vanilla_deadlocks_on_some_seed_tagger_on_none() {
    let tagger = load("failure_sweep_tagger.scn");
    let vanilla = variant("failure_sweep_tagger.scn", "tagger bounces 1", "tagger off");
    let two_failures = [("nfail", 2)];
    let mut vanilla_deadlocks = 0;
    for seed in 0..6 {
        let (report, _) = expand(&vanilla, &two_failures, Some(seed)).run();
        vanilla_deadlocks += u32::from(report.deadlock.is_some());

        let (report, _) = expand(&tagger, &two_failures, Some(seed)).run();
        assert!(report.deadlock.is_none(), "seed {seed} deadlocked");
        assert_eq!(report.frozen_flows(3), 0, "seed {seed}: frozen flows");
        assert_eq!(report.switch.lossless_drops, 0, "seed {seed}");
    }
    assert!(
        vanilla_deadlocks > 0,
        "the sweep should produce at least one vanilla deadlock"
    );
}

#[test]
fn tagger_costs_under_two_percent_of_goodput() {
    let with = run(&load("perf_penalty.scn"));
    let without = run(&variant(
        "perf_penalty.scn",
        "tagger bounces 1",
        "tagger off",
    ));
    assert!(without.deadlock.is_none());
    let (a, b) = (
        with.aggregate_goodput_bps(),
        without.aggregate_goodput_bps(),
    );
    let penalty = (b - a) / b;
    assert!(
        penalty.abs() < 0.02,
        "tagger penalty {penalty:.3} exceeds 2% (with={a:.3e}, without={b:.3e})"
    );
}

#[test]
fn incast_guard_engages_pfc_but_never_quarantines() {
    let report = run(&load("incast_guard.scn"));
    let wd = watchdog(&report);
    assert!(wd.trips.is_empty() && wd.first_trip_at.is_none());
    assert!(report.switch.pauses_sent > 0, "PFC must actually engage");
    assert!(quarantine_events(&report).is_empty());
}

#[test]
fn watchdog_rescue_clears_the_cycle_within_two_windows() {
    let demote = load("watchdog_rescue.scn");
    let (report, labels) = expand(&demote, &W_200US, None).run();
    let wd = watchdog(&report);
    assert_eq!(wd.episodes, 1);
    let first = wd.first_trip_at.expect("first trip time");
    let cleared = wd.cleared_at.expect("cycle must clear after demotion");
    assert!(
        cleared - first <= 2 * 200_000,
        "recovery took {} ns (> 2 windows)",
        cleared - first
    );
    assert!(
        wd.stats.demoted_packets + report.switch.demoted_redirects > 0,
        "demotion must move packets to lossy: {:?} {:?}",
        wd.stats,
        report.switch
    );
    // The off-cycle victim loses nothing to the recovery.
    let vic = labels.iter().position(|l| l == "H3->H4").unwrap();
    assert_eq!(report.flows[vic].wd_drops, 0);
    assert!(report.flows[vic].delivered_bytes > 0);

    // The trips collapse into deduplicated controller quarantines.
    let events = quarantine_events(&report);
    assert!(!events.is_empty());
    assert!(events.len() as u64 <= wd.stats.trips);

    // The attribution names a member of the cycle it reports, and
    // detection follows the trigger pause.
    let trig = wd.trigger.as_ref().expect("confirmed cycle is attributed");
    assert!(trig.scc.contains(&trig.queue()));
    assert!(wd.time_to_detect().expect("detect after trigger pause") > 0);

    // Drop policy: recovery by sacrifice — the drained packets are
    // accounted per flow, and the cycle still clears.
    let drop = variant(
        "watchdog_rescue.scn",
        "watchdog window $w",
        "watchdog window $w policy drop",
    );
    let (report, _) = expand(&drop, &W_200US, None).run();
    let wd = watchdog(&report);
    assert!(wd.stats.trips >= 1);
    assert!(wd.cleared_at.is_some(), "drain must clear the cycle");
    assert!(wd.stats.drained_packets > 0);
    let drained: u64 = report.flows.iter().map(|f| f.wd_drops).sum();
    assert_eq!(drained, wd.stats.drained_packets, "per-flow attribution");

    // Unarmed (`counterexample_replay.scn`: the same cycle flows, which
    // the file asserts deadlock), there is no watchdog report at all.
    assert!(run(&load("counterexample_replay.scn")).watchdog.is_none());
}

#[test]
fn routing_loop_trigger_is_one_of_the_loops_own_queues() {
    let mut exp = expand(&load("routing_loop_watchdog.scn"), &W_200US, None);
    let report = exp.sim.run();
    let trig = watchdog(&report).trigger.as_ref().expect("attributed");
    assert!(trig.scc.contains(&trig.queue()));
    // The loop fills T1 <-> L1 in both directions.
    let topo = exp.sim.topo();
    let on_loop = [topo.expect_node("T1"), topo.expect_node("L1")];
    assert!(
        on_loop.contains(&trig.switch),
        "trigger {trig:?} outside the forwarding loop"
    );
}

/// Cause-directed recovery (quarantine the attributed trigger hop)
/// prevents the deadlock from re-forming where victim-directed recovery
/// (quarantine the first-tripped queue) does not — on the two-cycle
/// incast, where the trigger and the victim are different hops.
#[test]
fn cause_directed_recovery_prevents_cycle_reformation() {
    // Diagnosis pass (no fix): the watchdog detects and attributes the
    // incast-congested hop.
    let mut diag = expand(&load("two_cycle_diagnose.scn"), &W_200US, None);
    let report = diag.sim.run();
    let topo = diag.sim.topo();
    let wd = watchdog(&report);
    let trig = wd.trigger.as_ref().expect("episode must be attributed");
    let s1 = topo.expect_node("S1");
    let s1_to_l3 = topo.port_towards(s1, topo.expect_node("L3")).unwrap();
    assert_eq!(
        trig.queue(),
        (s1, s1_to_l3, 0),
        "the incast-congested hop S1->L3 is the ground-truth trigger"
    );
    assert!(
        trig.hops >= 1,
        "the trigger pause is inherited from the incast tree outside the cycle: {trig:?}"
    );
    assert!(wd.time_to_detect().expect("detect after trigger pause") > 0);
    let victim = wd.trips.first().expect("episode must trip");
    assert_ne!(
        (victim.switch, victim.port),
        (trig.switch, trig.port),
        "the first-tripped victim must differ from the trigger for the comparison"
    );

    // Victim-directed: masking the first-tripped hop kills only the
    // cycle it sits on; the other re-forms on the second wave.
    let victim_peer = topo
        .peer_of(GlobalPort::new(victim.switch, victim.port))
        .unwrap();
    let victim_mask = format!(
        "mask {} {} @50%",
        topo.node(victim.switch).name,
        topo.node(victim_peer.node).name
    );
    let report = run(&variant(
        "two_cycle_cause_fix.scn",
        "mask S1 L3 @50%",
        &victim_mask,
    ));
    let episodes = watchdog(&report).episodes;
    assert!(
        episodes >= 2,
        "victim-directed recovery must let the deadlock re-form, got {episodes} episode(s)"
    );

    // Cause-directed (the shipped `mask S1 L3`, the hop attributed
    // above) starves both cycles: `assert episodes == 1` in the file.
    // No stale attribution in lossy traffic: every packet parked in a
    // lossy queue at the end carries no trigger stamp.
    let mut cause = expand(&load("two_cycle_cause_fix.scn"), &[], None);
    cause.sim.run();
    for n in cause.sim.topo().node_ids() {
        let sw = cause.sim.switch_state(n).expect("switch state");
        for qp in sw.queued_packets().filter(|qp| qp.egress_queue >= 1) {
            assert!(
                qp.packet.trigger.is_none(),
                "lossy packet at {n:?} holds a stale trigger stamp"
            );
        }
    }
}
