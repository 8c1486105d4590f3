//! The helpers every simulated experiment is built from.
//!
//! The experiments themselves are defined once, as the `.scn` files
//! under `examples/scenarios/` that `tagger-scenario` expands and
//! grades. What stays here is what more than one crate builds on: the
//! testbed PFC regime, the suspect-tables replay the audit and the
//! safety-net end-to-end test run, and the adversarial fixtures of the
//! safety-net and attribution drills.

use crate::{FlowSpec, SimConfig, Simulator};
use tagger_routing::Fib;
use tagger_switch::SwitchConfig;
use tagger_topo::{FailureSet, NodeId, Topology};

/// A ready-to-run scenario.
pub struct Experiment {
    /// The configured simulator.
    pub sim: Simulator,
    /// Human labels for each flow, in handle order.
    pub labels: Vec<String>,
}

impl Experiment {
    /// Runs and returns the report (convenience).
    pub fn run(mut self) -> (crate::SimReport, Vec<String>) {
        (self.sim.run(), self.labels)
    }
}

/// Switch configuration used by the testbed reproductions: small
/// thresholds so PFC engages at the microsecond timescale of the
/// simulations (the paper's switches behave identically at the second
/// timescale of real traffic).
pub fn testbed_switch_config(num_lossless: u8) -> SwitchConfig {
    SwitchConfig {
        num_lossless,
        buffer_bytes: 12 * 1024 * 1024,
        xoff_bytes: 40_000,
        xon_bytes: 4_000,
        lossy_queue_bytes: 200_000,
        ecn_threshold_bytes: None,
    }
}

/// PFC reaction delay used by the testbed reproductions (µs-scale, like
/// real MAC + scheduling latency). Together with
/// [`testbed_switch_config`]'s thresholds this sits in the regime where a
/// cyclic buffer dependency actually *locks* rather than resolving into a
/// paced steady state — the same property the paper's hardware exhibits.
pub const TESTBED_PFC_DELAY_NS: u64 = 3_000;

fn names(topo: &Topology, path: &[&str]) -> Vec<NodeId> {
    path.iter().map(|n| topo.expect_node(n)).collect()
}

/// **Counterexample replay** — demonstrates a cyclic buffer dependency
/// found by an auditor in an *installed* rule table actually deadlocking.
///
/// Runs the given pinned flows against the audited `rules` (the suspect
/// tables themselves, not a known-good tagging) under the testbed PFC
/// regime, with the structural deadlock detector armed. The flows are
/// generated from the audit counterexample so that together they keep
/// every hop of the cyclic dependency loaded; if the cycle is real, the
/// PFC wait-for graph closes and `report.deadlock` carries the witness.
pub fn counterexample_replay(
    topo: &Topology,
    rules: &tagger_core::RuleSet,
    flows: Vec<(String, FlowSpec)>,
    end_ns: u64,
) -> Experiment {
    watchdog_rescue(topo, rules, flows, None, end_ns)
}

/// **Watchdog rescue** — the data-plane safety net in action. Same
/// setup as [`counterexample_replay`] (suspect rule tables, pinned
/// cycle-covering flows, testbed PFC regime) but with the per-queue PFC
/// watchdog armed when `watchdog` is `Some`. With the watchdog off the
/// cycle locks permanently; with it on, every stuck queue that the
/// structural detector confirms as cycle-resident trips within the
/// configured window and is drained (Drop) or demoted to lossy
/// (Demote, the paper's §4.4 escape hatch), after which the fabric
/// recovers. Feed the resulting report to [`quarantine_events`] to
/// close the loop into the controller.
pub fn watchdog_rescue(
    topo: &Topology,
    rules: &tagger_core::RuleSet,
    flows: Vec<(String, FlowSpec)>,
    watchdog: Option<tagger_switch::WatchdogConfig>,
    end_ns: u64,
) -> Experiment {
    let fib = Fib::shortest_path(topo, &FailureSet::none());
    let num_lossless = rules.max_tag().map(|t| t.0 as u8).unwrap_or(1).max(1);
    let cfg = SimConfig {
        switch: testbed_switch_config(num_lossless),
        pfc_extra_delay_ns: TESTBED_PFC_DELAY_NS,
        end_time_ns: end_ns,
        watchdog,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, Some(rules.clone()), cfg);
    let mut labels = Vec::new();
    for (label, spec) in flows {
        sim.add_flow(spec);
        labels.push(label);
    }
    Experiment { sim, labels }
}

/// Maps a finished run's watchdog trips to controller events, one
/// [`CtrlEvent::WatchdogTrip`](tagger_ctrl::CtrlEvent::WatchdogTrip)
/// per distinct `(switch, port, priority)` — repeat trips of the same
/// queue (hold-down expiry, re-trip) collapse into the one quarantine
/// they would produce. Priority `p` carries tag `p + 1`, the inverse of
/// the tag→queue mapping the data plane uses.
///
/// When the run attributed an initial trigger, every trip of that
/// episode carries it as [`tagger_ctrl::TriggerInfo`] so the controller
/// quarantines the *cause*; runs without attribution produce exactly the
/// events they always did (victim-directed fallback).
pub fn quarantine_events(report: &crate::SimReport) -> Vec<tagger_ctrl::CtrlEvent> {
    let Some(wd) = &report.watchdog else {
        return Vec::new();
    };
    let trigger = wd.trigger.as_ref().map(|t| tagger_ctrl::TriggerInfo {
        switch: t.switch,
        port: t.port,
        tag: tagger_core::Tag(t.prio as u16 + 1),
    });
    let mut seen = std::collections::BTreeSet::new();
    let mut events = Vec::new();
    for t in &wd.trips {
        if seen.insert((t.switch, t.port, t.prio)) {
            events.push(tagger_ctrl::CtrlEvent::WatchdogTrip {
                switch: t.switch,
                port: t.port,
                tag: tagger_core::Tag(t.prio as u16 + 1),
                trigger,
            });
        }
    }
    events
}

/// The adversarial single-priority program (keep tag 1 across every
/// port pair): its dependency graph contains the Fig. 3 CBD. This is
/// the canonical "corrupted tables" input for the safety-net and
/// attribution drills — one lossless priority, no tag increments, so
/// any circular route can lock.
pub fn unsafe_identity_rules(topo: &Topology) -> tagger_core::RuleSet {
    let mut rules = tagger_core::RuleSet::new();
    for sw in topo.switch_ids() {
        let ports: Vec<_> = topo.neighbors(sw).map(|(p, _, _)| p).collect();
        for &i in &ports {
            for &o in &ports {
                if i != o {
                    rules
                        .add(
                            sw,
                            tagger_core::SwitchRule {
                                tag: tagger_core::Tag(1),
                                in_port: i,
                                out_port: o,
                                new_tag: tagger_core::Tag(1),
                            },
                        )
                        .expect("identity rule");
                }
            }
        }
    }
    rules
}

/// Pinned flows that together keep every hop of the Fig. 3 CBD
/// (`L1 → S1 → L3 → S2 → L1`) loaded; green starts at `end_ns / 5`.
pub fn cycle_flows(topo: &Topology, end_ns: u64) -> Vec<(String, FlowSpec)> {
    let blue = names(
        topo,
        &["H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13"],
    );
    let green = names(
        topo,
        &["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"],
    );
    vec![
        (
            "blue".to_string(),
            FlowSpec::new(blue[0], *blue.last().expect("non-empty path"), 0).pinned(blue),
        ),
        (
            "green".to_string(),
            FlowSpec::new(green[0], *green.last().expect("non-empty path"), end_ns / 5)
                .pinned(green),
        ),
    ]
}

/// `rules` minus every rule leaving `switch` through `port` — the
/// data-plane meaning of a controller quarantine of that hop. Packets
/// that would cross the masked hop stop matching in the tag table and
/// travel the lossy class instead, so the hop can no longer take part
/// in a PFC cycle (and no longer pauses its upstream).
pub fn mask_hop(
    rules: &tagger_core::RuleSet,
    switch: NodeId,
    port: tagger_topo::PortId,
) -> tagger_core::RuleSet {
    let mut masked = tagger_core::RuleSet::new();
    for (sw, rule) in rules.iter() {
        if sw == switch && rule.out_port == port {
            continue;
        }
        masked.set(sw, rule);
    }
    masked
}
