//! Queue dynamics — what a deadlock looks like from inside a switch.
//!
//! Tracks the byte depth of the L1→S1 egress queue (a member of the
//! Figure 10 CBD cycle) through the deadlock run, with and without
//! Tagger, and compares the table with `results/queue_dynamics.txt`.
//! Without Tagger the queue fills and then flat-lines — frozen bytes
//! that will never move. With Tagger the same queue breathes: PFC and
//! the second priority keep it cycling between thresholds.

use tagger::routing::Fib;
use tagger::sim::experiments::{testbed_switch_config, TESTBED_PFC_DELAY_NS};
use tagger::sim::{FlowSpec, SimConfig, Simulator};
use tagger::topo::{ClosConfig, FailureSet, NodeId};

const END_NS: u64 = 6_000_000;

/// The Figure 10 run's sampled queue depths (one row per sample, one
/// column per tracked queue) and whether it deadlocked.
fn run(with_tagger: bool) -> (Vec<Vec<u64>>, bool) {
    let topo = ClosConfig::small().build();
    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let (rules, queues) = if with_tagger {
        let t = tagger::core::clos::clos_tagging(&topo, 1).unwrap();
        (Some(t.rules().clone()), 2u8)
    } else {
        (None, 1)
    };
    let l1 = topo.expect_node("L1");
    let s1 = topo.expect_node("S1");
    let to_s1 = topo.port_towards(l1, s1).unwrap();
    let mut track = vec![(l1, to_s1, 0u8)];
    if with_tagger {
        track.push((l1, to_s1, 1)); // the bounce priority's queue
    }
    let cfg = SimConfig {
        switch: testbed_switch_config(queues),
        pfc_extra_delay_ns: TESTBED_PFC_DELAY_NS,
        track_queues: track,
        end_time_ns: END_NS,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, rules, cfg);
    let names = |p: &[&str]| -> Vec<NodeId> { p.iter().map(|n| topo.expect_node(n)).collect() };
    let blue = names(&["H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13"]);
    let green = names(&["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"]);
    sim.add_flow(FlowSpec::new(blue[0], *blue.last().unwrap(), 0).pinned(blue.clone()));
    sim.add_flow(FlowSpec::new(green[0], *green.last().unwrap(), END_NS / 5).pinned(green.clone()));
    let report = sim.run();
    (report.queue_series, report.deadlock.is_some())
}

/// The table for one run: every other sample, depths in KB.
fn table(with_tagger: bool, series: &[Vec<u64>], deadlocked: bool) -> String {
    let mut out = format!(
        "# Queue dynamics at L1->S1 — {} Tagger (deadlock: {deadlocked})\ntime_us\tL1->S1 prio0 (KB)",
        if with_tagger { "with" } else { "without" },
    );
    if with_tagger {
        out.push_str("\tL1->S1 prio1 (KB)");
    }
    out.push('\n');
    for (i, row) in series.iter().enumerate().step_by(2) {
        out.push_str(&((i as u64 + 1) * 100).to_string());
        for bytes in row {
            out.push_str(&format!("\t{}", bytes / 1000));
        }
        out.push('\n');
    }
    out + "\n"
}

#[test]
fn queue_dynamics_matches_its_golden() {
    let mut text = String::new();
    for with_tagger in [false, true] {
        let (series, deadlocked) = run(with_tagger);
        // The shape EXPERIMENTS.md describes: prio 0's depth over the
        // last half of the run is frozen without Tagger, moving with it.
        let late: Vec<u64> = series[series.len() / 2..].iter().map(|r| r[0]).collect();
        let frozen = late.iter().all(|&b| b == late[0]);
        assert_eq!(deadlocked, !with_tagger, "with Tagger: {with_tagger}");
        assert_eq!(frozen, !with_tagger, "late prio-0 depths {late:?}");
        assert!(with_tagger || late[0] > 0, "frozen empty: {late:?}");
        text += &table(with_tagger, &series, deadlocked);
    }
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/queue_dynamics.txt");
    assert_eq!(text, std::fs::read_to_string(golden).expect("golden"));
}
