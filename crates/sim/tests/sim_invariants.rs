//! Simulation-level invariants: conservation, determinism, and the
//! lossless guarantee across randomized workloads.

use proptest::prelude::*;
use tagger_routing::Fib;
use tagger_sim::{FlowSpec, SimConfig, Simulator};
use tagger_switch::SwitchConfig;
use tagger_topo::{ClosConfig, FailureSet, NodeId};

fn build_sim(num_lossless: u8, end_ns: u64) -> Simulator {
    let topo = ClosConfig::small().build();
    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let cfg = SimConfig {
        switch: SwitchConfig {
            num_lossless,
            ..SwitchConfig::default()
        },
        end_time_ns: end_ns,
        ..SimConfig::default()
    };
    Simulator::new(topo, fib, None, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With PFC and no Tagger demotions, lossless traffic is never
    /// dropped regardless of the (possibly heavily incast) workload, and
    /// delivered bytes never exceed injected line-rate budget.
    #[test]
    fn lossless_is_lossless(flow_seeds in proptest::collection::vec(0usize..256, 1..8)) {
        let mut sim = build_sim(1, 1_000_000);
        let topo = sim.topo().clone();
        let hosts: Vec<NodeId> = topo.host_ids().collect();
        for (i, s) in flow_seeds.iter().enumerate() {
            let src = hosts[s % hosts.len()];
            let dst = hosts[(s / hosts.len() + i + 1) % hosts.len()];
            if src != dst {
                sim.add_flow(FlowSpec::new(src, dst, 0));
            }
        }
        let report = sim.run();
        prop_assert_eq!(report.switch.lossless_drops, 0);
        prop_assert_eq!(report.switch.lossy_drops, 0); // nothing is ever demoted
        // 1 ms at 40G is at most 5 MB per flow.
        for f in &report.flows {
            prop_assert!(f.delivered_bytes <= 5_100_000);
        }
    }

    /// Bit-for-bit determinism across runs.
    #[test]
    fn deterministic(seed in 0usize..64) {
        let run = || {
            let mut sim = build_sim(2, 500_000);
            let topo = sim.topo().clone();
            let hosts: Vec<NodeId> = topo.host_ids().collect();
            let a = hosts[seed % hosts.len()];
            let b = hosts[(seed * 3 + 5) % hosts.len()];
            if a != b {
                sim.add_flow(FlowSpec::new(a, b, 0));
                sim.add_flow(FlowSpec::new(b, a, 100_000));
            }
            let r = sim.run();
            (
                r.total_delivered_bytes(),
                r.switch.pauses_sent,
                r.flows.iter().map(|f| f.delivered_packets).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Initial-trigger attribution, whenever produced, names a member of
    /// the confirmed SCC it reports, and its timestamps are causally
    /// ordered — even with randomized background traffic layered on top
    /// of the deadlock-prone cycle workload.
    #[test]
    fn attribution_names_scc_member(noise in proptest::collection::vec(0usize..256, 0..6)) {
        use tagger_sim::experiments::{cycle_flows, unsafe_identity_rules, watchdog_rescue};
        let topo = ClosConfig::small().build();
        let rules = unsafe_identity_rules(&topo);
        let mut flows = cycle_flows(&topo, 4_000_000);
        let hosts: Vec<NodeId> = topo.host_ids().collect();
        for (i, s) in noise.iter().enumerate() {
            let src = hosts[s % hosts.len()];
            let dst = hosts[(s / 7 + 3 * i + 1) % hosts.len()];
            if src != dst {
                flows.push((format!("noise{i}"), FlowSpec::new(src, dst, 0).with_limit(100_000)));
            }
        }
        let wd = tagger_switch::WatchdogConfig::with_window(200_000);
        let (report, _) = watchdog_rescue(&topo, &rules, flows, Some(wd), 4_000_000).run();
        let w = report.watchdog.expect("watchdog armed");
        if let Some(trig) = w.trigger {
            prop_assert!(
                trig.scc.contains(&trig.queue()),
                "attributed queue {:?} outside its SCC {:?}", trig.queue(), trig.scc
            );
            prop_assert!(trig.attributed_at >= trig.pause_epoch);
            if let Some(first) = w.first_trip_at {
                prop_assert!(first >= trig.attributed_at);
            }
        }
    }
}

/// Real PFC pauses expire unless refreshed; a CBD deadlock's ingress
/// never drains, so the refresh never stops and the deadlock is just as
/// permanent (paper §1: deadlocks are not transient).
#[test]
fn deadlock_persists_under_pause_quanta() {
    use tagger_sim::experiments::{cycle_flows, testbed_switch_config, TESTBED_PFC_DELAY_NS};
    const END: u64 = 4_000_000;
    let topo = ClosConfig::small().build();
    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let cfg = SimConfig {
        switch: testbed_switch_config(1),
        pfc_extra_delay_ns: TESTBED_PFC_DELAY_NS,
        pause_quanta_ns: Some(50_000),
        end_time_ns: END,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, None, cfg);
    for (_, flow) in cycle_flows(&topo, END) {
        sim.add_flow(flow);
    }
    let report = sim.run();
    assert!(
        report.deadlock.is_some(),
        "deadlock must survive quanta expiry"
    );
    assert_eq!(report.frozen_flows(5), 2);
}

/// A flow with a byte limit injects exactly that many bytes and they all
/// arrive (no losses on a lossless fabric).
#[test]
fn limited_flows_complete_exactly() {
    let mut sim = build_sim(1, 4_000_000);
    let topo = sim.topo().clone();
    let pairs = [("H1", "H9"), ("H2", "H16"), ("H5", "H3")];
    let mut handles = Vec::new();
    for (a, b) in pairs {
        handles.push(sim.add_flow(
            FlowSpec::new(topo.expect_node(a), topo.expect_node(b), 0).with_limit(200_000),
        ));
    }
    let report = sim.run();
    for h in handles {
        assert_eq!(report.flows[h as usize].delivered_bytes, 200_000);
    }
    assert_eq!(report.switch.lossless_drops, 0);
}

/// The simulator handles a medium fabric (40 switches, 128 hosts) with a
/// full random permutation at line rate — scale smoke test with Tagger
/// rules installed.
#[test]
fn medium_clos_permutation_with_tagger() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let topo = ClosConfig::medium().build();
    let tagging = tagger_core::clos::clos_tagging(&topo, 1).unwrap();
    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let cfg = SimConfig {
        switch: SwitchConfig {
            num_lossless: 2,
            ..SwitchConfig::default()
        },
        end_time_ns: 500_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, Some(tagging.rules().clone()), cfg);
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    let mut dsts = hosts.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    loop {
        dsts.shuffle(&mut rng);
        if hosts.iter().zip(&dsts).all(|(a, b)| a != b) {
            break;
        }
    }
    for (s, d) in hosts.iter().zip(&dsts) {
        sim.add_flow(FlowSpec::new(*s, *d, 0));
    }
    let report = sim.run();
    assert!(report.deadlock.is_none());
    assert_eq!(report.switch.lossless_drops, 0);
    // 128 flows at up to 40G for 0.5 ms: aggregate goodput must be
    // substantial (permutation traffic is admissible on a Clos).
    assert!(
        report.aggregate_goodput_bps() > 1e12,
        "aggregate {:.2e}",
        report.aggregate_goodput_bps()
    );
}

/// Rate series sum to delivered bytes (accounting consistency).
#[test]
fn rate_series_accounts_for_bytes() {
    let mut sim = build_sim(1, 1_000_000);
    let topo = sim.topo().clone();
    sim.add_flow(FlowSpec::new(
        topo.expect_node("H1"),
        topo.expect_node("H9"),
        0,
    ));
    let report = sim.run();
    let f = &report.flows[0];
    let dt_s = report.sample_interval_ns as f64 / 1e9;
    let from_series: f64 = f.rate_series.iter().map(|r| r * dt_s / 8.0).sum();
    let diff = (from_series - f.delivered_bytes as f64).abs();
    // Residual under one sample interval's worth of line rate.
    assert!(diff <= 40e9 / 8.0 * dt_s, "diff {diff}");
}
