//! Property tests for the topology builders: structural invariants must
//! hold for every legal dimensioning, not just the fixtures.

use proptest::prelude::*;
use tagger_topo::{bcube, fat_tree, BCubeConfig, ClosConfig, JellyfishConfig, NodeKind, TopoSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clos_builders_are_consistent(
        pods in 1usize..4,
        leaves in 1usize..4,
        tors in 1usize..4,
        spines in 1usize..5,
        hosts in 1usize..4,
    ) {
        let cfg = ClosConfig { pods, leaves_per_pod: leaves, tors_per_pod: tors, spines, hosts_per_tor: hosts };
        let topo = cfg.build();
        prop_assert!(topo.check_consistency().is_ok());
        prop_assert_eq!(topo.num_switches(), cfg.num_switches());
        prop_assert_eq!(topo.num_hosts(), cfg.num_hosts());
        // Exact link count: spine-leaf mesh + per-pod leaf-tor mesh + hosts.
        let expected = spines * pods * leaves + pods * leaves * tors + cfg.num_hosts();
        prop_assert_eq!(topo.num_links(), expected);
        // Every host has exactly one port, wired to a ToR.
        for h in topo.host_ids() {
            prop_assert_eq!(topo.node(h).num_ports(), 1);
            let tor = topo.attached_switch(h).unwrap();
            prop_assert_eq!(topo.node(tor).layer, tagger_topo::Layer::Tor);
        }
    }

    #[test]
    fn fat_tree_port_budget(k in 1usize..4) {
        let k = k * 2; // even
        let topo = fat_tree(k);
        prop_assert!(topo.check_consistency().is_ok());
        prop_assert_eq!(topo.num_hosts(), k * k * k / 4);
        for s in topo.switch_ids() {
            prop_assert_eq!(topo.node(s).num_ports(), k);
        }
    }

    #[test]
    fn bcube_wiring(n in 2usize..5, k in 1usize..3) {
        let cfg = BCubeConfig { n, k };
        let topo = bcube(n, k);
        prop_assert!(topo.check_consistency().is_ok());
        // Every server: k+1 ports; every switch: n ports.
        for h in topo.host_ids() {
            prop_assert_eq!(topo.node(h).num_ports(), k + 1);
        }
        for s in topo.switch_ids() {
            prop_assert_eq!(topo.node(s).num_ports(), n);
        }
        prop_assert_eq!(topo.num_links(), cfg.num_servers() * (k + 1));
    }

    #[test]
    fn jellyfish_degree_bounds(switches in 6usize..30, seed in 0u64..200) {
        let cfg = JellyfishConfig::half_servers(switches, 6, seed);
        let topo = cfg.build();
        prop_assert!(topo.check_consistency().is_ok());
        let mut deficient = 0usize;
        for s in topo.switch_ids() {
            let deg = topo
                .neighbors(s)
                .filter(|&(_, _, n)| topo.node(n).kind == NodeKind::Switch)
                .count();
            prop_assert!(deg <= cfg.network_degree);
            if deg < cfg.network_degree {
                deficient += 1;
            }
        }
        // The incremental construction leaves at most a few stubs free on
        // unlucky seeds; it must never be badly irregular.
        prop_assert!(deficient <= 2, "{deficient} deficient switches");
        // Server count exact.
        prop_assert_eq!(
            topo.num_hosts(),
            switches * (cfg.ports_per_switch - cfg.network_degree)
        );
    }

    #[test]
    fn peer_of_is_involutive(seed in 0u64..50) {
        let topo = JellyfishConfig::half_servers(10, 6, seed).build();
        for n in topo.node_ids() {
            for (port, _, _) in topo.neighbors(n) {
                let gp = tagger_topo::GlobalPort::new(n, port);
                let peer = topo.peer_of(gp).unwrap();
                prop_assert_eq!(topo.peer_of(peer).unwrap(), gp);
            }
        }
    }

    /// Any spec with small numbers, zeros included, either builds a
    /// consistent fabric or is refused at one of its words; no builder
    /// assertion is reachable through a spec.
    #[test]
    fn specs_build_or_refuse_without_panicking(
        family in 0usize..5,
        a in 0usize..12,
        b in 0usize..12,
        c in 0usize..4,
    ) {
        let text = match family {
            0 => format!("clos pods={c} leaves_per_pod={a} spines={b} hosts_per_tor={c}"),
            1 => format!("clos hosts {a}"),
            2 => format!("fattree {a}"),
            3 => format!("jellyfish switches={a} ports={b} seed={c}"),
            _ => format!("bcube {a} {c}"),
        };
        let spec: TopoSpec = text.parse().unwrap();
        match spec.build() {
            Ok(topo) => prop_assert!(topo.check_consistency().is_ok(), "{}", text),
            Err(e) => prop_assert!(e.span.line == 1 && e.span.len > 0, "{}: {}", text, e),
        }
    }
}
