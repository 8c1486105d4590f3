//! The simulator's compiled tables answer exactly what the tables they
//! were compiled from answer.
//!
//! [`FibTable`] must pick the port `Fib::select(.., EcmpMode::FlowHash)`
//! picks for every switch, destination host and flow hash, over
//! shortest-path and local-reroute FIBs with blackhole and loop
//! overrides. [`RuleIndex`] must give `RuleSet::decide`'s verdict for
//! every node, tag and port pair — tag 0 and tags past the program's
//! largest included, on BCube servers that carry rules too — and keep
//! giving it after the same random `RuleDelta`s reach both.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tagger_core::{Elp, RuleDelta, RuleSet, SwitchRule, Tag, Tagging};
use tagger_routing::{bcube_paths, EcmpMode, Fib};
use tagger_sim::tables::{FibTable, RuleIndex};
use tagger_topo::{
    bcube, BCubeConfig, ClosConfig, FailureSet, JellyfishConfig, LinkId, NodeId, NodeKind, PortId,
    Topology,
};

/// A random small fabric of family `kind` (Clos, BCube, Jellyfish) and
/// the Tagger program built for it.
fn fabric(kind: u8, rng: &mut StdRng) -> (Topology, RuleSet) {
    match kind {
        0 => {
            let topo = ClosConfig {
                pods: rng.random_range(1..3),
                leaves_per_pod: rng.random_range(1..3),
                tors_per_pod: rng.random_range(1..3),
                spines: rng.random_range(1..3),
                hosts_per_tor: rng.random_range(1..4),
            }
            .build();
            let tagging = tagger_core::clos::clos_tagging(&topo, rng.random_range(0..2));
            (topo, tagging.expect("clos tagging").rules().clone())
        }
        1 => {
            // At least two levels, so servers forward (and carry rules).
            let n = rng.random_range(2..5);
            let k = if n == 2 { rng.random_range(1..3) } else { 1 };
            let cfg = BCubeConfig { n, k };
            let topo = bcube(cfg.n, cfg.k);
            let elp = Elp::from_paths(bcube_paths(&cfg, &topo, true));
            let tagging = Tagging::from_elp(&topo, &elp).expect("bcube tagging");
            (topo, tagging.rules().clone())
        }
        _ => {
            let switches = rng.random_range(6..10);
            let topo = JellyfishConfig::half_servers(switches, 6, rng.random()).build();
            let elp = Elp::shortest(&topo, 1, false);
            let tagging = Tagging::from_elp(&topo, &elp).expect("jellyfish tagging");
            (topo, tagging.rules().clone())
        }
    }
}

/// A FIB after up to two random link failures — converged or locally
/// rerouted — with random blackholes and routes bent towards a random
/// neighbour (the routing-loop primitive).
fn random_fib(topo: &Topology, rng: &mut StdRng) -> Fib {
    let links: Vec<LinkId> = topo.link_ids().collect();
    let mut failures = FailureSet::none();
    for _ in 0..rng.random_range(0..3usize) {
        failures.fail(links[rng.random_range(0..links.len())]);
    }
    let mut fib = if rng.random::<bool>() {
        Fib::shortest_path(topo, &failures)
    } else {
        Fib::local_reroute(topo, &failures)
    };
    let switches: Vec<NodeId> = topo.switch_ids().collect();
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    for _ in 0..rng.random_range(0..4usize) {
        let sw = switches[rng.random_range(0..switches.len())];
        let dst = hosts[rng.random_range(0..hosts.len())];
        if rng.random::<bool>() {
            fib.set_override(sw, dst, Vec::new());
        } else {
            let (_, _, via) = topo
                .neighbors(sw)
                .nth(rng.random_range(0..topo.node(sw).num_ports()))
                .expect("a wired port");
            fib.set_override_towards(topo, sw, dst, via);
        }
    }
    fib
}

/// A random delta on a random node: withdrawals of installed rules
/// (some with the wrong rewrite, which must not withdraw them) and of
/// absent ones, and installs that add or overwrite.
fn random_delta(topo: &Topology, rules: &RuleSet, max_tag: u16, rng: &mut StdRng) -> RuleDelta {
    let switch = NodeId(rng.random_range(0..topo.num_nodes() as u32));
    let installed = rules.rules_for(switch);
    let ports = topo.node(switch).num_ports().max(1) as u16;
    let random_rule = |rng: &mut StdRng| SwitchRule {
        tag: Tag(rng.random_range(0..max_tag + 2)),
        in_port: PortId(rng.random_range(0..ports)),
        out_port: PortId(rng.random_range(0..ports)),
        new_tag: Tag(rng.random_range(0..max_tag + 2)),
    };
    let mut remove = Vec::new();
    for _ in 0..rng.random_range(0..4usize) {
        let rule = match installed.len() {
            0 => random_rule(rng),
            n => installed[rng.random_range(0..n)],
        };
        remove.push(match rng.random_range(0..3u8) {
            0 => SwitchRule {
                new_tag: Tag(rule.new_tag.0 + 1),
                ..rule
            },
            1 => random_rule(rng),
            _ => rule,
        });
    }
    let add = (0..rng.random_range(0..4usize))
        .map(|_| random_rule(rng))
        .collect();
    RuleDelta {
        switch,
        add,
        remove,
    }
}

/// Every `(node, tag, in, out)` the index and the set must agree on.
fn assert_same_verdicts(
    topo: &Topology,
    rules: &RuleSet,
    index: &RuleIndex,
    max_tag: u16,
) -> Result<(), TestCaseError> {
    for node in topo.node_ids() {
        let ports = topo.node(node).num_ports() as u16;
        for tag in (0..=max_tag + 2).map(Tag) {
            for i in (0..ports).map(PortId) {
                for o in (0..ports).map(PortId) {
                    prop_assert_eq!(
                        index.decide(node, tag, i, o),
                        rules.decide(node, tag, i, o),
                        "{} tag {:?} {} -> {}",
                        node,
                        tag,
                        i,
                        o
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled FIB picks `Fib::select`'s port for every switch,
    /// destination host and hash, and gives hosts no route.
    #[test]
    fn compiled_fib_selects_like_the_fib(kind in 0u8..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (topo, _) = fabric(kind, &mut rng);
        let fib = random_fib(&topo, &mut rng);
        let table = FibTable::compile(&topo, &fib);
        let hashes = [0, 1, 2, 3, 5, 7, 11, u64::MAX, rng.random(), rng.random()];
        for sw in topo.node_ids() {
            for dst in topo.host_ids() {
                for &h in &hashes {
                    let want = match topo.node(sw).kind {
                        NodeKind::Switch => fib.select(sw, dst, h, EcmpMode::FlowHash),
                        NodeKind::Host => None,
                    };
                    prop_assert_eq!(table.select(sw, dst, h), want, "{} -> {} hash {}", sw, dst, h);
                }
            }
        }
    }

    /// The rule index decides like the rule set it was compiled from, and
    /// like it again after each of a run of random deltas reaches both.
    #[test]
    fn rule_index_decides_like_the_rule_set(kind in 0u8..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (topo, mut rules) = fabric(kind, &mut rng);
        if kind == 1 {
            let server_rules = rules.switches().any(|n| topo.node(n).kind == NodeKind::Host);
            prop_assert!(server_rules, "BCube servers forward, so they carry rules");
        }
        let max_tag = rules.max_tag().map_or(1, |t| t.0);
        let mut index = RuleIndex::compile(&topo, &rules);
        assert_same_verdicts(&topo, &rules, &index, max_tag)?;
        for _ in 0..4 {
            let delta = random_delta(&topo, &rules, max_tag, &mut rng);
            rules.apply_delta(&delta);
            index.apply_delta(&delta);
            assert_same_verdicts(&topo, &rules, &index, max_tag)?;
        }
        // A recompile of the edited set is the edited index.
        assert_same_verdicts(&topo, &rules, &RuleIndex::compile(&topo, &rules), max_tag)?;
    }
}

/// No program is not the empty program: an empty index, like an empty
/// rule set, sends everything lossy.
#[test]
fn an_empty_index_is_all_lossy() {
    let topo = ClosConfig::small().build();
    let index = RuleIndex::empty(&topo);
    assert_same_verdicts(&topo, &RuleSet::new(), &index, 2).expect("all lossy");
}
