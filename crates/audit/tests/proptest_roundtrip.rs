//! Property tests for the decompile path: TCAM compression followed by
//! decompilation against the real port map must preserve the *exact*
//! rule function — on structured Clos taggings and on arbitrary rule
//! soups over random Jellyfish graphs alike. This is the invariant the
//! whole audit rests on: if decompilation were lossy, the dependency
//! graph would be built from fiction.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tagger_audit::decompile::check_program;
use tagger_audit::Auditor;
use tagger_core::clos::clos_tagging;
use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::{RuleSet, SwitchRule, Tag};
use tagger_topo::{ClosConfig, JellyfishConfig, PortId, TopoSpec, Topology};

const LEVELS: [Compression; 3] = [Compression::None, Compression::InPort, Compression::Joint];

/// The rule function as a total map, for exact comparison.
fn function(rules: &RuleSet) -> BTreeMap<(u32, u16, u16, u16), u16> {
    rules
        .iter()
        .map(|(sw, r)| ((sw.0, r.tag.0, r.in_port.0, r.out_port.0), r.new_tag.0))
        .collect()
}

fn assert_round_trips(topo: &Topology, rules: &RuleSet) {
    for level in LEVELS {
        let program = TcamProgram::compile(topo, rules, level);
        let out = check_program(topo, rules, &program);
        assert!(
            out.findings.is_empty(),
            "{level:?} diverged: {:?}",
            out.findings.first()
        );
        assert_eq!(
            function(&out.decompiled),
            function(rules),
            "{level:?} round trip"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clos taggings of random dimensions survive compress -> decompile
    /// at every compression level and a checkpoint's render -> parse,
    /// and the audit certifies them.
    #[test]
    fn clos_taggings_round_trip(
        dims in (1usize..3, 1usize..3, 1usize..3, 1usize..4, 0usize..3)
    ) {
        let (pods, leaves, tors, spines, k) = dims;
        let config = ClosConfig {
            pods,
            leaves_per_pod: leaves,
            tors_per_pod: tors,
            spines,
            hosts_per_tor: 2,
        };
        let spec = TopoSpec::from(config);
        let topo = spec.build().unwrap();
        let tagging = clos_tagging(&topo, k).unwrap();
        assert_round_trips(&topo, tagging.rules());
        let text = tagger_audit::checkpoint::render(&spec, 5, &topo, tagging.rules());
        let ckpt = tagger_audit::checkpoint::parse(&text).unwrap();
        prop_assert_eq!(ckpt.spec.to_string(), spec.to_string());
        prop_assert_eq!(&ckpt.rules, tagging.rules());
        let mut auditor = Auditor::new(topo);
        prop_assert!(auditor.audit(0, tagging.rules()).is_certified());
    }

    /// Arbitrary rules within a random Jellyfish's real port bounds
    /// round trip exactly — compression must not rely on any Clos
    /// structure.
    #[test]
    fn random_jellyfish_rules_round_trip(
        shape in (4usize..10, 0u64..1000),
        raw in proptest::collection::vec((1u16..4, 0u16..6, 0u16..6, 1u16..4), 0..60)
    ) {
        let (switches, seed) = shape;
        let topo = JellyfishConfig::half_servers(switches, 6, seed).build();
        let mut rules = RuleSet::new();
        let switch_ids: Vec<_> = topo.switch_ids().collect();
        for (i, (tag, in_p, out_p, new_tag)) in raw.iter().enumerate() {
            let sw = switch_ids[i % switch_ids.len()];
            let ports = topo.node(sw).num_ports() as u16;
            if ports == 0 {
                continue;
            }
            let in_port = PortId(in_p % ports);
            let out_port = PortId(out_p % ports);
            if in_port == out_port {
                continue; // a rule never hairpins out its ingress port
            }
            rules.set(sw, SwitchRule {
                tag: Tag(*tag),
                in_port,
                out_port,
                new_tag: Tag(*new_tag),
            });
        }
        assert_round_trips(&topo, &rules);
    }
}
