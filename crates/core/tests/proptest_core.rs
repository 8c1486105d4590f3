//! Property tests for the tagging core: the verifier, the algorithms and
//! the TCAM compiler over randomized inputs.

use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use tagger_core::tcam::{Compression, Tcam};
use tagger_core::{
    apply_assignment, greedy_assignment, greedy_minimize, tag_by_hop_count, Elp, RuleError,
    RuleSet, SwitchRule, Tag, TagDecision, TaggedGraph, TaggedNode, Tagging,
};
use tagger_routing::{all_paths_with_bounces, bcube_paths, shortest_paths_all_pairs, Path};
use tagger_topo::{
    bcube, BCubeConfig, ClosConfig, FailureSet, GlobalPort, JellyfishConfig, NodeId, PortId,
    Topology,
};

fn tn(node: u32, port: u16, tag: u16) -> TaggedNode {
    TaggedNode {
        port: GlobalPort::new(NodeId(node), PortId(port)),
        tag: Tag(tag),
    }
}

/// Random edges over a small node/port/tag space.
fn arb_graph() -> impl Strategy<Value = TaggedGraph> {
    proptest::collection::vec(
        ((0u32..6, 0u16..3, 1u16..4), (0u32..6, 0u16..3, 1u16..4)),
        0..40,
    )
    .prop_map(|edges| {
        let mut g = TaggedGraph::new();
        for ((an, ap, at), (bn, bp, bt)) in edges {
            g.add_edge(tn(an, ap, at), tn(bn, bp, bt));
        }
        g
    })
}

// The walks of `tag_by_hop_count`, `Tagging::from_elp` and
// `Tagging::check_elp_lossless` as they were before they shared work
// between paths: every hop of every path, from hop 0. Kept as the
// references the sweeps of the ELP's prefix tree must reproduce.

fn naive_brute(topo: &Topology, elp: &Elp) -> TaggedGraph {
    let mut g = TaggedGraph::new();
    for path in elp.paths() {
        let mut tag = Tag::INITIAL;
        let mut last: Option<TaggedNode> = None;
        for port in path.ingress_ports(topo) {
            let node = TaggedNode { port, tag };
            g.add_node(node);
            if let Some(prev) = last {
                g.add_edge(prev, node);
            }
            last = Some(node);
            tag = tag.next();
        }
    }
    g
}

/// Walks one path through `rules` hop by hop; `on_lossy(hop, here, tag,
/// next, out_port)` supplies the tag where no rule matches, or ends the
/// walk with its error.
fn naive_walk<E>(
    topo: &Topology,
    rules: &mut RuleSet,
    path: &Path,
    mut on_lossy: impl FnMut(&mut RuleSet, usize, GlobalPort, Tag, GlobalPort, PortId) -> Result<Tag, E>,
) -> Result<(), E> {
    let mut tag = Tag::INITIAL;
    let ingresses: Vec<GlobalPort> = path.ingress_ports(topo).collect();
    for (hop, pair) in ingresses.windows(2).enumerate() {
        let (here, next) = (pair[0], pair[1]);
        let egress = topo.peer_of(next).unwrap();
        tag = match rules.decide(here.node, tag, here.port, egress.port) {
            TagDecision::Lossless(t) => t,
            TagDecision::Lossy => on_lossy(rules, hop, here, tag, next, egress.port)?,
        };
    }
    Ok(())
}

fn naive_check(topo: &Topology, rules: &RuleSet, elp: &Elp) -> Result<(), RuleError> {
    let mut rules = rules.clone();
    for (path_index, path) in elp.paths().enumerate() {
        naive_walk(topo, &mut rules, &path, |_, hop, _, _, _, _| {
            Err(RuleError::ElpNotLossless { path_index, hop })
        })?;
    }
    Ok(())
}

/// `Tagging::from_elp` with naive walks: the rules, the repair count and
/// whether the brute-force fallback was deployed.
fn naive_from_elp(topo: &Topology, elp: &Elp) -> (RuleSet, usize, bool) {
    let brute = naive_brute(topo, elp);
    let assignment = greedy_assignment(topo, &brute);
    let merged = apply_assignment(&brute, &assignment);
    let mut rules = RuleSet::from_graph_resolving(topo, &merged);
    let mut repairs = 0usize;
    loop {
        let before = repairs;
        for path in elp.paths() {
            let Ok(()) = naive_walk(
                topo,
                &mut rules,
                &path,
                |rules, hop, here, tag, next, out_port| {
                    let expected = assignment[&TaggedNode {
                        port: next,
                        tag: Tag((hop + 2) as u16),
                    }];
                    let new_tag = expected.max(tag);
                    rules.set(
                        here.node,
                        SwitchRule {
                            tag,
                            in_port: here.port,
                            out_port,
                            new_tag,
                        },
                    );
                    repairs += 1;
                    Ok::<Tag, std::convert::Infallible>(new_tag)
                },
            );
        }
        if repairs == before {
            break;
        }
    }
    let seeds = elp.paths().filter_map(|p| {
        p.ingress_ports(topo).next().map(|port| TaggedNode {
            port,
            tag: Tag::INITIAL,
        })
    });
    let fallback = rules.closure_graph(topo, seeds).verify().is_err();
    if fallback {
        rules = RuleSet::from_graph(topo, &brute).unwrap();
    }
    (rules, repairs, fallback)
}

/// A fabric and a path list over it, in an order the enumerators give
/// (`order == 0`) or one that breaks their prefix sharing: shuffled, every
/// path twice in a row, the whole list twice, or dealt round-robin by
/// source so that neighbours never share a first hop.
fn arb_paths() -> impl Strategy<Value = (Topology, Vec<Path>)> {
    let fabric = prop_oneof![
        (
            1usize..3,
            1usize..3,
            1usize..3,
            1usize..3,
            0usize..3,
            1usize..6
        )
            .prop_map(
                |(pods, leaves_per_pod, tors_per_pod, spines, bounces, cap)| {
                    let topo = ClosConfig {
                        pods,
                        leaves_per_pod,
                        tors_per_pod,
                        spines,
                        hosts_per_tor: 2,
                    }
                    .build();
                    let paths = all_paths_with_bounces(&topo, &FailureSet::none(), bounces, cap);
                    (topo, paths)
                }
            ),
        (6usize..13, 0u64..1000, 1usize..4, any::<bool>()).prop_map(
            |(switches, seed, cap, between_hosts)| {
                let topo = JellyfishConfig::half_servers(switches, 4, seed).build();
                let paths =
                    shortest_paths_all_pairs(&topo, &FailureSet::none(), cap, between_hosts);
                (topo, paths)
            }
        ),
        // Strided subsets of BCube's rotated routes are where Algorithm 2
        // leaves rule gaps for the repair pass to fill.
        (
            prop_oneof![Just((2usize, 2usize)), Just((3, 1)), Just((2, 3))],
            1usize..5,
            0usize..4
        )
            .prop_map(|((n, k), stride, offset)| {
                let topo = bcube(n, k);
                let paths = bcube_paths(&BCubeConfig { n, k }, &topo, true)
                    .into_iter()
                    .skip(offset)
                    .step_by(stride)
                    .collect();
                (topo, paths)
            }),
    ];
    (fabric, 0usize..5, any::<u64>()).prop_map(|((topo, mut paths), order, seed)| {
        match order {
            0 => {}
            1 => paths.shuffle(&mut StdRng::seed_from_u64(seed)),
            2 => paths = paths.iter().flat_map(|p| [p.clone(), p.clone()]).collect(),
            3 => paths.extend(paths.clone()),
            _ => {
                let mut by_source: Vec<std::collections::VecDeque<Path>> = Vec::new();
                for p in paths.drain(..) {
                    match by_source.iter_mut().find(|q| q[0].src() == p.src()) {
                        Some(q) => q.push_back(p),
                        None => by_source.push([p].into()),
                    }
                }
                while !by_source.is_empty() {
                    by_source.retain_mut(|q| {
                        paths.extend(q.pop_front());
                        !q.is_empty()
                    });
                }
            }
        }
        (topo, paths)
    })
}

fn arb_elp() -> impl Strategy<Value = (Topology, Elp)> {
    arb_paths().prop_map(|(topo, paths)| (topo, Elp::from_paths(paths)))
}

/// The pinned repair case: every second rotated route of BCube(2, 3).
fn bcube_repair_case() -> (Topology, Elp) {
    let topo = bcube(2, 3);
    let paths = bcube_paths(&BCubeConfig { n: 2, k: 3 }, &topo, true)
        .into_iter()
        .step_by(2)
        .collect();
    (topo, Elp::from_paths(paths))
}

fn assert_matches_naive(topo: &Topology, elp: &Elp) {
    assert_eq!(tag_by_hop_count(topo, elp), naive_brute(topo, elp));
    let tagging = Tagging::from_elp(topo, elp).unwrap();
    let (rules, repairs, fallback) = naive_from_elp(topo, elp);
    assert_eq!(
        tagging.rules().to_table_text(topo),
        rules.to_table_text(topo)
    );
    assert_eq!(tagging.repairs(), repairs);
    assert_eq!(tagging.used_fallback(), fallback);
    assert_eq!(tagging.check_elp_lossless(topo, elp), Ok(()));
}

/// The repair pass does run on this ELP, and the sweep adds the same
/// rules in the same order as the naive walk. DESIGN §5 records that
/// repairs happen on BCube only; the count is pinned so that a change to
/// Algorithm 2 that stops needing them does not leave this test vacuous.
#[test]
fn resumed_repair_matches_naive_on_bcube() {
    let (topo, elp) = bcube_repair_case();
    assert_eq!(elp.len(), 256);
    assert_matches_naive(&topo, &elp);
    assert_eq!(Tagging::from_elp(&topo, &elp).unwrap().repairs(), 12);
}

/// With any one rule withdrawn from a certified table, the swept check
/// blames the same path and hop as the naive walk.
#[test]
fn resumed_check_reports_the_naive_failure() {
    let (topo, elp) = bcube_repair_case();
    let tagging = Tagging::from_elp(&topo, &elp).unwrap();
    let mut failures = 0;
    for (switch, rule) in tagging.rules().iter() {
        let mut rules = tagging.rules().clone();
        assert!(rules.remove(switch, rule));
        let expected = naive_check(&topo, &rules, &elp);
        failures += usize::from(expected.is_err());
        let broken = Tagging::new(tagging.graph().clone(), rules).unwrap();
        assert_eq!(broken.check_elp_lossless(&topo, &elp), expected);
    }
    assert!(failures > 0, "no withdrawn rule was on an ELP path");
}

/// The tree an ELP is kept as on the benchmark's fabric (`epoch-clos-b1`:
/// 22 switches, 1 bounce): pinned so that a change to what consecutive
/// paths share — and with it to what every sweep costs — is visible.
#[test]
fn benchmark_elp_tree_size_is_pinned() {
    let topo = ClosConfig {
        pods: 3,
        leaves_per_pod: 2,
        tors_per_pod: 4,
        spines: 4,
        hosts_per_tor: 1,
    }
    .build();
    let elp = Elp::updown_with_bounces(&topo, 1);
    assert_eq!((elp.len(), elp.tree().num_nodes()), (83_832, 333_168));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An ELP is its path sequence, whatever order and however many times
    /// the paths come in: the tree gives back the list it was built from,
    /// and `extend` and `retain` leave what building from the longer or
    /// the filtered list gives.
    #[test]
    fn elp_tree_stores_the_sequence(case in arb_paths(), split in any::<u64>()) {
        let (_, paths) = case;
        let elp = Elp::from_paths(paths.clone());
        prop_assert_eq!(elp.len(), paths.len());
        prop_assert!(elp.paths().eq(paths.iter().cloned()));
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(&elp.path(i), p);
            prop_assert!(elp.contains(p));
        }
        prop_assert_eq!(elp.max_hops(), paths.iter().map(Path::hops).max().unwrap_or(0));

        let at = (split % (paths.len() as u64 + 1)) as usize;
        let mut extended = Elp::from_paths(paths[..at].to_vec());
        extended.extend(paths[at..].iter().cloned());
        prop_assert_eq!(&extended, &elp);

        let keep = |p: &Path| (p.hops() as u64 + u64::from(p.dst().0) + split) % 3 == 1;
        let mut retained = elp.clone();
        retained.retain(keep);
        let filtered: Vec<Path> = paths.iter().filter(|p| keep(p)).cloned().collect();
        prop_assert_eq!(&retained, &Elp::from_paths(filtered));
    }

    /// Visiting each stored hop once, with answers kept per turn and tag,
    /// changes nothing, whatever order the paths come in: Algorithm 1's
    /// graph, the compiled and repaired rules, the repair count and the
    /// fallback decision equal those of walking every hop of every path.
    #[test]
    fn resumed_walks_match_naive(case in arb_elp()) {
        let (topo, elp) = case;
        assert_matches_naive(&topo, &elp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The verifier's two checks are exactly Theorem 5.1: accept iff
    /// monotone and per-tag acyclic. Cross-check the cycle finder against
    /// a brute-force reachability argument.
    #[test]
    fn verifier_cycle_witness_is_sound(g in arb_graph()) {
        for tag in g.tags() {
            if let Some(cycle) = g.find_cycle_in_tag(tag) {
                // Witness closes and every step is an edge within the tag.
                prop_assert_eq!(cycle.first(), cycle.last());
                prop_assert!(cycle.len() >= 2);
                for w in cycle.windows(2) {
                    prop_assert!(g.contains_edge(&(w[0], w[1])));
                    prop_assert_eq!(w[0].tag, tag);
                }
            }
        }
    }

    /// verify() rejects exactly when there is a decreasing edge or some
    /// tag has a cycle.
    #[test]
    fn verify_matches_definitions(g in arb_graph()) {
        let decreasing = g.edges().any(|(a, b)| b.tag < a.tag);
        let cyclic = g.tags().iter().any(|&t| g.find_cycle_in_tag(t).is_some());
        prop_assert_eq!(g.verify().is_ok(), !decreasing && !cyclic);
    }

    /// Tag shifting preserves verification results and structure.
    #[test]
    fn shifted_preserves_verdict(g in arb_graph(), off in 0u16..5) {
        let s = g.shifted(off);
        prop_assert_eq!(g.verify().is_ok(), s.verify().is_ok());
        prop_assert_eq!(g.num_nodes(), s.num_nodes());
        prop_assert_eq!(g.num_edges(), s.num_edges());
    }

    /// Algorithm 1 + Algorithm 2 over random Clos ELPs: outputs verify,
    /// tags shrink, node/edge counts are preserved up to merging.
    #[test]
    fn algorithms_invariants(seed in 0u64..500) {
        let topo = ClosConfig::small().build();
        let hosts: Vec<_> = topo.host_ids().collect();
        let a = hosts[(seed as usize) % hosts.len()];
        let b = hosts[(seed as usize * 3 + 1) % hosts.len()];
        prop_assume!(a != b);
        let paths = tagger_routing::bounce_paths_between_capped(
            &topo,
            &tagger_topo::FailureSet::none(),
            a,
            b,
            (seed % 2) as usize,
            12,
        );
        prop_assume!(!paths.is_empty());
        let elp = Elp::from_paths(paths);
        let brute = tag_by_hop_count(&topo, &elp);
        prop_assert_eq!(brute.verify(), Ok(()));
        let merged = greedy_minimize(&topo, &brute);
        prop_assert_eq!(merged.verify(), Ok(()));
        prop_assert!(merged.num_nodes() <= brute.num_nodes());
        prop_assert!(merged.num_edges() <= brute.num_edges());
        prop_assert!(
            merged.num_lossless_tags(&topo) <= brute.num_lossless_tags(&topo)
        );
    }

    /// TCAM compilation is semantically equivalent to the rule list at
    /// every compression level, over random rule tables.
    #[test]
    fn tcam_equivalence(rules in proptest::collection::vec(
        (1u16..4, 0u16..6, 0u16..6, 1u16..4),
        0..30,
    )) {
        // Deduplicate by key, as a RuleSet would.
        let mut seen = std::collections::BTreeMap::new();
        for (t, i, o, n) in rules {
            seen.entry((t, i, o)).or_insert(n);
        }
        let rules: Vec<SwitchRule> = seen
            .into_iter()
            .map(|((t, i, o), n)| SwitchRule {
                tag: Tag(t),
                in_port: PortId(i),
                out_port: PortId(o),
                new_tag: Tag(n),
            })
            .collect();
        let exact = Tcam::compile(&rules, Compression::None);
        for level in [Compression::InPort, Compression::Joint] {
            let compressed = Tcam::compile(&rules, level);
            prop_assert!(compressed.len() <= exact.len());
            for t in 1..4u16 {
                for i in 0..6u16 {
                    for o in 0..6u16 {
                        prop_assert_eq!(
                            compressed.decide(Tag(t), PortId(i), PortId(o)),
                            exact.decide(Tag(t), PortId(i), PortId(o)),
                            "mismatch at ({},{},{}) level {:?}", t, i, o, level
                        );
                    }
                }
            }
        }
    }

    /// The closure certificate of a pipeline run always verifies and the
    /// pipeline never silently falls back on shortest-path Jellyfish
    /// ELPs.
    #[test]
    fn pipeline_certificates(seed in 0u64..40) {
        let topo = JellyfishConfig::half_servers(12, 6, seed).build();
        let elp = Elp::shortest(&topo, 1, false);
        prop_assume!(!elp.is_empty());
        let t = tagger_core::Tagging::from_elp(&topo, &elp).unwrap();
        prop_assert_eq!(t.graph().verify(), Ok(()));
        prop_assert!(!t.used_fallback());
    }
}
