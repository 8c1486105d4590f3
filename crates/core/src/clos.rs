//! The Clos-specific optimal tagging construction (paper §4).
//!
//! For a Clos/FatTree fabric and an ELP of "all paths with up to `k`
//! bounces", the optimal scheme needs exactly `k + 1` lossless priorities
//! (paper §4.4, proved optimal by pigeonhole): the tag simply counts
//! bounces. Every ToR and Leaf switch bumps the tag when a packet that
//! came *down* to it turns back *up* — detectable purely locally as
//! (ingress port faces an upper layer) ∧ (egress port faces an upper
//! layer). Spines never bump. Packets whose tag would exceed `k + 1` match
//! no rule and fall to the lossy class.
//!
//! The tagged graph built here is a *superset* of what the ELP reaches: it
//! contains every `(port, tag)` combination the rules could ever produce,
//! under any routing whatsoever. Verifying this superset certifies that
//! the scheme is deadlock-free even under routing errors and loops — the
//! paper's headline guarantee.

use crate::digraph::Digraph;
use crate::ports::PortIndexer;
use crate::{RuleError, RuleSet, SwitchRule, Tag, TagDecision, TaggedGraph, TaggedNode, Tagging};
use std::collections::HashSet;
use tagger_routing::Path;
use tagger_topo::{GlobalPort, NodeId, NodeKind, PortId, Topology};

/// Errors from the Clos construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClosError {
    /// A switch has no layer rank (e.g. [`tagger_topo::Layer::Flat`]):
    /// the up/down structure the construction relies on is missing.
    UnrankedSwitch(NodeId),
    /// Rule compilation or verification failed (bug if it ever fires).
    Rule(RuleError),
}

impl std::fmt::Display for ClosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosError::UnrankedSwitch(n) => {
                write!(f, "switch {n} has no layer rank; not a Clos-like fabric")
            }
            ClosError::Rule(e) => write!(f, "rule error: {e}"),
        }
    }
}

impl std::error::Error for ClosError {}

/// Builds the optimal Clos tagging for ELPs with up to `k` bounces:
/// `k + 1` lossless tags, bump-on-bounce rules, lossy beyond.
///
/// Works on any layered fabric where every switch carries a layer rank
/// (3-layer Clos, 2-layer leaf-spine, FatTree).
pub fn clos_tagging(topo: &Topology, k: usize) -> Result<Tagging, ClosError> {
    clos_tagging_masked(topo, k, |_, _| false, &[])
}

/// [`clos_tagging`] without the rules, and their graph edges, that leave
/// a switch `sw` by an egress port for which `masked(sw, port)` holds
/// (they fall to the lossy class; fewer edges keep the graph acyclic),
/// plus the rules the paths of `extras` need. The controller masks the
/// ports a watchdog quarantined and passes the pinned extras that avoid
/// them. An extra follows the rules already there; at a hop without one
/// (a bounce at tag `k + 1`, or any hop above it) it gets a rule that
/// keeps its tag unless that closes a cycle in the tag, and bumps it
/// otherwise: `b` bounces spend at most `b + 1` tags, `b ≤ k` none new.
pub fn clos_tagging_masked(
    topo: &Topology,
    k: usize,
    masked: impl Fn(NodeId, PortId) -> bool,
    extras: &[Path],
) -> Result<Tagging, ClosError> {
    let max_tag = (k + 1) as u16;
    if let Some(sw) = topo.unranked_switch() {
        return Err(ClosError::UnrankedSwitch(sw));
    }

    let mut rules = RuleSet::new();

    for sw in topo.switch_ids() {
        let rank = topo.node(sw).layer.rank().expect("checked above");
        let neighbors: Vec<(PortId, NodeId)> = topo
            .neighbors(sw)
            .map(|(port, _, peer)| (port, peer))
            .collect();
        for &(in_port, in_peer) in &neighbors {
            let in_upper = topo.node(in_peer).layer.rank().is_some_and(|r| r > rank);
            for &(out_port, out_peer) in &neighbors {
                if in_port == out_port || masked(sw, out_port) {
                    continue;
                }
                let out_upper = topo.node(out_peer).layer.rank().is_some_and(|r| r > rank);
                let bounce = in_upper && out_upper;
                for tag in 1..=max_tag {
                    let new_tag = if bounce { tag + 1 } else { tag };
                    if new_tag > max_tag {
                        continue; // falls through to the lossy safeguard
                    }
                    // Packets from hosts only ever carry the initial tag;
                    // rules and graph nodes for higher tags there would be
                    // dead weight.
                    if topo.node(in_peer).kind == NodeKind::Host && tag != Tag::INITIAL.0 {
                        continue;
                    }
                    rules
                        .add(
                            sw,
                            SwitchRule {
                                tag: Tag(tag),
                                in_port,
                                out_port,
                                new_tag: Tag(new_tag),
                            },
                        )
                        .map_err(ClosError::Rule)?;
                }
            }
        }
    }
    if !extras.is_empty() {
        add_extras(topo, &mut rules, extras)?;
    }

    let mut graph = TaggedGraph::new();
    for (sw, rule) in rules.iter() {
        let (from, to) = rule_edge(topo, sw, rule);
        graph.add_edge(from, to);
    }
    Tagging::new(graph, rules).map_err(ClosError::Rule)
}

/// A rule's graph edge: (sw ingress, tag) -> (peer ingress, new tag).
fn rule_edge(topo: &Topology, sw: NodeId, rule: SwitchRule) -> (TaggedNode, TaggedNode) {
    let node = |port, tag| TaggedNode { port, tag };
    let to = topo.peer_of(GlobalPort::new(sw, rule.out_port));
    let from = node(GlobalPort::new(sw, rule.in_port), rule.tag);
    (from, node(to.expect("wired port"), rule.new_tag))
}

/// The extras step of [`clos_tagging_masked`]: walks each path through
/// `rules`, adding at every hop without a rule one that keeps the tag
/// unless that closes a cycle, and bumps it otherwise.
fn add_extras(topo: &Topology, rules: &mut RuleSet, extras: &[Path]) -> Result<(), ClosError> {
    // One graph per tag on port ids, seeded with the closed form's
    // acyclic same-tag edges: rules only keep or raise the tag, so a
    // cycle lies within one tag.
    let ports = PortIndexer::new(topo);
    let mut same_tag: Vec<Digraph> = Vec::new();
    for (sw, rule) in rules.iter().filter(|(_, r)| r.tag == r.new_tag) {
        let (from, to) = rule_edge(topo, sw, rule);
        tag_graph(&mut same_tag, &ports, rule.tag).add(ports.pid(from.port), ports.pid(to.port));
    }
    for path in extras {
        let mut tag = Tag::INITIAL;
        for hop in path.nodes().windows(3) {
            let ingress = topo.hop_ends(hop[0], hop[1]).1;
            let (egress, next) = topo.hop_ends(hop[1], hop[2]);
            if let TagDecision::Lossless(new_tag) =
                rules.decide(hop[1], tag, ingress.port, egress.port)
            {
                tag = new_tag;
                continue;
            }
            let (a, b) = (ports.pid(ingress), ports.pid(next));
            let g = tag_graph(&mut same_tag, &ports, tag);
            // Adding a -> b closes a cycle exactly when b reaches a.
            let new_tag = if g.reaches(b, a) {
                tag.next()
            } else {
                g.add(a, b);
                tag
            };
            let rule = SwitchRule {
                tag,
                in_port: ingress.port,
                out_port: egress.port,
                new_tag,
            };
            rules.add(hop[1], rule).map_err(ClosError::Rule)?;
            tag = new_tag;
        }
    }
    Ok(())
}

/// The same-tag graph of `tag`, grown on first use.
fn tag_graph<'a>(graphs: &'a mut Vec<Digraph>, ports: &PortIndexer, tag: Tag) -> &'a mut Digraph {
    let i = usize::from(tag.0 - 1);
    if graphs.len() <= i {
        graphs.resize(i + 1, Digraph::new(ports.total()));
    }
    &mut graphs[i]
}

/// Certifies that `rules` keep lossless every path of the failure-free
/// `k`-bounce ELP that crosses no egress port for which `masked` holds,
/// without enumerating a path.
///
/// The certificate is a forward sweep over the states (switch ingress
/// port, tag, bounces so far). It starts at every switch ingress facing
/// a host, with [`Tag::INITIAL`] and no bounce, and from each state
/// follows every egress that is not the ingress itself (a U-turn) and
/// not masked, as long as the bounces stay at or below `k`. Hops are
/// classified up or down exactly as the bounce enumeration
/// ([`tagger_routing::bounce_paths_between`]) classifies them: a lateral
/// hop is followed by no ELP path, and a down→up turn is a bounce. Every
/// step must hit a rule; a step to a host ends the walk, a step to a
/// switch continues at its ingress with the rule's new tag.
///
/// Every loop-free path of that ELP is one of these walks, so acceptance
/// implies [`Tagging::check_elp_lossless`] accepts the ELP. The walks
/// also take loops and parallel links the ELP leaves out, so a refusal
/// can be stricter than that sweep; on [`clos_tagging_masked`]'s tables
/// both accept. The sweep visits each state once: the cost is
/// O(Σ deg² · tags · (k + 1)) rule lookups, the construction's own size,
/// whatever the number of host pairs.
pub fn check_bounce_walks_lossless(
    topo: &Topology,
    rules: &RuleSet,
    k: usize,
    masked: impl Fn(NodeId, PortId) -> bool,
) -> Result<(), RuleError> {
    // `Some(true)` for an up hop, `Some(false)` for a down one, `None`
    // for a lateral one.
    let up = |from: NodeId, to: NodeId| {
        if topo.is_up_hop(from, to) {
            Some(true)
        } else if topo.is_down_hop(from, to) {
            Some(false)
        } else {
            None
        }
    };
    let mut stack: Vec<(GlobalPort, Tag, usize)> = Vec::new();
    for host in topo.host_ids() {
        for (port, _, sw) in topo.neighbors(host) {
            if topo.node(sw).kind == NodeKind::Switch && up(host, sw).is_some() {
                let ingress = topo
                    .peer_of(GlobalPort::new(host, port))
                    .expect("wired port");
                stack.push((ingress, Tag::INITIAL, 0));
            }
        }
    }
    let mut seen: HashSet<(GlobalPort, Tag, usize)> = stack.iter().copied().collect();
    while let Some((ingress, tag, bounces)) = stack.pop() {
        let sw = ingress.node;
        let came_from = topo.peer_of(ingress).expect("wired port").node;
        let came_up = up(came_from, sw).expect("states enter by a classified hop");
        for (out_port, _, next) in topo.neighbors(sw) {
            if out_port == ingress.port || masked(sw, out_port) {
                continue;
            }
            let Some(goes_up) = up(sw, next) else {
                continue;
            };
            let after = bounces + usize::from(!came_up && goes_up);
            if after > k {
                continue;
            }
            let TagDecision::Lossless(new_tag) = rules.decide(sw, tag, ingress.port, out_port)
            else {
                return Err(RuleError::WalkNotLossless {
                    switch: sw,
                    rule: (tag, ingress.port, out_port),
                    bounces: after,
                });
            };
            if topo.node(next).kind == NodeKind::Host {
                continue;
            }
            let state = (
                topo.peer_of(GlobalPort::new(sw, out_port))
                    .expect("wired port"),
                new_tag,
                after,
            );
            if seen.insert(state) {
                stack.push(state);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Elp, TagDecision};
    use tagger_topo::{fat_tree, ClosConfig};

    #[test]
    fn k_plus_one_tags() {
        let topo = ClosConfig::small().build();
        for k in 0..4usize {
            let t = clos_tagging(&topo, k).unwrap();
            assert_eq!(t.num_lossless_tags_on(&topo), k + 1, "k={k}");
        }
    }

    #[test]
    fn graph_is_deadlock_free_by_construction() {
        let topo = ClosConfig::small().build();
        for k in 0..3usize {
            clos_tagging(&topo, k).unwrap().graph().verify().unwrap();
        }
    }

    #[test]
    fn updown_elp_lossless_with_k0() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 0).unwrap();
        t.check_elp_lossless(&topo, &Elp::updown(&topo)).unwrap();
    }

    #[test]
    fn one_bounce_elp_lossless_with_k1_not_k0() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 16);
        clos_tagging(&topo, 1)
            .unwrap()
            .check_elp_lossless(&topo, &elp)
            .unwrap();
        assert!(clos_tagging(&topo, 0)
            .unwrap()
            .check_elp_lossless(&topo, &elp)
            .is_err());
    }

    #[test]
    fn two_bounce_elp_needs_k2() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 2, 8);
        clos_tagging(&topo, 2)
            .unwrap()
            .check_elp_lossless(&topo, &elp)
            .unwrap();
        assert!(clos_tagging(&topo, 1)
            .unwrap()
            .check_elp_lossless(&topo, &elp)
            .is_err());
    }

    #[test]
    fn bounce_rule_bumps_tag() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 1).unwrap();
        let l1 = topo.expect_node("L1");
        let s1 = topo.expect_node("S1");
        let s2 = topo.expect_node("S2");
        let in_port = topo.port_towards(l1, s1).unwrap();
        let out_port = topo.port_towards(l1, s2).unwrap();
        // Bounce at L1 (spine -> spine): tag 1 -> 2; tag 2 -> lossy.
        assert_eq!(
            t.rules().decide(l1, Tag(1), in_port, out_port),
            TagDecision::Lossless(Tag(2))
        );
        assert_eq!(
            t.rules().decide(l1, Tag(2), in_port, out_port),
            TagDecision::Lossy
        );
    }

    #[test]
    fn non_bounce_keeps_tag() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 1).unwrap();
        let l1 = topo.expect_node("L1");
        let in_port = topo.port_towards(l1, topo.expect_node("T1")).unwrap();
        let out_port = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        // Going up through L1 keeps whatever tag the packet has.
        for tag in 1..=2u16 {
            assert_eq!(
                t.rules().decide(l1, Tag(tag), in_port, out_port),
                TagDecision::Lossless(Tag(tag))
            );
        }
    }

    #[test]
    fn masked_egress_ports_lose_their_rules_and_edges() {
        let topo = ClosConfig::small().build();
        let l1 = topo.expect_node("L1");
        let to_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let full = clos_tagging(&topo, 1).unwrap();
        let masked =
            clos_tagging_masked(&topo, 1, |sw, port| sw == l1 && port == to_s1, &[]).unwrap();
        let leaves_by = |t: &Tagging| {
            t.rules()
                .rules_for(l1)
                .iter()
                .filter(|r| r.out_port == to_s1)
                .count()
        };
        assert!(leaves_by(&full) > 0);
        assert_eq!(leaves_by(&masked), 0);
        let others = |t: &Tagging| t.rules().num_rules() - leaves_by(t);
        assert_eq!(
            others(&masked),
            others(&full),
            "only the masked port's rules go"
        );
        let s1_ingress = topo.peer_of(GlobalPort::new(l1, to_s1)).unwrap();
        assert!(masked.graph().edges().all(|(_, to)| to.port != s1_ingress));
        masked.graph().verify().unwrap();
        assert_eq!(masked.num_lossless_tags_on(&topo), 2);
    }

    #[test]
    fn works_on_two_layer_leaf_spine() {
        let topo = tagger_topo::clos2(4, 2, 2);
        let t = clos_tagging(&topo, 1).unwrap();
        t.graph().verify().unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 2);
        t.check_elp_lossless(&topo, &Elp::updown(&topo)).unwrap();
    }

    #[test]
    fn works_on_fat_tree() {
        let topo = fat_tree(4);
        let t = clos_tagging(&topo, 1).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 2);
        t.graph().verify().unwrap();
        let elp = Elp::updown(&topo);
        t.check_elp_lossless(&topo, &elp).unwrap();
    }

    #[test]
    fn walks_certify_the_closed_form_and_refuse_fewer_tags() {
        for topo in [
            ClosConfig::small().build(),
            fat_tree(4),
            tagger_topo::clos2(4, 2, 2),
        ] {
            for k in 0..3usize {
                let t = clos_tagging(&topo, k).unwrap();
                check_bounce_walks_lossless(&topo, t.rules(), k, |_, _| false).unwrap();
                // k + 1 bounces need a tag the k-bounce tables lack.
                assert!(matches!(
                    check_bounce_walks_lossless(&topo, t.rules(), k + 1, |_, _| false),
                    Err(RuleError::WalkNotLossless { bounces, .. }) if bounces == k + 1
                ));
            }
        }
    }

    #[test]
    fn walks_refuse_a_missing_bounce_rule_and_skip_masked_ports() {
        let topo = ClosConfig::small().build();
        let l1 = topo.expect_node("L1");
        let from_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let to_s2 = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
        let mut rules = clos_tagging(&topo, 1).unwrap().rules().clone();
        let bounce = SwitchRule {
            tag: Tag(1),
            in_port: from_s1,
            out_port: to_s2,
            new_tag: Tag(2),
        };
        assert!(rules.remove(l1, bounce));
        assert_eq!(
            check_bounce_walks_lossless(&topo, &rules, 1, |_, _| false),
            Err(RuleError::WalkNotLossless {
                switch: l1,
                rule: (Tag(1), from_s1, to_s2),
                bounces: 1,
            })
        );
        // No walk leaves by a masked port, so its missing rule is moot.
        check_bounce_walks_lossless(&topo, &rules, 1, |sw, port| sw == l1 && port == to_s2)
            .unwrap();
        let masked =
            clos_tagging_masked(&topo, 1, |sw, port| sw == l1 && port == to_s2, &[]).unwrap();
        check_bounce_walks_lossless(&topo, masked.rules(), 1, |sw, port| {
            sw == l1 && port == to_s2
        })
        .unwrap();
    }

    #[test]
    fn an_extra_past_k_bounces_adds_rules_only_at_its_own_hops() {
        let topo = ClosConfig::small().build();
        let names = "H1 T1 L2 T2 L1 S1 L3 T3 L4 T4 H13";
        let detour = Path::from_names(&topo, &names.split(' ').collect::<Vec<_>>());
        assert_eq!(detour.bounces(&topo), 2);
        let plain = clos_tagging(&topo, 1).unwrap();
        let t = clos_tagging_masked(&topo, 1, |_, _| false, std::slice::from_ref(&detour)).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 3);
        t.check_elp_lossless(&topo, &Elp::from_paths(vec![detour.clone()]))
            .unwrap();
        check_bounce_walks_lossless(&topo, t.rules(), 1, |_, _| false).unwrap();
        // The second bounce, at T3, and the two hops after it.
        let added: Vec<_> = plain.rules().diff(t.rules());
        let touched: Vec<_> = added
            .iter()
            .map(|d| {
                (
                    topo.node(d.switch).name.as_str(),
                    d.add.len(),
                    d.remove.len(),
                )
            })
            .collect();
        assert_eq!(touched, [("L4", 1, 0), ("T3", 1, 0), ("T4", 1, 0)]);
        // A 1-bounce extra is already carried: it adds nothing.
        let carried = Path::from_names(
            &topo,
            &["H1", "T1", "L1", "T2", "L2", "S2", "L4", "T4", "H13"],
        );
        let t = clos_tagging_masked(&topo, 1, |_, _| false, &[carried]).unwrap();
        assert_eq!(t.rules(), plain.rules());
    }

    #[test]
    fn an_extra_keeps_its_tag_where_that_closes_no_cycle() {
        let topo = ClosConfig::small().build();
        let path = |names: &str| Path::from_names(&topo, &names.split(' ').collect::<Vec<_>>());
        let plain = clos_tagging(&topo, 0).unwrap();
        let added = |t: &Tagging| {
            plain
                .rules()
                .diff(t.rules())
                .iter()
                .map(|d| (topo.node(d.switch).name.clone(), d.add.clone()))
                .collect::<Vec<_>>()
        };
        // A bounce at a leaf (spine -> leaf -> spine) closes no cycle in
        // tag 1: its one new rule keeps the tag.
        let leaf = path("H1 T1 L1 S1 L2 S2 L3 T4 H13");
        let t = clos_tagging_masked(&topo, 0, |_, _| false, std::slice::from_ref(&leaf)).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 1);
        let [(name, rules)] = &added(&t)[..] else {
            panic!("{:?}", added(&t));
        };
        assert_eq!(
            (name.as_str(), rules[0].tag, rules[0].new_tag),
            ("L2", Tag(1), Tag(1))
        );
        // A bounce at a ToR would close leaf -> spine -> leaf -> ToR back
        // on itself: it bumps, and every hop after it gets a tag-2 rule.
        let tor = path("H1 T1 L2 T2 L1 S2 L4 T4 H13");
        let t = clos_tagging_masked(&topo, 0, |_, _| false, std::slice::from_ref(&tor)).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 2);
        let names: Vec<_> = added(&t).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["S2", "L1", "T2", "L4", "T4"]);
        for t in [
            &t,
            &clos_tagging_masked(&topo, 0, |_, _| false, &[leaf, tor]).unwrap(),
        ] {
            t.graph().verify().unwrap();
            check_bounce_walks_lossless(&topo, t.rules(), 0, |_, _| false).unwrap();
        }
    }

    #[test]
    fn flat_topology_is_rejected() {
        let topo = tagger_topo::JellyfishConfig::half_servers(10, 6, 1).build();
        assert!(matches!(
            clos_tagging(&topo, 1),
            Err(ClosError::UnrankedSwitch(_))
        ));
    }

    #[test]
    fn loop_traffic_eventually_goes_lossy() {
        // A packet looping T1 <-> L1 bounces at T1 every round trip: after
        // k bounces its tag exceeds k+1 and it matches no rule.
        let topo = ClosConfig::small().build();
        let k = 2;
        let t = clos_tagging(&topo, k).unwrap();
        let t1 = topo.expect_node("T1");
        let l1 = topo.expect_node("L1");
        let t1_from_l1 = topo.port_towards(t1, l1).unwrap();
        let t1_to_l1 = t1_from_l1; // same port both ways is impossible...
                                   // T1 has exactly one port to L1; a loop T1->L1->T1->L1 would
                                   // re-use it, which real forwarding forbids. Use the two-leaf loop
                                   // instead: L1 -> T1 -> L2 -> T1? Also forbidden. The realistic
                                   // loop (Fig 11) is T1 -> L1 -> T1 via distinct FIB entries but the
                                   // same physical link — model it as repeated bounces at T1 between
                                   // its two uplinks: in from L1, out to L2 (bounce), in from L2,
                                   // out to L1 (bounce), ...
        let t1_from_l2 = topo.port_towards(t1, topo.expect_node("L2")).unwrap();
        let mut tag = Tag::INITIAL;
        let mut demoted_at = None;
        for round in 0..10 {
            let (in_p, out_p) = if round % 2 == 0 {
                (t1_from_l1, t1_from_l2)
            } else {
                (t1_from_l2, t1_from_l1)
            };
            match t.rules().decide(t1, tag, in_p, out_p) {
                TagDecision::Lossless(next) => tag = next,
                TagDecision::Lossy => {
                    demoted_at = Some(round);
                    break;
                }
            }
        }
        let _ = t1_to_l1;
        // k = 2: tags 1 -> 2 -> 3 on two bounces, third bounce demotes.
        assert_eq!(demoted_at, Some(2));
    }
}
