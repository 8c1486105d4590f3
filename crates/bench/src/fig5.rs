//! The paper's Figure 5 walk-through fixture.
//!
//! Three switches `A`, `B`, `C` in a triangle, with one server on each
//! (`D` on `A`, `E` on `B`, `F` on `C`). The ELP contains, for each
//! ordered server pair, both the direct two-switch route and the detour
//! through the third switch — the twelve paths listed in Fig. 5(a).
//!
//! Paper results this fixture reproduces:
//! - Algorithm 1 needs **3** lossless priorities at switches (Fig. 5(b),
//!   "we need three lossless priorities for the simple example");
//! - Algorithm 2 compresses them to **2** (Fig. 5(c), "the number of
//!   tags is reduced to two");
//! - the rule tables have the shape of Tables 3/4.

use tagger_core::Elp;
use tagger_routing::Path;
use tagger_topo::{Layer, Topology};

/// Builds the Fig. 5 topology. Port numbering per switch: port 0 to its
/// server, then ports to the other switches in alphabetical order.
pub fn topology() -> Topology {
    let mut t = Topology::new();
    let a = t.add_switch("A", Layer::Flat);
    let b = t.add_switch("B", Layer::Flat);
    let c = t.add_switch("C", Layer::Flat);
    let d = t.add_host("D");
    let e = t.add_host("E");
    let f = t.add_host("F");
    // Server links first so each switch's port 0 faces its server.
    t.connect(a, d);
    t.connect(b, e);
    t.connect(c, f);
    t.connect(a, b);
    t.connect(a, c);
    t.connect(b, c);
    t
}

/// The twelve ELP paths of Fig. 5(a).
pub fn elp(topo: &Topology) -> Elp {
    let routes: [&[&str]; 12] = [
        &["D", "A", "B", "E"],
        &["D", "A", "C", "B", "E"],
        &["E", "B", "A", "D"],
        &["E", "B", "C", "A", "D"],
        &["D", "A", "C", "F"],
        &["D", "A", "B", "C", "F"],
        &["F", "C", "A", "D"],
        &["F", "C", "B", "A", "D"],
        &["E", "B", "C", "F"],
        &["E", "B", "A", "C", "F"],
        &["F", "C", "B", "E"],
        &["F", "C", "A", "B", "E"],
    ];
    Elp::from_paths(routes.iter().map(|r| Path::from_names(topo, r)).collect())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_core::{greedy_minimize, tag_by_hop_count, Tagging};

    #[test]
    fn brute_force_needs_three_priorities() {
        let topo = topology();
        let g = tag_by_hop_count(&topo, &elp(&topo));
        g.verify().unwrap();
        // Longest path D->A->C->B->E has 4 hops; switch-ingress tags are
        // 1..=3 (tag 4 only appears on destination servers, Fig 5b).
        assert_eq!(g.num_lossless_tags(&topo), 3);
        assert_eq!(g.max_tag(), Some(tagger_core::Tag(4)));
    }

    #[test]
    fn greedy_reduces_to_two_priorities() {
        let topo = topology();
        let g = tag_by_hop_count(&topo, &elp(&topo));
        let merged = greedy_minimize(&topo, &g);
        merged.verify().unwrap();
        assert_eq!(merged.num_lossless_tags(&topo), 2);
    }

    #[test]
    fn full_pipeline_keeps_elp_lossless() {
        let topo = topology();
        let elp = elp(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 2);
        assert!(!t.used_fallback());
        t.check_elp_lossless(&topo, &elp).unwrap();
    }

    #[test]
    fn table3_rule_dump_is_pinned() {
        // Golden test for the Table 3 shape: under Algorithm 1, each
        // switch's rules are identical by symmetry — port 0 faces the
        // server, ports 1 and 2 the peer switches.
        use tagger_core::RuleSet;
        let topo = topology();
        let g = tag_by_hop_count(&topo, &elp(&topo));
        let rules = RuleSet::from_graph(&topo, &g).unwrap();
        for sw in ["A", "B", "C"] {
            let rows: Vec<String> = rules
                .rules_for(topo.expect_node(sw))
                .into_iter()
                .map(|r| format!("{} {} {} {}", r.tag, r.in_port, r.out_port, r.new_tag))
                .collect();
            assert_eq!(
                rows,
                vec![
                    "1 p0 p1 2", // fresh from the server, first hop
                    "1 p0 p2 2",
                    "2 p1 p0 3", // second hop: deliver or forward on
                    "2 p1 p2 3",
                    "2 p2 p0 3",
                    "2 p2 p1 3",
                    "3 p1 p0 4", // third hop: deliver to the server
                    "3 p2 p0 4",
                ],
                "switch {sw}"
            );
        }
    }

    #[test]
    fn single_priority_would_deadlock() {
        // The triangle detour paths alone create a CBD on one priority —
        // the reason the example needs two tags at all.
        let topo = topology();
        assert!(!tagger_core::decide(&topo, &elp(&topo), Some(1)).is_feasible());
    }
}
