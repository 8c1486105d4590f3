//! Algorithm 1: the brute-force tagging system.
//!
//! "A brute-force tagging system that increases the tag by one on every
//! hop" (paper, Algorithm 1). For each ELP path, the packet carries tag 1
//! into the first hop's ingress port, tag 2 into the second, and so on.
//! Every per-tag subgraph is trivially acyclic (a tag appears exactly once
//! per path, so edges within a tag don't exist at all for a single path;
//! across paths, same-tag nodes are never connected because every edge
//! bumps the tag), and tags grow monotonically — so the output always
//! verifies. The price is as many tags as the longest lossless route,
//! which Algorithm 2 then compresses.

use crate::turn::{turn_key, TurnSet};
use crate::{Elp, Tag, TaggedGraph, TaggedNode};
use std::convert::Infallible;
use tagger_topo::Topology;

/// Runs Algorithm 1 over an [`Elp`]. The tag starts at 1 on the first hop
/// and increments on every subsequent hop.
///
/// One sweep of the ELP's tree: a hop's node is (ingress port, hop
/// number), the same for every path that shares the prefix up to it, and
/// the edge into it is the same wherever the same turn is taken at the
/// same hop number — only the first such visit touches the graph.
pub fn tag_by_hop_count(topo: &Topology, elp: &Elp) -> TaggedGraph {
    let mut g = TaggedGraph::new();
    let mut seen = TurnSet::default();
    let node = |from, to, tag| TaggedNode {
        port: topo.hop_ends(from, to).1,
        tag,
    };
    let Ok(()) = elp.tree().sweep(|_, before, here, next| {
        let Some((before, carried)) = before else {
            g.add_node(node(here, next, Tag::INITIAL));
            return Ok::<Tag, Infallible>(Tag::INITIAL);
        };
        let tag = carried.next();
        if seen.insert(turn_key(before, here, next, carried)) {
            g.add_edge(node(before, here, carried), node(here, next, tag));
        }
        Ok(tag)
    });
    g
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_routing::Path;
    use tagger_topo::ClosConfig;

    #[test]
    fn single_path_tags_by_hop_index() {
        let topo = ClosConfig::small().build();
        let p = Path::from_names(&topo, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let g = tag_by_hop_count(&topo, &Elp::from_paths(vec![p]));
        // 6 hops -> 6 nodes, 5 edges, tags 1..=6.
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.max_tag(), Some(Tag(6)));
        // Switch-ingress tags are 1..=5 (tag 6 is at the host).
        assert_eq!(g.num_lossless_tags(&topo), 5);
        g.verify().unwrap();
    }

    #[test]
    fn shared_prefix_shares_nodes() {
        let topo = ClosConfig::small().build();
        let a = Path::from_names(&topo, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let b = Path::from_names(&topo, &["H1", "T1", "L1", "S1", "L4", "T4", "H13"]);
        let g = tag_by_hop_count(&topo, &Elp::from_paths(vec![a, b]));
        // First 3 hops identical: 3 shared nodes + 2x3 distinct.
        assert_eq!(g.num_nodes(), 3 + 6);
        g.verify().unwrap();
    }

    #[test]
    fn whole_updown_elp_verifies() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let g = tag_by_hop_count(&topo, &elp);
        g.verify().unwrap();
        // Longest up-down path is 6 hops; switches see 5 distinct tags.
        assert_eq!(g.num_lossless_tags(&topo), 5);
    }

    #[test]
    fn bounce_elp_verifies_too() {
        // Algorithm 1 never creates a cycle even for bouncy ELPs — the tag
        // changes on every hop.
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 8);
        let g = tag_by_hop_count(&topo, &elp);
        g.verify().unwrap();
        assert!(g.num_lossless_tags(&topo) > 5); // bounce paths are longer
    }

    #[test]
    fn same_port_can_carry_multiple_tags() {
        let topo = ClosConfig::small().build();
        // The S1 ingress from L1 is hop 3 of H1->H9 but hop 2 of a path
        // starting at a T1-adjacent... actually from L1's other ToR: T2.
        let a = Path::from_names(&topo, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let b = Path::from_names(&topo, &["T2", "L1", "S1", "L3", "T3", "H9"]);
        let g = tag_by_hop_count(&topo, &Elp::from_paths(vec![a, b]));
        let s1 = topo.expect_node("S1");
        let l1 = topo.expect_node("L1");
        let n2 = TaggedGraph::node_for(&topo, s1, l1, Tag(2));
        let n3 = TaggedGraph::node_for(&topo, s1, l1, Tag(3));
        assert!(g.contains_node(&n2));
        assert!(g.contains_node(&n3));
    }

    #[test]
    fn empty_elp_gives_empty_graph() {
        let topo = ClosConfig::small().build();
        let g = tag_by_hop_count(&topo, &Elp::default());
        assert!(g.is_empty());
        g.verify().unwrap();
    }
}
