//! Algorithm 2: greedy minimization of the number of tags.
//!
//! Takes the brute-force tagged graph of Algorithm 1 and merges as many
//! old tags as possible into each new tag, subject to the CBD-free
//! constraint (paper §5.2). Old tags are scanned in increasing order; each
//! node is tentatively added to the current new-tag group, and kept there
//! only if the group's *port-projected* dependency graph stays acyclic —
//! otherwise the node is deferred to the next group. Because brute-force
//! edges always go from old tag `t` to `t + 1`, deferred nodes (all of old
//! tag `t`) have no edges among themselves, so the next group starts
//! acyclic, and the resulting tag assignment is monotone along every edge.
//!
//! The port projection matters: two graph nodes `(A_i, x)` and `(A_i, y)`
//! merged into one new tag become the *same* physical queue, so the cycle
//! check must identify them — this module projects group members onto
//! ports before asking [`Digraph::reaches`] whether a cycle closed.
//!
//! ## A note on rule determinism
//!
//! The paper treats the merged graph as directly implementable, but the
//! merge can make two edges share a rule key `(switch, tag, in, out)`
//! while disagreeing on the rewrite — an ambiguity Algorithm 2 as
//! published does not exclude. This crate resolves it downstream:
//! [`crate::Tagging::from_elp`] compiles rules with min-resolution, adds
//! repair rules until every ELP path simulates losslessly, and verifies
//! the closure of what the final rules can express. See `DESIGN.md`.

use crate::digraph::Digraph;
use crate::ports::PortIndexer;
use crate::{Tag, TaggedGraph, TaggedNode};
use std::collections::BTreeMap;
use tagger_topo::Topology;

/// Runs Algorithm 2 and returns the node-level re-tagging: for every node
/// of the input graph, the new (merged) tag it was assigned.
///
/// The input must be a monotone graph whose edges all go from tag `t` to
/// `t + 1` — i.e. the output of [`crate::tag_by_hop_count`].
pub fn greedy_assignment(topo: &Topology, g: &TaggedGraph) -> BTreeMap<TaggedNode, Tag> {
    // Index graph nodes and edges.
    let nodes: Vec<TaggedNode> = g.nodes().copied().collect();
    let index: BTreeMap<TaggedNode, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in g.edges() {
        let (ia, ib) = (index[a], index[b]);
        out_edges[ia].push(ib);
        in_edges[ib].push(ia);
    }

    // Group node indices by old tag, ascending; deterministic within a tag
    // because `nodes` is sorted.
    let mut by_tag: BTreeMap<Tag, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_tag.entry(n.tag).or_default().push(i);
    }

    let ports = PortIndexer::new(topo);
    // The port-projected dependency graph of the current new-tag group.
    let mut sandbox = Digraph::new(ports.total());
    // Sources of the edges the current candidate pushed, for undo.
    let mut pushed: Vec<u32> = Vec::new();
    // in_group[i]: node i is a member of the *current* new-tag group.
    let mut in_group = vec![false; nodes.len()];
    let mut new_tag = vec![0u16; nodes.len()];
    let mut current = 1u16;
    let mut pending: Vec<usize> = Vec::new();

    for (_, members) in by_tag {
        for v in members {
            let pv = ports.pid(nodes[v].port);
            // Project v's edges to/from current group members onto ports.
            // Several merged graph nodes can project onto one port-level
            // edge; one already in the group is nobody's to undo.
            let outgoing = out_edges[v]
                .iter()
                .filter(|&&w| in_group[w])
                .map(|&w| (pv, ports.pid(nodes[w].port)));
            let incoming = in_edges[v]
                .iter()
                .filter(|&&u| in_group[u])
                .map(|&u| (ports.pid(nodes[u].port), pv));
            pushed.clear();
            for (a, b) in outgoing.chain(incoming) {
                if !sandbox.has_edge(a, b) {
                    sandbox.add(a, b);
                    pushed.push(a);
                }
            }
            // All fresh edges are incident to the candidate's port, so
            // any new cycle must pass through it.
            if sandbox.reaches(pv, pv) {
                for &a in pushed.iter().rev() {
                    sandbox.pop_edge(a);
                }
                new_tag[v] = current + 1;
                pending.push(v);
            } else {
                in_group[v] = true;
                new_tag[v] = current;
            }
        }
        if !pending.is_empty() {
            // Open the next group, seeded with the deferred nodes. They
            // share one old tag, so no edges exist among them — the new
            // group starts acyclic. Cross-group edges are allowed; only
            // intra-group cycles matter.
            current += 1;
            sandbox.clear();
            in_group.iter_mut().for_each(|x| *x = false);
            for &v in &pending {
                in_group[v] = true;
            }
            pending.clear();
        }
    }

    nodes
        .into_iter()
        .zip(new_tag)
        .map(|(n, t)| (n, Tag(t)))
        .collect()
}

/// Applies a re-tagging to a graph: every node's tag is replaced by its
/// assigned tag, and edges are mapped accordingly (merging duplicates).
pub fn apply_assignment(g: &TaggedGraph, assignment: &BTreeMap<TaggedNode, Tag>) -> TaggedGraph {
    let renamed = |n: &TaggedNode| TaggedNode {
        port: n.port,
        tag: assignment[n],
    };
    let mut result = TaggedGraph::new();
    for n in g.nodes() {
        result.add_node(renamed(n));
    }
    for (a, b) in g.edges() {
        result.add_edge(renamed(a), renamed(b));
    }
    result
}

/// Runs Algorithm 2: re-tags the brute-force graph `g` greedily so that
/// the result uses as few tags as the heuristic manages, while satisfying
/// both Theorem 5.1 requirements (verified in debug builds).
pub fn greedy_minimize(topo: &Topology, g: &TaggedGraph) -> TaggedGraph {
    let assignment = greedy_assignment(topo, g);
    let result = apply_assignment(g, &assignment);
    debug_assert_eq!(result.verify(), Ok(()));
    result
}

/// Convenience: Algorithm 1 followed by Algorithm 2 over an ELP.
pub fn minimize_elp(topo: &Topology, elp: &crate::Elp) -> TaggedGraph {
    greedy_minimize(topo, &crate::tag_by_hop_count(topo, elp))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{tag_by_hop_count, Elp};
    use tagger_routing::Path;
    use tagger_topo::ClosConfig;

    #[test]
    fn updown_clos_merges_to_one_tag() {
        // All up-down paths on a Clos have no CBD at all: one lossless
        // priority suffices (the paper's baseline observation, §3.2).
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let g = tag_by_hop_count(&topo, &elp);
        let merged = greedy_minimize(&topo, &g);
        merged.verify().unwrap();
        assert_eq!(merged.num_lossless_tags(&topo), 1);
    }

    #[test]
    fn merged_graph_never_has_more_tags_than_input() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 4);
        let g = tag_by_hop_count(&topo, &elp);
        let merged = greedy_minimize(&topo, &g);
        merged.verify().unwrap();
        assert!(merged.num_lossless_tags(&topo) <= g.num_lossless_tags(&topo));
    }

    #[test]
    fn one_bounce_clos_needs_at_most_three_tags() {
        // §5.3/Fig 6: the greedy algorithm is suboptimal on Clos 1-bounce
        // ELPs — it may use 3 tags where the optimal uses 2, but never
        // more.
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces(&topo, 1);
        let merged = minimize_elp(&topo, &elp);
        merged.verify().unwrap();
        let tags = merged.num_lossless_tags(&topo);
        assert!(
            (2..=3).contains(&tags),
            "expected 2-3 lossless tags, got {tags}"
        );
    }

    #[test]
    fn assignment_covers_every_node_monotonically() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 6);
        let g = tag_by_hop_count(&topo, &elp);
        let assignment = greedy_assignment(&topo, &g);
        assert_eq!(assignment.len(), g.num_nodes());
        for (a, b) in g.edges() {
            assert!(assignment[a] <= assignment[b], "{a:?} -> {b:?}");
        }
        // New tags never exceed old tags (merging only shrinks).
        for (n, t) in &assignment {
            assert!(*t <= n.tag);
        }
    }

    #[test]
    fn cyclic_single_tag_would_be_split() {
        // Build a 4-switch ring ELP whose segments, all in one tag, would
        // form a CBD; the greedy algorithm must use more than one tag.
        use tagger_topo::{Layer, Topology};
        let mut topo = Topology::new();
        let hs: Vec<_> = (0..4).map(|i| topo.add_host(format!("H{i}"))).collect();
        let ss: Vec<_> = (0..4)
            .map(|i| topo.add_switch(format!("R{i}"), Layer::Flat))
            .collect();
        for i in 0..4 {
            topo.connect(ss[i], ss[(i + 1) % 4]);
        }
        for i in 0..4 {
            topo.connect(hs[i], ss[i]);
        }
        let mut paths = Vec::new();
        for i in 0..4 {
            let nodes = vec![
                hs[i],
                ss[i],
                ss[(i + 1) % 4],
                ss[(i + 2) % 4],
                hs[(i + 2) % 4],
            ];
            paths.push(Path::new(&topo, nodes).unwrap());
        }
        let elp = Elp::from_paths(paths);
        let g = tag_by_hop_count(&topo, &elp);
        g.verify().unwrap();
        let merged = greedy_minimize(&topo, &g);
        merged.verify().unwrap();
        // The ring dependencies force at least 2 tags.
        assert!(merged.num_lossless_tags(&topo) >= 2);
    }

    #[test]
    fn empty_graph_stays_empty() {
        let topo = ClosConfig::small().build();
        let merged = greedy_minimize(&topo, &TaggedGraph::new());
        assert!(merged.is_empty());
    }

    #[test]
    fn single_path_merges_to_one_tag() {
        let topo = ClosConfig::small().build();
        let p = Path::from_names(&topo, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let elp = Elp::from_paths(vec![p]);
        let merged = minimize_elp(&topo, &elp);
        assert_eq!(merged.num_lossless_tags(&topo), 1);
    }

    #[test]
    fn deterministic_output() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 4);
        let a = minimize_elp(&topo, &elp);
        let b = minimize_elp(&topo, &elp);
        assert_eq!(a, b);
    }
}
