//! Generic cyclic-buffer-dependency (CBD) detection.
//!
//! CBD is the necessary condition for PFC deadlock (paper §2): ingress
//! buffers waiting on each other in a loop. Given a set of paths and the
//! priority each packet uses per hop, the buffer-dependency graph is
//! exactly a [`TaggedGraph`] whose "tags" are priorities — so detection
//! reuses [`TaggedGraph::verify`]. This module provides the assemblers,
//! chiefly to demonstrate the *absence* of Tagger: an ELP with bounce
//! paths mapped onto a single lossless priority has a CBD, which is the
//! deadlock the paper's Figures 3 and 10–12 exhibit.

use crate::{Tag, TaggedGraph, TaggedNode};
use tagger_routing::Path;
use tagger_topo::{NodeKind, Topology};

/// Builds the buffer-dependency graph for `paths` when every packet rides
/// a single lossless priority end-to-end — the vanilla RoCE deployment
/// without Tagger.
pub fn single_priority_dependencies(topo: &Topology, paths: &[Path]) -> TaggedGraph {
    let mut g = TaggedGraph::new();
    for path in paths {
        let mut last: Option<TaggedNode> = None;
        for ingress in path.ingress_ports(topo) {
            // Host buffers do not generate PFC back-pressure dependencies
            // in this model; skip final host ingress nodes.
            let node = TaggedNode {
                port: ingress,
                tag: Tag(1),
            };
            if topo.node(ingress.node).kind == NodeKind::Switch {
                g.add_node(node);
            }
            if let Some(prev) = last {
                if topo.node(ingress.node).kind == NodeKind::Switch {
                    g.add_edge(prev, node);
                }
            }
            last = (topo.node(ingress.node).kind == NodeKind::Switch).then_some(node);
        }
    }
    g
}

/// True if the path set, on one shared lossless priority, contains a
/// cyclic buffer dependency — i.e. PFC deadlock is possible.
pub fn has_cbd(topo: &Topology, paths: &[Path]) -> bool {
    single_priority_dependencies(topo, paths).verify().is_err()
}

/// Returns a witness CBD cycle (ingress-port sequence), if one exists.
pub fn find_cbd(topo: &Topology, paths: &[Path]) -> Option<Vec<TaggedNode>> {
    single_priority_dependencies(topo, paths).find_cycle_in_tag(Tag(1))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_routing::Path;
    use tagger_topo::ClosConfig;

    #[test]
    fn updown_paths_have_no_cbd() {
        // §3.2: up-down routing cannot create CBD.
        let topo = ClosConfig::small().build();
        let elp = crate::Elp::updown(&topo);
        assert!(!has_cbd(&topo, &elp.paths().collect::<Vec<_>>()));
    }

    #[test]
    fn figure3_bounce_paths_create_cbd() {
        // The paper's Figure 3: green flow bounces at L1, blue at L3;
        // together they close the cycle L1 -> S1 -> L3 -> S2 -> L1.
        let topo = ClosConfig::small().build();
        // Green descends via S2 into L1, bounces up to S1; blue descends
        // via S1 into L3, bounces up to S2 — closing
        // L1 -> S1 -> L3 -> S2 -> L1.
        let green = Path::from_names(
            &topo,
            &["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"],
        );
        let blue = Path::from_names(
            &topo,
            &["H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13"],
        );
        assert!(has_cbd(&topo, &[green.clone(), blue.clone()]));
        let cycle = find_cbd(&topo, &[green, blue]).unwrap();
        assert!(cycle.len() >= 4);
    }

    #[test]
    fn single_bounce_path_alone_has_no_cbd() {
        let topo = ClosConfig::small().build();
        let green = Path::from_names(
            &topo,
            &["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"],
        );
        assert!(!has_cbd(&topo, &[green]));
    }

    #[test]
    fn full_one_bounce_elp_has_cbd() {
        // The complete 1-bounce ELP on one priority is deadlock-prone —
        // the reason Tagger needs a second lossless priority.
        let topo = ClosConfig::small().build();
        let elp = crate::Elp::updown_with_bounces_capped(&topo, 1, 8);
        assert!(has_cbd(&topo, &elp.paths().collect::<Vec<_>>()));
    }

    #[test]
    fn witness_cycle_edges_exist() {
        let topo = ClosConfig::small().build();
        let elp = crate::Elp::updown_with_bounces_capped(&topo, 1, 8);
        let g = single_priority_dependencies(&topo, &elp.paths().collect::<Vec<_>>());
        let cycle = g.find_cycle_in_tag(Tag(1)).unwrap();
        for w in cycle.windows(2) {
            assert!(g.contains_edge(&(w[0], w[1])));
        }
    }
}
