//! Up-down (valley-free) path enumeration for layered fabrics.

use crate::Path;
use tagger_topo::{FailureSet, NodeId, NodeKind, Topology};

/// Enumerates all loop-free up-down paths between two hosts.
///
/// An up-down path climbs the layer hierarchy zero or more hops, then
/// descends to the destination, never turning up again (paper §3.2). The
/// enumeration is exhaustive over simple paths, so it includes non-minimal
/// up-down paths (e.g. ToR → Leaf → Spine → Leaf → ToR between ToRs that
/// share a leaf); pass the result through a length filter if only shortest
/// paths are wanted.
///
/// Returns paths in deterministic (DFS/port) order.
pub fn updown_paths_between(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
) -> Vec<Path> {
    crate::bounce::bounce_paths_between(topo, failures, src, dst, 0)
}

/// Enumerates all loop-free up-down paths between every ordered pair of
/// distinct hosts — the default ELP for a Clos fabric ("all up-down
/// paths", paper §4.1).
///
/// Cost grows with fabric size and path diversity; intended for the small
/// and medium fabrics used in tests and experiments.
pub fn updown_paths(topo: &Topology, failures: &FailureSet) -> Vec<Path> {
    crate::bounce::all_paths_with_bounces(topo, failures, 0, usize::MAX)
}

/// Enumerates up-down paths between all ordered pairs of *switches* of the
/// given layer-rank floor — useful when the ELP is expressed ToR-to-ToR
/// rather than host-to-host.
pub fn updown_paths_between_switches(topo: &Topology, failures: &FailureSet) -> Vec<Path> {
    let tors: Vec<NodeId> = topo
        .switch_ids()
        .filter(|&s| topo.node(s).kind == NodeKind::Switch)
        .filter(|&s| {
            // ToR = a switch that has at least one host attached.
            topo.neighbors(s)
                .any(|(_, _, n)| topo.node(n).kind == NodeKind::Host)
        })
        .collect();
    let mut out = Vec::new();
    for &s in &tors {
        for &d in &tors {
            if s != d {
                out.extend(crate::bounce::bounce_paths_between(topo, failures, s, d, 0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn same_pod_paths() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h5 = t.expect_node("H5"); // under T2, same pod
        let paths = updown_paths_between(&t, &f, h1, h5);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(p.is_updown(&t), "{}", p.display(&t));
            assert_eq!(p.src(), h1);
            assert_eq!(p.dst(), h5);
        }
        // Shortest same-pod paths go via L1 or L2 (4 hops); spine detours
        // (6 hops) are also valid up-down paths.
        let min = paths.iter().map(|p| p.hops()).min().unwrap();
        assert_eq!(min, 4);
        assert_eq!(paths.iter().filter(|p| p.hops() == 4).count(), 2);
    }

    #[test]
    fn cross_pod_paths_go_via_spine() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9"); // under T3, other pod
        let paths = updown_paths_between(&t, &f, h1, h9);
        let min = paths.iter().map(|p| p.hops()).min().unwrap();
        assert_eq!(min, 6); // H-T-L-S-L-T-H
                            // 2 leaves x 2 spines x 2 leaves = 8 shortest choices.
        assert_eq!(paths.iter().filter(|p| p.hops() == 6).count(), 8);
        for p in &paths {
            assert!(p.is_updown(&t));
        }
    }

    #[test]
    fn failures_remove_paths() {
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let before = updown_paths_between(&t, &f, h1, h9).len();
        f.fail_between(&t, "L1", "S1");
        let after = updown_paths_between(&t, &f, h1, h9).len();
        assert!(after < before);
        for p in updown_paths_between(&t, &f, h1, h9) {
            for (a, b) in p.hop_pairs() {
                assert!(f.link_up(&t, a, b));
            }
        }
    }

    #[test]
    fn all_pairs_enumeration_is_symmetric_in_count() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let all = updown_paths(&t, &f);
        assert!(!all.is_empty());
        // Directed pair counts match their reverses.
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let fwd = all
            .iter()
            .filter(|p| p.src() == h1 && p.dst() == h9)
            .count();
        let rev = all
            .iter()
            .filter(|p| p.src() == h9 && p.dst() == h1)
            .count();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn tor_to_tor_enumeration() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let paths = updown_paths_between_switches(&t, &f);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(p.is_updown(&t));
            // Endpoints are ToRs (have attached hosts).
            for end in [p.src(), p.dst()] {
                assert!(t
                    .neighbors(end)
                    .any(|(_, _, n)| t.node(n).kind == NodeKind::Host));
            }
        }
    }
}
