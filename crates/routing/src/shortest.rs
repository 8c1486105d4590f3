//! BFS shortest-path computation and enumeration, plus the random walks
//! Table 5 adds to a shortest-path ELP.
//!
//! Used for unstructured fabrics (Jellyfish, paper Table 5) where up-down
//! routing does not exist, and for post-failure reroute computation on any
//! fabric.

use crate::Path;
use std::collections::VecDeque;
use tagger_topo::{FailureSet, NodeId, NodeKind, Topology};

/// Single-source shortest-path state: distances and the shortest-path DAG
/// (all predecessors on some shortest path).
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Source of the BFS.
    pub src: NodeId,
    /// `dist[n]` = hop distance from `src` to node `n`; `u32::MAX` if
    /// unreachable.
    pub dist: Vec<u32>,
    /// `preds[n]` = all predecessors of `n` on shortest paths from `src`,
    /// in deterministic (BFS/port) order.
    pub preds: Vec<Vec<NodeId>>,
}

impl ShortestPaths {
    /// Hop distance to `n`, or `None` if unreachable.
    pub fn distance(&self, n: NodeId) -> Option<u32> {
        let d = self.dist[n.index()];
        (d != u32::MAX).then_some(d)
    }
}

/// Runs BFS from `src` over live links. Hosts do not forward: BFS never
/// expands *through* a host (other than the source itself), matching real
/// networks where servers are not transit nodes.
pub fn shortest_path_dag(topo: &Topology, failures: &FailureSet, src: NodeId) -> ShortestPaths {
    let n = topo.num_nodes();
    let mut dist = vec![u32::MAX; n];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    dist[src.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        // Only the source may be a host; hosts do not forward.
        if u != src && topo.node(u).kind == NodeKind::Host {
            continue;
        }
        let du = dist[u.index()];
        for (_, _, v) in failures.live_neighbors(topo, u) {
            let dv = &mut dist[v.index()];
            if *dv == u32::MAX {
                *dv = du + 1;
                preds[v.index()].push(u);
                queue.push_back(v);
            } else if *dv == du + 1 {
                preds[v.index()].push(u);
            }
        }
    }
    ShortestPaths { src, dist, preds }
}

/// Enumerates up to `cap` shortest paths from `src` to `dst`, in
/// deterministic order. Returns an empty vector if `dst` is unreachable.
pub fn shortest_paths_between(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    cap: usize,
) -> Vec<Path> {
    let sp = shortest_path_dag(topo, failures, src);
    enumerate_from_dag(topo, &sp, dst, cap)
}

/// Enumerates up to `cap` shortest paths to `dst` from a precomputed
/// shortest-path DAG. Useful when many destinations share one source.
pub fn enumerate_from_dag(
    topo: &Topology,
    sp: &ShortestPaths,
    dst: NodeId,
    cap: usize,
) -> Vec<Path> {
    let mut out = Vec::new();
    if sp.distance(dst).is_none() || dst == sp.src || cap == 0 {
        return out;
    }
    // Walk predecessors from dst back to src, emitting paths in DFS order.
    let mut rev = vec![dst];
    walk(topo, sp, dst, cap, &mut rev, &mut out);
    out
}

fn walk(
    topo: &Topology,
    sp: &ShortestPaths,
    node: NodeId,
    cap: usize,
    rev: &mut Vec<NodeId>,
    out: &mut Vec<Path>,
) {
    if out.len() >= cap {
        return;
    }
    if node == sp.src {
        let nodes: Vec<NodeId> = rev.iter().rev().copied().collect();
        out.push(Path::new(topo, nodes).expect("BFS DAG paths are simple"));
        return;
    }
    for &p in &sp.preds[node.index()] {
        if out.len() >= cap {
            return;
        }
        rev.push(p);
        walk(topo, sp, p, cap, rev, out);
        rev.pop();
    }
}

/// Enumerates up to `cap_per_pair` shortest paths for every ordered pair
/// of distinct *hosts* (if `between_hosts`) or *switches* (otherwise) —
/// the shortest-path ELP used for Jellyfish fabrics.
pub fn shortest_paths_all_pairs(
    topo: &Topology,
    failures: &FailureSet,
    cap_per_pair: usize,
    between_hosts: bool,
) -> Vec<Path> {
    let endpoints: Vec<NodeId> = if between_hosts {
        topo.host_ids().collect()
    } else {
        topo.switch_ids().collect()
    };
    let mut out = Vec::new();
    for &s in &endpoints {
        let sp = shortest_path_dag(topo, failures, s);
        for &d in &endpoints {
            if s != d {
                out.extend(enumerate_from_dag(topo, &sp, d, cap_per_pair));
            }
        }
    }
    out
}

/// `count` seeded random loop-free switch-to-switch walks of 2 to 6
/// switches — the Table 5 footnote's "additional 1000 random paths", the
/// operator-chosen redundant routes added to a shortest-path ELP.
pub fn random_paths(topo: &Topology, count: usize, seed: u64) -> Vec<Path> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let switches: Vec<_> = topo.switch_ids().collect();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 100 {
        guard += 1;
        let start = switches[rng.random_range(0..switches.len())];
        let mut nodes = vec![start];
        for _ in 0..rng.random_range(2..6usize) {
            let here = *nodes.last().expect("walk starts non-empty");
            let candidates: Vec<_> = topo
                .neighbors(here)
                .map(|(_, _, n)| n)
                .filter(|n| topo.node(*n).kind == NodeKind::Switch && !nodes.contains(n))
                .collect();
            if candidates.is_empty() {
                break;
            }
            nodes.push(candidates[rng.random_range(0..candidates.len())]);
        }
        if nodes.len() >= 2 {
            if let Ok(p) = Path::new(topo, nodes) {
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::{ClosConfig, JellyfishConfig};

    #[test]
    fn clos_distances_match_structure() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let sp = shortest_path_dag(&t, &f, t.expect_node("H1"));
        assert_eq!(sp.distance(t.expect_node("T1")), Some(1));
        assert_eq!(sp.distance(t.expect_node("L1")), Some(2));
        assert_eq!(sp.distance(t.expect_node("S1")), Some(3));
        assert_eq!(sp.distance(t.expect_node("H9")), Some(6));
        assert_eq!(sp.distance(t.expect_node("H2")), Some(2));
    }

    #[test]
    fn hosts_do_not_forward() {
        // H1 and H2 share T1; distance H1->H2 is 2, and no path may pass
        // through a third host.
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let paths =
            shortest_paths_between(&t, &f, t.expect_node("H1"), t.expect_node("H2"), usize::MAX);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 2);
    }

    #[test]
    fn ecmp_count_cross_pod() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let paths =
            shortest_paths_between(&t, &f, t.expect_node("H1"), t.expect_node("H9"), usize::MAX);
        // 2 leaves x 2 spines x 2 leaves = 8 equal-cost 6-hop paths.
        assert_eq!(paths.len(), 8);
        for p in &paths {
            assert_eq!(p.hops(), 6);
        }
    }

    #[test]
    fn failure_lengthens_shortest_path() {
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        // Cut T1's uplink to L1; H1->H9 still 6 hops via L2. Cut both
        // uplinks? Then T1 is isolated from the fabric.
        f.fail_between(&t, "T1", "L1");
        let paths =
            shortest_paths_between(&t, &f, t.expect_node("H1"), t.expect_node("H9"), usize::MAX);
        assert_eq!(paths.len(), 4); // only via L2 now
        for p in &paths {
            assert_eq!(p.hops(), 6);
        }
    }

    #[test]
    fn reroute_can_violate_updown() {
        // Fail L3-T3 and L4-T3: H9 (under T3) becomes unreachable... so
        // instead fail L1-T1 and look at S1's route to H1: S1 -> L1 is now
        // a dead descent; shortest goes S1 -> L2 -> T1. From H9, paths
        // avoid L1 entirely and stay up-down. But from a vantage *at* L1,
        // the shortest path to H1 must bounce up through a spine.
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&t, "L1", "T1");
        let paths =
            shortest_paths_between(&t, &f, t.expect_node("L1"), t.expect_node("H1"), usize::MAX);
        assert!(!paths.is_empty());
        for p in &paths {
            // L1 -> S -> L2 -> T1 -> H1 or L1 -> T2 -> L2 -> T1 -> H1.
            assert_eq!(p.hops(), 4);
        }
        // At least one of them goes up through a spine (a bounce for
        // traffic that was descending through L1).
        assert!(paths
            .iter()
            .any(|p| p.nodes().contains(&t.expect_node("S1"))
                || p.nodes().contains(&t.expect_node("S2"))));
    }

    #[test]
    fn unreachable_returns_empty() {
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&t, "T1", "L1");
        f.fail_between(&t, "T1", "L2");
        let paths =
            shortest_paths_between(&t, &f, t.expect_node("H1"), t.expect_node("H9"), usize::MAX);
        assert!(paths.is_empty());
    }

    #[test]
    fn jellyfish_all_pairs_switches() {
        let t = JellyfishConfig::half_servers(10, 6, 5).build();
        let f = FailureSet::none();
        let paths = shortest_paths_all_pairs(&t, &f, 1, false);
        // One path per ordered switch pair (graph is connected).
        assert_eq!(paths.len(), 10 * 9);
    }

    #[test]
    fn random_paths_are_valid_and_deterministic() {
        let topo = JellyfishConfig::half_servers(15, 6, 9).build();
        let a = random_paths(&topo, 50, 1);
        let b = random_paths(&topo, 50, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn cap_limits_enumeration() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let paths = shortest_paths_between(&t, &f, t.expect_node("H1"), t.expect_node("H9"), 3);
        assert_eq!(paths.len(), 3);
    }
}
