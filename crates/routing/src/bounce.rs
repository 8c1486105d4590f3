//! k-bounce path enumeration: the ELP expansion of paper §4.3.
//!
//! A *bounce* is a down→up turn in the layer hierarchy — the signature of
//! a packet rerouted around a failed downlink. The operator who wants
//! traffic to survive up to `k` such reroutes losslessly includes all
//! `≤ k`-bounce paths in the ELP; Tagger then needs `k + 1` lossless
//! priorities on Clos (paper §4.4).

use crate::{Path, PathTree};
use tagger_topo::{FailureSet, NodeId, NodeKind, Topology};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Up,
    Down,
}

/// Enumerates all loop-free paths from `src` to `dst` with at most
/// `max_bounces` down→up turns. `max_bounces = 0` yields exactly the
/// up-down (valley-free) paths.
///
/// Lateral hops (between equal-rank or unranked nodes) are excluded:
/// bounce semantics are only defined on layered fabrics. Intermediate
/// nodes must be switches. A path is a node sequence: parallel links
/// between two nodes do not multiply it. Results come in deterministic
/// DFS order.
pub fn bounce_paths_between(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
) -> Vec<Path> {
    bounce_paths_between_capped(topo, failures, src, dst, max_bounces, usize::MAX)
}

/// Like [`bounce_paths_between`] but stops after `cap` paths — useful on
/// larger fabrics where the k-bounce path count explodes combinatorially.
pub fn bounce_paths_between_capped(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
    cap: usize,
) -> Vec<Path> {
    let mut search = Search::new(topo, failures, max_bounces, cap, &[dst]);
    let mut tree = PathTree::default();
    search.run_from(src, &mut tree);
    tree.paths().collect()
}

/// Enumerates `≤ max_bounces`-bounce paths between every ordered pair of
/// distinct hosts, capping at `cap_per_pair` paths per pair
/// (`usize::MAX` for no cap), straight into a [`PathTree`].
///
/// Hosts never forward, so the search tree below a source host is the
/// same whichever host is the destination: one search per source finds
/// the paths to every destination, and the sequence is `(s, d0)` paths,
/// `(s, d1)` paths, … in host order, each pair's in DFS order. Only one
/// source's paths exist outside the tree at a time.
pub fn path_tree_with_bounces(
    topo: &Topology,
    failures: &FailureSet,
    max_bounces: usize,
    cap_per_pair: usize,
) -> PathTree {
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    let mut search = Search::new(topo, failures, max_bounces, cap_per_pair, &hosts);
    let mut tree = PathTree::default();
    for &s in &hosts {
        search.run_from(s, &mut tree);
    }
    tree
}

/// The sequence [`path_tree_with_bounces`] stores, as a list.
pub fn all_paths_with_bounces(
    topo: &Topology,
    failures: &FailureSet,
    max_bounces: usize,
    cap_per_pair: usize,
) -> Vec<Path> {
    path_tree_with_bounces(topo, failures, max_bounces, cap_per_pair)
        .paths()
        .collect()
}

/// The paths that arrived at one destination during one search, their
/// nodes end to end.
#[derive(Clone, Default)]
struct Bucket {
    nodes: Vec<NodeId>,
    /// Per path: where its nodes end in `nodes`.
    ends: Vec<usize>,
}

/// The bounded DFS behind every enumeration in this module: from one
/// source, collecting the paths that arrive at each destination node into
/// that destination's bucket.
struct Search<'a> {
    topo: &'a Topology,
    failures: &'a FailureSet,
    max_bounces: usize,
    /// A bucket holding this many paths is closed.
    cap: usize,
    /// Per node: the distinct nodes its live links lead to, in the order
    /// of the lowest-numbered live port to each, with the phase a hop
    /// there is in. Lateral hops are not part of up-down routing and are
    /// left out.
    next_hops: Vec<Vec<(NodeId, Phase)>>,
    /// Per node: the bucket its arrivals go to, if it is a destination.
    bucket_of: Vec<Option<usize>>,
    buckets: Vec<Bucket>,
    /// Buckets that can still take a path; the search ends at zero.
    open: usize,
    stack: Vec<NodeId>,
    visited: Vec<bool>,
}

impl<'a> Search<'a> {
    /// A search towards the distinct nodes `dests`, bucket `i` taking the
    /// arrivals at `dests[i]`.
    fn new(
        topo: &'a Topology,
        failures: &'a FailureSet,
        max_bounces: usize,
        cap: usize,
        dests: &[NodeId],
    ) -> Self {
        let mut bucket_of = vec![None; topo.num_nodes()];
        for (i, d) in dests.iter().enumerate() {
            bucket_of[d.index()] = Some(i);
        }
        let next_hops = topo
            .node_ids()
            .map(|here| {
                let mut hops: Vec<(NodeId, Phase)> = Vec::new();
                for (_, _, next) in failures.live_neighbors(topo, here) {
                    let phase = if topo.is_up_hop(here, next) {
                        Phase::Up
                    } else if topo.is_down_hop(here, next) {
                        Phase::Down
                    } else {
                        continue;
                    };
                    if !hops.iter().any(|&(n, _)| n == next) {
                        hops.push((next, phase));
                    }
                }
                hops
            })
            .collect();
        Search {
            topo,
            failures,
            max_bounces,
            cap,
            next_hops,
            bucket_of,
            buckets: vec![Bucket::default(); dests.len()],
            open: 0,
            stack: Vec::new(),
            visited: vec![false; topo.num_nodes()],
        }
    }

    /// Appends the paths from `src` to `tree`, bucket by bucket. `src`
    /// itself is on the stack throughout, so its own bucket, if it has
    /// one, stays empty and is not waited for.
    fn run_from(&mut self, src: NodeId, tree: &mut PathTree) {
        let own = usize::from(self.bucket_of[src.index()].is_some());
        self.open = if self.cap == 0 {
            0
        } else {
            self.buckets.len() - own
        };
        self.visited[src.index()] = true;
        self.stack.push(src);
        self.dfs(Phase::Up, 0);
        self.stack.pop();
        self.visited[src.index()] = false;
        for bucket in &mut self.buckets {
            let mut start = 0;
            for &end in &bucket.ends {
                let nodes = &bucket.nodes[start..end];
                debug_assert!(
                    Path::new_with_failures(self.topo, self.failures, nodes.to_vec()).is_ok(),
                    "enumerated path {nodes:?} is not a valid path"
                );
                tree.push_nodes(nodes);
                start = end;
            }
            bucket.nodes.clear();
            bucket.ends.clear();
        }
    }

    fn dfs(&mut self, phase: Phase, bounces: usize) {
        let here = *self.stack.last().expect("DFS stack starts with the source");
        for at in 0..self.next_hops[here.index()].len() {
            if self.open == 0 {
                return;
            }
            let (next, next_phase) = self.next_hops[here.index()][at];
            if self.visited[next.index()] {
                continue;
            }
            // A down→up turn is a bounce.
            let next_bounces =
                bounces + usize::from((phase, next_phase) == (Phase::Down, Phase::Up));
            if next_bounces > self.max_bounces {
                continue;
            }
            if let Some(b) = self.bucket_of[next.index()] {
                let bucket = &mut self.buckets[b];
                if bucket.ends.len() < self.cap {
                    bucket.nodes.extend_from_slice(&self.stack);
                    bucket.nodes.push(next);
                    bucket.ends.push(bucket.nodes.len());
                    if bucket.ends.len() == self.cap {
                        self.open -= 1;
                    }
                }
                continue;
            }
            // Only switches forward traffic.
            if self.topo.node(next).kind != NodeKind::Switch {
                continue;
            }
            self.visited[next.index()] = true;
            self.stack.push(next);
            self.dfs(next_phase, next_bounces);
            self.stack.pop();
            self.visited[next.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn zero_bounce_equals_updown() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        for p in bounce_paths_between(&t, &f, h1, h9, 0) {
            assert_eq!(p.bounces(&t), 0);
        }
    }

    #[test]
    fn one_bounce_superset_of_updown() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let zero = bounce_paths_between(&t, &f, h1, h9, 0);
        let one = bounce_paths_between(&t, &f, h1, h9, 1);
        assert!(one.len() > zero.len());
        for p in &zero {
            assert!(one.contains(p), "up-down path missing from 1-bounce set");
        }
        for p in &one {
            assert!(p.bounces(&t) <= 1, "{}", p.display(&t));
        }
        assert!(one.iter().any(|p| p.bounces(&t) == 1));
    }

    #[test]
    fn bounce_budget_is_respected() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h13 = t.expect_node("H13");
        for k in 0..3 {
            for p in bounce_paths_between(&t, &f, h1, h13, k) {
                assert!(p.bounces(&t) <= k);
            }
        }
    }

    #[test]
    fn cap_truncates_deterministically() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let full = bounce_paths_between(&t, &f, h1, h9, 1);
        let capped = bounce_paths_between_capped(&t, &f, h1, h9, 1, 3);
        assert_eq!(capped.len(), 3);
        assert_eq!(&full[..3], &capped[..]);
    }

    #[test]
    fn reroute_after_failure_needs_a_bounce() {
        // Fig 3: with L1-T1 down, traffic arriving at L1 for T1 must bounce.
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&t, "L1", "T1");
        let h9 = t.expect_node("H9");
        let h1 = t.expect_node("H1");
        // Up-down paths still exist (via L2), but any path through L1 then
        // to T1 must bounce.
        let one = bounce_paths_between(&t, &f, h9, h1, 1);
        let l1 = t.expect_node("L1");
        let via_l1: Vec<_> = one.iter().filter(|p| p.nodes().contains(&l1)).collect();
        assert!(!via_l1.is_empty());
        for p in via_l1 {
            assert_eq!(p.bounces(&t), 1, "{}", p.display(&t));
        }
    }

    #[test]
    fn parallel_links_neither_multiply_paths_nor_hide_the_live_one() {
        let mut t = ClosConfig::small().build();
        let (t1, l1) = (t.expect_node("T1"), t.expect_node("L1"));
        let (h1, h5) = (t.expect_node("H1"), t.expect_node("H5"));
        let healthy = bounce_paths_between(&t, &FailureSet::none(), h1, h5, 1);
        let first = t.link_between(t1, l1).unwrap();
        t.connect(t1, l1);
        // A path is a node sequence: the second trunk adds none.
        assert_eq!(
            bounce_paths_between(&t, &FailureSet::none(), h1, h5, 1),
            healthy
        );
        assert_eq!(
            all_paths_with_bounces(&t, &FailureSet::none(), 1, usize::MAX).len(),
            all_paths_with_bounces(
                &ClosConfig::small().build(),
                &FailureSet::none(),
                1,
                usize::MAX
            )
            .len()
        );
        // With the lower-numbered trunk down the hop is still there, and
        // what the search finds is valid under the same failure set.
        let mut f = FailureSet::none();
        f.fail(first);
        // (L1 now comes after L2 in T1's port order, and so in the DFS.)
        let mut degraded = bounce_paths_between(&t, &f, h1, h5, 1);
        degraded.sort();
        let mut expected = healthy;
        expected.sort();
        assert_eq!(degraded, expected);
        for p in &degraded {
            assert_eq!(
                Path::new_with_failures(&t, &f, p.nodes().to_vec()).as_ref(),
                Ok(p)
            );
        }
    }

    #[test]
    fn same_src_dst_yields_nothing() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        assert!(bounce_paths_between(&t, &f, h1, h1, 3).is_empty());
    }

    #[test]
    fn all_pairs_capped_counts() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let all = all_paths_with_bounces(&t, &f, 0, 2);
        // 16 hosts, 240 ordered pairs, each capped at 2 paths.
        assert!(all.len() <= 240 * 2);
        assert!(!all.is_empty());
    }
}
