//! Property tests for the routing substrate.

use proptest::prelude::*;
use tagger_routing::{
    all_paths_with_bounces, bounce_paths_between, bounce_paths_between_capped,
    path_tree_with_bounces, shortest_paths_between, EcmpMode, Fib, Path, PathTree,
};
use tagger_topo::{clos2, ClosConfig, FailureSet, LinkId, NodeId, NodeKind, Topology};

fn small() -> tagger_topo::Topology {
    ClosConfig::small().build()
}

/// The k-bounce enumeration as it was before the per-source search: one
/// bounded DFS per `(src, dst)` pair, every found path validated by
/// `Path::new`. Kept as the reference the fused search must reproduce
/// path for path.
fn reference_bounce_paths(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
    cap: usize,
) -> Vec<Path> {
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        topo: &Topology,
        failures: &FailureSet,
        dst: NodeId,
        max_bounces: usize,
        cap: usize,
        going_down: bool,
        bounces: usize,
        stack: &mut Vec<NodeId>,
        visited: &mut [bool],
        out: &mut Vec<Path>,
    ) {
        let here = *stack.last().unwrap();
        for (_, _, next) in failures.live_neighbors(topo, here) {
            if out.len() >= cap {
                return;
            }
            if visited[next.index()] {
                continue;
            }
            let (next_down, next_bounces) = if topo.is_up_hop(here, next) {
                if going_down && bounces + 1 > max_bounces {
                    continue;
                }
                (false, bounces + usize::from(going_down))
            } else if topo.is_down_hop(here, next) {
                (true, bounces)
            } else {
                continue;
            };
            if next == dst {
                stack.push(next);
                out.push(Path::new(topo, stack.clone()).unwrap());
                stack.pop();
                continue;
            }
            if topo.node(next).kind != NodeKind::Switch {
                continue;
            }
            visited[next.index()] = true;
            stack.push(next);
            dfs(
                topo,
                failures,
                dst,
                max_bounces,
                cap,
                next_down,
                next_bounces,
                stack,
                visited,
                out,
            );
            stack.pop();
            visited[next.index()] = false;
        }
    }
    let mut out = Vec::new();
    if src == dst || cap == 0 {
        return out;
    }
    let mut visited = vec![false; topo.num_nodes()];
    visited[src.index()] = true;
    dfs(
        topo,
        failures,
        dst,
        max_bounces,
        cap,
        false,
        0,
        &mut vec![src],
        &mut visited,
        &mut out,
    );
    out
}

/// A small 2- or 3-layer Clos: bounce enumeration grows combinatorially,
/// and the reference walks the fabric once per host pair.
fn arb_clos() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..5, 1usize..4, 1usize..3)
            .prop_map(|(tors, spines, hosts)| clos2(tors, spines, hosts)),
        (1usize..3, 1usize..3, 1usize..4, 1usize..3, 1usize..3).prop_map(
            |(pods, leaves_per_pod, tors_per_pod, spines, hosts_per_tor)| ClosConfig {
                pods,
                leaves_per_pod,
                tors_per_pod,
                spines,
                hosts_per_tor,
            }
            .build()
        ),
    ]
}

/// Fails each link whose draw (its index modulo the number of draws) is
/// zero: about one link in eight.
fn failures_from(topo: &Topology, draws: &[u8]) -> FailureSet {
    let mut f = FailureSet::none();
    for link in topo.link_ids() {
        if draws[link.index() % draws.len()] == 0 {
            f.fail(link);
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One search per source gives exactly what one search per pair gave:
    /// the same paths in the same order, capped per pair at the same
    /// point — and everything it emits without re-validation is a valid
    /// path over live links.
    #[test]
    fn per_source_search_equals_per_pair_reference(
        topo in arb_clos(),
        draws in proptest::collection::vec(0u8..8, 64..65),
        bounces in 0usize..3,
        cap in prop_oneof![Just(0usize), Just(1), Just(3), Just(usize::MAX)],
        pick in any::<u64>(),
    ) {
        let failures = failures_from(&topo, &draws);
        let hosts: Vec<NodeId> = topo.host_ids().collect();
        let mut reference = Vec::new();
        for &s in &hosts {
            for &d in &hosts {
                reference.extend(reference_bounce_paths(&topo, &failures, s, d, bounces, cap));
            }
        }
        let fused = all_paths_with_bounces(&topo, &failures, bounces, cap);
        prop_assert_eq!(&fused, &reference);
        // The search fills a tree bucket by bucket without building a
        // `Path`: it is the tree pushing the list path by path builds.
        let tree = path_tree_with_bounces(&topo, &failures, bounces, cap);
        prop_assert_eq!(&tree, &reference.iter().collect::<PathTree>());
        prop_assert!(tree.paths().eq(reference.iter().cloned()));
        for p in &fused {
            let checked = Path::new_with_failures(&topo, &failures, p.nodes().to_vec());
            prop_assert_eq!(checked.as_ref(), Ok(p));
        }
        // The single-destination wrapper runs the same search, towards
        // any node: a switch destination ends paths, a host never relays.
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let src = nodes[(pick % nodes.len() as u64) as usize];
        let dst = nodes[((pick >> 32) % nodes.len() as u64) as usize];
        prop_assert_eq!(
            bounce_paths_between_capped(&topo, &failures, src, dst, bounces, cap),
            reference_bounce_paths(&topo, &failures, src, dst, bounces, cap)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A second link between two switches changes which ports a hop can
    /// use, not which node sequences are paths: nothing is emitted twice,
    /// whichever of the two is down, and every emitted path is valid
    /// under the failure set it was enumerated with.
    #[test]
    fn parallel_trunks_do_not_multiply_paths(
        topo in arb_clos(),
        draws in proptest::collection::vec(0u8..8, 64..65),
        bounces in 0usize..3,
        pick in any::<u64>(),
    ) {
        let mut topo = topo;
        let trunks: Vec<LinkId> = topo
            .link_ids()
            .filter(|&l| {
                let link = topo.link(l);
                [link.a.node, link.b.node]
                    .iter()
                    .all(|&n| topo.node(n).kind == NodeKind::Switch)
            })
            .collect();
        let doubled = topo.link(trunks[(pick % trunks.len() as u64) as usize]).clone();
        let twin = topo.connect(doubled.a.node, doubled.b.node);
        let failures = failures_from(&topo, &draws);
        let paths = all_paths_with_bounces(&topo, &failures, bounces, usize::MAX);
        let mut distinct = paths.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), paths.len());
        for p in &paths {
            let checked = Path::new_with_failures(&topo, &failures, p.nodes().to_vec());
            prop_assert_eq!(checked.as_ref(), Ok(p));
        }
        // The doubled hop is usable exactly while one of its links is.
        let first = topo.link_between(doubled.a.node, doubled.b.node).unwrap();
        let hop_up = !failures.is_failed(first) || !failures.is_failed(twin);
        prop_assert_eq!(failures.link_up(&topo, doubled.a.node, doubled.b.node), hop_up);
        let crosses = |p: &Path| {
            p.hop_pairs().any(|(a, b)| {
                [(a, b), (b, a)].contains(&(doubled.a.node, doubled.b.node))
            })
        };
        prop_assert!(hop_up || !paths.iter().any(crosses));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bounce enumeration is monotone in k and each path respects its
    /// budget.
    #[test]
    fn bounce_sets_are_monotone(pair in 0usize..240, k in 0usize..3) {
        let topo = small();
        let hosts: Vec<_> = topo.host_ids().collect();
        let a = hosts[pair % hosts.len()];
        let b = hosts[(pair / hosts.len() + 1 + pair) % hosts.len()];
        prop_assume!(a != b);
        let f = FailureSet::none();
        let lo = bounce_paths_between(&topo, &f, a, b, k);
        let hi = bounce_paths_between(&topo, &f, a, b, k + 1);
        prop_assert!(hi.len() >= lo.len());
        for p in &lo {
            prop_assert!(hi.contains(p));
            prop_assert!(p.bounces(&topo) <= k);
        }
    }

    /// Shortest paths are truly minimal: no enumerated bounce path
    /// between the same endpoints is shorter.
    #[test]
    fn shortest_is_minimal(pair in 0usize..240) {
        let topo = small();
        let hosts: Vec<_> = topo.host_ids().collect();
        let a = hosts[pair % hosts.len()];
        let b = hosts[(pair * 7 + 3) % hosts.len()];
        prop_assume!(a != b);
        let f = FailureSet::none();
        let sp = shortest_paths_between(&topo, &f, a, b, usize::MAX);
        prop_assume!(!sp.is_empty());
        let min = sp[0].hops();
        for p in bounce_paths_between_capped(&topo, &f, a, b, 2, 50) {
            prop_assert!(p.hops() >= min);
        }
    }

    /// The FIB delivers every host pair on the healthy fabric, under
    /// both ECMP modes, and the realized route is a valid loop-free path.
    #[test]
    fn fib_delivers_all_pairs(hash in 0u64..64) {
        let topo = small();
        let fib = Fib::shortest_path(&topo, &FailureSet::none());
        let hosts: Vec<_> = topo.host_ids().collect();
        let a = hosts[(hash as usize) % hosts.len()];
        let b = hosts[(hash as usize * 5 + 2) % hosts.len()];
        prop_assume!(a != b);
        for mode in [EcmpMode::First, EcmpMode::FlowHash] {
            // trace uses First; emulate FlowHash by walking manually.
            let mut here = topo.attached_switch(a).unwrap();
            let mut visited = vec![a, here];
            let mut ok = false;
            for _ in 0..12 {
                let Some(port) = fib.select(here, b, hash, mode) else { break };
                let peer = topo
                    .peer_of(tagger_topo::GlobalPort::new(here, port))
                    .unwrap();
                prop_assert!(!visited.contains(&peer.node), "loop via {:?}", peer.node);
                visited.push(peer.node);
                if peer.node == b {
                    ok = true;
                    break;
                }
                here = peer.node;
            }
            prop_assert!(ok, "undelivered {a} -> {b} mode {mode:?}");
        }
    }

    /// ECMP hashing always returns one of the installed next-hop ports.
    #[test]
    fn select_returns_installed_ports(hash in any::<u64>()) {
        let topo = small();
        let fib = Fib::shortest_path(&topo, &FailureSet::none());
        let t1 = topo.expect_node("T1");
        let h9 = topo.expect_node("H9");
        let ports = fib.next_ports(t1, h9);
        let chosen = fib.select(t1, h9, hash, EcmpMode::FlowHash).unwrap();
        prop_assert!(ports.contains(&chosen));
    }
}
