//! The acyclicity kernel against a reference that shares no code with
//! it: a boolean transitive closure computed by repeated squaring of
//! the adjacency matrix. Everything the kernel answers — reachability,
//! "is there a cycle", "is there a topological order", "which nodes lie
//! on a cycle" — is a statement about that closure.

use proptest::prelude::*;
use tagger_core::digraph::Digraph;

const MAX_NODES: usize = 12;

/// `(n, edges)` with every endpoint below `n`; duplicates and
/// self-loops included.
fn arb_digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..MAX_NODES + 1).prop_flat_map(|n| {
        let node = 0u32..n as u32;
        (
            Just(n),
            proptest::collection::vec((node.clone(), node), 0..3 * n),
        )
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> Digraph {
    let mut g = Digraph::new(n);
    for &(u, v) in edges {
        g.add(u, v);
    }
    g
}

/// `closure[u][v]`: a walk of one or more edges leads from `u` to `v`.
fn closure(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
    let mut c = vec![vec![false; n]; n];
    for &(u, v) in edges {
        c[u as usize][v as usize] = true;
    }
    // Each round doubles the walk length covered; 2^4 >= MAX_NODES.
    for _ in 0..4 {
        let prev = c.clone();
        for u in 0..n {
            for v in 0..n {
                c[u][v] = prev[u][v] || (0..n).any(|w| prev[u][w] && prev[w][v]);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_agrees_with_the_transitive_closure(case in arb_digraph()) {
        let (n, edges) = case;
        let mut g = build(n, &edges);
        let c = closure(n, &edges);
        let on_cycle: Vec<u32> = (0..n as u32).filter(|&v| c[v as usize][v as usize]).collect();

        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(g.reaches(u, v), c[u as usize][v as usize], "reaches({}, {})", u, v);
                prop_assert_eq!(g.has_edge(u, v), edges.contains(&(u, v)));
            }
        }
        prop_assert_eq!(g.cyclic_members(), on_cycle.clone());

        match g.find_cycle() {
            Some(cycle) => {
                prop_assert!(!on_cycle.is_empty(), "cycle {:?} in an acyclic graph", cycle);
                prop_assert!(!cycle.is_empty());
                for (i, &u) in cycle.iter().enumerate() {
                    let v = cycle[(i + 1) % cycle.len()];
                    prop_assert!(edges.contains(&(u, v)), "{} -> {} is not an edge", u, v);
                }
                let mut distinct = cycle.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), cycle.len(), "cycle repeats a node");
            }
            None => prop_assert!(on_cycle.is_empty(), "missed a cycle through {:?}", on_cycle),
        }

        match g.topo_order() {
            Ok(order) => {
                prop_assert!(on_cycle.is_empty(), "ordered a cyclic graph");
                let mut position = vec![usize::MAX; n];
                for (i, &v) in order.iter().enumerate() {
                    position[v as usize] = i;
                }
                prop_assert!(position.iter().all(|&p| p != usize::MAX), "order misses a node");
                prop_assert_eq!(order.len(), n);
                for &(u, v) in &edges {
                    prop_assert!(position[u as usize] < position[v as usize]);
                }
            }
            Err(_) => prop_assert!(!on_cycle.is_empty(), "refused to order an acyclic graph"),
        }
    }

    /// Any interleaving of `add` and per-node LIFO `pop_edge` leaves the
    /// graph a from-scratch build of the surviving edges would give, and
    /// `clear` leaves the empty graph.
    #[test]
    fn add_and_pop_scripts_equal_a_rebuild(
        n in 1usize..MAX_NODES + 1,
        script in proptest::collection::vec((any::<bool>(), 0u32..MAX_NODES as u32, 0u32..MAX_NODES as u32), 0..60),
    ) {
        let mut g = Digraph::new(n);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (push, u, v) in script {
            let (u, v) = (u % n as u32, v % n as u32);
            if push {
                g.add(u, v);
                model[u as usize].push(v);
            } else {
                g.pop_edge(u);
                model[u as usize].pop();
            }
            // Interleave guard calls: their scratch state must not leak.
            g.reaches(u, v);
        }
        let mut rebuilt = Digraph::new(n);
        for (u, targets) in model.iter().enumerate() {
            for &v in targets {
                rebuilt.add(u as u32, v);
            }
        }
        prop_assert_eq!(&g, &rebuilt);
        prop_assert_eq!(g.find_cycle(), rebuilt.find_cycle());
        prop_assert_eq!(g.topo_order(), rebuilt.topo_order());
        g.clear();
        prop_assert_eq!(g, Digraph::new(n));
    }
}
