//! Property tests tying the existence oracle to the Algorithm 1+2
//! construction it gatekeeps: whatever the construction achieves, the
//! oracle must certify (feasible within the construction's tag count,
//! with a witness that rechecks), and whenever the oracle proves
//! infeasibility exhaustively, the construction must indeed have needed
//! more tags. Kernel minimality is checked on seeded infeasible rings.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
use tagger_core::{decide, minimize_elp, Elp, Verdict};
use tagger_routing::{shortest_paths_all_pairs, Path};
use tagger_topo::{ClosConfig, FailureSet, JellyfishConfig, Layer, NodeId, Topology};

/// Tags the construction uses on `elp` (contiguous from 1, so the max
/// is the count), or `None` if the pipeline's certificate fails.
fn construction_tags(topo: &Topology, elp: &Elp) -> Option<usize> {
    let g = minimize_elp(topo, elp);
    g.verify().ok()?;
    Some(g.max_tag().map_or(0, |t| t.0 as usize))
}

/// Oracle ⟺ construction on one fabric/ELP pair: the shared body of
/// the Clos and Jellyfish properties below.
fn check_equivalence(topo: &Topology, elp: &Elp) -> Result<(), TestCaseError> {
    let Some(m) = construction_tags(topo, elp) else {
        // The pipeline failing to certify proves nothing either way.
        return Ok(());
    };
    // Construction succeeds within m ⟹ oracle must agree m is enough.
    match decide(topo, elp, Some(m.max(1))) {
        Verdict::Feasible(f) => {
            prop_assert!(f.lower_bound_tags <= f.tags_used);
            prop_assert!(
                f.tags_used <= m.max(1),
                "witness uses {} tags, construction managed {m}",
                f.tags_used
            );
            prop_assert_eq!(f.witness.num_tags(), f.tags_used);
            if let Err(e) = f.witness.recheck(topo, elp) {
                return Err(TestCaseError::Fail(format!("witness recheck: {e}")));
            }
            // The floor is real: the oracle must also certify at its
            // own claimed minimum.
            match decide(topo, elp, Some(f.lower_bound_tags.max(1))) {
                Verdict::Feasible(g) => {
                    if let Err(e) = g.witness.recheck(topo, elp) {
                        return Err(TestCaseError::Fail(format!("floor recheck: {e}")));
                    }
                }
                Verdict::Infeasible(i) => {
                    // A conservative verdict at the floor is allowed
                    // only when the oracle could not settle it exactly.
                    prop_assert!(
                        !i.exhaustive,
                        "floor {} claimed feasible but exhaustively refuted",
                        f.lower_bound_tags
                    );
                }
            }
        }
        Verdict::Infeasible(i) => {
            return Err(TestCaseError::Fail(format!(
                "construction fits in {m} tag(s) but oracle says: {}",
                Verdict::Infeasible(i).summary()
            )));
        }
    }
    // Exhaustive infeasibility below m ⟹ the construction really
    // cannot have fit (it used exactly m > b).
    if m >= 2 {
        let b = m - 1;
        if let Verdict::Infeasible(i) = decide(topo, elp, Some(b)) {
            if i.exhaustive {
                prop_assert!(
                    m > b,
                    "oracle exhaustively refutes {b} tag(s) yet construction used {m}"
                );
                prop_assert!(!i.kernel.is_empty());
            }
        }
    }
    Ok(())
}

/// A flat n-switch ring with one two-hop path per ring edge —
/// infeasible at one tag, and every path is load-bearing.
fn ring(n: usize) -> (Topology, Elp) {
    let mut t = Topology::new();
    let switches: Vec<_> = (1..=n)
        .map(|i| t.add_switch(format!("R{i}"), Layer::Flat))
        .collect();
    let hosts: Vec<_> = (1..=n).map(|i| t.add_host(format!("H{i}"))).collect();
    for i in 0..n {
        t.connect(switches[i], switches[(i + 1) % n]);
        t.connect(hosts[i], switches[i]);
    }
    let paths = (0..n)
        .map(|i| {
            Path::new(
                &t,
                vec![
                    hosts[i],
                    switches[i],
                    switches[(i + 1) % n],
                    switches[(i + 2) % n],
                    hosts[(i + 2) % n],
                ],
            )
            .expect("ring path")
        })
        .collect();
    (t, Elp::from_paths(paths))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clos fabrics of random dimensions with bounce ELPs: the oracle
    /// and the layered/greedy constructions must tell the same story.
    #[test]
    fn oracle_agrees_with_construction_on_clos(
        dims in (1usize..3, 1usize..3, 1usize..3, 1usize..4),
        k in 0usize..2,
    ) {
        let (pods, leaves, tors, spines) = dims;
        let topo = ClosConfig {
            pods,
            leaves_per_pod: leaves,
            tors_per_pod: tors,
            spines,
            hosts_per_tor: 2,
        }
        .build();
        let elp = Elp::updown_with_bounces_capped(&topo, k, 4);
        check_equivalence(&topo, &elp)?;
    }

    /// Random regular graphs (Jellyfish) with shortest-path ELPs — the
    /// unlayered case, where only the generic pipeline applies.
    #[test]
    fn oracle_agrees_with_construction_on_jellyfish(
        switches in 6usize..12,
        ports in 4usize..8,
        seed in 0u64..1000,
    ) {
        let topo = JellyfishConfig::half_servers(switches, ports, seed).build();
        let elp = Elp::shortest(&topo, 1, false);
        check_equivalence(&topo, &elp)?;
    }

    /// Rings are infeasible at one tag with an exhaustive verdict, the
    /// kernel is minimal (dropping any one path flips the verdict) and
    /// two tags always suffice.
    #[test]
    fn ring_kernels_are_minimal(n in 4usize..10) {
        let (topo, elp) = ring(n);
        let inf = match decide(&topo, &elp, Some(1)) {
            Verdict::Infeasible(i) => i,
            v => return Err(TestCaseError::Fail(format!(
                "ring({n}) at 1 tag: {}", v.summary()
            ))),
        };
        prop_assert!(inf.exhaustive);
        prop_assert_eq!(inf.lower_bound_tags, 2);
        prop_assert!(!inf.cycle.is_empty());
        for drop in 0..inf.kernel.len() {
            let sub: Vec<Path> = inf
                .kernel
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != drop)
                .map(|(_, &pi)| elp.path(pi))
                .collect();
            prop_assert!(
                decide(&topo, &Elp::from_paths(sub), Some(1)).is_feasible(),
                "kernel not minimal: still infeasible without path {drop}"
            );
        }
        match decide(&topo, &elp, Some(2)) {
            Verdict::Feasible(f) => {
                prop_assert_eq!(f.tags_used, 2);
                if let Err(e) = f.witness.recheck(&topo, &elp) {
                    return Err(TestCaseError::Fail(format!("recheck: {e}")));
                }
            }
            v => return Err(TestCaseError::Fail(format!(
                "ring({n}) at 2 tags: {}", v.summary()
            ))),
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a feasible verdict publishes, reduced to four numbers:
/// `(lower_bound_tags, tags_used, digest(witness.layers),
/// digest(witness.assignment))`. Every inner list is closed by an
/// `0xff 0xff` terminator so moving an element across a list boundary
/// changes the digest.
fn feasible_pin(topo: &Topology, elp: &Elp, budget: Option<usize>) -> (usize, usize, u64, u64) {
    let f = match decide(topo, elp, budget) {
        Verdict::Feasible(f) => f,
        v => panic!("expected feasible, got {}", v.summary()),
    };
    f.witness.recheck(topo, elp).expect("witness rechecks");
    let layers = f.witness.layers.iter().flat_map(|layer| {
        layer
            .iter()
            .flat_map(|p| {
                let mut b = p.node.0.to_le_bytes().to_vec();
                b.extend(p.port.0.to_le_bytes());
                b
            })
            .chain([0xff, 0xff])
    });
    let assignment = f.witness.assignment.iter().flat_map(|hops| {
        hops.iter()
            .flat_map(|t| t.to_le_bytes())
            .chain([0xff, 0xff])
    });
    (
        f.lower_bound_tags,
        f.tags_used,
        fnv1a(layers),
        fnv1a(assignment),
    )
}

/// What an infeasible verdict publishes: `(kernel, cycle as
/// (node, port) pairs, exhaustive)`.
fn infeasible_pin(
    topo: &Topology,
    elp: &Elp,
    budget: usize,
) -> (Vec<usize>, Vec<(u32, u16)>, bool) {
    match decide(topo, elp, Some(budget)) {
        Verdict::Infeasible(i) => (
            i.kernel,
            i.cycle.iter().map(|p| (p.node.0, p.port.0)).collect(),
            i.exhaustive,
        ),
        v => panic!("expected infeasible, got {}", v.summary()),
    }
}

/// The paper's Fig. 10 pair on the small Clos: two counter-rotating
/// one-bounce paths that close a dependency cycle at one tag.
fn fig10() -> (Topology, Elp) {
    let t = ClosConfig::small().build();
    let elp = Elp::from_paths(vec![
        Path::from_names(&t, &["H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13"]),
        Path::from_names(&t, &["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"]),
    ]);
    (t, elp)
}

/// The complete graph on four switches with all 24 Hamiltonian paths,
/// in lexicographic order: the greedy peel needs three layers, so two
/// tags are only found by the exhaustive layer search — the one
/// instance here that backtracks through the guard's LIFO edge undo.
fn k4_hamiltonian() -> (Topology, Elp) {
    let mut t = Topology::new();
    let s: Vec<_> = (0..4)
        .map(|i| t.add_switch(format!("K{i}"), Layer::Flat))
        .collect();
    for i in 0..4 {
        for j in i + 1..4 {
            t.connect(s[i], s[j]);
        }
    }
    let mut paths = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                let d = 6 - a - b - c;
                paths.push(Path::new(&t, vec![s[a], s[b], s[c], s[d]]).expect("K4 path"));
            }
        }
    }
    (t, Elp::from_paths(paths))
}

/// `half_servers(50, 12, 7)` with its shortest switch-pair paths plus 200
/// seeded random loop-free walks of up to nine hops: paths long enough
/// that the greedy peel runs many rounds a layer over several layers and
/// refuses several edges out of the same port.
fn jellyfish_with_walks() -> (Topology, Elp) {
    let topo = JellyfishConfig::half_servers(50, 12, 7).build();
    let mut paths = shortest_paths_all_pairs(&topo, &FailureSet::none(), 1, false);
    let switches: Vec<NodeId> = topo.switch_ids().collect();
    let mut rng = StdRng::seed_from_u64(23);
    while paths.len() < switches.len() * (switches.len() - 1) + 200 {
        let mut nodes = vec![*switches.choose(&mut rng).expect("50 switches")];
        for _ in 0..rng.random_range(3..=9usize) {
            let here = nodes[nodes.len() - 1];
            let next: Vec<NodeId> = topo
                .neighbors(here)
                .map(|(_, _, n)| n)
                .filter(|n| switches.contains(n) && !nodes.contains(n))
                .collect();
            let Some(&n) = next.choose(&mut rng) else {
                break;
            };
            nodes.push(n);
        }
        paths.push(Path::new(&topo, nodes).expect("a loop-free walk over links"));
    }
    (topo, Elp::from_paths(paths))
}

/// Golden values recorded from the tree before the acyclicity routines
/// moved behind one kernel: everything `decide` publishes — bounds,
/// layer orders, per-hop assignment, kernel, quoted cycle — on a
/// benchmark-shaped fabric, the Fig. 10 pair and rings. A change to
/// DFS start order, adjacency order, Kahn tie-breaking or the guard's
/// accept/reject decisions moves at least one of them.
#[test]
fn published_verdicts_are_pinned() {
    let topo = JellyfishConfig::half_servers(100, 16, 1).build();
    let elp = Elp::from_paths(shortest_paths_all_pairs(
        &topo,
        &FailureSet::none(),
        1,
        false,
    ));
    assert_eq!(
        feasible_pin(&topo, &elp, None),
        (2, 3, 4669667867662929271, 9936822776852784963)
    );
    // At a budget of two the peel (three layers) misses and the fabric
    // is too large for the exact search: the construction settles it.
    assert_eq!(
        feasible_pin(&topo, &elp, Some(2)),
        (2, 2, 5663801322042734492, 15553311728148187706)
    );
    for (seed, pin) in [
        (2, (2, 3, 3614079522266692173, 10891958633055394427)),
        (3, (2, 3, 3232597420080386863, 6925500539723989349)),
    ] {
        let topo = JellyfishConfig::half_servers(100, 16, seed).build();
        let elp = Elp::shortest(&topo, 1, false);
        assert_eq!(feasible_pin(&topo, &elp, None), pin, "seed {seed}");
    }
    let (t, e) = jellyfish_with_walks();
    assert_eq!(
        feasible_pin(&t, &e, None),
        (2, 3, 15405404382147982889, 10638686808126514937)
    );
    let (t, e) = fig10();
    assert_eq!(
        feasible_pin(&t, &e, None),
        (2, 2, 2722714645888244427, 14968123367487585601)
    );
    assert_eq!(
        infeasible_pin(&t, &e, 1),
        (vec![0, 1], vec![(0, 0), (6, 0), (1, 2), (2, 1)], true)
    );
    let (t, e) = ring(5);
    assert_eq!(
        feasible_pin(&t, &e, Some(2)),
        (2, 2, 15163240135592143786, 9872137499915164867)
    );
    // The quoted cycle is the ring itself, entered at R2's port
    // towards R1 and closed at R1's port towards the last switch.
    assert_eq!(
        infeasible_pin(&t, &e, 1),
        (
            vec![0, 1, 2, 3, 4],
            vec![(1, 0), (2, 0), (3, 0), (4, 0), (0, 2)],
            true
        )
    );
    let (t, e) = ring(8);
    assert_eq!(
        infeasible_pin(&t, &e, 1),
        (
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
                (5, 0),
                (6, 0),
                (7, 0),
                (0, 2)
            ],
            true
        )
    );
    let (t, e) = k4_hamiltonian();
    for budget in [Some(2), None] {
        assert_eq!(
            feasible_pin(&t, &e, budget),
            (2, 2, 16971711820364923983, 11074450578145421193)
        );
    }
    assert_eq!(
        infeasible_pin(&t, &e, 1),
        (vec![0, 3, 4], vec![(2, 1), (3, 2), (1, 2)], true)
    );
}
