//! Validated, loop-free paths with port resolution.

use std::fmt;
use tagger_topo::{FailureSet, GlobalPort, NodeId, Topology};

/// Why a node sequence failed to validate as a [`Path`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// Fewer than two nodes.
    TooShort,
    /// Two consecutive nodes are not adjacent (or the link is failed).
    NotAdjacent(NodeId, NodeId),
    /// A node appears twice: ELP paths must be loop-free (paper §6).
    RepeatedNode(NodeId),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooShort => write!(f, "path needs at least two nodes"),
            PathError::NotAdjacent(a, b) => write!(f, "nodes {a} and {b} are not adjacent"),
            PathError::RepeatedNode(n) => write!(f, "node {n} repeats; paths must be loop-free"),
        }
    }
}

impl std::error::Error for PathError {}

/// A loop-free path through the topology, stored as a node sequence.
///
/// Paths are the currency of the ELP: the operator enumerates the paths
/// that must stay lossless, and Tagger compiles them into tagging rules.
/// A `Path` is validated at construction: consecutive nodes must be
/// adjacent and no node may repeat.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Validates and wraps a node sequence.
    pub fn new(topo: &Topology, nodes: Vec<NodeId>) -> Result<Self, PathError> {
        Self::new_with_failures(topo, &FailureSet::none(), nodes)
    }

    /// Like [`Path::new`] but also rejects hops over failed links.
    pub fn new_with_failures(
        topo: &Topology,
        failures: &FailureSet,
        nodes: Vec<NodeId>,
    ) -> Result<Self, PathError> {
        Self::validate(topo, failures, &nodes)?;
        Ok(Path { nodes })
    }

    fn validate(topo: &Topology, failures: &FailureSet, nodes: &[NodeId]) -> Result<(), PathError> {
        if nodes.len() < 2 {
            return Err(PathError::TooShort);
        }
        // Paths are a handful of nodes: scanning the nodes before each one
        // beats building a set, and reports the same (first repeated) node.
        for (i, n) in nodes.iter().enumerate() {
            if nodes[..i].contains(n) {
                return Err(PathError::RepeatedNode(*n));
            }
        }
        for w in nodes.windows(2) {
            if !failures.link_up(topo, w[0], w[1]) {
                return Err(PathError::NotAdjacent(w[0], w[1]));
            }
        }
        Ok(())
    }

    /// Wraps a node sequence the enumerator built hop by hop over live
    /// links with a visited set, which is already everything
    /// [`Path::new`] checks; debug builds check it again.
    pub(crate) fn from_enumeration(topo: &Topology, nodes: Vec<NodeId>) -> Self {
        debug_assert_eq!(
            Self::validate(topo, &FailureSet::none(), &nodes),
            Ok(()),
            "enumerated path {nodes:?} is not a valid path"
        );
        Path { nodes }
    }

    /// Builds a path from node names; panics on invalid input. For tests
    /// and experiment scripts.
    pub fn from_names(topo: &Topology, names: &[&str]) -> Self {
        let nodes = names.iter().map(|n| topo.expect_node(n)).collect();
        Path::new(topo, nodes).expect("invalid path")
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// First node.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("a path has at least one node")
    }

    /// Number of hops (links traversed) = nodes − 1.
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Iterates over `(from, to)` node pairs, one per hop.
    pub fn hop_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// For each hop, the ingress port at the *receiving* node — the
    /// `(switch, ingress-port)` pairs Tagger's tagged-graph nodes are
    /// built from.
    ///
    /// # Panics
    /// Panics if the path does not fit the topology (cannot happen for a
    /// validated path on the same topology).
    pub fn ingress_ports<'a>(
        &'a self,
        topo: &'a Topology,
    ) -> impl Iterator<Item = GlobalPort> + 'a {
        self.hop_pairs().map(move |(a, b)| hop_ports(topo, a, b).1)
    }

    /// For each hop, the egress port at the *sending* node.
    pub fn egress_ports<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = GlobalPort> + 'a {
        self.hop_pairs().map(move |(a, b)| hop_ports(topo, a, b).0)
    }

    /// Counts *bounces*: transitions where the path was going down the
    /// layer hierarchy and turns up again (paper §4.2). An up-down path
    /// has zero bounces; each additional down→up turn is one bounce.
    ///
    /// Host-adjacent hops count like any other (Host has rank 0, so
    /// leaving the source host is an up-hop and reaching the destination
    /// is a down-hop).
    pub fn bounces(&self, topo: &Topology) -> usize {
        let mut bounces = 0;
        let mut going_down = false;
        for (a, b) in self.hop_pairs() {
            if topo.is_down_hop(a, b) {
                going_down = true;
            } else if topo.is_up_hop(a, b) && going_down {
                bounces += 1;
                going_down = false;
            }
        }
        bounces
    }

    /// True if the path never violates the up-down rule (zero bounces).
    pub fn is_updown(&self, topo: &Topology) -> bool {
        self.bounces(topo) == 0
    }

    /// Renders the path as `A -> B -> C` using node names.
    pub fn display<'a>(&'a self, topo: &'a Topology) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Path, &'a Topology);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, &n) in self.0.nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{}", self.1.node(n).name)?;
                }
                Ok(())
            }
        }
        D(self, topo)
    }
}

/// The two ends of the hop `a → b`: the egress port on `a` and the
/// ingress port on `b` (of the lowest-numbered port of `a` that leads to
/// `b`, as [`Topology::link_between`] picks).
#[inline]
fn hop_ports(topo: &Topology, a: NodeId, b: NodeId) -> (GlobalPort, GlobalPort) {
    let (port, link, _) = topo
        .neighbors(a)
        .find(|&(_, _, n)| n == b)
        .unwrap_or_else(|| panic!("path hop {a}->{b} not in topology"));
    (GlobalPort::new(a, port), topo.link(link).endpoint_on(b))
}

/// Walks a sequence of paths hop by hop, redoing for each path only the
/// hops after the prefix it shares with the path before it. On a
/// DFS-ordered ELP that is work per edge of the ELP's prefix tree rather
/// than per hop of every path.
///
/// For every hop the walker keeps the ingress port at the receiving node
/// and one caller value `S` (the tag a packet carries there, say). The
/// caller's `step` computes the value of hop `h` from the kept entry of
/// hop `h - 1` and the two ports of hop `h`. Keeping the entries of a
/// shared prefix is sound when `step` is a function of just those — a
/// hop's ports depend on nodes `h..=h+1` of the path only — and of state
/// that gives the same answer every time it is asked the same question
/// during the walk.
#[derive(Debug)]
pub struct PrefixWalker<S> {
    /// The walked part of the last path: `hops.len() + 1` nodes, or none.
    nodes: Vec<NodeId>,
    hops: Vec<(GlobalPort, S)>,
}

impl<S> Default for PrefixWalker<S> {
    fn default() -> Self {
        PrefixWalker {
            nodes: Vec::new(),
            hops: Vec::new(),
        }
    }
}

impl<S: Copy> PrefixWalker<S> {
    /// A walker that has seen no path yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks `path`, calling `step(hop, previous, egress, ingress)` for
    /// each hop from the first one that differs from the last path
    /// walked: `previous` is the `(ingress port, value)` kept for hop
    /// `hop - 1` (`None` at hop 0), `egress` the port hop `hop` leaves its
    /// sending node by and `ingress` the port it arrives on. An error
    /// from `step` ends the walk there and is returned.
    ///
    /// # Panics
    /// Panics if the path does not fit the topology.
    pub fn walk<E>(
        &mut self,
        topo: &Topology,
        path: &Path,
        mut step: impl FnMut(usize, Option<(GlobalPort, S)>, GlobalPort, GlobalPort) -> Result<S, E>,
    ) -> Result<(), E> {
        let shared = self
            .nodes
            .iter()
            .zip(&path.nodes)
            .take_while(|(a, b)| a == b)
            .count();
        // Hop `h` joins nodes `h` and `h + 1`: with `shared` leading nodes
        // in common, the hops before `shared - 1` are the last path's.
        let resume = shared.saturating_sub(1);
        self.hops.truncate(resume);
        self.nodes.truncate(shared);
        if shared == 0 {
            self.nodes.push(path.src());
        }
        for hop in resume..path.hops() {
            let to = path.nodes[hop + 1];
            let (egress, ingress) = hop_ports(topo, path.nodes[hop], to);
            let value = step(hop, self.hops.last().copied(), egress, ingress)?;
            self.hops.push((ingress, value));
            self.nodes.push(to);
        }
        Ok(())
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path{:?}", self.nodes)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::ClosConfig;

    fn topo() -> Topology {
        ClosConfig::small().build()
    }

    #[test]
    fn valid_updown_path() {
        let t = topo();
        let p = Path::from_names(&t, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        assert_eq!(p.hops(), 6);
        assert!(p.is_updown(&t));
        assert_eq!(p.bounces(&t), 0);
    }

    #[test]
    fn one_bounce_path_counts_one() {
        let t = topo();
        // Fig 3 green flow: T3 up to spine, down to L1, bounce up to S2,
        // down to L2 and T1.
        let p = Path::from_names(&t, &["H9", "T3", "L3", "S1", "L1", "S2", "L2", "T1", "H1"]);
        assert_eq!(p.bounces(&t), 1);
        assert!(!p.is_updown(&t));
    }

    #[test]
    fn two_bounce_path_counts_two() {
        let t = topo();
        // Bounce once at T2 (pod 1) and once at T3 (pod 2).
        let p = Path::from_names(
            &t,
            &[
                "H1", "T1", "L1", "T2", "L2", "S1", "L3", "T3", "L4", "T4", "H13",
            ],
        );
        assert_eq!(p.bounces(&t), 2);
    }

    #[test]
    fn rejects_non_adjacent() {
        let t = topo();
        let h1 = t.expect_node("H1");
        let s1 = t.expect_node("S1");
        assert_eq!(
            Path::new(&t, vec![h1, s1]),
            Err(PathError::NotAdjacent(h1, s1))
        );
    }

    #[test]
    fn rejects_loops() {
        let t = topo();
        let t1 = t.expect_node("T1");
        let l1 = t.expect_node("L1");
        let err = Path::new(&t, vec![t1, l1, t1]);
        assert_eq!(err, Err(PathError::RepeatedNode(t1)));
        // The node reported is the first one to come round again, and a
        // loop is reported ahead of a hop that is not a link (T1-S1).
        let t2 = t.expect_node("T2");
        let s1 = t.expect_node("S1");
        assert_eq!(
            Path::new(&t, vec![t1, l1, t2, l1, t1]),
            Err(PathError::RepeatedNode(l1))
        );
        assert_eq!(
            Path::new(&t, vec![t1, s1, t1]),
            Err(PathError::RepeatedNode(t1))
        );
    }

    #[test]
    fn rejects_too_short() {
        let t = topo();
        let t1 = t.expect_node("T1");
        assert_eq!(Path::new(&t, vec![t1]), Err(PathError::TooShort));
    }

    #[test]
    fn rejects_failed_links() {
        let t = topo();
        let mut f = FailureSet::none();
        f.fail_between(&t, "T1", "L1");
        let t1 = t.expect_node("T1");
        let l1 = t.expect_node("L1");
        assert!(Path::new_with_failures(&t, &f, vec![t1, l1]).is_err());
        assert!(Path::new(&t, vec![t1, l1]).is_ok());
    }

    #[test]
    fn ingress_egress_ports_are_consistent() {
        let t = topo();
        let p = Path::from_names(&t, &["H1", "T1", "L1"]);
        let ins: Vec<_> = p.ingress_ports(&t).collect();
        let egs: Vec<_> = p.egress_ports(&t).collect();
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].node, t.expect_node("T1"));
        assert_eq!(ins[1].node, t.expect_node("L1"));
        assert_eq!(egs[0].node, t.expect_node("H1"));
        assert_eq!(egs[1].node, t.expect_node("T1"));
        // Each hop's egress and ingress are two ends of the same link.
        for (e, i) in egs.iter().zip(&ins) {
            assert_eq!(t.peer_of(*e).unwrap(), *i);
        }
    }

    #[test]
    fn walker_redoes_only_the_hops_after_the_shared_prefix() {
        let t = topo();
        let a = Path::from_names(&t, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let b = Path::from_names(&t, &["H1", "T1", "L1", "S1", "L4", "T4", "H13"]);
        let short = Path::from_names(&t, &["H1", "T1", "L1"]);
        let mut walker = PrefixWalker::new();
        // The value kept per hop is the number of hops up to it; `fail_at`
        // makes the step refuse one hop.
        let mut walk = |path: &Path, fail_at: Option<usize>| {
            let mut stepped = Vec::new();
            let result = walker.walk(&t, path, |hop, prev, egress, ingress| {
                assert_eq!(prev.map_or(0, |(_, n)| n), hop);
                assert_eq!(t.peer_of(egress), Some(ingress));
                assert_eq!(ingress, path.ingress_ports(&t).nth(hop).unwrap());
                if fail_at == Some(hop) {
                    return Err(hop);
                }
                stepped.push(hop);
                Ok(hop + 1)
            });
            (stepped, result)
        };
        assert_eq!(walk(&a, None), (vec![0, 1, 2, 3, 4, 5], Ok(())));
        // Four nodes in common: hops 0..=2 are kept, hop 3 leaves S1 anew.
        assert_eq!(walk(&b, None), (vec![3, 4, 5], Ok(())));
        assert_eq!(walk(&b, None), (vec![], Ok(())));
        assert_eq!(walk(&short, None), (vec![], Ok(())));
        // A refused hop is not kept: the next walk redoes it.
        assert_eq!(walk(&a, Some(4)), (vec![2, 3], Err(4)));
        assert_eq!(walk(&a, None), (vec![4, 5], Ok(())));
    }

    #[test]
    fn display_uses_names() {
        let t = topo();
        let p = Path::from_names(&t, &["H1", "T1", "L1"]);
        assert_eq!(format!("{}", p.display(&t)), "H1 -> T1 -> L1");
    }
}
