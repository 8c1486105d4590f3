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
        self.hop_pairs().map(move |(a, b)| topo.hop_ends(a, b).1)
    }

    /// For each hop, the egress port at the *sending* node.
    pub fn egress_ports<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = GlobalPort> + 'a {
        self.hop_pairs().map(move |(a, b)| topo.hop_ends(a, b).0)
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

/// A sequence of paths stored as its prefix tree.
///
/// Tree node `i` is one fabric node on one or more paths; `parent[i]` is
/// the tree node before it on those paths. A pushed path shares the tree
/// nodes of the leading fabric nodes it has in common with the path pushed
/// *just before it* and appends one tree node for each of the rest, so
/// parents precede children, tree nodes are numbered in the order a walk
/// of the paths one after another first reaches them, and an enumerator
/// that emits paths in depth-first order stores each distinct prefix once.
/// Paths that are not neighbours in the sequence share nothing: the
/// sequence, duplicates included, is what is stored, and
/// [`PathTree::paths`] gives it back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathTree {
    /// Per tree node: the tree node before it, [`NO_PARENT`] at a source.
    parent: Vec<u32>,
    /// Per tree node: the fabric node it stands for.
    node: Vec<NodeId>,
    /// Per path, in sequence order: the tree node of its last node.
    leaves: Vec<u32>,
    /// The tree nodes of the last path pushed, source first.
    chain: Vec<u32>,
}

const NO_PARENT: u32 = u32::MAX;

impl PathTree {
    /// Appends a path to the sequence.
    pub fn push(&mut self, path: &Path) {
        self.push_nodes(&path.nodes);
    }

    /// Appends the path with these nodes, which the caller knows to be a
    /// valid one: a [`Path`]'s, or a bounce search's stack.
    pub(crate) fn push_nodes(&mut self, nodes: &[NodeId]) {
        let shared = self
            .chain
            .iter()
            .zip(nodes)
            .take_while(|&(&t, &n)| self.node[t as usize] == n)
            .count();
        self.chain.truncate(shared);
        for &n in &nodes[shared..] {
            let id = u32::try_from(self.node.len())
                .ok()
                .filter(|&id| id != NO_PARENT)
                .expect("a path tree holds fewer than 2^32 - 1 nodes");
            self.parent
                .push(self.chain.last().copied().unwrap_or(NO_PARENT));
            self.node.push(n);
            self.chain.push(id);
        }
        self.leaves
            .push(*self.chain.last().expect("a path has at least two nodes"));
    }

    /// Number of paths in the sequence.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if no path was pushed.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of tree nodes: what a pass over the paths has to visit.
    pub fn num_nodes(&self) -> usize {
        self.node.len()
    }

    /// The tree nodes from `i` up to its source.
    fn ancestors(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(i), |&t| {
            Some(self.parent[t as usize]).filter(|&p| p != NO_PARENT)
        })
    }

    /// Hops from its source to tree node `i`.
    pub fn depth(&self, i: usize) -> usize {
        self.ancestors(i as u32).count() - 1
    }

    /// The `index`-th path of the sequence.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn path(&self, index: usize) -> Path {
        let mut nodes: Vec<NodeId> = self
            .ancestors(self.leaves[index])
            .map(|t| self.node[t as usize])
            .collect();
        nodes.reverse();
        Path { nodes }
    }

    /// The tree nodes of the `index`-th path, last node first: the walk
    /// [`PathTree::path`] makes, for a pass that keeps a value per tree
    /// node (a [`PathTree::sweep`]'s, say) and wants them along one path.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn walk_up(&self, index: usize) -> impl Iterator<Item = usize> + '_ {
        self.ancestors(self.leaves[index]).map(|t| t as usize)
    }

    /// The paths, in the order they were pushed.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = Path> + '_ {
        (0..self.len()).map(|i| self.path(i))
    }

    /// True if `path` is in the sequence.
    pub fn contains(&self, path: &Path) -> bool {
        self.leaves.iter().any(|&leaf| {
            self.ancestors(leaf)
                .map(|t| self.node[t as usize])
                .eq(path.nodes.iter().rev().copied())
        })
    }

    /// Keeps only the paths `keep` accepts, in order: the tree of the
    /// shorter sequence, as if the others had never been pushed.
    pub fn retain(&mut self, mut keep: impl FnMut(&Path) -> bool) {
        *self = self.paths().filter(|p| keep(p)).collect();
    }

    /// Hops of the longest path, 0 if there is none.
    pub fn max_hops(&self) -> usize {
        self.leaves
            .iter()
            .map(|&leaf| self.depth(leaf as usize))
            .max()
            .unwrap_or(0)
    }

    /// Index of the first path that runs through tree node `i`: the one
    /// whose push created it.
    pub fn first_path_through(&self, i: usize) -> usize {
        // A path's leaf is the last tree node its push created, if it
        // created any, and an older one otherwise.
        self.leaves
            .iter()
            .position(|&leaf| leaf as usize >= i)
            .expect("every tree node is on a path")
    }

    /// The distinct first hops `source → next` of the paths, in tree-node
    /// order.
    pub fn first_hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parent
            .iter()
            .zip(&self.node)
            .filter(|&(&p, _)| p != NO_PARENT && self.parent[p as usize] == NO_PARENT)
            .map(|(&p, &next)| (self.node[p as usize], next))
    }

    /// Visits every hop of the tree once, in tree-node order: each path's
    /// hops in path order, minus those an earlier visit already covered.
    ///
    /// `step(i, before, here, next)` is called for the hop `here → next`
    /// that ends at tree node `i` and returns the value kept for it (the
    /// tag a packet carries over it, say). `before` is `None` on a path's
    /// first hop; on a later one it is the fabric node the path reached
    /// `here` from, with the value kept for that hop. What `step` returns
    /// may depend on those arguments and on state that answers the same
    /// question the same way throughout the sweep — then every path
    /// through `i` sees what a hop-by-hop walk of it alone would compute.
    /// An error from `step` ends the sweep and is returned.
    pub fn sweep<S: Copy, E>(
        &self,
        mut step: impl FnMut(usize, Option<(NodeId, S)>, NodeId, NodeId) -> Result<S, E>,
    ) -> Result<(), E> {
        // Per tree node, the value of the hop that ends there; `None` at a
        // source, which no hop ends at.
        let mut kept: Vec<Option<S>> = Vec::with_capacity(self.node.len());
        for (i, (&p, &next)) in self.parent.iter().zip(&self.node).enumerate() {
            kept.push(match p {
                NO_PARENT => None,
                p => {
                    let p = p as usize;
                    let before = kept[p].map(|s| (self.node[self.parent[p] as usize], s));
                    Some(step(i, before, self.node[p], next)?)
                }
            });
        }
        Ok(())
    }
}

impl<P: std::borrow::Borrow<Path>> FromIterator<P> for PathTree {
    fn from_iter<I: IntoIterator<Item = P>>(paths: I) -> Self {
        let mut tree = PathTree::default();
        for path in paths {
            tree.push(path.borrow());
        }
        tree
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
    fn tree_shares_the_prefix_of_the_path_before() {
        let t = topo();
        let a = Path::from_names(&t, &["H1", "T1", "L1", "S1", "L3", "T3", "H9"]);
        let b = Path::from_names(&t, &["H1", "T1", "L1", "S1", "L4", "T4", "H13"]);
        let short = Path::from_names(&t, &["H1", "T1", "L1"]);
        let other = Path::from_names(&t, &["H5", "T2", "L1"]);
        let list = [&a, &b, &b, &short, &a, &other];
        let tree: PathTree = list.into_iter().collect();
        // a: 7 nodes; b: 3 after the 4 it shares with a; b again and the
        // prefix `short`: none; a again shares only `short`'s 3 nodes with
        // the path before it, so 4 more; another source shares nothing.
        assert_eq!(tree.num_nodes(), 7 + 3 + 4 + 3);
        assert_eq!(tree.len(), 6);
        assert_eq!(tree.max_hops(), 6);
        assert!(tree.paths().eq(list.into_iter().cloned()));
        assert!(tree.contains(&short) && tree.contains(&other));
        assert!(!tree.contains(&Path::from_names(&t, &["H1", "T1", "L2"])));
        // Tree nodes are created by, and blamed on, the first path through.
        assert_eq!(tree.first_path_through(6), 0);
        assert_eq!(tree.first_path_through(7), 1);
        assert_eq!(tree.first_path_through(10), 4);
        assert_eq!((tree.depth(0), tree.depth(6), tree.depth(7)), (0, 6, 4));
        let first_hops = [(a.nodes[0], a.nodes[1]), (other.nodes[0], other.nodes[1])];
        assert!(tree.first_hops().eq(first_hops));

        // A sweep sees every stored hop once, after the hop before it, and
        // hands each the value kept for that one: here, hops so far.
        let mut hops = 0;
        let swept = tree.sweep(|i, before, here, next| {
            hops += 1;
            assert!(t.hop(here, next).is_some());
            let so_far = before.map_or(0, |(from, n)| {
                assert!(t.hop(from, here).is_some());
                n
            });
            assert_eq!(so_far + 1, tree.depth(i));
            Ok::<usize, ()>(so_far + 1)
        });
        assert_eq!((swept, hops), (Ok(()), tree.num_nodes() - 2));
        // An error ends it where it happens.
        assert_eq!(tree.sweep(|i, _, _, _| Err::<(), usize>(i)), Err(1));

        let mut kept = tree.clone();
        kept.retain(|p| p.hops() > 2);
        assert_eq!(kept, [&a, &b, &b, &a].into_iter().collect());
    }

    #[test]
    fn display_uses_names() {
        let t = topo();
        let p = Path::from_names(&t, &["H1", "T1", "L1"]);
        assert_eq!(format!("{}", p.display(&t)), "H1 -> T1 -> L1");
    }
}
