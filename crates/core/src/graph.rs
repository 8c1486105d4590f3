//! The tagged graph `G(V, E)` and the deadlock-freedom verifier.
//!
//! Paper §5 formalizes a tagging scheme as a graph whose nodes are
//! `(ingress port, tag)` pairs — "port `A_i` may receive lossless packets
//! carrying tag `x`" — and whose edges are the possible tag transitions as
//! a packet crosses a switch. Theorem 5.1: if every per-tag subgraph `G_k`
//! is acyclic and no edge decreases the tag, the scheme is deadlock-free.
//! [`TaggedGraph::verify`] checks exactly those two requirements.

use crate::digraph::Digraph;
use std::collections::BTreeSet;
use std::fmt;
use tagger_topo::{GlobalPort, NodeId, NodeKind, Topology};

/// A tag: the small integer carried in packets (DSCP in the hardware
/// implementation, §7) that selects the lossless priority queue.
///
/// Lossless tags are `1..=T`; the value `0` is never used. Packets whose
/// tag exceeds the configured maximum (or that match no rule) are demoted
/// to the lossy class — that demotion is represented by
/// [`crate::TagDecision::Lossy`], not by a `Tag` value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u16);

impl Tag {
    /// The initial tag carried by freshly injected packets (paper §4.3:
    /// "packets start with tag of 1").
    pub const INITIAL: Tag = Tag(1);

    /// The next tag (monotone bump).
    pub fn next(self) -> Tag {
        Tag(self.0 + 1)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A node of the tagged graph: ingress port `A_i` paired with a tag it may
/// receive lossless packets with.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaggedNode {
    /// The ingress port.
    pub port: GlobalPort,
    /// The tag carried by packets arriving at that port.
    pub tag: Tag,
}

impl TaggedNode {
    /// `(node, port, tag)` packed most-significant first: comparing keys
    /// is comparing the fields in order, in one integer compare — the
    /// graph's sets are searched once per hop of every walked path.
    fn sort_key(self) -> u64 {
        (u64::from(self.port.node.0) << 32)
            | (u64::from(self.port.port.0) << 16)
            | u64::from(self.tag.0)
    }
}

impl Ord for TaggedNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl PartialOrd for TaggedNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for TaggedNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?},{})", self.port, self.tag)
    }
}

/// A directed edge `(A_i, x) → (B_j, y)`: switch `A` may forward a packet
/// that arrived on port `i` with tag `x` to switch `B`'s port `j`,
/// rewriting the tag to `y`.
pub type TaggedEdge = (TaggedNode, TaggedNode);

/// Why a tagged graph failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Requirement 1 violated: the subgraph of one tag contains a cycle —
    /// a cyclic buffer dependency within a single lossless priority.
    /// Carries one witness cycle (first node repeated at the end).
    CyclicTag(Tag, Vec<TaggedNode>),
    /// Requirement 2 violated: an edge decreases the tag, breaking the
    /// monotone order between priorities.
    TagDecrease(TaggedNode, TaggedNode),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::CyclicTag(tag, cycle) => {
                write!(f, "cyclic buffer dependency within tag {tag}: ")?;
                for (i, n) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n:?}")?;
                }
                Ok(())
            }
            VerifyError::TagDecrease(a, b) => write!(f, "tag decreases along edge {a:?} -> {b:?}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The tagged graph `G(V, E)` of paper §5.
///
/// Maintains nodes and edges in deterministic (sorted) order. Construction
/// is incremental ([`TaggedGraph::add_node`], [`TaggedGraph::add_edge`]);
/// the generation algorithms in this crate produce well-formed graphs, and
/// [`TaggedGraph::verify`] certifies deadlock freedom per Theorem 5.1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaggedGraph {
    nodes: BTreeSet<TaggedNode>,
    edges: BTreeSet<TaggedEdge>,
}

impl TaggedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a node. Idempotent.
    pub fn add_node(&mut self, node: TaggedNode) {
        self.nodes.insert(node);
    }

    /// Inserts an edge, adding both endpoints as nodes. Idempotent: an
    /// edge already present brought its endpoints with it, so re-adding
    /// it costs one lookup.
    pub fn add_edge(&mut self, from: TaggedNode, to: TaggedNode) {
        if self.edges.insert((from, to)) {
            self.nodes.insert(from);
            self.nodes.insert(to);
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over nodes in sorted order.
    pub fn nodes(&self) -> impl Iterator<Item = &TaggedNode> + '_ {
        self.nodes.iter()
    }

    /// Iterates over edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = &TaggedEdge> + '_ {
        self.edges.iter()
    }

    /// True if the node is present.
    pub fn contains_node(&self, n: &TaggedNode) -> bool {
        self.nodes.contains(n)
    }

    /// True if the edge is present.
    pub fn contains_edge(&self, e: &TaggedEdge) -> bool {
        self.edges.contains(e)
    }

    /// The set of distinct tags appearing on nodes, sorted.
    pub fn tags(&self) -> Vec<Tag> {
        let set: BTreeSet<Tag> = self.nodes.iter().map(|n| n.tag).collect();
        set.into_iter().collect()
    }

    /// The largest tag in the graph (`T` in the paper), or `None` if empty.
    pub fn max_tag(&self) -> Option<Tag> {
        self.nodes.iter().map(|n| n.tag).max()
    }

    /// The number of *lossless priorities* the scheme needs: distinct tags
    /// over nodes that buffer-and-forward. Switch ingress nodes always
    /// count; host ingress nodes count only when they forward onward
    /// (server-centric fabrics like BCube — there the server NIC's
    /// ingress queue is part of the buffer-dependency graph). Pure-sink
    /// host nodes are excluded: the paper's Figure 5 notes the final tag
    /// "will only appear on destination servers", where no lossless
    /// queue is consumed.
    pub fn num_lossless_tags(&self, topo: &Topology) -> usize {
        let forwarding_hosts: BTreeSet<TaggedNode> = self
            .edges
            .iter()
            .map(|&(a, _)| a)
            .filter(|n| topo.node(n.port.node).kind == NodeKind::Host)
            .collect();
        let set: BTreeSet<Tag> = self
            .nodes
            .iter()
            .filter(|n| {
                topo.node(n.port.node).kind == NodeKind::Switch || forwarding_hosts.contains(n)
            })
            .map(|n| n.tag)
            .collect();
        set.len()
    }

    /// Checks the two requirements of Theorem 5.1 and returns `Ok(())` if
    /// the tagging scheme is deadlock-free:
    ///
    /// 1. every per-tag subgraph `G_k` is acyclic, and
    /// 2. no edge goes from a larger tag to a smaller one.
    pub fn verify(&self) -> Result<(), VerifyError> {
        for &(a, b) in &self.edges {
            if b.tag < a.tag {
                return Err(VerifyError::TagDecrease(a, b));
            }
        }
        for tag in self.tags() {
            if let Some(cycle) = self.find_cycle_in_tag(tag) {
                return Err(VerifyError::CyclicTag(tag, cycle));
            }
        }
        Ok(())
    }

    /// Searches for a cycle within the subgraph of one tag. Returns a
    /// witness cycle (first node repeated last) or `None` if acyclic.
    pub fn find_cycle_in_tag(&self, tag: Tag) -> Option<Vec<TaggedNode>> {
        // The same-tag subgraph on dense ids: `nodes` is sorted, so a
        // node's id is its rank, and edges arrive in sorted order.
        let nodes: Vec<TaggedNode> = self
            .nodes
            .iter()
            .copied()
            .filter(|n| n.tag == tag)
            .collect();
        let id = |n: &TaggedNode| nodes.binary_search(n).expect("edge endpoints are nodes") as u32;
        let mut g = Digraph::new(nodes.len());
        for (a, b) in &self.edges {
            if a.tag == tag && b.tag == tag {
                g.add(id(a), id(b));
            }
        }
        let cycle = g.find_cycle()?;
        Some(
            cycle
                .iter()
                .chain(cycle.first())
                .map(|&i| nodes[i as usize])
                .collect(),
        )
    }

    /// Merges another graph into this one (set union of nodes and edges).
    pub fn union_with(&mut self, other: &TaggedGraph) {
        self.nodes.extend(other.nodes.iter().copied());
        self.edges.extend(other.edges.iter().copied());
    }

    /// Returns a copy with every tag shifted by `offset` — the primitive
    /// behind multi-class tag sharing (§6).
    pub fn shifted(&self, offset: u16) -> TaggedGraph {
        let shift = |n: TaggedNode| TaggedNode {
            port: n.port,
            tag: Tag(n.tag.0 + offset),
        };
        TaggedGraph {
            nodes: self.nodes.iter().copied().map(shift).collect(),
            edges: self
                .edges
                .iter()
                .map(|&(a, b)| (shift(a), shift(b)))
                .collect(),
        }
    }

    /// Renders the graph as `(node) -> (node)` lines for debugging.
    pub fn dump(&self, topo: &Topology) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let pretty = |n: &TaggedNode| {
            format!(
                "({}:{},{})",
                topo.node(n.port.node).name,
                n.port.port,
                n.tag
            )
        };
        for n in &self.nodes {
            let _ = writeln!(s, "node {}", pretty(n));
        }
        for (a, b) in &self.edges {
            let _ = writeln!(s, "edge {} -> {}", pretty(a), pretty(b));
        }
        s
    }

    /// Convenience: node on `node`'s ingress from neighbor `from`, with
    /// `tag` — panics if not adjacent. For tests and examples.
    pub fn node_for(topo: &Topology, node: NodeId, from: NodeId, tag: Tag) -> TaggedNode {
        let port = topo
            .port_towards(node, from)
            .unwrap_or_else(|| panic!("{node} and {from} not adjacent"));
        TaggedNode {
            port: GlobalPort::new(node, port),
            tag,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_topo::{Layer, PortId};

    fn gp(node: u32, port: u16) -> GlobalPort {
        GlobalPort::new(NodeId(node), PortId(port))
    }

    fn tn(node: u32, port: u16, tag: u16) -> TaggedNode {
        TaggedNode {
            port: gp(node, port),
            tag: Tag(tag),
        }
    }

    #[test]
    fn empty_graph_verifies() {
        assert_eq!(TaggedGraph::new().verify(), Ok(()));
    }

    #[test]
    fn acyclic_monotone_graph_verifies() {
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        g.add_edge(tn(1, 0, 1), tn(2, 0, 2));
        g.add_edge(tn(2, 0, 2), tn(3, 0, 2));
        assert_eq!(g.verify(), Ok(()));
        assert_eq!(g.tags(), vec![Tag(1), Tag(2)]);
        assert_eq!(g.max_tag(), Some(Tag(2)));
    }

    #[test]
    fn cycle_within_tag_is_caught() {
        // The CBD of the paper's Figure 1: three switches in a ring, all
        // one tag.
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        g.add_edge(tn(1, 0, 1), tn(2, 0, 1));
        g.add_edge(tn(2, 0, 1), tn(0, 0, 1));
        match g.verify() {
            Err(VerifyError::CyclicTag(tag, cycle)) => {
                assert_eq!(tag, Tag(1));
                assert_eq!(cycle.first(), cycle.last());
                assert_eq!(cycle.len(), 4); // 3 nodes + repeat
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn tag_decrease_is_caught() {
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 2), tn(1, 0, 1));
        assert!(matches!(g.verify(), Err(VerifyError::TagDecrease(_, _))));
    }

    #[test]
    fn cycle_across_tags_is_fine_if_monotone_impossible() {
        // A "cycle" through increasing tags cannot exist: any closed walk
        // must come back down, which trips TagDecrease. Simulate: edges
        // 1->2, 2->1 on the same ports.
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(1, 0, 2));
        g.add_edge(tn(1, 0, 2), tn(0, 0, 1));
        assert!(matches!(g.verify(), Err(VerifyError::TagDecrease(_, _))));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(0, 0, 1));
        assert!(matches!(g.verify(), Err(VerifyError::CyclicTag(_, _))));
    }

    #[test]
    fn witness_cycle_is_a_real_cycle() {
        let mut g = TaggedGraph::new();
        // Two separate components; cycle in the second.
        g.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        g.add_edge(tn(5, 0, 1), tn(6, 0, 1));
        g.add_edge(tn(6, 0, 1), tn(7, 0, 1));
        g.add_edge(tn(7, 0, 1), tn(5, 0, 1));
        let cycle = g.find_cycle_in_tag(Tag(1)).expect("cycle exists");
        // Every consecutive pair is an edge.
        for w in cycle.windows(2) {
            assert!(g.contains_edge(&(w[0], w[1])), "{w:?} not an edge");
        }
    }

    #[test]
    fn witness_cycle_is_pinned() {
        // Start nodes ascending, out-edges in sorted order, first back
        // edge wins: the acyclic component and the dead-end branch
        // 2 -> 3 are walked and abandoned before the cycle 2 -> 4 -> 8
        // -> 2 is closed; the later cycle through 9 is never reached.
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        g.add_edge(tn(2, 0, 1), tn(3, 0, 1));
        g.add_edge(tn(2, 0, 1), tn(4, 0, 1));
        g.add_edge(tn(4, 0, 1), tn(8, 0, 1));
        g.add_edge(tn(4, 0, 1), tn(9, 0, 1));
        g.add_edge(tn(8, 0, 1), tn(2, 0, 1));
        g.add_edge(tn(9, 0, 1), tn(4, 0, 1));
        // Other tags do not take part.
        g.add_edge(tn(1, 0, 2), tn(0, 0, 2));
        g.add_edge(tn(0, 0, 2), tn(1, 0, 2));
        assert_eq!(
            g.find_cycle_in_tag(Tag(1)),
            Some(vec![tn(2, 0, 1), tn(4, 0, 1), tn(8, 0, 1), tn(2, 0, 1)])
        );
        assert_eq!(
            g.find_cycle_in_tag(Tag(2)),
            Some(vec![tn(0, 0, 2), tn(1, 0, 2), tn(0, 0, 2)])
        );
        assert_eq!(g.find_cycle_in_tag(Tag(3)), None);
    }

    #[test]
    fn shifted_preserves_structure() {
        let mut g = TaggedGraph::new();
        g.add_edge(tn(0, 0, 1), tn(1, 0, 2));
        let s = g.shifted(3);
        assert_eq!(s.tags(), vec![Tag(4), Tag(5)]);
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.verify(), Ok(()));
    }

    #[test]
    fn union_is_set_union() {
        let mut a = TaggedGraph::new();
        a.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        let mut b = TaggedGraph::new();
        b.add_edge(tn(0, 0, 1), tn(1, 0, 1));
        b.add_edge(tn(1, 0, 1), tn(2, 0, 2));
        a.union_with(&b);
        assert_eq!(a.num_edges(), 2);
        assert_eq!(a.num_nodes(), 3);
    }

    #[test]
    fn lossless_tag_count_excludes_hosts() {
        let mut topo = Topology::new();
        let h = topo.add_host("H1");
        let s1 = topo.add_switch("S1", Layer::Tor);
        let s2 = topo.add_switch("S2", Layer::Leaf);
        topo.connect(h, s1);
        topo.connect(s1, s2);
        topo.connect(s2, h); // host also reachable from s2 for the test
        let mut g = TaggedGraph::new();
        // tag 1 at s1 ingress, tag 2 at s2 ingress, tag 3 at host ingress.
        let n1 = TaggedGraph::node_for(&topo, s1, h, Tag(1));
        let n2 = TaggedGraph::node_for(&topo, s2, s1, Tag(2));
        let n3 = TaggedGraph::node_for(&topo, h, s2, Tag(3));
        g.add_edge(n1, n2);
        g.add_edge(n2, n3);
        assert_eq!(g.max_tag(), Some(Tag(3)));
        assert_eq!(g.num_lossless_tags(&topo), 2);
    }
}
