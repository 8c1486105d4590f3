//! The port-level topology multigraph.

use crate::{GlobalPort, LinkId, NodeId, PortId};
use std::collections::BTreeMap;

/// Whether a node is an end host or a packet switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NodeKind {
    /// An end host (server). Sources and sinks traffic; never forwards.
    Host,
    /// A packet switch. Forwards traffic and runs the Tagger pipeline.
    Switch,
}

/// Topological layer of a node, used by up-down (valley-free) routing and
/// by the Clos-specific tagging construction.
///
/// Layers are ordered: `Host < Tor < Leaf < Spine`, and `Level(i)` slots
/// between them for layered topologies that are not Clos (e.g. BCube
/// switch levels). A hop is *up* if it increases the layer rank and *down*
/// if it decreases it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Layer {
    /// End-host layer (rank 0).
    Host,
    /// Top-of-rack switch layer (rank 1).
    Tor,
    /// Leaf / aggregation switch layer (rank 2).
    Leaf,
    /// Spine / core switch layer (rank 3).
    Spine,
    /// Generic layered rank for non-Clos topologies (rank `1 + i`).
    Level(u8),
    /// No layer information (e.g. Jellyfish switches). Up-down routing is
    /// undefined over unranked nodes.
    Flat,
}

impl Layer {
    /// Numeric rank used to classify hops as up/down. `None` for [`Layer::Flat`].
    pub fn rank(self) -> Option<u8> {
        match self {
            Layer::Host => Some(0),
            Layer::Tor => Some(1),
            Layer::Leaf => Some(2),
            Layer::Spine => Some(3),
            Layer::Level(i) => Some(1 + i),
            Layer::Flat => None,
        }
    }
}

/// A node in the topology: a host or switch with a set of ports.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable name, e.g. `"L3"` or `"H12"`. Unique per topology.
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
    /// Layer used by up-down routing; `Flat` if not applicable.
    pub layer: Layer,
    /// For each port (by index), the link attached to it, if any.
    ports: Vec<Option<LinkId>>,
}

impl Node {
    /// Number of ports allocated on this node (wired or not).
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The link attached to `port`, if the port exists and is wired.
    pub fn link_at(&self, port: PortId) -> Option<LinkId> {
        self.ports.get(port.index()).copied().flatten()
    }
}

/// A full-duplex point-to-point link between two node ports.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: GlobalPort,
    /// The other endpoint.
    pub b: GlobalPort,
    /// Line rate in bits per second (each direction).
    pub capacity_bps: u64,
    /// One-way propagation delay in nanoseconds.
    pub latency_ns: u64,
}

impl Link {
    /// Given one endpoint's node, returns the endpoint on the *other* node.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of this link.
    pub fn opposite(&self, node: NodeId) -> GlobalPort {
        if self.a.node == node {
            self.b
        } else if self.b.node == node {
            self.a
        } else {
            panic!("node {node} is not an endpoint of this link");
        }
    }

    /// The endpoint that sits on `node`.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of this link.
    pub fn endpoint_on(&self, node: NodeId) -> GlobalPort {
        if self.a.node == node {
            self.a
        } else if self.b.node == node {
            self.b
        } else {
            panic!("node {node} is not an endpoint of this link");
        }
    }

    /// True if `node` is one of the two endpoints.
    pub fn touches(&self, node: NodeId) -> bool {
        self.a.node == node || self.b.node == node
    }
}

/// Default link capacity used by builders: 40 Gb/s, matching the paper's
/// Arista 7060 / ConnectX-3 Pro testbed.
pub(crate) const DEFAULT_CAPACITY_BPS: u64 = 40_000_000_000;

/// Default one-way link latency used by builders: 1 µs.
pub(crate) const DEFAULT_LATENCY_NS: u64 = 1_000;

/// A port-level multigraph of hosts, switches and point-to-point links.
///
/// Construction is incremental: add nodes with [`Topology::add_node`] (or a
/// convenience wrapper), then wire them with [`Topology::connect`]. Ports
/// are allocated in call order, so builders produce deterministic port
/// numbering — important because tagging rules and TCAM entries are keyed
/// by port.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: BTreeMap<String, NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    /// Panics if `name` is already taken — builder bugs should fail fast.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind, layer: Layer) -> NodeId {
        let name = name.into();
        let id = NodeId(self.nodes.len() as u32);
        let prev = self.by_name.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate node name {name:?}");
        self.nodes.push(Node {
            name,
            kind,
            layer,
            ports: Vec::new(),
        });
        id
    }

    /// Adds a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Host, Layer::Host)
    }

    /// Adds a switch node at `layer`.
    pub fn add_switch(&mut self, name: impl Into<String>, layer: Layer) -> NodeId {
        self.add_node(name, NodeKind::Switch, layer)
    }

    /// Wires a new link between `a` and `b` with default capacity/latency,
    /// allocating the next free port on each side.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.connect_with(a, b, DEFAULT_CAPACITY_BPS, DEFAULT_LATENCY_NS)
    }

    /// Wires a new link between `a` and `b` with explicit capacity and
    /// latency, allocating the next free port on each side.
    ///
    /// # Panics
    /// Panics on self-links; parallel links between the same node pair are
    /// allowed (they use distinct ports).
    pub fn connect_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: u64,
        latency_ns: u64,
    ) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let link = LinkId(self.links.len() as u32);
        let pa = self.alloc_port(a, link);
        let pb = self.alloc_port(b, link);
        self.links.push(Link {
            a: GlobalPort::new(a, pa),
            b: GlobalPort::new(b, pb),
            capacity_bps,
            latency_ns,
        });
        link
    }

    fn alloc_port(&mut self, node: NodeId, link: LinkId) -> PortId {
        let ports = &mut self.nodes[node.index()].ports;
        let id = PortId(ports.len() as u16);
        ports.push(Some(link));
        id
    }

    /// Number of nodes (hosts + switches).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of switch nodes.
    pub fn num_switches(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .count()
    }

    /// Number of host nodes.
    pub fn num_hosts(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .count()
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with id `id`.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks a node up by name, panicking with a useful message if missing.
    ///
    /// Intended for tests and experiment harnesses where the name is known
    /// to exist by construction.
    pub fn expect_node(&self, name: &str) -> NodeId {
        self.node_by_name(name)
            .unwrap_or_else(|| panic!("no node named {name:?}"))
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all switch node ids in insertion order.
    pub fn switch_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|&n| self.node(n).kind == NodeKind::Switch)
    }

    /// The first switch without a layer rank ([`Layer::Flat`]), if any —
    /// `None` when up-down routing and the layered construction apply.
    pub fn unranked_switch(&self) -> Option<NodeId> {
        self.switch_ids()
            .find(|&s| self.node(s).layer.rank().is_none())
    }

    /// Iterates over all host node ids in insertion order.
    pub fn host_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|&n| self.node(n).kind == NodeKind::Host)
    }

    /// Iterates over all link ids in insertion order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Iterates over `(port, link, neighbor)` triples for every wired port
    /// of `node`, in port order.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (PortId, LinkId, NodeId)> + '_ {
        self.nodes[node.index()]
            .ports
            .iter()
            .enumerate()
            .filter_map(move |(i, l)| {
                l.map(|link| {
                    let other = self.links[link.index()].opposite(node);
                    (PortId(i as u16), link, other.node)
                })
            })
    }

    /// The hop `a → b`: the lowest-numbered port of `a` that leads to `b`
    /// and the link it is wired to, if the nodes are adjacent. Every
    /// translation of a node pair into a port goes through here, so a hop
    /// over parallel links means the same port everywhere.
    pub fn hop(&self, a: NodeId, b: NodeId) -> Option<(PortId, LinkId)> {
        self.neighbors(a)
            .find(|&(_, _, n)| n == b)
            .map(|(p, l, _)| (p, l))
    }

    /// The two ends of the hop `a → b` as [`Topology::hop`] resolves it:
    /// the egress port on `a` and the ingress port on `b`.
    ///
    /// # Panics
    /// Panics if the nodes are not adjacent: for hops of paths and rules
    /// already validated against this topology.
    pub fn hop_ends(&self, a: NodeId, b: NodeId) -> (GlobalPort, GlobalPort) {
        let (port, link) = self
            .hop(a, b)
            .unwrap_or_else(|| panic!("hop {a}->{b} not in topology"));
        (GlobalPort::new(a, port), self.link(link).endpoint_on(b))
    }

    /// The link joining `a` and `b`, if any: the one [`Topology::hop`]
    /// takes.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.hop(a, b).map(|(_, l)| l)
    }

    /// The port on `a` that leads to `b`, if the nodes are adjacent: the
    /// one [`Topology::hop`] takes.
    pub fn port_towards(&self, a: NodeId, b: NodeId) -> Option<PortId> {
        self.hop(a, b).map(|(p, _)| p)
    }

    /// The node on the far side of `port`, if the port is wired.
    pub fn peer_of(&self, port: GlobalPort) -> Option<GlobalPort> {
        let link = self.node(port.node).link_at(port.port)?;
        Some(self.link(link).opposite(port.node))
    }

    /// True if the hop `from → to` goes up the layer hierarchy.
    ///
    /// Returns `false` (not a panic) for unranked nodes; Jellyfish-style
    /// flat topologies simply have no up/down structure.
    pub fn is_up_hop(&self, from: NodeId, to: NodeId) -> bool {
        match (self.node(from).layer.rank(), self.node(to).layer.rank()) {
            (Some(f), Some(t)) => t > f,
            _ => false,
        }
    }

    /// True if the hop `from → to` goes down the layer hierarchy.
    pub fn is_down_hop(&self, from: NodeId, to: NodeId) -> bool {
        match (self.node(from).layer.rank(), self.node(to).layer.rank()) {
            (Some(f), Some(t)) => t < f,
            _ => false,
        }
    }

    /// The host attached to a ToR switch port, walked the other way: for a
    /// host `h`, returns the switch it is attached to (first wired port).
    pub fn attached_switch(&self, host: NodeId) -> Option<NodeId> {
        debug_assert_eq!(self.node(host).kind, NodeKind::Host);
        self.neighbors(host)
            .map(|(_, _, n)| n)
            .find(|&n| self.node(n).kind == NodeKind::Switch)
    }

    /// Validates internal consistency (ports ↔ links agree). Used by tests
    /// and builders; cheap enough to run after construction.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, link) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            for gp in [link.a, link.b] {
                let node = self
                    .nodes
                    .get(gp.node.index())
                    .ok_or_else(|| format!("{id}: endpoint node {} out of range", gp.node))?;
                match node.ports.get(gp.port.index()) {
                    Some(Some(l)) if *l == id => {}
                    other => {
                        return Err(format!(
                            "{id}: port {gp} does not point back (found {other:?})"
                        ))
                    }
                }
            }
            if link.a.node == link.b.node {
                return Err(format!("{id}: self-link on {}", link.a.node));
            }
        }
        for (ni, node) in self.nodes.iter().enumerate() {
            for (pi, l) in node.ports.iter().enumerate() {
                if let Some(l) = l {
                    let link = self
                        .links
                        .get(l.index())
                        .ok_or_else(|| format!("n{ni}:p{pi}: link {l} out of range"))?;
                    if !link.touches(NodeId(ni as u32)) {
                        return Err(format!("n{ni}:p{pi}: link {l} does not touch node"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_switch("A", Layer::Flat);
        let b = t.add_switch("B", Layer::Flat);
        let c = t.add_switch("C", Layer::Flat);
        t.connect(a, b);
        t.connect(b, c);
        t.connect(c, a);
        (t, a, b, c)
    }

    #[test]
    fn connect_allocates_ports_in_order() {
        let (t, a, b, c) = triangle();
        // A's port 0 goes to B (first connect), port 1 to C (third connect).
        assert_eq!(t.port_towards(a, b), Some(PortId(0)));
        assert_eq!(t.port_towards(a, c), Some(PortId(1)));
        assert_eq!(t.port_towards(b, a), Some(PortId(0)));
        assert_eq!(t.port_towards(b, c), Some(PortId(1)));
        t.check_consistency().unwrap();
    }

    #[test]
    fn neighbors_lists_all_adjacent() {
        let (t, a, b, c) = triangle();
        let ns: Vec<NodeId> = t.neighbors(a).map(|(_, _, n)| n).collect();
        assert_eq!(ns, vec![b, c]);
    }

    #[test]
    fn peer_of_round_trips() {
        let (t, a, b, _) = triangle();
        let pa = GlobalPort::new(a, t.port_towards(a, b).unwrap());
        let pb = t.peer_of(pa).unwrap();
        assert_eq!(pb.node, b);
        assert_eq!(t.peer_of(pb).unwrap(), pa);
    }

    #[test]
    fn up_down_hops_follow_layer_ranks() {
        let mut t = Topology::new();
        let h = t.add_host("H1");
        let tor = t.add_switch("T1", Layer::Tor);
        let leaf = t.add_switch("L1", Layer::Leaf);
        let spine = t.add_switch("S1", Layer::Spine);
        t.connect(h, tor);
        t.connect(tor, leaf);
        t.connect(leaf, spine);
        assert!(t.is_up_hop(h, tor));
        assert!(t.is_up_hop(tor, leaf));
        assert!(t.is_up_hop(leaf, spine));
        assert!(t.is_down_hop(spine, leaf));
        assert!(!t.is_up_hop(spine, leaf));
        // Flat nodes are never up/down.
        let f = t.add_switch("F", Layer::Flat);
        t.connect(f, spine);
        assert!(!t.is_up_hop(f, spine));
        assert!(!t.is_down_hop(f, spine));
    }

    #[test]
    fn parallel_links_use_distinct_ports() {
        let mut t = Topology::new();
        let a = t.add_switch("A", Layer::Flat);
        let b = t.add_switch("B", Layer::Flat);
        let l0 = t.connect(a, b);
        let l1 = t.connect(a, b);
        assert_ne!(l0, l1);
        assert_eq!(t.node(a).num_ports(), 2);
        t.check_consistency().unwrap();
        // Every resolver picks the same (lowest-numbered) one.
        assert_eq!(t.hop(a, b), Some((PortId(0), l0)));
        assert_eq!(t.hop_ends(a, b), (t.link(l0).a, t.link(l0).b));
        assert_eq!(t.link_between(a, b), Some(l0));
        assert_eq!(t.port_towards(b, a), Some(PortId(0)));
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_host("H1");
        t.add_host("H1");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_panic() {
        let mut t = Topology::new();
        let a = t.add_switch("A", Layer::Flat);
        t.connect(a, a);
    }

    #[test]
    fn attached_switch_finds_tor() {
        let mut t = Topology::new();
        let h = t.add_host("H1");
        let tor = t.add_switch("T1", Layer::Tor);
        t.connect(h, tor);
        assert_eq!(t.attached_switch(h), Some(tor));
    }

    #[test]
    fn expect_node_finds_by_name() {
        let (t, a, _, _) = triangle();
        assert_eq!(t.expect_node("A"), a);
        assert_eq!(t.node_by_name("missing"), None);
    }
}
