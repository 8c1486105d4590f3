//! The forwarding state the simulator reads per packet, compiled onto
//! dense ids.
//!
//! A [`Fib`] keys its routes by `(switch, destination)` in a `BTreeMap`
//! and a [`RuleSet`] nests two of them; both are built for the control
//! plane, which edits and diffs them. The simulator only asks "which
//! port" and "which tag" once per packet per hop, so it compiles each
//! into a table made for that question when it is handed one, and keeps
//! no other copy:
//!
//! - [`FibTable`]: one row per switch, indexed by destination, each entry
//!   a span of the equal-cost ports, picked by `hash % len` exactly as
//!   [`Fib::select`] does under [`EcmpMode::FlowHash`](tagger_routing::EcmpMode).
//! - [`RuleIndex`]: every rule's `(node, tag, in port, out port)` packed
//!   into one `u64` — the node and in port as the in port's dense *port
//!   slot*, the numbering the simulator's per-port tables use — and
//!   hashed with `tagger_core`'s
//!   [`TurnHasher`]. A dense `tags × ports²`
//!   array per switch is no faster and grows quadratically with the
//!   radix; the hash stays O(rules). The keys are ids of the simulated
//!   topology and its tags, so the default hasher's defence against
//!   chosen keys buys nothing.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use tagger_core::{RuleDelta, RuleSet, SwitchRule, Tag, TagDecision, TurnHasher};
use tagger_routing::Fib;
use tagger_topo::{NodeId, PortId, Topology};

/// Each node's first *port slot*, then the total port count: node `n`'s
/// port `p` is slot `bases[n] + p`, and `bases[n + 1] - bases[n]` is its
/// port count. The simulator keeps every per-port table on these slots.
pub(crate) fn port_bases(topo: &Topology) -> Vec<u32> {
    let mut bases = Vec::with_capacity(topo.num_nodes() + 1);
    let mut next = 0;
    bases.push(next);
    for n in topo.node_ids() {
        next += topo.node(n).num_ports() as u32;
        bases.push(next);
    }
    bases
}

/// Row of a node that has no FIB (a host).
const NO_ROW: u32 = u32::MAX;

/// A [`Fib`] compiled into per-switch rows indexed by destination.
#[derive(Clone, Debug)]
pub struct FibTable {
    /// Each node's row, or [`NO_ROW`] for hosts.
    row_of: Vec<u32>,
    /// `(start, len)` into `ports`, per `(row, destination)`: one column
    /// per node id.
    spans: Vec<(u32, u32)>,
    /// Every route's equal-cost ports, in the `Fib`'s order.
    ports: Vec<PortId>,
}

impl FibTable {
    /// Compiles the routes `fib` holds from every switch of `topo` to
    /// every host. Hosts get no row: a forwarding host follows pinned
    /// routes only.
    pub fn compile(topo: &Topology, fib: &Fib) -> FibTable {
        let width = topo.num_nodes();
        let mut row_of = vec![NO_ROW; width];
        let mut spans = Vec::new();
        let mut ports = Vec::new();
        for (row, sw) in topo.switch_ids().enumerate() {
            row_of[sw.index()] = row as u32;
            spans.resize(spans.len() + width, (0, 0));
            let base = row * width;
            for dst in topo.host_ids() {
                let route = fib.next_ports(sw, dst);
                spans[base + dst.index()] = (ports.len() as u32, route.len() as u32);
                ports.extend_from_slice(route);
            }
        }
        FibTable {
            row_of,
            spans,
            ports,
        }
    }

    /// The port `sw` forwards a packet for `dst` through, picked among the
    /// equal-cost ports by `flow_hash`; `None` if `sw` has no route (or is
    /// a host).
    #[inline]
    pub fn select(&self, sw: NodeId, dst: NodeId, flow_hash: u64) -> Option<PortId> {
        let row = self.row_of[sw.index()];
        if row == NO_ROW {
            return None;
        }
        let (start, len) = self.spans[row as usize * self.row_of.len() + dst.index()];
        if len == 0 {
            return None;
        }
        Some(self.ports[start as usize + flow_hash as usize % len as usize])
    }
}

/// A [`RuleSet`] over one topology as one hash table from packed match
/// keys to new tags.
///
/// A rule whose node or in port the topology lacks can match no packet,
/// so the index leaves it out and answers such a lookup lossy.
#[derive(Clone, Debug)]
pub struct RuleIndex {
    /// [`port_bases`] of the topology.
    port_base: Vec<u32>,
    rules: HashMap<u64, Tag, BuildHasherDefault<TurnHasher>>,
}

impl RuleIndex {
    /// The empty program on `topo`: every packet lossy.
    pub fn empty(topo: &Topology) -> RuleIndex {
        RuleIndex {
            port_base: port_bases(topo),
            rules: HashMap::default(),
        }
    }

    /// Indexes every rule of `rules` on `topo`, in one pass.
    pub fn compile(topo: &Topology, rules: &RuleSet) -> RuleIndex {
        let mut index = RuleIndex::empty(topo);
        index.rules.reserve(rules.num_rules());
        for (node, r) in rules.iter() {
            if let Some(key) = rule_key(&index.port_base, node, r.tag, r.in_port, r.out_port) {
                index.rules.insert(key, r.new_tag);
            }
        }
        index
    }

    /// The same verdict as [`RuleSet::decide`] on the compiled set.
    #[inline]
    pub fn decide(&self, node: NodeId, tag: Tag, in_port: PortId, out_port: PortId) -> TagDecision {
        let key = rule_key(&self.port_base, node, tag, in_port, out_port);
        match key.and_then(|k| self.rules.get(&k)) {
            Some(&new_tag) => TagDecision::Lossless(new_tag),
            None => TagDecision::Lossy,
        }
    }

    /// Applies one switch's delta as [`RuleSet::apply_delta`] does:
    /// withdrawals first, each only if its rewrite matches the installed
    /// one, then installs, which overwrite.
    pub fn apply_delta(&mut self, delta: &RuleDelta) {
        let key =
            |r: &SwitchRule| rule_key(&self.port_base, delta.switch, r.tag, r.in_port, r.out_port);
        for r in &delta.remove {
            if let Some(k) = key(r) {
                if self.rules.get(&k) == Some(&r.new_tag) {
                    self.rules.remove(&k);
                }
            }
        }
        for r in &delta.add {
            if let Some(k) = key(r) {
                self.rules.insert(k, r.new_tag);
            }
        }
    }
}

/// `(node, tag, in port, out port)` as one key, or `None` if `node` has no
/// port `in_port` (`port_base` is the topology's [`port_bases`]).
#[inline]
fn rule_key(
    port_base: &[u32],
    node: NodeId,
    tag: Tag,
    in_port: PortId,
    out_port: PortId,
) -> Option<u64> {
    let first = *port_base.get(node.index())?;
    let slot = first + u32::from(in_port.0);
    (slot < port_base[node.index() + 1])
        .then(|| (u64::from(slot) << 32) | (u64::from(out_port.0) << 16) | u64::from(tag.0))
}
