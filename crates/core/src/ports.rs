//! Dense ids for the ports of a topology, shared by Algorithm 2's merge
//! guard and the oracle's dependency view.

use tagger_topo::{GlobalPort, Topology};

/// Dense indexing of every port in the topology, so the hot cycle-check
/// loop runs on integer ids instead of `GlobalPort` maps.
pub(crate) struct PortIndexer {
    offsets: Vec<u32>,
}

impl PortIndexer {
    pub(crate) fn new(topo: &Topology) -> Self {
        let mut offsets = Vec::with_capacity(topo.num_nodes() + 1);
        let mut acc = 0u32;
        for n in topo.node_ids() {
            offsets.push(acc);
            acc += topo.node(n).num_ports() as u32;
        }
        offsets.push(acc);
        PortIndexer { offsets }
    }

    pub(crate) fn total(&self) -> usize {
        // `offsets` always ends with the grand total pushed above.
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    pub(crate) fn pid(&self, p: GlobalPort) -> u32 {
        self.offsets[p.node.index()] + p.port.0 as u32
    }
}
