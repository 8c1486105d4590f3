//! Structural deadlock detection over live PFC state.
//!
//! A PFC deadlock is a cycle of *gated* queues each waiting on the next:
//! egress queue `Q = (switch, port, prio)` is gated by a PAUSE from its
//! downstream neighbor; that neighbor's congested ingress drains through
//! its own egress queues; if those are gated too, follow the chain. A
//! cycle means nobody can ever make progress — the paper's Figure 3
//! situation frozen in the simulator's state.

use crate::event::SimTime;
use std::collections::BTreeMap;
use tagger_core::digraph::Digraph;
use tagger_switch::SwitchState;
use tagger_topo::{NodeId, PortId, Topology};

/// A detected deadlock: when, and the cycle of gated queues.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Simulation time of (persistent) detection.
    pub detected_at: SimTime,
    /// The witness cycle of `(switch, egress port, priority)` queues.
    pub cycle: Vec<(NodeId, PortId, u8)>,
}

/// A gated lossless egress queue: `(switch, egress port, priority)`.
pub(crate) type Q = (NodeId, PortId, u8);

/// Builds the wait-for graph over the current PFC state: one node per
/// gated, non-empty lossless egress queue, one edge per "the packets I
/// hold drain into a downstream queue that is itself gated" dependency.
/// `switches` holds the data planes in node order: entry `i` is node
/// `i`'s, and a node past its end has none.
fn wait_edges(topo: &Topology, switches: &[SwitchState]) -> BTreeMap<Q, Vec<Q>> {
    let mut edges: BTreeMap<Q, Vec<Q>> = BTreeMap::new();
    for (i, sw) in switches.iter().enumerate() {
        let node = NodeId(i as u32);
        let nl = sw.config().num_lossless;
        for port in 0..sw.num_ports() as u16 {
            let port = PortId(port);
            for prio in 0..nl {
                if !sw.is_tx_paused(port, prio) || sw.queue_depth_bytes(port, prio) == 0 {
                    continue;
                }
                let q: Q = (node, port, prio);
                // The downstream neighbor that paused us.
                let Some(peer) = topo.peer_of(tagger_topo::GlobalPort::new(node, port)) else {
                    continue;
                };
                let Some(down) = switches.get(peer.node.index()) else {
                    continue; // host paused us: no onward dependency
                };
                // Packets accounted at the downstream's congested ingress
                // (peer.port, prio) sit in its egress queues; gated ones
                // are what we're waiting on.
                let mut deps: Vec<Q> = Vec::new();
                for qp in down.queued_packets() {
                    if qp.in_port == peer.port && qp.ingress_prio == Some(prio) {
                        let eq = (peer.node, qp.out_port, qp.egress_queue);
                        if (qp.egress_queue) < down.config().num_lossless
                            && down.is_tx_paused(qp.out_port, qp.egress_queue)
                            && !deps.contains(&eq)
                        {
                            deps.push(eq);
                        }
                    }
                }
                edges.insert(q, deps);
            }
        }
    }
    edges
}

/// The wait-for graph on dense ids for the acyclicity kernel: the gated
/// queues in sorted order (a queue's id is its rank) and one edge per
/// wait on another gated queue, in the order [`wait_edges`] found them.
fn wait_graph(topo: &Topology, switches: &[SwitchState]) -> (Vec<Q>, Digraph) {
    let edges = wait_edges(topo, switches);
    let nodes: Vec<Q> = edges.keys().copied().collect();
    let mut g = Digraph::new(nodes.len());
    for (u, deps) in edges.values().enumerate() {
        for d in deps {
            if let Ok(v) = nodes.binary_search(d) {
                g.add(u as u32, v as u32);
            }
        }
    }
    (nodes, g)
}

/// Searches the current PFC state for a cycle of mutually-waiting gated
/// queues. Returns a witness cycle if one exists.
pub(crate) fn detect_deadlock(
    topo: &Topology,
    switches: &[SwitchState],
) -> Option<Vec<(NodeId, PortId, u8)>> {
    let (nodes, g) = wait_graph(topo, switches);
    let cycle = g.find_cycle()?;
    Some(cycle.into_iter().map(|i| nodes[i as usize]).collect())
}

/// The **full membership** of every circular wait: all queues sitting on
/// some cycle of the wait-for graph (a non-trivial strongly connected
/// component, or a self-loop), not just one witness cycle. This is the
/// watchdog's in-band cycle confirmation: a queue paused past the window
/// but absent from this set is congested, not deadlocked, and must not
/// be demoted.
pub(crate) fn deadlocked_queues(
    topo: &Topology,
    switches: &[SwitchState],
) -> std::collections::BTreeSet<Q> {
    let (nodes, g) = wait_graph(topo, switches);
    g.cyclic_members()
        .into_iter()
        .map(|i| nodes[i as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagger_switch::{Packet, PacketId, PfcFrame, SwitchConfig, TransitionMode};
    use tagger_topo::{Layer, Topology};

    /// A stampless priority-0 PAUSE.
    fn pause0() -> PfcFrame {
        PfcFrame::Pause {
            priority: 0,
            trigger: None,
        }
    }

    /// Hand-build a two-switch mutual pause and check the detector sees
    /// the 2-cycle.
    #[test]
    fn detects_two_switch_cycle() {
        let mut topo = Topology::new();
        let a = topo.add_switch("A", Layer::Flat);
        let b = topo.add_switch("B", Layer::Flat);
        topo.connect(a, b); // port 0 on both
        let h1 = topo.add_host("H1");
        let h2 = topo.add_host("H2");
        topo.connect(h1, a); // a port 1
        topo.connect(h2, b); // b port 1

        let cfg = SwitchConfig {
            num_lossless: 1,
            xoff_bytes: 1_500,
            xon_bytes: 500,
            ..SwitchConfig::default()
        };
        let mut swa = SwitchState::new(a, 2, cfg);
        let mut swb = SwitchState::new(b, 2, cfg);
        let pkt = |id: u64, dst: NodeId| Packet::new(PacketId(id), 0, dst, 1_000);

        // A holds packets from B (in port 0) destined back out port 0;
        // B symmetric. Each pauses the other.
        for i in 0..2 {
            swa.admit(
                PortId(0),
                PortId(0),
                Some(tagger_core::Tag(1)),
                pkt(i, h2),
                TransitionMode::EgressByNewTag,
            );
            swb.admit(
                PortId(0),
                PortId(0),
                Some(tagger_core::Tag(1)),
                pkt(10 + i, h1),
                TransitionMode::EgressByNewTag,
            );
        }
        // Both crossed Xoff (2000 > 1500) and want to pause the peer.
        assert!(!swa.take_emitted_pfc().is_empty());
        assert!(!swb.take_emitted_pfc().is_empty());
        swa.on_pfc(PortId(0), pause0(), 0);
        swb.on_pfc(PortId(0), pause0(), 0);

        let switches = [swa, swb];
        let cycle = detect_deadlock(&topo, &switches).expect("deadlock");
        assert_eq!(cycle.len(), 2);
    }

    /// A 3-switch ring A→B→C→A of gated queues: the witness cycle has
    /// all three hops, and [`deadlocked_queues`] returns exactly the
    /// ring — a stuck queue that merely dead-ends at a pausing host is
    /// *not* reported, because it sits on no circular wait.
    #[test]
    fn three_switch_cycle_full_membership() {
        let mut topo = Topology::new();
        let a = topo.add_switch("A", Layer::Flat);
        let b = topo.add_switch("B", Layer::Flat);
        let c = topo.add_switch("C", Layer::Flat);
        topo.connect(a, b); // a0 <-> b0
        topo.connect(b, c); // b1 <-> c0
        topo.connect(c, a); // c1 <-> a1
        let ha = topo.add_host("HA");
        topo.connect(ha, a); // a2

        let cfg = SwitchConfig {
            num_lossless: 1,
            xoff_bytes: 1_500,
            xon_bytes: 500,
            ..SwitchConfig::default()
        };
        let mut swa = SwitchState::new(a, 3, cfg);
        let mut swb = SwitchState::new(b, 2, cfg);
        let mut swc = SwitchState::new(c, 2, cfg);
        let pkt = |id: u64| Packet::new(PacketId(id), 0, ha, 1_000);
        // Around the ring: each switch holds traffic that arrived from
        // its upstream and drains toward its gated downstream.
        for i in 0..2 {
            swa.admit(
                PortId(1),
                PortId(0),
                Some(tagger_core::Tag(1)),
                pkt(i),
                TransitionMode::EgressByNewTag,
            );
            swb.admit(
                PortId(0),
                PortId(1),
                Some(tagger_core::Tag(1)),
                pkt(10 + i),
                TransitionMode::EgressByNewTag,
            );
            swc.admit(
                PortId(0),
                PortId(1),
                Some(tagger_core::Tag(1)),
                pkt(20 + i),
                TransitionMode::EgressByNewTag,
            );
        }
        swa.on_pfc(PortId(0), pause0(), 0);
        swb.on_pfc(PortId(1), pause0(), 0);
        swc.on_pfc(PortId(1), pause0(), 0);
        // An unrelated stuck queue: A's uplink to the host is paused and
        // non-empty, but the wait dead-ends at the host.
        swa.admit(
            PortId(1),
            PortId(2),
            Some(tagger_core::Tag(1)),
            pkt(30),
            TransitionMode::EgressByNewTag,
        );
        swa.on_pfc(PortId(2), pause0(), 0);

        let switches = [swa, swb, swc];

        let cycle = detect_deadlock(&topo, &switches).expect("deadlock");
        // The witness starts at the smallest queue on the cycle and
        // follows the waits: A waits on B waits on C (waits on A).
        assert_eq!(
            cycle,
            vec![(a, PortId(0), 0), (b, PortId(1), 0), (c, PortId(1), 0)],
            "witness carries every hop, in wait order"
        );
        let members = deadlocked_queues(&topo, &switches);
        let expect: std::collections::BTreeSet<Q> =
            [(a, PortId(0), 0), (b, PortId(1), 0), (c, PortId(1), 0)]
                .into_iter()
                .collect();
        assert_eq!(members, expect);
        assert!(
            !members.contains(&(a, PortId(2), 0)),
            "host-gated queue is stuck but not on a cycle"
        );
        assert!(cycle.iter().all(|q| members.contains(q)));
    }

    #[test]
    fn no_deadlock_when_one_side_can_drain() {
        let mut topo = Topology::new();
        let a = topo.add_switch("A", Layer::Flat);
        let b = topo.add_switch("B", Layer::Flat);
        topo.connect(a, b);
        let h = topo.add_host("H");
        topo.connect(h, b); // b port 1

        let cfg = SwitchConfig {
            num_lossless: 1,
            xoff_bytes: 1_500,
            xon_bytes: 500,
            ..SwitchConfig::default()
        };
        let mut swa = SwitchState::new(a, 1, cfg);
        let swb = SwitchState::new(b, 2, cfg);
        // A has a gated queue toward B, but B's ingress is empty: the
        // dependency dead-ends and no cycle exists.
        swa.admit(
            PortId(0),
            PortId(0),
            Some(tagger_core::Tag(1)),
            Packet::new(PacketId(1), 0, h, 1_000),
            TransitionMode::EgressByNewTag,
        );
        swa.on_pfc(PortId(0), pause0(), 0);
        let switches = [swa, swb];
        assert!(detect_deadlock(&topo, &switches).is_none());
        assert!(deadlocked_queues(&topo, &switches).is_empty());
    }
}
