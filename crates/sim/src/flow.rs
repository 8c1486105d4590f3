//! Flow specifications and per-flow accounting.

use crate::event::SimTime;
use tagger_core::Tag;
use tagger_topo::{NodeId, PortId, Topology};

/// How a flow's packets are routed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Destination-based forwarding through the simulator's FIB, with
    /// per-flow ECMP hashing.
    Fib,
    /// Pinned to an explicit node path (must be loop-free); used to
    /// reproduce the paper's exact scenarios. Stored as the path's
    /// `(node, egress port)` hops, so any switch on the path knows where
    /// to send.
    Pinned(Vec<NodeId>),
}

/// A flow to inject: an RDMA-style long-lived transfer from `src` to
/// `dst`, sending fixed-size packets at line rate subject only to PFC.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Time the flow starts.
    pub start: SimTime,
    /// Routing mode.
    pub route: Route,
    /// Initial tag carried by the flow's packets (class initial tag;
    /// [`Tag::INITIAL`] for the single-class case).
    pub initial_tag: Tag,
    /// Optional total byte limit; `None` = run forever.
    pub limit_bytes: Option<u64>,
}

impl FlowSpec {
    /// A forever flow routed by the FIB starting at `start`.
    pub fn new(src: NodeId, dst: NodeId, start: SimTime) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            start,
            route: Route::Fib,
            initial_tag: Tag::INITIAL,
            limit_bytes: None,
        }
    }

    /// Pins the flow to an explicit path.
    pub fn pinned(mut self, path: Vec<NodeId>) -> FlowSpec {
        self.route = Route::Pinned(path);
        self
    }

    /// Caps the flow at a total byte count.
    pub fn with_limit(mut self, bytes: u64) -> FlowSpec {
        self.limit_bytes = Some(bytes);
        self
    }
}

/// Mutable per-flow state inside the simulator.
#[derive(Clone, Debug)]
pub(crate) struct FlowState {
    pub spec: FlowSpec,
    /// A pinned route's `(node, egress port)` hops, one per node, in
    /// path order; `None` for FIB routing.
    pub pinned_ports: Option<Vec<(NodeId, PortId)>>,
    pub started: bool,
    pub injected_bytes: u64,
    pub delivered_bytes: u64,
    pub delivered_packets: u64,
    pub ttl_drops: u64,
    /// Packets of this flow sacrificed by a watchdog drain (Drop policy).
    pub wd_drops: u64,
    /// Delivered bytes at the last sample tick (for the rate series).
    pub last_sample_bytes: u64,
    /// Rate series in bits/s, one entry per sample interval.
    pub rate_series: Vec<f64>,
}

impl FlowState {
    pub fn new(spec: FlowSpec, topo: &Topology) -> FlowState {
        let pinned_ports = match &spec.route {
            Route::Fib => None,
            Route::Pinned(path) => {
                let mut hops: Vec<(NodeId, PortId)> = Vec::with_capacity(path.len());
                for w in path.windows(2) {
                    let port = topo.port_towards(w[0], w[1]).unwrap_or_else(|| {
                        panic!("pinned path hop not adjacent: {} -> {}", w[0], w[1])
                    });
                    // A node the path revisits leaves by its last hop.
                    match hops.iter_mut().find(|(n, _)| *n == w[0]) {
                        Some(hop) => hop.1 = port,
                        None => hops.push((w[0], port)),
                    }
                }
                Some(hops)
            }
        };
        FlowState {
            spec,
            pinned_ports,
            started: false,
            injected_bytes: 0,
            delivered_bytes: 0,
            delivered_packets: 0,
            ttl_drops: 0,
            wd_drops: 0,
            last_sample_bytes: 0,
            rate_series: Vec::new(),
        }
    }

    /// The egress port the flow's pinned route takes at `node`; `None`
    /// if the route does not leave `node` or the flow is FIB-routed.
    #[inline]
    pub fn pinned_port(&self, node: NodeId) -> Option<PortId> {
        let hops = self.pinned_ports.as_deref()?;
        hops.iter().find(|&&(n, _)| n == node).map(|&(_, p)| p)
    }

    /// True if the flow has bytes left to inject at the given time.
    pub fn wants_to_send(&self, now: SimTime) -> bool {
        self.started
            && now >= self.spec.start
            && self
                .spec
                .limit_bytes
                .is_none_or(|limit| self.injected_bytes < limit)
    }
}

/// Per-flow results of a simulation run.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Flow id (index in insertion order).
    pub flow: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes delivered to the destination.
    pub delivered_bytes: u64,
    /// Packets delivered.
    pub delivered_packets: u64,
    /// Packets dropped on TTL expiry (routing loops).
    pub ttl_drops: u64,
    /// Packets sacrificed by a PFC-watchdog drain (Drop policy only; 0
    /// when the watchdog is off or demoting).
    pub wd_drops: u64,
    /// Goodput time series in bits/s, one entry per sample interval.
    pub rate_series: Vec<f64>,
}

impl FlowReport {
    /// Mean goodput over the last `n` samples, in bits/s.
    pub fn tail_rate(&self, n: usize) -> f64 {
        if self.rate_series.is_empty() {
            return 0.0;
        }
        let take = n.min(self.rate_series.len());
        let tail = &self.rate_series[self.rate_series.len() - take..];
        tail.iter().sum::<f64>() / take as f64
    }

    /// True if the flow made no progress over the last `n` samples while
    /// earlier samples show it did run — the throughput signature of a
    /// deadlock-paused flow (paper Fig. 10).
    pub fn stalled(&self, n: usize) -> bool {
        self.rate_series.len() > n && self.tail_rate(n) == 0.0 && self.delivered_bytes > 0
    }

    /// True if the flow delivered nothing over the last `n` samples —
    /// whether it ran before (a stall) or was frozen from birth by PAUSE
    /// propagation (paper Fig. 12).
    pub fn frozen(&self, n: usize) -> bool {
        !self.rate_series.is_empty() && self.tail_rate(n) == 0.0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn pinned_route_builds_next_hop_map() {
        let topo = ClosConfig::small().build();
        let path = ["H1", "T1", "L1", "S1", "L3", "T3", "H9"]
            .iter()
            .map(|n| topo.expect_node(n))
            .collect::<Vec<_>>();
        let spec = FlowSpec::new(path[0], path[6], 0).pinned(path.clone());
        let state = FlowState::new(spec, &topo);
        assert_eq!(state.pinned_ports.as_ref().unwrap().len(), 6);
        assert_eq!(
            state.pinned_port(topo.expect_node("T1")),
            topo.port_towards(topo.expect_node("T1"), topo.expect_node("L1"))
        );
        // The destination is not left through any port.
        assert_eq!(state.pinned_port(path[6]), None);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn pinned_route_rejects_non_adjacent() {
        let topo = ClosConfig::small().build();
        let bad = vec![topo.expect_node("H1"), topo.expect_node("S1")];
        let spec = FlowSpec::new(bad[0], bad[1], 0).pinned(bad.clone());
        FlowState::new(spec, &topo);
    }

    #[test]
    fn limit_gates_wants_to_send() {
        let topo = ClosConfig::small().build();
        let spec =
            FlowSpec::new(topo.expect_node("H1"), topo.expect_node("H9"), 10).with_limit(1000);
        let mut st = FlowState::new(spec, &topo);
        st.started = true;
        assert!(!st.wants_to_send(5)); // before start
        assert!(st.wants_to_send(10));
        st.injected_bytes = 1000;
        assert!(!st.wants_to_send(20));
    }

    #[test]
    fn stalled_detects_zero_tail() {
        let r = FlowReport {
            flow: 0,
            src: NodeId(0),
            dst: NodeId(1),
            delivered_bytes: 100,
            delivered_packets: 1,
            ttl_drops: 0,
            wd_drops: 0,
            rate_series: vec![1e9, 1e9, 0.0, 0.0, 0.0],
        };
        assert!(r.stalled(3));
        assert!(!r.stalled(5)); // window includes the running samples
        assert_eq!(r.tail_rate(2), 0.0);
    }
}
