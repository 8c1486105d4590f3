//! Aggregated results of a simulation run.

use crate::deadlock::DeadlockReport;
use crate::event::SimTime;
use crate::flow::FlowReport;
use tagger_switch::{SwitchStats, WatchdogStats};
use tagger_topo::{NodeId, PortId};

/// One PFC-watchdog trip: the queue whose lossless service was suspended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogTripRecord {
    /// Time of the trip.
    pub at: SimTime,
    /// Switch owning the tripped queue.
    pub switch: NodeId,
    /// Egress port of the tripped queue.
    pub port: PortId,
    /// Lossless priority (= queue index) that tripped.
    pub prio: u8,
    /// True if the queue's own trigger attribution named itself as the
    /// episode origin at trip time ("I started this"); false when the
    /// pause was inherited from downstream — the victim trips that
    /// cause-directed recovery redirects.
    pub origin: bool,
}

/// DCFIT-style initial-trigger attribution for a deadlock episode: the
/// cycle member through which the pause storm entered, identified as the
/// SCC queue holding the *oldest* in-band pause claim (fewest relay hops
/// on ties) and cross-checked against the simulator's independent
/// first-pause log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriggerAttribution {
    /// Switch owning the trigger queue.
    pub switch: NodeId,
    /// Egress port of the trigger queue.
    pub port: PortId,
    /// Lossless priority of the trigger queue.
    pub prio: u8,
    /// Epoch of the pause claim the trigger queue held: when the
    /// *origin* of its claim entered PAUSE — the onset of the pause
    /// condition that seeded the episode (claims survive origin flaps
    /// via the `older()` refresh combinator).
    pub pause_epoch: SimTime,
    /// Hop count of the stamp the trigger queue held: 0 means the queue
    /// originated its own pause; >0 means it inherited pause from a
    /// queue *outside* the cycle (e.g. the incast tree below it) before
    /// the cycle closed through it.
    pub hops: u8,
    /// When the attribution was computed (the first watchdog tick with
    /// a confirmed SCC) — always at or before the first trip.
    pub attributed_at: SimTime,
    /// Cross-check against the simulator's independently tracked pause
    /// log: the claim's origin really entered pause at the claimed
    /// epoch, and no SCC member's surviving pause bout predates the
    /// claim (nothing the claim fails to explain seeded the cycle).
    pub matches_ground_truth: bool,
    /// The confirmed SCC membership at attribution time.
    pub scc: Vec<(NodeId, PortId, u8)>,
}

impl TriggerAttribution {
    /// The attributed queue as a `(switch, port, prio)` triple.
    pub fn queue(&self) -> (NodeId, PortId, u8) {
        (self.switch, self.port, self.prio)
    }
}

/// What the PFC watchdog did over a run (present only when armed).
#[derive(Clone, Debug, Default)]
pub struct WatchdogReport {
    /// Aggregate counters across every switch and queue.
    pub stats: WatchdogStats,
    /// Every trip, in time order.
    pub trips: Vec<WatchdogTripRecord>,
    /// Time of the first trip, if any.
    pub first_trip_at: Option<SimTime>,
    /// First watchdog poll after a trip at which the wait-for graph held
    /// no confirmed cycle — the bounded-recovery timestamp.
    pub cleared_at: Option<SimTime>,
    /// Initial-trigger attribution of the first deadlock episode, if
    /// one was confirmed.
    pub trigger: Option<TriggerAttribution>,
    /// Distinct deadlock episodes: confirmed-SCC empty→non-empty
    /// transitions across watchdog ticks. 2+ means a cycle re-formed
    /// after recovery.
    pub episodes: u64,
}

impl WatchdogReport {
    /// Detection latency: from the attributed trigger's pause entry to
    /// the first trip. `None` without both an attribution and a trip.
    pub fn time_to_detect(&self) -> Option<SimTime> {
        let t = self.trigger.as_ref()?;
        Some(self.first_trip_at?.saturating_sub(t.pause_epoch))
    }
}

/// Everything a simulation run produced.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-flow results, in flow-handle order.
    pub flows: Vec<FlowReport>,
    /// First persistent deadlock detected, if any.
    pub deadlock: Option<DeadlockReport>,
    /// Every switch's counters, summed: PAUSE/RESUME frames, lossy and
    /// lossless drops (lossless stays 0 unless thresholds or the
    /// transition are broken), forwards, trigger stamps and arrivals
    /// redirected past a watchdog-demoted queue.
    pub switch: SwitchStats,
    /// Packets dropped for lack of a route (blackholes).
    pub no_route_drops: u64,
    /// Times the detect-and-break recovery fired (0 unless
    /// [`crate::SimConfig::recovery`] is on).
    pub recoveries: u64,
    /// Lossless packets sacrificed by recovery flushes.
    pub recovery_drops: u64,
    /// Packets flushed from interfaces that lost carrier (link failures).
    pub link_down_drops: u64,
    /// PFC-watchdog activity; `None` when no watchdog was configured.
    pub watchdog: Option<WatchdogReport>,
    /// Sampled byte depths of the queues named in
    /// [`crate::SimConfig::track_queues`]: one row per sample tick, one
    /// column per tracked queue.
    pub queue_series: Vec<Vec<u64>>,
    /// Simulation horizon.
    pub end_time_ns: SimTime,
    /// Sample interval used for the rate series.
    pub sample_interval_ns: SimTime,
    /// Events the run loop dispatched — the denominator for events/sec
    /// benchmarking.
    pub events_processed: u64,
}

impl SimReport {
    /// Sum of delivered bytes over all flows.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.delivered_bytes).sum()
    }

    /// Mean aggregate goodput over the whole run, bits/s.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        self.total_delivered_bytes() as f64 * 8.0 / (self.end_time_ns as f64 / 1e9)
    }

    /// Number of flows whose goodput is zero over the last `n` samples
    /// despite having run before — the deadlock victim count.
    pub fn stalled_flows(&self, n: usize) -> usize {
        self.flows.iter().filter(|f| f.stalled(n)).count()
    }

    /// Number of flows delivering nothing over the last `n` samples,
    /// including flows frozen from birth by PAUSE propagation.
    pub fn frozen_flows(&self, n: usize) -> usize {
        self.flows.iter().filter(|f| f.frozen(n)).count()
    }

    /// Renders per-flow rate series as a TSV table (time in µs, rates in
    /// Gb/s) — what the bench binaries print for the paper's figures.
    pub fn rates_tsv(&self, labels: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("time_us");
        for (i, f) in self.flows.iter().enumerate() {
            let label = labels.get(i).copied().unwrap_or("");
            if label.is_empty() {
                let _ = write!(out, "\tflow{}", f.flow);
            } else {
                let _ = write!(out, "\t{label}");
            }
        }
        out.push('\n');
        let samples = self
            .flows
            .iter()
            .map(|f| f.rate_series.len())
            .max()
            .unwrap_or(0);
        for s in 0..samples {
            let t_us = (s as u64 + 1) * self.sample_interval_ns / 1_000;
            let _ = write!(out, "{t_us}");
            for f in &self.flows {
                let rate = f.rate_series.get(s).copied().unwrap_or(0.0) / 1e9;
                let _ = write!(out, "\t{rate:.2}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagger_topo::NodeId;

    fn flow(rates: Vec<f64>, delivered: u64) -> FlowReport {
        FlowReport {
            flow: 0,
            src: NodeId(0),
            dst: NodeId(1),
            delivered_bytes: delivered,
            delivered_packets: delivered / 1000,
            ttl_drops: 0,
            wd_drops: 0,
            rate_series: rates,
        }
    }

    #[test]
    fn aggregate_math() {
        let r = SimReport {
            flows: vec![flow(vec![1e9; 4], 1_000_000), flow(vec![2e9; 4], 2_000_000)],
            deadlock: None,
            switch: SwitchStats::default(),
            no_route_drops: 0,
            recoveries: 0,
            recovery_drops: 0,
            link_down_drops: 0,
            watchdog: None,
            queue_series: Vec::new(),
            end_time_ns: 1_000_000,
            sample_interval_ns: 250_000,
            events_processed: 0,
        };
        assert_eq!(r.total_delivered_bytes(), 3_000_000);
        assert!((r.aggregate_goodput_bps() - 24e9).abs() < 1e6);
        assert_eq!(r.stalled_flows(2), 0);
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let r = SimReport {
            flows: vec![flow(vec![40e9, 0.0], 1000)],
            deadlock: None,
            switch: SwitchStats::default(),
            no_route_drops: 0,
            recoveries: 0,
            recovery_drops: 0,
            link_down_drops: 0,
            watchdog: None,
            queue_series: Vec::new(),
            end_time_ns: 200_000,
            sample_interval_ns: 100_000,
            events_processed: 0,
        };
        let tsv = r.rates_tsv(&["green"]);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "time_us\tgreen");
        assert_eq!(lines[1], "100\t40.00");
        assert_eq!(lines[2], "200\t0.00");
    }
}
