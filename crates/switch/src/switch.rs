//! The switch state machine: queues, PFC accounting, Tagger pipeline.

use crate::{Packet, SwitchConfig, TriggerStamp};
use std::collections::VecDeque;
use tagger_core::Tag;
use tagger_topo::{NodeId, PortId};

/// A PFC frame emitted or received on a specific port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PfcFrame {
    /// Stop sending the given priority on this link.
    Pause {
        /// Priority class to pause (queue index).
        priority: u8,
        /// DCFIT trigger metadata riding the frame: `None` when the
        /// emitter paused out of its own ingress congestion (it *is*
        /// the origin), `Some` when the emitter is itself blocked on a
        /// downstream PAUSE and forwards the oldest stamp it holds.
        trigger: Option<TriggerStamp>,
    },
    /// Resume sending the given priority.
    Resume {
        /// Priority class to resume.
        priority: u8,
    },
}

/// Where a forwarded packet is enqueued relative to its tag rewrite —
/// the priority-transition behaviour of paper Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionMode {
    /// Correct behaviour (Fig. 8b): egress queue matches the *new* tag,
    /// so a downstream PAUSE for the new priority gates the right queue.
    EgressByNewTag,
    /// Default ASIC behaviour before the fix (Fig. 8a): egress queue
    /// matches the *arriving* tag. Downstream PAUSEs for the new priority
    /// gate nothing, and lossless packets can be dropped. Kept for the
    /// reproduction of that failure mode.
    EgressByOldTag,
}

/// A packet held in an egress queue, remembering the ingress accounting
/// it must release on departure.
#[derive(Clone, Copy, Debug)]
pub struct QueuedPacket {
    /// The packet (tag already rewritten).
    pub packet: Packet,
    /// Port it arrived on.
    pub in_port: PortId,
    /// Lossless ingress priority it is accounted under, or `None` if it
    /// arrived lossy (no PFC accounting).
    pub ingress_prio: Option<u8>,
    /// Egress queue index it sits in.
    pub egress_queue: u8,
    /// Egress port.
    pub out_port: PortId,
}

/// What happened to an admitted packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Enqueued at the given egress queue.
    Enqueued {
        /// Queue index at the egress port.
        egress_queue: u8,
    },
    /// Lossy queue was full: tail-dropped. Normal under overload.
    DroppedLossyFull,
    /// Shared buffer exhausted and the packet was lossless: this is the
    /// failure PFC exists to prevent — it indicates misconfigured
    /// thresholds or the Fig. 8(a) transition bug.
    DroppedBufferFull,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets forwarded (dequeued toward a link).
    pub forwarded: u64,
    /// Lossy tail drops.
    pub lossy_drops: u64,
    /// Lossless drops (buffer exhaustion — should stay 0 when configured
    /// correctly).
    pub lossless_drops: u64,
    /// PAUSE frames emitted.
    pub pauses_sent: u64,
    /// RESUME frames emitted.
    pub resumes_sent: u64,
    /// Arrivals redirected to the lossy class because their lossless
    /// queue was watchdog-demoted.
    pub demoted_redirects: u64,
    /// Packets enqueued carrying an in-band trigger stamp (behind a
    /// PAUSE-gated queue).
    pub trigger_stamps: u64,
}

impl std::ops::AddAssign for SwitchStats {
    fn add_assign(&mut self, rhs: SwitchStats) {
        self.forwarded += rhs.forwarded;
        self.lossy_drops += rhs.lossy_drops;
        self.lossless_drops += rhs.lossless_drops;
        self.pauses_sent += rhs.pauses_sent;
        self.resumes_sent += rhs.resumes_sent;
        self.demoted_redirects += rhs.demoted_redirects;
        self.trigger_stamps += rhs.trigger_stamps;
    }
}

impl std::iter::Sum for SwitchStats {
    fn sum<I: Iterator<Item = SwitchStats>>(iter: I) -> SwitchStats {
        iter.fold(SwitchStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// The state of one switch.
#[derive(Clone, Debug)]
pub struct SwitchState {
    node: NodeId,
    cfg: SwitchConfig,
    nports: usize,
    /// Ingress PFC accounting, `[port * num_lossless + prio]`.
    ingress_occ: Vec<u64>,
    /// True if we have PAUSEd our upstream on `(port, prio)`.
    pause_sent: Vec<bool>,
    /// True if our downstream PAUSEd us on `(egress port, prio)`.
    tx_paused: Vec<bool>,
    /// Egress queues, `[port * queues_per_port + queue]`.
    queues: Vec<VecDeque<QueuedPacket>>,
    /// Byte occupancy per egress queue (parallel to `queues`).
    queue_bytes: Vec<u64>,
    /// Total buffered bytes.
    total_bytes: u64,
    /// True if the lossless queue `(port, prio)` is watchdog-demoted to
    /// the lossy class, `[port * num_lossless + prio]`.
    demoted: Vec<bool>,
    /// Trigger attribution held for each tx-paused egress queue,
    /// `[port * num_lossless + prio]`; `None` while the queue is not
    /// paused.
    tx_trigger: Vec<Option<TriggerStamp>>,
    /// When each egress queue last entered the tx-paused state (driving
    /// clock units), `[port * num_lossless + prio]`.
    pause_entered: Vec<Option<u64>>,
    /// Per-port round-robin pointer over queues.
    rr: Vec<usize>,
    /// PFC frames generated since the last drain.
    emitted: Vec<(PortId, PfcFrame)>,
    /// Counters.
    pub stats: SwitchStats,
}

impl SwitchState {
    /// Creates the switch with `nports` ports.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(node: NodeId, nports: usize, cfg: SwitchConfig) -> SwitchState {
        cfg.validate().expect("invalid switch config");
        let qpp = cfg.queues_per_port();
        let nl = cfg.num_lossless as usize;
        SwitchState {
            node,
            cfg,
            nports,
            ingress_occ: vec![0; nports * nl],
            pause_sent: vec![false; nports * nl],
            tx_paused: vec![false; nports * nl],
            queues: vec![VecDeque::new(); nports * qpp],
            queue_bytes: vec![0; nports * qpp],
            total_bytes: 0,
            demoted: vec![false; nports * nl],
            tx_trigger: vec![None; nports * nl],
            pause_entered: vec![None; nports * nl],
            rr: vec![0; nports],
            emitted: Vec::new(),
            stats: SwitchStats::default(),
        }
    }

    /// The switch's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Maps a tag to a lossless queue index, or `None` for lossy
    /// (absent tag, or tag beyond the configured lossless queues).
    pub fn lossless_prio_of(&self, tag: Option<Tag>) -> Option<u8> {
        match tag {
            Some(Tag(t)) if t >= 1 && t <= self.cfg.num_lossless as u16 => Some((t - 1) as u8),
            _ => None,
        }
    }

    fn iq(&self, port: PortId, prio: u8) -> usize {
        port.index() * self.cfg.num_lossless as usize + prio as usize
    }

    fn eq(&self, port: PortId, queue: u8) -> usize {
        port.index() * self.cfg.queues_per_port() + queue as usize
    }

    /// Admits a packet that arrived on `in_port` carrying `arriving_tag`,
    /// already rewritten to `packet.tag`, destined for `out_port`.
    ///
    /// Performs ingress PFC accounting under the *arriving* priority and
    /// enqueues at the egress queue selected by `mode` (new-tag queue for
    /// the correct Fig. 8(b) behaviour).
    pub fn admit(
        &mut self,
        in_port: PortId,
        out_port: PortId,
        arriving_tag: Option<Tag>,
        mut packet: Packet,
        mode: TransitionMode,
    ) -> AdmitOutcome {
        let ingress_prio = self.lossless_prio_of(arriving_tag);
        let new_prio = self.lossless_prio_of(packet.tag);
        let mut egress_queue = match mode {
            TransitionMode::EgressByNewTag => new_prio,
            TransitionMode::EgressByOldTag => ingress_prio,
        }
        .unwrap_or(self.cfg.num_lossless);

        // A watchdog-demoted queue takes no new lossless traffic: the
        // arrival is stripped of its tag (the §4.4 sentinel) and rides
        // the lossy class end-to-end, so downstream switches neither
        // queue it lossless nor generate PFC for it.
        if (egress_queue as usize) < self.cfg.num_lossless as usize
            && self.demoted[self.iq(out_port, egress_queue)]
        {
            packet.tag = None;
            egress_queue = self.cfg.num_lossless;
            self.stats.demoted_redirects += 1;
        }

        let size = packet.size_bytes as u64;
        let is_lossy_queue = egress_queue as usize == self.cfg.lossy_queue();
        if is_lossy_queue {
            let qi = self.eq(out_port, egress_queue);
            if self.queue_bytes[qi] + size > self.cfg.lossy_queue_bytes {
                self.stats.lossy_drops += 1;
                return AdmitOutcome::DroppedLossyFull;
            }
        } else if self.total_bytes + size > self.cfg.buffer_bytes {
            self.stats.lossless_drops += 1;
            return AdmitOutcome::DroppedBufferFull;
        }

        // Ingress accounting: only lossless arrivals that are also held in
        // lossless queues... no: accounting is by arriving class alone.
        // A packet that arrived lossless and was demoted still occupies
        // buffer attributed to its ingress class until it leaves.
        let accounted = ingress_prio;
        if let Some(p) = accounted {
            let idx = self.iq(in_port, p);
            self.ingress_occ[idx] += size;
            if self.ingress_occ[idx] > self.cfg.xoff_bytes && !self.pause_sent[idx] {
                self.pause_sent[idx] = true;
                self.stats.pauses_sent += 1;
                // If we are ourselves blocked on a downstream PAUSE at
                // this priority, the congestion is inherited and the
                // frame forwards the oldest stamp we hold; otherwise
                // the PAUSE is an origin claim (`trigger: None`).
                let trigger = self.inherited_trigger(p);
                self.emitted.push((
                    in_port,
                    PfcFrame::Pause {
                        priority: p,
                        trigger,
                    },
                ));
            }
        }

        let qi = self.eq(out_port, egress_queue);
        // ECN marking: congestion-experienced if the packet queues behind
        // more than the threshold.
        if let Some(thr) = self.cfg.ecn_threshold_bytes {
            if !is_lossy_queue && self.queue_bytes[qi] > thr {
                packet.ecn = true;
            }
        }
        // In-band trigger attribution: a packet enqueued behind a
        // PAUSE-gated lossless queue picks up (or keeps the older of)
        // that queue's trigger stamp; any ungated or lossy hop clears
        // it, so a stamp never outlives the pause episode it describes.
        let gate = (!is_lossy_queue)
            .then(|| self.iq(out_port, egress_queue))
            .filter(|&idx| self.tx_paused[idx]);
        packet.trigger = match gate {
            Some(idx) => TriggerStamp::older(packet.trigger, self.tx_trigger[idx]),
            None => None,
        };
        if packet.trigger.is_some() {
            self.stats.trigger_stamps += 1;
        }
        self.queue_bytes[qi] += size;
        self.total_bytes += size;
        self.queues[qi].push_back(QueuedPacket {
            packet,
            in_port,
            ingress_prio: accounted,
            egress_queue,
            out_port,
        });
        AdmitOutcome::Enqueued { egress_queue }
    }

    /// True if `port` has at least one packet eligible for transmission
    /// (non-empty queue that is not PFC-gated).
    pub fn can_transmit(&self, port: PortId) -> bool {
        (0..self.cfg.queues_per_port() as u8).any(|q| self.queue_ready(port, q))
    }

    fn queue_ready(&self, port: PortId, queue: u8) -> bool {
        if self.queues[self.eq(port, queue)].is_empty() {
            return false;
        }
        if (queue as usize) < self.cfg.num_lossless as usize {
            !self.tx_paused[self.iq(port, queue)]
        } else {
            true // lossy queues are never PFC-gated
        }
    }

    /// Dequeues the next packet to transmit on `port`, round-robin across
    /// eligible queues, releasing its ingress accounting (and emitting a
    /// RESUME if occupancy falls to Xon). Returns `None` if every queue is
    /// empty or gated.
    pub fn dequeue(&mut self, port: PortId) -> Option<QueuedPacket> {
        let qpp = self.cfg.queues_per_port();
        let start = self.rr[port.index()];
        for off in 0..qpp {
            let q = ((start + off) % qpp) as u8;
            if self.queue_ready(port, q) {
                self.rr[port.index()] = (q as usize + 1) % qpp;
                let qi = self.eq(port, q);
                let qp = self.queues[qi].pop_front().expect("ready queue nonempty");
                let size = qp.packet.size_bytes as u64;
                self.queue_bytes[qi] -= size;
                self.total_bytes -= size;
                self.stats.forwarded += 1;
                if let Some(p) = qp.ingress_prio {
                    let idx = self.iq(qp.in_port, p);
                    self.ingress_occ[idx] -= size;
                    if self.pause_sent[idx] && self.ingress_occ[idx] <= self.cfg.xon_bytes {
                        self.pause_sent[idx] = false;
                        self.stats.resumes_sent += 1;
                        self.emitted
                            .push((qp.in_port, PfcFrame::Resume { priority: p }));
                    }
                }
                return Some(qp);
            }
        }
        None
    }

    /// Handles a PFC frame received from the neighbor on `port` at time
    /// `now` (driving-clock units): gates or ungates the matching egress
    /// queue and maintains the queue's trigger attribution. A PAUSE that
    /// arrives with no stamp marks this queue as the episode origin — it
    /// stamps itself at hop count 0 ("I started this") — while a
    /// stamped PAUSE means the pause was inherited from downstream and
    /// the stamp is adopted with its hop count bumped.
    pub fn on_pfc(&mut self, port: PortId, frame: PfcFrame, now: u64) {
        match frame {
            PfcFrame::Pause { priority, trigger } => {
                if (priority as usize) < self.cfg.num_lossless as usize {
                    let idx = self.iq(port, priority);
                    let incoming = match trigger {
                        Some(t) => t.bump(),
                        None => TriggerStamp {
                            switch: self.node,
                            port,
                            prio: priority,
                            pause_epoch: now,
                            hops: 0,
                        },
                    };
                    if self.tx_paused[idx] {
                        // Refresh while already paused: keep the oldest
                        // claim so attribution converges on the initial
                        // trigger even as stamps race around a cycle.
                        self.tx_trigger[idx] =
                            TriggerStamp::older(self.tx_trigger[idx], Some(incoming));
                    } else {
                        self.tx_paused[idx] = true;
                        self.pause_entered[idx] = Some(now);
                        self.tx_trigger[idx] = Some(incoming);
                    }
                }
            }
            PfcFrame::Resume { priority } => {
                if (priority as usize) < self.cfg.num_lossless as usize {
                    let idx = self.iq(port, priority);
                    self.tx_paused[idx] = false;
                    self.tx_trigger[idx] = None;
                    self.pause_entered[idx] = None;
                }
            }
        }
    }

    /// The oldest trigger stamp among this switch's tx-paused, non-empty
    /// lossless egress queues at `prio` — what an emitted PAUSE carries
    /// when our congestion is inherited (we are blocked downstream)
    /// rather than locally originated. `None` means any PAUSE we emit
    /// is an origin claim. Public so the simulator's quanta-refresh path
    /// re-asserts PAUSEs with current attribution.
    pub fn inherited_trigger(&self, prio: u8) -> Option<TriggerStamp> {
        let mut best = None;
        for port in 0..self.nports {
            let idx = port * self.cfg.num_lossless as usize + prio as usize;
            if !self.tx_paused[idx] {
                continue;
            }
            let qi = port * self.cfg.queues_per_port() + prio as usize;
            if self.queues[qi].is_empty() {
                continue;
            }
            best = TriggerStamp::older(best, self.tx_trigger[idx]);
        }
        best
    }

    /// Drains the PFC frames generated since the last call. The simulator
    /// delivers them to the upstream neighbors after the wire delay.
    pub fn take_emitted_pfc(&mut self) -> Vec<(PortId, PfcFrame)> {
        std::mem::take(&mut self.emitted)
    }

    /// True if we have PAUSEd the upstream on `(port, prio)` — i.e. our
    /// ingress is congested there.
    pub fn pause_outstanding(&self, port: PortId, prio: u8) -> bool {
        self.pause_sent[self.iq(port, prio)]
    }

    /// True if our egress `(port, prio)` is gated by a downstream PAUSE.
    pub fn is_tx_paused(&self, port: PortId, prio: u8) -> bool {
        self.tx_paused[self.iq(port, prio)]
    }

    /// The trigger attribution held for the tx-paused egress queue
    /// `(port, prio)` — `None` while the queue is not paused.
    pub fn trigger_of(&self, port: PortId, prio: u8) -> Option<TriggerStamp> {
        self.tx_trigger[self.iq(port, prio)]
    }

    /// When `(port, prio)` entered its current tx-paused state, in
    /// driving-clock units; `None` while ungated.
    pub fn pause_entered_at(&self, port: PortId, prio: u8) -> Option<u64> {
        self.pause_entered[self.iq(port, prio)]
    }

    /// True if `(port, prio)`'s attribution names itself as the episode
    /// origin — the watchdog's "I started this" vs. "I inherited pause
    /// from downstream" distinction.
    pub fn is_trigger_origin(&self, port: PortId, prio: u8) -> bool {
        self.tx_trigger[self.iq(port, prio)]
            .is_some_and(|t| t.hops == 0 && t.names(self.node, port, prio))
    }

    /// Byte occupancy of one egress queue.
    pub fn queue_depth_bytes(&self, port: PortId, queue: u8) -> u64 {
        self.queue_bytes[self.eq(port, queue)]
    }

    /// Total buffered bytes.
    pub fn buffered_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Ingress PFC occupancy for `(port, prio)`.
    pub fn ingress_occupancy(&self, port: PortId, prio: u8) -> u64 {
        self.ingress_occ[self.iq(port, prio)]
    }

    /// Iterates over every queued packet on the switch — used by the
    /// simulator's deadlock detector to trace buffer dependencies.
    pub fn queued_packets(&self) -> impl Iterator<Item = &QueuedPacket> + '_ {
        self.queues.iter().flatten()
    }

    /// Forcibly empties one egress queue, releasing all buffer and
    /// ingress-PFC accounting (emitting RESUMEs where occupancy falls to
    /// Xon) and clearing any received PAUSE gating it. This is the
    /// *deadlock-recovery* primitive of the detect-and-break schemes the
    /// paper's §1 critiques: it sacrifices lossless packets to break a
    /// CBD. Returns the dropped packets.
    pub fn flush_queue(&mut self, port: PortId, queue: u8) -> Vec<QueuedPacket> {
        let qi = self.eq(port, queue);
        let dropped: Vec<QueuedPacket> = std::mem::take(&mut self.queues[qi]).into();
        for qp in &dropped {
            let size = qp.packet.size_bytes as u64;
            self.queue_bytes[qi] -= size;
            self.total_bytes -= size;
            if let Some(p) = qp.ingress_prio {
                let idx = self.iq(qp.in_port, p);
                self.ingress_occ[idx] -= size;
                if self.pause_sent[idx] && self.ingress_occ[idx] <= self.cfg.xon_bytes {
                    self.pause_sent[idx] = false;
                    self.stats.resumes_sent += 1;
                    self.emitted
                        .push((qp.in_port, PfcFrame::Resume { priority: p }));
                }
            }
        }
        if (queue as usize) < self.cfg.num_lossless as usize {
            let idx = self.iq(port, queue);
            self.tx_paused[idx] = false;
            self.tx_trigger[idx] = None;
            self.pause_entered[idx] = None;
        }
        dropped
    }

    /// Demotes the lossless queue `(port, prio)` to the lossy class —
    /// the watchdog's §4.4 sentinel-tag escape: every held packet moves
    /// to the same port's lossy queue with its tag stripped (downstream
    /// treats it lossy end-to-end) and subsequent arrivals are
    /// redirected likewise until [`SwitchState::restore_queue`]. Moved
    /// packets keep their ingress-PFC accounting (released on dequeue as
    /// usual) and the move itself ignores the lossy cap — the bytes are
    /// already held. The received PAUSE gate is cleared: the lossy queue
    /// is never gated, which is exactly what breaks the circular wait.
    /// Returns the number of packets moved.
    pub fn demote_queue(&mut self, port: PortId, prio: u8) -> usize {
        assert!((prio as usize) < self.cfg.num_lossless as usize);
        let from = self.eq(port, prio);
        let to = self.eq(port, self.cfg.num_lossless);
        let held: VecDeque<QueuedPacket> = std::mem::take(&mut self.queues[from]);
        let moved = held.len();
        for mut qp in held {
            let size = qp.packet.size_bytes as u64;
            self.queue_bytes[from] -= size;
            self.queue_bytes[to] += size;
            qp.packet.tag = None;
            // The stamp goes with the tag: lossy traffic never carries
            // attribution for a pause episode it is no longer part of.
            qp.packet.trigger = None;
            qp.egress_queue = self.cfg.num_lossless;
            self.queues[to].push_back(qp);
        }
        let idx = self.iq(port, prio);
        self.tx_paused[idx] = false;
        self.tx_trigger[idx] = None;
        self.pause_entered[idx] = None;
        self.demoted[idx] = true;
        moved
    }

    /// Ends a demotion: the queue re-joins the lossless class and new
    /// arrivals queue (and PFC-account) normally again.
    pub fn restore_queue(&mut self, port: PortId, prio: u8) {
        let idx = self.iq(port, prio);
        self.demoted[idx] = false;
    }

    /// True while `(port, prio)` is watchdog-demoted.
    pub fn is_demoted(&self, port: PortId, prio: u8) -> bool {
        self.demoted[self.iq(port, prio)]
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.nports
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::PacketId;

    fn cfg() -> SwitchConfig {
        SwitchConfig {
            num_lossless: 2,
            buffer_bytes: 1_000_000,
            xoff_bytes: 3_000,
            xon_bytes: 1_000,
            lossy_queue_bytes: 2_000,
            ecn_threshold_bytes: None,
        }
    }

    fn pkt(id: u64, tag: Option<u16>) -> Packet {
        Packet {
            id: PacketId(id),
            flow: 0,
            dst: NodeId(9),
            size_bytes: 1_000,
            tag: tag.map(Tag),
            ttl: 64,
            ecn: false,
            trigger: None,
        }
    }

    /// A received PAUSE with no trigger stamp (an origin claim).
    fn pause(priority: u8) -> PfcFrame {
        PfcFrame::Pause {
            priority,
            trigger: None,
        }
    }

    fn sw() -> SwitchState {
        SwitchState::new(NodeId(0), 4, cfg())
    }

    #[test]
    fn classification_maps_tags_to_queues() {
        let s = sw();
        assert_eq!(s.lossless_prio_of(Some(Tag(1))), Some(0));
        assert_eq!(s.lossless_prio_of(Some(Tag(2))), Some(1));
        assert_eq!(s.lossless_prio_of(Some(Tag(3))), None); // beyond -> lossy
        assert_eq!(s.lossless_prio_of(None), None);
    }

    #[test]
    fn admit_enqueues_by_new_tag() {
        let mut s = sw();
        // Arrived tag 1, rewritten to tag 2: egress queue 1 (Fig 8b).
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(1, Some(2)),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(out, AdmitOutcome::Enqueued { egress_queue: 1 });
        assert_eq!(s.queue_depth_bytes(PortId(1), 1), 1_000);
        // Old-tag mode would use queue 0 (Fig 8a).
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(2, Some(2)),
            TransitionMode::EgressByOldTag,
        );
        assert_eq!(out, AdmitOutcome::Enqueued { egress_queue: 0 });
    }

    #[test]
    fn xoff_crossing_emits_pause_once() {
        let mut s = sw();
        for i in 0..3 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        assert!(s.take_emitted_pfc().is_empty()); // 3000 = xoff, not above
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(3, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        let pfc = s.take_emitted_pfc();
        assert_eq!(pfc, vec![(PortId(0), pause(0))]);
        assert!(s.pause_outstanding(PortId(0), 0));
        // More arrivals do not re-emit.
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(4, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        assert!(s.take_emitted_pfc().is_empty());
        assert_eq!(s.stats.pauses_sent, 1);
    }

    #[test]
    fn resume_at_xon_after_drain() {
        let mut s = sw();
        for i in 0..4 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        s.take_emitted_pfc();
        // Drain: occupancy 4000 -> 3000 -> 2000 -> 1000 (= xon: resume).
        s.dequeue(PortId(1)).unwrap();
        s.dequeue(PortId(1)).unwrap();
        assert!(s.take_emitted_pfc().is_empty());
        s.dequeue(PortId(1)).unwrap();
        let pfc = s.take_emitted_pfc();
        assert_eq!(pfc, vec![(PortId(0), PfcFrame::Resume { priority: 0 })]);
        assert!(!s.pause_outstanding(PortId(0), 0));
    }

    #[test]
    fn rx_pause_gates_only_that_queue() {
        let mut s = sw();
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(1, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(2)),
            pkt(2, Some(2)),
            TransitionMode::EgressByNewTag,
        );
        s.on_pfc(PortId(1), pause(0), 0);
        assert!(s.is_tx_paused(PortId(1), 0));
        // Queue 1 still flows.
        let qp = s.dequeue(PortId(1)).unwrap();
        assert_eq!(qp.packet.id, PacketId(2));
        // Queue 0 is gated.
        assert!(s.dequeue(PortId(1)).is_none());
        s.on_pfc(PortId(1), PfcFrame::Resume { priority: 0 }, 0);
        assert_eq!(s.dequeue(PortId(1)).unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn lossy_tail_drop_at_capacity() {
        let mut s = sw();
        // Lossy queue cap is 2000 bytes = 2 packets.
        for i in 0..2 {
            let out = s.admit(
                PortId(0),
                PortId(1),
                None,
                pkt(i, None),
                TransitionMode::EgressByNewTag,
            );
            assert!(matches!(out, AdmitOutcome::Enqueued { .. }));
        }
        let out = s.admit(
            PortId(0),
            PortId(1),
            None,
            pkt(2, None),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(out, AdmitOutcome::DroppedLossyFull);
        assert_eq!(s.stats.lossy_drops, 1);
        // And lossy arrivals never generate PFC.
        assert!(s.take_emitted_pfc().is_empty());
    }

    #[test]
    fn lossy_queue_never_paused() {
        let mut s = sw();
        s.admit(
            PortId(0),
            PortId(1),
            None,
            pkt(1, None),
            TransitionMode::EgressByNewTag,
        );
        // PFC for the "lossy priority" (index 2) is ignored.
        s.on_pfc(PortId(1), pause(2), 0);
        assert!(s.dequeue(PortId(1)).is_some());
    }

    #[test]
    fn demoted_packet_still_accounted_at_lossless_ingress() {
        let mut s = sw();
        // Arrives tag 2 (lossless prio 1), demoted to lossy on egress.
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(2)),
            pkt(1, None),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(s.ingress_occupancy(PortId(0), 1), 1_000);
        assert_eq!(
            s.queue_depth_bytes(PortId(1), s.config().lossy_queue() as u8),
            1_000
        );
        // Departure releases the accounting.
        s.dequeue(PortId(1)).unwrap();
        assert_eq!(s.ingress_occupancy(PortId(0), 1), 0);
    }

    #[test]
    fn round_robin_alternates_queues() {
        let mut s = sw();
        for i in 0..2 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(10 + i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(2)),
                pkt(20 + i, Some(2)),
                TransitionMode::EgressByNewTag,
            );
        }
        let order: Vec<u64> = (0..4)
            .map(|_| s.dequeue(PortId(1)).unwrap().packet.id.0)
            .collect();
        assert_eq!(order, vec![10, 20, 11, 21]);
    }

    #[test]
    fn buffer_exhaustion_drops_lossless() {
        let mut s = SwitchState::new(
            NodeId(0),
            2,
            SwitchConfig {
                buffer_bytes: 2_500,
                xoff_bytes: 2_400,
                xon_bytes: 1_000,
                ..cfg()
            },
        );
        for i in 0..2 {
            assert!(matches!(
                s.admit(
                    PortId(0),
                    PortId(1),
                    Some(Tag(1)),
                    pkt(i, Some(1)),
                    TransitionMode::EgressByNewTag,
                ),
                AdmitOutcome::Enqueued { .. }
            ));
        }
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(9, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(out, AdmitOutcome::DroppedBufferFull);
        assert_eq!(s.stats.lossless_drops, 1);
    }

    #[test]
    fn flush_queue_releases_accounting_and_resumes() {
        let mut s = sw();
        for i in 0..4 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        assert!(s.pause_outstanding(PortId(0), 0)); // crossed xoff
        s.take_emitted_pfc();
        s.on_pfc(PortId(1), pause(0), 0);
        let dropped = s.flush_queue(PortId(1), 0);
        assert_eq!(dropped.len(), 4);
        assert_eq!(s.buffered_bytes(), 0);
        assert_eq!(s.ingress_occupancy(PortId(0), 0), 0);
        // Occupancy fell to xon: the upstream got resumed...
        assert_eq!(
            s.take_emitted_pfc(),
            vec![(PortId(0), PfcFrame::Resume { priority: 0 })]
        );
        // ...and the received gate was cleared.
        assert!(!s.is_tx_paused(PortId(1), 0));
    }

    #[test]
    fn flush_empty_queue_is_noop() {
        let mut s = sw();
        assert!(s.flush_queue(PortId(2), 1).is_empty());
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn ecn_marks_beyond_threshold() {
        let mut s = SwitchState::new(
            NodeId(0),
            4,
            SwitchConfig {
                ecn_threshold_bytes: Some(1_500),
                ..cfg()
            },
        );
        // First two packets queue behind 0 and 1000 bytes: unmarked.
        for i in 0..2 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        // Third queues behind 2000 > 1500: marked.
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(2, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        let marks: Vec<bool> = (0..3)
            .map(|_| s.dequeue(PortId(1)).unwrap().packet.ecn)
            .collect();
        assert_eq!(marks, vec![false, false, true]);
    }

    #[test]
    fn lossy_packets_are_never_ecn_marked() {
        let mut s = SwitchState::new(
            NodeId(0),
            4,
            SwitchConfig {
                ecn_threshold_bytes: Some(0),
                ..cfg()
            },
        );
        s.admit(
            PortId(0),
            PortId(1),
            None,
            pkt(1, None),
            TransitionMode::EgressByNewTag,
        );
        assert!(!s.dequeue(PortId(1)).unwrap().packet.ecn);
    }

    #[test]
    fn demote_moves_held_packets_to_lossy_and_ungates() {
        let mut s = sw();
        for i in 0..4 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        s.take_emitted_pfc();
        s.on_pfc(PortId(1), pause(0), 0);
        assert!(!s.can_transmit(PortId(1)));

        let moved = s.demote_queue(PortId(1), 0);
        assert_eq!(moved, 4);
        assert!(s.is_demoted(PortId(1), 0));
        assert_eq!(s.queue_depth_bytes(PortId(1), 0), 0);
        let lossy = s.config().lossy_queue() as u8;
        assert_eq!(s.queue_depth_bytes(PortId(1), lossy), 4_000);
        // The lossy queue is never gated: the port transmits again...
        assert!(s.can_transmit(PortId(1)));
        let qp = s.dequeue(PortId(1)).unwrap();
        // ...with the tag stripped but the ingress accounting intact
        // until departure releases it.
        assert_eq!(qp.packet.tag, None);
        assert_eq!(qp.ingress_prio, Some(0));
        assert_eq!(s.ingress_occupancy(PortId(0), 0), 3_000);
    }

    #[test]
    fn demoted_queue_redirects_arrivals_until_restore() {
        let mut s = sw();
        s.demote_queue(PortId(1), 0);
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(1, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        let lossy = s.config().lossy_queue() as u8;
        assert_eq!(
            out,
            AdmitOutcome::Enqueued {
                egress_queue: lossy
            }
        );
        assert_eq!(s.stats.demoted_redirects, 1);
        assert_eq!(s.dequeue(PortId(1)).unwrap().packet.tag, None);
        // Another priority on the same port is unaffected.
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(2)),
            pkt(2, Some(2)),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(out, AdmitOutcome::Enqueued { egress_queue: 1 });

        s.restore_queue(PortId(1), 0);
        assert!(!s.is_demoted(PortId(1), 0));
        let out = s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(3, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(out, AdmitOutcome::Enqueued { egress_queue: 0 });
        assert_eq!(s.stats.demoted_redirects, 1, "no redirect after restore");
    }

    #[test]
    fn switch_stats_sum() {
        let a = SwitchStats {
            forwarded: 1,
            lossy_drops: 2,
            lossless_drops: 3,
            pauses_sent: 4,
            resumes_sent: 5,
            demoted_redirects: 6,
            trigger_stamps: 7,
        };
        let total: SwitchStats = [a, a].into_iter().sum();
        assert_eq!(total.forwarded, 2);
        assert_eq!(total.demoted_redirects, 12);
        assert_eq!(total.trigger_stamps, 14);
    }

    #[test]
    fn can_transmit_reflects_gating() {
        let mut s = sw();
        assert!(!s.can_transmit(PortId(1)));
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(1, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        assert!(s.can_transmit(PortId(1)));
        s.on_pfc(PortId(1), pause(0), 0);
        assert!(!s.can_transmit(PortId(1)));
    }

    fn stamp(switch: u32, epoch: u64, hops: u8) -> TriggerStamp {
        TriggerStamp {
            switch: NodeId(switch),
            port: PortId(3),
            prio: 0,
            pause_epoch: epoch,
            hops,
        }
    }

    #[test]
    fn unstamped_pause_marks_queue_as_origin() {
        let mut s = sw();
        s.on_pfc(PortId(1), pause(0), 100);
        let t = s.trigger_of(PortId(1), 0).unwrap();
        assert!(t.names(NodeId(0), PortId(1), 0));
        assert_eq!(t.pause_epoch, 100);
        assert_eq!(t.hops, 0);
        assert_eq!(s.pause_entered_at(PortId(1), 0), Some(100));
        assert!(s.is_trigger_origin(PortId(1), 0));
    }

    #[test]
    fn stamped_pause_inherits_with_hop_bump() {
        let mut s = sw();
        s.on_pfc(
            PortId(1),
            PfcFrame::Pause {
                priority: 0,
                trigger: Some(stamp(7, 50, 1)),
            },
            60,
        );
        let t = s.trigger_of(PortId(1), 0).unwrap();
        assert!(t.names(NodeId(7), PortId(3), 0));
        assert_eq!(t.hops, 2, "inherited stamp bumps the hop count");
        assert_eq!(s.pause_entered_at(PortId(1), 0), Some(60));
        assert!(!s.is_trigger_origin(PortId(1), 0));
    }

    #[test]
    fn pause_refresh_keeps_oldest_claim() {
        let mut s = sw();
        s.on_pfc(PortId(1), pause(0), 100); // origin claim at epoch 100
        s.on_pfc(
            PortId(1),
            PfcFrame::Pause {
                priority: 0,
                trigger: Some(stamp(7, 40, 0)),
            },
            110,
        );
        let t = s.trigger_of(PortId(1), 0).unwrap();
        assert_eq!(t.pause_epoch, 40, "older downstream claim replaces ours");
        // But the pause-entry time is unchanged by the refresh.
        assert_eq!(s.pause_entered_at(PortId(1), 0), Some(100));
    }

    #[test]
    fn packets_behind_a_gated_queue_carry_the_stamp() {
        let mut s = sw();
        s.on_pfc(PortId(1), pause(0), 100);
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            pkt(1, Some(1)),
            TransitionMode::EgressByNewTag,
        );
        let qp = s
            .queued_packets()
            .find(|qp| qp.packet.id == PacketId(1))
            .unwrap();
        assert_eq!(qp.packet.trigger, s.trigger_of(PortId(1), 0));
        assert_eq!(s.stats.trigger_stamps, 1);
    }

    #[test]
    fn ungated_hop_clears_a_carried_stamp() {
        let mut s = sw();
        let mut p = pkt(1, Some(1));
        p.trigger = Some(stamp(7, 50, 1));
        s.admit(
            PortId(0),
            PortId(1),
            Some(Tag(1)),
            p,
            TransitionMode::EgressByNewTag,
        );
        assert_eq!(s.dequeue(PortId(1)).unwrap().packet.trigger, None);
        assert_eq!(s.stats.trigger_stamps, 0);
    }

    #[test]
    fn emitted_pause_forwards_the_inherited_stamp() {
        let mut s = sw();
        // Our egress (1, prio 0) is gated by a stamped downstream PAUSE.
        s.on_pfc(
            PortId(1),
            PfcFrame::Pause {
                priority: 0,
                trigger: Some(stamp(7, 50, 0)),
            },
            60,
        );
        // Ingress pressure on (0, prio 0) crosses Xoff at the 4th admit;
        // by then the gated queue holds packets, so the PAUSE we emit
        // forwards the inherited stamp instead of claiming origin.
        for i in 0..4 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        let pfc = s.take_emitted_pfc();
        assert_eq!(
            pfc,
            vec![(
                PortId(0),
                PfcFrame::Pause {
                    priority: 0,
                    trigger: Some(stamp(7, 50, 1)),
                }
            )]
        );
    }

    #[test]
    fn pause_with_empty_gated_queue_claims_origin() {
        let mut s = sw();
        // Gated but empty at prio 0: our congestion cannot be inherited
        // through it, so the emitted PAUSE is an origin claim.
        s.on_pfc(
            PortId(1),
            PfcFrame::Pause {
                priority: 0,
                trigger: Some(stamp(7, 50, 0)),
            },
            60,
        );
        for i in 0..4 {
            s.admit(
                PortId(0),
                PortId(2),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        let pfc = s.take_emitted_pfc();
        assert_eq!(pfc, vec![(PortId(0), pause(0))]);
    }

    #[test]
    fn demote_strips_stamps_and_attribution() {
        let mut s = sw();
        s.on_pfc(PortId(1), pause(0), 100);
        for i in 0..3 {
            s.admit(
                PortId(0),
                PortId(1),
                Some(Tag(1)),
                pkt(i, Some(1)),
                TransitionMode::EgressByNewTag,
            );
        }
        assert!(s.queued_packets().all(|qp| qp.packet.trigger.is_some()));
        s.demote_queue(PortId(1), 0);
        assert!(
            s.queued_packets().all(|qp| qp.packet.trigger.is_none()),
            "demoted-to-lossy packets must not carry stale attribution"
        );
        assert_eq!(s.trigger_of(PortId(1), 0), None);
        assert_eq!(s.pause_entered_at(PortId(1), 0), None);
    }

    #[test]
    fn resume_and_flush_clear_attribution() {
        let mut s = sw();
        s.on_pfc(PortId(1), pause(0), 100);
        s.on_pfc(PortId(1), PfcFrame::Resume { priority: 0 }, 150);
        assert_eq!(s.trigger_of(PortId(1), 0), None);
        assert_eq!(s.pause_entered_at(PortId(1), 0), None);

        s.on_pfc(PortId(2), pause(1), 200);
        s.flush_queue(PortId(2), 1);
        assert_eq!(s.trigger_of(PortId(2), 1), None);
        assert_eq!(s.pause_entered_at(PortId(2), 1), None);
    }
}
