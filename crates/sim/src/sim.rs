//! The simulator core: event loop, forwarding, PFC delivery.

use crate::deadlock::{deadlocked_queues, detect_deadlock, DeadlockReport};
use crate::event::{Ev, SimTime};
use crate::flow::{FlowReport, FlowSpec, FlowState, Route};
use crate::nic::HostNic;
use crate::queue::TimingWheel;
use crate::report::{SimReport, TriggerAttribution, WatchdogReport, WatchdogTripRecord};
use crate::tables::{port_bases, FibTable, RuleIndex};
use std::collections::{BTreeMap, BTreeSet};
use tagger_core::{RuleSet, TagDecision};
use tagger_routing::Fib;
use tagger_switch::{
    AdmitOutcome, Packet, PacketId, PfcFrame, QueueWatchdog, SwitchConfig, SwitchState,
    TransitionMode, WatchdogConfig, WatchdogPolicy, WatchdogStats, WatchdogVerdict,
};
use tagger_topo::{GlobalPort, NodeId, NodeKind, PortId, Topology};

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-switch buffer/PFC configuration.
    pub switch: SwitchConfig,
    /// Priority-transition behaviour (Fig. 8); the correct new-tag mode
    /// by default.
    pub transition: TransitionMode,
    /// Wire size of every injected packet.
    pub packet_bytes: u32,
    /// Extra PFC reaction delay on top of the link propagation delay
    /// (MAC processing, scheduling).
    pub pfc_extra_delay_ns: u64,
    /// Interval between rate samples (and deadlock checks).
    pub sample_interval_ns: u64,
    /// Simulation horizon.
    pub end_time_ns: u64,
    /// Run the structural deadlock detector at every sample tick.
    pub deadlock_check: bool,
    /// Egress queues whose byte depth is sampled each tick (reported in
    /// [`crate::SimReport::queue_series`]). A frozen deadlocked queue
    /// shows as a flat line; a healthy congested queue breathes.
    pub track_queues: Vec<(NodeId, PortId, u8)>,
    /// DCQCN-lite congestion control (paper §6): switches must also set
    /// [`SwitchConfig::ecn_threshold_bytes`] for marking to happen.
    pub dcqcn: Option<crate::dcqcn::DcqcnConfig>,
    /// PFC pause quanta: when set, a received PAUSE only gates for this
    /// long and the pausing switch refreshes it at half-quanta intervals
    /// while its ingress stays congested — the real 802.1Qbb timer
    /// behaviour. `None` models PAUSE/RESUME as level signals (the
    /// common simulator simplification). Deadlocks persist either way:
    /// a frozen ingress never drains, so refreshes never stop.
    pub pause_quanta_ns: Option<u64>,
    /// Detect-and-break recovery (the prior-work category the paper's §1
    /// critiques): when a deadlock cycle is detected, flush one of its
    /// gated queues — dropping lossless packets — to break it. The
    /// deadlock typically reforms moments later; see the
    /// `recovery_baseline` experiment.
    pub recovery: bool,
    /// Per-queue PFC watchdog (paper §4.4 escape hatch): a lossless queue
    /// that stays tx-paused with data for a full window — and sits on a
    /// structurally confirmed wait-for cycle — is tripped: drained to
    /// drop or demoted to the lossy class for a hold-down period.
    /// `None` = no watchdog (the default; deadlocks then persist).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            switch: SwitchConfig::default(),
            transition: TransitionMode::EgressByNewTag,
            packet_bytes: 1_000,
            pfc_extra_delay_ns: 500,
            sample_interval_ns: 100_000, // 100 µs
            end_time_ns: 10_000_000,     // 10 ms
            deadlock_check: true,
            track_queues: Vec::new(),
            dcqcn: None,
            pause_quanta_ns: None,
            recovery: false,
            watchdog: None,
        }
    }
}

/// A scripted change applied at a given simulation time — how experiments
/// model link failures (FIB reconvergence), routing errors and path
/// repinning.
#[derive(Clone, Debug)]
pub enum Action {
    /// Replace the whole FIB (e.g. post-failure reconvergence).
    ReplaceFib(Fib),
    /// Pin a flow to an explicit path from now on.
    PinFlow {
        /// Flow handle.
        flow: u32,
        /// The new path (must be loop-free and adjacent).
        path: Vec<NodeId>,
    },
    /// Return a flow to FIB routing.
    UnpinFlow {
        /// Flow handle.
        flow: u32,
    },
    /// Stop a flow injecting further packets.
    StopFlow {
        /// Flow handle.
        flow: u32,
    },
    /// Take a link down: transmitters on both ends stop starting new
    /// packets (in-flight ones still arrive). Routing does NOT change —
    /// pair with [`Action::ReplaceFib`] to model reconvergence, or leave
    /// the pre-failure FIB installed to model the paper's §3.2 transient
    /// window.
    FailLink {
        /// The link.
        link: tagger_topo::LinkId,
    },
    /// Bring a failed link back.
    RestoreLink {
        /// The link.
        link: tagger_topo::LinkId,
    },
    /// Replace the entire installed Tagger rule program — the blunt
    /// control-plane update (full-table reinstall).
    ReplaceRules(RuleSet),
    /// Apply incremental per-switch rule deltas to the installed Tagger
    /// program, as emitted by a `tagger-ctrl` commit. Applied
    /// atomically at the scheduled instant (the simulator has no notion
    /// of per-switch install skew); starting from no installed rules
    /// applies the deltas to an empty program.
    ApplyRuleDeltas(Vec<tagger_core::RuleDelta>),
}

/// The deterministic discrete-event simulator.
///
/// Everything an event reads is a dense table: per node by
/// [`NodeId::index`], per port by a *port slot* (each node's ports
/// numbered on from the previous node's), per queue by port slot times
/// the lossless priorities plus the priority, per link by
/// [`tagger_topo::LinkId::index`]. The FIB and the Tagger rules are held
/// only compiled (see [`crate::tables`]); the actions that replace or
/// edit them recompile.
pub struct Simulator {
    topo: Topology,
    cfg: SimConfig,
    /// The installed Tagger program. `None` is no Tagger at all (tags
    /// ride unchanged), which is not the empty program (all lossy).
    rules: Option<RuleIndex>,
    routes: FibTable,
    flows: Vec<FlowState>,
    /// Every node's data plane, by node index.
    switches: Vec<SwitchState>,
    /// Every host's NIC, by node index; `None` on switches.
    nics: Vec<Option<HostNic>>,
    /// Each node's first port slot ([`port_bases`]).
    port_base: Vec<u32>,
    /// Ports mid-transmission, by port slot.
    tx_busy: Vec<bool>,
    /// Hosts' forwarded-vs-generated alternation state, by port slot.
    host_tx_alt: Vec<bool>,
    /// Pending events in `(time, push sequence)` order, so simultaneous
    /// events fire in insertion order and runs are deterministic.
    queue: TimingWheel<Ev>,
    now: SimTime,
    actions: Vec<(SimTime, Action)>,
    packet_seq: u64,
    no_route_drops: u64,
    /// Links taken down, by link index.
    failed_links: Vec<bool>,
    /// Receiver-side pause deadlines when quanta are modelled, by queue
    /// slot.
    pause_deadline: Vec<Option<SimTime>>,
    /// Per-flow congestion-control state (present when DCQCN is on).
    cc: Vec<crate::dcqcn::FlowCc>,
    deadlock: Option<DeadlockReport>,
    deadlock_streak: u32,
    recoveries: u64,
    recovery_drops: u64,
    link_down_drops: u64,
    queue_series: Vec<Vec<u64>>,
    /// Per-queue watchdog state machines, created lazily on first
    /// symptom (a paused, non-empty lossless queue).
    watchdogs: BTreeMap<(NodeId, PortId, u8), QueueWatchdog>,
    wd_stats: WatchdogStats,
    wd_trips: Vec<WatchdogTripRecord>,
    wd_first_trip_at: Option<SimTime>,
    wd_cleared_at: Option<SimTime>,
    /// Ground-truth pause log, independent of the in-band stamps it
    /// cross-checks: every pause-bout start per lossless egress queue,
    /// in time order, by queue slot. Resume does not erase history (a
    /// bout's start must remain checkable after xoff/xon flaps); watchdog
    /// trips and link failures reset the affected queue's history.
    pause_log: Vec<Vec<SimTime>>,
    /// Initial-trigger attribution of the first confirmed episode.
    wd_trigger: Option<TriggerAttribution>,
    /// Confirmed-SCC empty→non-empty transitions seen at watchdog ticks.
    wd_episodes: u64,
    /// Whether the last watchdog tick saw a non-empty confirmed SCC.
    scc_active: bool,
    /// Events dispatched by `run` (the denominator of events/sec).
    events_processed: u64,
}

impl Simulator {
    /// Creates a simulator over `topo`, forwarding through `fib`, with
    /// optional Tagger `rules` (no rules = vanilla single-tag RoCE: the
    /// packet's tag is never rewritten).
    pub fn new(topo: Topology, fib: Fib, rules: Option<RuleSet>, cfg: SimConfig) -> Simulator {
        cfg.switch.validate().expect("invalid switch config");
        // Every node gets a data plane: switches obviously, but hosts
        // too — in server-centric fabrics (BCube) servers forward, and a
        // forwarding server needs queues and PFC accounting exactly like
        // a switch. Pure-endpoint hosts simply never receive a packet to
        // forward.
        let mut switches = Vec::with_capacity(topo.num_nodes());
        let mut nics = Vec::with_capacity(topo.num_nodes());
        for n in topo.node_ids() {
            let nports = topo.node(n).num_ports();
            switches.push(SwitchState::new(n, nports, cfg.switch));
            nics.push(
                (topo.node(n).kind == NodeKind::Host)
                    .then(|| HostNic::new(nports, cfg.switch.num_lossless)),
            );
        }
        let port_base = port_bases(&topo);
        let ports = port_base[topo.num_nodes()] as usize;
        let queues = ports * cfg.switch.num_lossless as usize;
        Simulator {
            routes: FibTable::compile(&topo, &fib),
            rules: rules.map(|rules| RuleIndex::compile(&topo, &rules)),
            failed_links: vec![false; topo.num_links()],
            topo,
            cfg,
            flows: Vec::new(),
            switches,
            nics,
            port_base,
            tx_busy: vec![false; ports],
            host_tx_alt: vec![false; ports],
            queue: TimingWheel::default(),
            now: 0,
            actions: Vec::new(),
            packet_seq: 0,
            no_route_drops: 0,
            pause_deadline: vec![None; queues],
            cc: Vec::new(),
            deadlock: None,
            deadlock_streak: 0,
            recoveries: 0,
            recovery_drops: 0,
            link_down_drops: 0,
            queue_series: Vec::new(),
            watchdogs: BTreeMap::new(),
            wd_stats: WatchdogStats::default(),
            wd_trips: Vec::new(),
            wd_first_trip_at: None,
            wd_cleared_at: None,
            pause_log: vec![Vec::new(); queues],
            wd_trigger: None,
            wd_episodes: 0,
            scc_active: false,
            events_processed: 0,
        }
    }

    /// Registers a flow; returns its handle.
    ///
    /// # Panics
    /// Panics if src/dst are not hosts.
    pub fn add_flow(&mut self, spec: FlowSpec) -> u32 {
        assert_eq!(
            self.topo.node(spec.src).kind,
            NodeKind::Host,
            "flow src must be a host"
        );
        assert_eq!(
            self.topo.node(spec.dst).kind,
            NodeKind::Host,
            "flow dst must be a host"
        );
        let id = self.flows.len() as u32;
        let mut state = FlowState::new(spec, &self.topo);
        state.started = true;
        let line_bps = self
            .topo
            .node(state.spec.src)
            .link_at(PortId(0))
            .map(|l| self.topo.link(l).capacity_bps as f64)
            .unwrap_or(40e9);
        self.nics[state.spec.src.index()]
            .as_mut()
            .expect("host nic")
            .flows
            .push(id);
        self.flows.push(state);
        self.cc.push(crate::dcqcn::FlowCc::new(line_bps));
        id
    }

    /// Schedules a scripted action.
    pub fn at(&mut self, time: SimTime, action: Action) {
        self.actions.push((time, action));
    }

    /// Read-only view of one node's data plane, for post-run inspection
    /// (queue occupancy, held trigger stamps, PFC gating).
    pub fn switch_state(&self, node: NodeId) -> Option<&SwitchState> {
        self.switches.get(node.index())
    }

    /// The topology (for scenario builders).
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Runs the simulation to the horizon and reports.
    pub fn run(&mut self) -> SimReport {
        // Seed events: flow starts, samples, scripted actions. Each flow
        // kicks the port its first hop leaves through (multi-homed BCube
        // servers pick per-route ports; everything else uses port 0).
        let starts: Vec<(SimTime, GlobalPort)> = self
            .flows
            .iter()
            .map(|f| {
                let first_port = f.pinned_port(f.spec.src).unwrap_or(PortId(0));
                let port = GlobalPort::new(f.spec.src, first_port);
                (f.spec.start, port)
            })
            .collect();
        for (t, port) in starts {
            self.queue.push(t, Ev::Kick { port });
        }
        let mut t = self.cfg.sample_interval_ns;
        while t <= self.cfg.end_time_ns {
            self.queue.push(t, Ev::Sample);
            t += self.cfg.sample_interval_ns;
        }
        for (i, (t, _)) in self.actions.iter().enumerate() {
            self.queue.push(*t, Ev::RunAction { index: i });
        }
        if let Some(wd) = self.cfg.watchdog {
            // Poll well inside the window so a trip fires at most a
            // quarter-window late, never a whole window late.
            let interval = (wd.window_ns / 4).max(1_000);
            let mut t = interval;
            while t <= self.cfg.end_time_ns {
                self.queue.push(t, Ev::WatchdogTick);
                t += interval;
            }
        }
        if let Some(dcqcn) = self.cfg.dcqcn {
            for (i, f) in self.flows.iter().enumerate() {
                self.queue.push(
                    f.spec.start + dcqcn.increase_interval_ns,
                    Ev::RateTick { flow: i as u32 },
                );
            }
        }

        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.end_time_ns {
                break;
            }
            self.now = t;
            self.events_processed += 1;
            match ev {
                Ev::Kick { port } => self.try_transmit(port),
                Ev::TxEnd { port } => {
                    let slot = self.port_slot(port);
                    self.tx_busy[slot] = false;
                    self.try_transmit(port);
                }
                Ev::Arrive { port, packet } => self.on_arrive(port, packet),
                Ev::Pfc { port, frame } => self.on_pfc(port, frame),
                Ev::PfcExpire {
                    port,
                    prio,
                    deadline,
                } => self.on_pfc_expire(port, prio, deadline),
                Ev::PfcRefresh { port, prio } => self.on_pfc_refresh(port, prio),
                Ev::Cnp { flow } => {
                    if let Some(dcqcn) = self.cfg.dcqcn {
                        self.cc[flow as usize].on_cnp(&dcqcn, self.now);
                    }
                }
                Ev::RateTick { flow } => {
                    if let Some(dcqcn) = self.cfg.dcqcn {
                        self.cc[flow as usize].on_tick(&dcqcn);
                        // A raised rate may unblock the pacer right away.
                        self.queue.push(
                            self.now,
                            Ev::Kick {
                                port: GlobalPort::new(
                                    self.flows[flow as usize].spec.src,
                                    PortId(0),
                                ),
                            },
                        );
                        let next = self.now + dcqcn.increase_interval_ns;
                        if next <= self.cfg.end_time_ns {
                            self.queue.push(next, Ev::RateTick { flow });
                        }
                    }
                }
                Ev::Sample => self.on_sample(),
                Ev::WatchdogTick => self.on_watchdog_tick(),
                Ev::RunAction { index } => self.run_action(index),
            }
        }

        self.report()
    }

    fn link_of(&self, port: GlobalPort) -> Option<&tagger_topo::Link> {
        self.topo
            .node(port.node)
            .link_at(port.port)
            .map(|l| self.topo.link(l))
    }

    /// `port`'s index into the per-port tables.
    #[inline]
    fn port_slot(&self, port: GlobalPort) -> usize {
        self.port_base[port.node.index()] as usize + port.port.index()
    }

    /// Lossless queue `(node, port, prio)`'s index into the per-queue
    /// tables.
    #[inline]
    fn queue_slot(&self, (node, port, prio): (NodeId, PortId, u8)) -> usize {
        let nl = self.cfg.switch.num_lossless;
        debug_assert!(prio < nl, "priority {prio} is not lossless");
        self.port_slot(GlobalPort::new(node, port)) * nl as usize + prio as usize
    }

    /// Attempts to start a transmission on `port` (idempotent; no-op when
    /// busy or nothing eligible).
    fn try_transmit(&mut self, port: GlobalPort) {
        let slot = self.port_slot(port);
        if self.tx_busy[slot] {
            return;
        }
        let node = self.topo.node(port.node);
        let Some(l) = node.link_at(port.port) else {
            return;
        };
        if self.failed_links[l.index()] {
            return; // dead link: nothing leaves this port
        }
        let is_host = node.kind == NodeKind::Host;
        let link = self.topo.link(l);
        let (latency, capacity_bps, peer) =
            (link.latency_ns, link.capacity_bps, link.opposite(port.node));
        // Forwarded (queued) traffic and locally-generated traffic share
        // the port; hosts alternate between the two so neither starves
        // (a forwarding BCube server still gets to send its own flows).
        let prefer_generator = is_host && self.host_tx_alt[slot];
        let mut packet = None;
        if prefer_generator {
            packet = self.next_host_packet(port.node, port.port);
        }
        if packet.is_none() {
            let qp = self.switches[port.node.index()].dequeue(port.port);
            self.flush_switch_pfc(port.node);
            packet = qp.map(|q| q.packet);
        }
        if packet.is_none() && is_host && !prefer_generator {
            packet = self.next_host_packet(port.node, port.port);
        }
        if is_host && packet.is_some() {
            self.host_tx_alt[slot] = !prefer_generator;
        }
        let Some(packet) = packet else {
            return;
        };
        let ser = (packet.size_bytes as u64 * 8).saturating_mul(1_000_000_000) / capacity_bps;
        self.tx_busy[slot] = true;
        self.queue.push(self.now + ser, Ev::TxEnd { port });
        self.queue
            .push(self.now + ser + latency, Ev::Arrive { port: peer, packet });
    }

    /// Picks the next packet a host injects: round-robin over its active,
    /// un-paused flows, with DCQCN pacing if enabled. When every active
    /// flow is merely paced into the future, schedules a wake-up kick at
    /// the earliest eligible time.
    fn next_host_packet(&mut self, host: NodeId, out_port: PortId) -> Option<Packet> {
        let dcqcn = self.cfg.dcqcn.is_some();
        let nic = self.nics[host.index()].as_mut().expect("host nic");
        let n = nic.flows.len();
        let mut wake: Option<SimTime> = None;
        let mut chosen: Option<(usize, u32)> = None;
        for i in 0..n {
            let idx = (nic.rr + i) % n;
            let fid = nic.flows[idx];
            let flow = &self.flows[fid as usize];
            if !flow.wants_to_send(self.now) {
                continue;
            }
            // Only flows whose first hop leaves via this port (pinned
            // multi-homed hosts pick their route's port; FIB flows use
            // port 0).
            let first_port = flow.pinned_port(host).unwrap_or(PortId(0));
            if first_port != out_port {
                continue;
            }
            // Hosts honor PFC for the priority their tag maps to.
            let tag = flow.spec.initial_tag;
            let prio = if tag.0 >= 1 && tag.0 <= self.cfg.switch.num_lossless as u16 {
                Some((tag.0 - 1) as u8)
            } else {
                None
            };
            if let Some(p) = prio {
                if nic.is_paused(out_port, p) {
                    continue;
                }
            }
            if dcqcn {
                let next_allowed = self.cc[fid as usize].next_allowed;
                if next_allowed > self.now {
                    wake = Some(wake.map_or(next_allowed, |w| w.min(next_allowed)));
                    continue;
                }
            }
            chosen = Some((idx, fid));
            break;
        }
        let Some((idx, fid)) = chosen else {
            if let Some(at) = wake {
                self.queue.push(
                    at,
                    Ev::Kick {
                        port: GlobalPort::new(host, out_port),
                    },
                );
            }
            return None;
        };
        self.nics[host.index()].as_mut().expect("host nic").rr = (idx + 1) % n;
        self.packet_seq += 1;
        let flow = &self.flows[fid as usize];
        let mut packet = Packet::new(
            PacketId(self.packet_seq),
            fid,
            flow.spec.dst,
            self.cfg.packet_bytes,
        );
        packet.tag = Some(flow.spec.initial_tag);
        self.flows[fid as usize].injected_bytes += packet.size_bytes as u64;
        if dcqcn {
            self.cc[fid as usize].after_send(self.now, packet.size_bytes as u64 * 8);
        }
        Some(packet)
    }

    /// Full packet arrival at `port`.
    fn on_arrive(&mut self, port: GlobalPort, mut packet: Packet) {
        let node = port.node;
        // Deliver at the destination host.
        if self.topo.node(node).kind == NodeKind::Host && packet.dst == node {
            let f = &mut self.flows[packet.flow as usize];
            f.delivered_bytes += packet.size_bytes as u64;
            f.delivered_packets += 1;
            // DCQCN: congestion-marked deliveries trigger a CNP back to
            // the source after the reverse-path delay.
            if packet.ecn {
                if let Some(dcqcn) = self.cfg.dcqcn {
                    self.queue
                        .push(self.now + dcqcn.cnp_delay_ns, Ev::Cnp { flow: packet.flow });
                }
            }
            return;
        }
        // Otherwise forward — switches always; hosts when the route says
        // so (BCube servers). A host with no onward route simply drops
        // the misrouted packet, as a real endpoint would.

        // TTL: what eventually kills looping packets (Fig 11).
        if packet.ttl <= 1 {
            self.flows[packet.flow as usize].ttl_drops += 1;
            return;
        }
        packet.ttl -= 1;

        // Forwarding decision (hosts have no FIB row).
        let flow = &self.flows[packet.flow as usize];
        let out_port = if flow.pinned_ports.is_some() {
            flow.pinned_port(node)
        } else {
            self.routes.select(node, packet.dst, packet.flow as u64)
        };
        let Some(out_port) = out_port else {
            self.no_route_drops += 1;
            return;
        };

        // Tagger pipeline step 2: tag rewrite (forwarding hosts carry
        // rules too in server-centric fabrics).
        let arriving = packet.tag;
        packet.tag = match (&self.rules, arriving) {
            (Some(index), Some(t)) => match index.decide(node, t, port.port, out_port) {
                TagDecision::Lossless(t2) => Some(t2),
                TagDecision::Lossy => None,
            },
            // Lossy is sticky: no rule ever matches an absent tag.
            (Some(_), None) => None,
            // No Tagger deployed: tags ride unchanged.
            (None, t) => t,
        };

        let sw = &mut self.switches[node.index()];
        let outcome = sw.admit(port.port, out_port, arriving, packet, self.cfg.transition);
        self.flush_switch_pfc(node);
        if matches!(outcome, AdmitOutcome::Enqueued { .. }) {
            self.try_transmit(GlobalPort::new(node, out_port));
        }
    }

    /// Delivers PFC frames a switch wants to emit to the relevant
    /// upstream neighbors, after the wire + reaction delay. With quanta
    /// modelling on, every emitted PAUSE also arms the refresh timer.
    fn flush_switch_pfc(&mut self, node: NodeId) {
        let emitted = self.switches[node.index()].take_emitted_pfc();
        for (port, frame) in emitted {
            let gp = GlobalPort::new(node, port);
            self.send_pfc(gp, frame);
        }
    }

    /// Sends one PFC frame from `gp` to its peer.
    fn send_pfc(&mut self, gp: GlobalPort, frame: PfcFrame) {
        let Some(link) = self.link_of(gp) else {
            return;
        };
        let delay = link.latency_ns + self.cfg.pfc_extra_delay_ns;
        let peer = self.topo.peer_of(gp).expect("wired");
        self.queue
            .push(self.now + delay, Ev::Pfc { port: peer, frame });
        if let (Some(quanta), PfcFrame::Pause { priority, .. }) = (self.cfg.pause_quanta_ns, frame)
        {
            self.queue.push(
                self.now + quanta / 2,
                Ev::PfcRefresh {
                    port: gp,
                    prio: priority,
                },
            );
        }
    }

    /// Receiver-side quanta expiry: ungate unless a refresh moved the
    /// deadline.
    fn on_pfc_expire(&mut self, port: GlobalPort, prio: u8, deadline: SimTime) {
        let slot = self.queue_slot((port.node, port.port, prio));
        if self.pause_deadline[slot] != Some(deadline) {
            return; // refreshed (or resumed) since this was scheduled
        }
        self.pause_deadline[slot] = None;
        self.apply_pfc(port, PfcFrame::Resume { priority: prio });
    }

    /// Pauser-side refresh: while the congestion that triggered the
    /// PAUSE persists, re-assert it before the peer's quanta runs out.
    fn on_pfc_refresh(&mut self, port: GlobalPort, prio: u8) {
        // Every node (forwarding hosts included) pauses from its data
        // plane's ingress accounting.
        let sw = &self.switches[port.node.index()];
        if sw.pause_outstanding(port.port, prio) {
            // Refreshes carry current attribution: if we have since been
            // gated downstream ourselves, the stamp rides along.
            let trigger = sw.inherited_trigger(prio);
            self.send_pfc(
                port,
                PfcFrame::Pause {
                    priority: prio,
                    trigger,
                },
            );
        }
    }

    /// PFC frame arrival on the wire: manage quanta deadlines, then
    /// apply.
    fn on_pfc(&mut self, port: GlobalPort, frame: PfcFrame) {
        if let Some(quanta) = self.cfg.pause_quanta_ns {
            match frame {
                PfcFrame::Pause { priority, .. } => {
                    let deadline = self.now + quanta;
                    let slot = self.queue_slot((port.node, port.port, priority));
                    self.pause_deadline[slot] = Some(deadline);
                    self.queue.push(
                        deadline,
                        Ev::PfcExpire {
                            port,
                            prio: priority,
                            deadline,
                        },
                    );
                }
                PfcFrame::Resume { priority } => {
                    let slot = self.queue_slot((port.node, port.port, priority));
                    self.pause_deadline[slot] = None;
                }
            }
        }
        self.apply_pfc(port, frame);
    }

    /// Applies a PFC state change to the receiving node: the data plane
    /// gate always, and (on hosts) the NIC's injection gate too.
    ///
    /// Also maintains the simulator's own pause-entry log — ground truth
    /// for cross-checking the in-band trigger stamps, tracked entirely
    /// outside the switch implementation.
    fn apply_pfc(&mut self, port: GlobalPort, frame: PfcFrame) {
        // A PAUSE landing on an ungated lossless queue starts a bout.
        // Resume does NOT erase bout history: attribution must be able to
        // corroborate a claim whose origin bout has since resolved.
        // Histories are forgotten on watchdog trips (recovery resets a
        // queue) and on link failure.
        if let PfcFrame::Pause { priority, .. } = frame {
            if priority < self.cfg.switch.num_lossless
                && !self.switches[port.node.index()].is_tx_paused(port.port, priority)
            {
                let slot = self.queue_slot((port.node, port.port, priority));
                self.pause_log[slot].push(self.now);
            }
        }
        self.switches[port.node.index()].on_pfc(port.port, frame, self.now);
        if let Some(nic) = &mut self.nics[port.node.index()] {
            nic.on_pfc(port.port, frame);
        }
        if matches!(frame, PfcFrame::Resume { .. }) {
            self.try_transmit(port);
        }
    }

    /// Periodic sampling: per-flow rates, tracked queue depths, deadlock
    /// detection.
    fn on_sample(&mut self) {
        let dt_s = self.cfg.sample_interval_ns as f64 / 1e9;
        for f in &mut self.flows {
            let delta = f.delivered_bytes - f.last_sample_bytes;
            f.last_sample_bytes = f.delivered_bytes;
            f.rate_series.push(delta as f64 * 8.0 / dt_s);
        }
        if !self.cfg.track_queues.is_empty() {
            let row = self
                .cfg
                .track_queues
                .iter()
                .map(|&(node, port, queue)| {
                    self.switches
                        .get(node.index())
                        .map(|sw| sw.queue_depth_bytes(port, queue))
                        .unwrap_or(0)
                })
                .collect();
            self.queue_series.push(row);
        }
        if self.cfg.deadlock_check {
            match detect_deadlock(&self.topo, &self.switches) {
                Some(cycle) => {
                    self.deadlock_streak += 1;
                    // Require persistence over 3 samples before declaring
                    // deadlock: transient pause cycles resolve themselves;
                    // real CBD deadlocks do not.
                    if self.deadlock_streak >= 3 && self.deadlock.is_none() {
                        self.deadlock = Some(DeadlockReport {
                            detected_at: self.now,
                            cycle: cycle.clone(),
                        });
                    }
                    if self.cfg.recovery {
                        self.break_deadlock(&cycle);
                    }
                }
                None => self.deadlock_streak = 0,
            }
        }
    }

    /// One PFC-watchdog poll: feed every queue's symptom (tx-paused with
    /// data) and cycle confirmation (membership in a wait-for-graph SCC,
    /// the structural stand-in for DCFIT's in-band probe) into its state
    /// machine, then act on the verdicts.
    fn on_watchdog_tick(&mut self) {
        let Some(wcfg) = self.cfg.watchdog else {
            return;
        };
        // Symptom scan: paused lossless queues holding data.
        let mut stuck: BTreeSet<(NodeId, PortId, u8)> = BTreeSet::new();
        for sw in &self.switches {
            let node = sw.node();
            let nl = sw.config().num_lossless;
            for p in 0..sw.num_ports() as u16 {
                let port = PortId(p);
                for prio in 0..nl {
                    if sw.is_tx_paused(port, prio) && sw.queue_depth_bytes(port, prio) > 0 {
                        stuck.insert((node, port, prio));
                    }
                }
            }
        }
        // Confirmation witness, computed once per tick: queues on a
        // circular wait. A queue stuck behind plain incast backpressure
        // is not in any cycle, so its watchdog suppresses instead of
        // tripping — the false-positive guard.
        let confirmed = if stuck.is_empty() {
            BTreeSet::new()
        } else {
            deadlocked_queues(&self.topo, &self.switches)
        };
        // Episode accounting and initial-trigger attribution, computed
        // before any verdict mutates switch state this tick: a confirmed
        // SCC appearing after none marks a new deadlock episode, and the
        // first episode's attribution is frozen for the report.
        if !confirmed.is_empty() {
            if !self.scc_active {
                self.scc_active = true;
                self.wd_episodes += 1;
                if self.wd_trigger.is_none() {
                    self.wd_trigger = self.attribute_trigger(&confirmed);
                }
            }
        } else {
            self.scc_active = false;
        }
        // Poll every symptomatic queue plus every existing state machine
        // (those in Watching need to see recovery; those in HoldDown need
        // their restore).
        let mut keys: BTreeSet<(NodeId, PortId, u8)> = self.watchdogs.keys().copied().collect();
        keys.extend(stuck.iter().copied());
        for q in keys {
            let wd = self.watchdogs.entry(q).or_default();
            let verdict = wd.poll(self.now, stuck.contains(&q), confirmed.contains(&q), &wcfg);
            let (node, port, prio) = q;
            match verdict {
                WatchdogVerdict::None => {}
                WatchdogVerdict::Suppressed => self.wd_stats.suppressions += 1,
                WatchdogVerdict::Trip => {
                    self.wd_stats.trips += 1;
                    self.wd_first_trip_at.get_or_insert(self.now);
                    // Origin evidence must be read before the flush/demote
                    // below clears the queue's attribution state.
                    let origin = self.switches[node.index()].is_trigger_origin(port, prio);
                    if origin {
                        self.wd_stats.origin_trips += 1;
                    } else {
                        self.wd_stats.inherited_trips += 1;
                    }
                    self.wd_trips.push(WatchdogTripRecord {
                        at: self.now,
                        switch: node,
                        port,
                        prio,
                        origin,
                    });
                    let sw = &mut self.switches[node.index()];
                    match wcfg.policy {
                        WatchdogPolicy::Drop => {
                            let flushed = sw.flush_queue(port, prio);
                            self.wd_stats.drained_packets += flushed.len() as u64;
                            for qp in &flushed {
                                self.flows[qp.packet.flow as usize].wd_drops += 1;
                            }
                        }
                        WatchdogPolicy::Demote => {
                            self.wd_stats.demoted_packets += sw.demote_queue(port, prio) as u64;
                        }
                    }
                    // The trip ends this queue's pause episode; the
                    // ground-truth log must forget it so a later re-pause
                    // gets a fresh entry timestamp.
                    let slot = self.queue_slot(q);
                    self.pause_log[slot].clear();
                    // Dropping/demoting released ingress accounting or
                    // cleared the gate: deliver any RESUMEs and wake the
                    // port so the lossy (or emptied) queue drains.
                    self.flush_switch_pfc(node);
                    self.try_transmit(GlobalPort::new(node, port));
                }
                WatchdogVerdict::Restore => {
                    self.wd_stats.restores += 1;
                    self.switches[node.index()].restore_queue(port, prio);
                    self.try_transmit(GlobalPort::new(node, port));
                }
            }
        }
        // Bounded-recovery timestamp: first poll after a trip at which no
        // confirmed cycle remains anywhere.
        if self.wd_first_trip_at.is_some()
            && self.wd_cleared_at.is_none()
            && deadlocked_queues(&self.topo, &self.switches).is_empty()
        {
            self.wd_cleared_at = Some(self.now);
        }
    }

    /// DCFIT-style initial-trigger attribution over a confirmed SCC,
    /// driven by the in-band stamps. PAUSE refreshes carry the `older()`
    /// combinator, so every member's claim converges on the oldest
    /// reachable pause event — the storm's origin — even while
    /// individual queues bounce across the xoff/xon hysteresis band.
    /// The attributed trigger hop is then:
    ///
    /// 1. the claim's origin queue itself, when the cycle contains it
    ///    (the cycle seeded from its own congestion, e.g. a bounce or
    ///    routing-loop deadlock); otherwise
    /// 2. the SCC member paused *directly by the origin's switch* — the
    ///    edge through which an outside pause storm (e.g. an incast
    ///    tree) entered the cycle; otherwise
    /// 3. the member holding the claim at the fewest relay hops.
    ///
    /// Hop counts alone cannot pick the entry edge: once a cycle locks,
    /// claims circulate through it and members that flap re-inherit at
    /// whatever relay distance the circulating copy has accumulated.
    /// The claim's *identity* (origin queue + epoch) is what converges.
    /// The result is cross-checked against the simulator's independent
    /// `pause_log` (first-ever pause entry per queue).
    fn attribute_trigger(
        &self,
        confirmed: &BTreeSet<(NodeId, PortId, u8)>,
    ) -> Option<TriggerAttribution> {
        // The SCC's oldest claim, by (epoch, origin queue id).
        let held = |q: &(NodeId, PortId, u8)| self.switches[q.0.index()].trigger_of(q.1, q.2);
        let (pause_epoch, origin) = confirmed
            .iter()
            .filter_map(|q| held(q).map(|s| (s.pause_epoch, (s.switch, s.port, s.prio))))
            .min()?;
        let carries = |q: &(NodeId, PortId, u8)| {
            held(q)
                .filter(|s| s.pause_epoch == pause_epoch && s.names(origin.0, origin.1, origin.2))
        };
        // Shortest observed relay distance from the origin to the cycle.
        let hops = confirmed
            .iter()
            .filter_map(|q| carries(q).map(|s| s.hops))
            .min()
            .unwrap_or(0);
        let (node, port, prio) = if confirmed.contains(&origin) {
            origin
        } else {
            confirmed
                .iter()
                .copied()
                .filter(|&(n, p, _)| {
                    self.topo
                        .peer_of(GlobalPort::new(n, p))
                        .is_some_and(|peer| peer.node == origin.0)
                })
                .min()
                .or_else(|| {
                    confirmed
                        .iter()
                        .filter_map(|&q| carries(&q).map(|s| (s.hops, q)))
                        .min()
                        .map(|(_, q)| q)
                })?
        };
        // Ground-truth corroboration against the simulator's own bout
        // log: (a) the claim's origin really entered pause at exactly
        // the claimed epoch — the stamp is not fabricated or stale past
        // a recovery — and (b) no SCC member's *surviving* bout (its
        // latest pause entry; members are gated, so the latest bout is
        // the current one) predates the claim, i.e. nothing the claim
        // fails to explain seeded the cycle earlier.
        let origin_real = self.pause_log[self.queue_slot(origin)]
            .binary_search(&pause_epoch)
            .is_ok();
        let no_older_survivor = confirmed.iter().all(|&q| {
            self.pause_log[self.queue_slot(q)]
                .last()
                .is_none_or(|&t| t >= pause_epoch)
        });
        let matches_ground_truth = origin_real && no_older_survivor;
        Some(TriggerAttribution {
            switch: node,
            port,
            prio,
            pause_epoch,
            hops,
            attributed_at: self.now,
            matches_ground_truth,
            scc: confirmed.iter().copied().collect(),
        })
    }

    /// Detect-and-break recovery: flush the first gated queue of the
    /// witness cycle, dropping its lossless packets, and wake the port.
    fn break_deadlock(&mut self, cycle: &[(NodeId, PortId, u8)]) {
        let Some(&(node, port, prio)) = cycle.first() else {
            return;
        };
        let dropped = self.switches[node.index()].flush_queue(port, prio);
        self.recoveries += 1;
        self.recovery_drops += dropped.len() as u64;
        self.flush_switch_pfc(node);
        self.try_transmit(GlobalPort::new(node, port));
    }

    fn run_action(&mut self, index: usize) {
        let action = self.actions[index].1.clone();
        match action {
            Action::ReplaceFib(fib) => self.routes = FibTable::compile(&self.topo, &fib),
            Action::ReplaceRules(rules) => {
                self.rules = Some(RuleIndex::compile(&self.topo, &rules));
            }
            Action::ApplyRuleDeltas(deltas) => {
                let rules = self
                    .rules
                    .get_or_insert_with(|| RuleIndex::empty(&self.topo));
                for delta in &deltas {
                    rules.apply_delta(delta);
                }
            }
            Action::PinFlow { flow, path } => {
                let spec = self.flows[flow as usize].spec.clone();
                let spec = FlowSpec {
                    route: Route::Pinned(path),
                    ..spec
                };
                let old = &mut self.flows[flow as usize];
                let fresh = FlowState::new(spec, &self.topo);
                old.spec = fresh.spec;
                old.pinned_ports = fresh.pinned_ports;
            }
            Action::UnpinFlow { flow } => {
                let f = &mut self.flows[flow as usize];
                f.spec.route = Route::Fib;
                f.pinned_ports = None;
            }
            Action::StopFlow { flow } => {
                let f = &mut self.flows[flow as usize];
                f.spec.limit_bytes = Some(f.injected_bytes);
            }
            Action::FailLink { link } => {
                self.failed_links[link.index()] = true;
                // Carrier loss: real switches flush packets queued on a
                // dead interface (they would otherwise pin ingress PFC
                // accounting forever and freeze their upstreams).
                let l = self.topo.link(link);
                for gp in [l.a, l.b] {
                    let queues = self.cfg.switch.queues_per_port() as u8;
                    let sw = &mut self.switches[gp.node.index()];
                    for q in 0..queues {
                        self.link_down_drops += sw.flush_queue(gp.port, q).len() as u64;
                    }
                    for q in 0..self.cfg.switch.num_lossless {
                        let slot = self.queue_slot((gp.node, gp.port, q));
                        self.pause_log[slot].clear();
                    }
                    self.flush_switch_pfc(gp.node);
                }
            }
            Action::RestoreLink { link } => {
                if std::mem::take(&mut self.failed_links[link.index()]) {
                    // Wake both transmitters.
                    let l = self.topo.link(link);
                    let (a, b) = (l.a, l.b);
                    self.queue.push(self.now, Ev::Kick { port: a });
                    self.queue.push(self.now, Ev::Kick { port: b });
                }
            }
        }
    }

    fn report(&self) -> SimReport {
        let flows = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowReport {
                flow: i as u32,
                src: f.spec.src,
                dst: f.spec.dst,
                delivered_bytes: f.delivered_bytes,
                delivered_packets: f.delivered_packets,
                ttl_drops: f.ttl_drops,
                wd_drops: f.wd_drops,
                rate_series: f.rate_series.clone(),
            })
            .collect();
        let watchdog = self.cfg.watchdog.map(|_| WatchdogReport {
            stats: self.wd_stats,
            trips: self.wd_trips.clone(),
            first_trip_at: self.wd_first_trip_at,
            cleared_at: self.wd_cleared_at,
            trigger: self.wd_trigger.clone(),
            episodes: self.wd_episodes,
        });
        SimReport {
            flows,
            deadlock: self.deadlock.clone(),
            // Every per-switch counter is summed here, in one place, and
            // reported whole.
            switch: self.switches.iter().map(|sw| sw.stats).sum(),
            no_route_drops: self.no_route_drops,
            recoveries: self.recoveries,
            recovery_drops: self.recovery_drops,
            link_down_drops: self.link_down_drops,
            watchdog,
            queue_series: self.queue_series.clone(),
            end_time_ns: self.cfg.end_time_ns,
            sample_interval_ns: self.cfg.sample_interval_ns,
            events_processed: self.events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagger_topo::{ClosConfig, FailureSet};

    fn small_sim(rules: Option<RuleSet>, num_lossless: u8) -> Simulator {
        let topo = ClosConfig::small().build();
        let fib = Fib::shortest_path(&topo, &FailureSet::none());
        let cfg = SimConfig {
            switch: SwitchConfig {
                num_lossless,
                xoff_bytes: 20_000,
                xon_bytes: 10_000,
                ..SwitchConfig::default()
            },
            end_time_ns: 2_000_000, // 2 ms
            ..SimConfig::default()
        };
        Simulator::new(topo, fib, rules, cfg)
    }

    #[test]
    fn single_flow_reaches_line_rate() {
        let mut sim = small_sim(None, 1);
        let topo = sim.topo().clone();
        let f = sim.add_flow(FlowSpec::new(
            topo.expect_node("H1"),
            topo.expect_node("H9"),
            0,
        ));
        let report = sim.run();
        let r = &report.flows[f as usize];
        // 40G line rate, minus serialization pipelining slack: expect
        // > 90% of line rate in the last samples.
        assert!(
            r.tail_rate(5) > 36e9,
            "tail rate {} too low",
            r.tail_rate(5)
        );
        assert!(report.deadlock.is_none());
        assert_eq!(report.switch.lossless_drops, 0);
    }

    #[test]
    fn two_flows_share_a_bottleneck_fairly() {
        let mut sim = small_sim(None, 1);
        let topo = sim.topo().clone();
        // Both flows into H1: bottleneck is the T1 -> H1 access link.
        let a = sim.add_flow(FlowSpec::new(
            topo.expect_node("H2"),
            topo.expect_node("H1"),
            0,
        ));
        let b = sim.add_flow(FlowSpec::new(
            topo.expect_node("H3"),
            topo.expect_node("H1"),
            0,
        ));
        let report = sim.run();
        let ra = report.flows[a as usize].tail_rate(5);
        let rb = report.flows[b as usize].tail_rate(5);
        assert!(ra + rb > 36e9, "sum {}", ra + rb);
        let ratio = ra / rb;
        assert!((0.8..1.25).contains(&ratio), "unfair split {ratio}");
        // PFC must have throttled the sources.
        assert!(report.switch.pauses_sent > 0);
        assert_eq!(report.switch.lossless_drops, 0);
    }

    #[test]
    fn limited_flow_stops() {
        let mut sim = small_sim(None, 1);
        let topo = sim.topo().clone();
        let f = sim.add_flow(
            FlowSpec::new(topo.expect_node("H1"), topo.expect_node("H5"), 0).with_limit(50_000),
        );
        let report = sim.run();
        assert_eq!(report.flows[f as usize].delivered_bytes, 50_000);
    }

    #[test]
    fn pinned_flow_follows_its_path() {
        let mut sim = small_sim(None, 1);
        let topo = sim.topo().clone();
        let path: Vec<NodeId> = ["H1", "T1", "L2", "S2", "L4", "T4", "H13"]
            .iter()
            .map(|n| topo.expect_node(n))
            .collect();
        let f = sim.add_flow(
            FlowSpec::new(path[0], path[6], 0)
                .pinned(path)
                .with_limit(10_000),
        );
        let report = sim.run();
        assert_eq!(report.flows[f as usize].delivered_bytes, 10_000);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = small_sim(None, 1);
            let topo = sim.topo().clone();
            sim.add_flow(FlowSpec::new(
                topo.expect_node("H1"),
                topo.expect_node("H9"),
                0,
            ));
            sim.add_flow(FlowSpec::new(
                topo.expect_node("H2"),
                topo.expect_node("H9"),
                50_000,
            ));
            let r = sim.run();
            (
                r.flows[0].delivered_bytes,
                r.flows[1].delivered_bytes,
                r.switch.pauses_sent,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pause_quanta_do_not_change_steady_state() {
        // Incast with and without quanta modelling reaches the same
        // sharing; refreshes keep pauses alive exactly as level signals
        // would.
        let run = |quanta: Option<u64>| {
            let topo = ClosConfig::small().build();
            let fib = Fib::shortest_path(&topo, &FailureSet::none());
            let cfg = SimConfig {
                switch: SwitchConfig {
                    num_lossless: 1,
                    xoff_bytes: 20_000,
                    xon_bytes: 10_000,
                    ..SwitchConfig::default()
                },
                pause_quanta_ns: quanta,
                end_time_ns: 2_000_000,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(topo.clone(), fib, None, cfg);
            sim.add_flow(FlowSpec::new(
                topo.expect_node("H2"),
                topo.expect_node("H1"),
                0,
            ));
            sim.add_flow(FlowSpec::new(
                topo.expect_node("H3"),
                topo.expect_node("H1"),
                0,
            ));
            let r = sim.run();
            (
                r.switch.lossless_drops,
                r.flows[0].tail_rate(5) + r.flows[1].tail_rate(5),
            )
        };
        let (drops_level, sum_level) = run(None);
        let (drops_quanta, sum_quanta) = run(Some(50_000));
        assert_eq!(drops_level, 0);
        assert_eq!(drops_quanta, 0);
        assert!(sum_level > 36e9);
        assert!(sum_quanta > 36e9);
    }

    #[test]
    fn expired_pause_without_refresh_ungates() {
        // Deliver a PAUSE whose sender immediately drains (so no refresh
        // follows): the gate must lift after one quanta. Construct by
        // letting the incast clear: single short flow, then observe the
        // network quiesces with no stuck gates (all bytes delivered).
        let topo = ClosConfig::small().build();
        let fib = Fib::shortest_path(&topo, &FailureSet::none());
        let cfg = SimConfig {
            switch: SwitchConfig {
                num_lossless: 1,
                xoff_bytes: 4_000,
                xon_bytes: 1_000,
                ..SwitchConfig::default()
            },
            pause_quanta_ns: Some(20_000),
            end_time_ns: 3_000_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo.clone(), fib, None, cfg);
        let a = sim.add_flow(
            FlowSpec::new(topo.expect_node("H2"), topo.expect_node("H1"), 0).with_limit(400_000),
        );
        let b = sim.add_flow(
            FlowSpec::new(topo.expect_node("H3"), topo.expect_node("H1"), 0).with_limit(400_000),
        );
        let report = sim.run();
        assert_eq!(report.flows[a as usize].delivered_bytes, 400_000);
        assert_eq!(report.flows[b as usize].delivered_bytes, 400_000);
        assert_eq!(report.switch.lossless_drops, 0);
    }

    /// The FIB and the rule program exist only compiled, so every action
    /// that replaces or edits one must recompile it: a blackhole override
    /// starts dropping, a ToR's withdrawn rules send the incast entering
    /// there lossy, and the reinstalled program brings it back to
    /// lossless.
    #[test]
    fn replaced_and_edited_tables_take_effect_mid_run() {
        let topo = ClosConfig::small().build();
        let rules = tagger_core::clos::clos_tagging(&topo, 1)
            .expect("clos tagging")
            .rules()
            .clone();
        let [t1, t2, h1, h2, h5, h9, h13] =
            ["T1", "T2", "H1", "H2", "H5", "H9", "H13"].map(|n| topo.expect_node(n));
        let mut blackhole = Fib::shortest_path(&topo, &FailureSet::none());
        blackhole.set_override(t2, h13, Vec::new());
        let withdraw = tagger_core::RuleDelta {
            switch: t1,
            add: Vec::new(),
            remove: rules.rules_for(t1),
        };
        // The run is deterministic, so a shorter horizon reports the
        // counters of a prefix of the same run.
        let until = |end_us: u64| {
            let mut sim = small_sim(Some(rules.clone()), 2);
            sim.cfg.end_time_ns = end_us * 1_000;
            // A 2:1 incast from T1's hosts into H9, and a flow across T2.
            sim.add_flow(FlowSpec::new(h1, h9, 0));
            sim.add_flow(FlowSpec::new(h2, h9, 0));
            sim.add_flow(FlowSpec::new(h5, h13, 0));
            sim.at(400_000, Action::ReplaceFib(blackhole.clone()));
            sim.at(800_000, Action::ApplyRuleDeltas(vec![withdraw.clone()]));
            sim.at(1_200_000, Action::ReplaceRules(rules.clone()));
            sim.run()
        };
        // Each phase is read just before the next action.
        let (before, blackholed, withdrawn) = (until(399), until(799), until(1_199));
        let (reinstalled, end) = (until(1_300), until(2_000));
        assert_eq!(before.no_route_drops, 0);
        assert!(blackholed.no_route_drops > 0, "the blackhole drops");
        assert_eq!(blackholed.switch.lossy_drops, 0, "PFC holds the incast");
        assert!(
            withdrawn.switch.lossy_drops > 0,
            "without T1's rules the incast is lossy"
        );
        assert_eq!(
            end.switch.lossy_drops, reinstalled.switch.lossy_drops,
            "the reinstalled rules make the incast lossless again"
        );
        assert!(end.switch.pauses_sent > reinstalled.switch.pauses_sent);
        assert_eq!(end.switch.lossless_drops, 0);
    }

    #[test]
    fn stopped_flow_frees_bandwidth() {
        let mut sim = small_sim(None, 1);
        let topo = sim.topo().clone();
        let a = sim.add_flow(FlowSpec::new(
            topo.expect_node("H2"),
            topo.expect_node("H1"),
            0,
        ));
        let b = sim.add_flow(FlowSpec::new(
            topo.expect_node("H3"),
            topo.expect_node("H1"),
            0,
        ));
        sim.at(1_000_000, Action::StopFlow { flow: a });
        let report = sim.run();
        // After a stops, b should climb back toward line rate.
        let rb = report.flows[b as usize].tail_rate(3);
        assert!(rb > 30e9, "b tail rate {rb}");
        let _ = a;
    }
}
