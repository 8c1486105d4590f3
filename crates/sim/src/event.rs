//! Simulation time and the events the simulator schedules.

use tagger_switch::{Packet, PfcFrame};
use tagger_topo::GlobalPort;

/// Simulation time in nanoseconds since start.
pub type SimTime = u64;

/// One nanosecond-scale event.
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    /// A packet finished arriving at `port` (fully received).
    Arrive {
        /// Receiving port.
        port: GlobalPort,
        /// The packet, tag as sent by the upstream node.
        packet: Packet,
    },
    /// The transmitter on `port` finished serializing its current packet.
    TxEnd {
        /// Sending port.
        port: GlobalPort,
    },
    /// A PFC frame arrives at `port`.
    Pfc {
        /// Receiving port.
        port: GlobalPort,
        /// The frame.
        frame: PfcFrame,
    },
    /// Poke the transmitter on `port` (flow start, unpause, etc.).
    Kick {
        /// Port to poke.
        port: GlobalPort,
    },
    /// A received PAUSE's quanta ran out: ungate unless refreshed since.
    PfcExpire {
        /// Gated port.
        port: GlobalPort,
        /// Priority.
        prio: u8,
        /// The deadline this event was scheduled for (stale events are
        /// ignored when a refresh moved the deadline).
        deadline: SimTime,
    },
    /// The pausing side re-asserts an outstanding PAUSE (real PFC
    /// refreshes before the quanta expires).
    PfcRefresh {
        /// The congested ingress port (pause destination = its peer).
        port: GlobalPort,
        /// Priority.
        prio: u8,
    },
    /// A congestion-notification packet reaches a flow's source NIC.
    Cnp {
        /// The congested flow.
        flow: u32,
    },
    /// Periodic DCQCN additive-increase tick for one flow.
    RateTick {
        /// The flow.
        flow: u32,
    },
    /// Periodic statistics sample.
    Sample,
    /// Periodic PFC-watchdog poll (finer-grained than `Sample`, present
    /// only when a watchdog is configured).
    WatchdogTick,
    /// Run the scripted action with this index.
    RunAction {
        /// Index into the simulator's action list.
        index: usize,
    },
}
