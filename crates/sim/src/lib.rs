//! # tagger-sim — deterministic discrete-event PFC network simulator
//!
//! Replaces the paper's hardware testbed (§8): hosts inject line-rate
//! RDMA-style flows, switches run the [`tagger_switch`] data plane with
//! real PFC PAUSE/RESUME dynamics, and the simulator observes per-flow
//! throughput, PAUSE propagation and deadlock formation.
//!
//! Fidelity choices (see `DESIGN.md` for the full substitution table):
//!
//! - store-and-forward switching with per-link serialization and
//!   propagation delay;
//! - PFC frames delivered after the wire delay, bypassing data queues
//!   (as MAC control frames do);
//! - hosts honor PFC on their uplink (RoCE NIC behaviour) and otherwise
//!   inject at line rate — like the paper's testbed, no DCQCN, so PFC is
//!   the only backpressure and deadlock phenomena appear undamped;
//! - destination-based forwarding through a [`tagger_routing::Fib`], with
//!   per-flow pinned paths available for reproducing exact scenarios
//!   (Figures 3, 10, 12), and FIB overrides for routing loops (Figure 11).
//!
//! Everything is deterministic: same inputs, same event order, same
//! results.
//!
//! ```
//! use tagger_sim::{FlowSpec, SimConfig, Simulator};
//! use tagger_routing::Fib;
//! use tagger_topo::{ClosConfig, FailureSet};
//!
//! let topo = ClosConfig::small().build();
//! let fib = Fib::shortest_path(&topo, &FailureSet::none());
//! let cfg = SimConfig { end_time_ns: 200_000, ..SimConfig::default() };
//! let mut sim = Simulator::new(topo.clone(), fib, None, cfg);
//! sim.add_flow(FlowSpec::new(
//!     topo.expect_node("H1"),
//!     topo.expect_node("H9"),
//!     0,
//! ));
//! let report = sim.run();
//! assert!(report.deadlock.is_none());
//! assert!(report.flows[0].delivered_bytes > 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod dcqcn;
mod deadlock;
mod event;
mod flow;
mod nic;
mod report;
mod sim;

pub mod queue;
pub mod tables;

pub mod experiments;
pub mod probe;

pub use dcqcn::DcqcnConfig;
pub use deadlock::DeadlockReport;
pub use event::SimTime;
pub use experiments::Experiment;
pub use flow::{FlowReport, FlowSpec, Route};
pub use report::{SimReport, TriggerAttribution, WatchdogReport, WatchdogTripRecord};
pub use sim::{Action, SimConfig, Simulator};
