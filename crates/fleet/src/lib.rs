//! Multi-fabric control-plane supervision for Tagger — the library
//! behind `tagger-fleetd`.
//!
//! One controller process per fabric does not survive contact with a
//! real deployment: operators run *fleets* of fabrics, and the
//! interesting failures are cross-fabric — a flap storm in one fabric
//! starving the others' recomputes, two fabrics accidentally journaling
//! into the same file, a fleet-wide rollout gated on every fabric being
//! simultaneously certified. This crate supervises N independent
//! fabrics in one process while keeping them *provably* independent:
//!
//! - [`Fabric`] — one fabric's controller, write-ahead journal, chaos
//!   (or reliable) southbound, and independent audit loop, behind a
//!   bounded ingest queue with a per-fabric [`Damping`]. Nothing is
//!   shared between fabrics, and every batch a fabric drains goes through
//!   [`Journal::step`](tagger_ctrl::Journal::step).
//! - [`Fleet`] — the registry and fair drain loop. Registration derives
//!   an isolated journal path per fabric and refuses duplicates even
//!   across path respellings; draining gives every fabric with queued
//!   events one turn per cycle with a bounded batch quantum, so one
//!   flapping fabric cannot starve the rest, and a cycle's turns run
//!   across cores. Because damping is suffix-closed, the bounded
//!   interleaved drain commits *exactly* the epochs a solo replay
//!   would. Stream
//!   fronts register fabrics on first mention through
//!   [`Fleet::ingest_stream_line`], chaos seeded by name ([`chaos_for`]).
//! - [`FleetReport`] — per-fabric status plus `Sum`-based rollups of
//!   [`ControllerMetrics`](tagger_ctrl::ControllerMetrics) and
//!   [`AuditMetrics`](tagger_audit::AuditMetrics), rendered as operator
//!   text or seed-deterministic JSON.
//! - [`run_soak`] — the chaos-soak drill: every fabric under a distinct
//!   seeded fault schedule, graded on audit certification, journal
//!   recoverability, quarantine consistency, and southbound convergence,
//!   emitting a byte-stable [`ReadinessReport`]. `tests/soak_e2e.rs`
//!   holds it to `results/fleet_soak.txt`; [`fabric_lines`],
//!   [`fabric_seed`] and [`solo_replay`] are what `tests/net_soak.rs`
//!   drives through the network front and holds to
//!   `results/ingest_drill.txt`.
//! - [`net`] — the framed TCP ingest front (DESIGN §15): a
//!   resynchronizing wire codec, a server that is one readiness loop on
//!   one thread, with per-client sequence dedupe and `Backpressure`
//!   instead of drops, a bounded retry client, and a seeded chaos
//!   transport proxy — events arrive exactly once, and networked
//!   journals are byte-identical to a solo replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod error;
mod fabric;
pub mod net;
mod registry;
mod report;
mod soak;

pub use error::FleetError;
pub use fabric::{Fabric, FabricId, FabricSpec};
pub use registry::{chaos_for, fnv64, Fleet, FleetConfig};
pub use report::{FabricStatus, FleetReport};
pub use soak::{
    fabric_lines, fabric_seed, run_soak, soak_schedule, solo_replay, FabricReadiness,
    ReadinessReport, SoakConfig, SoakOutcome,
};
pub use tagger_ctrl::Damping;
