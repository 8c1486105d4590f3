//! The fleet's network ingest front — DESIGN §15.
//!
//! Four layers, each testable alone:
//!
//! - [`wire`] — the length-prefixed framed protocol and its
//!   resynchronizing decoder. Torn frames cost bytes, never
//!   connections.
//! - [`server`] — `tagger-fleetd serve`: reader threads with deadlines
//!   and per-connection budgets feeding the fair
//!   [`drain_cycle`](crate::Fleet::drain_cycle), per-client sequence
//!   dedupe, graceful drain-then-close shutdown.
//! - [`client`] — `tagger-ingest`: strict one-in-flight delivery with
//!   seeded backoff + jitter and bounded retries, reporting a
//!   byte-stable delivery summary.
//! - [`chaos`] — a seeded transport proxy injecting disconnects,
//!   delays, duplicates, and mid-frame truncation, so every failure
//!   mode above is exercised deterministically in loopback soaks.
//!
//! The invariant the whole stack defends: events reach each fabric's
//! queue **exactly once and in order**, so the write-ahead journals a
//! networked ingest produces are byte-identical to a solo in-process
//! replay of the same lines — chaos or no chaos.

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

pub use crate::registry::chaos_for;
pub use chaos::{ChaosStats, ChaosTransport, NetChaosConfig};
pub use client::{send_lines, ClientConfig, DeliveryReport, Rejection};
pub use server::{ServeConfig, Server, ServerStats, ShutdownOutcome};
