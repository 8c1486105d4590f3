//! # tagger-ctrl — an incremental control plane for live tag management
//!
//! The Tagger paper (§4, §8) assumes tags and match-action rules are
//! installed once, ahead of time, for a *static* ELP set. Real fabrics
//! are not static: links fail and recover, and operators grow or shrink
//! the expected lossless path set while traffic is flowing. This crate
//! adds the missing piece — a small event-driven controller that keeps a
//! fleet of switches converged on a deadlock-free tagging as the network
//! changes, without ever reinstalling full tables.
//!
//! The moving parts:
//!
//! - [`CtrlEvent`] — the event vocabulary (`LinkDown`, `LinkUp`,
//!   `ElpAdd`, `ElpRemove`, `Resync`, watchdog trips and clears),
//!   parseable from a plain-text trace with [`parse_trace`] so recorded
//!   incidents can be replayed.
//! - [`NetworkState`] — the controller's versioned view of the world: a
//!   topology overlaid with a live [`tagger_topo::FailureSet`] plus any
//!   operator-added ELPs and watchdog quarantines.
//! - [`Controller`] — one batch of events is one epoch of a **two-phase
//!   rollout**: *stage* (the tagging for the new state: the paper's
//!   closed form, which carries every pinned extra at its own hops and
//!   whose tables no link event changes), *validate* (Theorem 5.1
//!   verification plus a per-switch TCAM budget), then either *commit* — per-switch [`RuleDelta`]s diffed
//!   against the last committed snapshot — or *roll back*, leaving the
//!   previous verified tables untouched.
//!   [`Controller::handle_batch_via`] pushes the deltas through a
//!   [`Southbound`] ([`ReliableSouthbound`], or the seeded
//!   fault-injecting [`ChaosSouthbound`]) with per-switch retry and
//!   backoff under an [`InstallPolicy`] and enforces a commit barrier:
//!   an epoch lands everywhere or is rolled back everywhere — the fleet
//!   is never left running a mix of epochs.
//! - [`Damping`] — how an event stream is split into those batches
//!   (none, per-link flap runs, capped flap runs). Every variant is
//!   suffix-closed, so a bounded ingest queue can drain a few batches
//!   per cycle without changing how the remainder will batch.
//! - [`Journal`] — the write-ahead journal with snapshot checkpoints,
//!   and **the one rollout step**, [`Journal::step`]: write-ahead →
//!   [`Controller::handle_batch_via`] → outcome record →
//!   [`CommitObserver`] on commit → checkpoint on cadence. The fleet's
//!   drain and the daemons loop over it, and so does [`Journal::drive`],
//!   the reference replay the tests compare them against. [`recover`]
//!   rebuilds a crashed controller to byte-identical committed tables,
//!   [`Controller::reconcile`] repairs whatever a mid-epoch crash left
//!   on the switches, and [`Journal::open_append`] lets the recovered
//!   controller finish the batch that was in flight and keep journaling.
//! - [`ControllerMetrics`] — counters and the stage-latency series with a
//!   plain-text [`ControllerMetrics::report`]; the fleet reads its
//!   batch, commit and rollback counts from here.
//!
//! The invariant the controller maintains is the one that matters for
//! PFC safety: **every committed snapshot's rules were certified when
//! staged** (monotone, per-tag acyclic — Theorem 5.1 of the paper), and
//! replaying the emitted deltas from epoch 0 reconstructs the committed
//! tables exactly, so switches that apply deltas in order can never
//! drift from the certificate.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The controller ingests untrusted artifacts (traces, journals); library
// paths must return typed errors, never panic. Tests are allow-listed.
#![warn(clippy::unwrap_used)]

mod chaos;
mod controller;
mod damping;
mod event;
mod journal;
mod metrics;
mod observer;
mod southbound;
mod state;

pub use chaos::{ChaosConfig, ChaosSouthbound};
pub use controller::{
    CommitReport, Controller, CtrlError, EpochOutcome, InstallPolicy, RollbackReason, Snapshot,
};
pub use damping::Damping;
pub use event::{parse_trace, CtrlEvent, TraceError, TraceErrorKind, TriggerInfo};
pub use journal::{recover, DriveReport, Journal, JournalError, Recovery};
pub use metrics::ControllerMetrics;
pub use observer::CommitObserver;
pub use southbound::{ReliableSouthbound, Southbound};
pub use state::{ElpPolicy, NetworkState};

pub use tagger_core::{InstallError, RuleDelta};
