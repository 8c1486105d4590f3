//! # tagger-core — the Tagger algorithm
//!
//! Implements the contribution of *"Tagger: Practical PFC Deadlock
//! Prevention in Data Center Networks"* (Hu et al., CoNEXT 2017):
//!
//! - [`Elp`] — the operator-supplied set of *expected lossless paths*.
//! - [`TaggedGraph`] — the tagged graph `G(V, E)` of paper §5: nodes are
//!   `(ingress port, tag)` pairs, edges are tag-rewrite transitions. Its
//!   [`TaggedGraph::verify`] method checks the two requirements of
//!   Theorem 5.1 (per-tag acyclicity and tag monotonicity), which together
//!   certify deadlock freedom.
//! - [`tag_by_hop_count`] — Algorithm 1: the brute-force monotone tagging
//!   that increments the tag on every hop.
//! - [`greedy_minimize`] — Algorithm 2: greedy merging of brute-force tags
//!   into the fewest lossless priorities the heuristic can find.
//! - [`clos::clos_tagging`] — the Clos-specific construction of §4: tag =
//!   bounce count + 1, provably optimal at `k + 1` lossless priorities for
//!   ELPs with up to `k` bounces.
//! - [`RuleSet`] — per-switch `(tag, in-port, out-port) → new-tag`
//!   match-action rules derived from a tagged graph, with the lossy
//!   fallback of §4.2, and [`tcam`] — TCAM entries with the bit-mask
//!   compression of §7.
//! - [`multiclass`] — tag sharing across application classes (§6).
//! - [`oracle`] — does *any* deadlock-free tagging fit a tag budget?
//! - [`digraph`] — the acyclicity kernel all of the above (and the
//!   simulator's deadlock detector) ask their cycle questions of.
//! - [`json`] — the one JSON value, renderer and parser behind every
//!   byte-stable report (lint, fleet, scenario, ingest).
//! - [`Samples`] — the one µs latency series (controller stage times,
//!   audit times) and its nearest-rank percentile.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code paths reachable from user-supplied artifacts (table
// text, checkpoints) must return typed errors, never panic; test-only
// uses are allow-listed per test module.
#![warn(clippy::unwrap_used)]

mod algorithm1;
pub(crate) mod algorithm2;
pub mod clos;
pub mod digraph;
pub mod dscp;
mod elp;
mod graph;
pub mod json;
pub mod multiclass;
pub mod oracle;
mod ports;
mod rules;
mod samples;
pub mod tcam;
mod turn;

pub use algorithm1::tag_by_hop_count;
pub use algorithm2::{apply_assignment, greedy_assignment, greedy_minimize, minimize_elp};
pub use elp::Elp;
pub use graph::{Tag, TaggedEdge, TaggedGraph, TaggedNode, VerifyError};
pub use oracle::{decide, Feasible, Infeasible, Verdict, WitnessOrder, HARDWARE_TAG_CEILING};
pub use rules::{
    InstallError, RuleDelta, RuleError, RuleSet, SpannedRule, SwitchRule, TableTextError,
    TableTextErrorKind, TableTextParse, TagDecision, Tagging,
};
pub use samples::Samples;
/// Source spans, from `tagger-topo` so the topology spec parser below
/// this crate reports the same coordinates as every parser above it.
pub use tagger_topo::span;
pub use tagger_topo::span::Span;
pub use turn::TurnHasher;
