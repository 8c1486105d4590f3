//! # tagger-audit — independent deadlock-freedom certification
//!
//! The Tagger control plane (`tagger-ctrl`) verifies every epoch before
//! committing it — with the same code that generated it. This crate is
//! the second, independent line of defence the paper's operational story
//! needs: a verifier that starts from the *committed per-switch tables*
//! (live from a `tagger-ctrl` commit-observer hook, or offline from a
//! checkpoint file) and re-proves deadlock freedom from scratch:
//!
//! 1. **Decompile** ([`decompile`]): expand every TCAM-compressed,
//!    port-bitmap-masked entry back into concrete `(tag, in-port,
//!    out-port) → new-tag` tuples against the topology's real port
//!    map, flagging entries whose expansion disagrees with the
//!    uncompressed intent ([`Finding::TcamMismatch`]).
//! 2. **Reconstruct & certify** ([`depgraph`], [`certificate`]): rebuild
//!    the per-tag buffer-dependency graph purely from those tuples plus
//!    link adjacency, then certify acyclicity with Kahn's algorithm and
//!    tag monotonicity by edge inspection — none of the verdict logic is
//!    shared with `TaggedGraph::verify`. A clean audit emits an
//!    [`AuditCertificate`] carrying per-tag node/edge counts and a
//!    topological-order witness anyone can re-check in linear time.
//! 3. **Counterexample** ([`counterexample`]): on failure, extract a
//!    minimal buffer cycle, render it over the topology via Graphviz
//!    with the cycle highlighted, and generate concrete flows that
//!    `tagger-sim` replays to *demonstrate* the deadlock.
//! 4. **What-if** ([`whatif`]): audit hypothetical link failures against
//!    the committed tables and the `≤ k`-bounce reroutes they imply.
//!
//! An audit is a pure function of the auditor's own topology and the
//! intent it is handed, so [`Auditor::audit`] re-issues its last
//! certificate, re-stamped, for an intent exactly equal to the one that
//! earned it. Reuse is decided by `==` on that input alone, never by a
//! hash or by anything the controller claims, so the audit stays
//! independent; [`Auditor::audit_program`] never reuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod certificate;
pub mod checkpoint;
pub mod counterexample;
pub mod decompile;
pub mod depgraph;
pub mod metrics;
pub mod whatif;

pub use certificate::{AuditCertificate, TagCertificate};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use counterexample::Counterexample;
pub use depgraph::{DepGraph, DepNode, KahnResult};
pub use metrics::AuditMetrics;
pub use whatif::WhatIfScenario;

use std::fmt::Write as _;
use std::time::Instant;
use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::RuleSet;
use tagger_topo::{FailureSet, NodeId, Topology};

/// Simulated time horizon for counterexample replays, ns. Long enough
/// for staggered flows to fill the cycle's buffers and the deadlock
/// detector to trip.
pub const REPLAY_END_NS: u64 = 2_000_000;

/// One thing the auditor found wrong with a committed table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// A TCAM entry's expansion disagrees with the uncompressed intent
    /// for one concrete `(tag, in, out)` tuple.
    TcamMismatch {
        /// Switch whose TCAM diverges.
        switch: NodeId,
        /// What the intent wanted for the tuple (`None`: the TCAM
        /// matches a tuple the intent never covered).
        expected: Option<tagger_core::SwitchRule>,
        /// What the TCAM actually does (`None`: the tuple was lost).
        got: Option<tagger_core::SwitchRule>,
    },
    /// A dependency edge whose tag goes down — a monotonicity violation
    /// (Theorem 5.1, condition 2).
    TagDecrease {
        /// Upstream buffer.
        from: DepNode,
        /// Downstream buffer with the smaller tag.
        to: DepNode,
    },
    /// A cycle over lossless buffers — a live CBD (Theorem 5.1,
    /// condition 1).
    CyclicDependency {
        /// The offending cycle, canonically rotated.
        cycle: Vec<DepNode>,
    },
}

impl Finding {
    /// Human rendering with switch/port names resolved.
    pub fn describe(&self, topo: &Topology) -> String {
        match self {
            Finding::TcamMismatch {
                switch,
                expected,
                got,
            } => {
                let name = &topo.node(*switch).name;
                let show = |r: &Option<tagger_core::SwitchRule>| match r {
                    Some(r) => format!(
                        "({}, in #{}, out #{}) -> {}",
                        r.tag.0, r.in_port.0, r.out_port.0, r.new_tag.0
                    ),
                    None => "nothing".to_string(),
                };
                format!(
                    "tcam mismatch on {name}: intent {} but tcam does {}",
                    show(expected),
                    show(got)
                )
            }
            Finding::TagDecrease { from, to } => format!(
                "tag decrease: {} -> {}",
                from.describe(topo),
                to.describe(topo)
            ),
            Finding::CyclicDependency { cycle } => {
                let hops: Vec<String> = cycle.iter().map(|n| n.describe(topo)).collect();
                format!("cyclic buffer dependency: {} -> (back)", hops.join(" -> "))
            }
        }
    }
}

/// Everything one audit produced.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Epoch audited.
    pub epoch: u64,
    /// Concrete tuples recovered from the installed TCAMs.
    pub rules_decompiled: u64,
    /// Violations, empty on a clean audit.
    pub findings: Vec<Finding>,
    /// Issued iff `findings` is empty.
    pub certificate: Option<AuditCertificate>,
    /// Extracted iff a cycle was found.
    pub counterexample: Option<Counterexample>,
}

impl AuditReport {
    /// True when the tables are certified deadlock-free.
    pub fn is_certified(&self) -> bool {
        self.findings.is_empty() && self.certificate.is_some()
    }

    /// Plain-text rendering for logs and the CLI.
    pub fn render(&self, topo: &Topology) -> String {
        let mut out = String::new();
        if let Some(cert) = &self.certificate {
            out.push_str(&cert.render(topo));
        } else {
            let _ = writeln!(
                out,
                "AUDIT FAILED: epoch {} has {} finding(s)",
                self.epoch,
                self.findings.len()
            );
            for f in &self.findings {
                let _ = writeln!(out, "  {}", f.describe(topo));
            }
            if let Some(cx) = &self.counterexample {
                let _ = writeln!(out, "  counterexample flows:");
                for (label, _) in &cx.flows {
                    let _ = writeln!(out, "    {label}");
                }
            }
        }
        out
    }
}

/// The auditor: owns the topology it certifies against and accumulates
/// [`AuditMetrics`] across epochs.
///
/// It also keeps the last intent it certified through [`Auditor::audit`]
/// and the report that intent earned. An audit is a pure function of the
/// auditor's own topology and the intent, so an intent equal to that one,
/// rule for rule, earns the same report, re-stamped with its epoch.
#[derive(Clone, Debug)]
pub struct Auditor {
    topo: Topology,
    /// Counters across every audit this auditor ran.
    pub metrics: AuditMetrics,
    last_certified: Option<(RuleSet, AuditReport)>,
}

impl Auditor {
    /// An auditor for one fabric.
    pub fn new(topo: Topology) -> Auditor {
        Auditor {
            topo,
            metrics: AuditMetrics::default(),
            last_certified: None,
        }
    }

    /// The fabric this auditor certifies against.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Audits committed `intent` tables as they would be installed:
    /// compiles them with joint bitmap compression (what the real
    /// southbound ships) and audits the result.
    ///
    /// An `intent` equal to the last one this auditor certified here is
    /// not audited again: its report is re-issued with `epoch` stamped
    /// in, and counted in [`AuditMetrics::audits_reused`]. Anything else,
    /// down to one rule, gets the full audit; a failed audit is never
    /// kept, and does not displace the last certified intent.
    pub fn audit(&mut self, epoch: u64, intent: &RuleSet) -> AuditReport {
        let t0 = Instant::now();
        if let Some((certified, report)) = &self.last_certified {
            if certified == intent {
                let mut report = report.clone();
                report.epoch = epoch;
                if let Some(cert) = &mut report.certificate {
                    cert.epoch = epoch;
                }
                self.metrics.audits_reused += 1;
                self.count(&report, t0);
                return report;
            }
        }
        let program = TcamProgram::compile(&self.topo, intent, Compression::Joint);
        let report = self.audit_program(epoch, intent, &program);
        if report.is_certified() {
            self.last_certified = Some((intent.clone(), report.clone()));
        }
        report
    }

    /// Audits an arbitrary installed TCAM `program` against `intent` —
    /// the entry point for tables that did not come from our own
    /// compiler, or that may have been corrupted in flight. It always
    /// runs the full audit and never re-issues an earlier report.
    pub fn audit_program(
        &mut self,
        epoch: u64,
        intent: &RuleSet,
        program: &TcamProgram,
    ) -> AuditReport {
        let t0 = Instant::now();
        let decompiled = decompile::check_program(&self.topo, intent, program);
        let mut findings = decompiled.findings;

        // The graph is built from what the hardware would actually do,
        // not from what the controller meant.
        let graph = DepGraph::build(&self.topo, &decompiled.decompiled, &FailureSet::none());
        findings.extend(
            graph
                .tag_decreases()
                .into_iter()
                .map(|(from, to)| Finding::TagDecrease { from, to }),
        );
        let kahn = graph.kahn();
        let mut counterexample = None;
        if !kahn.is_acyclic() {
            if let Some(cycle) = graph.minimal_cycle(&kahn.residual) {
                findings.push(Finding::CyclicDependency {
                    cycle: cycle.clone(),
                });
                counterexample = Some(Counterexample::from_cycle(
                    &self.topo,
                    &graph,
                    cycle,
                    REPLAY_END_NS,
                ));
            }
        }
        let certificate = if findings.is_empty() {
            Some(AuditCertificate::new(epoch, &graph, &kahn.order))
        } else {
            None
        };

        let report = AuditReport {
            epoch,
            rules_decompiled: decompiled.rules_decompiled,
            findings,
            certificate,
            counterexample,
        };
        self.count(&report, t0);
        report
    }

    /// Counts one issued report, started at `t0`, into the metrics.
    fn count(&mut self, report: &AuditReport, t0: Instant) {
        self.metrics.epochs_audited += 1;
        self.metrics.rules_decompiled += report.rules_decompiled;
        self.metrics.findings += report.findings.len() as u64;
        if report.certificate.is_some() {
            self.metrics.certificates_issued += 1;
        }
        if report.counterexample.is_some() {
            self.metrics.counterexamples_found += 1;
        }
        self.metrics.audit_us.push(t0.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_core::clos::clos_tagging;
    use tagger_core::Tag;
    use tagger_topo::ClosConfig;

    #[test]
    fn clean_tables_get_a_certificate() {
        let topo = ClosConfig::small().build();
        let tagging = clos_tagging(&topo, 2).unwrap();
        let mut auditor = Auditor::new(topo);
        let report = auditor.audit(3, tagging.rules());
        assert!(report.is_certified(), "{:?}", report.findings);
        assert!(report.rules_decompiled > 0);
        assert_eq!(auditor.metrics.certificates_issued, 1);
        assert_eq!(auditor.metrics.epochs_audited, 1);
        assert_eq!(auditor.metrics.audit_us.as_slice().len(), 1);
        assert_eq!(auditor.metrics.violations(), 0);
    }

    #[test]
    fn corrupted_tables_fail_with_cycle_and_counterexample() {
        let topo = ClosConfig::small().build();
        let tagging = clos_tagging(&topo, 2).unwrap();
        let mut rules = tagging.rules().clone();
        let l1 = topo.expect_node("L1");
        let in_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let out_s2 = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
        rules.set(
            l1,
            tagger_core::SwitchRule {
                tag: Tag(2),
                in_port: in_s1,
                out_port: out_s2,
                new_tag: Tag(1),
            },
        );
        let mut auditor = Auditor::new(topo.clone());
        let report = auditor.audit(5, &rules);
        assert!(!report.is_certified());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::TagDecrease { .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::CyclicDependency { .. })));
        assert!(report.counterexample.is_some());
        assert_eq!(auditor.metrics.counterexamples_found, 1);
        let rendered = report.render(&topo);
        assert!(rendered.contains("AUDIT FAILED"));
    }

    #[test]
    fn auditor_and_controller_verifier_agree_on_healthy_tables() {
        // Cross-check: the independent path and TaggedGraph::verify must
        // reach the same verdict on the same tagging.
        let topo = ClosConfig::medium().build();
        let tagging = clos_tagging(&topo, 1).unwrap();
        assert!(tagging.graph().verify().is_ok());
        let mut auditor = Auditor::new(topo);
        assert!(auditor.audit(0, tagging.rules()).is_certified());
    }
}
