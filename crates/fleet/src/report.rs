//! Fleet snapshots: per-fabric status lines plus one-place rollups,
//! rendered as deterministic text or JSON.
//!
//! Two audiences, two renders. [`FleetReport::render`] is the operator
//! view: it includes wall-clock latency summaries, which vary run to
//! run. [`FleetReport::to_json`] is the machine view and carries *only*
//! seed-deterministic fields (counts, epochs, flags) — given the same
//! specs and seeds it is byte-identical across runs, so it can be
//! diffed, golden-tested, and asserted on in CI. Timing belongs to the
//! repo benchmark (`benchmark/`), not here.
//!
//! A status keeps each fact once. Batches, commits, rollbacks and the
//! stage-latency series are the controller's (`ControllerMetrics`),
//! audit violations the auditor's (`AuditMetrics`); the status carries
//! both whole and reads its counters there, and the rollups are their
//! `Sum`s, so the per-fabric lines and the rollup cannot disagree.

use crate::fabric::Fabric;
use std::fmt::Write as _;
use tagger_audit::AuditMetrics;
use tagger_core::json::Value;
use tagger_ctrl::ControllerMetrics;

/// Point-in-time status of one fabric, decoupled from the live
/// [`Fabric`] so reports can outlive drains.
#[derive(Clone, Debug)]
pub struct FabricStatus {
    /// Fabric id (registration order).
    pub id: u32,
    /// Fabric name.
    pub name: String,
    /// Committed epoch.
    pub epoch: u64,
    /// Rules in the committed snapshot.
    pub rules: usize,
    /// Live watchdog quarantines on the fabric's ELP.
    pub quarantines: usize,
    /// Events waiting in the ingest queue.
    pub queued: usize,
    /// Events accepted over the fabric's lifetime.
    pub ingested: u64,
    /// Ingest attempts refused with `QueueFull` (backpressure pushes the
    /// caller absorbed and retried).
    pub queue_rejections: u64,
    /// Southbound faults the chaos schedule injected.
    pub faults_injected: u64,
    /// Southbound tables equal the committed snapshot.
    pub converged: bool,
    /// The fabric controller's cumulative metrics.
    pub ctrl: ControllerMetrics,
    /// The fabric audit loop's cumulative metrics.
    pub audit: AuditMetrics,
}

impl FabricStatus {
    /// Captures a fabric's current status.
    pub fn capture(fabric: &Fabric) -> FabricStatus {
        FabricStatus {
            id: fabric.id().0,
            name: fabric.name().to_string(),
            epoch: fabric.controller().committed().epoch,
            rules: fabric.controller().committed().rules.num_rules(),
            quarantines: fabric.controller().state().quarantines.len(),
            queued: fabric.queued(),
            ingested: fabric.ingested(),
            queue_rejections: fabric.queue_rejections(),
            faults_injected: fabric.faults_injected(),
            converged: fabric.converged(),
            ctrl: fabric.controller().metrics().clone(),
            audit: fabric.audit_metrics().clone(),
        }
    }
}

/// A whole-fleet snapshot: every fabric's status, in id order, plus the
/// `Sum`-based rollups that answer "how is the fleet doing" in one
/// place.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-fabric status, in fabric-id order.
    pub fabrics: Vec<FabricStatus>,
    /// Every fabric's controller metrics, summed.
    pub ctrl_rollup: ControllerMetrics,
    /// Every fabric's audit metrics, summed.
    pub audit_rollup: AuditMetrics,
}

impl FleetReport {
    /// Builds a report from per-fabric captures, computing the rollups.
    pub fn capture(fabrics: impl Iterator<Item = FabricStatus>) -> FleetReport {
        let fabrics: Vec<FabricStatus> = fabrics.collect();
        let ctrl_rollup = fabrics.iter().map(|f| f.ctrl.clone()).sum();
        let audit_rollup = fabrics.iter().map(|f| f.audit.clone()).sum();
        FleetReport {
            fabrics,
            ctrl_rollup,
            audit_rollup,
        }
    }

    /// True when every fabric is converged with zero audit violations.
    pub fn healthy(&self) -> bool {
        self.fabrics
            .iter()
            .all(|f| f.converged && f.audit.violations() == 0)
    }

    /// Every fabric's stage latencies, concatenated in id order — the
    /// series fleet percentiles are taken over.
    pub fn all_latencies_us(&self) -> Vec<u64> {
        self.ctrl_rollup.stage_us.as_slice().to_vec()
    }

    /// Operator text: one status line per fabric plus the rollups.
    /// Includes wall-clock latency summaries, so it is *not* byte-stable
    /// across runs; use [`FleetReport::to_json`] for that.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet status ({} fabrics)", self.fabrics.len());
        for f in &self.fabrics {
            let _ = writeln!(
                out,
                "  [{}] {:<16} epoch {:>4}  rules {:>5}  quarantines {:>2}  \
                 queued {:>4}  pushback {:>3}  commits {:>4}  rollbacks {:>3}  \
                 faults {:>4}  audit {}  {}",
                f.id,
                f.name,
                f.epoch,
                f.rules,
                f.quarantines,
                f.queued,
                f.queue_rejections,
                f.ctrl.epochs_committed,
                f.ctrl.rollbacks,
                f.faults_injected,
                if f.audit.violations() == 0 {
                    "ok"
                } else {
                    "FAIL"
                },
                if f.converged { "converged" } else { "DIVERGED" },
            );
        }
        let lat = &self.ctrl_rollup.stage_us;
        if let Some(max) = lat.max() {
            let _ = writeln!(
                out,
                "  epoch latency µs    p50 {} / p99 {} / max {max}",
                lat.percentile(50),
                lat.percentile(99),
            );
        }
        out.push_str("\nfleet rollup\n");
        for line in self.ctrl_rollup.report().lines().skip(1) {
            let _ = writeln!(out, "{line}");
        }
        for line in self.audit_rollup.report().lines().skip(1) {
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Machine JSON, two-space indented with a trailing newline.
    /// Deterministic: only seed-stable fields, no wall-clock values.
    pub fn to_json(&self) -> String {
        let fabrics = self.fabrics.iter().map(|f| {
            Value::obj([
                ("id", f.id.into()),
                ("name", Value::str(&f.name)),
                ("epoch", f.epoch.into()),
                ("rules", f.rules.into()),
                ("quarantines", f.quarantines.into()),
                ("queued", f.queued.into()),
                ("ingested", f.ingested.into()),
                ("queue_rejections", f.queue_rejections.into()),
                ("batches", f.ctrl.epochs_staged.into()),
                ("commits", f.ctrl.epochs_committed.into()),
                ("rollbacks", f.ctrl.rollbacks.into()),
                ("flaps_damped", f.ctrl.flaps_damped.into()),
                ("faults_injected", f.faults_injected.into()),
                ("audit_violations", f.audit.violations().into()),
                ("certificates_issued", f.audit.certificates_issued.into()),
                ("converged", f.converged.into()),
            ])
        });
        let (ctrl, audit) = (&self.ctrl_rollup, &self.audit_rollup);
        let rollup = Value::obj([
            ("events", ctrl.events.into()),
            ("epochs_committed", ctrl.epochs_committed.into()),
            ("rollbacks", ctrl.rollbacks.into()),
            ("flaps_damped", ctrl.flaps_damped.into()),
            ("epochs_audited", audit.epochs_audited.into()),
            ("certificates_issued", audit.certificates_issued.into()),
            ("counterexamples_found", audit.counterexamples_found.into()),
        ]);
        Value::obj([
            ("fabrics", fabrics.collect()),
            ("rollup", rollup),
            ("healthy", self.healthy().into()),
        ])
        .render()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn status(id: u32, name: &str) -> FabricStatus {
        let mut s = FabricStatus {
            id,
            name: name.to_string(),
            epoch: 3,
            rules: 120,
            quarantines: 1,
            queued: 0,
            ingested: 9,
            queue_rejections: 2,
            faults_injected: 2,
            converged: true,
            ctrl: ControllerMetrics {
                events: 9,
                epochs_staged: 4,
                epochs_committed: 3,
                rollbacks: 1,
                flaps_damped: 5,
                ..ControllerMetrics::default()
            },
            audit: AuditMetrics {
                epochs_audited: 4,
                certificates_issued: 4,
                ..AuditMetrics::default()
            },
        };
        for us in [10, 30, 20, 40] {
            s.ctrl.stage_us.push(us);
        }
        s
    }

    #[test]
    fn rollups_sum_across_fabrics() {
        let report = FleetReport::capture([status(0, "a"), status(1, "b")].into_iter());
        assert_eq!(report.ctrl_rollup.events, 18);
        assert_eq!(report.ctrl_rollup.epochs_committed, 6);
        assert_eq!(report.audit_rollup.certificates_issued, 8);
        assert!(report.healthy());
        assert_eq!(
            report.all_latencies_us(),
            [10, 30, 20, 40, 10, 30, 20, 40],
            "one fabric's series after the other, in id order"
        );
        assert!(report.render().contains("p50 20 / p99 40 / max 40"));
        let json = report.to_json();
        for field in ["\"batches\": 4", "\"commits\": 3", "\"rollbacks\": 1"] {
            assert!(json.contains(field), "{field} missing:\n{json}");
        }
    }

    #[test]
    fn unhealthy_when_any_fabric_diverges_or_fails_audit() {
        let mut bad = status(1, "b");
        bad.audit.certificates_issued -= 1;
        let report = FleetReport::capture([status(0, "a"), bad].into_iter());
        assert!(!report.healthy());
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn json_is_deterministic_and_omits_wall_clock() {
        let mk = || FleetReport::capture([status(0, "spine \"x\""), status(1, "b")].into_iter());
        let a = mk().to_json();
        assert_eq!(a, mk().to_json(), "same inputs must render identically");
        assert!(a.contains("\"spine \\\"x\\\"\""));
        assert!(a.contains("\"healthy\": true"));
        assert!(!a.contains("latency"), "JSON must stay seed-stable:\n{a}");
        assert!(a.ends_with("}\n"));
        let parsed = Value::parse(&a).unwrap();
        assert_eq!(parsed.render(), a, "byte-stable round trip");
        // An empty fleet renders its fabric list as `[]`.
        let empty = FleetReport::capture(std::iter::empty()).to_json();
        assert!(empty.starts_with("{\n  \"fabrics\": [],\n"), "{empty}");
    }
}
