//! What an [`crate::Auditor`] has done: audit counters and the series of
//! audit latencies. The auditor owns every audit fact; a caller that
//! wants to know how many epochs failed audit asks
//! [`AuditMetrics::violations`] rather than counting beside it.

use std::fmt::Write as _;
use tagger_core::Samples;

/// Counters accumulated across every audit an [`crate::Auditor`] runs.
#[derive(Clone, Debug, Default)]
pub struct AuditMetrics {
    /// Epochs audited.
    pub epochs_audited: u64,
    /// Concrete tuples recovered from installed TCAM entries.
    pub rules_decompiled: u64,
    /// Certificates issued (clean audits).
    pub certificates_issued: u64,
    /// Counterexamples extracted (audits that found a cycle).
    pub counterexamples_found: u64,
    /// Total findings of any kind.
    pub findings: u64,
    /// Audits that re-issued the report of an identical intent the
    /// auditor had just certified (counted in `epochs_audited` and
    /// `certificates_issued` too).
    pub audits_reused: u64,
    /// Wall-clock latency of every audit, µs, in audit order.
    pub audit_us: Samples,
}

impl std::ops::AddAssign for AuditMetrics {
    /// Fleet rollup: counters add and latency series concatenate, so a
    /// fleet-wide mean/max is computed over every fabric's audits.
    fn add_assign(&mut self, rhs: AuditMetrics) {
        self.epochs_audited += rhs.epochs_audited;
        self.rules_decompiled += rhs.rules_decompiled;
        self.certificates_issued += rhs.certificates_issued;
        self.counterexamples_found += rhs.counterexamples_found;
        self.findings += rhs.findings;
        self.audits_reused += rhs.audits_reused;
        self.audit_us += rhs.audit_us;
    }
}

impl std::iter::Sum for AuditMetrics {
    fn sum<I: Iterator<Item = AuditMetrics>>(iter: I) -> AuditMetrics {
        iter.fold(AuditMetrics::default(), |mut acc, m| {
            acc += m;
            acc
        })
    }
}

impl AuditMetrics {
    /// Epochs the audit refused to certify. A certificate is issued
    /// exactly when an audit has no findings, so this is every audit
    /// without one.
    pub fn violations(&self) -> u64 {
        self.epochs_audited - self.certificates_issued
    }

    /// Plain-text report, laid out like `ControllerMetrics::report` so
    /// the fleet report can print both side by side.
    pub fn report(&self) -> String {
        let mut out = String::from("audit metrics\n");
        let _ = writeln!(out, "  epochs audited      {:>8}", self.epochs_audited);
        let _ = writeln!(out, "  rules decompiled    {:>8}", self.rules_decompiled);
        let _ = writeln!(out, "  certificates issued {:>8}", self.certificates_issued);
        let _ = writeln!(
            out,
            "  counterexamples     {:>8}",
            self.counterexamples_found
        );
        let _ = writeln!(out, "  findings            {:>8}", self.findings);
        let _ = writeln!(out, "  audits reused       {:>8}", self.audits_reused);
        let lat = &self.audit_us;
        if let (Some(last), Some(mean), Some(max)) = (lat.as_slice().last(), lat.mean(), lat.max())
        {
            let _ = writeln!(
                out,
                "  audit latency µs    last {last} / mean {mean} / max {max}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn report_includes_every_counter() {
        let mut m = AuditMetrics {
            epochs_audited: 3,
            rules_decompiled: 120,
            certificates_issued: 2,
            counterexamples_found: 1,
            findings: 4,
            audits_reused: 1,
            ..AuditMetrics::default()
        };
        m.audit_us.push(100);
        m.audit_us.push(300);
        let r = m.report();
        assert!(r.contains("epochs audited"));
        assert!(r.contains("120"));
        assert!(r.contains("audits reused              1"));
        assert!(r.contains("last 300 / mean 200 / max 300"));
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn sum_rolls_up_counters_and_concatenates_latencies() {
        let mut a = AuditMetrics {
            epochs_audited: 2,
            certificates_issued: 2,
            rules_decompiled: 40,
            audits_reused: 1,
            ..AuditMetrics::default()
        };
        a.audit_us.push(10);
        let mut b = AuditMetrics {
            epochs_audited: 1,
            counterexamples_found: 1,
            findings: 2,
            rules_decompiled: 7,
            ..AuditMetrics::default()
        };
        b.audit_us.push(30);
        let total: AuditMetrics = [a, b].into_iter().sum();
        assert_eq!(total.epochs_audited, 3);
        assert_eq!(total.certificates_issued, 2);
        assert_eq!(total.violations(), 1);
        assert_eq!(total.counterexamples_found, 1);
        assert_eq!(total.findings, 2);
        assert_eq!(total.rules_decompiled, 47);
        assert_eq!(total.audits_reused, 1);
        assert_eq!(total.audit_us.as_slice(), &[10, 30]);
        assert_eq!(total.audit_us.mean(), Some(20));
        assert_eq!(total.audit_us.max(), Some(30));
        let zero: AuditMetrics = std::iter::empty().sum();
        assert_eq!(zero.epochs_audited, 0);
        assert_eq!(zero.audit_us.mean(), None);
    }
}
