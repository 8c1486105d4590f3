//! `tagger-perf compare A.json B.json`: is result set B no worse than
//! baseline A, by the benchmark's own bounds?

use crate::catalogue::{END_TO_END, EXACT, SETUP_FLOOR_S};
use crate::results::ResultSet;

/// One compared (metric, workload) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_share` included).
    pub metric: String,
    /// Baseline value.
    pub base: Option<f64>,
    /// Candidate value.
    pub new: Option<f64>,
    /// How much worse the candidate is, as a share of the baseline
    /// (negative when better).
    pub worse_by: f64,
    /// The allowed `worse_by`; 0 for metrics that must not move.
    pub bound: f64,
    /// True when the pair breaches its bound.
    pub breach: bool,
}

fn share_worse(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        new - base
    } else {
        base - new
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

fn row(
    workload: &str,
    metric: &str,
    base: Option<f64>,
    new: Option<f64>,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
) -> Row {
    let (worse_by, breach) = match (base, new) {
        (Some(x), Some(y)) => {
            let w = share_worse(x, y, lower_is_better);
            (w, w > bound && (y - x).abs() > floor)
        }
        // A metric the baseline never reported has nothing to regress
        // from; one the candidate dropped is a breach.
        (None, _) => (0.0, false),
        (Some(_), None) => (f64::INFINITY, true),
    };
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        base,
        new,
        worse_by,
        bound,
        breach,
    }
}

/// Compares every workload of `base` against `new`.
pub fn compare(base: &ResultSet, new: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in &base.runs {
        let b = new.get(&a.workload, a.traced);
        let theirs = |name: &str| b.and_then(|b| b.metric(name));
        if a.traced {
            for name in EXACT {
                let mut r = row(
                    &a.workload,
                    name,
                    a.metric(name),
                    theirs(name),
                    true,
                    0.0,
                    0.0,
                );
                // Exact means exact: a smaller digest is as wrong as a larger one.
                r.breach = r.base.is_some() && r.base != r.new;
                rows.push(r);
            }
        } else {
            for m in &END_TO_END {
                let floor = if m.name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                };
                rows.push(row(
                    &a.workload,
                    m.name,
                    a.metric(m.name),
                    theirs(m.name),
                    m.lower_is_better,
                    m.bound.unwrap_or(0.0),
                    floor,
                ));
            }
        }
        rows.push(row(
            &a.workload,
            "failed_share",
            Some(a.failed_share()),
            b.map(|b| b.failed_share()),
            true,
            0.0,
            0.0,
        ));
    }
    rows
}

/// Renders one line per row, breaches marked.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>6}\n",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<20} {:>16} {:>16} {:>8.1}% {:>5.0}% {}",
            r.workload,
            r.metric,
            show(r.base),
            show(r.new),
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.breach { "BREACH" } else { "ok" }
        );
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    let _ = writeln!(out, "{} row(s), {breaches} breach(es)", rows.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::RunResult;

    fn run(throughput: f64, setup: f64, failed: u64) -> RunResult {
        RunResult {
            workload: "epoch-clos-b1".into(),
            traced: false,
            seed: 1,
            attempted: 100,
            failed,
            samples: 100,
            metrics: vec![
                ("setup_s".into(), setup, "s".into()),
                ("throughput_per_s".into(), throughput, "1/s".into()),
                ("latency_ms_p50".into(), 200.0, "ms".into()),
                ("latency_ms_p90".into(), 220.0, "ms".into()),
                ("peak_rss_mb".into(), 90.0, "MiB".into()),
            ],
        }
    }

    fn set(r: RunResult) -> ResultSet {
        ResultSet { runs: vec![r] }
    }

    fn breaches(base: RunResult, new: RunResult) -> Vec<String> {
        compare(&set(base), &set(new))
            .into_iter()
            .filter(|r| r.breach)
            .map(|r| r.metric)
            .collect()
    }

    #[test]
    fn flags_a_drop_one_point_past_the_bound_and_passes_one_a_point_inside() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_per_s")
            .and_then(|m| m.bound)
            .unwrap()
            * 100.0;
        assert_eq!(
            breaches(run(100.0, 0.6, 0), run(99.0 - bound, 0.6, 0)),
            vec!["throughput_per_s"]
        );
        assert!(breaches(run(100.0, 0.6, 0), run(101.0 - bound, 0.6, 0)).is_empty());
        // Better is never a breach.
        assert!(breaches(run(100.0, 0.6, 0), run(150.0, 0.3, 0)).is_empty());
    }

    #[test]
    fn setup_has_an_absolute_floor_and_failures_may_not_rise() {
        // +100 % of a 20 ms set-up is 20 ms: under the 50 ms floor.
        assert!(breaches(run(100.0, 0.02, 0), run(100.0, 0.04, 0)).is_empty());
        assert_eq!(
            breaches(run(100.0, 0.6, 0), run(100.0, 0.8, 0)),
            vec!["setup_s"]
        );
        assert_eq!(
            breaches(run(100.0, 0.6, 0), run(100.0, 0.6, 1)),
            vec!["failed_share"]
        );
        assert!(breaches(run(100.0, 0.6, 1), run(100.0, 0.6, 1)).is_empty());
    }

    #[test]
    fn digests_must_match_exactly_and_a_missing_workload_is_a_breach() {
        let traced = |digest: f64| RunResult {
            traced: true,
            metrics: vec![("sim.stats_digest".into(), digest, "fnv48".into())],
            ..run(0.0, 0.0, 0)
        };
        let rows = compare(&set(traced(42.0)), &set(traced(41.0)));
        assert!(rows
            .iter()
            .any(|r| r.metric == "sim.stats_digest" && r.breach));
        // Metrics neither side reports (core.rules_digest here) pass.
        assert!(rows.iter().filter(|r| r.breach).count() == 1);
        let rows = compare(&set(traced(42.0)), &set(traced(42.0)));
        assert!(rows.iter().all(|r| !r.breach));
        let rows = compare(&set(run(100.0, 0.6, 0)), &ResultSet::default());
        assert!(rows.iter().all(|r| r.breach));
    }
}
