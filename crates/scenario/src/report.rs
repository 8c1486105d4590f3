//! Suite results: per-scenario, per-sweep-point pass/fail with the
//! metrics that justify the verdict. The JSON rendering is a
//! [`Value`] tree and byte-stable — same scenarios, same seed, same
//! bytes — so CI can `cmp` a run against the committed report (the
//! determinism gate).

use crate::asserts::AssertOutcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tagger_core::json::Value;

/// Seed-stable counters extracted from one finished run. Integers only:
/// no floats, no wall-clock values, so the JSON is diffable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PointMetrics {
    /// Simulator events processed (the throughput denominator).
    pub events_processed: u64,
    /// Total bytes delivered across flows.
    pub delivered_bytes: u64,
    /// PFC PAUSE frames sent.
    pub pauses_sent: u64,
    /// Lossless-class drops (must stay 0 outside recovery/watchdog-drop).
    pub lossless_drops: u64,
    /// Lossy-class drops.
    pub lossy_drops: u64,
    /// Watchdog trips (0 when unarmed).
    pub watchdog_trips: u64,
    /// Deadlock episodes observed by the watchdog.
    pub episodes: u64,
    /// Detect-and-break recoveries.
    pub recoveries: u64,
    /// Longest mid-flow stall, in nanoseconds.
    pub max_pause_ns: u64,
    /// Deadlock confirmation time, when one was confirmed.
    pub deadlock_at_ns: Option<u64>,
}

impl PointMetrics {
    /// Extracts the stable counters from a report.
    pub fn from_report(report: &tagger_sim::SimReport) -> PointMetrics {
        PointMetrics {
            events_processed: report.events_processed,
            delivered_bytes: report.total_delivered_bytes(),
            pauses_sent: report.switch.pauses_sent,
            lossless_drops: report.switch.lossless_drops,
            lossy_drops: report.switch.lossy_drops,
            watchdog_trips: report.watchdog.as_ref().map_or(0, |w| w.stats.trips),
            episodes: report.watchdog.as_ref().map_or(0, |w| w.episodes),
            recoveries: report.recoveries,
            max_pause_ns: crate::asserts::max_pause_ns(report),
            deadlock_at_ns: report.deadlock.as_ref().map(|d| d.detected_at),
        }
    }
}

/// One sweep point's verdict.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The sweep variable bindings (empty for an unswept scenario).
    pub vars: BTreeMap<String, u64>,
    /// Every assert, evaluated.
    pub asserts: Vec<AssertOutcome>,
    /// The run's counters.
    pub metrics: PointMetrics,
}

impl PointResult {
    /// All asserts passed.
    pub fn pass(&self) -> bool {
        self.asserts.iter().all(|a| a.pass)
    }
}

/// One scenario's verdict across its sweep grid.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The `scenario` name from the file.
    pub name: String,
    /// The `.scn` path as given to the runner.
    pub file: String,
    /// The seed the runs used (after any `--seed` override).
    pub seed: u64,
    /// One result per sweep point, grid order.
    pub points: Vec<PointResult>,
    /// Set when expansion failed (the points list is then empty).
    pub error: Option<String>,
}

impl ScenarioResult {
    /// Every point passed and expansion succeeded.
    pub fn pass(&self) -> bool {
        self.error.is_none() && self.points.iter().all(PointResult::pass)
    }
}

/// A whole runner invocation.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// One entry per scenario file, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

impl SuiteReport {
    /// The suite verdict.
    pub fn pass(&self) -> bool {
        self.scenarios.iter().all(ScenarioResult::pass)
    }

    /// Human summary, one line per scenario plus failing-assert detail.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            let verdict = if s.pass() { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "{verdict} {} ({}, seed {}, {} point{})",
                s.name,
                s.file,
                s.seed,
                s.points.len(),
                if s.points.len() == 1 { "" } else { "s" },
            );
            if let Some(e) = &s.error {
                let _ = writeln!(out, "  error: {e}");
            }
            for p in &s.points {
                for a in p.asserts.iter().filter(|a| !a.pass) {
                    let vars = render_vars(&p.vars);
                    let _ = writeln!(
                        out,
                        "  FAIL {}:{} assert {}{vars}: {}",
                        s.file, a.span.line, a.label, a.detail
                    );
                }
            }
        }
        let (pass, total) = (
            self.scenarios.iter().filter(|s| s.pass()).count(),
            self.scenarios.len(),
        );
        let _ = writeln!(out, "{pass}/{total} scenarios passed");
        out
    }

    /// Machine JSON, two-space indented, trailing newline, byte-stable.
    pub fn to_json(&self) -> String {
        let scenarios = self.scenarios.iter().map(|s| {
            let mut members = vec![
                ("name", Value::str(&s.name)),
                ("file", Value::str(&s.file)),
                ("seed", s.seed.into()),
                ("pass", s.pass().into()),
            ];
            if let Some(e) = &s.error {
                members.push(("error", Value::str(e)));
            }
            members.push(("points", s.points.iter().map(point_json).collect()));
            Value::obj(members)
        });
        Value::obj([
            ("version", Value::Num(1)),
            ("scenarios", scenarios.collect()),
            ("pass", self.pass().into()),
        ])
        .render()
    }
}

fn point_json(p: &PointResult) -> Value {
    let asserts = p.asserts.iter().map(|a| {
        Value::obj([
            ("label", Value::str(&a.label)),
            ("line", a.span.line.into()),
            ("pass", a.pass.into()),
            ("detail", Value::str(&a.detail)),
        ])
    });
    let m = &p.metrics;
    let metrics = Value::obj([
        ("events_processed", m.events_processed.into()),
        ("delivered_bytes", m.delivered_bytes.into()),
        ("pauses_sent", m.pauses_sent.into()),
        ("lossless_drops", m.lossless_drops.into()),
        ("lossy_drops", m.lossy_drops.into()),
        ("watchdog_trips", m.watchdog_trips.into()),
        ("episodes", m.episodes.into()),
        ("recoveries", m.recoveries.into()),
        ("max_pause_ns", m.max_pause_ns.into()),
        (
            "deadlock_at_ns",
            m.deadlock_at_ns.map_or(Value::Null, Value::from),
        ),
    ]);
    Value::obj([
        (
            "vars",
            Value::obj(p.vars.iter().map(|(k, &v)| (k.as_str(), v.into()))),
        ),
        ("pass", p.pass().into()),
        ("asserts", asserts.collect()),
        ("metrics", metrics),
    ])
}

fn render_vars(vars: &BTreeMap<String, u64>) -> String {
    if vars.is_empty() {
        return String::new();
    }
    let body: Vec<String> = vars.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" [{}]", body.join(" "))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_core::Span;

    fn sample() -> SuiteReport {
        SuiteReport {
            scenarios: vec![ScenarioResult {
                name: "fig10".into(),
                file: "examples/scenarios/fig10.scn".into(),
                seed: 1,
                points: vec![PointResult {
                    vars: BTreeMap::from([("hosts".to_string(), 32u64)]),
                    asserts: vec![AssertOutcome {
                        label: "no-deadlock".into(),
                        span: Span::new(9, 1, 6),
                        pass: true,
                        detail: "no deadlock".into(),
                    }],
                    metrics: PointMetrics {
                        events_processed: 1000,
                        ..PointMetrics::default()
                    },
                }],
                error: None,
            }],
        }
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
        assert!(sample().to_json().ends_with("\"pass\": true\n}\n"));
    }

    #[test]
    fn json_round_trips_through_the_shared_value() {
        let mut r = sample();
        r.scenarios[0].seed = u64::MAX;
        r.scenarios[0].points[0].metrics.deadlock_at_ns = Some(42);
        r.scenarios.push(ScenarioResult {
            name: "broken \"one\"".into(),
            file: "b.scn".into(),
            seed: 0,
            points: Vec::new(),
            error: Some("unknown node `H99`".into()),
        });
        let text = r.to_json();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed.render(), text, "byte-stable round trip");
        assert!(text.contains("\"seed\": 18446744073709551615,"), "{text}");
        let Some(Value::Arr(scenarios)) = parsed.get("scenarios") else {
            panic!("scenarios array");
        };
        assert_eq!(scenarios[0].get("seed"), Some(&Value::UNum(u64::MAX)));
        assert_eq!(scenarios[1].get("points"), Some(&Value::Arr(Vec::new())));
        assert_eq!(parsed.get("pass"), Some(&Value::Bool(false)));
    }

    #[test]
    fn failing_assert_fails_the_suite() {
        let mut r = sample();
        r.scenarios[0].points[0].asserts[0].pass = false;
        assert!(!r.pass());
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn expansion_error_fails_the_scenario() {
        let mut r = sample();
        r.scenarios[0].error = Some("unknown node `H99`".into());
        assert!(!r.pass());
        assert!(r.to_json().contains("\"error\": \"unknown node `H99`\""));
    }
}
