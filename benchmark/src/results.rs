//! Result records: what one run measured, the result-set file several
//! runs merge into, and the one-line record the driver reads.
//!
//! `tagger::lint::json::Value` carries integers only, so a measured
//! value is stored in a result set as its shortest round-trip decimal
//! string (`"203.4121"`), next to its unit.

use std::path::Path;
use tagger::lint::json::Value;

/// Everything one `tagger-perf run` measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// True for the traced (per-layer) run.
    pub traced: bool,
    /// Generator seed.
    pub seed: u64,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Failed over attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn section(&self) -> &'static str {
        if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("seed".into(), Value::Num(self.seed as i64)),
            ("attempted".into(), Value::Num(self.attempted as i64)),
            ("failed".into(), Value::Num(self.failed as i64)),
            (
                "failed_share".into(),
                Value::str(self.failed_share().to_string()),
            ),
            ("samples".into(), Value::Num(self.samples as i64)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Value::Obj(vec![
                                    ("value".into(), Value::str(value.to_string())),
                                    ("unit".into(), Value::str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(workload: &str, traced: bool, v: &Value) -> Result<RunResult, String> {
        let num = |key: &str| match v.get(key) {
            Some(Value::Num(n)) => Ok(*n as u64),
            _ => Err(format!("{workload}: missing integer {key:?}")),
        };
        let Some(Value::Obj(members)) = v.get("metrics") else {
            return Err(format!("{workload}: missing \"metrics\" object"));
        };
        let mut metrics = Vec::new();
        for (name, m) in members {
            let (Some(Value::Str(value)), Some(Value::Str(unit))) = (m.get("value"), m.get("unit"))
            else {
                return Err(format!("{workload}: metric {name} lacks value/unit"));
            };
            let value: f64 = value
                .parse()
                .map_err(|e| format!("{workload}: metric {name}: {e}"))?;
            metrics.push((name.clone(), value, unit.clone()));
        }
        Ok(RunResult {
            workload: workload.to_string(),
            traced,
            seed: num("seed")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            samples: num("samples")?,
            metrics,
        })
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The driver's record: one JSON object on one line. Names and
    /// units come from the catalogue (letters, digits, `_./%-`), so
    /// nothing needs escaping; values print with all their digits.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} ({}, seed {}): attempted {} failed {} failed_share {} latency samples {}\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.attempted,
            self.failed,
            self.failed_share(),
            self.samples
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<30} {value:>16.4} {unit}");
        }
        out
    }
}

/// Where and how a result set was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// `git rev-parse HEAD` of the measured tree, or `unknown`.
    pub git_rev: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// Where journals were written (and so which filesystem synced them).
    pub journal_dir: String,
}

impl Env {
    /// Reads the environment `run.sh` exports.
    pub fn capture(journal_dir: &Path) -> Env {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Env {
            git_rev: var("TAGGER_PERF_GIT_REV"),
            rustc: var("TAGGER_PERF_RUSTC"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            journal_dir: journal_dir.display().to_string(),
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("git_rev".into(), Value::str(&self.git_rev)),
            ("rustc".into(), Value::str(&self.rustc)),
            ("nproc".into(), Value::Num(self.nproc as i64)),
            ("journal_dir".into(), Value::str(&self.journal_dir)),
            ("network".into(), Value::str("loopback, not a real link")),
        ])
    }
}

/// A result set: one entry per workload, each with an untraced
/// (`end_to_end`) and a traced (`per_layer`) record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// The records, in insertion order.
    pub runs: Vec<RunResult>,
}

impl ResultSet {
    /// Parses a result-set file's text.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let v = Value::parse(text)?;
        let Some(Value::Obj(workloads)) = v.get("workloads") else {
            return Err("missing \"workloads\" object".into());
        };
        let mut runs = Vec::new();
        for (name, entry) in workloads {
            for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
                if let Some(run) = entry.get(section) {
                    runs.push(RunResult::from_value(name, traced, run)?);
                }
            }
        }
        Ok(ResultSet { runs })
    }

    /// Reads a result-set file; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(ResultSet::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Adds a record, replacing the one for the same workload and mode.
    pub fn insert(&mut self, run: RunResult) {
        self.runs
            .retain(|r| !(r.workload == run.workload && r.traced == run.traced));
        self.runs.push(run);
    }

    /// The record for a workload and mode.
    pub fn get(&self, workload: &str, traced: bool) -> Option<&RunResult> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.traced == traced)
    }

    /// Renders the set with its environment header.
    pub fn render(&self, env: &Env) -> String {
        let mut workloads: Vec<(String, Value)> = Vec::new();
        for run in &self.runs {
            let entry = (run.section().to_string(), run.to_value());
            match workloads.iter_mut().find(|(name, _)| *name == run.workload) {
                Some((_, Value::Obj(sections))) => sections.push(entry),
                _ => workloads.push((run.workload.clone(), Value::Obj(vec![entry]))),
            }
        }
        Value::Obj(vec![
            ("schema".into(), Value::str("tagger-perf/1")),
            ("claim".into(), Value::Null),
            ("env".into(), env.to_value()),
            ("workloads".into(), Value::Obj(workloads)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, traced: bool) -> RunResult {
        RunResult {
            workload: workload.into(),
            traced,
            seed: 7,
            attempted: 104,
            failed: 0,
            samples: 100,
            metrics: vec![
                ("setup_s".into(), 0.651_234_567_891, "s".into()),
                ("throughput_per_s".into(), 5.012_3, "1/s".into()),
                ("latency_ms_p50".into(), 199.25, "ms".into()),
            ],
        }
    }

    fn env() -> Env {
        Env {
            git_rev: "abc123".into(),
            rustc: "rustc 1.95.0".into(),
            nproc: 2,
            journal_dir: "benchmark/out/journal \"quoted\"".into(),
        }
    }

    #[test]
    fn result_set_round_trips_through_the_lint_json_value() {
        let mut set = ResultSet::default();
        set.insert(sample("epoch-clos-b1", false));
        set.insert(sample("epoch-clos-b1", true));
        set.insert(sample("sim-incast", false));
        let text = set.render(&env());
        let v = Value::parse(&text).expect("rendered set parses");
        assert_eq!(v.get("claim"), Some(&Value::Null));
        assert_eq!(v.render(), text);
        let back = ResultSet::parse(&text).unwrap();
        assert_eq!(back, set);
        assert_eq!(
            back.get("epoch-clos-b1", false).unwrap().metric("setup_s"),
            Some(0.651_234_567_891)
        );
    }

    #[test]
    fn insert_replaces_the_same_workload_and_mode_only() {
        let mut set = ResultSet::default();
        set.insert(sample("sim-incast", false));
        set.insert(sample("sim-incast", true));
        let mut again = sample("sim-incast", false);
        again.failed = 3;
        set.insert(again);
        assert_eq!(set.runs.len(), 2);
        assert_eq!(set.get("sim-incast", false).unwrap().failed, 3);
        assert_eq!(set.get("sim-incast", true).unwrap().failed, 0);
    }

    #[test]
    fn driver_line_is_one_json_object_with_the_four_keys() {
        let mut run = sample("plan-jellyfish", false);
        run.metrics
            .push(("peak_rss_mb".into(), f64::NAN, "MiB".into()));
        let line = run.driver_line();
        assert!(!line.contains('\n'));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 104, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.651234567891, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(line.ends_with("}}"));
        run.failed = 1;
        assert!(run.driver_line().starts_with("{\"correct\": false"));
    }
}
