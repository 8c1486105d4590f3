//! The outside-in span recorder: every span wraps one call from the
//! benchmark into a layer's public function. Spans stay in memory and
//! are written out once, at exit.
//!
//! Two kinds of child span exist. A *real* child ran inside its
//! parent's interval. A *replayed* child is a re-execution of work the
//! parent did behind a private boundary (`ctrl::stage` is private, so
//! its parts are run again on the same inputs after the operation); it
//! lies outside the parent's interval, so self time is computed from
//! durations: a span's own duration minus its children's.

use crate::stats::median;
use std::time::Instant;
use tagger::lint::json::Value;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<module>.<call>`, e.g. `core.alg1`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to (shared by all its spans).
    pub op: u64,
    /// True for a re-execution recorded after its parent finished.
    pub replayed: bool,
}

impl Span {
    /// The span's duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What [`Recorder::open`] returns while recording is off.
const NO_SPAN: SpanId = usize::MAX;

/// In-memory span store for one run. While disabled (the untraced run,
/// and the untraced third of a traced loop) every call costs one branch
/// and records nothing.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for Recorder {
    /// A disabled recorder.
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }
}

impl Recorder {
    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True while spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        replayed: bool,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            replayed,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records `f` as one real child span of `parent`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op, false);
        let out = f();
        self.close(id);
        out
    }

    /// Records `f` as one replayed child span of `parent`.
    pub fn replay<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let op = self.spans.get(parent).map_or(0, |p| p.op);
        let id = self.open(name, Some(parent), op, true);
        let out = f();
        self.close(id);
        out
    }

    /// Appends spans recorded elsewhere (a client thread's own
    /// recorder), shifting their times onto this recorder's clock and
    /// their parent links past the spans already held.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, ms, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration, ms, of the spans called `name` (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Self time of one span: its duration minus its direct children's
    /// durations, floored at zero.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Median self time, ms, over the spans called `name` that have at
    /// least one child (0 if none).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let with_children: Vec<f64> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .filter(|&id| self.spans.iter().any(|s| s.parent == Some(id)))
            .map(|id| self.self_ns(id) as f64 / 1e6)
            .collect();
        median(&with_children)
    }

    /// Share of an operation that no layer call accounts for: the self
    /// time of the operation and of every descendant that has children,
    /// over the operation's duration. A childless span is a layer call
    /// and fully accounted; so is the self time of spans in
    /// `named_self`, which a metric of its own reports. Median over the
    /// spans called `op_name` that have grandchildren when any do (only
    /// those were broken down), else over all.
    pub fn unaccounted_share(&self, op_name: &str, named_self: &[&str]) -> f64 {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        fn uncovered(
            rec: &Recorder,
            children: &[Vec<SpanId>],
            named_self: &[&str],
            id: SpanId,
        ) -> u64 {
            if children[id].is_empty() {
                return 0;
            }
            let below: u64 = children[id]
                .iter()
                .map(|&c| uncovered(rec, children, named_self, c))
                .sum();
            if named_self.contains(&rec.spans[id].name) {
                below
            } else {
                below + rec.self_ns(id)
            }
        }
        let mut deep = Vec::new();
        let mut flat = Vec::new();
        for op in (0..self.spans.len()).filter(|&id| self.spans[id].name == op_name) {
            let dur = self.spans[op].dur_ns();
            if dur == 0 {
                continue;
            }
            let share = uncovered(self, &children, named_self, op) as f64 / dur as f64;
            if children[op].iter().any(|&c| !children[c].is_empty()) {
                deep.push(share);
            } else {
                flat.push(share);
            }
        }
        median(if deep.is_empty() { &flat } else { &deep })
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let v = Value::Obj(vec![
                ("id".into(), Value::Num(id as i64)),
                ("name".into(), Value::str(s.name)),
                ("start_ns".into(), Value::Num(s.start_ns as i64)),
                ("end_ns".into(), Value::Num(s.end_ns as i64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as i64)),
                ),
                ("op".into(), Value::Num(s.op as i64)),
                ("replayed".into(), Value::Bool(s.replayed)),
            ]);
            // `render` is multi-line; a span is flat, so joining its
            // lines gives the one-object-per-line form.
            let line: String = v.render().lines().map(str::trim_start).collect();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        replayed: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            replayed,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans,
            enabled: true,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = recorder(vec![
            span("op", 0, 1_000, None, false),
            span("fleet.ingest", 0, 100, Some(0), false),
            span("fleet.drain_cycle", 100, 1_000, Some(0), false),
            // Replayed children lie after the parent; only durations count.
            span("routing.elp_enumerate", 2_000, 2_300, Some(2), true),
            span("core.from_elp", 2_300, 2_800, Some(2), true),
            span("core.alg1", 3_000, 3_200, Some(4), true),
        ]);
        assert_eq!(rec.self_ns(0), 0);
        assert_eq!(rec.self_ns(2), 900 - 300 - 500);
        assert_eq!(rec.self_ns(4), 500 - 200);
        assert_eq!(rec.median_self_ms("core.from_elp"), 300.0 / 1e6);
        // op self 0 + drain_cycle self 100 + from_elp self 300, over 1000;
        // from_elp's self time is a named metric when the caller says so.
        assert!((rec.unaccounted_share("op", &[]) - 0.4).abs() < 1e-12);
        assert!((rec.unaccounted_share("op", &["core.from_elp"]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn self_time_floors_at_zero_when_replays_run_slower() {
        let rec = recorder(vec![
            span("op", 0, 100, None, false),
            span("core.from_elp", 200, 350, Some(0), true),
        ]);
        assert_eq!(rec.self_ns(0), 0);
    }

    #[test]
    fn unaccounted_share_prefers_operations_that_were_broken_down() {
        let rec = recorder(vec![
            span("op", 0, 100, None, false),
            span("fleet.drain_cycle", 0, 100, Some(0), false),
            span("op", 100, 200, None, false),
            span("fleet.drain_cycle", 100, 200, Some(2), false),
            span("core.from_elp", 300, 380, Some(3), true),
        ]);
        assert!((rec.unaccounted_share("op", &[]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_recorder_runs_the_call_and_keeps_nothing() {
        let mut rec = Recorder::default();
        let op = rec.open("op", None, 0, false);
        assert_eq!(rec.call("core.verify", Some(op), 0, || 7), 7);
        assert_eq!(rec.replay("core.alg1", op, || 8), 8);
        rec.close(op);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let op = rec.open("op", None, 1, false);
        rec.replay("core.alg1", op, || ());
        rec.close(op);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].op, 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = recorder(vec![span("op", 0, 10, None, false)]);
        let b = Recorder {
            origin: a.origin,
            enabled: true,
            spans: vec![
                span("op", 0, 10, None, false),
                span("net.send_lines", 0, 10, Some(0), false),
            ],
        };
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let rec = recorder(vec![
            span("op", 0, 10, None, false),
            span("core.alg1", 20, 30, Some(0), true),
        ]);
        let path =
            std::env::temp_dir().join(format!("tagger-perf-trace-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = Value::parse(lines[1]).unwrap();
        assert_eq!(v.get("name"), Some(&Value::str("core.alg1")));
        assert_eq!(v.get("parent"), Some(&Value::Num(0)));
        assert_eq!(v.get("replayed"), Some(&Value::Bool(true)));
    }
}
