//! The diagnostic model: stable codes, severities, spans and rendering.

use std::fmt;
use tagger_core::Span;

/// How bad a finding is.
///
/// `Error` findings make `tagger-lint check` exit non-zero; warnings and
/// notes are advisory. Ordering is severity-descending (`Error` first)
/// so reports can sort the worst findings to the top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact is defective: deploying it risks deadlock or the
    /// hardware will not do what the text says.
    Error,
    /// Suspicious but not provably wrong (dead rules, failed
    /// cross-checks of advisory analyses).
    Warning,
    /// Informational (redundancy reports, certificate cross-links).
    Note,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The error-code registry. Codes are stable across releases: tools and
/// suppression lists key on them, so a code is never renumbered or
/// reused (retired codes are kept as tombstones in the doc table).
///
/// | range | domain |
/// |-------|--------|
/// | T00xx | artifact syntax (unreadable files, malformed lines) |
/// | T01xx | TCAM order semantics (shadowing, duplicates) |
/// | T02xx | tag monotonicity |
/// | T03xx | reachability |
/// | T04xx | lossless-path coverage |
/// | T05xx | redundancy / resource use |
/// | T06xx | scenario DSL (`.scn` files) |
/// | T07xx | existence-oracle feasibility analyses |
/// | T09xx | cross-checks against other tools |
pub mod codes {
    /// The file could not be read at all.
    pub const UNREADABLE: &str = "T0001";
    /// The checkpoint header is malformed.
    pub const BAD_HEADER: &str = "T0002";
    /// A `switch` line names a node the topology does not have.
    pub const UNKNOWN_SWITCH: &str = "T0003";
    /// A rule names an in/out neighbour the topology does not have.
    pub const UNKNOWN_NEIGHBOUR: &str = "T0004";
    /// A rule names a neighbour the switch has no port towards.
    pub const NOT_ADJACENT: &str = "T0005";
    /// A rule line is malformed (arity, non-numeric tag, ...).
    pub const MALFORMED_RULE: &str = "T0006";
    /// A `rule` line appeared before any `switch` line.
    pub const RULE_BEFORE_SWITCH: &str = "T0007";
    /// A trace line starts with an unknown directive.
    pub const UNKNOWN_DIRECTIVE: &str = "T0010";
    /// A trace directive got the wrong number of arguments.
    pub const TRACE_ARITY: &str = "T0011";
    /// A trace line names a node the topology does not have.
    pub const TRACE_UNKNOWN_NODE: &str = "T0012";
    /// A trace line names a port index the node does not have.
    pub const TRACE_PORT_RANGE: &str = "T0013";
    /// A trace ELP node sequence is not a valid path.
    pub const TRACE_BAD_PATH: &str = "T0014";
    /// A trace link directive names a non-existent link.
    pub const TRACE_UNKNOWN_LINK: &str = "T0015";
    /// A trace issues `watchdog-clear` for a queue no prior `watchdog`
    /// trip in the same trace quarantined (neither as victim nor as
    /// attributed trigger): the clear is a no-op at replay, which
    /// usually means a typo or a stale line.
    pub const WATCHDOG_CLEAR_WITHOUT_TRIP: &str = "T0016";
    /// A `.topo` topology-spec line failed to parse.
    pub const TOPO_SPEC_ERROR: &str = "T0017";
    /// An earlier TCAM entry fully covers a later one: the later entry
    /// is dead under first-match semantics.
    pub const SHADOWED_ENTRY: &str = "T0101";
    /// The same match key appears twice with *different* rewrites: a
    /// first-match TCAM applies the earlier line, the last-write-wins
    /// table loader keeps the later one — text and hardware disagree.
    pub const CONFLICTING_DUPLICATE: &str = "T0102";
    /// The same match key appears twice with the same rewrite.
    pub const IDENTICAL_DUPLICATE: &str = "T0103";
    /// A rule rewrites to a *smaller* tag, breaking the monotonicity
    /// half of Theorem 5.1.
    pub const TAG_DECREASE: &str = "T0201";
    /// No packet injected at a host can ever hit this rule.
    pub const UNREACHABLE_RULE: &str = "T0301";
    /// An expected lossless path falls off the rules into the lossy
    /// class mid-flight.
    pub const TAG_LEAK_TO_LOSSY: &str = "T0401";
    /// The table admits a smaller TCAM encoding.
    pub const MERGEABLE_ENTRIES: &str = "T0501";
    /// A `.scn` line starts with an unknown directive.
    pub const SCN_UNKNOWN_DIRECTIVE: &str = "T0601";
    /// A `.scn` directive's arguments are missing or malformed.
    pub const SCN_BAD_ARGUMENT: &str = "T0602";
    /// A singleton `.scn` directive (`scenario`, `topo`, `end`, …)
    /// appears twice.
    pub const SCN_DUPLICATE_DIRECTIVE: &str = "T0603";
    /// The scenario has no `assert` block — nothing would be graded.
    pub const SCN_MISSING_ASSERT: &str = "T0604";
    /// An assert can never hold under this configuration (e.g.
    /// `watchdog-trips >= 1` with no watchdog armed).
    pub const SCN_UNSATISFIABLE_ASSERT: &str = "T0605";
    /// A `.scn` line names a node its topology does not have.
    pub const SCN_UNKNOWN_NODE: &str = "T0606";
    /// The existence oracle proved the artifact's ELP set infeasible:
    /// no deadlock-free tagging fits in the declared priority budget.
    /// The diagnostic quotes the minimal infeasible kernel.
    pub const ORACLE_INFEASIBLE: &str = "T0701";
    /// The ELP set is feasible, but not within the tags the artifact
    /// actually uses — the table provably cannot cover it losslessly.
    pub const ORACLE_BUDGET_BELOW_FLOOR: &str = "T0702";
    /// The oracle and the Algorithm 1+2 construction disagree — an
    /// internal error in one of them; both results are quoted.
    pub const ORACLE_CONSTRUCTION_MISMATCH: &str = "T0703";
    /// The independent auditor certified these tables.
    pub const AUDIT_CERTIFIED: &str = "T0901";
    /// The independent auditor found violations.
    pub const AUDIT_FINDINGS: &str = "T0902";

    /// One-line description of a code, for `--explain`-style tooling.
    pub fn describe(code: &str) -> Option<&'static str> {
        Some(match code {
            UNREADABLE => "artifact could not be read",
            BAD_HEADER => "malformed checkpoint header",
            UNKNOWN_SWITCH => "unknown switch name",
            UNKNOWN_NEIGHBOUR => "unknown neighbour name",
            NOT_ADJACENT => "switch has no port towards the named neighbour",
            MALFORMED_RULE => "malformed rule line",
            RULE_BEFORE_SWITCH => "rule line outside any switch block",
            UNKNOWN_DIRECTIVE => "unknown trace directive",
            TRACE_ARITY => "trace directive arity mismatch",
            TRACE_UNKNOWN_NODE => "unknown node in trace",
            TRACE_PORT_RANGE => "trace port index out of range",
            TRACE_BAD_PATH => "trace ELP is not a valid path",
            TRACE_UNKNOWN_LINK => "trace names a non-existent link",
            WATCHDOG_CLEAR_WITHOUT_TRIP => "watchdog-clear for a queue with no prior trip",
            TOPO_SPEC_ERROR => "topology spec line failed to parse",
            SHADOWED_ENTRY => "TCAM entry shadowed by an earlier one",
            CONFLICTING_DUPLICATE => "duplicate match key with conflicting rewrites",
            IDENTICAL_DUPLICATE => "duplicate match key with identical rewrites",
            TAG_DECREASE => "tag rewrite decreases (breaks Theorem 5.1 monotonicity)",
            UNREACHABLE_RULE => "rule unreachable from any host injection",
            TAG_LEAK_TO_LOSSY => "expected lossless path demoted to lossy",
            MERGEABLE_ENTRIES => "table admits a smaller TCAM encoding",
            SCN_UNKNOWN_DIRECTIVE => "unknown scenario directive",
            SCN_BAD_ARGUMENT => "malformed scenario directive arguments",
            SCN_DUPLICATE_DIRECTIVE => "singleton scenario directive repeats",
            SCN_MISSING_ASSERT => "scenario has no assert block",
            SCN_UNSATISFIABLE_ASSERT => "assert can never hold under this configuration",
            SCN_UNKNOWN_NODE => "unknown node name in scenario",
            ORACLE_INFEASIBLE => "no deadlock-free tagging exists within the priority budget",
            ORACLE_BUDGET_BELOW_FLOOR => "tags in use fall below the proven feasibility floor",
            ORACLE_CONSTRUCTION_MISMATCH => "existence oracle and tagging construction disagree",
            AUDIT_CERTIFIED => "independent audit certificate issued",
            AUDIT_FINDINGS => "independent audit found violations",
            _ => return None,
        })
    }
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable error code (`T0201`, ...), see [`codes`].
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The finding, one sentence, no trailing period.
    pub message: String,
    /// Source coordinates, when the artifact is text with a blamable
    /// token. `None` for findings located by table coordinates only.
    pub span: Option<Span>,
    /// Table coordinates (`"L1 entry 3"`, `"L1 rule (tag 2, in S1, out
    /// S2)"`), when the finding lives in a compiled table.
    pub locus: Option<String>,
    /// A fix-it suggestion, when one is known.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with neither span nor locus nor hint; builder-style
    /// `with_*` methods attach the rest.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            locus: None,
            hint: None,
        }
    }

    /// Attaches source coordinates.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches table coordinates.
    pub fn with_locus(mut self, locus: impl Into<String>) -> Diagnostic {
        self.locus = Some(locus.into());
        self
    }

    /// Attaches a fix-it hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = Some(hint.into());
        self
    }

    /// The deterministic report order: file position first (spanless
    /// findings sort after spanned ones), then code, then locus — so
    /// renders are byte-stable for golden tests.
    pub fn sort_key(&self) -> (usize, usize, &'static str, String) {
        let (line, col) = match self.span {
            Some(s) if !s.is_whole_file() => (s.line, s.col),
            Some(_) => (0, 0),
            None => (usize::MAX, usize::MAX),
        };
        (line, col, self.code, self.locus.clone().unwrap_or_default())
    }
}

/// What kind of artifact a report covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A `tagger-audit checkpoint v1` file (topology header + tables).
    Checkpoint,
    /// A plain-text control-plane event trace (ELP spec + link events),
    /// as `tagger-fleetd replay` reads it.
    Trace,
    /// A declarative `.scn` scenario (`tagger-scenario` DSL).
    Scenario,
    /// A plain-text `.topo` topology spec (a `file` fabric spec's input).
    Topology,
}

impl ArtifactKind {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Checkpoint => "checkpoint",
            ArtifactKind::Trace => "trace",
            ArtifactKind::Scenario => "scenario",
            ArtifactKind::Topology => "topology",
        }
    }
}

/// Everything lint found in one artifact.
#[derive(Clone, Debug)]
pub struct ArtifactReport {
    /// The file name as given.
    pub file: String,
    /// What the artifact was recognised as.
    pub kind: ArtifactKind,
    /// Findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ArtifactReport {
    /// Sorts diagnostics into the canonical deterministic order.
    pub fn finish(mut self) -> ArtifactReport {
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self
    }
}

/// A whole lint run: one report per artifact, in command-line order.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Per-artifact findings.
    pub artifacts: Vec<ArtifactReport>,
}

impl LintReport {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.artifacts
            .iter()
            .flat_map(|a| &a.diagnostics)
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when at least one error-severity finding exists — the
    /// non-zero-exit condition for `tagger-lint check`.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The compiler-style human rendering:
    ///
    /// ```text
    /// examples/bad.ckpt:126:1: error[T0102]: duplicate match key ...
    ///   hint: delete one of the two lines
    /// ```
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for artifact in &self.artifacts {
            for d in &artifact.diagnostics {
                match d.span {
                    Some(s) if !s.is_whole_file() => {
                        out.push_str(&format!("{}:{}:{}: ", artifact.file, s.line, s.col));
                    }
                    _ => out.push_str(&format!("{}: ", artifact.file)),
                }
                out.push_str(&format!("{}[{}]: {}", d.severity, d.code, d.message));
                if let Some(locus) = &d.locus {
                    out.push_str(&format!(" (at {locus})"));
                }
                out.push('\n');
                if let Some(hint) = &d.hint {
                    out.push_str(&format!("  hint: {hint}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_sort_spanned_before_spanless_and_by_position() {
        let a = Diagnostic::new(codes::TAG_DECREASE, Severity::Error, "x")
            .with_span(Span::new(3, 1, 4));
        let b =
            Diagnostic::new(codes::SHADOWED_ENTRY, Severity::Error, "y").with_locus("L1 entry 2");
        let c = Diagnostic::new(codes::MALFORMED_RULE, Severity::Error, "z")
            .with_span(Span::new(2, 9, 1));
        let report = ArtifactReport {
            file: "f".into(),
            kind: ArtifactKind::Checkpoint,
            diagnostics: vec![a.clone(), b.clone(), c.clone()],
        }
        .finish();
        assert_eq!(report.diagnostics, vec![c, a, b]);
    }

    #[test]
    fn human_render_is_compiler_style() {
        let report = LintReport {
            artifacts: vec![ArtifactReport {
                file: "t.ckpt".into(),
                kind: ArtifactKind::Checkpoint,
                diagnostics: vec![Diagnostic::new(
                    codes::TAG_DECREASE,
                    Severity::Error,
                    "tag decreases 2 -> 1",
                )
                .with_span(Span::new(7, 3, 15))
                .with_hint("rewrite to tag 3")],
            }],
        };
        let text = report.render_human();
        assert!(text.contains("t.ckpt:7:3: error[T0201]: tag decreases 2 -> 1"));
        assert!(text.contains("  hint: rewrite to tag 3"));
        assert!(text.ends_with("1 error(s), 0 warning(s), 0 note(s)\n"));
        assert!(report.has_errors());
    }

    #[test]
    fn every_code_has_a_description() {
        for code in [
            codes::UNREADABLE,
            codes::BAD_HEADER,
            codes::UNKNOWN_SWITCH,
            codes::UNKNOWN_NEIGHBOUR,
            codes::NOT_ADJACENT,
            codes::MALFORMED_RULE,
            codes::RULE_BEFORE_SWITCH,
            codes::UNKNOWN_DIRECTIVE,
            codes::TRACE_ARITY,
            codes::TRACE_UNKNOWN_NODE,
            codes::TRACE_PORT_RANGE,
            codes::TRACE_BAD_PATH,
            codes::TRACE_UNKNOWN_LINK,
            codes::WATCHDOG_CLEAR_WITHOUT_TRIP,
            codes::TOPO_SPEC_ERROR,
            codes::SHADOWED_ENTRY,
            codes::CONFLICTING_DUPLICATE,
            codes::IDENTICAL_DUPLICATE,
            codes::TAG_DECREASE,
            codes::UNREACHABLE_RULE,
            codes::TAG_LEAK_TO_LOSSY,
            codes::MERGEABLE_ENTRIES,
            codes::SCN_UNKNOWN_DIRECTIVE,
            codes::SCN_BAD_ARGUMENT,
            codes::SCN_DUPLICATE_DIRECTIVE,
            codes::SCN_MISSING_ASSERT,
            codes::SCN_UNSATISFIABLE_ASSERT,
            codes::SCN_UNKNOWN_NODE,
            codes::ORACLE_INFEASIBLE,
            codes::ORACLE_BUDGET_BELOW_FLOOR,
            codes::ORACLE_CONSTRUCTION_MISMATCH,
            codes::AUDIT_CERTIFIED,
            codes::AUDIT_FINDINGS,
        ] {
            assert!(codes::describe(code).is_some(), "{code} undocumented");
        }
        assert!(codes::describe("T9999").is_none());
    }
}
