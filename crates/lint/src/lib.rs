//! # tagger-lint — pre-deployment static analysis for Tagger artifacts
//!
//! `tagger-audit` proves a committed table deadlock-free; this crate is
//! the *earlier*, cheaper gate: a linter that reads the artifacts an
//! operator actually edits and ships — checkpoint files, control-plane
//! event traces (which carry the ELP spec), raw rule-table text — and
//! emits **structured diagnostics**: a stable error code (`T0001`…), a
//! severity, an exact source span (`file:line:col`) or table locus
//! (`"L1 entry 3"`), and a fix-it hint where one is known.
//!
//! The analyses (see [`analyses`]):
//!
//! - **TCAM order semantics** — duplicate match keys whose conflicting
//!   rewrites make first-match hardware disagree with the
//!   last-write-wins table loader ([`diag::codes::CONFLICTING_DUPLICATE`]),
//!   and installed entries fully covered by an earlier masked entry
//!   ([`diag::codes::SHADOWED_ENTRY`]).
//! - **Tag monotonicity** — the per-edge half of Theorem 5.1, checked
//!   locally per rule without building any graph
//!   ([`diag::codes::TAG_DECREASE`]).
//! - **Reachability** — rules no host-injected packet can ever hit,
//!   via the core forward-closure graph
//!   ([`diag::codes::UNREACHABLE_RULE`]).
//! - **Lossless coverage** — expected lossless paths that silently fall
//!   into the lossy class ([`diag::codes::TAG_LEAK_TO_LOSSY`]).
//! - **Redundancy** — tables that admit a smaller TCAM encoding
//!   ([`diag::codes::MERGEABLE_ENTRIES`]).
//! - **Cross-checks** — the independent auditor's verdict, cross-linked
//!   by certificate id ([`diag::codes::AUDIT_CERTIFIED`]).
//! - **Scenario DSL** — `.scn` files are validated with the
//!   `tagger-scenario` parser itself (unknown directives, malformed
//!   arguments, missing/unsatisfiable asserts, unknown node names; the
//!   `T06xx` codes), so the linter and the runner can never disagree
//!   about the grammar.
//! - **Feasibility oracle** — the `tagger-core` existence oracle decides
//!   whether *any* deadlock-free tagging of the artifact's ELP fits in
//!   the lossless-priority budget: provable infeasibility with a quoted
//!   minimal kernel ([`diag::codes::ORACLE_INFEASIBLE`]), tables whose
//!   tag count falls below the proven feasibility floor
//!   ([`diag::codes::ORACLE_BUDGET_BELOW_FLOOR`]), and an
//!   oracle-vs-construction cross-check
//!   ([`diag::codes::ORACLE_CONSTRUCTION_MISMATCH`]). Plain-text
//!   `.topo` topology specs are first-class lint inputs
//!   ([`diag::codes::TOPO_SPEC_ERROR`] parse diagnostics with
//!   did-you-mean hints).
//!
//! Lint is deliberately *not* the audit: it runs local, per-edge and
//! per-entry checks plus one linear closure, never cycle detection —
//! a checkpoint that merely *contains* a cyclic table (like the Figure 1
//! fixture) lints clean apart from warnings, while the audit rejects it.
//! The two tools disagree by design; the `T09xx` cross-check surfaces
//! the auditor's verdict without duplicating its proof.
//!
//! Output is a [`LintReport`]: render it with
//! [`LintReport::render_human`] or [`render_json`] (byte-stable, golden
//! testable, round-trips through the bundled [`json`] parser).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint is the tool that *reports* defects in user artifacts; it must
// never panic on them. Tests are allow-listed.
#![warn(clippy::unwrap_used)]

pub mod analyses;
pub mod diag;
pub use tagger_core::json;

pub use diag::{codes, ArtifactKind, ArtifactReport, Diagnostic, LintReport, Severity};

use analyses::{lint_elp_coverage, lint_ruleset, lint_table_text, redundancy_note};
use diag::codes as C;
use json::Value;
use tagger_audit::checkpoint;
use tagger_core::{minimize_elp, oracle, Elp, RuleSet, Span};
use tagger_ctrl::{parse_trace, CtrlEvent, TraceErrorKind};
use tagger_topo::{did_you_mean, nearest_names, ClosConfig, GlobalPort, LinkLookupError, Topology};

/// Which expected-lossless-path set to check coverage against.
///
/// Lint cannot guess the operator's ELP, so coverage analysis
/// ([`diag::codes::TAG_LEAK_TO_LOSSY`]) only runs when an ELP family is
/// named explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElpSpec {
    /// Strict up-down paths (no bounces).
    UpDown,
    /// Up-down paths with up to `k` bounces (paper §4).
    Bounces(usize),
}

impl ElpSpec {
    fn build(self, topo: &Topology) -> Elp {
        match self {
            ElpSpec::UpDown => Elp::updown(topo),
            ElpSpec::Bounces(k) => Elp::updown_with_bounces(topo, k),
        }
    }
}

/// Knobs for a lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Check ELP coverage against this path family (off by default).
    pub elp: Option<ElpSpec>,
    /// Run the independent auditor over checkpoints and cross-link its
    /// certificate (on by default; the `T09xx` codes).
    pub audit_cross_check: bool,
    /// Topology to resolve *trace* files against (checkpoints carry
    /// their own). Defaults to the same small Clos `tagger-fleetd
    /// replay` defaults to.
    pub trace_topo: Topology,
    /// Lossless-priority budget the feasibility oracle decides against
    /// (`None` = the eight 802.1Qbb classes,
    /// [`tagger_core::oracle::HARDWARE_TAG_CEILING`]). A `.topo` file's
    /// own `priorities` declaration takes precedence.
    pub tag_budget: Option<usize>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            elp: None,
            audit_cross_check: true,
            trace_topo: ClosConfig::small().build(),
            tag_budget: None,
        }
    }
}

/// Lints one checkpoint file's text.
pub fn lint_checkpoint_text(file: &str, text: &str, opts: &LintOptions) -> ArtifactReport {
    let mut report = ArtifactReport {
        file: file.to_string(),
        kind: ArtifactKind::Checkpoint,
        diagnostics: Vec::new(),
    };
    let built = checkpoint::parse_header(text).and_then(|h| Ok((h.spec.build()?, h)));
    let (topo, header) = match built {
        Ok(built) => built,
        Err(e) => {
            report.diagnostics.push(
                Diagnostic::new(C::BAD_HEADER, Severity::Error, e.why)
                    .with_span(e.span)
                    .with_hint(
                        "a checkpoint needs a `topo <spec>` line naming a buildable \
                         fabric and an `epoch N` line before the table body",
                    ),
            );
            return report.finish();
        }
    };
    let table = lint_table_text(&topo, &header.body, header.body_line.saturating_sub(1));
    report.diagnostics.extend(table.diagnostics);
    report
        .diagnostics
        .extend(lint_ruleset(&topo, &table.rules, &table.spans));
    if let Some(spec) = opts.elp {
        let elp = spec.build(&topo);
        report
            .diagnostics
            .extend(lint_elp_coverage(&topo, &table.rules, &elp));
        // Existence-oracle consult: spans point at the `topo` header
        // line, since that is what determines the ELP family.
        let budget = opts.tag_budget.unwrap_or(oracle::HARDWARE_TAG_CEILING);
        let topo_span = text
            .lines()
            .position(|l| l.trim_start().starts_with("topo "))
            .map(|i| Span::line_start(i + 1));
        match oracle::decide(&topo, &elp, Some(budget)) {
            oracle::Verdict::Infeasible(inf) => {
                let mut d = infeasible_diagnostic(&topo, &elp, &inf);
                if let Some(s) = topo_span {
                    d = d.with_span(s);
                }
                report.diagnostics.push(d);
            }
            oracle::Verdict::Feasible(f) => {
                let used = table.rules.max_tag().map_or(0, |t| t.0 as usize);
                if used < f.lower_bound_tags {
                    let mut d = Diagnostic::new(
                        C::ORACLE_BUDGET_BELOW_FLOOR,
                        Severity::Warning,
                        format!(
                            "table uses {used} lossless tag(s) but the oracle proves this \
                             ELP needs at least {}: no table this small can cover it",
                            f.lower_bound_tags
                        ),
                    )
                    .with_hint(format!(
                        "re-plan with a bounce budget of at least {} tags \
                         (e.g. `tagger-plan --topo '<spec>' --bounces {}`)",
                        f.lower_bound_tags,
                        f.lower_bound_tags.saturating_sub(1)
                    ));
                    if let Some(s) = topo_span {
                        d = d.with_span(s);
                    }
                    report.diagnostics.push(d);
                }
            }
        }
    }
    report
        .diagnostics
        .extend(redundancy_note(&topo, &table.rules));
    if opts.audit_cross_check {
        report
            .diagnostics
            .push(audit_cross_check(&topo, header.epoch, &table.rules));
    }
    report.finish()
}

/// Runs the independent auditor and condenses its verdict into one
/// cross-link diagnostic — lint never re-proves (or contradicts) the
/// audit, it just points at it.
fn audit_cross_check(topo: &Topology, epoch: u64, rules: &RuleSet) -> Diagnostic {
    let mut auditor = tagger_audit::Auditor::new(topo.clone());
    let audit = auditor.audit(epoch, rules);
    match &audit.certificate {
        Some(cert) if audit.is_certified() => Diagnostic::new(
            C::AUDIT_CERTIFIED,
            Severity::Note,
            format!(
                "independent audit certified epoch {epoch} deadlock-free (certificate {})",
                cert.id()
            ),
        ),
        _ => Diagnostic::new(
            C::AUDIT_FINDINGS,
            Severity::Warning,
            format!(
                "independent audit reports {} finding(s) at epoch {epoch}",
                audit.findings.len()
            ),
        )
        .with_hint("run `tagger-audit check` on this checkpoint for the full report"),
    }
}

/// `S1<-L1`: an ingress port named by its node and upstream peer — the
/// human rendering of a buffer-dependency cycle vertex.
fn dep_port_name(topo: &Topology, port: GlobalPort) -> String {
    match topo.peer_of(port) {
        Some(peer) => format!(
            "{}<-{}",
            topo.node(port.node).name,
            topo.node(peer.node).name
        ),
        None => topo.node(port.node).name.clone(),
    }
}

/// The shared `T0701` builder: quotes the minimal kernel paths and the
/// dependency cycle from the oracle's counterexample.
fn infeasible_diagnostic(topo: &Topology, elp: &Elp, inf: &oracle::Infeasible) -> Diagnostic {
    let kernel: Vec<String> = inf
        .kernel
        .iter()
        .map(|&i| elp.path(i).display(topo).to_string())
        .collect();
    let cycle: Vec<String> = inf.cycle.iter().map(|&p| dep_port_name(topo, p)).collect();
    let mut message = format!(
        "no deadlock-free tagging of this {}-path ELP fits in {} lossless tag(s); \
         minimal infeasible kernel ({} path(s)): {}",
        elp.len(),
        inf.budget,
        inf.kernel.len(),
        kernel.join("; ")
    );
    if !cycle.is_empty() {
        message.push_str(&format!("; dependency cycle: {}", cycle.join(" -> ")));
    }
    if !inf.exhaustive {
        message.push_str(" (search capped; verdict conservative)");
    }
    Diagnostic::new(C::ORACLE_INFEASIBLE, Severity::Error, message).with_hint(format!(
        "at least {} lossless tag(s) are required: raise the priority budget or drop \
         one of the kernel paths from the ELP",
        inf.lower_bound_tags
    ))
}

/// The `T0703` cross-check that keeps the oracle and the Algorithm 1+2
/// construction honest: a *proven* infeasibility contradicted by a
/// verified construction inside the budget, or a construction that
/// beats the oracle's proven floor, is an internal error in one of the
/// two — never a user mistake.
fn oracle_construction_cross_check(
    verdict: &oracle::Verdict,
    constructed_tags: usize,
    budget: usize,
) -> Option<Diagnostic> {
    let message = match verdict {
        oracle::Verdict::Infeasible(inf) if inf.exhaustive && constructed_tags <= budget => {
            format!(
                "internal: oracle proved no tagging fits in {budget} tag(s), yet Algorithm \
                 1+2 built a verified tagging with {constructed_tags}"
            )
        }
        oracle::Verdict::Feasible(f) if constructed_tags < f.lower_bound_tags => format!(
            "internal: Algorithm 1+2 built a verified tagging with {constructed_tags} \
             tag(s), below the oracle's proven floor of {}",
            f.lower_bound_tags
        ),
        _ => return None,
    };
    Some(
        Diagnostic::new(C::ORACLE_CONSTRUCTION_MISMATCH, Severity::Error, message)
            .with_hint("file a bug: one of the two analyses is wrong"),
    )
}

/// Source line of the `link` declaration behind a dependency-cycle
/// port, for spanning `T0701` into a `.topo` file.
fn link_line_of(topo: &Topology, spec: &tagger_topo::SpecFile, port: GlobalPort) -> Option<usize> {
    topo.link_ids()
        .enumerate()
        .find(|&(_, l)| topo.link(l).a == port || topo.link(l).b == port)
        .and_then(|(i, _)| spec.link_lines.get(i).copied())
}

/// Lints one plain-text `.topo` topology spec.
///
/// Parse errors surface as [`diag::codes::TOPO_SPEC_ERROR`] with exact
/// token spans and did-you-mean hints. A well-formed spec is then fed
/// to the existence oracle: layered fabrics use the `opts.elp` family
/// (default strict up-down), unlayered ones the host-pair shortest
/// paths; the budget is `opts.tag_budget` when set (the `--budget`
/// flag is an operator's what-if override), else the spec's own
/// `priorities` declaration, else the hardware ceiling.
/// Infeasibility is [`diag::codes::ORACLE_INFEASIBLE`] with the kernel
/// quoted and the span pointing at a link on the dependency cycle; the
/// verdict is also cross-checked against the Algorithm 1+2
/// construction ([`diag::codes::ORACLE_CONSTRUCTION_MISMATCH`]).
pub fn lint_topology_text(file: &str, text: &str, opts: &LintOptions) -> ArtifactReport {
    let mut report = ArtifactReport {
        file: file.to_string(),
        kind: ArtifactKind::Topology,
        diagnostics: Vec::new(),
    };
    let spec = match Topology::parse_spec(text) {
        Ok(spec) => spec,
        Err(e) => {
            let mut d =
                Diagnostic::new(C::TOPO_SPEC_ERROR, Severity::Error, e.message).with_span(e.span);
            if let Some(hint) = e.hint {
                d = d.with_hint(hint);
            }
            report.diagnostics.push(d);
            return report.finish();
        }
    };
    let topo = &spec.topo;
    if topo.num_links() == 0 {
        return report.finish();
    }
    let layered = topo.unranked_switch().is_none();
    let elp = if layered {
        opts.elp.unwrap_or(ElpSpec::UpDown).build(topo)
    } else {
        Elp::shortest(topo, 1, true)
    };
    if elp.is_empty() {
        return report.finish();
    }
    let budget = opts
        .tag_budget
        .or(spec.priorities.map(|p| p as usize))
        .unwrap_or(oracle::HARDWARE_TAG_CEILING);
    let verdict = oracle::decide(topo, &elp, Some(budget));
    if let oracle::Verdict::Infeasible(inf) = &verdict {
        let mut d = infeasible_diagnostic(topo, &elp, inf);
        let span = inf
            .cycle
            .first()
            .and_then(|&p| link_line_of(topo, &spec, p))
            .map(Span::line_start)
            .or_else(|| (spec.priorities_line > 0).then(|| Span::line_start(spec.priorities_line)));
        if let Some(s) = span {
            d = d.with_span(s);
        }
        report.diagnostics.push(d);
    }
    // Keep the oracle honest against the construction it gatekeeps.
    let constructed = minimize_elp(topo, &elp);
    if constructed.verify().is_ok() {
        let tags = constructed.num_lossless_tags(topo);
        report
            .diagnostics
            .extend(oracle_construction_cross_check(&verdict, tags, budget));
    }
    report.finish()
}

/// Lints one control-plane trace file's text against a topology.
///
/// Unlike [`tagger_ctrl::parse_trace`] — which stops at the first error
/// so a *replay* never proceeds past garbage — lint feeds each line
/// separately and reports every defective line in one pass.
pub fn lint_trace_text(file: &str, topo: &Topology, text: &str) -> ArtifactReport {
    lint_trace_text_budget(file, topo, text, None)
}

/// [`lint_trace_text`] with an explicit lossless-priority budget for
/// the feasibility oracle (`None` = the hardware ceiling): the trace's
/// accumulated `elp-add` set is checked for existence of *any*
/// deadlock-free tagging, and a provably infeasible set is reported as
/// [`diag::codes::ORACLE_INFEASIBLE`] spanned to the first kernel
/// path's `elp-add` line.
pub fn lint_trace_text_budget(
    file: &str,
    topo: &Topology,
    text: &str,
    tag_budget: Option<usize>,
) -> ArtifactReport {
    let mut report = ArtifactReport {
        file: file.to_string(),
        kind: ArtifactKind::Trace,
        diagnostics: Vec::new(),
    };
    // The ELP the trace has built up (elp-add minus elp-remove), each
    // path with the line that introduced it.
    let mut elp_paths: Vec<(tagger_routing::Path, usize)> = Vec::new();
    // Stateful watchdog pairing: a `watchdog-clear` should lift a
    // quarantine some earlier `watchdog` trip installed — either on the
    // tripping victim hop or on its attributed (`via`) trigger hop. A
    // clear with no matching prior trip is a replay no-op, which usually
    // means a typo'd hop or a line left behind by an edit.
    let mut quarantined: std::collections::BTreeSet<(
        tagger_topo::NodeId,
        tagger_topo::PortId,
        u16,
    )> = std::collections::BTreeSet::new();
    for (idx, line) in text.lines().enumerate() {
        let events = match parse_trace(topo, line) {
            Ok(events) => events,
            Err(e) => {
                // The single-line parse reports line 1; restore file
                // coordinates.
                let span = Span::new(idx + 1, e.span.col, e.span.len);
                let (code, hint) = match &e.kind {
                    TraceErrorKind::UnknownDirective(_) => (
                        C::UNKNOWN_DIRECTIVE,
                        Some(
                            "known directives: down, up, flap, elp-add, elp-remove, watchdog, \
                             watchdog-clear, resync"
                                .to_string(),
                        ),
                    ),
                    TraceErrorKind::BadArity { .. } => (C::TRACE_ARITY, None),
                    TraceErrorKind::UnknownNode(name) => (
                        C::TRACE_UNKNOWN_NODE,
                        did_you_mean(&nearest_names(topo, name)),
                    ),
                    TraceErrorKind::PortOutOfRange { node, .. } => (
                        C::TRACE_PORT_RANGE,
                        topo.node_by_name(node)
                            .map(|n| format!("{node} has ports 0..{}", topo.node(n).num_ports())),
                    ),
                    TraceErrorKind::Path(..) => (C::TRACE_BAD_PATH, None),
                    TraceErrorKind::Link(link) => {
                        let hint = match link {
                            LinkLookupError::UnknownNode { nearest, .. } => did_you_mean(nearest),
                            LinkLookupError::NotAdjacent { a, candidates, .. }
                                if !candidates.is_empty() =>
                            {
                                Some(format!("{a} is adjacent to {}", candidates.join(", ")))
                            }
                            _ => None,
                        };
                        (C::TRACE_UNKNOWN_LINK, hint)
                    }
                };
                // Render the kind's message without the "trace line N:"
                // prefix — the diagnostic carries the span itself.
                let full = e.to_string();
                let message = full
                    .split_once(": ")
                    .map(|(_, m)| m.to_string())
                    .unwrap_or(full);
                let mut d = Diagnostic::new(code, Severity::Error, message).with_span(span);
                if let Some(hint) = hint {
                    d = d.with_hint(hint);
                }
                report.diagnostics.push(d);
                continue;
            }
        };
        for ev in &events {
            match ev {
                CtrlEvent::ElpAdd(p) => elp_paths.push((p.clone(), idx + 1)),
                CtrlEvent::ElpRemove(p) => {
                    if let Some(pos) = elp_paths.iter().position(|(q, _)| q == p) {
                        elp_paths.remove(pos);
                    }
                }
                CtrlEvent::WatchdogTrip {
                    switch, port, tag, ..
                } => {
                    quarantined.insert((*switch, *port, tag.0));
                    if let Some(q) = ev.effective_quarantine() {
                        quarantined.insert(q);
                    }
                }
                CtrlEvent::WatchdogClear { switch, port, tag }
                    if !quarantined.remove(&(*switch, *port, tag.0)) =>
                {
                    let name = &topo.node(*switch).name;
                    let col = line.find("watchdog-clear").map_or(1, |c| c + 1);
                    report.diagnostics.push(
                        Diagnostic::new(
                            C::WATCHDOG_CLEAR_WITHOUT_TRIP,
                            Severity::Warning,
                            format!(
                                "watchdog-clear for {name} port {} tag {} has no prior \
                                     watchdog trip in this trace (replay treats it as a no-op)",
                                port.0, tag.0
                            ),
                        )
                        .with_span(Span::new(idx + 1, col, "watchdog-clear".len()))
                        .with_hint(format!(
                            "add the `watchdog {name} {} {}` trip this clear is meant to \
                                 lift, or delete the line",
                            port.0, tag.0
                        )),
                    );
                }
                _ => {}
            }
        }
    }
    if !elp_paths.is_empty() {
        let budget = tag_budget.unwrap_or(oracle::HARDWARE_TAG_CEILING);
        let lines: Vec<usize> = elp_paths.iter().map(|(_, l)| *l).collect();
        let elp = Elp::from_paths(elp_paths.into_iter().map(|(p, _)| p).collect());
        if let oracle::Verdict::Infeasible(inf) = oracle::decide(topo, &elp, Some(budget)) {
            let mut d = infeasible_diagnostic(topo, &elp, &inf);
            if let Some(&first) = inf.kernel.first() {
                d = d.with_span(Span::line_start(lines[first]));
            }
            report.diagnostics.push(d);
        }
    }
    report.finish()
}

/// Lints one `.scn` scenario file's text.
///
/// Reuses the `tagger-scenario` parser itself (one grammar, two
/// frontends): [`tagger_scenario::parse_all`] reports *every* defective
/// line plus the semantic validations (missing assert block,
/// unsatisfiable asserts, unknown node names with did-you-mean hints),
/// and lint maps its issue categories onto the stable `T06xx` codes.
pub fn lint_scenario_text(file: &str, text: &str) -> ArtifactReport {
    use tagger_scenario::IssueCode;
    let (_, issues) = tagger_scenario::parse_all(text);
    let diagnostics = issues
        .into_iter()
        .map(|i| {
            let code = match i.code {
                IssueCode::UnknownDirective => C::SCN_UNKNOWN_DIRECTIVE,
                IssueCode::BadArgument => C::SCN_BAD_ARGUMENT,
                IssueCode::DuplicateDirective => C::SCN_DUPLICATE_DIRECTIVE,
                IssueCode::MissingAssert => C::SCN_MISSING_ASSERT,
                IssueCode::UnsatisfiableAssert => C::SCN_UNSATISFIABLE_ASSERT,
                IssueCode::UnknownNode => C::SCN_UNKNOWN_NODE,
            };
            let mut d = Diagnostic::new(code, Severity::Error, i.message).with_span(i.span);
            if let Some(hint) = i.hint {
                d = d.with_hint(hint);
            }
            d
        })
        .collect();
    ArtifactReport {
        file: file.to_string(),
        kind: ArtifactKind::Scenario,
        diagnostics,
    }
    .finish()
}

/// Guesses what kind of artifact `text` is, preferring content over the
/// `name` extension: checkpoints self-identify via their header.
pub fn sniff_kind(name: &str, text: &str) -> ArtifactKind {
    let looks_like_scenario = text
        .lines()
        .take(10)
        .any(|l| l.trim_start().starts_with("scenario "));
    if looks_like_scenario || name.ends_with(".scn") {
        return ArtifactKind::Scenario;
    }
    // Topology specs open with `node` declarations (comments allowed);
    // checkpoint headers never do.
    let looks_like_topology = text.lines().take(10).any(|l| {
        let t = l.trim_start();
        t.starts_with("node ") || t.starts_with("priorities ")
    });
    if looks_like_topology || name.ends_with(".topo") {
        return ArtifactKind::Topology;
    }
    let looks_like_checkpoint = text
        .lines()
        .take(10)
        .any(|l| l.contains("tagger-audit checkpoint") || l.trim_start().starts_with("topo clos"));
    if looks_like_checkpoint || name.ends_with(".ckpt") {
        ArtifactKind::Checkpoint
    } else {
        ArtifactKind::Trace
    }
}

/// Lints a list of files (reading each from disk), producing one
/// [`LintReport`] with the artifacts in argument order. Unreadable
/// files become [`diag::codes::UNREADABLE`] errors rather than
/// aborting the run.
pub fn lint_files(paths: &[String], opts: &LintOptions) -> LintReport {
    let mut report = LintReport::default();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                report.artifacts.push(ArtifactReport {
                    file: path.clone(),
                    kind: ArtifactKind::Trace,
                    diagnostics: vec![Diagnostic::new(
                        C::UNREADABLE,
                        Severity::Error,
                        format!("cannot read: {e}"),
                    )],
                });
                continue;
            }
        };
        report.artifacts.push(match sniff_kind(path, &text) {
            ArtifactKind::Checkpoint => lint_checkpoint_text(path, &text, opts),
            ArtifactKind::Scenario => lint_scenario_text(path, &text),
            ArtifactKind::Topology => lint_topology_text(path, &text, opts),
            _ => lint_trace_text_budget(path, &opts.trace_topo, &text, opts.tag_budget),
        });
    }
    report
}

/// Encodes a report as a JSON [`Value`] (see [`render_json`] for the
/// schema).
pub fn report_to_json(report: &LintReport) -> Value {
    let diagnostic = |d: &Diagnostic| {
        let mut members = vec![
            ("code", Value::str(d.code)),
            ("severity", Value::str(d.severity.label())),
        ];
        if let Some(s) = d.span.filter(|s| !s.is_whole_file()) {
            members.extend([
                ("line", s.line.into()),
                ("col", s.col.into()),
                ("len", s.len.into()),
            ]);
        }
        members.push(("message", Value::str(&d.message)));
        if let Some(locus) = &d.locus {
            members.push(("locus", Value::str(locus)));
        }
        if let Some(hint) = &d.hint {
            members.push(("hint", Value::str(hint)));
        }
        Value::obj(members)
    };
    let artifacts = report.artifacts.iter().map(|a| {
        Value::obj([
            ("file", Value::str(&a.file)),
            ("kind", Value::str(a.kind.label())),
            (
                "diagnostics",
                a.diagnostics.iter().map(diagnostic).collect(),
            ),
        ])
    });
    Value::obj([
        ("version", Value::Num(1)),
        (
            "summary",
            Value::obj([
                ("errors", report.count(Severity::Error).into()),
                ("warnings", report.count(Severity::Warning).into()),
                ("notes", report.count(Severity::Note).into()),
            ]),
        ),
        ("artifacts", artifacts.collect()),
    ])
}

/// The byte-stable JSON rendering of a report, one member per line
/// with two-space indentation:
///
/// ```json
/// {
///   "version": 1,
///   "summary": {
///     "errors": 2,
///     "warnings": 1,
///     "notes": 1
///   },
///   "artifacts": [
///     {
///       "file": "...",
///       "kind": "checkpoint",
///       "diagnostics": [
///         {
///           "code": "T0201",
///           "severity": "error",
///           "line": 146,
///           "col": 1,
///           "len": 15,
///           "message": "...",
///           "locus": "switch L1",
///           "hint": "..."
///         }
///       ]
///     }
///   ]
/// }
/// ```
///
/// Diagnostics keep the canonical deterministic order, so the rendering
/// is golden-testable; it parses back via [`json::Value::parse`].
pub fn render_json(report: &LintReport) -> String {
    report_to_json(report).render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_core::clos::clos_tagging;

    fn render(config: &ClosConfig, rules: &RuleSet, topo: &Topology) -> String {
        checkpoint::render(&(*config).into(), 1, topo, rules)
    }

    #[test]
    fn clean_checkpoint_has_no_errors_and_a_certificate_note() {
        let config = ClosConfig::small();
        let topo = config.build();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = render(&config, tagging.rules(), &topo);
        let report = lint_checkpoint_text("t.ckpt", &text, &LintOptions::default());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error));
        let cert = report
            .diagnostics
            .iter()
            .find(|d| d.code == C::AUDIT_CERTIFIED)
            .expect("certificate cross-link");
        assert!(cert.message.contains("cert-"), "{}", cert.message);
    }

    #[test]
    fn bad_header_is_a_single_error() {
        let report = lint_checkpoint_text(
            "t.ckpt",
            "topo clos spines=0\nepoch 1\n",
            &LintOptions::default(),
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, C::BAD_HEADER);
        assert_eq!(report.diagnostics[0].span.unwrap(), Span::new(1, 11, 8));
    }

    #[test]
    fn trace_lint_reports_every_bad_line_with_columns() {
        let topo = ClosConfig::small().build();
        let text = "down L1 T1\nfrobnicate\ndown L1 XX\nwatchdog L1 99 2\nelp-add H1 T1 S1\n";
        let report = lint_trace_text("t.trace", &topo, text);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                C::UNKNOWN_DIRECTIVE,
                C::TRACE_UNKNOWN_LINK,
                C::TRACE_PORT_RANGE,
                C::TRACE_BAD_PATH
            ]
        );
        let lines: Vec<usize> = report
            .diagnostics
            .iter()
            .map(|d| d.span.unwrap().line)
            .collect();
        assert_eq!(lines, vec![2, 3, 4, 5]);
        // Column accuracy on the port-range error.
        assert_eq!(report.diagnostics[2].span.unwrap().col, 13);
        assert!(report.diagnostics[2]
            .hint
            .as_ref()
            .unwrap()
            .contains("ports 0.."));
    }

    #[test]
    fn watchdog_clear_without_trip_warns_with_span_and_hint() {
        let topo = ClosConfig::small().build();
        // Line 1 clears a never-tripped hop; line 2 trips L1 port 1
        // tag 2 via the attributed trigger S1 port 0 tag 2; lines 3-4
        // clear both the victim and the trigger hop (paired, quiet);
        // line 5 re-clears the victim, which is pending no more.
        let text = "watchdog-clear L2 0 1\n\
                    watchdog L1 1 2 via S1 0 2\n\
                    watchdog-clear L1 1 2\n\
                    watchdog-clear S1 0 2\n\
                    watchdog-clear L1 1 2\n";
        let report = lint_trace_text("t.trace", &topo, text);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                C::WATCHDOG_CLEAR_WITHOUT_TRIP,
                C::WATCHDOG_CLEAR_WITHOUT_TRIP
            ]
        );
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.unwrap().line, 1);
        assert_eq!(d.span.unwrap().col, 1);
        assert!(d.message.contains("L2 port 0 tag 1"));
        assert!(d.hint.as_ref().unwrap().contains("watchdog L2 0 1"));
        assert_eq!(report.diagnostics[1].span.unwrap().line, 5);
        // Warnings do not fail `check`.
        assert!(!LintReport {
            artifacts: vec![report]
        }
        .has_errors());
    }

    #[test]
    fn sniffing_prefers_content_over_extension() {
        assert_eq!(
            sniff_kind(
                "x.trace",
                "# tagger-audit checkpoint v1\ntopo clos pods=1\n"
            ),
            ArtifactKind::Checkpoint
        );
        assert_eq!(sniff_kind("x.ckpt", ""), ArtifactKind::Checkpoint);
        assert_eq!(sniff_kind("x.trace", "down L1 T1\n"), ArtifactKind::Trace);
        assert_eq!(
            sniff_kind("x.trace", "scenario misnamed\ntopo clos small\n"),
            ArtifactKind::Scenario
        );
        assert_eq!(sniff_kind("x.scn", ""), ArtifactKind::Scenario);
        assert_eq!(
            sniff_kind("x.trace", "# ring\nnode R1 switch flat\n"),
            ArtifactKind::Topology
        );
        assert_eq!(sniff_kind("x.topo", ""), ArtifactKind::Topology);
    }

    /// An N-switch ring spec: flat switches force the unlayered
    /// shortest-path ELP, whose clockwise 2-arc paths interlock.
    fn ring_spec(n: usize, priorities: Option<u16>) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("# ring fabric\n");
        for i in 1..=n {
            let _ = writeln!(s, "node R{i} switch flat");
        }
        for i in 1..=n {
            let _ = writeln!(s, "node H{i} host");
        }
        if let Some(p) = priorities {
            let _ = writeln!(s, "priorities {p}");
        }
        for i in 1..=n {
            let j = i % n + 1;
            let _ = writeln!(s, "link R{i} R{j}");
        }
        for i in 1..=n {
            let _ = writeln!(s, "link H{i} R{i}");
        }
        s
    }

    #[test]
    fn topology_parse_errors_carry_spans_and_hints() {
        let report = lint_topology_text(
            "bad.topo",
            "node Spine1 switch spine\nnode Tor1 switch tor\nlink Tor1 Spina1\n",
            &LintOptions::default(),
        );
        assert_eq!(report.kind, ArtifactKind::Topology);
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, C::TOPO_SPEC_ERROR);
        assert_eq!(d.severity, Severity::Error);
        let span = d.span.unwrap();
        assert_eq!((span.line, span.col, span.len), (3, 11, 6));
        assert!(d.hint.as_ref().unwrap().contains("Spine1"), "{:?}", d.hint);
    }

    #[test]
    fn infeasible_topology_emits_t0701_with_quoted_kernel() {
        let report =
            lint_topology_text("ring.topo", &ring_spec(5, Some(1)), &LintOptions::default());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![C::ORACLE_INFEASIBLE], "got {codes:?}");
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.message.contains("minimal infeasible kernel"),
            "{}",
            d.message
        );
        assert!(
            d.message.contains(" -> "),
            "kernel paths quoted: {}",
            d.message
        );
        assert!(d.message.contains("dependency cycle"), "{}", d.message);
        // The span points at a `link` line of the cycle.
        let line = d.span.unwrap().line;
        let text = ring_spec(5, Some(1));
        assert!(
            text.lines().nth(line - 1).unwrap().starts_with("link "),
            "span line {line} is not a link line"
        );
        assert!(
            d.hint.as_ref().unwrap().contains("at least 2"),
            "{:?}",
            d.hint
        );
    }

    #[test]
    fn feasible_topology_lints_clean() {
        let report =
            lint_topology_text("ring.topo", &ring_spec(5, Some(2)), &LintOptions::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        // And with no declaration the hardware ceiling applies.
        let report = lint_topology_text("ring.topo", &ring_spec(5, None), &LintOptions::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn checkpoint_oracle_fires_at_tight_budget() {
        let config = ClosConfig::small();
        let topo = config.build();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = render(&config, tagging.rules(), &topo);
        let opts = LintOptions {
            elp: Some(ElpSpec::Bounces(1)),
            tag_budget: Some(1),
            ..LintOptions::default()
        };
        let report = lint_checkpoint_text("t.ckpt", &text, &opts);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == C::ORACLE_INFEASIBLE)
            .expect("bounce ELP cannot fit one tag");
        // Spanned to the `topo` header line.
        assert_eq!(d.span.unwrap().line, 2);
    }

    #[test]
    fn checkpoint_tags_below_floor_warn() {
        let config = ClosConfig::small();
        let topo = config.build();
        // A 0-bounce table linted against the 1-bounce ELP: feasible at
        // the hardware ceiling, but the table's single tag family is
        // provably too small.
        let tagging = clos_tagging(&topo, 0).unwrap();
        let text = render(&config, tagging.rules(), &topo);
        let opts = LintOptions {
            elp: Some(ElpSpec::Bounces(1)),
            ..LintOptions::default()
        };
        let report = lint_checkpoint_text("t.ckpt", &text, &opts);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == C::ORACLE_BUDGET_BELOW_FLOOR)
            .expect("one tag is below the proven floor of two");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("at least 2"), "{}", d.message);
        assert!(
            d.hint.as_ref().unwrap().contains("--bounces"),
            "{:?}",
            d.hint
        );
    }

    #[test]
    fn trace_elp_oracle_flags_infeasible_set() {
        let ring = Topology::from_spec_text(&ring_spec(5, None)).unwrap();
        let mut text = String::new();
        for i in 1..=5usize {
            let a = i;
            let b = i % 5 + 1;
            let c = b % 5 + 1;
            text.push_str(&format!("elp-add H{a} R{a} R{b} R{c} H{c}\n"));
        }
        // Feasible at the default eight-tag ceiling.
        let quiet = lint_trace_text_budget("t.trace", &ring, &text, None);
        assert!(quiet.diagnostics.is_empty(), "{:?}", quiet.diagnostics);
        // Infeasible when the deployment has a single lossless class.
        let report = lint_trace_text_budget("t.trace", &ring, &text, Some(1));
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, C::ORACLE_INFEASIBLE);
        assert!(d.span.unwrap().line >= 1 && d.span.unwrap().line <= 5);
        // Removing one kernel path makes the rest feasible again.
        let kernel_line = d.span.unwrap().line;
        let removed: String = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i + 1 != kernel_line)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let healed = lint_trace_text_budget("t.trace", &ring, &removed, Some(1));
        assert!(healed.diagnostics.is_empty(), "{:?}", healed.diagnostics);
    }

    #[test]
    fn cross_check_flags_contradictions_in_both_directions() {
        use tagger_core::oracle::{Feasible, Infeasible, Verdict, WitnessOrder};
        let feasible = |lower| {
            Verdict::Feasible(Feasible {
                lower_bound_tags: lower,
                tags_used: lower,
                witness: WitnessOrder {
                    layers: Vec::new(),
                    assignment: Vec::new(),
                },
            })
        };
        let infeasible = Verdict::Infeasible(Infeasible {
            budget: 8,
            lower_bound_tags: 9,
            kernel: vec![0],
            cycle: Vec::new(),
            exhaustive: true,
        });
        // Proven infeasible, yet the construction fit the budget.
        let d = oracle_construction_cross_check(&infeasible, 2, 8).expect("contradiction");
        assert_eq!(d.code, C::ORACLE_CONSTRUCTION_MISMATCH);
        // Construction beat the proven floor.
        let d = oracle_construction_cross_check(&feasible(3), 2, 8).expect("contradiction");
        assert_eq!(d.code, C::ORACLE_CONSTRUCTION_MISMATCH);
        // Agreement is quiet.
        assert!(oracle_construction_cross_check(&feasible(2), 2, 8).is_none());
        assert!(oracle_construction_cross_check(&feasible(2), 3, 8).is_none());
    }

    #[test]
    fn scenario_lint_maps_issue_codes_with_spans_and_hints() {
        // Line 2: unknown directive; line 3: bad tagger argument;
        // line 5: duplicate `end`; line 6: unknown node (did-you-mean);
        // and the file never asserts anything.
        let text = "scenario bad\n\
                    topoo clos small\n\
                    tagger bounce 1\n\
                    end 4ms\n\
                    end 8ms\n\
                    flow H1 H99\n";
        let report = lint_scenario_text("bad.scn", text);
        assert_eq!(report.kind, ArtifactKind::Scenario);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&C::SCN_UNKNOWN_DIRECTIVE));
        assert!(codes.contains(&C::SCN_BAD_ARGUMENT));
        assert!(codes.contains(&C::SCN_DUPLICATE_DIRECTIVE));
        assert!(codes.contains(&C::SCN_MISSING_ASSERT));
        assert!(codes.contains(&C::SCN_UNKNOWN_NODE));
        // Every spanned finding carries file coordinates, and the
        // unknown-directive one lands on line 2 column 1.
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == C::SCN_UNKNOWN_DIRECTIVE)
            .unwrap();
        assert_eq!(d.span.unwrap().line, 2);
        assert_eq!(d.span.unwrap().col, 1);
        assert!(d.hint.as_ref().unwrap().contains("topo"));
        assert!(LintReport {
            artifacts: vec![report]
        }
        .has_errors());
    }

    #[test]
    fn scenario_lint_passes_a_clean_file_and_flags_unsatisfiable_asserts() {
        let clean = "scenario ok\ntopo clos small\ntagger off\nend 4ms\n\
                     flow H1 H13\nassert no-deadlock\n";
        assert!(lint_scenario_text("ok.scn", clean).diagnostics.is_empty());
        let unsat = "scenario bad\ntopo clos small\ntagger off\nend 4ms\n\
                     flow H1 H13\nassert watchdog-trips >= 1\n";
        let report = lint_scenario_text("bad.scn", unsat);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>(),
            vec![C::SCN_UNSATISFIABLE_ASSERT]
        );
    }

    #[test]
    fn json_encoding_round_trips_and_counts_severities() {
        let config = ClosConfig::small();
        let topo = config.build();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let mut text = render(&config, tagging.rules(), &topo);
        text.push_str("rule 1 T1 T2 1\nrule 1 T1 T2 2\n"); // conflicting duplicate
        let report = LintReport {
            artifacts: vec![lint_checkpoint_text(
                "t.ckpt",
                &text,
                &LintOptions::default(),
            )],
        };
        assert!(report.has_errors());
        let rendered = render_json(&report);
        let parsed = Value::parse(&rendered).unwrap();
        assert_eq!(parsed.render(), rendered, "byte-stable round trip");
        assert_eq!(parsed.get("version"), Some(&Value::Num(1)));
        let errors = parsed.get("summary").unwrap().get("errors").unwrap();
        assert_eq!(errors, &Value::Num(report.count(Severity::Error) as i64));
    }

    #[test]
    fn elp_coverage_is_opt_in() {
        let config = ClosConfig::small();
        let topo = config.build();
        // 1-bounce tagging covers up-down-with-1-bounce ELPs, but if we
        // lint against 2-bounce ELPs some paths leak.
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = render(&config, tagging.rules(), &topo);
        let quiet = lint_checkpoint_text("t.ckpt", &text, &LintOptions::default());
        assert!(quiet
            .diagnostics
            .iter()
            .all(|d| d.code != C::TAG_LEAK_TO_LOSSY));
        let opts = LintOptions {
            elp: Some(ElpSpec::Bounces(2)),
            ..LintOptions::default()
        };
        let loud = lint_checkpoint_text("t.ckpt", &text, &opts);
        assert!(loud
            .diagnostics
            .iter()
            .any(|d| d.code == C::TAG_LEAK_TO_LOSSY));
        let covered = LintOptions {
            elp: Some(ElpSpec::Bounces(1)),
            ..LintOptions::default()
        };
        let clean = lint_checkpoint_text("t.ckpt", &text, &covered);
        assert!(clean
            .diagnostics
            .iter()
            .all(|d| d.code != C::TAG_LEAK_TO_LOSSY));
    }
}
