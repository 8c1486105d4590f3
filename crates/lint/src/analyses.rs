//! The individual static analyses over tables and TCAM programs.

use crate::diag::{codes, Diagnostic, Severity};
use std::collections::{BTreeMap, BTreeSet};
use tagger_core::tcam::{Compression, Tcam, TcamProgram};
use tagger_core::{Elp, RuleSet, Span, TableTextErrorKind, Tag, TagDecision, TaggedNode};
use tagger_topo::{did_you_mean, nearest_names, GlobalPort, NodeId, PortId, Topology};

/// Where each final (last-write-wins) rule was defined in the text, so
/// semantic findings can point back at source lines.
pub type SpanIndex = BTreeMap<(NodeId, Tag, PortId, PortId), Span>;

/// Result of the text-level table lint: the effective rule set plus the
/// syntax/duplication findings and the span index for later analyses.
pub struct TableLint {
    /// The effective rules (duplicates resolved last-write-wins, exactly
    /// as `RuleSet::from_table_text` would).
    pub rules: RuleSet,
    /// Source span of each effective rule.
    pub spans: SpanIndex,
    /// Syntax errors and duplicate-key findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// The human-readable name of the peer reached through `port` — falls
/// back to `#N` for unwired ports, matching the table-text syntax.
fn port_name(topo: &Topology, sw: NodeId, port: PortId) -> String {
    match topo.peer_of(GlobalPort::new(sw, port)) {
        Some(gp) => topo.node(gp.node).name.clone(),
        None => format!("#{}", port.0),
    }
}

/// `(tag 2, in S1, out S2)` — the match-key rendering all table
/// diagnostics use.
fn key_name(topo: &Topology, sw: NodeId, tag: Tag, in_port: PortId, out_port: PortId) -> String {
    format!(
        "(tag {}, in {}, out {})",
        tag.0,
        port_name(topo, sw, in_port),
        port_name(topo, sw, out_port)
    )
}

/// Lints the *text* of a rule table: malformed lines (with the parser's
/// exact spans) and duplicate match keys — the analysis that catches a
/// table whose first-match TCAM semantics disagree with what the
/// last-write-wins loader will build. `line_offset` maps table-local
/// line numbers to file coordinates (a body embedded in a checkpoint).
pub fn lint_table_text(topo: &Topology, text: &str, line_offset: usize) -> TableLint {
    let parse = RuleSet::parse_table_text_lenient(topo, text);
    let mut diagnostics = Vec::new();
    for e in &parse.errors {
        let message = e.kind.to_string();
        let unknown = |code, name: &str| {
            let d = Diagnostic::new(code, Severity::Error, message.clone());
            match did_you_mean(&nearest_names(topo, name)) {
                Some(hint) => d.with_hint(hint),
                None => d,
            }
        };
        let d = match &e.kind {
            TableTextErrorKind::UnknownSwitch(name) => unknown(codes::UNKNOWN_SWITCH, name),
            TableTextErrorKind::UnknownNeighbour(name) => unknown(codes::UNKNOWN_NEIGHBOUR, name),
            TableTextErrorKind::NotAdjacent { .. } => {
                Diagnostic::new(codes::NOT_ADJACENT, Severity::Error, message)
            }
            TableTextErrorKind::RuleBeforeSwitch => {
                Diagnostic::new(codes::RULE_BEFORE_SWITCH, Severity::Error, message)
                    .with_hint("add a `switch <name>` line above this rule")
            }
            _ => Diagnostic::new(codes::MALFORMED_RULE, Severity::Error, message),
        };
        diagnostics.push(d.with_span(e.span.offset_lines(line_offset)));
    }

    // Duplicate match keys, in file order. The TCAM is first-match, the
    // loader is last-write-wins: a conflicting duplicate means the text
    // and the hardware disagree about the rewrite.
    let mut seen: BTreeMap<(NodeId, Tag, PortId, PortId), (Span, Tag)> = BTreeMap::new();
    for sr in &parse.rules {
        let key = (sr.switch, sr.rule.tag, sr.rule.in_port, sr.rule.out_port);
        let span = sr.span.offset_lines(line_offset);
        if let Some((earlier, earlier_new_tag)) = seen.get(&key) {
            let kn = key_name(
                topo,
                sr.switch,
                sr.rule.tag,
                sr.rule.in_port,
                sr.rule.out_port,
            );
            let sw_name = &topo.node(sr.switch).name;
            if *earlier_new_tag == sr.rule.new_tag {
                diagnostics.push(
                    Diagnostic::new(
                        codes::IDENTICAL_DUPLICATE,
                        Severity::Warning,
                        format!(
                            "duplicate rule for {sw_name} {kn}: identical to line {}",
                            earlier.line
                        ),
                    )
                    .with_span(span)
                    .with_locus(format!("switch {sw_name}"))
                    .with_hint("delete one of the two lines"),
                );
            } else {
                diagnostics.push(
                    Diagnostic::new(
                        codes::CONFLICTING_DUPLICATE,
                        Severity::Error,
                        format!(
                            "conflicting duplicate for {sw_name} {kn}: line {} rewrites to \
                             tag {}, this line to tag {} — a first-match TCAM applies the \
                             earlier line and shadows this one, the table loader keeps this one",
                            earlier.line, earlier_new_tag.0, sr.rule.new_tag.0
                        ),
                    )
                    .with_span(span)
                    .with_locus(format!("switch {sw_name}"))
                    .with_hint(format!(
                        "delete one of the two lines so text and hardware agree \
                         (earlier definition at line {})",
                        earlier.line
                    )),
                );
            }
        }
        seen.insert(key, (span, sr.rule.new_tag));
    }

    let mut rules = RuleSet::new();
    let mut spans = SpanIndex::new();
    for sr in parse.rules {
        rules.set(sr.switch, sr.rule);
        spans.insert(
            (sr.switch, sr.rule.tag, sr.rule.in_port, sr.rule.out_port),
            sr.span.offset_lines(line_offset),
        );
    }
    TableLint {
        rules,
        spans,
        diagnostics,
    }
}

/// Semantic lints over an effective rule set: tag monotonicity (the
/// cheap per-edge half of Theorem 5.1 — no graph construction) and
/// reachability (rules no host-injected packet can ever hit).
pub fn lint_ruleset(topo: &Topology, rules: &RuleSet, spans: &SpanIndex) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Monotonicity: every rewrite must be non-decreasing. This is a
    // *local* check per rule — deliberately cheaper than the full
    // audit, which also proves per-tag acyclicity.
    for (sw, rule) in rules.iter() {
        if rule.new_tag < rule.tag {
            let kn = key_name(topo, sw, rule.tag, rule.in_port, rule.out_port);
            let sw_name = &topo.node(sw).name;
            let mut d = Diagnostic::new(
                codes::TAG_DECREASE,
                Severity::Error,
                format!(
                    "rule {kn} rewrites to tag {} — tag monotonicity (Theorem 5.1) \
                     requires the new tag to be >= {}",
                    rule.new_tag.0, rule.tag.0
                ),
            )
            .with_locus(format!("switch {sw_name}"))
            .with_hint(format!(
                "rewrite to a tag >= {}, or delete the rule",
                rule.tag.0
            ));
            if let Some(span) = spans.get(&(sw, rule.tag, rule.in_port, rule.out_port)) {
                d = d.with_span(*span);
            }
            out.push(d);
        }
    }
    // Reachability: forward closure from every host-facing ingress at
    // the initial tag (reusing the core closure graph). A rule whose
    // (ingress, tag) buffer is not in the closure is dead weight.
    let closure = rules.closure_graph(topo, []);
    for (sw, rule) in rules.iter() {
        let node = TaggedNode {
            port: GlobalPort::new(sw, rule.in_port),
            tag: rule.tag,
        };
        if !closure.contains_node(&node) {
            let kn = key_name(topo, sw, rule.tag, rule.in_port, rule.out_port);
            let sw_name = &topo.node(sw).name;
            let mut d = Diagnostic::new(
                codes::UNREACHABLE_RULE,
                Severity::Warning,
                format!(
                    "rule {kn} can never match: no packet injected at a host \
                     reaches {sw_name} ingress {} with tag {}",
                    port_name(topo, sw, rule.in_port),
                    rule.tag.0
                ),
            )
            .with_locus(format!("switch {sw_name}"))
            .with_hint("delete the rule, or add the upstream rules that feed it");
            if let Some(span) = spans.get(&(sw, rule.tag, rule.in_port, rule.out_port)) {
                d = d.with_span(*span);
            }
            out.push(d);
        }
    }
    out
}

/// Walks every expected lossless path through the rules and reports the
/// first hop where a path falls out of the lossless class — the silent
/// demotion the paper's lossy fallback (§4.2) only intends for
/// *unexpected* paths. One finding per distinct (switch, match key).
pub fn lint_elp_coverage(topo: &Topology, rules: &RuleSet, elp: &Elp) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(NodeId, Tag, PortId, PortId)> = BTreeSet::new();
    for path in elp.paths() {
        let nodes = path.nodes();
        let mut tag = Tag::INITIAL;
        for window in nodes.windows(3) {
            let [prev, cur, next] = [window[0], window[1], window[2]];
            let (Some(in_port), Some(out_port)) =
                (topo.port_towards(cur, prev), topo.port_towards(cur, next))
            else {
                break; // not adjacent — the path itself is invalid
            };
            match rules.decide(cur, tag, in_port, out_port) {
                TagDecision::Lossless(next_tag) => tag = next_tag,
                TagDecision::Lossy => {
                    if seen.insert((cur, tag, in_port, out_port)) {
                        let names: Vec<&str> =
                            nodes.iter().map(|n| topo.node(*n).name.as_str()).collect();
                        let sw_name = &topo.node(cur).name;
                        out.push(
                            Diagnostic::new(
                                codes::TAG_LEAK_TO_LOSSY,
                                Severity::Error,
                                format!(
                                    "expected lossless path {} is demoted to the lossy \
                                     class at {sw_name} {}",
                                    names.join("->"),
                                    key_name(topo, cur, tag, in_port, out_port)
                                ),
                            )
                            .with_locus(format!("switch {sw_name}"))
                            .with_hint(format!(
                                "add `rule {} {} {} <new-tag>` (new-tag >= {}) to switch {sw_name}",
                                tag.0,
                                port_name(topo, cur, in_port),
                                port_name(topo, cur, out_port),
                                tag.0
                            )),
                        );
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Lints a compiled/installed TCAM program: first-match shadowing
/// (an earlier masked entry fully covering a later one makes the later
/// entry dead) and a redundancy estimate against a fresh Joint
/// recompilation of each table's concrete meaning.
pub fn lint_program(topo: &Topology, program: &TcamProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut total = 0usize;
    let mut recompiled_total = 0usize;
    let mut worst: Option<(String, usize, usize)> = None;
    for sw in program.switches() {
        let Some(tcam) = program.tcam_for(sw) else {
            continue;
        };
        let sw_name = &topo.node(sw).name;
        let entries = tcam.entries();
        for (j, later) in entries.iter().enumerate() {
            if let Some(i) = (0..j).find(|&i| entries[i].covers(later)) {
                out.push(
                    Diagnostic::new(
                        codes::SHADOWED_ENTRY,
                        Severity::Error,
                        format!(
                            "TCAM entry {j} on {sw_name} (tag {} -> {}) is dead: entry {i} \
                             matches the same tag over a superset of its port bitmaps and \
                             wins under first-match",
                            later.tag.0, later.new_tag.0
                        ),
                    )
                    .with_locus(format!("{sw_name} entry {j} shadowed by entry {i}"))
                    .with_hint(format!("delete entry {j}, or move it above entry {i}")),
                );
            }
        }
        let num_ports = topo.node(sw).num_ports() as u16;
        let recompiled = Tcam::compile(&tcam.decompile(num_ports), Compression::Joint);
        total += entries.len();
        recompiled_total += recompiled.len();
        if recompiled.len() < entries.len() {
            let saved = entries.len() - recompiled.len();
            if worst.as_ref().is_none_or(|(_, _, w)| saved > *w) {
                worst = Some((sw_name.clone(), entries.len(), saved));
            }
        }
    }
    if recompiled_total < total {
        let (name, had, saved) = worst.unwrap_or_default();
        out.push(
            Diagnostic::new(
                codes::MERGEABLE_ENTRIES,
                Severity::Note,
                format!(
                    "tables admit a smaller encoding: {total} installed entries recompile \
                     to {recompiled_total} with Joint bitmap compression (largest saving \
                     on {name}: {had} -> {})",
                    had - saved
                ),
            )
            .with_locus(format!("switch {name}")),
        );
    }
    out
}

/// The redundancy estimate for an *uncompressed* table (a checkpoint
/// body): how many TCAM entries the text's one-rule-per-line encoding
/// costs versus a Joint compilation.
pub fn redundancy_note(topo: &Topology, rules: &RuleSet) -> Option<Diagnostic> {
    let uncompressed = rules.num_rules();
    let program = TcamProgram::compile(topo, rules, Compression::Joint);
    let compressed = program.total_entries();
    if compressed >= uncompressed {
        return None;
    }
    let (mut worst_name, mut worst_had, mut worst_saved) = (String::new(), 0usize, 0usize);
    for sw in rules.switches() {
        let had = rules.table_size(sw);
        let got = program.tcam_for(sw).map_or(0, Tcam::len);
        if had > got && had - got > worst_saved {
            (worst_name, worst_had, worst_saved) = (topo.node(sw).name.clone(), had, had - got);
        }
    }
    Some(
        Diagnostic::new(
            codes::MERGEABLE_ENTRIES,
            Severity::Note,
            format!(
                "table encodes {uncompressed} rules one-per-entry; Joint bitmap \
                 compression fits them in {compressed} TCAM entries (largest saving on \
                 {worst_name}: {worst_had} -> {})",
                worst_had - worst_saved
            ),
        )
        .with_locus(format!("switch {worst_name}")),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_core::clos::clos_tagging;
    use tagger_core::tcam::{PortSet, TcamEntry};
    use tagger_core::SwitchRule;
    use tagger_topo::ClosConfig;

    fn small() -> Topology {
        ClosConfig::small().build()
    }

    #[test]
    fn clean_clos_tagging_lints_clean() {
        let topo = small();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = tagging.rules().to_table_text(&topo);
        let table = lint_table_text(&topo, &text, 0);
        assert!(table.diagnostics.is_empty(), "{:?}", table.diagnostics);
        assert_eq!(&table.rules, tagging.rules());
        let semantic = lint_ruleset(&topo, &table.rules, &table.spans);
        assert!(
            semantic.iter().all(|d| d.severity != Severity::Error),
            "{semantic:?}"
        );
        // And the ELP the tagging was built for is fully covered.
        let elp = Elp::updown_with_bounces(&topo, 1);
        assert!(lint_elp_coverage(&topo, &table.rules, &elp).is_empty());
    }

    #[test]
    fn conflicting_duplicates_are_errors_identical_are_warnings() {
        let topo = small();
        let text = "switch L1\nrule 1 T1 S1 1\nrule 1 T1 S1 2\nrule 1 T2 S1 1\nrule 1 T2 S1 1\n";
        let table = lint_table_text(&topo, text, 0);
        let conflict: Vec<_> = table
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::CONFLICTING_DUPLICATE)
            .collect();
        assert_eq!(conflict.len(), 1);
        assert_eq!(conflict[0].severity, Severity::Error);
        assert_eq!(conflict[0].span.unwrap().line, 3);
        assert!(conflict[0].message.contains("line 2"));
        let dup: Vec<_> = table
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::IDENTICAL_DUPLICATE)
            .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].severity, Severity::Warning);
        assert_eq!(dup[0].span.unwrap().line, 5);
        // Last write wins in the effective rules.
        assert_eq!(table.rules.num_rules(), 2);
    }

    #[test]
    fn line_offset_maps_to_file_coordinates() {
        let topo = small();
        let table = lint_table_text(&topo, "switch NOPE\n", 10);
        assert_eq!(table.diagnostics.len(), 1);
        assert_eq!(table.diagnostics[0].code, codes::UNKNOWN_SWITCH);
        assert_eq!(table.diagnostics[0].span.unwrap().line, 11);
    }

    #[test]
    fn unknown_names_get_did_you_mean_hints() {
        let topo = small();
        let table = lint_table_text(&topo, "switch L9\nrule 1 T1 S1 1\n", 0);
        let d = &table.diagnostics[0];
        assert_eq!(d.code, codes::UNKNOWN_SWITCH);
        let hint = d.hint.as_ref().unwrap();
        assert!(hint.contains("did you mean"), "{hint}");

        let table = lint_table_text(&topo, "switch L1\nrule 1 T9 S1 1\n", 0);
        let d = &table.diagnostics[0];
        assert_eq!(d.code, codes::UNKNOWN_NEIGHBOUR);
        assert!(d.hint.is_some());
    }

    #[test]
    fn tag_decreases_and_unreachable_rules_are_found() {
        let topo = small();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let mut rules = tagging.rules().clone();
        let l1 = topo.expect_node("L1");
        let in_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let out_s2 = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
        rules.set(
            l1,
            SwitchRule {
                tag: Tag(2),
                in_port: in_s1,
                out_port: out_s2,
                new_tag: Tag(1),
            },
        );
        let diags = lint_ruleset(&topo, &rules, &SpanIndex::new());
        let decreases: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::TAG_DECREASE)
            .collect();
        assert_eq!(decreases.len(), 1);
        assert_eq!(decreases[0].severity, Severity::Error);
        assert_eq!(decreases[0].locus.as_deref(), Some("switch L1"));

        // A rule at a tag nothing ever produces is unreachable.
        let mut rules = tagging.rules().clone();
        rules.set(
            l1,
            SwitchRule {
                tag: Tag(9),
                in_port: in_s1,
                out_port: out_s2,
                new_tag: Tag(9),
            },
        );
        let diags = lint_ruleset(&topo, &rules, &SpanIndex::new());
        assert!(diags
            .iter()
            .any(|d| d.code == codes::UNREACHABLE_RULE && d.severity == Severity::Warning));
    }

    #[test]
    fn elp_leak_is_reported_once_per_hop() {
        let topo = small();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let mut rules = tagging.rules().clone();
        // Drop every rule on T1: any ELP through T1 leaks there.
        let t1 = topo.expect_node("T1");
        for r in rules.rules_for(t1) {
            rules.remove(t1, r);
        }
        let elp = Elp::updown(&topo);
        let diags = lint_elp_coverage(&topo, &rules, &elp);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == codes::TAG_LEAK_TO_LOSSY));
        // Deduplicated by (switch, match key): far fewer than paths.
        let keys: BTreeSet<_> = diags.iter().map(|d| d.message.clone()).collect();
        assert_eq!(keys.len(), diags.len());
        assert!(diags[0].hint.as_ref().unwrap().starts_with("add `rule"));
    }

    #[test]
    fn shadowed_tcam_entries_are_found() {
        let topo = small();
        let l1 = topo.expect_node("L1");
        let ports: Vec<PortId> = (0..4).map(PortId).collect();
        let wide = TcamEntry {
            tag: Tag(1),
            in_ports: ports.iter().copied().collect(),
            out_ports: ports.iter().copied().collect(),
            new_tag: Tag(1),
        };
        let narrow = TcamEntry {
            tag: Tag(1),
            in_ports: PortSet::single(ports[0]),
            out_ports: PortSet::single(ports[1]),
            new_tag: Tag(2),
        };
        let mut program = TcamProgram::default();
        program.install(l1, Tcam::from_entries(vec![wide, narrow]));
        let diags = lint_program(&topo, &program);
        let shadows: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::SHADOWED_ENTRY)
            .collect();
        assert_eq!(shadows.len(), 1);
        assert!(shadows[0].locus.as_deref().unwrap().contains("entry 1"));

        // A compiled program never shadows itself.
        let tagging = clos_tagging(&topo, 1).unwrap();
        let compiled = TcamProgram::compile(&topo, tagging.rules(), Compression::Joint);
        assert!(lint_program(&topo, &compiled)
            .iter()
            .all(|d| d.code != codes::SHADOWED_ENTRY));
    }

    #[test]
    fn redundancy_note_estimates_savings() {
        let topo = small();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let note = redundancy_note(&topo, tagging.rules()).unwrap();
        assert_eq!(note.code, codes::MERGEABLE_ENTRIES);
        assert_eq!(note.severity, Severity::Note);
        assert!(note.message.contains("Joint"));
    }
}
