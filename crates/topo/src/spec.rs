//! A plain-text topology interchange format.
//!
//! Lets operators feed their own fabrics to the planning tools without
//! pulling in a serialization stack. One declaration per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! node <name> host
//! node <name> switch <tor|leaf|spine|flat|level:N>
//! link <name> <name> [capacity_bps] [latency_ns]
//! priorities <N>          # declared lossless-priority budget (optional)
//! ```
//!
//! Ports are allocated in link order, exactly like the programmatic
//! builders, so a spec round-trips to an identical topology.
//!
//! Errors carry full source coordinates (line, column, token length)
//! plus a fix-it hint where one is known — unknown node names get
//! nearest-name did-you-mean suggestions — so downstream tools
//! (`tagger-plan --topo 'file PATH'`, `tagger-lint`) can render compiler-style
//! diagnostics pointing at the offending token.

use crate::span::{spanned_words, Span};
use crate::{did_you_mean, nearest_names, Layer, NodeKind, Topology};
use std::fmt;

/// A parse error, spanned to the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending token: 1-based line and byte column, byte length.
    /// A line start when no single token is to blame (a missing
    /// argument), [`Span::whole_file`] for whole-file problems.
    pub span: Span,
    /// What went wrong.
    pub message: String,
    /// A fix-it suggestion, when one is known (did-you-mean for node
    /// names, the accepted grammar for bad directives).
    pub hint: Option<String>,
}

impl SpecError {
    pub(crate) fn new(span: Span, message: impl Into<String>) -> SpecError {
        SpecError {
            span,
            message: message.into(),
            hint: None,
        }
    }

    pub(crate) fn with_hint(mut self, hint: impl Into<String>) -> SpecError {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Span { line, col, .. } = self.span;
        if col > 1 {
            write!(f, "line {line}:{col}: {}", self.message)?;
        } else {
            write!(f, "line {line}: {}", self.message)?;
        }
        if let Some(hint) = &self.hint {
            write!(f, " ({hint})")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

fn unknown_node_err(topo: &Topology, span: Span, name: &str) -> SpecError {
    SpecError::new(span, format!("unknown node {name:?}")).with_hint(
        did_you_mean(&nearest_names(topo, name))
            .unwrap_or_else(|| "declare the node with a `node` line before linking it".into()),
    )
}

fn layer_to_text(layer: Layer) -> String {
    match layer {
        Layer::Host => "host".into(),
        Layer::Tor => "tor".into(),
        Layer::Leaf => "leaf".into(),
        Layer::Spine => "spine".into(),
        Layer::Level(n) => format!("level:{n}"),
        Layer::Flat => "flat".into(),
    }
}

fn layer_from_text(s: &str, span: Span) -> Result<Layer, SpecError> {
    match s {
        "tor" => Ok(Layer::Tor),
        "leaf" => Ok(Layer::Leaf),
        "spine" => Ok(Layer::Spine),
        "flat" => Ok(Layer::Flat),
        other => {
            if let Some(n) = other.strip_prefix("level:") {
                n.parse::<u8>()
                    .map(Layer::Level)
                    .map_err(|_| SpecError::new(span, format!("bad level in {other:?}")))
            } else {
                Err(SpecError::new(span, format!("unknown layer {other:?}"))
                    .with_hint("layers: tor, leaf, spine, flat, level:N"))
            }
        }
    }
}

/// A parsed spec file: the topology plus the declarations that describe
/// the deployment rather than the wiring.
#[derive(Clone, Debug)]
pub struct SpecFile {
    /// The fabric.
    pub topo: Topology,
    /// Declared lossless-priority budget (`priorities N`), if any — the
    /// hardware ceiling the feasibility oracle decides against.
    pub priorities: Option<u16>,
    /// Line of the `priorities` declaration (0 when undeclared).
    pub priorities_line: usize,
    /// Source line of each `link` declaration, in link-id order — lets
    /// diagnostics about a dependency cycle span the links that close it.
    pub link_lines: Vec<usize>,
}

impl Topology {
    /// Parses the plain-text topology format (`node ... host`,
    /// `node ... switch <layer>`, `link <a> <b> [capacity] [latency]`;
    /// `#` comments), discarding deployment declarations. See
    /// [`Topology::parse_spec`] for the full result.
    pub fn from_spec_text(text: &str) -> Result<Topology, SpecError> {
        Ok(Topology::parse_spec(text)?.topo)
    }

    /// Parses the plain-text topology format, keeping deployment
    /// declarations (`priorities N`) and per-link source lines.
    pub fn parse_spec(text: &str) -> Result<SpecFile, SpecError> {
        let mut topo = Topology::new();
        let mut priorities: Option<u16> = None;
        let mut priorities_line = 0usize;
        let mut link_lines = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            // Trailing comments are stripped; columns stay those of `raw`.
            let words: Vec<(usize, &str)> =
                spanned_words(raw.split('#').next().unwrap_or("")).collect();
            let Some(&(_, directive)) = words.first() else {
                continue;
            };
            let fields: Vec<&str> = words.iter().map(|&(_, w)| w).collect();
            let at = |field: usize| {
                words
                    .get(field)
                    .map_or(Span::line_start(line), |&(col, w)| {
                        Span::new(line, col, w.len())
                    })
            };
            match directive {
                "node" => match fields.as_slice() {
                    ["node", name, "host"] => {
                        if topo.node_by_name(name).is_some() {
                            return Err(SpecError::new(at(1), format!("duplicate node {name:?}")));
                        }
                        topo.add_host(*name);
                    }
                    ["node", name, "switch", layer] => {
                        if topo.node_by_name(name).is_some() {
                            return Err(SpecError::new(at(1), format!("duplicate node {name:?}")));
                        }
                        topo.add_switch(*name, layer_from_text(layer, at(3))?);
                    }
                    _ => {
                        return Err(SpecError::new(at(0), "malformed node declaration")
                            .with_hint("write `node <name> host` or `node <name> switch <layer>`"))
                    }
                },
                "link" => {
                    if fields.len() < 3 || fields.len() > 5 {
                        return Err(SpecError::new(at(0), "malformed link declaration")
                            .with_hint("write `link <a> <b> [capacity_bps] [latency_ns]`"));
                    }
                    let a = topo
                        .node_by_name(fields[1])
                        .ok_or_else(|| unknown_node_err(&topo, at(1), fields[1]))?;
                    let b = topo
                        .node_by_name(fields[2])
                        .ok_or_else(|| unknown_node_err(&topo, at(2), fields[2]))?;
                    if a == b {
                        return Err(SpecError::new(at(2), "self-links are not allowed"));
                    }
                    let capacity = match fields.get(3) {
                        Some(c) => c
                            .parse()
                            .map_err(|_| SpecError::new(at(3), format!("bad capacity {c:?}")))?,
                        None => crate::topology::DEFAULT_CAPACITY_BPS,
                    };
                    let latency = match fields.get(4) {
                        Some(l) => l
                            .parse()
                            .map_err(|_| SpecError::new(at(4), format!("bad latency {l:?}")))?,
                        None => crate::topology::DEFAULT_LATENCY_NS,
                    };
                    topo.connect_with(a, b, capacity, latency);
                    link_lines.push(line);
                }
                "priorities" => {
                    if priorities.is_some() {
                        return Err(SpecError::new(at(0), "duplicate `priorities` declaration")
                            .with_hint(format!("first declared on line {priorities_line}")));
                    }
                    let n = match fields.get(1) {
                        Some(v) => v.parse::<u16>().ok().filter(|&n| (1..=64).contains(&n)),
                        None => None,
                    };
                    match n {
                        Some(n) => {
                            priorities = Some(n);
                            priorities_line = line;
                        }
                        None => {
                            return Err(SpecError::new(at(1), "bad priority budget")
                                .with_hint("write `priorities <N>` with N in 1..=64"))
                        }
                    }
                }
                other => {
                    return Err(
                        SpecError::new(at(0), format!("unknown directive {other:?}"))
                            .with_hint("directives: node, link, priorities"),
                    )
                }
            }
        }
        topo.check_consistency().map_err(|m| {
            SpecError::new(Span::whole_file(), format!("inconsistent topology: {m}"))
        })?;
        Ok(SpecFile {
            topo,
            priorities,
            priorities_line,
            link_lines,
        })
    }

    /// Renders the topology in the text format, suitable for
    /// [`Topology::from_spec_text`]. Nodes come first (insertion order),
    /// then links (id order), so the round trip reproduces identical
    /// node ids and port numbering. Deployment declarations
    /// (`priorities`) are not part of the wiring and are not emitted.
    pub fn to_spec_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for id in self.node_ids() {
            let n = self.node(id);
            match n.kind {
                NodeKind::Host => {
                    let _ = writeln!(out, "node {} host", n.name);
                }
                NodeKind::Switch => {
                    let _ = writeln!(out, "node {} switch {}", n.name, layer_to_text(n.layer));
                }
            }
        }
        for l in self.link_ids() {
            let link = self.link(l);
            let _ = writeln!(
                out,
                "link {} {} {} {}",
                self.node(link.a.node).name,
                self.node(link.b.node).name,
                link.capacity_bps,
                link.latency_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::ClosConfig;

    #[test]
    fn round_trip_preserves_everything() {
        let orig = ClosConfig::small().build();
        let text = orig.to_spec_text();
        let parsed = Topology::from_spec_text(&text).unwrap();
        assert_eq!(parsed.num_nodes(), orig.num_nodes());
        assert_eq!(parsed.num_links(), orig.num_links());
        for id in orig.node_ids() {
            let a = orig.node(id);
            let b = parsed.node(id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.layer, b.layer);
            assert_eq!(a.num_ports(), b.num_ports());
        }
        for l in orig.link_ids() {
            assert_eq!(orig.link(l).a, parsed.link(l).a);
            assert_eq!(orig.link(l).b, parsed.link(l).b);
            assert_eq!(orig.link(l).capacity_bps, parsed.link(l).capacity_bps);
        }
    }

    #[test]
    fn parses_minimal_spec_with_defaults() {
        let text = "
            # tiny fabric
            node S switch spine
            node T switch tor
            node H host

            link T S
            link H T 10000000000 500
        ";
        let topo = Topology::from_spec_text(text).unwrap();
        assert_eq!(topo.num_switches(), 2);
        assert_eq!(topo.num_hosts(), 1);
        let l = topo
            .link_between(topo.expect_node("H"), topo.expect_node("T"))
            .unwrap();
        assert_eq!(topo.link(l).capacity_bps, 10_000_000_000);
        assert_eq!(topo.link(l).latency_ns, 500);
        let l0 = topo
            .link_between(topo.expect_node("T"), topo.expect_node("S"))
            .unwrap();
        assert_eq!(topo.link(l0).capacity_bps, 40_000_000_000);
    }

    #[test]
    fn inline_comments_are_stripped() {
        let text = "node A host # the server\nnode B switch tor\nlink A B # access";
        let topo = Topology::from_spec_text(text).unwrap();
        assert_eq!(topo.num_nodes(), 2);
        assert_eq!(topo.num_links(), 1);
    }

    #[test]
    fn level_layers_round_trip() {
        let text = "node B switch level:2\nnode H host\nlink H B";
        let topo = Topology::from_spec_text(text).unwrap();
        assert_eq!(topo.node(topo.expect_node("B")).layer, Layer::Level(2));
        let again = Topology::from_spec_text(&topo.to_spec_text()).unwrap();
        assert_eq!(again.node(again.expect_node("B")).layer, Layer::Level(2));
    }

    #[test]
    fn good_errors() {
        for (text, needle) in [
            ("node A switch nowhere", "unknown layer"),
            ("link A B", "unknown node"),
            ("node A host\nnode A host", "duplicate node"),
            ("frobnicate", "unknown directive"),
            ("node A host\nlink A A", "self-links"),
            ("node A host\nnode B host\nlink A B pig", "bad capacity"),
            ("priorities 0", "bad priority budget"),
            ("priorities 2\npriorities 3", "duplicate `priorities`"),
        ] {
            let e = Topology::from_spec_text(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text:?}: expected {needle:?} in {e}"
            );
        }
    }

    #[test]
    fn errors_carry_token_coordinates() {
        // The bad layer is the 4th token on line 2; columns are 1-based.
        let e = Topology::from_spec_text("node A host\nnode B switch nowhere\n").unwrap_err();
        assert_eq!(e.span, Span::new(2, 15, "nowhere".len()));
        // Unknown link endpoint: the 2nd token.
        let e = Topology::from_spec_text("node A host\nlink A Bx\n").unwrap_err();
        assert_eq!(e.span, Span::new(2, 8, 2));
        // Bad capacity: the 4th token.
        let e = Topology::from_spec_text("node A host\nnode B host\nlink A B pig\n").unwrap_err();
        assert_eq!(e.span, Span::new(3, 10, 3));
        // A missing argument points at the line; a whole-file problem
        // at no line.
        let e = Topology::from_spec_text("priorities\n").unwrap_err();
        assert_eq!(e.span, Span::line_start(1));
        assert_eq!(
            e.to_string(),
            "line 1: bad priority budget (write `priorities <N>` with N in 1..=64)"
        );
    }

    #[test]
    fn error_columns_are_byte_columns() {
        // `Ä` is two bytes: the column is the byte column the shared
        // tokenizer reports, not the character column.
        let text = "node Ä switch nowhere";
        let e = Topology::from_spec_text(text).unwrap_err();
        let (col, word) = spanned_words(text).nth(3).unwrap();
        assert_eq!(word, "nowhere");
        assert_eq!(e.span, Span::new(1, col, word.len()));
        assert_eq!(col, 16);
        assert_eq!(
            e.to_string(),
            "line 1:16: unknown layer \"nowhere\" (layers: tor, leaf, spine, flat, level:N)"
        );
    }

    #[test]
    fn unknown_node_gets_did_you_mean_hint() {
        let e = Topology::from_spec_text(
            "node Spine1 switch spine\nnode Tor1 switch tor\nlink Tor1 Spina1\n",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown node"), "{e}");
        let hint = e.hint.unwrap();
        assert!(hint.contains("Spine1"), "hint was {hint:?}");
    }

    #[test]
    fn priorities_declaration_is_parsed_with_its_line() {
        let spec = Topology::parse_spec(
            "# ring\nnode A host\nnode B switch flat\npriorities 2\nlink A B\n",
        )
        .unwrap();
        assert_eq!(spec.priorities, Some(2));
        assert_eq!(spec.priorities_line, 4);
        assert_eq!(spec.link_lines, vec![5]);
        // from_spec_text ignores the declaration but still accepts it.
        let topo = Topology::from_spec_text("node A host\nnode B switch flat\nlink A B\n").unwrap();
        assert_eq!(topo.num_links(), 1);
    }
}
