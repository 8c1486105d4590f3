//! Offline audit checkpoints.
//!
//! A checkpoint is the auditor's offline input: enough to rebuild the
//! topology and the committed tables without a live controller. The
//! format is deliberately line-oriented plain text so fixtures can be
//! reviewed (and corrupted!) by hand:
//!
//! ```text
//! # tagger-audit checkpoint v1
//! topo clos pods=2 leaves_per_pod=2 tors_per_pod=2 spines=3 hosts_per_tor=2
//! epoch 7
//! switch S1
//! rule 1 L1 L3 1
//! ...
//! ```
//!
//! The `topo` line names the fabric with a [`TopoSpec`] in any family
//! but `file` (a checkpoint must rebuild its topology alone), written in
//! its canonical form. The table body is exactly
//! [`RuleSet::to_table_text`], so a checkpoint round-trips through
//! [`render`] / [`parse`] losslessly.

use std::fmt;
use tagger_core::span::spanned_words;
use tagger_core::{RuleSet, Span};
use tagger_topo::{Family, SpecError, TopoSpec, Topology};

/// A parsed checkpoint: rebuilt topology plus the tables to audit.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The fabric spec the topology was rebuilt from.
    pub spec: TopoSpec,
    /// Epoch the tables were committed at.
    pub epoch: u64,
    /// The rebuilt fabric.
    pub topo: Topology,
    /// The committed per-switch tables.
    pub rules: RuleSet,
    /// 1-based file line where the table body starts (the line after
    /// `epoch`) — lets tools map table-text spans to file coordinates.
    pub body_line: usize,
}

/// Serializes a checkpoint.
pub fn render(spec: &TopoSpec, epoch: u64, topo: &Topology, rules: &RuleSet) -> String {
    format!(
        "# tagger-audit checkpoint v1\ntopo {spec}\nepoch {epoch}\n{}",
        rules.to_table_text(topo)
    )
}

/// The parsed checkpoint header: everything above the table body.
#[derive(Clone, Debug)]
pub struct CheckpointHeader {
    /// The fabric spec the topology is rebuilt from.
    pub spec: TopoSpec,
    /// Epoch the tables were committed at.
    pub epoch: u64,
    /// 1-based file line where the table body starts.
    pub body_line: usize,
    /// The table body text, verbatim.
    pub body: String,
}

/// Parses just the checkpoint header, leaving the table body untouched —
/// the entry point for tools (like `tagger-lint`) that want to run their
/// own, more forgiving parse over the body.
pub fn parse_header(text: &str) -> Result<CheckpointHeader, CheckpointError> {
    let mut spec: Option<TopoSpec> = None;
    let mut epoch: Option<u64> = None;
    let mut body = String::new();
    let mut body_started = false;
    let mut body_line = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if body_started {
            body.push_str(raw);
            body.push('\n');
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<(usize, &str)> = spanned_words(raw).collect();
        if words[0].1 == "topo" {
            let parsed = TopoSpec::parse_words(lineno, &words[1..], |w| w.parse().ok())?;
            if let Family::File(_) = parsed.family {
                return Err(CheckpointError {
                    span: parsed.span,
                    why: "a checkpoint rebuilds its topology alone, so `file` is not allowed"
                        .into(),
                });
            }
            spec = Some(parsed);
        } else if let Some(rest) = line.strip_prefix("epoch ") {
            epoch = Some(rest.trim().parse().map_err(|_| {
                CheckpointError::at(lineno, format!("epoch wants a number, got {rest:?}"))
            })?);
            body_started = true;
            body_line = lineno + 1;
        } else {
            return Err(CheckpointError::at(
                lineno,
                format!("expected `topo` or `epoch`, got {line:?}"),
            ));
        }
    }
    let spec = spec.ok_or_else(|| CheckpointError::at(0, "missing `topo <spec>` header"))?;
    let epoch = epoch.ok_or_else(|| CheckpointError::at(0, "missing `epoch N` header"))?;
    Ok(CheckpointHeader {
        spec,
        epoch,
        body_line,
        body,
    })
}

/// Parses a checkpoint, rebuilding the topology from the `topo` header
/// and the tables from the body.
pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
    let header = parse_header(text)?;
    let topo = header.spec.build()?;
    let rules = RuleSet::from_table_text(&topo, &header.body).map_err(|e| {
        let span = e.span.offset_lines(header.body_line.saturating_sub(1));
        CheckpointError {
            span,
            why: format!("table body: col {}: {}", span.col, e.kind),
        }
    })?;
    Ok(Checkpoint {
        spec: header.spec,
        epoch: header.epoch,
        topo,
        rules,
        body_line: header.body_line,
    })
}

/// A malformed checkpoint, spanned to the offending line (or, in the
/// table body, token).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    /// Where it went wrong: a line start for header problems, the
    /// token for table-body ones, [`Span::whole_file`] when no single
    /// line is to blame.
    pub span: Span,
    /// What went wrong.
    pub why: String,
}

impl CheckpointError {
    /// A whole-line error on 1-based `line` (0 = the whole file).
    fn at(line: usize, why: impl Into<String>) -> CheckpointError {
        let span = if line == 0 {
            Span::whole_file()
        } else {
            Span::line_start(line)
        };
        CheckpointError {
            span,
            why: why.into(),
        }
    }
}

impl From<SpecError> for CheckpointError {
    /// A `topo` header the fabric spec refuses, at the word to blame.
    fn from(e: SpecError) -> Self {
        let why = match e.hint {
            Some(hint) => format!("{} ({hint})", e.message),
            None => e.message,
        };
        CheckpointError { span: e.span, why }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_whole_file() {
            write!(f, "checkpoint: {}", self.why)
        } else {
            write!(f, "checkpoint line {}: {}", self.span.line, self.why)
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_core::clos::clos_tagging;
    use tagger_topo::ClosConfig;

    #[test]
    fn checkpoints_round_trip() {
        let spec = TopoSpec::from(ClosConfig::small());
        let topo = spec.build().unwrap();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = render(&spec, 42, &topo, tagging.rules());
        let ckpt = parse(&text).unwrap();
        assert_eq!(ckpt.epoch, 42);
        assert_eq!(ckpt.spec.to_string(), spec.to_string());
        assert_eq!(ckpt.rules.num_rules(), tagging.rules().num_rules());
        // Re-render: byte-identical (stable fixture format).
        assert_eq!(render(&ckpt.spec, 42, &ckpt.topo, &ckpt.rules), text);
    }

    #[test]
    fn malformed_checkpoints_are_rejected_with_line_numbers() {
        assert!(parse("").is_err());
        let e = parse("topo clos pods=2 leaves_per_pod=x\n").unwrap_err();
        assert_eq!(e.span, Span::new(1, 18, 16));
        assert_eq!(
            e.to_string(),
            "checkpoint line 1: leaves_per_pod wants a number, got \"x\""
        );
        let e = parse("epoch 1\n").unwrap_err();
        assert_eq!(e.span, Span::whole_file());
        assert_eq!(e.to_string(), "checkpoint: missing `topo <spec>` header");
        // A table-body error keeps the table parser's token span, in
        // file coordinates.
        let e = parse("topo clos pods=1 leaves_per_pod=1 tors_per_pod=1 spines=1 hosts_per_tor=1\nepoch 1\nswitch NOPE\n").unwrap_err();
        assert_eq!(e.span, Span::new(3, 8, 4));
        assert_eq!(
            e.to_string(),
            "checkpoint line 3: table body: col 8: unknown switch \"NOPE\""
        );
        let e = parse("topo mesh\nepoch 1\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "checkpoint line 1: unknown fabric family \"mesh\" \
             (fabric families: clos, fattree, jellyfish, bcube, file)"
        );
        // A dimension the builder cannot take is refused at its word.
        let e = parse("topo clos spines=0\nepoch 1\n").unwrap_err();
        assert_eq!(e.span, Span::new(1, 11, 8));
        assert_eq!(
            e.to_string(),
            "checkpoint line 1: spines=0: a Clos dimension must be at least 1"
        );
        let e = parse("# header\ntopo file ring.topo\nepoch 1\n").unwrap_err();
        assert_eq!(e.span, Span::new(2, 6, 4));
        assert!(e.why.contains("`file` is not allowed"), "{e}");
    }

    #[test]
    fn every_family_but_file_checkpoints() {
        for text in [
            "fattree 4",
            "jellyfish switches=16 ports=6 seed=7",
            "bcube 2 1",
            "clos hosts 32",
        ] {
            let spec: TopoSpec = text.parse().unwrap();
            let topo = spec.build().unwrap();
            let rendered = render(&spec, 3, &topo, &RuleSet::default());
            let ckpt = parse(&rendered).unwrap();
            assert_eq!(ckpt.spec.to_string(), text);
            assert_eq!(ckpt.topo.to_spec_text(), topo.to_spec_text());
        }
    }
}
