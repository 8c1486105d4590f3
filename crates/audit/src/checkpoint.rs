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
//! The table body is exactly [`RuleSet::to_table_text`], so a checkpoint
//! round-trips through [`render`] / [`parse`] losslessly.

use std::fmt;
use tagger_core::{RuleSet, Span};
use tagger_topo::{ClosConfig, Topology};

/// A parsed checkpoint: rebuilt topology plus the tables to audit.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The Clos dimensions the topology was rebuilt from.
    pub config: ClosConfig,
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
pub fn render(config: &ClosConfig, epoch: u64, topo: &Topology, rules: &RuleSet) -> String {
    format!(
        "# tagger-audit checkpoint v1\n\
         topo clos pods={} leaves_per_pod={} tors_per_pod={} spines={} hosts_per_tor={}\n\
         epoch {epoch}\n{}",
        config.pods,
        config.leaves_per_pod,
        config.tors_per_pod,
        config.spines,
        config.hosts_per_tor,
        rules.to_table_text(topo)
    )
}

/// The parsed checkpoint header: everything above the table body.
#[derive(Clone, Debug)]
pub struct CheckpointHeader {
    /// The Clos dimensions the topology is rebuilt from.
    pub config: ClosConfig,
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
    let mut config: Option<ClosConfig> = None;
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
        if let Some(rest) = line.strip_prefix("topo ") {
            config = Some(parse_topo(rest, lineno)?);
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
    let config = config.ok_or_else(|| CheckpointError::at(0, "missing `topo clos ...` header"))?;
    let epoch = epoch.ok_or_else(|| CheckpointError::at(0, "missing `epoch N` header"))?;
    Ok(CheckpointHeader {
        config,
        epoch,
        body_line,
        body,
    })
}

/// Parses a checkpoint, rebuilding the topology from the `topo clos`
/// header and the tables from the body.
pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
    let header = parse_header(text)?;
    let topo = header.config.build();
    let rules = RuleSet::from_table_text(&topo, &header.body).map_err(|e| {
        let span = e.span.offset_lines(header.body_line.saturating_sub(1));
        CheckpointError {
            span,
            why: format!("table body: col {}: {}", span.col, e.kind),
        }
    })?;
    Ok(Checkpoint {
        config: header.config,
        epoch: header.epoch,
        topo,
        rules,
        body_line: header.body_line,
    })
}

fn parse_topo(rest: &str, line: usize) -> Result<ClosConfig, CheckpointError> {
    let mut parts = rest.split_whitespace();
    let kind = parts.next().unwrap_or_default();
    if kind != "clos" {
        return Err(CheckpointError::at(
            line,
            format!("only `topo clos` checkpoints are supported, got {kind:?}"),
        ));
    }
    let mut config = ClosConfig {
        pods: 0,
        leaves_per_pod: 0,
        tors_per_pod: 0,
        spines: 0,
        hosts_per_tor: 0,
    };
    for kv in parts {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| CheckpointError::at(line, format!("expected key=value, got {kv:?}")))?;
        let value: usize = value.parse().map_err(|_| {
            CheckpointError::at(line, format!("{key} wants a number, got {value:?}"))
        })?;
        match key {
            "pods" => config.pods = value,
            "leaves_per_pod" => config.leaves_per_pod = value,
            "tors_per_pod" => config.tors_per_pod = value,
            "spines" => config.spines = value,
            "hosts_per_tor" => config.hosts_per_tor = value,
            other => {
                return Err(CheckpointError::at(
                    line,
                    format!("unknown clos dimension {other:?}"),
                ))
            }
        }
    }
    if config.pods == 0 || config.leaves_per_pod == 0 || config.tors_per_pod == 0 {
        return Err(CheckpointError::at(
            line,
            "clos dimensions must all be non-zero",
        ));
    }
    Ok(config)
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

    #[test]
    fn checkpoints_round_trip() {
        let config = ClosConfig::small();
        let topo = config.build();
        let tagging = clos_tagging(&topo, 1).unwrap();
        let text = render(&config, 42, &topo, tagging.rules());
        let ckpt = parse(&text).unwrap();
        assert_eq!(ckpt.epoch, 42);
        assert_eq!(ckpt.config, config);
        assert_eq!(ckpt.rules.num_rules(), tagging.rules().num_rules());
        // Re-render: byte-identical (stable fixture format).
        assert_eq!(render(&ckpt.config, 42, &ckpt.topo, &ckpt.rules), text);
    }

    #[test]
    fn malformed_checkpoints_are_rejected_with_line_numbers() {
        assert!(parse("").is_err());
        let e = parse("topo clos pods=2 leaves_per_pod=x\n").unwrap_err();
        assert_eq!(e.span, Span::line_start(1));
        assert_eq!(
            e.to_string(),
            "checkpoint line 1: leaves_per_pod wants a number, got \"x\""
        );
        let e = parse("epoch 1\n").unwrap_err();
        assert_eq!(e.span, Span::whole_file());
        assert_eq!(e.to_string(), "checkpoint: missing `topo clos ...` header");
        // A table-body error keeps the table parser's token span, in
        // file coordinates.
        let e = parse("topo clos pods=1 leaves_per_pod=1 tors_per_pod=1 spines=1 hosts_per_tor=1\nepoch 1\nswitch NOPE\n").unwrap_err();
        assert_eq!(e.span, Span::new(3, 8, 4));
        assert_eq!(
            e.to_string(),
            "checkpoint line 3: table body: col 8: unknown switch \"NOPE\""
        );
        let e = parse("topo mesh\nepoch 1\n").unwrap_err();
        assert!(e.why.contains("topo clos"));
    }
}
