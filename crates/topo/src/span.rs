//! Source spans for text artifacts.
//!
//! Every Tagger input that arrives as text — topology specs, rule-table
//! dumps, checkpoints, control-plane traces, scenarios — reports parse
//! and lint findings with a [`Span`]: the 1-based line and byte column
//! (and byte length) of the offending token. The span type and the
//! tokenizer that produces its columns live here, at the bottom of the
//! crate stack, so the spec parser in this crate, the parsers in
//! `tagger-core`, `tagger-ctrl`, `tagger-audit` and `tagger-scenario`
//! and the diagnostics in `tagger-lint` all speak the same coordinates.
//! `tagger-core` re-exports this module as `tagger_core::span`.

use std::fmt;

/// A half-open byte range within one line of a text artifact.
///
/// Lines and columns are 1-based (editor convention); `len` is the byte
/// length of the highlighted token, 0 when the span points at a position
/// rather than a token (e.g. "something is missing here").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line number. 0 means "the whole file" (no single line is
    /// to blame — a missing header, an empty input).
    pub line: usize,
    /// 1-based byte column within the line. 0 when `line` is 0.
    pub col: usize,
    /// Byte length of the highlighted token (0 = position only).
    pub len: usize,
}

impl Span {
    /// A span covering one token.
    pub fn new(line: usize, col: usize, len: usize) -> Span {
        Span { line, col, len }
    }

    /// A span pointing at the start of a line (whole-line findings).
    pub fn line_start(line: usize) -> Span {
        Span {
            line,
            col: 1,
            len: 0,
        }
    }

    /// The whole-file span, for findings no single line explains.
    pub fn whole_file() -> Span {
        Span {
            line: 0,
            col: 0,
            len: 0,
        }
    }

    /// True if this span points at the whole file rather than a line.
    pub fn is_whole_file(&self) -> bool {
        self.line == 0
    }

    /// Returns a copy shifted down by `lines` — how a parser embedded in
    /// a larger artifact (a table body inside a checkpoint) maps its
    /// local line numbers back to file coordinates.
    pub fn offset_lines(self, lines: usize) -> Span {
        if self.is_whole_file() {
            self
        } else {
            Span {
                line: self.line + lines,
                ..self
            }
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_whole_file() {
            write!(f, "(whole file)")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// Splits one line into whitespace-separated words, yielding each word
/// with the 1-based byte column it starts at — the tokenizer every
/// line-oriented Tagger parser uses so its errors carry exact columns.
pub fn spanned_words(raw: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    let mut rest = raw;
    let mut consumed = 0usize;
    std::iter::from_fn(move || {
        let trimmed = rest.trim_start();
        consumed += rest.len() - trimmed.len();
        if trimmed.is_empty() {
            return None;
        }
        let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
        let word = &trimmed[..end];
        let col = consumed + 1;
        rest = &trimmed[end..];
        consumed += end;
        Some((col, word))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_and_offset() {
        let s = Span::new(3, 7, 2);
        assert_eq!(s.to_string(), "3:7");
        assert_eq!(s.offset_lines(10), Span::new(13, 7, 2));
        let w = Span::whole_file();
        assert!(w.is_whole_file());
        assert_eq!(w.offset_lines(10), w);
        assert_eq!(w.to_string(), "(whole file)");
        assert_eq!(Span::line_start(5), Span::new(5, 1, 0));
    }

    #[test]
    fn spanned_words_reports_byte_columns() {
        let words: Vec<(usize, &str)> = spanned_words("  rule 1  L1 S2").collect();
        assert_eq!(words, vec![(3, "rule"), (8, "1"), (11, "L1"), (14, "S2")]);
        assert_eq!(spanned_words("").count(), 0);
        assert_eq!(spanned_words("   ").count(), 0);
        let one: Vec<_> = spanned_words("resync").collect();
        assert_eq!(one, vec![(1, "resync")]);
    }
}
