//! The line-oriented `.scn` parser.
//!
//! Same house style as the checkpoint and trace parsers: one directive
//! per line, `#` comments, every finding carrying an exact [`Span`]
//! (1-based line/column via [`spanned_words`]) and a fix-it hint where
//! one is known. [`parse_all`] reports *every* defective line in one
//! pass (what `tagger-lint` wants); [`parse`] stops at the first error
//! (what a runner wants — it never executes past garbage).

use crate::model::*;
use std::collections::BTreeMap;
use tagger_core::span::{spanned_words, Span};
use tagger_topo::{did_you_mean, nearest_names, Family, SpecError, TopoSpec};

/// Stable issue categories; `tagger-lint` maps these onto its `T06xx`
/// diagnostic codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueCode {
    /// First word of a line is not a known directive.
    UnknownDirective,
    /// A directive's arguments are missing or malformed.
    BadArgument,
    /// A singleton directive (`scenario`, `topo`, `end`, …) repeats.
    DuplicateDirective,
    /// The scenario has no `assert` block at all.
    MissingAssert,
    /// An assert can never hold under this configuration (e.g.
    /// `watchdog-trips >= 1` with no watchdog armed).
    UnsatisfiableAssert,
    /// A node name does not exist in the scenario's topology.
    UnknownNode,
}

/// One parse/validation finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScnIssue {
    /// Category.
    pub code: IssueCode,
    /// Exact location.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when known.
    pub hint: Option<String>,
}

impl ScnIssue {
    fn new(code: IssueCode, span: Span, message: impl Into<String>) -> ScnIssue {
        ScnIssue {
            code,
            span,
            message: message.into(),
            hint: None,
        }
    }

    fn hint(mut self, hint: impl Into<String>) -> ScnIssue {
        self.hint = Some(hint.into());
        self
    }
}

impl From<SpecError> for ScnIssue {
    /// A `topo` line the fabric spec refuses.
    fn from(e: SpecError) -> ScnIssue {
        ScnIssue {
            code: IssueCode::BadArgument,
            span: e.span,
            message: e.message,
            hint: e.hint,
        }
    }
}

impl std::fmt::Display for ScnIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.span, self.message)?;
        if let Some(h) = &self.hint {
            write!(f, " (hint: {h})")?;
        }
        Ok(())
    }
}

/// Every directive the DSL knows, for the unknown-directive hint.
const DIRECTIVES: &str = "scenario, topo, checkpoint, tagger, seed, end, transition, \
     buffer, pause-quanta, recovery, watchdog, dcqcn, flow, workload, \
     fail, restore, reconverge, flap, route, mask, trace, assert, sweep";

/// Parses a duration word: bare nanoseconds, `250us`, `4ms`, `1_000ns`,
/// or a `$var` (nanoseconds).
fn parse_dur(word: &str) -> Option<Num> {
    if let Some(var) = word.strip_prefix('$') {
        return (!var.is_empty()).then(|| Num::Var(var.to_string()));
    }
    let (digits, scale) = if let Some(d) = word.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = word.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = word.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = word.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (word, 1)
    };
    let clean: String = digits.chars().filter(|&c| c != '_').collect();
    clean
        .parse::<u64>()
        .ok()
        .map(|v| Num::Lit(v.saturating_mul(scale)))
}

/// Parses a plain integer word (underscore separators allowed) or `$var`.
fn parse_num(word: &str) -> Option<Num> {
    if let Some(var) = word.strip_prefix('$') {
        return (!var.is_empty()).then(|| Num::Var(var.to_string()));
    }
    let clean: String = word.chars().filter(|&c| c != '_').collect();
    clean.parse::<u64>().ok().map(Num::Lit)
}

/// Parses an `@time` word: `@40%` (percent of the horizon) or `@250us`.
fn parse_at(word: &str) -> Option<TimeSpec> {
    let body = word.strip_prefix('@')?;
    if let Some(pct) = body.strip_suffix('%') {
        let p: u64 = pct.parse().ok()?;
        (p <= 100).then_some(TimeSpec::Pct(p))
    } else {
        parse_dur(body).map(TimeSpec::Ns)
    }
}

struct LineCtx<'a> {
    lineno: usize,
    words: Vec<(usize, &'a str)>,
    issues: &'a mut Vec<ScnIssue>,
}

impl<'a> LineCtx<'a> {
    fn span(&self, i: usize) -> Span {
        match self.words.get(i) {
            Some(&(col, w)) => Span::new(self.lineno, col, w.len()),
            None => {
                // Point past the last word: "something is missing here".
                let end = self.words.last().map(|&(c, w)| c + w.len()).unwrap_or(1);
                Span::new(self.lineno, end, 0)
            }
        }
    }

    fn word(&self, i: usize) -> Option<&'a str> {
        self.words.get(i).map(|&(_, w)| w)
    }

    fn bad(&mut self, i: usize, message: impl Into<String>) -> Option<()> {
        let issue = ScnIssue::new(IssueCode::BadArgument, self.span(i), message);
        self.issues.push(issue);
        None
    }

    fn bad_hint(&mut self, i: usize, message: impl Into<String>, hint: impl Into<String>) {
        let issue = ScnIssue::new(IssueCode::BadArgument, self.span(i), message).hint(hint);
        self.issues.push(issue);
    }

    fn need(&mut self, i: usize, what: &str) -> Option<&'a str> {
        match self.word(i) {
            Some(w) => Some(w),
            None => {
                self.bad(i, format!("missing {what}"));
                None
            }
        }
    }

    fn need_num(&mut self, i: usize, what: &str) -> Option<Num> {
        let w = self.need(i, what)?;
        match parse_num(w) {
            Some(n) => Some(n),
            None => {
                self.bad(i, format!("{what}: `{w}` is not a number"));
                None
            }
        }
    }

    fn need_dur(&mut self, i: usize, what: &str) -> Option<Num> {
        let w = self.need(i, what)?;
        match parse_dur(w) {
            Some(n) => Some(n),
            None => {
                self.bad_hint(
                    i,
                    format!("{what}: `{w}` is not a duration"),
                    "durations are `500ns`, `250us`, `4ms` or bare nanoseconds",
                );
                None
            }
        }
    }

    /// Optional trailing `@time`; defaults to 0.
    fn opt_at(&mut self, i: usize) -> Option<TimeSpec> {
        match self.word(i) {
            None => Some(TimeSpec::zero()),
            Some(w) if w.starts_with('@') => match parse_at(w) {
                Some(t) => Some(t),
                None => {
                    self.bad_hint(
                        i,
                        format!("bad time `{w}`"),
                        "times are `@250us`, `@1_000_000` (ns) or `@40%` of the horizon",
                    );
                    None
                }
            },
            Some(w) => {
                self.bad(i, format!("expected `@time`, found `{w}`"));
                None
            }
        }
    }

    /// Required `@time`.
    fn need_at(&mut self, i: usize) -> Option<TimeSpec> {
        match self.need(i, "`@time`")? {
            w if w.starts_with('@') => match parse_at(w) {
                Some(t) => Some(t),
                None => {
                    self.bad_hint(
                        i,
                        format!("bad time `{w}`"),
                        "times are `@250us`, `@1_000_000` (ns) or `@40%` of the horizon",
                    );
                    None
                }
            },
            w => {
                self.bad(i, format!("expected `@time`, found `{w}`"));
                None
            }
        }
    }
}

fn parse_cmp(w: &str) -> Option<Cmp> {
    match w {
        "==" => Some(Cmp::Eq),
        ">=" => Some(Cmp::Ge),
        "<=" => Some(Cmp::Le),
        _ => None,
    }
}

/// Parses a whole `.scn` text, reporting *every* issue. The scenario is
/// returned alongside — usable only when no issue was produced (lint
/// wants partial results; runners should call [`parse`]).
pub fn parse_all(text: &str) -> (Scenario, Vec<ScnIssue>) {
    let mut s = Scenario::default();
    let mut issues = Vec::new();
    let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.split('#').next() {
            Some(l) => l,
            None => raw,
        };
        let words: Vec<(usize, &str)> = spanned_words(line).collect();
        if words.is_empty() {
            continue;
        }
        let mut ctx = LineCtx {
            lineno,
            words,
            issues: &mut issues,
        };
        let head = ctx.words[0].1;

        // Singleton directives: remember the first occurrence's line.
        let mut dup = |ctx: &mut LineCtx, key: &'static str| -> bool {
            if let Some(&first) = seen.get(key) {
                let issue = ScnIssue::new(
                    IssueCode::DuplicateDirective,
                    ctx.span(0),
                    format!("duplicate `{key}` directive (first on line {first})"),
                )
                .hint(format!("keep one `{key}` line per scenario"));
                ctx.issues.push(issue);
                true
            } else {
                seen.insert(key, lineno);
                false
            }
        };

        match head {
            "scenario" => {
                if dup(&mut ctx, "scenario") {
                    continue;
                }
                if let Some(name) = ctx.need(1, "scenario name") {
                    s.name = name.to_string();
                }
            }
            "topo" => {
                if dup(&mut ctx, "topo") {
                    continue;
                }
                match TopoSpec::parse_words(lineno, &ctx.words[1..], parse_num) {
                    Ok(spec) if matches!(spec.family, Family::File(_)) => ctx.bad_hint(
                        1,
                        "a scenario's fabric cannot come from a `.topo` file",
                        "name it by family, or load it with its tables by `checkpoint PATH`",
                    ),
                    Ok(spec) => s.topo = spec,
                    Err(e) => ctx.issues.push(e.into()),
                }
            }
            "checkpoint" => {
                if dup(&mut ctx, "checkpoint") {
                    continue;
                }
                if let Some(path) = ctx.need(1, "checkpoint path") {
                    s.checkpoint = Some(path.to_string());
                    s.tagger = TaggerMode::FromCheckpoint;
                }
            }
            "tagger" => {
                if dup(&mut ctx, "tagger") {
                    continue;
                }
                s.tagger_span = ctx.span(1);
                match ctx.need(1, "tagger mode") {
                    Some("off") => s.tagger = TaggerMode::Off,
                    Some("bounces") => {
                        if let Some(n) = ctx.need_num(2, "bounce count") {
                            s.tagger = TaggerMode::Bounces(n);
                        }
                    }
                    Some("controller") => s.tagger = TaggerMode::Controller,
                    Some("chaos") => {
                        let seed = ctx.need_num(2, "chaos seed");
                        let rate = match ctx.need(3, "chaos fail rate") {
                            Some(w) => match w.parse::<f64>() {
                                Ok(r) if (0.0..=1.0).contains(&r) => Some(r),
                                _ => {
                                    ctx.bad(3, format!("fail rate `{w}` must be 0.0–1.0"));
                                    None
                                }
                            },
                            None => None,
                        };
                        if let (Some(seed), Some(rate)) = (seed, rate) {
                            s.tagger = TaggerMode::Chaos { seed, rate };
                        }
                    }
                    Some("unsafe-identity") => s.tagger = TaggerMode::UnsafeIdentity,
                    Some(w) => {
                        ctx.bad_hint(
                            1,
                            format!("unknown tagger mode `{w}`"),
                            "use `off`, `bounces N`, `controller`, `chaos SEED RATE` \
                             or `unsafe-identity`",
                        );
                    }
                    None => {}
                }
            }
            "seed" => {
                if dup(&mut ctx, "seed") {
                    continue;
                }
                if let Some(Num::Lit(v)) = ctx.need_num(1, "seed") {
                    s.seed = v;
                } else if ctx.word(1).is_some_and(|w| w.starts_with('$')) {
                    ctx.bad(
                        1,
                        "seed cannot be swept — pass `--seed` to the runner instead",
                    );
                }
            }
            "end" => {
                if dup(&mut ctx, "end") {
                    continue;
                }
                match ctx.need_dur(1, "horizon") {
                    Some(Num::Lit(v)) if v > 0 => s.end_ns = v,
                    Some(Num::Lit(_)) => {
                        ctx.bad(1, "horizon must be positive");
                    }
                    Some(Num::Var(_)) => {
                        ctx.bad(1, "the horizon cannot be swept");
                    }
                    None => {}
                }
            }
            "transition" => {
                if dup(&mut ctx, "transition") {
                    continue;
                }
                match ctx.need(1, "transition mode") {
                    Some("new-tag") => s.old_tag_transition = false,
                    Some("old-tag") => s.old_tag_transition = true,
                    Some(w) => {
                        ctx.bad_hint(
                            1,
                            format!("unknown transition mode `{w}`"),
                            "use `new-tag` (Fig. 8(b), correct) or `old-tag` (Fig. 8(a))",
                        );
                    }
                    None => {}
                }
            }
            "buffer" => {
                if dup(&mut ctx, "buffer") {
                    continue;
                }
                s.buffer_bytes = ctx.need_num(1, "buffer bytes");
            }
            "pause-quanta" => {
                if dup(&mut ctx, "pause-quanta") {
                    continue;
                }
                s.pause_quanta = ctx.need_dur(1, "pause quanta").map(TimeSpec::Ns);
            }
            "recovery" => {
                if dup(&mut ctx, "recovery") {
                    continue;
                }
                match ctx.need(1, "`on`") {
                    Some("on") => s.recovery = true,
                    Some(w) => {
                        ctx.bad(1, format!("expected `on`, found `{w}`"));
                    }
                    None => {}
                }
            }
            "watchdog" => {
                if dup(&mut ctx, "watchdog") {
                    continue;
                }
                match ctx.need(1, "`window`") {
                    Some("window") => {
                        if let Some(win) = ctx.need_dur(2, "watchdog window") {
                            let drop = match (ctx.word(3), ctx.word(4)) {
                                (None, _) => Some(false),
                                (Some("policy"), Some("demote")) => Some(false),
                                (Some("policy"), Some("drop")) => Some(true),
                                (Some("policy"), other) => {
                                    let w = other.unwrap_or("");
                                    ctx.bad_hint(
                                        4,
                                        format!("unknown watchdog policy `{w}`"),
                                        "use `policy demote` or `policy drop`",
                                    );
                                    None
                                }
                                (Some(w), _) => {
                                    let msg = format!("expected `policy`, found `{w}`");
                                    ctx.bad(3, msg);
                                    None
                                }
                            };
                            if let Some(drop) = drop {
                                s.watchdog = Some(WatchdogDecl {
                                    window: TimeSpec::Ns(win),
                                    drop,
                                });
                            }
                        }
                    }
                    Some(w) => {
                        ctx.bad(1, format!("expected `window`, found `{w}`"));
                    }
                    None => {}
                }
            }
            "dcqcn" => {
                if dup(&mut ctx, "dcqcn") {
                    continue;
                }
                match ctx.need(1, "`on` or `off`") {
                    Some("on") => s.dcqcn = true,
                    Some("off") => s.dcqcn = false,
                    Some(w) => {
                        ctx.bad(1, format!("expected `on` or `off`, found `{w}`"));
                    }
                    None => {}
                }
            }
            "flow" => {
                let src = ctx.need(1, "source host");
                let dst = ctx.need(2, "destination host");
                let (Some(src), Some(dst)) = (src, dst) else {
                    continue;
                };
                let mut flow = FlowDecl {
                    src: src.to_string(),
                    dst: dst.to_string(),
                    at: TimeSpec::zero(),
                    limit: None,
                    via: Vec::new(),
                };
                let mut i = 3;
                let mut ok = true;
                while let Some(w) = ctx.word(i) {
                    if w.starts_with('@') {
                        match parse_at(w) {
                            Some(t) => flow.at = t,
                            None => {
                                ctx.bad(i, format!("bad time `{w}`"));
                                ok = false;
                            }
                        }
                        i += 1;
                    } else if w == "limit" {
                        match ctx.need_num(i + 1, "byte limit") {
                            Some(n) => flow.limit = Some(n),
                            None => ok = false,
                        }
                        i += 2;
                    } else if w == "via" {
                        i += 1;
                        while let Some(n) = ctx.word(i) {
                            flow.via.push(n.to_string());
                            i += 1;
                        }
                        if flow.via.len() < 2 {
                            ctx.bad(i, "`via` needs the full path, source to destination");
                            ok = false;
                        }
                    } else {
                        ctx.bad_hint(
                            i,
                            format!("unexpected `{w}`"),
                            "flow options are `@time`, `limit BYTES`, `via N1 N2 ...`",
                        );
                        ok = false;
                        i += 1;
                    }
                }
                if ok {
                    s.flows.push(flow);
                }
            }
            "workload" => match ctx.need(1, "workload kind") {
                Some("incast") => {
                    let k = ctx.need_num(2, "fan-in");
                    let dst = ctx.need(3, "destination host").map(str::to_string);
                    let at = ctx.opt_at(4);
                    if let (Some(k), Some(dst), Some(at)) = (k, dst, at) {
                        s.workloads.push(Workload::Incast { k, dst, at });
                    }
                }
                Some("shuffle") => {
                    let src = ctx.need(2, "source host").map(str::to_string);
                    let k = ctx.need_num(3, "fan-out");
                    let at = ctx.opt_at(4);
                    if let (Some(src), Some(k), Some(at)) = (src, k, at) {
                        s.workloads.push(Workload::Shuffle { src, k, at });
                    }
                }
                Some("permutation") => {
                    if let Some(at) = ctx.opt_at(2) {
                        s.workloads.push(Workload::Permutation { at });
                    }
                }
                Some("all-to-all") => {
                    let n = ctx.need_num(2, "participant count");
                    let at = ctx.opt_at(3);
                    if let (Some(n), Some(at)) = (n, at) {
                        s.workloads.push(Workload::AllToAll { n, at });
                    }
                }
                Some("websearch") => {
                    let n = ctx.need_num(2, "flow count");
                    let at = ctx.opt_at(3);
                    if let (Some(n), Some(at)) = (n, at) {
                        s.workloads.push(Workload::Websearch { n, at });
                    }
                }
                Some("hadoop") => {
                    let n = ctx.need_num(2, "flow count");
                    let at = ctx.opt_at(3);
                    if let (Some(n), Some(at)) = (n, at) {
                        s.workloads.push(Workload::Hadoop { n, at });
                    }
                }
                Some(w) => {
                    ctx.bad_hint(
                        1,
                        format!("unknown workload `{w}`"),
                        "workloads: incast, shuffle, permutation, all-to-all, \
                         websearch, hadoop",
                    );
                }
                None => {}
            },
            "fail" => {
                if ctx.word(1) == Some("random") {
                    let n = ctx.need_num(2, "failure count");
                    let at = ctx.need_at(3);
                    if let (Some(n), Some(at)) = (n, at) {
                        s.events.push(EventSpec::FailRandom { n, at });
                    }
                } else {
                    let a = ctx.need(1, "link endpoint").map(str::to_string);
                    let b = ctx.need(2, "link endpoint").map(str::to_string);
                    let at = ctx.need_at(3);
                    if let (Some(a), Some(b), Some(at)) = (a, b, at) {
                        s.events.push(EventSpec::Fail { a, b, at });
                    }
                }
            }
            "restore" => {
                let a = ctx.need(1, "link endpoint").map(str::to_string);
                let b = ctx.need(2, "link endpoint").map(str::to_string);
                let at = ctx.need_at(3);
                if let (Some(a), Some(b), Some(at)) = (a, b, at) {
                    s.events.push(EventSpec::Restore { a, b, at });
                }
            }
            "reconverge" => {
                if let Some(at) = ctx.need_at(1) {
                    s.events.push(EventSpec::Reconverge { at });
                }
            }
            "flap" => {
                let a = ctx.need(1, "link endpoint").map(str::to_string);
                let b = ctx.need(2, "link endpoint").map(str::to_string);
                let at = ctx.need_at(3);
                let times = match ctx.need(4, "`xN` repeat count") {
                    Some(w) => match w.strip_prefix('x').and_then(parse_num) {
                        Some(n) => Some(n),
                        None => {
                            ctx.bad_hint(
                                4,
                                format!("bad repeat `{w}`"),
                                "write the bounce count as `x3`",
                            );
                            None
                        }
                    },
                    None => None,
                };
                let gap = match ctx.need(5, "`gap`") {
                    Some("gap") => ctx.need_dur(6, "flap gap").map(TimeSpec::Ns),
                    Some(w) => {
                        ctx.bad(5, format!("expected `gap`, found `{w}`"));
                        None
                    }
                    None => None,
                };
                if let (Some(a), Some(b), Some(at), Some(times), Some(gap)) = (a, b, at, times, gap)
                {
                    s.events.push(EventSpec::Flap {
                        a,
                        b,
                        at,
                        times,
                        gap,
                    });
                }
            }
            "route" => {
                let sw = ctx.need(1, "switch").map(str::to_string);
                let dst = ctx.need(2, "destination host").map(str::to_string);
                let via = match ctx.need(3, "`via`") {
                    Some("via") => ctx.need(4, "next hop").map(str::to_string),
                    Some(w) => {
                        ctx.bad(3, format!("expected `via`, found `{w}`"));
                        None
                    }
                    None => None,
                };
                let at = ctx.need_at(5);
                if let (Some(sw), Some(dst), Some(via), Some(at)) = (sw, dst, via, at) {
                    s.events.push(EventSpec::Route { sw, dst, via, at });
                }
            }
            "mask" => {
                let sw = ctx.need(1, "switch").map(str::to_string);
                let nbr = ctx.need(2, "neighbour").map(str::to_string);
                let at = ctx.need_at(3);
                if let (Some(sw), Some(nbr), Some(at)) = (sw, nbr, at) {
                    s.events.push(EventSpec::Mask { sw, nbr, at });
                }
            }
            "trace" => {
                let path = ctx.need(1, "trace path").map(str::to_string);
                let at = ctx.need_at(2);
                let gap = match ctx.need(3, "`gap`") {
                    Some("gap") => ctx.need_dur(4, "trace gap").map(TimeSpec::Ns),
                    Some(w) => {
                        ctx.bad(3, format!("expected `gap`, found `{w}`"));
                        None
                    }
                    None => None,
                };
                if let (Some(path), Some(at), Some(gap)) = (path, at, gap) {
                    s.events.push(EventSpec::Trace { path, at, gap });
                }
            }
            "assert" => {
                let span = ctx.span(1);
                let counting = |ctx: &mut LineCtx, what: &str| -> Option<(Cmp, Num)> {
                    let cmp = match ctx.need(2, "comparison (`==`, `>=`, `<=`)") {
                        Some(w) => match parse_cmp(w) {
                            Some(c) => Some(c),
                            None => {
                                ctx.bad_hint(
                                    2,
                                    format!("bad comparison `{w}`"),
                                    format!("write `assert {what} == N` (or >=, <=)"),
                                );
                                None
                            }
                        },
                        None => None,
                    };
                    let n = ctx.need_num(3, "count");
                    match (cmp, n) {
                        (Some(c), Some(n)) => Some((c, n)),
                        _ => None,
                    }
                };
                match ctx.need(1, "assert kind") {
                    Some("no-deadlock") => s.asserts.push((AssertSpec::NoDeadlock, span)),
                    Some("deadlock-by") => {
                        let t = match ctx.word(2) {
                            // `@250us`, `@40%` or the bare `40%` form.
                            Some(w) if w.starts_with('@') || w.ends_with('%') => {
                                let bare_pct = w
                                    .strip_suffix('%')
                                    .and_then(|p| p.parse::<u64>().ok())
                                    .filter(|&p| p <= 100)
                                    .map(TimeSpec::Pct);
                                match parse_at(w).or(bare_pct) {
                                    Some(t) => Some(t),
                                    None => {
                                        ctx.bad(2, format!("bad time `{w}`"));
                                        None
                                    }
                                }
                            }
                            _ => ctx.need_dur(2, "deadline").map(TimeSpec::Ns),
                        };
                        if let Some(t) = t {
                            s.asserts.push((AssertSpec::DeadlockBy(t), span));
                        }
                    }
                    Some("watchdog-trips") => {
                        if let Some((c, n)) = counting(&mut ctx, "watchdog-trips") {
                            s.asserts.push((AssertSpec::WatchdogTrips(c, n), span));
                        }
                    }
                    Some("episodes") => {
                        if let Some((c, n)) = counting(&mut ctx, "episodes") {
                            s.asserts.push((AssertSpec::Episodes(c, n), span));
                        }
                    }
                    Some("recoveries") => {
                        if let Some((c, n)) = counting(&mut ctx, "recoveries") {
                            s.asserts.push((AssertSpec::Recoveries(c, n), span));
                        }
                    }
                    Some("lossless-drops") => {
                        if let Some((c, n)) = counting(&mut ctx, "lossless-drops") {
                            s.asserts.push((AssertSpec::LosslessDrops(c, n), span));
                        }
                    }
                    Some("max-pause") => {
                        if let Some(d) = ctx.need_dur(2, "max pause") {
                            s.asserts
                                .push((AssertSpec::MaxPause(TimeSpec::Ns(d)), span));
                        }
                    }
                    Some("attribution") => match ctx.need(2, "`matches-ground-truth`") {
                        Some("matches-ground-truth") => {
                            s.asserts.push((AssertSpec::AttributionMatches, span));
                        }
                        Some(w) => {
                            ctx.bad(2, format!("expected `matches-ground-truth`, found `{w}`"));
                        }
                        None => {}
                    },
                    Some("feasible") => s.asserts.push((AssertSpec::Feasible, span)),
                    Some("infeasible") => s.asserts.push((AssertSpec::Infeasible, span)),
                    Some(w) => {
                        ctx.bad_hint(
                            1,
                            format!("unknown assert `{w}`"),
                            "asserts: no-deadlock, deadlock-by T, watchdog-trips OP N, \
                             episodes OP N, recoveries OP N, lossless-drops OP N, \
                             max-pause D, attribution matches-ground-truth, \
                             feasible, infeasible",
                        );
                    }
                    None => {}
                }
            }
            "sweep" => {
                let var = ctx.need(1, "sweep variable").map(str::to_string);
                let range = match ctx.need(2, "range `A..B`") {
                    Some(w) => match w.split_once("..") {
                        Some((a, b)) => {
                            let a: Option<u64> = a
                                .chars()
                                .filter(|&c| c != '_')
                                .collect::<String>()
                                .parse()
                                .ok();
                            let b: Option<u64> = b
                                .chars()
                                .filter(|&c| c != '_')
                                .collect::<String>()
                                .parse()
                                .ok();
                            match (a, b) {
                                (Some(a), Some(b)) if a <= b => Some((a, b)),
                                _ => {
                                    ctx.bad(2, format!("bad range `{w}`"));
                                    None
                                }
                            }
                        }
                        None => {
                            ctx.bad_hint(
                                2,
                                format!("bad range `{w}`"),
                                "write `sweep hosts 32..1024 step *2`",
                            );
                            None
                        }
                    },
                    None => None,
                };
                let step = match ctx.word(3) {
                    None => Some((true, 2u64)),
                    Some("step") => match ctx.need(4, "step (`*K` or `+K`)") {
                        Some(w) => {
                            let (mul, digits) = if let Some(d) = w.strip_prefix('*') {
                                (true, d)
                            } else if let Some(d) = w.strip_prefix('+') {
                                (false, d)
                            } else {
                                (true, "")
                            };
                            match digits.parse::<u64>() {
                                Ok(k) if k >= if mul { 2 } else { 1 } => Some((mul, k)),
                                _ => {
                                    ctx.bad_hint(
                                        4,
                                        format!("bad step `{w}`"),
                                        "use `*2` (double each point) or `+16`",
                                    );
                                    None
                                }
                            }
                        }
                        None => None,
                    },
                    Some(w) => {
                        let msg = format!("expected `step`, found `{w}`");
                        ctx.bad(3, msg);
                        None
                    }
                };
                if let (Some(var), Some((from, to)), Some((mul, step))) = (var, range, step) {
                    if s.sweeps.iter().any(|sw| sw.var == var) {
                        issues.push(
                            ScnIssue::new(
                                IssueCode::DuplicateDirective,
                                Span::new(lineno, 1, "sweep".len()),
                                format!("duplicate sweep over `{var}`"),
                            )
                            .hint("each variable can be swept once"),
                        );
                    } else {
                        s.sweeps.push(Sweep {
                            var,
                            from,
                            to,
                            mul,
                            step,
                        });
                    }
                }
            }
            other => {
                let col = ctx.words[0].0;
                ctx.issues.push(
                    ScnIssue::new(
                        IssueCode::UnknownDirective,
                        Span::new(lineno, col, other.len()),
                        format!("unknown directive `{other}`"),
                    )
                    .hint(format!("known directives: {DIRECTIVES}")),
                );
            }
        }
    }

    issues.extend(validate(&s));
    (s, issues)
}

/// Semantic validation over a parsed scenario: the checks that need the
/// whole file (or the topology) rather than one line.
fn validate(s: &Scenario) -> Vec<ScnIssue> {
    let mut issues = Vec::new();

    // Every scenario must state what it proves.
    if s.asserts.is_empty() {
        issues.push(
            ScnIssue::new(
                IssueCode::MissingAssert,
                Span::whole_file(),
                "scenario has no `assert` block — a run with nothing to check proves nothing",
            )
            .hint("add at least one assert, e.g. `assert no-deadlock`"),
        );
    }

    // Contradictory / unsatisfiable asserts.
    let has = |f: &dyn Fn(&AssertSpec) -> bool| s.asserts.iter().any(|(a, _)| f(a));
    let wd_armed = s.watchdog.is_some();
    for (a, span) in &s.asserts {
        match a {
            AssertSpec::DeadlockBy(TimeSpec::Ns(Num::Lit(t))) if *t > s.end_ns => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        format!(
                            "`deadlock-by {t}` lies beyond the {}ns horizon — the run ends first",
                            s.end_ns
                        ),
                    )
                    .hint("raise `end` or lower the deadline"),
                );
            }
            AssertSpec::DeadlockBy(_) if has(&|x| matches!(x, AssertSpec::NoDeadlock)) => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        "`deadlock-by` contradicts `assert no-deadlock` in the same scenario",
                    )
                    .hint("keep exactly one of the two"),
                );
            }
            AssertSpec::WatchdogTrips(cmp, Num::Lit(n)) if !wd_armed && !cmp.test(0, *n) => {
                // Without a watchdog the trip count is identically 0.
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        format!(
                            "`watchdog-trips {} {n}` can never hold: no watchdog is armed, \
                             so the trip count is always 0",
                            cmp.label()
                        ),
                    )
                    .hint("add a `watchdog window <dur>` directive"),
                );
            }
            AssertSpec::Episodes(cmp, Num::Lit(n)) if !wd_armed && !cmp.test(0, *n) => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        format!(
                            "`episodes {} {n}` can never hold: episodes are counted by \
                             the watchdog, and none is armed",
                            cmp.label()
                        ),
                    )
                    .hint("add a `watchdog window <dur>` directive"),
                );
            }
            AssertSpec::AttributionMatches if !wd_armed => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        "`attribution matches-ground-truth` can never hold: trigger \
                         attribution is computed by the watchdog, and none is armed",
                    )
                    .hint("add a `watchdog window <dur>` directive"),
                );
            }
            AssertSpec::Infeasible if has(&|x| matches!(x, AssertSpec::Feasible)) => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        "`infeasible` contradicts `assert feasible` in the same scenario",
                    )
                    .hint("keep exactly one of the two"),
                );
            }
            AssertSpec::Recoveries(cmp, Num::Lit(n)) if !s.recovery && !cmp.test(0, *n) => {
                issues.push(
                    ScnIssue::new(
                        IssueCode::UnsatisfiableAssert,
                        *span,
                        format!(
                            "`recoveries {} {n}` can never hold: detect-and-break \
                             recovery is not enabled",
                            cmp.label()
                        ),
                    )
                    .hint("add a `recovery on` directive"),
                );
            }
            _ => {}
        }
    }

    // Node-name checks need a concrete, locally-buildable topology.
    // A literal spec that cannot build is refused here, at its word.
    let literal = s.topo.try_map(|n| match n {
        Num::Lit(v) => Ok(*v as usize),
        Num::Var(_) => Err(()),
    });
    let topo = match (&s.checkpoint, literal) {
        (None, Ok(spec)) => match spec.build() {
            Ok(topo) => Some(topo),
            Err(e) => {
                issues.push(e.into());
                None
            }
        },
        _ => None,
    };
    if let Some(topo) = topo {
        let mut check = |name: &str| {
            if topo.node_by_name(name).is_none() {
                let mut issue = ScnIssue::new(
                    IssueCode::UnknownNode,
                    Span::whole_file(),
                    format!("unknown node `{name}` in this topology"),
                );
                if let Some(hint) = did_you_mean(&nearest_names(&topo, name)) {
                    issue = issue.hint(hint);
                }
                issues.push(issue);
            }
        };
        for f in &s.flows {
            check(&f.src);
            check(&f.dst);
            for v in &f.via {
                check(v);
            }
        }
        for w in &s.workloads {
            match w {
                Workload::Incast { dst, .. } => check(dst),
                Workload::Shuffle { src, .. } => check(src),
                _ => {}
            }
        }
        for e in &s.events {
            match e {
                EventSpec::Fail { a, b, .. }
                | EventSpec::Restore { a, b, .. }
                | EventSpec::Flap { a, b, .. } => {
                    check(a);
                    check(b);
                }
                EventSpec::Route { sw, dst, via, .. } => {
                    check(sw);
                    check(dst);
                    check(via);
                }
                EventSpec::Mask { sw, nbr, .. } => {
                    check(sw);
                    check(nbr);
                }
                _ => {}
            }
        }
    }

    // Unbound sweep variables.
    let bound: Vec<&str> = s.sweeps.iter().map(|sw| sw.var.as_str()).collect();
    let check_num = |n: &Num, what: &str, issues: &mut Vec<ScnIssue>| {
        if let Num::Var(v) = n {
            if !bound.contains(&v.as_str()) {
                issues.push(
                    ScnIssue::new(
                        IssueCode::BadArgument,
                        Span::whole_file(),
                        format!("`${v}` in {what} is not bound by any `sweep` directive"),
                    )
                    .hint(format!(
                        "add `sweep {v} A..B` or replace `${v}` with a literal"
                    )),
                );
            }
        }
    };
    for arg in &s.topo.args {
        check_num(&arg.0, "topo", &mut issues);
    }
    for w in &s.workloads {
        match w {
            Workload::Incast { k, .. } | Workload::Shuffle { k, .. } => {
                check_num(k, "workload", &mut issues)
            }
            Workload::AllToAll { n, .. }
            | Workload::Websearch { n, .. }
            | Workload::Hadoop { n, .. } => check_num(n, "workload", &mut issues),
            Workload::Permutation { .. } => {}
        }
    }

    issues
}

/// Parses a `.scn` text, stopping at the first error — the runner entry
/// point.
pub fn parse(text: &str) -> Result<Scenario, ScnIssue> {
    let (s, issues) = parse_all(text);
    match issues.into_iter().next() {
        None => Ok(s),
        Some(issue) => Err(issue),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# Fig 10 without Tagger: the 1-bounce pair deadlocks.
scenario fig10_no_tagger
topo clos small
tagger off
end 4ms
flow H1 H13 via H1 T1 L1 S1 L3 S2 L4 T4 H13
flow H9 H1 @20% via H9 T3 L3 S2 L1 S1 L2 T1 H1
assert deadlock-by 4ms
assert lossless-drops == 0
";

    #[test]
    fn good_scenario_parses_clean() {
        let s = parse(GOOD).unwrap();
        assert_eq!(s.name, "fig10_no_tagger");
        assert_eq!(s.end_ns, 4_000_000);
        assert_eq!(s.flows.len(), 2);
        assert_eq!(s.flows[1].at, TimeSpec::Pct(20));
        assert_eq!(s.flows[1].via.len(), 9);
        assert_eq!(s.asserts.len(), 2);
    }

    #[test]
    fn unknown_directive_has_span_and_hint() {
        let (_, issues) = parse_all("scenario x\nfrobnicate y\nassert no-deadlock\n");
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].code, IssueCode::UnknownDirective);
        assert_eq!(issues[0].span, Span::new(2, 1, "frobnicate".len()));
        assert!(issues[0].hint.as_ref().unwrap().contains("workload"));
        // The event-queue backend is no longer selectable.
        let (_, issues) = parse_all("scenario x\nqueue heap\nassert no-deadlock\n");
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].code, IssueCode::UnknownDirective);
        assert_eq!(issues[0].span, Span::new(2, 1, 5));
    }

    #[test]
    fn missing_assert_is_reported() {
        let (_, issues) = parse_all("scenario x\ntopo clos small\n");
        assert!(issues.iter().any(|i| i.code == IssueCode::MissingAssert));
    }

    #[test]
    fn unsatisfiable_asserts_are_caught() {
        let (_, issues) =
            parse_all("scenario x\nend 1ms\nassert deadlock-by 2ms\nassert watchdog-trips >= 1\n");
        let codes: Vec<IssueCode> = issues.iter().map(|i| i.code).collect();
        assert_eq!(
            codes,
            vec![
                IssueCode::UnsatisfiableAssert,
                IssueCode::UnsatisfiableAssert
            ]
        );
        // deadlock-by beyond horizon points at the assert line.
        assert_eq!(issues[0].span.line, 3);
    }

    #[test]
    fn feasibility_asserts_parse_and_conflict() {
        let s = parse("scenario x\nassert feasible\n").unwrap();
        assert_eq!(s.asserts[0].0, AssertSpec::Feasible);
        let s = parse("scenario x\nassert infeasible\n").unwrap();
        assert_eq!(s.asserts[0].0, AssertSpec::Infeasible);
        let (_, issues) = parse_all("scenario x\nassert feasible\nassert infeasible\n");
        assert!(
            issues
                .iter()
                .any(|i| i.code == IssueCode::UnsatisfiableAssert
                    && i.message.contains("contradicts"))
        );
        // The unknown-assert hint advertises the new kinds.
        let (_, issues) = parse_all("scenario x\nassert bogus\n");
        assert!(issues[0].hint.as_ref().unwrap().contains("infeasible"));
    }

    #[test]
    fn contradicting_deadlock_asserts_conflict() {
        let (_, issues) = parse_all("scenario x\nassert no-deadlock\nassert deadlock-by 1ms\n");
        assert!(
            issues
                .iter()
                .any(|i| i.code == IssueCode::UnsatisfiableAssert
                    && i.message.contains("contradicts"))
        );
    }

    #[test]
    fn unknown_node_gets_did_you_mean() {
        let (_, issues) =
            parse_all("scenario x\ntopo clos small\nflow H1 H99\nassert no-deadlock\n");
        let issue = issues
            .iter()
            .find(|i| i.code == IssueCode::UnknownNode)
            .unwrap();
        assert!(issue.message.contains("H99"));
        assert!(issue.hint.as_ref().unwrap().contains("did you mean"));
    }

    #[test]
    fn duplicate_singletons_are_flagged() {
        let (_, issues) = parse_all("scenario x\nend 1ms\nend 2ms\nassert no-deadlock\n");
        assert!(issues
            .iter()
            .any(|i| i.code == IssueCode::DuplicateDirective && i.span.line == 3));
    }

    #[test]
    fn sweep_and_vars_parse() {
        let text = "\
scenario sweepy
topo clos hosts $hosts
sweep hosts 32..128 step *2
workload incast 4 H1
assert no-deadlock
";
        let s = parse(text).unwrap();
        assert_eq!(s.sweeps.len(), 1);
        assert_eq!(s.sweeps[0].values(), vec![32, 64, 128]);
        assert_eq!(s.topo.to_string(), "clos hosts $hosts");
    }

    #[test]
    fn topo_lines_are_fabric_specs() {
        let s =
            parse("scenario t\ntopo jellyfish switches=16 ports=6\nassert no-deadlock\n").unwrap();
        assert_eq!(s.topo.to_string(), "jellyfish switches=16 ports=6 seed=7");
        for (line, span, needle) in [
            ("topo clso small", Span::new(2, 6, 4), "did you mean clos?"),
            (
                "topo clos spinse=3",
                Span::new(2, 11, 8),
                "did you mean spines?",
            ),
            (
                "topo clos spines=0",
                Span::new(2, 11, 8),
                "spines=0: a Clos dimension",
            ),
            ("topo file ring.topo", Span::new(2, 6, 4), "`.topo` file"),
        ] {
            let (_, issues) = parse_all(&format!("scenario t\n{line}\nassert no-deadlock\n"));
            let [issue] = &issues[..] else {
                panic!("{line}: {issues:?}");
            };
            assert_eq!(issue.code, IssueCode::BadArgument, "{line}");
            assert_eq!(issue.span, span, "{line}");
            assert!(issue.to_string().contains(needle), "{line}: {issue}");
        }
    }

    #[test]
    fn unbound_sweep_var_is_an_error() {
        let (_, issues) = parse_all("scenario x\ntopo clos hosts $hosts\nassert no-deadlock\n");
        assert!(issues
            .iter()
            .any(|i| i.code == IssueCode::BadArgument && i.message.contains("$hosts")));
    }

    #[test]
    fn durations_and_comments() {
        let s = parse("scenario t # trailing\nend 250us # comment\nassert no-deadlock\n").unwrap();
        assert_eq!(s.end_ns, 250_000);
        assert_eq!(parse_dur("1_000ns"), Some(Num::Lit(1_000)));
        assert_eq!(parse_dur("2ms"), Some(Num::Lit(2_000_000)));
        assert_eq!(parse_dur("$t"), Some(Num::Var("t".into())));
        assert_eq!(parse_at("@40%"), Some(TimeSpec::Pct(40)));
        assert!(parse_at("@140%").is_none());
    }
}
