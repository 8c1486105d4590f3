//! Control-plane events and the plain-text trace format.

use crate::controller::CtrlError;
use std::fmt;
use tagger_core::span::spanned_words;
use tagger_core::{Span, Tag};
use tagger_routing::{Path, PathError};
use tagger_topo::{resolve_link, LinkId, LinkLookupError, NodeId, PortId, Topology};

/// In-band initial-trigger attribution attached to a watchdog trip: the
/// hop the data plane blames for *starting* the deadlock episode, which
/// may differ from the queue that happened to trip first. When present
/// (and not already quarantined) the controller quarantines this hop
/// instead of the victim — cause-directed recovery.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TriggerInfo {
    /// The switch the attribution names.
    pub switch: NodeId,
    /// The egress port of the trigger queue.
    pub port: PortId,
    /// The lossless tag (= priority + 1) of the trigger queue.
    pub tag: Tag,
}

impl fmt::Debug for TriggerInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} tag {}", self.switch.0, self.port.0, self.tag.0)
    }
}

/// One control-plane event.
///
/// Link events carry resolved [`LinkId`]s (resolution from names happens
/// at trace-parse time so a typo is a parse error, not a runtime panic);
/// ELP events carry full [`Path`]s, already validated for adjacency
/// against the topology they were parsed with.
#[derive(Clone, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A physical link went down.
    LinkDown(LinkId),
    /// A previously failed link recovered.
    LinkUp(LinkId),
    /// The operator added an expected lossless path.
    ElpAdd(Path),
    /// The operator withdrew a previously added path. Withdrawing a path
    /// that was never added is a no-op.
    ElpRemove(Path),
    /// A data-plane PFC watchdog tripped on a (switch, egress port, tag):
    /// quarantine that hop — lossless paths crossing it are excluded from
    /// the ELP until the quarantine is lifted.
    WatchdogTrip {
        /// The switch whose queue tripped.
        switch: NodeId,
        /// The egress port of the tripped queue.
        port: PortId,
        /// The lossless tag (= priority + 1) that was stuck.
        tag: Tag,
        /// Initial-trigger attribution carried in-band from the data
        /// plane, when the switch could attribute the episode. `None`
        /// degrades byte-for-byte to victim-directed quarantine.
        trigger: Option<TriggerInfo>,
    },
    /// The quarantine on a (switch, egress port, tag) is lifted — the
    /// watchdog restored the queue, or the operator cleared it manually.
    /// Clearing a hop that was never quarantined is a no-op.
    WatchdogClear {
        /// The switch.
        switch: NodeId,
        /// The egress port.
        port: PortId,
        /// The tag.
        tag: Tag,
    },
    /// Force a full recompute against the current state (e.g. after the
    /// controller restarts and cannot trust its cached snapshot).
    Resync,
}

impl CtrlEvent {
    /// Short human-readable label for logs and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            CtrlEvent::LinkDown(_) => "link-down",
            CtrlEvent::LinkUp(_) => "link-up",
            CtrlEvent::ElpAdd(_) => "elp-add",
            CtrlEvent::ElpRemove(_) => "elp-remove",
            CtrlEvent::WatchdogTrip { .. } => "watchdog-trip",
            CtrlEvent::WatchdogClear { .. } => "watchdog-clear",
            CtrlEvent::Resync => "resync",
        }
    }

    /// The hop a [`CtrlEvent::WatchdogTrip`] quarantines: the attributed
    /// trigger when the trip carries one (cause-directed recovery), the
    /// tripping victim otherwise. `None` for every other event kind.
    pub fn effective_quarantine(&self) -> Option<(NodeId, PortId, u16)> {
        match self {
            CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag,
                trigger,
            } => Some(trigger.map_or((*switch, *port, tag.0), |t| (t.switch, t.port, t.tag.0))),
            _ => None,
        }
    }

    /// Fails with [`CtrlError::UnknownLink`] if this is a link event
    /// naming a link outside `topo` — the one malformation that can
    /// survive trace parsing, since [`LinkId`]s are plain indices.
    pub fn check(&self, topo: &Topology) -> Result<(), CtrlError> {
        match self {
            CtrlEvent::LinkDown(l) | CtrlEvent::LinkUp(l) if l.index() >= topo.num_links() => {
                Err(CtrlError::UnknownLink(*l))
            }
            _ => Ok(()),
        }
    }

    /// Renders this event back into the trace-line syntax
    /// [`parse_trace`] accepts, using the topology's node names — the
    /// round trip `parse_trace(topo, e.trace_line(topo))` yields `e`
    /// again. This is the journal's on-disk event encoding.
    pub fn trace_line(&self, topo: &Topology) -> String {
        let link_names = |l: &LinkId| {
            let link = topo.link(*l);
            format!(
                "{} {}",
                topo.node(link.a.node).name,
                topo.node(link.b.node).name
            )
        };
        let path_names = |p: &Path| {
            p.nodes()
                .iter()
                .map(|n| topo.node(*n).name.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            CtrlEvent::LinkDown(l) => format!("down {}", link_names(l)),
            CtrlEvent::LinkUp(l) => format!("up {}", link_names(l)),
            CtrlEvent::ElpAdd(p) => format!("elp-add {}", path_names(p)),
            CtrlEvent::ElpRemove(p) => format!("elp-remove {}", path_names(p)),
            CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag,
                trigger,
            } => {
                let mut line = format!("watchdog {} {} {}", topo.node(*switch).name, port.0, tag.0);
                if let Some(t) = trigger {
                    use std::fmt::Write as _;
                    let _ = write!(
                        line,
                        " via {} {} {}",
                        topo.node(t.switch).name,
                        t.port.0,
                        t.tag.0
                    );
                }
                line
            }
            CtrlEvent::WatchdogClear { switch, port, tag } => {
                format!(
                    "watchdog-clear {} {} {}",
                    topo.node(*switch).name,
                    port.0,
                    tag.0
                )
            }
            CtrlEvent::Resync => "resync".to_string(),
        }
    }
}

impl fmt::Debug for CtrlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlEvent::LinkDown(l) => write!(f, "LinkDown({})", l.index()),
            CtrlEvent::LinkUp(l) => write!(f, "LinkUp({})", l.index()),
            CtrlEvent::ElpAdd(p) => write!(f, "ElpAdd({} nodes)", p.nodes().len()),
            CtrlEvent::ElpRemove(p) => write!(f, "ElpRemove({} nodes)", p.nodes().len()),
            CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag,
                trigger,
            } => {
                write!(f, "WatchdogTrip({}:{} tag {}", switch.0, port.0, tag.0)?;
                if let Some(t) = trigger {
                    write!(f, " via {t:?}")?;
                }
                write!(f, ")")
            }
            CtrlEvent::WatchdogClear { switch, port, tag } => {
                write!(f, "WatchdogClear({}:{} tag {})", switch.0, port.0, tag.0)
            }
            CtrlEvent::Resync => write!(f, "Resync"),
        }
    }
}

/// Why a trace line failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The first word of the line is not a known directive.
    UnknownDirective(String),
    /// The directive is known but got the wrong number of arguments.
    BadArity {
        /// The directive in question.
        directive: &'static str,
        /// What the directive expects, in words.
        expected: &'static str,
    },
    /// A `down`/`up` directive named a link that does not exist.
    Link(LinkLookupError),
    /// An `elp-add`/`elp-remove`/`watchdog` directive named an unknown
    /// node.
    UnknownNode(String),
    /// A `watchdog`/`watchdog-clear` directive named a port index the
    /// node does not have.
    PortOutOfRange {
        /// The node as written in the trace.
        node: String,
        /// The offending port index.
        port: u16,
    },
    /// An `elp-add`/`elp-remove` node sequence is not a valid path. The
    /// string names the offending nodes as written in the trace (the
    /// underlying [`PathError`] only knows internal node ids).
    Path(PathError, String),
}

/// A parse error, carrying the exact source span it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// Line and column of the offending token within the trace text.
    pub span: Span,
    /// What went wrong there.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: ", self.span)?;
        match &self.kind {
            TraceErrorKind::UnknownDirective(d) => write!(f, "unknown directive {d:?}"),
            TraceErrorKind::BadArity {
                directive,
                expected,
            } => write!(f, "{directive} expects {expected}"),
            TraceErrorKind::Link(e) => write!(f, "{e}"),
            TraceErrorKind::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            TraceErrorKind::PortOutOfRange { node, port } => {
                write!(f, "node {node} has no port {port}")
            }
            TraceErrorKind::Path(_, named) => write!(f, "bad path: {named}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a plain-text event trace against a topology.
///
/// Format, one event per line (blank lines and `#` comments ignored):
///
/// ```text
/// down <node> <node>          # fail the link between two named nodes
/// up <node> <node>            # restore it
/// flap <node> <node> <n>      # n down/up pairs on that link in a row
/// elp-add <n1> <n2> ... <nk>  # add a lossless path through named nodes
/// elp-remove <n1> ... <nk>    # withdraw it
/// watchdog <node> <port> <tag>        # quarantine a tripped hop
/// watchdog-clear <node> <port> <tag>  # lift the quarantine
/// resync                      # force a full recompute
/// ```
///
/// `flap a b n` is shorthand: it expands to `n` consecutive
/// `down a b` / `up a b` pairs, the canonical input for exercising the
/// controller's flap damping.
///
/// All names are resolved eagerly, so a replayed trace either parses
/// completely or fails with the offending line number — events from an
/// untrusted recording can never panic the controller.
pub fn parse_trace(topo: &Topology, text: &str) -> Result<Vec<CtrlEvent>, TraceError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        // Strip the comment but keep the prefix untrimmed so token
        // columns still index into the raw line.
        let content = raw.split('#').next().unwrap_or("");
        let mut words = spanned_words(content);
        let Some((dcol, directive)) = words.next() else {
            continue;
        };
        let args: Vec<(usize, &str)> = words.collect();
        // Span of the directive itself — the fallback when no single
        // argument is to blame (arity errors, unknown directives).
        let dspan = Span::new(line, dcol, directive.len());
        // Span of the i-th argument, falling back to the directive.
        let arg_span = |i: usize| {
            args.get(i)
                .map(|(c, w)| Span::new(line, *c, w.len()))
                .unwrap_or(dspan)
        };
        // Span of the argument spelled `name` (diagnostics that learn the
        // offending name from a lower layer, e.g. link resolution).
        let name_span = |name: &str| {
            args.iter()
                .find(|(_, w)| *w == name)
                .map(|(c, w)| Span::new(line, *c, w.len()))
                .unwrap_or(dspan)
        };
        let link_err = |e: LinkLookupError| {
            let span = match &e {
                LinkLookupError::UnknownNode { name, .. } => name_span(name),
                LinkLookupError::NotAdjacent { b, .. } => name_span(b),
                _ => dspan,
            };
            TraceError {
                span,
                kind: TraceErrorKind::Link(e),
            }
        };
        let err = |span, kind| TraceError { span, kind };
        let event = match directive {
            "down" | "up" => {
                let [(_, a), (_, b)] = args[..] else {
                    return Err(err(
                        dspan,
                        TraceErrorKind::BadArity {
                            directive: if directive == "down" { "down" } else { "up" },
                            expected: "exactly two node names",
                        },
                    ));
                };
                let link = resolve_link(topo, a, b).map_err(link_err)?;
                if directive == "down" {
                    CtrlEvent::LinkDown(link)
                } else {
                    CtrlEvent::LinkUp(link)
                }
            }
            "elp-add" | "elp-remove" => {
                if args.len() < 2 {
                    return Err(err(
                        dspan,
                        TraceErrorKind::BadArity {
                            directive: if directive == "elp-add" {
                                "elp-add"
                            } else {
                                "elp-remove"
                            },
                            expected: "at least two node names",
                        },
                    ));
                }
                let mut nodes = Vec::with_capacity(args.len());
                for (col, name) in &args {
                    nodes.push(topo.node_by_name(name).ok_or_else(|| {
                        err(
                            Span::new(line, *col, name.len()),
                            TraceErrorKind::UnknownNode((*name).to_string()),
                        )
                    })?);
                }
                let path = Path::new(topo, nodes).map_err(|e| {
                    // Re-render the diagnostic with the names the trace
                    // used; `PathError` only knows internal node ids.
                    let (span, named) = match &e {
                        PathError::NotAdjacent(a, b) => (
                            name_span(&topo.node(*b).name),
                            format!(
                                "nodes {} and {} are not adjacent",
                                topo.node(*a).name,
                                topo.node(*b).name
                            ),
                        ),
                        PathError::RepeatedNode(n) => (
                            name_span(&topo.node(*n).name),
                            format!(
                                "node {} repeats; paths must be loop-free",
                                topo.node(*n).name
                            ),
                        ),
                        other => (dspan, other.to_string()),
                    };
                    err(span, TraceErrorKind::Path(e, named))
                })?;
                if directive == "elp-add" {
                    CtrlEvent::ElpAdd(path)
                } else {
                    CtrlEvent::ElpRemove(path)
                }
            }
            "flap" => {
                let [(_, a), (_, b), (_, n)] = args[..] else {
                    return Err(err(
                        dspan,
                        TraceErrorKind::BadArity {
                            directive: "flap",
                            expected: "two node names and a repeat count",
                        },
                    ));
                };
                let link = resolve_link(topo, a, b).map_err(link_err)?;
                let n: usize = n.parse().map_err(|_| {
                    err(
                        arg_span(2),
                        TraceErrorKind::BadArity {
                            directive: "flap",
                            expected: "two node names and a repeat count",
                        },
                    )
                })?;
                for _ in 0..n {
                    events.push(CtrlEvent::LinkDown(link));
                    events.push(CtrlEvent::LinkUp(link));
                }
                continue;
            }
            "watchdog" | "watchdog-clear" => {
                let bad_arity = |span| {
                    err(
                        span,
                        TraceErrorKind::BadArity {
                            directive: if directive == "watchdog" {
                                "watchdog"
                            } else {
                                "watchdog-clear"
                            },
                            expected: if directive == "watchdog" {
                                "a node name, a port index and a tag, \
                                 optionally `via <node> <port> <tag>`"
                            } else {
                                "a node name, a port index and a tag"
                            },
                        },
                    )
                };
                // One `<node> <port> <tag>` triple starting at argument
                // `base` — the victim hop at 0, the `via` trigger at 4.
                let hop = |base: usize| -> Result<(NodeId, PortId, Tag), TraceError> {
                    let (_, name) = *args.get(base).ok_or_else(|| bad_arity(dspan))?;
                    let (_, port) = *args.get(base + 1).ok_or_else(|| bad_arity(dspan))?;
                    let (_, tag) = *args.get(base + 2).ok_or_else(|| bad_arity(dspan))?;
                    let switch = topo.node_by_name(name).ok_or_else(|| {
                        err(
                            arg_span(base),
                            TraceErrorKind::UnknownNode(name.to_string()),
                        )
                    })?;
                    let port: u16 = port.parse().map_err(|_| bad_arity(arg_span(base + 1)))?;
                    let tag: u16 = tag.parse().map_err(|_| bad_arity(arg_span(base + 2)))?;
                    if port as usize >= topo.node(switch).num_ports() {
                        return Err(err(
                            arg_span(base + 1),
                            TraceErrorKind::PortOutOfRange {
                                node: name.to_string(),
                                port,
                            },
                        ));
                    }
                    Ok((switch, PortId(port), Tag(tag)))
                };
                let (switch, port, tag) = hop(0)?;
                if directive == "watchdog-clear" {
                    if args.len() != 3 {
                        return Err(bad_arity(dspan));
                    }
                    CtrlEvent::WatchdogClear { switch, port, tag }
                } else {
                    let trigger = match args.len() {
                        3 => None,
                        7 if args[3].1 == "via" => {
                            let (switch, port, tag) = hop(4)?;
                            Some(TriggerInfo { switch, port, tag })
                        }
                        _ => return Err(bad_arity(arg_span(3))),
                    };
                    CtrlEvent::WatchdogTrip {
                        switch,
                        port,
                        tag,
                        trigger,
                    }
                }
            }
            "resync" => {
                if !args.is_empty() {
                    return Err(err(
                        arg_span(0),
                        TraceErrorKind::BadArity {
                            directive: "resync",
                            expected: "no arguments",
                        },
                    ));
                }
                CtrlEvent::Resync
            }
            other => {
                return Err(err(
                    dspan,
                    TraceErrorKind::UnknownDirective(other.to_string()),
                ));
            }
        };
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn parses_a_full_trace() {
        let topo = ClosConfig::small().build();
        let text = "\
# a recorded incident
down L1 T1

elp-add H1 T1 L2 T2 H5   # operator pins a detour
up L1 T1
resync
";
        let events = parse_trace(&topo, text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].label(), "link-down");
        assert_eq!(events[1].label(), "elp-add");
        assert_eq!(events[2].label(), "link-up");
        assert_eq!(events[3], CtrlEvent::Resync);
        match (&events[0], &events[2]) {
            (CtrlEvent::LinkDown(d), CtrlEvent::LinkUp(u)) => assert_eq!(d, u),
            _ => unreachable!(),
        }
    }

    #[test]
    fn flap_expands_to_down_up_pairs() {
        let topo = ClosConfig::small().build();
        let events = parse_trace(&topo, "flap L1 T1 3").unwrap();
        let pair = parse_trace(&topo, "down L1 T1\nup L1 T1").unwrap();
        assert_eq!(events.len(), 6);
        let expanded: Vec<CtrlEvent> = std::iter::repeat_with(|| pair.clone())
            .take(3)
            .flatten()
            .collect();
        assert_eq!(events, expanded);

        let e = parse_trace(&topo, "flap L1 T1").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
        let e = parse_trace(&topo, "flap L1 T1 many").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
        let e = parse_trace(&topo, "flap L1 XX 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::Link(_)));
    }

    #[test]
    fn trace_line_round_trips_every_event_kind() {
        let topo = ClosConfig::small().build();
        let text = "down L1 T1\nup L1 T1\nelp-add H1 T1 L2 T2 H5\nelp-remove H1 T1 L2 T2 H5\nwatchdog L1 2 2\nwatchdog L1 2 2 via S1 1 2\nwatchdog-clear L1 2 2\nresync";
        let events = parse_trace(&topo, text).unwrap();
        for e in &events {
            let line = e.trace_line(&topo);
            let back = parse_trace(&topo, &line).unwrap();
            assert_eq!(&back[..], std::slice::from_ref(e), "round trip of {line:?}");
        }
    }

    #[test]
    fn watchdog_directives_parse_and_validate() {
        let topo = ClosConfig::small().build();
        let events = parse_trace(&topo, "watchdog L1 0 2\nwatchdog-clear L1 0 2").unwrap();
        let l1 = topo.expect_node("L1");
        assert_eq!(
            events[0],
            CtrlEvent::WatchdogTrip {
                switch: l1,
                port: PortId(0),
                tag: Tag(2),
                trigger: None,
            }
        );
        assert_eq!(events[0].label(), "watchdog-trip");
        assert_eq!(events[1].label(), "watchdog-clear");

        let e = parse_trace(&topo, "watchdog XX 0 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::UnknownNode(_)));
        let e = parse_trace(&topo, "watchdog L1 99 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::PortOutOfRange { .. }));
        assert!(e.to_string().contains("no port 99"));
        let e = parse_trace(&topo, "watchdog L1 zero 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
        let e = parse_trace(&topo, "watchdog L1 0").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
    }

    #[test]
    fn watchdog_via_parses_and_validates_the_trigger_hop() {
        let topo = ClosConfig::small().build();
        let events = parse_trace(&topo, "watchdog L1 0 2 via S1 1 2").unwrap();
        assert_eq!(
            events[0],
            CtrlEvent::WatchdogTrip {
                switch: topo.expect_node("L1"),
                port: PortId(0),
                tag: Tag(2),
                trigger: Some(TriggerInfo {
                    switch: topo.expect_node("S1"),
                    port: PortId(1),
                    tag: Tag(2),
                }),
            }
        );

        // The trigger hop is validated as strictly as the victim hop.
        let e = parse_trace(&topo, "watchdog L1 0 2 via XX 1 2").unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::UnknownNode("XX".into()));
        let e = parse_trace(&topo, "watchdog L1 0 2 via S1 99 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::PortOutOfRange { .. }));
        // A junk connective or a truncated suffix is an arity error.
        let e = parse_trace(&topo, "watchdog L1 0 2 thru S1 1 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
        let e = parse_trace(&topo, "watchdog L1 0 2 via S1 1").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
        // `watchdog-clear` never carries attribution.
        let e = parse_trace(&topo, "watchdog-clear L1 0 2 via S1 1 2").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));
    }

    #[test]
    fn reports_offending_line_numbers() {
        let topo = ClosConfig::small().build();
        let e = parse_trace(&topo, "down L1 T1\nfrobnicate\n").unwrap_err();
        assert_eq!(e.span, Span::new(2, 1, "frobnicate".len()));
        assert_eq!(
            e.kind,
            TraceErrorKind::UnknownDirective("frobnicate".into())
        );

        let e = parse_trace(&topo, "down L1 XX").unwrap_err();
        assert_eq!(e.span, Span::new(1, 9, 2), "span points at the typo'd name");
        assert!(matches!(e.kind, TraceErrorKind::Link(_)));

        let e = parse_trace(&topo, "down L1").unwrap_err();
        assert_eq!(
            e.span,
            Span::new(1, 1, 4),
            "arity errors blame the directive"
        );
        assert!(matches!(e.kind, TraceErrorKind::BadArity { .. }));

        // T1 and S1 are not adjacent in a 3-layer Clos.
        let e = parse_trace(&topo, "elp-add H1 T1 S1").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::Path(..)));
        assert_eq!(e.span, Span::new(1, 15, 2), "span points at the bad hop");
        assert!(
            e.to_string().contains("T1") && e.to_string().contains("S1"),
            "diagnostic must use the names the trace used: {e}"
        );
    }

    #[test]
    fn spans_survive_comments_and_indentation() {
        let topo = ClosConfig::small().build();
        // The error column must index into the raw line, comment and all.
        let e = parse_trace(&topo, "  watchdog L1 99 2  # tripped\n").unwrap_err();
        assert!(matches!(e.kind, TraceErrorKind::PortOutOfRange { .. }));
        assert_eq!(e.span, Span::new(1, 15, 2), "span points at the port token");

        let e = parse_trace(&topo, "elp-add H1 T1 NOPE T2 H5").unwrap_err();
        assert_eq!(e.kind, TraceErrorKind::UnknownNode("NOPE".into()));
        assert_eq!(e.span, Span::new(1, 15, 4));
    }
}
