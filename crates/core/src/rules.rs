//! Per-switch match-action rules and the [`Tagging`] bundle.
//!
//! A tagged graph is a specification; switches execute *rules*: match on
//! `(tag, ingress port, egress port)`, rewrite the tag (paper §7, Fig. 7).
//! A packet that matches no rule has left the ELP and falls through to the
//! TCAM's final safeguard entry: it is demoted to the lossy class
//! ([`TagDecision::Lossy`]) so it can never trigger PFC.

use crate::span::{spanned_words, Span};
use crate::turn::{turn_key, TurnMap};
use crate::{Elp, Tag, TaggedGraph, TaggedNode, VerifyError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tagger_topo::{GlobalPort, NodeId, NodeKind, PortId, Topology};

/// One match-action rule on one switch: packets arriving on `in_port`
/// carrying `tag`, about to leave via `out_port`, are rewritten to
/// `new_tag`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SwitchRule {
    /// Matched tag.
    pub tag: Tag,
    /// Matched ingress port.
    pub in_port: PortId,
    /// Matched egress port.
    pub out_port: PortId,
    /// Replacement tag.
    pub new_tag: Tag,
}

/// The verdict for a packet at a switch: stay lossless with a (possibly
/// rewritten) tag, or fall to the lossy class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagDecision {
    /// Forward losslessly, carrying this tag (enqueue at the egress queue
    /// of this tag's priority — the Fig. 8 transition handling).
    Lossless(Tag),
    /// No rule matched: the packet left the ELP. Enqueue lossy; never
    /// send PFC on its behalf.
    Lossy,
}

/// Errors from rule derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleError {
    /// Two graph edges compile to the same `(switch, tag, in, out)` match
    /// with different rewrites. The graph is ambiguous as a rule program.
    Conflict {
        /// Switch holding the conflicting rules.
        switch: NodeId,
        /// The two conflicting rules.
        rules: (SwitchRule, SwitchRule),
    },
    /// An ELP path escaped the lossless rules at the given hop — the rule
    /// set does not cover the ELP it was supposed to protect.
    ElpNotLossless {
        /// Index of the path in the ELP.
        path_index: usize,
        /// Hop at which the packet was demoted (0-based).
        hop: usize,
    },
    /// A walk of the structural certificate
    /// ([`crate::clos::check_bounce_walks_lossless`]) met no rule: the
    /// rule set does not cover every path of the ELP that walk stands for.
    WalkNotLossless {
        /// Switch the walk was demoted at.
        switch: NodeId,
        /// The `(tag, in port, out port)` key that matched no rule.
        rule: (Tag, PortId, PortId),
        /// Bounces the walk would have taken after this hop.
        bounces: usize,
    },
    /// The induced tagged graph failed deadlock-freedom verification.
    NotDeadlockFree(VerifyError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Conflict { switch, rules } => write!(
                f,
                "conflicting rules on switch {switch}: {:?} vs {:?}",
                rules.0, rules.1
            ),
            RuleError::ElpNotLossless { path_index, hop } => {
                write!(f, "ELP path #{path_index} demoted to lossy at hop {hop}")
            }
            RuleError::WalkNotLossless {
                switch,
                rule: (tag, in_port, out_port),
                bounces,
            } => write!(
                f,
                "a {bounces}-bounce walk is demoted to lossy at switch {switch} \
                 (tag {}, in port {}, out port {})",
                tag.0, in_port.0, out_port.0
            ),
            RuleError::NotDeadlockFree(e) => write!(f, "not deadlock-free: {e}"),
        }
    }
}

impl std::error::Error for RuleError {}

/// Why a rule-table install on one switch failed — the error taxonomy a
/// control plane's southbound layer speaks.
///
/// The key property retries lean on: applying a [`RuleDelta`] is
/// *idempotent* (withdrawing an absent rule is a no-op, installing an
/// existing one overwrites in place), so after any of these errors the
/// installer may simply re-send the same delta; a switch that ends up
/// acking has exactly the delta applied, no matter how many partial or
/// unacknowledged attempts preceded it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// The switch rejected the update outright; no operations from the
    /// delta were applied.
    Refused,
    /// The switch did not acknowledge within the deadline. The delta may
    /// or may not have been applied — the installer must assume nothing
    /// and retry (safe by idempotence) or reconcile.
    Timeout,
    /// The switch applied only the first `applied_ops` operations
    /// (withdrawals first, then installs — [`RuleSet::apply_delta`]
    /// order) before failing, leaving its table in a known intermediate
    /// state.
    PartialApply {
        /// Operations applied before the failure, in delta order.
        applied_ops: usize,
    },
    /// The switch's table has no room for the installs in the delta.
    /// Retrying without shrinking the table cannot succeed.
    TableFull {
        /// The hardware table capacity, in rules.
        capacity: usize,
    },
}

impl InstallError {
    /// True if retrying the same delta can possibly succeed. Transient
    /// faults are retryable; a full table is not.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, InstallError::TableFull { .. })
    }
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Refused => write!(f, "switch refused the update"),
            InstallError::Timeout => write!(f, "install timed out (apply state unknown)"),
            InstallError::PartialApply { applied_ops } => {
                write!(f, "partial apply: only {applied_ops} operation(s) landed")
            }
            InstallError::TableFull { capacity } => {
                write!(f, "table full (capacity {capacity} rules)")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// One switch's rule-table update: the difference between two deployed
/// [`RuleSet`]s, as shipped by an incremental control plane. A rule whose
/// match key survives but whose `new_tag` changes appears as a
/// remove-then-add pair, mirroring how a TCAM entry would be reinstalled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleDelta {
    /// The switch whose table changes.
    pub switch: NodeId,
    /// Rules to install.
    pub add: Vec<SwitchRule>,
    /// Rules to withdraw.
    pub remove: Vec<SwitchRule>,
}

impl RuleDelta {
    /// Number of table operations (installs + withdrawals) this delta
    /// performs — the churn figure compared against a full reinstall.
    pub fn len(&self) -> usize {
        self.add.len() + self.remove.len()
    }

    /// True if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }

    /// The delta that undoes this one: every install becomes a
    /// withdrawal and vice versa. Applying a delta and then its inverse
    /// restores the original table (withdrawals replay in apply order, so
    /// a remove-then-add rewrite pair inverts cleanly).
    pub fn inverse(&self) -> RuleDelta {
        RuleDelta {
            switch: self.switch,
            add: self.remove.clone(),
            remove: self.add.clone(),
        }
    }

    /// The delta's operations in apply order (withdrawals, then
    /// installs), as `(is_install, rule)` pairs — the granularity a
    /// partial apply is expressed in.
    pub fn ops(&self) -> impl Iterator<Item = (bool, SwitchRule)> + '_ {
        self.remove
            .iter()
            .map(|&r| (false, r))
            .chain(self.add.iter().map(|&r| (true, r)))
    }
}

/// The complete rule program: per-switch exact-match tables plus the
/// implicit lossy fallback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    per_switch: BTreeMap<NodeId, BTreeMap<(Tag, PortId, PortId), Tag>>,
}

impl RuleSet {
    /// Creates an empty rule set (everything lossy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule; returns an error if it conflicts with an existing rule
    /// on the same switch.
    pub fn add(&mut self, switch: NodeId, rule: SwitchRule) -> Result<(), RuleError> {
        let key = (rule.tag, rule.in_port, rule.out_port);
        let table = self.per_switch.entry(switch).or_default();
        match table.get(&key) {
            None => {
                table.insert(key, rule.new_tag);
                Ok(())
            }
            Some(&existing) if existing == rule.new_tag => Ok(()),
            Some(&existing) => Err(RuleError::Conflict {
                switch,
                rules: (
                    SwitchRule {
                        new_tag: existing,
                        ..rule
                    },
                    rule,
                ),
            }),
        }
    }

    /// Compiles a tagged graph into rules: each edge
    /// `(A_i, x) → (B_j, y)` becomes the rule `(x, i, out(A→B_j)) → y` on
    /// switch `A`. Host-side sources contribute no rules (hosts inject
    /// packets with [`Tag::INITIAL`]).
    pub fn from_graph(topo: &Topology, g: &TaggedGraph) -> Result<RuleSet, RuleError> {
        let mut rs = RuleSet::new();
        for rule in Self::graph_rules(topo, g) {
            rs.add(rule.0, rule.1)?;
        }
        Ok(rs)
    }

    /// Like [`RuleSet::from_graph`], but when a merged graph compiles two
    /// edges to the same rule key with different rewrites, keeps the
    /// *smaller* new tag instead of failing. The resulting rules may not
    /// cover every ELP path; [`Tagging::from_elp`] repairs that.
    pub fn from_graph_resolving(topo: &Topology, g: &TaggedGraph) -> RuleSet {
        let mut rs = RuleSet::new();
        for (sw, rule) in Self::graph_rules(topo, g) {
            let key = (rule.tag, rule.in_port, rule.out_port);
            let table = rs.per_switch.entry(sw).or_default();
            match table.get(&key) {
                Some(&existing) if existing <= rule.new_tag => {}
                _ => {
                    table.insert(key, rule.new_tag);
                }
            }
        }
        rs
    }

    fn graph_rules<'a>(
        topo: &'a Topology,
        g: &'a TaggedGraph,
    ) -> impl Iterator<Item = (NodeId, SwitchRule)> + 'a {
        // Every edge source is a forwarding action and compiles to a rule
        // on that node — including *hosts* in server-centric fabrics like
        // BCube, where intermediate servers forward and rewrite tags in
        // software. Pure-sink host nodes have no out-edges, hence no
        // rules; packet injection needs no rule either (hosts inject with
        // `Tag::INITIAL`).
        g.edges().map(move |&(a, b)| {
            let egress = topo
                .peer_of(b.port)
                .expect("edge target port must be wired");
            assert_eq!(
                egress.node, a.port.node,
                "edge endpoints must be adjacent: {a:?} -> {b:?}"
            );
            (
                a.port.node,
                SwitchRule {
                    tag: a.tag,
                    in_port: a.port.port,
                    out_port: egress.port,
                    new_tag: b.tag,
                },
            )
        })
    }

    /// Inserts or overwrites a rule without conflict checking. Used by the
    /// ELP repair loop, which only ever fills in *missing* keys.
    pub fn set(&mut self, switch: NodeId, rule: SwitchRule) {
        self.per_switch
            .entry(switch)
            .or_default()
            .insert((rule.tag, rule.in_port, rule.out_port), rule.new_tag);
    }

    /// Computes the closure graph of everything these rules can express:
    /// starting from packets injected with [`Tag::INITIAL`] at every
    /// host-facing switch port (plus any extra seed nodes), repeatedly
    /// applies every matching rule over every egress. A packet in the
    /// network can only ever traverse edges of this graph — verifying it
    /// therefore certifies deadlock freedom under *any* routing, including
    /// loops and failures, not just the ELP.
    pub fn closure_graph(
        &self,
        topo: &Topology,
        extra_seeds: impl IntoIterator<Item = TaggedNode>,
    ) -> TaggedGraph {
        let mut g = TaggedGraph::new();
        let mut work: Vec<TaggedNode> = Vec::new();
        // Seeds: host-adjacent switch ingress ports at the initial tag.
        for sw in topo.switch_ids() {
            for (port, _, peer) in topo.neighbors(sw) {
                if topo.node(peer).kind == NodeKind::Host {
                    work.push(TaggedNode {
                        port: tagger_topo::GlobalPort::new(sw, port),
                        tag: Tag::INITIAL,
                    });
                }
            }
        }
        work.extend(extra_seeds);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(node) = work.pop() {
            if !seen.insert(node) {
                continue;
            }
            g.add_node(node);
            // Follow rules at any node kind: forwarding hosts (BCube
            // servers) carry rules too; pure sinks have none and the walk
            // terminates there naturally.
            let sw = node.port.node;
            for (out_port, _, _) in topo.neighbors(sw) {
                if let TagDecision::Lossless(new_tag) =
                    self.decide(sw, node.tag, node.port.port, out_port)
                {
                    let to = topo
                        .peer_of(tagger_topo::GlobalPort::new(sw, out_port))
                        .expect("wired");
                    let next = TaggedNode {
                        port: to,
                        tag: new_tag,
                    };
                    g.add_edge(node, next);
                    work.push(next);
                }
            }
        }
        g
    }

    /// The forwarding decision for a lossless packet at `switch`.
    pub fn decide(
        &self,
        switch: NodeId,
        tag: Tag,
        in_port: PortId,
        out_port: PortId,
    ) -> TagDecision {
        match self
            .per_switch
            .get(&switch)
            .and_then(|t| t.get(&(tag, in_port, out_port)))
        {
            Some(&new_tag) => TagDecision::Lossless(new_tag),
            None => TagDecision::Lossy,
        }
    }

    /// All rules on one switch, sorted by `(tag, in, out)`.
    pub fn rules_for(&self, switch: NodeId) -> Vec<SwitchRule> {
        self.per_switch
            .get(&switch)
            .map(|t| {
                t.iter()
                    .map(|(&(tag, in_port, out_port), &new_tag)| SwitchRule {
                        tag,
                        in_port,
                        out_port,
                        new_tag,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total rule count across all switches (before TCAM compression).
    pub fn num_rules(&self) -> usize {
        self.per_switch.values().map(BTreeMap::len).sum()
    }

    /// Largest rule count on any single switch — the TCAM-budget figure
    /// reported in the paper's Table 5.
    pub fn max_rules_per_switch(&self) -> usize {
        self.per_switch
            .values()
            .map(BTreeMap::len)
            .max()
            .unwrap_or(0)
    }

    /// Switches that carry at least one rule.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_switch.keys().copied()
    }

    /// Rule count on one switch (0 if the switch carries no rules) — the
    /// cost of a full-table reinstall there.
    pub fn table_size(&self, switch: NodeId) -> usize {
        self.per_switch.get(&switch).map_or(0, BTreeMap::len)
    }

    /// Removes a rule if present (match key *and* rewrite must agree);
    /// returns whether anything was removed. Empty per-switch tables are
    /// dropped so `self` compares equal to a set that never knew the
    /// switch.
    pub fn remove(&mut self, switch: NodeId, rule: SwitchRule) -> bool {
        let key = (rule.tag, rule.in_port, rule.out_port);
        let Some(table) = self.per_switch.get_mut(&switch) else {
            return false;
        };
        let removed = match table.get(&key) {
            Some(&new_tag) if new_tag == rule.new_tag => {
                table.remove(&key);
                true
            }
            _ => false,
        };
        if table.is_empty() {
            self.per_switch.remove(&switch);
        }
        removed
    }

    /// The per-switch deltas transforming `self` into `target`, sorted by
    /// switch id; switches whose tables are identical emit nothing. A key
    /// present in both with a different rewrite becomes remove-then-add.
    ///
    /// `apply_delta`ing every returned delta onto a clone of `self` yields
    /// exactly `target` — the property an incremental control plane relies
    /// on when it ships deltas instead of full tables.
    pub fn diff(&self, target: &RuleSet) -> Vec<RuleDelta> {
        let switches: BTreeSet<NodeId> = self
            .per_switch
            .keys()
            .chain(target.per_switch.keys())
            .copied()
            .collect();
        let empty = BTreeMap::new();
        let mut deltas = Vec::new();
        for switch in switches {
            let old = self.per_switch.get(&switch).unwrap_or(&empty);
            let new = target.per_switch.get(&switch).unwrap_or(&empty);
            let mut delta = RuleDelta {
                switch,
                add: Vec::new(),
                remove: Vec::new(),
            };
            for (&(tag, in_port, out_port), &new_tag) in old {
                if new.get(&(tag, in_port, out_port)) != Some(&new_tag) {
                    delta.remove.push(SwitchRule {
                        tag,
                        in_port,
                        out_port,
                        new_tag,
                    });
                }
            }
            for (&(tag, in_port, out_port), &new_tag) in new {
                if old.get(&(tag, in_port, out_port)) != Some(&new_tag) {
                    delta.add.push(SwitchRule {
                        tag,
                        in_port,
                        out_port,
                        new_tag,
                    });
                }
            }
            if !delta.is_empty() {
                deltas.push(delta);
            }
        }
        deltas
    }

    /// Applies one switch's delta: withdrawals first, then installs —
    /// the order a remove-then-add rewrite change requires.
    pub fn apply_delta(&mut self, delta: &RuleDelta) {
        for &rule in &delta.remove {
            self.remove(delta.switch, rule);
        }
        for &rule in &delta.add {
            self.set(delta.switch, rule);
        }
    }

    /// Largest `new_tag` reachable through any rule, or `None` if empty.
    pub fn max_tag(&self) -> Option<Tag> {
        self.per_switch
            .values()
            .flat_map(|t| t.values().copied().chain(t.keys().map(|k| k.0)))
            .max()
    }

    /// Every rule in the set as `(switch, rule)` pairs, ordered by
    /// switch id then `(tag, in, out)` — the iteration order external
    /// verification tooling audits tables in.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SwitchRule)> + '_ {
        self.per_switch.iter().flat_map(|(&sw, table)| {
            table
                .iter()
                .map(move |(&(tag, in_port, out_port), &new_tag)| {
                    (
                        sw,
                        SwitchRule {
                            tag,
                            in_port,
                            out_port,
                            new_tag,
                        },
                    )
                })
        })
    }

    /// Serializes the tables as plain text, resolving ports to the names
    /// of the neighbours they face so the dump is readable and stable
    /// across port renumberings:
    ///
    /// ```text
    /// switch L1
    /// rule <tag> <in-neighbour> <out-neighbour> <new-tag>
    /// ```
    ///
    /// Round-trips through [`RuleSet::from_table_text`] on the same
    /// topology.
    pub fn to_table_text(&self, topo: &Topology) -> String {
        let peer_name = |sw: NodeId, port: PortId| -> String {
            match topo.peer_of(tagger_topo::GlobalPort::new(sw, port)) {
                Some(gp) => topo.node(gp.node).name.clone(),
                None => format!("#{}", port.0),
            }
        };
        let mut out = String::new();
        for sw in self.switches() {
            out.push_str(&format!("switch {}\n", topo.node(sw).name));
            for r in self.rules_for(sw) {
                out.push_str(&format!(
                    "rule {} {} {} {}\n",
                    r.tag.0,
                    peer_name(sw, r.in_port),
                    peer_name(sw, r.out_port),
                    r.new_tag.0
                ));
            }
        }
        out
    }

    /// Parses tables serialized by [`RuleSet::to_table_text`]. Lines
    /// starting with `#` and blank lines are ignored. Unknown switch or
    /// neighbour names, a port index the switch does not have, or a
    /// `rule` line outside a `switch` block, are errors; the first one
    /// is returned with the exact span of the offending token. When a
    /// match key appears twice, the later line wins (last-write-wins) —
    /// [`RuleSet::parse_table_text_lenient`] exposes the duplicates for
    /// tooling that wants to flag them.
    pub fn from_table_text(topo: &Topology, text: &str) -> Result<RuleSet, TableTextError> {
        let parse = Self::parse_table_text_lenient(topo, text);
        if let Some(e) = parse.errors.into_iter().next() {
            return Err(e);
        }
        let mut rs = RuleSet::new();
        for sr in parse.rules {
            rs.set(sr.switch, sr.rule);
        }
        Ok(rs)
    }

    /// The lint-grade table-text parser: keeps going past errors,
    /// records a [`Span`] for every parsed rule line and every failure,
    /// and preserves file order (so duplicate match keys are visible —
    /// [`RuleSet::from_table_text`] resolves them last-write-wins, a
    /// first-match TCAM would resolve them the other way around).
    ///
    /// Rule lines inside a `switch` block whose name failed to resolve
    /// are swallowed (one error for the header, not one per rule).
    pub fn parse_table_text_lenient(topo: &Topology, text: &str) -> TableTextParse {
        let mut out = TableTextParse {
            rules: Vec::new(),
            errors: Vec::new(),
        };
        // None: no switch header yet; Some(None): header seen but its
        // name did not resolve (swallow the section); Some(Some(sw)): ok.
        let mut current: Option<Option<NodeId>> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<(usize, &str)> = spanned_words(raw).collect();
            let err = |out: &mut TableTextParse, (col, tok): (usize, &str), kind| {
                out.errors.push(TableTextError {
                    span: Span::new(lineno, col, tok.len()),
                    kind,
                });
            };
            match words[0].1 {
                "switch" => {
                    let Some(&name) = words.get(1) else {
                        err(&mut out, words[0], TableTextErrorKind::SwitchWithoutName);
                        current = Some(None);
                        continue;
                    };
                    match topo.node_by_name(name.1) {
                        Some(sw) => current = Some(Some(sw)),
                        None => {
                            let kind = TableTextErrorKind::UnknownSwitch(name.1.to_string());
                            err(&mut out, name, kind);
                            current = Some(None);
                        }
                    }
                }
                "rule" => {
                    let sw = match current {
                        None => {
                            err(&mut out, words[0], TableTextErrorKind::RuleBeforeSwitch);
                            continue;
                        }
                        Some(None) => continue, // section header already errored
                        Some(Some(sw)) => sw,
                    };
                    if words.len() != 5 {
                        let kind = TableTextErrorKind::RuleArity(words.len() - 1);
                        err(&mut out, words[0], kind);
                        continue;
                    }
                    let bad = |what, w: (usize, &str)| TableTextErrorKind::BadNumber {
                        what,
                        token: w.1.to_string(),
                    };
                    let num = |out: &mut TableTextParse, w: (usize, &str), what| {
                        let v: Option<u16> = w.1.parse().ok();
                        if v.is_none() {
                            err(out, w, bad(what, w));
                        }
                        v
                    };
                    let port = |out: &mut TableTextParse, w: (usize, &str)| -> Option<PortId> {
                        if let Some(n) = w.1.strip_prefix('#') {
                            let Ok(port) = n.parse::<u16>() else {
                                err(out, w, bad("port", w));
                                return None;
                            };
                            if port as usize >= topo.node(sw).num_ports() {
                                let switch = topo.node(sw).name.clone();
                                err(out, w, TableTextErrorKind::NoSuchPort { switch, port });
                                return None;
                            }
                            return Some(PortId(port));
                        }
                        let Some(peer) = topo.node_by_name(w.1) else {
                            err(
                                out,
                                w,
                                TableTextErrorKind::UnknownNeighbour(w.1.to_string()),
                            );
                            return None;
                        };
                        let towards = topo.port_towards(sw, peer);
                        if towards.is_none() {
                            let kind = TableTextErrorKind::NotAdjacent {
                                switch: topo.node(sw).name.clone(),
                                neighbour: w.1.to_string(),
                            };
                            err(out, w, kind);
                        }
                        towards
                    };
                    let tag = num(&mut out, words[1], "tag");
                    let in_port = port(&mut out, words[2]);
                    let out_port = port(&mut out, words[3]);
                    let new_tag = num(&mut out, words[4], "new-tag");
                    let (Some(tag), Some(in_port), Some(out_port), Some(new_tag)) =
                        (tag, in_port, out_port, new_tag)
                    else {
                        continue;
                    };
                    let last = words[words.len() - 1];
                    out.rules.push(SpannedRule {
                        switch: sw,
                        rule: SwitchRule {
                            tag: Tag(tag),
                            in_port,
                            out_port,
                            new_tag: Tag(new_tag),
                        },
                        span: Span::new(lineno, words[0].0, last.0 + last.1.len() - words[0].0),
                    });
                }
                _ => err(
                    &mut out,
                    words[0],
                    TableTextErrorKind::Unrecognized(line.to_string()),
                ),
            }
        }
        out
    }
}

/// One rule as it appeared in a table-text dump, with the span of its
/// `rule` line — the coordinates lint diagnostics point at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpannedRule {
    /// The switch the enclosing `switch` block named.
    pub switch: NodeId,
    /// The parsed rule.
    pub rule: SwitchRule,
    /// Span of the whole `rule ...` line content.
    pub span: Span,
}

/// Everything a lenient table-text parse recovered: the rules in file
/// order (duplicates included) plus every malformed line.
#[derive(Clone, Debug, Default)]
pub struct TableTextParse {
    /// Successfully parsed rules, in file order.
    pub rules: Vec<SpannedRule>,
    /// Malformed lines, in file order.
    pub errors: Vec<TableTextError>,
}

/// A malformed line in a [`RuleSet::from_table_text`] dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableTextError {
    /// Where the offending token sits.
    pub span: Span,
    /// What was wrong with it.
    pub kind: TableTextErrorKind,
}

/// What was wrong with a table-text line; `Display` is the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableTextErrorKind {
    /// A `switch` line with no name after it.
    SwitchWithoutName,
    /// A `switch` line naming no node of the topology.
    UnknownSwitch(String),
    /// A `rule` line above every `switch` line.
    RuleBeforeSwitch,
    /// A `rule` line without exactly four arguments (the count given).
    RuleArity(usize),
    /// A tag, new tag or `#port` index that is not a `u16`.
    BadNumber {
        /// `tag`, `new-tag` or `port`.
        what: &'static str,
        /// The token as written.
        token: String,
    },
    /// A `#port` index past the switch's last port.
    NoSuchPort {
        /// The switch's name.
        switch: String,
        /// The index as written.
        port: u16,
    },
    /// A neighbour name that is no node of the topology.
    UnknownNeighbour(String),
    /// A neighbour the switch has no port towards.
    NotAdjacent {
        /// The switch's name.
        switch: String,
        /// The neighbour as written.
        neighbour: String,
    },
    /// A line that is neither `switch` nor `rule` (trimmed).
    Unrecognized(String),
}

impl fmt::Display for TableTextErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TableTextErrorKind as K;
        match self {
            K::SwitchWithoutName => write!(f, "switch wants a node name"),
            K::UnknownSwitch(name) => write!(f, "unknown switch {name:?}"),
            K::RuleBeforeSwitch => write!(f, "rule before any switch line"),
            K::RuleArity(n) => write!(
                f,
                "rule wants <tag> <in> <out> <new-tag>, got {n} argument(s)"
            ),
            K::BadNumber { what, token } => write!(f, "bad {what} {token:?}"),
            K::NoSuchPort { switch, port } => write!(f, "{switch} has no port {port}"),
            K::UnknownNeighbour(name) => write!(f, "unknown neighbour {name:?}"),
            K::NotAdjacent { switch, neighbour } => {
                write!(f, "{switch} has no port towards {neighbour}")
            }
            K::Unrecognized(line) => write!(f, "unrecognized line {line:?}"),
        }
    }
}

impl fmt::Display for TableTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table text line {}: {}", self.span, self.kind)
    }
}

impl std::error::Error for TableTextError {}

/// A complete tagging scheme: the verified graph plus the compiled rules.
///
/// This is what gets "deployed": the graph is the deadlock-freedom
/// certificate, the rules are what switches execute.
#[derive(Clone, Debug)]
pub struct Tagging {
    graph: TaggedGraph,
    rules: RuleSet,
    repairs: usize,
    used_fallback: bool,
}

impl Tagging {
    /// Bundles a graph and its rules. Verifies the graph.
    pub fn new(graph: TaggedGraph, rules: RuleSet) -> Result<Self, RuleError> {
        graph.verify().map_err(RuleError::NotDeadlockFree)?;
        Ok(Tagging {
            graph,
            rules,
            repairs: 0,
            used_fallback: false,
        })
    }

    /// The full pipeline over an ELP:
    ///
    /// 1. Algorithm 1 (brute-force tagging), Algorithm 2 (greedy merge);
    /// 2. rule compilation with min-resolution of merge ambiguities;
    /// 3. one *repair sweep*: simulate every ELP path through the rules,
    ///    and wherever a path falls off the lossless rules (possible
    ///    because the published Algorithm 2 does not guarantee rule
    ///    determinism — see `DESIGN.md`), add the missing rule, steering
    ///    the packet back onto its greedy-assigned trajectory. A repair
    ///    only fills a key the sweep found missing and never overwrites
    ///    one, so a second sweep would retrace the first hop for hop and
    ///    repair nothing: one sweep is the fixpoint;
    /// 4. certification: the closure of everything the final rules can
    ///    express is verified against Theorem 5.1. If that ever fails,
    ///    fall back to the always-safe brute-force tagging
    ///    ([`Tagging::used_fallback`] reports it);
    /// 5. losslessness: a repair sweep that added nothing decided every
    ///    ELP hop `Lossless` under the final rules, so it *was*
    ///    [`Tagging::check_elp_lossless`]. The check runs as its own sweep
    ///    only when rules were added, or the fallback replaced them.
    pub fn from_elp(topo: &Topology, elp: &Elp) -> Result<Self, RuleError> {
        let brute = crate::tag_by_hop_count(topo, elp);
        let assignment = crate::algorithm2::greedy_assignment(topo, &brute);
        let merged = crate::algorithm2::apply_assignment(&brute, &assignment);
        let mut rules = RuleSet::from_graph_resolving(topo, &merged);
        let repairs = repair_sweep(topo, elp, &assignment, &mut rules);

        // Certify the closure of the final rules.
        let closure = rules.closure_graph(topo, first_hop_seeds(topo, elp));
        let t = match closure.verify() {
            Ok(()) => Tagging {
                graph: closure,
                rules,
                repairs,
                used_fallback: false,
            },
            Err(_) => {
                // Safe fallback: the brute-force tagging is deterministic
                // (new tag = old tag + 1 everywhere), so strict rule
                // compilation cannot conflict, and its closure is
                // monotone-by-hop-count hence acyclic per tag.
                let rules = RuleSet::from_graph(topo, &brute)?;
                let closure = rules.closure_graph(topo, first_hop_seeds(topo, elp));
                closure.verify().map_err(RuleError::NotDeadlockFree)?;
                Tagging {
                    graph: closure,
                    rules,
                    repairs,
                    used_fallback: true,
                }
            }
        };
        if repairs > 0 || t.used_fallback {
            t.check_elp_lossless(topo, elp)?;
        }
        Ok(t)
    }

    /// How many repair rules the repair sweep had to add (0 when the
    /// greedy merge compiled cleanly).
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// True if certification failed on the merged scheme and the
    /// brute-force tagging was deployed instead.
    pub fn used_fallback(&self) -> bool {
        self.used_fallback
    }

    /// The deadlock-freedom certificate.
    pub fn graph(&self) -> &TaggedGraph {
        &self.graph
    }

    /// The compiled rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Number of lossless priorities consumed at switches.
    pub fn num_lossless_tags_on(&self, topo: &Topology) -> usize {
        self.graph.num_lossless_tags(topo)
    }

    /// Simulates every ELP path through the rules and checks that no hop
    /// is demoted to lossy: the losslessness half of Tagger's guarantee.
    pub fn check_elp_lossless(&self, topo: &Topology, elp: &Elp) -> Result<(), RuleError> {
        sweep_rules(topo, elp, |at, here, tag, _, out_port| {
            match self.rules.decide(here.node, tag, here.port, out_port) {
                TagDecision::Lossless(t) => Ok(t),
                // The first path through the hop is the one a walk of
                // the paths in order would have been on; its first hop
                // crosses no switch.
                TagDecision::Lossy => Err(RuleError::ElpNotLossless {
                    path_index: elp.tree().first_path_through(at),
                    hop: elp.tree().depth(at) - 2,
                }),
            }
        })
    }

    /// Takes the tagging apart into its certificate graph and its rules.
    pub fn into_parts(self) -> (TaggedGraph, RuleSet) {
        (self.graph, self.rules)
    }
}

/// Simulates every ELP path through a rule program, as one sweep of the
/// ELP's tree: a packet enters its first hop with [`Tag::INITIAL`], and at
/// each later node `decide(at, here, tag, next, out_port)` gives the tag it
/// leaves with, where it arrived on ingress port `here` carrying `tag` and
/// leaves by `out_port` towards ingress port `next`, the hop that ends at
/// tree node `at`.
///
/// `decide` is asked once per distinct turn and tag: its answer is kept
/// and given to every later hop that takes the same turn with the same
/// tag. That is sound as long as `decide` would not change an answer it
/// has given, which holds for a fixed rule set and for the repair sweep,
/// which only fills keys it found missing.
fn sweep_rules<E>(
    topo: &Topology,
    elp: &Elp,
    mut decide: impl FnMut(usize, GlobalPort, Tag, GlobalPort, PortId) -> Result<Tag, E>,
) -> Result<(), E> {
    let mut decided: TurnMap<Tag> = TurnMap::default();
    elp.tree().sweep(|at, before, here, next| {
        let Some((before, tag)) = before else {
            return Ok(Tag::INITIAL);
        };
        let key = turn_key(before, here, next, tag);
        if let Some(&t) = decided.get(&key) {
            return Ok(t);
        }
        let (egress, next) = topo.hop_ends(here, next);
        let t = decide(at, topo.hop_ends(before, here).1, tag, next, egress.port)?;
        decided.insert(key, t);
        Ok(t)
    })
}

/// One repair sweep over `elp`: wherever a path would fall off `rules` to
/// the lossy class, add the rule that steers it to the greedy-assigned tag
/// of its next hop (raised to at least the tag it carries, which keeps
/// rules monotone). Returns the number of rules added.
fn repair_sweep(
    topo: &Topology,
    elp: &Elp,
    assignment: &BTreeMap<TaggedNode, Tag>,
    rules: &mut RuleSet,
) -> usize {
    let mut repairs = 0usize;
    let Ok(()) = sweep_rules(topo, elp, |at, here, tag, next, out_port| {
        if let TagDecision::Lossless(t) = rules.decide(here.node, tag, here.port, out_port) {
            return Ok::<Tag, std::convert::Infallible>(t);
        }
        // The greedy-assigned tag of the next hop's original
        // (port, hop-count) node.
        let expected = assignment[&TaggedNode {
            port: next,
            tag: Tag(elp.tree().depth(at) as u16),
        }];
        let new_tag = expected.max(tag);
        rules.set(
            here.node,
            SwitchRule {
                tag,
                in_port: here.port,
                out_port,
                new_tag,
            },
        );
        repairs += 1;
        Ok(new_tag)
    });
    repairs
}

/// The closure seeds an ELP contributes: its paths' first-hop ingress
/// ports at the initial tag, one per first hop its tree stores.
fn first_hop_seeds<'a>(topo: &'a Topology, elp: &'a Elp) -> impl Iterator<Item = TaggedNode> + 'a {
    elp.tree().first_hops().map(|(src, next)| TaggedNode {
        port: topo.hop_ends(src, next).1,
        tag: Tag::INITIAL,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Elp;
    use tagger_routing::Path;
    use tagger_topo::ClosConfig;

    #[test]
    fn from_elp_pipeline_on_updown_clos() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 1);
        // Spot check: a packet on an up-down path keeps tag 1 at T1.
        let t1 = topo.expect_node("T1");
        let in_port = topo.port_towards(t1, topo.expect_node("H1")).unwrap();
        let out_port = topo.port_towards(t1, topo.expect_node("L1")).unwrap();
        assert_eq!(
            t.rules().decide(t1, Tag(1), in_port, out_port),
            TagDecision::Lossless(Tag(1))
        );
    }

    /// Half of BCube(2, 3)'s rotated routes: an ELP whose greedy merge
    /// needs 12 repairs (pinned in `tests/proptest_core.rs`).
    fn bcube_repair_case() -> (Topology, Elp) {
        let topo = tagger_topo::bcube(2, 3);
        let config = tagger_topo::BCubeConfig { n: 2, k: 3 };
        let paths = tagger_routing::bcube_paths(&config, &topo, true)
            .into_iter()
            .step_by(2)
            .collect();
        (topo, Elp::from_paths(paths))
    }

    #[test]
    fn one_repair_sweep_is_the_fixpoint() {
        let (topo, elp) = bcube_repair_case();
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        assert_eq!(t.repairs(), 12);
        assert!(!t.used_fallback());

        // The loop `from_elp` once ran: repair sweeps until one repairs
        // nothing.
        let brute = crate::tag_by_hop_count(&topo, &elp);
        let assignment = crate::algorithm2::greedy_assignment(&topo, &brute);
        let merged = crate::algorithm2::apply_assignment(&brute, &assignment);
        let mut reference = RuleSet::from_graph_resolving(&topo, &merged);
        let mut sweeps = Vec::new();
        loop {
            let repairs = repair_sweep(&topo, &elp, &assignment, &mut reference);
            sweeps.push(repairs);
            if repairs == 0 {
                break;
            }
        }
        assert_eq!(sweeps, [12, 0]);
        assert_eq!(t.rules(), &reference);

        // A further sweep over the final rules finds every hop lossless.
        let mut again = t.rules().clone();
        assert_eq!(repair_sweep(&topo, &elp, &assignment, &mut again), 0);
        assert_eq!(&again, t.rules());
        assert_eq!(t.check_elp_lossless(&topo, &elp), Ok(()));
    }

    #[test]
    fn off_elp_hop_is_demoted() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        // A bounce at L1 (in from S1, out to S2) is not in the up-down
        // ELP: lossy.
        let l1 = topo.expect_node("L1");
        let in_port = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let out_port = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
        assert_eq!(
            t.rules().decide(l1, Tag(1), in_port, out_port),
            TagDecision::Lossy
        );
    }

    #[test]
    fn elp_lossless_check_catches_missing_paths() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        // A 1-bounce path is not covered by the up-down tagging.
        let bouncy = Path::from_names(
            &topo,
            &["H9", "T3", "L3", "S1", "L1", "S2", "L2", "T1", "H1"],
        );
        let err = t
            .check_elp_lossless(&topo, &Elp::from_paths(vec![bouncy]))
            .unwrap_err();
        assert!(matches!(err, RuleError::ElpNotLossless { .. }));
    }

    #[test]
    fn one_bounce_elp_stays_lossless_end_to_end() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces(&topo, 1);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        // from_elp already checks; checking again is free.
        t.check_elp_lossless(&topo, &elp).unwrap();
        assert!(t.num_lossless_tags_on(&topo) <= 3);
    }

    #[test]
    fn conflicting_rules_are_rejected() {
        let topo = ClosConfig::small().build();
        let t1 = topo.expect_node("T1");
        let mut rs = RuleSet::new();
        let r = SwitchRule {
            tag: Tag(1),
            in_port: PortId(0),
            out_port: PortId(1),
            new_tag: Tag(1),
        };
        rs.add(t1, r).unwrap();
        rs.add(t1, r).unwrap(); // identical: fine
        let err = rs
            .add(
                t1,
                SwitchRule {
                    new_tag: Tag(2),
                    ..r
                },
            )
            .unwrap_err();
        assert!(matches!(err, RuleError::Conflict { .. }));
    }

    #[test]
    fn rule_counts_are_reported() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        assert!(t.rules().num_rules() > 0);
        assert!(t.rules().max_rules_per_switch() <= t.rules().num_rules());
        assert!(t.rules().max_tag().is_some());
    }

    #[test]
    fn closure_rejects_unsafe_single_priority_rules() {
        // Adversarial program: keep tag 1 across EVERY (in, out) pair of
        // every switch — bounces included. Its closure contains the
        // bounce CBD, and the Theorem 5.1 verifier must reject it.
        let topo = ClosConfig::small().build();
        let mut rs = RuleSet::new();
        for sw in topo.switch_ids() {
            let ports: Vec<_> = topo.neighbors(sw).map(|(p, _, _)| p).collect();
            for &i in &ports {
                for &o in &ports {
                    if i != o {
                        rs.add(
                            sw,
                            SwitchRule {
                                tag: Tag(1),
                                in_port: i,
                                out_port: o,
                                new_tag: Tag(1),
                            },
                        )
                        .unwrap();
                    }
                }
            }
        }
        let closure = rs.closure_graph(&topo, []);
        assert!(matches!(
            closure.verify(),
            Err(crate::VerifyError::CyclicTag(_, _))
        ));
        // The same machinery accepts the safe Clos program.
        let safe = crate::clos::clos_tagging(&topo, 1).unwrap();
        let safe_closure = safe.rules().closure_graph(&topo, []);
        safe_closure.verify().unwrap();
    }

    #[test]
    fn closure_contains_everything_the_elp_exercises() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown_with_bounces_capped(&topo, 1, 6);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        // Simulate each path and check every visited (port, tag) node is
        // in the certificate graph.
        for path in elp.paths() {
            let mut tag = Tag::INITIAL;
            let ingresses: Vec<_> = path.ingress_ports(&topo).collect();
            for (i, &ingress) in ingresses.iter().enumerate() {
                let node = crate::TaggedNode { port: ingress, tag };
                assert!(
                    t.graph().contains_node(&node),
                    "{node:?} missing from certificate"
                );
                if i + 1 < ingresses.len() {
                    let egress = topo.peer_of(ingresses[i + 1]).unwrap();
                    match t
                        .rules()
                        .decide(ingress.node, tag, ingress.port, egress.port)
                    {
                        TagDecision::Lossless(next) => tag = next,
                        TagDecision::Lossy => panic!("ELP path demoted"),
                    }
                }
            }
        }
    }

    fn rule(tag: u16, in_port: u16, out_port: u16, new_tag: u16) -> SwitchRule {
        SwitchRule {
            tag: Tag(tag),
            in_port: PortId(in_port),
            out_port: PortId(out_port),
            new_tag: Tag(new_tag),
        }
    }

    #[test]
    fn diff_of_identical_sets_is_empty() {
        let mut rs = RuleSet::new();
        rs.add(NodeId(3), rule(1, 0, 1, 2)).unwrap();
        rs.add(NodeId(7), rule(2, 1, 0, 2)).unwrap();
        assert!(rs.diff(&rs.clone()).is_empty());
        assert!(RuleSet::new().diff(&RuleSet::new()).is_empty());
    }

    #[test]
    fn diff_add_only() {
        let mut old = RuleSet::new();
        old.add(NodeId(1), rule(1, 0, 1, 1)).unwrap();
        let mut new = old.clone();
        new.add(NodeId(1), rule(1, 2, 3, 2)).unwrap();
        new.add(NodeId(4), rule(1, 0, 1, 1)).unwrap();
        let deltas = old.diff(&new);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].switch, NodeId(1));
        assert_eq!(deltas[0].add, vec![rule(1, 2, 3, 2)]);
        assert!(deltas[0].remove.is_empty());
        assert_eq!(deltas[1].switch, NodeId(4));
        assert_eq!(deltas[1].add, vec![rule(1, 0, 1, 1)]);
        assert!(deltas[1].remove.is_empty());
    }

    #[test]
    fn diff_remove_only() {
        let mut old = RuleSet::new();
        old.add(NodeId(1), rule(1, 0, 1, 1)).unwrap();
        old.add(NodeId(1), rule(2, 0, 1, 2)).unwrap();
        let mut new = old.clone();
        assert!(new.remove(NodeId(1), rule(2, 0, 1, 2)));
        let deltas = old.diff(&new);
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].add.is_empty());
        assert_eq!(deltas[0].remove, vec![rule(2, 0, 1, 2)]);
    }

    #[test]
    fn diff_tag_rewrite_change_is_remove_plus_add() {
        let mut old = RuleSet::new();
        old.add(NodeId(2), rule(1, 0, 1, 1)).unwrap();
        let mut new = RuleSet::new();
        new.add(NodeId(2), rule(1, 0, 1, 2)).unwrap(); // same match, new rewrite
        let deltas = old.diff(&new);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].remove, vec![rule(1, 0, 1, 1)]);
        assert_eq!(deltas[0].add, vec![rule(1, 0, 1, 2)]);
        assert_eq!(deltas[0].len(), 2);
    }

    #[test]
    fn applying_diff_reproduces_target() {
        let topo = ClosConfig::small().build();
        let healthy = Tagging::from_elp(&topo, &Elp::updown(&topo)).unwrap();
        let bouncy =
            Tagging::from_elp(&topo, &Elp::updown_with_bounces_capped(&topo, 1, 4)).unwrap();
        let mut replayed = healthy.rules().clone();
        for delta in healthy.rules().diff(bouncy.rules()) {
            replayed.apply_delta(&delta);
        }
        assert_eq!(&replayed, bouncy.rules());
        // And the reverse direction shrinks back exactly.
        for delta in bouncy.rules().diff(healthy.rules()) {
            replayed.apply_delta(&delta);
        }
        assert_eq!(&replayed, healthy.rules());
    }

    #[test]
    fn remove_requires_matching_rewrite() {
        let mut rs = RuleSet::new();
        rs.add(NodeId(1), rule(1, 0, 1, 2)).unwrap();
        assert!(!rs.remove(NodeId(1), rule(1, 0, 1, 9)));
        assert_eq!(rs.num_rules(), 1);
        assert!(!rs.remove(NodeId(9), rule(1, 0, 1, 2)));
        assert!(rs.remove(NodeId(1), rule(1, 0, 1, 2)));
        assert_eq!(rs, RuleSet::new());
    }

    #[test]
    fn table_text_round_trips() {
        let topo = ClosConfig::small().build();
        let t = crate::clos::clos_tagging(&topo, 2).unwrap();
        let text = t.rules().to_table_text(&topo);
        assert!(text.contains("switch L1"));
        let back = RuleSet::from_table_text(&topo, &text).unwrap();
        assert_eq!(&back, t.rules());
        // Iterator agrees with the per-switch view.
        assert_eq!(t.rules().iter().count(), t.rules().num_rules());
        for (sw, rule) in t.rules().iter() {
            assert_eq!(
                t.rules().decide(sw, rule.tag, rule.in_port, rule.out_port),
                TagDecision::Lossless(rule.new_tag)
            );
        }
    }

    #[test]
    fn table_text_rejects_malformed_lines() {
        let topo = ClosConfig::small().build();
        for (text, line, col) in [
            ("rule 1 T1 S1 1\n", 1, 1),
            ("switch NOPE\n", 1, 8),
            ("switch L1\nrule 1 NOPE S1 1\n", 2, 8),
            ("switch L1\nrule 1 T3 S1 1\n", 2, 8), // T3 not adjacent to L1
            ("switch L1\nrule x T1 S1 1\n", 2, 6),
            ("switch L1\njunk\n", 2, 1),
            ("switch L1\nrule 1 #99 S1 1\n", 2, 8), // port out of range
        ] {
            let err = RuleSet::from_table_text(&topo, text).unwrap_err();
            assert_eq!(err.span.line, line, "{text:?}: {err}");
            assert_eq!(err.span.col, col, "{text:?}: {err}");
        }
    }

    /// The one error `text` produces on the small Clos, rendered.
    fn table_error(text: &str) -> (TableTextErrorKind, Span, String) {
        let topo = ClosConfig::small().build();
        let e = RuleSet::from_table_text(&topo, text).unwrap_err();
        let shown = e.to_string();
        (e.kind, e.span, shown)
    }

    #[test]
    fn table_error_switch_without_name() {
        let (kind, span, shown) = table_error("switch\n");
        assert_eq!(kind, TableTextErrorKind::SwitchWithoutName);
        assert_eq!(span, Span::new(1, 1, 6));
        assert_eq!(shown, "table text line 1:1: switch wants a node name");
    }

    #[test]
    fn table_error_unknown_switch() {
        let (kind, span, shown) = table_error("switch NOPE\n");
        assert_eq!(kind, TableTextErrorKind::UnknownSwitch("NOPE".into()));
        assert_eq!(span, Span::new(1, 8, 4));
        assert_eq!(shown, "table text line 1:8: unknown switch \"NOPE\"");
    }

    #[test]
    fn table_error_rule_before_switch() {
        let (kind, span, shown) = table_error("rule 1 T1 S1 1\n");
        assert_eq!(kind, TableTextErrorKind::RuleBeforeSwitch);
        assert_eq!(span, Span::new(1, 1, 4));
        assert_eq!(shown, "table text line 1:1: rule before any switch line");
    }

    #[test]
    fn table_error_rule_arity() {
        let (kind, span, shown) = table_error("switch L1\nrule 1 T1 S1\n");
        assert_eq!(kind, TableTextErrorKind::RuleArity(3));
        assert_eq!(span, Span::new(2, 1, 4));
        assert_eq!(
            shown,
            "table text line 2:1: rule wants <tag> <in> <out> <new-tag>, got 3 argument(s)"
        );
    }

    #[test]
    fn table_error_bad_number() {
        let (kind, span, shown) = table_error("switch L1\nrule 1 T1 S1 x\n");
        let token = "x".to_string();
        assert_eq!(
            kind,
            TableTextErrorKind::BadNumber {
                what: "new-tag",
                token
            }
        );
        assert_eq!(span, Span::new(2, 14, 1));
        assert_eq!(shown, "table text line 2:14: bad new-tag \"x\"");
        let (_, _, shown) = table_error("switch L1\nrule 1 #p S1 1\n");
        assert_eq!(shown, "table text line 2:8: bad port \"#p\"");
    }

    #[test]
    fn table_error_no_such_port() {
        let (kind, span, shown) = table_error("switch L1\nrule 1 #99 S1 1\n");
        let switch = "L1".to_string();
        assert_eq!(kind, TableTextErrorKind::NoSuchPort { switch, port: 99 });
        assert_eq!(span, Span::new(2, 8, 3));
        assert_eq!(shown, "table text line 2:8: L1 has no port 99");
    }

    #[test]
    fn table_error_unknown_neighbour() {
        let (kind, span, shown) = table_error("switch L1\nrule 1 NOPE S1 1\n");
        assert_eq!(kind, TableTextErrorKind::UnknownNeighbour("NOPE".into()));
        assert_eq!(span, Span::new(2, 8, 4));
        assert_eq!(shown, "table text line 2:8: unknown neighbour \"NOPE\"");
    }

    #[test]
    fn table_error_not_adjacent() {
        let (kind, span, shown) = table_error("switch L1\nrule 1 T3 S1 1\n");
        let (switch, neighbour) = ("L1".to_string(), "T3".to_string());
        assert_eq!(kind, TableTextErrorKind::NotAdjacent { switch, neighbour });
        assert_eq!(span, Span::new(2, 8, 2));
        assert_eq!(shown, "table text line 2:8: L1 has no port towards T3");
    }

    #[test]
    fn table_error_unrecognized() {
        let (kind, span, shown) = table_error("switch L1\n  junk here\n");
        assert_eq!(kind, TableTextErrorKind::Unrecognized("junk here".into()));
        assert_eq!(span, Span::new(2, 3, 4));
        assert_eq!(
            shown,
            "table text line 2:3: unrecognized line \"junk here\""
        );
    }

    #[test]
    fn lenient_parse_collects_every_error_and_duplicate() {
        let topo = ClosConfig::small().build();
        let text = "\
switch L1
rule 1 T1 S1 1
rule 1 T1 S1 2
switch NOPE
rule 1 T1 S1 1
switch L2
rule x T1 S1 1
rule 1 T3 S1 1
";
        let parse = RuleSet::parse_table_text_lenient(&topo, text);
        // Both L1 lines parse (duplicate key preserved in file order);
        // the NOPE section swallows its rule; L2's two bad lines each
        // produce one error.
        assert_eq!(parse.rules.len(), 2);
        assert_eq!(parse.rules[0].span.line, 2);
        assert_eq!(parse.rules[1].span.line, 3);
        assert_eq!(parse.rules[0].rule.new_tag, Tag(1));
        assert_eq!(parse.rules[1].rule.new_tag, Tag(2));
        let lines: Vec<usize> = parse.errors.iter().map(|e| e.span.line).collect();
        assert_eq!(lines, vec![4, 7, 8]);
        // from_table_text on the duplicate-only prefix: last write wins.
        let rs =
            RuleSet::from_table_text(&topo, "switch L1\nrule 1 T1 S1 1\nrule 1 T1 S1 2\n").unwrap();
        let l1 = topo.expect_node("L1");
        let in_port = topo.port_towards(l1, topo.expect_node("T1")).unwrap();
        let out_port = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        assert_eq!(
            rs.decide(l1, Tag(1), in_port, out_port),
            TagDecision::Lossless(Tag(2))
        );
    }

    #[test]
    fn empty_ruleset_sends_everything_lossy() {
        let rs = RuleSet::new();
        assert_eq!(
            rs.decide(NodeId(0), Tag(1), PortId(0), PortId(1)),
            TagDecision::Lossy
        );
        assert_eq!(rs.num_rules(), 0);
        assert_eq!(rs.max_tag(), None);
    }
}
