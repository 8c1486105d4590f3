//! TCAM compilation with bit-mask compression (paper §7, Fig. 9).
//!
//! Commodity ASICs match ports as *bitmaps*: a TCAM entry with pattern 0
//! and mask `!S` matches exactly the one-hot port encodings in set `S`, so
//! one entry can match many ports. Tagger exploits this twice:
//!
//! - **InPort aggregation**: rules identical except for the ingress port
//!   merge into one entry — `n(n−1)·m(m−1)/2` exact-match rules per
//!   switch become `n·m(m−1)/2` entries.
//! - **Joint aggregation**: egress ports whose ingress-port sets coincide
//!   merge too, often collapsing a switch's whole table to a handful of
//!   entries.
//!
//! Compiled programs are *semantically equivalent* to the source
//! [`RuleSet`]: entries produced here are pairwise disjoint, so match
//! order is irrelevant, and anything unmatched falls to the lossy
//! safeguard exactly as in the exact-match table.

use crate::{RuleSet, SwitchRule, Tag, TagDecision};
use std::collections::BTreeMap;
use tagger_topo::{NodeId, PortId, Topology};

/// Ports a [`PortSet`] holds, `0..MAX_PORTS`: a TCAM entry's bitmap width.
pub const MAX_PORTS: u16 = 128;

/// A set of ports matched by one TCAM pattern/mask pair.
///
/// Realized in hardware as pattern `0…0`, mask `!bits` over the one-hot
/// port bitmap; in this model simply a bitset. Supports switches with up
/// to [`MAX_PORTS`] ports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct PortSet {
    bits: u128,
}

impl PortSet {
    /// The empty set.
    pub fn empty() -> Self {
        PortSet { bits: 0 }
    }

    /// A singleton set.
    pub fn single(port: PortId) -> Self {
        let mut s = PortSet::empty();
        s.insert(port);
        s
    }

    /// Inserts a port.
    ///
    /// # Panics
    /// Panics for port numbers ≥ [`MAX_PORTS`].
    pub fn insert(&mut self, port: PortId) {
        assert!(port.0 < MAX_PORTS, "port {port} out of TCAM bitmap range");
        self.bits |= 1 << port.0;
    }

    /// Membership test — the TCAM match `(onehot(port) & mask) == 0`.
    pub fn contains(&self, port: PortId) -> bool {
        port.0 < MAX_PORTS && self.bits & (1 << port.0) != 0
    }

    /// Number of ports in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Iterates over member ports in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..MAX_PORTS)
            .filter(|&p| self.contains(PortId(p)))
            .map(PortId)
    }

    /// True if every port of `other` is also in `self`.
    pub fn is_superset(&self, other: &PortSet) -> bool {
        other.bits & !self.bits == 0
    }

    /// True if the two sets share at least one port.
    pub fn intersects(&self, other: &PortSet) -> bool {
        self.bits & other.bits != 0
    }
}

impl FromIterator<PortId> for PortSet {
    fn from_iter<I: IntoIterator<Item = PortId>>(iter: I) -> Self {
        let mut s = PortSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

/// One compiled TCAM entry: exact tag match, bitmap port matches, rewrite
/// action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcamEntry {
    /// Matched tag (exact).
    pub tag: Tag,
    /// Matched ingress ports (bitmap).
    pub in_ports: PortSet,
    /// Matched egress ports (bitmap).
    pub out_ports: PortSet,
    /// Rewrite action.
    pub new_tag: Tag,
}

impl TcamEntry {
    /// True if the entry matches the triple.
    pub fn matches(&self, tag: Tag, in_port: PortId, out_port: PortId) -> bool {
        self.tag == tag && self.in_ports.contains(in_port) && self.out_ports.contains(out_port)
    }

    /// True if every triple `other` matches, `self` matches too — under
    /// first-match lookup an earlier covering entry makes the later one
    /// dead (its action can never fire).
    pub fn covers(&self, other: &TcamEntry) -> bool {
        self.tag == other.tag
            && self.in_ports.is_superset(&other.in_ports)
            && self.out_ports.is_superset(&other.out_ports)
    }

    /// True if at least one triple matches both entries. A partial
    /// overlap with a *different* rewrite makes lookup order
    /// significant — a hazard worth flagging even when neither entry is
    /// fully dead.
    pub fn overlaps(&self, other: &TcamEntry) -> bool {
        self.tag == other.tag
            && self.in_ports.intersects(&other.in_ports)
            && self.out_ports.intersects(&other.out_ports)
    }

    /// Decompiles the entry back into the concrete exact-match rules it
    /// realizes on a switch with `num_ports` ports: the cross product of
    /// its ingress and egress bitmaps, clipped to the switch's real port
    /// map. Clipping matters for verification: a bitmap bit beyond the
    /// port count can never match a packet, so it is not part of the
    /// entry's installed behaviour.
    pub fn expand(&self, num_ports: u16) -> impl Iterator<Item = SwitchRule> + '_ {
        let (tag, new_tag) = (self.tag, self.new_tag);
        self.in_ports
            .iter()
            .filter(move |p| p.0 < num_ports)
            .flat_map(move |in_port| {
                self.out_ports
                    .iter()
                    .filter(move |p| p.0 < num_ports)
                    .map(move |out_port| SwitchRule {
                        tag,
                        in_port,
                        out_port,
                        new_tag,
                    })
            })
    }
}

/// How aggressively to compress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compression {
    /// One entry per exact-match rule (no compression) — the
    /// `n(n−1)·m(m−1)/2` baseline.
    None,
    /// Aggregate ingress ports per `(tag, out, new_tag)` — the paper's
    /// `n·m(m−1)/2` bound.
    InPort,
    /// Additionally merge egress ports with identical ingress sets per
    /// `(tag, new_tag)`.
    Joint,
}

/// The compiled TCAM of one switch.
#[derive(Clone, Debug, Default)]
pub struct Tcam {
    entries: Vec<TcamEntry>,
}

impl Tcam {
    /// Compiles one switch's rules at the given compression level.
    pub fn compile(rules: &[SwitchRule], level: Compression) -> Tcam {
        match level {
            Compression::None => Tcam {
                entries: rules
                    .iter()
                    .map(|r| TcamEntry {
                        tag: r.tag,
                        in_ports: PortSet::single(r.in_port),
                        out_ports: PortSet::single(r.out_port),
                        new_tag: r.new_tag,
                    })
                    .collect(),
            },
            Compression::InPort => {
                let mut groups: BTreeMap<(Tag, PortId, Tag), PortSet> = BTreeMap::new();
                for r in rules {
                    groups
                        .entry((r.tag, r.out_port, r.new_tag))
                        .or_default()
                        .insert(r.in_port);
                }
                Tcam {
                    entries: groups
                        .into_iter()
                        .map(|((tag, out, new_tag), in_ports)| TcamEntry {
                            tag,
                            in_ports,
                            out_ports: PortSet::single(out),
                            new_tag,
                        })
                        .collect(),
                }
            }
            Compression::Joint => {
                // (tag, new_tag) -> out_port -> in_ports
                let mut groups: BTreeMap<(Tag, Tag), BTreeMap<PortId, PortSet>> = BTreeMap::new();
                for r in rules {
                    groups
                        .entry((r.tag, r.new_tag))
                        .or_default()
                        .entry(r.out_port)
                        .or_default()
                        .insert(r.in_port);
                }
                let mut entries = Vec::new();
                for ((tag, new_tag), outs) in groups {
                    // Merge egress ports sharing an identical ingress set.
                    let mut by_inset: BTreeMap<PortSet, PortSet> = BTreeMap::new();
                    for (out, ins) in outs {
                        by_inset.entry(ins).or_default().insert(out);
                    }
                    for (in_ports, out_ports) in by_inset {
                        entries.push(TcamEntry {
                            tag,
                            in_ports,
                            out_ports,
                            new_tag,
                        });
                    }
                }
                Tcam { entries }
            }
        }
    }

    /// Builds a TCAM directly from entries, bypassing compilation.
    ///
    /// This is the hook independent verification tooling uses to model
    /// *arbitrary* installed tables — including miscompiled ones whose
    /// bitmaps are broader than any rule list would produce — so the
    /// decompile path can be exercised against tables that do not come
    /// from [`Tcam::compile`].
    pub fn from_entries(entries: Vec<TcamEntry>) -> Tcam {
        Tcam { entries }
    }

    /// The compiled entries.
    pub fn entries(&self) -> &[TcamEntry] {
        &self.entries
    }

    /// Decompiles the whole table back into concrete
    /// `(tag, in-port, out-port) → new-tag` rules against a switch with
    /// `num_ports` ports, first-match semantics preserved: where two
    /// entries overlap on a triple, the earlier entry wins, exactly as
    /// [`Tcam::decide`] would resolve the lookup. The result is sorted
    /// by `(tag, in, out)`.
    pub fn decompile(&self, num_ports: u16) -> Vec<SwitchRule> {
        let mut seen: BTreeMap<(Tag, PortId, PortId), Tag> = BTreeMap::new();
        for entry in &self.entries {
            for rule in entry.expand(num_ports) {
                seen.entry((rule.tag, rule.in_port, rule.out_port))
                    .or_insert(rule.new_tag);
            }
        }
        seen.into_iter()
            .map(|((tag, in_port, out_port), new_tag)| SwitchRule {
                tag,
                in_port,
                out_port,
                new_tag,
            })
            .collect()
    }

    /// Entry count (the hardware-budget figure).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First-match lookup; the implicit final entry demotes to lossy.
    pub fn decide(&self, tag: Tag, in_port: PortId, out_port: PortId) -> TagDecision {
        for e in &self.entries {
            if e.matches(tag, in_port, out_port) {
                return TagDecision::Lossless(e.new_tag);
            }
        }
        TagDecision::Lossy
    }
}

/// Compiled TCAMs for every switch in a rule set.
#[derive(Clone, Debug, Default)]
pub struct TcamProgram {
    per_switch: BTreeMap<NodeId, Tcam>,
}

impl TcamProgram {
    /// Compiles all switches of a rule set.
    pub fn compile(topo: &Topology, rules: &RuleSet, level: Compression) -> TcamProgram {
        let mut per_switch = BTreeMap::new();
        for sw in topo.switch_ids() {
            let rs = rules.rules_for(sw);
            if !rs.is_empty() {
                per_switch.insert(sw, Tcam::compile(&rs, level));
            }
        }
        TcamProgram { per_switch }
    }

    /// Lookup on one switch.
    pub fn decide(&self, sw: NodeId, tag: Tag, in_port: PortId, out_port: PortId) -> TagDecision {
        self.per_switch
            .get(&sw)
            .map(|t| t.decide(tag, in_port, out_port))
            .unwrap_or(TagDecision::Lossy)
    }

    /// Total entries across switches.
    pub fn total_entries(&self) -> usize {
        self.per_switch.values().map(Tcam::len).sum()
    }

    /// Largest per-switch table.
    pub fn max_entries_per_switch(&self) -> usize {
        self.per_switch.values().map(Tcam::len).max().unwrap_or(0)
    }

    /// The TCAM of one switch, if it has rules.
    pub fn tcam_for(&self, sw: NodeId) -> Option<&Tcam> {
        self.per_switch.get(&sw)
    }

    /// Switches that carry at least one compiled entry.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_switch.keys().copied()
    }

    /// Every installed entry as `(switch, entry index, entry)` triples,
    /// ordered by switch id then hardware priority (entry index = match
    /// order) — the iteration order external analysis tooling audits
    /// installed programs in.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize, &TcamEntry)> + '_ {
        self.per_switch.iter().flat_map(|(&sw, tcam)| {
            tcam.entries()
                .iter()
                .enumerate()
                .map(move |(i, e)| (sw, i, e))
        })
    }

    /// Installs one switch's table, replacing whatever was there — the
    /// building block verification tooling uses to model a fleet whose
    /// hardware tables may not be what the compiler intended.
    pub fn install(&mut self, sw: NodeId, tcam: Tcam) {
        self.per_switch.insert(sw, tcam);
    }

    /// Decompiles every switch's TCAM back into an exact-match
    /// [`RuleSet`] against the topology's real port map. The round-trip
    /// property verification leans on: for programs produced by
    /// [`TcamProgram::compile`], the result is semantically identical to
    /// the source rules on every in-range triple.
    pub fn decompile(&self, topo: &Topology) -> RuleSet {
        let mut rs = RuleSet::new();
        for (&sw, tcam) in &self.per_switch {
            let num_ports = topo.node(sw).num_ports() as u16;
            for rule in tcam.decompile(num_ports) {
                rs.set(sw, rule);
            }
        }
        rs
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::clos::clos_tagging;
    use crate::{Elp, Tagging};
    use tagger_topo::ClosConfig;

    fn all_triples(topo: &Topology, sw: NodeId, max_tag: u16) -> Vec<(Tag, PortId, PortId)> {
        let nports = topo.node(sw).num_ports() as u16;
        let mut v = Vec::new();
        for tag in 1..=max_tag {
            for i in 0..nports {
                for o in 0..nports {
                    v.push((Tag(tag), PortId(i), PortId(o)));
                }
            }
        }
        v
    }

    fn assert_equivalent(topo: &Topology, rules: &RuleSet, level: Compression) {
        let prog = TcamProgram::compile(topo, rules, level);
        let max_tag = rules.max_tag().map(|t| t.0 + 1).unwrap_or(1);
        for sw in topo.switch_ids() {
            for (tag, i, o) in all_triples(topo, sw, max_tag) {
                assert_eq!(
                    prog.decide(sw, tag, i, o),
                    rules.decide(sw, tag, i, o),
                    "mismatch at {sw} ({tag:?}, {i}, {o}) level {level:?}"
                );
            }
        }
    }

    #[test]
    fn portset_basics() {
        let mut s = PortSet::empty();
        assert!(s.is_empty());
        s.insert(PortId(3));
        s.insert(PortId(7));
        assert_eq!(s.len(), 2);
        assert!(s.contains(PortId(3)));
        assert!(!s.contains(PortId(4)));
        let v: Vec<PortId> = s.iter().collect();
        assert_eq!(v, vec![PortId(3), PortId(7)]);
    }

    #[test]
    fn all_levels_equivalent_on_clos_rules() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 1).unwrap();
        for level in [Compression::None, Compression::InPort, Compression::Joint] {
            assert_equivalent(&topo, t.rules(), level);
        }
    }

    #[test]
    fn all_levels_equivalent_on_greedy_rules() {
        let topo = ClosConfig::small().build();
        let t = Tagging::from_elp(&topo, &Elp::updown(&topo)).unwrap();
        for level in [Compression::None, Compression::InPort, Compression::Joint] {
            assert_equivalent(&topo, t.rules(), level);
        }
    }

    #[test]
    fn compression_strictly_shrinks_tables() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 2).unwrap();
        let none = TcamProgram::compile(&topo, t.rules(), Compression::None);
        let inport = TcamProgram::compile(&topo, t.rules(), Compression::InPort);
        let joint = TcamProgram::compile(&topo, t.rules(), Compression::Joint);
        assert!(inport.total_entries() < none.total_entries());
        assert!(joint.total_entries() <= inport.total_entries());
        assert_eq!(none.total_entries(), t.rules().num_rules());
    }

    #[test]
    fn clos_joint_compression_is_tiny() {
        // A Clos switch's behaviour is fully described by "bounce or not"
        // per tag: joint aggregation should need only a handful of entries
        // per switch.
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 1).unwrap();
        let joint = TcamProgram::compile(&topo, t.rules(), Compression::Joint);
        // Leaves: {keep tag1, keep tag2, bounce 1->2} x in-set splits <= 6.
        assert!(
            joint.max_entries_per_switch() <= 8,
            "got {}",
            joint.max_entries_per_switch()
        );
    }

    #[test]
    fn decompile_round_trips_compiled_programs() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 2).unwrap();
        for level in [Compression::None, Compression::InPort, Compression::Joint] {
            let prog = TcamProgram::compile(&topo, t.rules(), level);
            let back = prog.decompile(&topo);
            assert_eq!(&back, t.rules(), "round trip at {level:?}");
        }
    }

    #[test]
    fn expand_clips_to_the_real_port_map() {
        let mut in_ports = PortSet::empty();
        in_ports.insert(PortId(0));
        in_ports.insert(PortId(9)); // beyond the switch's port count
        let entry = TcamEntry {
            tag: Tag(1),
            in_ports,
            out_ports: PortSet::single(PortId(1)),
            new_tag: Tag(2),
        };
        let rules: Vec<SwitchRule> = entry.expand(4).collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].in_port, PortId(0));
    }

    #[test]
    fn decompile_respects_first_match_on_overlap() {
        // Two overlapping entries: first-match wins, so decompile must
        // report the first entry's rewrite for the shared triple.
        let first = TcamEntry {
            tag: Tag(1),
            in_ports: PortSet::single(PortId(0)),
            out_ports: PortSet::single(PortId(1)),
            new_tag: Tag(1),
        };
        let shadowed = TcamEntry {
            tag: Tag(1),
            in_ports: [PortId(0), PortId(2)].into_iter().collect(),
            out_ports: PortSet::single(PortId(1)),
            new_tag: Tag(2),
        };
        let tcam = Tcam::from_entries(vec![first, shadowed]);
        let rules = tcam.decompile(4);
        assert_eq!(rules.len(), 2);
        for r in rules {
            let expect = if r.in_port == PortId(0) {
                Tag(1)
            } else {
                Tag(2)
            };
            assert_eq!(r.new_tag, expect);
            assert_eq!(
                tcam.decide(r.tag, r.in_port, r.out_port),
                TagDecision::Lossless(expect)
            );
        }
    }

    #[test]
    fn covers_and_overlaps_follow_first_match_semantics() {
        let wide = TcamEntry {
            tag: Tag(1),
            in_ports: [PortId(0), PortId(1), PortId(2)].into_iter().collect(),
            out_ports: [PortId(3), PortId(4)].into_iter().collect(),
            new_tag: Tag(1),
        };
        let narrow = TcamEntry {
            tag: Tag(1),
            in_ports: PortSet::single(PortId(1)),
            out_ports: PortSet::single(PortId(3)),
            new_tag: Tag(2),
        };
        let disjoint = TcamEntry {
            tag: Tag(1),
            in_ports: PortSet::single(PortId(7)),
            out_ports: PortSet::single(PortId(3)),
            new_tag: Tag(2),
        };
        let other_tag = TcamEntry {
            tag: Tag(2),
            ..narrow
        };
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.overlaps(&narrow));
        assert!(!wide.covers(&disjoint));
        assert!(!wide.overlaps(&disjoint));
        assert!(!wide.covers(&other_tag));
        assert!(!wide.overlaps(&other_tag));
        assert!(wide.in_ports.is_superset(&narrow.in_ports));
        assert!(!narrow.in_ports.is_superset(&wide.in_ports));
        assert!(wide.in_ports.intersects(&narrow.in_ports));
    }

    #[test]
    fn program_iteration_matches_per_switch_tables() {
        let topo = ClosConfig::small().build();
        let t = clos_tagging(&topo, 1).unwrap();
        let prog = TcamProgram::compile(&topo, t.rules(), Compression::Joint);
        assert_eq!(prog.iter().count(), prog.total_entries());
        for (sw, i, entry) in prog.iter() {
            assert_eq!(prog.tcam_for(sw).unwrap().entries()[i], *entry);
        }
    }

    #[test]
    fn unknown_switch_is_lossy() {
        let prog = TcamProgram::default();
        assert_eq!(
            prog.decide(NodeId(0), Tag(1), PortId(0), PortId(1)),
            TagDecision::Lossy
        );
    }
}
