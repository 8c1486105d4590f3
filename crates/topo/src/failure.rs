//! Non-destructive link-failure overlays.

use crate::{LinkId, NodeId, Topology};
use std::collections::BTreeSet;
use std::fmt;

/// Why a named link could not be resolved against a topology, or why a
/// resolved link could not change failure state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkLookupError {
    /// No node with this name exists. `nearest` holds up to three
    /// closest-spelled node names (edit distance ≤ 2), so a typo'd trace
    /// line tells the operator what they probably meant.
    UnknownNode {
        /// The name as written.
        name: String,
        /// Closest existing names, best match first.
        nearest: Vec<String>,
    },
    /// Both nodes exist but share no link. `candidates` names the
    /// switches actually adjacent to the first node.
    NotAdjacent {
        /// First endpoint, as written.
        a: String,
        /// Second endpoint, as written.
        b: String,
        /// Switch names adjacent to `a` — valid second endpoints.
        candidates: Vec<String>,
    },
    /// The link resolved fine but is *already* failed — a repeated
    /// `down` without an intervening `up`. Distinct from silent
    /// idempotence so flap-damping logic can count flaps correctly.
    AlreadyFailed {
        /// First endpoint, as written.
        a: String,
        /// Second endpoint, as written.
        b: String,
        /// The resolved link, so callers can still act on it.
        link: LinkId,
    },
}

impl fmt::Display for LinkLookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkLookupError::UnknownNode { name, nearest } => {
                write!(f, "unknown node {name:?}")?;
                if let Some(hint) = did_you_mean(nearest) {
                    write!(f, " ({hint})")?;
                }
                Ok(())
            }
            LinkLookupError::NotAdjacent { a, b, candidates } => {
                write!(f, "no link between {a:?} and {b:?}")?;
                if !candidates.is_empty() {
                    write!(f, " ({a} connects to: {})", candidates.join(", "))?;
                }
                Ok(())
            }
            LinkLookupError::AlreadyFailed { a, b, .. } => {
                write!(f, "link between {a:?} and {b:?} is already failed")
            }
        }
    }
}

impl std::error::Error for LinkLookupError {}

/// Levenshtein distance, small-string DP — only used on error paths.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Up to three existing node names within edit distance 2 of `name`,
/// best match first — the "did you mean ...?" suggestion source for any
/// tool resolving operator-typed node names.
pub fn nearest_names(topo: &Topology, name: &str) -> Vec<String> {
    nearest(name, topo.node_ids().map(|n| topo.node(n).name.as_str()))
}

/// Up to three of `candidates` within edit distance 2 of `word`, best
/// match first.
pub(crate) fn nearest<'a>(word: &str, candidates: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut scored: Vec<(usize, &str)> = candidates
        .filter_map(|candidate| {
            let d = edit_distance(word, candidate);
            (d <= 2).then_some((d, candidate))
        })
        .collect();
    scored.sort();
    scored.into_iter().take(3).map(|(_, n)| n.into()).collect()
}

/// `did you mean A, B?` over [`nearest_names`]' suggestions — the one
/// wording every tool's unknown-name hint uses; `None` when there is
/// nothing to suggest.
pub fn did_you_mean(nearest: &[String]) -> Option<String> {
    (!nearest.is_empty()).then(|| format!("did you mean {}?", nearest.join(", ")))
}

/// A set of failed links, overlaid on a [`Topology`] without mutating it.
///
/// Routing code consults the failure set when computing reroutes, so a
/// single topology can serve both the pre-failure view (for ELP
/// enumeration) and the post-failure view (for reroute simulation) — the
/// exact situation Tagger is designed around: tags are computed against
/// the *expected* lossless paths, failures then push real traffic off them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureSet {
    failed: BTreeSet<LinkId>,
}

impl FailureSet {
    /// Creates an empty failure set (the healthy network).
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks `link` failed. Idempotent; returns `true` if the link was
    /// healthy until now, `false` on a repeated failure — the signal a
    /// flap counter needs.
    pub fn fail(&mut self, link: LinkId) -> bool {
        self.failed.insert(link)
    }

    /// Marks the link between the named nodes as failed.
    ///
    /// # Panics
    /// Panics if either node does not exist or they are not adjacent —
    /// experiment scripts should fail loudly on typos. Re-failing an
    /// already-failed link stays silently idempotent here.
    pub fn fail_between(&mut self, topo: &Topology, a: &str, b: &str) {
        match self.try_fail_between(topo, a, b) {
            Ok(_) | Err(LinkLookupError::AlreadyFailed { .. }) => {}
            Err(e @ LinkLookupError::UnknownNode { .. }) => panic!("{e}"),
            Err(e @ LinkLookupError::NotAdjacent { .. }) => panic!("{e}"),
        }
    }

    /// Non-panicking [`FailureSet::fail_between`]: resolves the link once
    /// and reports typos as errors instead of aborting — the right shape
    /// when the names come from an untrusted source such as a recorded
    /// control-plane event trace. Returns the failed link on success, and
    /// a distinct [`LinkLookupError::AlreadyFailed`] (carrying the
    /// resolved link) when the link was already down, so callers tracking
    /// flaps can tell a state change from a repeat.
    pub fn try_fail_between(
        &mut self,
        topo: &Topology,
        a: &str,
        b: &str,
    ) -> Result<LinkId, LinkLookupError> {
        let link = resolve_link(topo, a, b)?;
        if !self.fail(link) {
            return Err(LinkLookupError::AlreadyFailed {
                a: a.to_string(),
                b: b.to_string(),
                link,
            });
        }
        Ok(link)
    }

    /// Non-panicking restore-by-name, the counterpart of
    /// [`FailureSet::try_fail_between`]. Restoring a link that was never
    /// failed is a no-op, matching [`FailureSet::restore`].
    pub fn try_restore_between(
        &mut self,
        topo: &Topology,
        a: &str,
        b: &str,
    ) -> Result<LinkId, LinkLookupError> {
        let link = resolve_link(topo, a, b)?;
        self.restore(link);
        Ok(link)
    }

    /// Restores `link`. Idempotent; returns `true` if the link was
    /// actually failed, `false` on a redundant restore.
    pub fn restore(&mut self, link: LinkId) -> bool {
        self.failed.remove(&link)
    }

    /// True if `link` is currently failed.
    pub fn is_failed(&self, link: LinkId) -> bool {
        self.failed.contains(&link)
    }

    /// True if `a` can reach `b` directly: some link between them exists
    /// and is not failed (with parallel links, any one of them).
    pub fn link_up(&self, topo: &Topology, a: NodeId, b: NodeId) -> bool {
        self.live_neighbors(topo, a).any(|(_, _, n)| n == b)
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// True if no links are failed.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Iterates over failed links in id order.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed.iter().copied()
    }

    /// Surviving neighbors of `node`: like [`Topology::neighbors`] but with
    /// failed links masked out.
    pub fn live_neighbors<'a>(
        &'a self,
        topo: &'a Topology,
        node: NodeId,
    ) -> impl Iterator<Item = (crate::PortId, LinkId, NodeId)> + 'a {
        topo.neighbors(node)
            .filter(move |&(_, l, _)| !self.is_failed(l))
    }
}

/// Resolves the link between two named nodes. Errors carry repair hints:
/// near-miss spellings for unknown names, and the first node's actual
/// switch neighbors when the pair is not adjacent.
pub fn resolve_link(topo: &Topology, a: &str, b: &str) -> Result<LinkId, LinkLookupError> {
    let unknown = |name: &str| LinkLookupError::UnknownNode {
        name: name.to_string(),
        nearest: nearest_names(topo, name),
    };
    let na = topo.node_by_name(a).ok_or_else(|| unknown(a))?;
    let nb = topo.node_by_name(b).ok_or_else(|| unknown(b))?;
    topo.link_between(na, nb)
        .ok_or_else(|| LinkLookupError::NotAdjacent {
            a: a.to_string(),
            b: b.to_string(),
            candidates: topo
                .neighbors(na)
                .filter(|&(_, _, peer)| topo.node(peer).kind == crate::NodeKind::Switch)
                .map(|(_, _, peer)| topo.node(peer).name.clone())
                .collect(),
        })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::ClosConfig;

    #[test]
    fn fail_and_restore_round_trip() {
        let topo = ClosConfig::small().build();
        let mut f = FailureSet::none();
        assert!(f.is_empty());
        f.fail_between(&topo, "L1", "T1");
        assert_eq!(f.len(), 1);
        let l1 = topo.expect_node("L1");
        let t1 = topo.expect_node("T1");
        assert!(!f.link_up(&topo, l1, t1));
        let link = topo.link_between(l1, t1).unwrap();
        f.restore(link);
        assert!(f.link_up(&topo, l1, t1));
    }

    #[test]
    fn link_up_needs_only_one_live_parallel_link() {
        let mut topo = ClosConfig::small().build();
        let (t1, l1) = (topo.expect_node("T1"), topo.expect_node("L1"));
        let first = topo.link_between(t1, l1).unwrap();
        let second = topo.connect(t1, l1);
        let mut f = FailureSet::none();
        f.fail(first);
        assert!(f.link_up(&topo, t1, l1) && f.link_up(&topo, l1, t1));
        f.fail(second);
        assert!(!f.link_up(&topo, t1, l1) && !f.link_up(&topo, l1, t1));
        f.restore(first);
        assert!(f.link_up(&topo, t1, l1));
    }

    #[test]
    fn live_neighbors_masks_failed_links() {
        let topo = ClosConfig::small().build();
        let mut f = FailureSet::none();
        let l1 = topo.expect_node("L1");
        let before = f.live_neighbors(&topo, l1).count();
        f.fail_between(&topo, "L1", "S1");
        let after = f.live_neighbors(&topo, l1).count();
        assert_eq!(after, before - 1);
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn fail_between_nonadjacent_panics() {
        let topo = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&topo, "T1", "S1"); // ToRs do not touch spines
    }

    #[test]
    fn try_fail_between_reports_typos_without_panicking() {
        let topo = ClosConfig::small().build();
        let mut f = FailureSet::none();
        match f.try_fail_between(&topo, "L1", "XX") {
            Err(LinkLookupError::UnknownNode { name, .. }) => assert_eq!(name, "XX"),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
        match f.try_fail_between(&topo, "T1", "S1") {
            Err(LinkLookupError::NotAdjacent { a, b, candidates }) => {
                assert_eq!((a.as_str(), b.as_str()), ("T1", "S1"));
                assert!(
                    candidates.contains(&"L1".to_string()),
                    "T1's leaf neighbors must be suggested: {candidates:?}"
                );
            }
            other => panic!("expected NotAdjacent, got {other:?}"),
        }
        assert!(f.is_empty(), "failed lookups must not fail anything");
        let link = f.try_fail_between(&topo, "L1", "T1").unwrap();
        assert!(f.is_failed(link));
        assert_eq!(f.try_restore_between(&topo, "L1", "T1"), Ok(link));
        assert!(f.is_empty());
    }

    #[test]
    fn refailing_a_failed_link_is_a_distinct_error() {
        let topo = ClosConfig::small().build();
        let mut f = FailureSet::none();
        let link = f.try_fail_between(&topo, "L1", "T1").unwrap();
        match f.try_fail_between(&topo, "L1", "T1") {
            Err(LinkLookupError::AlreadyFailed { a, b, link: l }) => {
                assert_eq!((a.as_str(), b.as_str(), l), ("L1", "T1", link));
            }
            other => panic!("expected AlreadyFailed, got {other:?}"),
        }
        assert_eq!(f.len(), 1, "the repeat must not double-count");
        // The raw primitives report state changes for flap counting.
        assert!(!f.fail(link), "re-fail is not a state change");
        assert!(f.restore(link), "restore of a failed link is");
        assert!(!f.restore(link), "redundant restore is not");
        // fail_between stays silently idempotent for experiment scripts.
        f.fail_between(&topo, "L1", "T1");
        f.fail_between(&topo, "L1", "T1");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unknown_node_errors_suggest_near_misses() {
        let topo = ClosConfig::small().build();
        let e = resolve_link(&topo, "L11", "T1").unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("L1"),
            "near-miss suggestion missing from {msg:?}"
        );
    }
}
