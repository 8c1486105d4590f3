//! The controller's versioned view of the network.

use crate::controller::CtrlError;
use crate::event::CtrlEvent;
use std::collections::BTreeSet;
use tagger_core::Elp;
use tagger_routing::Path;
use tagger_topo::{FailureSet, NodeId, PortId, Topology};

/// The expected lossless paths the controller promises: every up-down
/// path with up to [`ElpPolicy::bounces`] bounces between every host
/// pair, plus the operator-pinned extras (from
/// [`CtrlEvent::ElpAdd`](crate::CtrlEvent::ElpAdd)).
///
/// The controller never derives this ELP: it stages the paper's closed
/// form for `bounces`, whose rules carry every such path by a structural
/// certificate, and adds each extra's rules at the extra's own hops.
/// [`ElpPolicy::elp`] and [`ElpPolicy::elp_for`] enumerate it anyway, as
/// a reference for tests and measurements to judge the committed rules
/// against. The enumeration is never capped, so a failure view's ELP is
/// a subset of the failure-free one: taking links out only removes
/// paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElpPolicy {
    /// Maximum number of down-up "bounces" a lossless path may take
    /// (paper §4: a `k`-bounce Clos ELP needs `k + 1` lossless tags).
    pub bounces: usize,
}

impl ElpPolicy {
    /// Strict up-down routing only (0 bounces).
    pub fn updown() -> Self {
        ElpPolicy::with_bounces(0)
    }

    /// Up-down plus up to `k` bounces.
    pub fn with_bounces(k: usize) -> Self {
        ElpPolicy { bounces: k }
    }

    /// Materializes the ELP for a given failure overlay plus pinned
    /// extras. Pinned paths that currently traverse a failed link are
    /// silently masked (they come back when the link does); duplicates
    /// of policy-enumerated paths are dropped.
    pub fn elp(&self, topo: &Topology, failures: &FailureSet, extras: &[Path]) -> Elp {
        let mut elp = Elp::updown_with_bounces_under(topo, failures, self.bounces, usize::MAX);
        for path in extras {
            let live = path.hop_pairs().all(|(a, b)| failures.link_up(topo, a, b));
            if live && !elp.contains(path) {
                elp.extend([path.clone()]);
            }
        }
        elp
    }

    /// Materializes the ELP for a full [`NetworkState`]: the failure
    /// overlay and pinned extras of [`ElpPolicy::elp`], minus every path
    /// crossing a watchdog-quarantined hop: the paths a committed
    /// snapshot for `state` keeps lossless, since a quarantine's
    /// corrective tagging stops promising losslessness through the
    /// poisoned queue.
    pub fn elp_for(&self, topo: &Topology, state: &NetworkState) -> Elp {
        let mut elp = self.elp(topo, &state.failures, &state.extra_paths);
        if !state.quarantines.is_empty() {
            elp.retain(|p| state.quarantine_allows(topo, p));
        }
        elp
    }
}

impl Default for ElpPolicy {
    /// One bounce — the paper's recommended operating point
    /// for Clos (§4.1: 1-bounce ELPs cover single-failure reroutes at
    /// the cost of one extra lossless priority).
    fn default() -> Self {
        ElpPolicy::with_bounces(1)
    }
}

/// The versioned network state a [`Controller`](crate::Controller)
/// manages: which links are failed and which extra ELPs are pinned.
///
/// `version` increments on every successfully applied event, including
/// ones whose recompute is later rolled back — versions number *views*,
/// epochs number *commits*.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkState {
    /// Monotonic view counter.
    pub version: u64,
    /// Links currently believed down.
    pub failures: FailureSet,
    /// Operator-pinned ELPs, in arrival order.
    pub extra_paths: Vec<Path>,
    /// Hops under watchdog quarantine, as `(switch, egress port, tag)`.
    /// A stage drops every rule that leaves by the hop, so paths crossing
    /// it are excluded from the ELP. The tag is kept for reporting;
    /// exclusion is by (switch, port), whatever tag a packet carries
    /// there — a conservative over-approximation.
    pub quarantines: BTreeSet<(NodeId, PortId, u16)>,
}

impl NetworkState {
    /// The healthy network: no failures, no pinned paths, version 0.
    pub fn initial() -> Self {
        NetworkState::default()
    }

    /// Applies one event, bumping the version. Fails (leaving state
    /// untouched) where [`CtrlEvent::check`] does: on a link outside the
    /// topology.
    pub fn apply(&mut self, topo: &Topology, event: &CtrlEvent) -> Result<(), CtrlError> {
        event.check(topo)?;
        match event {
            CtrlEvent::LinkDown(l) => {
                self.failures.fail(*l);
            }
            CtrlEvent::LinkUp(l) => {
                self.failures.restore(*l);
            }
            CtrlEvent::ElpAdd(p) => {
                if !self.extra_paths.contains(p) {
                    self.extra_paths.push(p.clone());
                }
            }
            CtrlEvent::ElpRemove(p) => self.extra_paths.retain(|q| q != p),
            CtrlEvent::WatchdogTrip { .. } => {
                // Cause-directed recovery: the quarantined hop is the
                // attributed trigger when the trip carries one, the
                // tripping victim otherwise. Re-quarantining a hop (e.g.
                // a victim trip of an episode whose trigger is already
                // masked) is a set insert — one quarantine per hop.
                self.quarantines.insert(
                    event
                        .effective_quarantine()
                        .expect("WatchdogTrip has a target"),
                );
            }
            CtrlEvent::WatchdogClear { switch, port, tag } => {
                self.quarantines.remove(&(*switch, *port, tag.0));
            }
            CtrlEvent::Resync => {}
        }
        self.version += 1;
        Ok(())
    }

    /// True if `other` differs from this view at most in its failures
    /// (and [`NetworkState::version`]). The stage does not read the
    /// failure set, so such views stage the same snapshot.
    pub(crate) fn same_view_but_failures(&self, other: &NetworkState) -> bool {
        let NetworkState {
            version: _,
            failures: _,
            extra_paths,
            quarantines,
        } = self;
        *extra_paths == other.extra_paths && *quarantines == other.quarantines
    }

    /// True if a watchdog quarantined `switch`'s egress `port`, whatever
    /// the tag.
    pub(crate) fn is_quarantined(&self, switch: NodeId, port: PortId) -> bool {
        self.quarantines
            .iter()
            .any(|&(sw, p, _)| sw == switch && p == port)
    }

    /// True if `path` avoids every quarantined hop: no hop of the path
    /// leaves a quarantined switch through its quarantined egress port.
    pub fn quarantine_allows(&self, topo: &Topology, path: &Path) -> bool {
        if self.quarantines.is_empty() {
            return true;
        }
        path.hop_pairs().all(|(a, b)| {
            topo.port_towards(a, b)
                .is_none_or(|p| !self.is_quarantined(a, p))
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_topo::{ClosConfig, LinkId};

    #[test]
    fn apply_tracks_versions_and_rejects_bogus_links() {
        let topo = ClosConfig::small().build();
        let mut st = NetworkState::initial();
        let bogus = LinkId(topo.num_links() as u32);
        assert_eq!(
            st.apply(&topo, &CtrlEvent::LinkDown(bogus)),
            Err(CtrlError::UnknownLink(bogus))
        );
        assert_eq!(st.version, 0, "failed apply must not bump the version");

        let l = tagger_topo::resolve_link(&topo, "L1", "T1").unwrap();
        st.apply(&topo, &CtrlEvent::LinkDown(l)).unwrap();
        assert!(st.failures.is_failed(l));
        st.apply(&topo, &CtrlEvent::LinkUp(l)).unwrap();
        assert!(st.failures.is_empty());
        st.apply(&topo, &CtrlEvent::Resync).unwrap();
        assert_eq!(st.version, 3);
    }

    #[test]
    fn quarantine_masks_paths_through_the_hop() {
        let topo = ClosConfig::small().build();
        let mut st = NetworkState::initial();
        let l1 = topo.expect_node("L1");
        let s1 = topo.expect_node("S1");
        let port = topo.port_towards(l1, s1).unwrap();
        let trip = CtrlEvent::WatchdogTrip {
            switch: l1,
            port,
            tag: tagger_core::Tag(2),
            trigger: None,
        };
        st.apply(&topo, &trip).unwrap();
        assert_eq!(st.quarantines.len(), 1);

        let policy = ElpPolicy::with_bounces(1);
        let full = policy.elp(&topo, &st.failures, &st.extra_paths);
        let filtered = policy.elp_for(&topo, &st);
        assert!(
            filtered.len() < full.len(),
            "quarantining L1->S1 must drop paths ({} vs {})",
            filtered.len(),
            full.len()
        );
        for p in filtered.paths() {
            assert!(st.quarantine_allows(&topo, &p));
        }

        st.apply(
            &topo,
            &CtrlEvent::WatchdogClear {
                switch: l1,
                port,
                tag: tagger_core::Tag(2),
            },
        )
        .unwrap();
        assert!(st.quarantines.is_empty());
        assert_eq!(policy.elp_for(&topo, &st).len(), full.len());
    }

    #[test]
    fn attributed_trip_quarantines_the_trigger_not_the_victim() {
        let topo = ClosConfig::small().build();
        let mut st = NetworkState::initial();
        let l1 = topo.expect_node("L1");
        let s1 = topo.expect_node("S1");
        let victim_port = topo.port_towards(l1, s1).unwrap();
        let trigger_port = topo.port_towards(s1, topo.expect_node("L3")).unwrap();
        let trigger = crate::TriggerInfo {
            switch: s1,
            port: trigger_port,
            tag: tagger_core::Tag(2),
        };
        let trip = CtrlEvent::WatchdogTrip {
            switch: l1,
            port: victim_port,
            tag: tagger_core::Tag(2),
            trigger: Some(trigger),
        };
        st.apply(&topo, &trip).unwrap();
        assert_eq!(
            st.quarantines.iter().copied().collect::<Vec<_>>(),
            vec![(s1, trigger_port, 2)],
            "the trigger hop is masked, not the tripping victim"
        );

        // A later victim trip of the same episode, still blaming the
        // same trigger, collapses into the existing quarantine.
        let later = CtrlEvent::WatchdogTrip {
            switch: topo.expect_node("L3"),
            port: PortId(0),
            tag: tagger_core::Tag(2),
            trigger: Some(trigger),
        };
        st.apply(&topo, &later).unwrap();
        assert_eq!(st.quarantines.len(), 1, "one quarantine per episode");
    }

    #[test]
    fn elp_policy_masks_paths_over_failed_links() {
        let topo = ClosConfig::small().build();
        let pinned = tagger_routing::Path::from_names(&topo, &["H1", "T1", "L1", "T2", "H5"]);
        let policy = ElpPolicy::updown();
        let mut failures = FailureSet::none();

        let healthy = policy.elp(&topo, &failures, std::slice::from_ref(&pinned));
        assert!(healthy.contains(&pinned));

        failures.fail_between(&topo, "T1", "L1");
        let degraded = policy.elp(&topo, &failures, std::slice::from_ref(&pinned));
        assert!(
            !degraded.contains(&pinned),
            "a pinned path over a failed link must be masked"
        );
        assert!(degraded.len() < healthy.len());
    }
}
