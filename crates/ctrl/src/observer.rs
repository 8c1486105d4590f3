//! Post-commit observation hooks.
//!
//! The controller's own validation runs *before* commit, on the
//! algorithm's data structures. A [`CommitObserver`] sees each epoch
//! *after* it has committed — topology, committed snapshot, and the
//! commit report — which is where an independent verifier (one that
//! re-derives safety from the installed tables rather than trusting the
//! staging pipeline) plugs in. The controller itself does not depend on
//! any particular verifier; [`Journal::step`](crate::Journal::step)
//! calls the hook once per committed epoch, after the commit barrier and
//! the outcome record, never for rollbacks.

use crate::controller::{CommitReport, Snapshot};
use tagger_topo::Topology;

/// Receives every committed epoch after the commit barrier.
///
/// Implementations must not assume anything about call timing beyond
/// "the snapshot is the committed one this report created"; they are
/// free to record, audit, export, or panic — the controller treats the
/// hook as opaque.
pub trait CommitObserver {
    /// Called once per committed epoch, after the fleet holds the new
    /// tables. `snapshot` is the snapshot the commit produced; `report`
    /// is what [`crate::EpochOutcome::Committed`] carries.
    fn on_commit(&mut self, topo: &Topology, snapshot: &Snapshot, report: &CommitReport);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{
        Controller, CtrlEvent, ElpPolicy, InstallPolicy, Journal, ReliableSouthbound, Southbound,
    };
    use tagger_topo::ClosConfig;

    /// Records what the controller showed it, for assertions.
    struct Recording {
        epochs: Vec<u64>,
        exports: Vec<String>,
    }

    impl CommitObserver for Recording {
        fn on_commit(&mut self, topo: &Topology, snapshot: &Snapshot, report: &CommitReport) {
            assert_eq!(
                snapshot.epoch, report.epoch,
                "snapshot is the committed one"
            );
            self.epochs.push(snapshot.epoch);
            self.exports.push(snapshot.rules.to_table_text(topo));
        }
    }

    #[test]
    fn observer_sees_every_committed_epoch_with_exportable_tables() {
        let topo = ClosConfig::small().build();
        let mut ctrl = Controller::new(topo.clone(), ElpPolicy::with_bounces(1)).unwrap();
        let mut southbound = ReliableSouthbound::new();
        southbound.bootstrap(&ctrl.committed().rules);
        // Two different links: same-link down/up would flap-damp into a
        // single batch and a single commit.
        let l1t1 = topo
            .link_between(topo.expect_node("L1"), topo.expect_node("T1"))
            .unwrap();
        let l2t2 = topo
            .link_between(topo.expect_node("L2"), topo.expect_node("T2"))
            .unwrap();
        let events = [CtrlEvent::LinkDown(l1t1), CtrlEvent::LinkDown(l2t2)];
        let mut rec = Recording {
            epochs: Vec::new(),
            exports: Vec::new(),
        };
        let path = std::env::temp_dir().join(format!(
            "tagger-observer-{}-epochs.journal",
            std::process::id()
        ));
        let report = Journal::create(&path)
            .unwrap()
            .drive(
                &mut ctrl,
                &events,
                &mut southbound,
                &InstallPolicy::default(),
                None,
                Some(&mut rec),
            )
            .unwrap();
        let committed = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, crate::EpochOutcome::Committed(_)))
            .count();
        assert_eq!(rec.epochs.len(), committed);
        assert_eq!(rec.epochs, vec![1, 2]);
        // The export round-trips through the table-text parser.
        let last = rec.exports.last().unwrap();
        let parsed = tagger_core::RuleSet::from_table_text(&topo, last).unwrap();
        assert_eq!(&parsed, &ctrl.committed().rules);
        std::fs::remove_file(&path).ok();
    }
}
