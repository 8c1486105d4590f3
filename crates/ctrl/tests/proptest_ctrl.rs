//! Property tests for the controller's two-phase rollout.
//!
//! The contract under test (ISSUE satellite): for *any* event trace,
//! every committed snapshot is a verified deadlock-free tagging, and a
//! switch fleet that starts from the epoch-0 tables and applies the
//! emitted deltas in commit order ends up bit-identical to the
//! controller's final committed tables — the delta stream never drifts
//! from the snapshot it describes.

use proptest::prelude::*;
use tagger_ctrl::{Controller, CtrlEvent, ElpPolicy, EpochOutcome};
use tagger_topo::{ClosConfig, LinkId, Topology};

/// Switch-to-switch links of the small Clos, the interesting failure
/// domain (host links only disconnect one host).
fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.link_ids()
        .filter(|&l| {
            let link = topo.link(l);
            let (a, b) = (link.a.node, link.b.node);
            topo.node(a).kind != tagger_topo::NodeKind::Host
                && topo.node(b).kind != tagger_topo::NodeKind::Host
        })
        .collect()
}

/// Decodes one generated op against the candidate link list.
fn decode(links: &[LinkId], op: (usize, u8)) -> CtrlEvent {
    let link = links[op.0 % links.len()];
    match op.1 % 3 {
        0 => CtrlEvent::LinkDown(link),
        1 => CtrlEvent::LinkUp(link),
        _ => CtrlEvent::Resync,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn committed_snapshots_verify_and_deltas_replay_exactly(
        ops in proptest::collection::vec((0usize..64, 0u8..3), 1..5)
    ) {
        let topo = ClosConfig::small().build();
        let links = fabric_links(&topo);
        let mut ctrl = Controller::new(topo, ElpPolicy::with_bounces(1))
            .expect("healthy small Clos must bootstrap");

        // The "switch fleet": starts from epoch 0, sees only deltas.
        let mut fleet = ctrl.committed().rules.clone();
        prop_assert!(ctrl.committed().graph.verify().is_ok());

        let mut last_epoch = ctrl.committed().epoch;
        for op in ops {
            let event = decode(&links, op);
            let outcome = ctrl
                .handle_batch(std::slice::from_ref(&event))
                .expect("in-range links never hard-error");
            match outcome {
                EpochOutcome::Committed(report) => {
                    prop_assert_eq!(report.epoch, last_epoch + 1);
                    last_epoch = report.epoch;
                    for delta in &report.deltas {
                        fleet.apply_delta(delta);
                    }
                }
                EpochOutcome::RolledBack { .. } => {
                    // Rollback must leave the committed epoch untouched.
                    prop_assert_eq!(ctrl.committed().epoch, last_epoch);
                }
            }
            // The safety invariant: whatever happened, the committed
            // snapshot is a verified deadlock-free tagging.
            prop_assert!(ctrl.committed().graph.verify().is_ok());
        }

        prop_assert_eq!(
            &fleet,
            &ctrl.committed().rules,
            "replaying deltas from epoch 0 must reproduce the committed tables"
        );
    }
}
