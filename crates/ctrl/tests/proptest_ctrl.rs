//! Property tests for the controller's two-phase rollout.
//!
//! The contract under test (ISSUE satellite): for *any* event trace,
//! every committed snapshot is a verified deadlock-free tagging, and a
//! switch fleet that starts from the epoch-0 tables and applies the
//! emitted deltas in commit order ends up bit-identical to the
//! controller's final committed tables — the delta stream never drifts
//! from the snapshot it describes.

use proptest::prelude::*;
use proptest::TestCaseError;
use tagger_ctrl::{
    ChaosConfig, ChaosSouthbound, Controller, CtrlEvent, ElpPolicy, EpochOutcome, InstallPolicy,
    Southbound,
};
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

/// One generated step of the reuse properties, decoded against the link
/// list and the event applied before it.
fn decode_step(links: &[LinkId], last: Option<&CtrlEvent>, op: (usize, u8)) -> Vec<CtrlEvent> {
    let link = links[op.0 % links.len()];
    match op.1 % 5 {
        0 => vec![CtrlEvent::LinkDown(link)],
        1 => vec![CtrlEvent::LinkUp(link)],
        // Undo the previous event: the view goes back to the one before.
        2 => vec![match last {
            Some(CtrlEvent::LinkDown(l)) => CtrlEvent::LinkUp(*l),
            Some(CtrlEvent::LinkUp(l)) => CtrlEvent::LinkDown(*l),
            _ => CtrlEvent::Resync,
        }],
        3 => vec![CtrlEvent::Resync],
        // A flap inside one batch: the view ends where it started.
        _ => vec![CtrlEvent::LinkDown(link), CtrlEvent::LinkUp(link)],
    }
}

/// Staging is a pure function of `(topo, policy, state)`: whatever a
/// controller committed for its current view is what a controller built
/// from scratch for that view commits.
fn assert_matches_fresh(ctrl: &Controller) -> Result<(), TestCaseError> {
    let fresh = Controller::resume(
        ctrl.topo().clone(),
        ctrl.policy(),
        None,
        ctrl.state().clone(),
        ctrl.committed().epoch,
    )
    .expect("a committed view stages again");
    let (live, fresh) = (ctrl.committed(), fresh.committed());
    prop_assert_eq!(live.version, ctrl.state().version);
    prop_assert_eq!(&live.graph, &fresh.graph);
    prop_assert_eq!(&live.rules, &fresh.rules);
    prop_assert_eq!(live.lossless_tags, fresh.lossless_tags);
    prop_assert_eq!(live.tcam_worst_switch, fresh.tcam_worst_switch);
    prop_assert_eq!(live.elp_paths, fresh.elp_paths);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn committed_snapshot_is_the_one_a_fresh_controller_stages(
        ops in proptest::collection::vec((0usize..64, 0u8..5), 1..8)
    ) {
        let topo = ClosConfig::small().build();
        let links = fabric_links(&topo);
        let mut ctrl = Controller::new(topo, ElpPolicy::with_bounces(1))
            .expect("healthy small Clos must bootstrap");
        let mut last: Option<CtrlEvent> = None;
        for op in ops {
            let batch = decode_step(&links, last.as_ref(), op);
            ctrl.handle_batch(&batch).expect("in-range links never hard-error");
            last = batch.last().cloned();
            assert_matches_fresh(&ctrl)?;
        }
    }

    #[test]
    fn committed_snapshot_matches_a_fresh_stage_under_chaotic_installs(
        seed in 0u64..1_000,
        ops in proptest::collection::vec((0usize..64, 0u8..5), 1..8)
    ) {
        let topo = ClosConfig::small().build();
        let links = fabric_links(&topo);
        let mut ctrl = Controller::new(topo, ElpPolicy::with_bounces(1))
            .expect("healthy small Clos must bootstrap");
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(seed, 0.4));
        sb.bootstrap(&ctrl.committed().rules);
        // A tight attempt budget, so that some epochs roll back.
        let policy = InstallPolicy {
            max_attempts: 2,
            ..InstallPolicy::default()
        };
        let mut last: Option<CtrlEvent> = None;
        for op in ops {
            let batch = decode_step(&links, last.as_ref(), op);
            ctrl.handle_batch_via(&batch, &mut sb, &policy)
                .expect("in-range links never hard-error");
            last = batch.last().cloned();
            prop_assert_eq!(sb.fleet(), &ctrl.committed().rules);
            assert_matches_fresh(&ctrl)?;
        }
    }
}
