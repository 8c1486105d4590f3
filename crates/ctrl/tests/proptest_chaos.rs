//! Property tests for the hardened southbound path (ISSUE satellite).
//!
//! For *any* seeded chaos schedule — install failures, lost-ack
//! timeouts, partial applies, and a crash at an arbitrary point,
//! including mid-epoch:
//!
//! 1. every committed snapshot is Theorem-5.1-verified, and the fleet's
//!    running tables always equal the committed tables (the commit
//!    barrier: no mixed-epoch network, ever);
//! 2. journal replay from the last checkpoint reproduces the committed
//!    tables byte-for-byte, and reconciliation repairs whatever the
//!    crash left on the switches;
//! 3. the recovered controller keeps journaling: once the tail is
//!    finished through the reopened journal, a second recovery equals
//!    the live controller and finds no tail.

use proptest::prelude::*;
use tagger_ctrl::{
    recover, ChaosConfig, ChaosSouthbound, Controller, CtrlEvent, ElpPolicy, EpochOutcome,
    InstallPolicy, Journal, Southbound,
};
use tagger_topo::{ClosConfig, LinkId, Topology};

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

/// The committed rules' closure graph passes Theorem 5.1.
fn certified(ctrl: &Controller) -> bool {
    let rules = &ctrl.committed().rules;
    rules
        .closure_graph(ctrl.topo(), std::iter::empty())
        .verify()
        .is_ok()
}

fn decode(links: &[LinkId], op: (usize, u8)) -> CtrlEvent {
    let link = links[op.0 % links.len()];
    match op.1 % 3 {
        0 => CtrlEvent::LinkDown(link),
        1 => CtrlEvent::LinkUp(link),
        _ => CtrlEvent::Resync,
    }
}

fn journal_path(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tagger-proptest-{}-{tag}-{seed}.journal",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_never_breaks_the_barrier_and_recovery_is_exact(
        ops in proptest::collection::vec((0usize..64, 0u8..3), 1..5),
        seed in 0u64..1024,
        fail_pct in 0u64..80,
        crash_at in 0usize..4,
    ) {
        let fail_rate = fail_pct as f64 / 100.0;
        let topo = ClosConfig::small().build();
        let links = fabric_links(&topo);
        let events: Vec<CtrlEvent> = ops.iter().map(|&op| decode(&links, op)).collect();
        let policy = ElpPolicy::with_bounces(1);
        let install = InstallPolicy { max_attempts: 3, ..InstallPolicy::default() };

        let mut ctrl = Controller::new(topo.clone(), policy)
            .expect("healthy small Clos must bootstrap");
        let mut sb = ChaosSouthbound::new(ChaosConfig {
            seed,
            fail_rate,
            timeout_rate: fail_rate / 4.0,
            partial_rate: fail_rate / 4.0,
        }.clamped());
        sb.bootstrap(&ctrl.committed().rules);

        let path = journal_path("chaos", seed);
        let mut journal = Journal::create(&path).expect("temp journal").checkpoint_every(2);
        let report = journal
            .drive(&mut ctrl, &events, &mut sb, &install, Some(crash_at as u64), None)
            .expect("in-range links never hard-error");

        // Invariant 1, checked at the crash point (drive itself asserts
        // the fleet against the committed tables after every epoch via
        // the commit barrier; the chaos southbound is ground truth):
        prop_assert!(certified(&ctrl));
        prop_assert_eq!(
            sb.fleet(), &ctrl.committed().rules,
            "fleet must equal the committed tables whenever the controller is at rest"
        );
        for outcome in &report.outcomes {
            if let EpochOutcome::Committed(r) = outcome {
                prop_assert!(r.install_attempts >= r.deltas.len() as u64);
            }
        }

        // Invariant 2: recovery from the journal reconverges exactly.
        let pre_rules = ctrl.committed().rules.clone();
        let pre_epoch = ctrl.committed().epoch;
        let pre_version = ctrl.state().version;
        drop(ctrl);
        let recovery = recover(&path, topo.clone(), policy, None).expect("journal must recover");
        let mut recovered = recovery.controller;
        prop_assert_eq!(recovered.committed().epoch, pre_epoch);
        prop_assert_eq!(recovered.state().version, pre_version);
        prop_assert_eq!(
            &recovered.committed().rules, &pre_rules,
            "journal replay must reproduce the committed tables byte-for-byte"
        );
        prop_assert!(certified(&recovered));

        // The crash may have left the fleet anywhere (the write-ahead
        // batch was never installed, or was half-installed); reconcile
        // must converge it onto the recovered committed tables.
        recovered.reconcile(&mut sb);
        prop_assert_eq!(sb.fleet(), &recovered.committed().rules);

        // And the tail (the batch in flight at the crash) finishes
        // cleanly through the reopened journal.
        prop_assert_eq!(report.crashed, !recovery.tail.is_empty());
        let mut journal = Journal::open_append(&path).expect("reopen").checkpoint_every(2);
        journal
            .drive(&mut recovered, &recovery.tail, &mut sb, &install, None, None)
            .expect("tail events stay well-formed");
        prop_assert_eq!(sb.fleet(), &recovered.committed().rules);
        prop_assert!(certified(&recovered));

        // Invariant 3: the journal now describes the live controller.
        let again = recover(&path, topo.clone(), policy, None).expect("journal must recover");
        prop_assert!(again.tail.is_empty());
        prop_assert_eq!(again.controller.committed().epoch, recovered.committed().epoch);
        prop_assert_eq!(again.controller.state().version, recovered.state().version);
        prop_assert_eq!(&again.controller.committed().rules, &recovered.committed().rules);
        prop_assert_eq!(&again.controller.state().quarantines, &recovered.state().quarantines);
        std::fs::remove_file(&path).ok();
    }
}
