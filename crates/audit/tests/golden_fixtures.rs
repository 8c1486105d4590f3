//! Golden tests over the committed fixtures in `examples/` and
//! `results/`: the corrupted checkpoint must produce exactly the known
//! cycle (and its replay must actually deadlock), and the Figure 1
//! scenario must render exactly the committed highlighted DOT.

use tagger_audit::{checkpoint, Auditor, Counterexample, DepGraph, Finding};
use tagger_topo::FailureSet;

fn fixture(path: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn corrupted_checkpoint_yields_exactly_the_known_cycle() {
    let ckpt = checkpoint::parse(&fixture("examples/corrupted.ckpt")).unwrap();
    assert_eq!(ckpt.epoch, 4);
    let mut auditor = Auditor::new(ckpt.topo.clone());
    let report = auditor.audit(ckpt.epoch, &ckpt.rules);
    assert!(!report.is_certified());
    // The auditor's own metrics count the refusal: one audit, no
    // certificate, one violation.
    assert_eq!(auditor.metrics.epochs_audited, 1);
    assert_eq!(auditor.metrics.violations(), 1);

    // The exact non-monotone edge.
    let decreases: Vec<String> = report
        .findings
        .iter()
        .filter_map(|f| match f {
            Finding::TagDecrease { from, to } => Some(format!(
                "{} -> {}",
                from.describe(&ckpt.topo),
                to.describe(&ckpt.topo)
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        decreases,
        vec!["L1[in S1, tag 2] -> S2[in L1, tag 1]".to_string()]
    );

    // The exact offending cycle, canonically rotated.
    let cycle = report
        .findings
        .iter()
        .find_map(|f| match f {
            Finding::CyclicDependency { cycle } => Some(cycle),
            _ => None,
        })
        .expect("cycle finding");
    let hops: Vec<String> = cycle.iter().map(|n| n.describe(&ckpt.topo)).collect();
    assert_eq!(
        hops,
        vec![
            "S1[in L2, tag 2]",
            "L1[in S1, tag 2]",
            "S2[in L1, tag 1]",
            "L2[in S2, tag 1]",
        ]
    );

    // The generated flows demonstrate the deadlock in the simulator.
    let cx = report.counterexample.as_ref().expect("counterexample");
    assert_eq!(cx.flows.len(), 4, "one flow per cycle hop");
    let (sim_report, _) = cx.replay(&ckpt.topo, &ckpt.rules, tagger_audit::REPLAY_END_NS);
    assert!(
        sim_report.deadlock.is_some(),
        "counterexample replay must reach a detected deadlock"
    );
}

#[test]
fn fig1_dump_matches_committed_dot() {
    let ckpt = checkpoint::parse(&fixture("examples/fig1_cycle.ckpt")).unwrap();
    let g = DepGraph::build(&ckpt.topo, &ckpt.rules, &FailureSet::none());
    let kahn = g.kahn();
    assert!(!kahn.is_acyclic(), "Figure 1 is the canonical CBD");
    let cycle = g.minimal_cycle(&kahn.residual).unwrap();
    let hops: Vec<String> = cycle.iter().map(|n| n.describe(&ckpt.topo)).collect();
    assert_eq!(
        hops,
        vec![
            "S1[in L1, tag 1]",
            "L3[in S1, tag 1]",
            "S2[in L3, tag 1]",
            "L1[in S2, tag 1]",
        ]
    );
    let cx = Counterexample::from_cycle(&ckpt.topo, &g, cycle, tagger_audit::REPLAY_END_NS);
    assert_eq!(cx.dot(&ckpt.topo), fixture("results/audit_fig1.dot"));
}
