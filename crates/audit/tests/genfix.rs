use tagger_audit::{Auditor, Counterexample, DepGraph};
use tagger_core::clos::clos_tagging;
use tagger_core::Tag;
use tagger_topo::{ClosConfig, FailureSet};

#[test]
#[ignore]
fn generate_fixtures() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let config = ClosConfig {
        pods: 2,
        leaves_per_pod: 2,
        tors_per_pod: 2,
        spines: 3,
        hosts_per_tor: 2,
    };
    let topo = config.build();
    let tagging = clos_tagging(&topo, 2).unwrap();
    let mut rules = tagging.rules().clone();
    let l1 = topo.expect_node("L1");
    let in_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
    let out_s2 = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
    rules.set(
        l1,
        tagger_core::SwitchRule {
            tag: Tag(2),
            in_port: in_s1,
            out_port: out_s2,
            new_tag: Tag(1),
        },
    );
    let text = tagger_audit::checkpoint::render(&config.into(), 4, &topo, &rules);
    // Second, text-level defect for tagger-lint: a duplicate match key.
    // A first-match TCAM would apply the earlier (correct) line; the
    // last-write-wins table-text loader keeps the later (corrupt) one,
    // so the parsed RuleSet — and the audit goldens — are unchanged.
    let text = text.replace("rule 2 S1 S2 1\n", "rule 2 S1 S2 3\nrule 2 S1 S2 1\n");
    std::fs::write(format!("{root}/examples/corrupted.ckpt"), &text).unwrap();

    // Print the audit verdict so the golden test can pin exact values.
    let mut auditor = Auditor::new(topo.clone());
    let report = auditor.audit(4, &rules);
    println!("=== corrupted.ckpt audit ===");
    println!("{}", report.render(&topo));

    // Fig 1 DOT golden.
    let fig1 = std::fs::read_to_string(format!("{root}/examples/fig1_cycle.ckpt")).unwrap();
    let ckpt = tagger_audit::checkpoint::parse(&fig1).unwrap();
    let g = DepGraph::build(&ckpt.topo, &ckpt.rules, &FailureSet::none());
    let kahn = g.kahn();
    assert!(!kahn.is_acyclic());
    let cycle = g.minimal_cycle(&kahn.residual).unwrap();
    let cx = Counterexample::from_cycle(&ckpt.topo, &g, cycle, tagger_audit::REPLAY_END_NS);
    println!("=== fig1 cycle ===");
    println!("{}", cx.describe(&ckpt.topo));
    std::fs::write(format!("{root}/results/audit_fig1.dot"), cx.dot(&ckpt.topo)).unwrap();
}
