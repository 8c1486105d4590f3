//! A link event on a Clos changes no rule, so the audit riding each of
//! its commits re-issues the certificate the bootstrap earned instead of
//! re-proving the same tables; the fabric's own `certify` still runs the
//! full audit with a fresh auditor.

use tagger_ctrl::CtrlEvent;
use tagger_fleet::{Damping, FabricSpec, Fleet, FleetConfig};
use tagger_topo::{ClosConfig, LinkId, NodeKind};

#[test]
fn link_flaps_reuse_the_bootstrap_certificate_and_certify_still_audits_in_full() {
    let dir = std::env::temp_dir().join(format!("tagger-audit-reuse-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let topo = ClosConfig::small().build();
    let is_switch = |n| topo.node(n).kind == NodeKind::Switch;
    let trunks: Vec<LinkId> = topo
        .link_ids()
        .filter(|&l| is_switch(topo.link(l).a.node) && is_switch(topo.link(l).b.node))
        .collect();

    let mut fleet = Fleet::new(FleetConfig::new(&dir));
    fleet
        .register(FabricSpec::new("clos", topo.clone()).with_damping(Damping::None))
        .expect("bootstrap");
    for &link in trunks.iter().cycle().take(20) {
        fleet.ingest("clos", CtrlEvent::LinkDown(link)).unwrap();
        fleet.ingest("clos", CtrlEvent::LinkUp(link)).unwrap();
    }
    let outcomes = fleet.drain_fabric("clos").expect("drain");
    assert_eq!(outcomes.len(), 40);
    for outcome in &outcomes {
        let report = outcome.committed().expect("a link event commits");
        assert!(report.deltas.is_empty(), "epoch {}", report.epoch);
        assert_eq!((report.rules_added, report.rules_removed), (0, 0));
    }

    let fabric = fleet.fabric("clos").unwrap();
    let audit = fabric.audit_metrics();
    assert_eq!(fabric.commits(), 40);
    assert_eq!(audit.audits_reused, 40);
    assert_eq!(audit.certificates_issued, fabric.commits() + 1);
    assert_eq!(audit.violations(), 0);
    assert!(fabric.certify());
    std::fs::remove_dir_all(&dir).ok();
}
