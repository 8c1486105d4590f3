//! The paper's §4.4 bound, held against the live controller: on a Clos
//! with a `k`-bounce ELP policy, every committed epoch spends exactly
//! `k + 1` lossless priorities, stays lossless over the view's own ELP,
//! and passes the independent auditor — under any mix of link failures
//! and watchdog quarantines.
//!
//! The controller certifies the closed form by a walk over its rules
//! ([`check_bounce_walks_lossless`]), not by enumerating the ELP. The
//! fence here holds that certificate to the enumerating judge
//! ([`Tagging::check_elp_lossless`]): they agree on every committed
//! epoch, and on tables with a planted fault the certificate refuses
//! whatever the ELP judge refuses.

use proptest::prelude::*;
use proptest::TestCaseError;
use tagger_audit::Auditor;
use tagger_core::clos::{check_bounce_walks_lossless, clos_tagging};
use tagger_core::{
    decide, Elp, RuleSet, SwitchRule, Tag, TagDecision, TaggedGraph, Tagging, Verdict,
};
use tagger_ctrl::{Controller, CtrlEvent, ElpPolicy, NetworkState};
use tagger_topo::{ClosConfig, FailureSet, GlobalPort, LinkId, NodeId, NodeKind, PortId, Topology};

/// Switch-to-switch links: the failure domain that reroutes traffic.
fn trunks(topo: &Topology) -> Vec<LinkId> {
    let is_switch = |n: NodeId| topo.node(n).kind == NodeKind::Switch;
    topo.link_ids()
        .filter(|&l| is_switch(topo.link(l).a.node) && is_switch(topo.link(l).b.node))
        .collect()
}

/// Every `(switch, egress port)` a watchdog could trip on.
fn hops(topo: &Topology) -> Vec<(NodeId, PortId)> {
    topo.switch_ids()
        .flat_map(|sw| topo.neighbors(sw).map(move |(port, _, _)| (sw, port)))
        .collect()
}

/// At most this many hops are quarantined at once, so that every
/// generated fabric keeps a bounce rule for each tag.
const MAX_QUARANTINES: usize = 2;

/// Decodes one generated op into an event against the committed view.
fn decode(topo: &Topology, state: &NetworkState, k: usize, (pick, kind): (usize, u8)) -> CtrlEvent {
    let links = trunks(topo);
    let hops = hops(topo);
    let link = links[pick % links.len()];
    let quarantined: Vec<_> = state.quarantines.iter().copied().collect();
    match kind % 5 {
        0 => CtrlEvent::LinkDown(link),
        1 => CtrlEvent::LinkUp(link),
        2 if state.quarantines.len() < MAX_QUARANTINES => {
            let (switch, port) = hops[pick % hops.len()];
            CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag: Tag((pick % (k + 1) + 1) as u16),
                trigger: None,
            }
        }
        2 | 3 if !quarantined.is_empty() => {
            let (switch, port, tag) = quarantined[pick % quarantined.len()];
            CtrlEvent::WatchdogClear {
                switch,
                port,
                tag: Tag(tag),
            }
        }
        _ => CtrlEvent::Resync,
    }
}

/// The two judges of a committed epoch's losslessness, as `(structural
/// certificate accepts, ELP sweep accepts)`: the walk over the rules
/// under the view's quarantines, and [`Tagging::check_elp_lossless`] over
/// the failure-free ELP with the same quarantines, `failure_free`.
fn judges(ctrl: &Controller, tagging: &Tagging, failure_free: &Elp) -> (bool, bool) {
    let (topo, state) = (ctrl.topo(), ctrl.state());
    let walks =
        check_bounce_walks_lossless(topo, tagging.rules(), ctrl.policy().bounces, |sw, port| {
            state
                .quarantines
                .iter()
                .any(|&(s, p, _)| s == sw && p == port)
        });
    (
        walks.is_ok(),
        tagging.check_elp_lossless(topo, failure_free).is_ok(),
    )
}

/// The four claims about one committed epoch.
fn check_epoch(ctrl: &Controller, k: usize) -> Result<(), TestCaseError> {
    let topo = ctrl.topo();
    let state = ctrl.state();
    let snapshot = ctrl.committed();
    let elp = ctrl.policy().elp_for(topo, state);
    let tagging = Tagging::new(snapshot.graph.clone(), snapshot.rules.clone())
        .map_err(|e| TestCaseError::Fail(format!("committed graph: {e}")))?;
    prop_assert!(
        tagging.check_elp_lossless(topo, &elp).is_ok(),
        "epoch {}: the committed rules drop a path of the view's ELP",
        snapshot.epoch
    );

    let healed = NetworkState {
        failures: FailureSet::none(),
        ..state.clone()
    };
    let failure_free = ctrl.policy().elp_for(topo, &healed);
    for path in elp.paths() {
        prop_assert!(
            failure_free.contains(&path),
            "a failure view's ELP holds a path the failure-free ELP lacks"
        );
    }
    let (walks, sweep) = judges(ctrl, &tagging, &failure_free);
    prop_assert_eq!(
        walks,
        sweep,
        "epoch {}: the structural certificate and the ELP sweep disagree",
        snapshot.epoch
    );

    prop_assert_eq!(snapshot.lossless_tags, k + 1);

    let report = Auditor::new(topo.clone()).audit(snapshot.epoch, &snapshot.rules);
    prop_assert!(
        report.is_certified(),
        "epoch {} failed its audit",
        snapshot.epoch
    );
    Ok(())
}

/// The random small Clos `(pods, ToRs per pod, spines, hosts per ToR)`
/// both proptests draw: two leaves per pod, and two ToRs on a one-pod
/// fabric, enough bounce points that two quarantines never mask them all.
fn small_clos((pods, tors, spines, hosts): (usize, usize, usize, usize)) -> ClosConfig {
    ClosConfig {
        pods,
        leaves_per_pod: 2,
        tors_per_pod: if pods == 1 { 2 } else { tors },
        spines,
        hosts_per_tor: hosts,
    }
}

/// `Some(true)` for an up hop, `Some(false)` for a down one, `None` for
/// a lateral one, as the bounce enumeration classifies hops.
fn goes_up(topo: &Topology, from: NodeId, to: NodeId) -> Option<bool> {
    if topo.is_up_hop(from, to) {
        Some(true)
    } else if topo.is_down_hop(from, to) {
        Some(false)
    } else {
        None
    }
}

/// The family [`check_bounce_walks_lossless`] stands for, judged one walk
/// at a time by plain recursion, with no visited set: true if every walk
/// on from `ingress` — no U-turn, no lateral hop, at most `k` bounces in
/// all — meets a rule at every switch.
fn every_walk_lossless(
    topo: &Topology,
    rules: &RuleSet,
    k: usize,
    (ingress, tag, bounces): (GlobalPort, Tag, usize),
) -> bool {
    let sw = ingress.node;
    let came_up = goes_up(topo, topo.peer_of(ingress).unwrap().node, sw).unwrap();
    topo.neighbors(sw).all(|(out_port, _, next)| {
        if out_port == ingress.port {
            return true;
        }
        let Some(up) = goes_up(topo, sw, next) else {
            return true;
        };
        let after = bounces + usize::from(!came_up && up);
        if after > k {
            return true;
        }
        match rules.decide(sw, tag, ingress.port, out_port) {
            TagDecision::Lossy => false,
            TagDecision::Lossless(_) if topo.node(next).kind == NodeKind::Host => true,
            TagDecision::Lossless(new_tag) => {
                let at = topo.peer_of(GlobalPort::new(sw, out_port)).unwrap();
                every_walk_lossless(topo, rules, k, (at, new_tag, after))
            }
        }
    })
}

/// [`every_walk_lossless`] from every host-facing switch ingress.
fn every_host_walk_lossless(topo: &Topology, rules: &RuleSet, k: usize) -> bool {
    topo.host_ids().all(|host| {
        topo.neighbors(host).all(|(port, _, sw)| {
            goes_up(topo, host, sw).is_none() || {
                let ingress = topo.peer_of(GlobalPort::new(host, port)).unwrap();
                every_walk_lossless(topo, rules, k, (ingress, Tag::INITIAL, 0))
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clos_epochs_spend_k_plus_one_priorities_and_stay_lossless(
        shape in (1usize..3, 1usize..3, 1usize..3, 1usize..3),
        k in 0usize..3,
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..1024, 0u8..5), 1..3),
            1..6,
        ),
    ) {
        let mut ctrl = Controller::new(small_clos(shape).build(), ElpPolicy::with_bounces(k))
            .expect("a healthy Clos bootstraps");
        check_epoch(&ctrl, k)?;
        for ops in batches {
            let batch: Vec<CtrlEvent> = ops
                .into_iter()
                .map(|op| decode(ctrl.topo(), ctrl.state(), k, op))
                .collect();
            let outcome = ctrl.handle_batch(&batch).expect("in-range events");
            prop_assert!(outcome.committed().is_some(), "{:?}", outcome);
            check_epoch(&ctrl, k)?;
        }
    }
}

/// The fabrics the repo ships: the testbed Clos (also `tagger-fleetd`'s
/// default), `epoch-clos-b1`'s and `ingest-storm`'s, each with the bounce
/// counts for which [`decide`] answers within a second in release
/// (`epoch-clos-b1` at k = 2 enumerates 1.16 M paths and takes 2 s).
fn shipped_fabrics() -> [(&'static str, ClosConfig, &'static [usize]); 3] {
    [
        ("small", ClosConfig::small(), &[0, 1, 2]),
        (
            "epoch-clos-b1",
            ClosConfig {
                pods: 3,
                leaves_per_pod: 2,
                tors_per_pod: 4,
                spines: 4,
                hosts_per_tor: 1,
            },
            &[0, 1],
        ),
        (
            "ingest-storm",
            ClosConfig {
                pods: 2,
                leaves_per_pod: 2,
                tors_per_pod: 2,
                spines: 2,
                hosts_per_tor: 1,
            },
            &[0, 1, 2],
        ),
    ]
}

/// Epoch 0 spends what the oracle's best `k + 1`-tag layering spends,
/// never less than its lower bound, and exactly the lower bound where the
/// oracle proves one: at k ≤ 1 (one tag, or a dependency cycle that
/// forces two). At k = 2 these ELPs are past the oracle's exhaustive
/// search, so its bound stays at 2 while the paper's pigeonhole
/// argument (§4.4) gives 3.
#[test]
fn epoch_zero_spends_the_oracles_lower_bound() {
    for (name, clos, bounces) in shipped_fabrics() {
        let topo = clos.build();
        for &k in bounces {
            let policy = ElpPolicy::with_bounces(k);
            let ctrl = Controller::new(topo.clone(), policy).expect("bootstrap");
            let spent = ctrl.committed().lossless_tags;
            let elp = policy.elp_for(&topo, ctrl.state());
            let Verdict::Feasible(verdict) = decide(&topo, &elp, Some(k + 1)) else {
                panic!("{name} k={k}: the oracle found no {}-tag tagging", k + 1);
            };
            assert_eq!(spent, verdict.tags_used, "{name} k={k}");
            assert!(verdict.lower_bound_tags <= spent, "{name} k={k}");
            if k <= 1 {
                assert_eq!(
                    spent, verdict.lower_bound_tags,
                    "{name} k={k}: epoch 0 spends more priorities than the oracle's lower bound"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One fault planted in a closed-form table: a rule deleted
    /// (`rewrite == 0`) or its new tag rewritten to another value. The
    /// certificate refuses whatever the ELP judge refuses, and its verdict
    /// is exactly the one-walk-at-a-time judge's. It does not always agree
    /// with the ELP judge: walks may revisit a node, ELP paths may not,
    /// so a fault only such a walk meets is refused by the certificate
    /// alone (EXPERIMENTS.md, "The structural certificate").
    #[test]
    fn a_planted_fault_the_elp_judge_refuses_is_refused_by_the_certificate(
        fat_tree in 0u8..4,
        shape in (1usize..3, 1usize..3, 1usize..3, 1usize..3),
        k in 0usize..3,
        pick in 0usize..4096,
        rewrite in 0u16..6,
    ) {
        // A quarter of the cases run on `fattree 4`.
        let topo = if fat_tree == 0 {
            tagger_topo::fat_tree(4)
        } else {
            small_clos(shape).build()
        };
        let mut rules = clos_tagging(&topo, k).unwrap().rules().clone();
        let closed_form: Vec<_> = rules.iter().collect();
        let (sw, rule) = closed_form[pick % closed_form.len()];
        prop_assert!(rules.remove(sw, rule));
        if rewrite > 0 {
            // Any other tag: lossless ones, and ones past k + 1.
            let span = k as u16 + 4;
            let new_tag = Tag((rule.new_tag.0 + 1 + (rewrite - 1) % (span - 1)) % span);
            prop_assert_ne!(new_tag, rule.new_tag);
            prop_assert!(rules.add(sw, SwitchRule { new_tag, ..rule }).is_ok());
        }

        let certificate = check_bounce_walks_lossless(&topo, &rules, k, |_, _| false).is_ok();
        let elp = Elp::updown_with_bounces(&topo, k);
        let sweep = Tagging::new(TaggedGraph::new(), rules.clone())
            .unwrap()
            .check_elp_lossless(&topo, &elp)
            .is_ok();
        prop_assert!(
            sweep || !certificate,
            "the certificate accepts a fault at {:?} the ELP judge refuses",
            (sw, rule, rewrite)
        );
        prop_assert_eq!(certificate, every_host_walk_lossless(&topo, &rules, k));
    }
}
