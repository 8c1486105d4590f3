//! The paper's §4.4 bound, held against the live controller: on a Clos
//! with a `k`-bounce ELP policy, every committed epoch spends `k + 1`
//! lossless priorities — at most `max(k, b) + 1` while a pinned extra of
//! `b` bounces rides on it, and, where extras add rules, no more than
//! Algorithm 1+2 spends on the same view — stays lossless over the
//! view's own ELP, and passes the independent auditor, under any mix of
//! link failures, watchdog quarantines and pinned extras; and a link
//! event never changes a table.
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
use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::{
    decide, Elp, RuleSet, SwitchRule, Tag, TagDecision, TaggedGraph, Tagging, Verdict,
};
use tagger_ctrl::{Controller, CtrlEvent, ElpPolicy, NetworkState};
use tagger_routing::{bounce_paths_between, Path};
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

/// A loop-free path between the two distinct hosts `pair` picks, with
/// `bounces % (k + 3)` bounces or as many as the pair has below that —
/// an extra of 0 to `k + 2` bounces — the one `path` picks.
fn extra(topo: &Topology, k: usize, (pair, bounces, path): (usize, usize, usize)) -> Path {
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    let src = pair % hosts.len();
    let dst = (src + 1 + pair / hosts.len() % (hosts.len() - 1)) % hosts.len();
    let paths = bounce_paths_between(topo, &FailureSet::none(), hosts[src], hosts[dst], k + 2);
    let most = paths.iter().map(|p| p.bounces(topo)).max().unwrap_or(0);
    let bounces = most.min(bounces % (k + 3));
    let paths: Vec<Path> = paths
        .into_iter()
        .filter(|p| p.bounces(topo) == bounces)
        .collect();
    paths[path % paths.len()].clone()
}

/// Decodes one generated op into an event against the committed view.
fn decode(topo: &Topology, state: &NetworkState, k: usize, (pick, kind): (usize, u8)) -> CtrlEvent {
    let links = trunks(topo);
    let hops = hops(topo);
    let link = links[pick % links.len()];
    let quarantined: Vec<_> = state.quarantines.iter().copied().collect();
    match kind % 7 {
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
        5 => CtrlEvent::ElpAdd(extra(topo, k, (pick, pick / 3, pick / 7))),
        6 if !state.extra_paths.is_empty() => {
            CtrlEvent::ElpRemove(state.extra_paths[pick % state.extra_paths.len()].clone())
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

/// `max(k, b)` over the extras the committed view carries: an extra a
/// quarantine leaves out is not carried, live or not.
fn carried_bounces(ctrl: &Controller, k: usize) -> usize {
    let (topo, state) = (ctrl.topo(), ctrl.state());
    state
        .extra_paths
        .iter()
        .filter(|path| state.quarantine_allows(topo, path))
        .map(|path| path.bounces(topo))
        .fold(k, usize::max)
}

/// The committed epoch spends between `k + 1` and `max(k, b) + 1`
/// priorities: an extra keeps its tag wherever that closes no cycle, so
/// it may spend fewer than its bounces.
fn check_priorities(ctrl: &Controller, k: usize) -> Result<(), TestCaseError> {
    let spent = ctrl.committed().lossless_tags;
    prop_assert!(
        (k + 1..=carried_bounces(ctrl, k) + 1).contains(&spent),
        "epoch {} spends {spent} priorities at k = {k}",
        ctrl.committed().epoch
    );
    Ok(())
}

/// The claims about an epoch without quarantines that need no
/// enumeration: [`check_priorities`], every extra lossless hop by
/// hop, every k-bounce walk lossless, and the auditor's certificate.
fn check_pinned(ctrl: &Controller, k: usize) -> Result<(), TestCaseError> {
    let (topo, snapshot) = (ctrl.topo(), ctrl.committed());
    check_priorities(ctrl, k)?;
    let extras = Elp::from_paths(ctrl.state().extra_paths.clone());
    let tagging = Tagging::new(
        snapshot.rules.closure_graph(topo, std::iter::empty()),
        snapshot.rules.clone(),
    )
    .map_err(|e| TestCaseError::Fail(format!("committed graph: {e}")))?;
    prop_assert!(tagging.check_elp_lossless(topo, &extras).is_ok());
    prop_assert!(check_bounce_walks_lossless(topo, &snapshot.rules, k, |_, _| false).is_ok());
    let report = Auditor::new(topo.clone()).audit(snapshot.epoch, &snapshot.rules);
    prop_assert!(
        report.is_certified(),
        "epoch {} failed its audit",
        snapshot.epoch
    );
    Ok(())
}

/// An epoch whose extras added rules to the closed form, held against
/// Algorithm 1+2 over the same view's ELP, the reference for such
/// views: no more priorities, and no more worst-switch TCAM at k ≥ 1.
/// At k = 0 an extra's hops after a bump need tag-2 entries the closed
/// form has nowhere to share, where Algorithm 1+2 re-tags existing turns
/// around them, so it may spend one entry more (EXPERIMENTS.md, "One
/// stager"; ROADMAP item 21).
fn check_against_algorithm_1_2(ctrl: &Controller, k: usize) -> Result<(), TestCaseError> {
    let (topo, snapshot) = (ctrl.topo(), ctrl.committed());
    let generic = Tagging::from_elp(topo, &ctrl.policy().elp_for(topo, ctrl.state()))
        .map_err(|e| TestCaseError::Fail(format!("Algorithm 1+2: {e}")))?;
    prop_assert!(snapshot.lossless_tags <= generic.num_lossless_tags_on(topo));
    let tcam = TcamProgram::compile(topo, generic.rules(), Compression::Joint);
    prop_assert!(
        snapshot.tcam_worst_switch <= tcam.max_entries_per_switch() + usize::from(k == 0),
        "worst-switch TCAM {} against Algorithm 1+2's {}",
        snapshot.tcam_worst_switch,
        tcam.max_entries_per_switch()
    );
    Ok(())
}

/// The four claims about one committed epoch.
fn check_epoch(ctrl: &Controller, k: usize) -> Result<(), TestCaseError> {
    let topo = ctrl.topo();
    let state = ctrl.state();
    let snapshot = ctrl.committed();
    let elp = ctrl.policy().elp_for(topo, state);
    let tagging = Tagging::new(
        snapshot.rules.closure_graph(topo, std::iter::empty()),
        snapshot.rules.clone(),
    )
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

    check_priorities(ctrl, k)?;

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
            proptest::collection::vec((0usize..1024, 0u8..7), 1..3),
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
            let Some(report) = outcome.committed() else {
                return Err(TestCaseError::Fail(format!("{outcome:?}")));
            };
            let links_only = batch
                .iter()
                .all(|e| matches!(e, CtrlEvent::LinkDown(_) | CtrlEvent::LinkUp(_)));
            prop_assert!(
                !links_only || report.delta_ops() == 0,
                "a link event changed {} rules with {} extra(s) pinned",
                report.delta_ops(),
                ctrl.state().extra_paths.len()
            );
            check_epoch(&ctrl, k)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extras of 0 to `k + 2` bounces pinned one by one, link events while
    /// they are pinned, then the extras withdrawn: every epoch passes
    /// [`check_pinned`], an extra that adds rules spends no more than
    /// [`check_against_algorithm_1_2`] allows, the link events change no
    /// table, and the withdrawals restore epoch 0's. ([`check_epoch`] judges extras in
    /// the other proptest, on fabrics small enough to enumerate the ELP
    /// of every epoch.)
    #[test]
    fn pinned_extras_spend_their_own_bounces_and_link_events_change_nothing(
        testbed in any::<bool>(),
        shape in (1usize..3, 1usize..3, 1usize..3, 1usize..3),
        k in 0usize..3,
        picks in proptest::collection::vec((0usize..1024, 0usize..5, 0usize..1024), 1..4),
        links in proptest::collection::vec((0usize..1024, any::<bool>()), 1..5),
    ) {
        // Half the cases run on the testbed Clos, which has room for
        // loop-free paths of two bounces; the random shapes rarely do.
        let clos = if testbed { ClosConfig::small() } else { small_clos(shape) };
        let mut ctrl = Controller::new(clos.build(), ElpPolicy::with_bounces(k))
            .expect("a healthy Clos bootstraps");
        let healthy = ctrl.committed().rules.clone();
        let extras: Vec<Path> = picks.iter().map(|&p| extra(ctrl.topo(), k, p)).collect();
        for path in &extras {
            let outcome = ctrl.handle_batch(&[CtrlEvent::ElpAdd(path.clone())]).unwrap();
            prop_assert!(outcome.committed().is_some(), "{:?}", outcome);
            check_pinned(&ctrl, k)?;
            if ctrl.committed().rules != healthy {
                check_against_algorithm_1_2(&ctrl, k)?;
            }
        }
        let trunks = trunks(ctrl.topo());
        for (pick, down) in links {
            let link = trunks[pick % trunks.len()];
            let event = if down { CtrlEvent::LinkDown(link) } else { CtrlEvent::LinkUp(link) };
            let outcome = ctrl.handle_batch(&[event]).unwrap();
            let report = outcome.committed().expect("a link event commits");
            prop_assert_eq!(report.delta_ops(), 0);
            check_pinned(&ctrl, k)?;
        }
        for path in extras {
            ctrl.handle_batch(&[CtrlEvent::ElpRemove(path)]).unwrap();
            check_pinned(&ctrl, k)?;
        }
        prop_assert_eq!(&ctrl.committed().rules, &healthy);
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
