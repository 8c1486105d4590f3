//! Crash anywhere: a journal cut at any byte offset recovers.
//!
//! A controller can die inside a record write and leave a torn final
//! line. Only a newline-terminated line is a record, so for every cut of
//! a journal:
//!
//! 1. [`recover`] succeeds;
//! 2. it rebuilds the epoch and committed tables the live run had after
//!    the cut's count of complete outcome records;
//! 3. with a reliable southbound, [`Journal::open_append`] drops the torn
//!    fragment, and finishing the trace through it writes the
//!    uninterrupted journal's `event` / `!ok` / `!rollback` records byte
//!    for byte. A checkpoint block the cut removed may be absent.
//!
//! The journals are `results/ctrld_chaos.journal` (chaos southbound, so
//! only 1 and 2 apply) and journals of seeded random traces.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tagger_core::RuleSet;
use tagger_ctrl::{
    parse_trace, recover, ChaosConfig, ChaosSouthbound, Controller, CtrlEvent, Damping, ElpPolicy,
    InstallPolicy, Journal, ReliableSouthbound, Southbound,
};
use tagger_topo::{ClosConfig, LinkId, NodeKind, Topology};

fn policy() -> ElpPolicy {
    ElpPolicy::with_bounces(1)
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-torn-{}-{tag}.journal", std::process::id()))
}

/// An uninterrupted run: its journal, and the committed epoch and tables
/// after each outcome record (index 0 is the bootstrap).
struct Live {
    journal: Vec<u8>,
    after: Vec<(u64, RuleSet)>,
}

fn live_run(
    topo: &Topology,
    events: &[CtrlEvent],
    southbound: &mut dyn Southbound,
    checkpoint_every: u64,
    path: &Path,
) -> Live {
    let mut ctrl = Controller::new(topo.clone(), policy()).unwrap();
    southbound.bootstrap(&ctrl.committed().rules);
    let mut journal = Journal::create(path)
        .unwrap()
        .checkpoint_every(checkpoint_every);
    let mut after = vec![(ctrl.committed().epoch, ctrl.committed().rules.clone())];
    for range in Damping::Flap.split(events) {
        journal
            .step(
                &mut ctrl,
                &events[range],
                southbound,
                &InstallPolicy::default(),
                None,
            )
            .unwrap();
        after.push((ctrl.committed().epoch, ctrl.committed().rules.clone()));
    }
    Live {
        journal: std::fs::read(path).unwrap(),
        after,
    }
}

/// The complete lines of a journal cut: everything up to its last
/// newline.
fn complete_lines(cut: &[u8]) -> Vec<&str> {
    let end = cut.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    std::str::from_utf8(&cut[..end]).unwrap().lines().collect()
}

fn is_outcome(line: &str) -> bool {
    line.starts_with("!ok ") || line.starts_with("!rollback ")
}

/// The records a finished trace must reproduce: checkpoints and the
/// header left out.
fn rollout_records(journal: &[u8]) -> Vec<&str> {
    complete_lines(journal)
        .into_iter()
        .filter(|l| l.starts_with("event ") || is_outcome(l))
        .collect()
}

/// Cuts `live.journal` at every byte offset and checks each cut. With
/// `finish` (the trace and its checkpoint cadence), each cut's trace is
/// also finished through the reopened journal.
fn check_every_cut(topo: &Topology, live: &Live, finish: Option<(&[CtrlEvent], u64)>, path: &Path) {
    for n in 0..=live.journal.len() {
        let cut = &live.journal[..n];
        std::fs::write(path, cut).unwrap();
        let rec = recover(path, topo.clone(), policy(), None)
            .unwrap_or_else(|e| panic!("cut at byte {n}: recover failed: {e}"));
        let lines = complete_lines(cut);
        let outcomes = lines.iter().filter(|l| is_outcome(l)).count();
        let (epoch, rules) = &live.after[outcomes];
        assert_eq!(
            rec.controller.committed().epoch,
            *epoch,
            "cut at byte {n}: epoch after {outcomes} outcome(s)"
        );
        assert!(
            rec.controller.committed().rules == *rules,
            "cut at byte {n}: tables differ from the live run's after {outcomes} outcome(s)"
        );

        let Some((events, checkpoint_every)) = finish else {
            continue;
        };
        let written = lines.iter().filter(|l| l.starts_with("event ")).count();
        let remaining = [rec.tail.as_slice(), &events[written..]].concat();
        let mut ctrl = rec.controller;
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&ctrl.committed().rules);
        Journal::open_append(path)
            .unwrap_or_else(|e| panic!("cut at byte {n}: reopen failed: {e}"))
            .checkpoint_every(checkpoint_every)
            .drive(
                &mut ctrl,
                &remaining,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("cut at byte {n}: finishing failed: {e}"));
        let finished = std::fs::read(path).unwrap();
        assert_eq!(
            rollout_records(&finished),
            rollout_records(&live.journal),
            "cut at byte {n}: the finished journal differs from the uninterrupted one"
        );
        assert_eq!(ctrl.committed().epoch, live.after.last().unwrap().0);
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn the_chaos_golden_recovers_from_every_cut() {
    let topo = ClosConfig::small().build();
    let events = parse_trace(&topo, include_str!("../../../examples/reroute.trace")).unwrap();
    let chaos = ChaosConfig::parse("seed=22,fail_rate=0.3,timeout_rate=0.1,partial_rate=0.1");
    let mut sb = ChaosSouthbound::new(chaos.unwrap());
    let path = tmp("chaos");
    let live = live_run(&topo, &events, &mut sb, 2, &path);
    assert_eq!(
        live.journal,
        include_bytes!("../../../results/ctrld_chaos.journal"),
        "the live run must write the golden"
    );
    check_every_cut(&topo, &live, None, &path);
}

/// Link events on switch-to-switch links, flaps (a down and an up of one
/// link, damped into one batch) and resyncs.
fn random_trace(topo: &Topology, seed: u64, len: usize) -> Vec<CtrlEvent> {
    let links: Vec<LinkId> = topo
        .link_ids()
        .filter(|&l| {
            let link = topo.link(l);
            topo.node(link.a.node).kind != NodeKind::Host
                && topo.node(link.b.node).kind != NodeKind::Host
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    while events.len() < len {
        let link = links[rng.random_range(0..links.len())];
        match rng.random_range(0u8..4) {
            0 => events.extend([CtrlEvent::LinkDown(link), CtrlEvent::LinkUp(link)]),
            1 => events.push(CtrlEvent::LinkDown(link)),
            2 => events.push(CtrlEvent::LinkUp(link)),
            _ => events.push(CtrlEvent::Resync),
        }
    }
    events
}

#[test]
fn random_traces_recover_and_finish_from_every_cut() {
    // One host per ToR keeps every staging cheap; the journal's records
    // do not depend on the host count.
    let topo = ClosConfig {
        hosts_per_tor: 1,
        ..ClosConfig::small()
    }
    .build();
    for seed in 0..3 {
        let events = random_trace(&topo, seed, 6);
        let path = tmp(&format!("random-{seed}"));
        let live = live_run(&topo, &events, &mut ReliableSouthbound::new(), 2, &path);
        check_every_cut(&topo, &live, Some((&events, 2)), &path);
    }
}
