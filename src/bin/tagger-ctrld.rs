//! `tagger-ctrld` — replay a control-plane event trace through the
//! incremental Tagger controller.
//!
//! Boots a [`tagger::ctrl::Controller`] for a 3-layer Clos, commits the
//! epoch-0 tagging, then feeds it the events from a plain-text trace
//! (see `examples/reroute.trace` for the format) and prints, per epoch,
//! what a real deployment would ship to switches: per-switch rule
//! deltas, their cost against a full-table reinstall, and the
//! verification verdict. Ends with the controller's metrics report.
//!
//! ```text
//! tagger-ctrld [trace-file] [--pods N] [--leaves N] [--tors N] [--spines N]
//!              [--hosts N] [--bounces K] [--tcam-budget N] [--verbose]
//!              [--chaos seed=N,fail_rate=P[,timeout_rate=P][,partial_rate=P]]
//!              [--journal PATH] [--checkpoint-every N] [--crash-after N]
//!              [--audit] [--export-checkpoint PATH]
//!              [--watchdog WINDOW_US [--watchdog-policy drop|demote]]
//! ```
//!
//! With no trace file, replays the canonical single-link flap
//! (down L1 T1, then up L1 T1) — the paper's reroute scenario.
//!
//! Installs go through a southbound: reliable by default, or the seeded
//! fault-injecting one with `--chaos` (installs are refused, time out,
//! or partially apply; the controller retries with exponential backoff
//! and rolls whole epochs back rather than ever leaving the fleet
//! mixed-epoch). Consecutive events on the same link are flap-damped
//! into one recompute.
//!
//! With `--journal` every event is write-ahead journaled and a snapshot
//! checkpoint is taken every `--checkpoint-every` outcomes (default 4).
//! `--crash-after N` runs the crash-recovery drill: the controller
//! "crashes" after N epochs (mid-epoch — the next batch is journaled
//! but unprocessed), is rebuilt from the journal, and the drill verifies
//! the recovered committed tables are byte-for-byte the crashed
//! controller's before reconciling the fleet and finishing the trace.
//!
//! `--watchdog WINDOW_US` runs the data-plane safety-net drill instead
//! of a trace replay: the embedded corrupted tables from
//! `examples/corrupted.ckpt` are audited, their counterexample flows
//! are replayed once without a watchdog (permanent deadlock) and once
//! with the per-queue PFC watchdog armed at the given window
//! (`--watchdog-policy` selects drain-to-drop or demote-to-lossy,
//! default demote). The drill then closes the loop: the trips become
//! quarantine events, are journaled through a controller that crashes
//! mid-replay, recovery must replay every quarantine from the journal,
//! and the corrective tables must pass an independent re-audit. Any
//! broken link in that chain exits non-zero.
//!
//! With `--audit` every committed epoch (including the bootstrap) is
//! handed to the independent `tagger-audit` verifier, which decompiles
//! the TCAM entries the tables compile to and re-proves deadlock
//! freedom from scratch; the audit metrics print alongside the
//! controller's. `--export-checkpoint PATH` writes the final committed
//! tables as a `tagger-audit` checkpoint for offline auditing.
//!
//! The process exits non-zero if any commit violates the incremental
//! promise (delta ops ≥ full reinstall ops for a single-link event),
//! any epoch fails verification, any audit finds a violation, the fleet
//! ever diverges from the committed tables, or crash recovery does not
//! reconverge exactly.

use std::process::ExitCode;

use tagger::audit::{checkpoint, Auditor};
use tagger::cli::{clos_config, get, get_opt, parse_args, Flags};
use tagger::ctrl::{
    coalesce_flaps, parse_trace, recover, ChaosConfig, ChaosSouthbound, CommitObserver,
    CommitReport, Controller, CtrlEvent, ElpPolicy, EpochOutcome, InstallPolicy, Journal,
    NoopObserver, ReliableSouthbound, Snapshot, Southbound,
};
use tagger::topo::{ClosConfig, Topology};

/// The trace file (if any), the flags, and what the fabric flags build.
type Setup = (Option<String>, Flags, ClosConfig, ElpPolicy, Option<usize>);

fn setup(args: &[String]) -> Result<Setup, String> {
    let (mut positional, flags) = parse_args(
        args,
        &[
            "pods",
            "leaves",
            "tors",
            "spines",
            "hosts",
            "bounces",
            "tcam-budget",
            "chaos",
            "journal",
            "checkpoint-every",
            "crash-after",
            "export-checkpoint",
            "watchdog",
            "watchdog-policy",
        ],
        &["verbose", "audit"],
    )?;
    let config = clos_config(&flags)?;
    let policy = ElpPolicy::with_bounces(get(&flags, "bounces", 1)?);
    let budget = get_opt(&flags, "tcam-budget")?;
    Ok((positional.pop(), flags, config, policy, budget))
}

fn batch_label(batch: &[&CtrlEvent]) -> String {
    if batch.len() == 1 {
        batch[0].label().to_string()
    } else {
        format!("{} x{} (flap-damped)", batch[0].label(), batch.len())
    }
}

fn print_outcome(topo: &Topology, label: &str, outcome: &EpochOutcome, verbose: bool) {
    match outcome {
        EpochOutcome::Committed(report) => {
            println!(
                "epoch {} <- {}: committed in {:?}; {} ELP paths, {} lossless \
                 priorities, worst-switch TCAM {}",
                report.epoch,
                label,
                report.recompute,
                report.elp_paths,
                report.lossless_tags,
                report.tcam_worst_switch,
            );
            println!(
                "  deltas: {} switches touched, +{} -{} rules ({} ops vs {} for a \
                 full reinstall); {} install attempt(s), {:?} backoff",
                report.switches_touched(),
                report.rules_added,
                report.rules_removed,
                report.delta_ops(),
                report.full_reinstall_ops(),
                report.install_attempts,
                report.install_backoff,
            );
            for delta in &report.deltas {
                println!(
                    "    {}: +{} -{}",
                    topo.node(delta.switch).name,
                    delta.add.len(),
                    delta.remove.len()
                );
                if verbose {
                    for r in &delta.remove {
                        println!(
                            "      - (tag {}, in {}, out {}) -> {}",
                            r.tag.0, r.in_port.0, r.out_port.0, r.new_tag.0
                        );
                    }
                    for r in &delta.add {
                        println!(
                            "      + (tag {}, in {}, out {}) -> {}",
                            r.tag.0, r.in_port.0, r.out_port.0, r.new_tag.0
                        );
                    }
                }
            }
        }
        EpochOutcome::RolledBack {
            abandoned_version,
            reason,
        } => {
            println!(
                "epoch <- {}: ROLLED BACK (view v{} abandoned): {}",
                label, abandoned_version, reason,
            );
        }
    }
}

/// Tallies the incremental-promise check over processed batches.
fn tally(
    batches: &[&[&CtrlEvent]],
    outcomes: &[EpochOutcome],
    single_link_commits: &mut usize,
    incremental_wins: &mut usize,
) {
    for (batch, outcome) in batches.iter().zip(outcomes) {
        let single_link =
            batch.len() == 1 && matches!(batch[0], CtrlEvent::LinkDown(_) | CtrlEvent::LinkUp(_));
        if let EpochOutcome::Committed(report) = outcome {
            if single_link && !report.deltas.is_empty() {
                *single_link_commits += 1;
                if report.delta_ops() < report.full_reinstall_ops() {
                    *incremental_wins += 1;
                }
            }
        }
    }
}

/// Runs the independent verifier over every committed epoch and keeps
/// score. The controller never sees the auditor (the hook is the
/// [`CommitObserver`] trait); violations only surface here, as prints
/// and a non-zero exit.
struct AuditObserver {
    auditor: Auditor,
    violations: u64,
}

impl AuditObserver {
    fn new(topo: Topology) -> AuditObserver {
        AuditObserver {
            auditor: Auditor::new(topo),
            violations: 0,
        }
    }

    fn audit_epoch(&mut self, epoch: u64, rules: &tagger::core::RuleSet) {
        let topo = self.auditor.topo().clone();
        let report = self.auditor.audit(epoch, rules);
        if report.is_certified() {
            let cert = report.certificate.as_ref().expect("certified");
            println!(
                "  audit: epoch {} certified deadlock-free ({} buffers, {} edges, {} rules decompiled)",
                epoch, cert.total_nodes, cert.total_edges, report.rules_decompiled
            );
        } else {
            self.violations += 1;
            print!("{}", report.render(&topo));
        }
    }
}

impl CommitObserver for AuditObserver {
    fn on_commit(&mut self, _topo: &Topology, snapshot: &Snapshot, _report: &CommitReport) {
        self.audit_epoch(snapshot.epoch, &snapshot.rules);
    }
}

/// The `--watchdog` drill: the full safety-net loop on the corrupted
/// fixture. Audit finds the cycle, the sim shows the deadlock and its
/// watchdog rescue, the trips become journaled controller quarantines
/// that survive a crash, and the corrective tables re-certify.
fn watchdog_drill(
    window_us: u64,
    policy: tagger::switch::WatchdogPolicy,
    journal_path: Option<String>,
) -> Result<(), String> {
    use tagger::audit::REPLAY_END_NS;
    use tagger::sim::experiments::{quarantine_events, watchdog_rescue};
    use tagger::switch::WatchdogConfig;

    let ckpt = checkpoint::parse(include_str!("../../examples/corrupted.ckpt"))
        .map_err(|e| format!("embedded corrupted.ckpt: {e}"))?;
    let topo = ckpt.topo.clone();
    let mut auditor = Auditor::new(topo.clone());
    let audit = auditor.audit(ckpt.epoch, &ckpt.rules);
    if audit.is_certified() {
        return Err("drill fixture unexpectedly certified".into());
    }
    let cx = audit
        .counterexample
        .clone()
        .ok_or("audit found no counterexample to replay")?;
    println!(
        "watchdog drill: corrupted tables, cycle {}",
        cx.describe(&topo)
    );

    // Baseline: with the watchdog off the deadlock is permanent.
    let (baseline, _) =
        watchdog_rescue(&topo, &ckpt.rules, cx.flows.clone(), None, REPLAY_END_NS).run();
    if baseline.deadlock.is_none() {
        return Err("baseline (watchdog off) did not deadlock".into());
    }
    println!(
        "  watchdog off: deadlocked, {} flow(s) frozen at the horizon",
        baseline.stalled_flows(5)
    );

    // Armed: recovery within two windows of the first trip.
    let window_ns = window_us * 1_000;
    let cfg = WatchdogConfig::with_policy(window_ns, policy);
    let (report, _) = watchdog_rescue(
        &topo,
        &ckpt.rules,
        cx.flows.clone(),
        Some(cfg),
        REPLAY_END_NS,
    )
    .run();
    let wd = report
        .watchdog
        .clone()
        .ok_or("armed run produced no watchdog report")?;
    println!(
        "  watchdog on ({window_us} us, {policy:?}): {}",
        wd.stats.describe()
    );
    let first = wd.first_trip_at.ok_or("armed watchdog never tripped")?;
    let cleared = wd.cleared_at.ok_or("cycle never cleared after the trips")?;
    if cleared - first > 2 * window_ns {
        return Err(format!(
            "recovery took {} ns from first trip, more than 2 windows",
            cleared - first
        ));
    }
    println!(
        "    first trip at {} us, cycle cleared at {} us",
        first / 1_000,
        cleared / 1_000
    );

    // Cause-directed attribution: the confirmed cycle must come with an
    // in-band initial-trigger claim that survives the ground-truth
    // cross-check and names one of its own members. A misattribution
    // here fails the drill (non-zero exit) — quarantining the wrong hop
    // is worse than quarantining the victim.
    let trig = wd
        .trigger
        .clone()
        .ok_or("confirmed deadlock produced no initial-trigger attribution")?;
    if !trig.matches_ground_truth {
        return Err(format!(
            "attribution failed its ground-truth cross-check: {trig:?}"
        ));
    }
    if !trig.scc.contains(&trig.queue()) {
        return Err(format!(
            "attributed trigger {:?} is not a member of its confirmed SCC {:?}",
            trig.queue(),
            trig.scc
        ));
    }
    println!(
        "    trigger: {} port {} prio {} ({}, pause epoch {} us); \
         time-to-attribute {} us, time-to-detect {} us",
        topo.node(trig.switch).name,
        trig.port.0,
        trig.prio,
        if trig.hops == 0 {
            "self-originated".to_string()
        } else {
            format!("inherited, {} hop(s) from origin", trig.hops)
        },
        trig.pause_epoch / 1_000,
        trig.time_to_attribute() / 1_000,
        wd.time_to_detect().unwrap_or(0) / 1_000,
    );

    // Closed loop: trips -> quarantine events -> journaled controller
    // that crashes mid-replay and must recover every quarantine.
    let events = quarantine_events(&report);
    if events.is_empty() {
        return Err("trips produced no quarantine events".into());
    }
    for e in &events {
        println!("    -> {}", e.trace_line(&topo));
    }
    let policy_elp = ElpPolicy::with_bounces(1);
    let mut ctrl = Controller::with_budget(topo.clone(), policy_elp, None)
        .map_err(|e| format!("drill bootstrap: {e}"))?;
    let mut sb = ReliableSouthbound::new();
    sb.bootstrap(&ctrl.committed().rules);
    let install = InstallPolicy::default();
    let jpath = journal_path.unwrap_or_else(|| {
        std::env::temp_dir()
            .join("tagger-watchdog-drill.journal")
            .to_string_lossy()
            .into_owned()
    });
    let mut journal =
        Journal::create(&jpath).map_err(|e| format!("cannot create journal {jpath}: {e}"))?;
    let drive = journal
        .drive(&mut ctrl, &events, &mut sb, &install, 1, Some(1))
        .map_err(|e| format!("journaled quarantine replay: {e}"))?;
    let pre_quarantines = ctrl.state().quarantines.clone();
    let pre_rules = ctrl.committed().rules.clone();
    drop(ctrl);
    println!(
        "    -- crash after {} quarantine epoch(s); recovering from {jpath} --",
        drive.outcomes.len()
    );
    let rec =
        recover(&jpath, topo.clone(), policy_elp, None).map_err(|e| format!("recovery: {e}"))?;
    let mut ctrl = rec.controller;
    if ctrl.state().quarantines != pre_quarantines {
        return Err(format!(
            "recovery lost quarantines: {:?} vs pre-crash {:?}",
            ctrl.state().quarantines,
            pre_quarantines
        ));
    }
    if ctrl.committed().rules != pre_rules {
        return Err("recovered tables differ from the crashed controller's".into());
    }
    println!(
        "    recovered: {} event(s) replayed, {} quarantine(s) intact",
        rec.replayed,
        pre_quarantines.len()
    );
    ctrl.reconcile(&mut sb);
    // Finish the interrupted work: the in-flight batch the journal
    // preserved, plus the quarantines that were never journaled
    // (watchdog events are singleton batches, so batch i == event i).
    let processed = drive.outcomes.len() + 1;
    let remaining: Vec<CtrlEvent> = rec
        .tail
        .iter()
        .cloned()
        .chain(events.iter().skip(processed.min(events.len())).cloned())
        .collect();
    ctrl.replay_damped_via(remaining.iter(), &mut sb, &install)
        .map_err(|e| format!("post-recovery replay: {e}"))?;
    // Trip events sharing one attributed trigger dedupe into a single
    // quarantine of the trigger hop, so count distinct effective
    // targets, not raw events.
    let effective: std::collections::BTreeSet<_> = events
        .iter()
        .filter_map(|e| e.effective_quarantine())
        .collect();
    if ctrl.state().quarantines.len() != effective.len() {
        return Err(format!(
            "expected {} active quarantine(s) after the full replay, have {}",
            effective.len(),
            ctrl.state().quarantines.len()
        ));
    }
    if events.len() > effective.len() {
        println!(
            "    attribution dedupe: {} trip event(s) collapsed onto {} quarantine target(s)",
            events.len(),
            effective.len()
        );
    }

    // Re-audit: the corrective tables must certify deadlock-free.
    let mut recheck = Auditor::new(topo.clone());
    let verdict = recheck.audit(ctrl.committed().epoch, &ctrl.committed().rules);
    if !verdict.is_certified() {
        return Err(format!(
            "corrective tables failed the re-audit:\n{}",
            verdict.render(&topo)
        ));
    }
    let m = ctrl.metrics();
    println!(
        "    corrective epoch {} certified deadlock-free; {} quarantine(s) active, \
         {} watchdog trip event(s), +{} -{} rules across commits",
        ctrl.committed().epoch,
        ctrl.state().quarantines.len(),
        m.watchdog_trips,
        m.rules_added,
        m.rules_removed,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_file, flags, config, policy, budget) = match setup(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let topo = config.build();
    let verbose = flags.contains_key("verbose");

    let chaos = match flags.get("chaos").map(|s| ChaosConfig::parse(s)) {
        None => None,
        Some(Ok(cfg)) => Some(cfg),
        Some(Err(e)) => {
            eprintln!("--chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal_path = flags.get("journal").cloned();
    let (checkpoint_every, crash_after) = match (
        get(&flags, "checkpoint-every", 4u64),
        get_opt::<u64>(&flags, "crash-after"),
    ) {
        (Ok(every), Ok(after)) => (every, after),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if crash_after.is_some() && journal_path.is_none() {
        eprintln!("--crash-after needs --journal (recovery replays the journal)");
        return ExitCode::FAILURE;
    }
    if let Some(w) = flags.get("watchdog") {
        let window_us: u64 = match w.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--watchdog wants a window in microseconds, got {w:?}");
                return ExitCode::FAILURE;
            }
        };
        let policy = match flags.get("watchdog-policy").map(|s| s.as_str()) {
            None | Some("demote") => tagger::switch::WatchdogPolicy::Demote,
            Some("drop") => tagger::switch::WatchdogPolicy::Drop,
            Some(other) => {
                eprintln!("--watchdog-policy wants drop or demote, got {other:?}");
                return ExitCode::FAILURE;
            }
        };
        return match watchdog_drill(window_us, policy, journal_path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("watchdog drill FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut audit: Option<AuditObserver> = flags
        .contains_key("audit")
        .then(|| AuditObserver::new(topo.clone()));
    let mut noop = NoopObserver;
    // Picks the live observer for a drive call without borrowing `audit`
    // for longer than the call.
    fn obs<'a>(
        audit: &'a mut Option<AuditObserver>,
        noop: &'a mut NoopObserver,
    ) -> &'a mut dyn CommitObserver {
        match audit.as_mut() {
            Some(a) => a,
            None => noop,
        }
    }

    let text = match &trace_file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => "down L1 T1\nup L1 T1\n".to_string(),
    };
    let events = match parse_trace(&topo, &text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ctrl = match Controller::with_budget(topo.clone(), policy, budget) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bootstrap failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let epoch0 = ctrl.committed();
    println!(
        "epoch 0 (bootstrap): {} switches, {} links, {} ELP paths -> {} rules, \
         {} lossless priorities, worst-switch TCAM {}",
        topo.num_switches(),
        topo.num_links(),
        epoch0.elp_paths,
        epoch0.rules.num_rules(),
        epoch0.lossless_tags,
        epoch0.tcam_worst_switch,
    );
    if let Some(a) = audit.as_mut() {
        a.audit_epoch(0, &ctrl.committed().rules);
    }

    let mut southbound: Box<dyn Southbound> = match chaos {
        Some(cfg) => {
            println!("southbound: chaos ({cfg})");
            Box::new(ChaosSouthbound::new(cfg))
        }
        None => Box::new(ReliableSouthbound::new()),
    };
    southbound.bootstrap(&ctrl.committed().rules);
    let install_policy = InstallPolicy::default();

    let refs: Vec<&CtrlEvent> = events.iter().collect();
    let batches = coalesce_flaps(&refs);
    let mut single_link_commits = 0usize;
    let mut incremental_wins = 0usize;
    let mut failed = false;

    if let Some(path) = &journal_path {
        let mut journal = match Journal::create(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cannot create journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = match journal.drive_observed(
            &mut ctrl,
            &events,
            southbound.as_mut(),
            &install_policy,
            checkpoint_every,
            crash_after,
            obs(&mut audit, &mut noop),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("journaled replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (batch, outcome) in batches.iter().zip(&report.outcomes) {
            print_outcome(&topo, &batch_label(batch), outcome, verbose);
        }
        tally(
            &batches,
            &report.outcomes,
            &mut single_link_commits,
            &mut incremental_wins,
        );

        if report.crashed {
            // The crash-recovery drill: remember what the controller had
            // committed, kill it, rebuild from the journal, and demand
            // byte-for-byte reconvergence.
            let pre_rules = ctrl.committed().rules.clone();
            let pre_epoch = ctrl.committed().epoch;
            drop(ctrl);
            println!(
                "-- simulated crash after {} epoch(s); recovering from {path} --",
                report.outcomes.len()
            );
            let recovery = match recover(path, topo.clone(), policy, budget) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("recovery failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            ctrl = recovery.controller;
            if ctrl.committed().rules != pre_rules || ctrl.committed().epoch != pre_epoch {
                eprintln!(
                    "FAIL: recovery diverged (epoch {} vs {}, tables {})",
                    ctrl.committed().epoch,
                    pre_epoch,
                    if ctrl.committed().rules == pre_rules {
                        "equal"
                    } else {
                        "DIFFER"
                    }
                );
                return ExitCode::FAILURE;
            }
            let repaired = ctrl.reconcile(southbound.as_mut());
            println!(
                "recovered: {} event(s) replayed, committed tables byte-identical \
                 (epoch {}); reconcile repaired {} switch(es); {} tail event(s)",
                recovery.replayed,
                ctrl.committed().epoch,
                repaired,
                recovery.tail.len(),
            );
            // Finish the interrupted work: the journaled-but-unresolved
            // tail (which is exactly the batch in flight at the crash)
            // plus everything after it.
            let tail_refs: Vec<&CtrlEvent> = recovery.tail.iter().collect();
            let processed = report.outcomes.len() + 1;
            let rest: Vec<&CtrlEvent> = batches[processed.min(batches.len())..]
                .iter()
                .flat_map(|b| b.iter().copied())
                .collect();
            let remaining: Vec<CtrlEvent> = tail_refs
                .iter()
                .chain(rest.iter())
                .map(|&e| e.clone())
                .collect();
            match ctrl.replay_damped_via_observed(
                remaining.iter(),
                southbound.as_mut(),
                &install_policy,
                obs(&mut audit, &mut noop),
            ) {
                Ok(outcomes) => {
                    let rrefs: Vec<&CtrlEvent> = remaining.iter().collect();
                    let rbatches = coalesce_flaps(&rrefs);
                    for (batch, outcome) in rbatches.iter().zip(&outcomes) {
                        print_outcome(&topo, &batch_label(batch), outcome, verbose);
                    }
                    tally(
                        &rbatches,
                        &outcomes,
                        &mut single_link_commits,
                        &mut incremental_wins,
                    );
                }
                Err(e) => {
                    eprintln!("post-recovery replay failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        match ctrl.replay_damped_via_observed(
            events.iter(),
            southbound.as_mut(),
            &install_policy,
            obs(&mut audit, &mut noop),
        ) {
            Ok(outcomes) => {
                for (batch, outcome) in batches.iter().zip(&outcomes) {
                    print_outcome(&topo, &batch_label(batch), outcome, verbose);
                }
                tally(
                    &batches,
                    &outcomes,
                    &mut single_link_commits,
                    &mut incremental_wins,
                );
            }
            Err(e) => {
                eprintln!("replay failed: {e}");
                failed = true;
            }
        }
    }

    println!();
    print!("{}", ctrl.metrics().report());
    if let Some(a) = &audit {
        print!("{}", a.auditor.metrics.report());
    }
    if let Some(path) = flags.get("export-checkpoint") {
        let snap = ctrl.committed();
        let text = checkpoint::render(&config, snap.epoch, &topo, &snap.rules);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write checkpoint {path}: {e}");
            failed = true;
        } else {
            println!("exported epoch {} checkpoint to {path}", snap.epoch);
        }
    }

    // The invariant the southbound layer exists for: whatever faults
    // were injected, the fleet runs exactly the committed tables.
    if southbound.fleet() != &ctrl.committed().rules {
        eprintln!("FAIL: fleet diverged from the committed tables");
        failed = true;
    }
    let m = ctrl.metrics();
    if m.verify_failures > 0 {
        eprintln!(
            "FAIL: {} committed epoch(s) required verify rollbacks",
            m.verify_failures
        );
        failed = true;
    }
    if let Some(a) = &audit {
        if a.violations > 0 {
            eprintln!(
                "FAIL: independent audit found violations in {} epoch(s)",
                a.violations
            );
            failed = true;
        }
    }
    if single_link_commits > 0 && incremental_wins < single_link_commits {
        eprintln!(
            "FAIL: only {incremental_wins}/{single_link_commits} single-link commits \
             beat a full-table reinstall"
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
