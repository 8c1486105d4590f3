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
//! Every batch goes through `Journal::step`. With `--journal` that
//! write-ahead journals every event and takes a snapshot checkpoint
//! every `--checkpoint-every` outcomes (default 4); without it the same
//! step runs on a detached journal that keeps nothing.
//! `--crash-after N` runs the crash-recovery drill: the controller
//! "crashes" after N epochs (mid-epoch — the next batch is journaled
//! but unprocessed), is rebuilt from the journal, and the drill verifies
//! the recovered committed tables are byte-for-byte the crashed
//! controller's before reconciling the fleet, reopening the journal and
//! finishing the trace through it — the finished journal is the one an
//! uninterrupted run writes.
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
use tagger::cli::{clos_config, get, get_opt, parse_args};
use tagger::ctrl::{
    parse_trace, recover, ChaosConfig, ChaosSouthbound, CommitObserver, CommitReport, Controller,
    CtrlEvent, Damping, DriveReport, ElpPolicy, EpochOutcome, InstallPolicy, Journal,
    ReliableSouthbound, Snapshot, Southbound,
};
use tagger::topo::Topology;

fn batch_label(batch: &[CtrlEvent]) -> String {
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

/// Runs the independent verifier over every committed epoch; the
/// auditor's metrics keep score. The controller never sees the auditor
/// (the hook is the [`CommitObserver`] trait); violations only surface
/// here, as prints and a non-zero exit.
struct AuditObserver {
    auditor: Auditor,
}

impl AuditObserver {
    fn audit_epoch(&mut self, epoch: u64, rules: &tagger::core::RuleSet) {
        let report = self.auditor.audit(epoch, rules);
        if report.is_certified() {
            let cert = report.certificate.as_ref().expect("certified");
            println!(
                "  audit: epoch {} certified deadlock-free ({} buffers, {} edges, {} rules decompiled)",
                epoch, cert.total_nodes, cert.total_edges, report.rules_decompiled
            );
        } else {
            print!("{}", report.render(self.auditor.topo()));
        }
    }
}

impl CommitObserver for AuditObserver {
    fn on_commit(&mut self, _topo: &Topology, snapshot: &Snapshot, _report: &CommitReport) {
        self.audit_epoch(snapshot.epoch, &snapshot.rules);
    }
}

/// The crash half of `--crash-after`. The crashed controller is dropped and
/// rebuilt from the journal at `path`, which must reconverge byte for
/// byte — tables, epoch, quarantines; the fleet is reconciled onto the
/// recovered tables and the journal reopened. Returns the recovered
/// controller, the journal to keep writing, and the events still to
/// run: the journaled-but-unresolved tail (exactly the batch in flight
/// at the crash), then `unreached`, what the crashed drive never saw.
fn crash_and_recover(
    crashed: Controller,
    path: &str,
    checkpoint_every: u64,
    budget: Option<usize>,
    southbound: &mut dyn Southbound,
    unreached: &[CtrlEvent],
) -> Result<(Controller, Journal, Vec<CtrlEvent>), String> {
    let rec = recover(path, crashed.topo().clone(), crashed.policy(), budget)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let mut ctrl = rec.controller;
    let (was, now) = (crashed.committed(), ctrl.committed());
    if now.epoch != was.epoch
        || now.rules != was.rules
        || ctrl.state().quarantines != crashed.state().quarantines
    {
        return Err(format!(
            "recovery diverged: epoch {} vs {} pre-crash, tables {}, quarantines {:?} vs {:?}",
            now.epoch,
            was.epoch,
            if now.rules == was.rules {
                "equal"
            } else {
                "DIFFER"
            },
            ctrl.state().quarantines,
            crashed.state().quarantines,
        ));
    }
    drop(crashed);
    let repaired = ctrl.reconcile(southbound);
    println!(
        "recovered: {} event(s) replayed, committed tables byte-identical \
         (epoch {}, {} quarantine(s)); reconcile repaired {repaired} switch(es); \
         {} tail event(s)",
        rec.replayed,
        ctrl.committed().epoch,
        ctrl.state().quarantines.len(),
        rec.tail.len(),
    );
    let journal = Journal::open_append(path)
        .map_err(|e| format!("cannot reopen journal {path}: {e}"))?
        .checkpoint_every(checkpoint_every);
    Ok((ctrl, journal, [rec.tail.as_slice(), unreached].concat()))
}

/// What outlives a crash: the fleet behind its southbound, the auditor,
/// and the incremental-promise tally.
struct Replay {
    southbound: Box<dyn Southbound>,
    audit: Option<AuditObserver>,
    verbose: bool,
    single_link_commits: usize,
    incremental_wins: usize,
}

impl Replay {
    /// Drives `events` through the journal, printing every outcome and
    /// tallying which single-link commits beat a full reinstall.
    fn leg(
        &mut self,
        journal: &mut Journal,
        ctrl: &mut Controller,
        events: &[CtrlEvent],
        crash_after: Option<u64>,
    ) -> Result<DriveReport, String> {
        let report = journal
            .drive(
                ctrl,
                events,
                self.southbound.as_mut(),
                &InstallPolicy::default(),
                crash_after,
                self.audit.as_mut().map(|a| a as &mut dyn CommitObserver),
            )
            .map_err(|e| format!("replay failed: {e}"))?;
        for (range, outcome) in Damping::Flap
            .split(events)
            .into_iter()
            .zip(&report.outcomes)
        {
            let batch = &events[range];
            print_outcome(ctrl.topo(), &batch_label(batch), outcome, self.verbose);
            if let ([CtrlEvent::LinkDown(_) | CtrlEvent::LinkUp(_)], Some(commit)) =
                (batch, outcome.committed())
            {
                if !commit.deltas.is_empty() {
                    self.single_link_commits += 1;
                    if commit.delta_ops() < commit.full_reinstall_ops() {
                        self.incremental_wins += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
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
        ],
        &["verbose", "audit"],
    )?;
    let trace_file = positional.pop();
    let config = clos_config(&flags)?;
    let policy = ElpPolicy::with_bounces(get(&flags, "bounces", 1)?);
    let budget = get_opt(&flags, "tcam-budget")?;
    let topo = config.build();

    let chaos = flags
        .get("chaos")
        .map(|s| ChaosConfig::parse(s).map_err(|e| format!("--chaos: {e}")))
        .transpose()?;
    let journal_path = flags.get("journal").cloned();
    let checkpoint_every = get(&flags, "checkpoint-every", 4u64)?;
    let crash_after = get_opt::<u64>(&flags, "crash-after")?;
    if crash_after.is_some() && journal_path.is_none() {
        return Err("--crash-after needs --journal (recovery replays the journal)".into());
    }
    let mut audit: Option<AuditObserver> = flags.contains_key("audit").then(|| AuditObserver {
        auditor: Auditor::new(topo.clone()),
    });

    let text = match &trace_file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => "down L1 T1\nup L1 T1\n".to_string(),
    };
    let events = parse_trace(&topo, &text).map_err(|e| e.to_string())?;

    let mut ctrl = Controller::with_budget(topo.clone(), policy, budget)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
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

    let mut replay = Replay {
        southbound,
        audit,
        verbose: flags.contains_key("verbose"),
        single_link_commits: 0,
        incremental_wins: 0,
    };
    // The whole trace: one leg, or — when `--crash-after` stops the
    // first — the crash-recovery drill and a second leg through the
    // reopened journal. Without `--journal` the journal is detached.
    let mut journal = match &journal_path {
        Some(path) => Journal::create(path)
            .map_err(|e| format!("cannot create journal {path}: {e}"))?
            .checkpoint_every(checkpoint_every),
        None => Journal::detached(),
    };
    let report = replay.leg(&mut journal, &mut ctrl, &events, crash_after)?;
    if let (true, Some(path)) = (report.crashed, &journal_path) {
        println!(
            "-- simulated crash after {} epoch(s); recovering from {path} --",
            report.outcomes.len()
        );
        let (recovered, mut journal, remaining) = crash_and_recover(
            ctrl,
            path,
            checkpoint_every,
            budget,
            replay.southbound.as_mut(),
            &events[report.consumed..],
        )?;
        ctrl = recovered;
        replay.leg(&mut journal, &mut ctrl, &remaining, None)?;
    }
    let mut failed = false;

    println!();
    print!("{}", ctrl.metrics().report());
    if let Some(a) = &replay.audit {
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
    if replay.southbound.fleet() != &ctrl.committed().rules {
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
    if let Some(a) = &replay.audit {
        let violations = a.auditor.metrics.violations();
        if violations > 0 {
            eprintln!("FAIL: independent audit found violations in {violations} epoch(s)");
            failed = true;
        }
    }
    if replay.incremental_wins < replay.single_link_commits {
        eprintln!(
            "FAIL: only {}/{} single-link commits beat a full-table reinstall",
            replay.incremental_wins, replay.single_link_commits
        );
        failed = true;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
