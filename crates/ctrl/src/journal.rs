//! Write-ahead event journal with snapshot checkpoints, and the one
//! rollout step that writes it ([`Journal::step`]).
//!
//! The controller's durability story: every event is journaled *before*
//! it is processed, every epoch outcome is journaled after, and every
//! `K` outcomes a checkpoint block snapshots the committed network state
//! (failures + pinned ELPs + counters). A controller that crashes — even
//! mid-epoch, with installs half-pushed — recovers by [`recover`]ing
//! from the journal: rebuild the checkpoint state, deterministically
//! re-stage it, replay the committed batches after it, and hand back the
//! unprocessed tail. Because staging is a pure function of
//! `(topology, policy, state)`, the recovered committed tables are
//! byte-for-byte the crashed controller's.
//!
//! Rolled-back batches are journaled too, but recovery *skips* them
//! rather than re-deciding them: an install-abort rollback depends on
//! the southbound's fault schedule, which the journal deliberately does
//! not capture (the fleet, not the journal, is the authority on what
//! installs did — that is what [`Controller::reconcile`] is for).
//!
//! ## On-disk format
//!
//! Plain text, one record per newline-terminated line:
//!
//! ```text
//! event <trace line>            # write-ahead: an accepted event
//! !ok <n>                       # the last n pending events committed
//! !rollback <n>                 # ... or were rolled back together
//! !checkpoint epoch=<e> version=<v>
//! !state <trace line>           # reconstruction event (down/elp-add)
//! !checkpoint-end
//! ```
//!
//! Event lines reuse the trace syntax ([`CtrlEvent::trace_line`]), so a
//! journal is readable — and replayable — with the same tooling as any
//! trace. A checkpoint block without its `!checkpoint-end` (crash while
//! checkpointing) is ignored and recovery falls back to the previous
//! complete one.
//!
//! Only a newline-terminated line is a record. Each record line is
//! written with one `write_all`, so a crash can tear at most the last
//! line, and an unterminated final fragment is not a record: [`recover`]
//! ignores it, and [`Journal::open_append`] truncates it before
//! appending. A journal cut at any byte therefore recovers to the state
//! after its last complete outcome record.

use crate::controller::{Controller, CtrlError, EpochOutcome, InstallPolicy};
use crate::damping::Damping;
use crate::event::{parse_trace, CtrlEvent, TraceError};
use crate::observer::CommitObserver;
use crate::southbound::Southbound;
use crate::state::{ElpPolicy, NetworkState};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path as FsPath, PathBuf};
use tagger_topo::Topology;

/// Why a journal could not be written or recovered.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A record line is malformed.
    Corrupt {
        /// 1-based line number within the journal file.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
    /// An `event`/`!state` line failed trace parsing.
    Trace(TraceError),
    /// Replay hit a controller error — including
    /// [`CtrlError::RecoveryDiverged`] when a batch the journal marks
    /// committed rolls back under deterministic recompute.
    Ctrl(CtrlError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Corrupt { line, why } => {
                write!(f, "journal line {line} corrupt: {why}")
            }
            JournalError::Trace(e) => write!(f, "journal event: {e}"),
            JournalError::Ctrl(e) => write!(f, "journal replay: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<TraceError> for JournalError {
    fn from(e: TraceError) -> Self {
        JournalError::Trace(e)
    }
}

impl From<CtrlError> for JournalError {
    fn from(e: CtrlError) -> Self {
        JournalError::Ctrl(e)
    }
}

/// An append-only journal file, and the one rollout step that writes it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    checkpoint_every: u64,
    /// Outcome records in the file — what the checkpoint cadence counts.
    outcomes: u64,
    /// `event` lines [`Journal::open_append`] found on disk with no
    /// outcome after them (line number, trace text): the batch a crashed
    /// controller had in flight. The next step resolves them instead of
    /// writing them a second time.
    unresolved: VecDeque<(usize, String)>,
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let mut file = File::create(&path)?;
        file.write_all(b"# tagger-ctrl journal v1\n")?;
        Ok(Journal {
            path,
            file,
            checkpoint_every: 0,
            outcomes: 0,
            unresolved: VecDeque::new(),
        })
    }

    /// Reopens an existing journal for appending, after [`recover`]: the
    /// outcome count carries on where the file stops, and the trailing
    /// `event` lines without an outcome — [`Recovery::tail`], one event
    /// a line as [`Journal::record_event`] writes them — are remembered
    /// so that finishing them writes only their outcome. A torn final
    /// fragment is truncated first, so the next record starts a line.
    pub fn open_append(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let text = read_records(&path)?;
        let (mut outcomes, mut unresolved) = (0, VecDeque::new());
        for (lineno, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
            if let Some(event) = line.strip_prefix("event ") {
                unresolved.push_back((lineno, event.to_string()));
            } else if let Some((_, n)) = outcome_record(lineno, line)? {
                outcomes += 1;
                unresolved.drain(..n.min(unresolved.len()));
            }
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        file.set_len(text.len() as u64)?;
        Ok(Journal {
            path,
            file,
            checkpoint_every: 0,
            outcomes,
            unresolved,
        })
    }

    /// Has [`Journal::step`] write a checkpoint every `outcomes` outcome
    /// records (0, the default, never).
    pub fn checkpoint_every(mut self, outcomes: u64) -> Self {
        self.checkpoint_every = outcomes;
        self
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &FsPath {
        &self.path
    }

    /// Write-ahead: records one accepted event *before* it is processed.
    pub fn record_event(&mut self, topo: &Topology, event: &CtrlEvent) -> Result<(), JournalError> {
        self.file
            .write_all(format!("event {}\n", event.trace_line(topo)).as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Records the outcome of the batch formed by the last `batch`
    /// journaled-but-unresolved events.
    pub fn record_outcome(
        &mut self,
        outcome: &EpochOutcome,
        batch: usize,
    ) -> Result<(), JournalError> {
        self.outcomes += 1;
        let marker = match outcome {
            EpochOutcome::Committed(_) => "!ok",
            EpochOutcome::RolledBack { .. } => "!rollback",
        };
        self.file
            .write_all(format!("{marker} {batch}\n").as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Snapshots the controller's committed state so recovery can start
    /// here instead of replaying from the beginning of time. The block
    /// goes to disk in one write.
    pub fn checkpoint(&mut self, ctrl: &mut Controller) -> Result<(), JournalError> {
        let state = ctrl.state();
        let topo = ctrl.topo();
        let mut block = format!(
            "!checkpoint epoch={} version={}\n",
            ctrl.committed().epoch,
            state.version
        );
        for link in state.failures.iter() {
            let line = CtrlEvent::LinkDown(link).trace_line(topo);
            block += &format!("!state {line}\n");
        }
        for path in &state.extra_paths {
            let line = CtrlEvent::ElpAdd(path.clone()).trace_line(topo);
            block += &format!("!state {line}\n");
        }
        for &(switch, port, tag) in &state.quarantines {
            // Checkpoints record quarantines by their effective hop; the
            // re-synthesized trip needs no attribution — replaying it
            // quarantines exactly this hop either way.
            let line = CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag: tagger_core::Tag(tag),
                trigger: None,
            }
            .trace_line(topo);
            block += &format!("!state {line}\n");
        }
        block += "!checkpoint-end\n";
        self.file.write_all(block.as_bytes())?;
        self.file.sync_data()?;
        ctrl.bump_checkpoints();
        Ok(())
    }

    /// The write-ahead half of [`Journal::step`]: one `event` line per
    /// event of the batch, unless the line is already on disk from before
    /// a crash — then it is only checked to be the event being finished.
    fn write_ahead(&mut self, topo: &Topology, batch: &[CtrlEvent]) -> Result<(), JournalError> {
        // An event the topology cannot name has no on-disk form: refuse
        // the batch before any of it is written.
        for event in batch {
            event.check(topo)?;
        }
        for event in batch {
            match self.unresolved.pop_front() {
                None => self.record_event(topo, event)?,
                Some((line, on_disk)) => {
                    let offered = event.trace_line(topo);
                    if on_disk != offered {
                        return Err(JournalError::Corrupt {
                            line,
                            why: format!(
                                "unresolved event {on_disk:?} is being finished as {offered:?}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// **The rollout step** — the only way a batch reaches the switches
    /// with the durability, audit and checkpoint policy applied, and the
    /// only caller of [`Journal::record_event`] and
    /// [`Journal::record_outcome`]:
    ///
    /// 1. write-ahead: every event of the batch is on disk before any of
    ///    it is processed (a batch naming a link outside the topology is
    ///    refused with [`CtrlError::UnknownLink`] and writes nothing);
    /// 2. [`Controller::handle_batch_via`]: stage, validate, install
    ///    behind the commit barrier, commit or roll back fleet-wide;
    /// 3. the outcome record (`!ok n` / `!rollback n`);
    /// 4. on a commit — never on a rollback — `observer` sees the new
    ///    snapshot (the independent audit rides here);
    /// 5. a checkpoint when the outcome count reaches the cadence.
    ///
    /// A crash between 1 and 3 leaves `event` lines with no outcome;
    /// [`recover`] hands them back as [`Recovery::tail`], and the step
    /// that finishes them on the journal [`Journal::open_append`] reopened
    /// writes only the outcome.
    pub fn step(
        &mut self,
        ctrl: &mut Controller,
        batch: &[CtrlEvent],
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
        observer: Option<&mut (dyn CommitObserver + '_)>,
    ) -> Result<EpochOutcome, JournalError> {
        self.write_ahead(ctrl.topo(), batch)?;
        let outcome = ctrl.handle_batch_via(batch, southbound, policy)?;
        self.record_outcome(&outcome, batch.len())?;
        if let (EpochOutcome::Committed(report), Some(observer)) = (&outcome, observer) {
            observer.on_commit(ctrl.topo(), ctrl.committed(), report);
        }
        if self.checkpoint_every > 0 && self.outcomes.is_multiple_of(self.checkpoint_every) {
            self.checkpoint(ctrl)?;
        }
        Ok(outcome)
    }

    /// Replays `events` flap-damped ([`Damping::Flap`]): one
    /// [`Journal::step`] per batch — the reference loop the tests hold
    /// the fleet's drain to.
    ///
    /// `crash_after` simulates a controller crash for recovery drills:
    /// after that many outcomes, the *next* batch's events are journaled
    /// (the write-ahead had happened) but never processed, and driving
    /// stops with `crashed = true` — the canonical mid-epoch crash.
    pub fn drive(
        &mut self,
        ctrl: &mut Controller,
        events: &[CtrlEvent],
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
        crash_after: Option<u64>,
        mut observer: Option<&mut (dyn CommitObserver + '_)>,
    ) -> Result<DriveReport, JournalError> {
        let mut report = DriveReport {
            outcomes: Vec::new(),
            consumed: 0,
            crashed: false,
        };
        for range in Damping::Flap.split(events) {
            report.consumed = range.end;
            let batch = &events[range];
            if crash_after.is_some_and(|n| report.outcomes.len() as u64 >= n) {
                self.write_ahead(ctrl.topo(), batch)?;
                report.crashed = true;
                break;
            }
            let outcome = self.step(ctrl, batch, southbound, policy, observer.as_deref_mut())?;
            report.outcomes.push(outcome);
        }
        Ok(report)
    }
}

/// Reads a journal's records: the file up to its last newline. What
/// follows it is a fragment a crash tore mid-write, not a record.
fn read_records(path: &FsPath) -> Result<String, JournalError> {
    let mut bytes = std::fs::read(path)?;
    bytes.truncate(bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1));
    String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e).into())
}

/// Parses an `!ok <n>` / `!rollback <n>` record into whether the batch
/// committed and how many events it covers; `None` for any other line.
fn outcome_record(lineno: usize, line: &str) -> Result<Option<(bool, usize)>, JournalError> {
    let (committed, rest) = match (line.strip_prefix("!ok "), line.strip_prefix("!rollback ")) {
        (Some(rest), _) => (true, rest),
        (_, Some(rest)) => (false, rest),
        _ => return Ok(None),
    };
    match rest.trim().parse() {
        Ok(n) => Ok(Some((committed, n))),
        Err(_) => Err(JournalError::Corrupt {
            line: lineno,
            why: format!("bad batch size {rest:?}"),
        }),
    }
}

/// What [`Journal::drive`] got through.
#[derive(Debug)]
pub struct DriveReport {
    /// One outcome per damped batch that was fully processed.
    pub outcomes: Vec<EpochOutcome>,
    /// How many of the events were processed or at least written ahead;
    /// `events[consumed..]` never reached the journal.
    pub consumed: usize,
    /// Whether the drive stopped at the simulated crash point.
    pub crashed: bool,
}

/// What recovery reconstructed.
#[derive(Debug)]
pub struct Recovery {
    /// The rebuilt controller, committed tables identical to the crashed
    /// controller's last committed epoch.
    pub controller: Controller,
    /// Events replayed from committed batches after the checkpoint.
    pub replayed: u64,
    /// Journaled events whose batch never got an outcome marker — the
    /// batch in flight when the controller died. The caller decides
    /// whether to re-process them (they were accepted, only their
    /// rollout is unaccounted for).
    pub tail: Vec<CtrlEvent>,
}

/// Rebuilds a controller from a journal file.
///
/// The topology, policy and TCAM budget are configuration, not journal
/// content — they must match what the crashed controller ran with, or
/// replay fails with [`CtrlError::RecoveryDiverged`]. A torn final
/// fragment is not a record and is ignored.
pub fn recover(
    path: impl AsRef<FsPath>,
    topo: Topology,
    policy: ElpPolicy,
    tcam_budget: Option<usize>,
) -> Result<Recovery, JournalError> {
    let text = read_records(path.as_ref())?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();

    // Locate the last *complete* checkpoint block.
    let mut checkpoint: Option<(usize, usize)> = None; // (start idx, end idx) in `lines`
    let mut open: Option<usize> = None;
    for (idx, (_, line)) in lines.iter().enumerate() {
        if line.starts_with("!checkpoint ") {
            open = Some(idx);
        } else if *line == "!checkpoint-end" {
            if let Some(start) = open.take() {
                checkpoint = Some((start, idx));
            }
        }
    }

    // Rebuild the checkpoint state (or start from the healthy network).
    let (state, epoch, resume_at) = match checkpoint {
        None => (NetworkState::initial(), 0, 0),
        Some((start, end)) => {
            let (lineno, header) = lines[start];
            let corrupt = |why: String| JournalError::Corrupt { line: lineno, why };
            let mut epoch = None;
            let mut version = None;
            for field in header.trim_start_matches("!checkpoint ").split_whitespace() {
                match field.split_once('=') {
                    Some(("epoch", v)) => {
                        epoch = Some(v.parse().map_err(|_| corrupt(format!("bad epoch {v:?}")))?);
                    }
                    Some(("version", v)) => {
                        version = Some(
                            v.parse()
                                .map_err(|_| corrupt(format!("bad version {v:?}")))?,
                        );
                    }
                    _ => return Err(corrupt(format!("bad checkpoint field {field:?}"))),
                }
            }
            let (epoch, version): (u64, u64) = match (epoch, version) {
                (Some(e), Some(v)) => (e, v),
                _ => return Err(corrupt("checkpoint missing epoch/version".into())),
            };
            let mut state = NetworkState::initial();
            for (lineno, line) in &lines[start + 1..end] {
                let rest = line
                    .strip_prefix("!state ")
                    .ok_or_else(|| JournalError::Corrupt {
                        line: *lineno,
                        why: format!("expected !state inside checkpoint, got {line:?}"),
                    })?;
                for event in parse_trace(&topo, rest)? {
                    state.apply(&topo, &event)?;
                }
            }
            // Reconstruction applies synthetic events; the recorded
            // version is the live one.
            state.version = version;
            (state, epoch, end + 1)
        }
    };

    let mut controller = Controller::resume(topo, policy, tcam_budget, state, epoch)?;

    // Replay the records after the checkpoint: committed batches re-run
    // (deterministically recommitting the same epochs), rolled-back
    // batches are dropped, and events with no outcome become the tail.
    let mut pending: Vec<CtrlEvent> = Vec::new();
    let mut replayed = 0u64;
    for (lineno, line) in &lines[resume_at..] {
        let corrupt = |why: String| JournalError::Corrupt { line: *lineno, why };
        if let Some(rest) = line.strip_prefix("event ") {
            pending.extend(parse_trace(controller.topo(), rest)?);
        } else if let Some((committed, n)) = outcome_record(*lineno, line)? {
            if pending.len() < n {
                return Err(corrupt(format!(
                    "outcome covers {n} events but only {} are pending",
                    pending.len()
                )));
            }
            let batch: Vec<CtrlEvent> = pending.drain(..n).collect();
            if committed {
                match controller.handle_batch(&batch)? {
                    EpochOutcome::Committed(_) => replayed += n as u64,
                    EpochOutcome::RolledBack { reason, .. } => {
                        return Err(CtrlError::RecoveryDiverged(format!(
                            "journal line {lineno} marks a batch committed, replay rolled it back: {reason}"
                        ))
                        .into());
                    }
                }
            }
        } else if line.starts_with("!checkpoint") || line.starts_with("!state") {
            // A trailing incomplete checkpoint block (crash while
            // checkpointing); the committed state it describes is
            // already covered by the replay.
            continue;
        } else {
            return Err(corrupt(format!("unrecognized record {line:?}")));
        }
    }

    controller.set_recovery_replays(replayed);
    Ok(Recovery {
        controller,
        replayed,
        tail: pending,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosSouthbound};
    use crate::controller::{CommitReport, Snapshot};
    use crate::southbound::ReliableSouthbound;
    use tagger_topo::ClosConfig;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tagger-journal-{}-{name}", std::process::id()))
    }

    fn controller() -> Controller {
        Controller::new(ClosConfig::small().build(), ElpPolicy::with_bounces(1)).unwrap()
    }

    fn reliable(ctrl: &Controller) -> ReliableSouthbound {
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&ctrl.committed().rules);
        sb
    }

    /// The journal's records, header dropped.
    fn records(path: &FsPath) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().skip(1).map(str::to_string).collect()
    }

    /// Counts the commits it is shown.
    struct Seen(Vec<u64>);

    impl CommitObserver for Seen {
        fn on_commit(&mut self, _topo: &Topology, snapshot: &Snapshot, _report: &CommitReport) {
            self.0.push(snapshot.epoch);
        }
    }

    const TRACE: &str = "down L1 T1\nflap L2 T2 2\nup L1 T1\nresync";
    /// Pinning this 2-bounce path adds a rule at tag 3 on each hop after
    /// its second bounce, one TCAM entry more than the healthy small
    /// Clos's worst switch needs.
    const PINNED: &str = "elp-add H1 T1 L2 T2 L1 S1 L3 T3 L4 T4 H13";

    #[test]
    fn step_records_in_order_across_commit_rollback_and_checkpoint() {
        let path = tmp("order");
        let topo = ClosConfig::small().build();
        let healthy = controller().committed().tcam_worst_switch;
        let mut ctrl =
            Controller::with_budget(topo.clone(), ElpPolicy::with_bounces(1), Some(healthy))
                .unwrap();
        let mut sb = reliable(&ctrl);
        let mut journal = Journal::create(&path).unwrap().checkpoint_every(2);
        let mut seen = Seen(Vec::new());
        for (line, commits) in [("flap L1 T1 1", true), (PINNED, false), ("resync", true)] {
            let batch = parse_trace(&topo, line).unwrap();
            let outcome = journal
                .step(
                    &mut ctrl,
                    &batch,
                    &mut sb,
                    &InstallPolicy::default(),
                    Some(&mut seen),
                )
                .unwrap();
            assert_eq!(outcome.committed().is_some(), commits, "{line}");
        }
        assert_eq!(
            records(&path),
            [
                "event down T1 L1",
                "event up T1 L1",
                "!ok 2",
                &format!("event {PINNED}"),
                "!rollback 1",
                // Two outcomes, committed or not, make the cadence.
                "!checkpoint epoch=1 version=2",
                "!checkpoint-end",
                "event resync",
                "!ok 1",
            ]
        );
        assert_eq!(seen.0, [1, 2], "the observer never sees the rollback");
        assert_eq!(ctrl.metrics().checkpoints, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flaps_damped_is_the_same_whichever_caller_drove_the_batch() {
        let (path, driven) = (tmp("damped"), tmp("damped-drive"));
        let topo = ClosConfig::small().build();
        let batch = parse_trace(&topo, "flap L1 T1 3").unwrap();
        let (mut direct, mut journaled, mut drove) = (controller(), controller(), controller());
        let mut sb = reliable(&direct);
        direct
            .handle_batch_via(&batch, &mut sb, &InstallPolicy::default())
            .unwrap();
        let mut sb = reliable(&journaled);
        Journal::create(&path)
            .unwrap()
            .step(
                &mut journaled,
                &batch,
                &mut sb,
                &InstallPolicy::default(),
                None,
            )
            .unwrap();
        let mut sb = reliable(&drove);
        Journal::create(&driven)
            .unwrap()
            .drive(
                &mut drove,
                &batch,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap();
        for ctrl in [&direct, &journaled, &drove] {
            assert_eq!(ctrl.metrics().flaps_damped, 5);
            assert_eq!(ctrl.metrics().events, 6);
        }
        // Recovery replays the batch through the same counter.
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert_eq!(rec.controller.metrics().flaps_damped, 5);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&driven).ok();
    }

    #[test]
    fn recover_reproduces_committed_tables_byte_for_byte() {
        let path = tmp("roundtrip");
        let mut live = controller();
        let mut sb = reliable(&live);
        let events = parse_trace(live.topo(), TRACE).unwrap();

        let mut journal = Journal::create(&path).unwrap().checkpoint_every(2);
        let report = journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap();
        assert!(!report.crashed);
        assert_eq!(report.consumed, events.len());
        assert!(
            live.metrics().checkpoints > 0,
            "checkpoint_every=2 must fire"
        );

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert!(rec.tail.is_empty(), "clean shutdown leaves no tail");
        assert_eq!(rec.controller.committed().epoch, live.committed().epoch);
        assert_eq!(rec.controller.state().version, live.state().version);
        assert_eq!(rec.controller.committed().rules, live.committed().rules);
        assert_eq!(
            format!("{:?}", rec.controller.committed().graph),
            format!("{:?}", live.committed().graph),
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_epoch_crash_recovers_reconciles_and_keeps_journaling() {
        let path = tmp("crash");
        let mut live = controller();
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(11, 0.3));
        sb.bootstrap(&live.committed().rules);
        let events = parse_trace(live.topo(), TRACE).unwrap();

        let mut journal = Journal::create(&path).unwrap().checkpoint_every(1);
        let report = journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                Some(2),
                None,
            )
            .unwrap();
        assert!(report.crashed);
        assert_eq!(report.outcomes.len(), 2);
        // down L1 T1, the four flap legs, then the batch in flight.
        assert_eq!(report.consumed, 6);
        let at_crash = records(&path);
        assert_eq!(
            at_crash.last().unwrap(),
            "event up T1 L1",
            "the crash leaves the write-ahead line with no outcome"
        );
        let pre_crash_rules = live.committed().rules.clone();
        let pre_crash_epoch = live.committed().epoch;
        drop((live, journal)); // the crash

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo.clone(), ElpPolicy::with_bounces(1), None).unwrap();
        let mut recovered = rec.controller;
        assert_eq!(
            recovered.committed().rules,
            pre_crash_rules,
            "recovery must reconverge to the crashed controller's tables"
        );
        assert_eq!(recovered.committed().epoch, pre_crash_epoch);
        assert_eq!(
            rec.tail,
            events[5..6],
            "the in-flight batch must surface as the tail"
        );

        // The fleet may hold anything the crash left behind; reconcile
        // repairs it, then the tail and the rest of the trace go through
        // the reopened journal: the tail's event line is resolved, not
        // written again.
        recovered.reconcile(&mut sb);
        assert_eq!(sb.fleet(), &recovered.committed().rules);
        let remaining = [rec.tail.as_slice(), &events[report.consumed..]].concat();
        let mut journal = Journal::open_append(&path).unwrap().checkpoint_every(1);
        let finished = journal
            .drive(
                &mut recovered,
                &remaining,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(finished.outcomes.len(), 2);
        assert_eq!(sb.fleet(), &recovered.committed().rules);
        let after = records(&path);
        assert_eq!(after[..at_crash.len()], at_crash[..]);
        assert!(
            after[at_crash.len()].starts_with('!'),
            "the tail's event line must not be written twice: {after:?}"
        );

        let again = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert!(again.tail.is_empty());
        assert_eq!(
            again.controller.committed().epoch,
            recovered.committed().epoch
        );
        assert_eq!(
            again.controller.committed().rules,
            recovered.committed().rules
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finishing_a_different_event_than_the_unresolved_one_is_refused() {
        let path = tmp("mismatch");
        let mut live = controller();
        let mut sb = reliable(&live);
        let events = parse_trace(live.topo(), "down L1 T1\nresync").unwrap();
        Journal::create(&path)
            .unwrap()
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                Some(0),
                None,
            )
            .unwrap();
        let mut journal = Journal::open_append(&path).unwrap();
        let err = journal
            .step(
                &mut live,
                &events[1..],
                &mut sb,
                &InstallPolicy::default(),
                None,
            )
            .unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_without_checkpoints_replays_from_genesis() {
        let path = tmp("genesis");
        let mut live = controller();
        let mut sb = reliable(&live);
        let events = parse_trace(live.topo(), "down L1 T1\nup L1 T1").unwrap();
        let mut journal = Journal::create(&path).unwrap();
        journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap();

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.controller.metrics().recovery_replays, 2);
        assert_eq!(rec.controller.committed().rules, live.committed().rules);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantines_survive_crash_recovery() {
        let path = tmp("watchdog");
        let mut live = controller();
        let mut sb = reliable(&live);
        // A watchdog quarantine lands, then an unrelated failure whose
        // checkpoint must carry the quarantine forward.
        let events = parse_trace(live.topo(), "watchdog L1 0 2\ndown L3 T3").unwrap();
        let mut journal = Journal::create(&path).unwrap().checkpoint_every(1);
        journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(live.state().quarantines.len(), 1);
        let pre_crash = live.committed().rules.clone();
        let quarantines = live.state().quarantines.clone();
        drop(live); // the crash

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert_eq!(
            rec.controller.state().quarantines,
            quarantines,
            "recovery must replay the quarantine from the journal"
        );
        assert_eq!(rec.controller.committed().rules, pre_crash);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_journals_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "event down L1 T1\n!ok 2\n").unwrap();
        let topo = ClosConfig::small().build();
        let err = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );

        std::fs::write(&path, "junk record\n").unwrap();
        let topo = ClosConfig::small().build();
        let err = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
