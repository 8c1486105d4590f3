//! One supervised fabric: a controller, its journal, its southbound,
//! and its independent audit loop — the unit of ownership in the fleet.
//!
//! Everything a fabric touches is its own: its `Controller` and
//! `NetworkState`, its write-ahead journal file, its (possibly chaotic)
//! southbound, its `Auditor`, its ingest queue and damping policy. No
//! state is shared across fabrics — the ownership boundary ROADMAP
//! item 4 demands — so one fabric's flap storm, chaos schedule, or audit
//! failure cannot perturb another's batching or verdicts. The fabric
//! owns the queue and its two counters (`ingested`, `queue_rejections`);
//! every other number it reports is read from its controller's
//! `ControllerMetrics` or its auditor's `AuditMetrics`. Each batch it
//! takes off the queue reaches the switches through [`Journal::step`],
//! like every other rollout in the tree.

use crate::error::FleetError;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use tagger_audit::{AuditMetrics, Auditor};
use tagger_ctrl::{
    recover, ChaosConfig, ChaosSouthbound, CommitObserver, CommitReport, Controller, CtrlEvent,
    Damping, ElpPolicy, EpochOutcome, InstallPolicy, Journal, ReliableSouthbound, Snapshot,
    Southbound,
};
use tagger_topo::Topology;

/// Index of a fabric within its fleet; assigned at registration, dense
/// from 0 in registration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FabricId(pub u32);

impl FabricId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything needed to bring one fabric under supervision.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    /// Unique fabric name (the ingest address and report key).
    pub name: String,
    /// The fabric's topology.
    pub topo: Topology,
    /// ELP derivation policy.
    pub policy: ElpPolicy,
    /// Optional per-switch TCAM ceiling.
    pub tcam_budget: Option<usize>,
    /// Seeded southbound fault schedule; `None` for a reliable fleet.
    pub chaos: Option<ChaosConfig>,
    /// Journal checkpoint cadence (outcomes between checkpoints; 0 =
    /// never checkpoint).
    pub checkpoint_every: u64,
    /// Damping policy for this fabric's ingest queue.
    pub damping: Damping,
    /// Explicit journal path; when `None` the fleet derives
    /// `<dir>/<sanitized-name>.journal`.
    pub journal_path: Option<PathBuf>,
}

impl FabricSpec {
    /// A spec with the fleet defaults: 1-bounce ELP policy, no budget,
    /// reliable southbound, checkpoint every 4 outcomes, flap damping,
    /// derived journal path.
    pub fn new(name: impl Into<String>, topo: Topology) -> Self {
        FabricSpec {
            name: name.into(),
            topo,
            policy: ElpPolicy::with_bounces(1),
            tcam_budget: None,
            chaos: None,
            checkpoint_every: 4,
            damping: Damping::Flap,
            journal_path: None,
        }
    }

    /// Sets a seeded chaos schedule on the southbound.
    pub fn with_chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(cfg);
        self
    }

    /// Sets the damping policy.
    pub fn with_damping(mut self, damping: Damping) -> Self {
        self.damping = damping;
        self
    }
}

/// The two southbound flavours a fabric can own. An enum rather than a
/// `Box<dyn Southbound>` so chaos counters stay reachable for reports.
enum FabricSouthbound {
    Reliable(ReliableSouthbound),
    Chaos(ChaosSouthbound),
}

impl FabricSouthbound {
    fn as_dyn(&mut self) -> &mut dyn Southbound {
        match self {
            FabricSouthbound::Reliable(sb) => sb,
            FabricSouthbound::Chaos(sb) => sb,
        }
    }

    fn fleet_tables(&self) -> &tagger_core::RuleSet {
        match self {
            FabricSouthbound::Reliable(sb) => sb.fleet(),
            FabricSouthbound::Chaos(sb) => sb.fleet(),
        }
    }

    fn faults_injected(&self) -> u64 {
        match self {
            FabricSouthbound::Reliable(_) => 0,
            FabricSouthbound::Chaos(sb) => sb.faults_injected(),
        }
    }
}

/// The independent verifier riding the fabric's commit stream through
/// the [`CommitObserver`] bridge: every committed epoch's tables are
/// decompiled and re-proven deadlock-free by `tagger-audit`, which
/// shares no verdict logic with the controller. Its verdicts are kept in
/// the auditor's [`AuditMetrics`].
struct AuditBridge(Auditor);

impl CommitObserver for AuditBridge {
    fn on_commit(&mut self, _topo: &Topology, snapshot: &Snapshot, _report: &CommitReport) {
        self.0.audit(snapshot.epoch, &snapshot.rules);
    }
}

/// One supervised fabric. See the module docs for the ownership story.
pub struct Fabric {
    id: FabricId,
    spec: FabricSpec,
    ctrl: Controller,
    southbound: FabricSouthbound,
    journal: Journal,
    audit: AuditBridge,
    install: InstallPolicy,
    queue: VecDeque<CtrlEvent>,
    queue_cap: usize,
    ingested: u64,
    queue_rejections: u64,
}

impl Fabric {
    /// Boots a fabric: commits epoch 0, bootstraps the southbound with
    /// the verified tables, creates the journal, audits the bootstrap.
    pub(crate) fn boot(
        id: FabricId,
        spec: FabricSpec,
        journal_path: PathBuf,
        queue_cap: usize,
        install: InstallPolicy,
    ) -> Result<Fabric, FleetError> {
        let ctrl = Controller::with_budget(spec.topo.clone(), spec.policy, spec.tcam_budget)
            .map_err(FleetError::Ctrl)?;
        let mut southbound = match spec.chaos {
            Some(cfg) => FabricSouthbound::Chaos(ChaosSouthbound::new(cfg)),
            None => FabricSouthbound::Reliable(ReliableSouthbound::new()),
        };
        southbound.as_dyn().bootstrap(&ctrl.committed().rules);
        let journal = Journal::create(journal_path)?.checkpoint_every(spec.checkpoint_every);
        let mut audit = AuditBridge(Auditor::new(spec.topo.clone()));
        // Epoch 0 is a commit like any other: audit it.
        audit.0.audit(0, &ctrl.committed().rules);
        Ok(Fabric {
            id,
            spec,
            ctrl,
            southbound,
            journal,
            audit,
            install,
            queue: VecDeque::new(),
            queue_cap,
            ingested: 0,
            queue_rejections: 0,
        })
    }

    /// The fabric's id within its fleet.
    pub fn id(&self) -> FabricId {
        self.id
    }

    /// The fabric's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The spec the fabric was registered with.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The topology under management.
    pub fn topo(&self) -> &Topology {
        self.ctrl.topo()
    }

    /// The supervised controller (read-only; mutation goes through the
    /// ingest queue so every event is journaled write-ahead).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// Where this fabric journals.
    pub fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// Independent-audit violations observed so far (0 on a healthy
    /// fabric: every committed epoch re-certified from its tables).
    pub fn audit_violations(&self) -> u64 {
        self.audit_metrics().violations()
    }

    /// The audit loop's cumulative metrics.
    pub fn audit_metrics(&self) -> &AuditMetrics {
        &self.audit.0.metrics
    }

    /// Southbound faults injected so far (0 for a reliable southbound).
    pub fn faults_injected(&self) -> u64 {
        self.southbound.faults_injected()
    }

    /// Events accepted into the queue over the fabric's lifetime.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Events currently queued (ingested, not yet drained).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queue's configured capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Queue slots still free.
    pub fn queue_free(&self) -> usize {
        self.queue_cap.saturating_sub(self.queue.len())
    }

    /// Ingest attempts refused with [`FleetError::QueueFull`] — each one
    /// a backpressure push the caller had to absorb and retry.
    pub fn queue_rejections(&self) -> u64 {
        self.queue_rejections
    }

    /// Batches staged so far: each one committed or rolled back.
    pub fn batches(&self) -> u64 {
        self.ctrl.metrics().epochs_staged
    }

    /// Epochs committed so far (excluding the bootstrap epoch 0).
    pub fn commits(&self) -> u64 {
        self.ctrl.metrics().epochs_committed
    }

    /// Batches rolled back so far.
    pub fn rollbacks(&self) -> u64 {
        self.ctrl.metrics().rollbacks
    }

    /// Stage latency of every staged batch, µs, in staging order — the
    /// controller's series, which fleet-wide percentiles are computed
    /// from. A batch that rolled back was staged too, so its stage time
    /// is here as well: the slice holds [`Fabric::batches`] samples, one
    /// per commit only when nothing rolled back.
    pub fn epoch_latencies_us(&self) -> &[u64] {
        self.ctrl.metrics().stage_us.as_slice()
    }

    /// True while the southbound's tables equal the committed snapshot —
    /// the commit-barrier invariant, checked against ground truth.
    pub fn converged(&self) -> bool {
        self.southbound.fleet_tables() == &self.ctrl.committed().rules
    }

    /// Accepts one event into the bounded ingest queue. Fails with
    /// [`FleetError::QueueFull`] instead of blocking or dropping — the
    /// caller decides whether to drain or shed.
    pub fn enqueue(&mut self, event: CtrlEvent) -> Result<(), FleetError> {
        if self.queue.len() >= self.queue_cap {
            self.queue_rejections += 1;
            return Err(FleetError::QueueFull {
                fabric: self.spec.name.clone(),
                cap: self.queue_cap,
            });
        }
        self.queue.push_back(event);
        self.ingested += 1;
        Ok(())
    }

    /// Records a whole-line capacity rejection (the all-or-nothing check
    /// in [`Fleet::ingest_line`](crate::Fleet::ingest_line)): one
    /// backpressure push regardless of how many events the line would
    /// have expanded to.
    pub(crate) fn reject_line(&mut self) -> FleetError {
        self.queue_rejections += 1;
        FleetError::QueueFull {
            fabric: self.spec.name.clone(),
            cap: self.queue_cap,
        }
    }

    /// Drains up to `max_batches` damped batches from the queue through
    /// the journaled two-phase rollout, returning the outcomes. Damping
    /// is computed over this fabric's queue alone — never across
    /// fabrics — and because policies are suffix-closed, whatever stays
    /// queued will batch identically on the next cycle.
    pub fn drain(&mut self, max_batches: usize) -> Result<Vec<EpochOutcome>, FleetError> {
        self.drain_inner(max_batches, false)
    }

    /// Like [`Fabric::drain`], but holds back the stream's trailing
    /// batch. Damping splits are *prefix-stable* in every batch except
    /// the last: a batch with at least one event after it is closed (a
    /// maximal run followed by a different event stays maximal no
    /// matter what arrives later), while the final batch may still grow
    /// if the next event extends its run. A drain interleaved with
    /// ingest — the network front's drain tick — must therefore
    /// not commit the trailing batch, or its boundaries (and the
    /// write-ahead journal) would depend on where drain ticks happened
    /// to land relative to arrivals instead of on the stream alone.
    ///
    /// A full queue flushes everything regardless: the client is being
    /// backpressured and holding the tail would livelock it. The held
    /// batch is drained by the unconditional [`Fabric::drain`] paths
    /// (shutdown, `drain_all`) once the stream is complete.
    pub fn drain_settled(&mut self, max_batches: usize) -> Result<Vec<EpochOutcome>, FleetError> {
        let hold = self.queue.len() < self.queue_cap;
        self.drain_inner(max_batches, hold)
    }

    fn drain_inner(
        &mut self,
        max_batches: usize,
        hold_last: bool,
    ) -> Result<Vec<EpochOutcome>, FleetError> {
        let mut outcomes = Vec::new();
        let events = self.queue.make_contiguous();
        let ranges = self.spec.damping.split(events);
        let settled = if hold_last {
            ranges.len().saturating_sub(1)
        } else {
            ranges.len()
        };
        let taken = &ranges[..settled.min(max_batches)];
        let Some(last) = taken.last() else {
            return Ok(outcomes);
        };
        let drained: Vec<CtrlEvent> = self.queue.drain(..last.end).collect();

        for range in taken {
            outcomes.push(self.journal.step(
                &mut self.ctrl,
                &drained[range.clone()],
                self.southbound.as_dyn(),
                &self.install,
                Some(&mut self.audit),
            )?);
        }
        Ok(outcomes)
    }

    /// Re-certifies the *current* committed tables with a fresh,
    /// independent auditor (not the one riding the commit stream).
    pub fn certify(&self) -> bool {
        let mut auditor = Auditor::new(self.ctrl.topo().clone());
        auditor
            .audit(self.ctrl.committed().epoch, &self.ctrl.committed().rules)
            .is_certified()
    }

    /// Crash-recovery drill against the live fabric: rebuilds a
    /// controller from this fabric's journal and checks it reconverges
    /// to the live committed tables, epoch, and quarantine set with no
    /// unprocessed tail. Returns `(recoverable, quarantine_consistent)`.
    pub fn verify_recovery(&self) -> (bool, bool) {
        let rec = match recover(
            self.journal.path(),
            self.ctrl.topo().clone(),
            self.spec.policy,
            self.spec.tcam_budget,
        ) {
            Ok(r) => r,
            Err(_) => return (false, false),
        };
        let recoverable = rec.tail.is_empty()
            && rec.controller.committed().epoch == self.ctrl.committed().epoch
            && rec.controller.committed().rules == self.ctrl.committed().rules;
        let quarantine_consistent =
            rec.controller.state().quarantines == self.ctrl.state().quarantines;
        (recoverable, quarantine_consistent)
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("id", &self.id)
            .field("name", &self.spec.name)
            .field("epoch", &self.ctrl.committed().epoch)
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}
