//! The fabric registry and the fair ingest/drain loop — the fleet's
//! supervisor.

use crate::error::FleetError;
use crate::fabric::{Fabric, FabricId, FabricSpec};
use crate::report::{FabricStatus, FleetReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tagger_ctrl::{parse_trace, ChaosConfig, CtrlEvent, EpochOutcome, InstallPolicy};

/// Fleet-wide knobs, applied to every fabric at registration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Directory journals are derived under (created on first
    /// registration).
    pub dir: PathBuf,
    /// Per-fabric ingest queue capacity; a full queue rejects ingest
    /// rather than dropping or blocking.
    pub queue_cap: usize,
    /// Most damped batches one fabric may process per drain cycle — the
    /// fairness bound that keeps a flapping fabric from starving the
    /// rest: every cycle gives every fabric with queued events a turn,
    /// and no fabric's turn exceeds `drain_quantum` recomputes.
    pub drain_quantum: usize,
    /// Southbound install retry discipline.
    pub install: InstallPolicy,
}

impl FleetConfig {
    /// Defaults rooted at `dir`: queue cap 1024, quantum 4, default
    /// install policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            dir: dir.into(),
            queue_cap: 1024,
            drain_quantum: 4,
            install: InstallPolicy::default(),
        }
    }
}

/// Derives the on-disk stem for a fabric name: lowercased, with every
/// character outside `[a-z0-9_-]` replaced by `-`. Distinct names can
/// collide after sanitization ("fab/0" and "fab.0" both become
/// "fab-0"); registration catches that as a duplicate-path error.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// FNV-1a, 64-bit: the name hash behind [`chaos_for`] and the journal
/// fingerprint `results/ingest_drill.txt` pins.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Derives a fabric's southbound chaos schedule from a fleet-wide base
/// config and the fabric's *name* ([`fnv64`] of it, XORed into the
/// seed). Registration order depends on which line or which client
/// arrives first, so it must never pick a fabric's fault schedule — any
/// replay of the same per-fabric streams then reproduces the same
/// faults, which is what keeps networked journals byte-identical to
/// in-process ones.
pub fn chaos_for(base: &ChaosConfig, fabric: &str) -> ChaosConfig {
    ChaosConfig {
        seed: base.seed ^ fnv64(fabric.as_bytes()),
        ..*base
    }
}

/// N independent fabrics behind one process: registration (with journal
/// path isolation), per-fabric bounded ingest, a fair round-robin drain,
/// and fleet-wide snapshots.
pub struct Fleet {
    cfg: FleetConfig,
    fabrics: Vec<Fabric>,
    by_name: BTreeMap<String, usize>,
    /// Canonicalized journal path -> owning fabric name. The isolation
    /// invariant: no two fabrics may ever share a journal file, or
    /// concurrent drains would interleave their write-ahead records.
    journal_owners: BTreeMap<PathBuf, String>,
    /// Most workers one drain cycle runs fabrics' turns on — the cores
    /// available to the process, read once (std re-reads cgroup limits
    /// on every call).
    cores: usize,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Self {
        Fleet {
            cfg,
            fabrics: Vec::new(),
            by_name: BTreeMap::new(),
            journal_owners: BTreeMap::new(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Registered fabrics, in id order.
    pub fn fabrics(&self) -> &[Fabric] {
        &self.fabrics
    }

    /// Number of registered fabrics.
    pub fn len(&self) -> usize {
        self.fabrics.len()
    }

    /// True when no fabric is registered.
    pub fn is_empty(&self) -> bool {
        self.fabrics.is_empty()
    }

    /// Looks a fabric up by name.
    pub fn fabric(&self, name: &str) -> Result<&Fabric, FleetError> {
        self.by_name
            .get(name)
            .map(|&i| &self.fabrics[i])
            .ok_or_else(|| FleetError::UnknownFabric(name.to_string()))
    }

    /// Mutable lookup by name.
    pub fn fabric_mut(&mut self, name: &str) -> Result<&mut Fabric, FleetError> {
        match self.by_name.get(name) {
            Some(&i) => Ok(&mut self.fabrics[i]),
            None => Err(FleetError::UnknownFabric(name.to_string())),
        }
    }

    /// Resolves the journal path a spec will use, without registering.
    ///
    /// Explicit paths are honoured; otherwise
    /// `<dir>/<sanitized-name>.journal`.
    pub fn journal_path_for(&self, spec: &FabricSpec) -> PathBuf {
        match &spec.journal_path {
            Some(p) => p.clone(),
            None => self
                .cfg
                .dir
                .join(format!("{}.journal", sanitize(&spec.name))),
        }
    }

    /// Canonical form for duplicate detection: resolve the parent
    /// directory (which exists by the time we check) so `a/../b.journal`
    /// and `b.journal` collide, then re-attach the file name.
    fn canonical(path: &Path) -> PathBuf {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        match (parent.and_then(|p| p.canonicalize().ok()), path.file_name()) {
            (Some(dir), Some(file)) => dir.join(file),
            _ => path.to_path_buf(),
        }
    }

    /// Brings a fabric under supervision: boots its controller (epoch 0
    /// committed, audited, installed), creates its journal, and adds it
    /// to the drain rotation. Rejects duplicate names and — the journal
    /// isolation invariant — any journal path another fabric already
    /// owns, even via a different spelling.
    pub fn register(&mut self, spec: FabricSpec) -> Result<FabricId, FleetError> {
        if self.by_name.contains_key(&spec.name) {
            return Err(FleetError::DuplicateFabric(spec.name));
        }
        std::fs::create_dir_all(&self.cfg.dir)?;
        if let Some(parent) = self.journal_path_for(&spec).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let path = self.journal_path_for(&spec);
        let canonical = Self::canonical(&path);
        if let Some(owner) = self.journal_owners.get(&canonical) {
            return Err(FleetError::DuplicateJournalPath {
                path,
                owner: owner.clone(),
                claimant: spec.name,
            });
        }
        let id = FabricId(self.fabrics.len() as u32);
        let name = spec.name.clone();
        let fabric = Fabric::boot(id, spec, path, self.cfg.queue_cap, self.cfg.install)?;
        self.journal_owners.insert(canonical, name.clone());
        self.by_name.insert(name, id.index());
        self.fabrics.push(fabric);
        Ok(id)
    }

    /// Accepts one event for `fabric`'s bounded queue.
    pub fn ingest(&mut self, fabric: &str, event: CtrlEvent) -> Result<(), FleetError> {
        self.fabric_mut(fabric)?.enqueue(event)
    }

    /// Accepts one `fabric: trace-line` style line, parsed against that
    /// fabric's own topology (a line can expand to several events, e.g.
    /// `flap L1 T1 3`).
    ///
    /// All-or-nothing on capacity: the whole line is admitted only when
    /// the queue has room for *every* event it expands to, so a
    /// [`FleetError::QueueFull`] rejection is always safely retryable —
    /// no prefix of the line is left behind to double-apply on retry.
    pub fn ingest_line(&mut self, fabric: &str, line: &str) -> Result<usize, FleetError> {
        let events = parse_trace(self.fabric(fabric)?.topo(), line)?;
        self.admit(fabric, events)
    }

    /// Queues a parsed line's events, all or none (see
    /// [`Fleet::ingest_line`]).
    fn admit(&mut self, fabric: &str, events: Vec<CtrlEvent>) -> Result<usize, FleetError> {
        let fab = self.fabric_mut(fabric)?;
        let n = events.len();
        if n > fab.queue_free() {
            return Err(fab.reject_line());
        }
        for event in events {
            fab.enqueue(event)?;
        }
        Ok(n)
    }

    /// Accepts one `<fabric>: <trace-line>` stream line, registering the
    /// fabric on first mention: `template` with the fabric's name, and
    /// its chaos schedule (if any) re-seeded by [`chaos_for`]. Every
    /// stream front — `tagger-fleetd ingest`, the network server, the
    /// drills' solo replay — registers through here, so one stream means
    /// one set of fabrics whichever front carried it. Capacity handling
    /// is [`Fleet::ingest_line`]'s.
    ///
    /// The line is parsed before anything is registered, against
    /// `template`'s topology (which every fabric registered here runs),
    /// so a refused line leaves no fabric, journal or audit behind.
    pub fn ingest_stream_line(
        &mut self,
        template: &FabricSpec,
        line: &str,
    ) -> Result<usize, FleetError> {
        let (fabric, rest) = line
            .split_once(':')
            .ok_or_else(|| FleetError::Protocol("want '<fabric>: <trace-line>'".into()))?;
        let fabric = fabric.trim();
        let events = parse_trace(&template.topo, rest.trim())?;
        if !self.by_name.contains_key(fabric) {
            self.register(FabricSpec {
                name: fabric.to_string(),
                chaos: template.chaos.map(|base| chaos_for(&base, fabric)),
                ..template.clone()
            })?;
        }
        self.admit(fabric, events)
    }

    /// One fair drain cycle: every fabric with queued events processes
    /// up to [`FleetConfig::drain_quantum`] damped batches from its own
    /// queue. Returns the total batches processed. A fabric with a
    /// million queued flaps gets exactly the same turn as one with a
    /// single event — the starvation bound the ingest front promises.
    ///
    /// The turns run concurrently, one worker per available core (never
    /// more workers than busy fabrics; the calling thread is one of
    /// them). A fabric's batches depend only on its own queue and no two
    /// fabrics share a journal, so every journal is byte-identical to a
    /// one-at-a-time drain's. Every fabric finishes its turn even when
    /// another fails; the cycle then returns the error of the lowest
    /// fabric id that failed, whatever order the workers finished in.
    /// A panicking turn propagates the panic.
    pub fn drain_cycle(&mut self) -> Result<u64, FleetError> {
        self.cycle(Fabric::drain)
    }

    /// Like [`Fleet::drain_cycle`], but every fabric holds back its
    /// trailing — possibly still-growing — batch unless its queue is
    /// full. This is the cycle the network ingest front runs
    /// concurrently with ingest: batch boundaries (and so the journals)
    /// depend only on the event stream, never on where drain ticks land
    /// relative to arrivals. See [`Fabric::drain_settled`].
    pub fn drain_cycle_settled(&mut self) -> Result<u64, FleetError> {
        self.cycle(Fabric::drain_settled)
    }

    /// Runs one `turn` per busy fabric across `min(cores, busy)`
    /// workers: the k-th busy fabric drains on worker `k % workers`,
    /// worker 0 being the calling thread, so a cycle with one busy
    /// fabric spawns nothing.
    fn cycle(
        &mut self,
        turn: fn(&mut Fabric, usize) -> Result<Vec<EpochOutcome>, FleetError>,
    ) -> Result<u64, FleetError> {
        let quantum = self.cfg.drain_quantum.max(1);
        let busy: Vec<&mut Fabric> = self.fabrics.iter_mut().filter(|f| f.queued() > 0).collect();
        let workers = self.cores.min(busy.len()).max(1);
        let mut shares: Vec<Vec<&mut Fabric>> = (0..workers).map(|_| Vec::new()).collect();
        for (k, fabric) in busy.into_iter().enumerate() {
            shares[k % workers].push(fabric);
        }
        let run = |share: Vec<&mut Fabric>| -> Vec<(FabricId, Result<usize, FleetError>)> {
            share
                .into_iter()
                .map(|fabric| (fabric.id(), turn(fabric, quantum).map(|o| o.len())))
                .collect()
        };
        let mut shares = shares.into_iter();
        let own = shares.next().unwrap_or_default();
        let mut turns = std::thread::scope(|s| {
            let spawned: Vec<_> = shares.map(|share| s.spawn(move || run(share))).collect();
            let mut turns = run(own);
            for worker in spawned {
                match worker.join() {
                    Ok(more) => turns.extend(more),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            turns
        });
        turns.sort_unstable_by_key(|&(id, _)| id);
        let mut processed = 0u64;
        for (_, batches) in turns {
            processed += batches? as u64;
        }
        Ok(processed)
    }

    /// Drains until every queue is empty, returning total batches.
    pub fn drain_all(&mut self) -> Result<u64, FleetError> {
        let mut total = 0u64;
        loop {
            let n = self.drain_cycle()?;
            total += n;
            if n == 0 && self.fabrics.iter().all(|f| f.queued() == 0) {
                return Ok(total);
            }
        }
    }

    /// Drains one named fabric to empty, ignoring the rotation — the
    /// single-tenant escape hatch (and what the equivalence tests use as
    /// their solo baseline).
    pub fn drain_fabric(&mut self, name: &str) -> Result<Vec<EpochOutcome>, FleetError> {
        let fab = self.fabric_mut(name)?;
        let mut outcomes = Vec::new();
        while fab.queued() > 0 {
            outcomes.extend(fab.drain(usize::MAX)?);
        }
        Ok(outcomes)
    }

    /// Point-in-time fleet snapshot: every fabric's status plus the
    /// one-place rollups ([`std::iter::Sum`] over `ControllerMetrics` /
    /// `AuditMetrics`).
    pub fn snapshot(&self) -> FleetReport {
        FleetReport::capture(self.fabrics.iter().map(FabricStatus::capture))
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("fabrics", &self.fabrics.len())
            .field("dir", &self.cfg.dir)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_topo::ClosConfig;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tagger-fleet-{}-{name}", std::process::id()))
    }

    fn spec(name: &str) -> FabricSpec {
        FabricSpec::new(name, ClosConfig::small().build())
    }

    #[test]
    fn register_rejects_duplicate_names_and_journal_paths() {
        let dir = tmp("dup");
        let mut fleet = Fleet::new(FleetConfig::new(&dir));
        fleet.register(spec("fab0")).unwrap();
        assert!(matches!(
            fleet.register(spec("fab0")),
            Err(FleetError::DuplicateFabric(_))
        ));
        // Distinct names, same sanitized journal stem: the path
        // isolation invariant must refuse the second registration.
        fleet.register(spec("fab.1")).unwrap();
        match fleet.register(spec("fab/1")) {
            Err(FleetError::DuplicateJournalPath {
                owner, claimant, ..
            }) => {
                assert_eq!(owner, "fab.1");
                assert_eq!(claimant, "fab/1");
            }
            other => panic!("expected DuplicateJournalPath, got {other:?}"),
        }
        // An explicit path that respells an owned path is also caught.
        let mut sneaky = spec("fab2");
        sneaky.journal_path = Some(dir.join("x/../fab-1.journal"));
        std::fs::create_dir_all(dir.join("x")).unwrap();
        assert!(matches!(
            fleet.register(sneaky),
            Err(FleetError::DuplicateJournalPath { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journals_live_under_the_fleet_dir_one_per_fabric() {
        let dir = tmp("paths");
        let mut fleet = Fleet::new(FleetConfig::new(&dir));
        fleet.register(spec("EastCoast-A")).unwrap();
        fleet.register(spec("westcoast-b")).unwrap();
        let a = fleet.fabric("EastCoast-A").unwrap();
        assert_eq!(a.journal_path(), dir.join("eastcoast-a.journal"));
        assert!(a.journal_path().exists());
        let b = fleet.fabric("westcoast-b").unwrap();
        assert_eq!(b.journal_path(), dir.join("westcoast-b.journal"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_routes_to_the_named_fabric_only() {
        let dir = tmp("route");
        let mut fleet = Fleet::new(FleetConfig::new(&dir));
        fleet.register(spec("a")).unwrap();
        fleet.register(spec("b")).unwrap();
        assert_eq!(fleet.ingest_line("a", "down L1 T1").unwrap(), 1);
        assert_eq!(fleet.ingest_line("a", "flap L2 T2 2").unwrap(), 4);
        assert!(matches!(
            fleet.ingest_line("nope", "down L1 T1"),
            Err(FleetError::UnknownFabric(_))
        ));
        assert_eq!(fleet.fabric("a").unwrap().queued(), 5);
        assert_eq!(fleet.fabric("b").unwrap().queued(), 0);
        fleet.drain_all().unwrap();
        assert_eq!(fleet.fabric("a").unwrap().queued(), 0);
        let a = fleet.fabric("a").unwrap();
        assert!(a.commits() >= 2, "down + damped flap must commit");
        assert!(a.converged());
        assert_eq!(a.audit_violations(), 0);
        let b = fleet.fabric("b").unwrap();
        assert_eq!(b.commits(), 0, "fabric b saw no events");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_cap_rejects_rather_than_drops() {
        let dir = tmp("cap");
        let mut cfg = FleetConfig::new(&dir);
        cfg.queue_cap = 3;
        let mut fleet = Fleet::new(cfg);
        fleet.register(spec("a")).unwrap();
        for _ in 0..3 {
            fleet.ingest_line("a", "resync").unwrap();
        }
        assert!(matches!(
            fleet.ingest_line("a", "resync"),
            Err(FleetError::QueueFull { cap: 3, .. })
        ));
        // Draining frees capacity.
        fleet.drain_cycle().unwrap();
        fleet.ingest_line("a", "resync").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_turn_reports_the_lowest_fabric_and_spares_the_rest() {
        let dir = tmp("errors");
        let mut fleet = Fleet::new(FleetConfig::new(&dir));
        let names = ["f0", "f1", "f2", "f3"];
        for name in names {
            fleet.register(spec(name)).unwrap();
        }
        let links = fleet.fabrics()[0].topo().num_links() as u32;
        let (bogus1, bogus3) = (
            tagger_topo::LinkId(links + 1),
            tagger_topo::LinkId(links + 3),
        );
        fleet.ingest("f1", CtrlEvent::LinkDown(bogus1)).unwrap();
        fleet.ingest("f3", CtrlEvent::LinkDown(bogus3)).unwrap();
        for healthy in ["f0", "f2"] {
            fleet.ingest_line(healthy, "down L1 T1").unwrap();
            fleet.ingest_line(healthy, "up L1 T1").unwrap();
        }
        // Whichever worker finishes first, fabric 1's error is the one
        // returned, and fabrics 0 and 2 committed in the same cycle.
        match fleet.drain_cycle() {
            Err(FleetError::Ctrl(tagger_ctrl::CtrlError::UnknownLink(l))) => {
                assert_eq!(l, bogus1)
            }
            other => panic!("expected fabric 1's UnknownLink, got {other:?}"),
        }
        for healthy in ["f0", "f2"] {
            let fabric = fleet.fabric(healthy).unwrap();
            assert_eq!(fabric.commits(), 1, "{healthy} must commit its flap batch");
            assert_eq!(fabric.queued(), 0);
            assert!(fabric.converged());
        }
        for failed in ["f1", "f3"] {
            let fabric = fleet.fabric(failed).unwrap();
            assert_eq!(fabric.commits(), 0);
            assert_eq!(fabric.queued(), 0, "{failed} took its turn");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_stream_line_registers_nothing() {
        let dir = tmp("refused");
        let mut fleet = Fleet::new(FleetConfig::new(&dir));
        let template = spec("template");
        assert_eq!(
            fleet
                .ingest_stream_line(&template, "alpha: down L1 T1")
                .unwrap(),
            1
        );
        assert!(matches!(
            fleet.ingest_stream_line(&template, "ghost: donw L1 T1"),
            Err(FleetError::Trace(_))
        ));
        assert_eq!(fleet.len(), 1, "the bad line must not register `ghost`");
        assert!(fleet.fabric("ghost").is_err());
        assert!(!dir.join("ghost.journal").exists());
        assert_eq!(fleet.snapshot().fabrics.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
