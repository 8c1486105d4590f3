//! The chaos-soak harness: dozens of fabrics, each under its own seeded
//! fault schedule, driven concurrently through one fleet — then graded.
//!
//! The drill is the fleet's pre-deployment gate. Every fabric gets a
//! distinct seeded event schedule (flap storms, bounded concurrent link
//! failures, watchdog trips/clears, resyncs, and a steady churn of
//! table-changing events — see [`churn`]) *and* a distinct seeded chaos
//! schedule on its southbound, the streams are interleaved through the
//! bounded fair ingest front, and at the end every fabric must be:
//!
//! - **certified** — a fresh independent auditor re-proves the final
//!   committed tables deadlock-free (Theorem 5.1, decompiled from TCAM);
//! - **recoverable** — replaying its journal from disk reconverges to
//!   the live epoch and tables with no unprocessed tail;
//! - **quarantine-consistent** — the recovered quarantine set equals the
//!   live one;
//! - **converged** — the (chaotic) southbound's tables equal the
//!   committed snapshot.
//!
//! Every schedule ends with a healing tail (links restored, quarantines
//! cleared, final resync), so "ready" is decidable: an unhealed fabric
//! would legitimately carry quarantines. Each fabric's grade is its
//! final [`FabricStatus`] — the same capture the drill's fleet snapshot
//! holds — plus the three gates only the drill checks. The
//! [`ReadinessReport`] renders only seed-deterministic fields, so it is
//! byte-stable given a seed — `tests/soak_e2e.rs` pins one against
//! `results/fleet_soak.txt`.

use crate::error::FleetError;
use crate::fabric::FabricSpec;
use crate::net::chaos::SplitMix64;
use crate::registry::{Fleet, FleetConfig};
use crate::report::{FabricStatus, FleetReport};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tagger_ctrl::{parse_trace, ChaosConfig, CtrlEvent, Damping};
use tagger_topo::{ClosConfig, Topology};

/// Soak drill parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Fabrics to register (each with its own seeded schedules).
    pub fabrics: usize,
    /// Master seed; fabric seeds derive from it, so one number pins the
    /// whole drill.
    pub seed: u64,
    /// Approximate events generated per fabric (the healing tail adds a
    /// few more).
    pub events_per_fabric: usize,
    /// Southbound chaos refusal rate (timeout/partial rates follow
    /// [`ChaosConfig::new`]).
    pub fail_rate: f64,
    /// Journal directory for the drill.
    pub dir: PathBuf,
}

impl SoakConfig {
    /// 8 fabrics, 48 events each, 25% chaos, seed 1, rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SoakConfig {
            fabrics: 8,
            seed: 1,
            events_per_fabric: 48,
            fail_rate: 0.25,
            dir: dir.into(),
        }
    }
}

/// One fabric's final grade: its status (counters, audit trail and
/// convergence) and the gates the drill adds to it.
#[derive(Clone, Debug)]
pub struct FabricReadiness {
    /// The fabric's final status.
    pub status: FabricStatus,
    /// Final tables re-certified by a fresh independent auditor.
    pub certified: bool,
    /// Journal replays to the live epoch/tables with no tail.
    pub recoverable: bool,
    /// Recovered quarantines equal live quarantines.
    pub quarantine_consistent: bool,
}

impl FabricReadiness {
    /// All four gates (the three above plus convergence) and a clean
    /// audit trail.
    pub fn ready(&self) -> bool {
        self.status.audit.violations() == 0
            && self.certified
            && self.recoverable
            && self.quarantine_consistent
            && self.status.converged
    }
}

/// The drill's verdict: per-fabric grades plus the knobs that produced
/// them. Rendering is byte-stable given the config (every field is
/// seed-deterministic; no wall-clock values).
#[derive(Clone, Debug)]
pub struct ReadinessReport {
    /// Master seed the drill ran under.
    pub seed: u64,
    /// Chaos refusal rate.
    pub fail_rate: f64,
    /// Per-fabric grades, in fabric-id order.
    pub fabrics: Vec<FabricReadiness>,
}

impl ReadinessReport {
    /// True when every fabric passed every gate.
    pub fn all_ready(&self) -> bool {
        self.fabrics.iter().all(FabricReadiness::ready)
    }

    /// Fabrics that passed.
    pub fn ready_count(&self) -> usize {
        self.fabrics.iter().filter(|f| f.ready()).count()
    }

    /// The byte-stable text report CI asserts on.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tagger-fleetd readiness report (seed {}, fail_rate {:.2}, {} fabrics)",
            self.seed,
            self.fail_rate,
            self.fabrics.len()
        );
        for f in &self.fabrics {
            let yn = |b: bool| if b { "yes" } else { "NO" };
            let s = &f.status;
            let _ = writeln!(
                out,
                "  {:<10} ingested {:>4}  batches {:>4}  commits {:>4}  rollbacks {:>3}  \
                 faults {:>4}  certified {}  recoverable {}  quarantine-consistent {}  \
                 converged {}  {}",
                s.name,
                s.ingested,
                s.ctrl.epochs_staged,
                s.ctrl.epochs_committed,
                s.ctrl.rollbacks,
                s.faults_injected,
                yn(f.certified),
                yn(f.recoverable),
                yn(f.quarantine_consistent),
                yn(s.converged),
                if f.ready() { "READY" } else { "NOT-READY" },
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}/{} fabrics ready — {}",
            self.ready_count(),
            self.fabrics.len(),
            if self.all_ready() {
                "FLEET CERTIFIED"
            } else {
                "FLEET NOT READY"
            }
        );
        out
    }
}

/// Everything the drill produced: the verdict, the final fleet snapshot
/// (for metrics rollups and latency series) and the drain-cycle count.
pub struct SoakOutcome {
    /// The graded verdict.
    pub readiness: ReadinessReport,
    /// Final fleet snapshot (metrics, latencies — the bench's raw data).
    pub snapshot: FleetReport,
    /// Total fair drain cycles the drill ran.
    pub drain_cycles: u64,
}

/// Derives fabric `i`'s private seed from the master seed: the first
/// SplitMix64 draw from `master + i·γ`, so neighbouring fabrics get
/// unrelated streams.
pub fn fabric_seed(master: u64, i: u64) -> u64 {
    SplitMix64::new(master.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Generates one fabric's seeded soak schedule over `topo`:
/// `events_per_fabric` events of mixed kinds, then a healing tail that
/// restores every downed link, clears every quarantine, and resyncs.
///
/// This is the scenario library's `baseline` mix
/// ([`tagger_scenario::schedule`]) — the generator lives there so
/// `.scn`-driven drills and the fleet soak draw from the same seeded
/// streams. Invariants (at most 2 links down, at most 1 quarantine,
/// exact healing tail) are the library's contract.
pub fn soak_schedule(topo: &Topology, seed: u64, events: usize) -> Vec<CtrlEvent> {
    let baseline = tagger_scenario::schedule::by_name("baseline")
        .expect("scenario schedule library always ships a baseline mix");
    tagger_scenario::schedule::events(baseline, topo, seed, events)
}

/// Fabric `index`'s seeded schedule. Event mixes cycle through the
/// scenario library by fabric index, so one drill exercises every shipped
/// storm profile (baseline, flap-storm, partition-prone, watchdog-churn)
/// across the fleet.
fn mixed_schedule(topo: &Topology, seed: u64, index: usize, events: usize) -> Vec<CtrlEvent> {
    let mixes = tagger_scenario::schedule::library();
    tagger_scenario::schedule::events(&mixes[index % mixes.len()], topo, seed, events)
}

/// A 2-bounce path on [`ClosConfig::small`] (bounces at T2 and T3):
/// outside the 1-bounce policy, so pinning it adds rules at three
/// switches and withdrawing it takes them out.
const DETOUR: &str = "H1 T1 L2 T2 L1 S1 L3 T3 L4 T4 H13";

/// Threads table-changing events through a schedule: after every flap
/// run, the next step of the cycle "pin [`DETOUR`], quarantine L1's port
/// 0, withdraw the detour, lift the quarantine". The cycle is finished
/// before the schedule's last event (its final resync), so the fabric
/// still ends healed. On a Clos a link event changes no table, so
/// without these events most epochs install nothing and the
/// southbound's chaos rarely fires.
fn churn(topo: &Topology, schedule: Vec<CtrlEvent>) -> Vec<CtrlEvent> {
    let cycle = parse_trace(
        topo,
        &format!("elp-add {DETOUR}\nwatchdog L1 0 2\nelp-remove {DETOUR}\nwatchdog-clear L1 0 2"),
    )
    .expect("the churn is valid on the small Clos");
    let Some((last, body)) = schedule.split_last() else {
        return schedule;
    };
    let mut steps = cycle.iter().cycle();
    let mut out = Vec::with_capacity(schedule.len() * 2);
    // Only between flap runs, so that every damping policy still sees
    // the mix's runs whole.
    for run in Damping::Flap.split(body) {
        out.extend_from_slice(&body[run]);
        out.extend(steps.next().cloned());
    }
    while (out.len() - body.len()) % cycle.len() != 0 {
        out.extend(steps.next().cloned());
    }
    out.push(last.clone());
    out
}

/// One fabric's mix from the scenario library — the one [`run_soak`]
/// feeds fabric `mix_index`, before [`churn`] — as
/// `<fabric>: <trace-line>` stream lines: what the network drills send.
pub fn fabric_lines(
    topo: &Topology,
    name: &str,
    seed: u64,
    mix_index: usize,
    events: usize,
) -> Vec<String> {
    mixed_schedule(topo, seed, mix_index, events)
        .iter()
        .map(|e| format!("{name}: {}", e.trace_line(topo)))
        .collect()
}

/// Replays stream lines through a solo in-process fleet rooted at `dir`
/// (default caps, fabrics registered from `template` on first mention,
/// one drain at the end) — the baseline the network drills compare
/// journals against, byte for byte.
pub fn solo_replay(dir: &Path, template: &FabricSpec, lines: &[String]) -> Result<(), FleetError> {
    let mut fleet = Fleet::new(FleetConfig::new(dir));
    for line in lines {
        fleet.ingest_stream_line(template, line)?;
    }
    fleet.drain_all().map(|_| ())
}

/// Runs the drill: registers `cfg.fabrics` fabrics (each with a derived
/// seed for both its event schedule and its chaos southbound),
/// interleaves all schedules through the bounded fair ingest front —
/// draining as it goes, exactly like the live daemon — then drains to
/// empty and grades every fabric.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakOutcome, FleetError> {
    let topo = ClosConfig::small().build();
    let mut fleet_cfg = FleetConfig::new(&cfg.dir);
    fleet_cfg.queue_cap = cfg.events_per_fabric + 16;
    let mut fleet = Fleet::new(fleet_cfg);

    // Distinct damping policies across the fleet: the drill should
    // exercise all of them, and per-fabric damping must not leak across
    // fabrics.
    let dampings = [Damping::Flap, Damping::FlapCapped(4), Damping::None];
    let mut schedules: Vec<(String, Vec<CtrlEvent>)> = Vec::with_capacity(cfg.fabrics);
    for i in 0..cfg.fabrics {
        let seed = fabric_seed(cfg.seed, i as u64);
        let name = format!("soak-{i}");
        let spec = FabricSpec::new(&name, topo.clone())
            .with_chaos(ChaosConfig::new(seed, cfg.fail_rate))
            .with_damping(dampings[i % dampings.len()]);
        fleet.register(spec)?;
        let schedule = mixed_schedule(&topo, seed, i, cfg.events_per_fabric);
        schedules.push((name, churn(&topo, schedule)));
    }

    // Interleave: each round feeds every fabric a small seeded slice of
    // its schedule, then runs one fair drain cycle — so fabrics make
    // progress while others are still ingesting, like the live daemon.
    let mut cursor = vec![0usize; schedules.len()];
    let mut mix = StdRng::seed_from_u64(cfg.seed ^ 0x50AC);
    let mut drain_cycles = 0u64;
    loop {
        let mut fed = false;
        for (i, (name, schedule)) in schedules.iter().enumerate() {
            let chunk = mix.random_range(1..4usize);
            for _ in 0..chunk {
                if cursor[i] < schedule.len() {
                    fleet.ingest(name, schedule[cursor[i]].clone())?;
                    cursor[i] += 1;
                    fed = true;
                }
            }
        }
        fleet.drain_cycle()?;
        drain_cycles += 1;
        if !fed {
            break;
        }
    }
    while fleet.drain_cycle()? > 0 {
        drain_cycles += 1;
    }

    let snapshot = fleet.snapshot();
    let fabrics = fleet
        .fabrics()
        .iter()
        .zip(&snapshot.fabrics)
        .map(|(fabric, status)| {
            let (recoverable, quarantine_consistent) = fabric.verify_recovery();
            FabricReadiness {
                status: status.clone(),
                certified: fabric.certify(),
                recoverable,
                quarantine_consistent,
            }
        })
        .collect();
    Ok(SoakOutcome {
        readiness: ReadinessReport {
            seed: cfg.seed,
            fail_rate: cfg.fail_rate,
            fabrics,
        },
        snapshot,
        drain_cycles,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tagger-soak-{}-{name}", std::process::id()))
    }

    #[test]
    fn schedules_are_seed_deterministic_and_healed() {
        let topo = ClosConfig::small().build();
        let a = soak_schedule(&topo, 7, 40);
        let b = soak_schedule(&topo, 7, 40);
        assert_eq!(a, b, "same seed must generate the same schedule");
        assert_ne!(a, soak_schedule(&topo, 8, 40));
        assert!(a.len() >= 40);
        assert_eq!(a.last(), Some(&CtrlEvent::Resync));
        // The tail heals: downs and ups balance, trips and clears balance.
        let mut down = std::collections::BTreeSet::new();
        let mut quarantine = std::collections::BTreeSet::new();
        for e in &a {
            match e {
                CtrlEvent::LinkDown(l) => {
                    down.insert(l.index());
                }
                CtrlEvent::LinkUp(l) => {
                    down.remove(&l.index());
                }
                trip @ CtrlEvent::WatchdogTrip { .. } => {
                    // Attribution redirects the quarantine; the heal
                    // balance is over effective targets.
                    let (switch, port, tag) = trip.effective_quarantine().unwrap();
                    quarantine.insert((switch.0, port.0, tag));
                }
                CtrlEvent::WatchdogClear { switch, port, tag } => {
                    quarantine.remove(&(switch.0, port.0, tag.0));
                }
                _ => {}
            }
        }
        assert!(down.is_empty(), "unhealed links: {down:?}");
        assert!(
            quarantine.is_empty(),
            "unhealed quarantines: {quarantine:?}"
        );
    }

    #[test]
    fn the_churn_moves_no_event_and_nets_out_before_the_final_resync() {
        let topo = ClosConfig::small().build();
        let plain = soak_schedule(&topo, 7, 40);
        let churned = churn(&topo, plain.clone());
        // The mix is a subsequence: the churn adds events and moves none.
        let mut rest = churned.iter();
        assert!(plain.iter().all(|e| rest.any(|c| c == e)));
        let added = churned.len() - plain.len();
        assert_eq!(added % 4, 0, "every cycle is finished");
        assert!(added >= 4);
        let count = |pick: fn(&CtrlEvent) -> bool| churned.iter().filter(|e| pick(e)).count();
        assert_eq!(
            count(|e| matches!(e, CtrlEvent::ElpAdd(_))),
            count(|e| matches!(e, CtrlEvent::ElpRemove(_)))
        );
        assert_eq!(churned.last(), Some(&CtrlEvent::Resync));
    }

    #[test]
    fn fabric_seeds_differ() {
        let seeds: std::collections::BTreeSet<u64> = (0..32).map(|i| fabric_seed(1, i)).collect();
        assert_eq!(seeds.len(), 32);
    }

    #[test]
    fn small_soak_certifies_every_fabric() {
        let dir = tmp("small");
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SoakConfig::new(&dir);
        cfg.fabrics = 3;
        cfg.events_per_fabric = 16;
        cfg.seed = 42;
        let outcome = run_soak(&cfg).unwrap();
        assert!(
            outcome.readiness.all_ready(),
            "{}",
            outcome.readiness.render()
        );
        assert_eq!(outcome.readiness.fabrics.len(), 3);
        // The churn's epochs install, so the chaos reaches every fabric.
        for fabric in &outcome.readiness.fabrics {
            assert!(fabric.status.faults_injected > 0, "{}", fabric.status.name);
        }
        assert!(outcome.snapshot.ctrl_rollup.epochs_committed > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
