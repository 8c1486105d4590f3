//! `epoch-clos-b1`: the paper's failure-reaction path. One fabric is
//! driven in-process through `Fleet::ingest` + `Fleet::drain_cycle`
//! (journal, reliable southbound, audit bridge, no damping), one link
//! event in flight at a time: seeded switch–switch links each taken
//! down, then up.

use super::{derive_seed, overhead_share, recording, timed, Ctx, Outcome};
use crate::layers::{control_path_layers, parse_trace_us, Shadow};
use crate::stats::{fnv48, median, peak_rss_mb};
use crate::trace::{Recorder, SpanId};
use std::time::Instant;
use tagger::ctrl::{CtrlEvent, ElpPolicy};
use tagger::fleet::net::chaos::SplitMix64;
use tagger::fleet::{Damping, FabricSpec, Fleet, FleetConfig};
use tagger::topo::{ClosConfig, LinkId, NodeKind, Topology};

/// What the workload is built from.
pub struct EpochSizes {
    /// The fabric.
    pub clos: ClosConfig,
    /// Bounces the ELP policy allows (uncapped).
    pub bounces: usize,
    /// Untimed down/up pairs run before the timed region.
    pub warmup_pairs: usize,
    /// Down/up pairs generated; the timed loop stops when they run out.
    pub pairs: usize,
    /// How many times set-up is performed (the median is reported).
    pub setups: usize,
}

/// The shipped instance: 22 switches, 1-bounce, 83,832 ELP paths.
pub const REFERENCE: EpochSizes = EpochSizes {
    clos: ClosConfig {
        pods: 3,
        leaves_per_pod: 2,
        tors_per_pod: 4,
        spines: 4,
        hosts_per_tor: 1,
    },
    bounces: 1,
    warmup_pairs: 1,
    pairs: 2048,
    setups: 3,
};

const FABRIC: &str = "clos";

/// The seeded schedule: `pairs` switch–switch links, each `down` then
/// `up`, so the fabric is healthy again after every second event.
pub fn link_flaps(topo: &Topology, seed: u64, pairs: usize) -> Vec<CtrlEvent> {
    let is_switch = |n| topo.node(n).kind == NodeKind::Switch;
    let trunks: Vec<LinkId> = topo
        .link_ids()
        .filter(|&l| is_switch(topo.link(l).a.node) && is_switch(topo.link(l).b.node))
        .collect();
    let mut rng = SplitMix64::new(derive_seed(seed, 0xE9_0C));
    (0..pairs)
        .flat_map(|_| {
            let link = trunks[rng.next_below(trunks.len() as u64) as usize];
            [CtrlEvent::LinkDown(link), CtrlEvent::LinkUp(link)]
        })
        .collect()
}

struct Rig {
    topo: Topology,
    fleet: Fleet,
    events: Vec<CtrlEvent>,
    epoch0_tables: String,
    topo_build_ms: f64,
}

fn tables(fleet: &Fleet, topo: &Topology) -> Result<String, String> {
    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    Ok(fabric.controller().committed().rules.to_table_text(topo))
}

/// What one event's round trip measured.
struct EventRun {
    ms: f64,
    /// The `fleet.drain_cycle` span, under which replays are hung.
    drain_span: SpanId,
    /// True when the event committed with no rollback and a clean audit.
    committed: bool,
}

/// One operation: the event is ingested, then one drain cycle journals,
/// stages, installs, commits and audits it.
fn one_event(
    fleet: &mut Fleet,
    rec: &mut Recorder,
    event: &CtrlEvent,
    op: u64,
) -> Result<EventRun, String> {
    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    let before = (fabric.commits(), fabric.rollbacks());

    let t = Instant::now();
    let op_span = rec.open("op", None, op, false);
    let ingested = rec.call("fleet.ingest", Some(op_span), op, || {
        fleet.ingest(FABRIC, event.clone())
    });
    let drain_span = rec.open("fleet.drain_cycle", Some(op_span), op, false);
    let drained = fleet.drain_cycle();
    rec.close(drain_span);
    rec.close(op_span);
    let ms = t.elapsed().as_secs_f64() * 1e3;

    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    Ok(EventRun {
        ms,
        drain_span,
        committed: ingested.is_ok()
            && matches!(drained, Ok(1))
            && fabric.commits() == before.0 + 1
            && fabric.rollbacks() == before.1
            && fabric.audit_violations() == 0,
    })
}

fn setup(sizes: &EpochSizes, ctx: &Ctx, rep: usize) -> Result<Rig, String> {
    let (topo, build_s) = timed(|| sizes.clos.build());
    let events = link_flaps(&topo, ctx.seed, sizes.pairs);
    let mut fleet = Fleet::new(FleetConfig::new(ctx.dir.join(format!("epoch-{rep}"))));
    let mut spec = FabricSpec::new(FABRIC, topo.clone()).with_damping(Damping::None);
    spec.policy = ElpPolicy::with_bounces(sizes.bounces);
    fleet.register(spec).map_err(|e| e.to_string())?;
    let epoch0_tables = tables(&fleet, &topo)?;
    let mut untraced = Recorder::default();
    for event in &events[..sizes.warmup_pairs * 2] {
        if !one_event(&mut fleet, &mut untraced, event, 0)?.committed {
            return Err("a warm-up event did not commit".into());
        }
    }
    Ok(Rig {
        topo,
        fleet,
        events,
        epoch0_tables,
        topo_build_ms: build_s * 1e3,
    })
}

/// Runs the workload.
pub fn run(sizes: &EpochSizes, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rig = None;
    let mut topo_build_ms = Vec::new();
    for rep in 0..sizes.setups.max(1) {
        let (built, secs) = timed(|| setup(sizes, ctx, rep));
        let built = built?;
        out.setup_s.push(secs);
        topo_build_ms.push(built.topo_build_ms);
        rig = Some(built);
    }
    let Rig {
        topo,
        mut fleet,
        events,
        epoch0_tables,
        ..
    } = rig.expect("at least one set-up ran");

    // Timed region: closed loop, one event in flight, whole pairs only.
    let first = sizes.warmup_pairs * 2;
    let budget = ctx.loop_budget();
    let mut traced_ops: Vec<(usize, SpanId)> = Vec::new(); // (event index, drain span)
    let mut first_traced_sample = None;
    let start = Instant::now();
    let mut next = first;
    while next < events.len() && (start.elapsed() < budget || (next - first) % 2 == 1) {
        let event = &events[next];
        // Recording may only switch on at a pair boundary: the shadow
        // that replays traced operations starts from a healthy fabric.
        if ctx.traced && !out.trace.enabled() && (next - first).is_multiple_of(2) {
            out.trace.set_enabled(recording(start, budget));
        }
        if out.trace.enabled() && first_traced_sample.is_none() {
            first_traced_sample = Some(out.op_ms.len());
        }
        let ran = one_event(&mut fleet, &mut out.trace, event, next as u64)?;
        out.op_ms.push(ran.ms);
        out.check(ran.committed, || {
            format!(
                "event {next} ({}) did not commit and audit cleanly",
                event.label()
            )
        });
        if out.trace.enabled() {
            traced_ops.push((next, ran.drain_span));
        }
        next += 1;
    }
    out.timed_s = out.op_ms.iter().sum::<f64>() / 1e3;
    out.work = out.op_ms.len() as f64;
    out.peak_rss_mb = peak_rss_mb();

    // Correctness, outside the timed region.
    let final_tables = tables(&fleet, &topo)?;
    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    out.check(fabric.certify(), || {
        "the final fabric failed certify()".into()
    });
    out.check(fabric.verify_recovery() == (true, true), || {
        "the journal does not recover to the live fabric".into()
    });
    out.check(final_tables == epoch0_tables, || {
        "tables after the last `up` differ from epoch 0".into()
    });

    if ctx.traced {
        let metrics = fabric.controller().metrics().clone();
        let stage_ms: Vec<f64> = fabric
            .epoch_latencies_us()
            .iter()
            .skip(first)
            .map(|&us| us as f64 / 1e3)
            .collect();
        let (rejections, commits) = (fabric.queue_rejections(), fabric.commits());

        // Re-execute the traced operations on a shadow controller for as
        // long as the probe budget lasts, whole pairs only.
        let probe = Instant::now();
        let mut shadow = Shadow::boot(
            &topo,
            ElpPolicy::with_bounces(sizes.bounces),
            &ctx.dir.join("epoch-shadow.journal"),
        )?;
        for pair in traced_ops.chunks_exact(2) {
            for &(index, drain_span) in pair {
                shadow.step(&mut out.trace, drain_span, index as u64, &events[index])?;
            }
            if probe.elapsed() >= ctx.probe_budget() {
                break;
            }
        }

        control_path_layers(&mut out, &shadow.counts);
        let lines: Vec<String> = events[first..next.min(first + 200)]
            .iter()
            .map(|e| e.trace_line(&topo))
            .collect();
        let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let split = first_traced_sample.unwrap_or(out.op_ms.len());
        let values = [
            ("topo.build_ms", median(&topo_build_ms)),
            ("core.delta_ops", median(&shadow.delta_ops)),
            ("core.rules_digest", fnv48(final_tables.as_bytes()) as f64),
            ("ctrl.parse_trace_us", parse_trace_us(&topo, &line_refs)),
            ("ctrl.stage_ms", median(&stage_ms)),
            (
                "ctrl.events_per_epoch",
                metrics.events as f64 / metrics.epochs_staged.max(1) as f64,
            ),
            ("ctrl.install_attempts", metrics.install_attempts as f64),
            ("ctrl.install_retries", metrics.install_retries as f64),
            ("ctrl.rollbacks", metrics.rollbacks as f64),
            (
                "fleet.ingest_line_us",
                out.trace.median_ms("fleet.ingest") * 1e3,
            ),
            (
                "fleet.drain_cycle_ms",
                out.trace.median_ms("fleet.drain_cycle"),
            ),
            ("fleet.queue_rejections", rejections as f64),
            ("fleet.commits", commits as f64),
            ("fleet.inproc_events_per_s", out.work / out.timed_s),
            (
                "trace.overhead_share",
                overhead_share(&out.op_ms[..split], &out.op_ms[split..]),
            ),
            (
                "trace.unaccounted_share",
                out.trace.unaccounted_share("op", &["core.from_elp"]),
            ),
        ];
        for (name, value) in values {
            out.layer(name, value);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: EpochSizes = EpochSizes {
        clos: ClosConfig {
            pods: 2,
            leaves_per_pod: 2,
            tors_per_pod: 2,
            spines: 2,
            hosts_per_tor: 1,
        },
        bounces: 1,
        warmup_pairs: 1,
        pairs: 400,
        setups: 2,
    };

    fn lines(seed: u64) -> Vec<String> {
        let topo = TINY.clos.build();
        link_flaps(&topo, seed, 16)
            .iter()
            .map(|e| e.trace_line(&topo))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_another_seed_another() {
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
        // Every pair is one link down, then the same link up.
        for pair in lines(1).chunks(2) {
            assert_eq!(pair[0].replacen("down", "up", 1), pair[1]);
        }
    }

    #[test]
    fn a_tiny_instance_runs_clean_in_both_modes() {
        for traced in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("tagger-perf-epoch-{}-{traced}", std::process::id()));
            let ctx = Ctx {
                seed: 3,
                seconds: 0.2,
                traced,
                dir: dir.clone(),
            };
            let out = run(&TINY, &ctx).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            assert_eq!(out.setup_s.len(), 2);
            assert!(out.op_ms.len() >= 2 && out.op_ms.len().is_multiple_of(2));
            assert_eq!(out.attempted, out.op_ms.len() as u64 + 3);
            if traced {
                assert!(out.layers["core.alg1_ms"] > 0.0);
                assert!(out.layers["routing.elp_paths"] > 0.0);
                assert_eq!(out.layers["ctrl.events_per_epoch"], 1.0);
                assert!(out.trace.spans().iter().any(|s| s.replayed));
            } else {
                assert!(out.trace.spans().is_empty());
            }
        }
    }
}
