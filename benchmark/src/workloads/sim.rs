//! `sim-incast` and `sim-permutation`: the discrete-event simulator on a
//! generated `.scn`, timing-wheel queue, one full `Experiment::run` per
//! operation. The same fabric family and code carry both; incast keeps
//! every congested hop in PAUSE/RESUME churn, permutation almost never
//! pauses, so per-packet forwarding cost dominates there.
//!
//! The simulator is split only at `parse / instantiate / run / evaluate`;
//! cost per event type needs spans inside the program.

use super::{derive_seed, overhead_share, recording, timed, Ctx, Outcome};
use crate::stats::{fnv48, peak_rss_mb};
use crate::trace::Recorder;
use std::hint::black_box;
use std::time::Instant;
use tagger::core::Tag;
use tagger::fleet::net::chaos::SplitMix64;
use tagger::routing::Fib;
use tagger::scenario::{
    clos_for_hosts, evaluate, instantiate, parse, points, PointMetrics, RunOptions,
};
use tagger::sim::queue::TimingWheel;
use tagger::switch::{Packet, PacketId, PfcFrame, SwitchConfig, SwitchState, TransitionMode};
use tagger::topo::{FailureSet, NodeId, PortId};

/// The traffic a scenario offers.
pub enum Traffic {
    /// `targets` incasts of `fan_in` senders each, one target drawn from
    /// each `hosts / targets` slice of the host range.
    Incast {
        /// Senders per target.
        fan_in: usize,
        /// Incast targets.
        targets: usize,
    },
    /// Every host sends to one other host (a seeded derangement).
    Permutation,
}

/// What the workload is built from.
pub struct SimSizes {
    /// Hosts of the 2-pod Clos (`topo clos hosts N`).
    pub hosts: usize,
    /// What the hosts send.
    pub traffic: Traffic,
    /// Simulated duration, in `.scn` time syntax.
    pub end: &'static str,
}

/// `sim-incast` as shipped: about 1.07 M events and 2,200 PAUSEs a run.
pub const INCAST: SimSizes = SimSizes {
    hosts: 256,
    traffic: Traffic::Incast {
        fan_in: 64,
        targets: 4,
    },
    end: "8ms",
};

/// `sim-permutation` as shipped: about 0.56 M events a run.
pub const PERMUTATION: SimSizes = SimSizes {
    hosts: 512,
    traffic: Traffic::Permutation,
    end: "200us",
};

/// Lossless queues the scenario's 1-bounce tagging uses.
const LOSSLESS_QUEUES: u8 = 2;
/// Wire size of the simulator's packets, bytes.
const PACKET_BYTES: u32 = 1_000;

/// The generated scenario text.
pub fn scenario_text(sizes: &SimSizes, seed: u64) -> String {
    let mut text = format!(
        "scenario tagger-perf\ntopo clos hosts {}\ntagger bounces {}\n",
        sizes.hosts,
        LOSSLESS_QUEUES - 1
    );
    match sizes.traffic {
        Traffic::Incast { fan_in, targets } => {
            let mut rng = SplitMix64::new(derive_seed(seed, 0x1CA5));
            let slice = (sizes.hosts / targets.max(1)).max(1);
            for t in 0..targets {
                let host = 1 + t * slice + rng.next_below(slice as u64) as usize;
                text.push_str(&format!("workload incast {fan_in} H{host}\n"));
            }
        }
        Traffic::Permutation => text.push_str("workload permutation\n"),
    }
    text.push_str(&format!(
        "end {}\nassert no-deadlock\nassert lossless-drops == 0\n",
        sizes.end
    ));
    text
}

/// `TimingWheel` push or pop, ns, at the deltas the simulator schedules
/// with: serialisation of one packet at 40 Gb/s, propagation, and the
/// PFC reaction delay.
fn wheel_ns_per_op() -> f64 {
    const DELTAS: [u64; 3] = [200, 500, 3_000];
    const PENDING: u32 = 4_096;
    const ROUNDS: usize = 2_000_000;
    let mut wheel: TimingWheel<u32> = TimingWheel::default();
    for i in 0..PENDING {
        wheel.push(u64::from(i) * 2, i);
    }
    let t = Instant::now();
    for i in 0..ROUNDS {
        let (at, item) = wheel.pop().expect("the wheel never drains");
        wheel.push(at + DELTAS[i % DELTAS.len()], black_box(item));
    }
    let ns = t.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64;
    black_box(wheel.len());
    ns
}

fn probe_switch(ports: usize) -> SwitchState {
    // The scenario library's testbed thresholds.
    let cfg = SwitchConfig {
        num_lossless: LOSSLESS_QUEUES,
        buffer_bytes: 12 * 1024 * 1024,
        xoff_bytes: 40_000,
        xon_bytes: 4_000,
        lossy_queue_bytes: 200_000,
        ecn_threshold_bytes: None,
    };
    SwitchState::new(NodeId(0), ports, cfg)
}

fn probe_packet(id: u64, tag: Tag) -> Packet {
    let mut packet = Packet::new(PacketId(id), 0, NodeId(1), PACKET_BYTES);
    packet.tag = Some(tag);
    packet
}

/// `(admit, dequeue, on_pfc)` ns per call on one `SwitchState` with the
/// workload's port count, packet size and tag count.
fn switch_ns(ports: usize) -> (f64, f64, f64) {
    const BURST: usize = 32; // 32 KB per ingress: under the 40 KB Xoff
    const ROUNDS: usize = 20_000;
    let ports = ports.max(2);
    let out_port = PortId((ports - 1) as u16);
    let mode = TransitionMode::EgressByNewTag;

    let mut sw = probe_switch(ports);
    let (mut admit, mut dequeue) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let mut id = 0u64;
    for round in 0..ROUNDS {
        let in_port = PortId((round % (ports - 1)) as u16);
        let tag = Tag(1 + (round % LOSSLESS_QUEUES as usize) as u16);
        let t = Instant::now();
        for _ in 0..BURST {
            id += 1;
            black_box(sw.admit(in_port, out_port, Some(tag), probe_packet(id, tag), mode));
        }
        admit += t.elapsed();
        let t = Instant::now();
        for _ in 0..BURST {
            black_box(sw.dequeue(out_port));
        }
        dequeue += t.elapsed();
    }
    let calls = (ROUNDS * BURST) as f64;

    // Frames a downstream switch emits while one ingress queue climbs
    // through Xoff and falls back through Xon...
    let mut down = probe_switch(ports);
    let mut frames: Vec<(PortId, PfcFrame)> = Vec::new();
    let over_xoff = 40_000 / PACKET_BYTES as usize + 2;
    for round in 0..2_048 {
        let in_port = PortId((round % (ports - 1)) as u16);
        let tag = Tag(1 + (round % LOSSLESS_QUEUES as usize) as u16);
        for _ in 0..over_xoff {
            id += 1;
            down.admit(in_port, out_port, Some(tag), probe_packet(id, tag), mode);
        }
        while down.dequeue(out_port).is_some() {}
        frames.extend(down.take_emitted_pfc());
    }
    // ...delivered to the upstream switch that must gate on them.
    let mut up = probe_switch(ports);
    let repeats = 64;
    let t = Instant::now();
    for r in 0..repeats {
        for (i, &(port, frame)) in frames.iter().enumerate() {
            up.on_pfc(port, black_box(frame), (r * frames.len() + i) as u64);
        }
    }
    let on_pfc = t.elapsed().as_nanos() as f64 / (repeats * frames.len().max(1)) as f64;
    black_box(up.is_tx_paused(PortId(0), 0));
    (
        admit.as_nanos() as f64 / calls,
        dequeue.as_nanos() as f64 / calls,
        on_pfc,
    )
}

/// What one simulated scenario yielded.
struct OneRun {
    setup_s: f64,
    run_ms: f64,
    metrics: PointMetrics,
    failed_asserts: Vec<String>,
}

/// Generates, instantiates, runs and grades the scenario of `seed`.
/// Every run needs a fresh experiment, so set-up (parse + instantiate:
/// topology, Clos tagging, FIB, flows) is paid and sampled once per
/// operation.
fn one_run(rec: &mut Recorder, sizes: &SimSizes, seed: u64, op: u64) -> Result<OneRun, String> {
    let text = scenario_text(sizes, seed);
    let opts = RunOptions {
        seed: Some(seed),
        ..RunOptions::default()
    };
    let (prepared, setup_s) = timed(|| -> Result<_, String> {
        let scenario = rec
            .call("scenario.parse", None, op, || parse(&text))
            .map_err(|e| format!("generated scenario does not parse: {e:?}"))?;
        let point = points(&scenario).swap_remove(0);
        let experiment = rec
            .call("scenario.instantiate", None, op, || {
                instantiate(&scenario, &point, &opts)
            })
            .map_err(|e| e.to_string())?;
        Ok((scenario, point, experiment))
    });
    let (scenario, point, experiment) = prepared?;

    let t = Instant::now();
    let span = rec.open("op", None, op, false);
    let (report, _labels) = rec.call("sim.run", Some(span), op, || experiment.run());
    rec.close(span);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;

    let asserts = rec.call("scenario.evaluate", None, op, || {
        evaluate(&scenario, &point, &report)
    });
    Ok(OneRun {
        setup_s,
        run_ms,
        metrics: PointMetrics::from_report(&report),
        failed_asserts: asserts
            .into_iter()
            .filter(|a| !a.pass)
            .map(|a| a.label)
            .collect(),
    })
}

/// Runs the workload. Operation `i` simulates the scenario generated
/// from the `i`-th seed derived from `--seed`, so a run's latencies are
/// drawn from the whole input family (incast targets, permutations) and
/// not from one member of it.
pub fn run(sizes: &SimSizes, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let budget = ctx.loop_budget();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut reference: Option<PointMetrics> = None;
    let mut events = 0u64;
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed() < budget {
        if ctx.traced {
            out.trace.set_enabled(recording(start, budget));
        }
        let ran = one_run(&mut out.trace, sizes, derive_seed(ctx.seed, op), op)?;
        out.setup_s.push(ran.setup_s);
        out.op_ms.push(ran.run_ms);
        if out.trace.enabled() {
            traced_ms.push(ran.run_ms);
        } else {
            untraced_ms.push(ran.run_ms);
        }
        events += ran.metrics.events_processed;
        out.check(ran.failed_asserts.is_empty(), || {
            format!("run {op}: failed asserts {:?}", ran.failed_asserts)
        });
        reference.get_or_insert(ran.metrics);
        op += 1;
    }
    out.timed_s = out.op_ms.iter().sum::<f64>() / 1e3;
    out.work = events as f64;
    out.peak_rss_mb = peak_rss_mb();

    // The simulator is deterministic: the first scenario, run again,
    // must reproduce every statistic.
    out.trace.set_enabled(false);
    let again = one_run(&mut out.trace, sizes, derive_seed(ctx.seed, 0), 0)?;
    out.check(Some(&again.metrics) == reference.as_ref(), || {
        "the first scenario did not repeat its statistics".into()
    });

    if ctx.traced {
        let reference = reference.expect("at least one run");
        let rec: &mut Recorder = &mut out.trace;
        rec.set_enabled(true);
        let mut ports = 2;
        for i in 0..5 {
            let topo = rec.call("topo.build", None, i, || {
                clos_for_hosts(sizes.hosts as u64).build()
            });
            ports = topo
                .switch_ids()
                .map(|s| topo.node(s).num_ports())
                .max()
                .unwrap_or(2);
            black_box(rec.call("routing.fib_build", None, i, || {
                Fib::shortest_path(&topo, &FailureSet::none())
            }));
        }
        let (admit_ns, dequeue_ns, on_pfc_ns) = switch_ns(ports);
        let run_s = out.trace.median_ms("sim.run") / 1e3;
        let per_run = reference.events_processed as f64;
        let ns_per_event = if events > 0 {
            out.timed_s * 1e9 / events as f64
        } else {
            0.0
        };
        let values = [
            ("topo.build_ms", out.trace.median_ms("topo.build")),
            (
                "routing.fib_build_ms",
                out.trace.median_ms("routing.fib_build"),
            ),
            (
                "scenario.parse_us",
                out.trace.median_ms("scenario.parse") * 1e3,
            ),
            (
                "scenario.instantiate_ms",
                out.trace.median_ms("scenario.instantiate"),
            ),
            (
                "scenario.evaluate_us",
                out.trace.median_ms("scenario.evaluate") * 1e3,
            ),
            ("sim.run_s", run_s),
            ("sim.events", per_run),
            ("sim.ns_per_event", ns_per_event),
            ("sim.pauses_sent", reference.pauses_sent as f64),
            ("sim.delivered_bytes", reference.delivered_bytes as f64),
            ("sim.wheel_ns_per_op", wheel_ns_per_op()),
            (
                "sim.stats_digest",
                fnv48(format!("{reference:?}").as_bytes()) as f64,
            ),
            ("switch.admit_ns", admit_ns),
            ("switch.dequeue_ns", dequeue_ns),
            ("switch.on_pfc_ns", on_pfc_ns),
            (
                "trace.overhead_share",
                overhead_share(&untraced_ms, &traced_ms),
            ),
            (
                "trace.unaccounted_share",
                out.trace.unaccounted_share("op", &[]),
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

    const TINY_INCAST: SimSizes = SimSizes {
        hosts: 16,
        traffic: Traffic::Incast {
            fan_in: 3,
            targets: 2,
        },
        end: "200us",
    };
    const TINY_PERMUTATION: SimSizes = SimSizes {
        hosts: 16,
        traffic: Traffic::Permutation,
        end: "100us",
    };

    #[test]
    fn the_same_seed_gives_the_same_scenario_and_another_seed_another() {
        assert_eq!(scenario_text(&INCAST, 1), scenario_text(&INCAST, 1));
        assert_ne!(scenario_text(&INCAST, 1), scenario_text(&INCAST, 2));
        let text = scenario_text(&INCAST, 1);
        assert_eq!(text.matches("workload incast 64 H").count(), 4);
        assert!(parse(&text).is_ok());
        assert!(parse(&scenario_text(&PERMUTATION, 1)).is_ok());
    }

    #[test]
    fn tiny_instances_run_clean_in_both_modes() {
        for sizes in [&TINY_INCAST, &TINY_PERMUTATION] {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 9,
                    seconds: 0.1,
                    traced,
                    dir: std::env::temp_dir(),
                };
                let out = run(sizes, &ctx).unwrap();
                assert!(out.failures.is_empty(), "{:?}", out.failures);
                assert!(out.work > 0.0 && out.timed_s > 0.0);
                assert_eq!(out.attempted, out.op_ms.len() as u64 + 1);
                if traced {
                    assert!(out.layers["sim.events"] > 0.0);
                    assert!(out.layers["sim.stats_digest"] > 0.0);
                    assert!(out.layers["switch.on_pfc_ns"] > 0.0);
                    assert!(out.layers["sim.wheel_ns_per_op"] > 0.0);
                }
            }
        }
    }
}
