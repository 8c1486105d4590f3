//! `ingest-storm`: the framed TCP ingest front under load. A
//! `net::Server` on loopback serves a small Clos template with flap
//! damping and a chaotic southbound; one client thread per core streams
//! its own fabrics' schedules, round-robin interleaved, in 192-line
//! `net::send_lines` calls until the clock runs out. The timed region
//! ends when `Server::shutdown` returns: everything drained, journaled
//! and committed.
//!
//! Clients go through `send_lines` only — never a private wire client —
//! so a change of wire protocol needs no change here.

use super::{derive_seed, overhead_share, recording, timed, Ctx, Outcome};
use crate::layers::{control_path_layers, parse_trace_us, wire_codec_ns, Shadow};
use crate::stats::{median, peak_rss_mb};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tagger::ctrl::{parse_trace, ChaosConfig, ElpPolicy};
use tagger::fleet::net::{chaos_for, send_lines, ClientConfig, ServeConfig, Server};
use tagger::fleet::{Damping, FabricSpec, Fleet, FleetConfig, FleetError};
use tagger::scenario::schedule;
use tagger::topo::{ClosConfig, Topology};

/// What the workload is built from.
pub struct IngestSizes {
    /// The topology template every fabric is an instance of.
    pub clos: ClosConfig,
    /// Client threads (the reference box has two cores).
    pub clients: usize,
    /// Fabrics each client streams, interleaved round-robin.
    pub fabrics_per_client: usize,
    /// Events generated per fabric; a client stops when its stream ends.
    pub events_per_fabric: usize,
    /// Lines per `send_lines` call — the unit latency is measured on.
    pub batch_lines: usize,
    /// Southbound install fault rate.
    pub fail_rate: f64,
    /// Events of one fabric re-executed on the shadow controller.
    pub shadow_events: usize,
    /// How many times set-up is performed (the median is reported).
    pub setups: usize,
}

/// The shipped instance: 16 fabrics over a 10-switch template.
pub const REFERENCE: IngestSizes = IngestSizes {
    clos: ClosConfig {
        pods: 2,
        leaves_per_pod: 2,
        tors_per_pod: 2,
        spines: 2,
        hosts_per_tor: 1,
    },
    clients: 2,
    fabrics_per_client: 8,
    events_per_fabric: 8000,
    batch_lines: 192,
    fail_rate: 0.25,
    shadow_events: 200,
    setups: 3,
};

fn fabric_name(client: usize, fabric: usize) -> String {
    format!("c{client}f{fabric}")
}

/// One stream of `<fabric>: <trace-line>` lines per client: each of the
/// client's fabrics draws its schedule from the scenario mix library in
/// rotation, and the schedules are interleaved round-robin.
pub fn client_streams(topo: &Topology, sizes: &IngestSizes, seed: u64) -> Vec<Vec<String>> {
    let mixes = schedule::library();
    (0..sizes.clients)
        .map(|c| {
            let fabrics: Vec<Vec<String>> = (0..sizes.fabrics_per_client)
                .map(|f| {
                    let index = c * sizes.fabrics_per_client + f;
                    let name = fabric_name(c, f);
                    schedule::events(
                        &mixes[index % mixes.len()],
                        topo,
                        derive_seed(seed, index as u64),
                        sizes.events_per_fabric,
                    )
                    .iter()
                    .map(|e| format!("{name}: {}", e.trace_line(topo)))
                    .collect()
                })
                .collect();
            let mut fabrics: Vec<_> = fabrics.into_iter().map(Vec::into_iter).collect();
            let mut stream = Vec::new();
            loop {
                let before = stream.len();
                for lines in &mut fabrics {
                    stream.extend(lines.next());
                }
                if stream.len() == before {
                    return stream;
                }
            }
        })
        .collect()
}

fn split_line(line: &str) -> Result<(&str, &str), String> {
    line.split_once(':')
        .map(|(fabric, rest)| (fabric.trim(), rest.trim()))
        .ok_or_else(|| format!("malformed stream line {line:?}"))
}

fn client_config(addr: &str, client: usize, seed: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(addr, client as u64 + 1);
    cfg.seed = derive_seed(seed ^ 0xC11E, client as u64);
    cfg.max_attempts = 128;
    cfg.max_reconnects = 64;
    cfg.reply_timeout = Duration::from_millis(300);
    cfg
}

struct Rig {
    topo: Topology,
    streams: Vec<Vec<String>>,
    server: Server,
    chaos: ChaosConfig,
    topo_build_ms: f64,
}

/// Builds the inputs, starts the server and sends each client's first
/// round (one line per fabric), which registers and bootstraps every
/// fabric before the clock starts.
fn setup(sizes: &IngestSizes, ctx: &Ctx, dir: &Path) -> Result<Rig, String> {
    let (topo, build_s) = timed(|| sizes.clos.build());
    let streams = client_streams(&topo, sizes, ctx.seed);
    let chaos = ChaosConfig::new(ctx.seed, sizes.fail_rate);
    let mut serve = ServeConfig::new(dir, topo.clone());
    serve.damping = Damping::Flap;
    serve.chaos = Some(chaos);
    let server = Server::start("127.0.0.1:0", serve).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    for (c, stream) in streams.iter().enumerate() {
        let warm = sizes.fabrics_per_client.min(stream.len());
        let report = send_lines(&client_config(&addr, c, ctx.seed), &stream[..warm])
            .map_err(|e| format!("warm-up client {c}: {e}"))?;
        if report.delivered != warm as u64 || !report.rejections.is_empty() {
            return Err(format!("warm-up client {c} was not fully delivered"));
        }
    }
    Ok(Rig {
        topo,
        streams,
        server,
        chaos,
        topo_build_ms: build_s * 1e3,
    })
}

#[derive(Default)]
struct ClientRun {
    /// Lines of the stream delivered (a prefix).
    delivered: usize,
    batch_ms: Vec<f64>,
    /// Index into `batch_ms` of the first batch recorded as a span.
    first_traced: Option<usize>,
    trace: Recorder,
    backpressure_hits: u64,
    resends: u64,
    reconnects: u64,
    failures: Vec<String>,
}

/// One client's closed loop: the next batch goes out when the previous
/// one has been acknowledged line by line.
fn client_loop(
    cfg: &ClientConfig,
    stream: &[String],
    from: usize,
    batch: usize,
    start: Instant,
    budget: Duration,
    traced: bool,
) -> ClientRun {
    let mut run = ClientRun {
        delivered: from,
        ..ClientRun::default()
    };
    while run.delivered < stream.len() && start.elapsed() < budget {
        if traced && !run.trace.enabled() && recording(start, budget) {
            run.trace.set_enabled(true);
            run.first_traced = Some(run.batch_ms.len());
        }
        let end = (run.delivered + batch).min(stream.len());
        let op = run.batch_ms.len() as u64;
        let t = Instant::now();
        let op_span = run.trace.open("op", None, op, false);
        // The client's sequence numbers are indexes into the stream, so
        // each call offers the whole prefix and the handshake skips what
        // already landed.
        let sent = run.trace.call("net.send_lines", Some(op_span), op, || {
            send_lines(cfg, &stream[..end])
        });
        run.trace.close(op_span);
        run.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match sent {
            Ok(report) => {
                run.backpressure_hits += report.backpressure_hits;
                run.resends += report.resends;
                run.reconnects += report.reconnects;
                if report.delivered != end as u64 || !report.rejections.is_empty() {
                    run.failures.push(format!(
                        "client {}: batch to line {end} delivered {} with {} rejection(s)",
                        cfg.client_id,
                        report.delivered,
                        report.rejections.len()
                    ));
                    break;
                }
                run.delivered = end;
            }
            Err(e) => {
                run.failures.push(format!("client {}: {e}", cfg.client_id));
                break;
            }
        }
    }
    run
}

/// Replays delivered lines through an in-process fleet configured like
/// the server's — the journal byte-equality baseline, and (with
/// `only == None`) the fleet's drain ceiling without sockets. The first
/// `warm` lines of each prefix are replayed before the clock starts, as
/// they were sent before the server's. Returns the fleet and the
/// seconds the timed part took.
fn replay_in_process(
    dir: &Path,
    topo: &Topology,
    chaos: &ChaosConfig,
    delivered: &[&[String]],
    warm: usize,
    only: Option<&str>,
    rec: &mut Recorder,
) -> Result<(Fleet, f64), String> {
    let mut fleet = Fleet::new(FleetConfig::new(dir));
    let ingest = |fleet: &mut Fleet, rec: &mut Recorder, line: &str, op: u64| {
        let (name, rest) = split_line(line)?;
        if only.is_some_and(|o| o != name) {
            return Ok(());
        }
        if fleet.fabric(name).is_err() {
            let spec = FabricSpec::new(name, topo.clone())
                .with_damping(Damping::Flap)
                .with_chaos(chaos_for(chaos, name));
            fleet.register(spec).map_err(|e| e.to_string())?;
        }
        loop {
            match rec.call("fleet.ingest_line", None, op, || {
                fleet.ingest_line(name, rest)
            }) {
                Ok(_) => return Ok(()),
                Err(FleetError::QueueFull { .. }) => {
                    fleet.drain_cycle_settled().map_err(|e| e.to_string())?;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    };
    for prefix in delivered {
        for line in &prefix[..warm.min(prefix.len())] {
            ingest(&mut fleet, rec, line, 0)?;
        }
    }
    let longest = delivered.iter().map(|p| p.len()).max().unwrap_or(0);
    let start = Instant::now();
    let mut since_drain = 0usize;
    for k in warm..longest {
        for prefix in delivered {
            if let Some(line) = prefix.get(k) {
                ingest(&mut fleet, rec, line, k as u64)?;
                since_drain += 1;
            }
        }
        // The server drains on a 2 ms tick; one settled cycle per
        // 64 lines keeps queues as short here.
        if since_drain >= 64 {
            since_drain = 0;
            rec.call("fleet.drain_cycle", None, k as u64, || {
                fleet.drain_cycle_settled()
            })
            .map_err(|e| e.to_string())?;
        }
    }
    fleet.drain_all().map_err(|e| e.to_string())?;
    Ok((fleet, start.elapsed().as_secs_f64()))
}

/// Runs the workload.
pub fn run(sizes: &IngestSizes, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let net_dir = ctx.dir.join("ingest-net");
    let mut rig = None;
    let mut topo_build_ms = Vec::new();
    for rep in 0..sizes.setups.max(1) {
        if let Some(Rig { server, .. }) = rig.take() {
            server.shutdown().map_err(|e| e.to_string())?;
        }
        std::fs::remove_dir_all(&net_dir).ok();
        let (built, secs) = timed(|| setup(sizes, ctx, &net_dir));
        let built = built.map_err(|e| format!("set-up {rep}: {e}"))?;
        out.setup_s.push(secs);
        topo_build_ms.push(built.topo_build_ms);
        rig = Some(built);
    }
    let Rig {
        topo,
        streams,
        server,
        chaos,
        ..
    } = rig.expect("at least one set-up ran");
    let warm = sizes.fabrics_per_client;
    let addr = server.addr().to_string();
    let budget = ctx.loop_budget();

    // Timed region: first send until shutdown has drained everything.
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let cfg = client_config(&addr, c, ctx.seed);
                let from = warm.min(stream.len());
                let (batch, traced) = (sizes.batch_lines.max(1), ctx.traced);
                s.spawn(move || client_loop(&cfg, stream, from, batch, start, budget, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let deliver_s = start.elapsed().as_secs_f64();
    let frames = server.stats().frames.load(Ordering::Relaxed);
    let (shutdown, drain_tail_s) = timed(|| server.shutdown());
    out.timed_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    let shutdown = shutdown.map_err(|e| format!("shutdown: {e}"))?;

    let delivered: Vec<&[String]> = streams
        .iter()
        .zip(&runs)
        .map(|(stream, run)| &stream[..run.delivered])
        .collect();
    out.work = delivered
        .iter()
        .map(|p| p.len().saturating_sub(warm))
        .sum::<usize>() as f64;

    // Correctness, outside the timed region.
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut backpressure_hits, mut resends, mut reconnects) = (0u64, 0u64, 0u64);
    for run in &runs {
        out.attempted += run.batch_ms.len() as u64;
        out.failures.extend(run.failures.iter().cloned());
        let split = run.first_traced.unwrap_or(run.batch_ms.len());
        untraced_ms.extend(&run.batch_ms[..split]);
        traced_ms.extend(&run.batch_ms[split..]);
        out.op_ms.extend(&run.batch_ms);
        backpressure_hits += run.backpressure_hits;
        resends += run.resends;
        reconnects += run.reconnects;
    }
    let mut offered: BTreeMap<&str, u64> = BTreeMap::new();
    for line in delivered.iter().flat_map(|p| p.iter()) {
        *offered.entry(split_line(line)?.0).or_default() += 1;
    }
    for (name, &lines) in &offered {
        let fabric = shutdown.fleet.fabric(name).map_err(|e| e.to_string())?;
        out.check(fabric.ingested() == lines, || {
            format!(
                "{name}: ingested {} of {lines} delivered lines",
                fabric.ingested()
            )
        });
        out.check(fabric.certify() && fabric.audit_violations() == 0, || {
            format!("{name}: not certified")
        });
    }
    // One seed-chosen fabric (all of them when traced) replayed solo:
    // the networked journal must be byte-identical.
    let names: Vec<&str> = offered.keys().copied().collect();
    let chosen = names[(derive_seed(ctx.seed, 0x5010) % names.len() as u64) as usize];
    let only = (!ctx.traced).then_some(chosen);
    let mut replay_trace = Recorder::default();
    replay_trace.set_enabled(ctx.traced);
    let solo_dir = ctx.dir.join("ingest-solo");
    let (solo, inproc_s) = replay_in_process(
        &solo_dir,
        &topo,
        &chaos,
        &delivered,
        warm,
        only,
        &mut replay_trace,
    )?;
    for fabric in solo.fabrics() {
        let networked = std::fs::read(net_dir.join(format!("{}.journal", fabric.name())));
        let replayed = std::fs::read(fabric.journal_path());
        out.check(
            matches!((&networked, &replayed), (Ok(a), Ok(b)) if !a.is_empty() && a == b),
            || format!("{}: journal differs from the solo replay", fabric.name()),
        );
    }

    if ctx.traced {
        for run in runs {
            out.trace.absorb(run.trace);
        }
        out.trace.absorb(replay_trace);

        // The chosen fabric's first events on a shadow controller.
        let mut shadow = Shadow::boot(
            &topo,
            ElpPolicy::with_bounces(1),
            &ctx.dir.join("ingest-shadow.journal"),
        )?;
        out.trace.set_enabled(true);
        let mut parse_sample = Vec::new();
        for line in delivered.iter().flat_map(|p| p.iter()) {
            let (name, rest) = split_line(line)?;
            if parse_sample.len() < 500 {
                parse_sample.push(rest);
            }
            if name == chosen && shadow.counts.len() < sizes.shadow_events {
                for event in parse_trace(&topo, rest).map_err(|e| e.to_string())? {
                    let op = shadow.counts.len() as u64;
                    let parent = out.trace.open("op.replay", None, op, true);
                    shadow.step(&mut out.trace, parent, op, &event)?;
                    out.trace.close(parent);
                }
            }
        }
        control_path_layers(&mut out, &shadow.counts);

        let rollup = &shutdown.report.ctrl_rollup;
        let stage_ms: Vec<f64> = shutdown
            .report
            .all_latencies_us()
            .iter()
            .map(|&us| us as f64 / 1e3)
            .collect();
        let codec_sample: Vec<String> = delivered
            .iter()
            .flat_map(|p| p.iter())
            .take(4096)
            .cloned()
            .collect();
        let (encode_ns, decode_ns) = wire_codec_ns(&codec_sample);
        let inproc_rate = if inproc_s > 0.0 {
            out.work / inproc_s
        } else {
            0.0
        };
        let tcp_rate = out.work / out.timed_s;
        let fabrics = shutdown.fleet.fabrics();
        let values = [
            ("topo.build_ms", median(&topo_build_ms)),
            ("core.delta_ops", median(&shadow.delta_ops)),
            ("ctrl.parse_trace_us", parse_trace_us(&topo, &parse_sample)),
            ("ctrl.stage_ms", median(&stage_ms)),
            (
                "ctrl.events_per_epoch",
                rollup.events as f64 / rollup.epochs_staged.max(1) as f64,
            ),
            ("ctrl.install_attempts", rollup.install_attempts as f64),
            ("ctrl.install_retries", rollup.install_retries as f64),
            ("ctrl.rollbacks", rollup.rollbacks as f64),
            (
                "fleet.ingest_line_us",
                out.trace.median_ms("fleet.ingest_line") * 1e3,
            ),
            (
                "fleet.drain_cycle_ms",
                out.trace.median_ms("fleet.drain_cycle"),
            ),
            (
                "fleet.queue_rejections",
                fabrics.iter().map(|f| f.queue_rejections()).sum::<u64>() as f64,
            ),
            (
                "fleet.commits",
                fabrics.iter().map(|f| f.commits()).sum::<u64>() as f64,
            ),
            ("fleet.inproc_events_per_s", inproc_rate),
            ("net.encode_ns", encode_ns),
            ("net.decode_ns", decode_ns),
            ("net.deliver_s", deliver_s),
            ("net.drain_tail_s", drain_tail_s),
            ("net.frames", frames as f64),
            ("net.backpressure_hits", backpressure_hits as f64),
            ("net.resends", resends as f64),
            ("net.reconnects", reconnects as f64),
            (
                "net.front_share",
                if inproc_rate > 0.0 {
                    1.0 - tcp_rate / inproc_rate
                } else {
                    0.0
                },
            ),
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
    std::fs::remove_dir_all(&solo_dir).ok();
    Ok(out)
}
