//! `tagger-fleetd` — the multi-fabric control-plane daemon.
//!
//! Hosts N independent Tagger fabrics in one process, each with its own
//! controller, write-ahead journal, (optionally chaotic) southbound and
//! independent audit loop, behind a bounded fair ingest front: events
//! arrive interleaved across fabrics, are batched per fabric by that
//! fabric's damping policy (never across fabrics), and drain in
//! round-robin with a bounded per-fabric quantum so one flapping fabric
//! cannot starve the rest.
//!
//! ```text
//! tagger-fleetd replay [trace-file] [--topo SPEC] [--bounces K] [--tcam-budget N]
//!                      [--chaos seed=N,fail_rate=P[,timeout_rate=P][,partial_rate=P]]
//!                      [--journal PATH] [--checkpoint-every N]
//!                      [--export-checkpoint PATH] [--verbose]
//! tagger-fleetd ingest [stream-file] [--damping SPEC]
//!                      [--chaos seed=N,fail_rate=P,...] [--dir PATH]
//!                      [--quantum N] [--queue-cap N] [--json]
//! tagger-fleetd serve  [--addr HOST:PORT] [--damping SPEC]
//!                      [--chaos seed=N,fail_rate=P,...] [--dir PATH]
//!                      [--quantum N] [--queue-cap N] [--budget N] [--json]
//! tagger-fleetd send   [stream-file] --addr HOST:PORT [--client N] [--seed S]
//!                      [--attempts N] [--reconnects N] [--json]
//! ```
//!
//! **replay** runs one control-plane event trace (file or stdin; see
//! `examples/reroute.trace` for the format) through a one-fabric fleet
//! on the fabric `--topo` names (a [`tagger::topo::TopoSpec`], default
//! `clos small`; the controller's ELP is up-down with bounces, so a
//! fabric with a switch outside the layers is refused), and prints, per epoch, what a real deployment
//! would ship to switches: per-switch rule deltas, their cost against a
//! full-table reinstall, and the verification verdict; then the fleet
//! report. Installs go through a reliable southbound, or the seeded
//! fault-injecting one with `--chaos` (its seed used as given). Every
//! event is journaled write-ahead to `--journal` (default: a file under
//! the temp directory, removed on exit), with a checkpoint every
//! `--checkpoint-every` outcomes (default 4), and every commit is
//! audited. `--export-checkpoint PATH` writes the final committed
//! tables as a `tagger-audit` checkpoint. Exits non-zero if any epoch
//! fails verification, the audit finds a violation, the switches
//! diverge from the committed tables, or a single-link commit's deltas
//! do not beat a full reinstall.
//!
//! **ingest** replays an interleaved multi-fabric event stream. Each
//! line is `<fabric>: <trace-line>` in the trace syntax `replay` reads
//! (`down L1 T1`, `flap L2 S1 3`, `watchdog L1 2 2`, `resync`, ...);
//! fabrics are registered on first mention (small Clos, `--damping`
//! policy, `--chaos` schedule re-seeded per fabric *name*, exactly as
//! `serve` does, so one stream means one set of fault schedules
//! whichever front carried it). Lines are
//! enqueued as they arrive and drained fairly every few lines, exactly
//! like the live daemon. A full queue is backpressure, not an error:
//! the replay drains a fair cycle and retries the line, and the
//! `pushback` column of the final report counts every
//! rejected-then-retried event. With no stream file, reads stdin.
//! Prints the fleet status (and `--json` snapshot) at end of stream;
//! exits non-zero if any fabric diverged or failed audit.
//!
//! **serve** is the same replay over a real socket (DESIGN §15): a
//! framed TCP front with per-client sequence dedupe, `Backpressure`
//! replies instead of drops, and a graceful drain-then-close shutdown.
//! Clients are `send` (or anything speaking the §15 frame format). The
//! daemon runs until stdin reaches EOF — `ctrl-D`, or the harness
//! closing the pipe — then drains every queue and journal and prints the
//! final fleet report.
//!
//! **send** is the network ingest client: it delivers an interleaved
//! stream (file or stdin) to a running `serve` with strict in-order
//! delivery, seeded backoff + jitter on `Backpressure`, bounded
//! reconnects, and exactly-once at the fabric queue via the per-client
//! sequence handshake. Prints a one-line delivery summary (and, with
//! `--json`, the byte-stable delivery report: outcome fields only, no
//! timing-dependent counters). Exits non-zero if any line was
//! permanently rejected.
//!
//! Journals land under `--dir` (default: a per-process temp directory),
//! one file per fabric; registering two fabrics whose journals would
//! collide is refused. A positional argument a subcommand does not take
//! is refused like an unknown flag.

use std::io::BufRead;
use std::process::ExitCode;

use tagger::audit::checkpoint;
use tagger::cli::{controller_topo, get, get_opt, parse_args, read_input, Flags};
use tagger::ctrl::{parse_trace, ChaosConfig, CtrlEvent, ElpPolicy, EpochOutcome};
use tagger::fleet::net::{send_lines, ClientConfig, ServeConfig, Server};
use tagger::fleet::{Damping, FabricSpec, Fleet, FleetConfig, FleetError};
use tagger::topo::{ClosConfig, Topology};

const USAGE: &str = "usage: tagger-fleetd <replay|ingest|serve|send> [options]
  replay [trace-file] --topo SPEC --bounces K --tcam-budget N --chaos SPEC --journal PATH
         --checkpoint-every N --export-checkpoint PATH [--verbose]
  ingest [stream-file] --damping none|flap|flap:N --chaos SPEC
         --dir PATH --quantum N --queue-cap N [--json]
  serve  --addr HOST:PORT --damping none|flap|flap:N --chaos SPEC
         --dir PATH --quantum N --queue-cap N --budget N [--json]
  send   [stream-file] --addr HOST:PORT --client N --seed S
         --attempts N --reconnects N [--json]";

fn default_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tagger-fleetd-{}", std::process::id()))
}

fn batch_label(batch: &[CtrlEvent]) -> String {
    if batch.len() == 1 {
        batch[0].label().to_string()
    } else {
        format!("{} x{} (flap-damped)", batch[0].label(), batch.len())
    }
}

/// What every snapshot's rules are certified by: the walk over the
/// closed form's rules, plus each pinned extra checked hop by hop.
const CERTIFIED: &str = "closed form (structural certificate)";

fn print_outcome(topo: &Topology, label: &str, outcome: &EpochOutcome, verbose: bool) {
    match outcome {
        EpochOutcome::Committed(report) => {
            println!(
                "epoch {} <- {}: committed in {:?}; {CERTIFIED}, {} pinned extra(s), \
                 {} lossless priorities, worst-switch TCAM {}",
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

fn run_replay(trace: Option<String>, flags: &Flags) -> Result<ExitCode, String> {
    const FABRIC: &str = "replay";
    let (topo_spec, topo) = controller_topo(flags)?;
    let mut spec = FabricSpec::new(FABRIC, topo.clone());
    spec.policy = ElpPolicy::with_bounces(get(flags, "bounces", 1)?);
    spec.tcam_budget = get_opt(flags, "tcam-budget")?;
    spec.checkpoint_every = get(flags, "checkpoint-every", spec.checkpoint_every)?;
    spec.journal_path = flags.get("journal").map(std::path::PathBuf::from);
    if let Some(chaos) = flags.get("chaos") {
        spec = spec.with_chaos(ChaosConfig::parse(chaos).map_err(|e| format!("--chaos: {e}"))?);
    }
    let events = parse_trace(&topo, &read_input(trace.as_deref())?).map_err(|e| e.to_string())?;

    let dir = default_dir();
    let mut fleet_cfg = FleetConfig::new(&dir);
    fleet_cfg.queue_cap = events.len().max(1);
    let mut fleet = Fleet::new(fleet_cfg);
    fleet
        .register(spec)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    let epoch0 = fabric.controller().committed();
    println!(
        "epoch 0 (bootstrap): {} switches, {} links, {CERTIFIED} -> {} rules, \
         {} lossless priorities, worst-switch TCAM {}",
        topo.num_switches(),
        topo.num_links(),
        epoch0.rules.num_rules(),
        epoch0.lossless_tags,
        epoch0.tcam_worst_switch,
    );
    if let Some(chaos) = &fabric.spec().chaos {
        println!("southbound: chaos ({chaos})");
    }

    for event in &events {
        fleet
            .ingest(FABRIC, event.clone())
            .map_err(|e| e.to_string())?;
    }
    let outcomes = fleet
        .drain_fabric(FABRIC)
        .map_err(|e| format!("replay failed: {e}"))?;
    let fabric = fleet.fabric(FABRIC).map_err(|e| e.to_string())?;
    let verbose = flags.contains_key("verbose");
    let (mut single_link_commits, mut incremental_wins) = (0, 0);
    let batches = fabric.spec().damping.split(&events);
    for (range, outcome) in batches.into_iter().zip(&outcomes) {
        let batch = &events[range];
        print_outcome(&topo, &batch_label(batch), outcome, verbose);
        if let ([CtrlEvent::LinkDown(_) | CtrlEvent::LinkUp(_)], Some(commit)) =
            (batch, outcome.committed())
        {
            if !commit.deltas.is_empty() {
                single_link_commits += 1;
                if commit.delta_ops() < commit.full_reinstall_ops() {
                    incremental_wins += 1;
                }
            }
        }
    }

    println!();
    let report = fleet.snapshot();
    print!("{}", report.render());
    if let Some(path) = flags.get("export-checkpoint") {
        let snap = fabric.controller().committed();
        let text = checkpoint::render(&topo_spec, snap.epoch, &topo, &snap.rules);
        std::fs::write(path, text).map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
        println!("exported epoch {} checkpoint to {path}", snap.epoch);
    }
    std::fs::remove_dir_all(&dir).ok();

    let mut failed = false;
    if !report.healthy() {
        eprintln!("FAIL: the fleet diverged from the committed tables or failed the audit");
        failed = true;
    }
    let verify_failures = fabric.controller().metrics().verify_failures;
    if verify_failures > 0 {
        eprintln!("FAIL: {verify_failures} committed epoch(s) required verify rollbacks");
        failed = true;
    }
    if incremental_wins < single_link_commits {
        eprintln!(
            "FAIL: only {incremental_wins}/{single_link_commits} single-link commits \
             beat a full-table reinstall"
        );
        failed = true;
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn run_ingest(stream: Option<String>, flags: &Flags) -> Result<ExitCode, String> {
    let dir = flags
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_dir);
    let damping = match flags.get("damping") {
        Some(spec) => Damping::parse(spec)?,
        None => Damping::Flap,
    };
    let chaos = flags
        .get("chaos")
        .map(|s| ChaosConfig::parse(s))
        .transpose()?;
    let mut fleet_cfg = FleetConfig::new(&dir);
    fleet_cfg.drain_quantum = get(flags, "quantum", 4usize)?.max(1);
    fleet_cfg.queue_cap = get(flags, "queue-cap", fleet_cfg.queue_cap)?.max(1);
    let mut fleet = Fleet::new(fleet_cfg);
    let mut template = FabricSpec::new("", ClosConfig::small().build()).with_damping(damping);
    template.chaos = chaos;

    let text = read_input(stream.as_deref())?;

    let mut lines = 0u64;
    let mut stalls = 0u64;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A full queue is backpressure, not a stream error: drain a
        // fair cycle to make room and retry the same line. Ingest is
        // all-or-nothing, so a rejected line never half-lands and is
        // always safe to retry; the fabric counts each rejection in the
        // report's `pushback` column.
        let registered = fleet.len();
        loop {
            match fleet.ingest_stream_line(&template, line) {
                Ok(_) => break,
                Err(FleetError::QueueFull { fabric, cap }) => {
                    let queued = fleet.fabric(&fabric).map_err(|e| e.to_string())?.queued();
                    if queued == 0 {
                        // The queue is empty and the line still does not
                        // fit: no amount of draining will ever admit it.
                        return Err(format!(
                            "line {}: the line expands past the {cap}-slot \
                             queue; raise --queue-cap",
                            lineno + 1,
                        ));
                    }
                    stalls += 1;
                    fleet.drain_cycle().map_err(|e| e.to_string())?;
                }
                Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
            }
        }
        if let Some(fabric) = fleet.fabrics().get(registered) {
            println!(
                "registered fabric [{}] {} (journal {})",
                fabric.id().0,
                fabric.name(),
                fabric.journal_path().display()
            );
        }
        lines += 1;
        // Drain as the stream arrives, like the live daemon: a fair
        // cycle every few lines keeps every fabric making progress, and
        // a settled one (trailing batches held back) keeps the journals
        // what `serve` writes for the same stream.
        if lines.is_multiple_of(8) {
            fleet.drain_cycle_settled().map_err(|e| e.to_string())?;
        }
    }
    fleet.drain_all().map_err(|e| e.to_string())?;
    if stalls > 0 {
        println!("ingest: {stalls} events waited out a full queue (drained and retried)");
    }

    let report = fleet.snapshot();
    print!("{}", report.render());
    if flags.contains_key("json") {
        print!("{}", report.to_json());
    }
    Ok(if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_serve(flags: &Flags) -> Result<ExitCode, String> {
    let dir = flags
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_dir);
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let mut cfg = ServeConfig::new(&dir, ClosConfig::small().build());
    if let Some(spec) = flags.get("damping") {
        cfg.damping = Damping::parse(spec)?;
    }
    cfg.chaos = flags
        .get("chaos")
        .map(|s| ChaosConfig::parse(s))
        .transpose()?;
    cfg.queue_cap = get(flags, "queue-cap", cfg.queue_cap)?.max(1);
    cfg.drain_quantum = get(flags, "quantum", cfg.drain_quantum)?.max(1);
    cfg.conn_budget = get(flags, "budget", cfg.conn_budget)?.max(1);

    let server = Server::start(&addr, cfg).map_err(|e| e.to_string())?;
    println!(
        "tagger-fleetd: serving on {} (journals under {})",
        server.addr(),
        dir.display()
    );
    println!("tagger-fleetd: close stdin (ctrl-D) to drain and exit");

    // Run until the operator (or the harness driving us) closes stdin;
    // that is the graceful-stop signal, mirroring the stream commands.
    let mut sink = String::new();
    let stdin = std::io::stdin();
    loop {
        sink.clear();
        match stdin.lock().read_line(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => return Err(format!("stdin: {e}")),
        }
    }

    let outcome = server.shutdown().map_err(|e| e.to_string())?;
    print!("{}", outcome.report.render());
    if flags.contains_key("json") {
        print!("{}", outcome.report.to_json());
    }
    Ok(if outcome.report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_send(stream: Option<String>, flags: &Flags) -> Result<ExitCode, String> {
    let Some(addr) = flags.get("addr").cloned() else {
        return Err("send wants --addr HOST:PORT (a running `tagger-fleetd serve`)".into());
    };
    let mut cfg = ClientConfig::new(addr, get(flags, "client", 1u64)?);
    cfg.seed = get(flags, "seed", cfg.client_id)?;
    cfg.max_attempts = get(flags, "attempts", cfg.max_attempts)?.max(1);
    cfg.max_reconnects = get(flags, "reconnects", cfg.max_reconnects)?;

    let lines: Vec<String> = read_input(stream.as_deref())?
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err("nothing to send: the stream has no event lines".into());
    }

    let report = send_lines(&cfg, &lines).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    for r in &report.rejections {
        println!("  rejected line {}: {}", r.index + 1, r.reason);
    }
    if flags.contains_key("json") {
        print!("{}", report.stable_json());
    }
    Ok(if report.rejections.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "replay" => parse_args(
            &args[1..],
            1,
            &[
                "topo",
                "bounces",
                "tcam-budget",
                "chaos",
                "journal",
                "checkpoint-every",
                "export-checkpoint",
            ],
            &["verbose"],
        )
        .and_then(|(mut trace, flags)| run_replay(trace.pop(), &flags)),
        "ingest" => parse_args(
            &args[1..],
            1,
            &["damping", "chaos", "dir", "quantum", "queue-cap"],
            &["json"],
        )
        .and_then(|(mut stream, flags)| run_ingest(stream.pop(), &flags)),
        "serve" => parse_args(
            &args[1..],
            0,
            &[
                "addr",
                "damping",
                "chaos",
                "dir",
                "quantum",
                "queue-cap",
                "budget",
            ],
            &["json"],
        )
        .and_then(|(_, flags)| run_serve(&flags)),
        "send" => parse_args(
            &args[1..],
            1,
            &["addr", "client", "seed", "attempts", "reconnects"],
            &["json"],
        )
        .and_then(|(mut stream, flags)| run_send(stream.pop(), &flags)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tagger-fleetd: {msg}");
            ExitCode::from(2)
        }
    }
}
