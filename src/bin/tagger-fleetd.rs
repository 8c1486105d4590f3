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
//! tagger-fleetd soak   [--fabrics N] [--seed S] [--events N]
//!                      [--fail-rate R] [--dir PATH] [--status] [--json]
//! tagger-fleetd ingest [stream-file] [--damping SPEC]
//!                      [--chaos seed=N,fail_rate=P,...] [--dir PATH]
//!                      [--quantum N] [--queue-cap N] [--json]
//! tagger-fleetd serve  [--addr HOST:PORT] [--damping SPEC]
//!                      [--chaos seed=N,fail_rate=P,...] [--dir PATH]
//!                      [--quantum N] [--queue-cap N] [--budget N] [--json]
//! ```
//!
//! **soak** runs the chaos-soak drill: `--fabrics` fabrics, each under a
//! distinct seeded event schedule *and* a distinct seeded southbound
//! fault schedule, interleaved through the ingest front. Every fabric
//! must end audit-certified, journal-recoverable, quarantine-consistent
//! and converged; the readiness report is byte-stable given `--seed`.
//! Exits non-zero if any fabric is not ready. `--status` also prints the
//! fleet status rollup; `--json` prints the deterministic JSON snapshot.
//!
//! **ingest** replays an interleaved multi-fabric event stream. Each
//! line is `<fabric>: <trace-line>` in the `tagger-ctrld` trace syntax
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
//! Clients are `tagger-ingest` (or anything speaking the §15 frame
//! format). The daemon runs until stdin reaches EOF — `ctrl-D`, or the
//! harness closing the pipe — then drains every queue and journal and
//! prints the final fleet report.
//!
//! Journals land under `--dir` (default: a per-process temp directory),
//! one file per fabric; registering two fabrics whose journals would
//! collide is refused.

use std::io::BufRead;
use std::process::ExitCode;

use tagger::cli::{get, parse_args, read_input, Flags};
use tagger::ctrl::ChaosConfig;
use tagger::fleet::net::{ServeConfig, Server};
use tagger::fleet::{Damping, FabricSpec, Fleet, FleetConfig, FleetError, SoakConfig};
use tagger::topo::ClosConfig;

const USAGE: &str = "usage: tagger-fleetd <soak|ingest|serve> [options]
  soak   --fabrics N --seed S --events N --fail-rate R --dir PATH [--status] [--json]
  ingest [stream-file] --damping none|flap|flap:N --chaos SPEC
         --dir PATH --quantum N --queue-cap N [--json]
  serve  --addr HOST:PORT --damping none|flap|flap:N --chaos SPEC
         --dir PATH --quantum N --queue-cap N --budget N [--json]";

fn default_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tagger-fleetd-{}", std::process::id()))
}

fn run_soak_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let dir = flags
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_dir);
    let cfg = SoakConfig {
        fabrics: get(flags, "fabrics", 8)?,
        seed: get(flags, "seed", 1u64)?,
        events_per_fabric: get(flags, "events", 48)?,
        fail_rate: get(flags, "fail-rate", 0.25f64)?,
        dir: dir.clone(),
    };
    if cfg.fabrics == 0 {
        return Err("--fabrics must be at least 1".into());
    }
    println!(
        "tagger-fleetd: soaking {} fabrics ({} events each, chaos fail_rate {:.2}, seed {})",
        cfg.fabrics, cfg.events_per_fabric, cfg.fail_rate, cfg.seed
    );
    let outcome = tagger::fleet::run_soak(&cfg).map_err(|e| e.to_string())?;
    print!("{}", outcome.readiness.render());
    if flags.contains_key("status") {
        println!();
        print!("{}", outcome.snapshot.render());
    }
    if flags.contains_key("json") {
        print!("{}", outcome.snapshot.to_json());
    }
    if flags.get("dir").is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(if outcome.readiness.all_ready() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "soak" => parse_args(
            &args[1..],
            &["fabrics", "seed", "events", "fail-rate", "dir"],
            &["status", "json"],
        )
        .and_then(|(_, flags)| run_soak_cmd(&flags)),
        "ingest" => parse_args(
            &args[1..],
            &["damping", "chaos", "dir", "quantum", "queue-cap"],
            &["json"],
        )
        .and_then(|(mut stream, flags)| run_ingest(stream.pop(), &flags)),
        "serve" => parse_args(
            &args[1..],
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
