//! `tagger-scenario` — run, sweep and list declarative `.scn` scenarios.
//!
//! ```text
//! tagger-scenario run <file-or-dir...> [--seed N] [--json FILE]
//! tagger-scenario sweep <file-or-dir...> [--seed N] [--json FILE]
//! tagger-scenario list <file-or-dir...>
//! ```
//!
//! `run` expands every scenario (at every sweep point), simulates it,
//! grades its `assert` block and prints one PASS/FAIL line per scenario;
//! the exit code is non-zero iff anything failed. `sweep` is `run` plus
//! a per-point metrics table — the view for `sweep hosts 32..1024`
//! grids. `list` parses without running.
//!
//! A directory argument expands to its `*.scn` files in sorted order
//! (non-recursive). `--seed` overrides every scenario's `seed`
//! directive; `--json` writes the byte-stable machine report for CI
//! diffing. Any other flag is an error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tagger::cli::{get_opt, parse_args, Flags};
use tagger::scenario::{parse_all, points, RunOptions, SuiteReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: tagger-scenario <run|sweep|list> <file-or-dir...>");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(rest, false),
        "sweep" => cmd_run(rest, true),
        "list" => cmd_list(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Expands directories to their `*.scn` files, sorted; files pass
/// through untouched.
fn expand_paths(positional: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in positional {
        let path = Path::new(p);
        if path.is_dir() {
            let mut batch: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory {p}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "scn"))
                .collect();
            batch.sort();
            files.extend(batch);
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        return Err("no .scn files given".to_string());
    }
    Ok(files)
}

fn options_for(file: &Path, flags: &Flags) -> Result<RunOptions, String> {
    Ok(RunOptions {
        seed: get_opt(flags, "seed")?,
        base_dir: file.parent().unwrap_or(Path::new(".")).to_path_buf(),
    })
}

fn cmd_run(rest: &[String], per_point: bool) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(rest, usize::MAX, &["seed", "json"], &[])?;
    let files = expand_paths(&positional)?;
    let mut suite = SuiteReport::default();
    for file in &files {
        let display = file.display().to_string();
        let text = std::fs::read_to_string(file).map_err(|e| format!("{display}: {e}"))?;
        let opts = options_for(file, &flags)?;
        match tagger::scenario::run_scenario(&text, &display, &opts) {
            Ok(result) => suite.scenarios.push(result),
            Err(issue) => return Err(format!("{display}:{issue}")),
        }
    }
    print!("{}", suite.render());
    if per_point {
        print!("{}", point_table(&suite));
    }
    if let Some(out) = flags.get("json") {
        std::fs::write(out, suite.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(if suite.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The sweep view: one metrics row per point.
fn point_table(suite: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in &suite.scenarios {
        for p in &s.points {
            let vars = if p.vars.is_empty() {
                String::new()
            } else {
                let body: Vec<String> = p.vars.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" [{}]", body.join(" "))
            };
            let m = &p.metrics;
            let _ = writeln!(
                out,
                "{}{vars}: {} events, {} B delivered, {} pauses, {} lossless drops, \
                 {} trips, max stall {} ns{}",
                s.name,
                m.events_processed,
                m.delivered_bytes,
                m.pauses_sent,
                m.lossless_drops,
                m.watchdog_trips,
                m.max_pause_ns,
                match m.deadlock_at_ns {
                    Some(t) => format!(", DEADLOCK at {t} ns"),
                    None => String::new(),
                },
            );
        }
    }
    out
}

fn cmd_list(rest: &[String]) -> Result<ExitCode, String> {
    let (positional, _) = parse_args(rest, usize::MAX, &[], &[])?;
    let files = expand_paths(&positional)?;
    let mut bad = false;
    for file in &files {
        let display = file.display().to_string();
        let text = std::fs::read_to_string(file).map_err(|e| format!("{display}: {e}"))?;
        let (s, issues) = parse_all(&text);
        if issues.is_empty() {
            let n_points = points(&s).len();
            println!(
                "{display}: {} ({} assert{}, {} point{})",
                s.name,
                s.asserts.len(),
                if s.asserts.len() == 1 { "" } else { "s" },
                n_points,
                if n_points == 1 { "" } else { "s" },
            );
        } else {
            bad = true;
            for i in &issues {
                println!("{display}:{i}");
            }
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
