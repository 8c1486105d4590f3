//! `tagger-audit` — independently certify installed rule tables.
//!
//! The audit path trusts nothing the controller computed: it decompiles
//! the TCAM entries the tables compile to, rebuilds the buffer
//! dependency graph from the decompiled tuples and the link adjacency,
//! and re-proves Theorem 5.1 with its own machinery (see the
//! `tagger-audit` crate docs). Three subcommands:
//!
//! ```text
//! tagger-audit check <checkpoint> [--replay]
//! tagger-audit check --journal PATH [--topo SPEC] [--bounces K] [--tcam-budget N]
//! tagger-audit dump <checkpoint> [--out PATH]
//! tagger-audit whatif <checkpoint> [--fail A-B[,C-D...]] [--bounces K]
//! ```
//!
//! - `check` audits a checkpoint file (or a controller rebuilt from a
//!   write-ahead journal on the fabric `--topo` names, a
//!   [`tagger::topo::TopoSpec`], default `clos small`) and exits non-zero
//!   unless a certificate is issued. `--replay` additionally runs the generated counterexample
//!   flows through `tagger-sim` to demonstrate any deadlock found.
//! - `dump` writes the topology as Graphviz DOT, with the offending
//!   cycle highlighted in red when the audit fails.
//! - `whatif` audits hypothetical link failures against the committed
//!   tables: specific links via `--fail`, or every single switch-switch
//!   link when none are given.

use std::process::ExitCode;

use tagger::audit::{checkpoint, whatif, Auditor, Counterexample, DepGraph};
use tagger::cli::{controller_topo, get, get_opt, parse_args, Flags};
use tagger::core::RuleSet;
use tagger::ctrl::{recover, ElpPolicy};
use tagger::topo::{FailureSet, Topology};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: tagger-audit <check|dump|whatif> ...");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "check" => cmd_check(rest),
        "dump" => cmd_dump(rest),
        "whatif" => cmd_whatif(rest),
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

fn load_checkpoint(path: &str) -> Result<checkpoint::Checkpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    checkpoint::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The tables to audit: offline from a checkpoint, or live from a
/// journal-recovered controller.
fn load_tables(positional: &[String], flags: &Flags) -> Result<(Topology, RuleSet, u64), String> {
    if let Some(journal_path) = flags.get("journal") {
        let (_, topo) = controller_topo(flags)?;
        let policy = ElpPolicy::with_bounces(get(flags, "bounces", 1)?);
        let budget = get_opt(flags, "tcam-budget")?;
        let recovery = recover(journal_path, topo.clone(), policy, budget)
            .map_err(|e| format!("recover {journal_path}: {e}"))?;
        let snapshot = recovery.controller.committed();
        println!(
            "recovered epoch {} from {journal_path} ({} event(s) replayed, {} in tail)",
            snapshot.epoch,
            recovery.replayed,
            recovery.tail.len()
        );
        Ok((topo, snapshot.rules.clone(), snapshot.epoch))
    } else {
        let Some(path) = positional.first() else {
            return Err("check wants a checkpoint file or --journal PATH".into());
        };
        if let Some(f) = ["topo", "bounces", "tcam-budget"]
            .iter()
            .find(|f| flags.contains_key(**f))
        {
            return Err(format!(
                "--{f} applies to --journal; a checkpoint names its own fabric"
            ));
        }
        let ckpt = load_checkpoint(path)?;
        Ok((ckpt.topo, ckpt.rules, ckpt.epoch))
    }
}

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(
        rest,
        1,
        &["journal", "topo", "bounces", "tcam-budget"],
        &["replay"],
    )?;
    let (topo, rules, epoch) = load_tables(&positional, &flags)?;
    let mut auditor = Auditor::new(topo.clone());
    let report = auditor.audit(epoch, &rules);
    print!("{}", report.render(&topo));
    if flags.contains_key("replay") {
        if let Some(cx) = &report.counterexample {
            let (sim_report, labels) = cx.replay(&topo, &rules, tagger::audit::REPLAY_END_NS);
            match &sim_report.deadlock {
                Some(d) => {
                    println!(
                        "replay: DEADLOCK at {} ns across {} buffer(s), {} flow(s) injected",
                        d.detected_at,
                        d.cycle.len(),
                        labels.len()
                    );
                }
                None => println!("replay: no deadlock within the horizon"),
            }
        } else {
            println!("replay: nothing to replay (no counterexample)");
        }
    }
    print!("{}", auditor.metrics.report());
    Ok(if report.is_certified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_dump(rest: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(rest, 1, &["out"], &[])?;
    let Some(path) = positional.first() else {
        return Err("dump wants a checkpoint file".into());
    };
    let ckpt = load_checkpoint(path)?;
    let graph = DepGraph::build(&ckpt.topo, &ckpt.rules, &FailureSet::none());
    let kahn = graph.kahn();
    let dot = match graph.minimal_cycle(&kahn.residual) {
        Some(cycle) => {
            let cx =
                Counterexample::from_cycle(&ckpt.topo, &graph, cycle, tagger::audit::REPLAY_END_NS);
            eprintln!("cycle: {}", cx.describe(&ckpt.topo));
            cx.dot(&ckpt.topo)
        }
        None => ckpt.topo.to_dot(),
    };
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, &dot).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out}");
        }
        None => print!("{dot}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_whatif(rest: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(rest, 1, &["bounces", "fail"], &[])?;
    let Some(path) = positional.first() else {
        return Err("whatif wants a checkpoint file".into());
    };
    let ckpt = load_checkpoint(path)?;
    let bounces = get(&flags, "bounces", 1)?;
    let scenarios = match flags.get("fail") {
        Some(spec) => {
            let mut failures = FailureSet::none();
            let mut names = Vec::new();
            for pair in spec.split(',') {
                let (a, b) = pair
                    .split_once('-')
                    .ok_or_else(|| format!("--fail wants A-B pairs, got {pair:?}"))?;
                failures
                    .try_fail_between(&ckpt.topo, a, b)
                    .map_err(|e| format!("--fail {pair}: {e}"))?;
                names.push(format!("{a}-{b}"));
            }
            vec![whatif::whatif(
                &ckpt.topo,
                &ckpt.rules,
                &failures,
                format!("fail {}", names.join(",")),
                bounces,
            )]
        }
        None => whatif::sweep_single_links(&ckpt.topo, &ckpt.rules, bounces),
    };
    let mut unsafe_scenarios = 0usize;
    for s in &scenarios {
        println!("{}", s.summarize());
        if !s.is_safe() {
            unsafe_scenarios += 1;
            for f in &s.findings {
                println!("  {}", f.describe(&ckpt.topo));
            }
        }
    }
    println!(
        "{} scenario(s), {} unsafe",
        scenarios.len(),
        unsafe_scenarios
    );
    Ok(if unsafe_scenarios == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
