//! `tagger-plan` — plan a Tagger deployment for a fabric.
//!
//! Computes the lossless-priority budget, the per-switch rules and the
//! compressed TCAM programs for a described topology, and certifies
//! deadlock freedom. What a network operator would run before rolling
//! Tagger out.
//!
//! ```text
//! tagger-plan clos   [--pods 2] [--leaves 2] [--tors 2] [--spines 2] [--hosts 4] [--bounces 1] [--rules]
//! tagger-plan fattree [--k 4] [--bounces 1] [--rules]
//! tagger-plan jellyfish [--switches 50] [--ports 12] [--seed 7] [--paths-per-pair 1] [--rules]
//! tagger-plan custom --file fabric.topo [--bounces 1] [--paths-per-pair 1] [--rules]
//! tagger-plan table <name> [--large]
//! ```
//!
//! `table` prints one of the paper's planner tables (see [`tables`]).
//!
//! `custom` reads the plain-text format of
//! [`tagger::topo::Topology::from_spec_text`] (including the optional
//! `priorities N` budget directive); if every switch carries a layer,
//! the optimal layered construction is used, otherwise the generic
//! Algorithm 1+2 pipeline over a shortest-path ELP.
//!
//! Every plan consults the existence oracle ([`tagger::core::decide`])
//! before constructing tables, so the tool can tell two failures apart:
//!
//! - **exit 2** — the oracle proves *no* deadlock-free tagging of the
//!   ELP fits in the tag budget: no amount of re-planning helps; change
//!   the ELP or raise the budget.
//! - **exit 1** — a tagging provably exists but the construction
//!   heuristic did not find one: raise `--bounces`/`--paths-per-pair`.

mod tables;

use std::process::ExitCode;

use tagger::cli::{clos_config, get, parse_args, Flags};
use tagger::core::clos::clos_tagging;
use tagger::core::tcam::{Compression, TcamProgram};
use tagger::core::{decide, dscp::DscpCodec, Elp, Tagging, Verdict};
use tagger::topo::{fat_tree, JellyfishConfig, Topology};

fn report(topo: &Topology, tagging: &Tagging, oracle_line: &str, dump_rules: bool) {
    tagging
        .graph()
        .verify()
        .expect("deadlock-freedom certificate");
    let priorities = tagging.num_lossless_tags_on(topo);
    let tcam = TcamProgram::compile(topo, tagging.rules(), Compression::Joint);
    println!(
        "fabric          : {} switches, {} hosts, {} links",
        topo.num_switches(),
        topo.num_hosts(),
        topo.num_links()
    );
    println!("lossless queues : {priorities} (+1 lossy)");
    println!("oracle          : {oracle_line}");
    println!(
        "rules           : {} exact-match total, max {} per switch",
        tagging.rules().num_rules(),
        tagging.rules().max_rules_per_switch()
    );
    println!(
        "tcam (joint)    : {} entries total, max {} per switch",
        tcam.total_entries(),
        tcam.max_entries_per_switch()
    );
    let codec = DscpCodec::new(40, priorities as u16);
    println!(
        "dscp plan       : tags ride codepoints {:?}; lossy = {}",
        codec.reserved_codepoints(),
        DscpCodec::LOSSY
    );
    println!("certificate     : deadlock-free (Theorem 5.1 verified)");
    if tagging.repairs() > 0 {
        println!(
            "note            : {} determinization repair rules",
            tagging.repairs()
        );
    }
    if dump_rules {
        println!();
        for sw in topo.switch_ids() {
            let Some(t) = tcam.tcam_for(sw) else { continue };
            println!("switch {} ({} entries):", topo.node(sw).name, t.len());
            for e in t.entries() {
                let ins: Vec<String> = e.in_ports.iter().map(|p| p.to_string()).collect();
                let outs: Vec<String> = e.out_ports.iter().map(|p| p.to_string()).collect();
                println!(
                    "  tag {} in [{}] out [{}] -> tag {}",
                    e.tag,
                    ins.join(","),
                    outs.join(","),
                    e.new_tag
                );
            }
        }
    }
}

/// Oracle-gated planning: decide existence first, then construct.
///
/// Exit codes: 0 planned and certified; 1 a tagging exists but the
/// construction failed to find one (widen the search); 2 the oracle
/// proves no tagging fits the budget (re-planning cannot help).
fn plan(
    topo: &Topology,
    elp: &Elp,
    budget: Option<usize>,
    construct: impl FnOnce() -> Result<Tagging, String>,
    dump_rules: bool,
) -> ExitCode {
    let verdict = decide(topo, elp, budget);
    match &verdict {
        Verdict::Infeasible(inf) => {
            eprintln!("plan rejected: {}", verdict.summary());
            eprintln!(
                "the minimal infeasible kernel has {} path(s):",
                inf.kernel.len()
            );
            for &i in inf.kernel.iter().take(12) {
                eprintln!("  {}", elp.path(i).display(topo));
            }
            if inf.kernel.len() > 12 {
                eprintln!("  ... and {} more", inf.kernel.len() - 12);
            }
            eprintln!(
                "this is not a search-budget problem — no deadlock-free tagging \
                 of this ELP exists within {} tag(s); drop a kernel path or raise \
                 the priority budget",
                inf.budget
            );
            ExitCode::from(2)
        }
        Verdict::Feasible(f) => match construct() {
            Ok(tagging) => {
                let line = format!(
                    "feasible, proven minimum >= {} lossless tag(s)",
                    f.lower_bound_tags
                );
                report(topo, &tagging, &line, dump_rules);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("construction failed: {e}");
                eprintln!(
                    "but the oracle proves a deadlock-free tagging exists within \
                     {} tag(s) — the heuristic needs a wider search: raise \
                     --bounces or --paths-per-pair",
                    f.tags_used
                );
                ExitCode::FAILURE
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: tagger-plan <clos|fattree|jellyfish|custom> [flags] | table <name>; \
             see --help in source"
        );
        return ExitCode::FAILURE;
    };
    run(cmd, rest).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run(cmd: &str, rest: &[String]) -> Result<ExitCode, String> {
    type Planner = fn(&Flags, bool) -> Result<ExitCode, String>;
    let (known, planner): (&[&str], Planner) = match cmd {
        "table" => return tables::run(rest),
        "clos" => (
            &["pods", "leaves", "tors", "spines", "hosts", "bounces"],
            plan_clos,
        ),
        "fattree" => (&["k", "bounces"], plan_fattree),
        "jellyfish" => (
            &["switches", "ports", "seed", "paths-per-pair"],
            plan_jellyfish,
        ),
        "custom" => (&["file", "bounces", "paths-per-pair"], plan_custom),
        other => {
            return Err(format!(
                "unknown fabric {other:?}; expected clos, fattree, jellyfish or custom"
            ))
        }
    };
    let (_, flags) = parse_args(rest, 0, known, &["rules"])?;
    planner(&flags, flags.contains_key("rules"))
}

/// A k-bounce ELP on a layered fabric, tagged by the optimal layered
/// construction within `budget` (default its own `k + 1`) tags.
fn plan_layered(topo: &Topology, k: usize, budget: Option<usize>, dump_rules: bool) -> ExitCode {
    let elp = Elp::updown_with_bounces(topo, k);
    plan(
        topo,
        &elp,
        budget.or(Some(k + 1)),
        || clos_tagging(topo, k).map_err(|e| format!("clos tagging: {e:?}")),
        dump_rules,
    )
}

/// The generic Algorithm 1+2 pipeline over a shortest-path ELP.
fn plan_shortest(topo: &Topology, elp: &Elp, budget: Option<usize>, dump_rules: bool) -> ExitCode {
    plan(
        topo,
        elp,
        budget,
        || Tagging::from_elp(topo, elp).map_err(|e| format!("pipeline: {e:?}")),
        dump_rules,
    )
}

fn plan_clos(flags: &Flags, dump_rules: bool) -> Result<ExitCode, String> {
    let cfg = clos_config(flags)?;
    let k = get(flags, "bounces", 1)?;
    println!("plan: clos {cfg:?}, {k}-bounce lossless service\n");
    Ok(plan_layered(&cfg.build(), k, None, dump_rules))
}

fn plan_fattree(flags: &Flags, dump_rules: bool) -> Result<ExitCode, String> {
    let arity = get(flags, "k", 4)?;
    let k = get(flags, "bounces", 1)?;
    println!("plan: fat-tree k={arity}, {k}-bounce lossless service\n");
    Ok(plan_layered(&fat_tree(arity), k, None, dump_rules))
}

fn plan_jellyfish(flags: &Flags, dump_rules: bool) -> Result<ExitCode, String> {
    let cfg = JellyfishConfig::half_servers(
        get(flags, "switches", 50)?,
        get(flags, "ports", 12)?,
        get(flags, "seed", 7)?,
    );
    let topo = cfg.build();
    println!(
        "plan: jellyfish {} switches x {} ports (seed {}), shortest-path ELP\n",
        cfg.switches, cfg.ports_per_switch, cfg.seed
    );
    let elp = Elp::shortest(&topo, get(flags, "paths-per-pair", 1)?, false);
    Ok(plan_shortest(&topo, &elp, None, dump_rules))
}

fn plan_custom(flags: &Flags, dump_rules: bool) -> Result<ExitCode, String> {
    let path = flags.get("file").ok_or("custom needs --file <spec>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = Topology::parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    let topo = spec.topo;
    // A `priorities N` directive in the spec caps the budget the
    // oracle checks against; otherwise the hardware ceiling.
    let budget = spec.priorities.map(|p| p as usize);
    let layered = topo
        .switch_ids()
        .all(|s| topo.node(s).layer.rank().is_some());
    if layered {
        let k = get(flags, "bounces", 1)?;
        println!("plan: custom layered fabric from {path}, {k}-bounce service\n");
        Ok(plan_layered(&topo, k, budget, dump_rules))
    } else {
        println!("plan: custom fabric from {path}, host-to-host shortest-path ELP\n");
        let elp = Elp::shortest(&topo, get(flags, "paths-per-pair", 1)?, true);
        Ok(plan_shortest(&topo, &elp, budget, dump_rules))
    }
}
