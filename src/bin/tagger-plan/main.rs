//! `tagger-plan` — plan a Tagger deployment for a fabric.
//!
//! Computes the lossless-priority budget, the per-switch rules and the
//! compressed TCAM programs for a described topology, and certifies
//! deadlock freedom. What a network operator would run before rolling
//! Tagger out.
//!
//! ```text
//! tagger-plan --topo '<spec>' [--bounces 1] [--paths-per-pair 1] [--rules]
//! tagger-plan table <name> [--large]
//! ```
//!
//! `--topo` names the fabric with a [`tagger::topo::TopoSpec`] (default
//! `clos small`): `clos [small|medium|hosts N|key=value...]`,
//! `fattree K`, `jellyfish [switches=N] [ports=P] [seed=S]`, `bcube N K`
//! or `file PATH`, a `.topo` file whose optional `priorities N`
//! directive caps the tag budget. The ELP follows the fabric: if every
//! switch carries a layer, a `--bounces`-bounce up-down ELP tagged by
//! the optimal layered construction; on a Jellyfish, Table 5's
//! switch-pair shortest paths, and on any other unlayered fabric
//! host-pair shortest paths (`--paths-per-pair` of each), tagged by the
//! generic Algorithm 1+2 pipeline. `--rules` dumps the compressed TCAM
//! tables.
//!
//! `table` prints one of the paper's planner tables (see [`tables`]).
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

use tagger::cli::{get, parse_args, topo_spec};
use tagger::core::clos::clos_tagging;
use tagger::core::tcam::{Compression, TcamProgram, MAX_PORTS};
use tagger::core::{decide, dscp::DscpCodec, Elp, Tagging, Verdict};
use tagger::ctrl::CtrlError;
use tagger::topo::{Family, Topology};

const USAGE: &str = "usage: tagger-plan --topo '<spec>' [--bounces K] [--paths-per-pair N] \
                     [--rules] | tagger-plan table <name> [--large]";

fn report(topo: &Topology, tagging: &Tagging, oracle_line: &str, dump_rules: bool) {
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
    let result = match args.split_first() {
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Some((table, rest)) if table == "table" => tables::run(rest),
        Some(_) => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (_, flags) = parse_args(args, 0, &["topo", "bounces", "paths-per-pair"], &["rules"])?;
    let spec = topo_spec(&flags)?;
    let (topo, priorities) = spec
        .build_with_budget()
        .map_err(|e| format!("--topo: {e}"))?;
    for node in topo.switch_ids().map(|sw| topo.node(sw)) {
        if node.num_ports() > usize::from(MAX_PORTS) {
            let refusal = CtrlError::TooManyPorts(node.name.clone(), node.num_ports());
            return Err(format!("--topo: `{spec}` {refusal}"));
        }
    }
    let budget = priorities.map(usize::from);
    let dump_rules = flags.contains_key("rules");
    let layered = topo.unranked_switch().is_none();
    let (knob, other) = if layered {
        ("bounces", "paths-per-pair")
    } else {
        ("paths-per-pair", "bounces")
    };
    if flags.contains_key(other) {
        return Err(format!(
            "--{other} does not apply to `{spec}`; it takes --{knob}"
        ));
    }
    let n = get(&flags, knob, 1)?;
    if layered {
        // A k-bounce ELP, tagged by the optimal layered construction
        // within `budget` (default its own `k + 1`) tags.
        println!("plan: {spec}, {n}-bounce lossless service\n");
        let elp = Elp::updown_with_bounces(&topo, n);
        let construct = || clos_tagging(&topo, n).map_err(|e| format!("clos tagging: {e:?}"));
        return Ok(plan(
            &topo,
            &elp,
            budget.or(Some(n + 1)),
            construct,
            dump_rules,
        ));
    }
    // The generic Algorithm 1+2 pipeline over a shortest-path ELP:
    // between switches on a Jellyfish, as Table 5 plans it, between
    // hosts on any other unlayered fabric.
    let hosts = spec.family != Family::Jellyfish;
    let pairs = if hosts { "host-pair" } else { "switch-pair" };
    println!("plan: {spec}, {pairs} shortest-path ELP\n");
    let elp = Elp::shortest(&topo, n, hosts);
    let construct = || Tagging::from_elp(&topo, &elp).map_err(|e| format!("pipeline: {e:?}"));
    Ok(plan(&topo, &elp, budget, construct, dump_rules))
}
