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
//! tagger-plan jellyfish [--switches 50] [--ports 12] [--seed 7] [--rules]
//! tagger-plan custom --file fabric.topo [--bounces 1] [--paths-per-pair 1] [--rules]
//! ```
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

use std::collections::BTreeMap;
use std::process::ExitCode;

use tagger::core::clos::clos_tagging;
use tagger::core::tcam::{Compression, TcamProgram};
use tagger::core::{decide, dscp::DscpCodec, Elp, Tagging, Verdict};
use tagger::topo::{fat_tree, ClosConfig, JellyfishConfig, Topology};

fn parse_flags(args: &[String]) -> (BTreeMap<String, String>, bool) {
    let mut flags = BTreeMap::new();
    let mut dump_rules = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--rules" {
            dump_rules = true;
            i += 1;
        } else if let Some(name) = a.strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    (flags, dump_rules)
}

fn get(flags: &BTreeMap<String, String>, key: &str, default: usize) -> usize {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} wants a number"))
        })
        .unwrap_or(default)
}

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
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: tagger-plan <clos|fattree|jellyfish|custom> [flags]; see --help in source"
        );
        return ExitCode::FAILURE;
    };
    let (flags, dump_rules) = parse_flags(&args[1..]);
    match cmd.as_str() {
        "clos" => {
            let cfg = ClosConfig {
                pods: get(&flags, "pods", 2),
                leaves_per_pod: get(&flags, "leaves", 2),
                tors_per_pod: get(&flags, "tors", 2),
                spines: get(&flags, "spines", 2),
                hosts_per_tor: get(&flags, "hosts", 4),
            };
            let topo = cfg.build();
            let k = get(&flags, "bounces", 1);
            println!("plan: clos {cfg:?}, {k}-bounce lossless service\n");
            let elp = Elp::updown_with_bounces(&topo, k);
            plan(
                &topo,
                &elp,
                Some(k + 1),
                || clos_tagging(&topo, k).map_err(|e| format!("clos tagging: {e:?}")),
                dump_rules,
            )
        }
        "fattree" => {
            let topo = fat_tree(get(&flags, "k", 4));
            let k = get(&flags, "bounces", 1);
            println!(
                "plan: fat-tree k={}, {k}-bounce lossless service\n",
                get(&flags, "k", 4)
            );
            let elp = Elp::updown_with_bounces(&topo, k);
            plan(
                &topo,
                &elp,
                Some(k + 1),
                || clos_tagging(&topo, k).map_err(|e| format!("clos tagging: {e:?}")),
                dump_rules,
            )
        }
        "jellyfish" => {
            let cfg = JellyfishConfig::half_servers(
                get(&flags, "switches", 50),
                get(&flags, "ports", 12),
                get(&flags, "seed", 7) as u64,
            );
            let topo = cfg.build();
            println!(
                "plan: jellyfish {} switches x {} ports (seed {}), shortest-path ELP\n",
                cfg.switches, cfg.ports_per_switch, cfg.seed
            );
            let elp = Elp::shortest(&topo, get(&flags, "paths-per-pair", 1), false);
            plan(
                &topo,
                &elp,
                None,
                || Tagging::from_elp(&topo, &elp).map_err(|e| format!("pipeline: {e:?}")),
                dump_rules,
            )
        }
        "custom" => {
            let Some(path) = flags.get("file") else {
                eprintln!("custom needs --file <spec>");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let spec = match Topology::parse_spec(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let topo = spec.topo;
            // A `priorities N` directive in the spec caps the budget the
            // oracle checks against; otherwise the hardware ceiling.
            let budget = spec.priorities.map(|p| p as usize);
            let layered = topo
                .switch_ids()
                .all(|s| topo.node(s).layer.rank().is_some());
            if layered {
                let k = get(&flags, "bounces", 1);
                println!("plan: custom layered fabric from {path}, {k}-bounce service\n");
                let elp = Elp::updown_with_bounces(&topo, k);
                plan(
                    &topo,
                    &elp,
                    budget.or(Some(k + 1)),
                    || clos_tagging(&topo, k).map_err(|e| format!("clos tagging: {e:?}")),
                    dump_rules,
                )
            } else {
                println!("plan: custom fabric from {path}, host-to-host shortest-path ELP\n");
                let elp = Elp::shortest(&topo, get(&flags, "paths-per-pair", 1), true);
                plan(
                    &topo,
                    &elp,
                    budget,
                    || Tagging::from_elp(&topo, &elp).map_err(|e| format!("pipeline: {e:?}")),
                    dump_rules,
                )
            }
        }
        other => {
            eprintln!("unknown fabric {other:?}; expected clos, fattree, jellyfish or custom");
            ExitCode::FAILURE
        }
    }
}
