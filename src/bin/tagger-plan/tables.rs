//! `tagger-plan table <name>` — the paper's planner tables.
//!
//! Every table is seeded, so its stdout is byte-stable: it reproduces
//! `results/<name>.txt`, and `table5_jellyfish --large` reproduces
//! `results/table5_large.txt`. The simulated figures are the `.scn` files
//! under `examples/scenarios/`, run by `tagger-scenario`.
//!
//! | name | paper artifact |
//! |---|---|
//! | `table1_reroute` | Table 1 (reroute probability) |
//! | `table34_rules` | Tables 3/4 + Fig. 5 (walk-through rules) |
//! | `table5_jellyfish` | Table 5 (Jellyfish scalability) |
//! | `clos_optimality` | §4.4 optimality |
//! | `bcube_tags` | §5.3 BCube tag count |
//! | `multiclass_tags` | §6 multi-class sharing |
//! | `rule_compression` | §7 rule compression |

use std::process::ExitCode;

use tagger::cli::parse_args;
use tagger::core::clos::clos_tagging;
use tagger::core::multiclass::MultiClass;
use tagger::core::tcam::{Compression, TcamProgram};
use tagger::core::{greedy_minimize, tag_by_hop_count, Elp, RuleSet, Tagging};
use tagger::routing::{bcube_paths, bounce_paths_between_capped, random_paths, Path};
use tagger::sim::probe::{run_probe_day, ProbeConfig};
use tagger::topo::{bcube, BCubeConfig, ClosConfig, FailureSet, JellyfishConfig, Layer, Topology};

const NAMES: [&str; 7] = [
    "table1_reroute",
    "table34_rules",
    "table5_jellyfish",
    "clos_optimality",
    "bcube_tags",
    "multiclass_tags",
    "rule_compression",
];

/// Prints the table `rest` names; only `table5_jellyfish` takes
/// `--large`, which adds its 1000- and 2000-switch rows.
pub fn run(rest: &[String]) -> Result<ExitCode, String> {
    let (names, flags) = parse_args(rest, 1, &[], &["large"])?;
    let expected = || format!("expected {} or {}", NAMES[..6].join(", "), NAMES[6]);
    let [name] = names.as_slice() else {
        return Err(format!("table takes one name; {}", expected()));
    };
    let large = flags.contains_key("large");
    let table: fn() = match name.as_str() {
        "table1_reroute" => table1_reroute,
        "table34_rules" => table34_rules,
        "table5_jellyfish" if large => || table5_jellyfish(true),
        "table5_jellyfish" => || table5_jellyfish(false),
        "clos_optimality" => clos_optimality,
        "bcube_tags" => bcube_tags,
        "multiclass_tags" => multiclass_tags,
        "rule_compression" => rule_compression,
        other => return Err(format!("unknown table {other:?}; {}", expected())),
    };
    if large && name != "table5_jellyfish" {
        return Err(format!(
            "--large applies only to table5_jellyfish, not {name}"
        ));
    }
    table();
    Ok(ExitCode::SUCCESS)
}

/// Prints a TSV table under a `# title` comment, then a blank line.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// One `[label, total entries, max entries per switch]` row for each of
/// §7's three compression levels of `rules`, labelled by `labels`.
fn compression_rows(topo: &Topology, rules: &RuleSet, labels: [&str; 3]) -> Vec<Vec<String>> {
    [Compression::None, Compression::InPort, Compression::Joint]
        .into_iter()
        .zip(labels)
        .map(|(level, label)| {
            let prog = TcamProgram::compile(topo, rules, level);
            vec![
                label.to_string(),
                prog.total_entries().to_string(),
                prog.max_entries_per_switch().to_string(),
            ]
        })
        .collect()
}

/// **Table 1** — packet reroute measurements. The paper instruments >20
/// production data centers for a week and reports reroute probabilities
/// around 1e-5; this reproduces the methodology (IP-in-IP TTL probing,
/// 100 probes per measurement) over a Clos with a link-failure process
/// calibrated to the same order of magnitude. One row per simulated day.
fn table1_reroute() {
    let topo = ClosConfig::medium().build();
    let rows: Vec<Vec<String>> = (0..7u64)
        .map(|day| {
            let cfg = ProbeConfig {
                measurements: 2_000_000,
                probes_per_measurement: 100,
                link_failure_probability: 2e-6,
                seed: 1000 + day,
            };
            let r = run_probe_day(&topo, &cfg);
            vec![
                format!("2026-06-{:02}", 21 + day),
                r.total.to_string(),
                r.rerouted.to_string(),
                format!("{:.2e}", r.reroute_probability()),
            ]
        })
        .collect();
    print_table(
        "Table 1: packet reroute measurements (synthetic failure process, \
         paper reports ~1e-5 over production fleets)",
        &[
            "day",
            "total_measurements",
            "rerouted",
            "reroute_probability",
        ],
        &rows,
    );
}

/// The paper's Figure 5 walk-through topology: switches `A`, `B`, `C` in
/// a triangle with one server each (`D` on `A`, `E` on `B`, `F` on `C`).
/// Each switch's port 0 faces its server, then come the ports to the
/// other switches in alphabetical order.
fn fig5_topology() -> Topology {
    let mut t = Topology::new();
    let a = t.add_switch("A", Layer::Flat);
    let b = t.add_switch("B", Layer::Flat);
    let c = t.add_switch("C", Layer::Flat);
    let d = t.add_host("D");
    let e = t.add_host("E");
    let f = t.add_host("F");
    t.connect(a, d);
    t.connect(b, e);
    t.connect(c, f);
    t.connect(a, b);
    t.connect(a, c);
    t.connect(b, c);
    t
}

/// The twelve ELP paths of Fig. 5(a): for each ordered server pair, the
/// direct two-switch route and the detour through the third switch.
fn fig5_elp(topo: &Topology) -> Elp {
    let routes: [&[&str]; 12] = [
        &["D", "A", "B", "E"],
        &["D", "A", "C", "B", "E"],
        &["E", "B", "A", "D"],
        &["E", "B", "C", "A", "D"],
        &["D", "A", "C", "F"],
        &["D", "A", "B", "C", "F"],
        &["F", "C", "A", "D"],
        &["F", "C", "B", "A", "D"],
        &["E", "B", "C", "F"],
        &["E", "B", "A", "C", "F"],
        &["F", "C", "B", "E"],
        &["F", "C", "A", "B", "E"],
    ];
    Elp::from_paths(routes.iter().map(|r| Path::from_names(topo, r)).collect())
}

/// **Tables 3 & 4 / Figure 5** — the rules installed on A, B and C, first
/// under Algorithm 1 (Table 3: 3 lossless priorities), then under
/// Algorithm 2 (Table 4 shape: 2), then the merged rules' TCAM entry
/// counts at each compression level.
fn table34_rules() {
    let topo = fig5_topology();
    let elp = fig5_elp(&topo);
    let dump_rules = |rules: &RuleSet, title: &str| {
        for sw in ["A", "B", "C"] {
            let rows: Vec<Vec<String>> = rules
                .rules_for(topo.expect_node(sw))
                .into_iter()
                .map(|r| {
                    vec![
                        r.tag.to_string(),
                        r.in_port.to_string(),
                        r.out_port.to_string(),
                        r.new_tag.to_string(),
                    ]
                })
                .collect();
            print_table(
                &format!("{title}: rules installed in {sw} (unmatched -> lossy)"),
                &["Tag", "InPort", "OutPort", "NewTag"],
                &rows,
            );
        }
    };

    let brute = tag_by_hop_count(&topo, &elp);
    println!(
        "# Algorithm 1: {} lossless priorities at switches (max tag {})",
        brute.num_lossless_tags(&topo),
        brute.max_tag().expect("a non-empty ELP")
    );
    dump_rules(
        &RuleSet::from_graph(&topo, &brute).expect("deterministic"),
        "Table 3",
    );

    let merged = greedy_minimize(&topo, &brute);
    println!(
        "# Algorithm 2: {} lossless priorities at switches",
        merged.num_lossless_tags(&topo)
    );
    let tagging = Tagging::from_elp(&topo, &elp).expect("pipeline");
    dump_rules(tagging.rules(), "Table 4");

    print_table(
        "TCAM compression of the Table 4 rules",
        &["level", "total_entries", "max_per_switch"],
        &compression_rows(
            &topo,
            tagging.rules(),
            ["exact-match", "inport-aggregated", "joint"],
        ),
    );
}

/// One Table 5 row's cells: a Jellyfish of `switches` switches with
/// `ports` ports each, half of them wired to servers, whose ELP is one
/// shortest path per ordered switch pair plus `extra` random walks. The
/// ELP is tagged by Algorithms 1+2 and compressed to TCAM entries; the
/// row reports the two scarce hardware resources (paper §3.3, §8.2):
/// lossless priorities and the largest per-switch table.
fn run_row(switches: usize, ports: usize, extra: usize, seed: u64) -> Vec<String> {
    let topo = JellyfishConfig::half_servers(switches, ports, seed).build();
    let mut elp = Elp::shortest(&topo, 1, false);
    elp.extend(random_paths(&topo, extra, seed ^ 0x5eed));
    let tagging = Tagging::from_elp(&topo, &elp).expect("tagging pipeline");
    let tcam = TcamProgram::compile(&topo, tagging.rules(), Compression::Joint);
    vec![
        switches.to_string(),
        ports.to_string(),
        elp.len().to_string(),
        extra.to_string(),
        elp.max_hops().to_string(),
        tagging.num_lossless_tags_on(&topo).to_string(),
        tagging.rules().max_rules_per_switch().to_string(),
        tcam.max_entries_per_switch().to_string(),
        if tagging.used_fallback() { "yes" } else { "no" }.to_string(),
    ]
}

/// **Table 5** — rules and priorities required for Jellyfish, up to 500
/// switches; the last row adds 1000 random paths, as the paper's does.
/// `large` replaces that row with the paper's sizes: 1000 switches, and
/// 2000 plus the random paths.
fn table5_jellyfish(large: bool) {
    // (switches, ports, extra random paths)
    let mut sizes = vec![(50, 12, 0), (100, 12, 0), (200, 16, 0), (500, 16, 0)];
    if large {
        sizes.extend([(1000, 24, 0), (2000, 24, 1000)]);
    } else {
        sizes.push((500, 16, 1000));
    }
    let rows: Vec<Vec<String>> = sizes
        .into_iter()
        .map(|(switches, ports, extra)| {
            let row = run_row(switches, ports, extra, 7);
            eprintln!(
                "jellyfish {switches}sw/{ports}p done: {} priorities, {} rules max",
                row[5], row[6]
            );
            row
        })
        .collect();
    print_table(
        "Table 5: rules and priorities required for Jellyfish \
         (half the ports per switch connect servers; ELP = shortest paths, \
         last row + random paths)",
        &[
            "switches",
            "ports",
            "elp_paths",
            "extra_random",
            "longest_lossless",
            "priorities",
            "max_rules_per_switch",
            "max_tcam_per_switch",
            "fallback",
        ],
        &rows,
    );
}

/// The lossless priorities a k-bounce ELP on the Clos `topo` gets from
/// the optimal Clos construction and from the generic Algorithm 1+2
/// pipeline, in that order.
///
/// The sampled ELP takes up to `cap_per_pair` paths per host pair *per
/// exact bounce count* `0..=k`, so every bounce class is represented —
/// otherwise a small cap could silently degrade the ELP to fewer bounces
/// and make the greedy column incomparable to the `k+1` lower bound.
fn clos_bounce_row(topo: &Topology, k: usize, cap_per_pair: usize) -> (usize, usize) {
    let optimal = clos_tagging(topo, k).expect("clos fabric");
    let hosts: Vec<_> = topo.host_ids().collect();
    let mut paths = Vec::new();
    for &s in &hosts {
        for &d in hosts.iter().filter(|&&d| d != s) {
            for j in 0..=k {
                let all =
                    bounce_paths_between_capped(topo, &FailureSet::none(), s, d, j, usize::MAX);
                paths.extend(
                    all.into_iter()
                        .filter(|p| p.bounces(topo) == j)
                        .take(cap_per_pair),
                );
            }
        }
    }
    let generic = Tagging::from_elp(topo, &Elp::from_paths(paths)).expect("pipeline");
    (
        optimal.num_lossless_tags_on(topo),
        generic.num_lossless_tags_on(topo),
    )
}

/// **§4.3/§4.4** — for each bounce budget k, the lossless priorities of
/// the optimal Clos construction (k+1, the paper's pigeonhole bound, which
/// counts flows that may bounce repeatedly at one switch) next to the
/// generic pipeline's on a sampled *loop-free* k-bounce ELP. The generic
/// column can drop below k+1 on small fabrics: loop-free paths cannot
/// realize the pigeonhole witness there, so fewer tags genuinely suffice
/// for that restricted path set — the certificate is verified either way.
fn clos_optimality() {
    let topo = ClosConfig::small().build();
    let rows: Vec<Vec<String>> = (0..=3usize)
        .map(|k| {
            let (optimal, generic) = clos_bounce_row(&topo, k, 6);
            [k, k + 1, optimal, generic]
                .iter()
                .map(ToString::to_string)
                .collect()
        })
        .collect();
    print_table(
        "Clos optimality: lossless priorities for k-bounce service \
         (paper 4.4: k+1 needed when flows may bounce anywhere, incl. loops; \
         greedy column serves a sampled loop-free ELP)",
        &[
            "k_bounces",
            "k_plus_1",
            "clos_construction",
            "greedy_on_loopfree_elp",
        ],
        &rows,
    );
}

/// **§5.3** — the paper: a k-level BCube with default routing needs only
/// k tags under Algorithm 2. BCube(n, k) has k+1 levels; its default
/// `BuildPathSet` routing uses all k+1 rotated digit-correction orders per
/// server pair, and intermediate *servers* forward packets, so their NIC
/// ingress queues join the buffer-dependency graph. Reports the tag count
/// under single-permutation routing (layered, 1 tag) and under full
/// multi-path routing.
fn bcube_tags() {
    let rows: Vec<Vec<String>> = [(2usize, 1usize), (4, 1), (3, 2), (2, 3)]
        .into_iter()
        .map(|(n, k)| {
            let cfg = BCubeConfig { n, k };
            let topo = bcube(n, k);
            let single = Elp::from_paths(bcube_paths(&cfg, &topo, false));
            let multi = Elp::from_paths(bcube_paths(&cfg, &topo, true));
            let t_single = Tagging::from_elp(&topo, &single).expect("pipeline");
            let t_multi = Tagging::from_elp(&topo, &multi).expect("pipeline");
            vec![
                format!("BCube({n},{k})"),
                cfg.num_servers().to_string(),
                cfg.num_switches().to_string(),
                (k + 1).to_string(),
                multi.len().to_string(),
                t_single.num_lossless_tags_on(&topo).to_string(),
                t_multi.num_lossless_tags_on(&topo).to_string(),
                t_multi.rules().max_rules_per_switch().to_string(),
            ]
        })
        .collect();
    print_table(
        "BCube: tags needed by Algorithm 1+2 (paper 5.3: a BCube with L \
         levels and default multi-path routing needs L tags)",
        &[
            "fabric",
            "servers",
            "switches",
            "levels",
            "multipath_elp",
            "tags_single_perm",
            "tags_multipath",
            "max_rules_per_switch",
        ],
        &rows,
    );
}

/// **§6** — N lossless classes each tolerating M bounces share M+N
/// priorities by offsetting, versus N(M+1) naively; every shared scheme
/// is verified deadlock-free.
fn multiclass_tags() {
    let topo = ClosConfig::small().build();
    let mut rows = Vec::new();
    for classes in 1..=4u16 {
        for bounces in 0..=2u16 {
            let mc = MultiClass { classes, bounces };
            let tagging = mc.clos_tagging(&topo).expect("clos");
            tagging.graph().verify().expect("deadlock-free");
            rows.push(vec![
                classes.to_string(),
                bounces.to_string(),
                (classes * (bounces + 1)).to_string(),
                mc.total_tags().to_string(),
                tagging.num_lossless_tags_on(&topo).to_string(),
            ]);
        }
    }
    print_table(
        "Multi-class tag sharing (paper 6): N classes, M bounces -> M+N tags",
        &[
            "classes_N",
            "bounces_M",
            "naive_N(M+1)",
            "shared_M+N",
            "verified_tags",
        ],
        &rows,
    );
}

/// **§7** — the paper derives `n(n−1)·m(m−1)/2` exact-match rules per
/// switch and shows InPort bitmap aggregation compresses them to
/// `n·m(m−1)/2`; joint aggregation does better still. Measures all three
/// levels on Clos and Jellyfish rule sets.
fn rule_compression() {
    let clos = ClosConfig::small().build();
    let jellyfish = JellyfishConfig::half_servers(30, 8, 5).build();
    let mut sets: Vec<(String, &Topology, Tagging)> = (1..=3)
        .map(|k| {
            let tagging = clos_tagging(&clos, k).expect("clos");
            (format!("clos-small k={k}"), &clos, tagging)
        })
        .collect();
    let elp = Elp::shortest(&jellyfish, 1, false);
    let tagging = Tagging::from_elp(&jellyfish, &elp).expect("pipeline");
    sets.push(("jellyfish-30".to_string(), &jellyfish, tagging));
    let rows: Vec<Vec<String>> = sets
        .iter()
        .flat_map(|(name, topo, tagging)| {
            compression_rows(topo, tagging.rules(), ["exact", "inport", "joint"])
                .into_iter()
                .map(move |mut row| {
                    row.insert(0, name.clone());
                    row
                })
        })
        .collect();
    print_table(
        "TCAM compression (paper 7): exact n(n-1)m(m-1)/2 -> inport \
         n*m(m-1)/2 -> joint",
        &["ruleset", "level", "total_entries", "max_per_switch"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagger::core::Tag;

    #[test]
    fn brute_force_needs_three_priorities() {
        let topo = fig5_topology();
        let g = tag_by_hop_count(&topo, &fig5_elp(&topo));
        g.verify().unwrap();
        // Longest path D->A->C->B->E has 4 hops; switch-ingress tags are
        // 1..=3 (tag 4 only appears on destination servers, Fig 5b).
        assert_eq!(g.num_lossless_tags(&topo), 3);
        assert_eq!(g.max_tag(), Some(Tag(4)));
    }

    #[test]
    fn greedy_reduces_to_two_priorities() {
        let topo = fig5_topology();
        let g = tag_by_hop_count(&topo, &fig5_elp(&topo));
        let merged = greedy_minimize(&topo, &g);
        merged.verify().unwrap();
        assert_eq!(merged.num_lossless_tags(&topo), 2);
    }

    #[test]
    fn full_pipeline_keeps_elp_lossless() {
        let topo = fig5_topology();
        let elp = fig5_elp(&topo);
        let t = Tagging::from_elp(&topo, &elp).unwrap();
        assert_eq!(t.num_lossless_tags_on(&topo), 2);
        assert!(!t.used_fallback());
        t.check_elp_lossless(&topo, &elp).unwrap();
    }

    #[test]
    fn table3_rule_dump_is_pinned() {
        // Golden test for the Table 3 shape: under Algorithm 1, each
        // switch's rules are identical by symmetry — port 0 faces the
        // server, ports 1 and 2 the peer switches.
        let topo = fig5_topology();
        let g = tag_by_hop_count(&topo, &fig5_elp(&topo));
        let rules = RuleSet::from_graph(&topo, &g).unwrap();
        for sw in ["A", "B", "C"] {
            let rows: Vec<String> = rules
                .rules_for(topo.expect_node(sw))
                .into_iter()
                .map(|r| format!("{} {} {} {}", r.tag, r.in_port, r.out_port, r.new_tag))
                .collect();
            assert_eq!(
                rows,
                vec![
                    "1 p0 p1 2", // fresh from the server, first hop
                    "1 p0 p2 2",
                    "2 p1 p0 3", // second hop: deliver or forward on
                    "2 p1 p2 3",
                    "2 p2 p0 3",
                    "2 p2 p1 3",
                    "3 p1 p0 4", // third hop: deliver to the server
                    "3 p2 p0 4",
                ],
                "switch {sw}"
            );
        }
    }

    #[test]
    fn single_priority_would_deadlock() {
        // The triangle detour paths alone create a CBD on one priority —
        // the reason the example needs two tags at all.
        let topo = fig5_topology();
        assert!(!tagger::core::decide(&topo, &fig5_elp(&topo), Some(1)).is_feasible());
    }

    #[test]
    fn small_jellyfish_row_is_cheap() {
        let row = run_row(10, 6, 0, 42);
        let cell = |i: usize| row[i].parse::<usize>().unwrap();
        let (priorities, max_rules, max_tcam) = (cell(5), cell(6), cell(7));
        assert_eq!(cell(0), 10);
        assert!(priorities <= 3, "priorities {priorities}");
        assert_eq!(row[8], "no", "fallback");
        assert!(max_tcam <= max_rules);
        assert!(cell(4) >= 1, "longest lossless route");
    }

    #[test]
    fn clos_row_matches_k_plus_one() {
        let topo = ClosConfig::small().build();
        let (optimal, generic) = clos_bounce_row(&topo, 1, 4);
        assert_eq!(optimal, 2);
        assert!(generic >= optimal && generic <= 3);
    }
}
