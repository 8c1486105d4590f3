//! # tagger-bench — the experiment harness
//!
//! Shared fixtures and runners behind the binaries that regenerate the
//! paper's planner and switch tables (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for recorded results). The simulated
//! figures are the `.scn` files under `examples/scenarios/`, run by
//! `tagger-scenario`.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (reroute probability) | `table1_reroute` |
//! | Tables 3/4 + Fig. 5 (walk-through rules) | `table34_rules` |
//! | Table 5 (Jellyfish scalability) | `table5_jellyfish` |
//! | §4.4 optimality | `clos_optimality` |
//! | §5.3 BCube tag count | `bcube_tags` |
//! | §7 rule compression | `rule_compression` |
//! | §6 multi-class sharing | `multiclass_tags` |
//! | a frozen queue, from inside the switch | `queue_dynamics` |
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod fig5;
pub mod table5;

/// Prints a TSV table with an echoed title comment, the common output
/// format of the experiment binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}
