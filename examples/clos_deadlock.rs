//! The paper's headline scenario (Figures 3 and 10): two rerouted flows
//! close a cyclic buffer dependency and freeze the fabric — unless
//! Tagger is deployed.
//!
//! Runs `examples/scenarios/fig10_vanilla.scn` and `fig10_tagger.scn`
//! (the same packet-level simulation without/with Tagger) and prints
//! the two flows' goodput over time.
//!
//! ```sh
//! cargo run --release --example clos_deadlock
//! ```

use std::collections::BTreeMap;
use tagger::scenario::{instantiate, parse, RunOptions};

fn main() {
    for (with_tagger, scn) in [
        (false, include_str!("scenarios/fig10_vanilla.scn")),
        (true, include_str!("scenarios/fig10_tagger.scn")),
    ] {
        let scenario = parse(scn).expect("shipped scenario parses");
        let exp = instantiate(&scenario, &BTreeMap::new(), &RunOptions::default())
            .expect("shipped scenario expands");
        let (report, labels) = exp.run();
        println!(
            "=== {} Tagger ===",
            if with_tagger { "WITH" } else { "WITHOUT" }
        );
        match &report.deadlock {
            Some(d) => println!(
                "deadlock detected at t={} µs; witness cycle of {} gated queues",
                d.detected_at / 1_000,
                d.cycle.len()
            ),
            None => println!("no deadlock"),
        }
        for (flow, label) in report.flows.iter().zip(&labels) {
            println!(
                "{label}: delivered {:.1} MB, final rate {:.2} Gb/s{}",
                flow.delivered_bytes as f64 / 1e6,
                flow.tail_rate(5) / 1e9,
                if flow.stalled(5) { "  [FROZEN]" } else { "" }
            );
        }
        // A compact rate timeline (Gb/s per 100 µs sample).
        for (flow, label) in report.flows.iter().zip(&labels) {
            let spark: String = flow
                .rate_series
                .iter()
                .step_by(4)
                .map(|r| match (r / 1e9) as u64 {
                    0 => '.',
                    1..=9 => '▂',
                    10..=19 => '▄',
                    20..=29 => '▆',
                    _ => '█',
                })
                .collect();
            println!("{label:>16} |{spark}|");
        }
        println!();
    }
    println!("(each column = 400 µs; '.' means zero goodput)");
}
