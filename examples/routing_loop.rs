//! A transient routing loop must not take down the network (the paper's
//! Figure 11): a misconfigured route bounces packets between a ToR and a
//! Leaf. Without Tagger, the looping *lossless* packets form a cyclic
//! buffer dependency and an innocent flow through the same links freezes
//! forever — even though the loop's packets all die of TTL. With Tagger,
//! the loopers fall into the lossy class at the first hairpin and the
//! innocent flow never notices. The two runs are
//! `examples/scenarios/fig11_vanilla.scn` and `fig11_tagger.scn`.
//!
//! ```sh
//! cargo run --release --example routing_loop
//! ```

use std::collections::BTreeMap;
use tagger::scenario::{instantiate, parse, RunOptions};

fn main() {
    for (with_tagger, scn) in [
        (false, include_str!("scenarios/fig11_vanilla.scn")),
        (true, include_str!("scenarios/fig11_tagger.scn")),
    ] {
        let scenario = parse(scn).expect("shipped scenario parses");
        let exp = instantiate(&scenario, &BTreeMap::new(), &RunOptions::default())
            .expect("shipped scenario expands");
        let (report, labels) = exp.run();
        println!(
            "=== {} Tagger ===",
            if with_tagger { "WITH" } else { "WITHOUT" }
        );
        println!(
            "loop installed at t={} µs; deadlock: {}",
            scenario.end_ns / 5 / 1_000, // the `route ... @20%` lines
            match &report.deadlock {
                Some(d) => format!("YES at t={} µs", d.detected_at / 1_000),
                None => "no".to_string(),
            }
        );
        for (flow, label) in report.flows.iter().zip(&labels) {
            println!(
                "{label}: final rate {:.2} Gb/s, ttl-drops {}{}",
                flow.tail_rate(5) / 1e9,
                flow.ttl_drops,
                if flow.frozen(5) { "  [no goodput]" } else { "" }
            );
        }
        println!(
            "lossy drops {}, lossless drops {}\n",
            report.switch.lossy_drops, report.switch.lossless_drops
        );
    }
    println!(
        "F1's goodput is zero in both runs (its packets loop until TTL \
         death); the difference is F2: frozen without Tagger, untouched with."
    );
}
