//! Bring your own topology: parse a fabric from the plain-text spec
//! format, tag it, and certify deadlock freedom — the library side of
//! what `tagger-plan --topo 'file PATH'` does.
//!
//! ```sh
//! cargo run --example custom_fabric
//! ```

use tagger::core::{Elp, Tagging};
use tagger::topo::Topology;

const FABRIC: &str = "
# An asymmetric two-tier fabric with a cross-link between the ToRs —
# not a Clos, so up-down reasoning does not apply and the generic
# pipeline has to work for its money.
node S1 switch flat
node S2 switch flat
node T1 switch flat
node T2 switch flat
node T3 switch flat
node H1 host
node H2 host
node H3 host
node H4 host
link T1 S1
link T1 S2
link T2 S1
link T3 S2
link T1 T2            # the troublemaker: a lateral ToR-to-ToR link
link H1 T1
link H2 T2
link H3 T3
link H4 T3 10000000000 2000   # a slower, longer access link
";

fn main() {
    let topo = Topology::from_spec_text(FABRIC).expect("valid spec");
    println!(
        "parsed: {} switches, {} hosts, {} links",
        topo.num_switches(),
        topo.num_hosts(),
        topo.num_links()
    );

    // Host-to-host shortest-path ELP (all equal-cost paths).
    let elp = Elp::shortest(&topo, usize::MAX, true);
    println!(
        "ELP: {} shortest paths, longest {} hops",
        elp.len(),
        elp.max_hops()
    );

    let tagging = Tagging::from_elp(&topo, &elp).expect("pipeline");
    tagging.graph().verify().expect("deadlock-free");
    tagging.check_elp_lossless(&topo, &elp).expect("lossless");
    println!(
        "tagged: {} lossless priorities, {} rules (max {}/switch), {} repairs",
        tagging.num_lossless_tags_on(&topo),
        tagging.rules().num_rules(),
        tagging.rules().max_rules_per_switch(),
        tagging.repairs()
    );

    // Round-trip the spec to show the emitter.
    let text = topo.to_spec_text();
    let again = Topology::from_spec_text(&text).expect("round trip");
    assert_eq!(again.num_links(), topo.num_links());
    println!("\nspec round-trips; emitted form:\n{text}");
}
