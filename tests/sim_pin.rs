//! The simulator's whole report, pinned.
//!
//! `sim.stats_digest` hashes only a scenario's `PointMetrics`, so it
//! cannot see the forwarding counters, the trigger stamps, the no-route
//! and TTL drops or the per-flow rate series. Each pin here is the FNV-1a
//! hash of a run's entire `SimReport` `Debug` rendering: any change to
//! what the simulator forwards, pauses, drops or samples moves it.
//! Change a pin only when the simulator's behaviour changes on purpose.

use std::path::Path;
use tagger::fleet::fnv64;
use tagger::scenario::{instantiate, parse, points, RunOptions};

/// Where a pinned scenario comes from.
enum Source {
    /// A file under `examples/scenarios/`.
    File(&'static str),
    /// Scenario text generated here.
    Text(&'static str),
}

/// A generated incast: 64 hosts, two 16-to-1 incasts under the
/// 1-bounce tagging.
const INCAST_64: &str = "scenario pin-incast
topo clos hosts 64
tagger bounces 1
workload incast 16 H5
workload incast 16 H40
end 600us
assert no-deadlock
";

/// A generated permutation: 64 hosts, each sending to one other.
const PERMUTATION_64: &str = "scenario pin-permutation
topo clos hosts 64
tagger bounces 1
workload permutation
end 200us
assert no-deadlock
";

/// An incast under PAUSE quanta: expiries and refreshes on every
/// congested hop.
const PAUSE_QUANTA: &str = "scenario pin-quanta
topo clos small
tagger bounces 1
pause-quanta 20us
workload incast 8 H1
flow H9 H2 limit 200_000
end 1ms
assert no-deadlock
";

/// `(scenario, FNV-1a of its first point's report)`. The simulator
/// on ordered maps and the one on dense tables both produce these.
const PINS: [(Source, u64); 7] = [
    (Source::Text(INCAST_64), 11357352333042767060),
    (Source::Text(PERMUTATION_64), 2315928697965857539),
    (Source::File("bcube_tagger.scn"), 8768885938456100842),
    (Source::Text(PAUSE_QUANTA), 4781241248035426954),
    (Source::File("watchdog_rescue.scn"), 17323715012248397848),
    // Scripted actions: FIB overrides (TTL drops) and controller deltas.
    (Source::File("fig11_tagger.scn"), 7326296973483637791),
    (
        Source::File("transient_controller.scn"),
        6690620590031675963,
    ),
];

fn report_digest(source: &Source) -> (String, u64) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let text = match source {
        Source::File(name) => std::fs::read_to_string(dir.join(name)).expect("scenario file"),
        Source::Text(text) => text.to_string(),
    };
    let scenario = parse(&text).expect("scenario parses");
    let point = points(&scenario).swap_remove(0);
    let opts = RunOptions {
        seed: None,
        base_dir: dir,
    };
    let experiment = instantiate(&scenario, &point, &opts).expect("scenario instantiates");
    let (report, _labels) = experiment.run();
    (scenario.name, fnv64(format!("{report:?}").as_bytes()))
}

#[test]
fn whole_reports_match_their_pins() {
    let mut moved = Vec::new();
    for (source, pin) in &PINS {
        let (name, digest) = report_digest(source);
        if digest != *pin {
            moved.push(format!("{name}: {digest} (pinned {pin})"));
        }
    }
    assert!(moved.is_empty(), "reports moved:\n{}", moved.join("\n"));
}
