//! Every fabric name the repository ships, pinned: the two checkpoint
//! fixtures' headers, each distinct `.scn` `topo` line, the command-line
//! `--topo` default, the planner's fabrics at their defaults and the
//! `.topo` fixture, all read as a `TopoSpec`. Each pin is the FNV-1a
//! hash of the built topology's `.topo` text, taken when each name
//! still had its own parser, so a change to how any of these names is
//! read or built moves a pin.

use std::collections::BTreeMap;
use std::path::Path;
use tagger::audit::checkpoint;
use tagger::fleet::fnv64;
use tagger::scenario::{instantiate, parse, RunOptions};
use tagger::topo::{TopoSpec, Topology};

fn repo(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The fabric a `.scn` `topo` line builds, at one sweep point.
fn scenario_topo(line: &str, hosts: u64) -> Topology {
    let text = format!("scenario names\n{line}\nsweep hosts 32..1024\nassert no-deadlock\n");
    let s = parse(&text).expect("scenario parses");
    let point = BTreeMap::from([("hosts".to_string(), hosts)]);
    let exp = instantiate(&s, &point, &RunOptions::default()).expect("scenario builds");
    exp.sim.topo().clone()
}

fn checkpoint_topo(path: &str) -> Topology {
    let header = checkpoint::parse_header(&repo(path)).expect("fixture parses");
    header.spec.build().expect("fixture builds")
}

fn spec_topo(text: &str) -> Topology {
    let spec: TopoSpec = text.parse().expect("spec parses");
    spec.build().expect("spec builds")
}

#[test]
fn every_shipped_fabric_name_builds_the_pinned_topology() {
    let defaults = tagger::cli::topo_spec(&Default::default())
        .expect("default parses")
        .build()
        .expect("default builds");
    let named: [(&str, Topology, u64); 11] = [
        (
            "examples/corrupted.ckpt",
            checkpoint_topo("examples/corrupted.ckpt"),
            0xe64e_5bb0_b502_58bf,
        ),
        (
            "examples/fig1_cycle.ckpt",
            checkpoint_topo("examples/fig1_cycle.ckpt"),
            0xb959_1230_1aac_4ec4,
        ),
        (
            "topo clos small",
            scenario_topo("topo clos small", 32),
            0xb959_1230_1aac_4ec4,
        ),
        (
            "topo bcube 2 1",
            scenario_topo("topo bcube 2 1", 32),
            0xa195_f510_16f4_97dd,
        ),
        (
            "topo clos hosts $hosts at 32",
            scenario_topo("topo clos hosts $hosts", 32),
            0x71d4_0e38_9793_f9de,
        ),
        (
            "topo clos hosts $hosts at 1024",
            scenario_topo("topo clos hosts $hosts", 1024),
            0x225b_fa86_99b7_4212,
        ),
        (
            "command-line default",
            defaults.clone(),
            0xb959_1230_1aac_4ec4,
        ),
        (
            "plan --topo 'clos small'",
            spec_topo("clos small"),
            0xb959_1230_1aac_4ec4,
        ),
        (
            "plan --topo 'fattree 4'",
            spec_topo("fattree 4"),
            0x61be_eeb3_4d62_6db7,
        ),
        (
            "plan --topo jellyfish",
            spec_topo("jellyfish"),
            0xffbf_1101_47e3_c3c5,
        ),
        (
            "plan --topo 'file examples/infeasible.topo'",
            spec_topo("file examples/infeasible.topo"),
            0x55b1_2954_772b_3836,
        ),
    ];
    let mut moved = Vec::new();
    for (name, topo, pin) in &named {
        let digest = fnv64(topo.to_spec_text().as_bytes());
        if digest != *pin {
            moved.push(format!("{name}: {digest:#018x} (pinned {pin:#018x})"));
        }
    }
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}
