//! # Tagger — practical PFC deadlock prevention for data center networks
//!
//! This crate is the umbrella facade of a full reproduction of
//! *"Tagger: Practical PFC Deadlock Prevention in Data Center Networks"*
//! (Hu et al., CoNEXT 2017). It re-exports the workspace crates:
//!
//! - [`topo`] — data-center topologies (Clos, FatTree, BCube, Jellyfish)
//!   with port-level links, layers and failure injection.
//! - [`routing`] — up-down / shortest-path / BCube routing, k-bounce
//!   expected-lossless-path (ELP) expansion, reroute and loop injection.
//! - [`core`] — the paper's contribution: tagged-graph generation
//!   (Algorithms 1 and 2), the optimal Clos construction, deadlock-freedom
//!   verification, match-action rule generation and TCAM compression.
//! - [`switch`] — a shared-buffer PFC switch model with per-priority
//!   ingress/egress queues and the three-step Tagger pipeline.
//! - [`sim`] — a deterministic discrete-event network simulator used to
//!   reproduce the paper's testbed experiments (deadlock formation, PAUSE
//!   propagation, routing loops and performance-penalty runs).
//!
//! ## Quickstart
//!
//! ```
//! use tagger::prelude::*;
//!
//! // Build a small 3-layer Clos fabric.
//! let topo = ClosConfig::small().build();
//!
//! // The operator wants shortest up-down paths plus 1-bounce reroutes
//! // to stay lossless.
//! let elp = Elp::updown_with_bounces(&topo, 1);
//!
//! // Tag it: the Clos-optimal construction needs k+1 = 2 lossless queues.
//! let tagging = clos_tagging(&topo, 1).expect("clos topology");
//! assert_eq!(tagging.num_lossless_tags_on(&topo), 2);
//!
//! // The result is certified deadlock-free, and every path in the ELP
//! // really stays lossless under the compiled rules.
//! tagging.graph().verify().expect("deadlock-free");
//! tagging.check_elp_lossless(&topo, &elp).expect("lossless");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tagger_audit as audit;
pub use tagger_core as core;
pub use tagger_ctrl as ctrl;
pub use tagger_fleet as fleet;
pub use tagger_lint as lint;
pub use tagger_routing as routing;
pub use tagger_scenario as scenario;
pub use tagger_sim as sim;
pub use tagger_switch as switch;
pub use tagger_topo as topo;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use tagger_core::{
        clos::clos_tagging, greedy_minimize, tag_by_hop_count, Elp, Tag, TaggedGraph, Tagging,
    };
    pub use tagger_ctrl::{Controller, CtrlEvent, ElpPolicy};
    pub use tagger_fleet::{FabricSpec, Fleet, FleetConfig};
    pub use tagger_routing::{updown_paths, Path};
    pub use tagger_sim::{Experiment, Simulator};
    pub use tagger_topo::{ClosConfig, Layer, NodeId, Topology};
}

/// Command-line parsing shared by the five `tagger-*` binaries: a flag
/// or an argument a subcommand does not take is refused, never skipped.
pub mod cli {
    use std::collections::BTreeMap;
    use std::str::FromStr;
    use tagger_core::tcam::MAX_PORTS;
    use tagger_ctrl::CtrlError;
    use tagger_topo::{TopoSpec, Topology};

    /// Flags seen on a command line, keyed by name without the `--`;
    /// a valueless switch maps to the empty string.
    pub type Flags = BTreeMap<String, String>;

    /// Splits `rest` into positional arguments and `--flag` options.
    /// `positionals` is the most positional arguments the subcommand
    /// takes (`usize::MAX` for a file list), `known` names the flags
    /// that take a value, `switches` the valueless ones. A positional
    /// past the limit, any other `--name`, or a `known` flag with
    /// nothing after it is an error naming the argument.
    pub fn parse_args(
        rest: &[String],
        positionals: usize,
        known: &[&str],
        switches: &[&str],
    ) -> Result<(Vec<String>, Flags), String> {
        let mut positional = Vec::new();
        let mut flags = Flags::new();
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if positional.len() == positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                positional.push(arg.clone());
                continue;
            };
            if switches.contains(&name) {
                flags.insert(name.to_string(), String::new());
            } else if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            } else if let Some(value) = args.next() {
                flags.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("--{name} needs a value"));
            }
        }
        Ok((positional, flags))
    }

    /// The fabric `--topo '<spec>'` names, `clos small` when the flag is
    /// absent — the one fabric flag of `tagger-plan`, `tagger-fleetd
    /// replay`, `tagger-audit check --journal` and `tagger-lint check`.
    pub fn topo_spec(flags: &Flags) -> Result<TopoSpec, String> {
        let text = flags.get("topo").map_or("clos small", String::as_str);
        text.parse().map_err(|e| format!("--topo: {e}"))
    }

    /// The fabric `--topo` names, built for a live controller: the first
    /// switch outside the layers, or with more ports than a TCAM port
    /// bitmap matches, is refused with the controller's own error before
    /// anything journals on it.
    pub fn controller_topo(flags: &Flags) -> Result<(TopoSpec, Topology), String> {
        let spec = topo_spec(flags)?;
        let topo = spec.build().map_err(|e| format!("--topo: {e}"))?;
        for node in topo.switch_ids().map(|sw| topo.node(sw)) {
            let refusal = if node.layer.rank().is_none() {
                CtrlError::UnrankedSwitch(node.name.clone())
            } else if node.num_ports() > usize::from(MAX_PORTS) {
                CtrlError::TooManyPorts(node.name.clone(), node.num_ports())
            } else {
                continue;
            };
            return Err(format!("--topo: `{spec}` {refusal}"));
        }
        Ok((spec, topo))
    }

    /// The value of `--key` as a number, if the flag was given.
    pub fn get_opt<T: FromStr>(flags: &Flags, key: &str) -> Result<Option<T>, String> {
        flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} wants a number, got `{v}`"))
            })
            .transpose()
    }

    /// The value of `--key` as a number, or `default` when the flag was
    /// not given.
    pub fn get<T: FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
        Ok(get_opt(flags, key)?.unwrap_or(default))
    }

    /// The text of the file at `path`, or all of stdin when no path was
    /// given — how the stream-reading subcommands take their input.
    pub fn read_input(path: Option<&str>) -> Result<String, String> {
        match path {
            Some(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            }
            None => std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string()),
        }
    }
}
