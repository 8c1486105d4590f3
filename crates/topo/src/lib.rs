//! # tagger-topo — data-center topology substrate
//!
//! Port-level network topologies for the Tagger reproduction. A
//! [`Topology`] is a multigraph of [`Node`]s (hosts and switches) joined by
//! point-to-point [`Link`]s between specific ports. Ports matter: Tagger's
//! tagging rules are expressed over *(ingress port, tag)* pairs, and PFC
//! PAUSE frames act on individual ports, so the substrate keeps port
//! identities first-class instead of collapsing them into plain edges.
//!
//! Builders are provided for the topologies used in the paper:
//!
//! - [`ClosConfig`] — 2- and 3-layer Clos (leaf-spine) fabrics, including
//!   the 6-server testbed of the paper's Figure 2,
//! - [`fat_tree`] — the canonical k-ary FatTree,
//! - [`bcube`] — BCube(n, k) server-centric fabrics,
//! - [`JellyfishConfig`] — random regular-graph (Jellyfish) fabrics used in
//!   the paper's Table 5 scalability study.
//!
//! Every tool names a fabric with one [`TopoSpec`] (`clos small`,
//! `jellyfish switches=16 ports=6 seed=7`, `file ring.topo`, ...), parsed,
//! rendered and built in one place.
//!
//! Link failures are modelled non-destructively with [`FailureSet`]: a
//! failure set overlays a topology and masks links without mutating the
//! underlying graph, so "before failure" and "after failure" views coexist.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod bcube;
mod clos;
mod dot;
mod fabric;
mod failure;
mod fattree;
mod ids;
mod jellyfish;
pub mod span;
mod spec;
mod topology;

pub use bcube::{bcube, BCubeConfig};
pub use clos::{clos2, ClosConfig};
pub use fabric::{Family, TopoSpec};
pub use failure::{did_you_mean, nearest_names, resolve_link, FailureSet, LinkLookupError};
pub use fattree::fat_tree;
pub use ids::{GlobalPort, LinkId, NodeId, PortId};
pub use jellyfish::JellyfishConfig;
pub use spec::{SpecError, SpecFile};
pub use topology::{Layer, Link, Node, NodeKind, Topology};
