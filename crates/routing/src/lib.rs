//! # tagger-routing — routing substrate for Tagger
//!
//! Everything Tagger needs to know about *where packets may travel*:
//!
//! - [`Path`] — a validated, loop-free node sequence with port resolution,
//!   up/down classification and bounce counting; [`PathTree`] stores a
//!   path sequence as its prefix tree, which passes over the paths sweep
//!   instead of walking every path.
//! - [`updown_paths`] / [`updown_paths_between`] — valley-free (up-down)
//!   path enumeration over layered fabrics (Clos, FatTree).
//! - [`bounce_paths_between`] / [`all_paths_with_bounces`] /
//!   [`path_tree_with_bounces`] — the k-bounce expansion of an up-down ELP
//!   (paper §4.3): paths that violate the up-down rule at most `k` times,
//!   the result of failures and reroutes.
//! - [`shortest_paths_between`] / [`ShortestPaths`] — BFS shortest-path
//!   enumeration for unstructured (Jellyfish) fabrics, and
//!   [`random_paths`], the random walks Table 5 adds to that ELP.
//! - [`bcube_paths`] — BCube's default single-path routing.
//! - [`Fib`] — per-switch destination-based forwarding tables with ECMP
//!   and override entries (used to inject the routing loop of the paper's
//!   Figure 11 and the reroutes of Figure 3).
//!
//! The split from `tagger-core` is deliberate: routing produces candidate
//! lossless paths; Tagger consumes them as an opaque ELP set. Nothing in
//! the tagging algorithms depends on *how* the paths were computed.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod bcube;
mod bounce;
mod fib;
mod path;
mod shortest;
mod updown;

pub use bcube::bcube_paths;
pub use bcube::{bcube_route, bcube_route_rotated};
pub use bounce::bounce_paths_between_capped;
pub use bounce::{all_paths_with_bounces, bounce_paths_between, path_tree_with_bounces};
pub use fib::{EcmpMode, Fib};
pub use path::{Path, PathError, PathTree};
pub use shortest::enumerate_from_dag;
pub use shortest::{
    random_paths, shortest_path_dag, shortest_paths_all_pairs, shortest_paths_between,
    ShortestPaths,
};
pub use updown::{updown_paths, updown_paths_between, updown_paths_between_switches};
