//! Clos (leaf-spine) fabric builders.
//!
//! The 3-layer Clos built here matches the structure of the paper's
//! Figure 2: pods of ToR and Leaf switches, with every Leaf wired to every
//! Spine. Up-down (valley-free) routing over this fabric is deadlock-free;
//! deadlocks only appear when failures push packets onto *bounce* paths,
//! which is exactly the scenario Tagger is built for.

use crate::{Layer, NodeId, Topology};

/// Configuration for a 3-layer Clos fabric.
///
/// Structure: `pods` pods, each containing `tors_per_pod` ToR switches and
/// `leaves_per_pod` Leaf switches, fully meshed within the pod. Every Leaf
/// connects to every one of the `spines` Spine switches. Every ToR hosts
/// `hosts_per_tor` servers.
///
/// Naming follows the paper: spines `S1..`, leaves `L1..`, ToRs `T1..`,
/// hosts `H1..`, all 1-indexed in construction order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosConfig {
    /// Number of pods.
    pub pods: usize,
    /// Leaf switches per pod.
    pub leaves_per_pod: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Spine switches (each connects to every leaf).
    pub spines: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
}

impl ClosConfig {
    /// The paper's testbed fabric (Figure 2): 2 spines, 2 pods of 2 leaves
    /// and 2 ToRs each, 4 hosts per ToR — `S1..S2`, `L1..L4`, `T1..T4`,
    /// `H1..H16`.
    pub fn small() -> Self {
        ClosConfig {
            pods: 2,
            leaves_per_pod: 2,
            tors_per_pod: 2,
            spines: 2,
            hosts_per_tor: 4,
        }
    }

    /// A larger fabric for scalability-flavoured tests: 4 pods of 4+4,
    /// 8 spines, 8 hosts per ToR (128 hosts, 40 switches).
    pub fn medium() -> Self {
        ClosConfig {
            pods: 4,
            leaves_per_pod: 4,
            tors_per_pod: 4,
            spines: 8,
            hosts_per_tor: 8,
        }
    }

    /// The small fabric scaled to roughly `hosts` hosts: its 4 ToRs get
    /// `hosts / 4` hosts each, at least 1 — the `clos hosts N` preset.
    pub fn for_hosts(hosts: usize) -> Self {
        ClosConfig {
            hosts_per_tor: (hosts / 4).max(1),
            ..ClosConfig::small()
        }
    }

    /// Total switch count implied by the configuration.
    pub fn num_switches(&self) -> usize {
        self.spines + self.pods * (self.leaves_per_pod + self.tors_per_pod)
    }

    /// Total host count implied by the configuration.
    pub fn num_hosts(&self) -> usize {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Builds the topology.
    ///
    /// Construction order (and therefore `NodeId` order) is: spines, then
    /// per pod: leaves then ToRs, then all hosts. Links are wired spine-leaf
    /// first, then leaf-ToR, then ToR-host.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn build(&self) -> Topology {
        assert!(
            self.pods > 0
                && self.leaves_per_pod > 0
                && self.tors_per_pod > 0
                && self.spines > 0
                && self.hosts_per_tor > 0,
            "all Clos dimensions must be positive"
        );
        let mut t = Topology::new();

        let spines: Vec<NodeId> = (1..=self.spines)
            .map(|i| t.add_switch(format!("S{i}"), Layer::Spine))
            .collect();

        let mut leaves = Vec::new();
        let mut tors = Vec::new();
        for pod in 0..self.pods {
            for j in 0..self.leaves_per_pod {
                let idx = pod * self.leaves_per_pod + j + 1;
                leaves.push(t.add_switch(format!("L{idx}"), Layer::Leaf));
            }
            for j in 0..self.tors_per_pod {
                let idx = pod * self.tors_per_pod + j + 1;
                tors.push(t.add_switch(format!("T{idx}"), Layer::Tor));
            }
        }

        let mut hosts = Vec::new();
        for h in 1..=(self.pods * self.tors_per_pod * self.hosts_per_tor) {
            hosts.push(t.add_host(format!("H{h}")));
        }

        // Spine-leaf full mesh.
        for &leaf in &leaves {
            for &spine in &spines {
                t.connect(leaf, spine);
            }
        }
        // Leaf-ToR full mesh within each pod.
        for pod in 0..self.pods {
            for j in 0..self.tors_per_pod {
                let tor = tors[pod * self.tors_per_pod + j];
                for k in 0..self.leaves_per_pod {
                    let leaf = leaves[pod * self.leaves_per_pod + k];
                    t.connect(tor, leaf);
                }
            }
        }
        // Hosts under ToRs.
        for (hi, &host) in hosts.iter().enumerate() {
            let tor = tors[hi / self.hosts_per_tor];
            t.connect(host, tor);
        }

        debug_assert!(t.check_consistency().is_ok());
        t
    }
}

/// Builds a 2-layer leaf-spine Clos: `tors` ToR switches each wired to all
/// `spines` spine switches, with `hosts_per_tor` hosts per ToR.
///
/// Names: `S1..`, `T1..`, `H1..`.
pub fn clos2(tors: usize, spines: usize, hosts_per_tor: usize) -> Topology {
    assert!(tors > 0 && spines > 0 && hosts_per_tor > 0);
    let mut t = Topology::new();
    let spine_ids: Vec<NodeId> = (1..=spines)
        .map(|i| t.add_switch(format!("S{i}"), Layer::Spine))
        .collect();
    let tor_ids: Vec<NodeId> = (1..=tors)
        .map(|i| t.add_switch(format!("T{i}"), Layer::Tor))
        .collect();
    for &tor in &tor_ids {
        for &spine in &spine_ids {
            t.connect(tor, spine);
        }
    }
    for (i, &tor) in tor_ids.iter().enumerate() {
        for h in 0..hosts_per_tor {
            let host = t.add_host(format!("H{}", i * hosts_per_tor + h + 1));
            t.connect(host, tor);
        }
    }
    debug_assert!(t.check_consistency().is_ok());
    t
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn small_matches_paper_figure2() {
        let c = ClosConfig::small();
        let t = c.build();
        assert_eq!(t.num_switches(), 10); // 2 spines + 4 leaves + 4 ToRs
        assert_eq!(t.num_hosts(), 16);
        // Every leaf connects to every spine.
        for l in 1..=4 {
            let leaf = t.expect_node(&format!("L{l}"));
            for s in 1..=2 {
                let spine = t.expect_node(&format!("S{s}"));
                assert!(t.link_between(leaf, spine).is_some(), "L{l}-S{s} missing");
            }
        }
        // T1 is in pod 1: connects to L1, L2 but not L3, L4.
        let t1 = t.expect_node("T1");
        assert!(t.link_between(t1, t.expect_node("L1")).is_some());
        assert!(t.link_between(t1, t.expect_node("L2")).is_some());
        assert!(t.link_between(t1, t.expect_node("L3")).is_none());
        // T3 is in pod 2: connects to L3, L4.
        let t3 = t.expect_node("T3");
        assert!(t.link_between(t3, t.expect_node("L3")).is_some());
        assert!(t.link_between(t3, t.expect_node("L1")).is_none());
        // H1..H4 under T1, H5..H8 under T2.
        assert_eq!(t.attached_switch(t.expect_node("H1")), Some(t1));
        assert_eq!(
            t.attached_switch(t.expect_node("H5")),
            Some(t.expect_node("T2"))
        );
    }

    #[test]
    fn link_count_is_exact() {
        let c = ClosConfig::small();
        let t = c.build();
        // spine-leaf: 4*2 = 8; leaf-tor: 2 pods * (2*2) = 8; host: 16.
        assert_eq!(t.num_links(), 8 + 8 + 16);
    }

    #[test]
    fn medium_builds_consistent() {
        let t = ClosConfig::medium().build();
        t.check_consistency().unwrap();
        assert_eq!(t.num_switches(), ClosConfig::medium().num_switches());
        assert_eq!(t.num_hosts(), ClosConfig::medium().num_hosts());
    }

    #[test]
    fn clos2_wires_full_mesh() {
        let t = clos2(4, 2, 2);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_hosts(), 8);
        for i in 1..=4 {
            for s in 1..=2 {
                assert!(t
                    .link_between(
                        t.expect_node(&format!("T{i}")),
                        t.expect_node(&format!("S{s}"))
                    )
                    .is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        ClosConfig {
            pods: 0,
            ..ClosConfig::small()
        }
        .build();
    }
}
