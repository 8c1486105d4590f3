//! Expected Lossless Paths (ELP): the operator's input to Tagger.

use tagger_routing::{path_tree_with_bounces, shortest_paths_all_pairs, Path, PathTree};
use tagger_topo::{FailureSet, Topology};

/// The set of paths the operator requires to stay lossless (paper §4.1).
///
/// Any loop-free route may be included — loop-freedom is the only
/// requirement, and [`Path`] construction already enforces it. Common
/// recipes are provided as constructors; arbitrary path sets can be
/// assembled with [`Elp::from_paths`].
///
/// The paths are kept as the prefix tree of their sequence
/// ([`PathTree`]), not as a list: every pass over an ELP — Algorithm 1,
/// the repair sweep, the losslessness check — is a sweep of that tree,
/// and an enumerated ELP is several times smaller as one.
///
/// Packets that leave the ELP (failures, misconfigured routes, loops) are
/// demoted to the lossy class by the rule set's fallback entry; they are
/// *not* necessarily dropped — they merely stop triggering PFC.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Elp {
    tree: PathTree,
}

impl Elp {
    /// Wraps an explicit path sequence.
    pub fn from_paths(paths: Vec<Path>) -> Self {
        Elp {
            tree: paths.into_iter().collect(),
        }
    }

    /// All loop-free up-down paths between every host pair — the default
    /// ELP for a healthy Clos fabric.
    pub fn updown(topo: &Topology) -> Self {
        Self::updown_with_bounces(topo, 0)
    }

    /// Up-down paths plus every path with at most `k` bounces: the ELP
    /// that keeps traffic lossless across up to `k` reroutes (paper §4.3).
    pub fn updown_with_bounces(topo: &Topology, k: usize) -> Self {
        Self::updown_with_bounces_capped(topo, k, usize::MAX)
    }

    /// Like [`Elp::updown_with_bounces`] with a per-pair enumeration cap,
    /// for larger fabrics.
    pub fn updown_with_bounces_capped(topo: &Topology, k: usize, cap_per_pair: usize) -> Self {
        Self::updown_with_bounces_under(topo, &FailureSet::none(), k, cap_per_pair)
    }

    /// Like [`Elp::updown_with_bounces_capped`] on the fabric that is left
    /// when `failures` are taken out. The enumerator fills the tree
    /// directly: the paths never exist as a list.
    pub fn updown_with_bounces_under(
        topo: &Topology,
        failures: &FailureSet,
        k: usize,
        cap_per_pair: usize,
    ) -> Self {
        Elp {
            tree: path_tree_with_bounces(topo, failures, k, cap_per_pair),
        }
    }

    /// Up to `cap_per_pair` shortest paths between every ordered pair of
    /// hosts (`between_hosts`) or switches — the ELP used for Jellyfish
    /// fabrics in the paper's Table 5.
    pub fn shortest(topo: &Topology, cap_per_pair: usize, between_hosts: bool) -> Self {
        Self::from_paths(shortest_paths_all_pairs(
            topo,
            &FailureSet::none(),
            cap_per_pair,
            between_hosts,
        ))
    }

    /// The paths, in sequence order, each rebuilt from the tree.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = Path> + '_ {
        self.tree.paths()
    }

    /// The `index`-th path.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn path(&self, index: usize) -> Path {
        self.tree.path(index)
    }

    /// The prefix tree the paths are kept as.
    pub fn tree(&self) -> &PathTree {
        &self.tree
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Adds more paths (e.g. operator-chosen redundant routes).
    pub fn extend(&mut self, paths: impl IntoIterator<Item = Path>) {
        for path in paths {
            self.tree.push(&path);
        }
    }

    /// Keeps only the paths `keep` accepts, in order.
    pub fn retain(&mut self, keep: impl FnMut(&Path) -> bool) {
        self.tree.retain(keep);
    }

    /// Longest path length in hops (`T` bound of paper §5.3), 0 if empty.
    pub fn max_hops(&self) -> usize {
        self.tree.max_hops()
    }

    /// True if `path` is in the set.
    pub fn contains(&self, path: &Path) -> bool {
        self.tree.contains(path)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn updown_elp_has_no_bounces() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        assert!(!elp.is_empty());
        for p in elp.paths() {
            assert!(p.is_updown(&topo));
        }
    }

    #[test]
    fn bounce_elp_strictly_larger() {
        let topo = ClosConfig::small().build();
        let zero = Elp::updown(&topo);
        let one = Elp::updown_with_bounces(&topo, 1);
        assert!(one.len() > zero.len());
        for p in zero.paths() {
            assert!(one.contains(&p));
        }
    }

    #[test]
    fn max_hops_on_small_clos() {
        let topo = ClosConfig::small().build();
        let elp = Elp::updown(&topo);
        // Longest loop-free up-down path: H-T-L-S-L-T-H has 6 hops and
        // within-pod spine detours have the same length.
        assert_eq!(elp.max_hops(), 6);
    }

    #[test]
    fn retain_filters_in_order() {
        let topo = ClosConfig::small().build();
        let all = Elp::updown(&topo);
        let h1 = topo.expect_node("H1");
        let mut elp = all.clone();
        elp.retain(|p| p.src() == h1);
        let expected: Vec<_> = all.paths().filter(|p| p.src() == h1).collect();
        assert!(!expected.is_empty() && expected.len() < all.len());
        assert_eq!(elp.paths().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn extend_appends() {
        let topo = ClosConfig::small().build();
        let mut elp = Elp::default();
        assert!(elp.is_empty());
        elp.extend(Elp::updown(&topo).paths().take(3));
        assert_eq!(elp.len(), 3);
    }
}
