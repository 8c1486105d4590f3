//! The deadlock-freedom **existence oracle**: a decision procedure for
//! "does *any* deadlock-free tagging of this ELP set fit in a given
//! number of lossless priorities?" — independent of whether Algorithms
//! 1+2 happen to construct one.
//!
//! # The condition
//!
//! By Theorem 5.1 a tagging is deadlock-free iff every per-tag subgraph
//! of the tagged graph is acyclic and no hop decreases the tag. Because
//! tags are monotone along a path, a tagging with `b` tags is exactly a
//! partition of every path into at most `b` consecutive *segments*
//! (segment `t` carries tag `t`) such that, per layer `t`, the union of
//! intra-segment buffer-dependency edges — consecutive ingress-port
//! pairs — is acyclic. Hence:
//!
//! - an ELP set is feasible within **one** tag iff the union of all its
//!   dependency edges is acyclic (decided exactly by cycle detection);
//! - it is feasible within `b` tags iff such a `b`-layer partition
//!   exists. Since every path is loop-free, `tag_by_hop_count` always
//!   yields *some* finite tagging — infeasibility is therefore always
//!   relative to a **budget** (by default the eight 802.1Qbb lossless
//!   priority classes, [`HARDWARE_TAG_CEILING`]).
//!
//! A key structural fact makes the search complete and the pruning
//! sound: feasibility of completing the remaining suffixes in `b − t`
//! layers is **monotone in the frontier** (if a completion exists from
//! per-path progress `f`, it exists from any `f' ≥ f`: restrict the
//! completion's segments to the unplaced suffix — per-layer edge sets
//! only shrink). Consequently (a) every solution normalizes to one
//! where each unfinished path advances at least one hop per layer (the
//! first hop of a segment contributes no edge), and (b) a frontier that
//! failed at layer `t` dominates — and refutes — any lesser frontier.
//!
//! # Verdicts
//!
//! [`decide`] returns [`Verdict::Feasible`] with a proven
//! `lower_bound_tags`, the `tags_used` by the best found layering, and
//! a [`WitnessOrder`] — per-layer topological orders over ingress
//! ports, re-checkable in linear time by [`WitnessOrder::recheck`] —
//! or [`Verdict::Infeasible`] with a **minimal kernel**: a sub-ELP set
//! that is still infeasible but where dropping *any* single path flips
//! the verdict (shrunk greedily; feasibility is monotone under taking
//! subsets, so one greedy pass suffices), plus a dependency cycle from
//! the kernel's edge union to quote in diagnostics.
//!
//! On instances too large for the exhaustive layer search the oracle
//! stays deterministic and conservative: a `Feasible` answer is always
//! certified by its witness, while an `Infeasible` answer carries
//! `exhaustive = false` when the search was capped rather than
//! completed.

use crate::digraph::Digraph;
use crate::ports::PortIndexer;
use crate::Elp;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::rc::Rc;
use tagger_topo::{GlobalPort, Topology};

/// The 802.1Qbb hard ceiling: PFC distinguishes eight priority
/// classes, so no deployment can use more than eight lossless tags.
/// [`decide`] uses this as the budget when none is given.
pub const HARDWARE_TAG_CEILING: usize = 8;

/// Above this many total ELP hops the exhaustive layer search is
/// skipped and the oracle falls back to the greedy layering alone
/// (answers stay sound; `Infeasible` is then marked non-exhaustive).
const EXACT_SEARCH_HOP_LIMIT: usize = 200;

/// Cap on layer-search tree nodes before giving up conservatively.
const SEARCH_NODE_CAP: usize = 100_000;

/// The oracle's answer for one `(topology, ELP, budget)` instance.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A deadlock-free tagging exists within the budget.
    Feasible(Feasible),
    /// No deadlock-free tagging fits in the budget (exactly, when
    /// `exhaustive`; conservatively otherwise).
    Infeasible(Infeasible),
}

impl Verdict {
    /// True for [`Verdict::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible(_))
    }

    /// A one-line operator-facing summary of the verdict.
    pub fn summary(&self) -> String {
        match self {
            Verdict::Feasible(f) => format!(
                "feasible: a deadlock-free tagging exists within {} tag(s) (proven minimum >= {})",
                f.tags_used, f.lower_bound_tags
            ),
            Verdict::Infeasible(i) => format!(
                "infeasible within {} tag(s): minimal kernel of {} path(s), at least {} tag(s) required{}",
                i.budget,
                i.kernel.len(),
                i.lower_bound_tags,
                if i.exhaustive { "" } else { " (search capped; verdict conservative)" }
            ),
        }
    }
}

/// Existence certificate: a layering of every path into at most
/// `tags_used` monotone segments with per-layer acyclic dependencies.
#[derive(Clone, Debug)]
pub struct Feasible {
    /// Proven floor on the number of lossless tags any deadlock-free
    /// tagging of this ELP needs. Equals `tags_used` when the oracle
    /// settled the minimum exactly.
    pub lower_bound_tags: usize,
    /// Tags used by the witness layering (an upper bound on the
    /// minimum).
    pub tags_used: usize,
    /// The re-checkable certificate.
    pub witness: WitnessOrder,
}

/// Infeasibility counterexample.
#[derive(Clone, Debug)]
pub struct Infeasible {
    /// The budget the instance was decided against.
    pub budget: usize,
    /// Proven floor on the tags required (`budget + 1` when the search
    /// was exhaustive, else the best floor actually proven).
    pub lower_bound_tags: usize,
    /// Indices ([`Elp::path`]) of a minimal infeasible sub-ELP:
    /// dropping any single kernel path makes the rest feasible.
    /// Guaranteed minimal whenever `exhaustive` is true; a capped
    /// (conservative) verdict on a very large instance may skip the
    /// shrink and return a larger set.
    pub kernel: Vec<usize>,
    /// A buffer-dependency cycle in the kernel's edge union — the
    /// concrete structure to quote in diagnostics. Consecutive ports
    /// (wrapping) are each a dependency edge of some kernel path.
    pub cycle: Vec<GlobalPort>,
    /// True when the verdict is a completed proof; false when the
    /// layer search hit its cap and the answer is conservative.
    pub exhaustive: bool,
}

/// A feasibility certificate: per-layer topological orders over the
/// ingress ports plus the per-path, per-hop layer assignment.
///
/// Re-checkable in linear time, like `AuditCertificate`: monotone
/// layers along each path, and every same-layer hop pair strictly
/// forward in that layer's order — which certifies per-layer
/// acyclicity without re-running cycle detection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessOrder {
    /// For each layer (tag − 1), a topological order of the ingress
    /// ports that layer uses.
    pub layers: Vec<Vec<GlobalPort>>,
    /// For each ELP path, the 1-based layer of each hop
    /// (non-decreasing along the path).
    pub assignment: Vec<Vec<u16>>,
}

impl WitnessOrder {
    /// Number of tags the witness uses.
    pub fn num_tags(&self) -> usize {
        self.layers.len()
    }

    /// Linear re-check of the certificate against `(topo, elp)`.
    ///
    /// Verifies shape (one layer value per hop), monotonicity, layer
    /// bounds, and that consecutive same-layer hops appear strictly
    /// forward in that layer's published order. Any topological-order
    /// violation would exhibit a cycle, so success certifies Theorem
    /// 5.1's conditions for the induced tagging.
    pub fn recheck(&self, topo: &Topology, elp: &Elp) -> Result<(), String> {
        if self.assignment.len() != elp.len() {
            return Err(format!(
                "witness covers {} paths, ELP has {}",
                self.assignment.len(),
                elp.len()
            ));
        }
        let positions: Vec<BTreeMap<GlobalPort, usize>> = self
            .layers
            .iter()
            .map(|l| l.iter().enumerate().map(|(i, &p)| (p, i)).collect())
            .collect();
        for (pi, path) in elp.paths().enumerate() {
            let ports: Vec<GlobalPort> = path.ingress_ports(topo).collect();
            let layers = &self.assignment[pi];
            if layers.len() != ports.len() {
                return Err(format!(
                    "path {pi}: {} layer values for {} hops",
                    layers.len(),
                    ports.len()
                ));
            }
            for (h, &t) in layers.iter().enumerate() {
                if t == 0 || t as usize > self.layers.len() {
                    return Err(format!("path {pi} hop {h}: layer {t} out of range"));
                }
                let lp = &positions[t as usize - 1];
                if !lp.contains_key(&ports[h]) {
                    return Err(format!(
                        "path {pi} hop {h}: port missing from layer {t} order"
                    ));
                }
                if h > 0 {
                    let prev = layers[h - 1];
                    if t < prev {
                        return Err(format!("path {pi} hop {h}: layer decreases {prev} -> {t}"));
                    }
                    if t == prev {
                        let a = positions[t as usize - 1][&ports[h - 1]];
                        let b = positions[t as usize - 1][&ports[h]];
                        if a >= b {
                            return Err(format!(
                                "path {pi} hop {h}: not forward in layer {t} order ({a} >= {b})"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Dense buffer-dependency view of an ELP: ingress ports interned to
/// `u32` ids, each path a sequence of ids. Edges are consecutive pairs.
struct Dep {
    /// Shared, not copied, by [`Dep::restrict`]: ids keep their meaning.
    ports: Rc<[GlobalPort]>,
    paths: Vec<Vec<u32>>,
}

impl Dep {
    /// One sweep of the ELP's tree interns each hop's ingress port, then
    /// each path reads its ids off the tree. Ids are handed out in order
    /// of first appearance over the paths in ELP order — the order the
    /// sweep visits hops in — because `find_cycle`'s start order and
    /// `topo_order`'s smallest-ready-id rule turn ids into the published
    /// cycles and layer orders.
    fn build(topo: &Topology, elp: &Elp) -> Dep {
        const UNSEEN: u32 = u32::MAX;
        let tree = elp.tree();
        let index = PortIndexer::new(topo);
        let mut id_of = vec![UNSEEN; index.total()];
        let mut ports = Vec::new();
        // Per tree node, the id of the hop that ends there.
        let mut hop = vec![UNSEEN; tree.num_nodes()];
        let Ok(()) = tree.sweep(|i, _, here, next| {
            let port = topo.hop_ends(here, next).1;
            let id = &mut id_of[index.pid(port) as usize];
            if *id == UNSEEN {
                *id = ports.len() as u32;
                ports.push(port);
            }
            hop[i] = *id;
            Ok::<(), Infallible>(())
        });
        let paths = (0..tree.len())
            .map(|p| {
                let mut ids: Vec<u32> = tree.walk_up(p).map(|i| hop[i]).collect();
                ids.pop(); // the source: no hop ends there
                ids.reverse();
                ids
            })
            .collect();
        Dep {
            ports: ports.into(),
            paths,
        }
    }

    fn restrict(&self, subset: &[usize]) -> Dep {
        Dep {
            ports: Rc::clone(&self.ports),
            paths: subset.iter().map(|&i| self.paths[i].clone()).collect(),
        }
    }

    fn total_hops(&self) -> usize {
        self.paths.iter().map(Vec::len).sum()
    }
}

/// A cycle in the union of all dependency edges of `dep`, if any —
/// the exact feasibility test for a single tag. Returned as dense port
/// ids in forward-edge order.
fn union_cycle(dep: &Dep) -> Option<Vec<u32>> {
    let mut edges: Vec<(u32, u32)> = dep
        .paths
        .iter()
        .flat_map(|path| path.windows(2).map(|w| (w[0], w[1])))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut g = Digraph::new(dep.ports.len());
    for (u, v) in edges {
        g.add(u, v);
    }
    g.find_cycle()
}

/// Greedy layering: round-robin single-hop prefix extension per layer
/// with incremental acyclicity. Each unfinished path always places at
/// least the (edge-free) first hop of its layer segment, so this
/// terminates within `max_hops` layers. It is deterministic and takes
/// no budget: whether it fits in `b` is [`num_layers`] `<= b`, and
/// needing more is not a proof of infeasibility.
///
/// Within a layer the graph only gains edges, so an edge once refused
/// (its head reaches its tail) stays refused until the layer ends: the
/// refusals are remembered per tail port and cleared with the graph,
/// and each distinct edge is put to [`Digraph::reaches`] at most once
/// per layer however many paths and rounds ask again.
fn peel(dep: &Dep) -> Vec<Vec<u16>> {
    let n = dep.paths.len();
    let mut assign: Vec<Vec<u16>> = dep
        .paths
        .iter()
        .map(|p| Vec::with_capacity(p.len()))
        .collect();
    let mut f = vec![0usize; n];
    let mut g = Digraph::new(dep.ports.len());
    let mut refused: Vec<Vec<u32>> = vec![Vec::new(); dep.ports.len()];
    let mut t = 0usize;
    while (0..n).any(|p| f[p] < dep.paths[p].len()) {
        t += 1;
        let seg_start = f.clone();
        g.clear();
        refused.iter_mut().for_each(Vec::clear);
        loop {
            let mut progressed = false;
            for p in 0..n {
                let hops = &dep.paths[p];
                if f[p] >= hops.len() {
                    continue;
                }
                let place = if f[p] == seg_start[p] {
                    true
                } else {
                    let u = hops[f[p] - 1];
                    let v = hops[f[p]];
                    // Many paths share edges; an edge already in the
                    // layer costs nothing to traverse again.
                    if g.has_edge(u, v) {
                        true
                    } else if refused[u as usize].contains(&v) {
                        debug_assert!(g.reaches(v, u), "a refusal outlived its cycle");
                        false
                    } else if g.reaches(v, u) {
                        refused[u as usize].push(v);
                        false
                    } else {
                        g.add(u, v);
                        true
                    }
                };
                if place {
                    assign[p].push(t as u16);
                    f[p] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    assign
}

/// Layers (tags) an assignment uses.
fn num_layers(assign: &[Vec<u16>]) -> usize {
    assign.iter().flatten().copied().max().unwrap_or(0) as usize
}

enum Res {
    Found,
    Fail,
    Capped,
}

/// Complete DFS over layerings within budget `b`, with frontier-
/// dominance pruning (sound and complete by the monotonicity lemma in
/// the module docs). Capped at [`SEARCH_NODE_CAP`] explored layers.
struct Search<'a> {
    dep: &'a Dep,
    b: usize,
    graphs: Vec<Digraph>,
    failed: Vec<Vec<Vec<usize>>>,
    nodes_left: usize,
    frontiers: Vec<Vec<usize>>,
}

enum SearchOutcome {
    Found(Vec<Vec<u16>>),
    Infeasible,
    Capped,
}

fn exact_search(dep: &Dep, b: usize) -> SearchOutcome {
    let mut s = Search {
        dep,
        b,
        graphs: vec![Digraph::new(dep.ports.len()); b + 2],
        failed: vec![Vec::new(); b + 2],
        nodes_left: SEARCH_NODE_CAP,
        frontiers: Vec::new(),
    };
    match s.layer(1, vec![0; dep.paths.len()]) {
        Res::Found => SearchOutcome::Found(assignment_from_frontiers(dep, &s.frontiers)),
        Res::Fail => SearchOutcome::Infeasible,
        Res::Capped => SearchOutcome::Capped,
    }
}

impl Search<'_> {
    fn layer(&mut self, t: usize, f: Vec<usize>) -> Res {
        if f.iter().zip(&self.dep.paths).all(|(&fi, p)| fi == p.len()) {
            return Res::Found;
        }
        if t > self.b {
            return Res::Fail;
        }
        if self.nodes_left == 0 {
            return Res::Capped;
        }
        self.nodes_left -= 1;
        if self.failed[t]
            .iter()
            .any(|d| d.iter().zip(&f).all(|(a, b)| a >= b))
        {
            return Res::Fail;
        }
        self.graphs[t].clear();
        let mut ends = f.clone();
        let res = self.extend(t, 0, &f, &mut ends);
        if matches!(res, Res::Fail) {
            self.failed[t].push(f);
        }
        res
    }

    fn extend(&mut self, t: usize, p: usize, f: &[usize], ends: &mut Vec<usize>) -> Res {
        let n = self.dep.paths.len();
        if p == n {
            let nf = ends.clone();
            self.frontiers.push(nf.clone());
            let res = self.layer(t + 1, nf);
            if !matches!(res, Res::Found) {
                self.frontiers.pop();
            }
            return res;
        }
        let hops_len = self.dep.paths[p].len();
        let start = f[p];
        if start >= hops_len {
            ends[p] = start;
            return self.extend(t, p + 1, f, ends);
        }
        // Greedy maximal reach for this path's layer-t segment; the
        // first hop is edge-free (it follows a layer transition).
        let mut e = start + 1;
        while e < hops_len {
            let u = self.dep.paths[p][e - 1];
            let v = self.dep.paths[p][e];
            if self.graphs[t].reaches(v, u) {
                break;
            }
            self.graphs[t].add(u, v);
            e += 1;
        }
        // Try segment ends longest-first (greedy bias), backtracking by
        // popping this path's own edges LIFO.
        loop {
            ends[p] = e;
            let res = self.extend(t, p + 1, f, ends);
            match res {
                Res::Fail => {}
                other => {
                    if matches!(other, Res::Capped) {
                        while e > start + 1 {
                            e -= 1;
                            self.graphs[t].pop_edge(self.dep.paths[p][e - 1]);
                        }
                    }
                    return other;
                }
            }
            if e == start + 1 {
                break;
            }
            e -= 1;
            self.graphs[t].pop_edge(self.dep.paths[p][e - 1]);
        }
        Res::Fail
    }
}

fn assignment_from_frontiers(dep: &Dep, frontiers: &[Vec<usize>]) -> Vec<Vec<u16>> {
    let n = dep.paths.len();
    let mut assign: Vec<Vec<u16>> = dep
        .paths
        .iter()
        .map(|p| Vec::with_capacity(p.len()))
        .collect();
    let mut prev = vec![0usize; n];
    for (ti, fr) in frontiers.iter().enumerate() {
        for p in 0..n {
            for _ in prev[p]..fr[p] {
                assign[p].push((ti + 1) as u16);
            }
        }
        prev.clone_from_slice(fr);
    }
    assign
}

enum Tri {
    Yes(Vec<Vec<u16>>),
    No,
    Unknown,
}

/// Decides feasibility of `dep` within `b` tags, `cyclic` being whether
/// its edge union has a cycle ([`union_cycle`]). `Yes` is always
/// certified by the returned assignment; `No` is a completed proof;
/// `Unknown` means the exhaustive search was skipped or capped.
fn feasible_within(dep: &Dep, cyclic: bool, b: usize, exact_ok: bool) -> Tri {
    if cyclic && b <= 1 {
        return Tri::No;
    }
    // On an acyclic union the peel refuses nothing: one layer (none for
    // an ELP without hops), which fits every budget.
    let assign = peel(dep);
    if num_layers(&assign) <= b {
        return Tri::Yes(assign);
    }
    exact_within(dep, b, exact_ok)
}

/// The exhaustive layer search as a [`Tri`]: `Unknown` when the instance
/// is too large for it (`!exact_ok`) or the search hit its cap.
fn exact_within(dep: &Dep, b: usize, exact_ok: bool) -> Tri {
    if !exact_ok {
        return Tri::Unknown;
    }
    match exact_search(dep, b) {
        SearchOutcome::Found(a) => Tri::Yes(a),
        SearchOutcome::Infeasible => Tri::No,
        SearchOutcome::Capped => Tri::Unknown,
    }
}

/// Builds the per-layer topological orders for a valid assignment.
fn witness_from(dep: &Dep, assign: Vec<Vec<u16>>) -> WitnessOrder {
    let num_layers = num_layers(&assign);
    let mut g = Digraph::new(dep.ports.len());
    let mut layers = Vec::with_capacity(num_layers);
    for t in 1..=num_layers as u16 {
        // Ports of layer t and its intra-segment edges.
        g.clear();
        let mut in_layer = vec![false; dep.ports.len()];
        for (p, path) in dep.paths.iter().enumerate() {
            for (h, &port) in path.iter().enumerate() {
                if assign[p][h] == t {
                    in_layer[port as usize] = true;
                    if h > 0 && assign[p][h - 1] == t && !g.has_edge(path[h - 1], port) {
                        g.add(path[h - 1], port);
                    }
                }
            }
        }
        // The kernel orders every port; the ones outside the layer
        // have no edges here, so dropping them leaves the order the
        // layer's own ports would get alone.
        let order = g.topo_order();
        debug_assert!(order.is_ok(), "layer {t} had a residual cycle");
        layers.push(
            order
                .unwrap_or_default()
                .into_iter()
                .filter(|&v| in_layer[v as usize])
                .map(|v| dep.ports[v as usize])
                .collect(),
        );
    }
    WitnessOrder {
        layers,
        assignment: assign,
    }
}

/// Tightens a found layering toward the true minimum: climbs from the
/// proven floor (1 or 2 via the exact single-tag test, `cyclic`),
/// deciding each rung by the exhaustive search alone — `best` is the
/// peel's own layering or one found because the peel missed the budget,
/// so the peel fits no rung below it. Returns `(lower_bound,
/// best_assignment)` with the invariant `lower_bound ≤ layers(best)`,
/// equal when settled exactly.
fn tighten(dep: &Dep, cyclic: bool, best: Vec<Vec<u16>>, exact_ok: bool) -> (usize, Vec<Vec<u16>>) {
    let used = num_layers(&best);
    let mut lower = if cyclic { 2 } else { 1 };
    if used == 0 {
        return (0, best);
    }
    let mut best = best;
    let mut used = used;
    let mut t = lower;
    while t < used {
        match exact_within(dep, t, exact_ok) {
            Tri::Yes(a) => {
                best = a;
                used = t;
                break;
            }
            Tri::No => {
                lower = t + 1;
                t += 1;
            }
            Tri::Unknown => break,
        }
    }
    debug_assert!(lower <= used);
    (lower, best)
}

/// Layered upper-bound prover: on fabrics where every node on every
/// path carries a layer rank and no hop stays on its rank, the paper's
/// §4 construction — tag = bounces so far + 1, a new segment at every
/// down→up direction flip — is a valid layering (each segment is
/// up\*-then-down\*, and an ingress port's own rank delta orients it,
/// so a potential function orders every segment-union edge). Bails on
/// equal-rank links, where that orientation is ambiguous. Returns the
/// per-hop assignment when every path fits the budget; the caller
/// still re-checks it before trusting it.
fn layered_witness(topo: &Topology, elp: &Elp, b: usize) -> Option<Vec<Vec<u16>>> {
    let mut assign = Vec::with_capacity(elp.len());
    for path in elp.paths() {
        let nodes = path.nodes();
        let mut layers = Vec::with_capacity(nodes.len().saturating_sub(1));
        let mut t: u16 = 1;
        let mut prev_dir: i8 = 0;
        for w in nodes.windows(2) {
            let (ra, rb) = (topo.node(w[0]).layer.rank()?, topo.node(w[1]).layer.rank()?);
            let dir: i8 = match rb.cmp(&ra) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => return None,
            };
            if prev_dir == -1 && dir == 1 {
                t = t.checked_add(1)?;
            }
            prev_dir = dir;
            layers.push(t);
        }
        if t as usize > b {
            return None;
        }
        assign.push(layers);
    }
    Some(assign)
}

/// Generic upper-bound prover for instances where both the greedy peel
/// and the exhaustive search came up empty: run the Algorithm 1+2
/// pipeline and accept its tagging as a feasibility certificate when
/// it verifies and fits the budget. Hop `h` of every path carried
/// brute-force tag `h + 1` into its ingress port, so the merged tag of
/// that node is the hop's layer.
fn construction_witness(topo: &Topology, elp: &Elp, b: usize) -> Option<Vec<Vec<u16>>> {
    let brute = crate::tag_by_hop_count(topo, elp);
    let assignment = crate::greedy_assignment(topo, &brute);
    if crate::apply_assignment(&brute, &assignment)
        .verify()
        .is_err()
    {
        return None;
    }
    let mut assign = Vec::with_capacity(elp.len());
    for path in elp.paths() {
        let mut layers = Vec::with_capacity(path.hops());
        for (h, ingress) in path.ingress_ports(topo).enumerate() {
            let node = crate::TaggedNode {
                port: ingress,
                tag: crate::Tag((h + 1) as u16),
            };
            layers.push(assignment.get(&node)?.0);
        }
        assign.push(layers);
    }
    (num_layers(&assign) <= b).then_some(assign)
}

/// Decides whether a deadlock-free tagging of `elp` on `topo` exists
/// within `budget` lossless tags (default [`HARDWARE_TAG_CEILING`];
/// budgets are clamped to at least 1). See the module docs for the
/// condition, witness and kernel semantics.
pub fn decide(topo: &Topology, elp: &Elp, budget: Option<usize>) -> Verdict {
    let dep = Dep::build(topo, elp);
    let b = budget.unwrap_or(HARDWARE_TAG_CEILING).max(1);
    let exact_ok = dep.total_hops() <= EXACT_SEARCH_HOP_LIMIT;
    let cycle = union_cycle(&dep);
    let feasible = |assign: Vec<Vec<u16>>| {
        let (lower, best) = tighten(&dep, cycle.is_some(), assign, exact_ok);
        let witness = witness_from(&dep, best);
        Verdict::Feasible(Feasible {
            lower_bound_tags: lower,
            tags_used: witness.num_tags(),
            witness,
        })
    };
    match feasible_within(&dep, cycle.is_some(), b, exact_ok) {
        Tri::Yes(assign) => feasible(assign),
        Tri::No => infeasible_verdict(&dep, cycle.as_deref(), b, exact_ok, true),
        Tri::Unknown => {
            // The peel missed and the exact search was unavailable or
            // capped — try the two constructive upper-bound provers
            // before conceding. A layered candidate is only a
            // conjecture until its witness re-checks.
            let candidate = layered_witness(topo, elp, b)
                .filter(|a| witness_from(&dep, a.clone()).recheck(topo, elp).is_ok())
                .or_else(|| construction_witness(topo, elp, b));
            match candidate {
                Some(assign) => feasible(assign),
                None => infeasible_verdict(&dep, cycle.as_deref(), b, exact_ok, false),
            }
        }
    }
}

/// For each edge of `cycle`, one path that contributes it — a small
/// sub-ELP whose edge union still contains the whole cycle (hence is
/// still infeasible at one tag).
fn cycle_cover(dep: &Dep, cycle: &[u32]) -> Vec<usize> {
    let mut need: BTreeMap<(u32, u32), Option<usize>> = cycle
        .iter()
        .enumerate()
        .map(|(i, &u)| ((u, cycle[(i + 1) % cycle.len()]), None))
        .collect();
    for (pi, path) in dep.paths.iter().enumerate() {
        for w in path.windows(2) {
            if let Some(slot) = need.get_mut(&(w[0], w[1])) {
                if slot.is_none() {
                    *slot = Some(pi);
                }
            }
        }
    }
    let set: std::collections::BTreeSet<usize> = need.values().filter_map(|v| *v).collect();
    set.into_iter().collect()
}

fn infeasible_verdict(
    dep: &Dep,
    cycle: Option<&[u32]>,
    b: usize,
    exact_ok: bool,
    exhaustive: bool,
) -> Verdict {
    let n = dep.paths.len();
    let mut alive: Vec<usize> = (0..n).filter(|&i| !dep.paths[i].is_empty()).collect();
    let still_infeasible = |subset: &[usize]| {
        let sub = dep.restrict(subset);
        let cyclic = union_cycle(&sub).is_some();
        !matches!(feasible_within(&sub, cyclic, b, exact_ok), Tri::Yes(_))
    };
    // Pre-reduce: a cover of one dependency cycle (one path per cycle
    // edge) is a small sub-ELP that is certainly infeasible at one tag;
    // when it is also infeasible at `b`, shrink that instead of the
    // full set — this keeps the shrink cheap on huge ELPs.
    if let Some(cyc) = cycle {
        let cover = cycle_cover(dep, cyc);
        if cover.len() < alive.len() && (b == 1 || still_infeasible(&cover)) {
            alive = cover;
        }
    }
    // Greedy kernel shrink: drop each path in turn, keeping the drop
    // whenever the remainder is still not provably feasible. Because
    // feasibility is monotone under subsets, every path that survives
    // was tested against a superset of the final kernel, so dropping
    // it from the kernel is feasible too — one pass yields minimality.
    let candidates = alive.clone();
    if b == 1 || exact_ok || candidates.len() <= 64 {
        for i in candidates {
            if alive.len() <= 1 {
                break;
            }
            if !alive.contains(&i) {
                continue;
            }
            let trial: Vec<usize> = alive.iter().copied().filter(|&j| j != i).collect();
            if still_infeasible(&trial) {
                alive = trial;
            }
        }
    }
    let sub = dep.restrict(&alive);
    let cycle = union_cycle(&sub)
        .unwrap_or_default()
        .into_iter()
        .map(|id| sub.ports[id as usize])
        .collect();
    Verdict::Infeasible(Infeasible {
        budget: b,
        lower_bound_tags: if exhaustive { b + 1 } else { 2 },
        kernel: alive,
        cycle,
        exhaustive,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_routing::Path;
    use tagger_topo::{ClosConfig, Layer};

    fn clos() -> Topology {
        ClosConfig::small().build()
    }

    /// The paper's Fig. 10 pair: two counter-rotating one-bounce paths
    /// whose shared ingress ports (S1<-L1, S2<-L3) close a dependency
    /// cycle, so one tag can never suffice.
    fn fig10_elp(t: &Topology) -> Elp {
        Elp::from_paths(vec![
            Path::from_names(t, &["H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13"]),
            Path::from_names(t, &["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"]),
        ])
    }

    /// An N-switch ring (flat switches, one host each): the clockwise
    /// 2-arc host paths force a dependency cycle at one tag.
    fn ring(n: usize) -> (Topology, Elp) {
        let mut t = Topology::new();
        let switches: Vec<_> = (1..=n)
            .map(|i| t.add_switch(format!("R{i}"), Layer::Flat))
            .collect();
        let hosts: Vec<_> = (1..=n).map(|i| t.add_host(format!("H{i}"))).collect();
        for i in 0..n {
            t.connect(switches[i], switches[(i + 1) % n]);
            t.connect(hosts[i], switches[i]);
        }
        let paths = (0..n)
            .map(|i| {
                Path::new(
                    &t,
                    vec![
                        hosts[i],
                        switches[i],
                        switches[(i + 1) % n],
                        switches[(i + 2) % n],
                        hosts[(i + 2) % n],
                    ],
                )
                .unwrap()
            })
            .collect();
        (t, Elp::from_paths(paths))
    }

    /// Layer 1: paths 0 and 1 put `0→1` and `3→4` in the graph; path 2's
    /// `1→0` is searched and refused, path 3 asks for the same edge in the
    /// same round and path 4 a round later; path 5's `4→3` is refused.
    /// Layer 2 starts from an empty graph, where path 5 crosses `1→0`
    /// mid-segment: a refusal that outlived its layer would push that hop
    /// to a third.
    #[test]
    fn refusals_are_forgotten_with_the_layer() {
        use tagger_topo::{NodeId, PortId};
        let dep = Dep {
            ports: (0..5)
                .map(|i| GlobalPort::new(NodeId(i), PortId(0)))
                .collect(),
            paths: vec![
                vec![0, 1],
                vec![3, 4],
                vec![1, 0],
                vec![1, 0],
                vec![2, 1, 0],
                vec![4, 3, 1, 0],
            ],
        };
        assert_eq!(
            peel(&dep),
            vec![
                vec![1, 1],
                vec![1, 1],
                vec![1, 2],
                vec![1, 2],
                vec![1, 1, 2],
                vec![1, 2, 2, 2],
            ]
        );
    }

    #[test]
    fn empty_elp_needs_no_tags() {
        let t = clos();
        match decide(&t, &Elp::from_paths(Vec::new()), None) {
            Verdict::Feasible(f) => {
                assert_eq!(f.lower_bound_tags, 0);
                assert_eq!(f.tags_used, 0);
                f.witness.recheck(&t, &Elp::from_paths(Vec::new())).unwrap();
            }
            v => panic!("expected feasible, got {}", v.summary()),
        }
    }

    #[test]
    fn updown_elp_needs_exactly_one_tag() {
        let t = clos();
        let elp = Elp::updown(&t);
        match decide(&t, &elp, None) {
            Verdict::Feasible(f) => {
                assert_eq!(f.lower_bound_tags, 1);
                assert_eq!(f.tags_used, 1);
                f.witness.recheck(&t, &elp).unwrap();
            }
            v => panic!("expected feasible, got {}", v.summary()),
        }
    }

    #[test]
    fn one_bounce_elp_needs_exactly_two_tags() {
        let t = clos();
        let elp = fig10_elp(&t);
        match decide(&t, &elp, None) {
            Verdict::Feasible(f) => {
                assert_eq!(f.lower_bound_tags, 2, "bounce paths force >= 2 tags");
                assert_eq!(f.tags_used, 2);
                f.witness.recheck(&t, &elp).unwrap();
            }
            v => panic!("expected feasible, got {}", v.summary()),
        }
    }

    #[test]
    fn one_bounce_elp_is_infeasible_at_budget_one_with_minimal_kernel() {
        let t = clos();
        let elp = fig10_elp(&t);
        let i = match decide(&t, &elp, Some(1)) {
            Verdict::Infeasible(i) => i,
            v => panic!("expected infeasible, got {}", v.summary()),
        };
        assert!(i.exhaustive);
        assert_eq!(i.lower_bound_tags, 2);
        assert!(!i.cycle.is_empty());
        assert!(i.kernel.len() >= 2);
        // Minimality: dropping any kernel path flips the verdict.
        for drop in 0..i.kernel.len() {
            let sub: Vec<Path> = i
                .kernel
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != drop)
                .map(|(_, &pi)| elp.path(pi))
                .collect();
            assert!(
                decide(&t, &Elp::from_paths(sub), Some(1)).is_feasible(),
                "kernel not minimal: still infeasible without path {drop}"
            );
        }
        // But the kernel itself is infeasible.
        let kernel_paths: Vec<Path> = i.kernel.iter().map(|&pi| elp.path(pi)).collect();
        assert!(!decide(&t, &Elp::from_paths(kernel_paths), Some(1)).is_feasible());
    }

    #[test]
    fn ring_is_infeasible_at_one_tag_and_feasible_at_two() {
        let (t, elp) = ring(5);
        let i = match decide(&t, &elp, Some(1)) {
            Verdict::Infeasible(i) => i,
            v => panic!("expected infeasible, got {}", v.summary()),
        };
        assert!(i.exhaustive);
        assert!(!i.cycle.is_empty());
        for drop in 0..i.kernel.len() {
            let sub: Vec<Path> = i
                .kernel
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != drop)
                .map(|(_, &pi)| elp.path(pi))
                .collect();
            assert!(decide(&t, &Elp::from_paths(sub), Some(1)).is_feasible());
        }
        match decide(&t, &elp, Some(2)) {
            Verdict::Feasible(f) => {
                assert_eq!(f.lower_bound_tags, 2);
                f.witness.recheck(&t, &elp).unwrap();
            }
            v => panic!("expected feasible at 2, got {}", v.summary()),
        }
    }

    #[test]
    fn recheck_rejects_tampered_witness() {
        let t = clos();
        let elp = fig10_elp(&t);
        let mut f = match decide(&t, &elp, None) {
            Verdict::Feasible(f) => f,
            v => panic!("expected feasible, got {}", v.summary()),
        };
        // Find a path with a layer-2 hop and illegally lower it.
        let (pi, hi) = f
            .witness
            .assignment
            .iter()
            .enumerate()
            .find_map(|(pi, a)| a.iter().position(|&l| l == 2).map(|hi| (pi, hi)))
            .expect("a two-tag witness has a layer-2 hop");
        f.witness.assignment[pi][hi] = 1;
        assert!(f.witness.recheck(&t, &elp).is_err());
    }

    #[test]
    fn verdict_agrees_with_construction_on_clos() {
        let t = clos();
        let elp = Elp::updown_with_bounces_capped(&t, 1, 2);
        let constructed = crate::minimize_elp(&t, &elp);
        constructed.verify().unwrap();
        let m = constructed.num_lossless_tags(&t);
        // The oracle must find the instance feasible within what the
        // construction used, and its floor can never exceed it.
        match decide(&t, &elp, Some(m)) {
            Verdict::Feasible(f) => {
                assert!(f.lower_bound_tags <= m);
                assert!(f.tags_used <= m);
                f.witness.recheck(&t, &elp).unwrap();
            }
            v => panic!("construction used {m} tags but oracle says {}", v.summary()),
        }
    }
}
