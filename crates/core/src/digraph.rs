//! The acyclicity kernel: the one directed-graph structure behind every
//! "is this dependency graph acyclic?" question the system asks —
//! Theorem 5.1's per-tag check ([`crate::TaggedGraph::verify`]), the
//! oracle's single-tag test, layer guards and witness orders
//! ([`crate::oracle`]), Algorithm 2's merge guard, and the simulator's
//! wait-for scans. Callers intern their own node type to dense ids,
//! call the kernel, and map ids back. (The auditor's `DepGraph` is
//! deliberately *not* a caller: it is the independent judge and shares
//! no verdict logic with this module.)
//!
//! Every answer is deterministic in the ids and the order edges were
//! added: the published witness cycles and layer orders are part of
//! the system's output.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// [`Digraph::topo_order`] found a cycle: no topological order exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cyclic;

/// A directed graph over the dense node ids `0..n`, with per-node
/// out-adjacency kept in insertion order. Parallel edges are allowed
/// (callers that want a simple graph ask [`Digraph::has_edge`] first).
#[derive(Clone, Debug)]
pub struct Digraph {
    adj: Vec<Vec<u32>>,
    /// `visited[v] == epoch` marks `v` as seen by the current
    /// [`Digraph::reaches`] call, so no call has to clear the marks.
    visited: Vec<u32>,
    epoch: u32,
    /// Scratch stack reused across [`Digraph::reaches`] calls.
    stack: Vec<u32>,
}

/// Two graphs are equal when they have the same nodes and the same
/// out-edges in the same order; search scratch state does not count.
impl PartialEq for Digraph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
    }
}

impl Eq for Digraph {}

impl Digraph {
    /// An edgeless graph on the nodes `0..n`.
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
            visited: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Removes every edge; the nodes stay.
    pub fn clear(&mut self) {
        for targets in &mut self.adj {
            targets.clear();
        }
    }

    /// Appends the edge `u → v` to `u`'s out-edges.
    pub fn add(&mut self, u: u32, v: u32) {
        self.adj[u as usize].push(v);
    }

    /// Removes the most recently added out-edge of `u`: the undo of
    /// [`Digraph::add`] for callers whose removals are LIFO per node.
    pub fn pop_edge(&mut self, u: u32) {
        self.adj[u as usize].pop();
    }

    /// True if an edge `u → v` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// Is there a path of at least one edge from `from` to `target`?
    ///
    /// This is the incremental acyclicity guard: in an acyclic graph,
    /// adding `u → v` (for `u != v`) closes a cycle exactly when
    /// `reaches(v, u)`, and `reaches(v, v)` asks whether `v` lies on a
    /// cycle.
    pub fn reaches(&mut self, from: u32, target: u32) -> bool {
        if self.epoch == u32::MAX {
            // Stamps from 2^32 calls ago must not read as current.
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let Digraph {
            adj,
            visited,
            epoch,
            stack,
        } = self;
        stack.clear();
        stack.push(from);
        while let Some(x) = stack.pop() {
            for &y in &adj[x as usize] {
                if y == target {
                    return true;
                }
                if visited[y as usize] != *epoch {
                    visited[y as usize] = *epoch;
                    stack.push(y);
                }
            }
        }
        false
    }

    /// Some cycle `[v, …, u]` — each node has an edge to the next and
    /// `u` one back to `v` — or `None` if the graph is acyclic.
    ///
    /// Which cycle is fixed: a colouring depth-first search from start
    /// nodes in ascending id order, following out-edges in the order
    /// they were added, returns the cycle closed by the first back edge
    /// `u → v` it meets.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.adj.len()];
        // The gray nodes, root first, each with its next out-edge.
        let mut path: Vec<(u32, usize)> = Vec::new();
        for start in 0..self.adj.len() as u32 {
            if color[start as usize] != WHITE {
                continue;
            }
            color[start as usize] = GRAY;
            path.push((start, 0));
            while let Some(frame) = path.last_mut() {
                let u = frame.0;
                let Some(&v) = self.adj[u as usize].get(frame.1) else {
                    color[u as usize] = BLACK;
                    path.pop();
                    continue;
                };
                frame.1 += 1;
                match color[v as usize] {
                    WHITE => {
                        color[v as usize] = GRAY;
                        path.push((v, 0));
                    }
                    GRAY => {
                        let at = path
                            .iter()
                            .position(|&(x, _)| x == v)
                            .expect("a gray node is on the search path");
                        return Some(path[at..].iter().map(|&(x, _)| x).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// A topological order of all `n` nodes — every edge goes forward
    /// in it — or [`Cyclic`]. Kahn's algorithm, always emitting the
    /// smallest ready id, so the order is unique.
    pub fn topo_order(&self) -> Result<Vec<u32>, Cyclic> {
        let n = self.adj.len();
        let mut indeg = vec![0u32; n];
        for &v in self.adj.iter().flatten() {
            indeg[v as usize] += 1;
        }
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            for &v in &self.adj[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(Cyclic)
        }
    }

    /// Every node that lies on some cycle — a member of a strongly
    /// connected component of two or more nodes, or a node with a
    /// self-loop — in ascending id order. (Tarjan's algorithm.)
    pub fn cyclic_members(&self) -> Vec<u32> {
        const UNSEEN: u32 = u32::MAX;
        let n = self.adj.len();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut component_stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut members = Vec::new();
        // (node, next out-edge to follow)
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNSEEN {
                continue;
            }
            call.push((root, 0));
            while let Some(frame) = call.last_mut() {
                let u = frame.0 as usize;
                if frame.1 == 0 {
                    index[u] = next_index;
                    low[u] = next_index;
                    next_index += 1;
                    component_stack.push(u as u32);
                    on_stack[u] = true;
                }
                if let Some(&v) = self.adj[u].get(frame.1) {
                    frame.1 += 1;
                    if index[v as usize] == UNSEEN {
                        call.push((v, 0));
                    } else if on_stack[v as usize] {
                        low[u] = low[u].min(index[v as usize]);
                    }
                    continue;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent as usize] = low[parent as usize].min(low[u]);
                }
                if low[u] != index[u] {
                    continue;
                }
                // `u` roots a component: everything above it on the
                // component stack.
                let at = component_stack
                    .iter()
                    .rposition(|&w| w as usize == u)
                    .expect("a component root is on the component stack");
                let component = component_stack.split_off(at);
                for &w in &component {
                    on_stack[w as usize] = false;
                }
                if component.len() > 1 || self.has_edge(u as u32, u as u32) {
                    members.extend(component);
                }
            }
        }
        members.sort_unstable();
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Digraph {
        let mut g = Digraph::new(n);
        for &(u, v) in edges {
            g.add(u, v);
        }
        g
    }

    #[test]
    fn first_back_edge_from_the_smallest_start_wins() {
        // 0 -> 1 is a dead end; from 2 the branch to 3 is abandoned
        // before 2 -> 4 -> 5 -> 2 closes; 4 <-> 6 is never reached.
        let g = graph(7, &[(0, 1), (2, 3), (2, 4), (4, 5), (4, 6), (5, 2), (6, 4)]);
        assert_eq!(g.find_cycle(), Some(vec![2, 4, 5]));
        assert_eq!(g.topo_order(), Err(Cyclic));
        assert_eq!(g.cyclic_members(), vec![2, 4, 5, 6]);
    }

    #[test]
    fn adjacency_order_picks_the_cycle() {
        assert_eq!(
            graph(3, &[(0, 2), (0, 1), (1, 0), (2, 0)]).find_cycle(),
            Some(vec![0, 2])
        );
        assert_eq!(
            graph(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]).find_cycle(),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn self_loop_is_a_cycle_of_one() {
        let mut g = graph(2, &[(0, 1), (1, 1)]);
        assert_eq!(g.find_cycle(), Some(vec![1]));
        assert_eq!(g.cyclic_members(), vec![1]);
        assert!(g.reaches(1, 1));
        assert!(!g.reaches(0, 0));
    }

    #[test]
    fn kahn_emits_the_smallest_ready_id() {
        let g = graph(5, &[(3, 0), (3, 1), (1, 2), (4, 2)]);
        assert_eq!(g.topo_order(), Ok(vec![3, 0, 1, 4, 2]));
        assert_eq!(g.find_cycle(), None);
        assert!(g.cyclic_members().is_empty());
    }

    #[test]
    fn guard_and_lifo_undo() {
        let mut g = graph(4, &[(0, 1), (1, 2)]);
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        // 2 -> 0 would close a cycle; 2 -> 3 would not.
        assert!(g.reaches(0, 2) && !g.reaches(3, 2));
        g.add(2, 3);
        g.add(2, 0);
        assert!(g.has_edge(2, 0) && g.reaches(0, 0));
        g.pop_edge(2);
        assert!(!g.has_edge(2, 0) && g.has_edge(2, 3) && !g.reaches(0, 0));
        g.pop_edge(2);
        assert_eq!(g, graph(4, &[(0, 1), (1, 2)]));
        g.clear();
        assert_eq!(g, Digraph::new(4));
    }
}
