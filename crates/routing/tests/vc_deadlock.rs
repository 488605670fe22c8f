//! Deadlock freedom of the VC schemes, checked on the (channel, VC)
//! dependency graph.
//!
//! A packet that holds the input buffer of hop `i` (channel `c_i`, VC
//! class `v_i`) waits for the buffer of hop `i + 1`, so every pair of
//! consecutive hops of a route the engine can take is an edge
//! `(c_i, v_i) → (c_{i+1}, v_{i+1})`.  Routing is deadlock-free when that
//! graph is acyclic.  The graph here holds every MIN and every VLB path
//! between every ordered switch pair, plus every PAR revision: a packet on
//! a MIN path whose first hop stays in the source group may, one hop in,
//! switch to any VLB path from there, classed with `taken_local = 1`.
//!
//! A depth-first search returns a cycle as a witness, so a failure names
//! the exact channels and classes involved.

use tugal_routing::{all_vlb_paths, min_paths, vc_class, Path, VcScheme};
use tugal_topology::{ChannelId, ChannelKind, Dragonfly, DragonflyParams, SwitchId};

/// Classes a graph node can carry: `PerHop` under PAR reaches 6.
const CLASSES: usize = 8;

/// The (channel, VC class) dependency graph as a dense adjacency bitset
/// over nodes `channel * CLASSES + class` (network channels only).
struct DepGraph {
    n: usize,
    bits: Vec<u64>,
}

impl DepGraph {
    fn new(topo: &Dragonfly) -> Self {
        let n = topo.num_network_channels() * CLASSES;
        DepGraph {
            n,
            bits: vec![0; (n * n).div_ceil(64)],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        let i = from * self.n + to;
        self.bits[i / 64] |= 1 << (i % 64);
    }

    fn has_edge(&self, from: usize, to: usize) -> bool {
        let i = from * self.n + to;
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds the edges between consecutive nodes of `chain`.
    fn add_chain(&mut self, chain: &[usize]) {
        for w in chain.windows(2) {
            self.add_edge(w[0], w[1]);
        }
    }

    /// Successors of `from`, ascending.
    fn successors(&self, from: usize) -> Vec<usize> {
        (0..self.n).filter(|&to| self.has_edge(from, to)).collect()
    }

    /// A directed cycle, as its nodes in order (the edge from the last
    /// node back to the first closes it), or `None` if the graph is
    /// acyclic.  Iterative DFS from every node in ascending order, so the
    /// witness is deterministic.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            New,
            OnStack,
            Done,
        }
        let mut mark = vec![Mark::New; self.n];
        for root in 0..self.n {
            if mark[root] != Mark::New {
                continue;
            }
            // (node, its successors, next successor to visit)
            let mut stack = vec![(root, self.successors(root), 0)];
            mark[root] = Mark::OnStack;
            while let Some((node, succ, next)) = stack.last_mut() {
                let Some(&to) = succ.get(*next) else {
                    mark[*node] = Mark::Done;
                    stack.pop();
                    continue;
                };
                *next += 1;
                match mark[to] {
                    Mark::OnStack => {
                        let at = stack.iter().position(|(n, _, _)| *n == to).unwrap();
                        return Some(stack[at..].iter().map(|(n, _, _)| *n).collect());
                    }
                    Mark::New => {
                        mark[to] = Mark::OnStack;
                        let succ = self.successors(to);
                        stack.push((to, succ, 0));
                    }
                    Mark::Done => {}
                }
            }
        }
        None
    }
}

/// The graph nodes of `path`'s hops for a packet that took `taken_local`
/// local hops before entering it.
fn chain(scheme: VcScheme, topo: &Dragonfly, path: &Path, taken_local: u8) -> Vec<usize> {
    (0..path.hops())
        .map(|i| {
            let class = vc_class(scheme, topo, path, i, taken_local, 0) as usize;
            assert!(class < CLASSES, "class {class} at hop {i} of {path:?}");
            path.channel_at(topo, i).index() * CLASSES + class
        })
        .collect()
}

/// Every MIN and VLB path between every ordered switch pair, plus every
/// PAR revision.
fn dependency_graph(topo: &Dragonfly, scheme: VcScheme) -> DepGraph {
    let mut g = DepGraph::new(topo);
    let n = topo.num_switches();
    // First nodes of the revised (taken_local = 1) VLB chains, per
    // (switch, destination): where a PAR revision at that switch can go.
    let mut revised_heads = vec![Vec::new(); n * n];
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            let (s_sw, d_sw) = (SwitchId(s as u32), SwitchId(d as u32));
            for p in min_paths(topo, s_sw, d_sw) {
                g.add_chain(&chain(scheme, topo, &p, 0));
            }
            let heads = &mut revised_heads[s * n + d];
            for p in all_vlb_paths(topo, s_sw, d_sw) {
                g.add_chain(&chain(scheme, topo, &p, 0));
                let revised = chain(scheme, topo, &p, 1);
                g.add_chain(&revised);
                heads.extend(revised.first());
            }
            heads.sort_unstable();
            heads.dedup();
        }
    }
    // A revision happens one hop into a MIN path whose first hop is local
    // (still in the source group): that hop's buffer waits for the first
    // buffer of the new VLB path.
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            for p in min_paths(topo, SwitchId(s as u32), SwitchId(d as u32)) {
                if p.hop_kind(topo, 0) != ChannelKind::Local || p.switch(1).index() == d {
                    continue;
                }
                let first = chain(scheme, topo, &p, 0)[0];
                for &head in &revised_heads[p.switch(1).index() * n + d] {
                    g.add_edge(first, head);
                }
            }
        }
    }
    g
}

/// One line per node of `cycle`: channel, its endpoints, kind and class.
fn render(topo: &Dragonfly, cycle: &[usize]) -> String {
    cycle
        .iter()
        .map(|&node| {
            let ch = topo.channel(ChannelId::from_index(node / CLASSES));
            let kind = match ch.kind {
                ChannelKind::Local => "local",
                _ => "global",
            };
            format!(
                "  c{} s{}->s{} {kind} vc{}",
                ch.id.0,
                ch.src_switch().unwrap().0,
                ch.dst_switch().unwrap().0,
                node % CLASSES
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const TOPOLOGIES: [(u32, u32, u32, u32); 2] = [(2, 4, 2, 5), (4, 8, 4, 9)];

fn topo(p: u32, a: u32, h: u32, g: u32) -> Dragonfly {
    Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap()
}

#[test]
fn per_hop_scheme_is_acyclic() {
    for (p, a, h, g) in TOPOLOGIES {
        let t = topo(p, a, h, g);
        let graph = dependency_graph(&t, VcScheme::PerHop);
        if let Some(cycle) = graph.find_cycle() {
            panic!(
                "PerHop dependency cycle on {}:\n{}",
                t.params(),
                render(&t, &cycle)
            );
        }
    }
}

#[test]
fn compact_scheme_has_a_dependency_cycle() {
    // Known defect (ROADMAP item 1): under `Compact` a path with no
    // source-group local hop (`g l`) puts its destination-group local hop
    // on class 0, the class of a source-group hop, which closes a cycle.
    // The fix to the class rule must flip this test deliberately into an
    // acyclicity assertion like `per_hop_scheme_is_acyclic`.
    for (p, a, h, g) in TOPOLOGIES {
        let t = topo(p, a, h, g);
        let graph = dependency_graph(&t, VcScheme::Compact);
        let cycle = graph.find_cycle().unwrap_or_else(|| {
            panic!(
                "Compact is acyclic on {}: the class rule was fixed, so \
                 turn this test into an acyclicity check",
                t.params()
            )
        });
        // The witness is a real closed walk of the graph.
        for (i, &from) in cycle.iter().enumerate() {
            let to = cycle[(i + 1) % cycle.len()];
            assert!(graph.has_edge(from, to), "{}", render(&t, &cycle));
        }
        println!(
            "Compact dependency cycle on {} ({} edges):\n{}",
            t.params(),
            cycle.len(),
            render(&t, &cycle)
        );
    }
}
