//! Preflow-push (push-relabel) maximum flow.
//!
//! This is the algorithm cited by the Helix paper (§4.3, "we run the
//! preflow-push algorithm to get the max flow between source and sink").  The
//! implementation uses FIFO active-node selection with an initial global
//! relabeling (exact BFS distances from the sink), and no gap heuristic.
//! The largest graph the planners solve cold — the 405B model's final
//! evaluation in the 1008-node, four-model fleet, 1 202 vertices and 6 520
//! edges — takes ≈ 55 ms on a 2-vCPU Xeon VM: 615 k discharges, 281 k
//! relabels, 3.1 M relabel-scan steps and 757 k pushes (the same pushes made
//! over the arena's adjacency lists took ≈ 70 ms).
//!
//! The FIFO loop runs over a packed copy of the arena: each node's arcs sit
//! contiguously (in adjacency order), each arc holding its head, its
//! residual and the position of its twin, and the residuals are written back
//! to the arena once at the end.  After a relabel the node's current arc
//! starts at the first arc that reaches the new minimum height: every arc
//! before it is inadmissible, so the pushes are the ones (and in the order)
//! a scan from the first arc would make.
//!
//! The discharge loop always drains a node's excess completely before moving
//! on, so on termination every non-terminal node is balanced and the computed
//! preflow is a genuine flow (not just a max *value*).

use crate::graph::{ArenaEdge, Writes};
use crate::FLOW_EPS;
use std::collections::VecDeque;

/// One residual arc of the packed layout.
#[derive(Debug, Clone, Copy)]
struct Arc {
    residual: f64,
    /// The node the arc points to.
    head: u32,
    /// Packed position of the reverse arc.
    twin: u32,
}

/// The arena repacked per node: node `u`'s arcs are `arcs[first[u]..first[u + 1]]`,
/// in adjacency order, and `arena[i]` is the arena index of `arcs[i]`.
struct Packed {
    first: Vec<usize>,
    arcs: Vec<Arc>,
    arena: Vec<usize>,
}

impl Packed {
    fn new(edges: &[ArenaEdge], adjacency: &[Vec<usize>]) -> Self {
        debug_assert!(edges.len() <= u32::MAX as usize, "arc positions fit in u32");
        let mut first = Vec::with_capacity(adjacency.len() + 1);
        let mut arena = Vec::with_capacity(edges.len());
        let mut position = vec![0u32; edges.len()];
        first.push(0);
        for list in adjacency {
            for &eid in list {
                position[eid] = arena.len() as u32;
                arena.push(eid);
            }
            first.push(arena.len());
        }
        let arcs = arena
            .iter()
            .map(|&eid| Arc {
                residual: edges[eid].residual,
                head: edges[eid].to as u32,
                twin: position[eid ^ 1],
            })
            .collect();
        Packed { first, arcs, arena }
    }

    /// The packed positions of `u`'s arcs.
    fn arcs_of(&self, u: usize) -> std::ops::Range<usize> {
        self.first[u]..self.first[u + 1]
    }

    /// Moves `delta` along arc `i` (and back along its twin), announcing the
    /// arena pair to the undo-log first.  The arena itself is untouched
    /// until [`Packed::write_back`], so the journal records the values the
    /// solve started from.
    #[inline]
    fn push(&mut self, i: usize, delta: f64, edges: &[ArenaEdge], writes: &mut Writes) {
        writes.journal_pair(self.arena[i], edges);
        self.arcs[i].residual -= delta;
        let twin = self.arcs[i].twin as usize;
        self.arcs[twin].residual += delta;
    }

    fn write_back(&self, edges: &mut [ArenaEdge]) {
        for (arc, &eid) in self.arcs.iter().zip(&self.arena) {
            edges[eid].residual = arc.residual;
        }
    }
}

/// Core push-relabel routine operating on the shared arena representation.
///
/// Returns the max-flow value; residual capacities in `edges` are updated so
/// the caller can recover per-edge flows.
pub(crate) fn run(
    edges: &mut [ArenaEdge],
    adjacency: &[Vec<usize>],
    n: usize,
    source: usize,
    sink: usize,
    writes: &mut Writes,
) -> f64 {
    // Work with a tolerance proportional to the largest capacity: with
    // capacities spanning many orders of magnitude (coordinator links measure
    // hundreds of millions of tokens/s, compute edges hundreds), cancellation
    // error leaves "excess dust" far above the absolute FLOW_EPS, and chasing
    // it makes the discharge loop arbitrarily slow without changing the flow.
    let max_cap = edges.iter().map(|e| e.cap).fold(0.0_f64, f64::max);
    let eps = (max_cap * 1e-12).max(FLOW_EPS);
    let mut g = Packed::new(edges, adjacency);
    // Initial heights: exact BFS distance to the sink in the residual graph
    // (which equals the original graph before any pushes).  Unreachable nodes
    // and the source start at `n`.
    let mut height = vec![n; n];
    {
        height[sink] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(sink);
        let mut seen = vec![false; n];
        seen[sink] = true;
        while let Some(u) = queue.pop_front() {
            for i in g.arcs_of(u) {
                let Arc { head, twin, .. } = g.arcs[i];
                let v = head as usize;
                // Residual arc v -> u is the twin of u -> v.
                if !seen[v] && g.arcs[twin as usize].residual > eps {
                    seen[v] = true;
                    height[v] = height[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        height[source] = n;
    }

    let mut excess = vec![0.0f64; n];
    let mut current: Vec<usize> = g.first[..n].to_vec();
    let mut active: VecDeque<usize> = VecDeque::new();
    let mut in_queue = vec![false; n];

    // Saturate all edges leaving the source.
    for i in g.arcs_of(source) {
        let delta = g.arcs[i].residual;
        if delta <= eps {
            continue;
        }
        let v = g.arcs[i].head as usize;
        if v == source {
            continue;
        }
        g.push(i, delta, edges, writes);
        excess[v] += delta;
        excess[source] -= delta;
        if v != sink && !in_queue[v] {
            active.push_back(v);
            in_queue[v] = true;
        }
    }

    while let Some(u) = active.pop_front() {
        in_queue[u] = false;
        debug_assert!(u != source && u != sink);
        let own = g.arcs_of(u);
        // Discharge u until its excess is gone.  A push from u never lands on
        // u (that needs `height[u] == height[u] + 1`), so u's excess and
        // current arc live in locals until the discharge ends.
        let (mut left, mut i) = (excess[u], current[u]);
        while left > eps {
            if i == own.end {
                // Relabel: lift u just above its lowest residual neighbour,
                // and resume at the first arc reaching that neighbour.
                let (mut min_height, mut lowest) = (usize::MAX, own.end);
                for j in own.clone() {
                    let arc = g.arcs[j];
                    if arc.residual > eps && height[arc.head as usize] < min_height {
                        min_height = height[arc.head as usize];
                        lowest = j;
                    }
                }
                if min_height == usize::MAX {
                    // A node with positive excess always has a residual edge
                    // back along the path the excess arrived on; this branch
                    // is unreachable but kept as a safeguard against float
                    // noise so we never spin forever.
                    break;
                }
                debug_assert!(min_height >= height[u], "a relabel lifts the node");
                height[u] = min_height + 1;
                i = lowest;
            }
            let arc = g.arcs[i];
            let v = arc.head as usize;
            if arc.residual > eps && height[u] == height[v] + 1 {
                let delta = left.min(arc.residual);
                g.push(i, delta, edges, writes);
                left -= delta;
                excess[v] += delta;
                if v != source && v != sink && !in_queue[v] && excess[v] > eps {
                    active.push_back(v);
                    in_queue[v] = true;
                }
            } else {
                i += 1;
            }
        }
        excess[u] = left;
        current[u] = i;
    }

    g.write_back(edges);
    excess[sink].max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeId, FlowNetwork, MaxFlowAlgorithm, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The FIFO loop as it ran on the arena before the packed layout: the
    /// oracle the packed loop must match bit for bit.
    fn run_arena(
        edges: &mut [ArenaEdge],
        adjacency: &[Vec<usize>],
        n: usize,
        source: usize,
        sink: usize,
    ) -> f64 {
        let max_cap = edges.iter().map(|e| e.cap).fold(0.0_f64, f64::max);
        let eps = (max_cap * 1e-12).max(FLOW_EPS);
        let mut height = vec![n; n];
        height[sink] = 0;
        let mut queue = VecDeque::from([sink]);
        let mut seen = vec![false; n];
        seen[sink] = true;
        while let Some(u) = queue.pop_front() {
            for &eid in &adjacency[u] {
                let v = edges[eid].to;
                if !seen[v] && edges[eid ^ 1].residual > eps {
                    seen[v] = true;
                    height[v] = height[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        height[source] = n;
        let mut excess = vec![0.0f64; n];
        let mut current = vec![0usize; n];
        let mut active: VecDeque<usize> = VecDeque::new();
        let mut in_queue = vec![false; n];
        for &eid in &adjacency[source] {
            let delta = edges[eid].residual;
            let v = edges[eid].to;
            if delta <= eps || v == source {
                continue;
            }
            edges[eid].residual -= delta;
            edges[eid ^ 1].residual += delta;
            excess[v] += delta;
            excess[source] -= delta;
            if v != sink && !in_queue[v] {
                active.push_back(v);
                in_queue[v] = true;
            }
        }
        while let Some(u) = active.pop_front() {
            in_queue[u] = false;
            while excess[u] > eps {
                if current[u] == adjacency[u].len() {
                    let mut min_height = usize::MAX;
                    for &eid in &adjacency[u] {
                        if edges[eid].residual > eps {
                            min_height = min_height.min(height[edges[eid].to]);
                        }
                    }
                    if min_height == usize::MAX {
                        break;
                    }
                    height[u] = min_height + 1;
                    current[u] = 0;
                }
                let eid = adjacency[u][current[u]];
                let v = edges[eid].to;
                if edges[eid].residual > eps && height[u] == height[v] + 1 {
                    let delta = excess[u].min(edges[eid].residual);
                    edges[eid].residual -= delta;
                    edges[eid ^ 1].residual += delta;
                    excess[u] -= delta;
                    excess[v] += delta;
                    if v != source && v != sink && !in_queue[v] && excess[v] > eps {
                        active.push_back(v);
                        in_queue[v] = true;
                    }
                } else {
                    current[u] += 1;
                }
            }
        }
        excess[sink].max(0.0)
    }

    /// A random graph with parallel, antiparallel and self-loop edges, zero
    /// capacities and capacities over six orders of magnitude.
    fn random_network(rng: &mut StdRng) -> FlowNetwork {
        let n: usize = rng.gen_range(3..40);
        let mut net = FlowNetwork::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("v{i}"))).collect();
        for _ in 0..rng.gen_range(n..6 * n) {
            let a = nodes[rng.gen_range(0..n)];
            let b = nodes[rng.gen_range(0..n)];
            let cap = match rng.gen_range(0..8u8) {
                0 => 0.0,
                1 => rng.gen_range(1e5..1e8),
                _ => rng.gen_range(0.01..1e3),
            };
            net.add_edge(a, b, cap);
        }
        net
    }

    /// Runs the packed loop and the arena oracle on copies of `edges` and
    /// asserts the value and every residual are bit-equal.
    fn assert_packed_matches_arena(net: &FlowNetwork, edges: &[ArenaEdge], s: usize, t: usize) {
        let n = net.node_count();
        let mut packed = edges.to_vec();
        let mut arena = edges.to_vec();
        let value = run(&mut packed, &net.adjacency, n, s, t, &mut Writes::default());
        let expected = run_arena(&mut arena, &net.adjacency, n, s, t);
        assert_eq!(value.to_bits(), expected.to_bits());
        for (i, (p, a)) in packed.iter().zip(&arena).enumerate() {
            assert_eq!(p.residual.to_bits(), a.residual.to_bits(), "arena edge {i}");
        }
    }

    #[test]
    fn packed_arcs_push_exactly_as_the_arena_loop_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..300 {
            let mut net = random_network(&mut rng);
            let n = net.node_count();
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s == t {
                continue;
            }
            // Cold, from the zero flow.
            assert_packed_matches_arena(&net, &net.clone_arena(), s, t);
            // Warm, from a standing flow whose capacities then grew.
            net.resolve_from_residual(NodeId(s), NodeId(t), MaxFlowAlgorithm::Dinic)
                .unwrap();
            for e in 0..net.edge_count() {
                if rng.gen_bool(0.3) {
                    let cap = net.capacity(EdgeId(e)).unwrap();
                    net.set_capacity(EdgeId(e), cap * 1.5 + 1.0).unwrap();
                }
            }
            assert_packed_matches_arena(&net, &net.edges, s, t);
        }
    }

    #[test]
    fn matches_dinic_on_layered_graph() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let mids: Vec<_> = (0..6).map(|i| net.add_node(format!("m{i}"))).collect();
        let t = net.add_node("t");
        for (i, &m) in mids.iter().enumerate() {
            net.add_edge(s, m, (i + 1) as f64);
            net.add_edge(m, t, (6 - i) as f64);
        }
        for w in mids.windows(2) {
            net.add_edge(w[0], w[1], 2.5);
        }
        let pr = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        let di = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert!((pr.value - di.value).abs() < 1e-9);
        net.validate_flow(&pr.edge_flows, s, t).unwrap();
    }

    #[test]
    fn handles_fractional_capacities() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let t = net.add_node("t");
        net.add_edge(s, a, 0.3);
        net.add_edge(a, t, 0.7);
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        assert!((r.value - 0.3).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_in_middle_is_respected() {
        // s -> a -> b -> t with a thin a->b link and fat outer links.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 1000.0);
        net.add_edge(a, b, 1.5);
        net.add_edge(b, t, 1000.0);
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        assert!((r.value - 1.5).abs() < 1e-9);
    }

    #[test]
    fn resulting_preflow_is_a_valid_flow() {
        // Dead-end branch: excess pushed into `dead` must drain back out.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let dead = net.add_node("dead");
        let t = net.add_node("t");
        net.add_edge(s, a, 10.0);
        net.add_edge(a, dead, 8.0);
        net.add_edge(a, t, 2.0);
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        assert!((r.value - 2.0).abs() < 1e-9);
        net.validate_flow(&r.edge_flows, s, t).unwrap();
    }

    #[test]
    fn large_grid_graph_terminates_and_matches() {
        // 6x6 grid from top-left to bottom-right.
        let mut net = FlowNetwork::new();
        let nodes: Vec<Vec<_>> = (0..6)
            .map(|r| (0..6).map(|c| net.add_node(format!("{r},{c}"))).collect())
            .collect();
        for r in 0..6 {
            for c in 0..6 {
                if c + 1 < 6 {
                    net.add_edge(nodes[r][c], nodes[r][c + 1], ((r + c) % 3 + 1) as f64);
                }
                if r + 1 < 6 {
                    net.add_edge(nodes[r][c], nodes[r + 1][c], ((r * c) % 4 + 1) as f64);
                }
            }
        }
        let s = nodes[0][0];
        let t = nodes[5][5];
        let pr = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        let ek = net.max_flow_with(s, t, MaxFlowAlgorithm::EdmondsKarp);
        assert!((pr.value - ek.value).abs() < 1e-9);
        net.validate_flow(&pr.edge_flows, s, t).unwrap();
    }
}
