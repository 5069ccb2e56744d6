//! Preflow-push (push-relabel) maximum flow.
//!
//! This is the algorithm cited by the Helix paper (§4.3, "we run the
//! preflow-push algorithm to get the max flow between source and sink").  The
//! implementation uses FIFO active-node selection with an initial global
//! relabeling (exact BFS distances from the sink), which is more than fast
//! enough for the cluster graphs Helix produces (tens to hundreds of nodes).
//!
//! The discharge loop always drains a node's excess completely before moving
//! on, so on termination every non-terminal node is balanced and the computed
//! preflow is a genuine flow (not just a max *value*).

use crate::graph::{ArenaEdge, FlowNetwork, FlowResult, NodeId, Writes};
use crate::FLOW_EPS;
use std::collections::VecDeque;

/// Computes the maximum flow on `network` from `source` to `sink` with the
/// preflow-push algorithm.
///
/// This is a convenience wrapper over
/// [`FlowNetwork::max_flow_with`](crate::FlowNetwork::max_flow_with) with
/// [`MaxFlowAlgorithm::PushRelabel`](crate::MaxFlowAlgorithm::PushRelabel).
///
/// # Panics
///
/// Panics if `source == sink` or either node is not part of `network`.
pub fn push_relabel(network: &FlowNetwork, source: NodeId, sink: NodeId) -> FlowResult {
    network.max_flow_with(source, sink, crate::MaxFlowAlgorithm::PushRelabel)
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
            for &eid in &adjacency[u] {
                let v = edges[eid].to;
                // Residual edge v -> u is the twin of u -> v.
                if !seen[v] && edges[eid ^ 1].residual > eps {
                    seen[v] = true;
                    height[v] = height[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        height[source] = n;
    }

    let mut excess = vec![0.0f64; n];
    let mut current = vec![0usize; n];
    let mut active: VecDeque<usize> = VecDeque::new();
    let mut in_queue = vec![false; n];

    // Saturate all edges leaving the source.
    for &eid in &adjacency[source] {
        let delta = edges[eid].residual;
        if delta <= eps {
            continue;
        }
        let v = edges[eid].to;
        if v == source {
            continue;
        }
        writes.journal_pair(eid, edges);
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
        debug_assert!(u != source && u != sink);
        // Discharge u until its excess is gone.
        while excess[u] > eps {
            if current[u] == adjacency[u].len() {
                // Relabel: lift u just above its lowest residual neighbour.
                let mut min_height = usize::MAX;
                for &eid in &adjacency[u] {
                    if edges[eid].residual > eps {
                        min_height = min_height.min(height[edges[eid].to]);
                    }
                }
                if min_height == usize::MAX {
                    // A node with positive excess always has a residual edge
                    // back along the path the excess arrived on; this branch
                    // is unreachable but kept as a safeguard against float
                    // noise so we never spin forever.
                    break;
                }
                height[u] = min_height + 1;
                current[u] = 0;
            }
            let eid = adjacency[u][current[u]];
            let v = edges[eid].to;
            if edges[eid].residual > eps && height[u] == height[v] + 1 {
                let delta = excess[u].min(edges[eid].residual);
                writes.journal_pair(eid, edges);
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

#[cfg(test)]
mod tests {
    use crate::{FlowNetwork, MaxFlowAlgorithm};

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
