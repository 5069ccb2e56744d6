//! Edmonds–Karp maximum flow (BFS augmenting paths).
//!
//! Slow but simple; used in tests and property checks as a third independent
//! implementation to compare against push-relabel and Dinic.

use crate::graph::{ArenaEdge, Writes};
use crate::FLOW_EPS;
use std::collections::VecDeque;

/// Core Edmonds–Karp routine operating on the shared arena representation.
pub(crate) fn run(
    edges: &mut [ArenaEdge],
    adjacency: &[Vec<usize>],
    n: usize,
    source: usize,
    sink: usize,
    writes: &mut Writes,
) -> f64 {
    let mut total = 0.0f64;
    loop {
        // BFS for the shortest augmenting path, remembering the edge used to
        // reach each node.
        let mut parent_edge = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        visited[source] = true;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        'bfs: while let Some(u) = queue.pop_front() {
            for &eid in &adjacency[u] {
                let v = edges[eid].to;
                if !visited[v] && edges[eid].residual > FLOW_EPS {
                    visited[v] = true;
                    parent_edge[v] = eid;
                    if v == sink {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !visited[sink] {
            break;
        }
        // Find the bottleneck along the path.
        let mut bottleneck = f64::INFINITY;
        let mut v = sink;
        while v != source {
            let eid = parent_edge[v];
            bottleneck = bottleneck.min(edges[eid].residual);
            v = edges[eid ^ 1].to;
        }
        // Augment.
        let mut v = sink;
        while v != source {
            let eid = parent_edge[v];
            writes.journal_pair(eid, edges);
            edges[eid].residual -= bottleneck;
            edges[eid ^ 1].residual += bottleneck;
            v = edges[eid ^ 1].to;
        }
        total += bottleneck;
    }
    total
}

#[cfg(test)]
mod tests {
    use crate::{FlowNetwork, MaxFlowAlgorithm};

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        net.add_edge(s, t, 7.25).unwrap();
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::EdmondsKarp);
        assert!((r.value - 7.25).abs() < 1e-12);
    }

    #[test]
    fn requires_flow_rerouting() {
        // The classic example where a greedy path must be partially undone via
        // the residual edge.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 1.0).unwrap();
        net.add_edge(s, b, 1.0).unwrap();
        net.add_edge(a, b, 1.0).unwrap();
        net.add_edge(a, t, 1.0).unwrap();
        net.add_edge(b, t, 1.0).unwrap();
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::EdmondsKarp);
        assert!((r.value - 2.0).abs() < 1e-12);
        net.validate_flow(&r.edge_flows, s, t).unwrap();
    }

    #[test]
    fn agrees_with_other_algorithms_on_dense_graph() {
        let mut net = FlowNetwork::new();
        let nodes: Vec<_> = (0..8).map(|i| net.add_node(format!("v{i}"))).collect();
        // Dense-ish DAG with deterministic pseudo-random capacities.
        for i in 0..8 {
            for j in (i + 1)..8 {
                let cap = ((i * 7 + j * 13) % 11) as f64 + 0.5;
                net.add_edge(nodes[i], nodes[j], cap).unwrap();
            }
        }
        let s = nodes[0];
        let t = nodes[7];
        let ek = net.max_flow_with(s, t, MaxFlowAlgorithm::EdmondsKarp);
        let di = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        let pr = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        assert!((ek.value - di.value).abs() < 1e-9);
        assert!((ek.value - pr.value).abs() < 1e-9);
    }
}
