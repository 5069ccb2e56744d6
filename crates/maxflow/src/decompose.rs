//! Decomposition of a feasible flow into source→sink paths.
//!
//! Helix binds an interleaved weighted round-robin scheduler to each vertex
//! whose candidate weights equal the flow over the outgoing network
//! connections in the max-flow solution (paper §5.1).  Decomposing the flow
//! into explicit paths is also useful for debugging placements and for the
//! per-request pipeline visualisations in the experiment harnesses.

use crate::error::FlowError;
use crate::graph::{EdgeId, FlowNetwork, FlowResult, NodeId};
use crate::FLOW_EPS;

/// One source→sink path and the amount of flow assigned to it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPath {
    /// Nodes along the path, starting at the source and ending at the sink.
    pub nodes: Vec<NodeId>,
    /// Edges along the path (one fewer than `nodes`).
    pub edges: Vec<EdgeId>,
    /// Flow carried by this path.
    pub amount: f64,
}

/// Decomposes a feasible s-t flow into at most `E` paths (plus ignores any
/// flow on cycles, which cannot contribute to throughput).
///
/// The path amounts sum to the flow value leaving the source.
///
/// # Errors
///
/// Returns [`FlowError::NotAFlow`] if `flow` violates conservation at some
/// intermediate node, or [`FlowError::InvalidCapacity`] if an edge flow
/// exceeds its capacity.
///
/// # Example
///
/// ```rust
/// use helix_maxflow::{decompose_paths, FlowNetwork};
///
/// let mut net = FlowNetwork::new();
/// let s = net.add_node("s");
/// let a = net.add_node("a");
/// let b = net.add_node("b");
/// let t = net.add_node("t");
/// net.add_edge(s, a, 2.0).unwrap();
/// net.add_edge(s, b, 1.0).unwrap();
/// net.add_edge(a, t, 2.0).unwrap();
/// net.add_edge(b, t, 1.0).unwrap();
/// let flow = net.max_flow(s, t);
/// let paths = decompose_paths(&net, &flow, s, t).unwrap();
/// let total: f64 = paths.iter().map(|p| p.amount).sum();
/// assert!((total - 3.0).abs() < 1e-9);
/// ```
pub fn decompose_paths(
    network: &FlowNetwork,
    flow: &FlowResult,
    source: NodeId,
    sink: NodeId,
) -> Result<Vec<FlowPath>, FlowError> {
    network.validate_flow(&flow.edge_flows, source, sink)?;

    // Remaining flow per forward edge; we repeatedly trace a path from source
    // to sink through edges with remaining flow and subtract the bottleneck.
    let mut remaining: Vec<f64> = flow.edge_flows.clone();
    // Outgoing forward edges per node, as (edge index, to) pairs.
    let n = network.node_count();
    let mut out: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for e in network.edges() {
        out[e.from.index()].push((e.id.index(), e.to.index()));
    }

    let mut paths = Vec::new();
    loop {
        // Greedy walk from the source along positive-flow edges.
        let mut node = source.index();
        let mut path_nodes = vec![source];
        let mut path_edges: Vec<EdgeId> = Vec::new();
        // Index in `path_nodes` of each node on the walk.
        let mut on_walk: Vec<Option<usize>> = vec![None; n];
        on_walk[node] = Some(0);
        let mut reached_sink = false;
        while node != sink.index() {
            let next = out[node]
                .iter()
                .find(|&&(eidx, _)| remaining[eidx] > FLOW_EPS)
                .copied();
            let Some((eidx, to)) = next else { break };
            path_edges.push(EdgeId(eidx));
            path_nodes.push(NodeId(to));
            node = to;
            if node == sink.index() {
                reached_sink = true;
                break;
            }
            if let Some(cycle_start) = on_walk[node] {
                // Found a cycle: cancel the flow around it and rewind the
                // walk to where the cycle starts.
                let cycle_edges = &path_edges[cycle_start..];
                let bottleneck = cycle_edges
                    .iter()
                    .map(|e| remaining[e.index()])
                    .fold(f64::INFINITY, f64::min);
                for e in cycle_edges {
                    remaining[e.index()] -= bottleneck;
                }
                for p in &path_nodes[cycle_start + 1..path_nodes.len() - 1] {
                    on_walk[p.index()] = None;
                }
                path_nodes.truncate(cycle_start + 1);
                path_edges.truncate(cycle_start);
                continue;
            }
            on_walk[node] = Some(path_nodes.len() - 1);
        }
        if !reached_sink {
            break;
        }
        let bottleneck = path_edges
            .iter()
            .map(|e| remaining[e.index()])
            .fold(f64::INFINITY, f64::min);
        // NaN-safe: break unless the bottleneck is definitely above the
        // tolerance.
        if bottleneck.partial_cmp(&FLOW_EPS) != Some(std::cmp::Ordering::Greater) {
            break;
        }
        for e in &path_edges {
            remaining[e.index()] -= bottleneck;
        }
        paths.push(FlowPath {
            nodes: path_nodes,
            edges: path_edges,
            amount: bottleneck,
        });
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_totals_match_flow_value() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        let t = net.add_node("t");
        net.add_edge(s, a, 4.0).unwrap();
        net.add_edge(s, b, 3.0).unwrap();
        net.add_edge(a, c, 2.0).unwrap();
        net.add_edge(a, t, 2.0).unwrap();
        net.add_edge(b, c, 3.0).unwrap();
        net.add_edge(c, t, 5.0).unwrap();
        let flow = net.max_flow(s, t);
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        let total: f64 = paths.iter().map(|p| p.amount).sum();
        assert!((total - flow.value).abs() < 1e-9);
        for p in &paths {
            assert_eq!(p.nodes.first(), Some(&s));
            assert_eq!(p.nodes.last(), Some(&t));
            assert_eq!(p.nodes.len(), p.edges.len() + 1);
            assert!(!p.edges.is_empty());
        }
    }

    #[test]
    fn per_edge_usage_matches_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let t = net.add_node("t");
        let e1 = net.add_edge(s, a, 5.0).unwrap();
        let e2 = net.add_edge(a, t, 3.0).unwrap();
        let flow = net.max_flow(s, t);
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        let mut usage = vec![0.0; net.edge_count()];
        for p in &paths {
            for e in &p.edges {
                usage[e.index()] += p.amount;
            }
        }
        assert!((usage[e1.index()] - flow.flow(e1)).abs() < 1e-9);
        assert!((usage[e2.index()] - flow.flow(e2)).abs() < 1e-9);
    }

    #[test]
    fn zero_flow_decomposes_to_no_paths() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        let flow = net.max_flow(s, t);
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn rejects_invalid_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let t = net.add_node("t");
        net.add_edge(s, a, 5.0).unwrap();
        net.add_edge(a, t, 5.0).unwrap();
        let bogus = FlowResult {
            value: 2.0,
            edge_flows: vec![2.0, 0.0],
        };
        assert!(decompose_paths(&net, &bogus, s, t).is_err());
    }

    #[test]
    fn flow_with_cycle_component_is_handled() {
        // Manually construct a flow with a cycle a->b->a on top of a path.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 2.0).unwrap(); // e0
        net.add_edge(a, b, 3.0).unwrap(); // e1
        net.add_edge(b, a, 3.0).unwrap(); // e2
        net.add_edge(a, t, 2.0).unwrap(); // e3
                                          // 2 units s->a->t plus 1 unit circulating a->b->a.
        let flow = FlowResult {
            value: 2.0,
            edge_flows: vec![2.0, 1.0, 1.0, 2.0],
        };
        net.validate_flow(&flow.edge_flows, s, t).unwrap();
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        let total: f64 = paths.iter().map(|p| p.amount).sum();
        assert!((total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn a_node_dropped_by_a_cancelled_cycle_can_be_walked_again() {
        // The walk s->a->b->c->a closes the cycle a->b->c->a, whose
        // cancellation drops b and c from the walk; the walk then resumes at
        // a and re-enters b, which must count as a fresh node, not a cycle.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        let t = net.add_node("t");
        net.add_edge(s, a, 1.0).unwrap(); // e0
        net.add_edge(a, b, 2.0).unwrap(); // e1
        net.add_edge(b, c, 1.0).unwrap(); // e2, listed before b->t
        net.add_edge(c, a, 1.0).unwrap(); // e3
        net.add_edge(b, t, 1.0).unwrap(); // e4
        let flow = FlowResult {
            value: 1.0,
            edge_flows: vec![1.0, 2.0, 1.0, 1.0, 1.0],
        };
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![s, a, b, t]);
        assert!((paths[0].amount - flow.value).abs() < 1e-9);
    }
}
