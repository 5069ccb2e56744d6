//! Minimum s-t cut extraction from a maximum flow.

use crate::graph::{EdgeId, FlowNetwork, FlowResult, NodeId};
use crate::FLOW_EPS;
use std::collections::VecDeque;

/// A minimum s-t cut: the source-side node set and the saturated edges that
/// cross it.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Capacity of the cut (equals the max-flow value).
    pub capacity: f64,
    /// Nodes reachable from the source in the residual graph.
    pub source_side: Vec<NodeId>,
    /// Forward edges crossing from the source side to the sink side.
    pub cut_edges: Vec<EdgeId>,
}

impl MinCut {
    /// Whether `node` lies on the source side of the cut.
    pub fn contains(&self, node: NodeId) -> bool {
        self.source_side.contains(&node)
    }
}

/// Computes a minimum s-t cut from a previously computed maximum flow.
///
/// `flow` must be the [`FlowResult`] returned by a max-flow run on the same
/// `network` with the same `source`/`sink`; the cut is derived from residual
/// reachability, so passing a non-maximum flow yields a cut whose capacity is
/// larger than the flow value.
///
/// # Example
///
/// ```rust
/// use helix_maxflow::{min_cut, FlowNetwork};
///
/// let mut net = FlowNetwork::new();
/// let s = net.add_node("s");
/// let a = net.add_node("a");
/// let t = net.add_node("t");
/// net.add_edge(s, a, 10.0);
/// let bottleneck = net.add_edge(a, t, 4.0);
/// let flow = net.max_flow(s, t);
/// let cut = min_cut(&net, &flow, s, t);
/// assert_eq!(cut.cut_edges, vec![bottleneck]);
/// assert_eq!(cut.capacity, 4.0);
/// ```
pub fn min_cut(network: &FlowNetwork, flow: &FlowResult, source: NodeId, sink: NodeId) -> MinCut {
    let n = network.node_count();
    // Residual reachability from the source: an edge u->v is traversable if it
    // has slack (cap - flow > eps); a reverse edge v->u is traversable if the
    // forward edge carries flow.
    let mut residual_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in network.edges() {
        let f = flow.edge_flows.get(e.id.index()).copied().unwrap_or(0.0);
        if e.capacity - f > FLOW_EPS {
            residual_adj[e.from.index()].push(e.to.index());
        }
        if f > FLOW_EPS {
            residual_adj[e.to.index()].push(e.from.index());
        }
    }
    let mut reach = vec![false; n];
    reach[source.index()] = true;
    let mut queue = VecDeque::new();
    queue.push_back(source.index());
    while let Some(u) = queue.pop_front() {
        for &v in &residual_adj[u] {
            if !reach[v] {
                reach[v] = true;
                queue.push_back(v);
            }
        }
    }
    debug_assert!(
        !reach[sink.index()],
        "sink reachable in residual graph: flow was not maximum"
    );

    let mut cut_edges = Vec::new();
    let mut capacity = 0.0;
    for e in network.edges() {
        if reach[e.from.index()] && !reach[e.to.index()] {
            cut_edges.push(e.id);
            capacity += e.capacity;
        }
    }
    let source_side = (0..n).filter(|&i| reach[i]).map(NodeId).collect();
    MinCut {
        capacity,
        source_side,
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_capacity_equals_max_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 5.0);
        net.add_edge(a, t, 4.0);
        net.add_edge(b, t, 2.0);
        net.add_edge(a, b, 1.0);
        let flow = net.max_flow(s, t);
        let cut = min_cut(&net, &flow, s, t);
        assert!((cut.capacity - flow.value).abs() < 1e-9);
        assert!(cut.contains(s));
        assert!(!cut.contains(t));
    }

    #[test]
    fn identifies_single_bottleneck_edge() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 100.0);
        let narrow = net.add_edge(a, b, 2.5);
        net.add_edge(b, t, 100.0);
        let flow = net.max_flow(s, t);
        let cut = min_cut(&net, &flow, s, t);
        assert_eq!(cut.cut_edges, vec![narrow]);
        assert_eq!(cut.source_side.len(), 2);
    }

    #[test]
    fn disconnected_graph_has_empty_cut() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        let flow = net.max_flow(s, t);
        let cut = min_cut(&net, &flow, s, t);
        assert_eq!(cut.capacity, 0.0);
        assert!(cut.cut_edges.is_empty());
    }
}
