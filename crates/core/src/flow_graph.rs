//! Graph abstraction of a cluster under a model placement (paper §4.3).
//!
//! Every compute node `c_i` becomes two vertices `c_in_i → c_out_i` whose
//! edge capacity is the node's token throughput for the layers it holds.
//! The coordinator becomes `source` and `sink`.  Valid network connections
//! become edges whose capacity is the link bandwidth divided by the per-token
//! transfer size (4-byte token ids to/from the coordinator, activation-sized
//! tensors between compute nodes).  The max flow from source to sink equals
//! the cluster's maximum serving throughput under the placement.
//!
//! The graph keeps its bookkeeping dense, so a build costs time linear in
//! its links: each node's vertices and capacity edge sit in tables indexed
//! by `NodeId`, and the link edges in one list sorted once by `(from, to)`.
//! A lookup is an index or a binary search, never a hash, and
//! [`PlacementFlowGraph::connections`] lists the links in that order.

use crate::error::HelixError;
use crate::placement::ModelPlacement;
use helix_cluster::{ClusterProfile, NodeId};
use helix_maxflow::{
    decompose_paths, EdgeId, FlowNetwork, FlowPath, FlowResult, NodeId as FlowNodeId,
};
use std::collections::{BTreeMap, HashMap};

/// An endpoint of the cluster topology: a compute node or the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// The coordinator (source/sink of the flow graph).
    Coordinator,
    /// A compute node.
    Node(NodeId),
}

/// Builder for [`PlacementFlowGraph`]s.
///
/// The builder captures the options that affect which network connections are
/// considered valid: partial inference (§4.4 "partial inference") and cluster
/// pruning (§4.5), which keeps only the fastest `degree` outgoing connections
/// per node.
#[derive(Debug, Clone)]
pub struct FlowGraphBuilder<'a> {
    profile: &'a ClusterProfile,
    partial_inference: bool,
    prune_degree: Option<usize>,
    link_shares: Option<&'a BTreeMap<(NodeId, NodeId), f64>>,
}

impl<'a> FlowGraphBuilder<'a> {
    /// Creates a builder with partial inference enabled and no pruning.
    pub fn new(profile: &'a ClusterProfile) -> Self {
        FlowGraphBuilder {
            profile,
            partial_inference: true,
            prune_degree: None,
            link_shares: None,
        }
    }

    /// Scales individual node→node link capacities by per-link shares
    /// (multi-model fleets split a link two co-located models both route
    /// over, mirroring the node compute/KV split).  Links absent from the map
    /// keep their full capacity bit-identically.
    pub fn link_shares(mut self, shares: &'a BTreeMap<(NodeId, NodeId), f64>) -> Self {
        self.link_shares = Some(shares);
        self
    }

    /// Enables or disables partial inference when deciding connection
    /// validity.
    pub fn partial_inference(mut self, enabled: bool) -> Self {
        self.partial_inference = enabled;
        self
    }

    /// Keeps only the `degree` highest-bandwidth outgoing node→node
    /// connections per node (coordinator connections are never pruned).
    pub fn prune_to_degree(mut self, degree: usize) -> Self {
        self.prune_degree = Some(degree);
        self
    }

    /// The set of directed node→node connections that survive pruning
    /// (independent of any placement).  Used both here and by the MILP
    /// planner to define the edge set `E`.
    pub fn candidate_connections(&self) -> Vec<(NodeId, NodeId)> {
        let cluster = self.profile.cluster();
        let ids: Vec<NodeId> = cluster.node_ids().collect();
        match self.prune_degree {
            None => {
                let mut all = Vec::new();
                for &a in &ids {
                    for &b in &ids {
                        if a != b {
                            all.push((a, b));
                        }
                    }
                }
                all
            }
            Some(degree) => {
                let mut kept = Vec::new();
                for &a in &ids {
                    let mut targets: Vec<NodeId> =
                        ids.iter().copied().filter(|&b| b != a).collect();
                    targets.sort_by(|&x, &y| {
                        let bx = cluster.link(Some(a), Some(x)).bandwidth_mbps;
                        let by = cluster.link(Some(a), Some(y)).bandwidth_mbps;
                        by.partial_cmp(&bx)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(x.cmp(&y))
                    });
                    for &b in targets.iter().take(degree) {
                        kept.push((a, b));
                    }
                }
                kept
            }
        }
    }

    /// Builds the flow graph for `placement`.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement is invalid for this profile (bad
    /// layer ranges, VRAM overruns, or no complete pipeline).
    pub fn build(&self, placement: &ModelPlacement) -> Result<PlacementFlowGraph, HelixError> {
        match self.prune_degree {
            // A connection needs both ends placed: unpruned, the candidates
            // worth visiting are the ordered pairs of placed nodes, in the
            // `(a, b)` order of `candidate_connections`, so the arena is the
            // one a walk over every candidate would build.
            None => {
                let placed: Vec<NodeId> = placement.iter().map(|(node, _)| node).collect();
                let pairs = placed.iter().flat_map(|&a| {
                    placed
                        .iter()
                        .filter(move |&&b| b != a)
                        .map(move |&b| (a, b))
                });
                self.build_over(placement, pairs)
            }
            Some(_) => self.build_over(placement, self.candidate_connections()),
        }
    }

    /// Builds the flow graph for `placement` with node→node edges for the
    /// valid connections among `pairs`, in `pairs` order.
    fn build_over(
        &self,
        placement: &ModelPlacement,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<PlacementFlowGraph, HelixError> {
        placement.validate(self.profile)?;
        let profile = self.profile;
        let model = profile.model();
        let num_layers = model.num_layers;

        let mut network = FlowNetwork::new();
        let source = network.add_node("source");
        let sink = network.add_node("sink");
        // Dense by node index.  An unplaced node keeps `(source, sink)`,
        // which nothing reads: only placed nodes get coordinator edges, and a
        // valid connection joins two placed nodes.
        let num_nodes = profile.cluster().num_nodes();
        let mut node_vertices = vec![(source, sink); num_nodes];
        let mut node_edges = vec![None; num_nodes];
        let mut link_edges: Vec<((Endpoint, Endpoint), EdgeId)> = Vec::new();

        // Compute-node vertices and their internal capacity edges.
        for (node, range) in placement.iter() {
            let name = &profile.cluster().node(node).name;
            let cin = network.add_node(format!("{name}.in"));
            let cout = network.add_node(format!("{name}.out"));
            let capacity = profile.node_profile(node).throughput(range.len());
            let edge = network.add_edge(cin, cout, capacity)?;
            node_vertices[node.index()] = (cin, cout);
            node_edges[node.index()] = Some(edge);
        }

        // Every unit of flow passes through at least one `c_in → c_out` edge
        // and the connection-validity rule makes the link graph acyclic, so
        // no single link ever carries more than the sum of node capacities.
        // Clamping link capacities to that bound keeps the max flow identical
        // while keeping all capacities within a few orders of magnitude of
        // each other — coordinator links (4-byte tokens over 10 Gb/s ≈ 3×10⁸
        // tokens/s) would otherwise dwarf compute capacities (10²–10³
        // tokens/s) and degrade max-flow numerics badly.
        let link_cap_bound: f64 = placement
            .iter()
            .map(|(node, range)| profile.node_profile(node).throughput(range.len()))
            .sum();
        let clamp = |cap: f64| cap.min(link_cap_bound);

        // Coordinator edges: source → nodes holding layer 0; nodes holding the
        // last layer → sink.
        for (node, range) in placement.iter() {
            let (cin, cout) = node_vertices[node.index()];
            if range.start == 0 {
                let cap = clamp(profile.link_profile(None, Some(node)).tokens_per_sec);
                let e = network.add_edge(source, cin, cap)?;
                link_edges.push(((Endpoint::Coordinator, Endpoint::Node(node)), e));
            }
            if range.end == num_layers {
                let cap = clamp(profile.link_profile(Some(node), None).tokens_per_sec);
                let e = network.add_edge(cout, sink, cap)?;
                link_edges.push(((Endpoint::Node(node), Endpoint::Coordinator), e));
            }
        }

        // Node→node edges for valid connections among the candidate set.
        for (a, b) in pairs {
            if placement.connection_valid(a, b, self.partial_inference) {
                let (_, a_out) = node_vertices[a.index()];
                let (b_in, _) = node_vertices[b.index()];
                let raw = profile.link_profile(Some(a), Some(b)).tokens_per_sec;
                // A fleet-shared link contributes only this model's share of
                // its bandwidth; sole-tenant links take the unscaled path so
                // their capacities stay bit-identical.
                let cap = match self.link_shares.and_then(|s| s.get(&(a, b))) {
                    Some(&share) => clamp(raw * share),
                    None => clamp(raw),
                };
                let e = network.add_edge(a_out, b_in, cap)?;
                link_edges.push(((Endpoint::Node(a), Endpoint::Node(b)), e));
            }
        }
        // Each pair is added once, so the sort leaves no tie to break.
        link_edges.sort_unstable_by_key(|&(link, _)| link);

        Ok(PlacementFlowGraph {
            network,
            source,
            sink,
            node_edges,
            link_edges,
            placement: placement.clone(),
            partial_inference: self.partial_inference,
        })
    }
}

/// The flow-graph abstraction of a cluster under a specific placement.
#[derive(Debug, Clone)]
pub struct PlacementFlowGraph {
    network: FlowNetwork,
    source: FlowNodeId,
    sink: FlowNodeId,
    /// Each node's `c_in → c_out` edge, by node index (`None`: no layers).
    node_edges: Vec<Option<EdgeId>>,
    /// Every link edge, sorted by `(from, to)`.
    link_edges: Vec<((Endpoint, Endpoint), EdgeId)>,
    placement: ModelPlacement,
    partial_inference: bool,
}

impl PlacementFlowGraph {
    /// The underlying flow network.
    pub fn network(&self) -> &FlowNetwork {
        &self.network
    }

    /// The placement this graph was built from.
    pub fn placement(&self) -> &ModelPlacement {
        &self.placement
    }

    /// Whether the graph was built allowing partial inference.
    pub fn partial_inference(&self) -> bool {
        self.partial_inference
    }

    /// Maximum serving throughput (tokens/s) of the cluster under this
    /// placement, together with per-edge flows.
    pub fn max_flow(&self) -> FlowResult {
        self.network.max_flow(self.source, self.sink)
    }

    /// Decomposes a flow into explicit source→sink paths (candidate
    /// per-request pipelines).
    ///
    /// # Errors
    ///
    /// Propagates [`helix_maxflow::FlowError`] if `flow` is not feasible for
    /// this network.
    pub fn decompose(&self, flow: &FlowResult) -> Result<Vec<FlowPath>, HelixError> {
        Ok(decompose_paths(
            &self.network,
            flow,
            self.source,
            self.sink,
        )?)
    }

    /// The flow (tokens/s) assigned to the directed connection between two
    /// endpoints, or `None` if that connection is not part of the graph.
    pub fn link_flow(&self, flow: &FlowResult, from: Endpoint, to: Endpoint) -> Option<f64> {
        let links = &self.link_edges;
        let i = links.binary_search_by_key(&(from, to), |&(link, _)| link);
        Some(flow.flow(links[i.ok()?].1))
    }

    /// The flow (tokens/s) processed by a compute node, or `None` if the node
    /// holds no layers.
    pub fn node_flow(&self, flow: &FlowResult, node: NodeId) -> Option<f64> {
        self.node_edge(node).map(|e| flow.flow(e))
    }

    /// The token-throughput capacity of a compute node in this graph.
    pub fn node_capacity(&self, node: NodeId) -> Option<f64> {
        self.edge_capacity(self.node_edge(node)?)
    }

    /// The `c_in → c_out` edge of a compute node, if it holds layers.
    fn node_edge(&self, node: NodeId) -> Option<EdgeId> {
        self.node_edges.get(node.index()).copied().flatten()
    }

    /// Every link edge with its endpoints, sorted by `(from, to)`.
    pub(crate) fn link_edges(&self) -> &[((Endpoint, Endpoint), EdgeId)] {
        &self.link_edges
    }

    /// The capacity of one of this graph's edges (all of them are valid, so
    /// this is `None` only for an id from another graph).
    pub(crate) fn edge_capacity(&self, edge: EdgeId) -> Option<f64> {
        self.network.edge(edge).ok().map(|e| e.capacity)
    }

    /// Per-node utilisation (flow / capacity) under a max-flow solution; used
    /// by the Fig. 9 case study.
    pub fn node_utilization(&self, flow: &FlowResult) -> HashMap<NodeId, f64> {
        self.placement
            .iter()
            .filter_map(|(node, _)| {
                let e = self.node_edge(node)?;
                let cap = self.edge_capacity(e)?;
                let f = flow.flow(e);
                Some((node, if cap > 0.0 { f / cap } else { 0.0 }))
            })
            .collect()
    }

    /// All directed connections present in the graph (excluding the internal
    /// `c_in → c_out` edges), with their capacities, in `(from, to)` order.
    pub fn connections(&self) -> Vec<(Endpoint, Endpoint, f64)> {
        self.link_edges
            .iter()
            .filter_map(|&((from, to), e)| Some((from, to, self.edge_capacity(e)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::LayerRange;
    use helix_cluster::{ClusterSpec, ModelConfig};
    use helix_maxflow::min_cut;

    /// The Fig. 2 example: A100 holds layers 1-2, T4-1 holds layer 1 (partial
    /// replica of layer 0 in our 0-based indexing), T4-2 holds layer 3.
    /// We reproduce the *structure*: A100 holds [0,2), T4-1 holds [0,1),
    /// T4-2 holds [2,3) for a 3-layer model.
    fn fig2_graph() -> (ClusterProfile, ModelPlacement) {
        let mut model = ModelConfig::llama2_70b();
        model.num_layers = 3;
        let profile = ClusterProfile::analytic(ClusterSpec::fig2_example(), model);
        let mut p = ModelPlacement::empty(3);
        p.assign(NodeId(0), LayerRange::new(0, 2)); // A100: layers 1 & 2
        p.assign(NodeId(1), LayerRange::new(0, 1)); // T4-1: layer 1
        p.assign(NodeId(2), LayerRange::new(2, 3)); // T4-2: layer 3
        (profile, p)
    }

    #[test]
    fn fig2_structure_and_flow() {
        let (profile, placement) = fig2_graph();
        let graph = FlowGraphBuilder::new(&profile).build(&placement).unwrap();
        // Source connects to both holders of layer 0 (A100 and T4-1);
        // only T4-2 holds the last layer, so only it connects to the sink.
        let conns = graph.connections();
        let to_a100 = conns
            .iter()
            .any(|(f, t, _)| *f == Endpoint::Coordinator && *t == Endpoint::Node(NodeId(0)));
        let to_t41 = conns
            .iter()
            .any(|(f, t, _)| *f == Endpoint::Coordinator && *t == Endpoint::Node(NodeId(1)));
        let from_t42 = conns
            .iter()
            .any(|(f, t, _)| *f == Endpoint::Node(NodeId(2)) && *t == Endpoint::Coordinator);
        let from_a100_direct = conns
            .iter()
            .any(|(f, t, _)| *f == Endpoint::Node(NodeId(0)) && *t == Endpoint::Coordinator);
        assert!(to_a100 && to_t41 && from_t42);
        assert!(!from_a100_direct, "A100 does not hold the last layer");
        let flow = graph.max_flow();
        assert!(flow.value > 0.0);
        // The whole throughput funnels through T4-2.
        let t42_flow = graph.node_flow(&flow, NodeId(2)).unwrap();
        assert!((t42_flow - flow.value).abs() < 1e-6);
        // Flow decomposes into pipelines ending at T4-2.
        let paths = graph.decompose(&flow).unwrap();
        assert!(!paths.is_empty());
        // The minimum cut's capacity equals the flow.
        let cut = min_cut(&graph.network, &flow, graph.source, graph.sink);
        assert!((cut.capacity - flow.value).abs() < 1e-6);
    }

    #[test]
    fn partial_inference_enables_more_connections() {
        let (profile, _) = fig2_graph();
        // A100 [0,2), T4-1 [1,3): with partial inference T4-1 can continue
        // from the A100 (position 2 inside [1,3)); without it cannot.
        let mut p = ModelPlacement::empty(3);
        p.assign(NodeId(0), LayerRange::new(0, 2));
        p.assign(NodeId(1), LayerRange::new(1, 3));
        p.assign(NodeId(2), LayerRange::new(2, 3));
        let with = FlowGraphBuilder::new(&profile)
            .partial_inference(true)
            .build(&p)
            .unwrap();
        let without = FlowGraphBuilder::new(&profile)
            .partial_inference(false)
            .build(&p)
            .unwrap();
        let has_a100_to_t41 = |g: &PlacementFlowGraph| {
            g.connections()
                .iter()
                .any(|(f, t, _)| *f == Endpoint::Node(NodeId(0)) && *t == Endpoint::Node(NodeId(1)))
        };
        assert!(has_a100_to_t41(&with));
        assert!(!has_a100_to_t41(&without));
        assert!(with.max_flow().value >= without.max_flow().value - 1e-9);
        assert!(with.partial_inference());
        assert!(!without.partial_inference());
    }

    #[test]
    fn pruning_limits_out_degree() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
        let full = FlowGraphBuilder::new(&profile).candidate_connections();
        let pruned = FlowGraphBuilder::new(&profile)
            .prune_to_degree(5)
            .candidate_connections();
        assert_eq!(full.len(), 24 * 23);
        assert_eq!(pruned.len(), 24 * 5);
        for id in profile.cluster().node_ids() {
            let out_degree = pruned.iter().filter(|(a, _)| *a == id).count();
            assert_eq!(out_degree, 5);
        }
    }

    #[test]
    fn invalid_placement_is_rejected_by_builder() {
        let (profile, _) = fig2_graph();
        let mut p = ModelPlacement::empty(3);
        p.assign(NodeId(0), LayerRange::new(0, 2));
        // No holder of the last layer -> no pipeline.
        assert!(matches!(
            FlowGraphBuilder::new(&profile).build(&p),
            Err(HelixError::NoCompletePipeline)
        ));
    }

    /// The unpruned build visits placed pairs only; the oracle walks every
    /// candidate connection.  Both must lay the arena out edge for edge.
    #[test]
    fn placed_pairs_build_the_arena_of_every_candidate_pair() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_13b());
        let num_layers = profile.model().num_layers;
        let mut p = ModelPlacement::empty(24);
        // Nodes 1, 5 and 9 to 22 hold staggered stages as wide as the
        // smallest of them can hold (two or more nodes per stage); the rest
        // (0, 2–4, 6–8 and 23) hold nothing.
        let placed = [1, 5, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22];
        let width = placed
            .iter()
            .map(|&v| profile.node_profile(NodeId(v)).max_layers)
            .min()
            .unwrap();
        let stages = num_layers.div_ceil(width);
        assert!(
            width > 2 && 2 * stages <= placed.len(),
            "{width} layers wide"
        );
        for (k, &v) in placed.iter().enumerate() {
            let stage = k % stages;
            let start = if stage + 1 == stages {
                num_layers - width
            } else {
                (stage * width).saturating_sub(k % 3)
            };
            p.assign(NodeId(v), LayerRange::new(start, start + width));
        }
        for partial in [true, false] {
            let builder = FlowGraphBuilder::new(&profile).partial_inference(partial);
            let placed_only = builder.build(&p).unwrap();
            let every_pair = builder
                .build_over(&p, builder.candidate_connections())
                .unwrap();
            let arena = |g: &PlacementFlowGraph| -> Vec<(usize, usize, u64)> {
                g.network()
                    .edges()
                    .map(|e| (e.from.index(), e.to.index(), e.capacity.to_bits()))
                    .collect()
            };
            assert_eq!(arena(&placed_only), arena(&every_pair));
            assert_eq!(
                placed_only.network().node_count(),
                every_pair.network().node_count()
            );
            assert!(placed_only.connections().len() > placed.len());
            assert_eq!(
                placed_only.max_flow().value.to_bits(),
                every_pair.max_flow().value.to_bits()
            );
        }
    }

    /// The connections come in `(from, to)` order, so two builds of one
    /// placement list them identically, whatever a process's hash seeds.
    #[test]
    fn two_builds_list_the_same_connections_in_from_to_order() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
        let placement = crate::placement::heuristics::petals_placement(&profile).unwrap();
        let build = || FlowGraphBuilder::new(&profile).build(&placement).unwrap();
        let (first, second) = (build().connections(), build().connections());
        assert!(first.len() > 24);
        let bits = |c: &[(Endpoint, Endpoint, f64)]| -> Vec<(Endpoint, Endpoint, u64)> {
            c.iter().map(|&(f, t, cap)| (f, t, cap.to_bits())).collect()
        };
        assert_eq!(bits(&first), bits(&second));
        assert!(first
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn utilization_and_outgoing_flows() {
        let (profile, placement) = fig2_graph();
        let graph = FlowGraphBuilder::new(&profile).build(&placement).unwrap();
        let flow = graph.max_flow();
        let util = graph.node_utilization(&flow);
        assert_eq!(util.len(), 3);
        for u in util.values() {
            assert!(*u >= 0.0 && *u <= 1.0 + 1e-9);
        }
        let out: Vec<f64> = graph
            .link_edges
            .iter()
            .filter(|((from, _), _)| *from == Endpoint::Coordinator)
            .map(|&(_, e)| flow.flow(e))
            .collect();
        assert!(!out.is_empty());
        let total: f64 = out.iter().sum();
        assert!((total - flow.value).abs() < 1e-6);
        assert!(graph.node_capacity(NodeId(0)).unwrap() > 0.0);
        assert!(graph.node_capacity(NodeId(3)).is_none());
    }
}
