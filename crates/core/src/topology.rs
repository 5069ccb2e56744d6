//! The shared planning artifact consumed by every downstream surface.
//!
//! Planning produces facts that scheduling, simulation and the prototype
//! runtime all need: which node holds which layers, which directed
//! connections survive under the placement, what every edge's capacity is,
//! and how the max-flow solution distributes throughput over nodes and
//! links.  Previously each consumer re-derived those facts from a
//! `(ClusterProfile, ModelPlacement)` pair — re-running connection-validity
//! checks, rebuilding flow graphs, re-solving max flow — and nothing
//! guaranteed they derived them identically.
//!
//! [`Topology`] is that planning output materialised **once**: build it from
//! the planner (or directly from a placement), then hand `&Topology` to
//! [`IwrrScheduler::from_topology`](crate::IwrrScheduler::from_topology), the
//! baseline schedulers, `helix_sim::ClusterSimulator` and
//! `helix_runtime::ServingRuntime`.  Every consumer now sees the same nodes,
//! the same surviving connections, the same capacities and the same flow
//! solution.

use crate::error::HelixError;
use crate::flow_graph::{Endpoint, FlowGraphBuilder, PlacementFlowGraph};
use crate::placement::{LayerRange, ModelPlacement};
use helix_cluster::{ClusterProfile, NodeId};
use helix_maxflow::FlowResult;
use std::collections::BTreeMap;

/// Planning facts about one compute node that holds layers.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyNode {
    /// The node.
    pub node: NodeId,
    /// Human-readable node name from the cluster spec.
    pub name: String,
    /// The contiguous layer range the placement assigned to the node.
    pub layers: LayerRange,
    /// Token throughput (tokens/s) of the node when holding `layers` — the
    /// capacity of its `c_in → c_out` edge in the flow graph.
    pub capacity: f64,
    /// Flow (tokens/s) the max-flow solution routes through the node.
    pub flow: f64,
    /// KV-cache capacity in tokens given the layers held.
    pub kv_capacity_tokens: f64,
}

/// One directed connection that survives under the placement, with its
/// capacity and assigned flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyLink {
    /// Sending endpoint.
    pub from: Endpoint,
    /// Receiving endpoint.
    pub to: Endpoint,
    /// Token capacity (tokens/s) of the connection in the flow graph.
    pub capacity: f64,
    /// Flow (tokens/s) the max-flow solution assigns to the connection —
    /// the IWRR scheduling weight of §5.1.
    pub flow: f64,
}

/// The typed planning artifact: cluster profile + placement + surviving
/// connections + max-flow solution, produced once and shared by the
/// scheduler, the simulator and the runtime.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
/// use helix_core::{heuristics, IwrrScheduler, Topology};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let placement = heuristics::swarm_placement(&profile).unwrap();
/// let topology = Topology::plan(&profile, &placement, true).unwrap();
/// assert!(topology.flow_value() > 0.0);
/// let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
/// # let _ = scheduler;
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    profile: ClusterProfile,
    placement: ModelPlacement,
    partial_inference: bool,
    flow_value: f64,
    num_pipelines: usize,
    nodes: BTreeMap<NodeId, TopologyNode>,
    links: Vec<TopologyLink>,
}

impl Topology {
    /// Builds the topology for `placement`: constructs the flow graph, runs
    /// max flow and materialises nodes, surviving connections, capacities
    /// and flows.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement is invalid for the profile.
    pub fn plan(
        profile: &ClusterProfile,
        placement: &ModelPlacement,
        partial_inference: bool,
    ) -> Result<Self, HelixError> {
        let graph = FlowGraphBuilder::new(profile)
            .partial_inference(partial_inference)
            .build(placement)?;
        let flow = graph.max_flow();
        Ok(Self::from_flow_graph(profile, &graph, &flow))
    }

    /// Like [`Topology::plan`], but scales individual node→node link
    /// capacities by per-link shares — how a multi-model fleet charges each
    /// tenant its fraction of a link both models route over.  An empty map
    /// reproduces [`Topology::plan`] bit-identically.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement is invalid for the profile.
    pub fn plan_with_link_shares(
        profile: &ClusterProfile,
        placement: &ModelPlacement,
        partial_inference: bool,
        link_shares: &std::collections::BTreeMap<(NodeId, NodeId), f64>,
    ) -> Result<Self, HelixError> {
        let graph = FlowGraphBuilder::new(profile)
            .partial_inference(partial_inference)
            .link_shares(link_shares)
            .build(placement)?;
        let flow = graph.max_flow();
        Ok(Self::from_flow_graph(profile, &graph, &flow))
    }

    /// Builds the topology from an already-constructed flow graph and its
    /// max-flow solution (used by planners that already solved the graph).
    pub(crate) fn from_flow_graph(
        profile: &ClusterProfile,
        graph: &PlacementFlowGraph,
        flow: &FlowResult,
    ) -> Self {
        let placement = graph.placement().clone();
        let nodes = placement
            .iter()
            .map(|(node, layers)| {
                let entry = TopologyNode {
                    node,
                    name: profile.cluster().node(node).name.clone(),
                    layers,
                    capacity: graph.node_capacity(node).unwrap_or(0.0),
                    flow: graph.node_flow(flow, node).unwrap_or(0.0),
                    kv_capacity_tokens: profile.kv_capacity_tokens(node, layers.len()),
                };
                (node, entry)
            })
            .collect();
        // The graph keeps its links sorted by `(from, to)`, and so do these.
        let links = graph
            .link_edges()
            .iter()
            .filter_map(|&((from, to), e)| {
                let capacity = graph.edge_capacity(e)?;
                Some(TopologyLink {
                    from,
                    to,
                    capacity,
                    flow: flow.flow(e),
                })
            })
            .collect();
        let num_pipelines = graph.decompose(flow).map(|p| p.len()).unwrap_or(0);
        Topology {
            profile: profile.clone(),
            placement,
            partial_inference: graph.partial_inference(),
            flow_value: flow.value,
            num_pipelines,
            nodes,
            links,
        }
    }

    /// The cluster profile the topology was planned against.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// The placement the topology realises.
    pub fn placement(&self) -> &ModelPlacement {
        &self.placement
    }

    /// Whether connection validity allowed partial inference.
    pub fn partial_inference(&self) -> bool {
        self.partial_inference
    }

    /// Maximum serving throughput (tokens/s): the value of the max flow.
    pub fn flow_value(&self) -> f64 {
        self.flow_value
    }

    /// Number of distinct pipelines in the flow decomposition.
    pub fn num_pipelines(&self) -> usize {
        self.num_pipelines
    }

    /// Planning facts for every node that holds layers, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = &TopologyNode> + '_ {
        self.nodes.values()
    }

    /// Planning facts for one node, if it holds layers.
    pub fn node(&self, node: NodeId) -> Option<&TopologyNode> {
        self.nodes.get(&node)
    }

    /// Every surviving directed connection with its capacity and flow,
    /// sorted by `(from, to)`.
    pub fn links(&self) -> &[TopologyLink] {
        &self.links
    }

    /// Outgoing connections of an endpoint with their max-flow weights (the
    /// IWRR weights of §5.1), sorted by destination.  The links are sorted
    /// by `(from, to)`, so these are one contiguous range of
    /// [`links`](Self::links), found by two binary searches: building a
    /// chooser for every vertex reads each link once.
    pub fn outgoing_flows(&self, from: Endpoint) -> &[TopologyLink] {
        let start = self.links.partition_point(|l| l.from < from);
        let end = self.links.partition_point(|l| l.from <= from);
        self.links.get(start..end).unwrap_or_default()
    }

    /// Number of model layers.
    pub fn num_layers(&self) -> usize {
        self.profile.model().num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn topology() -> Topology {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        Topology::plan(&profile, &placement, true).unwrap()
    }

    #[test]
    fn topology_matches_direct_flow_graph_evaluation() {
        let topo = topology();
        let graph = FlowGraphBuilder::new(topo.profile())
            .build(topo.placement())
            .unwrap();
        let flow = graph.max_flow();
        assert!((topo.flow_value() - flow.value).abs() < 1e-9);
        assert_eq!(topo.nodes().count(), topo.placement().num_assigned());
        for n in topo.nodes() {
            assert_eq!(graph.node_capacity(n.node), Some(n.capacity));
            assert!(n.kv_capacity_tokens > 0.0);
            assert!(n.flow <= n.capacity + 1e-6);
        }
    }

    #[test]
    fn links_conserve_the_coordinator_flow() {
        let topo = topology();
        let out: f64 = topo
            .outgoing_flows(Endpoint::Coordinator)
            .iter()
            .map(|l| l.flow)
            .sum();
        assert!((out - topo.flow_value()).abs() < 1e-6);
        let back: f64 = topo
            .links()
            .iter()
            .filter(|l| l.to == Endpoint::Coordinator)
            .map(|l| l.flow)
            .sum();
        assert!((back - topo.flow_value()).abs() < 1e-6);
    }

    /// An oracle for the one-pass build on four clusters: the links are
    /// strictly sorted, every endpoint's outgoing flows equal the links
    /// filtered on `from`, and every chooser weight is its link's flow.
    #[test]
    fn outgoing_flows_and_iwrr_weights_match_a_filter_over_the_links() {
        use crate::IwrrScheduler;
        use helix_cluster::{ClusterBuilder, GpuType, Region};
        let swarm_200 = ClusterBuilder::new("swarm-200")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 40, 1, Region(0))
            .add_nodes(GpuType::L4, 60, 1, Region(0))
            .add_nodes(GpuType::T4, 100, 1, Region(0))
            .build();
        let clusters = [
            ClusterSpec::single_cluster_24(),
            ClusterSpec::geo_distributed_24(),
            ClusterSpec::high_heterogeneity_42(),
            swarm_200,
        ];
        for cluster in clusters {
            let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_30b());
            let placement = heuristics::swarm_placement(&profile).unwrap();
            let topo = Topology::plan(&profile, &placement, true).unwrap();
            let links = topo.links();
            assert!(links
                .windows(2)
                .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
            let oracle = |e: Endpoint| -> Vec<TopologyLink> {
                links.iter().filter(|l| l.from == e).copied().collect()
            };
            let endpoints = topo.nodes().map(|n| Endpoint::Node(n.node));
            for e in endpoints.chain([Endpoint::Coordinator]) {
                assert_eq!(topo.outgoing_flows(e), oracle(e).as_slice(), "{e:?}");
            }
            let scheduler = IwrrScheduler::from_topology(&topo).unwrap();
            for l in links {
                let Endpoint::Node(to) = l.to else { continue };
                let from = match l.from {
                    Endpoint::Coordinator => None,
                    Endpoint::Node(n) => Some(n),
                };
                let expected = (l.flow > 0.0).then_some(l.flow);
                assert_eq!(scheduler.weight(from, to), expected, "{l:?}");
            }
        }
    }

    #[test]
    fn invalid_placement_is_rejected() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let empty = ModelPlacement::empty(profile.cluster().num_nodes());
        assert!(Topology::plan(&profile, &empty, true).is_err());
    }

    #[test]
    fn entry_nodes_and_counts_are_exposed() {
        let topo = topology();
        assert!(topo.placement().iter().any(|(_, r)| r.start == 0));
        assert!(topo.num_pipelines() >= 1);
        assert_eq!(topo.num_layers(), 60);
        assert!(topo.partial_inference());
        let first = topo.nodes().next().unwrap().node;
        assert!(topo.node(first).is_some());
    }
}
