//! Cluster specifications and builders for the paper's evaluation setups.

use crate::gpu::GpuType;
use crate::node::{ComputeNode, NetworkLink, NodeId, Region};
use std::collections::HashMap;

/// Endpoint key used for link overrides (`None` = coordinator).
type Endpoint = Option<NodeId>;

/// A heterogeneous GPU cluster: compute nodes plus a network model.
///
/// Bandwidth between two endpoints defaults to the intra-region values when
/// both live in the same region and to the inter-region values otherwise;
/// individual directed links can be overridden (used for the paper's Fig. 2
/// example where every link has a distinct bandwidth).
///
/// The coordinator node is implicit: it routes tokens to/from compute nodes
/// and belongs to `coordinator_region`.
///
/// # Example
///
/// ```rust
/// use helix_cluster::ClusterSpec;
///
/// let cluster = ClusterSpec::single_cluster_24();
/// assert_eq!(cluster.num_nodes(), 24);
/// let link = cluster.link(None, Some(cluster.nodes()[0].id));
/// assert_eq!(link.bandwidth_mbps, 10_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name of the setup.
    pub name: String,
    nodes: Vec<ComputeNode>,
    /// Region of the coordinator node.
    pub coordinator_region: Region,
    /// Bandwidth between endpoints in the same region (Mbit/s).
    pub intra_region_bandwidth_mbps: f64,
    /// Bandwidth between endpoints in different regions (Mbit/s).
    pub inter_region_bandwidth_mbps: f64,
    /// One-way latency within a region (ms).
    pub intra_region_latency_ms: f64,
    /// One-way latency across regions (ms).
    pub inter_region_latency_ms: f64,
    /// Per-directed-link overrides.
    overrides: HashMap<(Endpoint, Endpoint), (f64, f64)>,
}

impl ClusterSpec {
    /// The compute nodes, indexed by [`NodeId::index`].
    pub fn nodes(&self) -> &[ComputeNode] {
        &self.nodes
    }

    /// Number of compute nodes (the coordinator is not counted).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &ComputeNode {
        &self.nodes[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The directed network link between two endpoints (`None` =
    /// coordinator).
    ///
    /// # Panics
    ///
    /// Panics if both endpoints are the same compute node or both are the
    /// coordinator.
    pub fn link(&self, from: Endpoint, to: Endpoint) -> NetworkLink {
        assert!(from != to, "a link needs two distinct endpoints");
        if let Some(&(bw, lat)) = self.overrides.get(&(from, to)) {
            return NetworkLink {
                from,
                to,
                bandwidth_mbps: bw,
                latency_ms: lat,
            };
        }
        let region_of = |e: Endpoint| match e {
            None => self.coordinator_region,
            Some(id) => self.node(id).region,
        };
        let same_region = region_of(from) == region_of(to);
        let (bw, lat) = if same_region {
            (
                self.intra_region_bandwidth_mbps,
                self.intra_region_latency_ms,
            )
        } else {
            (
                self.inter_region_bandwidth_mbps,
                self.inter_region_latency_ms,
            )
        };
        NetworkLink {
            from,
            to,
            bandwidth_mbps: bw,
            latency_ms: lat,
        }
    }

    // ------------------------------------------------------------------
    // Paper cluster setups (§6.2)
    // ------------------------------------------------------------------

    /// The paper's *single cluster* setup: 4×A100 + 8×L4 + 12×T4 nodes in one
    /// region connected with 10 Gb/s links.
    pub fn single_cluster_24() -> Self {
        ClusterBuilder::new("single-cluster-24")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 4, 1, Region(0))
            .add_nodes(GpuType::L4, 8, 1, Region(0))
            .add_nodes(GpuType::T4, 12, 1, Region(0))
            .build()
    }

    /// The paper's *geo-distributed clusters* setup: the same 24 GPUs split
    /// into 3 regions — (i) 4×A100, (ii) 2×L4 + 8×T4, (iii) 6×L4 + 4×T4 —
    /// with 100 Mb/s / 50 ms links across regions.
    pub fn geo_distributed_24() -> Self {
        ClusterBuilder::new("geo-distributed-24")
            .intra_region(10_000.0, 1.0)
            .inter_region(100.0, 50.0)
            .add_nodes(GpuType::A100_40, 4, 1, Region(0))
            .add_nodes(GpuType::L4, 2, 1, Region(1))
            .add_nodes(GpuType::T4, 8, 1, Region(1))
            .add_nodes(GpuType::L4, 6, 1, Region(2))
            .add_nodes(GpuType::T4, 4, 1, Region(2))
            .build()
    }

    /// The paper's *high GPU-heterogeneity* setup: 42 nodes with 7 node
    /// types (4×A100, 6×V100, 8×L4, 10×T4, 4×2L4, 6×2T4, 4×4T4) in one
    /// region.
    pub fn high_heterogeneity_42() -> Self {
        ClusterBuilder::new("high-heterogeneity-42")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 4, 1, Region(0))
            .add_nodes(GpuType::V100, 6, 1, Region(0))
            .add_nodes(GpuType::L4, 8, 1, Region(0))
            .add_nodes(GpuType::T4, 10, 1, Region(0))
            .add_nodes(GpuType::L4, 4, 2, Region(0))
            .add_nodes(GpuType::T4, 6, 2, Region(0))
            .add_nodes(GpuType::T4, 4, 4, Region(0))
            .build()
    }

    /// The small cluster used for the solver-quality study (§6.9, Fig. 12):
    /// 4×L4 + 6×T4 serving LLaMA 30B.
    pub fn solver_quality_10() -> Self {
        ClusterBuilder::new("solver-quality-10")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::L4, 4, 1, Region(0))
            .add_nodes(GpuType::T4, 6, 1, Region(0))
            .build()
    }

    /// The 3-node illustrative cluster of Fig. 2 (A100 + two T4s with
    /// per-link bandwidths in the tens of Mb/s).
    pub fn fig2_example() -> Self {
        let mut b = ClusterBuilder::new("fig2-example")
            .intra_region(100.0, 1.0)
            .add_nodes(GpuType::A100_40, 1, 1, Region(0))
            .add_nodes(GpuType::T4, 2, 1, Region(0));
        // Link bandwidths from Fig. 2a (Mb/s).
        let a100 = Some(NodeId(0));
        let t4_1 = Some(NodeId(1));
        let t4_2 = Some(NodeId(2));
        let coord = None;
        b = b
            .override_link(coord, a100, 80.0, 1.0)
            .override_link(a100, coord, 80.0, 1.0)
            .override_link(coord, t4_1, 40.0, 1.0)
            .override_link(t4_1, coord, 40.0, 1.0)
            .override_link(coord, t4_2, 20.0, 1.0)
            .override_link(t4_2, coord, 20.0, 1.0)
            .override_link(a100, t4_1, 60.0, 1.0)
            .override_link(t4_1, a100, 60.0, 1.0)
            .override_link(a100, t4_2, 50.0, 1.0)
            .override_link(t4_2, a100, 50.0, 1.0)
            .override_link(t4_1, t4_2, 90.0, 1.0)
            .override_link(t4_2, t4_1, 90.0, 1.0);
        b.build()
    }
}

/// Builder for [`ClusterSpec`].
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterBuilder, GpuType, Region};
///
/// let cluster = ClusterBuilder::new("tiny")
///     .intra_region(10_000.0, 1.0)
///     .add_nodes(GpuType::L4, 2, 1, Region(0))
///     .build();
/// assert_eq!(cluster.num_nodes(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    name: String,
    nodes: Vec<ComputeNode>,
    coordinator_region: Region,
    intra_bw: f64,
    inter_bw: f64,
    intra_lat: f64,
    inter_lat: f64,
    nic_mbps: f64,
    overrides: HashMap<(Endpoint, Endpoint), (f64, f64)>,
}

impl ClusterBuilder {
    /// Starts a new cluster description.
    pub fn new(name: impl Into<String>) -> Self {
        ClusterBuilder {
            name: name.into(),
            nodes: Vec::new(),
            coordinator_region: Region(0),
            intra_bw: 10_000.0,
            inter_bw: 100.0,
            intra_lat: 1.0,
            inter_lat: 50.0,
            nic_mbps: 10_000.0,
            overrides: HashMap::new(),
        }
    }

    /// Sets intra-region bandwidth (Mbit/s) and latency (ms).
    pub fn intra_region(mut self, bandwidth_mbps: f64, latency_ms: f64) -> Self {
        self.intra_bw = bandwidth_mbps;
        self.intra_lat = latency_ms;
        self
    }

    /// Sets inter-region bandwidth (Mbit/s) and latency (ms).
    pub fn inter_region(mut self, bandwidth_mbps: f64, latency_ms: f64) -> Self {
        self.inter_bw = bandwidth_mbps;
        self.inter_lat = latency_ms;
        self
    }

    /// Sets the NIC bandwidth assumed for subsequently added nodes (Mbit/s).
    pub fn nic_bandwidth(mut self, mbps: f64) -> Self {
        self.nic_mbps = mbps;
        self
    }

    /// Places the coordinator in the given region.
    pub fn coordinator_region(mut self, region: Region) -> Self {
        self.coordinator_region = region;
        self
    }

    /// Adds `count` nodes each carrying `gpus_per_node` GPUs of type `gpu`.
    pub fn add_nodes(
        mut self,
        gpu: GpuType,
        count: usize,
        gpus_per_node: usize,
        region: Region,
    ) -> Self {
        for _ in 0..count {
            let id = NodeId(self.nodes.len());
            let prefix = if gpus_per_node == 1 {
                gpu.short_name().to_lowercase()
            } else {
                format!("{}x{}", gpus_per_node, gpu.short_name().to_lowercase())
            };
            self.nodes.push(ComputeNode {
                id,
                name: format!("{prefix}-{}", id.index()),
                gpu,
                gpu_count: gpus_per_node,
                region,
                nic_bandwidth_mbps: self.nic_mbps,
            });
        }
        self
    }

    /// Overrides the bandwidth/latency of one directed link.
    pub fn override_link(
        mut self,
        from: Endpoint,
        to: Endpoint,
        bandwidth_mbps: f64,
        latency_ms: f64,
    ) -> Self {
        self.overrides
            .insert((from, to), (bandwidth_mbps, latency_ms));
        self
    }

    /// Finalises the cluster.
    pub fn build(self) -> ClusterSpec {
        ClusterSpec {
            name: self.name,
            nodes: self.nodes,
            coordinator_region: self.coordinator_region,
            intra_region_bandwidth_mbps: self.intra_bw,
            inter_region_bandwidth_mbps: self.inter_bw,
            intra_region_latency_ms: self.intra_lat,
            inter_region_latency_ms: self.inter_lat,
            overrides: self.overrides,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_matches_paper_composition() {
        let c = ClusterSpec::single_cluster_24();
        assert_eq!(c.num_nodes(), 24);
        let a100 = c
            .nodes()
            .iter()
            .filter(|n| n.gpu == GpuType::A100_40)
            .count();
        let l4 = c.nodes().iter().filter(|n| n.gpu == GpuType::L4).count();
        let t4 = c.nodes().iter().filter(|n| n.gpu == GpuType::T4).count();
        assert_eq!((a100, l4, t4), (4, 8, 12));
    }

    #[test]
    fn geo_distributed_uses_slow_inter_region_links() {
        let c = ClusterSpec::geo_distributed_24();
        assert_eq!(c.num_nodes(), 24);
        // Node 0 is an A100 in region 0; the L4s start after the A100s.
        let a100 = c
            .node_ids()
            .find(|&id| c.node(id).gpu == GpuType::A100_40)
            .unwrap();
        let l4 = c
            .node_ids()
            .find(|&id| c.node(id).gpu == GpuType::L4)
            .unwrap();
        assert_ne!(c.node(a100).region, c.node(l4).region);
        let cross = c.link(Some(a100), Some(l4));
        assert_eq!(cross.bandwidth_mbps, 100.0);
        assert_eq!(cross.latency_ms, 50.0);
        let same: Vec<_> = c
            .node_ids()
            .filter(|&id| c.node(id).region == c.node(a100).region && id != a100)
            .collect();
        let intra = c.link(Some(a100), Some(same[0]));
        assert_eq!(intra.bandwidth_mbps, 10_000.0);
    }

    #[test]
    fn high_heterogeneity_has_42_nodes_and_7_node_types() {
        let c = ClusterSpec::high_heterogeneity_42();
        assert_eq!(c.num_nodes(), 42);
        // 7 node types = (gpu, count) combinations.
        let mut combos: Vec<(GpuType, usize)> =
            c.nodes().iter().map(|n| (n.gpu, n.gpu_count)).collect();
        combos.sort();
        combos.dedup();
        assert_eq!(combos.len(), 7);
        // 4 of the nodes are 4xT4.
        assert_eq!(
            c.nodes()
                .iter()
                .filter(|n| n.gpu == GpuType::T4 && n.gpu_count == 4)
                .count(),
            4
        );
    }

    #[test]
    fn fig2_example_links_match_figure() {
        let c = ClusterSpec::fig2_example();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.link(None, Some(NodeId(0))).bandwidth_mbps, 80.0);
        assert_eq!(
            c.link(Some(NodeId(1)), Some(NodeId(2))).bandwidth_mbps,
            90.0
        );
        assert_eq!(
            c.link(Some(NodeId(0)), Some(NodeId(2))).bandwidth_mbps,
            50.0
        );
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_link_panics() {
        let c = ClusterSpec::solver_quality_10();
        let _ = c.link(Some(NodeId(0)), Some(NodeId(0)));
    }

    #[test]
    fn builder_nic_and_coordinator_region() {
        let c = ClusterBuilder::new("custom")
            .nic_bandwidth(25_000.0)
            .coordinator_region(Region(7))
            .add_nodes(GpuType::H100, 1, 1, Region(7))
            .add_nodes(GpuType::T4, 1, 1, Region(8))
            .build();
        assert_eq!(c.nodes()[0].nic_bandwidth_mbps, 25_000.0);
        assert_eq!(c.coordinator_region, Region(7));
        // Coordinator in region 7 -> fast link to the H100, slow to the T4.
        assert!(
            c.link(None, Some(NodeId(0))).bandwidth_mbps
                > c.link(None, Some(NodeId(1))).bandwidth_mbps
        );
    }
}
