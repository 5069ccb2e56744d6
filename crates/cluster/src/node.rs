//! Compute nodes, regions and network links.

use crate::gpu::GpuType;
use std::fmt;

/// Identifier of a compute node within a [`ClusterSpec`](crate::ClusterSpec).
///
/// Ids are dense indices assigned in the order nodes were added; the
/// coordinator is not a compute node and has no `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A geographic region / datacenter; traffic within a region uses the
/// intra-region bandwidth, traffic across regions the inter-region bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region(pub u32);

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// One compute node: a machine with one or more GPUs of a single type.
///
/// Multi-GPU machines are treated as a single logical node aggregating the
/// GPUs' compute and VRAM (paper §4.1), with tensor parallelism assumed
/// inside the node.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeNode {
    /// Identifier within the cluster.
    pub id: NodeId,
    /// Human-readable name, e.g. `"a100-0"`.
    pub name: String,
    /// GPU model installed in this node.
    pub gpu: GpuType,
    /// Number of GPUs of that model (tensor-parallel within the node).
    pub gpu_count: usize,
    /// Region the node lives in.
    pub region: Region,
    /// NIC bandwidth in Mbit/s available for serving traffic.
    pub nic_bandwidth_mbps: f64,
}

impl ComputeNode {
    /// Total VRAM across the node's GPUs, in bytes.
    pub fn total_vram_bytes(&self) -> f64 {
        self.gpu.spec().memory_bytes() * self.gpu_count as f64
    }

    /// Total peak FP16 FLOP/s across the node's GPUs.
    pub fn total_fp16_flops(&self) -> f64 {
        self.gpu.spec().fp16_flops() * self.gpu_count as f64
    }
}

/// A directed network connection between two endpoints of the cluster.
///
/// `None` as an endpoint denotes the coordinator node (source/sink of the
/// flow abstraction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkLink {
    /// Origin (`None` = coordinator).
    pub from: Option<NodeId>,
    /// Destination (`None` = coordinator).
    pub to: Option<NodeId>,
    /// Bandwidth in Mbit/s.
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl NetworkLink {
    /// Bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_mbps * 1e6 / 8.0
    }

    /// Latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency_ms / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_aggregates_multi_gpu_resources() {
        let node = ComputeNode {
            id: NodeId(0),
            name: "t4x4-0".into(),
            gpu: GpuType::T4,
            gpu_count: 4,
            region: Region(0),
            nic_bandwidth_mbps: 10_000.0,
        };
        assert_eq!(node.total_vram_bytes(), 4.0 * 16e9);
        assert_eq!(node.total_fp16_flops(), 4.0 * 65e12);
    }

    #[test]
    fn link_unit_conversions() {
        let link = NetworkLink {
            from: None,
            to: Some(NodeId(1)),
            bandwidth_mbps: 80.0,
            latency_ms: 50.0,
        };
        assert_eq!(link.bandwidth_bytes_per_sec(), 10e6);
        assert_eq!(link.latency_secs(), 0.05);
    }

    #[test]
    fn ids_format_nicely() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(Region(1).to_string(), "region1");
        assert_eq!(NodeId(3).index(), 3);
    }
}
