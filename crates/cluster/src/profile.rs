//! Analytic profiling of clusters: the numbers the planner and simulator
//! consume.
//!
//! The paper performs a one-time profiling run on every node and link (§4.3).
//! This module replaces that step with a roofline-style analytic model built
//! from the GPU data sheet (Table 3) and the model configuration: it yields
//! the same *kinds* of quantities — tokens/s a node can process when holding
//! `j` layers, tokens/s a link can carry — which is all the downstream
//! machinery needs.

use crate::cluster_spec::ClusterSpec;
use crate::model::ModelConfig;
use crate::node::{NetworkLink, NodeId};
use crate::{DECODE_EFFICIENCY, TOKEN_WIRE_BYTES, WEIGHT_VRAM_FRACTION};
use serde::{Deserialize, Serialize};

/// Fraction of peak FP16 throughput sustained during prompt processing
/// (large, compute-bound batches).
pub const PROMPT_EFFICIENCY: f64 = 0.40;

/// Hard ceiling on the fraction of VRAM that may hold weights; beyond the
/// recommended 50/50 split a node can over-pack weights (as the
/// separate-pipelines baseline does for LLaMA 70B, §6.3) at the cost of an
/// almost empty KV cache.
pub const MAX_WEIGHT_VRAM_FRACTION: f64 = 0.95;

/// Profiled characteristics of one compute node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Which node this profile describes.
    pub node: NodeId,
    /// Maximum number of layers the node can hold while leaving
    /// `1 - WEIGHT_VRAM_FRACTION` of VRAM free for KV cache.
    pub max_layers: usize,
    /// Hard maximum number of layers that physically fit in VRAM
    /// (`MAX_WEIGHT_VRAM_FRACTION` of it), leaving almost no KV cache.
    pub max_layers_absolute: usize,
    /// Decode tokens/s the node sustains per layer held (divide by the number
    /// of layers held to get the node's token throughput).
    pub decode_tokens_per_layer_sec: f64,
    /// Prompt tokens/s the node sustains per layer held.
    pub prompt_tokens_per_layer_sec: f64,
    /// Tokens/s the node's NIC can carry (activation-sized transfers).
    pub nic_tokens_per_sec: f64,
    /// Total VRAM in bytes.
    pub vram_bytes: f64,
}

impl NodeProfile {
    /// Decode throughput (tokens/s) when the node holds `layers` layers,
    /// including the NIC limit — this is the capacity of the `(c_in, c_out)`
    /// edge in the paper's graph abstraction.
    ///
    /// Returns 0 for `layers == 0` or `layers > max_layers`.
    pub fn throughput(&self, layers: usize) -> f64 {
        if layers == 0 || layers > self.max_layers_absolute {
            return 0.0;
        }
        (self.decode_tokens_per_layer_sec / layers as f64).min(self.nic_tokens_per_sec)
    }

    /// Prompt-phase throughput (tokens/s) when holding `layers` layers.
    pub fn prompt_throughput(&self, layers: usize) -> f64 {
        if layers == 0 || layers > self.max_layers_absolute {
            return 0.0;
        }
        self.prompt_tokens_per_layer_sec / layers as f64
    }
}

/// Profiled characteristics of one directed network link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// The underlying link (bandwidth, latency, endpoints).
    pub link: NetworkLink,
    /// Tokens/s the link can carry given the transfer size used on it
    /// (activations between compute nodes, raw token ids to/from the
    /// coordinator).
    pub tokens_per_sec: f64,
    /// Bytes transferred per token on this link.
    pub bytes_per_token: f64,
}

/// A cluster plus model, profiled into planner-ready numbers.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::single_cluster_24(),
///     ModelConfig::llama2_70b(),
/// );
/// let first = profile.cluster().nodes()[0].id;
/// assert!(profile.node_profile(first).max_layers > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterProfile {
    cluster: ClusterSpec,
    model: ModelConfig,
    nodes: Vec<NodeProfile>,
}

impl ClusterProfile {
    /// Builds an analytic profile of `cluster` serving `model`.
    pub fn analytic(cluster: ClusterSpec, model: ModelConfig) -> Self {
        let nodes = cluster
            .nodes()
            .iter()
            .map(|n| {
                let weight_budget = n.total_vram_bytes() * WEIGHT_VRAM_FRACTION;
                let max_layers = ((weight_budget / model.layer_weight_bytes()).floor() as usize)
                    .min(model.num_layers);
                let hard_budget = n.total_vram_bytes() * MAX_WEIGHT_VRAM_FRACTION;
                let max_layers_absolute = ((hard_budget / model.layer_weight_bytes()).floor()
                    as usize)
                    .min(model.num_layers)
                    .max(max_layers);
                let flops = n.total_fp16_flops();
                let decode_tokens_per_layer_sec =
                    flops * DECODE_EFFICIENCY / model.layer_flops_per_token();
                let prompt_tokens_per_layer_sec =
                    flops * PROMPT_EFFICIENCY / model.layer_flops_per_token();
                let nic_tokens_per_sec =
                    n.nic_bandwidth_mbps * 1e6 / 8.0 / model.activation_bytes();
                NodeProfile {
                    node: n.id,
                    max_layers,
                    max_layers_absolute,
                    decode_tokens_per_layer_sec,
                    prompt_tokens_per_layer_sec,
                    nic_tokens_per_sec,
                    vram_bytes: n.total_vram_bytes(),
                }
            })
            .collect();
        ClusterProfile {
            cluster,
            model,
            nodes,
        }
    }

    /// Derives the per-model view of this profile inside a multi-model
    /// fleet: node `i`'s compute and NIC throughputs are multiplied by
    /// `compute_share[i]` (this model's fraction of the node's compute) and,
    /// when `vram_override[i]` is `Some`, the node's VRAM is replaced so that
    /// KV-capacity arithmetic sees only this model's slice of the free VRAM.
    ///
    /// A share of exactly `1.0` and an override of `None` leave the node's
    /// numbers bit-identical to the base profile, which is what makes the
    /// single-model fleet a trivial special case.
    ///
    /// # Panics
    ///
    /// Panics if the slices are shorter than the node count.
    pub fn scaled(&self, compute_share: &[f64], vram_override: &[Option<f64>]) -> ClusterProfile {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let share = compute_share[i];
                NodeProfile {
                    node: n.node,
                    max_layers: n.max_layers,
                    max_layers_absolute: n.max_layers_absolute,
                    decode_tokens_per_layer_sec: n.decode_tokens_per_layer_sec * share,
                    prompt_tokens_per_layer_sec: n.prompt_tokens_per_layer_sec * share,
                    nic_tokens_per_sec: n.nic_tokens_per_sec * share,
                    vram_bytes: vram_override[i].unwrap_or(n.vram_bytes),
                }
            })
            .collect();
        ClusterProfile {
            cluster: self.cluster.clone(),
            model: self.model.clone(),
            nodes,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The model being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Profile of one node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_profile(&self, id: NodeId) -> &NodeProfile {
        &self.nodes[id.index()]
    }

    /// Profile of the directed link between two endpoints (`None` =
    /// coordinator).  Links touching the coordinator carry 4-byte token ids;
    /// links between compute nodes carry activations.
    pub fn link_profile(&self, from: Option<NodeId>, to: Option<NodeId>) -> LinkProfile {
        let link = self.cluster.link(from, to);
        let bytes_per_token = if from.is_none() || to.is_none() {
            TOKEN_WIRE_BYTES
        } else {
            self.model.activation_bytes()
        };
        LinkProfile {
            link,
            tokens_per_sec: link.bandwidth_bytes_per_sec() / bytes_per_token,
            bytes_per_token,
        }
    }

    /// KV-cache capacity, in tokens, of a node holding `layers` layers.
    ///
    /// The VRAM not occupied by the held layers' weights is available for KV
    /// cache; each cached token costs `kv_bytes_per_token_per_layer × layers`.
    pub fn kv_capacity_tokens(&self, id: NodeId, layers: usize) -> f64 {
        if layers == 0 {
            return 0.0;
        }
        let p = self.node_profile(id);
        let weights = self.model.layer_weight_bytes() * layers as f64;
        let free = (p.vram_bytes - weights).max(0.0);
        free / (self.model.kv_bytes_per_token_per_layer() * layers as f64)
    }

    /// The paper's early-stop upper bound (§4.5): total cluster serving
    /// throughput can never exceed the sum of per-node compute throughput
    /// averaged over the total number of layers.
    pub fn throughput_upper_bound(&self) -> f64 {
        let per_layer_total: f64 = self
            .nodes
            .iter()
            .map(|n| n.decode_tokens_per_layer_sec)
            .sum();
        per_layer_total / self.model.num_layers as f64
    }

    /// Minimum number of pipeline stages such that the weakest node can hold
    /// one stage within its weight budget (how the paper configures Swarm).
    pub fn min_pipeline_stages(&self) -> usize {
        let weakest_layers = self
            .nodes
            .iter()
            .map(|n| n.max_layers)
            .min()
            .unwrap_or(0)
            .max(1);
        self.model.num_layers.div_ceil(weakest_layers)
    }

    /// Whether nodes of the given profile indices can hold the whole model
    /// between them (used to decide if a GPU type can form its own pipeline).
    pub fn can_hold_model(&self, ids: &[NodeId]) -> bool {
        let total: usize = ids.iter().map(|&id| self.node_profile(id).max_layers).sum();
        total >= self.model.num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuType;

    fn profile_70b() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b())
    }

    #[test]
    fn a100_holds_more_layers_than_t4() {
        let p = profile_70b();
        let cluster = p.cluster().clone();
        let a100 = cluster
            .node_ids()
            .find(|&id| cluster.node(id).gpu == GpuType::A100_40)
            .unwrap();
        let t4 = cluster
            .node_ids()
            .find(|&id| cluster.node(id).gpu == GpuType::T4)
            .unwrap();
        assert!(p.node_profile(a100).max_layers > p.node_profile(t4).max_layers);
        // A 40 GB A100 with a 50% weight budget holds roughly 11-12 layers of 70B.
        let a100_layers = p.node_profile(a100).max_layers;
        assert!((8..=14).contains(&a100_layers), "got {a100_layers}");
    }

    #[test]
    fn throughput_decreases_with_more_layers() {
        let p = profile_70b();
        let id = p.cluster().nodes()[0].id;
        let np = p.node_profile(id).clone();
        assert!(np.throughput(1) >= np.throughput(2));
        assert!(np.throughput(2) >= np.throughput(4));
        assert_eq!(np.throughput(0), 0.0);
        assert_eq!(np.throughput(np.max_layers_absolute + 1), 0.0);
        assert!(np.max_layers_absolute >= np.max_layers);
        // Over-packing beyond the recommended budget is possible but slower per token held.
        assert!(np.throughput(np.max_layers_absolute) <= np.throughput(np.max_layers));
        assert!(np.prompt_throughput(1) > np.throughput(1));
    }

    #[test]
    fn no_single_gpu_type_can_hold_llama70b_alone_in_type_counts_of_the_paper() {
        // §6.3: for LLaMA 70B, nodes of a single GPU type cannot serve a
        // replica while leaving enough VRAM for KV cache... except A100s
        // (4x40GB = 160 GB; half is 80 GB < 140 GB of weights) - in fact none
        // of the three types can alone.
        let p = profile_70b();
        let cluster = p.cluster().clone();
        for gpu in [GpuType::A100_40, GpuType::L4, GpuType::T4] {
            let ids: Vec<_> = cluster
                .node_ids()
                .filter(|&id| cluster.node(id).gpu == gpu)
                .collect();
            assert!(
                !p.can_hold_model(&ids),
                "{gpu} alone should not hold LLaMA 70B"
            );
        }
        // But the full cluster can.
        let all: Vec<_> = cluster.node_ids().collect();
        assert!(p.can_hold_model(&all));
    }

    #[test]
    fn each_gpu_type_can_hold_llama30b_alone() {
        // §6.3: for LLaMA 30B each GPU type has enough nodes for its own pipeline.
        let p =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_30b());
        let cluster = p.cluster().clone();
        for gpu in [GpuType::A100_40, GpuType::L4, GpuType::T4] {
            let ids: Vec<_> = cluster
                .node_ids()
                .filter(|&id| cluster.node(id).gpu == gpu)
                .collect();
            assert!(p.can_hold_model(&ids), "{gpu} nodes should hold LLaMA 30B");
        }
    }

    #[test]
    fn scaled_profile_splits_compute_and_kv() {
        let p = profile_70b();
        let n = p.cluster().num_nodes();
        // Unit shares and no overrides reproduce the base profile exactly.
        let identity = p.scaled(&vec![1.0; n], &vec![None; n]);
        assert_eq!(identity, p);
        // A half share halves compute and NIC throughput but keeps layer
        // capacities (weight placement limits are fleet-level concerns).
        let mut shares = vec![1.0; n];
        shares[0] = 0.5;
        let mut overrides = vec![None; n];
        overrides[0] = Some(p.node_profile(NodeId(0)).vram_bytes * 0.5);
        let scaled = p.scaled(&shares, &overrides);
        let base0 = p.node_profile(NodeId(0));
        let scaled0 = scaled.node_profile(NodeId(0));
        assert_eq!(
            scaled0.decode_tokens_per_layer_sec,
            base0.decode_tokens_per_layer_sec * 0.5
        );
        assert_eq!(scaled0.max_layers, base0.max_layers);
        assert!(scaled.kv_capacity_tokens(NodeId(0), 4) < p.kv_capacity_tokens(NodeId(0), 4));
        // Untouched nodes stay identical.
        assert_eq!(scaled.node_profile(NodeId(1)), p.node_profile(NodeId(1)));
    }

    #[test]
    fn coordinator_links_carry_tokens_not_activations() {
        let p = profile_70b();
        let id = p.cluster().nodes()[0].id;
        let to_node = p.link_profile(None, Some(id));
        let between = p.link_profile(Some(id), Some(p.cluster().nodes()[1].id));
        assert_eq!(to_node.bytes_per_token, TOKEN_WIRE_BYTES);
        assert_eq!(between.bytes_per_token, p.model().activation_bytes());
        assert!(to_node.tokens_per_sec > between.tokens_per_sec);
    }

    #[test]
    fn kv_capacity_positive_and_decreasing_in_layers() {
        let p = profile_70b();
        let id = p.cluster().nodes()[0].id;
        let max = p.node_profile(id).max_layers;
        let at_half = p.kv_capacity_tokens(id, max / 2);
        let at_max = p.kv_capacity_tokens(id, max);
        assert!(at_half > at_max);
        assert!(at_max > 0.0);
        assert_eq!(p.kv_capacity_tokens(id, 0), 0.0);
    }

    #[test]
    fn upper_bound_and_pipeline_stages() {
        let p = profile_70b();
        assert!(p.throughput_upper_bound() > 0.0);
        // Weakest node is a T4 holding ~4 layers of 70B -> about 20 stages.
        let stages = p.min_pipeline_stages();
        assert!((15..=30).contains(&stages), "got {stages}");
    }
}
