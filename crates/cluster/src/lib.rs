//! GPU, model and cluster specifications for Helix.
//!
//! The Helix planner and simulator need three kinds of facts about the world:
//!
//! 1. **Hardware** — what GPUs exist and what they can do ([`GpuType`],
//!    [`GpuSpec`], Table 3 of the paper).
//! 2. **Models** — how big the LLM is and what a token costs to compute,
//!    transmit and cache ([`ModelConfig`]).
//! 3. **Clusters** — which compute nodes exist, what GPUs they carry, and the
//!    bandwidth/latency between them ([`ClusterSpec`], [`ComputeNode`],
//!    [`NetworkLink`]), including builders for the three cluster setups used
//!    in the paper's evaluation (§6.2).
//!
//! [`ClusterProfile`] combines all three into the numbers the planner
//! actually consumes: per-node maximum layer counts and `T_j` throughputs
//! (tokens/s when holding `j` layers) and per-link token capacities.  The
//! paper obtains these via one-time profiling on real GPUs; we use an
//! analytic roofline-style model of the same quantities (see `DESIGN.md` for
//! the substitution rationale).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod cluster_spec;
mod gpu;
mod model;
mod node;
mod profile;

pub use cluster_spec::{ClusterBuilder, ClusterSpec};
pub use gpu::{GpuSpec, GpuType};
pub use model::{ModelConfig, ModelId, PrefixId};
pub use node::{ComputeNode, NetworkLink, NodeId, Region};
pub use profile::{
    ClusterProfile, LinkProfile, NodeProfile, MAX_WEIGHT_VRAM_FRACTION, PROMPT_EFFICIENCY,
};

/// Bytes used to transmit one token id between the coordinator and compute
/// nodes (paper Fig. 2: "Token size: 4 Byte").
pub const TOKEN_WIRE_BYTES: f64 = 4.0;

/// Fraction of peak FP16 throughput a GPU sustains for LLM decode-style
/// inference.  Decode is memory-bound and runs far below peak tensor
/// throughput; the exact value only scales all node capacities uniformly.
pub const DECODE_EFFICIENCY: f64 = 0.12;

/// Fraction of GPU VRAM reserved for model parameters; the remainder holds
/// the KV cache (the paper's Table 1 and §6.2 use a 50/50 split).
pub const WEIGHT_VRAM_FRACTION: f64 = 0.5;
