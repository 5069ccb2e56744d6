//! The execution cost model shared by every evaluation surface.
//!
//! The paper's prototype replaces GPU kernels with a calibrated cost model
//! (§6.1), and both the discrete-event simulator (`helix-sim`) and the
//! threaded prototype runtime (`helix-runtime`) execute against it.  Those
//! two crates previously each carried a private copy of the constants and
//! the batching formula — and the copies had drifted (`KV_OVERFLOW_PENALTY`
//! was 4.0 in the simulator and 8.0 in the runtime, silently making the two
//! implementations disagree about the cost of KV exhaustion).  This module is
//! now the single source of truth: one set of constants, one per-item cost
//! formula, one batching rule, one KV-overflow penalty.
//!
//! The model (mirroring §5.1–§5.2 and the simulator description in §6.1):
//!
//! * a batch pays a fixed overhead ([`BATCH_OVERHEAD_SECS`]) once, then each
//!   work item costs `tokens × layers × seconds-per-token-layer`, with
//!   different per-token costs for the compute-bound prompt phase and the
//!   memory-bound decode phase;
//! * a node whose KV cache is over capacity must offload to host memory,
//!   multiplying the whole batch duration by [`KV_OVERFLOW_PENALTY`].

use helix_cluster::NodeProfile;

/// Fixed per-batch overhead in seconds (kernel launches, batch assembly,
/// framework bookkeeping).  Penalises very deep pipelines and tiny batches
/// the same way a real serving stack does.
pub const BATCH_OVERHEAD_SECS: f64 = 0.015;

/// Multiplier applied to a batch's execution time while the node's KV cache
/// is over capacity and requests must be offloaded to host memory (§5.2:
/// exceeding the KV budget "significantly harms throughput").
///
/// Historical note: the simulator used 4.0 and the runtime 8.0; the
/// simulator's value is kept because the simulator is the surface the
/// paper's numbers are validated against.
pub const KV_OVERFLOW_PENALTY: f64 = 4.0;

/// Number of tokens per KV page (vLLM's default block size, used by the
/// runtime's paged KV pool and anywhere else paging granularity matters).
pub const DEFAULT_TOKENS_PER_PAGE: usize = 16;

/// Which phase of auto-regressive generation a work item belongs to.
///
/// This is the one `Phase` type used across the scheduler, the simulator and
/// the runtime (each previously declared its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The first iteration: all prompt tokens are processed at once
    /// (compute-bound, cheap per token).
    Prompt,
    /// A subsequent iteration: a single new token is processed
    /// (memory-bound, expensive per token).
    Decode,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Prompt => f.write_str("prompt"),
            Phase::Decode => f.write_str("decode"),
        }
    }
}

/// One work item as the cost model sees it: which phase, how many tokens,
/// through how many layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Prompt or decode.
    pub phase: Phase,
    /// Tokens processed (prompt length for the prompt phase, 1 for decode).
    pub tokens: usize,
    /// Layers the node computes for this item.
    pub layers: usize,
}

/// The roofline-style execution cost model of one compute node.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};
/// use helix_core::exec_model::{ExecModel, Phase, WorkUnit};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let model = ExecModel::new(profile.node_profile(NodeId(0)));
/// let prompt = model.batch_secs([WorkUnit { phase: Phase::Prompt, tokens: 100, layers: 8 }]);
/// let decode = model.batch_secs([WorkUnit { phase: Phase::Decode, tokens: 100, layers: 8 }]);
/// assert!(decode > prompt, "decode tokens are memory-bound and cost more");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecModel {
    prompt_secs_per_token_layer: f64,
    decode_secs_per_token_layer: f64,
}

impl ExecModel {
    /// Builds the cost model for a node from its analytic profile.
    pub fn new(profile: &NodeProfile) -> Self {
        ExecModel {
            prompt_secs_per_token_layer: 1.0 / profile.prompt_tokens_per_layer_sec.max(1e-9),
            decode_secs_per_token_layer: 1.0 / profile.decode_tokens_per_layer_sec.max(1e-9),
        }
    }

    /// Seconds one work item contributes to its batch (excluding the
    /// per-batch overhead).
    fn item_secs(&self, item: WorkUnit) -> f64 {
        let per_token_layer = match item.phase {
            Phase::Prompt => self.prompt_secs_per_token_layer,
            Phase::Decode => self.decode_secs_per_token_layer,
        };
        item.tokens as f64 * item.layers as f64 * per_token_layer
    }

    /// Duration of one dynamic batch: the fixed overhead plus the sum of
    /// per-item costs.  An empty batch costs nothing.
    pub fn batch_secs<I: IntoIterator<Item = WorkUnit>>(&self, items: I) -> f64 {
        let mut total = 0.0;
        let mut any = false;
        for item in items {
            any = true;
            total += self.item_secs(item);
        }
        if any {
            BATCH_OVERHEAD_SECS + total
        } else {
            0.0
        }
    }

    /// Applies the KV-overflow penalty to a batch duration when the node's
    /// KV cache is over capacity.
    pub fn apply_kv_overflow(duration_secs: f64, overflowed: bool) -> f64 {
        if overflowed {
            duration_secs * KV_OVERFLOW_PENALTY
        } else {
            duration_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};

    fn model() -> ExecModel {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        ExecModel::new(profile.node_profile(NodeId(0)))
    }

    fn unit(phase: Phase, tokens: usize, layers: usize) -> WorkUnit {
        WorkUnit {
            phase,
            tokens,
            layers,
        }
    }

    #[test]
    fn decode_costs_more_than_prompt_per_token() {
        let m = model();
        assert!(
            m.item_secs(unit(Phase::Decode, 100, 8)) > m.item_secs(unit(Phase::Prompt, 100, 8))
        );
    }

    #[test]
    fn batching_amortises_the_fixed_overhead() {
        let m = model();
        let one = m.batch_secs([unit(Phase::Decode, 1, 2)]);
        let two_batched = m.batch_secs([unit(Phase::Decode, 1, 2), unit(Phase::Decode, 1, 2)]);
        assert!(two_batched < 2.0 * one);
        assert_eq!(m.batch_secs([]), 0.0);
    }

    #[test]
    fn cost_scales_with_layers_and_tokens() {
        let m = model();
        assert!(m.item_secs(unit(Phase::Decode, 1, 8)) > m.item_secs(unit(Phase::Decode, 1, 2)));
        assert!(m.item_secs(unit(Phase::Prompt, 64, 4)) > m.item_secs(unit(Phase::Prompt, 16, 4)));
    }

    #[test]
    fn kv_overflow_penalty_is_multiplicative() {
        assert_eq!(
            ExecModel::apply_kv_overflow(2.0, true),
            2.0 * KV_OVERFLOW_PENALTY
        );
        assert_eq!(ExecModel::apply_kv_overflow(2.0, false), 2.0);
    }

    #[test]
    fn phase_display_names() {
        assert_eq!(Phase::Prompt.to_string(), "prompt");
        assert_eq!(Phase::Decode.to_string(), "decode");
    }
}
