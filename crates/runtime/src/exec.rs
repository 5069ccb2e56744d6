//! Pluggable execution models: how long a batch takes on a worker.
//!
//! The paper's prototype executes real transformer layers through vLLM; this
//! runtime replaces the GPU kernels with a calibrated cost model (the same
//! substitution the paper's own simulator makes, §6.1) while keeping the rest
//! of the system — queues, messages, batching, KV paging — real.
//! The model is a trait so tests can plug in an instantaneous executor and
//! future work can plug in real kernels.

use crate::message::StageWork;
use helix_cluster::NodeProfile;
use helix_core::exec_model::{ExecModel, WorkUnit};

/// Computes how long (in virtual seconds) a dynamic batch takes on a node.
pub(crate) trait ExecutionModel {
    /// Duration of one batch of work items executing on this node.
    fn batch_duration(&self, items: &[StageWork]) -> f64;
}

/// The shared roofline cost model ([`helix_core::exec_model::ExecModel`])
/// applied to runtime stage work: prompt tokens are compute-bound and cheap
/// per token, decode tokens are memory-bound and expensive, and cost scales
/// with the number of layers the stage computes.  The simulator runs the
/// *same* model, so the two implementations cannot drift.
#[derive(Debug, Clone)]
pub(crate) struct AnalyticExecution {
    exec: ExecModel,
}

impl AnalyticExecution {
    /// Builds the cost model for a node from its profile.
    pub(crate) fn new(profile: &NodeProfile) -> Self {
        AnalyticExecution {
            exec: ExecModel::new(profile),
        }
    }
}

impl ExecutionModel for AnalyticExecution {
    fn batch_duration(&self, items: &[StageWork]) -> f64 {
        self.exec.batch_secs(items.iter().map(|item| WorkUnit {
            phase: item.phase,
            tokens: item.tokens,
            layers: item.pipeline.stages[item.stage_index].layers.len(),
        }))
    }
}

/// An execution model in which every batch completes instantly.  Useful for
/// functional tests that exercise message routing, KV accounting and request
/// lifecycle without waiting on the cost model.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InstantExecution;

impl ExecutionModel for InstantExecution {
    fn batch_duration(&self, _items: &[StageWork]) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Phase;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};
    use helix_core::{LayerRange, PipelineStage, RequestPipeline};
    use std::sync::Arc;

    fn work(phase: Phase, tokens: usize, layers: usize) -> StageWork {
        StageWork {
            request: 1,
            phase,
            tokens,
            stage_index: 0,
            epoch: 0,
            pipeline: Arc::new(RequestPipeline {
                model: helix_cluster::ModelId::default(),
                stages: vec![PipelineStage {
                    node: NodeId(0),
                    layers: LayerRange::new(0, layers),
                }],
            }),
            prefix: None,
        }
    }

    fn model() -> AnalyticExecution {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        AnalyticExecution::new(profile.node_profile(NodeId(0)))
    }

    #[test]
    fn decode_tokens_cost_more_than_prompt_tokens() {
        let exec = model();
        let prompt = exec.batch_duration(&[work(Phase::Prompt, 100, 8)]);
        let decode = exec.batch_duration(&[work(Phase::Decode, 100, 8)]);
        assert!(decode > prompt);
    }

    #[test]
    fn duration_scales_with_layers_and_batch_overhead_applies_once() {
        let exec = model();
        let shallow = exec.batch_duration(&[work(Phase::Decode, 1, 2)]);
        let deep = exec.batch_duration(&[work(Phase::Decode, 1, 8)]);
        assert!(deep > shallow);
        let batched = exec.batch_duration(&[work(Phase::Decode, 1, 2), work(Phase::Decode, 1, 2)]);
        let two_batches = 2.0 * shallow;
        assert!(
            batched < two_batches,
            "batching amortises the fixed overhead"
        );
        assert_eq!(exec.batch_duration(&[]), 0.0);
    }

    #[test]
    fn instant_execution_is_free() {
        let exec = InstantExecution;
        assert_eq!(exec.batch_duration(&[work(Phase::Prompt, 1000, 10)]), 0.0);
    }
}
