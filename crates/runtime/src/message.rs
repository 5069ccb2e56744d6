//! What travels the network fabric between the coordinator and the
//! compute-node workers.
//!
//! The paper's prototype uses ZeroMQ to ship requests and activations between
//! nodes (§6.1).  The runtime's messages are what a pipeline does: a *work*
//! message carrying a request (and, implicitly, its activations) to the node
//! that executes the next pipeline stage, and an *iteration done* message
//! returning the newly generated token to the coordinator.  KV bookkeeping
//! is not a message: releasing or seeding a request's KV and handing a
//! layer range over are method calls on the worker's row, priced on the
//! link they would cross (`Fabric::transfer`) — as the simulator does them —
//! and so are slowing a row down and re-planning it.

use helix_cluster::{ModelId, NodeId};
use helix_core::{PrefixWork, RequestPipeline};
use helix_workload::RequestId;
use std::sync::Arc;

/// Which phase of auto-regressive generation a work item belongs to (the
/// shared execution-model type).
pub use helix_core::exec_model::Phase;

/// One unit of work for one pipeline stage of one request iteration.
#[derive(Debug, Clone)]
pub(crate) struct StageWork {
    /// The request being served.
    pub request: RequestId,
    /// Prompt or decode iteration.
    pub phase: Phase,
    /// Tokens processed at this stage in this iteration (all prompt tokens
    /// for the prompt phase, one token for a decode iteration).
    pub tokens: usize,
    /// Index into `pipeline.stages` of the stage this work belongs to.
    pub stage_index: usize,
    /// The request's incarnation: bumped by the fail-over controller each
    /// time the request is promoted onto a replica pipeline or aborted and
    /// re-admitted, so iteration reports from a pre-failure pipeline that
    /// was still draining through surviving stages are recognisably stale.
    pub epoch: u64,
    /// The per-request pipeline assigned by the coordinator on arrival; decode
    /// iterations reuse it unchanged (paper §5.1).
    pub pipeline: Arc<RequestPipeline>,
    /// Shared-prefix work riding on this item (prompt phase only; `None`
    /// for decode iterations and prefix-free requests).  Workers attach the
    /// refcounted pool entry on the first stage arrival; a cache hit's
    /// `tokens` already exclude the shared range.
    pub prefix: Option<PrefixWork>,
}

impl StageWork {
    /// The node that must execute this work item.
    ///
    /// # Panics
    ///
    /// Panics if `stage_index` is out of bounds for the pipeline (a
    /// coordinator/worker bug).
    pub fn node(&self) -> NodeId {
        self.pipeline.stages[self.stage_index].node
    }

    /// The fleet model this work belongs to.
    pub fn model(&self) -> ModelId {
        self.pipeline.model
    }

    /// Whether this is the last stage of the pipeline.
    pub fn is_last_stage(&self) -> bool {
        self.stage_index + 1 == self.pipeline.stages.len()
    }

    /// The work item for the next pipeline stage of the same iteration.
    ///
    /// # Panics
    ///
    /// Panics if this is already the last stage.
    pub fn next_stage(&self) -> StageWork {
        assert!(
            !self.is_last_stage(),
            "next_stage called on the last pipeline stage"
        );
        StageWork {
            stage_index: self.stage_index + 1,
            pipeline: Arc::clone(&self.pipeline),
            ..*self
        }
    }
}

/// A message deliverable to a worker or to the coordinator.
#[derive(Debug, Clone)]
pub(crate) enum RuntimeMsg {
    /// Execute one pipeline stage of one request iteration.
    Work(StageWork),
    /// A full pipeline pass finished and produced one token; sent to the
    /// coordinator by the node executing the last stage.
    IterationDone {
        /// The request that generated the token.
        request: RequestId,
        /// Virtual time at which the last stage finished.
        emitted_at: f64,
        /// The incarnation of the pipeline that executed the iteration; the
        /// coordinator drops reports whose epoch is stale (the request was
        /// promoted or re-admitted since the work was dispatched).
        epoch: u64,
    },
}

/// An addressed message travelling through the network fabric.
///
/// `None` endpoints denote the coordinator, mirroring the flow-graph
/// convention where the coordinator is source and sink; the endpoints name
/// the link, which every model of the fleet shares.  Work is delivered to
/// the (node, model) row of its stage, resolved against the worker table
/// *per message*, so a row a mid-run placement delta adds is addressable at
/// once (and a retired or failed one stops being addressable at once: what
/// is still on the wire for it is dropped on arrival).  An iteration report
/// goes to the coordinator.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sending endpoint (`None` = coordinator).
    pub from: Option<NodeId>,
    /// Receiving endpoint (`None` = coordinator).
    pub to: Option<NodeId>,
    /// Payload size used for bandwidth modelling.
    pub bytes: f64,
    /// The message itself.
    pub msg: RuntimeMsg,
}

#[cfg(test)]
impl StageWork {
    /// One decode token of `request` on a pipeline that is the single stage
    /// `(node, model)` over layers `[0, 4)`.
    pub(crate) fn one_stage(request: RequestId, node: NodeId, model: ModelId) -> Self {
        let stage = helix_core::PipelineStage {
            node,
            layers: helix_core::LayerRange::new(0, 4),
        };
        StageWork {
            request,
            phase: Phase::Decode,
            tokens: 1,
            stage_index: 0,
            epoch: 0,
            pipeline: Arc::new(RequestPipeline {
                model,
                stages: vec![stage],
            }),
            prefix: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_core::{LayerRange, PipelineStage};

    fn pipeline() -> Arc<RequestPipeline> {
        Arc::new(RequestPipeline {
            model: ModelId::default(),
            stages: vec![
                PipelineStage {
                    node: NodeId(0),
                    layers: LayerRange::new(0, 4),
                },
                PipelineStage {
                    node: NodeId(3),
                    layers: LayerRange::new(4, 8),
                },
            ],
        })
    }

    #[test]
    fn stage_work_walks_the_pipeline() {
        let work = StageWork {
            request: 7,
            phase: Phase::Prompt,
            tokens: 128,
            stage_index: 0,
            epoch: 0,
            pipeline: pipeline(),
            prefix: None,
        };
        assert_eq!(work.node(), NodeId(0));
        assert!(!work.is_last_stage());
        let next = work.next_stage();
        assert_eq!(next.node(), NodeId(3));
        assert_eq!(next.tokens, 128);
        assert_eq!(next.phase, Phase::Prompt);
        assert!(next.is_last_stage());
    }

    #[test]
    #[should_panic(expected = "last pipeline stage")]
    fn next_stage_past_the_end_panics() {
        let work = StageWork {
            request: 7,
            phase: Phase::Decode,
            tokens: 1,
            stage_index: 1,
            epoch: 0,
            pipeline: pipeline(),
            prefix: None,
        };
        let _ = work.next_stage();
    }

    #[test]
    fn phase_display_names() {
        assert_eq!(Phase::Prompt.to_string(), "prompt");
        assert_eq!(Phase::Decode.to_string(), "decode");
    }
}
