//! What travels the network fabric between the coordinator and the
//! compute-node workers.
//!
//! The paper's prototype uses ZeroMQ to ship requests and activations between
//! nodes (§6.1).  The runtime's messages are what a pipeline does, in the
//! simulator's wire form: a *work* message is the 24-byte [`Hop`] carrying a
//! request (and, implicitly, its activations) to the node that executes the
//! next pipeline stage, and an *iteration done* message returns the newly
//! generated token to the coordinator under the request's slot and epoch.
//! Neither carries the pipeline: a hop is resolved against its slot's lane
//! in the actuator's [`RequestTable`](helix_core::RequestTable) where it
//! lands and where its stage finishes, so work of an aborted incarnation is
//! dropped there without a lookup.  The shared actuator sends both through
//! the fabric's `Wire::send_hop`.  KV bookkeeping is not a message:
//! releasing or seeding a request's KV and handing a layer range over are
//! the actuator's calls on the worker rows, priced on the link they would
//! cross (`Wire::transfer`, `Wire::call`) — exactly as for the simulator —
//! and so are slowing a row down, re-planning it and failing it.

use helix_cluster::NodeId;
use helix_core::Hop;

/// Which phase of auto-regressive generation a work item belongs to (the
/// shared execution-model type).
pub use helix_core::exec_model::Phase;

/// A message deliverable to a worker or to the coordinator.
#[derive(Debug, Clone)]
pub(crate) enum RuntimeMsg {
    /// Execute one pipeline stage of one request iteration.
    Work(Hop),
    /// A full pipeline pass finished and produced one token; sent to the
    /// coordinator by the node executing the last stage.
    IterationDone {
        /// The slot of the request that generated the token.
        slot: u32,
        /// The incarnation of the pipeline that executed the iteration; the
        /// coordinator drops reports whose lane has moved on (the request was
        /// promoted or re-admitted since the work was dispatched).
        epoch: u64,
        /// Virtual time at which the last stage finished.
        emitted_at: f64,
    },
}

/// An addressed message travelling through the network fabric.
///
/// `None` endpoints denote the coordinator, mirroring the flow-graph
/// convention where the coordinator is source and sink; the endpoints name
/// the link, which every model of the fleet shares.  Work is delivered to
/// the (node, model) row its lane names, resolved against the worker table
/// *per message*, so a row a mid-run placement delta adds is addressable at
/// once.  A row is never removed: one the plan dropped still executes what
/// reaches it, and a failed one queues it behind no batch.  An iteration
/// report goes to the coordinator.
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
/// Gives `request` a slot in `requests` whose lane is the single stage
/// `(node, model)` over layers `[0, 4)`, and returns the decode hop of it.
pub(crate) fn one_stage_hop(
    requests: &mut helix_core::RequestTable,
    request: helix_workload::RequestId,
    (node, model): crate::registry::WorkerKey,
) -> Hop {
    use helix_core::{Dispatch, LayerRange, PipelineStage, RequestPipeline};
    let slot = requests.insert(helix_workload::Request {
        id: request,
        model,
        ..Default::default()
    });
    let stages = vec![PipelineStage {
        node,
        layers: LayerRange::new(0, 4),
    }];
    let dispatch = Dispatch {
        pipeline: std::sync::Arc::new(RequestPipeline { model, stages }),
        epoch: 0,
        prefill_tokens: 1,
        prefix: None,
        resume_tokens: None,
        generated: 0,
    };
    requests.open(slot, &dispatch);
    Hop::decode(slot, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_display_names() {
        assert_eq!(Phase::Prompt.to_string(), "prompt");
        assert_eq!(Phase::Decode.to_string(), "decode");
    }
}
