//! Error type shared by the placement planner and schedulers.

use helix_cluster::{ModelId, NodeId};
use std::error::Error;
use std::fmt;

/// Why a scheduler had no pipeline to offer
/// ([`HelixError::NoCandidateAvailable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoCandidateReason {
    /// The topology's max flow is zero: no request could ever be scheduled.
    ZeroFlow,
    /// No node holding `layer` is connected to the stage before it.
    NoSuccessor {
        /// The first layer the walk could not place.
        layer: usize,
    },
    /// Every node that could continue from `layer` is masked out (e.g. all
    /// KV caches above the high-water mark).
    AllMasked {
        /// The first layer of the masked hop.
        layer: usize,
    },
    /// The walk did not reach the last layer within `num_layers` hops.
    PlacementCycle,
}

impl fmt::Display for NoCandidateReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoCandidateReason::ZeroFlow => write!(f, "placement admits zero serving throughput"),
            NoCandidateReason::NoSuccessor { layer } => {
                write!(f, "no successor can continue from layer {layer}")
            }
            NoCandidateReason::AllMasked { layer } => {
                write!(f, "all successors at layer {layer} are masked out")
            }
            NoCandidateReason::PlacementCycle => {
                write!(f, "pipeline walk did not terminate (placement cycle)")
            }
        }
    }
}

/// Errors produced by Helix planning and scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum HelixError {
    /// A placement assigned a node an invalid layer range.
    InvalidLayerRange {
        /// The offending node.
        node: NodeId,
        /// Start layer (inclusive).
        start: usize,
        /// End layer (exclusive).
        end: usize,
        /// Total number of model layers.
        num_layers: usize,
    },
    /// A placement exceeds a node's VRAM budget for weights.
    ExceedsNodeCapacity {
        /// The offending node.
        node: NodeId,
        /// Layers the placement asks the node to hold.
        layers: usize,
        /// Maximum layers the node can hold.
        max_layers: usize,
    },
    /// The placement cannot serve any request end-to-end (no source→sink path
    /// covering all layers).
    NoCompletePipeline,
    /// The planner could not find any feasible placement under the
    /// configured constraints and budget.
    NoPlacementFound,
    /// The underlying MILP solver failed.
    Milp(helix_milp::MilpError),
    /// The underlying flow computation failed.
    Flow(helix_maxflow::FlowError),
    /// A scheduler was asked to schedule before any pipeline exists or after
    /// all candidates were masked out.
    NoCandidateAvailable {
        /// Where the walk ended.  `Copy`: a deferred admission is retried —
        /// and fails like this — thousands of times per run, and nobody
        /// reads a sentence built for each.
        reason: NoCandidateReason,
    },
    /// A request referenced a model the fleet does not serve.
    UnknownModel {
        /// The requested model.
        model: ModelId,
        /// Number of models the fleet serves.
        num_models: usize,
    },
    /// A fleet was wired with the wrong number of per-model schedulers.
    SchedulerCountMismatch {
        /// Models the fleet serves.
        models: usize,
        /// Schedulers supplied.
        schedulers: usize,
    },
    /// A partial-layer migration cannot be resolved against the current
    /// placement.
    InvalidMigration {
        /// The model whose layers were to move.
        model: ModelId,
        /// The source node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The moved layer range.
        layers: crate::placement::LayerRange,
        /// Why the migration is invalid.
        why: &'static str,
    },
    /// A fleet placement over-commits a node's VRAM across models.
    FleetVramOverflow {
        /// The over-committed node.
        node: NodeId,
        /// Bytes of weights the fleet places on the node.
        needed_bytes: f64,
        /// Bytes of VRAM available for weights on the node.
        budget_bytes: f64,
    },
}

impl fmt::Display for HelixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HelixError::InvalidLayerRange { node, start, end, num_layers } => write!(
                f,
                "invalid layer range [{start}, {end}) on {node} for a model with {num_layers} layers"
            ),
            HelixError::ExceedsNodeCapacity { node, layers, max_layers } => write!(
                f,
                "placement puts {layers} layers on {node} which can hold at most {max_layers}"
            ),
            HelixError::NoCompletePipeline => {
                write!(f, "placement admits no complete pipeline from the first to the last layer")
            }
            HelixError::NoPlacementFound => {
                write!(f, "no feasible model placement found within the search budget")
            }
            HelixError::Milp(e) => write!(f, "milp solver error: {e}"),
            HelixError::Flow(e) => write!(f, "flow computation error: {e}"),
            HelixError::NoCandidateAvailable { reason } => {
                write!(f, "no schedulable candidate available: {reason}")
            }
            HelixError::UnknownModel { model, num_models } => {
                write!(f, "request for {model} but the fleet serves {num_models} model(s)")
            }
            HelixError::SchedulerCountMismatch { models, schedulers } => write!(
                f,
                "a fleet serving {models} model(s) needs one scheduler per model, got {schedulers}"
            ),
            HelixError::InvalidMigration { model, from, to, layers, why } => write!(
                f,
                "cannot migrate layers {layers} of {model} from {from} to {to}: {why}"
            ),
            HelixError::FleetVramOverflow { node, needed_bytes, budget_bytes } => write!(
                f,
                "fleet placement puts {needed_bytes:.0} bytes of weights on {node} whose weight budget is {budget_bytes:.0} bytes"
            ),
        }
    }
}

impl Error for HelixError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HelixError::Milp(e) => Some(e),
            HelixError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<helix_milp::MilpError> for HelixError {
    fn from(e: helix_milp::MilpError) -> Self {
        HelixError::Milp(e)
    }
}

impl From<helix_maxflow::FlowError> for HelixError {
    fn from(e: helix_maxflow::FlowError) -> Self {
        HelixError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HelixError>();
        let e = HelixError::ExceedsNodeCapacity {
            node: NodeId(1),
            layers: 9,
            max_layers: 4,
        };
        assert!(e.to_string().contains("9 layers"));
        let from_milp: HelixError = helix_milp::MilpError::Infeasible.into();
        assert!(matches!(from_milp, HelixError::Milp(_)));
        assert!(from_milp.source().is_some());
        let from_flow: HelixError = helix_maxflow::FlowError::SourceIsSink.into();
        assert!(matches!(from_flow, HelixError::Flow(_)));
    }

    /// The sentences the `context: String` field carried, word for word.
    #[test]
    fn no_candidate_reasons_print_the_sentences_they_replaced() {
        let text = |reason| HelixError::NoCandidateAvailable { reason }.to_string();
        let prefix = "no schedulable candidate available: ";
        assert_eq!(
            text(NoCandidateReason::ZeroFlow),
            format!("{prefix}placement admits zero serving throughput")
        );
        assert_eq!(
            text(NoCandidateReason::NoSuccessor { layer: 12 }),
            format!("{prefix}no successor can continue from layer 12")
        );
        assert_eq!(
            text(NoCandidateReason::AllMasked { layer: 7 }),
            format!("{prefix}all successors at layer 7 are masked out")
        );
        assert_eq!(
            text(NoCandidateReason::PlacementCycle),
            format!("{prefix}pipeline walk did not terminate (placement cycle)")
        );
    }
}
