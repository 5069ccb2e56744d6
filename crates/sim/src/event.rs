//! The simulator's events and their queue.

use helix_cluster::{ModelId, NodeId};
use helix_core::{Hop, PerturbationEvent, Timeline, WireEvent};
use helix_workload::RequestId;

/// Simulation time in seconds since the simulator's clock started.
pub type SimTime = f64;

/// Events driving the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new request arrives at the coordinator.
    RequestArrival {
        /// The arriving request.
        request: RequestId,
    },
    /// A pipeline hop arrives at its stage's compute node (after network
    /// transfer).
    NodeArrival(Hop),
    /// A node finishes the current batch of one model's engine.
    BatchComplete {
        /// The node that finished.
        node: NodeId,
        /// The model whose engine finished.
        model: ModelId,
    },
    /// The coordinator receives a generated token for a request.
    TokenAtCoordinator {
        /// The slot of the request that produced the token.
        slot: u32,
        /// The admission epoch the token belongs to (see [`Hop::epoch`]).
        epoch: u64,
    },
    /// A scripted cluster disturbance takes effect.
    Perturbation(Box<PerturbationEvent>),
    /// Windowed observation boundary: interval metrics are emitted, engines
    /// are measured and the re-plan policy is consulted.
    ObservationTick,
    /// A KV hand-over finished: the frozen engines of a migration resume and
    /// restart batching if work queued up during the freeze.
    EngineThaw {
        /// The node whose engine thaws.
        node: NodeId,
        /// The model whose engine thaws.
        model: ModelId,
    },
}

/// The four events the shared wire queues, as the simulator's own.
impl From<WireEvent> for Event {
    fn from(event: WireEvent) -> Self {
        match event {
            WireEvent::NodeArrival(hop) => Event::NodeArrival(hop),
            WireEvent::TokenAtCoordinator { slot, epoch } => {
                Event::TokenAtCoordinator { slot, epoch }
            }
            WireEvent::BatchComplete((node, model)) => Event::BatchComplete { node, model },
            WireEvent::EngineThaw((node, model)) => Event::EngineThaw { node, model },
        }
    }
}

/// The simulator's time-ordered event queue: time order, then push order.
pub type EventQueue = Timeline<Event>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_is_three_words() {
        assert!(std::mem::size_of::<Event>() <= 24);
    }
}
