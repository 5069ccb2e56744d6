//! The simulator's events and their queue.

use helix_cluster::{ModelId, NodeId, Region};
use helix_core::{Hop, LayerRange, Timeline, WireEvent};
use helix_workload::RequestId;

/// Simulation time in seconds since the simulator's clock started.
pub type SimTime = f64;

/// A scripted mid-run disturbance of the cluster or the workload — the
/// scenarios the online re-planning loop exists to absorb.
///
/// Each is one primitive step at one instant, `at`, a reading of the
/// simulator's clock: one timed before the clock's reading when it is run
/// happens at that reading.  A disturbance with a duration is two steps,
/// such as [`PerturbationEvent::NodeSlowdown`] and a later
/// [`PerturbationEvent::NodeRecovery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationEvent {
    /// The node's batches start taking `factor`× the cost model's prediction
    /// (thermal throttling, a noisy co-tenant, a failing NIC…).
    NodeSlowdown {
        /// When the slowdown begins (simulated seconds).
        at: SimTime,
        /// The affected node.
        node: NodeId,
        /// Duration multiplier (`2.0` = half speed).
        factor: f64,
    },
    /// The node returns to nominal speed.
    NodeRecovery {
        /// When the recovery happens.
        at: SimTime,
        /// The recovered node.
        node: NodeId,
    },
    /// The node drops out: its engines stop, in-flight pipelines through it
    /// are aborted and re-admitted, and an immediate re-plan removes it from
    /// every model's placement.
    NodeFailure {
        /// When the node fails.
        at: SimTime,
        /// The failed node.
        node: NodeId,
    },
    /// Every node of `region` drops out at once — a power or backbone
    /// failure taking a whole regional cluster down.  All the region's
    /// engines stop, in-flight pipelines crossing any of its nodes are
    /// aborted and re-admitted under new epochs, their KV pages and prefix
    /// homes are purged, and **one** re-plan removes the entire region from
    /// every model's placement (per-node re-plans would thrash, and an
    /// intermediate single-node removal may be infeasible even when the
    /// full-region removal is not).
    RegionOutage {
        /// When the region fails.
        at: SimTime,
        /// The failed region (nodes resolved against the fleet's cluster
        /// spec at apply time).
        region: Region,
    },
    /// A failed node comes back: its engines recover, and the planner hands
    /// it back the layer ranges it held when it failed (an assign-delta
    /// re-plan; a no-op for a node that never left the plan).  A flapping
    /// node is a [`PerturbationEvent::NodeFailure`] and a later rejoin; a
    /// healed partition is a [`PerturbationEvent::RegionOutage`] and one
    /// rejoin per node of the region.
    NodeRejoin {
        /// When the node rejoins.
        at: SimTime,
        /// The rejoining node.
        node: NodeId,
    },
    /// The arrival process speeds up (`factor > 1`) or slows down
    /// (`factor < 1`) for every request arriving after `at`.
    ArrivalRateShift {
        /// When the shift takes effect.
        at: SimTime,
        /// Rate multiplier applied to subsequent inter-arrival gaps.
        factor: f64,
    },
    /// A partial-layer migration: `layers` of `model` move from `from` to
    /// `to` together with their KV state.  The fleet re-plans with the
    /// equivalent placement delta, the KV pages travel over the `from → to`
    /// link as modelled traffic, and both engines are frozen until the
    /// transfer lands (freeze → transfer → re-route → resume); in-flight
    /// pipelines keep their routes and are never dropped.
    Migrate {
        /// When the migration is initiated.
        at: SimTime,
        /// The model whose layers move.
        model: ModelId,
        /// The node giving the layers up.
        from: NodeId,
        /// The node receiving them.
        to: NodeId,
        /// The moved layer sub-range.
        layers: LayerRange,
    },
}

impl PerturbationEvent {
    /// When the perturbation takes effect.
    pub fn at(&self) -> SimTime {
        match *self {
            PerturbationEvent::NodeSlowdown { at, .. }
            | PerturbationEvent::NodeRecovery { at, .. }
            | PerturbationEvent::NodeFailure { at, .. }
            | PerturbationEvent::RegionOutage { at, .. }
            | PerturbationEvent::NodeRejoin { at, .. }
            | PerturbationEvent::ArrivalRateShift { at, .. }
            | PerturbationEvent::Migrate { at, .. } => at,
        }
    }
}

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
    /// A scripted cluster/workload disturbance takes effect.
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
