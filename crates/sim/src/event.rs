//! The simulator's events and their queue.

use helix_cluster::{ModelId, NodeId, Region};
use helix_core::{Hop, LayerRange, Timeline};
use helix_workload::RequestId;

/// Simulation time in seconds since the start of the run.
pub type SimTime = f64;

/// A scripted mid-run disturbance of the cluster or the workload — the
/// scenarios the online re-planning loop exists to absorb.
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
    /// The node drops out and rejoins `down_secs` later — a flapping node.
    /// The down edge is a full [`PerturbationEvent::NodeFailure`] (abort or
    /// promote in-flight pipelines, purge, re-plan); the rejoin restores the
    /// node's engines and hands its pre-failure layer ranges back to the
    /// planner via an assign-delta re-plan.
    NodeFlap {
        /// When the node drops.
        at: SimTime,
        /// The flapping node.
        node: NodeId,
        /// How long the node stays down before rejoining.
        down_secs: SimTime,
    },
    /// The node keeps serving but `factor`× slower until it recovers
    /// `recover_secs` later — a straggler rather than a failure.  Equivalent
    /// to a [`PerturbationEvent::NodeSlowdown`] with a scheduled
    /// [`PerturbationEvent::NodeRecovery`].
    NodeStraggler {
        /// When the straggle begins.
        at: SimTime,
        /// The straggling node.
        node: NodeId,
        /// Duration multiplier while straggling.
        factor: f64,
        /// How long until the node returns to nominal speed.
        recover_secs: SimTime,
    },
    /// Every node of `region` becomes unreachable for `heal_secs` — a network
    /// partition rather than a power loss.  The partitioned side is treated
    /// as failed (the coordinator cannot tell a partition from a crash), and
    /// when the partition heals every node rejoins as in
    /// [`PerturbationEvent::NodeFlap`].
    RegionPartition {
        /// When the partition forms.
        at: SimTime,
        /// The partitioned region.
        region: Region,
        /// How long until the partition heals.
        heal_secs: SimTime,
    },
    /// Internal: a previously flapped/partitioned node comes back.  Scheduled
    /// by [`PerturbationEvent::NodeFlap`] / [`PerturbationEvent::RegionPartition`];
    /// not normally scripted directly.
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
            | PerturbationEvent::NodeFlap { at, .. }
            | PerturbationEvent::NodeStraggler { at, .. }
            | PerturbationEvent::RegionPartition { at, .. }
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
